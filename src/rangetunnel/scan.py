"""Assemble range-bound windows into breakout-probability scan events.

For every detected window the scanner takes the band as the wall, picks a
volatility (the latest rolling estimate inside the window, an externally
supplied series, or a pinned override), computes the barrier geometry and
transmission in the support-relative frame, and attaches any volatility fall
whose date lies inside the window. Reports serialize to CSV and JSON with the
same columns, numbers at 6 significant digits.
"""

from __future__ import annotations

import datetime as dt
import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .barrier import barrier_geometry, transmission_exact
from .market import PriceSeries, VolFallEvent, VolSeries, detect_ranges, detect_vol_fall, historical_volatility
from .types import BarrierGeometry, MarketParams, RangeBound, TransmissionResult

REPORT_COLUMNS = [
    "symbol",
    "window_start",
    "window_end",
    "support",
    "resistance",
    "K",
    "sigma",
    "r",
    "lambda",
    "S1",
    "d",
    "T",
    "vol_fall_ratio",
]


@dataclass(frozen=True)
class ScanConfig:
    """Detection and estimation knobs for a scan run."""

    min_len: int = 15
    band_tol: float = 0.05
    touch_count: int = 2
    vol_window: int = 21
    fall_lookback: int = 5
    fall_ratio: float = 0.7
    sigma_override: Optional[float] = None


@dataclass(frozen=True)
class ScanEvent:
    """One detected range with its breakout probability and diagnostics.

    vol_fall_ratio is the ``VolFallEvent.ratio`` of the latest volatility fall
    dated inside the window, None without one; ``detect_vol_fall`` bounds it.
    """

    symbol: str
    window_start: dt.date
    window_end: dt.date
    band: RangeBound
    sigma: float
    r: float
    geometry: BarrierGeometry
    transmission: TransmissionResult
    vol_fall_ratio: Optional[float] = None


def _pick_sigma(
    vol: Optional[VolSeries],
    window_start: dt.date,
    window_end: dt.date,
    cfg: ScanConfig,
) -> float:
    if cfg.sigma_override is not None:
        return cfg.sigma_override
    if vol is not None:
        # the latest estimate dated <= window_end; dates are strictly increasing
        i = bisect_right(vol.dates, window_end)
        if i and vol.dates[i - 1] >= window_start:
            return float(vol.values[i - 1])
    raise ValueError(
        f"no volatility estimate inside window {window_start}..{window_end}; "
        "supply a longer history, a volatility series, or a sigma override"
    )


def scan(
    series: PriceSeries,
    r: float,
    cfg: ScanConfig | None = None,
    vol: Optional[VolSeries] = None,
) -> list[ScanEvent]:
    """Scan a price series for range-bound windows and score each for breakout.

    Args:
        series: validated price history.
        r: annualized risk-free rate (> 0).
        cfg: detection/estimation configuration.
        vol: optional externally computed volatility series; when absent the
            rolling estimator runs on ``series`` if it is long enough.

    Returns:
        Events ordered by window end. A NO_BARRIER geometry is reported like
        any other, never dropped.
    """
    if r <= 0:
        raise ValueError(f"r must be > 0, got {r}")
    if cfg is None:
        cfg = ScanConfig()
    windows = detect_ranges(
        series, min_len=cfg.min_len, band_tol=cfg.band_tol, touch_count=cfg.touch_count
    )
    if vol is None and len(series) > cfg.vol_window:
        vol = historical_volatility(series, cfg.vol_window)
    falls: list[VolFallEvent] = []
    if vol is not None and len(vol) > cfg.fall_lookback:
        falls = detect_vol_fall(vol, cfg.fall_lookback, cfg.fall_ratio)

    dates = series.dates
    events: list[ScanEvent] = []
    for window in windows:
        start_date = dates[window.start]
        end_date = dates[window.end]
        sigma = _pick_sigma(vol, start_date, end_date, cfg)
        params = MarketParams(r=r, sigma=sigma)
        geometry = barrier_geometry(params, window.band)
        transmission = transmission_exact(params, window.band)
        fall = next((f for f in reversed(falls) if start_date <= f.date <= end_date), None)
        events.append(
            ScanEvent(
                symbol=series.symbol,
                window_start=start_date,
                window_end=end_date,
                band=window.band,
                sigma=sigma,
                r=r,
                geometry=geometry,
                transmission=transmission,
                vol_fall_ratio=fall.ratio if fall else None,
            )
        )
    events.sort(key=lambda e: (e.symbol, e.window_end))
    return events


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _event_row(event: ScanEvent) -> dict:
    return {
        "symbol": event.symbol,
        "window_start": event.window_start.isoformat(),
        "window_end": event.window_end.isoformat(),
        "support": event.band.support,
        "resistance": event.band.resistance,
        "K": event.band.width,
        "sigma": event.sigma,
        "r": event.r,
        "lambda": event.geometry.lam,
        "S1": event.geometry.s_exit,
        "d": event.geometry.width_d,
        "T": event.transmission.t_exact,
        "vol_fall_ratio": event.vol_fall_ratio,
    }


def report_csv(events: list[ScanEvent]) -> str:
    """Scan report as CSV with the standard column set."""
    lines = [",".join(REPORT_COLUMNS)]
    for event in events:
        row = _event_row(event)
        cells = []
        for col in REPORT_COLUMNS:
            value = row[col]
            if value is None:
                cells.append("")
            elif isinstance(value, float):
                cells.append(_fmt(value))
            else:
                cells.append(str(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def report_json(events: list[ScanEvent]) -> str:
    """Scan report as JSON: a list of objects with the same fields as the CSV."""
    rows = []
    for event in events:
        row = _event_row(event)
        for key, value in row.items():
            if isinstance(value, float):
                row[key] = float(_fmt(value))
        rows.append(row)
    return json.dumps(rows, indent=2) + "\n"
