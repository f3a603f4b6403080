"""Assemble range-bound windows into breakout-probability scan events.

For every detected window the scanner takes the band as the wall, picks a
volatility (the latest rolling estimate inside the window, an externally
supplied series, or a pinned override), computes the barrier geometry and
transmission in the support-relative frame, and attaches any volatility fall
whose date lies inside the window. Reports serialize to CSV and JSON with the
same columns, numbers at 6 significant digits.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import json
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

from .barrier import _geometry_and_transmission
from .market import (
    PriceSeries,
    VolFallEvent,
    VolSeries,
    _check_fall_knobs,
    _check_range_knobs,
    _check_vol_window,
    detect_ranges,
    detect_vol_fall,
    historical_volatility,
)
from .types import BarrierGeometry, MarketParams, RangeBound, _require_positive

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
    """Detection and estimation knobs for a scan run.

    The source of the ``scan`` command's defaults: each knob flag has its
    field's name as its dest and its field's default as its default. Every
    knob's rule is checked on construction, by the check that the function
    using the knob calls, so a bad knob fails before any data is read.
    """

    min_len: int = 15
    band_tol: float = 0.05
    touch_count: int = 2
    vol_window: int = 21
    fall_lookback: int = 5
    fall_ratio: float = 0.7
    sigma_override: Optional[float] = None

    def __post_init__(self) -> None:
        _check_range_knobs(self.min_len, self.band_tol, self.touch_count)
        _check_vol_window(self.vol_window)
        _check_fall_knobs(self.fall_lookback, self.fall_ratio)
        if self.sigma_override is not None:
            _require_positive("sigma", self.sigma_override)


@dataclass(frozen=True)
class ScanEvent:
    """One detected range with its breakout probability and diagnostics.

    transmission is the exact transmission coefficient T of the band's wall.
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
    transmission: float
    vol_fall_ratio: Optional[float] = None


def _latest_inside(dates: Sequence[dt.date], start: dt.date, end: dt.date) -> Optional[int]:
    """Index of the latest of the strictly increasing ``dates`` in start..end, or None."""
    i = bisect_right(dates, end)
    return i - 1 if i and dates[i - 1] >= start else None


def _pick_sigma(
    vol: Optional[VolSeries],
    window_start: dt.date,
    window_end: dt.date,
    cfg: ScanConfig,
) -> float:
    if cfg.sigma_override is not None:
        return cfg.sigma_override
    if vol is not None:
        i = _latest_inside(vol.dates, window_start, window_end)
        if i is not None:
            return float(vol.values[i])
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
        r: annualized risk-free rate (finite, > 0).
        cfg: detection/estimation configuration.
        vol: optional externally computed volatility series; when absent the
            rolling estimator runs on ``series`` if it is long enough.

    Returns:
        Events ordered by window end, as ``detect_ranges`` returns the
        windows. A NO_BARRIER geometry is reported like any other, never
        dropped.
    """
    _require_positive("r", r)
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
    fall_dates = [f.date for f in falls]

    dates = series.dates
    events: list[ScanEvent] = []
    for window in windows:
        start_date = dates[window.start]
        end_date = dates[window.end]
        sigma = _pick_sigma(vol, start_date, end_date, cfg)
        params = MarketParams(r=r, sigma=sigma)
        geometry, transmission = _geometry_and_transmission(params, window.band)
        fall = _latest_inside(fall_dates, start_date, end_date)
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
                vol_fall_ratio=None if fall is None else falls[fall].ratio,
            )
        )
    return events


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _cell(value: object) -> str:
    """A report cell: empty for None, a float at 6 significant digits, else ``str``."""
    if value is None:
        return ""
    return _fmt(value) if isinstance(value, float) else str(value)


def _json_value(value: object) -> object:
    """A JSON value: a float rounded to 6 significant digits, anything else as it is."""
    return float(_fmt(value)) if isinstance(value, float) else value


def _event_row(event: ScanEvent) -> dict:
    band, geo = event.band, event.geometry
    values = (  # in REPORT_COLUMNS order
        event.symbol, event.window_start.isoformat(), event.window_end.isoformat(),
        band.support, band.resistance, band.width, event.sigma, event.r,
        geo.lam, geo.s_exit, geo.width_d, event.transmission, event.vol_fall_ratio,
    )
    return dict(zip(REPORT_COLUMNS, values))


def report_csv(events: list[ScanEvent]) -> str:
    """Scan report as CSV with the standard column set; a symbol with a comma or quote is quoted."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    writer.writerows(map(_cell, _event_row(event).values()) for event in events)
    return out.getvalue()


# json.dumps with indent falls back to the pure-Python encoder; without indent it runs in C
_ROWS_ENCODER = json.JSONEncoder(separators=(",\n    ", ": "))


def report_json(events: list[ScanEvent]) -> str:
    """Scan report as JSON: a list of objects with the same fields as the CSV.

    The text is that of ``json.dumps(rows, indent=2)`` plus a newline. The C
    encoder writes the rows with their fields already on indented lines, and
    each row boundary (``},``, a newline, four spaces and ``{``) is then
    spread over lines. Strings have their newlines escaped and no value is an
    object, so that text occurs nowhere else.
    """
    if not events:
        return "[]\n"
    rows = [{k: _json_value(v) for k, v in _event_row(event).items()} for event in events]
    body = _ROWS_ENCODER.encode(rows)[2:-2]  # within the outer [{ and }]
    return "[\n  {\n    " + body.replace("},\n    {", "\n  },\n  {\n    ") + "\n  }\n]\n"
