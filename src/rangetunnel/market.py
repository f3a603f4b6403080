"""OHLC ingestion, volatility estimation, and range/volatility-fall detection.

CSV input is ``date,open,high,low,close[,volume]`` with ISO dates. Volatility
is the annualized rolling sample standard deviation of close-to-close log
returns (window 21 bars, 252 periods/year by default); an externally computed
series can be supplied instead as ``date,sigma``. Range-bound windows are
detected on closes: the band of a window is [min close, max close], and a
window qualifies when it is long enough, the band is tight relative to price,
and the closes visit both edges of the band often enough.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .types import RangeBound


class OhlcParseError(ValueError):
    """Malformed CSV content; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class OhlcValidationError(ValueError):
    """Structurally valid CSV whose rows violate price-series invariants."""


@dataclass(frozen=True)
class OhlcBar:
    """One daily bar. Prices must be positive and bracket the open/close."""

    date: dt.date
    open: float
    high: float
    low: float
    close: float
    volume: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("open", "high", "low", "close"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be a positive finite price, got {value!r}")
        if self.low > min(self.open, self.close):
            raise ValueError(f"low {self.low} above min(open, close) on {self.date}")
        if self.high < max(self.open, self.close):
            raise ValueError(f"high {self.high} below max(open, close) on {self.date}")
        if self.volume is not None and self.volume < 0:
            raise ValueError(f"volume must be >= 0, got {self.volume}")


@dataclass(frozen=True)
class PriceSeries:
    """Ordered daily bars for one symbol; dates strictly increasing."""

    symbol: str
    bars: tuple[OhlcBar, ...]

    def __post_init__(self) -> None:
        if not self.bars:
            raise OhlcValidationError("price series must contain at least one bar")
        for prev, cur in zip(self.bars, self.bars[1:]):
            if cur.date <= prev.date:
                raise OhlcValidationError(
                    f"dates must be strictly increasing: {prev.date} then {cur.date}"
                )

    def __len__(self) -> int:
        return len(self.bars)

    def closes(self) -> np.ndarray:
        return np.array([bar.close for bar in self.bars], dtype=float)

    def dates(self) -> list[dt.date]:
        return [bar.date for bar in self.bars]


@dataclass(frozen=True)
class VolSeries:
    """Rolling annualized volatility estimates aligned to the source bars.

    ``dates[i]`` is the date of the bar that closes the i-th return window;
    for estimator output the length equals ``len(bars) - window``. Externally
    supplied series use window = 0. Dates are strictly increasing.
    """

    dates: tuple[dt.date, ...]
    values: np.ndarray = field(compare=False)
    window: int

    def __post_init__(self) -> None:
        if len(self.dates) != len(self.values):
            raise ValueError("dates and values must have the same length")
        if any(b <= a for a, b in zip(self.dates, self.dates[1:])):
            raise OhlcValidationError("volatility dates must be strictly increasing")
        values = np.asarray(self.values)
        if not np.all(np.isfinite(values)):
            raise ValueError("volatility estimates must be finite")
        if np.any(values < 0):
            raise ValueError("volatility estimates must be >= 0")

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True)
class VolFallEvent:
    """A drop of the volatility level within a short lookback."""

    date: dt.date
    sigma_before: float
    sigma_after: float

    @property
    def ratio(self) -> float:
        return self.sigma_after / self.sigma_before


@dataclass(frozen=True)
class RangeWindow:
    """A detected range-bound stretch: inclusive bar indices plus the band."""

    start: int
    end: int
    band: RangeBound


_HEADER = ["date", "open", "high", "low", "close"]


def parse_ohlc_csv(text: str, symbol: str = "") -> PriceSeries:
    """Parse OHLC CSV text into a validated PriceSeries.

    Raises OhlcParseError with the offending line number for malformed rows,
    OhlcValidationError for ordering/invariant violations or an empty body.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise OhlcValidationError("empty input: missing header") from None
    header = [h.strip().lower() for h in header]
    if header != _HEADER and header != _HEADER + ["volume"]:
        raise OhlcParseError(
            f"expected header 'date,open,high,low,close[,volume]', got {','.join(header)}",
            line=1,
        )
    has_volume = len(header) == 6
    bars: list[OhlcBar] = []
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise OhlcParseError(f"expected {len(header)} fields, got {len(row)}", line_no)
        try:
            date = dt.date.fromisoformat(row[0].strip())
        except ValueError as exc:
            raise OhlcParseError(f"bad date {row[0]!r}: {exc}", line_no) from None
        try:
            o, h, l, c = (float(cell) for cell in row[1:5])
        except ValueError:
            raise OhlcParseError(f"non-numeric price in {row[1:5]}", line_no) from None
        volume: Optional[float] = None
        if has_volume and row[5].strip():
            try:
                volume = float(row[5])
            except ValueError:
                raise OhlcParseError(f"non-numeric volume {row[5]!r}", line_no) from None
        try:
            bars.append(OhlcBar(date=date, open=o, high=h, low=l, close=c, volume=volume))
        except ValueError as exc:
            raise OhlcValidationError(f"row {line_no}: {exc}") from None
    if not bars:
        raise OhlcValidationError("no bars: input has a header but no data rows")
    dates = [bar.date for bar in bars]
    if len(set(dates)) != len(dates):
        dupes = [d for d, count in Counter(dates).items() if count > 1]
        raise OhlcValidationError(f"duplicate dates: {min(dupes).isoformat()}")
    if dates != sorted(dates):
        raise OhlcValidationError("rows are not sorted by date")
    return PriceSeries(symbol=symbol, bars=tuple(bars))


def serialize_ohlc_csv(series: PriceSeries) -> str:
    """Render a PriceSeries back to CSV; parse(serialize(s)) == s."""
    any_volume = any(bar.volume is not None for bar in series.bars)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_HEADER + (["volume"] if any_volume else []))
    for bar in series.bars:
        row = [bar.date.isoformat(), repr(bar.open), repr(bar.high), repr(bar.low), repr(bar.close)]
        if any_volume:
            row.append("" if bar.volume is None else repr(bar.volume))
        writer.writerow(row)
    return out.getvalue()


def parse_vol_csv(text: str) -> VolSeries:
    """Parse an externally computed volatility series in ``date,sigma`` CSV form."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise OhlcValidationError("empty input: missing header") from None
    if [h.strip().lower() for h in header] != ["date", "sigma"]:
        raise OhlcParseError("expected header 'date,sigma'", line=1)
    dates: list[dt.date] = []
    values: list[float] = []
    for line_no, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != 2:
            raise OhlcParseError(f"expected 2 fields, got {len(row)}", line_no)
        try:
            dates.append(dt.date.fromisoformat(row[0].strip()))
            sigma = float(row[1])
        except ValueError as exc:
            raise OhlcParseError(str(exc), line_no) from None
        if not (math.isfinite(sigma) and sigma >= 0):
            raise OhlcParseError(f"sigma must be finite and >= 0, got {row[1].strip()!r}", line_no)
        values.append(sigma)
    if not dates:
        raise OhlcValidationError("no volatility rows")
    return VolSeries(dates=tuple(dates), values=np.array(values, dtype=float), window=0)


def historical_volatility(
    series: PriceSeries, window: int = 21, periods_per_year: int = 252
) -> VolSeries:
    """Annualized rolling sample std of log close-to-close returns.

    Args:
        series: price history, longer than ``window``.
        window: number of returns per estimate (>= 2).
        periods_per_year: annualization count (sqrt scaling).

    Returns:
        VolSeries of length ``len(series) - window``; estimate i is stamped
        with the date of the bar closing its window.
    """
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")
    n = len(series)
    if n <= window:
        raise ValueError(f"need more than {window} bars, got {n}")
    closes = series.closes()
    returns = np.diff(np.log(closes))
    count = n - window
    values = sliding_window_view(returns, window).std(axis=1, ddof=1)
    values *= math.sqrt(periods_per_year)
    dates = tuple(series.bars[i + window].date for i in range(count))
    return VolSeries(dates=dates, values=values, window=window)


def _window_qualifies(
    closes: np.ndarray, i: int, j: int, band_tol: float, touch_count: int, touch_frac: float
) -> Optional[RangeBound]:
    """Band of closes[i..j] if the window qualifies as range-bound, else None."""
    segment = closes[i : j + 1]
    lo = float(segment.min())
    hi = float(segment.max())
    width = hi - lo
    if width <= 0:
        return None  # flat closes have no band
    if width / lo > band_tol:
        return None
    margin = touch_frac * width
    top_touches = int(np.count_nonzero(segment >= hi - margin))
    bottom_touches = int(np.count_nonzero(segment <= lo + margin))
    if top_touches < touch_count or bottom_touches < touch_count:
        return None
    return RangeBound(support=lo, resistance=hi)


def detect_ranges(
    series: PriceSeries,
    min_len: int = 15,
    band_tol: float = 0.05,
    touch_count: int = 2,
    touch_frac: float = 0.25,
) -> list[RangeWindow]:
    """Find non-overlapping range-bound windows, greedy-longest, left to right.

    A window of closes qualifies when it spans at least ``min_len`` bars, its
    band is no wider than ``band_tol`` of the band bottom, and the closes come
    within ``touch_frac`` of the band width of both edges at least
    ``touch_count`` times each. Trending stretches produce no windows. For
    each start ``i`` the longest qualifying window is taken and the scan
    resumes after it; a start with none moves on by one bar.

    Only ends below the band horizon are tried. The band test
    ``(hi - lo) / lo > band_tol`` is monotone in the window: ``hi`` and ``lo``
    are closes, so exact, and IEEE subtraction and division are monotone, so
    the ratio never falls as the window grows on either side. For start ``i``
    the horizon ``r(i)`` is the first end at which the test fails (``n`` if
    none does); every end at or past it fails, and ``r`` never decreases as
    ``i`` grows. A two-pointer over two monotone index deques of running
    min and max (Lemire 2006) finds all horizons in amortised O(n). Each
    end below the horizon costs one O(j - i) call of ``_window_qualifies``,
    from ``r(i) - 1`` down to the first that qualifies. On GBM price
    histories that is one or two calls per hundred bars; a long in-band
    stretch that never meets the touch rule, flat closes included, still
    costs cubic time in its own length.
    """
    if min_len < 5:
        raise ValueError(f"min_len must be >= 5, got {min_len}")
    if band_tol <= 0:
        raise ValueError(f"band_tol must be > 0, got {band_tol}")
    closes = series.closes()
    values = closes.tolist()
    n = len(values)
    lows: deque[int] = deque()  # indices in [i, r), closes increasing
    highs: deque[int] = deque()  # indices in [i, r), closes decreasing
    windows: list[RangeWindow] = []
    i = 0
    r = 0  # horizon: closes[i:r] passes the band test
    while i + min_len - 1 < n:
        while lows and lows[0] < i:
            lows.popleft()
        while highs and highs[0] < i:
            highs.popleft()
        while r < n:
            c = values[r]
            lo = min(values[lows[0]], c) if lows else c
            hi = max(values[highs[0]], c) if highs else c
            if (hi - lo) / lo > band_tol:
                break
            while lows and values[lows[-1]] >= c:
                lows.pop()
            lows.append(r)
            while highs and values[highs[-1]] <= c:
                highs.pop()
            highs.append(r)
            r += 1
        found = None
        for j in range(r - 1, i + min_len - 2, -1):
            band = _window_qualifies(closes, i, j, band_tol, touch_count, touch_frac)
            if band is not None:
                found = RangeWindow(start=i, end=j, band=band)
                break
        if found is not None:
            windows.append(found)
            i = found.end + 1
        else:
            i += 1
    return windows


def detect_vol_fall(
    vol: VolSeries, lookback: int = 5, fall_ratio: float = 0.7
) -> list[VolFallEvent]:
    """Flag sharp volatility drops: vol[t] / vol[t - lookback] <= fall_ratio.

    Every qualifying index is reported (a single step produces one event per
    bar while it remains inside the lookback).
    """
    if lookback < 1:
        raise ValueError(f"lookback must be >= 1, got {lookback}")
    if not 0.0 < fall_ratio < 1.0:
        raise ValueError(f"fall_ratio must be in (0, 1), got {fall_ratio}")
    if len(vol) <= lookback:
        raise ValueError(f"volatility series too short: {len(vol)} <= lookback {lookback}")
    events: list[VolFallEvent] = []
    values = np.asarray(vol.values, dtype=float)
    for t in range(lookback, len(values)):
        before = values[t - lookback]
        after = values[t]
        if before > 0 and after / before <= fall_ratio:
            events.append(
                VolFallEvent(date=vol.dates[t], sigma_before=float(before), sigma_after=float(after))
            )
    return events
