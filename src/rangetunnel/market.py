"""OHLC ingestion, volatility estimation, and range/volatility-fall detection.

CSV input is ``date,open,high,low,close[,volume]`` with ISO dates. The parser
reads it in one pass straight into the columns of a PriceSeries, which checks
the bar rules (one vectorised pass) and the date order, each in one place;
the parser only turns the position of a faulty bar into its line. Volatility
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
import operator
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .types import RangeBound


class OhlcParseError(ValueError):
    """Malformed CSV content; carries the 1-based line number.

    The number is the physical line the record starts on, so a quoted cell
    that holds a newline does not shift the lines reported after it.
    """

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class OhlcValidationError(ValueError):
    """Structurally valid CSV whose rows violate price-series invariants.

    A fault in one bar carries the bar's position as ``index`` and the message
    without that location as ``reason``; for any other fault ``index`` is None.
    """

    def __init__(self, reason: str, index: Optional[int] = None):
        super().__init__(reason if index is None else f"bar {index}: {reason}")
        self.reason = reason
        self.index = index


_PRICE_COLUMNS = ("open", "high", "low", "close")


def _check_bars(
    dates: Sequence[dt.date],
    open_: Sequence[float],
    high: Sequence[float],
    low: Sequence[float],
    close: Sequence[float],
    volume: Optional[Sequence[Optional[float]]],
) -> None:
    """Raise OhlcValidationError, with its index, for the first bar that breaks a bar rule.

    The rules, in the order they are reported within one bar: each price is
    positive and finite (open, high, low, close), ``low <= min(open, close)``,
    ``high >= max(open, close)``, and a given volume is >= 0 and finite (an
    empty cell, None, is not a given volume). Messages are
    built from Python floats, so they read the same under every numpy version.
    """
    prices = np.array((open_, high, low, close), dtype=float)
    o, h, lo, c = prices
    vol = np.array(volume, dtype=float) if volume is not None else np.zeros(len(dates))
    vol_not_finite = ~np.isfinite(vol)
    if vol_not_finite.any():  # an empty cell (None) reads as NaN here
        vol_not_finite &= np.array([v is not None for v in volume])
    # a NaN price is reported by the first rule; some numpy builds warn on
    # NaN in the comparisons and in minimum/maximum
    with np.errstate(invalid="ignore"):
        faults = np.vstack(
            (
                ~(np.isfinite(prices) & (prices > 0)),
                lo > np.minimum(o, c),
                h < np.maximum(o, c),
                vol < 0,
                vol_not_finite,
            )
        )
    bad = faults.any(axis=0)
    if not bad.any():
        return
    i = int(bad.argmax())
    rule = int(faults[:, i].argmax())
    if rule < 4:
        reason = f"{_PRICE_COLUMNS[rule]} must be a positive finite price, got {float(prices[rule, i])!r}"
    elif rule == 4:
        reason = f"low {float(low[i])} above min(open, close) on {dates[i]}"
    elif rule == 5:
        reason = f"high {float(high[i])} below max(open, close) on {dates[i]}"
    elif rule == 6:
        reason = f"volume must be >= 0, got {float(volume[i])}"
    else:
        reason = f"volume must be finite, got {float(volume[i])}"
    raise OhlcValidationError(reason, index=i)


def _strictly_increasing(dates: Sequence[dt.date]) -> bool:
    return all(map(operator.lt, dates, dates[1:]))


@dataclass(frozen=True)
class PriceSeries:
    """Daily bars of one symbol, stored by column; dates strictly increasing.

    ``open``, ``high``, ``low`` and ``close`` hold one price per date.
    ``volume`` is None when the source has no volume column, and otherwise
    one entry per date, None where the cell was empty. Every bar has
    positive finite prices, ``low <= min(open, close)``,
    ``high >= max(open, close)`` and a volume, where given, finite and at
    least 0.
    """

    symbol: str
    dates: tuple[dt.date, ...]
    open: tuple[float, ...]
    high: tuple[float, ...]
    low: tuple[float, ...]
    close: tuple[float, ...]
    volume: Optional[tuple[Optional[float], ...]] = None

    def __post_init__(self) -> None:
        n = len(self.dates)
        if not n:
            raise OhlcValidationError("price series must contain at least one bar")
        columns = (self.open, self.high, self.low, self.close)
        if any(len(column) != n for column in columns) or (
            self.volume is not None and len(self.volume) != n
        ):
            raise ValueError("every column must hold one value per date")
        _check_bars(self.dates, *columns, self.volume)
        if not _strictly_increasing(self.dates):
            dupes = [d for d, count in Counter(self.dates).items() if count > 1]
            if dupes:
                raise OhlcValidationError(f"duplicate dates: {min(dupes).isoformat()}")
            raise OhlcValidationError("rows are not sorted by date")

    def __len__(self) -> int:
        return len(self.dates)

    def closes(self) -> np.ndarray:
        return np.array(self.close, dtype=float)


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
        if not _strictly_increasing(self.dates):
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


def _blank(row: list[str]) -> bool:
    return not any(cell.strip() for cell in row)


def parse_ohlc_csv(text: str, symbol: str = "") -> PriceSeries:
    """Parse OHLC CSV text into a validated PriceSeries.

    Blank rows are skipped. Raises OhlcParseError with the offending line
    number for malformed rows, OhlcValidationError for an empty body, a bar
    that breaks a bar rule (named by its line) or dates out of order. The
    first fault in file order wins: a malformed line is reported only when no
    earlier bar breaks a bar rule, and date order is checked last.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise OhlcValidationError("empty input: missing header") from None
    except csv.Error as exc:
        raise OhlcParseError(str(exc), line=1) from None
    header = [h.strip().lower() for h in header]
    if header != _HEADER and header != _HEADER + ["volume"]:
        raise OhlcParseError(
            f"expected header 'date,open,high,low,close[,volume]', got {','.join(header)}",
            line=1,
        )
    n_fields = len(header)
    has_volume = n_fields == 6
    dates: list[dt.date] = []
    prices: list[tuple[float, float, float, float]] = []
    volumes: list[Optional[float]] = []
    lines: list[int] = []  # source line of each bar

    def malformed(message: str, line_no: int) -> OhlcParseError:
        if dates:
            _check_bars(dates, *zip(*prices), volumes if has_volume else None)
        return OhlcParseError(message, line_no)

    last_line = reader.line_num  # a quoted cell may span lines: count physical ones
    try:
        try:
            for row in reader:
                line_no, last_line = last_line + 1, reader.line_num
                # a blank row has the wrong field count or no date, so only those test for one
                if len(row) != n_fields:
                    if _blank(row):
                        continue
                    raise malformed(f"expected {n_fields} fields, got {len(row)}", line_no)
                try:
                    date = dt.date.fromisoformat(row[0].strip())
                except ValueError as exc:
                    if _blank(row):
                        continue
                    raise malformed(f"bad date {row[0]!r}: {exc}", line_no) from None
                try:
                    bar = (float(row[1]), float(row[2]), float(row[3]), float(row[4]))
                except ValueError:
                    raise malformed(f"non-numeric price in {row[1:5]}", line_no) from None
                if has_volume:
                    cell = row[5]
                    try:
                        volumes.append(float(cell) if cell.strip() else None)
                    except ValueError:
                        raise malformed(f"non-numeric volume {cell!r}", line_no) from None
                dates.append(date)
                prices.append(bar)
                lines.append(line_no)
        except csv.Error as exc:  # e.g. a stray quote that swallows the rest of the file
            raise malformed(str(exc), last_line + 1) from None
        if not dates:
            raise OhlcValidationError("no bars: input has a header but no data rows")
        opens, highs, lows, closes = zip(*prices)
        return PriceSeries(
            symbol=symbol,
            dates=tuple(dates),
            open=opens,
            high=highs,
            low=lows,
            close=closes,
            volume=tuple(volumes) if has_volume else None,
        )
    except OhlcValidationError as exc:
        if exc.index is None:
            raise
        raise OhlcValidationError(f"row {lines[exc.index]}: {exc.reason}") from None


def serialize_ohlc_csv(series: PriceSeries) -> str:
    """Render a PriceSeries back to CSV; parse(serialize(s)) == s."""
    has_volume = series.volume is not None
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(_HEADER + (["volume"] if has_volume else []))
    columns = (series.open, series.high, series.low, series.close)
    for i, date in enumerate(series.dates):
        row = [date.isoformat()] + [repr(column[i]) for column in columns]
        if has_volume:
            volume = series.volume[i]
            row.append("" if volume is None else repr(volume))
        writer.writerow(row)
    return out.getvalue()


def parse_vol_csv(text: str) -> VolSeries:
    """Parse an externally computed volatility series in ``date,sigma`` CSV form.

    Blank rows are skipped. A malformed row, or a sigma that is not finite
    and >= 0, raises OhlcParseError with its line number; the first in file
    order wins. Dates out of order raise OhlcValidationError.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise OhlcValidationError("empty input: missing header") from None
    except csv.Error as exc:
        raise OhlcParseError(str(exc), line=1) from None
    if [h.strip().lower() for h in header] != ["date", "sigma"]:
        raise OhlcParseError("expected header 'date,sigma'", line=1)
    dates: list[dt.date] = []
    values: list[float] = []
    cells: list[str] = []
    lines: list[int] = []

    def check_sigma() -> None:
        sigma = np.array(values, dtype=float)
        with np.errstate(invalid="ignore"):  # NaN is caught by isfinite
            bad = ~np.isfinite(sigma) | (sigma < 0)
        if bad.any():
            i = int(bad.argmax())
            raise OhlcParseError(f"sigma must be finite and >= 0, got {cells[i].strip()!r}", lines[i])

    last_line = reader.line_num  # a quoted cell may span lines: count physical ones
    try:
        for row in reader:
            line_no, last_line = last_line + 1, reader.line_num
            if len(row) != 2:
                if _blank(row):
                    continue
                check_sigma()
                raise OhlcParseError(f"expected 2 fields, got {len(row)}", line_no)
            try:
                date = dt.date.fromisoformat(row[0].strip())
                sigma = float(row[1])
            except ValueError as exc:
                if _blank(row):
                    continue
                check_sigma()
                raise OhlcParseError(str(exc), line_no) from None
            dates.append(date)
            values.append(sigma)
            cells.append(row[1])
            lines.append(line_no)
    except csv.Error as exc:  # e.g. a stray quote that swallows the rest of the file
        check_sigma()
        raise OhlcParseError(str(exc), last_line + 1) from None
    check_sigma()
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
    values = sliding_window_view(returns, window).std(axis=1, ddof=1)
    values *= math.sqrt(periods_per_year)
    return VolSeries(dates=series.dates[window:], values=values, window=window)


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


def _band_horizons(closes: np.ndarray, band_tol: float, starts: int) -> list[int]:
    """Band horizon of each of the first ``starts`` starts (see ``detect_ranges``).

    ``mins[k][p]`` and ``maxs[k][p]`` are the min and max close over
    ``[p, p + 2**k)``. Each start's passing window ``[i, end)`` begins as one
    bar and keeps every extension by ``2**k`` bars, largest ``k`` first, that
    stays within the closes and still passes the band test.
    """
    n = len(closes)
    levels = (n - 1).bit_length()  # extensions of 2**k, k < levels, reach every end
    mins = [closes]
    maxs = [closes]
    for k in range(1, levels):
        half = 1 << (k - 1)
        mins.append(np.minimum(mins[-1][:-half], mins[-1][half:]))
        maxs.append(np.maximum(maxs[-1][:-half], maxs[-1][half:]))
    end = np.arange(1, starts + 1)
    lo = closes[:starts]
    hi = lo
    for k in reversed(range(levels)):
        step = 1 << k
        at = np.minimum(end, n - step)  # in range; windows past the last bar are masked below
        next_lo = np.minimum(lo, mins[k][at])
        next_hi = np.maximum(hi, maxs[k][at])
        fits = (end + step <= n) & ~((next_hi - next_lo) / next_lo > band_tol)
        end = np.where(fits, end + step, end)
        lo = np.where(fits, next_lo, lo)
        hi = np.where(fits, next_hi, hi)
    return end.tolist()


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
    none does); every end at or past it fails. Because the passing ends of a
    start form a prefix, binary lifting finds every horizon exactly: doubling
    tables hold the min and max close over ``[p, p + 2**k)``, and each start
    extends its window by ``2**k`` bars, largest ``k`` first, while the same
    float test in numpy float64 still passes. That is O(n log n) array work
    in O(log n) numpy passes over all starts at once, and the tables take
    under ``2 n ceil(log2 n)`` floats (about 0.16 MB at 1000 bars, 2.2 MB at
    10k). Each end below the horizon costs one O(j - i) call of
    ``_window_qualifies``, from ``r(i) - 1`` down to the first that
    qualifies. On GBM price histories that is one or two calls per hundred
    bars; a long in-band stretch that never meets the touch rule, flat closes
    included, still costs cubic time in its own length.
    """
    if min_len < 5:
        raise ValueError(f"min_len must be >= 5, got {min_len}")
    if band_tol <= 0:
        raise ValueError(f"band_tol must be > 0, got {band_tol}")
    closes = series.closes()
    n = len(closes)
    if n < min_len:
        return []
    horizons = _band_horizons(closes, band_tol, n - min_len + 1)
    windows: list[RangeWindow] = []
    i = 0
    while i + min_len - 1 < n:
        found = None
        for j in range(horizons[i] - 1, i + min_len - 2, -1):
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
    values = np.asarray(vol.values, dtype=float)
    before = values[:-lookback]
    after = values[lookback:]
    # only a positive sigma before can fall; a subnormal one may overflow the ratio to inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hit = (before > 0) & (after / before <= fall_ratio)
    return [
        VolFallEvent(date=vol.dates[t + lookback], sigma_before=float(before[t]), sigma_after=float(after[t]))
        for t in np.flatnonzero(hit).tolist()
    ]
