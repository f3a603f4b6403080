"""OHLC ingestion, volatility estimation, and range/volatility-fall detection.

CSV input is ``date,open,high,low,close[,volume]`` with YYYY-MM-DD dates. One
reader, ``_table``, takes the cells of a plain body (no quote, no carriage
return, the header's field count on every line, which one pass over the
text's bytes checks) by one split, and those of any other body from
``csv.reader``; the only fork is where the cells come from. Either way they
are converted a column at a time, and only when a conversion fails is the
first faulty row looked for, to name its line. An OHLC body converts its
close column first. An open, high or low column with the text of the close
column takes the close floats whole (O=H=L=C), and one with the text of the
closes one bar late takes them shifted (each bar opens at the last close);
each reuse saves a ``float()`` per cell. Each price column becomes a float64
array as soon as it is converted. The arrays go to a PriceSeries, which
keeps them read-only and checks the bar rules (one vectorised pass) and the
date order, each in one place; a fault in either is named by its row. The
parsers take text; the CLI decodes files as ``utf-8-sig``, so a UTF-8
byte-order mark is accepted.

Volatility is the annualized rolling sample standard deviation of
close-to-close log returns (window 21 bars by default, 252 periods/year); an
externally computed series can be supplied instead as ``date,sigma``, read
by the same reader, where a sigma that is not finite and >= 0 is a bad cell
like any other; its VolSeries holds the sigmas as a read-only float64 array
and checks the date order. Range-bound windows are detected on closes: the
band of a window is [min close, max close], and a window qualifies when it
is long enough, the band is tight relative to price, and the closes visit
both edges of the band often enough.
"""

from __future__ import annotations

import csv
import datetime as dt
import io
import math
import operator
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass
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
    A date out of order is a fault in the bar where the order breaks: the
    first whose date is not after the one before it, or for duplicate dates
    the second bar of the earliest duplicated date.
    """

    def __init__(self, reason: str, index: Optional[int] = None):
        super().__init__(reason if index is None else f"bar {index}: {reason}")
        self.reason = reason
        self.index = index


_PRICE_COLUMNS = ("open", "high", "low", "close")


def _check_bars(
    dates: Sequence[dt.date],
    open_: np.ndarray,
    high: np.ndarray,
    low: np.ndarray,
    close: np.ndarray,
    volume: Optional[Sequence[Optional[float]]] = None,
) -> None:
    """Raise OhlcValidationError, with its index, for the first bar that breaks a bar rule.

    The rules, in the order they are reported within one bar: each price is
    positive and finite (open, high, low, close), ``low <= min(open, close)``,
    ``high >= max(open, close)``, and a given volume is >= 0 and finite (an
    empty cell, None, is not a given volume). The prices are checked in one
    vectorised pass, the volumes (Python floats) one by one. Messages are
    built from Python floats, so they read the same under every numpy version.
    """
    prices = (open_, high, low, close)
    # a NaN price fails the first rule; some numpy builds warn on NaN in the
    # comparisons and in minimum/maximum
    with np.errstate(invalid="ignore"):  # holds[r, i]: price rule r holds in bar i
        holds = np.array(
            [(p > 0) & (p < math.inf) for p in prices]
            + [low <= np.minimum(open_, close), high >= np.maximum(open_, close)]
        )
    sound = holds.all(axis=0)
    i = len(dates) if sound.all() else int(sound.argmin())
    for j, v in enumerate(volume[:i] if volume is not None else ()):
        if v is not None and not 0 <= v < math.inf:  # NaN fails both
            reason = "must be >= 0" if v < 0 else "must be finite"
            raise OhlcValidationError(f"volume {reason}, got {float(v)}", index=j)
    if i == len(dates):
        return
    rule = int(holds[:, i].argmin())
    if rule < 4:
        reason = f"{_PRICE_COLUMNS[rule]} must be a positive finite price, got {float(prices[rule][i])!r}"
    elif rule == 4:
        reason = f"low {float(low[i])} above min(open, close) on {dates[i]}"
    else:
        reason = f"high {float(high[i])} below max(open, close) on {dates[i]}"
    raise OhlcValidationError(reason, index=i)


def _check_sigma(sigma: np.ndarray) -> None:
    """Raise OhlcValidationError, with its index, for the first sigma that is not finite and >= 0."""
    with np.errstate(invalid="ignore"):  # NaN is caught by isfinite
        bad = ~np.isfinite(sigma) | (sigma < 0)
    if bad.any():
        i = int(bad.argmax())
        raise OhlcValidationError(f"sigma must be finite and >= 0, got {float(sigma[i])}", index=i)


def _readonly_floats(values: Sequence[float]) -> np.ndarray:
    """A read-only float64 copy of ``values``: no one can change a series once it is checked."""
    array = np.array(values, dtype=float)
    array.flags.writeable = False
    return array


def _equal_fields(self, other: object) -> bool:
    """The ``__eq__`` of the series types: every field equal, an array field by value."""
    if type(other) is not type(self):
        return NotImplemented
    return all(
        np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
        for mine, theirs in zip(vars(self).values(), vars(other).values())
    )


def _strictly_increasing(dates: Sequence[dt.date]) -> bool:
    return all(map(operator.lt, dates, dates[1:]))


def _first_not_after(dates: Sequence[dt.date]) -> int:
    """Index of the first date that is not after the one before it; one must exist."""
    return next(i for i in range(1, len(dates)) if dates[i] <= dates[i - 1])


@dataclass(frozen=True, eq=False)
class PriceSeries:
    """Daily bars of one symbol, stored by column; dates strictly increasing.

    ``open``, ``high``, ``low`` and ``close`` are read-only float64 arrays,
    one price per date, converted from any sequence when the series is built.
    ``volume`` is None when the source has no volume column, and otherwise a
    tuple of one entry per date, None where the cell was empty. Every bar has
    positive finite prices, ``low <= min(open, close)``,
    ``high >= max(open, close)`` and a volume, where given, finite and at
    least 0. Series compare by value, so they are not hashable.
    """

    symbol: str
    dates: tuple[dt.date, ...]
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    volume: Optional[tuple[Optional[float], ...]] = None

    __eq__ = _equal_fields

    def __post_init__(self) -> None:
        n = len(self.dates)
        if not n:
            raise OhlcValidationError("price series must contain at least one bar")
        for name in _PRICE_COLUMNS:
            object.__setattr__(self, name, _readonly_floats(getattr(self, name)))
        columns = (self.open, self.high, self.low, self.close)
        if any(column.shape != (n,) for column in columns) or (
            self.volume is not None and len(self.volume) != n
        ):
            raise ValueError("every column must hold one value per date")
        _check_bars(self.dates, *columns, self.volume)
        if not _strictly_increasing(self.dates):
            dupes = [d for d, count in Counter(self.dates).items() if count > 1]
            if dupes:
                day = min(dupes)  # named at its second bar
                second = self.dates.index(day, self.dates.index(day) + 1)
                raise OhlcValidationError(f"duplicate dates: {day.isoformat()}", index=second)
            raise OhlcValidationError("rows are not sorted by date", index=_first_not_after(self.dates))

    def __len__(self) -> int:
        return len(self.dates)


@dataclass(frozen=True, eq=False)
class VolSeries:
    """Rolling annualized volatility estimates aligned to the source bars.

    For estimator output ``dates[i]`` is the date of the bar that closes the
    i-th return window; an externally supplied series carries its own dates.
    Dates are strictly increasing; ``values`` is a read-only float64 array,
    converted from any sequence when the series is built, of values finite
    and >= 0. Series compare by value, so they are not hashable.
    """

    dates: tuple[dt.date, ...]
    values: np.ndarray

    __eq__ = _equal_fields

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _readonly_floats(self.values))
        if self.values.shape != (len(self.dates),):
            raise ValueError("dates and values must have the same length")
        _check_sigma(self.values)
        if not _strictly_increasing(self.dates):
            i = _first_not_after(self.dates)
            raise OhlcValidationError("volatility dates must be strictly increasing", index=i)

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


def _dates(cells: Sequence[str]) -> tuple[dt.date, ...]:
    """The cells, stripped, as dates; a cell not spelled ``YYYY-MM-DD`` raises ValueError.

    From Python 3.11 on ``date.fromisoformat`` also reads ``YYYYMMDD``, week
    dates such as ``2013-W01-3`` and more, but never a text over ten
    characters. In a column of ten characters a cell, a cell of another
    length means one over ten, which fails to convert; and of the
    ten-character texts it reads, only ``YYYY-MM-DD`` has a ``-`` at 4 and
    at 7. Any other column is refused first, with the message of Python
    3.10, which reads only ``YYYY-MM-DD``.
    """
    days = tuple(map(str.strip, cells))
    dashes = "-" * len(days)
    text = "".join(days)
    if len(text) != 10 * len(days) or text[4::10] != dashes or text[7::10] != dashes:
        bad = next(day for day in days if len(day) != 10 or day[4] + day[7] != "--")
        raise ValueError(f"Invalid isoformat string: {bad!r}")
    return tuple(map(dt.date.fromisoformat, days))


def _floats(cells: Iterable) -> np.ndarray:
    """The cells through ``float()``, one by one, into a float64 array."""
    return np.fromiter(map(float, cells), dtype=float)


def _volume_cell(cell: str) -> Optional[float]:
    return float(cell) if cell.strip() else None


def _volumes(cells: Sequence[str]) -> tuple[Optional[float], ...]:
    """The cells as volumes, None for a blank one; a bad cell raises ValueError.

    A column with no blank cell takes one ``float()`` pass; a blank cell
    fails ``float()`` too, so only then is the column read cell by cell.
    """
    try:
        return tuple(map(float, cells))
    except ValueError:
        return tuple(map(_volume_cell, cells))


# every byte but comma and newline: translating a text's UTF-8 bytes with these
# deleted leaves its layout (no byte of a multi-byte character is below 0x80)
_NOT_LAYOUT = bytes(sorted(set(range(256)) - set(b",\n")))


def _table(
    text: str,
    headers: Sequence[list[str]],
    mismatch: str,
    convert: Callable[[Sequence[Sequence[str]]], list],
    row_fault: Callable[[list[str]], Optional[str]],
) -> tuple[list, Sequence[int], Optional[OhlcParseError]]:
    """The body of a CSV text, converted a column at a time, and its first fault.

    Returns ``(values, lines, fault)``: ``values`` is ``convert(cells)``,
    where ``cells[j]`` holds the text of body column j, ``lines[i]`` the
    physical line row i starts on, and ``fault`` None or the OhlcParseError
    of the first row that is malformed (another field count than the
    header's, or a ``csv.Error`` such as a stray quote) or that fails to
    convert (a cell that is not a number, or a value that breaks a rule
    ``convert`` applies), named by ``row_fault``. Only the rows before the
    fault are kept, so the caller can check them first. ``convert`` sees all
    the columns of one parse, so it may share work between them
    (``_ohlc_columns`` reuses the close floats in a column that repeats the
    closes, whole or one bar late) but keeps nothing from one call to the
    next.

    A plain text (no quote, no carriage return, the header's field count on
    every line, no field longer than the csv field limit) is split once, on
    newlines and commas alike, which gives the cells ``csv.reader`` would.
    Its layout is checked in one pass over its UTF-8 bytes: with every byte
    but comma and newline deleted, it must read n - 1 commas and a newline
    per line, for a header of n fields (the last line's newline may be
    missing). The field lengths are measured only in a text longer than the
    limit. Any other text, and a plain one with a cell that fails to convert
    or a blank row, is read by ``csv.reader``, which skips blank rows. An empty text raises OhlcValidationError. A header that
    ``csv.reader`` rejects, or that is not in ``headers`` once stripped and
    lower-cased, raises OhlcParseError on line 1, the latter with
    ``mismatch`` formatted with the header as ``got``.
    """
    # with no newline, all but the last character: a text of one line has no body to split
    names = [h.strip().lower() for h in text[: text.find("\n")].split(",")]
    n = len(names)
    if names in headers and '"' not in text and "\r" not in text:
        # surrogatepass: a lone surrogate, which csv.reader reads as any other character, cannot raise
        layout = text.encode("utf-8", "surrogatepass").translate(None, _NOT_LAYOUT)
        if not text.endswith("\n"):
            layout += b"\n"  # the last line's own
        count = len(layout) // n  # the lines, if each holds n - 1 commas
        # every line, not the total: a line one field long next to one a field short adds up
        if count > 1 and layout == (b"," * (n - 1) + b"\n") * count:
            flat = text.replace("\n", ",").split(",")
            del flat[count * n :]  # the empty cell after a last newline
            limit = csv.field_size_limit()
            if len(text) <= limit or max(map(len, flat)) <= limit:
                cells = [flat[n + j :: n] for j in range(n)]
                del flat  # the conversions allocate as much again: free the list first
                try:
                    return convert(cells), range(2, count + 1), None
                except ValueError:
                    pass  # csv.reader skips a blank row, or finds the row that fails
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise OhlcValidationError("empty input: missing header") from None
    except csv.Error as exc:
        raise OhlcParseError(str(exc), line=1) from None
    names = [h.strip().lower() for h in header]
    if names not in headers:
        raise OhlcParseError(mismatch.format(got=",".join(names)), line=1)
    n = len(names)
    rows, lines, fault = [], [], None
    last_line = reader.line_num  # a quoted cell may span lines: count physical ones
    try:
        for row in reader:
            line_no, last_line = last_line + 1, reader.line_num
            if not any(cell.strip() for cell in row):
                continue  # a blank row
            if len(row) != n:
                fault = OhlcParseError(f"expected {n} fields, got {len(row)}", line_no)
                break
            rows.append(row)
            lines.append(line_no)
    except csv.Error as exc:
        fault = OhlcParseError(str(exc), last_line + 1)
    cells = list(zip(*rows)) or [()] * n
    try:
        return convert(cells), lines, fault
    except ValueError:
        k, message = next((k, m) for k, m in enumerate(map(row_fault, rows)) if m is not None)
    cells = list(zip(*rows[:k])) or [()] * n  # every row before the first that fails converts
    return convert(cells), lines[:k], OhlcParseError(message, lines[k])


def _ohlc_columns(cells: Sequence[Sequence[str]]) -> list:
    """The OHLC body columns converted: dates, float64 open, high, low and close, and any volumes.

    The close column is converted first. Each open, high or low column is
    then compared with the close cells as a whole list:

    - every cell equal to its bar's close (O=H=L=C): the column is the
      close floats;
    - every cell after the first equal to the close of the bar before (each
      bar opens at the last close): ``float()`` of the first cell, then the
      closes of all bars but the last;
    - anything else goes through ``float()``.

    The same text gives the same ``float()`` bits, so every value has the
    bits of a per-cell ``float()``, and a bad cell raises ValueError as
    before. A failed comparison stops at the first cell that differs; the
    one-bar-late test compares one cell before it copies the two lists.
    """
    dates, opens, highs, lows, closes, *volume = cells
    close = _floats(closes)

    def column(c: Sequence[str]) -> np.ndarray:
        if c == closes:
            return close
        if c[1:2] == closes[:1] and c[1:] == closes[:-1]:  # one cell first: the slices copy
            return np.concatenate((_floats(c[:1]), close[:-1]))
        return _floats(c)

    return [_dates(dates), column(opens), column(highs), column(lows), close, *map(_volumes, volume)]


def _ohlc_row_fault(row: list[str]) -> Optional[str]:
    """The message for an OHLC row that fails to convert, else None."""
    try:
        _dates(row[:1])
    except ValueError as exc:
        return f"bad date {row[0]!r}: {exc}"
    try:
        _floats(row[1:5])
    except ValueError:
        return f"non-numeric price in {row[1:5]}"
    try:
        _volumes(row[5:])
    except ValueError:
        return f"non-numeric volume {row[5]!r}"
    return None


def parse_ohlc_csv(text: str, symbol: str = "") -> PriceSeries:
    """Parse OHLC CSV text into a validated PriceSeries.

    Every text is converted a column at a time (see ``_table``); an open,
    high or low column that repeats the text of the closes, whole or one bar
    late, reuses their floats (see ``_ohlc_columns``).
    Blank rows are skipped.
    Raises OhlcParseError with the offending line number for malformed rows,
    OhlcValidationError for an empty body, a bar that breaks a bar rule or
    dates out of order (each named by its row). The first fault in file
    order wins: a malformed line is reported only when no earlier bar breaks
    a bar rule, and date order is checked last.
    """
    values, lines, fault = _table(
        text, (_HEADER, _HEADER + ["volume"]),
        "expected header 'date,open,high,low,close[,volume]', got {got}",
        _ohlc_columns, _ohlc_row_fault,
    )
    try:
        if fault is not None:
            _check_bars(*values)  # an earlier bar that breaks a bar rule wins
            raise fault
        if not values[0]:
            raise OhlcValidationError("no bars: input has a header but no data rows")
        return PriceSeries(symbol, *values)
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
    columns = [column.tolist() for column in (series.open, series.high, series.low, series.close)]
    for i, date in enumerate(series.dates):
        row = [date.isoformat()] + [repr(column[i]) for column in columns]
        if has_volume:
            volume = series.volume[i]
            row.append("" if volume is None else repr(volume))
        writer.writerow(row)
    return out.getvalue()


def _vol_columns(cells: Sequence[Sequence[str]]) -> list:
    """The dates, and the sigmas as one float64 array; a bad sigma raises OhlcValidationError."""
    dates, sigmas = cells
    days = _dates(dates)  # first: a row's bad date is reported before its bad sigma
    values = _floats(sigmas)
    _check_sigma(values)
    return [days, values]


def _vol_row_fault(row: list[str]) -> Optional[str]:
    """The message for a ``date,sigma`` row that fails to convert, else None."""
    try:
        _vol_columns([row[:1], row[1:]])
    except OhlcValidationError:
        return f"sigma must be finite and >= 0, got {row[1].strip()!r}"
    except ValueError as exc:
        return str(exc)
    return None


def parse_vol_csv(text: str) -> VolSeries:
    """Parse an externally computed volatility series in ``date,sigma`` CSV form.

    Every text is converted a column at a time (see ``_table``). Blank rows
    are skipped. A malformed row, or a sigma that is not finite and >= 0
    (a bad cell like any other), raises OhlcParseError with its line number;
    the first in file order wins. Dates out of order, checked when the
    VolSeries is built, raise OhlcValidationError, named by the row of the
    first date that is not after the one before it.
    """
    (dates, sigmas), lines, fault = _table(
        text, (["date", "sigma"],), "expected header 'date,sigma', got {got}",
        _vol_columns, _vol_row_fault,
    )
    if fault is not None:
        raise fault
    if not dates:
        raise OhlcValidationError("no volatility rows")
    try:
        return VolSeries(dates=dates, values=sigmas)
    except OhlcValidationError as exc:  # the date order
        raise OhlcValidationError(f"row {lines[exc.index]}: {exc.reason}") from None


PERIODS_PER_YEAR = 252  # trading days: the sqrt-time annualization of each estimate


def _check_vol_window(window: int) -> None:
    """The rule of the volatility window: at least two returns per estimate."""
    if window < 2:
        raise ValueError(f"window must be >= 2, got {window}")


def historical_volatility(series: PriceSeries, window: int = 21) -> VolSeries:
    """Annualized rolling sample std of log close-to-close returns.

    Args:
        series: price history, longer than ``window``.
        window: number of returns per estimate (>= 2).

    Returns:
        VolSeries of length ``len(series) - window``; estimate i is stamped
        with the date of the bar closing its window.
    """
    _check_vol_window(window)
    n = len(series)
    if n <= window:
        raise ValueError(f"need more than {window} bars, got {n}")
    returns = np.diff(np.log(series.close))
    values = sliding_window_view(returns, window).std(axis=1, ddof=1)
    values *= math.sqrt(PERIODS_PER_YEAR)
    return VolSeries(dates=series.dates[window:], values=values)


# a close within this share of the band width of an edge touches that edge
TOUCH_FRAC = 0.25


def _window_qualifies(
    closes: np.ndarray, i: int, j: int, touch_count: int
) -> tuple[Optional[RangeBound], int]:
    """Band of closes[i..j] if the window qualifies as range-bound, else None; and ``keep``.

    The band horizon owns the band test (see ``detect_ranges``). ``keep`` is
    the offset from ``i`` of the later of the first min and the first max
    close, so every window ``closes[i..e]`` with ``i + keep <= e <= j`` has
    the same band floats.
    """
    segment = closes[i : j + 1]
    top = int(segment.argmax())
    bottom = int(segment.argmin())
    keep = max(top, bottom)
    lo = float(segment[bottom])
    hi = float(segment[top])
    width = hi - lo
    if width <= 0:
        return None, keep  # flat closes have no band
    margin = TOUCH_FRAC * width
    top_touches = int(np.count_nonzero(segment >= hi - margin))
    bottom_touches = int(np.count_nonzero(segment <= lo + margin))
    if top_touches < touch_count or bottom_touches < touch_count:
        return None, keep
    return RangeBound(support=lo, resistance=hi), keep


def _band_horizons(closes: np.ndarray, band_tol: float, starts: int) -> np.ndarray:
    """Band horizon of each of the first ``starts`` starts (see ``detect_ranges``).

    ``mins[k][p]`` and ``maxs[k][p]`` are the min and max close over
    ``[p, p + 2**k)``. Level ``k`` is built only while some window of
    ``2**k`` bars passes the band test: once none does, no longer window
    passes either, so the longest passing window ``H`` is under ``2**k`` bars
    and the levels below reach every horizon. Each start's passing window
    ``[i, end)`` begins as one bar and keeps every extension by ``2**k`` bars,
    largest ``k`` first, that stays within the closes and still passes the
    band test. The tables take about ``2 n (log2 H + 1)`` floats.
    """
    n = len(closes)
    mins = [closes]
    maxs = [closes]
    half = 1
    while 2 * half < n:  # an extension of 2**k bars from a one-bar window fits only if 2**k < n
        level_min = np.minimum(mins[-1][:-half], mins[-1][half:])
        level_max = np.maximum(maxs[-1][:-half], maxs[-1][half:])
        if ((level_max - level_min) / level_min > band_tol).all():  # the search's own test
            break
        mins.append(level_min)
        maxs.append(level_max)
        half *= 2
    end = np.arange(1, starts + 1)
    lo = closes[:starts]
    hi = lo
    for k in reversed(range(len(mins))):
        step = 1 << k
        at = np.minimum(end, n - step)  # in range; windows past the last bar are masked below
        next_lo = np.minimum(lo, mins[k][at])
        next_hi = np.maximum(hi, maxs[k][at])
        fits = (end + step <= n) & ~((next_hi - next_lo) / next_lo > band_tol)
        end = np.where(fits, end + step, end)
        lo = np.where(fits, next_lo, lo)
        hi = np.where(fits, next_hi, hi)
    return end


def _check_range_knobs(min_len: int, band_tol: float, touch_count: int) -> None:
    """The rules of the range-detection knobs."""
    if min_len < 5:
        raise ValueError(f"min_len must be >= 5, got {min_len}")
    if not band_tol > 0:  # NaN fails too; inf means no band limit
        raise ValueError(f"band_tol must be > 0, got {band_tol}")
    # below 1 would silently mean 1: every window touches each edge at its own extremes
    if touch_count < 1:
        raise ValueError(f"touch_count must be >= 1, got {touch_count}")


def detect_ranges(
    series: PriceSeries,
    min_len: int = 15,
    band_tol: float = 0.05,
    touch_count: int = 2,
) -> list[RangeWindow]:
    """Find non-overlapping range-bound windows, greedy-longest, left to right.

    A window of closes qualifies when it spans at least ``min_len`` bars, its
    band is no wider than ``band_tol`` of the band bottom, and the closes come
    within ``TOUCH_FRAC`` of the band width of both edges at least
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
    float test in numpy float64 still passes. The tables stop at the first
    level where no window of ``2**k`` bars passes, so with ``H`` the longest
    passing window that is O(n log H) array work in O(log H) numpy passes
    over all starts at once (every level for an ``inf`` ``band_tol``),
    and the tables take about ``2 n (log2 H + 1)`` floats.
    Only the starts with ``r(i) - i >= min_len`` can hold a window; one
    array pass picks them, and the loop visits those alone, from the bar
    after the last window found. Ends are tried from ``r(i) - 1`` down, each
    by one O(j - i) call of ``_window_qualifies``, until one qualifies.

    A failed end ``j`` skips every end down to the later of the window's first
    min and first max close, at ``i + keep``, and the next end tried is
    ``i + keep - 1``; a flat window (``keep`` 0) ends the start. The skip is
    exact: every skipped window holds both first extremes, so it has the same
    ``lo`` and ``hi`` floats, hence the same band test and touch thresholds,
    and as a part of the failed window it has no more touches at either edge,
    so it fails too. On GBM price histories that is one or two calls per
    hundred bars, and flat closes with one spike cost at most two calls a
    start. The worst case is a stretch where most bars make a new first
    extreme while the touch rule keeps failing, such as closes rising
    strictly inside the band with ``touch_count`` above a quarter of the
    stretch's length: each end is still tried, and such a stretch costs
    cubic time in its own length.
    """
    _check_range_knobs(min_len, band_tol, touch_count)
    closes = series.close
    n = len(closes)
    if n < min_len:
        return []
    horizons = _band_horizons(closes, band_tol, n - min_len + 1)
    # only a start whose horizon leaves room for min_len bars can hold a window
    viable = np.flatnonzero(horizons - np.arange(len(horizons)) >= min_len)
    windows: list[RangeWindow] = []
    resume = 0  # the bar after the last window found
    for i, horizon in zip(viable.tolist(), horizons[viable].tolist()):
        if i < resume:
            continue
        shortest = i + min_len - 1
        j = horizon - 1
        while j >= shortest:
            band, keep = _window_qualifies(closes, i, j, touch_count)
            if band is not None:
                windows.append(RangeWindow(start=i, end=j, band=band))
                resume = j + 1
                break
            j = i + keep - 1  # the ends i + keep .. j fail alike
    return windows


def _check_fall_knobs(lookback: int, fall_ratio: float) -> None:
    """The rules of the volatility-fall knobs."""
    if lookback < 1:
        raise ValueError(f"lookback must be >= 1, got {lookback}")
    if not 0.0 < fall_ratio < 1.0:
        raise ValueError(f"fall_ratio must be in (0, 1), got {fall_ratio}")


def detect_vol_fall(
    vol: VolSeries, lookback: int = 5, fall_ratio: float = 0.7
) -> list[VolFallEvent]:
    """Flag sharp volatility drops: vol[t] / vol[t - lookback] <= fall_ratio.

    Every qualifying index is reported (a single step produces one event per
    bar while it remains inside the lookback).
    """
    _check_fall_knobs(lookback, fall_ratio)
    if len(vol) <= lookback:
        raise ValueError(f"volatility series too short: {len(vol)} <= lookback {lookback}")
    before = vol.values[:-lookback]
    after = vol.values[lookback:]
    # only a positive sigma before can fall; a subnormal one may overflow the ratio to inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        hit = (before > 0) & (after / before <= fall_ratio)
    return [
        VolFallEvent(date=vol.dates[t + lookback], sigma_before=float(before[t]), sigma_after=float(after[t]))
        for t in np.flatnonzero(hit).tolist()
    ]
