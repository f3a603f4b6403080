"""Expected stdout of a benchmark scan call, computed without the program.

This is an independent re-implementation of ``rangetunnel scan`` for the
inputs that ``workloads.py`` generates: greedy-longest range detection (with
the band-tolerance horizon pruned, which leaves the windows unchanged because
the tolerance test is monotone in the window end), the rolling or external
volatility pick, volatility-fall attachment, the closed-form transmission, and
the text, CSV and JSON renderings. It imports nothing from ``rangetunnel``.
Float expressions follow the documented formulas operation for operation, so
the rendered 6-significant-digit bytes match exactly.

The stored digests in ``digests.json`` pin the program's bytes for seeds 0-15;
this oracle extends the check to every other seed.
"""

from __future__ import annotations

import datetime as dt
import json
import math

import numpy as np

MIN_LEN = 15
BAND_TOL = 0.05
TOUCH_COUNT = 2
TOUCH_FRAC = 0.25
PERIODS_PER_YEAR = 252
FALL_LOOKBACK = 5
FALL_RATIO = 0.7
BOUNDARY_GUARD = 1e-12

COLUMNS = ["symbol", "window_start", "window_end", "support", "resistance", "K",
           "sigma", "r", "lambda", "S1", "d", "T", "vol_fall_ratio"]


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _band(closes: np.ndarray, i: int, j: int):
    """(lo, hi) of closes[i..j] if the window qualifies as range-bound, else None."""
    segment = closes[i : j + 1]
    lo = float(segment.min())
    hi = float(segment.max())
    width = hi - lo
    if width <= 0 or width / lo > BAND_TOL:
        return None
    margin = TOUCH_FRAC * width
    if np.count_nonzero(segment >= hi - margin) < TOUCH_COUNT:
        return None
    if np.count_nonzero(segment <= lo + margin) < TOUCH_COUNT:
        return None
    return lo, hi


def detect(closes: np.ndarray) -> list[tuple[int, int, float, float]]:
    """Non-overlapping windows (start, end, lo, hi), greedy-longest from the left."""
    n = len(closes)
    windows = []
    i = 0
    while i + MIN_LEN - 1 < n:
        # horizon: the last end whose band still fits the tolerance
        lo = hi = closes[i]
        horizon = i
        for j in range(i + 1, n):
            lo = min(lo, closes[j])
            hi = max(hi, closes[j])
            if hi - lo > 0 and (hi - lo) / lo > BAND_TOL:
                break
            horizon = j
        found = None
        for j in range(horizon, i + MIN_LEN - 2, -1):
            band = _band(closes, i, j)
            if band is not None:
                found = (i, j, *band)
                break
        if found is None:
            i += 1
        else:
            windows.append(found)
            i = found[1] + 1
    return windows


def rolling_sigma(closes: np.ndarray, window: int) -> np.ndarray:
    """Annualized rolling sample std of log returns; estimate i closes at bar i + window."""
    returns = np.diff(np.log(closes))
    values = np.empty(len(closes) - window)
    for i in range(len(values)):
        values[i] = np.std(returns[i : i + window], ddof=1)
    values *= math.sqrt(PERIODS_PER_YEAR)
    return values


def _score(r: float, sigma: float, width: float) -> tuple[float, float, float, float, str]:
    """(lambda, S1, d, T, regime) of a band of the given width."""
    lam = r / sigma
    s1 = math.sqrt(sigma / r)
    if lam * width * width >= 1.0 - BOUNDARY_GUARD:
        return lam, s1, 0.0, 1.0, "no_barrier"
    prefactor = math.sqrt((r / sigma**4) * (sigma * sigma + r))
    u = math.sqrt(1.0 - lam * width * width)
    bracket = 0.5 * math.log((1.0 + u) / (1.0 - u)) - u
    return lam, s1, s1 - width, math.exp(-2.0 * prefactor * bracket), "tunneling"


def expected_stdout(history: dict, r: float, start: dt.date) -> bytes:
    """Bytes ``rangetunnel scan`` prints for one generated history."""
    closes = np.array(history["closes"], dtype=float)
    dates = [start + dt.timedelta(days=i) for i in range(len(closes))]
    if history["vol"] is not None:
        vol_values = np.array(history["vol"], dtype=float)
        vol_dates = dates[: len(vol_values)]
    else:
        window = history["vol_window"]
        vol_values = rolling_sigma(closes, window)
        vol_dates = dates[window:]
    falls = []
    for t in range(FALL_LOOKBACK, len(vol_values)):
        before = vol_values[t - FALL_LOOKBACK]
        after = vol_values[t]
        if before > 0 and after / before <= FALL_RATIO:
            falls.append((vol_dates[t], float(after) / float(before)))

    text_lines, rows = [], []
    for i, j, lo, hi in detect(closes):
        begin, end = dates[i], dates[j]
        sigma = float([v for d, v in zip(vol_dates, vol_values) if begin <= d <= end][-1])
        width = hi - lo
        lam, s1, d, t, regime = _score(r, sigma, width)
        fall = next((ratio for day, ratio in reversed(falls) if begin <= day <= end), None)
        suffix = "" if fall is None else f"  vol_fall={_fmt(fall)}"
        text_lines.append(
            f"{history['symbol']}  {begin}..{end}  band {_fmt(lo)}-{_fmt(hi)}  "
            f"K={_fmt(width)}  d={_fmt(d)}  T={_fmt(t)}  regime={regime}{suffix}\n"
        )
        rows.append(dict(zip(COLUMNS, [history["symbol"], begin.isoformat(), end.isoformat(),
                                       lo, hi, width, sigma, r, lam, s1, d, t, fall])))

    if history["json"]:
        for row in rows:
            for key, value in row.items():
                if isinstance(value, float):
                    row[key] = float(_fmt(value))
        report = json.dumps(rows, indent=2) + "\n"
    else:
        lines = [",".join(COLUMNS)]
        for row in rows:
            cells = ["" if v is None else _fmt(v) if isinstance(v, float) else str(v)
                     for v in row.values()]
            lines.append(",".join(cells))
        report = "\n".join(lines) + "\n"
    return ("".join(text_lines) + ("\n" if rows else "") + report).encode("utf-8")
