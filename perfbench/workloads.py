"""Seeded inputs and CLI calls for the three benchmark workloads.

Everything here is a pure function of the benchmark seed and uses numpy only:
the program under test receives nothing but the CSV files written by
``write_inputs``. Each workload is a closed loop, one caller making one
``cli.main`` call at a time; a *pass* is the fixed list of calls below, and a
run repeats passes for its time budget.

scan_long    6 GBM histories of 1000 bars (the ``tests/conftest.py:gbm_series``
             recipe), rolling volatility, CSV report. Range detection does
             almost all of the work.
scan_dense   40 regime-switching histories of 250 bars, each with an external
             ``date,sigma`` series, JSON report. Many windows per bar, in both
             barrier regimes; parse, scoring and rendering take a visible share.
validate     ``rangetunnel validate`` at its defaults. No generated input: the
             self-check fixes its own seed, and only the shipped seed is known
             to pass, so the benchmark seed does not reach it.

scan_long passes ``--vol-window 14``. With ``--min-len 15`` every window then
holds at least one rolling estimate. At the default window of 21, about one
1000-bar GBM history in eleven has a range that ends before the first estimate,
and the whole scan exits 1 ("no volatility estimate inside window"). That is a
known defect whose planned fix changes the output bytes, so the benchmark
keeps off that path; it is not measured here.
"""

from __future__ import annotations

import datetime as dt
from pathlib import Path

import numpy as np

WORKLOADS = ("scan_long", "scan_dense", "validate")

START_DATE = dt.date(2013, 1, 1)
RATE = "0.03"

LONG_HISTORIES = 6
LONG_BARS = 1000
LONG_SIGMA = 0.30
LONG_VOL_WINDOW = 14

DENSE_HISTORIES = 40
DENSE_BARS = 250

# Workload ids keep the random streams of different workloads apart.
_STREAM = {"scan_long": 1, "scan_dense": 2, "warmup": 3}
# The regime layout of dense history k is the same for every seed: range
# detection's cost follows where the ranges sit, so a seed-drawn layout would
# move the work per pass by several percent from seed to seed.
_LAYOUT_SEED = 20131


def _rng(seed: int, workload: str, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAM[workload], index])


def gbm_closes(rng: np.random.Generator, n: int, sigma: float = LONG_SIGMA) -> np.ndarray:
    """Geometric random walk with annualized volatility ``sigma`` (252 bars/year)."""
    step = sigma / np.sqrt(252)
    log_prices = np.cumsum(rng.normal(0.0, step, size=n))
    return 100.0 * np.exp(log_prices - log_prices[0])


def regime_switching(
    rng: np.random.Generator, layout: np.random.Generator, n: int
) -> tuple[list[tuple], np.ndarray]:
    """OHLCV bars alternating noisy sideways stretches and trending legs.

    ``layout`` draws the regime order and stretch lengths: sideways stretches
    of 20-60 bars, trending legs of 8-25 bars. ``rng`` draws everything else:
    the price level (log-uniform in [20, 300], so band widths land on both
    sides of the NO_BARRIER threshold), sideways bands of 1.5-5% of the price,
    trends of 1.5-3.5% a bar, and the volatilities. Returns (bars, annualized
    sigma per bar): sigma is low in sideways stretches and high in trends, so
    volatility falls are flagged where a trend gives way to a range.
    """
    price = float(np.exp(rng.uniform(np.log(20.0), np.log(300.0))))
    closes: list[float] = []
    sigmas: list[float] = []
    sideways = bool(layout.integers(2))
    while len(closes) < n:
        if sideways:
            length = int(layout.integers(20, 61))
            half_band = rng.uniform(0.0075, 0.025)
            level_sigma = rng.uniform(0.12, 0.3)
            for _ in range(length):
                closes.append(price * float(np.exp(rng.uniform(-half_band, half_band))))
                sigmas.append(level_sigma * float(rng.uniform(0.9, 1.1)))
        else:
            length = int(layout.integers(8, 26))
            drift = rng.uniform(0.015, 0.035) * (1 if rng.integers(2) else -1)
            level_sigma = rng.uniform(0.35, 0.8)
            for _ in range(length):
                price *= float(np.exp(drift + rng.normal(0.0, 0.004)))
                closes.append(price)
                sigmas.append(level_sigma * float(rng.uniform(0.9, 1.1)))
        price = closes[-1]
        sideways = not sideways
    closes = closes[:n]
    bars = []
    prev = closes[0]
    for close in closes:
        wick = float(rng.uniform(0.0, 0.004))
        high = max(prev, close) * (1.0 + wick)
        low = min(prev, close) * (1.0 - wick)
        volume = float(rng.integers(10_000, 1_000_000))
        bars.append((prev, high, low, close, volume))
        prev = close
    return bars, np.array(sigmas[:n])


def _dates(n: int) -> list[dt.date]:
    return [START_DATE + dt.timedelta(days=i) for i in range(n)]


def _ohlc_csv(bars: list[tuple]) -> str:
    with_volume = len(bars[0]) == 5
    lines = ["date,open,high,low,close" + (",volume" if with_volume else "")]
    for day, bar in zip(_dates(len(bars)), bars):
        lines.append(",".join([day.isoformat()] + [repr(float(x)) for x in bar]))
    return "\n".join(lines) + "\n"


def _vol_csv(sigmas: np.ndarray) -> str:
    lines = ["date,sigma"]
    lines += [f"{day.isoformat()},{float(s)!r}" for day, s in zip(_dates(len(sigmas)), sigmas)]
    return "\n".join(lines) + "\n"


def write_inputs(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's input files and return its plan.

    The plan is a JSON-able dict: ``warmup`` (argv of the set-up call),
    ``calls`` (argv list of one pass), ``bars`` (bars scanned per pass) and,
    for scan calls, ``history`` (closes, dates and sigma source of each call)
    for the output oracle.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    warm = out_dir / "WARM.csv"
    warm_closes = gbm_closes(_rng(seed, "warmup", 0), 60)
    warm.write_text(_ohlc_csv([(c, c, c, c) for c in warm_closes]), encoding="utf-8")
    warm_argv = ["scan", "--input", str(warm), "--r", RATE, "--vol-window", str(LONG_VOL_WINDOW)]
    if workload == "validate":
        # a reduced sweep: imports and touches every check without the full cost
        return {"warmup": ["validate", "--quad-points", "20"], "calls": [["validate"]], "bars": 0}
    calls, histories = [], []
    if workload == "scan_long":
        for k in range(LONG_HISTORIES):
            closes = gbm_closes(_rng(seed, workload, k), LONG_BARS)
            path = out_dir / f"LONG{k}.csv"
            path.write_text(_ohlc_csv([(c, c, c, c) for c in closes]), encoding="utf-8")
            calls.append(["scan", "--input", str(path), "--r", RATE,
                          "--vol-window", str(LONG_VOL_WINDOW)])
            histories.append({"symbol": path.stem, "closes": closes.tolist(),
                              "vol": None, "vol_window": LONG_VOL_WINDOW, "json": False})
    elif workload == "scan_dense":
        for k in range(DENSE_HISTORIES):
            layout = np.random.default_rng([_LAYOUT_SEED, k])
            bars, sigmas = regime_switching(_rng(seed, workload, k), layout, DENSE_BARS)
            path = out_dir / f"DENSE{k}.csv"
            vol_path = out_dir / f"DENSE{k}_vol.csv"
            path.write_text(_ohlc_csv(bars), encoding="utf-8")
            vol_path.write_text(_vol_csv(sigmas), encoding="utf-8")
            calls.append(["scan", "--input", str(path), "--vol", str(vol_path), "--r", RATE, "--json"])
            histories.append({"symbol": path.stem, "closes": [b[3] for b in bars],
                              "vol": sigmas.tolist(), "vol_window": None, "json": True})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    bars_per_pass = sum(len(h["closes"]) for h in histories)
    return {"warmup": warm_argv, "calls": calls, "bars": bars_per_pass, "history": histories}
