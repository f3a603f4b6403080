"""Golden reference tables and their regeneration from the formulas.

Three published reference sets are reproduced: a rate sweep and a volatility
sweep on a fixed band, and four stock case studies with pinned inputs. Each
table is module data, rows of printed inputs and reference cells, and one
loop regenerates every row. The reference cells print a mix of rounded and
truncated digits, so a computed value counts as matching when it falls within
one unit of the cell's last printed digit. The prefactor variant hook exists
as a negative control: the denominator form fails the sweeps outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .barrier import barrier_integral_closed, exit_price, transmission_exact
from .types import MarketParams, RangeBound


@dataclass(frozen=True)
class CellResult:
    """One computed-vs-reference cell with its printed-precision tolerance."""

    label: str
    computed: float
    reference: float
    tol: float

    @property
    def delta(self) -> float:
        return self.computed - self.reference

    @property
    def ok(self) -> bool:
        return abs(self.delta) <= self.tol


@dataclass(frozen=True)
class RowResult:
    """All checked cells for one table row."""

    inputs: dict
    cells: tuple[CellResult, ...]

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)


@dataclass(frozen=True)
class TableResult:
    which: int
    rows: tuple[RowResult, ...]

    @property
    def ok(self) -> bool:
        return all(row.ok for row in self.rows)


def _sweep(r: float, sigma: float, t_pct: float, t_tol: float, d: float) -> tuple:
    """Sweep row on the band of width K = 2.40: T in percent, d printed at 2 dp."""
    return {"r": r, "sigma": sigma, "K": 2.40}, (("T%", t_pct, t_tol), ("d", d, 0.01))


def _stock(symbol: str, r: float, sigma: float, resistance: float, support: float,
           k: float, k_tol: float, d: float, d_tol: float, t: float, t_tol: float) -> tuple:
    """Stock case row: pinned inputs, (K, d, T) at per-cell precision."""
    inputs = {"symbol": symbol, "r": r, "sigma": sigma, "resistance": resistance, "support": support}
    return inputs, (("K", k, k_tol), ("d", d, d_tol), ("T", t, t_tol))


# table id -> rows of (printed inputs, checked cells as (label, reference, tol))
TABLE_ROWS = {
    # rate sweep at sigma = 0.53; integer T% cells
    1: [
        _sweep(0.01, 0.53, 73.0, 1.0, 4.88),
        _sweep(0.02, 0.53, 75.0, 1.0, 2.75),
        _sweep(0.03, 0.53, 79.0, 1.0, 1.80),
        _sweep(0.04, 0.53, 83.0, 1.0, 1.24),
        _sweep(0.05, 0.53, 87.0, 1.0, 0.85),
        _sweep(0.06, 0.53, 91.0, 1.0, 0.57),
        _sweep(0.07, 0.53, 95.0, 1.0, 0.35),
    ],
    # volatility sweep at r = 0.05; the last three T% cells print 2 dp
    2: [
        _sweep(0.05, 0.43, 91.0, 1.0, 0.53),
        _sweep(0.05, 0.53, 87.0, 1.0, 0.85),
        _sweep(0.05, 0.63, 85.0, 1.0, 1.15),
        _sweep(0.05, 0.73, 84.0, 1.0, 1.42),
        _sweep(0.05, 0.83, 83.95, 0.01, 1.67),
        _sweep(0.05, 0.93, 83.69, 0.01, 1.91),
        _sweep(0.05, 0.97, 83.64, 0.01, 2.00),
    ],
    # stock case studies
    3: [
        _stock("LNKD", 0.03, 0.47, 127.2, 123.3, 3.9, 0.1, 0.058114, 1e-6, 0.998675, 1e-6),
        _stock("GOOG", 0.03, 0.15, 704.7, 702.6, 2.1, 0.1, 0.136068, 1e-6, 0.95, 0.01),
        _stock("HUM", 0.03, 0.31, 70.08, 66.95, 3.13, 0.01, 0.08455, 1e-5, 0.9948, 1e-4),
        _stock("NFLX", 0.03, 0.55, 101.17, 97.81, 3.36, 0.01, 0.921744, 1e-6, 0.933, 1e-3),
    ],
}


def _transmission(params: MarketParams, band: RangeBound, prefactor_variant: str) -> float:
    if prefactor_variant == "numerator":
        return transmission_exact(params, band)
    if prefactor_variant == "denominator":
        # negative-control variant: (sigma^2 + r) moved under the radical's denominator;
        # every TABLE_ROWS band is in the TUNNELING regime, where the bracket is defined
        pf = math.sqrt(params.r / (params.sigma**4 * (params.sigma**2 + params.r)))
        return math.exp(-2.0 * pf * barrier_integral_closed(params, band))
    raise ValueError(f"unknown prefactor variant {prefactor_variant!r}")


def reproduce_table(which: int, prefactor_variant: str = "numerator") -> TableResult:
    """Regenerate reference table 1, 2 or 3 and compare cell by cell."""
    if which not in TABLE_ROWS:
        raise ValueError(f"table id must be 1, 2 or 3, got {which}")
    rows = []
    for inputs, refs in TABLE_ROWS[which]:
        params = MarketParams(r=inputs["r"], sigma=inputs["sigma"])
        if "K" in inputs:
            band = RangeBound.from_width(inputs["K"])
        else:
            band = RangeBound(support=inputs["support"], resistance=inputs["resistance"])
        t = _transmission(params, band, prefactor_variant)
        computed = {"K": band.width, "d": exit_price(params) - band.width, "T": t, "T%": 100.0 * t}
        cells = tuple(CellResult(label, computed[label], ref, tol) for label, ref, tol in refs)
        rows.append(RowResult(inputs=dict(inputs), cells=cells))
    return TableResult(which=which, rows=tuple(rows))


def render_table(result: TableResult) -> str:
    """Side-by-side computed vs reference text rendering with per-cell deltas."""
    lines = [f"table {result.which}"]
    for row in result.rows:
        inputs = "  ".join(f"{k}={v}" for k, v in row.inputs.items())
        cells = "  ".join(
            f"{c.label}: computed={c.computed:.6g} ref={c.reference:.6g} "
            f"delta={c.delta:+.2e} [{'ok' if c.ok else 'MISMATCH'}]"
            for c in row.cells
        )
        lines.append(f"  {inputs}  |  {cells}")
    lines.append(f"result: {'all cells match' if result.ok else 'MISMATCHES PRESENT'}")
    return "\n".join(lines)
