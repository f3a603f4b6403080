"""Self-check suite: closed forms against independent numerics.

Four families of checks run here: the golden tables, the closed-form barrier
integral against Gauss–Legendre quadrature over a seeded random parameter sweep
and against the Richardson limit of the segmented transmission's sums, and
finite-difference residuals of the two differential equations on analytic
solutions. The seed fixes every random draw, so identical seeds reproduce
identical sweeps; no gate is chosen for a seed.

Every numeric check is decided by one rule, ``_verdict``: it passes only
when every error is within its gate, so a NaN error fails, and a FAIL names
the worst point, the first NaN or else the first largest error.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .barrier import (
    _integral_closed,
    _segmented_walls,
    barrier_geometry,
    lambda_of,
    wkb_prefactor,
)
from .numerics import (
    merton_ode_residual,
    quad_barrier_integrals,
    schrodinger_form_residual,
)
from .tables import reproduce_table
from .types import MarketParams, RangeBound
from .wavefunction import w_from_psi

DEFAULT_SEED = 4
DEFAULT_QUAD_POINTS = 1000  # parameter points in the quadrature sweep
SEGMENT_LADDER = (256, 1024, 4096)  # segment counts a factor 4 apart, for Richardson's steps
SEGMENT_POINTS = 20  # parameter points run down the ladder
TRANSFORM_PAIRS = 5  # (r, sigma) pairs mapped through the transform
# Grid points of the transform check on [0.5, 10]. Its image of S^alpha is
# exactly w = S, whose central differences have no truncation error, so the
# relative residual is rounding alone, about sigma^2 S_max^2 eps / (2 r h^2):
# it grows as the grid is refined. Over seeds 0-99 the worst is 4.7e-8 at
# 1 000 points, 1.8e-7 at 2 000 and 6.7e-6 at 10 000, against the 1e-6 gate.
TRANSFORM_GRID_POINTS = 1000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _verdict(
    name: str, errors: np.ndarray | list[float], gate: float, summary: str, where: Callable[[int], str] | None
) -> CheckResult:
    """The PASS rule of every numeric check: every error at most ``gate``, so a NaN fails.

    The worst error, which ``summary`` formats, is the first NaN or else the
    first largest, as ``argmax`` picks it; a FAIL adds `` at `` and the label
    ``where(i)`` of that point, built only then.
    """
    errors = np.asarray(errors, dtype=float)
    worst = int(errors.argmax())
    passed = bool((errors <= gate).all())
    detail = summary.format(errors[worst].item())
    return CheckResult(name, passed, detail if passed or where is None else f"{detail} at {where(worst)}")


def _draw_points(
    rng: np.random.Generator, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``n`` random tunneling-regime points: arrays of r, sigma and the band width.

    One broadcast ``uniform`` call fills an (n, 3) array in C order, each
    element as ``low + (high - low) * next_double`` by the same C routine as
    a scalar call, so row k holds the bits of the k-th scalar draw of
    r, sigma and lambda*K^2, and consecutive calls continue one stream.
    Writing the affine map in numpy instead would not be safe: the compiled
    routine may fuse its multiply-add into one rounding on some builds. The
    width sqrt(lambda*K^2 / lambda) is correctly rounded, as ``math.sqrt`` is.
    """
    r, sigma, lam_k2 = rng.uniform((0.005, 0.1, 0.01), (0.1, 1.0, 0.99), size=(n, 3)).T
    return r, sigma, np.sqrt(lam_k2 / (r / sigma))


def _pairs(
    r: np.ndarray, sigma: np.ndarray, width: np.ndarray
) -> list[tuple[MarketParams, RangeBound]]:
    """The (params, band) pair of every drawn point."""
    return [
        (MarketParams(r=a, sigma=b), RangeBound.from_width(k))
        for a, b, k in zip(r.tolist(), sigma.tolist(), width.tolist())
    ]


def check_tables(prefactor_variant: str = "numerator") -> list[CheckResult]:
    results = []
    for which in (1, 2, 3):
        table = reproduce_table(which, prefactor_variant=prefactor_variant)
        bad = [
            f"{row.inputs}: {cell.label} computed={cell.computed:.6g} ref={cell.reference:.6g}"
            for row in table.rows
            for cell in row.cells
            if not cell.ok
        ]
        detail = f"{len(table.rows)} rows" if table.ok else "; ".join(bad)
        results.append(CheckResult(f"table-{which}-reproduction", table.ok, detail))
    return results


def quadrature_sweep(
    seed: int = DEFAULT_SEED, points: int = DEFAULT_QUAD_POINTS
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The sweep's seeded points and the quadrature value at each.

    Returns the arrays r, sigma, band width K and quadrature value, one
    element per point. Each value has the bits of ``quad_barrier_integral``
    at its point.
    """
    r, sigma, width = _draw_points(np.random.default_rng(seed), points)
    return r, sigma, width, quad_barrier_integrals(r / sigma, width)


def check_quadrature_sweep(seed: int = DEFAULT_SEED, points: int = DEFAULT_QUAD_POINTS) -> CheckResult:
    """Closed-form bracket vs Gauss–Legendre quadrature, <= 1e-9 relative everywhere.

    The closed form is taken of the floats lambda = r / sigma and K, the
    same floats ``barrier_integral_closed`` forms from each point's
    ``MarketParams`` and ``RangeBound``. Raises ValueError unless
    ``points >= 1``: an empty sweep checks nothing.
    """
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    r, sigma, width, quad = quadrature_sweep(seed, points)
    closed = np.array([_integral_closed(lam, k) for lam, k in zip((r / sigma).tolist(), width.tolist())])
    summary = f"{points} points, max rel err {{:.3e}}"
    return _verdict(
        "quadrature-vs-closed-form", np.abs(quad - closed) / closed, 1e-9, summary,
        lambda i: f"r={r[i]:.6g} sigma={sigma[i]:.6g} K={width[i]:.6g}",
    )


def check_segmented_convergence(seed: int = DEFAULT_SEED) -> CheckResult:
    """Richardson limit of the segment sums against the closed form, <= 1e-9 relative.

    The integrand vanishes like a square root at S1, so the midpoint sum S_n
    on n segments of width h has the error c1 h^{3/2} + c2 h^2 + c3 h^{5/2}
    + ..., with terms of either sign (Navot 1961; Lyness & Ninham 1967).
    Two Richardson steps over n = 256, 1024 and 4096, R_n = (8 S_4n - S_n) / 7
    and then (16 R_1024 - R_256) / 15, remove the first two terms, and the
    limit must lie within 1e-9 of ``_integral_closed`` of the same lambda
    and K: the worst over seeds 0-99 is 6.9e-11, and a bracket 1e-8 off
    fails at each of them. The final rung's T must lie within 1e-6 of the
    exact T. Each rung runs for all drawn points (lambda*K^2 <= 0.99) in one
    array pass, each sum with the bits of its ``transmission_segmented`` call.
    """
    pairs = _pairs(*_draw_points(np.random.default_rng(seed), SEGMENT_POINTS))
    geos = [barrier_geometry(params, band) for params, band in pairs]
    walls = np.array([[band.width, geo.width_d, geo.lam] for (_, band), geo in zip(pairs, geos)]).T
    coarse, middle, fine = (_segmented_walls(*walls, n) for n in SEGMENT_LADDER)
    # Richardson's steps: h^{3/2} falls by 4^{3/2} = 8 a rung, then h^2 by 16
    r_coarse, r_fine = (8.0 * middle - coarse) / 7.0, (8.0 * fine - middle) / 7.0
    limits = (16.0 * r_fine - r_coarse) / 15.0
    brackets = np.array([_integral_closed(geo.lam, band.width) for (_, band), geo in zip(pairs, geos)])
    pfs = [wkb_prefactor(params) for params, _ in pairs]
    finals = [
        abs(math.exp(-2.0 * pf * t) - math.exp(-2.0 * pf * b))
        for pf, t, b in zip(pfs, fine.tolist(), brackets.tolist())
    ]

    def where(i: int) -> str:
        params, band = pairs[i]
        return f"r={params.r:.6g} sigma={params.sigma:.6g} K={band.width:.6g}"

    final = _verdict("segmented-convergence", finals, 1e-6, "final error {:.3e}, gate 1e-6", where)
    if not final.passed:
        return final
    summary = f"{SEGMENT_POINTS} points, ladder {SEGMENT_LADDER}, extrapolated max rel err {{:.3e}}"
    return _verdict("segmented-convergence", np.abs(limits - brackets) / brackets, 1e-9, summary, where)


def check_transform_residual(seed: int = DEFAULT_SEED) -> CheckResult:
    """Power solutions of the band equation map to pricing-ODE solutions.

    psi = S^alpha with alpha(alpha - 1) = P^2 solves the zero-eigenvalue band
    equation analytically; its image under w_from_psi must satisfy the
    stationary pricing ODE to finite-difference accuracy. That image is
    exactly w = S (alpha - r/sigma^2 = 1), so the residual on the
    ``TRANSFORM_GRID_POINTS`` = 1 000-point grid is rounding alone, about
    sigma^2 S_max^2 eps / (2 r h^2) and at most 4.7e-8 over seeds 0-99. An
    exponent off by a relative delta leaves about delta (1/2 + r/sigma^2) at
    any grid size: the gate catches every delta above 2e-6, and delta = 1e-6
    wherever r/sigma^2 > 1/2.
    """
    rng = np.random.default_rng(seed)
    grid = np.linspace(0.5, 10.0, TRANSFORM_GRID_POINTS)
    pairs, residuals = [], []
    for _ in range(TRANSFORM_PAIRS):
        params = MarketParams(r=rng.uniform(0.005, 0.1), sigma=rng.uniform(0.1, 1.0))
        alpha = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * wkb_prefactor(params) ** 2))
        pairs.append(params)
        residuals.append(merton_ode_residual(w_from_psi(grid**alpha, grid, params), params, grid))
    return _verdict(
        "transform-residual", residuals, 1e-6, f"{TRANSFORM_PAIRS} pairs, max rel residual {{:.3e}}",
        lambda i: f"r={pairs[i].r:.6g} sigma={pairs[i].sigma:.6g}",
    )


def check_band_equation_residuals() -> CheckResult:
    """Analytic solutions of the band equation pass the residual evaluator.

    The transmitted plane wave satisfies the free-oscillation form beyond the
    wall; the power solution S^alpha satisfies the full zero-eigenvalue form.
    """
    params = MarketParams(r=0.03, sigma=0.53)
    lam = lambda_of(params)
    pf = wkb_prefactor(params)
    k = pf * math.sqrt(lam)
    s1 = 1.0 / math.sqrt(lam)

    grid_far = np.linspace(s1, 2.0 * s1, 10_000)
    psi3 = np.exp(1j * k * grid_far)
    far = schrodinger_form_residual(psi3, params, lam, grid_far, include_potential=False)

    alpha = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * pf * pf))
    grid_band = np.linspace(0.5, 10.0, 10_000)
    power = schrodinger_form_residual(grid_band**alpha, params, 0.0, grid_band)

    detail = f"plane-wave rel {far:.3e}, power-solution rel {power:.3e}"
    return _verdict("band-equation-residuals", [far, power], 1e-6, detail, None)


def run_all(
    seed: int = DEFAULT_SEED,
    quad_points: int = DEFAULT_QUAD_POINTS,
    prefactor_variant: str = "numerator",
) -> list[CheckResult]:
    """Run every check; the variant hook is the tables' negative control."""
    results = check_tables(prefactor_variant=prefactor_variant)
    results.append(check_quadrature_sweep(seed=seed, points=quad_points))
    results.append(check_segmented_convergence(seed=seed))
    results.append(check_transform_residual(seed=seed))
    results.append(check_band_equation_residuals())
    return results
