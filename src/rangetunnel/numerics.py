"""Independent numerical cross-checks for the barrier math.

This module deliberately shares no computation with ``barrier``: the wall
integral is evaluated by adaptive Simpson quadrature from scratch, and the two
differential-equation residuals are plain central differences. Golden tests
compare these against the closed forms; keeping the implementations disjoint
is what makes the comparison meaningful, so nothing here may call
``barrier_integral_closed``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .types import MarketParams


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and recursion limit for the adaptive integrator."""

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_depth: int = 60

    def __post_init__(self) -> None:
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


class QuadratureConvergenceError(RuntimeError):
    """Raised when the recursion limit is hit; carries the best estimate so far."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


@dataclass(frozen=True)
class ResidualReport:
    """Finite-difference residual summary over an evaluation grid."""

    max_abs_residual: float
    max_rel_residual: float
    grid: np.ndarray

    def __post_init__(self) -> None:
        if self.max_abs_residual < 0 or self.max_rel_residual < 0:
            raise ValueError("residuals must be >= 0")


def adaptive_simpson(
    f: Callable[[float], float], a: float, b: float, cfg: QuadratureConfig
) -> float:
    """Adaptive Simpson integration of f over [a, b] by interval bisection.

    Each interval is accepted when the Richardson estimate |S2 - S1| / 15
    falls inside its share of the tolerance. Raises
    QuadratureConvergenceError when max_depth is exhausted anywhere.
    """
    if b <= a:
        return 0.0
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fmid = f(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fmid + fb)
    tol = max(cfg.abs_tol, cfg.rel_tol * abs(whole))

    def recurse(x0, f0, x1, f1, x2, f2, simpson, tol, depth):
        left_mid = 0.5 * (x0 + x1)
        right_mid = 0.5 * (x1 + x2)
        f_lm = f(left_mid)
        f_rm = f(right_mid)
        left = (x1 - x0) / 6.0 * (f0 + 4.0 * f_lm + f1)
        right = (x2 - x1) / 6.0 * (f1 + 4.0 * f_rm + f2)
        delta = left + right - simpson
        if abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        if depth <= 0:
            raise QuadratureConvergenceError(
                f"max_depth exhausted on [{x0:.12g}, {x2:.12g}]",
                best_estimate=left + right + delta / 15.0,
            )
        return recurse(x0, f0, left_mid, f_lm, x1, f1, left, tol / 2.0, depth - 1) + recurse(
            x1, f1, right_mid, f_rm, x2, f2, right, tol / 2.0, depth - 1
        )

    return recurse(a, fa, mid, fmid, b, fb, whole, tol, cfg.max_depth)


def quad_barrier_integral(
    params: MarketParams,
    band,
    cfg: QuadratureConfig | None = None,
) -> float:
    """Numerically integrate sqrt(1/S^2 - lambda) over the wall [K, S1].

    The integrand has a square-root zero at S1, where its slope is infinite,
    so plain bisection would have to grade the mesh deep into that endpoint.
    The wall is split at mid = max(K, S1/2) instead:

    - on [K, mid] the integrand in s is smooth and is used as it is;
    - on [mid, S1] the substitution s = S1 - t^2, t in [0, sqrt(S1 - mid)],
      turns it into 2 t^2 sqrt(lambda (2 S1 - t^2)) / (S1 - t^2), which is
      smooth and exactly 0 at t = 0, so S1 needs no special treatment.

    The substitution is not used over the whole wall: when K << S1, forming
    S1 - t^2 near t = sqrt(S1 - K) cancels nearly all digits of s while the
    integrand grows like 1/s there, so the integrator would chase rounding
    noise. Past mid, s >= S1/2 and that cancellation costs at most one bit.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    lam = params.r / params.sigma
    k_width = band.width
    if lam * k_width * k_width > 1.0:
        raise ValueError("no wall to integrate over: lambda*K^2 > 1")
    s1 = math.sqrt(1.0 / lam)
    if s1 <= k_width:
        return 0.0  # degenerate zero-width wall
    mid = max(k_width, 0.5 * s1)

    def integrand(s: float) -> float:
        return math.sqrt(1.0 / (s * s) - lam)  # >= sqrt(3 lambda) on [K, mid]

    def substituted(t: float) -> float:
        t2 = t * t
        return 2.0 * t2 * math.sqrt(lam * (2.0 * s1 - t2)) / (s1 - t2)

    return adaptive_simpson(integrand, k_width, mid, cfg) + adaptive_simpson(
        substituted, 0.0, math.sqrt(s1 - mid), cfg
    )


def _check_grid(grid: np.ndarray) -> float:
    """Validate a uniform, strictly increasing, positive grid; return spacing."""
    if grid.ndim != 1 or grid.size < 5:
        raise ValueError("grid needs at least 5 points")
    if grid[0] <= 0 or np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing and positive")
    steps = np.diff(grid)
    h = float(steps[0])
    if not np.allclose(steps, h, rtol=1e-9, atol=0.0):
        raise ValueError("grid must be uniformly spaced")
    return h


def _relative_residual(residual: np.ndarray, *term_magnitudes: np.ndarray) -> float:
    """Residual relative to the largest constituent term, pointwise."""
    scale = np.maximum.reduce([np.abs(t) for t in term_magnitudes])
    mask = scale > 0
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(residual[mask]) / scale[mask]))


def merton_ode_residual(
    w_values: Sequence[float] | np.ndarray,
    params: MarketParams,
    grid: Sequence[float] | np.ndarray,
) -> ResidualReport:
    """Central-difference residual of the stationary pricing ODE.

        (1/2) sigma^2 S^2 w'' + r S w' - r w = 0

    evaluated at interior grid points. The relative residual is measured
    against the largest of the three terms at each point, so an exact solution
    with large cancelling terms still scores near zero.
    """
    w = np.asarray(w_values, dtype=float)
    s = np.asarray(grid, dtype=float)
    if w.shape != s.shape:
        raise ValueError("w_values and grid must have the same length")
    h = _check_grid(s)
    r, sigma = params.r, params.sigma
    w0, w1, w2 = w[:-2], w[1:-1], w[2:]
    s_in = s[1:-1]
    d1 = (w2 - w0) / (2.0 * h)
    d2 = (w2 - 2.0 * w1 + w0) / (h * h)
    term_diff = 0.5 * sigma * sigma * s_in * s_in * d2
    term_drift = r * s_in * d1
    term_disc = r * w1
    residual = term_diff + term_drift - term_disc
    return ResidualReport(
        max_abs_residual=float(np.max(np.abs(residual))),
        max_rel_residual=_relative_residual(residual, term_diff, term_drift, term_disc),
        grid=s_in,
    )


def schrodinger_form_residual(
    psi_values: Sequence[complex] | np.ndarray,
    params: MarketParams,
    lam: float,
    grid: Sequence[float] | np.ndarray,
    include_potential: bool = True,
) -> ResidualReport:
    """Central-difference residual of the stationary band equation.

        -(sigma^4 / (r (sigma^2 + r))) psi'' + V(S) psi = lam psi

    with V(S) = 1/S^2. ``include_potential=False`` drops the V term, which is
    the free-oscillation form used for the far side of the wall where the
    transmitted wave is defined.
    """
    psi = np.asarray(psi_values, dtype=complex)
    s = np.asarray(grid, dtype=float)
    if psi.shape != s.shape:
        raise ValueError("psi_values and grid must have the same length")
    h = _check_grid(s)
    r, sigma = params.r, params.sigma
    coeff = sigma**4 / (r * (sigma * sigma + r))
    p0, p1, p2 = psi[:-2], psi[1:-1], psi[2:]
    s_in = s[1:-1]
    d2 = (p2 - 2.0 * p1 + p0) / (h * h)
    term_kin = -coeff * d2
    term_pot = (1.0 / (s_in * s_in)) * p1 if include_potential else np.zeros_like(p1)
    term_eig = lam * p1
    residual = term_kin + term_pot - term_eig
    return ResidualReport(
        max_abs_residual=float(np.max(np.abs(residual))),
        max_rel_residual=_relative_residual(
            residual, np.abs(term_kin), np.abs(term_pot), np.abs(term_eig)
        ),
        grid=s_in,
    )
