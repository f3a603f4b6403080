"""Independent numerical cross-checks for the barrier math.

This module deliberately shares no computation with ``barrier``: the wall
integral is evaluated by adaptive Simpson quadrature from scratch, and the two
differential-equation residuals are plain central differences. The
integrator bisects level by level over arrays of intervals from many
integrals at once, so the ``validate`` sweep integrates a block of points per
numpy pass; each result has the bits of the classic depth-first recursion,
which the tests keep as their reference. Golden tests
compare these against the closed forms; keeping the implementations disjoint
is what makes the comparison meaningful, so nothing here may call
``barrier_integral_closed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .types import MarketParams, RangeBound


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

    def __post_init__(self) -> None:
        if self.max_abs_residual < 0 or self.max_rel_residual < 0:
            raise ValueError("residuals must be >= 0")


# Vectorised integrand of the batched integrator: f(x, index) returns f at
# every abscissa in x, where index[i] is the integral that x[i] belongs to.
BatchIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _halves(five: np.ndarray) -> np.ndarray:
    """Rows x0, mid, x2 of both halves of intervals given as five rows.

    ``five`` holds x0, left mid, mid, right mid and x2 (or f there) of each
    interval; column 2k of the result is interval k's left half, 2k + 1 its
    right half.
    """
    return five[[0, 1, 2, 2, 3, 4]].reshape(2, 3, -1).transpose(1, 2, 0).reshape(3, -1)


def adaptive_simpson_batch(
    f: BatchIntegrand, a: np.ndarray, b: np.ndarray, cfg: QuadratureConfig
) -> np.ndarray:
    """Adaptive Simpson integration of f over every interval [a[j], b[j]] at once.

    This is the recursive bisection scheme run one level at a time over the
    live intervals of all integrals. Each interval is accepted when
    |S2 - S1| <= 15 tol, where tol starts at max(abs_tol, rel_tol |whole|)
    and halves per level; an accepted interval is worth S2 + (S2 - S1) / 15,
    a split one the sum of its left and right halves, added in that order.
    Every value is formed by the same float operations in the same order as
    the depth-first recursion, so each result has the same bits. An
    interval with b <= a integrates to 0.0 without evaluating f.

    Raises QuadratureConvergenceError, naming the failing interval and
    carrying its estimate, when an interval still fails at max_depth; with
    several, the first in the order of the integrals and, within one, the
    leftmost, which is the one the recursion would meet first.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    result = np.zeros(a.shape)
    live = np.flatnonzero(~(b <= a))
    if live.size == 0:
        return result
    ids = live
    a, b = a[live], b[live]
    mid = 0.5 * (a + b)
    fa, fb, fmid = f(np.concatenate((a, b, mid)), np.concatenate((ids, ids, ids))).reshape(3, -1)
    simpson = (b - a) / 6.0 * (fa + 4.0 * fmid + fb)
    scaled = cfg.rel_tol * np.abs(simpson)
    # max(abs_tol, scaled) as Python's max picks it, so a NaN estimate gets abs_tol
    tol = np.where(scaled > cfg.abs_tol, scaled, cfg.abs_tol)
    # rows x0, mid, x2 of each live interval, and f at them
    x = np.array((a, mid, b))
    fx = np.array((fa, fmid, fb))
    levels = []  # per level: each interval's own estimate, and which were split
    for depth in range(cfg.max_depth, -1, -1):
        left_mid = 0.5 * (x[0] + x[1])
        right_mid = 0.5 * (x[1] + x[2])
        f_lm, f_rm = f(np.concatenate((left_mid, right_mid)), np.concatenate((ids, ids))).reshape(2, -1)
        left = (x[1] - x[0]) / 6.0 * (fx[0] + 4.0 * f_lm + fx[1])
        right = (x[2] - x[1]) / 6.0 * (fx[1] + 4.0 * f_rm + fx[2])
        delta = left + right - simpson
        estimate = left + right + delta / 15.0
        split = ~(np.abs(delta) <= 15.0 * tol)
        levels.append((estimate, split))
        if not split.any():
            break
        if depth <= 0:
            i = int(split.argmax())
            raise QuadratureConvergenceError(
                f"max_depth exhausted on [{float(x[0, i]):.12g}, {float(x[2, i]):.12g}]",
                best_estimate=float(estimate[i]),
            )
        # the halves of each split interval, left then right, keep tree order
        x = _halves(np.array((x[0], left_mid, x[1], right_mid, x[2]))[:, split])
        fx = _halves(np.array((fx[0], f_lm, fx[1], f_rm, fx[2]))[:, split])
        simpson = np.array((left, right))[:, split].T.ravel()
        tol = (tol[split] / 2.0).repeat(2)
        ids = ids[split].repeat(2)
    value = levels[-1][0]
    for estimate, split in reversed(levels[:-1]):
        estimate[split] = value[0::2] + value[1::2]
        value = estimate
    result[live] = value
    return result


def adaptive_simpson(
    f: Callable[[float], float], a: float, b: float, cfg: QuadratureConfig
) -> float:
    """Adaptive Simpson integration of a scalar f over [a, b] by interval bisection.

    f is called once per abscissa with a Python float. The integration is
    ``adaptive_simpson_batch`` on the one interval, so the result has the
    bits of the depth-first recursion it runs level by level. Raises
    QuadratureConvergenceError when max_depth is exhausted anywhere.
    """

    def batch(x: np.ndarray, _: np.ndarray) -> np.ndarray:
        return np.array([f(v) for v in x.tolist()], dtype=float)

    return float(adaptive_simpson_batch(batch, np.array([a]), np.array([b]), cfg)[0])


def quad_barrier_integrals(
    points: Sequence[tuple[MarketParams, RangeBound]],
    cfg: QuadratureConfig | None = None,
) -> np.ndarray:
    """``quad_barrier_integral`` at every (params, band) point, integrated together.

    Each value has the bits of the one-point call. The s parts of all points
    form one batch and the t parts another, so memory grows with the number
    of points: callers with many points pass them in blocks. On depth
    exhaustion the error comes from the first failing s part, if any, then
    from the first failing t part.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    lam = np.array([params.r / params.sigma for params, _ in points])
    k_width = np.array([band.width for _, band in points])
    if np.any(lam * k_width * k_width > 1.0):
        raise ValueError("no wall to integrate over: lambda*K^2 > 1")
    s1 = np.sqrt(1.0 / lam)
    # a zero-width wall (S1 <= K) gets two empty parts: mid = K and t_end = 0
    mid = np.maximum(k_width, 0.5 * s1)
    t_end = np.sqrt(np.maximum(s1 - mid, 0.0))

    def integrand(s: np.ndarray, j: np.ndarray) -> np.ndarray:
        return np.sqrt(1.0 / (s * s) - lam[j])  # >= sqrt(3 lambda) on [K, mid]

    def substituted(t: np.ndarray, j: np.ndarray) -> np.ndarray:
        t2 = t * t
        return 2.0 * t2 * np.sqrt(lam[j] * (2.0 * s1[j] - t2)) / (s1[j] - t2)

    inner = adaptive_simpson_batch(integrand, k_width, mid, cfg)
    outer = adaptive_simpson_batch(substituted, np.zeros_like(t_end), t_end, cfg)
    return inner + outer


def quad_barrier_integral(
    params: MarketParams,
    band: RangeBound,
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
    Raises ValueError when lambda*K^2 > 1; a zero-width wall gives 0.0.
    """
    return float(quad_barrier_integrals([(params, band)], cfg)[0])


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
    )
