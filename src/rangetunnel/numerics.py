"""Independent numerical cross-checks for the barrier math.

This module deliberately shares no computation with ``barrier``: the wall
integral is evaluated by Gauss–Legendre quadrature from scratch, and the two
differential-equation residuals are plain central differences. The rule runs
over (integrals, nodes) arrays, so the ``validate`` sweep integrates all its
points in a few numpy passes, and each value has the bits of its one-point
call. Golden tests compare these against the closed forms; keeping the
implementations disjoint is what makes the comparison meaningful, so nothing
here may call ``barrier_integral_closed``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .types import MarketParams, RangeBound


# the barrier rule's one accuracy (see _gauss_legendre)
QUAD_ABS_TOL = 1e-13
QUAD_REL_TOL = 1e-12
QUAD_MAX_NODES = 1024


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and bisection-level limit of ``adaptive_simpson``, its only user.

    The barrier rule takes none: it runs at QUAD_ABS_TOL, QUAD_REL_TOL and
    QUAD_MAX_NODES.
    """

    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_depth: int = 60

    def __post_init__(self) -> None:
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be > 0")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")


class QuadratureConvergenceError(RuntimeError):
    """Raised when the refinement limit is hit; carries the best estimate so far."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


def adaptive_simpson(
    f: Callable[[float], float], a: float, b: float, cfg: QuadratureConfig
) -> float:
    """Adaptive Simpson integration of a scalar f over [a, b] by depth-first bisection.

    f is called once per abscissa. An interval is accepted when
    |S2 - S1| <= 15 tol, where tol starts at max(abs_tol, rel_tol |whole|)
    and halves per level; it is then worth S2 + (S2 - S1) / 15. An empty
    interval (b <= a) gives 0.0 without calling f. Raises
    QuadratureConvergenceError, naming the interval and carrying its
    estimate, when an interval still fails at max_depth.
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


@functools.lru_cache(maxsize=None)
def _legendre_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending nodes and their weights of the n-point Gauss–Legendre rule on [-1, 1], n even.

    Each positive node is a root of P_n, found by Newton's method from
    cos(pi (i + 3/4) / (n + 1/2)), with P_n from the three-term recurrence
    (k + 1) P_{k+1} = (2k + 1) x P_k - k P_{k-1}; its weight is
    2 / ((1 - x^2) P_n'(x)^2), and the negative nodes mirror the positive
    ones. All of it runs in Python floats, so the bits do not depend on the
    numpy build. The arrays are cached per n and read-only.
    """

    def legendre(x: float) -> tuple[float, float]:
        """P_n(x) and P_n'(x)."""
        p, p_prev = x, 1.0
        for k in range(1, n):
            p, p_prev = ((2 * k + 1) * x * p - k * p_prev) / (k + 1), p
        return p, n * (p_prev - x * p) / ((1.0 - x) * (1.0 + x))

    roots, weights = [], []
    for i in range(n // 2):
        x = math.cos(math.pi * (i + 0.75) / (n + 0.5))
        for _ in range(100):
            p, dp = legendre(x)
            step = p / dp
            x -= step
            if abs(step) <= 1e-15:
                break
        dp = legendre(x)[1]
        roots.append(x)
        weights.append(2.0 / ((1.0 - x) * (1.0 + x) * dp * dp))
    # roots run from the largest down: mirror them to ascend over [-1, 1]
    nodes = np.array([-x for x in roots] + roots[::-1])
    weights = np.array(weights + weights[::-1])
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _gauss_legendre(
    f: Callable[..., np.ndarray], a: np.ndarray, b: np.ndarray, params: tuple
) -> np.ndarray:
    """Integral of f over every [a[j], b[j]] by Gauss–Legendre rules of doubling order.

    f(x, *columns) returns f at x, an (m, n) array whose row i holds the
    abscissas of one integral; each of ``columns`` is an (m, 1) column of
    that integral's element of the matching array of ``params``. The order
    n doubles from 8 until |G_n - G_2n| <= max(QUAD_ABS_TOL, QUAD_REL_TOL |G_2n|),
    and each integral keeps the first G_2n that passes. Every value is
    formed row by row, so it has the bits of a call on that integral alone.
    An empty interval (b <= a) gives 0.0 without evaluating f. At
    QUAD_MAX_NODES nodes, raises QuadratureConvergenceError for the first
    integral still failing, with its G_2n at that order as the estimate.
    """
    result = np.zeros(a.shape)
    live = np.flatnonzero(~(b <= a))  # a NaN bound is evaluated, and fails to converge
    if not live.size:
        return result

    def rule(n: int) -> np.ndarray:
        nodes, weights = _legendre_nodes(n)
        lo, hi = a[live, None], b[live, None]
        half = 0.5 * (hi - lo)
        values = f(0.5 * (lo + hi) + half * nodes, *(p[live, None] for p in params))
        return (values * weights).sum(axis=1) * half[:, 0]

    n = 8
    coarse = rule(n)
    while live.size:
        if n == QUAD_MAX_NODES:
            i = live[0]
            raise QuadratureConvergenceError(
                f"no convergence on [{float(a[i]):.12g}, {float(b[i]):.12g}] at {n} nodes",
                best_estimate=float(coarse[0]),
            )
        n *= 2
        fine = rule(n)
        done = np.abs(fine - coarse) <= np.maximum(QUAD_ABS_TOL, QUAD_REL_TOL * np.abs(fine))
        result[live[done]] = fine[done]
        live, coarse = live[~done], fine[~done]
    return result


def _inner(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """sqrt(1/s^2 - lambda) ds over [K, mid] after s = e^u: sqrt(1 - lambda e^{2u}) du."""
    return np.sqrt(1.0 - lam * np.exp(2.0 * u))


def _outer(t: np.ndarray, lam: np.ndarray, s1: np.ndarray) -> np.ndarray:
    """sqrt(1/s^2 - lambda) ds over [mid, S1] after s = S1 - t^2."""
    t2 = t * t
    return 2.0 * t2 * np.sqrt(lam * (2.0 * s1 - t2)) / (s1 - t2)


def quad_barrier_integrals(lam: np.ndarray, k_width: np.ndarray) -> np.ndarray:
    """``quad_barrier_integral`` at every point (lam[j], k_width[j]), integrated together.

    ``lam`` holds each point's r / sigma and ``k_width`` its band width K, as
    float arrays of one length. The inner parts of all points go through
    one Gauss–Legendre rule and the outer parts through another, and each
    value has the bits of the one-point call: that call passes one-element
    arrays, and every row of the rule is formed alone. On non-convergence
    the error comes from the first failing inner part, if any, then from the
    first failing outer part. Both rules run at the module's one accuracy.
    """
    if np.any(lam * k_width * k_width > 1.0):
        raise ValueError("no wall to integrate over: lambda*K^2 > 1")
    s1 = np.sqrt(1.0 / lam)
    # a zero-width wall (S1 <= K) gets two empty parts: mid = K and t_end = 0
    mid = np.maximum(k_width, 0.5 * s1)
    t_end = np.sqrt(np.maximum(s1 - mid, 0.0))
    inner = _gauss_legendre(_inner, np.log(k_width), np.log(mid), (lam,))
    return inner + _gauss_legendre(_outer, np.zeros_like(t_end), t_end, (lam, s1))


def quad_barrier_integral(params: MarketParams, band: RangeBound) -> float:
    """Numerically integrate sqrt(1/S^2 - lambda) over the wall [K, S1].

    The integrand grows like 1/S as K -> 0 and has a square-root zero at S1,
    where its slope is infinite. The wall is split at mid = max(K, S1/2),
    and each part is made analytic for the Gauss–Legendre rule:

    - on [K, mid] the substitution s = e^u turns it into
      sqrt(1 - lambda e^{2u}), which lies in [sqrt(3)/2, 1] however small K is;
    - on [mid, S1] the substitution s = S1 - t^2, t in [0, sqrt(S1 - mid)],
      turns it into 2 t^2 sqrt(lambda (2 S1 - t^2)) / (S1 - t^2), which is
      smooth and exactly 0 at t = 0, so S1 needs no special treatment.

    s = e^u leaves the zero at S1 as it is, and near t = sqrt(S1 - K), S1 - t^2
    cancels the digits of a small s; past mid, that costs at most one bit.
    Both parts run at the module's one accuracy (``_gauss_legendre``).
    Raises ValueError when lambda*K^2 > 1; a zero-width wall gives 0.0.
    """
    lam = np.array([params.r / params.sigma])
    return float(quad_barrier_integrals(lam, np.array([band.width]))[0])


def _check_grid(grid: np.ndarray) -> float:
    """Validate a uniform, strictly increasing, positive grid; return spacing."""
    if grid.ndim != 1 or grid.size < 5:
        raise ValueError("grid needs at least 5 points")
    steps = np.diff(grid)
    if grid[0] <= 0 or np.any(steps <= 0):
        raise ValueError("grid must be strictly increasing and positive")
    h = float(steps[0])
    # every step within 1e-9 relative of the first; a NaN step fails
    if not np.all(np.abs(steps - h) <= 1e-9 * abs(h)):
        raise ValueError("grid must be uniformly spaced")
    return h


def _relative_residual(residual: np.ndarray, *terms: np.ndarray) -> float:
    """|residual| relative to the largest |term| at each point, maximised over points.

    Only the points where every term is 0 are left out; with none left the
    result is 0.0. A NaN or infinite term or residual gives NaN.
    """
    scale = np.abs(terms[0])
    for term in terms[1:]:
        np.maximum(scale, np.abs(term), out=scale)
    ratio = np.divide(np.abs(residual), scale, out=np.zeros(scale.shape), where=scale != 0)
    return float(np.max(ratio, initial=0.0))


def _stencil(
    name: str, values: Sequence | np.ndarray, dtype: type, grid: Sequence[float] | np.ndarray
) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Step h, interior grid points, and ``values`` before, at and after each, on a checked grid."""
    v = np.asarray(values, dtype=dtype)
    s = np.asarray(grid, dtype=float)
    if v.shape != s.shape:
        raise ValueError(f"{name} and grid must have the same length")
    return _check_grid(s), s[1:-1], v[:-2], v[1:-1], v[2:]


def merton_ode_residual(
    w_values: Sequence[float] | np.ndarray,
    params: MarketParams,
    grid: Sequence[float] | np.ndarray,
) -> float:
    """Max relative central-difference residual of the stationary pricing ODE.

        (1/2) sigma^2 S^2 w'' + r S w' - r w = 0

    evaluated at interior grid points. The relative residual is measured
    against the largest of the three terms at each point, so an exact solution
    with large cancelling terms still scores near zero.
    """
    h, s_in, w0, w1, w2 = _stencil("w_values", w_values, float, grid)
    r, sigma = params.r, params.sigma
    d1 = (w2 - w0) / (2.0 * h)
    d2 = (w2 - 2.0 * w1 + w0) / (h * h)
    term_diff = 0.5 * sigma * sigma * s_in * s_in * d2
    term_drift = r * s_in * d1
    term_disc = r * w1
    residual = term_diff + term_drift - term_disc
    return _relative_residual(residual, term_diff, term_drift, term_disc)


def schrodinger_form_residual(
    psi_values: Sequence[complex] | np.ndarray,
    params: MarketParams,
    lam: float,
    grid: Sequence[float] | np.ndarray,
    include_potential: bool = True,
) -> float:
    """Max relative central-difference residual of the stationary band equation.

        -(sigma^4 / (r (sigma^2 + r))) psi'' + V(S) psi = lam psi

    with V(S) = 1/S^2. ``include_potential=False`` drops the V term, which is
    the free-oscillation form used for the far side of the wall where the
    transmitted wave is defined.
    """
    h, s_in, p0, p1, p2 = _stencil("psi_values", psi_values, complex, grid)
    r, sigma = params.r, params.sigma
    coeff = sigma**4 / (r * (sigma * sigma + r))
    d2 = (p2 - 2.0 * p1 + p0) / (h * h)
    term_kin = -coeff * d2
    term_pot = (1.0 / (s_in * s_in)) * p1 if include_potential else np.zeros_like(p1)
    term_eig = lam * p1
    residual = term_kin + term_pot - term_eig
    return _relative_residual(residual, term_kin, term_pot, term_eig)
