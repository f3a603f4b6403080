"""Independent numerical cross-checks for the barrier math.

This module deliberately shares no computation with ``barrier``: the wall
integral is evaluated by adaptive Simpson quadrature from scratch, and the two
differential-equation residuals are plain central differences. The
integrator bisects level by level over arrays of intervals from many
integrals at once, so the ``validate`` sweep integrates many points per
numpy pass; each result has the bits of the classic depth-first recursion,
which the tests keep as their reference. Its integrand is called as
``f(x, index)`` with abscissas ``x`` of shape (k, m), one column per interval,
and ``index`` of shape (m,), the integral of each column, which broadcasts
against ``x``. The integrator's level arrays live in flat buffers that one
``quad_barrier_integrals`` call allocates, grows geometrically and reuses at
every level of each of its batches; nothing outlives the call. Fresh arrays
at every level made glibc hand the freed top of its heap back to the OS and
fault it in again: about 9 400 minor page faults per ``validate`` run,
against about 600 with the buffers. Golden tests compare these against the
closed forms; keeping the implementations disjoint is what makes the
comparison meaningful, so nothing here may call
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


# Vectorised integrand of the batched integrator: f(x, index) returns f at
# every abscissa in x, an array of shape (k, m) whose column i belongs to
# integral index[i]; index has shape (m,) and broadcasts against x, so an
# integrand gathers each integral's parameters once per column, not per
# abscissa.
BatchIntegrand = Callable[[np.ndarray, np.ndarray], np.ndarray]


class _Buffers:
    """Named flat buffers that grow geometrically, handed out from the front.

    One instance serves the batches of one caller: each level of each batch
    views the front of the same memory instead of allocating fresh arrays, so
    the heap neither returns pages to the OS between levels nor faults them
    back in. A view is valid until the next ``view`` of the same name.
    """

    def __init__(self) -> None:
        self._flat: dict[str, np.ndarray] = {}

    def view(self, name: str, size: int, dtype: type = float) -> np.ndarray:
        """The first ``size`` elements of buffer ``name``; its contents are undefined."""
        flat = self._flat.get(name)
        if flat is None or flat.size < size:
            grown = 0 if flat is None else 2 * flat.size
            flat = self._flat[name] = np.empty(max(size, grown), dtype)
        return flat[:size]


def _twice(even: np.ndarray, odd: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write the 1-D row even[0], odd[0], even[1], odd[1], ... into out as two strided slices."""
    out[0::2] = even
    out[1::2] = odd
    return out


def _interleave_halves(
    rows: np.ndarray, left_mid: np.ndarray, right_mid: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Write rows x0, mid, x2 (or f there) of both halves of the intervals in ``rows`` into out.

    Column 2k of out is interval k's left half (x0, left mid, mid), column
    2k + 1 its right half (mid, right mid, x2). Each row is written straight
    into its interleaved slices.
    """
    out[0, 0::2] = rows[0]
    out[1, 0::2] = left_mid
    out[2, 0::2] = out[0, 1::2] = rows[1]
    out[1, 1::2] = right_mid
    out[2, 1::2] = rows[2]
    return out


def adaptive_simpson_batch(
    f: BatchIntegrand,
    a: np.ndarray,
    b: np.ndarray,
    cfg: QuadratureConfig,
    buffers: _Buffers | None = None,
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

    The level arrays live in ``buffers``: fresh ones by default, or one
    object that a caller passes to each of its batches so that they share
    the memory. Nothing in them is read before this call writes it.

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
    if buffers is None:
        buffers = _Buffers()
    ids = live
    a, b = a[live], b[live]
    # rows x0, mid, x2 of each live interval, and f at them
    x = np.array((a, 0.5 * (a + b), b))
    fx = f(x, ids)
    fa, fmid, fb = fx
    simpson = (b - a) / 6.0 * (fa + 4.0 * fmid + fb)
    scaled = cfg.rel_tol * np.abs(simpson)
    # max(abs_tol, scaled) as Python's max picks it, so a NaN estimate gets abs_tol
    tol = np.where(scaled > cfg.abs_tol, scaled, cfg.abs_tol)
    levels = []  # per level: each interval's own estimate, and the indices of those split
    for depth in range(cfg.max_depth, -1, -1):
        m = ids.size
        # rows 0 and 1 of mids, halves and weights belong to the left and the
        # right halves; each half's midpoint 0.5 * (x0 + x2) and Simpson
        # estimate (x2 - x0) / 6 * (f0 + 4 fmid + f2) are formed in place, by
        # the same operations in the same order (IEEE + and * commute exactly)
        work = buffers.view("work", 7 * m).reshape(7, m)
        mids, halves, weights, delta = work[0:2], work[2:4], work[4:6], work[6]
        np.add(x[:2], x[1:], out=mids)
        mids *= 0.5
        left_mid, right_mid = mids
        f_mids = f(mids, ids)
        f_lm, f_rm = f_mids
        np.subtract(x[1:], x[:2], out=halves)
        halves /= 6.0
        np.multiply(f_mids, 4.0, out=weights)
        weights += fx[:2]
        weights += fx[1:]
        halves *= weights
        left, right = halves
        estimate = left + right
        np.subtract(estimate, simpson, out=delta)
        # the weights are spent: their rows take delta / 15 and 15 tol
        estimate += np.divide(delta, 15.0, out=weights[0])
        limit = np.multiply(tol, 15.0, out=weights[1])
        # split where not |delta| <= 15 tol, so a NaN delta splits
        split = np.flatnonzero(~(np.abs(delta, out=delta) <= limit))
        levels.append((estimate, split))
        if not split.size:
            break
        if depth <= 0:
            i = int(split[0])
            raise QuadratureConvergenceError(
                f"max_depth exhausted on [{float(x[0, i]):.12g}, {float(x[2, i]):.12g}]",
                best_estimate=float(estimate[i]),
            )
        # the halves of each split interval, left then right, keep tree order.
        # The next level's x and fx rows, Simpson estimates and tol go into
        # interleaved slices of one buffer, which may hold this level's x, fx,
        # simpson and tol: every take copies before that buffer is written.
        # take, not x[:, split]: numpy gathers a slice mixed with an index
        # array by its general path, several times slower.
        x_kept, fx_kept, tol_kept = x.take(split, axis=1), fx.take(split, axis=1), tol.take(split)
        n = 2 * split.size
        rows = buffers.view("rows", 8 * n).reshape(8, n)
        x = _interleave_halves(x_kept, left_mid.take(split), right_mid.take(split), rows[0:3])
        fx = _interleave_halves(fx_kept, f_lm.take(split), f_rm.take(split), rows[3:6])
        simpson = _twice(left.take(split), right.take(split), rows[6])
        tol_kept /= 2.0
        tol = _twice(tol_kept, tol_kept, rows[7])
        kept = ids.take(split)
        ids = _twice(kept, kept, buffers.view("ids", n, np.intp))
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
        return np.array([f(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)

    return float(adaptive_simpson_batch(batch, np.array([a]), np.array([b]), cfg)[0])


# Points whose substituted [mid, S1] parts are integrated together. Those parts
# keep many intervals live per level, and the shared level buffers grow to the
# largest level of any batch: the 1000 points of the validate sweep peak at
# about 3.5 MB traced in blocks of 64, and at about 58 MB all at once, which
# also runs slower. Their [K, mid] parts keep few intervals live and go in one
# batch, where per-level numpy overhead would dominate blocks of 64; that
# batch sets most of the 3.5 MB.
_OUTER_BLOCK = 64


def _substituted(lam: np.ndarray, s1: np.ndarray) -> BatchIntegrand:
    """Integrand of the [mid, S1] parts after s = S1 - t^2, for points with these lam and S1."""

    two_s1 = 2.0 * s1  # exact, so each value keeps the bits of 2.0 * s1[j] formed per call

    def f(t: np.ndarray, j: np.ndarray) -> np.ndarray:
        # 2.0 * t2 * np.sqrt(lam[j] * (2.0 * s1[j] - t2)) / (s1[j] - t2), in place
        t2 = t * t
        root = two_s1[j] - t2
        root *= lam[j]
        np.sqrt(root, out=root)
        value = 2.0 * t2
        value *= root
        np.subtract(s1[j], t2, out=t2)
        value /= t2
        return value

    return f


def quad_barrier_integrals(
    lam: np.ndarray, k_width: np.ndarray, cfg: QuadratureConfig | None = None
) -> np.ndarray:
    """``quad_barrier_integral`` at every point (lam[j], k_width[j]), integrated together.

    ``lam`` holds each point's r / sigma and ``k_width`` its band width K, as
    float arrays of one length. Each value has the bits of the one-point
    call: that call passes one-element arrays, and numpy's +, -, *, / and
    sqrt round every element as correctly as Python's scalar float ones, and
    no interval's arithmetic depends on the others in its batch. The s parts
    of all points form one batch; the t parts go in batches of
    ``_OUTER_BLOCK`` consecutive points, which bounds the memory. Every batch
    reuses one set of level buffers, allocated once per call. On depth
    exhaustion the error comes from the first failing s part, if any, then
    from the first failing t part.
    """
    if cfg is None:
        cfg = QuadratureConfig()
    if np.any(lam * k_width * k_width > 1.0):
        raise ValueError("no wall to integrate over: lambda*K^2 > 1")
    s1 = np.sqrt(1.0 / lam)
    # a zero-width wall (S1 <= K) gets two empty parts: mid = K and t_end = 0
    mid = np.maximum(k_width, 0.5 * s1)
    t_end = np.sqrt(np.maximum(s1 - mid, 0.0))

    def integrand(s: np.ndarray, j: np.ndarray) -> np.ndarray:
        return np.sqrt(1.0 / (s * s) - lam[j])  # >= sqrt(3 lambda) on [K, mid]

    buffers = _Buffers()
    result = adaptive_simpson_batch(integrand, k_width, mid, cfg, buffers)
    for start in range(0, t_end.size, _OUTER_BLOCK):
        block = slice(start, start + _OUTER_BLOCK)
        ends = t_end[block]
        result[block] += adaptive_simpson_batch(
            _substituted(lam[block], s1[block]), np.zeros_like(ends), ends, cfg, buffers
        )
    return result


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
    lam = np.array([params.r / params.sigma])
    return float(quad_barrier_integrals(lam, np.array([band.width]), cfg)[0])


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

    Points where every term is 0 or some term is NaN are left out; with none
    left the result is 0.0. A NaN residual at a kept point gives NaN.
    """
    scale = np.abs(terms[0])
    for term in terms[1:]:
        np.maximum(scale, np.abs(term), out=scale)
    ratio = np.divide(np.abs(residual), scale, out=np.zeros(scale.shape), where=scale > 0)
    return float(np.max(ratio, initial=0.0))


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
    return _relative_residual(residual, term_kin, term_pot, term_eig)
