"""Independent oracles: adaptive quadrature and finite-difference residuals."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rangetunnel import numerics
from rangetunnel.numerics import (
    QuadratureConfig,
    QuadratureConvergenceError,
    adaptive_simpson,
    adaptive_simpson_batch,
    merton_ode_residual,
    quad_barrier_integral,
    quad_barrier_integrals,
    schrodinger_form_residual,
)
from rangetunnel.barrier import barrier_integral_closed, exit_price, lambda_of, wkb_prefactor
from rangetunnel.types import MarketParams, RangeBound
from rangetunnel.validate import SWEEP_QUADRATURE, _draw_points, quadrature_sweep
from rangetunnel.wavefunction import w_from_psi

# the tolerances of the validate sweep and of acceptance c05
SWEEP_CFG = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12, max_depth=60)


def count_evals(monkeypatch, cap=math.inf):
    """Count integrand evaluations made through numerics.adaptive_simpson_batch.

    Every integral in the package goes through that integrator, one array of
    abscissas per call of its integrand, so the counter adds each array's
    size; it also counts the integrator's calls. Past ``cap`` evaluations it
    raises, so a runaway integration fails at once instead of hanging the
    suite. The spy forwards every other argument as it comes.
    """
    counter = {"evals": 0, "calls": 0}
    real = numerics.adaptive_simpson_batch

    def counting(f, *args, **kwargs):
        counter["calls"] += 1

        def counted(x, index):
            counter["evals"] += x.size
            if counter["evals"] > cap:
                raise AssertionError(f"more than {cap} integrand evaluations")
            return f(x, index)

        return real(counted, *args, **kwargs)

    monkeypatch.setattr(numerics, "adaptive_simpson_batch", counting)
    return counter


def recursive_simpson(f, a, b, cfg):
    """Reference: the depth-first recursive adaptive Simpson, one scalar call per abscissa.

    This was the package's integrator; the level-by-level one must give the
    same bits, the same error message and the same best estimate.
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


def recursive_quad_barrier_integral(params, band, cfg):
    """Reference: the split-wall integral with scalar integrands and the recursion."""
    lam = params.r / params.sigma
    k_width = band.width
    s1 = math.sqrt(1.0 / lam)
    if s1 <= k_width:
        return 0.0
    mid = max(k_width, 0.5 * s1)

    def substituted(t):
        t2 = t * t
        return 2.0 * t2 * math.sqrt(lam * (2.0 * s1 - t2)) / (s1 - t2)

    return recursive_simpson(lambda s: math.sqrt(1.0 / (s * s) - lam), k_width, mid, cfg) + (
        recursive_simpson(substituted, 0.0, math.sqrt(s1 - mid), cfg)
    )


@st.composite
def integrals(draw):
    """(a, b, scalar f, vectorised f) of one integral, empty for b <= a.

    Polynomials are easy, sqrt|x - c| has a cusp the mesh must chase, and
    1/(x - c) has a pole just left of a; both forms of f do the same float
    operations.
    """
    a = draw(st.floats(-2.0, 2.0))
    empty = draw(st.integers(0, 4)) == 0
    b = a + draw(st.sampled_from([0.0, -0.5]) if empty else st.floats(1e-3, 3.0))
    kind = draw(st.sampled_from(["poly", "sqrt", "pole"]))
    if kind == "poly":
        coeffs = draw(st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=6))

        def horner(x):
            acc = 0.0
            for c in coeffs:
                acc = acc * x + c
            return acc

        return a, b, horner, horner
    if kind == "sqrt":
        c = draw(st.floats(-3.0, 3.0))
        return a, b, lambda x: math.sqrt(abs(x - c)), lambda x: np.sqrt(np.abs(x - c))
    c = a - draw(st.floats(1e-6, 1.0))
    return a, b, lambda x: 1.0 / (x - c), lambda x: 1.0 / (x - c)


quadrature_configs = st.builds(
    QuadratureConfig,
    abs_tol=st.floats(1e-14, 1e-6),
    rel_tol=st.floats(1e-14, 1e-6),
    max_depth=st.integers(1, 16) | st.just(60),
)


def run_batch(batch, cfg, buffers=None):
    """adaptive_simpson_batch over the integrals, each with its own vectorised f."""

    def f(x, index):
        index = np.broadcast_to(index, x.shape)
        out = np.empty_like(x)
        for j in np.unique(index):
            at = index == j
            out[at] = batch[j][3](x[at])
        return out

    a = np.array([item[0] for item in batch])
    b = np.array([item[1] for item in batch])
    return adaptive_simpson_batch(f, a, b, cfg, buffers)


def assert_same_outcome(run, reference):
    """run() and reference() give equal values, or raise the same convergence error.

    Returns whether reference() completed.
    """
    try:
        expected = reference()
    except QuadratureConvergenceError as exc:
        with pytest.raises(QuadratureConvergenceError) as excinfo:
            run()
        assert str(excinfo.value) == str(exc)
        assert excinfo.value.best_estimate == exc.best_estimate
        return False
    assert run() == expected
    return True


def reference_bracket(params, band):
    """atanh(u) - u with u = sqrt(1 - lambda K^2), free of cancellation.

    Small u sums the odd series u^3/3 + u^5/5 + ...; otherwise
    atanh(u) = log((1 + u) / sqrt(lambda K^2)), which stays accurate as u -> 1.
    """
    x = params.r / params.sigma * band.width * band.width
    u = math.sqrt(1.0 - x)
    if u < 0.5:
        return math.fsum(u**k / k for k in range(3, 61, 2))
    return math.log((1.0 + u) / math.sqrt(x)) - u


@pytest.mark.parametrize(
    "kwargs,message",
    [
        ({"abs_tol": 0.0}, "tolerances must be > 0"),
        ({"rel_tol": 0.0}, "tolerances must be > 0"),
        ({"max_depth": 0}, "max_depth must be >= 1"),
    ],
)
def test_quadrature_config_rejects(kwargs, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        QuadratureConfig(**kwargs)


class TestAdaptiveSimpson:
    def test_polynomial_exact(self):
        cfg = QuadratureConfig()
        assert adaptive_simpson(lambda x: x**2, 0.0, 3.0, cfg) == pytest.approx(9.0, rel=1e-12)

    def test_empty_interval(self):
        assert adaptive_simpson(lambda x: x, 1.0, 1.0, QuadratureConfig()) == 0.0

    def test_sqrt_singularity_handled(self):
        cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12, max_depth=60)
        value = adaptive_simpson(lambda x: math.sqrt(1.0 - x), 0.0, 1.0 - 1e-12, cfg)
        assert value == pytest.approx(2.0 / 3.0, rel=1e-9)

    def test_depth_exhaustion_carries_best_estimate(self):
        cfg = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-15, max_depth=2)
        with pytest.raises(QuadratureConvergenceError) as excinfo:
            adaptive_simpson(lambda x: math.sqrt(abs(x - 0.3)), 0.0, 1.0, cfg)
        assert math.isfinite(excinfo.value.best_estimate)

    @settings(max_examples=300, deadline=None)
    @given(integral=integrals(), cfg=quadrature_configs)
    def test_scalar_equals_recursion(self, integral, cfg):
        # one call of f per abscissa: as many calls as the recursion makes
        a, b, f, _ = integral
        abscissas = {"level": [], "recursive": []}

        def recording(key):
            def g(x):
                abscissas[key].append(x)
                return f(x)

            return g

        completed = assert_same_outcome(
            lambda: adaptive_simpson(recording("level"), a, b, cfg),
            lambda: recursive_simpson(recording("recursive"), a, b, cfg),
        )
        if completed:
            assert sorted(abscissas["level"]) == sorted(abscissas["recursive"])

    @settings(max_examples=200, deadline=None)
    @given(batch=st.lists(integrals(), min_size=1, max_size=6), cfg=quadrature_configs)
    def test_batch_equals_recursion(self, batch, cfg):
        # the buffers of an earlier batch, reused, must carry nothing into this one
        buffers = numerics._Buffers()
        try:
            run_batch(batch[::-1] + batch, cfg, buffers)
        except QuadratureConvergenceError:
            pass
        assert_same_outcome(
            lambda: run_batch(batch, cfg, buffers).tolist(),
            lambda: [recursive_simpson(f, a, b, cfg) for a, b, f, _ in batch],
        )

    def test_batch_exhaustion_names_first_failure(self):
        # the second and third integrals fail, the third further left; the
        # recursion, integral by integral, meets the second's failure first
        def cusp(c):
            return lambda x: math.sqrt(abs(x - c)), lambda x: np.sqrt(np.abs(x - c))

        square = (lambda x: x * x, lambda x: x * x)
        batch = [(0.0, 1.0, *square), (0.0, 1.0, *cusp(0.7)), (0.0, 1.0, *cusp(0.3)), (1.0, 0.0, *cusp(0.5))]
        cfg = QuadratureConfig(abs_tol=1e-4, rel_tol=1e-4, max_depth=3)
        with pytest.raises(QuadratureConvergenceError) as expected:
            [recursive_simpson(f, a, b, cfg) for a, b, f, _ in batch]
        with pytest.raises(QuadratureConvergenceError) as got:
            run_batch(batch, cfg)
        assert str(got.value) == str(expected.value) == "max_depth exhausted on [0.625, 0.75]"
        assert got.value.best_estimate == expected.value.best_estimate


class TestBarrierQuadrature:
    def test_matches_closed_form_rate_sweep_case(self):
        params = MarketParams(r=0.03, sigma=0.53)
        band = RangeBound.from_width(2.40)
        quad = quad_barrier_integral(params, band)
        closed = barrier_integral_closed(params, band)
        assert abs(quad - closed) / closed <= 1e-9
        assert quad == pytest.approx(0.3387785, abs=1e-6)

    def test_matches_closed_form_narrow_wall(self):
        params = MarketParams(r=0.03, sigma=0.47)
        band = RangeBound.from_width(3.9)
        quad = quad_barrier_integral(params, band)
        closed = barrier_integral_closed(params, band)
        assert abs(quad - closed) / closed <= 1e-9
        assert quad == pytest.approx(0.0016885, abs=1e-7)
        # this value closes the loop on the narrow-wall golden T
        pf = wkb_prefactor(params)
        assert math.exp(-2 * pf * quad) == pytest.approx(0.998675, abs=1e-6)

    def test_degenerate_zero_width(self):
        params = MarketParams(r=0.03, sigma=0.47)
        band = RangeBound.from_width(exit_price(params))
        assert quad_barrier_integral(params, band) == 0.0

    def test_beyond_wall_rejected(self):
        with pytest.raises(ValueError):
            quad_barrier_integral(MarketParams(r=0.2, sigma=0.2), RangeBound.from_width(2.0))

    def test_halving_tolerance_stability(self):
        params = MarketParams(r=0.02, sigma=0.61)
        band = RangeBound.from_width(3.0)
        eps = 1e-8
        coarse = quad_barrier_integral(params, band, QuadratureConfig(abs_tol=eps, rel_tol=eps))
        fine = quad_barrier_integral(
            params, band, QuadratureConfig(abs_tol=eps / 10, rel_tol=eps / 10)
        )
        assert abs(coarse - fine) <= 10 * eps

    @pytest.mark.parametrize("lam_k2", [1e-12, 1e-8, 1e-4, 1 - 1e-4])
    def test_edge_regimes_match_reference(self, monkeypatch, lam_k2):
        params = MarketParams(r=0.03, sigma=0.47)
        band = RangeBound.from_width(math.sqrt(lam_k2 / lambda_of(params)))
        count_evals(monkeypatch, cap=20_000)
        quad = quad_barrier_integral(params, band, SWEEP_CFG)
        ref = reference_bracket(params, band)
        assert abs(quad - ref) / ref <= 1e-9

    def test_sweep_evaluation_budget(self, monkeypatch):
        # the endpoint-graded integrand of the old oracle took about 5000 per point
        counter = count_evals(monkeypatch)
        points = 1000
        quadrature_sweep(4, points)
        assert counter["evals"] / points < 2000

    def test_sweep_batch_calls_and_evaluations(self, monkeypatch):
        # all [K, mid] parts in one batch call, the [mid, S1] parts in 16 blocks
        # of at most 64 points
        counter = count_evals(monkeypatch)
        quadrature_sweep(4, 1000)
        assert counter == {"calls": 17, "evals": 1_064_287}

    def test_integrand_gets_columns_and_one_index_per_column(self, monkeypatch):
        # x is (k, m) and index (m,), so each integrand gathers a point's
        # parameters once per interval, not once per abscissa
        shapes = []
        real = numerics.adaptive_simpson_batch

        def recording(f, *args, **kwargs):
            def spied(x, index):
                shapes.append((x.shape, index.shape))
                return f(x, index)

            return real(spied, *args, **kwargs)

        monkeypatch.setattr(numerics, "adaptive_simpson_batch", recording)
        quadrature_sweep(4, 100)
        assert shapes
        assert all(len(x) == 2 and index == x[1:] for x, index in shapes), set(shapes)

    def test_sweep_values_equal_one_point_calls(self):
        # 100 points span a full block and a partial one
        r, sigma, width, quads = quadrature_sweep(4, 100)
        draws = [
            (MarketParams(r=a, sigma=b), RangeBound.from_width(k))
            for a, b, k in zip(r.tolist(), sigma.tolist(), width.tolist())
        ]
        cfg = SWEEP_QUADRATURE
        values = quads.tolist()
        assert values == [quad_barrier_integral(params, band, cfg) for params, band in draws]
        assert values == [recursive_quad_barrier_integral(params, band, cfg) for params, band in draws]

    def test_block_edges_have_one_point_bits(self):
        # the first and last points of the [mid, S1] blocks, and the one-point tail
        r, sigma, width = _draw_points(np.random.default_rng(4), 1000)
        quads = quad_barrier_integrals(r / sigma, width, SWEEP_QUADRATURE)
        for j in (0, 63, 64, 65, 128, 999):
            params = MarketParams(r=float(r[j]), sigma=float(sigma[j]))
            band = RangeBound.from_width(float(width[j]))
            assert float(quads[j]) == quad_barrier_integral(params, band, SWEEP_QUADRATURE), j
            assert float(quads[j]) == recursive_quad_barrier_integral(params, band, SWEEP_QUADRATURE), j

    def test_reused_buffers_carry_no_state(self):
        # every batch and level reuses one call's buffers: a point's value must
        # not depend on its block, its place in it, or the points integrated
        # before it, in this call or in an earlier one
        r, sigma, width = _draw_points(np.random.default_rng(4), 1000)
        lam = r / sigma
        fresh = quad_barrier_integrals(lam[:65], width[:65], SWEEP_QUADRATURE).tobytes()
        quads = quad_barrier_integrals(lam, width, SWEEP_QUADRATURE)
        reversed_order = np.arange(999, -1, -1)
        shifted = np.roll(np.arange(1000), 32)  # every point changes block or place
        for order in (reversed_order, shifted, np.random.default_rng(0).permutation(1000)):
            moved = quad_barrier_integrals(lam[order], width[order], SWEEP_QUADRATURE)
            assert moved.tobytes() == quads[order].tobytes()
        assert quad_barrier_integrals(lam[:65], width[:65], SWEEP_QUADRATURE).tobytes() == fresh

    def test_sweep_memory_peak(self):
        # blocks of 64 points bound the level buffers: the default sweep peaks
        # at about 3.5 MB, and all 1000 points in one batch at about 60 MB
        tracemalloc.start()
        try:
            quadrature_sweep(4, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6_000_000

    def test_integrand_never_evaluated_at_exit(self):
        params = MarketParams(r=0.03, sigma=0.47)
        band = RangeBound.from_width(3.9)
        s1 = exit_price(params)
        seen = []

        def spying_integrand(s):
            seen.append(s)
            gap = 1.0 / (s * s) - lambda_of(params)
            return math.sqrt(gap) if gap > 0 else 0.0

        cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12, max_depth=60)
        delta = 1e-12 * (s1 - band.width)
        adaptive_simpson(spying_integrand, band.width, s1 - delta, cfg)
        assert max(seen) < s1


def stacked_relative_residual(residual, *term_magnitudes):
    """Reference: the scale stacked for np.maximum.reduce, then residual and scale masked apart."""
    scale = np.maximum.reduce([np.abs(t) for t in term_magnitudes])
    mask = scale > 0
    if not np.any(mask):
        return 0.0
    return float(np.max(np.abs(residual[mask]) / scale[mask]))


residual_values = st.sampled_from([0.0, -0.0, math.nan]) | st.floats(width=64)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_relative_residual_equals_stacked_reference(data):
    # complex arrays stand for the band equation's terms, which the reference
    # got as magnitudes
    n = data.draw(st.integers(1, 12))
    complex_terms = data.draw(st.booleans())

    def draw_array():
        values = np.array(data.draw(st.lists(residual_values, min_size=n, max_size=n)))
        if complex_terms:
            values = values.astype(complex)
            values.imag = data.draw(st.lists(residual_values, min_size=n, max_size=n))
        return values

    residual = draw_array()
    terms = [draw_array() for _ in range(data.draw(st.integers(1, 3)))]
    with np.errstate(all="ignore"):
        got = numerics._relative_residual(residual, *terms)
        expected = stacked_relative_residual(residual, *(np.abs(t) for t in terms))
    assert got == expected or (math.isnan(got) and math.isnan(expected)), (got, expected)


@pytest.mark.parametrize(
    "grid",
    [
        np.linspace(0.5, 10.0, 10_000),
        np.linspace(1.0, 2.0, 5) + np.array([0.0, 0.0, 1e-10, 0.0, 0.0]),
        np.linspace(1.0, 2.0, 5) + np.array([0.0, 0.0, 1e-8, 0.0, 0.0]),
        np.array([1.0, 2.0, 3.0, np.nan, 5.0]),
        np.array([1.0, 2.0, 3.0, 4.0, np.inf]),
    ],
)
def test_grid_spacing_rule_is_allclose(grid):
    steps = np.diff(grid)
    with np.errstate(invalid="ignore"):
        uniform = np.allclose(steps, steps[0], rtol=1e-9, atol=0.0)
    if uniform:
        assert numerics._check_grid(grid) == steps[0]
    else:
        with pytest.raises(ValueError):
            numerics._check_grid(grid)


class TestMertonResidual:
    GRID = np.linspace(0.5, 10.0, 10_000)

    def test_zero_solution(self):
        params = MarketParams(r=0.03, sigma=0.53)
        assert merton_ode_residual(np.zeros_like(self.GRID), params, self.GRID) == 0.0

    def test_power_solution_image(self):
        params = MarketParams(r=0.03, sigma=0.53)
        pf2 = wkb_prefactor(params) ** 2
        alpha = 0.5 * (1 + math.sqrt(1 + 4 * pf2))
        psi = self.GRID**alpha
        w = np.array([w_from_psi(p, s, params).real for p, s in zip(psi, self.GRID)])
        residual = merton_ode_residual(w, params, self.GRID)
        assert residual <= 1e-6

    def test_negative_control_quadratic(self):
        # w = S^2 is not a solution: residual = (sigma^2 + r) S^2
        params = MarketParams(r=0.03, sigma=0.53)
        residual = merton_ode_residual(self.GRID**2, params, self.GRID)
        assert residual > 1e-3

    def test_grid_validation(self):
        params = MarketParams(r=0.03, sigma=0.53)
        with pytest.raises(ValueError):
            merton_ode_residual([1.0, 2.0, 3.0], params, [1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            merton_ode_residual(
                [1.0] * 6, params, [1.0, 2.0, 3.0, 5.0, 6.0, 7.0]
            )
        with pytest.raises(ValueError):
            merton_ode_residual([1.0] * 5, params, [-1.0, 0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError):
            merton_ode_residual([1.0] * 4, params, [1.0, 2.0, 3.0, 4.0, 5.0])


class TestBandEquationResidual:
    def test_transmitted_wave_free_form(self):
        params = MarketParams(r=0.03, sigma=0.53)
        lam = lambda_of(params)
        k = wkb_prefactor(params) * math.sqrt(lam)
        s1 = exit_price(params)
        grid = np.linspace(s1, 2 * s1, 10_000)
        psi = np.exp(1j * k * grid)
        residual = schrodinger_form_residual(psi, params, lam, grid, include_potential=False)
        assert residual <= 1e-6

    def test_zero_solution(self):
        params = MarketParams(r=0.03, sigma=0.53)
        grid = np.linspace(0.5, 10.0, 1000)
        assert schrodinger_form_residual(np.zeros_like(grid), params, 0.1, grid) == 0.0

    def test_power_solution_zero_eigenvalue(self):
        params = MarketParams(r=0.03, sigma=0.53)
        pf2 = wkb_prefactor(params) ** 2
        alpha = 0.5 * (1 + math.sqrt(1 + 4 * pf2))
        grid = np.linspace(0.5, 10.0, 10_000)
        residual = schrodinger_form_residual(grid**alpha, params, 0.0, grid)
        assert residual <= 1e-6

    def test_non_solution_detected(self):
        params = MarketParams(r=0.03, sigma=0.53)
        grid = np.linspace(0.5, 10.0, 1000)
        residual = schrodinger_form_residual(np.sin(grid), params, lambda_of(params), grid)
        assert residual > 1e-3
