"""Independent oracles: quadrature and finite-difference residuals."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rangetunnel import numerics
from rangetunnel.numerics import (
    QuadratureConfig,
    QuadratureConvergenceError,
    adaptive_simpson,
    merton_ode_residual,
    quad_barrier_integral,
    quad_barrier_integrals,
    schrodinger_form_residual,
)
from rangetunnel.barrier import barrier_integral_closed, exit_price, lambda_of, wkb_prefactor
from rangetunnel.types import MarketParams, RangeBound
from rangetunnel.validate import _draw_points, quadrature_sweep
from rangetunnel.wavefunction import w_from_psi


def count_evals(monkeypatch, cap=math.inf):
    """Count integrand evaluations made through numerics._gauss_legendre.

    Every barrier integral goes through that rule, one array of abscissas per
    call of its integrand, so the counter adds each array's size; it also
    counts the rule's calls. Past ``cap`` evaluations it raises, so a runaway
    integration fails at once instead of hanging the suite. The spy forwards
    every other argument as it comes.
    """
    counter = {"evals": 0, "calls": 0}
    real = numerics._gauss_legendre

    def counting(f, *args, **kwargs):
        counter["calls"] += 1

        def counted(x, *columns):
            counter["evals"] += x.size
            if counter["evals"] > cap:
                raise AssertionError(f"more than {cap} integrand evaluations")
            return f(x, *columns)

        return real(counted, *args, **kwargs)

    monkeypatch.setattr(numerics, "_gauss_legendre", counting)
    return counter


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


def integrate_rule(f, a, b, params=()):
    """numerics._gauss_legendre over the intervals [a[j], b[j]], as float arrays."""
    return numerics._gauss_legendre(f, np.array(a, dtype=float), np.array(b, dtype=float), params)


def barrier_imports(source):
    """The modules that the import statements of ``source`` take from ``barrier``, relative or absolute."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names if "barrier" in alias.name.split(".")]
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if "barrier" in module.split(".") or any(alias.name == "barrier" for alias in node.names):
                found.append(module)
    return found


@pytest.mark.parametrize(
    "source",
    [
        "from .barrier import lambda_of",
        "from . import barrier",
        "from . import types, barrier as b",
        "from rangetunnel.barrier import lambda_of",
        "from rangetunnel import barrier",
        "import rangetunnel.barrier",
        "import rangetunnel.barrier as b",
        "if True: from .barrier import _integral_closed",
    ],
)
def test_barrier_imports_sees_every_form(source):
    assert barrier_imports(source)


def test_oracle_imports_nothing_from_barrier():
    # numerics is the independent judge of the closed forms: sharing code would make it agree by construction
    source = Path(numerics.__file__).read_text(encoding="utf-8")
    assert barrier_imports("from .types import MarketParams\nimport math") == []
    assert barrier_imports(source) == []


class TestGaussLegendre:
    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
    def test_exact_on_monomials_up_to_degree_2n_minus_1(self, n):
        # x^k over [0, 1] is 1 / (k + 1); the rule's nodes are on [-1, 1]
        nodes, weights = numerics._legendre_nodes(n)
        for k in range(2 * n):
            got = math.fsum(weights * ((nodes + 1.0) / 2.0) ** k) / 2.0
            assert got == pytest.approx(1.0 / (k + 1), rel=2e-14, abs=1e-300), k

    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128, 256])
    def test_nodes_symmetric_and_weights_sum_to_two(self, n):
        nodes, weights = numerics._legendre_nodes(n)
        assert nodes.shape == weights.shape == (n,)
        assert np.all(np.diff(nodes) > 0) and -1.0 < nodes[0] and nodes[-1] < 1.0
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        assert math.fsum(weights) == pytest.approx(2.0, abs=4 * np.finfo(float).eps)

    @pytest.mark.parametrize("n", [8, 16, 32, 64])
    def test_nodes_and_weights_match_leggauss(self, n):
        # leggauss's own weights are off by up to 2.3e-15 at n = 64 against a
        # 40-digit reference, where these are within 1.1e-16
        nodes, weights = numerics._legendre_nodes(n)
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
        assert np.max(np.abs(nodes - ref_nodes)) <= 2 * np.finfo(float).eps
        assert np.max(np.abs(weights - ref_weights)) <= 4e-15

    def test_nodes_are_cached_and_read_only(self):
        nodes, weights = numerics._legendre_nodes(16)
        assert numerics._legendre_nodes(16)[0] is nodes
        with pytest.raises(ValueError):
            weights[0] = 0.0

    def test_each_interval_keeps_its_own_value(self):
        # an easy and a hard integrand side by side, and an empty interval: the
        # pole of 1 / (c + x^2) near 0 takes many more nodes at c = 1e-3
        def f(x, c):
            return 1.0 / (c + x * x)

        a, b, c = [0.0, 0.0, 1.0], [1.0, 1.0, 1.0], np.array([1.0, 1e-3, 1.0])
        values = integrate_rule(f, a, b, (c,))
        exact = [math.atan(1.0 / math.sqrt(v)) / math.sqrt(v) for v in c[:2].tolist()]
        assert values[:2] == pytest.approx(exact, rel=1e-12)
        assert values[2] == 0.0
        for j in range(3):
            assert integrate_rule(f, a[j : j + 1], b[j : j + 1], (c[j : j + 1],))[0] == values[j]

    def test_empty_intervals_are_never_evaluated(self):
        def f(x):
            raise AssertionError("evaluated")

        assert integrate_rule(f, [1.0, 2.0, 0.0], [1.0, 1.0, -0.0]).tolist() == [0.0, 0.0, 0.0]

    def test_nan_bound_fails_to_converge(self):
        with pytest.raises(QuadratureConvergenceError, match=r"^no convergence on \[0, nan\] at 1024 nodes$"):
            integrate_rule(lambda x: x, [0.0], [math.nan])

    def test_exhaustion_raises_with_best_estimate(self):
        # a cusp converges slowly: at QUAD_MAX_NODES = 1 024 nodes the rule gives up
        assert numerics.QUAD_MAX_NODES == 1024
        with pytest.raises(QuadratureConvergenceError) as excinfo:
            integrate_rule(lambda x: np.sqrt(np.abs(x - 0.3)), [0.0, 0.0], [1.0, 2.0])
        assert str(excinfo.value) == "no convergence on [0, 1] at 1024 nodes"
        assert math.isfinite(excinfo.value.best_estimate)
        exact = 2.0 / 3.0 * (0.3**1.5 + 0.7**1.5)
        assert excinfo.value.best_estimate == pytest.approx(exact, rel=1e-2)


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

    @pytest.mark.parametrize("lam_k2", [1e-300, 1e-100, 1e-30, 1e-12, 1e-8, 1e-4, 1 - 1e-4])
    def test_edge_regimes_match_reference(self, monkeypatch, lam_k2):
        # K -> 0 is what the log substitution of the inner part is for
        params = MarketParams(r=0.03, sigma=0.47)
        band = RangeBound.from_width(math.sqrt(lam_k2 / lambda_of(params)))
        count_evals(monkeypatch, cap=20_000)
        quad = quad_barrier_integral(params, band)
        ref = reference_bracket(params, band)
        assert abs(quad - ref) / ref <= 1e-9

    def test_zero_width_and_half_wall_edges_raise_no_warning(self):
        # K at S1 and its float neighbours, where the inner part is empty, and
        # at S1/2 and just below, where it is empty or nearly so
        lams = 10.0 ** np.random.default_rng(0).uniform(-6.0, 6.0, 2000)
        with np.errstate(all="raise"):
            for lam in lams.tolist():
                s1 = math.sqrt(1.0 / lam)
                for k in (s1, math.nextafter(s1, 0.0), math.nextafter(s1, math.inf), 0.5 * s1,
                          math.nextafter(0.5 * s1, 0.0)):
                    try:
                        value = quad_barrier_integrals(np.array([lam]), np.array([k]))
                    except ValueError as exc:
                        assert str(exc) == "no wall to integrate over: lambda*K^2 > 1"
                        continue
                    assert math.isfinite(value[0]) and value[0] >= 0.0, (lam, k)

    def test_sweep_evaluation_budget(self, monkeypatch):
        # the endpoint-graded integrand of an earlier oracle took about 5000 per point
        counter = count_evals(monkeypatch)
        points = 1000
        quadrature_sweep(4, points)
        assert counter["evals"] / points < 2000

    def test_sweep_values_equal_one_point_calls(self):
        r, sigma, width, quads = quadrature_sweep(4, 100)
        draws = [
            (MarketParams(r=a, sigma=b), RangeBound.from_width(k))
            for a, b, k in zip(r.tolist(), sigma.tolist(), width.tolist())
        ]
        values = quads.tolist()
        assert values == [quad_barrier_integral(params, band) for params, band in draws]

    def test_reused_buffers_carry_no_state(self):
        # every call shares the cached node arrays: a point's value must not
        # depend on its place in the batch, on the points integrated beside
        # it, or on an earlier call
        r, sigma, width = _draw_points(np.random.default_rng(4), 1000)
        lam = r / sigma
        fresh = quad_barrier_integrals(lam[:65], width[:65]).tobytes()
        quads = quad_barrier_integrals(lam, width)
        reversed_order = np.arange(999, -1, -1)
        shifted = np.roll(np.arange(1000), 32)
        for order in (reversed_order, shifted, np.random.default_rng(0).permutation(1000)):
            moved = quad_barrier_integrals(lam[order], width[order])
            assert moved.tobytes() == quads[order].tobytes()
        assert quad_barrier_integrals(lam[:65], width[:65]).tobytes() == fresh

    def test_sweep_memory_peak(self):
        # the rule holds a few (points, n) arrays at a time: the default sweep
        # peaks at about 1 MB traced
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
    mask = scale != 0
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


RESIDUAL_PARAMS = MarketParams(r=0.03, sigma=0.53)
RESIDUAL_GRID = np.linspace(0.5, 10.0, 1000)
EVALUATORS = {
    "w_values": lambda values, grid: merton_ode_residual(values, RESIDUAL_PARAMS, grid),
    "psi_values": lambda values, grid: schrodinger_form_residual(values, RESIDUAL_PARAMS, 0.0, grid),
}


@pytest.mark.parametrize("name", EVALUATORS)
@pytest.mark.parametrize("point", [0, 1, 500, 998, 999])
def test_one_nan_solution_value_gives_nan(name, point):
    # every grid point enters the stencil of an interior point, the two ends included, and a
    # point is left out only when all its terms are 0, so no NaN value can read as exact
    values = RESIDUAL_GRID.copy()  # w = S, an exact solution of the pricing ODE
    assert math.isfinite(EVALUATORS[name](values, RESIDUAL_GRID))
    values[point] = math.nan
    assert math.isnan(EVALUATORS[name](values, RESIDUAL_GRID))


@pytest.mark.parametrize("name", EVALUATORS)
def test_all_nan_solution_gives_nan(name):
    assert math.isnan(EVALUATORS[name](np.full(RESIDUAL_GRID.shape, math.nan), RESIDUAL_GRID))


@pytest.mark.parametrize("name", EVALUATORS)
def test_infinite_solution_value_gives_nan(name):
    # inf - inf in the stencil and inf / inf in the ratio warn on the way
    values = RESIDUAL_GRID.copy()
    values[500] = math.inf
    with pytest.warns(RuntimeWarning, match="invalid value"):
        assert math.isnan(EVALUATORS[name](values, RESIDUAL_GRID))


@pytest.mark.parametrize("name", EVALUATORS)
@pytest.mark.parametrize("size", [4, 6])
def test_length_mismatch_names_the_solution(name, size):
    with pytest.raises(ValueError, match=f"^{name} and grid must have the same length$"):
        EVALUATORS[name]([1.0] * size, [1.0, 2.0, 3.0, 4.0, 5.0])
