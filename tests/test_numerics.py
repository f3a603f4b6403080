"""Independent oracles: adaptive quadrature and finite-difference residuals."""

import math

import numpy as np
import pytest

from rangetunnel import numerics
from rangetunnel.numerics import (
    QuadratureConfig,
    QuadratureConvergenceError,
    adaptive_simpson,
    merton_ode_residual,
    quad_barrier_integral,
    schrodinger_form_residual,
)
from rangetunnel.barrier import barrier_integral_closed, exit_price, lambda_of, wkb_prefactor
from rangetunnel.types import MarketParams, RangeBound
from rangetunnel.validate import _draw_params
from rangetunnel.wavefunction import w_from_psi

# the tolerances of the validate sweep and of acceptance c05
SWEEP_CFG = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12, max_depth=60)


def count_evals(monkeypatch, cap=math.inf):
    """Count integrand evaluations made through numerics.adaptive_simpson.

    Past ``cap`` evaluations the counter raises, so a runaway integration
    fails at once instead of hanging the suite.
    """
    counter = {"evals": 0}
    real = numerics.adaptive_simpson

    def counting(f, a, b, cfg):
        def counted(x):
            counter["evals"] += 1
            if counter["evals"] > cap:
                raise AssertionError(f"more than {cap} integrand evaluations")
            return f(x)

        return real(counted, a, b, cfg)

    monkeypatch.setattr(numerics, "adaptive_simpson", counting)
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
        rng = np.random.default_rng(4)
        points = 1000
        for _ in range(points):
            quad_barrier_integral(*_draw_params(rng), SWEEP_CFG)
        assert counter["evals"] / points < 2000

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


class TestMertonResidual:
    GRID = np.linspace(0.5, 10.0, 10_000)

    def test_zero_solution(self):
        params = MarketParams(r=0.03, sigma=0.53)
        report = merton_ode_residual(np.zeros_like(self.GRID), params, self.GRID)
        assert report.max_abs_residual == 0.0
        assert report.max_rel_residual == 0.0

    def test_power_solution_image(self):
        params = MarketParams(r=0.03, sigma=0.53)
        pf2 = wkb_prefactor(params) ** 2
        alpha = 0.5 * (1 + math.sqrt(1 + 4 * pf2))
        psi = self.GRID**alpha
        w = np.array([w_from_psi(p, s, params).real for p, s in zip(psi, self.GRID)])
        report = merton_ode_residual(w, params, self.GRID)
        assert report.max_rel_residual <= 1e-6

    def test_negative_control_quadratic(self):
        # w = S^2 is not a solution: residual = (sigma^2 + r) S^2
        params = MarketParams(r=0.03, sigma=0.53)
        report = merton_ode_residual(self.GRID**2, params, self.GRID)
        assert report.max_rel_residual > 1e-3

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
        report = schrodinger_form_residual(psi, params, lam, grid, include_potential=False)
        assert report.max_rel_residual <= 1e-6

    def test_zero_solution(self):
        params = MarketParams(r=0.03, sigma=0.53)
        grid = np.linspace(0.5, 10.0, 1000)
        report = schrodinger_form_residual(np.zeros_like(grid), params, 0.1, grid)
        assert report.max_abs_residual == 0.0
        assert report.max_rel_residual == 0.0

    def test_power_solution_zero_eigenvalue(self):
        params = MarketParams(r=0.03, sigma=0.53)
        pf2 = wkb_prefactor(params) ** 2
        alpha = 0.5 * (1 + math.sqrt(1 + 4 * pf2))
        grid = np.linspace(0.5, 10.0, 10_000)
        report = schrodinger_form_residual(grid**alpha, params, 0.0, grid)
        assert report.max_rel_residual <= 1e-6

    def test_non_solution_detected(self):
        params = MarketParams(r=0.03, sigma=0.53)
        grid = np.linspace(0.5, 10.0, 1000)
        report = schrodinger_form_residual(np.sin(grid), params, lambda_of(params), grid)
        assert report.max_rel_residual > 1e-3
