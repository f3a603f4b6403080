"""Core barrier math: frozen anchor values plus algebraic property tests.

Derived anchors are frozen from direct evaluation of the defining formulas;
golden anchors come from the published reference cases checked in
test_tables.py at printed precision.
"""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rangetunnel import barrier
from rangetunnel.barrier import (
    barrier_geometry,
    barrier_integral_closed,
    decay_q,
    exit_price,
    lambda_of,
    potential_v,
    transmission_exact,
    transmission_segmented,
    transmission_thin_wall,
    wavenumber_k,
    wkb_prefactor,
)
from rangetunnel.types import MarketParams, RangeBound, Regime
from rangetunnel.validate import DEFAULT_SEED, SEGMENT_LADDER, _draw_points, _pairs

params_st = st.builds(
    MarketParams,
    r=st.floats(min_value=1e-3, max_value=0.5),
    sigma=st.floats(min_value=0.05, max_value=2.0),
)
width_st = st.floats(min_value=0.1, max_value=20.0)


class TestPotential:
    def test_unit_point(self):
        assert potential_v(1.0) == 1.0

    def test_wall_entry_value(self):
        assert potential_v(2.40) == pytest.approx(1.0 / 2.40**2, rel=1e-15)
        assert potential_v(2.40) == pytest.approx(0.173611, abs=1e-6)

    def test_monotone_decay_to_zero(self):
        grid = [0.5 * 1.5**i for i in range(30)]
        values = [potential_v(s) for s in grid]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-6

    @pytest.mark.parametrize("s", [0.0, -1.0])
    def test_singular_at_support(self, s):
        with pytest.raises(ValueError):
            potential_v(s)

    @pytest.mark.parametrize("s", [1e-160, 1e-200, 5e-324])
    def test_overflows_to_inf_where_s_squared_underflows(self, s):
        assert potential_v(s) == math.inf


class TestEigenvalue:
    def test_worked_example(self):
        assert lambda_of(MarketParams(r=0.03, sigma=0.47)) == pytest.approx(0.064, abs=5e-4)

    def test_unit_ratio(self):
        assert lambda_of(MarketParams(r=0.05, sigma=0.05)) == 1.0

    def test_exact_ratio(self):
        assert lambda_of(MarketParams(r=0.03, sigma=0.15)) == pytest.approx(0.2, rel=1e-15)


class TestExitPrice:
    def test_worked_example(self):
        s1 = exit_price(MarketParams(r=0.03, sigma=0.47))
        assert s1 == pytest.approx(3.9581140290126392, rel=1e-12)
        assert s1 == pytest.approx(3.95, abs=0.01)

    def test_unit_eigenvalue(self):
        assert exit_price(MarketParams(r=0.2, sigma=0.2)) == pytest.approx(1.0, rel=1e-15)

    def test_rate_sweep_row(self):
        s1 = exit_price(MarketParams(r=0.03, sigma=0.53))
        assert s1 - 2.40 == pytest.approx(1.80, abs=0.01)

    @given(params_st)
    def test_inverse_sqrt_lambda(self, params):
        assert exit_price(params) == pytest.approx(
            1.0 / math.sqrt(lambda_of(params)), rel=1e-12
        )


class TestGeometry:
    def test_worked_example_distance(self):
        geo = barrier_geometry(MarketParams(r=0.03, sigma=0.47), RangeBound.from_width(2.40))
        assert geo.regime is Regime.TUNNELING
        assert geo.width_d == pytest.approx(1.55, abs=0.01)

    def test_narrow_wall_case(self):
        geo = barrier_geometry(MarketParams(r=0.03, sigma=0.47), RangeBound.from_width(3.9))
        assert geo.width_d == pytest.approx(0.058114, abs=1e-6)

    def test_zero_width_boundary(self):
        params = MarketParams(r=0.03, sigma=0.47)
        band = RangeBound.from_width(exit_price(params))
        geo = barrier_geometry(params, band)
        assert geo.width_d == 0.0
        assert transmission_exact(params, band) == 1.0

    def test_no_barrier(self):
        geo = barrier_geometry(MarketParams(r=0.2, sigma=0.2), RangeBound.from_width(2.0))
        assert geo.regime is Regime.NO_BARRIER
        assert geo.width_d == 0.0

    @given(params_st, width_st)
    def test_regime_iff_width(self, params, width):
        geo = barrier_geometry(params, RangeBound.from_width(width))
        assert (geo.width_d > 0) == (geo.regime is Regime.TUNNELING)
        assert geo.lam == lambda_of(params)


class TestRates:
    def test_wavenumber_direct_arithmetic(self):
        params = MarketParams(r=0.03, sigma=0.53)
        pf2 = (0.03 / 0.53**4) * (0.53**2 + 0.03)
        assert pf2 == pytest.approx(0.118206, abs=1e-6)
        lam = 0.03 / 0.53
        assert wavenumber_k(params) == pytest.approx(math.sqrt(pf2 * lam), rel=1e-12)
        assert wavenumber_k(params) == pytest.approx(0.081798, abs=1e-6)

    def test_unit_parameters(self):
        assert wavenumber_k(MarketParams(r=1.0, sigma=1.0)) == pytest.approx(
            math.sqrt(2.0), rel=1e-12
        )

    @given(params_st)
    def test_k_squared_over_lambda_identity(self, params):
        assert wavenumber_k(params) ** 2 / lambda_of(params) == pytest.approx(
            wkb_prefactor(params) ** 2, rel=1e-9
        )

    def test_decay_rate_hand_value(self):
        params = MarketParams(r=0.03, sigma=0.47)
        expected = math.sqrt(
            (0.03 / 0.47**4) * (0.47**2 + 0.03) * (1.0 / 3.9**2 - 0.03 / 0.47)
        )
        assert decay_q(params, 3.9) == pytest.approx(expected, rel=1e-12)
        assert decay_q(params, 3.9) == pytest.approx(0.0171934, abs=1e-6)

    def test_decay_vanishes_at_exit(self):
        params = MarketParams(r=0.03, sigma=0.47)
        s1 = exit_price(params)
        assert decay_q(params, s1 * (1 - 1e-9)) < 1e-3

    def test_decay_undefined_beyond_exit(self):
        # S1 = 3.958: without the check, sqrt of the negative gap raised a bare math domain error
        with pytest.raises(ValueError, match=r"^s=4\.0 lies outside the wall: V\(s\)=0\.0625 <= lambda=0\.0638298$"):
            decay_q(MarketParams(r=0.03, sigma=0.47), 4.0)

    @given(params_st, st.floats(min_value=0.05, max_value=0.95))
    def test_pythagorean_identity(self, params, frac):
        # q(s)^2 + k^2 == P^2 V(s) wherever q is defined
        s = frac * exit_price(params)
        q = decay_q(params, s)
        k = wavenumber_k(params)
        assert q * q + k * k == pytest.approx(
            wkb_prefactor(params) ** 2 * potential_v(s), rel=1e-9
        )


class TestThinWall:
    def test_narrow_wall_value(self):
        params = MarketParams(r=0.03, sigma=0.47)
        band = RangeBound.from_width(3.9)
        q = decay_q(params, 3.9)
        d = exit_price(params) - 3.9
        assert transmission_thin_wall(params, band) == pytest.approx(
            math.exp(-2 * q * d), rel=1e-12
        )
        assert transmission_thin_wall(params, band) == pytest.approx(0.998004, abs=1e-6)

    def test_no_barrier_returns_one(self):
        assert transmission_thin_wall(MarketParams(r=0.2, sigma=0.2), RangeBound.from_width(2.0)) == 1.0

    def test_thicker_wall_smaller_t(self):
        params = MarketParams(r=0.03, sigma=0.47)
        t_values = [
            transmission_thin_wall(params, RangeBound.from_width(k)) for k in (3.9, 3.0, 2.4)
        ]
        assert t_values[0] > t_values[1] > t_values[2]


class TestClosedBracket:
    def test_rate_sweep_anchor(self):
        params = MarketParams(r=0.03, sigma=0.53)
        band = RangeBound.from_width(2.40)
        u = math.sqrt(1 - (0.03 / 0.53) * 2.40**2)
        assert u == pytest.approx(0.820952, abs=1e-6)
        expected = 0.5 * math.log((1 + u) / (1 - u)) - u
        assert barrier_integral_closed(params, band) == pytest.approx(expected, rel=1e-12)
        assert barrier_integral_closed(params, band) == pytest.approx(0.3387785, abs=1e-6)

    def test_vanishes_at_boundary(self):
        # lambda K^2 -> 1 from below drives the bracket to 0
        params = MarketParams(r=0.05, sigma=0.1)  # lambda = 0.5
        band = RangeBound.from_width(math.sqrt(0.999999 / 0.5))
        assert barrier_integral_closed(params, band) < 1e-8

    @pytest.mark.parametrize("width,lam_k2", [(1.0, "1"), (2.0, "4")])
    def test_domain_error_at_or_above_one(self, width, lam_k2):
        # lambda = 1: at lambda*K^2 == 1 exactly the bracket would read 0.0, above 1 a bare math domain error
        with pytest.raises(ValueError, match=f"^no wall to integrate over: lambda\\*K\\^2 = {lam_k2} >= 1$"):
            barrier_integral_closed(MarketParams(r=0.2, sigma=0.2), RangeBound.from_width(width))

    @given(params_st, width_st)
    def test_nonnegative(self, params, width):
        band = RangeBound.from_width(width)
        if lambda_of(params) * width**2 < 1:
            assert barrier_integral_closed(params, band) >= 0.0

    @staticmethod
    def edge_case(lam_k2):
        """A band at about the given lambda*K^2, and that product as the closed form rounds it."""
        params = MarketParams(r=0.03, sigma=0.47)
        lam = lambda_of(params)
        width = math.sqrt(lam_k2 / lam)
        return params, RangeBound.from_width(width), lam * width * width

    @staticmethod
    def reference(lam_k2):
        """atanh(u) - u from the defining log form in 60-digit decimal arithmetic.

        The subtractions cancel at most about 15 of the 60 digits here, which
        leaves the result exact to double precision for the given double
        lambda*K^2.
        """
        with localcontext() as ctx:
            ctx.prec = 60
            u = (1 - Decimal(lam_k2)).sqrt()
            return float(((1 + u) / (1 - u)).ln() / 2 - u)

    @pytest.mark.parametrize("width", [1e-160, 1e-170, 1e-300, 5e-324])
    def test_underflowing_lambda_k2_uses_logs_of_factors(self, width):
        # lambda*K^2 is subnormal or 0; atanh(u) - u with u = 1 is
        # log 2 - log(sqrt(lambda K^2)) - 1
        params = MarketParams(r=0.03, sigma=0.3)
        lam = lambda_of(params)
        assert lam * width * width < sys.float_info.min
        expected = math.log(2.0) - 0.5 * math.log(lam) - math.log(width) - 1.0
        bracket = barrier_integral_closed(params, RangeBound.from_width(width))
        assert bracket == pytest.approx(expected, rel=1e-15)
        assert transmission_exact(params, RangeBound.from_width(width)) < 1e-200

    def test_smallest_normal_lambda_k2_keeps_the_direct_form(self):
        params = MarketParams(r=0.03, sigma=0.3)
        width = math.sqrt(4 * sys.float_info.min / lambda_of(params))
        lam_k2 = lambda_of(params) * width * width
        assert lam_k2 >= sys.float_info.min
        u = math.sqrt(1.0 - lam_k2)
        expected = math.log((1.0 + u) / math.sqrt(lam_k2)) - u
        assert barrier_integral_closed(params, RangeBound.from_width(width)) == expected

    @pytest.mark.parametrize("lam_k2", [1e-14, 1e-12, 1e-8, 1 - 1e-8, 1 - 1e-10])
    def test_accurate_at_regime_edges(self, lam_k2):
        params, band, rounded = self.edge_case(lam_k2)
        expected = self.reference(rounded)
        assert abs(barrier_integral_closed(params, band) - expected) <= 1e-14 * expected

    @given(st.floats(min_value=1e-15, max_value=1 - 1e-12))
    def test_accurate_across_regime(self, lam_k2):
        params, band, rounded = self.edge_case(lam_k2)
        expected = self.reference(rounded)
        assert abs(barrier_integral_closed(params, band) - expected) <= 1e-12 * expected


class TestTransmissionExact:
    @given(params_st, width_st)
    def test_result_fields_consistent(self, params, width):
        # T is exp(-2 P bracket) to the last bit in TUNNELING, and exactly 1 otherwise
        band = RangeBound.from_width(width)
        t = transmission_exact(params, band)
        if barrier_geometry(params, band).regime is Regime.NO_BARRIER:
            assert t == 1.0
        else:
            assert t == math.exp(-2 * wkb_prefactor(params) * barrier_integral_closed(params, band))

    def test_computes_no_approximation(self, monkeypatch):
        def unused(*args):
            raise AssertionError("transmission_exact must not compute an approximation")

        monkeypatch.setattr(barrier, "transmission_thin_wall", unused)
        monkeypatch.setattr(barrier, "transmission_segmented", unused)
        assert transmission_exact(MarketParams(r=0.03, sigma=0.53), RangeBound.from_width(2.40)) > 0

    def test_no_barrier_fills_ones(self):
        params, band = MarketParams(r=0.2, sigma=0.2), RangeBound.from_width(2.0)
        assert transmission_exact(params, band) == transmission_thin_wall(params, band) == 1.0
        assert transmission_segmented(params, band, 64) == 1.0

    @given(params_st, width_st)
    @example(MarketParams(r=0.03, sigma=1e-78), 1e-39)  # P overflows to inf: T is 0.0
    def test_bounded_probability(self, params, width):
        band = RangeBound.from_width(width)
        t = transmission_exact(params, band)
        assert 0.0 <= t <= 1.0
        if barrier_geometry(params, band).regime is Regime.NO_BARRIER:
            assert t == 1.0
        else:
            assert t < 1.0
            if 2.0 * wkb_prefactor(params) * barrier_integral_closed(params, band) < 700.0:
                assert t > 0.0  # positive whenever exp cannot underflow


def segmented_loop(params, band, n):
    """Reference: the segment sum one midpoint at a time, as the package once computed it."""
    geo = barrier_geometry(params, band)
    if geo.regime is Regime.NO_BARRIER:
        return 1.0
    k_width = band.width
    step = geo.width_d / n
    total = 0.0
    for i in range(n):
        mid = k_width + (i + 0.5) * step
        gap = 1.0 / (mid * mid) - geo.lam
        if gap > 0.0:
            total += math.sqrt(gap) * step
    return math.exp(-2.0 * wkb_prefactor(params) * total)


class TestSegmented:
    @settings(max_examples=300, deadline=None)
    @given(
        r=st.floats(0.005, 0.1),
        sigma=st.floats(0.1, 1.0),
        lam_k2=st.floats(0.01, 0.99) | st.floats(1e-12, 1.0),
        n=st.integers(1, 5000),
    )
    def test_equals_one_segment_at_a_time(self, r, sigma, lam_k2, n):
        # the validate sweep's range of points, and the whole regime up to the exit
        params = MarketParams(r=r, sigma=sigma)
        band = RangeBound.from_width(math.sqrt(lam_k2 / lambda_of(params)))
        assert transmission_segmented(params, band, n) == segmented_loop(params, band, n)

    def test_ladder_of_validate_sweep_equals_loop(self):
        for params, band in _pairs(*_draw_points(np.random.default_rng(DEFAULT_SEED), 20)):
            for n in SEGMENT_LADDER:
                assert transmission_segmented(params, band, n) == segmented_loop(params, band, n)

    def test_one_segment_beats_thin_wall(self):
        params = MarketParams(r=0.03, sigma=0.47)
        band = RangeBound.from_width(3.9)
        exact = transmission_exact(params, band)
        seg1 = transmission_segmented(params, band, 1)
        thin = transmission_thin_wall(params, band)
        assert abs(seg1 - exact) < abs(thin - exact)

    def test_large_n_agrees_with_exact(self):
        params = MarketParams(r=0.03, sigma=0.53)
        band = RangeBound.from_width(2.40)
        exact = transmission_exact(params, band)
        assert transmission_segmented(params, band, 10_000) == pytest.approx(exact, abs=1e-6)

    def test_zero_width_all_n(self):
        params = MarketParams(r=0.03, sigma=0.47)
        band = RangeBound.from_width(exit_price(params))
        for n in (1, 7, 100):
            assert transmission_segmented(params, band, n) == 1.0

    def test_zero_segments_rejected(self):
        with pytest.raises(ValueError):
            transmission_segmented(MarketParams(r=0.03, sigma=0.47), RangeBound.from_width(3.9), 0)


class TestMonotonicity:
    def test_rising_rate_raises_t_and_shrinks_wall(self):
        rates = [0.01 * i for i in range(1, 8)]
        t_values, d_values = [], []
        for r in rates:
            params = MarketParams(r=r, sigma=0.53)
            t_values.append(transmission_exact(params, RangeBound.from_width(2.40)))
            d_values.append(exit_price(params) - 2.40)
        assert all(b > a for a, b in zip(t_values, t_values[1:]))
        assert all(b < a for a, b in zip(d_values, d_values[1:]))

    def test_rising_vol_lowers_t_and_widens_wall(self):
        sigmas = [0.43, 0.53, 0.63, 0.73, 0.83, 0.93, 0.97]
        t_values, d_values = [], []
        for sigma in sigmas:
            params = MarketParams(r=0.05, sigma=sigma)
            t_values.append(transmission_exact(params, RangeBound.from_width(2.40)))
            d_values.append(exit_price(params) - 2.40)
        assert all(b < a for a, b in zip(t_values, t_values[1:]))
        assert all(b > a for a, b in zip(d_values, d_values[1:]))
