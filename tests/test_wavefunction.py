"""Region wavefunction construction and the option-value transform."""

import math

import numpy as np
import pytest

from rangetunnel.barrier import decay_q, exit_price, wkb_prefactor
from rangetunnel.types import MarketParams, RangeBound
from rangetunnel.validate import TRANSFORM_GRID_POINTS, TRANSFORM_PAIRS
from rangetunnel.wavefunction import (
    sample_wavefunction,
    thin_wall_amplitudes,
    w_from_psi,
    wavefunction_eval,
)

PARAMS = MarketParams(r=0.03, sigma=0.47)
BAND = RangeBound.from_width(2.40)


@pytest.fixture
def amps():
    return thin_wall_amplitudes(PARAMS, BAND)


class TestAmplitudes:
    def test_transmission_ratio_matches_thin_wall_rule(self, amps):
        q_entry = decay_q(PARAMS, BAND.width)
        d = exit_price(PARAMS) - BAND.width
        assert abs(amps.f) == math.exp(-q_entry * d)

    def test_growing_branch_dropped(self, amps):
        # region II carries only the decaying branch, at the entry decay rate
        assert amps.q_entry == decay_q(PARAMS, BAND.width)

    def test_transmitted_not_larger_than_incident(self, amps):
        assert abs(amps.f) <= 1.0

    def test_no_barrier_rejected(self):
        with pytest.raises(ValueError):
            thin_wall_amplitudes(MarketParams(r=0.2, sigma=0.2), RangeBound.from_width(2.0))

    @pytest.mark.parametrize("width", [1e-160, 1e-300])
    def test_overflowing_entry_rate_rejected(self, width):
        # V(K) = 1/K^2 overflows: the in-wall amplitude would be inf and |psi|^2 NaN
        with pytest.raises(ValueError, match="too close to the support"):
            thin_wall_amplitudes(PARAMS, RangeBound.from_width(width))


class TestEvaluation:
    def test_support_limit_is_sum_of_amplitudes(self, amps):
        # the unit incident wave plus no reflected one
        assert wavefunction_eval(PARAMS, BAND, amps, 0.0) == (1.0, "I")

    def test_region_tags(self, amps):
        s1 = exit_price(PARAMS)
        assert wavefunction_eval(PARAMS, BAND, amps, 0.5 * BAND.width)[1] == "I"
        assert wavefunction_eval(PARAMS, BAND, amps, BAND.width)[1] == "II"
        assert wavefunction_eval(PARAMS, BAND, amps, 0.5 * (BAND.width + s1))[1] == "II"
        assert wavefunction_eval(PARAMS, BAND, amps, s1)[1] == "III"
        assert wavefunction_eval(PARAMS, BAND, amps, 2 * s1)[1] == "III"

    def test_far_side_modulus_constant(self, amps):
        s1 = exit_price(PARAMS)
        for s in (s1, 1.3 * s1, 5.0 * s1):
            value, _ = wavefunction_eval(PARAMS, BAND, amps, s)
            assert abs(value) == pytest.approx(abs(amps.f), rel=1e-12)

    def test_in_wall_modulus_non_increasing(self, amps):
        s1 = exit_price(PARAMS)
        grid = np.linspace(BAND.width, s1 * (1 - 1e-9), 200)
        moduli = [abs(wavefunction_eval(PARAMS, BAND, amps, s)[0]) for s in grid]
        assert all(b <= a for a, b in zip(moduli, moduli[1:]))

    def test_wall_entry_continuous_with_exit_value(self, amps):
        # modulus runs from 1 at the entry down to |f| at the exit
        s1 = exit_price(PARAMS)
        entry, _ = wavefunction_eval(PARAMS, BAND, amps, BAND.width)
        near_exit, _ = wavefunction_eval(PARAMS, BAND, amps, s1 * (1 - 1e-12))
        assert abs(entry) == pytest.approx(1.0, rel=1e-9)
        assert abs(near_exit) == pytest.approx(abs(amps.f), rel=1e-6)

    def test_negative_coordinate_rejected(self, amps):
        with pytest.raises(ValueError):
            wavefunction_eval(PARAMS, BAND, amps, -0.1)


class TestTransform:
    def test_unit_point(self):
        assert w_from_psi(1.0, 1.0, PARAMS) == pytest.approx(1.0, rel=1e-15)

    def test_vanishing_rate_is_identity(self):
        nearly_zero_r = MarketParams(r=1e-12, sigma=0.5)
        for s in (0.5, 2.0, 7.0):
            assert w_from_psi(3.7, s, nearly_zero_r) == pytest.approx(3.7, rel=1e-9)

    def test_power_solution_maps_to_linear(self):
        # alpha(alpha - 1) = P^2 gives alpha = 1 + r/sigma^2, so the image
        # of S^alpha is S itself
        params = MarketParams(r=0.03, sigma=0.53)
        pf2 = wkb_prefactor(params) ** 2
        alpha = 0.5 * (1 + math.sqrt(1 + 4 * pf2))
        assert alpha == pytest.approx(1.10680, abs=1e-5)
        for s in (0.5, 1.0, 4.0, 10.0):
            image = w_from_psi(s**alpha, s, params)
            assert image == pytest.approx(s, rel=1e-9)

    def test_nonpositive_coordinate_rejected(self):
        with pytest.raises(ValueError):
            w_from_psi(1.0, 0.0, PARAMS)

    @pytest.mark.parametrize("bad", [0.0, -0.5])
    def test_nonpositive_grid_point_rejected(self, bad):
        grid = np.array([0.5, 1.0, bad, 2.0])
        with pytest.raises(ValueError, match=f"need s > 0, got {bad}"):
            w_from_psi(np.ones(4), grid, PARAMS)

    @pytest.mark.parametrize("seed", range(10))
    def test_grid_equals_scalar_form(self, seed):
        # the inputs of validate.check_transform_residual, against the
        # point-by-point form psi * s ** (-r / sigma^2) on numpy scalars
        rng = np.random.default_rng(seed)
        grid = np.linspace(0.5, 10.0, TRANSFORM_GRID_POINTS)
        for _ in range(TRANSFORM_PAIRS):
            params = MarketParams(r=rng.uniform(0.005, 0.1), sigma=rng.uniform(0.1, 1.0))
            alpha = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * wkb_prefactor(params) ** 2))
            psi = grid**alpha
            scalar = [p * s ** (-params.r / params.sigma**2) for p, s in zip(psi, grid)]
            assert w_from_psi(psi, grid, params).tobytes() == np.array(scalar).tobytes()


class TestSampling:
    def test_columns_and_regions(self):
        rows = sample_wavefunction(PARAMS, BAND, samples=200)
        assert len(rows) == 200
        s1 = exit_price(PARAMS)
        for s, v, psi2, region in rows:
            assert v == pytest.approx(1.0 / s**2, rel=1e-12)
            assert psi2 >= 0.0
            if s < BAND.width:
                assert region == "I"
            elif s < s1:
                assert region == "II"
            else:
                assert region == "III"

    def test_grid_avoids_singularity_and_spans_twice_exit(self):
        rows = sample_wavefunction(PARAMS, BAND, samples=50)
        s1 = exit_price(PARAMS)
        assert rows[0][0] == pytest.approx(s1 / 50, rel=1e-12)
        assert rows[-1][0] == pytest.approx(2 * s1, rel=1e-12)

    def test_last_wall_sample_matches_transmitted_intensity(self):
        rows = sample_wavefunction(PARAMS, BAND, samples=2000)
        amps = thin_wall_amplitudes(PARAMS, BAND)
        wall_rows = [row for row in rows if row[3] == "II"]
        assert wall_rows[-1][2] == pytest.approx(abs(amps.f) ** 2, rel=1e-2)

    def test_too_few_samples_rejected(self):
        with pytest.raises(ValueError):
            sample_wavefunction(PARAMS, BAND, samples=9)
