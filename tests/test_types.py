import math

import pytest

from rangetunnel.types import BarrierGeometry, MarketParams, RangeBound, Regime, WaveAmplitudes


class TestMarketParams:
    def test_valid(self):
        p = MarketParams(r=0.03, sigma=0.47)
        assert p.r == 0.03 and p.sigma == 0.47

    @pytest.mark.parametrize("r,sigma", [(0.0, 0.5), (-0.01, 0.5), (0.03, 0.0), (0.03, -1.0)])
    def test_nonpositive_rejected(self, r, sigma):
        with pytest.raises(ValueError):
            MarketParams(r=r, sigma=sigma)

    @pytest.mark.parametrize("r,sigma", [(math.nan, 0.5), (0.03, math.inf)])
    def test_nonfinite_rejected(self, r, sigma):
        with pytest.raises(ValueError):
            MarketParams(r=r, sigma=sigma)


class TestRangeBound:
    def test_width_exact(self):
        band = RangeBound(support=123.3, resistance=127.2)
        assert band.width == 127.2 - 123.3

    def test_from_width_puts_support_at_origin(self):
        band = RangeBound.from_width(2.40)
        assert band.support == 0.0
        assert band.resistance == 2.40
        assert band.width == 2.40

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            RangeBound(support=10.0, resistance=10.0)
        with pytest.raises(ValueError):
            RangeBound(support=10.0, resistance=9.0)

    def test_overflowing_width_rejected(self):
        with pytest.raises(ValueError, match=r"^resistance - support must be finite, got inf$"):
            RangeBound(support=-1.7e308, resistance=1.7e308)


class TestRegime:
    def test_regime_enum_values(self):
        assert Regime.TUNNELING.value == "tunneling"
        assert Regime.NO_BARRIER.value == "no_barrier"


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"lam": 1.0, "s_exit": 0.0, "width_d": 0.0}, r"^s_exit must be > 0, got 0\.0$"),
        ({"lam": 1.0, "s_exit": 1.0, "width_d": -0.5}, r"^width_d must be >= 0, got -0\.5$"),
    ],
    ids=["s_exit", "width_d"],
)
def test_bad_geometry_rejected(fields, message):
    with pytest.raises(ValueError, match=message):
        BarrierGeometry(**fields)


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"d_amp": 0.5, "f": 0.5, "k": 0.0, "q_entry": 1.0}, r"^k must be > 0, got 0\.0$"),
        (
            {"d_amp": 0.5, "f": -1.5, "k": 1.0, "q_entry": 1.0},
            "^transmitted amplitude must not exceed the unit incident amplitude$",
        ),
    ],
    ids=["k", "f"],
)
def test_bad_amplitudes_rejected(fields, message):
    with pytest.raises(ValueError, match=message):
        WaveAmplitudes(**fields)
