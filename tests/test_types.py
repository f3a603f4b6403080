import math

import pytest

from rangetunnel.types import MarketParams, RangeBound, Regime


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
