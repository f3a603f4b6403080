"""Domain types for the barrier model of a range-bound market.

Everything downstream works in the support-relative coordinate: the support
level sits at S = 0 and the band width K = resistance - support is the wall
entry. Prices here are plain floats in whatever currency the caller uses.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


class Regime(enum.Enum):
    """Barrier classification: TUNNELING when lambda * K^2 < 1, else NO_BARRIER."""

    TUNNELING = "tunneling"
    NO_BARRIER = "no_barrier"


def _require_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _require_positive(name: str, value: float) -> None:
    """The rule of r and sigma: finite, then > 0."""
    _require_finite(name, value)
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")


@dataclass(frozen=True)
class MarketParams:
    """Annualized risk-free rate and volatility, the two observables driving the model.

    r is per year, sigma per sqrt(year); both must be strictly positive.
    """

    r: float
    sigma: float

    def __post_init__(self) -> None:
        _require_positive("r", self.r)
        _require_positive("sigma", self.sigma)


@dataclass(frozen=True)
class RangeBound:
    """Support/resistance band in absolute prices.

    The band width plays the wall-entry coordinate K once the support is moved
    to the origin, so ``width == resistance - support`` exactly; it must be
    finite, as must both ends.
    """

    support: float
    resistance: float

    def __post_init__(self) -> None:
        _require_finite("support", self.support)
        _require_finite("resistance", self.resistance)
        if not self.resistance > self.support:
            raise ValueError(
                f"resistance ({self.resistance}) must exceed support ({self.support})"
            )
        # finite ends can still be 3.4e308 apart: K would print as inf, and as Infinity in JSON
        _require_finite("resistance - support", self.width)

    @property
    def width(self) -> float:
        return self.resistance - self.support

    @classmethod
    def from_width(cls, width: float) -> "RangeBound":
        """Band of the given width with the support at the origin (pure-strike use)."""
        return cls(support=0.0, resistance=width)


@dataclass(frozen=True)
class BarrierGeometry:
    """Eigenvalue, exit coordinate and wall thickness in the support-relative frame.

    lam = r / sigma, s_exit = sqrt(1 / lam). In the TUNNELING regime
    width_d = s_exit - K > 0; otherwise width_d = 0 and the band already sits
    outside the wall. The regime is read off width_d, so the two cannot
    disagree.
    """

    lam: float
    s_exit: float
    width_d: float

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if self.s_exit <= 0:
            raise ValueError(f"s_exit must be > 0, got {self.s_exit}")
        _require_finite("s_exit", self.s_exit)
        if self.width_d < 0:
            raise ValueError(f"width_d must be >= 0, got {self.width_d}")

    @property
    def regime(self) -> Regime:
        return Regime.TUNNELING if self.width_d > 0 else Regime.NO_BARRIER


@dataclass(frozen=True)
class WaveAmplitudes:
    """Amplitudes of the three-region wavefunction for a unit incident wave.

    Left of the wall the wave is exp(i k s), with no reflected part; d_amp is
    the decaying in-wall amplitude (the growing in-wall branch is dropped) and
    f the transmitted amplitude. k is the oscillation wavenumber and q_entry
    the in-wall decay rate frozen at the wall entry K.
    """

    d_amp: float
    f: float
    k: float
    q_entry: float

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be > 0, got {self.k}")
        if abs(self.f) > 1.0 + 1e-12:
            raise ValueError("transmitted amplitude must not exceed the unit incident amplitude")

