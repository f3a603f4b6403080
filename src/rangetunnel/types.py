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


@dataclass(frozen=True)
class MarketParams:
    """Annualized risk-free rate and volatility, the two observables driving the model.

    r is per year, sigma per sqrt(year); both must be strictly positive.
    """

    r: float
    sigma: float

    def __post_init__(self) -> None:
        _require_finite("r", self.r)
        _require_finite("sigma", self.sigma)
        if self.r <= 0:
            raise ValueError(f"r must be > 0, got {self.r}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class RangeBound:
    """Support/resistance band in absolute prices.

    The band width plays the wall-entry coordinate K once the support is moved
    to the origin, so ``width == resistance - support`` exactly.
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
    outside the wall.
    """

    lam: float
    s_exit: float
    width_d: float
    regime: Regime

    def __post_init__(self) -> None:
        if self.lam <= 0:
            raise ValueError(f"lam must be > 0, got {self.lam}")
        if self.s_exit <= 0:
            raise ValueError(f"s_exit must be > 0, got {self.s_exit}")
        if self.width_d < 0:
            raise ValueError(f"width_d must be >= 0, got {self.width_d}")
        if (self.width_d > 0) != (self.regime is Regime.TUNNELING):
            raise ValueError("width_d > 0 exactly in the TUNNELING regime")


@dataclass(frozen=True)
class WaveAmplitudes:
    """Amplitudes of the three-region wavefunction.

    a, b: incident / reflected amplitudes left of the wall; d_amp the decaying
    in-wall amplitude (the growing in-wall branch is dropped); f the
    transmitted amplitude. k is the oscillation wavenumber and q_entry the
    in-wall decay rate frozen at the wall entry K.
    """

    a: complex
    b: complex
    d_amp: float
    f: complex
    k: float
    q_entry: float

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError(f"k must be > 0, got {self.k}")
        if abs(self.f) > abs(self.a) * (1.0 + 1e-12):
            raise ValueError("transmitted amplitude must not exceed incident amplitude")


@dataclass(frozen=True)
class TransmissionResult:
    """Exact transmission coefficient with its two factors.

    t_exact = exp(-2 * prefactor * bracket); bracket is the evaluated barrier
    integral and prefactor the WKB multiplier sqrt((r / sigma^4)(sigma^2 + r)).
    """

    t_exact: float
    bracket: float
    prefactor: float

    def __post_init__(self) -> None:
        # mathematically in (0, 1]; exp underflows to 0.0 for walls whose
        # exponent exceeds the double range, which is still a valid result
        if not 0.0 <= self.t_exact <= 1.0:
            raise ValueError(f"t_exact must lie in [0, 1], got {self.t_exact}")
        if self.bracket < 0:
            raise ValueError(f"bracket must be >= 0, got {self.bracket}")
