"""Three-region wavefunction around the barrier, and the option-value transform.

Region I (0 <= s < K) oscillates with wavenumber k, region II (K <= s < S1)
decays exponentially inside the wall, region III (s >= S1) oscillates again
with the reduced transmitted amplitude. The in-wall decay rate is frozen at
the wall entry so that the region-II modulus runs from |A| at K down to |F| at
S1, consistent with |F|/|A| = exp(-q(K) d). Evaluating q pointwise instead
would make the modulus rise again toward the exit, breaking that identity.

The ``w_from_psi`` map sends a solution of the zero-eigenvalue band equation
to an option value satisfying the stationary pricing ODE via
w = psi * S^(-r / sigma^2).
"""

from __future__ import annotations

import cmath
import math

from .barrier import barrier_geometry, decay_q, wavenumber_k
from .types import MarketParams, RangeBound, Regime, WaveAmplitudes


def thin_wall_amplitudes(
    params: MarketParams,
    band: RangeBound,
    a: complex = 1.0 + 0.0j,
    b: complex = 0.0 + 0.0j,
) -> WaveAmplitudes:
    """Build region amplitudes from the incident amplitude ``a``.

    The transmitted amplitude follows the thin-wall rule f = a * exp(-q(K) d);
    the in-wall amplitude anchors the region-II modulus to |a| at the wall
    entry, where the decay rate q_entry is frozen. The growing in-wall branch
    is dropped. The transmission ratio |f|/|a| does not depend on the
    reflected amplitude ``b``.
    """
    geo = barrier_geometry(params, band)
    if geo.regime is Regime.NO_BARRIER:
        raise ValueError("no wall: amplitudes are only defined in the tunneling regime")
    k_width = band.width
    q_entry = decay_q(params, k_width)
    return WaveAmplitudes(
        a=complex(a),
        b=complex(b),
        d_amp=abs(a) * math.exp(q_entry * k_width),
        f=complex(a) * math.exp(-q_entry * geo.width_d),
        k=wavenumber_k(params),
        q_entry=q_entry,
    )


def wavefunction_eval(
    params: MarketParams,
    band: RangeBound,
    amps: WaveAmplitudes,
    s: float,
) -> tuple[complex, str]:
    """Evaluate the piecewise wavefunction at s, returning (value, region tag).

    Tags are "I", "II", "III" for the band, the wall, and the far side. The
    support itself (s = 0) is allowed and returns the region-I limit a + b.
    """
    if s < 0:
        raise ValueError(f"need s >= 0, got {s}")
    geo = barrier_geometry(params, band)
    if s < band.width:
        value = amps.a * cmath.exp(1j * amps.k * s) + amps.b * cmath.exp(-1j * amps.k * s)
        return value, "I"
    if s < geo.s_exit:
        return complex(amps.d_amp * math.exp(-amps.q_entry * s)), "II"
    return amps.f * cmath.exp(1j * amps.k * s), "III"


def w_from_psi(psi_value: complex, s: float, params: MarketParams) -> complex:
    """Map psi to the option value w = psi * S^(-r / sigma^2).

    Inverse of the log substitution that removes the first-derivative term
    from the stationary pricing ODE; the map is the identity as r -> 0.
    """
    if s <= 0:
        raise ValueError(f"need s > 0, got {s}")
    return psi_value * s ** (-params.r / params.sigma**2)


def sample_wavefunction(
    params: MarketParams, band: RangeBound, samples: int
) -> list[tuple[float, float, float, str]]:
    """Tabulate (s, V, |psi|^2, region) on a uniform grid over (0, 2 * S1].

    The grid starts at S1 / samples, never at the potential singularity.
    Amplitudes use a unit incident wave with no reflected component.
    """
    if samples < 10:
        raise ValueError(f"samples must be >= 10, got {samples}")
    geo = barrier_geometry(params, band)
    amps = thin_wall_amplitudes(params, band)
    s1 = geo.s_exit
    rows = []
    for i in range(samples):
        s = s1 / samples + i * (2.0 * s1 - s1 / samples) / (samples - 1)
        value, region = wavefunction_eval(params, band, amps, s)
        rows.append((s, 1.0 / (s * s), abs(value) ** 2, region))
    return rows
