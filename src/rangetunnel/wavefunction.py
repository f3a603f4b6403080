"""Three-region wavefunction around the barrier, and the option-value transform.

Region I (0 <= s < K) oscillates with wavenumber k, region II (K <= s < S1)
decays exponentially inside the wall, region III (s >= S1) oscillates again
with the reduced transmitted amplitude. The incident wave has unit amplitude
and no reflected part. The in-wall decay rate is frozen at the wall entry so
that the region-II modulus runs from 1 at K down to |F| at S1, consistent with
|F| = exp(-q(K) d). Evaluating q pointwise instead would make the modulus rise
again toward the exit, breaking that identity.

The ``w_from_psi`` map sends a solution of the zero-eigenvalue band equation
to an option value satisfying the stationary pricing ODE via
w = psi * S^(-r / sigma^2).
"""

from __future__ import annotations

import cmath
import math
from itertools import repeat

import numpy as np

from .barrier import barrier_geometry, decay_q, wavenumber_k
from .types import MarketParams, RangeBound, Regime, WaveAmplitudes


def thin_wall_amplitudes(params: MarketParams, band: RangeBound) -> WaveAmplitudes:
    """Build region amplitudes for a unit incident wave with no reflection.

    The transmitted amplitude follows the thin-wall rule f = exp(-q(K) d);
    the in-wall amplitude anchors the region-II modulus to 1 at the wall
    entry, where the decay rate q_entry is frozen. The growing in-wall branch
    is dropped. Raises ValueError outside the tunneling regime, when K is so
    close to the support that V(K) overflows, and when the in-wall amplitude
    exp(q(K) K) overflows.
    """
    geo = barrier_geometry(params, band)
    if geo.regime is Regime.NO_BARRIER:
        raise ValueError("no wall: amplitudes are only defined in the tunneling regime")
    k_width = band.width
    q_entry = decay_q(params, k_width)
    if q_entry == math.inf:
        raise ValueError(f"K={k_width:.6g} is too close to the support: V(K) overflows")
    try:
        d_amp = math.exp(q_entry * k_width)
    except OverflowError:
        raise ValueError(
            f"q(K)*K = {q_entry * k_width:.6g} is out of range: the in-wall amplitude overflows"
        ) from None
    return WaveAmplitudes(
        d_amp=d_amp,
        f=math.exp(-q_entry * geo.width_d),
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
    support itself (s = 0) is allowed and returns the unit incident wave's 1.
    """
    if s < 0:
        raise ValueError(f"need s >= 0, got {s}")
    geo = barrier_geometry(params, band)
    if s < band.width:
        return cmath.exp(1j * amps.k * s), "I"
    if s < geo.s_exit:
        return complex(amps.d_amp * math.exp(-amps.q_entry * s)), "II"
    return amps.f * cmath.exp(1j * amps.k * s), "III"


def w_from_psi(
    psi: complex | np.ndarray, s: float | np.ndarray, params: MarketParams
) -> complex | np.ndarray:
    """Map psi to the option value w = psi * S^(-r / sigma^2), pointwise over a grid.

    ``psi`` and ``s`` are scalars or arrays of one shape. Inverse of the log
    substitution that removes the first-derivative term from the stationary
    pricing ODE; the map is the identity as r -> 0. The factor S^(-r/sigma^2)
    is raised with scalar ``math.pow``, one grid point at a time, like the
    C ``pow`` behind a scalar ``**``: numpy's array ``**`` may take a
    vectorised power whose last bits differ, and the residual ``validate``
    prints is sensitive to them. ``map`` runs that same scalar call in a
    C-level loop and ``np.fromiter`` stores each result as it is, so the
    bits match a Python loop over the grid. Raises ValueError unless every
    s > 0.
    """
    grid = np.asarray(s, dtype=float)
    bad = grid[grid <= 0]
    if bad.size:
        raise ValueError(f"need s > 0, got {float(bad[0])}")
    exponent = -params.r / params.sigma**2
    powers = map(math.pow, grid.ravel().tolist(), repeat(exponent))
    factor = np.fromiter(powers, float, grid.size).reshape(grid.shape)
    return psi * factor


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
