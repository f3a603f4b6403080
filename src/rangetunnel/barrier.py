"""Barrier mathematics for price tunneling out of a support/resistance band.

With the support level moved to the origin, the band of width K sits in front
of the potential wall

    V(S) = 1 / S^2,

and the market state selects the eigenvalue

    lambda = r / sigma.

The wall runs from the band edge K to the exit coordinate S1 = sqrt(1/lambda),
where V(S1) = lambda. Transmission through the wall is computed three ways:

    thin wall   T = exp(-2 q d)                    (constant decay rate)
    segmented   T = exp(-2 sum_i q_i d_i)          (midpoint rule on n pieces)
    exact       T = exp(-2 P [atanh(u) - u])       (closed-form integral)

with u = sqrt(1 - lambda K^2), d = S1 - K, decay rate
q(S) = P sqrt(V(S) - lambda) and prefactor P = sqrt((r / sigma^4)(sigma^2 + r)).
All three agree in the limits: the segmented form converges to the exact one,
and the thin-wall form is its one-segment, wall-entry flavor.

When lambda K^2 >= 1 the band edge already lies at or beyond the exit
coordinate: there is no wall to cross, the regime is NO_BARRIER and every
transmission coefficient is exactly 1.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .types import BarrierGeometry, MarketParams, RangeBound, Regime

# lambda * K^2 values within this distance of 1 are treated as the zero-width
# boundary; closer than this, 1 - lambda*K^2 loses all significant digits.
BOUNDARY_GUARD = 1e-12


def potential_v(s: float) -> float:
    """Barrier potential V(S) = 1 / S^2 in the support-relative coordinate.

    Strictly decreasing, singular at the support (s = 0) and tangent to the
    axis at infinity. Where s^2 underflows to 0, V overflows to inf.
    """
    if s <= 0:
        raise ValueError(f"potential is singular at the support; need s > 0, got {s}")
    s2 = s * s
    return 1.0 / s2 if s2 > 0.0 else math.inf


def lambda_of(params: MarketParams) -> float:
    """Eigenvalue lambda = r / sigma selected by the market observables.

    Raises ValueError where r / sigma overflows, as a large r over a small
    sigma can: an infinite lambda would put every band beyond the wall.
    """
    r, sigma = params.r, params.sigma
    lam = r / sigma
    if not math.isfinite(lam):
        raise ValueError(f"r={r:.6g}, sigma={sigma:.6g} are out of range: r / sigma overflows in lambda")
    return lam


def exit_price(params: MarketParams) -> float:
    """Support-relative price S1 = sqrt(sigma / r) at which the wall ends.

    Equivalent to 1 / sqrt(lambda): the coordinate where V(S) falls to the
    eigenvalue and the price leaves the classically forbidden wall.
    """
    return math.sqrt(params.sigma / params.r)


def wkb_prefactor(params: MarketParams) -> float:
    """Multiplier P = sqrt((r / sigma^4)(sigma^2 + r)) in front of the barrier integral.

    The same coefficient converts the potential gap into the local rates:
    k^2 = P^2 * lambda and q(S)^2 = P^2 * (V(S) - lambda). Raises ValueError
    where sigma^4 overflows (sigma above about 1e77) or underflows to 0
    (below about 1e-81).
    """
    r, sigma = params.r, params.sigma
    try:
        return math.sqrt((r / sigma**4) * (sigma * sigma + r))
    except (OverflowError, ZeroDivisionError) as exc:
        fault = "overflows" if isinstance(exc, OverflowError) else "underflows to 0"
        raise ValueError(f"sigma={sigma:.6g} is out of range: sigma^4 {fault} in the prefactor P") from None


def wavenumber_k(params: MarketParams) -> float:
    """Oscillation wavenumber k = P * sqrt(lambda) outside the wall."""
    return wkb_prefactor(params) * math.sqrt(lambda_of(params))


def decay_q(params: MarketParams, s: float) -> float:
    """In-wall decay rate q(S) = P * sqrt(V(S) - lambda).

    Defined only inside the wall, where V(S) > lambda; q falls to 0 at the
    exit coordinate S1. Raises ValueError where P underflows to 0 while
    V(S) overflows, since their product is then undefined.
    """
    gap = potential_v(s) - lambda_of(params)
    if gap < 0:
        raise ValueError(
            f"s={s} lies outside the wall: V(s)={potential_v(s):.6g} "
            f"<= lambda={lambda_of(params):.6g}"
        )
    q = wkb_prefactor(params) * math.sqrt(gap)
    if math.isnan(q):  # 0 * inf
        raise ValueError(f"q(s) is undefined at s={s:.6g}: P underflows to 0 while V(s) overflows")
    return q


def barrier_geometry(params: MarketParams, band: RangeBound) -> BarrierGeometry:
    """Classify the band against the wall and measure the penetration distance.

    TUNNELING when lambda * K^2 < 1, with width_d = S1 - K > 0. Otherwise the
    band edge sits at or beyond the exit coordinate (a trending market in
    band-width terms): regime NO_BARRIER, width_d = 0. The boundary
    lambda * K^2 == 1 (within a small guard) is the zero-width wall and is
    reported as NO_BARRIER with width_d = 0; transmission is 1 either way.
    """
    lam = lambda_of(params)
    k_width = band.width
    s1 = exit_price(params)
    if lam * k_width * k_width < 1.0 - BOUNDARY_GUARD:
        return BarrierGeometry(lam=lam, s_exit=s1, width_d=s1 - k_width)
    return BarrierGeometry(lam=lam, s_exit=s1, width_d=0.0)


def barrier_integral_closed(params: MarketParams, band: RangeBound) -> float:
    """Closed form of the barrier integral over the wall [K, S1].

    With u = sqrt(1 - lambda K^2):

        integral_K^S1 sqrt(1/S^2 - lambda) dS = (1/2) ln((1+u)/(1-u)) - u

    which is atanh(u) - u, nonnegative, and vanishing as lambda K^2 -> 1.
    That form cancels at both edges of the tunneling regime, so it is
    evaluated only between them. For small u (lambda K^2 -> 1) the odd series
    u^3/3 + u^5/5 + ... is summed instead; for u -> 1 (lambda K^2 -> 0) the
    identity (1+u)/(1-u) = (1+u)^2 / (lambda K^2) removes the difference 1 - u;
    once lambda K^2 underflows below the smallest normal float, its log is
    taken as log(lambda) + 2 log(K). The cut-offs lie outside lambda K^2 in
    [0.01, 0.99], where the direct form is accurate to a few 1e-13; keeping
    it there leaves the scan reports and the validate sweep bit-for-bit
    reproducible across versions.
    """
    return _integral_closed(lambda_of(params), band.width)


def _integral_closed(lam: float, k_width: float) -> float:
    """``barrier_integral_closed`` of the floats lambda = r / sigma and K."""
    lam_k2 = lam * k_width * k_width
    if lam_k2 >= 1.0:
        raise ValueError(
            f"no wall to integrate over: lambda*K^2 = {lam_k2:.6g} >= 1"
        )
    u = math.sqrt(1.0 - lam_k2)
    if u < 0.08:
        u2 = u * u
        # ten terms: the first one left out is below 1e-20 of the sum
        return u * u2 * sum(u2**k / (2 * k + 3) for k in range(10))
    if lam_k2 < sys.float_info.min:
        # lambda*K^2 underflowed to a subnormal or to 0: take its log from the factors
        return math.log(1.0 + u) - 0.5 * math.log(lam) - math.log(k_width) - u
    if lam_k2 < 0.005:
        return math.log((1.0 + u) / math.sqrt(lam_k2)) - u
    return 0.5 * math.log((1.0 + u) / (1.0 - u)) - u


def transmission_thin_wall(params: MarketParams, band: RangeBound) -> float:
    """Constant-q transmission estimate T = exp(-2 q d).

    The decay rate is frozen at the wall entry K. The exact closed form is
    the reference; this is the quick estimate. Returns 1.0 in the NO_BARRIER
    regime (the price already sits outside the wall).
    """
    geo = barrier_geometry(params, band)
    if geo.regime is Regime.NO_BARRIER:
        return 1.0
    q = decay_q(params, band.width)
    return math.exp(-2.0 * q * geo.width_d)


def transmission_segmented(params: MarketParams, band: RangeBound, n: int) -> float:
    """Segment-sum transmission T = exp(-2 sum_i q_i d_i) on n equal pieces.

    q is evaluated at each segment midpoint; the sum converges to the exact
    barrier integral as n grows. A midpoint past the exit, where rounding
    can leave the gap V - lambda slightly negative, adds nothing. The terms
    are added by a sequential ``np.cumsum``, left to right like a Python
    loop, so T is the same to the last bit as the one-segment-at-a-time
    sum; ``np.sum`` adds pairwise and would round differently.
    """
    if n < 1:
        raise ValueError(f"segment count must be >= 1, got {n}")
    geo = barrier_geometry(params, band)
    if geo.regime is Regime.NO_BARRIER:
        return 1.0
    walls = np.array([[band.width], [geo.width_d], [geo.lam]])
    return math.exp(-2.0 * wkb_prefactor(params) * float(_segmented_walls(*walls, n)[0]))


def _segmented_walls(k_width: np.ndarray, width_d: np.ndarray, lam: np.ndarray, n: int) -> np.ndarray:
    """Midpoint sums sum_i sqrt(V_i - lambda) (d / n) of TUNNELING walls at one n, in one array pass.

    Element j of each argument belongs to wall j: band edge K, penetration
    distance d and eigenvalue lambda. Row j of the (walls, n) midpoint array
    holds the ops of a one-wall call elementwise, and the row-wise
    ``np.cumsum`` adds left to right, so every sum has the bits of its
    one-wall call; exp(-2 P sum) is ``transmission_segmented``'s T. The
    steps run in place on one array: at 20 walls and n = 4096 each fresh
    temporary would be a new 655 kB mapping whose pages fault in.
    """
    step = (width_d / n)[:, None]
    terms = np.multiply(np.arange(n) + 0.5, step)
    terms += k_width[:, None]  # the midpoints
    terms *= terms
    np.divide(1.0, terms, out=terms)
    terms -= lam[:, None]  # the gaps V - lambda
    np.maximum(terms, 0.0, out=terms)
    np.sqrt(terms, out=terms)
    terms *= step
    return np.cumsum(terms, axis=1, out=terms)[:, -1]


def transmission_exact(params: MarketParams, band: RangeBound) -> float:
    """Exact transmission through the wall, T = exp(-2 * P * bracket).

    The bracket is the closed-form barrier integral; the NO_BARRIER regime
    yields T = 1. T lies in [0, 1]: P >= 0 and the bracket is > 0 in the
    TUNNELING regime, and a wall whose exponent exceeds the double range
    underflows T to 0.0. The prefactor is formed in either regime, so a
    sigma whose sigma^4 leaves the double range raises ValueError even where
    T = 1. The thin-wall and segmented approximations are separate calls.
    """
    return _geometry_and_transmission(params, band)[1]


def _geometry_and_transmission(params: MarketParams, band: RangeBound) -> tuple[BarrierGeometry, float]:
    """``barrier_geometry`` and ``transmission_exact`` of the band, the geometry formed once."""
    geo = barrier_geometry(params, band)
    pf = wkb_prefactor(params)
    if geo.regime is Regime.NO_BARRIER:
        return geo, 1.0
    return geo, math.exp(-2.0 * pf * _integral_closed(geo.lam, band.width))
