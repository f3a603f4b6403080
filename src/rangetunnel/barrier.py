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

from .types import BarrierGeometry, MarketParams, RangeBound, Regime, TransmissionResult

# lambda * K^2 values within this distance of 1 are treated as the zero-width
# boundary; closer than this, 1 - lambda*K^2 loses all significant digits.
BOUNDARY_GUARD = 1e-12


def potential_v(s: float) -> float:
    """Barrier potential V(S) = 1 / S^2 in the support-relative coordinate.

    Strictly decreasing, singular at the support (s = 0) and tangent to the
    axis at infinity.
    """
    if s <= 0:
        raise ValueError(f"potential is singular at the support; need s > 0, got {s}")
    return 1.0 / (s * s)


def lambda_of(params: MarketParams) -> float:
    """Eigenvalue lambda = r / sigma selected by the market observables."""
    return params.r / params.sigma


def exit_price(params: MarketParams) -> float:
    """Support-relative price S1 = sqrt(sigma / r) at which the wall ends.

    Equivalent to 1 / sqrt(lambda): the coordinate where V(S) falls to the
    eigenvalue and the price leaves the classically forbidden wall.
    """
    return math.sqrt(params.sigma / params.r)


def wkb_prefactor(params: MarketParams) -> float:
    """Multiplier P = sqrt((r / sigma^4)(sigma^2 + r)) in front of the barrier integral.

    The same coefficient converts the potential gap into the local rates:
    k^2 = P^2 * lambda and q(S)^2 = P^2 * (V(S) - lambda).
    """
    r, sigma = params.r, params.sigma
    return math.sqrt((r / sigma**4) * (sigma * sigma + r))


def wavenumber_k(params: MarketParams) -> float:
    """Oscillation wavenumber k = P * sqrt(lambda) outside the wall."""
    return wkb_prefactor(params) * math.sqrt(lambda_of(params))


def decay_q(params: MarketParams, s: float) -> float:
    """In-wall decay rate q(S) = P * sqrt(V(S) - lambda).

    Defined only inside the wall, where V(S) > lambda; q falls to 0 at the
    exit coordinate S1.
    """
    gap = potential_v(s) - lambda_of(params)
    if gap < 0:
        raise ValueError(
            f"s={s} lies outside the wall: V(s)={potential_v(s):.6g} "
            f"<= lambda={lambda_of(params):.6g}"
        )
    return wkb_prefactor(params) * math.sqrt(gap)


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
        return BarrierGeometry(lam=lam, s_exit=s1, width_d=s1 - k_width, regime=Regime.TUNNELING)
    return BarrierGeometry(lam=lam, s_exit=s1, width_d=0.0, regime=Regime.NO_BARRIER)


def barrier_integral_closed(params: MarketParams, band: RangeBound) -> float:
    """Closed form of the barrier integral over the wall [K, S1].

    With u = sqrt(1 - lambda K^2):

        integral_K^S1 sqrt(1/S^2 - lambda) dS = (1/2) ln((1+u)/(1-u)) - u

    which is atanh(u) - u, nonnegative, and vanishing as lambda K^2 -> 1.
    That form cancels at both edges of the tunneling regime, so it is
    evaluated only between them. For small u (lambda K^2 -> 1) the odd series
    u^3/3 + u^5/5 + ... is summed instead; for u -> 1 (lambda K^2 -> 0) the
    identity (1+u)/(1-u) = (1+u)^2 / (lambda K^2) removes the difference 1 - u.
    Both cut-offs lie outside lambda K^2 in [0.01, 0.99], where the direct
    form is accurate to a few 1e-13; keeping it there leaves the scan
    reports and the validate sweep bit-for-bit reproducible across versions.
    """
    lam = lambda_of(params)
    k_width = band.width
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
    barrier integral as n grows.
    """
    if n < 1:
        raise ValueError(f"segment count must be >= 1, got {n}")
    geo = barrier_geometry(params, band)
    if geo.regime is Regime.NO_BARRIER:
        return 1.0
    k_width = band.width
    lam = geo.lam
    pf = wkb_prefactor(params)
    step = geo.width_d / n
    total = 0.0
    for i in range(n):
        mid = k_width + (i + 0.5) * step
        gap = 1.0 / (mid * mid) - lam
        if gap > 0.0:
            total += math.sqrt(gap) * step
    return math.exp(-2.0 * pf * total)


def transmission_exact(params: MarketParams, band: RangeBound) -> TransmissionResult:
    """Exact transmission through the wall, T = exp(-2 * P * bracket).

    The bracket is the closed-form barrier integral; the NO_BARRIER regime
    yields T = 1 with a zero bracket. The thin-wall and segmented
    approximations are separate calls.
    """
    geo = barrier_geometry(params, band)
    pf = wkb_prefactor(params)
    if geo.regime is Regime.NO_BARRIER:
        return TransmissionResult(t_exact=1.0, bracket=0.0, prefactor=pf)
    bracket = barrier_integral_closed(params, band)
    return TransmissionResult(t_exact=math.exp(-2.0 * pf * bracket), bracket=bracket, prefactor=pf)
