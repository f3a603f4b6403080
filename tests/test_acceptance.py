"""Acceptance gate: the full criteria list, one test per criterion.

Each test prints an ``ACCEPTANCE nn ...: PASS|FAIL`` line before asserting, so
a plain ``pytest -s tests/test_acceptance.py`` reads as a checklist. Reference
cells print a mix of rounded and truncated digits, so table comparisons allow
one unit in the cell's last printed digit throughout.
"""

import math
import time

import numpy as np
import pytest

from rangetunnel.barrier import (
    barrier_geometry,
    barrier_integral_closed,
    exit_price,
    lambda_of,
    transmission_exact,
    transmission_segmented,
    wkb_prefactor,
)
from rangetunnel.market import detect_vol_fall, VolSeries
from rangetunnel.numerics import merton_ode_residual, quad_barrier_integral
from rangetunnel.scan import ScanConfig, scan
from rangetunnel.tables import reproduce_table
from rangetunnel.types import MarketParams, RangeBound, Regime
from rangetunnel.validate import TRANSFORM_GRID_POINTS, TRANSFORM_PAIRS, _draw_points, _pairs
from rangetunnel.wavefunction import w_from_psi

import datetime as dt

from conftest import band_series


def report(number, label, ok):
    print(f"ACCEPTANCE {number:02d} {label}: {'PASS' if ok else 'FAIL'}")
    return ok


def test_c01_rate_sweep_table():
    elapsed = math.inf
    for _ in range(3):  # best of three, so a scheduler hiccup cannot fail the gate
        start = time.perf_counter()
        computed = []
        for r in (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07):
            params = MarketParams(r=r, sigma=0.53)
            band = RangeBound.from_width(2.40)
            computed.append(
                (100.0 * transmission_exact(params, band), exit_price(params) - 2.40)
            )
        elapsed = min(elapsed, time.perf_counter() - start)
    t_refs = (73, 75, 79, 83, 87, 91, 95)
    d_refs = (4.88, 2.75, 1.80, 1.24, 0.85, 0.57, 0.35)
    cells_ok = all(
        abs(t - t_ref) <= 1.0 and abs(d - d_ref) <= 0.01
        for (t, d), t_ref, d_ref in zip(computed, t_refs, d_refs)
    )
    fast = elapsed < 1e-3
    ok = report(1, f"rate-sweep table reproduction ({elapsed * 1e3:.2f} ms)", cells_ok and fast)
    assert ok


def test_c02_volatility_sweep_table():
    rows = [
        (0.43, 91.0, 1.0, 0.53),
        (0.53, 87.0, 1.0, 0.85),
        (0.63, 85.0, 1.0, 1.15),
        (0.73, 84.0, 1.0, 1.42),
        (0.83, 83.95, 0.01, 1.67),
        (0.93, 83.69, 0.01, 1.91),
        (0.97, 83.64, 0.01, 2.00),
    ]
    ok = True
    for sigma, t_ref, t_tol, d_ref in rows:
        params = MarketParams(r=0.05, sigma=sigma)
        t = 100.0 * transmission_exact(params, RangeBound.from_width(2.40))
        d = exit_price(params) - 2.40
        ok &= abs(t - t_ref) <= t_tol and abs(d - d_ref) <= 0.01
    assert report(2, "volatility-sweep table reproduction", ok)


def test_c03_stock_case_table():
    cases = [
        (0.03, 0.47, 123.3, 127.2, 3.9, 0.1, 0.058114, 1e-6, 0.998675, 1e-6),
        (0.03, 0.15, 702.6, 704.7, 2.1, 0.1, 0.136068, 1e-6, 0.95, 0.01),
        (0.03, 0.31, 66.95, 70.08, 3.13, 0.01, 0.08455, 1e-5, 0.9948, 1e-4),
        (0.03, 0.55, 97.81, 101.17, 3.36, 0.01, 0.921744, 1e-6, 0.933, 1e-3),
    ]
    ok = True
    for r, sigma, support, resistance, k_ref, k_tol, d_ref, d_tol, t_ref, t_tol in cases:
        params = MarketParams(r=r, sigma=sigma)
        band = RangeBound(support=support, resistance=resistance)
        geo = barrier_geometry(params, band)
        t = transmission_exact(params, band)
        ok &= abs(band.width - k_ref) <= k_tol
        ok &= abs(geo.width_d - d_ref) <= d_tol
        ok &= abs(t - t_ref) <= t_tol
    assert report(3, "stock-case table reproduction", ok)


def test_c04_worked_example():
    params = MarketParams(r=0.03, sigma=0.47)
    lam = lambda_of(params)
    s1 = exit_price(params)
    d = barrier_geometry(params, RangeBound.from_width(2.40)).width_d
    ok = abs(lam - 0.064) <= 1e-3 and abs(s1 - 3.95) <= 0.01 and abs(d - 1.55) <= 0.01
    assert report(4, "worked example (lambda, S1, d)", ok)


def test_c05_quadrature_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for params, band in _pairs(*_draw_points(np.random.default_rng(4), 1000)):
        closed = barrier_integral_closed(params, band)
        quad = quad_barrier_integral(params, band)
        worst = max(worst, abs(quad - closed) / closed)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 5.0
    assert report(
        5, f"oracle equivalence (1000 pts, max rel {worst:.2e}, {elapsed:.2f} s)", ok
    )


def test_c06_segmented_convergence():
    # the error falls at every rung of this ladder for the seed-4 draws; validate's
    # own check, which must hold at every seed, reads the Richardson limit instead
    ok = True
    for params, band in _pairs(*_draw_points(np.random.default_rng(4), 20)):
        exact = transmission_exact(params, band)
        errs = [abs(transmission_segmented(params, band, n) - exact) for n in (1, 4, 16, 64, 256, 1024, 4096)]
        ok &= errs[-1] <= 1e-6
        ok &= all(b < a for a, b in zip(errs, errs[1:]))
    assert report(6, "segmented transmission convergence", ok)


def test_c07_transform_correctness():
    rng = np.random.default_rng(4)
    grid = np.linspace(0.5, 10.0, TRANSFORM_GRID_POINTS)
    ok = True
    for _ in range(TRANSFORM_PAIRS):
        r = rng.uniform(0.005, 0.1)
        sigma = rng.uniform(0.1, 1.0)
        params = MarketParams(r=r, sigma=sigma)
        pf2 = wkb_prefactor(params) ** 2
        alpha = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * pf2))
        psi = grid**alpha
        w = np.array([w_from_psi(p, s, params).real for p, s in zip(psi, grid)])
        ok &= merton_ode_residual(w, params, grid) <= 1e-6
    assert report(7, "analytic-solution transform correctness", ok)


def test_c08_monotonicity_properties():
    t1, d1 = [], []
    for r in (0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07):
        params = MarketParams(r=r, sigma=0.53)
        t1.append(transmission_exact(params, RangeBound.from_width(2.40)))
        d1.append(exit_price(params) - 2.40)
    t2, d2 = [], []
    for sigma in (0.43, 0.53, 0.63, 0.73, 0.83, 0.93, 0.97):
        params = MarketParams(r=0.05, sigma=sigma)
        t2.append(transmission_exact(params, RangeBound.from_width(2.40)))
        d2.append(exit_price(params) - 2.40)
    ok = (
        all(b > a for a, b in zip(t1, t1[1:]))
        and all(b < a for a, b in zip(d1, d1[1:]))
        and all(b < a for a, b in zip(t2, t2[1:]))
        and all(b > a for a, b in zip(d2, d2[1:]))
    )
    assert report(8, "monotonicity in rate and volatility", ok)


def test_c09_scanner_golden_path():
    fixtures = [
        ("LNKD", 123.3, 127.2, 0.47, 3.9, 0.1, 0.058114, 1e-6, 0.998675, 1e-6),
        ("GOOG", 702.6, 704.7, 0.15, 2.1, 0.1, 0.136068, 1e-6, 0.95, 0.01),
        ("HUM", 66.95, 70.08, 0.31, 3.13, 0.01, 0.08455, 1e-5, 0.9948, 1e-4),
        ("NFLX", 97.81, 101.17, 0.55, 3.36, 0.01, 0.921744, 1e-6, 0.933, 1e-3),
    ]
    events = []
    ok = True
    for symbol, support, resistance, sigma, k_ref, k_tol, d_ref, d_tol, t_ref, t_tol in fixtures:
        found = scan(
            band_series(symbol, support, resistance),
            r=0.03,
            cfg=ScanConfig(sigma_override=sigma),
        )
        events.extend(found)
        ok &= len(found) == 1
        if found:
            event = found[0]
            ok &= abs(event.band.width - k_ref) <= k_tol
            ok &= abs(event.geometry.width_d - d_ref) <= d_tol
            ok &= abs(event.transmission - t_ref) <= t_tol
    ok &= len(events) == 4

    for before, after in ((0.63, 0.39), (0.40, 0.15), (0.43, 0.25), (0.95, 0.55)):
        values = np.array([before] * 10 + [after] * 10)
        dates = tuple(dt.date(2013, 1, 1) + dt.timedelta(days=i) for i in range(20))
        vol = VolSeries(dates=dates, values=values)
        ok &= len(detect_vol_fall(vol)) > 0
    assert report(9, "scanner golden path and volatility-fall flags", ok)


def test_c10_degenerate_handling():
    ok = True
    # band edge beyond the exit coordinate: flagged, never raised
    for r, sigma, width in ((0.2, 0.2, 2.0), (0.1, 0.1, 1.5), (0.05, 0.1, 3.0)):
        params = MarketParams(r=r, sigma=sigma)
        band = RangeBound.from_width(width)
        geo = barrier_geometry(params, band)
        result = transmission_exact(params, band)
        ok &= geo.regime is Regime.NO_BARRIER and result == 1.0
    # one tick inside the boundary: transmission within 1e-9 of 1
    params = MarketParams(r=0.05, sigma=0.1)  # lambda = 0.5
    width = math.sqrt((1.0 - 1e-13) / 0.5)
    result = transmission_exact(params, RangeBound.from_width(width))
    ok &= abs(result - 1.0) <= 1e-9
    assert report(10, "degenerate boundary handling", ok)
