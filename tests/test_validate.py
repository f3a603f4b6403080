"""The validate sweep's seeded draws and its pinned check lines."""

import math
from itertools import count, repeat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rangetunnel import validate
from rangetunnel.barrier import transmission_segmented, wkb_prefactor
from rangetunnel.numerics import quad_barrier_integral
from rangetunnel.types import MarketParams, RangeBound
from rangetunnel.validate import (
    SEGMENT_LADDER,
    SEGMENT_POINTS,
    _draw_points,
    _pairs,
    check_band_equation_residuals,
    check_quadrature_sweep,
    check_segmented_convergence,
    check_transform_residual,
    quadrature_sweep,
    run_all,
)


def scalar_draw(rng):
    """One point from three scalar ``uniform`` calls: the reference for the draws."""
    r = rng.uniform(0.005, 0.1)
    sigma = rng.uniform(0.1, 1.0)
    lam_k2 = rng.uniform(0.01, 0.99)
    lam = r / sigma
    width = math.sqrt(lam_k2 / lam)
    return r, sigma, width


def points_of(arrays):
    return list(zip(*(a.tolist() for a in arrays)))


@pytest.mark.parametrize("seed", range(10))
def test_draw_points_equal_scalar_draws(seed):
    got = points_of(_draw_points(np.random.default_rng(seed), 1000))
    rng = np.random.default_rng(seed)
    assert got == [scalar_draw(rng) for _ in range(1000)]


@pytest.mark.parametrize("block", [1, 63, 64, 65, 100])
def test_block_draws_continue_one_stream(block):
    rng = np.random.default_rng(4)
    got = []
    while len(got) < 300:
        got.extend(points_of(_draw_points(rng, block)))
    oracle = np.random.default_rng(4)
    assert got == [scalar_draw(oracle) for _ in range(len(got))]


def test_draw_params_equals_scalar_draws():
    # one (params, band) pair at a time, as the tests that need a few points draw them
    rng = np.random.default_rng(4)
    oracle = np.random.default_rng(4)
    for _ in range(50):
        [(params, band)] = _pairs(*_draw_points(rng, 1))
        assert (params.r, params.sigma, band.width) == scalar_draw(oracle)


def test_sweep_draws_are_the_scalar_draws():
    r, sigma, width, _ = quadrature_sweep(4, 130)
    rng = np.random.default_rng(4)
    assert points_of((r, sigma, width)) == [scalar_draw(rng) for _ in range(130)]


def test_sweep_ending_in_one_point_block_equals_one_point_calls():
    # 65 points, one of the sweep sizes CI runs
    *point_arrays, quads = quadrature_sweep(4, 65)
    assert len(quads) == 65
    assert quads.tolist() == [
        quad_barrier_integral(MarketParams(r=r, sigma=sigma), RangeBound.from_width(k))
        for r, sigma, k in points_of(point_arrays)
    ]


@pytest.fixture
def bracket_off_by_1e_8(monkeypatch):
    """Negative control: the closed form, as ``validate`` calls it, 1e-8 off in relative terms."""
    real = validate._integral_closed
    monkeypatch.setattr(validate, "_integral_closed", lambda lam, k: real(lam, k) * (1 + 1e-8))


def test_perturbed_closed_form_fails_and_names_its_point(bracket_off_by_1e_8):
    # the 1e-9 gate of the quadrature sweep catches it
    result = check_quadrature_sweep(4)
    assert not result.passed
    assert result.detail == "1000 points, max rel err 1.000e-08 at r=0.0426311 sigma=0.894706 K=4.54793"


def closed_form_scaled_at(monkeypatch, factors):
    """The closed form, as ``validate`` calls it, times ``factors[K]`` at the band widths K given."""
    real = validate._integral_closed
    monkeypatch.setattr(validate, "_integral_closed", lambda lam, k: real(lam, k) * factors.get(k, 1.0))


def nan_at_call(monkeypatch, name, call):
    """Negative control: ``validate.<name>`` returns NaN on its ``call``-th call, counted from 0."""
    real = getattr(validate, name)
    calls = count()

    def wrapped(*args, **kwargs):
        value = real(*args, **kwargs)
        return math.nan if next(calls) == call else value

    monkeypatch.setattr(validate, name, wrapped)


def test_nan_closed_form_fails_the_quadrature_sweep_and_names_its_point(monkeypatch):
    # a NaN is within no gate: point 500 of seed 4 has K = 0.302031
    closed_form_scaled_at(monkeypatch, {quadrature_sweep(4)[2][500].item(): math.nan})
    result = check_quadrature_sweep(4)
    assert not result.passed
    assert result.detail == "1000 points, max rel err nan at r=0.0961601 sigma=0.518223 K=0.302031"


def test_nan_quadrature_value_fails_and_names_its_point(monkeypatch):
    real = validate.quad_barrier_integrals

    def nan_at_999(lam, width):
        values = real(lam, width).copy()
        values[999] = math.nan
        return values

    monkeypatch.setattr(validate, "quad_barrier_integrals", nan_at_999)
    result = check_quadrature_sweep(4)
    assert not result.passed
    assert result.detail == "1000 points, max rel err nan at r=0.0755973 sigma=0.555611 K=0.971523"


def test_nan_segment_bracket_fails_and_names_its_point(monkeypatch):
    # a NaN bracket makes both the final-rung T error and the limit's error NaN; the T gate speaks first
    [*_, (_, band)] = _pairs(*_draw_points(np.random.default_rng(4), SEGMENT_POINTS))
    closed_form_scaled_at(monkeypatch, {band.width: math.nan})
    result = check_segmented_convergence(4)
    assert not result.passed
    assert result.detail == "final error nan, gate 1e-6 at r=0.0380642 sigma=0.975196 K=3.32247"


def test_final_rung_fail_names_the_worst_point(monkeypatch):
    # brackets 1% off at points 4 and 7 of seed 4: T is off by about 7.5e-6 at 4 and 3.4e-3 at 7
    pairs = _pairs(*_draw_points(np.random.default_rng(4), SEGMENT_POINTS))
    closed_form_scaled_at(monkeypatch, {pairs[4][1].width: 1.01, pairs[7][1].width: 1.01})
    result = check_segmented_convergence(4)
    assert not result.passed
    assert result.detail == "final error 3.436e-03, gate 1e-6 at r=0.0945663 sigma=0.699092 K=1.01997"


def test_nan_transform_residual_fails_and_names_its_pair(monkeypatch):
    nan_at_call(monkeypatch, "merton_ode_residual", 2)
    result = check_transform_residual(4)
    assert not result.passed
    assert result.detail == "5 pairs, max rel residual nan at r=0.0626988 sigma=0.438838"


def test_nan_power_solution_residual_fails(monkeypatch):
    # the NaN in second place, where max(far, power) would drop it
    nan_at_call(monkeypatch, "schrodinger_form_residual", 1)
    result = check_band_equation_residuals()
    assert not result.passed
    assert result.detail == "plane-wave rel 4.784e-07, power-solution rel nan"


def nan_in_solution(monkeypatch, name, call, point):
    """Negative control: ``validate.<name>`` gets its solution with a NaN at ``point``.

    Only its ``call``-th call, counted from 0, is changed, and on a copy.
    """
    real = getattr(validate, name)
    calls = count()

    def wrapped(values, *args, **kwargs):
        if next(calls) == call:
            values = np.array(values)
            values[point] = math.nan
        return real(values, *args, **kwargs)

    monkeypatch.setattr(validate, name, wrapped)


@pytest.mark.parametrize("point", [0, 500, -1])
def test_nan_in_one_transform_image_value_fails_and_names_its_pair(monkeypatch, point):
    # a NaN value of the third w_from_psi image, not a NaN residual: the evaluator must not leave it out
    nan_in_solution(monkeypatch, "merton_ode_residual", 2, point)
    result = check_transform_residual(4)
    assert not result.passed
    assert result.detail == "5 pairs, max rel residual nan at r=0.0626988 sigma=0.438838"


@pytest.mark.parametrize("point", [0, 5000, -1])
def test_nan_in_one_power_solution_value_fails(monkeypatch, point):
    nan_in_solution(monkeypatch, "schrodinger_form_residual", 1, point)
    result = check_band_equation_residuals()
    assert not result.passed
    assert result.detail == "plane-wave rel 4.784e-07, power-solution rel nan"


# check_quadrature_sweep(seed).detail and check_segmented_convergence(seed).detail
SWEEP_LINES = {
    0: (
        "1000 points, max rel err 1.287e-13",
        "20 points, ladder (256, 1024, 4096), extrapolated max rel err 5.350e-11",
    ),
    1: (
        "1000 points, max rel err 1.248e-13",
        "20 points, ladder (256, 1024, 4096), extrapolated max rel err 2.578e-11",
    ),
    2: (
        "1000 points, max rel err 1.441e-13",
        "20 points, ladder (256, 1024, 4096), extrapolated max rel err 2.654e-11",
    ),
    3: (
        "1000 points, max rel err 1.858e-13",
        "20 points, ladder (256, 1024, 4096), extrapolated max rel err 5.996e-11",
    ),
    4: (
        "1000 points, max rel err 1.301e-13",
        "20 points, ladder (256, 1024, 4096), extrapolated max rel err 2.599e-11",
    ),
    5: (
        "1000 points, max rel err 2.251e-13",
        "20 points, ladder (256, 1024, 4096), extrapolated max rel err 3.123e-11",
    ),
    6: (
        "1000 points, max rel err 1.044e-13",
        "20 points, ladder (256, 1024, 4096), extrapolated max rel err 4.480e-11",
    ),
    7: (
        "1000 points, max rel err 1.323e-13",
        "20 points, ladder (256, 1024, 4096), extrapolated max rel err 3.502e-11",
    ),
    8: (
        "1000 points, max rel err 1.334e-13",
        "20 points, ladder (256, 1024, 4096), extrapolated max rel err 2.679e-11",
    ),
    9: (
        "1000 points, max rel err 1.675e-13",
        "20 points, ladder (256, 1024, 4096), extrapolated max rel err 2.927e-11",
    ),
}


@pytest.mark.parametrize("seed", sorted(SWEEP_LINES))
def test_sweep_lines_are_pinned(seed):
    quadrature, segmented = SWEEP_LINES[seed]
    assert check_quadrature_sweep(seed).detail == quadrature
    assert check_segmented_convergence(seed).detail == segmented


def test_perturbed_segment_bracket_fails_and_names_its_point(bracket_off_by_1e_8):
    # the 1e-9 gate on the extrapolated segment sums catches it; the final-rung gate on T does not
    result = check_segmented_convergence(4)
    assert not result.passed
    assert result.detail == (
        "20 points, ladder (256, 1024, 4096), extrapolated max rel err 9.999e-09 "
        "at r=0.0458971 sigma=0.810052 K=4.14713"
    )


@pytest.mark.parametrize("seed", range(30))
def test_perturbed_segment_bracket_fails_at_every_seed(seed, bracket_off_by_1e_8):
    assert not check_segmented_convergence(seed).passed


@pytest.mark.parametrize("seed", range(20))
def test_every_check_passes_at_every_seed(seed):
    # the verdict of ``rangetunnel validate`` does not hang on the seed
    failed = [result for result in run_all(seed) if not result.passed]
    assert failed == []


@settings(deadline=None)
@given(seed=st.integers(0, 2**128 - 1))
def test_every_check_passes_at_any_seed(seed):
    # seeds of every size up to 128 bits, on a short quadrature sweep
    failed = [result for result in run_all(seed, quad_points=50) if not result.passed]
    assert failed == []


@pytest.mark.parametrize(
    "seed,points,detail",
    [
        (4, 1, "1 points, max rel err 4.620e-15"),
        (4, 65, "65 points, max rel err 2.732e-14"),
        (0, 65, "65 points, max rel err 1.287e-13"),
        (7, 130, "130 points, max rel err 7.818e-14"),
    ],
)
def test_short_sweep_lines_are_pinned(seed, points, detail):
    assert check_quadrature_sweep(seed, points).detail == detail


@pytest.mark.parametrize("seed", range(30))
def test_quadrature_sweep_passes_at_every_seed(seed):
    result = check_quadrature_sweep(seed)
    assert result.passed, result.detail


@pytest.mark.parametrize("points", [0, -5])
def test_empty_sweep_is_an_error(points):
    with pytest.raises(ValueError, match=f"^points must be >= 1, got {points}$"):
        check_quadrature_sweep(4, points)
    with pytest.raises(ValueError, match="^points must be >= 1"):
        run_all(quad_points=points)


@pytest.mark.parametrize("seed", range(10))
def test_ladder_runs_one_pass_per_rung_with_the_bits_of_one_point_calls(seed, monkeypatch):
    real = validate._segmented_walls
    passes = []

    def spy(*args):
        sums = real(*args)
        passes.append((args[-1], sums.tolist()))
        return sums

    monkeypatch.setattr(validate, "_segmented_walls", spy)
    check_segmented_convergence(seed)
    assert [n for n, _ in passes] == list(SEGMENT_LADDER)
    pairs = _pairs(*_draw_points(np.random.default_rng(seed), SEGMENT_POINTS))
    for n, sums in passes:
        transmissions = [math.exp(-2.0 * wkb_prefactor(params) * s) for (params, _), s in zip(pairs, sums)]
        assert transmissions == [transmission_segmented(params, band, n) for params, band in pairs]


@pytest.mark.parametrize("seed", range(30))
def test_transform_residual_passes_at_every_seed(seed):
    result = check_transform_residual(seed)
    assert result.passed, result.detail


def w_from_psi_exponent_off(delta):
    """``w_from_psi`` with its exponent -r / sigma^2 scaled by 1 + delta."""

    def w_from_psi(psi, s, params):
        exponent = -params.r / params.sigma**2 * (1.0 + delta)
        grid = np.asarray(s, dtype=float)
        return psi * np.fromiter(map(math.pow, grid.tolist(), repeat(exponent)), float, grid.size)

    return w_from_psi


def test_transform_exponent_off_by_1e_6_fails(monkeypatch):
    # negative control: the residual of an exponent error does not shrink with the grid
    monkeypatch.setattr(validate, "w_from_psi", w_from_psi_exponent_off(1e-6))
    result = check_transform_residual(4)
    assert not result.passed
    assert result.detail == "5 pairs, max rel residual 3.775e-06 at r=0.0977432 sigma=0.172752"


@pytest.mark.parametrize("seed", range(30))
def test_transform_exponent_off_by_1e_5_fails_at_every_seed(seed, monkeypatch):
    # delta (1/2 + r/sigma^2) >= 5e-6 at every pair, five times the gate
    monkeypatch.setattr(validate, "w_from_psi", w_from_psi_exponent_off(1e-5))
    assert not check_transform_residual(seed).passed
