"""The validate sweep's seeded draws and its pinned check lines."""

import math
from itertools import repeat

import numpy as np
import pytest

from rangetunnel import validate
from rangetunnel.barrier import transmission_segmented
from rangetunnel.numerics import quad_barrier_integral
from rangetunnel.types import MarketParams, RangeBound
from rangetunnel.validate import (
    SEGMENT_LADDER,
    SEGMENT_POINTS,
    SWEEP_QUADRATURE,
    _draw_params,
    _draw_points,
    _pairs,
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
    rng = np.random.default_rng(4)
    oracle = np.random.default_rng(4)
    for _ in range(50):
        params, band = _draw_params(rng)
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
        quad_barrier_integral(MarketParams(r=r, sigma=sigma), RangeBound.from_width(k), SWEEP_QUADRATURE)
        for r, sigma, k in points_of(point_arrays)
    ]


def test_perturbed_closed_form_fails_and_names_its_point(monkeypatch):
    # negative control: a closed form 1e-8 off in relative terms must fail the 1e-9 gate
    real = validate._integral_closed
    monkeypatch.setattr(validate, "_integral_closed", lambda lam, k: real(lam, k) * (1 + 1e-8))
    result = check_quadrature_sweep(4)
    assert not result.passed
    assert result.detail == "1000 points, max rel err 1.000e-08 at r=0.0426311 sigma=0.894706 K=4.54793"


# check_quadrature_sweep(seed).detail and check_segmented_convergence(seed).detail
SWEEP_LINES = {
    0: (
        "1000 points, max rel err 1.287e-13",
        "error not monotone at r=0.0389905 sigma=0.614377 K=2.26448: ['4.46e-04', "
        "'7.00e-04', '1.44e-04', '2.17e-05', '2.94e-06', '3.82e-07', '4.87e-08']",
    ),
    1: ("1000 points, max rel err 1.248e-13", "20 points, ladder (1, 4, 16, 64, 256, 1024, 4096)"),
    2: (
        "1000 points, max rel err 1.441e-13",
        "error not monotone at r=0.0422044 sigma=0.268527 K=1.49023: ['8.23e-04', "
        "'1.41e-03', '2.72e-04', '4.02e-05', '5.42e-06', '7.03e-07', '8.94e-08']",
    ),
    3: (
        "1000 points, max rel err 1.858e-13",
        "error not monotone at r=0.077077 sigma=0.890632 K=1.12881: ['2.95e-02', "
        "'1.79e-03', '1.69e-05', '1.85e-05', '3.34e-06', '4.82e-07', '6.43e-08']",
    ),
    4: ("1000 points, max rel err 1.301e-13", "20 points, ladder (1, 4, 16, 64, 256, 1024, 4096)"),
    5: (
        "1000 points, max rel err 2.251e-13",
        "error not monotone at r=0.043805 sigma=0.140748 K=0.430881: ['3.59e-03', "
        "'2.28e-04', '9.73e-06', '8.89e-08', '9.38e-08', '1.69e-08', '2.44e-09']",
    ),
    6: (
        "1000 points, max rel err 1.044e-13",
        "error not monotone at r=0.0786396 sigma=0.493165 K=0.308813: ['8.84e-02', "
        "'1.18e-02', '8.74e-04', '4.76e-05', '1.90e-06', '1.68e-08', '1.80e-08']",
    ),
    7: (
        "1000 points, max rel err 1.323e-13",
        "error not monotone at r=0.0202201 sigma=0.651286 K=1.30735: ['5.19e-02', "
        "'5.21e-03', '2.48e-04', '7.43e-07', '1.83e-06', '3.49e-07', '5.11e-08']",
    ),
    8: (
        "1000 points, max rel err 1.334e-13",
        "error not monotone at r=0.0360624 sigma=0.988549 K=2.97253: ['3.68e-04', "
        "'4.44e-04', '9.23e-05', '1.39e-05', '1.89e-06', '2.46e-07', '3.13e-08']",
    ),
    9: (
        "1000 points, max rel err 1.675e-13",
        "error not monotone at r=0.0774652 sigma=0.388868 K=0.990767: ['1.57e-02', "
        "'3.49e-05', '1.81e-04', '3.43e-05', '5.02e-06', '6.74e-07', '8.71e-08']",
    ),
}


@pytest.mark.parametrize("seed", sorted(SWEEP_LINES))
def test_sweep_lines_are_pinned(seed):
    quadrature, segmented = SWEEP_LINES[seed]
    assert check_quadrature_sweep(seed).detail == quadrature
    assert check_segmented_convergence(seed).detail == segmented


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
        transmissions = real(*args)
        passes.append((args[-1], transmissions))
        return transmissions

    monkeypatch.setattr(validate, "_segmented_walls", spy)
    check_segmented_convergence(seed)
    assert [n for n, _ in passes] == list(SEGMENT_LADDER)
    pairs = _pairs(*_draw_points(np.random.default_rng(seed), SEGMENT_POINTS))
    for n, transmissions in passes:
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
