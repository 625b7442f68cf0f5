"""Seeded noise fields: reproducibility, variance, and ensemble reduction."""

import math

import numpy as np
import pytest

from fracwave import (
    CauchyProblem,
    DivergenceError,
    EpsilonSchedule,
    FracwaveError,
    GridFunction,
    NoiseSpec,
    ResolutionError,
    SpatialGrid,
    TimeMesh,
    ensemble_run,
    make_mollifier,
    mollified_variance,
    stochastic_initial_data,
    white_noise_representative,
    zero_nonlinearity,
)
from fracwave.stochastic import _convolve_time, _time_kernel

GRID = SpatialGrid(16.0, 64)
MESH = TimeMesh(0.25, 64)
EPS = 2.0**-6


def _spec(member=0, intensity=0.05, seed=77, hx=0.5, ht=32.0):
    return NoiseSpec(intensity=intensity, master_seed=seed, member=member,
                     spatial_sharpness=hx, temporal_sharpness=ht)


@pytest.mark.parametrize("n, m_max", [(40, 3), (40, 40), (40, 57), (1, 4), (33, 32)])
def test_time_convolution_matches_direct_convolution(n, m_max):
    rng = np.random.Generator(np.random.Philox(key=0xC0))
    values = rng.standard_normal((n, 5))
    taps = rng.uniform(0.0, 1.0, 2 * m_max + 1)
    dt = 0.01
    got = _convolve_time(values, taps, dt)
    want = np.column_stack(
        [np.convolve(values[:, j], taps * dt)[m_max : m_max + n] for j in range(values.shape[1])]
    )
    assert got.shape == values.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_bit_exact_reproducibility():
    a = white_noise_representative(_spec(), EPS, GRID, MESH)
    b = white_noise_representative(_spec(), EPS, GRID, MESH)
    assert np.array_equal(a.trajectory.values, b.trajectory.values)
    prov = a.provenance
    assert prov["tag"] == 0 and prov["member"] == 0
    assert prov["spatial_sharpness"] == 0.5 and prov["temporal_sharpness"] == 32.0


def test_interior_variance_matches_closed_form():
    # 200 members, interior half of the time window; the closed form is the
    # cell-sum formula for the smoothed field, so the pooled z stays small
    var_cf = mollified_variance(_spec(), EPS, GRID, MESH)
    n_mem = 200
    k0, k1 = MESH.n_nodes // 4, 3 * MESH.n_nodes // 4
    samples = np.empty((n_mem, k1 - k0, GRID.n_points))
    for m in range(n_mem):
        rep = white_noise_representative(_spec(member=m), EPS, GRID, MESH)
        samples[m] = rep.trajectory.values[k0:k1].real
    z = (samples.var(axis=0).mean() - var_cf) / (var_cf * math.sqrt(2.0 / (n_mem - 1)))
    assert abs(z) <= 3.0


def _impulse_variance(spec, eps, grid, mesh):
    """Per-node variance summed over the responses to every single cell draw."""
    hx, ht = spec.sharpness_at(eps)
    moll = make_mollifier(spec.shape, hx, grid)
    taps = _time_kernel(spec.shape, ht, mesh)
    var = np.zeros((mesh.n_nodes, grid.n_points))
    for k in range(mesh.n_nodes):
        for j in range(grid.n_points):
            cell = np.zeros_like(var)
            cell[k, j] = 1.0
            var += _convolve_time(moll.convolve(cell).real, taps, mesh.dt) ** 2
    return spec.intensity**2 / (grid.dx * mesh.dt) * var


@pytest.mark.parametrize("ht", [0.4, 1.0, 8.0])
def test_variance_is_that_of_the_central_node(ht):
    # sharpness 0.4 and 1.0 give kernels wider than the horizon: no node
    # sees every tap, and the central one sees fewest of the trimmed kernel
    grid, mesh = SpatialGrid(4.0, 32), TimeMesh(1.0, 16)
    spec = NoiseSpec(intensity=0.1, master_seed=1, spatial_sharpness=1.0, temporal_sharpness=ht)
    oracle = _impulse_variance(spec, EPS, grid, mesh)[(mesh.n_nodes - 1) // 2]
    got = mollified_variance(spec, EPS, grid, mesh)
    assert np.max(np.abs(oracle - got)) <= 1e-12 * got


def test_variance_scales_with_intensity():
    v1 = mollified_variance(_spec(intensity=0.05), EPS, GRID, MESH)
    v2 = mollified_variance(_spec(intensity=0.10), EPS, GRID, MESH)
    assert v1 > 0.0
    assert abs(v2 - 4.0 * v1) <= 1e-12 * v2


def test_members_and_tags_are_independent_streams():
    # sharpest resolvable kernel, so the field is nearly the raw draws
    grid = SpatialGrid(16.0, 1024)
    mk = lambda m: NoiseSpec(intensity=0.05, master_seed=77, member=m,
                             spatial_sharpness=16.0, temporal_sharpness=32.0)
    f0 = white_noise_representative(mk(0), EPS, grid, MESH).trajectory.values.real
    f1 = white_noise_representative(mk(1), EPS, grid, MESH).trajectory.values.real
    assert abs(np.corrcoef(f0.ravel(), f1.ravel())[0, 1]) <= 0.05
    flat = GridFunction(grid, np.zeros(grid.n_points))
    init = stochastic_initial_data(flat, mk(0), EPS, grid)
    assert abs(np.corrcoef(init.values.real, f0[0])[0, 1]) <= 0.05


def test_zero_intensity_short_circuits():
    rep = white_noise_representative(_spec(intensity=0.0), EPS, GRID, MESH)
    assert not np.any(rep.trajectory.values)
    u0 = GridFunction(GRID, np.exp(-GRID.x**2 / 8))
    out = stochastic_initial_data(u0, _spec(intensity=0.0), EPS, GRID)
    assert np.array_equal(out.values, u0.values)
    assert out.values is not u0.values


def test_resolution_gates_both_axes():
    with pytest.raises(ResolutionError):
        white_noise_representative(_spec(ht=1e6), EPS, GRID, MESH)
    with pytest.raises(ResolutionError):
        white_noise_representative(_spec(hx=1e6), EPS, GRID, MESH)


def test_spec_validation_and_schedule_default():
    with pytest.raises(ValueError):
        NoiseSpec(intensity=-0.1, master_seed=0)
    with pytest.raises(ValueError):
        NoiseSpec(intensity=0.1, master_seed=0, member=-1)
    bare = NoiseSpec(intensity=0.1, master_seed=0)
    with pytest.raises(ValueError):
        bare.sharpness_at(EPS)
    sched = EpsilonSchedule(alpha=1.5)
    tied = NoiseSpec(intensity=0.1, master_seed=0, schedule=sched)
    hx, ht = tied.sharpness_at(EPS)
    assert hx == ht == sched.h(EPS)
    half = NoiseSpec(intensity=0.1, master_seed=0, schedule=sched, temporal_sharpness=32.0)
    assert half.sharpness_at(EPS) == (sched.h(EPS), 32.0)


def _build(member, seed):
    spec = _spec(member=member, seed=seed)
    forcing = white_noise_representative(spec, EPS, GRID, MESH).trajectory
    u0 = GridFunction(GRID, np.exp(-GRID.x**2 / 8))
    op = -0.5
    return CauchyProblem(1.5, op, zero_nonlinearity(), u0, MESH, forcing=forcing, grid=GRID)


def test_ensemble_single_member_moments():
    stats, reports = ensemble_run(_build, 1, 77)
    assert stats.n_ok == 1 and stats.all_ok
    assert not np.any(stats.variance)
    assert not np.any(stats.std_error)
    assert reports[0].converged


def test_ensemble_reduction_is_order_fixed():
    s1, _ = ensemble_run(_build, 5, 77)
    s2, _ = ensemble_run(_build, 5, 77)
    assert np.array_equal(s1.mean, s2.mean)
    assert np.array_equal(s1.variance, s2.variance)


def test_ensemble_excludes_failed_members():
    calls = {"n": 0}

    def flaky_solve(problem, opts):
        calls["n"] += 1
        if calls["n"] == 2:
            raise DivergenceError("boom")
        from fracwave import solve_kernel_form

        return solve_kernel_form(problem, opts)

    stats, reports = ensemble_run(_build, 3, 77, solve=flaky_solve)
    assert stats.n_members == 3 and stats.n_ok == 2
    assert stats.statuses[1].startswith("failed:")
    assert reports[1] is None

    def always_fails(problem, opts):
        raise DivergenceError("boom")

    with pytest.raises(FracwaveError):
        ensemble_run(_build, 3, 77, solve=always_fails)
    with pytest.raises(ValueError):
        ensemble_run(_build, 0, 77)


def test_initial_data_grid_check():
    other = SpatialGrid(8.0, 64)
    u0 = GridFunction(other, np.zeros(64))
    with pytest.raises(ValueError):
        stochastic_initial_data(u0, _spec(), EPS, GRID)
