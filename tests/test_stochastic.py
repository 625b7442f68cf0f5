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
    moderateness_scan,
    mollified_variance,
    stochastic_initial_data,
    white_noise_representative,
    zero_nonlinearity,
)
from fracwave import stochastic
from fracwave.stochastic import _convolve_time, _smooth_length, _time_kernel

GRID = SpatialGrid(16.0, 64)
MESH = TimeMesh(0.25, 64)
EPS = 2.0**-6


def _spec(member=0, intensity=0.05, seed=77, hx=0.5, ht=32.0):
    return NoiseSpec(intensity=intensity, master_seed=seed, member=member,
                     spatial_sharpness=hx, temporal_sharpness=ht)


# the last two pad n + m = 513 to 540 and 1561 to 1600, where a power of two would be 1024 and 2048
@pytest.mark.parametrize("n, m_max", [(40, 3), (40, 40), (40, 57), (1, 4), (33, 32), (257, 256), (1025, 536)])
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


def _brute_smooth_length(n):
    """The least integer >= n with no prime factor above 5, by trial."""
    k = n
    while True:
        rest = k
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return k
        k += 1


def test_smooth_length_is_the_least_5_smooth_length():
    assert [_smooth_length(n) for n in range(1, 5001)] == [_brute_smooth_length(n) for n in range(1, 5001)]


def _convolve_time_axis0(values, taps, dt):
    """The time smoothing with both transforms along axis 0, as it ran before the transposes."""
    n = values.shape[0]
    m_max = (taps.size - 1) // 2
    m = min(m_max, n - 1)
    kept = taps[m_max - m : m_max + m + 1] * dt
    size = _smooth_length(n + m)
    spectrum = np.fft.rfft(values, n=size, axis=0)
    spectrum *= np.fft.rfft(kept, n=size)[:, None]
    return np.fft.irfft(spectrum, n=size, axis=0)[m : m + n].copy()


# the last two kernels are longer than their windows: m is clamped to n - 1
@pytest.mark.parametrize("n, points, n_taps", [(257, 256, 313), (513, 64, 537), (40, 5, 115), (1, 3, 9)])
def test_time_convolution_equals_the_axis0_transforms_bit_for_bit(n, points, n_taps):
    rng = np.random.Generator(np.random.Philox(key=0xC1))
    values = rng.standard_normal((n, points))
    taps = rng.uniform(0.0, 1.0, n_taps)
    got = _convolve_time(values, taps, 0.01)
    assert got.flags.c_contiguous
    assert np.array_equal(got, _convolve_time_axis0(values, taps, 0.01))


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
    # support radius 1/sharpness: at most 1024 horizons, checked before any tap exists
    mesh = TimeMesh(1.0, 16)
    assert _time_kernel("bump", 1.0 / 1024.0, mesh).size == 2 * 1024 * 16 + 1
    with pytest.raises(ResolutionError, match="exceeds 1024 horizons"):
        _time_kernel("bump", 1.0 / 1025.0, mesh)
    with pytest.raises(ResolutionError):
        mollified_variance(_spec(ht=1e-300), EPS, GRID, MESH)


def test_overflowing_variance_is_a_numerical_failure():
    with pytest.raises(FracwaveError, match="overflows"):
        mollified_variance(_spec(intensity=1e300), EPS, GRID, MESH)


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


def _ladder_spec(seed=77, member=0, intensity=0.05):
    """Fixed spatial sharpness, temporal sharpness from a three-rung schedule."""
    sched = EpsilonSchedule(alpha=1.5, k_min=4, k_max=6)
    return NoiseSpec(intensity=intensity, master_seed=seed, member=member, spatial_sharpness=0.5, schedule=sched)


def _drawn_fresh(spec, eps, grid, mesh):
    """The field without the memo: draw and scale the cells, smooth in space, then in time."""
    moll, taps = stochastic._kernels(spec, eps, grid, mesh)
    draws = stochastic._stream(spec.master_seed, spec.member, 0).standard_normal((mesh.n_nodes, grid.n_points))
    draws *= spec.intensity / math.sqrt(grid.dx * mesh.dt)
    return _convolve_time(moll.convolve(draws), taps, mesh.dt)


def test_an_eps_ladder_draws_its_forcing_cells_once(monkeypatch):
    spec = _ladder_spec()
    streams = []
    stream = stochastic._stream
    monkeypatch.setattr(stochastic, "_stream", lambda *key: streams.append(key) or stream(*key))
    stochastic._cell_spectrum.cache_clear()
    fields = {}

    def build(eps):
        fields[eps] = white_noise_representative(spec, eps, GRID, MESH).trajectory.values
        u0 = GridFunction(GRID, np.exp(-GRID.x**2 / 8))
        return CauchyProblem(1.5, -0.5, zero_nonlinearity(), u0, MESH, forcing=fields[eps], grid=GRID)

    report = moderateness_scan(build, spec.schedule)
    assert report.statuses == ["ok"] * 3
    assert streams == [(77, 0, 0)]
    # the temporal kernel changes along the ladder, so every rung has its own field
    values = list(fields.values())
    assert not np.array_equal(values[0], values[1]) and not np.array_equal(values[1], values[2])
    for eps, field in fields.items():
        stochastic._cell_spectrum.cache_clear()
        cold = white_noise_representative(spec, eps, GRID, MESH).trajectory.values
        assert np.array_equal(field, cold)
        assert np.array_equal(cold, _drawn_fresh(spec, eps, GRID, MESH))


def test_the_cell_memo_misses_on_any_other_key():
    base = (77, 0, 0, 65, 64, 0.5)
    stochastic._cell_spectrum.cache_clear()
    first = stochastic._cell_spectrum(*base)
    assert stochastic._cell_spectrum(*base) is first
    for k, value in enumerate((78, 1, 1, 33, 32, 0.25)):
        key = base[:k] + (value,) + base[k + 1 :]
        misses = stochastic._cell_spectrum.cache_info().misses
        spectrum = stochastic._cell_spectrum(*key)
        assert stochastic._cell_spectrum.cache_info().misses == misses + 1
        assert spectrum.shape != first.shape or not np.array_equal(spectrum, first)
    # through the public function: a stale hit would hand back the weaker field
    eps = 2.0**-5
    weak = white_noise_representative(_ladder_spec(intensity=0.05), eps, GRID, MESH).trajectory.values
    strong = white_noise_representative(_ladder_spec(intensity=0.1), eps, GRID, MESH).trajectory.values
    assert np.array_equal(strong, 2.0 * weak)
    for spec in (_ladder_spec(seed=78), _ladder_spec(member=1)):
        field = white_noise_representative(spec, eps, GRID, MESH).trajectory.values
        assert np.array_equal(field, _drawn_fresh(spec, eps, GRID, MESH))
        assert not np.array_equal(field, weak)


def test_the_cached_spectrum_is_read_only():
    spectrum = stochastic._cell_spectrum(77, 0, 0, 65, 64, 0.5)
    with pytest.raises(ValueError):
        spectrum[0, 0] = 0.0


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
    s1, reports = ensemble_run(_build, 5, 77)
    s2, _ = ensemble_run(_build, 5, 77)
    assert np.array_equal(s1.mean, s2.mean)
    assert np.array_equal(s1.variance, s2.variance)
    # the moments are the member-order running sums, bit for bit
    acc = 0.0
    for report in reports:
        acc = acc + report.trajectory
    sq = 0.0
    for report in reports:
        sq = sq + np.abs(report.trajectory - acc / 5) ** 2
    assert np.array_equal(s1.mean, acc / 5)
    assert np.array_equal(s1.variance, sq / 4)


def test_ensemble_excludes_failed_members(monkeypatch):
    calls = {"n": 0}
    solve = stochastic.solve_kernel_form

    def flaky_solve(problem, opts):
        calls["n"] += 1
        if calls["n"] == 2:
            raise DivergenceError("boom")
        return solve(problem, opts)

    monkeypatch.setattr(stochastic, "solve_kernel_form", flaky_solve)
    stats, reports = ensemble_run(_build, 3, 77)
    assert stats.n_members == 3 and stats.n_ok == 2
    assert stats.statuses[1].startswith("failed:")
    assert reports[1] is None

    def always_fails(problem, opts):
        raise DivergenceError("boom")

    monkeypatch.setattr(stochastic, "solve_kernel_form", always_fails)
    with pytest.raises(FracwaveError):
        ensemble_run(_build, 3, 77)
    with pytest.raises(ValueError):
        ensemble_run(_build, 0, 77)


def test_initial_data_grid_check():
    other = SpatialGrid(8.0, 64)
    u0 = GridFunction(other, np.zeros(64))
    with pytest.raises(ValueError):
        stochastic_initial_data(u0, _spec(), EPS, GRID)
