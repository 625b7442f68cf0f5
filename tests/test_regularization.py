"""Kernel family, width schedule, smoothed coefficients, and the norm gate."""

import math
import warnings

import numpy as np
import pytest

from fracwave import (
    CoefficientField,
    EpsilonSchedule,
    NormGateError,
    ResolutionError,
    SingularOrderError,
    SizeError,
    SpatialGrid,
    association_diagnostic,
    build_operator,
    check_norm_gate,
    h_schedule,
    make_mollifier,
    operator_norm_estimate,
)
from fracwave.fractional import GridFunction, liouville_multiplier
from fracwave.regularization import BUMP_NORMALIZATION, GUARD_EPS


def _signed_displacement(grid):
    # sample index m corresponds to displacement m*dx wrapped to [-L, L)
    d = grid.dx * np.arange(grid.n_points)
    return np.where(d >= grid.half_length, d - 2.0 * grid.half_length, d)


def test_bump_normalization_constant():
    # reciprocal of the mass of exp(-1/(1-y^2)); trapezoid is spectrally
    # accurate here because every derivative vanishes at the endpoints
    y = np.linspace(-1.0, 1.0, 20001)
    with np.errstate(divide="ignore", over="ignore"):
        prof = np.where(np.abs(y) < 1.0, np.exp(-1.0 / (1.0 - y**2)), 0.0)
    mass = np.trapezoid(prof, y)
    assert abs(BUMP_NORMALIZATION - 1.0 / mass) <= 1e-12


@pytest.mark.parametrize("shape,radius_factor", [("bump", 1.0), ("truncated_gaussian", 4.0)])
def test_mollifier_mass_and_support(shape, radius_factor):
    grid = SpatialGrid(16.0, 256)
    moll = make_mollifier(shape, 1.5, grid)
    assert abs(moll.samples.sum() * grid.dx - 1.0) <= 1e-14
    assert np.all(moll.samples >= 0.0)
    assert abs(moll.support_radius - radius_factor / 1.5) <= 1e-12
    # no samples outside the kernel support
    outside = np.abs(_signed_displacement(grid)) > moll.support_radius + grid.dx
    assert not np.any(moll.samples[outside])
    # symbol at frequency zero is the mass
    assert abs(moll.symbol[0] - 1.0) <= 1e-14


def test_mollifier_resolution_gate():
    grid = SpatialGrid(16.0, 64)  # dx = 0.5, four cells = 2.0
    with pytest.raises(ResolutionError):
        make_mollifier("bump", 2.0, grid)
    with pytest.raises(ValueError):
        make_mollifier("triangle", 0.5, grid)


def test_width_schedule_guard_and_clamps():
    with pytest.warns(UserWarning):
        h = h_schedule(GUARD_EPS * 1.01, 1.5, "theorem", 2.0)
    assert h == 1.0
    # enormous kappa hits the 1/eps ceiling
    assert h_schedule(2.0**-6, 1.5, "theorem", 1e9) == 2.0**6
    with pytest.raises(ValueError):
        h_schedule(1.5, 1.5, "theorem", 2.0)
    with pytest.raises(SingularOrderError):
        h_schedule(2.0**-6, 2.0, "theorem", 2.0)
    with pytest.raises(ValueError):
        h_schedule(2.0**-6, 1.5, "spacetime", 2.0)
    with pytest.raises(ValueError):
        h_schedule(2.0**-6, 1.5, "theorem", -1.0)


def test_width_schedule_exponent_relation():
    # same iterated-log base, wave exponent is one fifth of the theorem one
    eps, alpha, kappa = 2.0**-8, 1.5, 2.0
    ht = h_schedule(eps, alpha, "theorem", kappa, h_min=0.1)
    hw = h_schedule(eps, alpha, "wave_time", kappa, h_min=0.1)
    assert abs((hw / kappa) ** 5 - ht / kappa) <= 1e-12
    assert h_schedule(eps, alpha, "wave_timespace", kappa, h_min=0.1) == hw


def test_schedule_ladder():
    sched = EpsilonSchedule(alpha=1.5, k_min=4, k_max=9)
    eps = sched.epsilons
    assert eps.size == 6
    assert np.all(np.diff(eps) < 0.0)
    assert eps[0] == 2.0**-4 and eps[-1] == 2.0**-9
    e = float(eps[2])
    assert sched.coeff_width(e) == 2.0 * sched.h(e)
    assert sched.cap(e) == h_schedule(e, 1.5, "theorem", sched.kappa_cap)
    with pytest.raises(ValueError):
        EpsilonSchedule(alpha=2.5)
    with pytest.raises(ValueError):
        EpsilonSchedule(alpha=1.5, k_min=6, k_max=4)


def test_constant_coefficient_short_circuit():
    grid = SpatialGrid(16.0, 256)
    sched = EpsilonSchedule(alpha=1.5)
    field = CoefficientField(grid, np.full(grid.n_points, 2.5))
    # smoothing a constant must not touch it, at any ladder depth
    out = field.smoothed(2.0**-20, sched)
    assert np.array_equal(out, field.raw)


def test_nonconstant_coefficient_smoothing():
    grid = SpatialGrid(16.0, 512)
    sched = EpsilonSchedule(alpha=1.5)
    raw = 1.0 + 0.25 / np.cosh(grid.x)
    field = CoefficientField(grid, raw)
    eps = 2.0**-5
    out = field.smoothed(eps, sched)
    assert not np.array_equal(out, raw)
    assert np.max(np.abs(out - raw)) <= 0.05  # mild smoothing, small change
    # repeated lookups come from the cache
    again = field.smoothed(eps, sched)
    assert np.array_equal(out, again)
    with pytest.raises(SizeError):
        CoefficientField(grid, np.ones(8))
    with pytest.raises(ValueError):
        CoefficientField(grid, np.full(grid.n_points, np.inf))


def test_operator_assembly_and_apply():
    grid = SpatialGrid(16.0, 256)
    moll = make_mollifier("bump", 1.0, grid)
    coeff = 1.0 + 0.1 * np.sin(np.pi * grid.x / 16.0)
    op = build_operator("second_derivative", 0.7, coeff, moll, grid, eps=2.0**-5)
    assert op.space_order == 2.0  # forced for the Laplacian kind
    v = np.exp(-grid.x**2 / 8)
    dense = op.materialize()
    assert np.max(np.abs(op.apply(v) - dense @ v)) <= 1e-10
    # adjoint consistency under the flat inner product
    u = np.cos(np.pi * grid.x / 16.0)
    lhs = np.vdot(u, op.apply(v))
    rhs = np.vdot(op.apply_adjoint(u), v)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
    assert np.max(np.abs(op.symbol - moll.symbol * -(grid.xi**2))) <= 1e-12
    with pytest.raises(ValueError):
        build_operator("gradient", 1.5, coeff, moll, grid)
    with pytest.raises(SingularOrderError):
        build_operator("riesz", 2.5, coeff, moll, grid)
    other = make_mollifier("bump", 1.0, SpatialGrid(16.0, 512))
    with pytest.raises(SizeError):
        build_operator("riesz", 1.5, coeff, other, grid)


@pytest.mark.parametrize("kind", ["second_derivative", "riesz"])
def test_real_input_takes_the_real_transform(kind):
    grid = SpatialGrid(16.0, 256)
    moll = make_mollifier("bump", 1.0, grid)
    coeff = 1.0 + 0.25 / np.cosh(grid.x)
    op = build_operator(kind, 1.5, coeff, moll, grid, eps=2.0**-5)
    rng = np.random.Generator(np.random.Philox(key=0x5E))
    rows = rng.standard_normal((3, grid.n_points))
    real = op.apply(rows)
    assert real.dtype == np.float64
    full = op.apply(rows.astype(complex))
    assert full.dtype == np.complex128
    bound = 1e-14 * np.linalg.norm(rows, axis=1) * np.abs(op.symbol).max() * coeff.max()
    assert np.all(np.linalg.norm(real - full, axis=1) <= bound)
    # the kernel convolution keeps real samples real the same way
    smoothed = moll.convolve(rows)
    assert smoothed.dtype == np.float64
    assert np.max(np.abs(smoothed - moll.convolve(rows.astype(complex)))) <= 1e-14 * np.abs(rows).max()


@pytest.mark.parametrize("kind", ["second_derivative", "liouville_left", "liouville_right", "riesz"])
def test_sharp_operator_is_the_bare_multiplier(kind):
    # without a mollifier the action is c * ifft(base * fft(v)), the sharp formula
    grid = SpatialGrid(16.0, 128)
    c = 0.75
    op = build_operator(kind, 1.5, np.full(grid.n_points, c), None, grid)
    if kind == "second_derivative":
        base = -(grid.xi**2)
    else:
        base = liouville_multiplier(kind.removeprefix("liouville_"), 1.5, grid)
    rng = np.random.Generator(np.random.Philox(key=0x5A))
    real = rng.standard_normal((2, grid.n_points))
    for v in (real, real + 1j * rng.standard_normal((2, grid.n_points))):
        expected = c * np.fft.ifft(base * np.fft.fft(v, axis=-1), axis=-1)
        out = op.apply(v)
        assert np.max(np.abs(out - expected)) <= 1e-14 * np.abs(expected).max()
    if kind in ("second_derivative", "riesz"):
        assert op.apply(real).dtype == np.float64
    # order 2 is the sharp route's own: the mollified operator still rejects it
    if kind != "second_derivative":
        assert build_operator(kind, 2.0, np.ones(grid.n_points), None, grid).space_order == 2.0
        with pytest.raises(SingularOrderError):
            build_operator(kind, 2.0, np.ones(grid.n_points), make_mollifier("bump", 1.0, grid), grid)


def test_liouville_kinds_stay_complex_on_real_input():
    grid = SpatialGrid(16.0, 64)
    moll = make_mollifier("bump", 1.0, grid)
    op = build_operator("liouville_left", 1.5, np.ones(grid.n_points), moll, grid, eps=2.0**-5)
    out = op.apply(np.exp(-grid.x**2 / 8))
    # (i xi)**s has no mirror image at the Nyquist mode: the imaginary part is genuine
    assert out.dtype == np.complex128 and np.max(np.abs(out.imag)) > 0.0


def test_norm_estimate_matches_dense():
    grid = SpatialGrid(16.0, 64)
    moll = make_mollifier("bump", 0.4, grid)
    coeff = 1.0 + 0.2 * np.cos(np.pi * grid.x / 16.0)
    op = build_operator("second_derivative", 2.0, coeff, moll, grid, eps=2.0**-4)
    est = operator_norm_estimate(op)
    exact = np.linalg.norm(op.materialize(), 2)
    assert abs(est.value - exact) <= 1e-3 * exact
    # the carried estimate is computed once
    assert op.norm_estimate().value == op.norm_estimate().value


def test_norm_gate_trips_on_tight_cap():
    grid = SpatialGrid(16.0, 256)
    moll = make_mollifier("bump", 1.0, grid)
    sched = EpsilonSchedule(alpha=1.5)
    tight = EpsilonSchedule(alpha=1.5, kappa_cap=0.0)  # cap clamps to h_min = 1
    coeff = np.full(grid.n_points, 2.0)
    op = build_operator("second_derivative", 2.0, coeff, moll, grid, eps=2.0**-5)
    value = check_norm_gate(op, sched)
    assert 1.0 < value <= sched.cap(2.0**-5)
    with pytest.raises(NormGateError):
        check_norm_gate(op, tight)


def test_association_errors_decrease():
    # wave scenario: the width schedule clears its floor on every rung, so
    # each ladder point carries a genuinely different operator
    grid = SpatialGrid(16.0, 512)
    sched = EpsilonSchedule(alpha=1.5, k_min=4, k_max=8)
    raw = 1.0 + 0.25 / np.cosh(grid.x)
    field = CoefficientField(grid, raw)
    ops = {}
    for eps in sched.epsilons:
        e = float(eps)
        moll = make_mollifier("bump", sched.h(e), grid)
        ops[e] = build_operator("second_derivative", 2.0, field.smoothed(e, sched), moll, grid, eps=e)
    probe = GridFunction(grid, np.exp(-grid.x**2 / 8))
    table = association_diagnostic(ops, [probe], raw)
    assert table.errors.shape == (len(ops), 1)
    assert table.strictly_decreasing
    assert table.final_errors[0] < table.errors[0, 0]
    with pytest.raises(ValueError):
        association_diagnostic({}, [probe], raw)
