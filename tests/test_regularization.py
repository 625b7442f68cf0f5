"""Kernel family, width schedule, smoothed coefficients, and the norm gate."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from fracwave import (
    CoefficientField,
    EpsilonSchedule,
    NormEstimate,
    NormGateError,
    RegularizedOperator,
    ResolutionError,
    SingularOrderError,
    SizeError,
    SpatialGrid,
    approximate_operator,
    association_diagnostic,
    build_operator,
    check_norm_gate,
    h_schedule,
    make_mollifier,
    operator_norm_estimate,
    parse_config,
)
from fracwave import regularization
from fracwave.cli import assemble_scenario
from fracwave.fractional import GridFunction, liouville_multiplier
from fracwave.regularization import BUMP_NORMALIZATION, GUARD_EPS


KINDS = ("second_derivative", "liouville_left", "liouville_right", "riesz")


def _dense(op):
    """The operator's matrix: its action on the basis vectors."""
    return op.apply(np.eye(op.dim)).T


def _apply_adjoint(op, values):
    """A* under the flat inner product: the coefficient, then conj(symbol) in frequency space."""
    return np.fft.ifft(np.conj(op.symbol) * np.fft.fft(op.coeff * values, axis=-1), axis=-1)


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
    # no samples outside the kernel support, of radius radius_factor / sharpness
    outside = np.abs(_signed_displacement(grid)) > radius_factor / 1.5 + grid.dx
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
    # the deepest level keeps eps and 1/eps finite and positive; one more does not
    deepest = EpsilonSchedule(alpha=1.5, k_min=1023, k_max=1023).epsilons[0]
    assert deepest > 0.0 and math.isfinite(1.0 / deepest)
    with pytest.raises(ValueError):
        EpsilonSchedule(alpha=1.5, k_max=1024)


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
    again = field.smoothed(eps, sched)
    assert np.array_equal(out, again)
    with pytest.raises(SizeError):
        CoefficientField(grid, np.ones(8))
    with pytest.raises(ValueError):
        CoefficientField(grid, np.full(grid.n_points, np.inf))


def test_one_field_smooths_at_each_schedules_width():
    # the smoothing width comes from the schedule, so one field asked at the
    # same eps under two schedules gives two profiles, each a fresh field's
    grid = SpatialGrid(16.0, 512)
    raw = 1.0 + 0.25 / np.cosh(grid.x)
    field = CoefficientField(grid, raw)
    eps = 2.0**-5
    wide = EpsilonSchedule(alpha=1.5, coeff_width_factor=2.0)
    narrow = EpsilonSchedule(alpha=1.5, coeff_width_factor=0.5)
    first = field.smoothed(eps, wide)
    second = field.smoothed(eps, narrow)
    assert np.max(np.abs(first - second)) > 1e-2
    for sched, got in ((wide, first), (narrow, second)):
        want = make_mollifier("bump", sched.coeff_width(eps), grid).convolve(raw)
        assert np.array_equal(got, want)
        assert np.array_equal(got, CoefficientField(grid, raw).smoothed(eps, sched))


def test_operator_assembly_and_apply():
    grid = SpatialGrid(16.0, 256)
    moll = make_mollifier("bump", 1.0, grid)
    coeff = 1.0 + 0.1 * np.sin(np.pi * grid.x / 16.0)
    op = build_operator("second_derivative", 0.7, coeff, moll, grid, eps=2.0**-5)
    assert op.space_order == 2.0  # forced for the Laplacian kind
    v = np.exp(-grid.x**2 / 8)
    dense = _dense(op)
    assert np.max(np.abs(op.apply(v) - dense @ v)) <= 1e-10
    # the adjoint oracle of the sample-space norm estimate, under the flat inner product
    u = np.cos(np.pi * grid.x / 16.0)
    lhs = np.vdot(u, op.apply(v))
    rhs = np.vdot(_apply_adjoint(op, u), v)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)
    assert np.max(np.abs(op.symbol - moll.symbol * -(grid.xi**2))) <= 1e-12
    with pytest.raises(ValueError):
        build_operator("gradient", 1.5, coeff, moll, grid)
    with pytest.raises(SingularOrderError):
        build_operator("riesz", 2.5, coeff, moll, grid)
    other = make_mollifier("bump", 1.0, SpatialGrid(16.0, 512))
    with pytest.raises(SizeError):
        build_operator("riesz", 1.5, coeff, other, grid)


@pytest.mark.parametrize("kind", KINDS)
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


def _coefficient_pass(op, values):
    """The action as the symbol's transform followed by a pass of the coefficient samples."""
    return op.coeff * regularization._multiply(op.symbol, values)


@pytest.mark.parametrize("kind", KINDS)
def test_constant_coefficient_apply_is_the_multiplier(kind):
    grid = SpatialGrid(16.0, 256)
    moll = make_mollifier("bump", 1.0, grid)
    rng = np.random.Generator(np.random.Philox(key=0x5F))
    rows = rng.standard_normal((3, grid.n_points))
    for c in (1.0, 0.5, 3.7):
        op = build_operator(kind, 1.5, np.full(grid.n_points, c), moll, grid, eps=2.0**-5)
        assert op.diagonal is op.diagonal and not op.diagonal.flags.writeable
        out, want = op.apply(rows), _coefficient_pass(op, rows)
        assert out.dtype == np.float64
        if c == 1.0:
            assert np.array_equal(out, want)
        else:
            # c * (symbol * X) against (c * symbol) * X: a few ulp of the row's scale
            assert np.abs(out - want).max() <= 8 * np.finfo(float).eps * np.abs(want).max()
        # complex rows cross the real operator part by part, bit for bit
        wave = rows + 1j * rows[::-1]
        parts = np.empty(wave.shape, complex)
        parts.real, parts.imag = op.apply(wave.real), op.apply(wave.imag)
        assert np.array_equal(op.apply(wave), parts)
    variable = build_operator(kind, 1.5, 1.0 + 0.25 / np.cosh(grid.x), moll, grid, eps=2.0**-5)
    assert variable.diagonal is None
    assert np.array_equal(variable.apply(rows), _coefficient_pass(variable, rows))


@pytest.mark.parametrize("mollified", [True, False], ids=["mollified", "sharp"])
@pytest.mark.parametrize("kind", KINDS)
def test_the_even_kinds_have_a_real_diagonal(kind, mollified):
    grid = SpatialGrid(16.0, 64)
    moll = make_mollifier("bump", 1.0, grid) if mollified else None
    op = build_operator(kind, 1.5, np.full(grid.n_points, 0.7), moll, grid)
    even = kind in ("second_derivative", "riesz")
    assert op.diagonal.dtype == (np.float64 if even else np.complex128)
    assert op.symbol.dtype == op.diagonal.dtype


def test_a_coefficient_that_is_not_finite_has_no_diagonal_and_warns_nothing():
    grid = SpatialGrid(16.0, 64)
    moll = make_mollifier("bump", 1.0, grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (math.inf, -math.inf, math.nan):
            one = np.ones(grid.n_points)
            one[10] = bad
            for coeff in (one, np.full(grid.n_points, bad)):
                assert build_operator("riesz", 1.5, coeff, moll, grid).diagonal is None
        # finite samples whose product with the symbol overflows keep it, with inf entries
        huge = build_operator("second_derivative", 2.0, np.full(grid.n_points, 1e308), moll, grid)
        assert np.isinf(huge.diagonal).any()


@pytest.mark.parametrize("kind", KINDS)
def test_sharp_operator_is_the_bare_multiplier(kind):
    # without a mollifier the action is c * ifft(base * fft(v)), the sharp formula
    grid = SpatialGrid(16.0, 128)
    c = 0.75
    op = build_operator(kind, 1.5, np.full(grid.n_points, c), None, grid)
    if kind == "second_derivative":
        base = -(grid.xi**2)
    else:
        base = liouville_multiplier(kind.removeprefix("liouville_"), 1.5, grid)
        base[64] = base[64].real  # the operator keeps the real part of the Nyquist entry
    rng = np.random.Generator(np.random.Philox(key=0x5A))
    real = rng.standard_normal((2, grid.n_points))
    for v in (real, real + 1j * rng.standard_normal((2, grid.n_points))):
        expected = c * np.fft.ifft(base * np.fft.fft(v, axis=-1), axis=-1)
        out = op.apply(v)
        assert np.max(np.abs(out - expected)) <= 1e-14 * np.abs(expected).max()
    assert op.apply(real).dtype == np.float64
    # order 2 is the sharp route's own: the mollified operator still rejects it
    if kind != "second_derivative":
        assert build_operator(kind, 2.0, np.ones(grid.n_points), None, grid).space_order == 2.0
        with pytest.raises(SingularOrderError):
            build_operator(kind, 2.0, np.ones(grid.n_points), make_mollifier("bump", 1.0, grid), grid)


def _real_rows_with_nyquist(n):
    rng = np.random.Generator(np.random.Philox(key=0x4E))
    return rng.standard_normal((2, n)) + np.cos(np.pi * np.arange(n))


@pytest.mark.parametrize("mollified", [True, False], ids=["mollified", "sharp"])
@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_maps_reals_to_reals(kind, mollified):
    # the real transform's action is the complex one, whose imaginary part it
    # drops, on real rows that carry Nyquist content; both to rounding of the
    # majorant max|c| * max|symbol| * max|v|
    for n in (64, 256, 1024):
        grid = SpatialGrid(16.0, n)
        coeff = 1.0 + 0.25 / np.cosh(grid.x)
        moll = make_mollifier("bump", 1.0, grid) if mollified else None
        rows = _real_rows_with_nyquist(n)
        for order in (0.5, 1.5):
            op = build_operator(kind, order, coeff, moll, grid)
            out = op.apply(rows)
            full = coeff * np.fft.ifft(op.symbol * np.fft.fft(rows, axis=-1), axis=-1)
            scale = coeff.max() * np.abs(op.symbol).max() * np.abs(rows).max()
            assert out.dtype == np.float64
            assert np.abs(out - full.real).max() <= 1e-13 * scale
            assert np.abs(full.imag).max() <= 1e-13 * scale


@pytest.mark.parametrize("mollified", [True, False], ids=["mollified", "sharp"])
@pytest.mark.parametrize("kind", ["liouville_left", "liouville_right"])
def test_liouville_action_without_nyquist_content_is_the_complex_multiplier(kind, mollified):
    # the symmetrized symbol differs from (+-i xi)**s at the Nyquist mode alone,
    # so the two actions agree to rounding, eps * max|c| * max|symbol| * max|v|
    for n in (64, 256, 1024):
        grid = SpatialGrid(16.0, n)
        coeff = 1.0 + 0.25 / np.cosh(grid.x)
        moll = make_mollifier("bump", 1.0, grid) if mollified else None
        spectrum = np.fft.fft(_real_rows_with_nyquist(n), axis=-1)
        spectrum[:, n // 2] = 0.0
        rows = np.fft.ifft(spectrum, axis=-1).real
        symbol = liouville_multiplier(kind.removeprefix("liouville_"), 1.5, grid)
        if mollified:
            symbol = moll.symbol * symbol
        old = coeff * np.fft.ifft(symbol * np.fft.fft(rows, axis=-1), axis=-1)
        new = build_operator(kind, 1.5, coeff, moll, grid).apply(rows)
        assert np.abs(new - old).max() <= 1e-14 * coeff.max() * np.abs(symbol).max() * np.abs(rows).max()


def _sample_space_norm_estimate(op, max_steps=10_000):
    """The power iteration v <- A*A v on samples: one apply and one adjoint apply per step."""
    n = op.dim
    rng = np.random.Generator(np.random.Philox(key=0x9E3779B97F4A7C15))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = v / np.linalg.norm(v)
    sigma = 0.0
    for it in range(1, max_steps + 1):
        y = _apply_adjoint(op, op.apply(v))
        ny = np.linalg.norm(y)
        if not math.isfinite(ny):
            return NormEstimate(math.nan, it, False)
        if ny == 0.0:
            return NormEstimate(0.0, it, True)
        sigma_new = math.sqrt(float(np.real(np.vdot(v, y))))
        v = y / ny
        if it > 1 and abs(sigma_new - sigma) <= 1e-6 * max(sigma_new, 1e-300):
            return NormEstimate(sigma_new, it, True)
        sigma = sigma_new
    return NormEstimate(sigma, it, False)


def _gated_operator(kind, coefficient, mollified):
    grid = SpatialGrid(16.0, 64)
    moll = make_mollifier("bump", 0.4, grid) if mollified else None
    if coefficient == "constant":
        coeff = np.full(grid.n_points, 1.2)
    else:
        coeff = 1.0 + 0.2 * np.cos(np.pi * grid.x / 16.0)
    return build_operator(kind, 1.5, coeff, moll, grid, eps=2.0**-4)


@pytest.mark.parametrize("mollified", [True, False], ids=["mollified", "sharp"])
@pytest.mark.parametrize("coefficient", ["constant", "variable"])
@pytest.mark.parametrize("kind", ["second_derivative", "liouville_left", "liouville_right", "riesz"])
def test_norm_estimate_matches_dense(kind, coefficient, mollified):
    op = _gated_operator(kind, coefficient, mollified)
    est = operator_norm_estimate(op)
    # the iteration on Fourier coefficients takes the sample-space steps
    ref = _sample_space_norm_estimate(op)
    assert (est.iterations, est.converged) == (ref.iterations, ref.converged)
    assert abs(est.value - ref.value) <= 1e-14 * ref.value
    exact = np.linalg.norm(_dense(op), 2)
    assert abs(est.value - exact) <= 1e-3 * exact
    # the carried estimate is computed once
    assert op.norm_estimate() is op.norm_estimate()


@pytest.mark.parametrize("k", range(4, 13))
def test_constant_coefficient_closed_form_takes_the_sample_space_steps_on_the_ladder(k):
    # the default ladder's rungs: constant coefficient, 256 points, 107 to 424 steps
    grid = SpatialGrid(16.0, 256)
    field = CoefficientField(grid, np.ones(grid.n_points))
    op = approximate_operator("second_derivative", 2.0, field, EpsilonSchedule(alpha=1.5), 2.0**-k)
    est = operator_norm_estimate(op)
    ref = _sample_space_norm_estimate(op)
    assert (est.iterations, est.converged) == (ref.iterations, ref.converged)
    assert abs(est.value - ref.value) <= 1e-14 * ref.value


def _constant_operator(symbol):
    grid = SpatialGrid(16.0, symbol.size)
    return RegularizedOperator("riesz", 1.5, 2.0**-4, grid, np.full(grid.n_points, 1.2), symbol)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_constant_coefficient_with_a_symbol_that_is_not_finite_reads_nan_at_the_first_step(bad):
    symbol = np.ones(64, dtype=complex)
    symbol[5] = bad
    op = _constant_operator(symbol)
    est = operator_norm_estimate(op)
    with np.errstate(invalid="ignore"):
        ref = _sample_space_norm_estimate(op)
    assert math.isnan(est.value) and math.isnan(ref.value)
    assert (est.iterations, est.converged) == (ref.iterations, ref.converged) == (1, False)


def test_constant_coefficient_closed_form_stops_at_the_step_cap(monkeypatch):
    # a gain of 1 at one mode and 0.99 at the others needs 420 steps; under a
    # cap of 150, which ends inside the third block, both iterations give up
    # there.  (The 10 000-step cap itself is out of reach of a diagonal gain:
    # two distinct values change the Rayleigh quotient by at most a quarter of
    # their squared gap per step.)
    symbol = np.full(64, math.sqrt(0.99), dtype=complex)
    symbol[0] = 1.0
    op = _constant_operator(symbol)
    assert operator_norm_estimate(op).iterations == _sample_space_norm_estimate(op).iterations == 420
    monkeypatch.setattr(regularization, "_MAX_POWER_STEPS", 150)
    est = operator_norm_estimate(op)
    ref = _sample_space_norm_estimate(op, max_steps=150)
    assert (est.iterations, est.converged) == (ref.iterations, ref.converged) == (150, False)
    assert abs(est.value - ref.value) <= 1e-14 * ref.value


def test_zero_coefficient_has_norm_zero():
    grid = SpatialGrid(16.0, 64)
    op = build_operator("riesz", 1.5, np.zeros(grid.n_points), make_mollifier("bump", 0.4, grid), grid)
    assert operator_norm_estimate(op) == NormEstimate(0.0, 1, True) == _sample_space_norm_estimate(op)


@pytest.mark.parametrize("coefficient", ["constant", "variable"])
def test_norm_estimate_scales_with_the_coefficient_bitwise(coefficient):
    # entries of at most four significant bits: 2**k times them is exact even
    # where the peak is subnormal, so the estimate must be exactly 2**k times
    # the unit one, after the same steps, or inf where that leaves the range
    grid = SpatialGrid(16.0, 64)
    moll = make_mollifier("bump", 0.4, grid)
    c = np.full(grid.n_points, 1.25) if coefficient == "constant" else 1.0 + (np.arange(grid.n_points) % 8) / 8.0
    unit = operator_norm_estimate(build_operator("riesz", 1.5, c, moll, grid))
    assert unit.converged and unit.iterations > 1
    for k in (-1071, -1062, -1040, -1022, -1000, -700, -300, -1, 1, 300, 700, 1000, 1018, 1019, 1023):
        scaled = np.ldexp(c, k)
        assert np.array_equal(np.ldexp(scaled, -k), c)
        with np.errstate(over="ignore"):
            want = float(np.ldexp(unit.value, k))
        est = operator_norm_estimate(build_operator("riesz", 1.5, scaled, moll, grid))
        assert (est.value, est.iterations, est.converged) == (want, unit.iterations, True), k


@pytest.mark.parametrize("coefficient, per_step", [("constant", 0), ("variable", 2)])
def test_norm_estimate_transforms_per_step(coefficient, per_step, monkeypatch):
    op = _gated_operator("liouville_left", coefficient, True)
    # counted as fracwave.regularization sees numpy's transforms
    calls = []

    def counted(transform):
        def wrapper(*args, **kwargs):
            calls.append(transform.__name__)
            return transform(*args, **kwargs)

        return wrapper

    for name in ("fft", "ifft", "rfft", "irfft"):
        monkeypatch.setattr(regularization.np.fft, name, counted(getattr(regularization.np.fft, name)))
    regularization._power_start.cache_clear()  # the start vector is built once per grid size
    est = operator_norm_estimate(op)
    assert est.iterations > 10
    # one transform takes the start vector to its coefficients
    assert len(calls) == 1 + per_step * est.iterations


def test_norm_estimate_builds_its_start_once_per_grid(monkeypatch):
    regularization._power_start.cache_clear()
    built = []
    philox = np.random.Philox

    def counted(*args, **kwargs):
        built.append(kwargs)
        return philox(*args, **kwargs)

    monkeypatch.setattr(regularization.np.random, "Philox", counted)
    op, other = _gated_operator("liouville_left", "variable", True), _gated_operator("riesz", "constant", True)
    first = operator_norm_estimate(op)
    assert len(built) == 1
    # a second call, and another operator on the same grid, build no generator
    assert operator_norm_estimate(op) == first
    warm = operator_norm_estimate(other)
    assert len(built) == 1
    # and give what a cold start gives, bit for bit
    regularization._power_start.cache_clear()
    assert operator_norm_estimate(other) == warm and len(built) == 2
    # every call shares the cached vector, which no caller may change
    assert not regularization._power_start(op.dim).flags.writeable


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


@pytest.mark.parametrize("profile", ["constant", "variable"])
def test_norm_gate_rejects_a_norm_that_is_not_a_number(profile):
    # one coefficient entry that is not finite: the first iterate is NaN, and nan > cap would be False
    grid = SpatialGrid(16.0, 256)
    moll = make_mollifier("bump", 1.0, grid)
    for bad in (math.inf, -math.inf, math.nan):
        coeff = np.full(grid.n_points, 1.0) if profile == "constant" else 1.0 + 0.25 / np.cosh(grid.x)
        coeff[100] = bad
        op = build_operator("second_derivative", 2.0, coeff, moll, grid, eps=2.0**-5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = operator_norm_estimate(op)
            assert math.isnan(est.value) and est.iterations == 1 and not est.converged
            with pytest.raises(NormGateError, match=r"not finite \(nan\) at eps = 0.03125"):
                check_norm_gate(op, EpsilonSchedule(alpha=1.5))


def test_a_replaced_coefficient_is_gated_on_its_own_norm():
    # the estimate belongs to the fields it was computed from: ten times the
    # default operator's coefficient measures ten times its norm, over the cap
    parts = assemble_scenario(parse_config(""))
    op, schedule = parts.problem.operator, parts.schedule
    value = check_norm_gate(op, schedule)
    louder = dataclasses.replace(op, coeff=10.0 * op.coeff)
    assert louder.norm_estimate().value == pytest.approx(10.0 * value, rel=1e-6)
    assert value <= schedule.cap(op.eps) < louder.norm_estimate().value
    with pytest.raises(NormGateError, match="exceeds the schedule cap"):
        check_norm_gate(louder, schedule)
    # nor can the fields change under the estimate
    with pytest.raises(dataclasses.FrozenInstanceError):
        op.coeff = louder.coeff
    assert check_norm_gate(op, schedule) == value


def test_the_fields_are_read_only_copies_of_the_callers_arrays():
    # before, np.asarray kept the caller's coefficient: writing 10x into it left the
    # cached diagonal and norm (15.637) of the default operator behind
    parts = assemble_scenario(parse_config(""))
    op, schedule = parts.problem.operator, parts.schedule
    value, diagonal = check_norm_gate(op, schedule), op.diagonal.copy()
    for name in ("coeff", "symbol"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(op, name)[:] *= 10.0
    coeff, symbol = np.array(op.coeff), np.array(op.symbol)
    rebuilt = dataclasses.replace(op, coeff=coeff, symbol=symbol)
    assert not np.shares_memory(rebuilt.coeff, coeff) and not np.shares_memory(rebuilt.symbol, symbol)
    coeff *= 10.0
    symbol *= 10.0
    assert np.array_equal(rebuilt.diagonal, diagonal) and check_norm_gate(rebuilt, schedule) == value


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
    table = association_diagnostic(ops, probe, raw)
    assert table.errors.shape == (len(ops),)
    assert table.strictly_decreasing
    assert table.errors[-1] < table.errors[0]
    with pytest.raises(ValueError):
        association_diagnostic({}, probe, raw)
