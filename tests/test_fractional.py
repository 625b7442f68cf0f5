"""Quadrature weights, fractional derivatives, and grid containers."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracwave import (
    FracwaveError,
    GridFunction,
    SingularOrderError,
    SizeError,
    SpatialGrid,
    TimeMesh,
    build_operator,
    caputo_derivative,
    first_difference,
    liouville_multiplier,
    make_mollifier,
    pi_weights,
    rl_derivative,
    rl_integral,
    second_difference,
    sobolev_norms,
)
from fracwave import fractional
from fracwave.fractional import (
    _BLOCK_ROWS,
    _block_norms,
    _half_spectra,
    _samples,
    _second_integral,
    _weights_product,
    caputo_derivative_01,
)

G = math.gamma


def test_weight_rows_integrate_one():
    # J^g[1](t_n) = t_n^g / Gamma(g+1) must hold row by row
    dt = 0.03125
    w = pi_weights(0.75, 64, dt)
    t = dt * np.arange(64)
    exact = t[1:] ** 0.75 / G(1.75)
    rel = np.abs(w.sum(axis=1)[1:] - exact) / exact
    assert w[0].sum() == 0.0
    assert np.max(rel) <= 1e-13
    # t**(g + 1) at the last node leaves the double range: a numerical failure, not a bare overflow
    with pytest.raises(FracwaveError) as err:
        pi_weights(2.0, 4, 1e103)
    assert str(err.value) == (
        "product-integration weights of order 2 overflow double precision at t = 4e+103; shorten the horizon"
    )


def _pi_weights_by_offsets(gamma_ord, n_nodes, dt):
    """The weight matrix gathered from its kernel by an n x n offset index."""
    gp1 = gamma_ord + 1.0
    scale = 1.0 / math.gamma(gamma_ord + 2.0)
    ext = dt * np.arange(n_nodes + 1)
    extp = ext**gp1
    b = np.zeros(n_nodes)
    b[1:] = (extp[2 : n_nodes + 1] - 2.0 * extp[1:n_nodes] + extp[0 : n_nodes - 1]) / dt
    n_idx = np.arange(n_nodes)
    offsets = np.subtract.outer(n_idx, n_idx)
    w = np.where(offsets >= 1, b[np.clip(offsets, 0, n_nodes - 1)], 0.0)
    times = ext[:n_nodes]
    a = np.zeros(n_nodes)
    a[1:] = extp[0 : n_nodes - 1] / dt - (n_idx[1:] - 1.0 - gamma_ord) * (times[1:] ** gamma_ord)
    w[:, 0] = a
    np.fill_diagonal(w, dt**gamma_ord)
    w[0, :] = 0.0
    return w * scale


@pytest.mark.parametrize("n_nodes", [2, 3, 65, 257, 1025])
@pytest.mark.parametrize("gamma_ord", [0.2, 0.5, 1.0, 1.5, 2.0])
def test_weights_from_taps_equal_the_offset_gather_bit_for_bit(gamma_ord, n_nodes):
    dt = 0.7 / (n_nodes - 1)
    w = pi_weights(gamma_ord, n_nodes, dt)
    assert w.shape == (n_nodes, n_nodes) and w.flags.c_contiguous and w.flags.writeable
    assert w.tobytes() == _pi_weights_by_offsets(gamma_ord, n_nodes, dt).tobytes()


def _row_ranges(n_nodes):
    """The head block, an interior block, the last row and the whole matrix."""
    middle = n_nodes // 3
    return [(0, min(64, n_nodes)), (middle, min(middle + 64, n_nodes)), (n_nodes - 1, n_nodes), (0, n_nodes)]


@pytest.mark.parametrize("n_nodes", [2, 3, 65, 257, 1025])
@pytest.mark.parametrize("gamma_ord", [0.2, 0.5, 1.0, 1.5, 2.0])
def test_row_blocks_equal_the_dense_rows_bit_for_bit(gamma_ord, n_nodes):
    dt = 0.7 / (n_nodes - 1)
    dense = pi_weights(gamma_ord, n_nodes, dt)
    for s, e in _row_ranges(n_nodes):
        block = pi_weights(gamma_ord, n_nodes, dt, s, e)
        assert block.shape == (e - s, e) and block.flags.c_contiguous and block.flags.writeable
        assert block.tobytes() == dense[s:e, :e].tobytes()
        # the columns a block leaves out are the zeros above the diagonal
        assert not np.any(dense[s:e, e:])


def test_row_blocks_are_the_callers_own_and_ranges_are_checked():
    dt = 0.01
    block = pi_weights(1.5, 100, dt, 10, 20)
    block[:] = 7.0  # the cached taps are read-only and never handed out
    assert pi_weights(1.5, 100, dt, 10, 20).tobytes() == pi_weights(1.5, 100, dt)[10:20, :20].tobytes()
    for s, e in ((5, 5), (-1, 3), (0, 101), (20, 10)):
        with pytest.raises(SizeError):
            pi_weights(1.5, 100, dt, s, e)


@pytest.mark.parametrize("order", [math.nan, math.inf])
def test_a_non_finite_order_is_a_singular_order_before_any_tap(monkeypatch, order):
    def refuse(*args):
        raise AssertionError("a tap was computed")

    monkeypatch.setattr(fractional, "_weight_taps", refuse)
    mesh = TimeMesh(1.0, 8)
    for integrate in (lambda: pi_weights(order, 9, 0.125), lambda: rl_integral(np.ones(9), order, mesh)):
        with pytest.raises(SingularOrderError, match=f"got {order:g}$"):
            integrate()


def _dense_block_norms(gamma_ord, n_nodes, dt, start, rows):
    """||W[start:start + k, start:start + k]||_inf for k = 1..rows from the dense rows."""
    block = pi_weights(gamma_ord, n_nodes, dt)[start : start + rows, start : start + rows]
    return np.maximum.accumulate(np.abs(block).sum(axis=1))


def _assert_block_norms(gamma_ord, n_nodes, dt, start, rows):
    norms = _block_norms(gamma_ord, n_nodes, dt, start, rows)
    assert norms.shape == (rows,) and np.all(np.diff(norms) >= 0.0)
    # a sum of k nonnegative terms is accurate to (k - 1) unit roundoffs in any order
    dense = _dense_block_norms(gamma_ord, n_nodes, dt, start, rows)
    np.testing.assert_allclose(norms, dense, rtol=n_nodes * np.finfo(float).eps, atol=0.0)
    return norms


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.floats(1.0, 2.0, exclude_min=True),
    st.integers(3, 400),
    st.floats(1e-4, 1.0),
    st.floats(0.0, 1.0, exclude_max=True),
    st.floats(0.0, 1.0),
)
def test_block_norms_are_the_dense_row_sums(alpha, n_nodes, dt, start_frac, rows_frac):
    start = int(start_frac * n_nodes)
    rows = max(1, round(rows_frac * (n_nodes - start)))
    _assert_block_norms(alpha, n_nodes, dt, start, rows)


@pytest.mark.parametrize("n_nodes", [3, 65, 257, 1025])
@pytest.mark.parametrize("at", ["first", "second", "third", "last"])
@pytest.mark.parametrize("alpha", [1.1, 2.0])
def test_block_norms_at_the_ends_of_the_mesh(alpha, at, n_nodes):
    start = {"first": 0, "second": 1, "third": n_nodes // 3, "last": n_nodes - 1}[at]
    dt = 0.7 / (n_nodes - 1)
    norms = _assert_block_norms(alpha, n_nodes, dt, start, n_nodes - start)
    # row 0 of W is zero; a later one-row block is its diagonal alone
    diagonal = pi_weights(alpha, n_nodes, dt, start, start + 1)[0, start]
    assert norms[0] == (0.0 if start == 0 else abs(diagonal))


def _exact_taps(gamma_ord, n_nodes, dt):
    """The offset kernel b_1, ..., b_{n-1} and the first column at 40 digits, in _weight_taps' units."""
    with mpmath.workdps(40):
        g, step = mpmath.mpf(gamma_ord), mpmath.mpf(dt)
        scale = 1 / mpmath.gamma(g + 2)
        power = [mpmath.mpf(m) ** (g + 1) for m in range(n_nodes + 1)]
        offsets = [step**g * (power[m + 1] - 2 * power[m] + power[m - 1]) * scale for m in range(1, n_nodes)]
        first = [step**g * (power[m - 1] - (m - 1 - g) * mpmath.mpf(m) ** g) * scale for m in range(1, n_nodes)]
    return offsets, first


def _relative_errors(values, exact):
    with mpmath.workdps(40):
        return np.array([float(abs((mpmath.mpf(float(v)) - e) / e)) for v, e in zip(values, exact)])


@pytest.mark.parametrize("n_nodes", [3, 65, 1025])
@pytest.mark.parametrize("gamma_ord", [0.5, 1.5, 2.0])
def test_weight_taps_lose_digits_to_the_second_difference_of_powers(gamma_ord, n_nodes):
    # b_m is a second difference of t**(gamma + 1) near m**(gamma + 1), while
    # b_m itself is near gamma (gamma + 1) m**(gamma - 1): the relative error
    # grows like eps m**2 / (gamma (gamma + 1)), 5.7e-11 at order 1.5 on 1025
    # nodes.  This pins the present law; a fix should tighten it.
    dt = 1.0 / (n_nodes - 1)
    taps, first = fractional._weight_taps(gamma_ord, n_nodes, dt)
    exact_offsets, exact_first = _exact_taps(gamma_ord, n_nodes, dt)
    m = np.arange(1, n_nodes, dtype=float)
    law = 8.0 * np.finfo(float).eps * m**2 / (gamma_ord * (gamma_ord + 1.0))
    offsets = taps[: n_nodes - 1][::-1]
    assert np.all(_relative_errors(offsets, exact_offsets) <= law)
    assert np.all(_relative_errors(first[1:], exact_first) <= law)
    assert taps[n_nodes - 1] == dt**gamma_ord * (1.0 / G(gamma_ord + 2.0))
    if gamma_ord == 2.0:
        # the powers' second difference is exact in integers
        assert np.all(_relative_errors(offsets, exact_offsets) == 0.0)


def test_fractional_integral_of_quadratic():
    exact_gap = []
    for n in (256, 512):
        mesh = TimeMesh(2.0, n)
        t = mesh.nodes
        out = rl_integral(t**2, 0.5, mesh)
        exact_gap.append(np.max(np.abs(out - G(3) / G(3.5) * t**2.5)))
    assert exact_gap[0] <= 5e-5
    assert exact_gap[1] < exact_gap[0]


def test_weights_product_matches_complex_product():
    rng = np.random.default_rng(5)
    w = pi_weights(1.5, 70, 0.01)
    z = rng.standard_normal((70, 3, 4)) + 1j * rng.standard_normal((70, 3, 4))
    # contiguous, strided (every other node) and real samples
    for ww, samples in ((w, z), (w[:, :35], z[::2]), (w, z.real)):
        ref = np.einsum("ij,jkl->ikl", ww.astype(samples.dtype), samples)
        out = _weights_product(ww, samples)
        assert out.shape == (70, 3, 4) and out.dtype == samples.dtype
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("n_nodes, dt", [(2, 0.5), (3, 0.1), (65, 1 / 64), (513, 1 / 512), (1025, 4 / 1024)])
@pytest.mark.parametrize("dtype", [float, complex])
def test_second_integral_is_the_order_two_weights_product(n_nodes, dt, dtype):
    # the recursion is the rule itself: exact moments of t - tau against the piecewise-linear interpolant
    rng = np.random.default_rng(n_nodes)
    v = rng.standard_normal((n_nodes, 3)).astype(dtype)
    if dtype is complex:
        v += 1j * rng.standard_normal((n_nodes, 3))
    dense = _weights_product(pi_weights(2.0, n_nodes, dt), v)
    out = np.full_like(v, np.nan)
    assert _second_integral(v, dt, out) is out and out.dtype == v.dtype
    assert np.abs(out - dense).max() <= 1e-14 * np.abs(dense).max()
    # exact on a piecewise-linear signal: J^2 t = t**3 / 6
    t = dt * np.arange(n_nodes)
    assert np.abs(_second_integral(t, dt, np.empty(n_nodes)) - t**3 / 6.0).max() <= 1e-14 * max(t[-1] ** 3, 1.0)


def test_caputo_exact_on_cubic():
    # the centered second difference is exact on cubics, so the only error
    # left is the quadrature of a constant-curvature integrand
    mesh = TimeMesh(2.0, 256)
    t = mesh.nodes
    out = caputo_derivative(t**3, 1.5, mesh)
    assert np.max(np.abs(out - 6.0 / G(2.5) * t**1.5)) <= 1e-12


def test_caputo_of_constant_vanishes():
    mesh = TimeMesh(1.0, 64)
    out = caputo_derivative(np.full(mesh.n_nodes, 3.7), 1.5, mesh)
    assert np.max(np.abs(out)) <= 1e-12


def test_rl_derivative_of_identity():
    mesh = TimeMesh(2.0, 256)
    t = mesh.nodes
    out = rl_derivative(t, 0.5, mesh)
    exact = t**0.5 / G(1.5)
    # the leading nodes see the kernel singularity; the interior is clean
    assert np.max(np.abs(out[8:] - exact[8:])) <= 5e-4


def test_rl_shift_identity_low_order():
    # subtracting the starting value turns the one-sided derivative into
    # the regularized one; the two discretizations agree to first order
    gaps = []
    for n in (256, 512):
        mesh = TimeMesh(1.0, n)
        t = mesh.nodes
        g = 2.0 + t**3
        cap = caputo_derivative_01(g, 0.5, mesh)
        rl_shift = rl_derivative(g - 2.0, 0.5, mesh)
        gaps.append(np.max(np.abs(cap[8:] - rl_shift[8:])))
    assert gaps[0] <= 1e-2
    assert gaps[1] <= 0.6 * gaps[0]
    # without the shift the constant part contributes c * t^-gamma / Gamma(1-gamma);
    # compare away from t=0 where the quadrature sees the kernel singularity
    mesh = TimeMesh(1.0, 256)
    t = mesh.nodes
    g = 2.0 + t**3
    raw = rl_derivative(g, 0.5, mesh)
    rl_shift = rl_derivative(g - 2.0, 0.5, mesh)
    sel = t >= 0.25
    tail = 2.0 * t[sel] ** -0.5 / G(0.5)
    assert np.max(np.abs(raw[sel] - rl_shift[sel] - tail)) <= 2e-4


def _derivative_samples(mesh):
    """A real and a complex signal on the mesh, each (n_nodes, 4)."""
    rng = np.random.default_rng(mesh.n_nodes)
    real = np.cos(3.0 * mesh.nodes)[:, None] + rng.standard_normal((mesh.n_nodes, 4))
    return real, real + 1j * rng.standard_normal(real.shape)


@pytest.mark.parametrize("n_nodes", [3, 4, 65, 257, 513])
@pytest.mark.parametrize("gamma_ord", [0.1, 0.5, 0.9])
def test_differenced_weights_are_the_rl_derivative(n_nodes, gamma_ord):
    # differencing the order-(1 - gamma) weights once gives a matrix that
    # applies the discrete RL derivative: D (W g) = (D W) g up to rounding;
    # rl_derivative applies that matrix by row blocks
    mesh = TimeMesh(1.0, n_nodes - 1)
    weights = pi_weights(1.0 - gamma_ord, mesh.n_nodes, mesh.dt)
    derivative = first_difference(weights, mesh.dt)
    for g in _derivative_samples(mesh):
        want = first_difference(weights @ g, mesh.dt)
        got = _weights_product(derivative, g)
        assert got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        want = first_difference(rl_integral(g, 1.0 - gamma_ord, mesh), mesh.dt)
        got = rl_derivative(g, gamma_ord, mesh)
        assert got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("n_nodes", [3, 65, 257, 1025])
@pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
def test_derivative_rows_equal_the_differenced_dense_weights_bit_for_bit(alpha, n_nodes):
    # the one-sided first and last rows included: a wrapped or clipped index moves them
    mesh = TimeMesh(0.7, n_nodes - 1)
    dense = first_difference(pi_weights(1.0 - (2.0 - alpha), n_nodes, mesh.dt), mesh.dt)
    middle = n_nodes // 3
    ranges = [(0, 1), (0, min(64, n_nodes)), (middle, min(middle + 64, n_nodes)), (n_nodes - 2, n_nodes)]
    for s, e in ranges + [(n_nodes - 1, n_nodes), (0, n_nodes)]:
        rows = fractional._derivative_rows(2.0 - alpha, n_nodes, mesh.dt, s, e)
        width = rows.shape[1]
        assert rows.shape[0] == e - s and width <= min(max(e + 1, 3), n_nodes)
        assert rows.tobytes() == dense[s:e, :width].tobytes()
        assert not np.any(dense[s:e, width:])


@pytest.mark.parametrize("n_nodes", [3, 4, 33, 64])
@pytest.mark.parametrize("gamma_ord", [0.1, 0.5, 0.9])
def test_rl_derivative_is_the_differenced_dense_weights_product_bit_for_bit(n_nodes, gamma_ord):
    # up to one block of rows, the row-block product is the dense product itself
    mesh = TimeMesh(1.0, n_nodes - 1)
    derivative = first_difference(pi_weights(1.0 - gamma_ord, n_nodes, mesh.dt), mesh.dt)
    for g in _derivative_samples(mesh) + (np.sin(mesh.nodes),):
        got = rl_derivative(g, gamma_ord, mesh)
        want = _weights_product(derivative, g)
        assert got.shape == g.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


def test_rl_derivative_builds_a_block_of_weight_rows_and_one_on_either_side(monkeypatch):
    mesh = TimeMesh(1.0, 256)
    rows = []
    build = fractional.pi_weights

    def recording(*args):
        weights = build(*args)
        rows.append(weights.shape[0])
        return weights

    monkeypatch.setattr(fractional, "pi_weights", recording)
    rl_derivative(np.cos(mesh.nodes), 0.5, mesh)
    assert len(rows) == 5 and max(rows) == _BLOCK_ROWS + 2


def test_difference_stencils_on_polynomials():
    mesh = TimeMesh(1.0, 64)
    t = mesh.nodes
    d1 = first_difference(t**2, mesh.dt)
    d2 = second_difference(t**2, mesh.dt)
    assert np.max(np.abs(d1[1:-1] - 2.0 * t[1:-1])) <= 1e-12
    assert np.max(np.abs(d2[1:-1] - 2.0)) <= 1e-10


def test_riesz_multiplier_symmetry():
    grid = SpatialGrid(16.0, 256)
    mult = liouville_multiplier("riesz", 1.5, grid)
    assert np.max(np.abs(mult.imag)) == 0.0
    assert np.all(mult.real <= 0.0)
    # -|xi|^beta on the grid frequencies
    assert abs(mult[5].real + abs(grid.xi[5]) ** 1.5) <= 1e-13
    with pytest.raises(SingularOrderError):
        liouville_multiplier("riesz", 1.0, grid)


def test_one_sided_multiplier_value():
    grid = SpatialGrid(16.0, 256)
    beta = 0.75
    mult = liouville_multiplier("left", beta, grid)
    xi = grid.xi[7]
    assert abs(mult[7] - (1j * xi) ** beta) <= 1e-13


def test_sobolev_norm_single_mode():
    grid = SpatialGrid(16.0, 256)
    xi0 = np.pi * 5 / 16.0
    row = np.exp(1j * xi0 * grid.x)
    for beta in (0.75, 1.5):
        extra = xi0**2 if beta > 1.0 else 0.0
        exact = math.sqrt(2 * 16.0 * (1.0 + xi0 ** (2 * beta) + extra))
        assert abs(sobolev_norms(grid, row, beta) - exact) <= 1e-12 * exact
    with pytest.raises(SingularOrderError):
        sobolev_norms(grid, row, 1.0)
    with pytest.raises(SingularOrderError):
        sobolev_norms(grid, row, 2.0)


def _sobolev_row_by_row(grid, row, beta):
    # one row through its own FFTs, as the norm was spelled before the stacked
    # routine: each L2 term is a square root, squared again
    def l2(v):
        return math.sqrt(grid.dx * float(np.sum(np.abs(v) ** 2)))

    total = l2(row) ** 2
    total += l2(np.fft.ifft(liouville_multiplier("left", beta, grid) * np.fft.fft(row))) ** 2
    if beta > 1.0:
        total += l2(np.fft.ifft(1j * grid.xi * np.fft.fft(row))) ** 2
    return math.sqrt(total)


@pytest.mark.parametrize("beta", [0.75, 1.5])
def test_stacked_sobolev_norms_match_single_rows_bit_for_bit(beta):
    grid = SpatialGrid(12.5, 128)
    rng = np.random.default_rng(11)
    # enough rows that a square taken as x * x instead of x ** 2 shows
    field = (rng.standard_normal((2000, 128)) + 1j * rng.standard_normal((2000, 128))) * 10.0 ** rng.uniform(-6, 6, (2000, 1))
    stacked = sobolev_norms(grid, field, beta)
    assert stacked.shape == (2000,)
    singles = [float(sobolev_norms(grid, row, beta)) for row in field]
    assert stacked.tolist() == singles
    assert float(np.max(stacked)) == max(singles)
    # Parseval's sums against the inverse transforms of the old spelling
    old = np.array([_sobolev_row_by_row(grid, row, beta) for row in field])
    assert np.all(np.abs(stacked - old) <= 1e-13 * old)


@pytest.mark.parametrize("beta", [0.75, 1.5])
def test_real_rows_take_the_half_spectrum(beta):
    grid = SpatialGrid(12.5, 128)
    rng = np.random.default_rng(12)
    field = rng.standard_normal((300, 128)) * 10.0 ** rng.uniform(-6, 6, (300, 1))
    stacked = sobolev_norms(grid, field, beta)
    assert stacked.tolist() == [float(sobolev_norms(grid, row, beta)) for row in field]
    full = sobolev_norms(grid, field.astype(complex), beta)
    old = np.array([_sobolev_row_by_row(grid, row, beta) for row in field])
    assert np.all(np.abs(stacked - full) <= 1e-13 * full) and np.all(np.abs(stacked - old) <= 1e-13 * old)


def test_half_spectra_keep_each_part_exact():
    # built through the views: 1j * inf would put a NaN in the real part
    x = np.empty((2, 3), complex)
    x.real = [[1.5, -2.0, 0.25], [0.5, 1.0, -1.0]]
    x.imag = [[-0.0, np.inf, 3.0], [-0.0, -0.0, -0.0]]
    with np.errstate(all="ignore"):
        spectra = _half_spectra(x)
        back = _samples(spectra, 3)
        alone = [_samples(_half_spectra(part.copy()), 3) for part in (x.real, x.imag)]
    assert spectra.shape == (2, 2, 2) and back.dtype == np.complex128
    # each part crosses on its own: the pair's parts are the parts' own round trips, bit for bit
    assert back.real.tobytes() == alone[0].tobytes() and back.imag.tobytes() == alone[1].tobytes()
    assert np.allclose(back.real, x.real, rtol=0.0, atol=1e-15) and not np.isfinite(back.imag[0]).any()
    # a real field is one part, a view of its rfft, and comes back real
    real = x.real.copy()
    assert _half_spectra(real).shape == (2, 1, 2) and _samples(_half_spectra(real), 3).dtype == np.float64
    # the operator, constant and variable coefficient: the real part of a complex
    # apply is the apply of the real part, bit for bit, though the imaginary part is inf
    grid = SpatialGrid(16.0, 64)
    moll = make_mollifier("bump", 1.0, grid)
    row = np.empty(grid.n_points, complex)
    row.real, row.imag = np.cos(grid.x), np.sin(grid.x)
    row.imag[7] = np.inf
    for kind in ("riesz", "liouville_left"):
        for coeff in (np.full(grid.n_points, 0.7), 1.0 + 0.25 / np.cosh(grid.x)):
            op = build_operator(kind, 1.5, coeff, moll, grid)
            with np.errstate(all="ignore"):
                out = op.apply(row)
            assert out.real.tobytes() == op.apply(row.real.copy()).tobytes()
            assert np.isfinite(out.real).all() and not np.isfinite(out.imag).any()


def _full_spectrum_norms(grid, field, beta):
    """The norms from the full complex FFT, every mode standing for itself."""
    n = grid.n_points
    spectrum = np.fft.fft(field, axis=-1)
    power = spectrum.real**2 + spectrum.imag**2
    xi = np.abs(grid.xi)
    squares = [xi ** (2.0 * beta)] + ([xi**2] if beta > 1.0 else [])
    parts = [np.sum(np.abs(field) ** 2, axis=-1)] + [np.sum(power * sq, axis=-1) / n for sq in squares]
    return np.sqrt(grid.dx * sum(parts))


@pytest.mark.parametrize("beta", [0.75, 1.5])
def test_complex_rows_take_the_half_spectrum_part_by_part(beta):
    grid = SpatialGrid(12.5, 128)
    rng = np.random.default_rng(13)
    field = rng.standard_normal((300, 128)) + 1j * rng.standard_normal((300, 128))
    field *= 10.0 ** rng.uniform(-6, 6, (300, 1))
    stacked = sobolev_norms(grid, field, beta)
    full = _full_spectrum_norms(grid, field, beta)
    assert np.all(np.abs(stacked - full) <= 4 * np.finfo(float).eps * full)


def test_stacked_sobolev_norms_reject_a_nan_row():
    grid = SpatialGrid(12.5, 64)
    field = np.ones((5, 64), dtype=complex)
    field[3, 10] = np.nan
    with pytest.raises(ValueError):
        sobolev_norms(grid, field, 0.75)
    with pytest.raises(SizeError):
        sobolev_norms(grid, np.ones((5, 32)), 0.75)


def test_container_validation():
    with pytest.raises(ValueError):
        SpatialGrid(16.0, 100)  # not a power of two
    with pytest.raises(ValueError):
        SpatialGrid(16.0, 4)
    with pytest.raises(ValueError):
        SpatialGrid(-1.0, 64)
    with pytest.raises(ValueError):
        TimeMesh(0.0, 64)
    with pytest.raises(ValueError):
        TimeMesh(1.0, 1)
    grid = SpatialGrid(16.0, 64)
    with pytest.raises(SizeError):
        GridFunction(grid, np.zeros(65))
    with pytest.raises(ValueError):
        GridFunction(grid, np.full(64, np.nan))
    # samples keep their arithmetic: real profiles stay float64
    assert GridFunction(grid, np.arange(64)).values.dtype == np.float64
    assert GridFunction(grid, np.full(64, 1j)).values.dtype == np.complex128


def test_mesh_and_grid_geometry():
    mesh = TimeMesh(2.0, 128)
    assert mesh.dt == 2.0 / 128
    assert mesh.n_nodes == 129
    assert mesh.nodes[0] == 0.0 and mesh.nodes[-1] == 2.0
    grid = SpatialGrid(8.0, 64)
    assert grid.dx == 0.25
    assert grid.x[0] == -8.0 and grid.x[-1] == 8.0 - 0.25

