"""Quadrature weights, fractional derivatives, and grid containers."""

import math

import numpy as np
import pytest

from fracwave import (
    FracwaveError,
    GridFunction,
    SingularOrderError,
    SizeError,
    SpatialGrid,
    TimeMesh,
    caputo_derivative,
    first_difference,
    liouville_multiplier,
    pi_weights,
    rl_derivative,
    rl_integral,
    second_difference,
    sobolev_norms,
)
from fracwave.fractional import _weights_product, caputo_derivative_01

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


@pytest.mark.parametrize("n_nodes", [3, 4, 65, 513])
@pytest.mark.parametrize("gamma_ord", [0.1, 0.5, 0.9])
def test_differenced_weights_are_the_rl_derivative(n_nodes, gamma_ord):
    # differencing the order-(1 - gamma) weights once gives a matrix that
    # applies the discrete RL derivative: D (W g) = (D W) g up to rounding
    mesh = TimeMesh(1.0, n_nodes - 1)
    weights = pi_weights(1.0 - gamma_ord, mesh.n_nodes, mesh.dt)
    derivative = first_difference(weights, mesh.dt)
    rng = np.random.default_rng(n_nodes)
    real = np.cos(3.0 * mesh.nodes)[:, None] + rng.standard_normal((mesh.n_nodes, 4))
    for g in (real, real + 1j * rng.standard_normal(real.shape)):
        want = first_difference(weights @ g, mesh.dt)
        got = _weights_product(derivative, g)
        assert got.dtype == want.dtype
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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
    assert stacked.tolist() == singles == [_sobolev_row_by_row(grid, row, beta) for row in field]
    assert float(np.max(stacked)) == max(singles)


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

