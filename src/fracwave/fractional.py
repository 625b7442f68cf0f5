"""Discrete fractional calculus on uniform time meshes and periodic grids.

Time direction: fractional integrals use product integration with exact
kernel moments against the piecewise-linear interpolant of the samples, so
polynomials up to degree one are integrated exactly for every order.  The
Caputo derivative of order in (1, 2) composes the fractional integral of
order 2 - alpha with a second-order finite-difference second derivative; the
Riemann-Liouville derivative of order in (0, 1) applies the differenced
weights of the complementary order, row block by row block.

Space direction: one-sided fractional derivatives and their symmetric
combination act as Fourier multipliers on a uniform periodic grid, with the
zero frequency always mapped to zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import FracwaveError, SingularOrderError, SizeError

__all__ = [
    "TimeMesh",
    "SpatialGrid",
    "GridFunction",
    "Trajectory",
    "pi_weights",
    "rl_integral",
    "caputo_derivative",
    "rl_derivative",
    "caputo_derivative_01",
    "first_difference",
    "second_difference",
    "liouville_multiplier",
    "sobolev_norms",
]

# rows per block of a row-block product and of the Volterra march: enough for a
# real matrix product per block, few enough for a short in-block series
_BLOCK_ROWS = 64


@dataclass(frozen=True)
class TimeMesh:
    """Uniform mesh t_k = k * dt on [0, t_max] with n_steps cells."""

    t_max: float
    n_steps: int

    def __post_init__(self):
        if not self.t_max > 0.0:
            raise ValueError(f"t_max must be positive, got {self.t_max!r}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be at least 2, got {self.n_steps!r}")

    @property
    def dt(self) -> float:
        return self.t_max / self.n_steps

    @property
    def n_nodes(self) -> int:
        return self.n_steps + 1

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max, self.n_steps + 1)


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid on [-L, L) with a power-of-two point count."""

    half_length: float
    n_points: int

    def __post_init__(self):
        if not self.half_length > 0.0:
            raise ValueError(f"half_length must be positive, got {self.half_length!r}")
        n = self.n_points
        if n < 8 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 8, got {n!r}")

    @property
    def dx(self) -> float:
        return 2.0 * self.half_length / self.n_points

    @property
    def x(self) -> np.ndarray:
        return -self.half_length + self.dx * np.arange(self.n_points)

    @property
    def xi(self) -> np.ndarray:
        """Angular frequencies in FFT ordering."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_points, d=self.dx)


@dataclass
class GridFunction:
    """Samples attached to a periodic grid, float64 when real and complex128 otherwise."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        vals = _as_field(self.values)
        if vals.shape != (self.grid.n_points,):
            raise SizeError(
                f"expected {self.grid.n_points} samples, got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("grid function samples must be finite")
        self.values = vals


def _as_field(samples) -> np.ndarray:
    """Samples as float64 when real and complex128 otherwise, copied only to convert."""
    arr = np.asarray(samples)
    return arr.astype(complex if np.iscomplexobj(arr) else float, copy=False)


def _real_parts(fn: Callable[[np.ndarray], np.ndarray], x: np.ndarray) -> np.ndarray:
    """fn(x) for real x; for complex x, fn(x.real) and fn(x.imag) in the real and imaginary views of one array.

    Every operator here is real, so complex samples cross each transform as
    two real fields.  The views keep each part exact, as re + 1j * im would
    not (1j * inf has a NaN real part).
    """
    if not np.iscomplexobj(x):
        return fn(x)
    re = fn(x.real)
    out = np.empty(re.shape, complex)
    out.real, out.imag = re, fn(x.imag)
    return out


@dataclass
class Trajectory:
    """Time-indexed states: values[k] is the state at mesh node k.

    grid is set for spatially distributed states and None for abstract
    vector-valued problems (scalars are vectors of length one).  Real values
    stay real (float64); anything else is held as complex128.
    """

    mesh: TimeMesh
    values: np.ndarray
    grid: Optional[SpatialGrid] = None

    def __post_init__(self):
        vals = _as_field(self.values)
        if vals.ndim != 2 or vals.shape[0] != self.mesh.n_nodes:
            raise SizeError(
                f"expected ({self.mesh.n_nodes}, dim) values, got shape {vals.shape}"
            )
        if self.grid is not None and vals.shape[1] != self.grid.n_points:
            raise SizeError("state dimension does not match the grid")
        self.values = vals


# a derivative-form solve reads three orders; a fourth key covers a check after it
@functools.lru_cache(maxsize=4)
def _weight_taps(gamma_ord: float, n_nodes: int, dt: float) -> tuple:
    """The two scaled vectors every row of pi_weights is gathered from, read-only.

    taps holds the offset kernel b_{n-1}, ..., b_1, the diagonal and n - 1
    zeros, so that row i's first e entries are taps[n - 1 - i : n - 1 - i + e]
    except in column 0, which first holds (zero on row 0).  Each entry is the
    unscaled entry times the scale, as in the dense matrix, so a gathered row
    equals the dense row bit for bit.
    """
    gp1 = gamma_ord + 1.0
    scale = 1.0 / math.gamma(gamma_ord + 2.0)
    ext = dt * np.arange(n_nodes + 1)
    with np.errstate(over="ignore"):
        extp = ext**gp1
    if not math.isfinite(extp[-1]):
        raise FracwaveError(
            f"product-integration weights of order {gamma_ord:g} overflow double precision "
            f"at t = {ext[-1]:.3g}; shorten the horizon"
        )
    # offset kernel: dt**gamma * b_m = (t_{m+1}^(g+1) - 2 t_m^(g+1) + t_{m-1}^(g+1)) / dt for m >= 1
    taps = np.zeros(2 * n_nodes - 1)
    taps[: n_nodes - 1] = (((extp[2:] - 2.0 * extp[1:-1] + extp[:-2]) / dt) * scale)[::-1]
    taps[n_nodes - 1] = dt**gamma_ord * scale
    # left endpoint: dt**gamma * a_n = t_{n-1}^(g+1)/dt - (n-1-gamma) t_n^gamma
    first = np.zeros(n_nodes)
    times = ext[:n_nodes]
    ends = extp[0 : n_nodes - 1] / dt - (np.arange(1, n_nodes) - 1.0 - gamma_ord) * (times[1:] ** gamma_ord)
    first[1:] = ends * scale
    taps.flags.writeable = first.flags.writeable = False
    return taps, first


def _toeplitz_column(gamma_ord: float, n_nodes: int, dt: float, rows: int) -> np.ndarray:
    """The diagonal and b_1, ..., b_{rows-1}: the first column of W's Toeplitz part past column 0, read-only."""
    taps = _weight_taps(gamma_ord, n_nodes, dt)[0]
    return taps[n_nodes - 1 :: -1][:rows]


def _block_norms(gamma_ord: float, n_nodes: int, dt: float, start: int, rows: int) -> np.ndarray:
    """||W[start:start + k, start:start + k]||_inf for k = 1..rows, read from the taps, not from rows of W.

    Past column 0, row start + k - 1 of the block holds the diagonal and
    b_1, ..., b_{k-1}, so its absolute sum is a prefix sum of the taps read
    from the diagonal backwards.  A block at row 0 adds each row's
    first-column entry, so its rows are whole rows of W: every weight is
    nonnegative and the rule is exact on constants, so they sum to
    t_i**gamma / Gamma(gamma + 1) and grow with the row as well.  Either
    way the block's last row gives its norm.  The sums equal the dense row
    sums up to rounding.
    """
    sums = np.cumsum(np.abs(_toeplitz_column(gamma_ord, n_nodes, dt, rows)))
    if start:
        return sums
    # row i >= 1 holds first[i] and the diagonal back to b_{i-1}; row 0 is zero
    heads = np.abs(_weight_taps(gamma_ord, n_nodes, dt)[1][:rows])
    heads[1:] += sums[:-1]
    return heads


def pi_weights(gamma_ord: float, n_nodes: int, dt: float, start: int = 0, end: Optional[int] = None) -> np.ndarray:
    """Rows [start, end) of the product-integration weight matrix W, as W[start:end, :end].

    (W f)[n] approximates J^gamma f(t_n) with exact moments of the kernel
    (t_n - tau)**(gamma-1) against the piecewise-linear interpolant of f, so
    the rule is exact for piecewise-linear signals.  W is lower triangular
    and Toeplitz but for its first column and its diagonal; the rows are
    gathered from those O(n_nodes) vectors, cached for the last four
    (order, nodes, step) keys, so a block costs its own size and equals the
    dense matrix's rows bit for bit.  The default range is the whole matrix.
    Powers are evaluated at physical times to stay inside the double range
    even for large orders; a horizon whose power t**(gamma + 1) leaves that
    range raises FracwaveError.
    """
    if not 0.0 < gamma_ord < math.inf:
        raise SingularOrderError(f"integral order must be positive and finite, got {gamma_ord:g}")
    if n_nodes < 2:
        raise SizeError("need at least two mesh nodes")
    end = n_nodes if end is None else end
    if not 0 <= start < end <= n_nodes:
        raise SizeError(f"row range [{start}, {end}) is not a nonempty part of [0, {n_nodes})")
    taps, first = _weight_taps(gamma_ord, n_nodes, dt)
    # row i is the window of the taps that starts at n_nodes - 1 - i
    windows = np.lib.stride_tricks.sliding_window_view(taps, end)
    w = windows[n_nodes - end : n_nodes - start][::-1].copy()
    w[:, 0] = first[start:end]
    return w


def rl_integral(samples: np.ndarray, gamma_ord: float, mesh: TimeMesh) -> np.ndarray:
    """Fractional integral of the sampled signal along axis 0.

    Order zero returns the input unchanged; the value at t_0 is zero for any
    positive order.  Real samples give a real integral.
    """
    arr = _as_field(samples)
    if arr.shape[0] != mesh.n_nodes:
        raise SizeError(
            f"signal has {arr.shape[0]} nodes but the mesh has {mesh.n_nodes}"
        )
    if gamma_ord == 0.0:
        return arr.copy()
    return _weights_product(pi_weights(gamma_ord, mesh.n_nodes, mesh.dt), arr)


def _weights_product(weights: np.ndarray, samples: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """weights @ samples along axis 0 for a real weight matrix.

    Complex samples go through one real product on their float view: numpy
    would otherwise promote the weights to complex and double the flops.
    out, a C-contiguous array of the result's shape and the samples' dtype,
    receives the product instead of a new array.
    """
    arr = np.asarray(samples)
    flat = arr.reshape(arr.shape[0], -1)
    target = None if out is None else out.reshape(weights.shape[0], -1)
    if flat.dtype == np.complex128:
        real_target = None if target is None else target.view(np.float64)
        res = np.matmul(weights, np.ascontiguousarray(flat).view(np.float64), out=real_target).view(np.complex128)
    else:
        res = np.matmul(weights, flat, out=target)
    return res.reshape((weights.shape[0],) + arr.shape[1:])


def _second_integral(samples: np.ndarray, dt: float, out: np.ndarray) -> np.ndarray:
    """out = W_2 samples along axis 0, W_2 the order-two weights, by their exact recursion; returns out.

    The order-two rule integrates the piecewise-linear interpolant v of the
    samples twice, so with I1 its first integral, on every column,
    I1[n + 1] = I1[n] + dt (v[n] + v[n + 1]) / 2 and
    I2[n + 1] = I2[n] + dt I1[n] + dt**2 (2 v[n] + v[n + 1]) / 6:
    two cumulative sums along time in place of an O(N**2) product.  out must
    not overlap the samples.
    """
    first = np.empty_like(out)
    first[0] = 0.0
    np.add(samples[:-1], samples[1:], out=first[1:])
    first *= 0.5 * dt * dt  # dt I1, summed below
    np.cumsum(first, axis=0, out=first)
    np.multiply(samples[:-1], 2.0, out=out[1:])
    out[1:] += samples[1:]
    out[1:] *= dt * dt / 6.0
    out[1:] += first[:-1]
    out[0] = 0.0
    return np.cumsum(out, axis=0, out=out)


def first_difference(samples: np.ndarray, dt: float) -> np.ndarray:
    """Second-order first derivative: central interior, one-sided ends."""
    arr = _as_field(samples)
    if arr.shape[0] < 3:
        raise SizeError("need at least three nodes for the derivative stencils")
    out = np.empty_like(arr)
    # the interior is differenced in place: a weight matrix needs no second copy
    np.subtract(arr[2:], arr[:-2], out=out[1:-1])
    out[1:-1] /= 2.0 * dt
    out[0] = (-3.0 * arr[0] + 4.0 * arr[1] - arr[2]) / (2.0 * dt)
    out[-1] = (3.0 * arr[-1] - 4.0 * arr[-2] + arr[-3]) / (2.0 * dt)
    return out


def second_difference(samples: np.ndarray, dt: float) -> np.ndarray:
    """Second derivative: central interior, second-order one-sided ends."""
    arr = _as_field(samples)
    if arr.shape[0] < 4:
        raise SizeError("need at least four nodes for the one-sided stencils")
    out = np.empty_like(arr)
    out[1:-1] = (arr[2:] - 2.0 * arr[1:-1] + arr[:-2]) / dt**2
    out[0] = (2.0 * arr[0] - 5.0 * arr[1] + 4.0 * arr[2] - arr[3]) / dt**2
    out[-1] = (2.0 * arr[-1] - 5.0 * arr[-2] + 4.0 * arr[-3] - arr[-4]) / dt**2
    return out


def caputo_derivative(samples: np.ndarray, alpha: float, mesh: TimeMesh) -> np.ndarray:
    """Caputo derivative of order alpha in (1, 2) along axis 0."""
    if not (1.0 < alpha < 2.0):
        raise SingularOrderError(f"Caputo order must lie in (1, 2), got {alpha:g}")
    d2 = second_difference(samples, mesh.dt)
    return rl_integral(d2, 2.0 - alpha, mesh)


def _row_blocks(rows: Callable, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = M x along axis 0, one block of _BLOCK_ROWS rows of M at a time.

    rows(s, e) gives M[s:e, :k], M's rows [s, e) up to their last nonzero
    column, which meet x[:k] only: a lower-triangular M costs half a dense
    product, and no N x N matrix is held.
    """
    n = x.shape[0]
    for s in range(0, n, _BLOCK_ROWS):
        e = min(s + _BLOCK_ROWS, n)
        m = rows(s, e)
        _weights_product(m, x[: m.shape[1]], out[s:e])
    return out


def _derivative_rows(gamma_ord: float, n_nodes: int, dt: float, s: int, e: int) -> np.ndarray:
    """Rows [s, e) of the discrete RL derivative of order gamma_ord, up to their last nonzero column.

    The derivative is first_difference of the order-(1 - gamma_ord) weights:
    row i reads weight rows i - 1 and i + 1, row 0 rows 0..2 and the last row
    the last three.  first_difference puts one-sided rows at both ends of the
    rows gathered, which are true rows only where the gathered range ends
    with the mesh; no other end row is kept.
    """
    lo, hi = max(0, min(s - 1, n_nodes - 3)), min(n_nodes, max(e + 1, 3))
    weights = pi_weights(1.0 - gamma_ord, n_nodes, dt, lo, hi)
    return first_difference(weights, dt)[s - lo : e - lo]


def rl_derivative(samples: np.ndarray, gamma_ord: float, mesh: TimeMesh) -> np.ndarray:
    """Riemann-Liouville derivative of order in (0, 1) along axis 0.

    Differentiates the fractional integral of order 1 - gamma with the
    second-order stencils, as differenced weights built _BLOCK_ROWS rows at a
    time (no N x N matrix); accuracy at the first nodes is limited by the
    t**(1-gamma) leading behavior of the integral, not by the stencil.
    """
    if not (0.0 < gamma_ord < 1.0):
        raise SingularOrderError(f"derivative order must lie in (0, 1), got {gamma_ord:g}")
    arr = _as_field(samples)
    if arr.shape[0] != mesh.n_nodes:
        raise SizeError(f"signal has {arr.shape[0]} nodes but the mesh has {mesh.n_nodes}")
    rows = functools.partial(_derivative_rows, gamma_ord, mesh.n_nodes, mesh.dt)
    return _row_blocks(rows, arr, np.empty(arr.shape, arr.dtype))


def caputo_derivative_01(samples: np.ndarray, gamma_ord: float, mesh: TimeMesh) -> np.ndarray:
    """Caputo derivative of order in (0, 1): integrate the first difference.

    The difference-then-integrate route; it agrees with rl_derivative applied
    to samples minus their initial value up to scheme order.
    """
    if not (0.0 < gamma_ord < 1.0):
        raise SingularOrderError(f"derivative order must lie in (0, 1), got {gamma_ord:g}")
    arr = np.asarray(samples, dtype=complex)
    d1 = np.empty_like(arr)
    d1[:-1] = (arr[1:] - arr[:-1]) / mesh.dt
    d1[-1] = (arr[-1] - arr[-2]) / mesh.dt
    return rl_integral(d1, 1.0 - gamma_ord, mesh)


_MULTIPLIER_KINDS = ("left", "right", "riesz")


def liouville_multiplier(kind: str, beta: float, grid: SpatialGrid) -> np.ndarray:
    """Fourier symbol of a one-sided or symmetric fractional derivative.

    left  -> (i xi)**beta,  right -> (-i xi)**beta,
    riesz -> -|xi|**beta (the normalized symmetric combination, real; beta = 1
    is singular for it and rejected).  The zero frequency maps to zero; the
    operators keep only the real part of the Nyquist entry (_base_multiplier).
    """
    if kind not in _MULTIPLIER_KINDS:
        raise ValueError(f"kind must be one of {_MULTIPLIER_KINDS}, got {kind!r}")
    if not (0.0 < beta <= 2.0):
        raise SingularOrderError(f"order must lie in (0, 2], got {beta:g}")
    xi = grid.xi
    mag = np.abs(xi) ** beta
    if kind == "riesz":
        if abs(math.cos(beta * math.pi / 2.0)) < 1e-12:
            raise SingularOrderError("symmetric combination is singular at order 1")
        out = -mag
    else:
        sign = 1.0 if kind == "left" else -1.0
        phase = np.exp(1j * sign * (math.pi * beta / 2.0) * np.sign(xi))
        out = mag * phase
    out[xi == 0.0] = 0.0
    return out


def _half_power(samples: np.ndarray) -> np.ndarray:
    """|X_k|**2 of the real FFT of real samples along the last axis."""
    spectrum = np.fft.rfft(samples, axis=-1)
    return spectrum.real**2 + spectrum.imag**2


def sobolev_norms(grid: SpatialGrid, values, beta: float) -> np.ndarray:
    """Fractional Sobolev norm of regularity index beta of each row of values.

    For beta in (0, 1): L2 norm plus the one-sided derivative seminorm.
    For beta in (1, 2): additionally the first-derivative L2 norm.
    Index 1 (and anything outside (0, 2)) is rejected, and so are
    non-finite samples.  The derivative terms come from the real half
    spectrum by Parseval, sum |m_k|**2 |X_k|**2 / n with |m_k| = |xi_k|**beta
    and |xi_k|, every mode but the zero and Nyquist ones standing for two; a
    complex row's power is its real part's plus its imaginary part's.
    Each dx-weighted L2 term is a square root squared again in Python
    floats, whose ``**`` (libm pow) numpy's square does not always match, so
    every norm is bit for bit the one a row summed on its own gives.
    """
    if not (0.0 < beta < 2.0) or beta == 1.0:
        raise SingularOrderError(
            f"regularity index must lie in (0,1) or (1,2), got {beta:g}"
        )
    vals = _as_field(values)
    n = grid.n_points
    if vals.shape[-1:] != (n,):
        raise SizeError(f"expected rows of {n} samples, got shape {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("grid function samples must be finite")
    power = _real_parts(_half_power, vals)
    power = power.real + power.imag  # a real row's imaginary view is zero
    xi = np.abs(grid.xi[: n // 2 + 1])
    weight = np.full(xi.size, 1.0 / n)
    weight[1 : n // 2] *= 2.0
    squares = [xi ** (2.0 * beta)] + ([xi**2] if beta > 1.0 else [])
    parts = [np.sum(np.abs(vals) ** 2, axis=-1)] + [np.sum(power * (weight * sq), axis=-1) for sq in squares]
    sums = [np.reshape(part, -1).tolist() for part in parts]
    dx = grid.dx
    norms = []
    for row in zip(*sums):
        total = 0.0
        for s in row:
            total += math.sqrt(dx * s) ** 2
        norms.append(math.sqrt(total))
    return np.reshape(norms, vals.shape[:-1])
