"""Discrete fractional calculus on uniform time meshes and periodic grids.

Time direction: fractional integrals use product integration with exact
kernel moments against the piecewise-linear interpolant of the samples, so
polynomials up to degree one are integrated exactly for every order.  The
Caputo derivative of order in (1, 2) composes the fractional integral of
order 2 - alpha with a second-order finite-difference second derivative; the
Riemann-Liouville derivative of order in (0, 1) forward-differences the
fractional integral of the complementary order.

Space direction: one-sided fractional derivatives and their symmetric
combination act as Fourier multipliers on a uniform periodic grid, with the
zero frequency always mapped to zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import FracwaveError, SingularOrderError, SizeError
from .special import gamma

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


def pi_weights(gamma_ord: float, n_nodes: int, dt: float) -> np.ndarray:
    """Product-integration weight matrix W for the fractional integral.

    (W f)[n] approximates J^gamma f(t_n) with exact moments of the kernel
    (t_n - tau)**(gamma-1) against the piecewise-linear interpolant of f, so
    the rule is exact for piecewise-linear signals.  Powers are evaluated at
    physical times to stay inside the double range even for large orders; a
    horizon whose power t**(gamma + 1) leaves that range raises FracwaveError.
    """
    if gamma_ord <= 0.0:
        raise SingularOrderError("integral order must be positive")
    if n_nodes < 2:
        raise SizeError("need at least two mesh nodes")
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
    # offset kernel: dt**gamma * b_m = (t_{m+1}^(g+1) - 2 t_m^(g+1) + t_{m-1}^(g+1)) / dt
    # for m >= 1, laid out reversed and zero-padded so that window n - 1 - i of
    # the taps is row i of the Toeplitz matrix w[i, j] = b[i - j], zero for j >= i
    taps = np.zeros(2 * n_nodes - 1)
    taps[: n_nodes - 1] = ((extp[2:] - 2.0 * extp[1:-1] + extp[:-2]) / dt)[::-1]
    w = np.lib.stride_tricks.sliding_window_view(taps, n_nodes)[::-1].copy()
    # left endpoint: dt**gamma * a_n = t_{n-1}^(g+1)/dt - (n-1-gamma) t_n^gamma
    times = ext[:n_nodes]
    w[1:, 0] = extp[0 : n_nodes - 1] / dt - (np.arange(1, n_nodes) - 1.0 - gamma_ord) * (times[1:] ** gamma_ord)
    np.fill_diagonal(w, dt**gamma_ord)
    w[0, :] = 0.0
    w *= scale
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


def _weights_product(weights: np.ndarray, samples: np.ndarray) -> np.ndarray:
    """weights @ samples along axis 0 for a real weight matrix.

    Complex samples go through one real product on their float view: numpy
    would otherwise promote the weights to complex and double the flops.
    """
    arr = np.asarray(samples)
    flat = arr.reshape(arr.shape[0], -1)
    if flat.dtype == np.complex128:
        out = (weights @ np.ascontiguousarray(flat).view(np.float64)).view(np.complex128)
    else:
        out = weights @ flat
    return out.reshape((weights.shape[0],) + arr.shape[1:])


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


def rl_derivative(samples: np.ndarray, gamma_ord: float, mesh: TimeMesh) -> np.ndarray:
    """Riemann-Liouville derivative of order in (0, 1) along axis 0.

    Differentiates the fractional integral of order 1 - gamma with the
    second-order stencils; accuracy at the first nodes is limited by the
    t**(1-gamma) leading behavior of the integral, not by the stencil.
    """
    if not (0.0 < gamma_ord < 1.0):
        raise SingularOrderError(f"derivative order must lie in (0, 1), got {gamma_ord:g}")
    g = rl_integral(samples, 1.0 - gamma_ord, mesh)
    return first_difference(g, mesh.dt)


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
    riesz -> -|xi|**beta (the normalized symmetric combination; beta = 1 is
    singular for it and rejected).  The zero frequency maps to zero.
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
        out = -mag.astype(complex)
    else:
        sign = 1.0 if kind == "left" else -1.0
        phase = np.exp(1j * sign * (math.pi * beta / 2.0) * np.sign(xi))
        out = mag * phase
    out[xi == 0.0] = 0.0
    return out


def sobolev_norms(grid: SpatialGrid, values, beta: float) -> np.ndarray:
    """Fractional Sobolev norm of regularity index beta of each row of values.

    For beta in (0, 1): L2 norm plus the one-sided derivative seminorm.
    For beta in (1, 2): additionally the first-derivative L2 norm.
    Index 1 (and anything outside (0, 2)) is rejected, and so are
    non-finite samples.  One FFT along the last axis serves every term.
    Each dx-weighted L2 term is a square root squared again in Python
    floats, whose ``**`` (libm pow) numpy's square does not always match, so
    every norm is bit for bit the one a row summed on its own gives.
    """
    if not (0.0 < beta < 2.0) or beta == 1.0:
        raise SingularOrderError(
            f"regularity index must lie in (0,1) or (1,2), got {beta:g}"
        )
    vals = np.asarray(values, dtype=complex)
    if vals.shape[-1:] != (grid.n_points,):
        raise SizeError(f"expected rows of {grid.n_points} samples, got shape {vals.shape}")
    if not np.all(np.isfinite(vals.view(float))):
        raise ValueError("grid function samples must be finite")
    spectrum = np.fft.fft(vals, axis=-1)
    parts = [vals, np.fft.ifft(liouville_multiplier("left", beta, grid) * spectrum, axis=-1)]
    if beta > 1.0:
        parts.append(np.fft.ifft(1j * grid.xi * spectrum, axis=-1))
    sums = [np.reshape(np.sum(np.abs(part) ** 2, axis=-1), -1).tolist() for part in parts]
    dx = grid.dx
    norms = []
    for row in zip(*sums):
        total = 0.0
        for s in row:
            total += math.sqrt(dx * s) ** 2
        norms.append(math.sqrt(total))
    return np.reshape(norms, vals.shape[:-1])
