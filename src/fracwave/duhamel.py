"""Fixed-point solver for the fractional Cauchy problem in two Duhamel forms.

The state satisfies a Caputo problem of time order in (1, 2) driven by a
bounded generator, a pointwise nonlinearity, and an additive forcing
trajectory.  Both representations solve the same fixed-point problem; they
differ in how the memory integral against the forcing is realized:

* kernel form: the weakly singular kernel acts directly on f(U) + P;
* derivative form: the forcing enters through a fractional derivative of
  order 2 - alpha under an order-one integral of the propagator.  The
  initial forcing value is split off analytically (its convolution has a
  closed Mittag-Leffler form), leaving the quadrature only the regular
  part.

Both reduce to the same trapezoid-free product-integration toolbox, but the
discretizations are genuinely different, which is what makes their agreement
a meaningful cross-check.

Every memory integral that meets the operator is the same lower-triangular
discrete Volterra system y = W (g + A y), with W a product-quadrature matrix
and A the operator.  The kernel form folds the nonlinearity into a forward
march over blocks of rows: each block sums the history of the earlier rows
in one dense product, once per solve, and then converges its own fixed point
before the next block starts; on a Fourier multiplier a folded block runs
that chain on the real half spectrum (_mode_chain).  The derivative form
differentiates the whole forcing history on every sweep, so it keeps
whole-horizon Picard sweeps, each one a blocked march of the linear system.
On a Fourier multiplier each mode's march is a scalar triangular system,
solved exactly with the resolvent of the blocks' Toeplitz weights
(_mode_volterra); every other
march resolves the rows inside a block by a short operator series, certified
at the block's own time span.  Its sweeps converge window by window, and the
windows are the kernel form's blocks without their row cap: the longest runs
of rows on which Lip f * ||W_BB||_inf <= 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError, FracwaveError, ResolutionError, SingularOrderError, SizeError
from .fractional import (
    _BLOCK_ROWS,  # rows per block of the Volterra march and of every row-block product
    GridFunction,
    SpatialGrid,
    TimeMesh,
    Trajectory,
    _as_field,  # float64 or complex128, following the data
    _real_parts,  # a map of real samples taken part by part on complex ones
    _block_norms,  # ||W_BB||_inf read from the weights' taps
    _second_integral,  # the order-two weights' product by their exact recursion
    _toeplitz_column,  # the diagonal and b_1, b_2, ... of the weights past column 0
    _weights_product,  # real-view product of weights with complex samples
    caputo_derivative,
    first_difference,
    pi_weights,
    rl_derivative,
    rl_integral,
    second_difference,
    sobolev_norms,
)
from .regularization import EpsilonSchedule
from .solution import LinearAction, _series_terms, as_action, ml_trajectory
from .special import gamma

__all__ = [
    "Nonlinearity",
    "zero_nonlinearity",
    "scaled_sine",
    "nonlinearity_from_callable",
    "CauchyProblem",
    "SolverOptions",
    "SolverReport",
    "solve_kernel_form",
    "solve_rl_form",
    "second_derivative_identity_check",
    "StabilityReport",
    "gronwall_stability_probe",
    "ModerationReport",
    "moderateness_scan",
]

_ZERO_TOL = 1e-12
# consecutive rises of the Picard change that count as divergence
_DIVERGENCE_PATIENCE = 5


@dataclass(frozen=True)
class Nonlinearity:
    """Pointwise state nonlinearity with its sampled regularity data.

    The zero fixed point f(0) = 0 is a hard requirement (it keeps zero data
    an exact solution and licenses the derivative-form shortcut); a nonzero
    slope at the origin is legal but recorded, since the uniqueness
    hypotheses ask for more than the built-ins provide.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    label: str
    lipschitz: float
    fprime_at_zero: float

    @property
    def derivative_vanishes_at_zero(self) -> bool:
        return abs(self.fprime_at_zero) <= 1e-9

    def hypothesis_flags(self) -> dict:
        return {
            "zero_at_origin": True,
            "sampled_lipschitz": self.lipschitz,
            "fprime_at_zero": self.fprime_at_zero,
            "derivative_vanishes_at_zero": self.derivative_vanishes_at_zero,
        }


def nonlinearity_from_callable(fn: Callable[[np.ndarray], np.ndarray], label: str) -> Nonlinearity:
    """Wrap an elementwise callable, verifying f(0) = 0 and sampling slopes on [-4, 4]."""
    f0 = complex(np.asarray(fn(np.zeros(1)))[0])
    if abs(f0) > _ZERO_TOL:
        raise ValueError(f"nonlinearity must vanish at zero, got f(0) = {f0:.3e}")
    u = np.linspace(-4.0, 4.0, 2001)
    values = np.asarray(fn(u))
    if not np.all(np.isfinite(values)):
        raise ValueError("nonlinearity must be finite on the sampling range")
    slopes = np.abs(np.diff(values) / np.diff(u))
    lip = float(slopes.max()) if slopes.size else 0.0
    du = 1e-6
    fp0 = complex((np.asarray(fn(np.array([du])))[0] - np.asarray(fn(np.array([-du])))[0]) / (2 * du))
    return Nonlinearity(fn, label, lip, float(abs(fp0)))


def zero_nonlinearity() -> Nonlinearity:
    return Nonlinearity(lambda u: np.zeros_like(u), "zero", 0.0, 0.0)


def scaled_sine(amplitude: float) -> Nonlinearity:
    """u -> a sin(u); slope a at the origin (recorded, not rejected)."""
    a = float(amplitude)
    return nonlinearity_from_callable(lambda u: a * np.sin(u), f"{a:g}*sin(u)")


def _real_if_exact(arr: np.ndarray) -> np.ndarray:
    """arr, or its real part when its imaginary part is exactly zero."""
    if np.iscomplexobj(arr) and not np.any(arr.imag):
        return np.ascontiguousarray(arr.real)
    return arr


def _as_state(x) -> np.ndarray:
    values = x.values.copy() if isinstance(x, GridFunction) else np.atleast_1d(x)
    return _real_if_exact(_as_field(values))


def _stored(buf: np.ndarray, s: int, e: int, rows: np.ndarray) -> np.ndarray:
    """buf with rows written to [s, e); a real buf meeting complex rows widens first.

    The state of a real problem stays real only while every term it meets
    is: every regularized operator maps reals to reals, but a complex forcing,
    scalar, matrix or nonlinearity output makes the rows complex, and writing
    them into a real buffer would drop their imaginary part.
    """
    if np.iscomplexobj(rows) and not np.iscomplexobj(buf):
        buf = buf.astype(complex)
    buf[s:e] = rows
    return buf


@dataclass(frozen=True)
class CauchyProblem:
    """Data of one approximate Cauchy problem on a fixed time mesh.

    Construction normalizes the data in place: initial_data becomes the state
    array, initial_velocity and forcing (a per-node trajectory matching the
    state shape) become arrays, or None where they are zero.  Data and forcing
    whose imaginary part is exactly zero are held real, so a problem whose
    operator maps reals to reals is solved in real arithmetic.  grid and
    sobolev_order only matter for diagnostics that take spatial norms; plain
    vector problems leave them unset.
    """

    alpha: float
    operator: object
    nonlinearity: Nonlinearity
    initial_data: object
    mesh: TimeMesh
    forcing: Optional[object] = None
    initial_velocity: Optional[object] = None
    grid: Optional[SpatialGrid] = None
    sobolev_order: Optional[float] = None

    def __post_init__(self):
        if not (1.0 < self.alpha <= 2.0):
            raise SingularOrderError(f"time order must lie in (1, 2], got {self.alpha:g}")
        object.__setattr__(self, "_action", as_action(self.operator))
        q = _as_state(self.initial_data)
        object.__setattr__(self, "initial_data", q)
        u1 = None if self.initial_velocity is None else _as_state(self.initial_velocity)
        if u1 is not None and u1.shape != q.shape:
            raise SizeError("initial velocity shape does not match the initial data")
        object.__setattr__(self, "initial_velocity", u1 if u1 is not None and np.any(u1) else None)
        forcing = self.forcing
        if isinstance(forcing, Trajectory):
            forcing = forcing.values
        if forcing is not None:
            forcing = _real_if_exact(_as_field(forcing))
            if forcing.shape != (self.mesh.n_nodes,) + q.shape:
                raise SizeError(
                    f"forcing shape {forcing.shape} does not match "
                    f"({self.mesh.n_nodes},) + {q.shape}"
                )
        object.__setattr__(self, "forcing", forcing if forcing is not None and np.any(forcing) else None)
        if self.grid is not None and q.shape != (self.grid.n_points,):
            raise SizeError("initial data does not match the spatial grid")

    @property
    def action(self) -> LinearAction:
        return self._action

    @property
    def state_weight(self) -> float:
        """Quadrature weight of the discrete spatial L2 norm."""
        return self.grid.dx if self.grid is not None else 1.0


@dataclass(frozen=True)
class SolverOptions:
    """Solver tolerances and limits.

    tol bounds the row-sup change that ends the sweeps of a kernel-form block
    or a derivative-form window, times min(1, s) for a state of row-sup size
    s > 0; max_iter bounds the count of those sweeps.
    Both forms size their blocks or windows themselves.
    """

    tol: float = 1e-10
    max_iter: int = 50

    def __post_init__(self):
        if not (0.0 < self.tol < 1.0):
            raise ValueError("tol must lie in (0, 1)")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class SolverReport:
    """Outcome of one solve.

    contraction_history holds one list of changes per kernel-form block or
    derivative-form window, each divided by min(1, s) as the stop test
    compares it (_relative), so iterations, the longest of them, is at most
    max_iter, and sweeps, their total length, counts every sweep run.
    Blocks and windows are half-open row ranges [s, e); unconverged_rows
    names the first one that stopped at max_iter by its first and last row,
    (s, e - 1).
    """

    trajectory: np.ndarray
    form: str
    contraction_history: list
    metadata: dict
    unconverged_rows: Optional[tuple]

    @property
    def converged(self) -> bool:
        return self.unconverged_rows is None

    @property
    def iterations(self) -> int:
        return max(len(history) for history in self.contraction_history)

    @property
    def sweeps(self) -> int:
        return sum(len(history) for history in self.contraction_history)

    @property
    def final_change(self) -> float:
        return self.contraction_history[-1][-1]


def _row_sup(arr: np.ndarray, weight: float) -> float:
    flat = arr.reshape(arr.shape[0], -1)
    # the row norms np.linalg.norm(flat, axis=1) evaluates, without its overhead or conj()'s copy of real rows
    squares = (flat.conj() * flat).real if np.iscomplexobj(flat) else flat * flat
    norms = np.sqrt(np.add.reduce(squares, axis=1))
    return float(np.sqrt(weight) * norms.max())


def _relative(change: float, size: float) -> float:
    """change / min(1, size), the change the stop test holds against tol.

    A state of row-sup size below one is then converged to tol relative to
    its size, not absolutely; an exactly zero state keeps the absolute test.
    """
    return change / size if 0.0 < size < 1.0 else change


def _stop_size(solved: float, candidate: np.ndarray, weight: float) -> float:
    """max(solved, the candidate's row sup), the size a block's stop test takes.

    Past solved >= 1 the candidate's norm is not taken: _relative then returns
    the change whatever the size is.
    """
    return solved if solved >= 1.0 else max(solved, _row_sup(candidate, weight))


def _propagated(p: CauchyProblem, power: float, x: np.ndarray) -> np.ndarray:
    """t**power E_{alpha,power+1}(t**alpha A) x on every node of the mesh.

    Each such datum solves y = t**power / Gamma(power + 1) x + J^alpha(A y).
    The power is passed rather than beta = power + 1, which can round away
    the last bit of power = alpha.
    """
    nodes = p.mesh.nodes
    out = ml_trajectory(p.alpha, power + 1.0, p.action, x, nodes)
    if power != 0.0:
        out *= nodes.reshape((nodes.size,) + (1,) * np.ndim(x)) ** power
    return out


def _base_trajectory(p: CauchyProblem) -> np.ndarray:
    """Propagated initial state plus the order-one integral of the velocity.

    Raises FracwaveError, without floating-point warnings, when the
    propagated data leave the double range, before any fixed-point sweep.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        base = _propagated(p, 0.0, p.initial_data)
        if p.initial_velocity is not None:
            base = base + _propagated(p, 1.0, p.initial_velocity)
    if not np.all(np.isfinite(base)):
        scale = max(float(np.max(np.abs(x))) for x in (p.initial_data, p.initial_velocity) if x is not None)
        raise FracwaveError(
            f"propagated initial data overflow double precision (data scale {scale:.3g}); "
            "reduce the displacement or velocity scale"
        )
    return base


def _block_levels(p: CauchyProblem, s: int, e: int, head_beta: float) -> int:
    """Series levels that certify the in-block chain of rows [s, e).

    They come from the certified majorant at the time span the block's
    quadrature rows reach.  The head block has no history, so it is exactly
    the full-horizon series of the caller's output (order head_beta) on a
    shorter mesh; later blocks add a history that enters unsmoothed, hence
    order one.
    """
    nodes = p.mesh.nodes
    # the hat functions of rows s..e-1 reach back to node s - 1 (to 0 in the head)
    span, beta = (float(nodes[e - 1]), head_beta) if s == 0 else (float(nodes[e - 1] - nodes[s - 1]), 1.0)
    return _series_terms(p.alpha, beta, span, p.action.norm_bound)


def _block_plan(p: CauchyProblem) -> list:
    """Row blocks [s, e) of _BLOCK_ROWS rows with their levels at the derivative form's head order, 3."""
    n = p.mesh.n_nodes
    plan = []
    for s in range(0, n, _BLOCK_ROWS):
        e = min(s + _BLOCK_ROWS, n)
        plan.append((s, e, _block_levels(p, s, e, 3.0)))
    return plan


def _plan_meta(plan: list, row_limit: int = _BLOCK_ROWS, folded: int = 0) -> dict:
    """The plan's record; every block but the folded ones runs its series cold on each sweep."""
    return {
        "series_levels": max(levels for _, _, levels in plan),
        "volterra_block_rows": row_limit,
        "volterra_blocks": len(plan),
        "cold_blocks": len(plan) - folded,
    }


def _all_zero(*arrays) -> bool:
    """True when no entry of the arrays is nonzero (NaN counts as nonzero): the memory they feed is exactly zero."""
    return not any(np.any(a) for a in arrays)


def _chain(
    action: LinearAction, w_bb: np.ndarray, h, g: np.ndarray, y: Optional[np.ndarray], levels: int, rows_shape: tuple
) -> tuple:
    """levels steps of v_B <- g_B + A y_B, y_B <- h + W_BB v_B on one block; returns (y_B, v_B).

    h is the block's history sum, g and y its rows flattened to (rows, -1);
    y None is a cold start from v_B = g_B.  A cold start whose g and h hold
    no nonzero entry has an exactly zero memory: it returns +0 rows, the
    chain's own sums on that input, without applying the operator or W_BB
    (the chain's v_B may hold -0.0 there, but v only enters weight sums).
    """
    if y is None:
        if _all_zero(g, h):
            zero = np.zeros(g.shape, np.result_type(h, g))
            return zero, zero
        v = g
        y = h + _weights_product(w_bb, g)
    for _ in range(levels):
        v = g + action.apply_rows(y.reshape(rows_shape)).reshape(g.shape[0], -1)
        y = h + _weights_product(w_bb, v)
    return y, v


# chain levels per refresh of f in a folded block on the half spectrum: its
# linear part contracts about 0.05 per level, and a level costs a small GEMM
# and a multiply, while a refresh costs f and a transform each way
_MODE_LEVELS = 2


def _half_spectra(rows: np.ndarray, dim: int) -> np.ndarray:
    """The real half spectra of (n, dim) rows, as (n, parts, dim // 2 + 1).

    A real row is one part.  A complex row's parts are its real and imaginary
    fields, the pairs of its float view, so it crosses the transform as two
    real fields, the rule _real_parts keeps, with no copy before it.
    """
    flat = np.ascontiguousarray(rows)
    return np.fft.rfft(flat.view(float).reshape(flat.shape[0], dim, -1).transpose(0, 2, 1), axis=-1)


def _samples(spectra: np.ndarray, dim: int) -> np.ndarray:
    """The (n, dim) rows whose _half_spectra these are: real for one part, complex for two."""
    fields = np.ascontiguousarray(np.fft.irfft(spectra, dim, axis=-1).transpose(0, 2, 1))
    return fields.reshape(fields.shape[0], -1).view(complex if spectra.shape[1] == 2 else float)


def _common_parts(*spectra) -> list:
    """The spectra widened to the most parts any has by a zero part (a real row's imaginary field); scalars pass."""
    parts = max((x.shape[1] for x in spectra if np.ndim(x)), default=1)
    return [
        x if not np.ndim(x) or x.shape[1] == parts else np.concatenate((x, np.zeros_like(x)), axis=1) for x in spectra
    ]


def _mode_chain(lam: np.ndarray, w_bb: np.ndarray, h_hat, g_hat: np.ndarray, y_hat: Optional[np.ndarray]) -> tuple:
    """_MODE_LEVELS levels of _chain on a block's half spectra; returns (y^_B, v^_B).

    The spectra are (rows, parts, modes) (_half_spectra) and lam the
    multiplier, so A y is lam * y^ and no level transforms.  y^ None is a
    cold start from v^_B = g^_B.  A cold start whose g^ and h^ hold no
    nonzero entry returns +0 spectra, whose rows are +0, without a product,
    as _chain does.
    """
    g_hat, h_hat, y_hat = _common_parts(g_hat, h_hat, y_hat)
    if y_hat is None:
        if _all_zero(g_hat, h_hat):
            zero = np.zeros_like(g_hat)
            return zero, zero
        y_hat = h_hat + _weights_product(w_bb, g_hat)
    for _ in range(_MODE_LEVELS):
        v_hat = g_hat + lam * y_hat
        y_hat = h_hat + _weights_product(w_bb, v_hat)
    return y_hat, v_hat


def _volterra(weights: Callable, action: LinearAction, g: np.ndarray, plan: list) -> np.ndarray:
    """Solve y = W (g + A y) by blocked forward substitution; returns v = g + A y.

    v is what the summed operator series leaves before the final
    quadrature, and y = W v.  weights(s, e) gives the rows W[s:e, :e],
    built per block, so no N x N matrix is held.  Per block B = [s, e) the
    history h = W[B, :s] v[:s] is one product; the block is then a
    cold-started _chain of its plan's levels.
    """
    shape = g.shape
    flat = _as_field(g).reshape(shape[0], -1)
    v = np.empty_like(flat)
    for s, e, levels in plan:
        w = weights(s, e)
        h = _weights_product(w[:, :s], v[:s]) if s else 0.0
        v = _stored(v, s, e, _chain(action, w[:, s:], h, flat[s:e], None, levels, (e - s,) + shape[1:])[1])
    return v.reshape(shape)


# the length of the time FFT that applies a block's resolvent: twice a block,
# so the causal convolution of _BLOCK_ROWS rows does not wrap
_RESOLVENT_FFT = 2 * _BLOCK_ROWS


def _mode_resolvents(alpha: float, n_nodes: int, dt: float, lam: np.ndarray) -> Optional[np.ndarray]:
    """The time FFTs of the first columns r of (I - lam_k T)^-1, one column per mode; None to keep the series.

    T is the lower-triangular Toeplitz section of the order-alpha weights
    past column 0, of one block's rows: c_0 = dt**alpha / Gamma(alpha + 2) on
    the diagonal, then b_1, b_2, ...  Its inverse is lower-triangular Toeplitz
    too, and r follows from the triangular recursion r_0 = 1 / (1 - lam c_0),
    r_i = lam r_0 (c_i r_0 + ... + c_1 r_{i-1}), all modes at once.  Where
    some mode has |1 - lam c_0| < 1/2, r_0 exceeds 2 and the recursion
    magnifies rounding row by row; None then leaves the solve to the physical series.
    """
    c = _toeplitz_column(alpha, n_nodes, dt, _BLOCK_ROWS)
    pivot = 1.0 - lam * c[0]
    if np.any(np.abs(pivot) < 0.5):
        return None
    r = np.empty((c.size, lam.size), complex)
    r[0] = 1.0 / pivot
    gain = lam * r[0]
    for i in range(1, c.size):
        r[i] = gain * (c[i:0:-1] @ r[:i])
    return np.fft.fft(r, _RESOLVENT_FFT, axis=0)


def _mode_volterra(weights: Callable, lam: np.ndarray, resolvents: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Solve y = W (g + lam y) exactly mode by mode; returns v = g + lam y.

    g holds one column per mode and lam its multiplier.  Per block
    B = [s, e), with v[B] still holding g_B, one product gives
    W[B, :e] v[:e] = W[B, :s] v[:s] + W_BB g_B, and y_B = R (that) solves
    (I - lam W_BB) y_B = W[B, :s] v[:s] + W_BB g_B.  Past column 0, W_BB is
    the Toeplitz section T, so R is each mode's resolvent, applied as a
    causal convolution along time through the FFT (_mode_resolvents).  In
    the head block row 0 of W is zero, so its rows 1.. form the same system.
    Then v_B = g_B + lam y_B.  weights(s, e) gives the rows W[s:e, :e],
    built per block, so no N x N matrix is held.
    """
    v = g.copy()
    n = v.shape[0]
    for s in range(0, n, _BLOCK_ROWS):
        e = min(s + _BLOCK_ROWS, n)
        spectrum = np.fft.fft(_weights_product(weights(s, e), v[:e]), _RESOLVENT_FFT, axis=0)
        y = np.fft.ifft(np.multiply(spectrum, resolvents, out=spectrum), axis=0)[: e - s]
        v[s:e] += lam * y
    return v


def _buffer(buffers: dict, key: str, dtype, shape: tuple) -> np.ndarray:
    """The solve's buffer under key, made anew only when its dtype or shape changes."""
    buf = buffers.get(key)
    if buf is None or buf.dtype != dtype or buf.shape != shape:
        buf = buffers[key] = np.empty(shape, dtype)
    return buf


def _forced(p: CauchyProblem, u: np.ndarray, rows=slice(None)) -> np.ndarray:
    """f(u) + P, with P on the given rows of the mesh."""
    g = p.nonlinearity.fn(u)
    if p.forcing is not None:
        g = g + p.forcing[rows]
    return g


def _centred(p: CauchyProblem, u: np.ndarray, f0: np.ndarray, buffers: dict) -> np.ndarray:
    """f(u) + P - f0, summed in the solve's buffer "centred"."""
    g = p.nonlinearity.fn(u)
    out = _buffer(buffers, "centred", np.result_type(g, f0, float), g.shape)
    if p.forcing is not None:
        g = np.add(g, p.forcing, out=out)
    return np.subtract(g, f0, out=out)


def _converge(opts: SolverOptions, where: str, state, sweep: Callable) -> tuple:
    """Run state, change = sweep(state) until the change is below tol.

    Returns (state, changes, converged); converged is False after max_iter
    sweeps.  A non-finite change, or _DIVERGENCE_PATIENCE rises in a row,
    raises DivergenceError.
    """
    remedy = "shorten the horizon or refine the mesh"
    changes: list = []
    rises = 0
    for _ in range(opts.max_iter):
        # overflow in a blowing-up iterate is caught by the finite check below
        with np.errstate(over="ignore", invalid="ignore"):
            state, change = sweep(state)
        if not math.isfinite(change):
            raise DivergenceError(f"picard iterate blew up in {where}; {remedy}")
        rises = rises + 1 if changes and change > changes[-1] else 0
        if rises >= _DIVERGENCE_PATIENCE:
            raise DivergenceError(f"picard change grew {rises} times in a row in {where} (last {change:.3e}); {remedy}")
        changes.append(change)
        if change < opts.tol:
            return state, changes, True
    return state, changes, False


def _report(form: str, trajectory: np.ndarray, histories: list, stalled: Optional[tuple], extra: dict) -> SolverReport:
    """The report of one solve; its metadata is the arithmetic both forms record, then the form's own."""
    arithmetic = "complex" if np.iscomplexobj(trajectory) else "real"
    meta = {"arithmetic": arithmetic, **extra}
    return SolverReport(trajectory, form, histories, meta, stalled)


def _fold_blocks(p: CauchyProblem, cap: int = _BLOCK_ROWS, fold_later: bool = False):
    """Yield the row blocks [s, e) of the march as (s, e, q), each planned once the last is taken.

    A block takes at most cap rows (the kernel form's _BLOCK_ROWS; the
    derivative form's windows pass the node count), and no more than keep
    Lip f * ||W_BB||_inf <= 1/2, W the order-alpha weights.
    q = ||W_BB||_inf (||A|| + Lip f) bounds the Lipschitz constant of the
    whole in-block map.  With fold_later, every block after the head also
    takes no more rows than keep q <= 1/2, so that it folds; one whose first
    row alone has q > 1/2 keeps the Lipschitz rows.  The head block is never
    cut by q.  The norms are prefix sums of the weights' taps (_block_norms),
    so planning builds no weight row.  A row that fails the Lipschitz bound
    alone raises ResolutionError.
    """
    lip = p.nonlinearity.lipschitz
    norm_a = p.action.norm_bound
    n = p.mesh.n_nodes
    s = 0
    while s < n:
        # ||W_BB||_inf of [s, s + 1), [s, s + 2), ..., nondecreasing
        norms = _block_norms(p.alpha, n, p.mesh.dt, s, min(cap, n - s))
        rows = int(np.count_nonzero(lip * norms <= 0.5))
        if rows == 0:
            w0 = p.mesh.dt**p.alpha / gamma(p.alpha + 2.0)
            raise ResolutionError(
                f"one time step does not resolve the nonlinearity: "
                f"dt^alpha * Lip f / Gamma(alpha + 2) = {w0:.3g} * {lip:.3g} = {w0 * lip:.3g} > 1/2; "
                "refine the mesh (mesh.n_steps) or shorten the horizon"
            )
        if fold_later and s:
            rows = int(np.count_nonzero(norms * (norm_a + lip) <= 0.5)) or rows
        yield s, s + rows, float(norms[rows - 1]) * (norm_a + lip)
        s += rows


def solve_kernel_form(p: CauchyProblem, opts: SolverOptions = SolverOptions()) -> SolverReport:
    """Solve u = b + W (f(u) + P + A (u - b)) block by block in time.

    b is the propagated data and W the kernel's product-integration weights.
    Each block B of rows sums its history h = W[B, :s] v[:s] once, then
    iterates its own fixed point until the row-sup change of the state,
    relative to the largest row of the rows solved so far and the candidate,
    is below tol: f is refreshed at the current state, the linear in-block part
    is solved, and y_B = h + W_BB v_B.  The head block takes the rows
    Lip f bounds; every later block also takes no more rows than keep its
    contraction bound q at most 1/2.  A block with q <= 1/2 folds: it
    warm-starts its chain and refreshes f after every operator apply, or, on
    an action with a multiplier, after _MODE_LEVELS levels on the real half
    spectrum (_mode_chain).  There it transforms h once per block and, per
    sweep, f(u) + P once and y_B back once; v_B comes back once, when the
    block has converged.  Any other block runs its certified operator series
    in physical space from a cold start on each sweep: the head where
    q > 1/2, and a later block only where its first row alone has q > 1/2.
    So a mesh of one block runs the whole-horizon Picard sweeps exactly, and
    the metadata counts the blocks that ran cold as cold_blocks.  A block
    that reaches max_iter marks the report unconverged; the march goes on.
    Each block is planned from the weights' taps when the one before has
    converged, and then builds its weight rows W[B, :e] for its history and
    its sweeps: the solve builds every weight row once, one block at a time.
    A block whose forcing rows and history are exactly zero skips its
    operator series (_chain, _mode_chain), so a homogeneous solve costs its
    propagator only.
    """
    base = _base_trajectory(p)
    shape = base.shape
    n = shape[0]
    flat_base = base.reshape(n, -1)
    weight = p.state_weight
    dim = p.action.dim
    # a multiplier meets rows of its own dimension on the half spectrum, whatever the data
    lam = p.action.multiplier if shape[1:] == (dim,) else None
    u = np.empty_like(flat_base)
    v = np.empty_like(flat_base)
    histories: list = []
    plan: list = []
    qs: list = []
    stalled = None
    solved = 0.0  # the largest row-sup size of the rows already solved
    for s, e, q in _fold_blocks(p, fold_later=True):
        weights = pi_weights(p.alpha, n, p.mesh.dt, s, e)
        rows_shape = (e - s,) + shape[1:]
        w_bb = weights[:, s:]
        b_b = flat_base[s:e]
        h = _weights_product(weights[:, :s], v[:s]) if s else 0.0
        fold = q <= 0.5
        on_modes = fold and lam is not None
        h_hat = _half_spectra(h, dim) if on_modes and s else 0.0
        levels = 1 if fold else _block_levels(p, s, e, p.alpha + 1.0)
        plan.append((s, e, levels))
        qs.append(q)

        def sweep(state: tuple) -> tuple:
            cur, y, _ = state
            g = _forced(p, cur.reshape(rows_shape), slice(s, e)).reshape(e - s, -1)
            if on_modes:
                y, v_b = _mode_chain(lam, w_bb, h_hat, _half_spectra(g, dim), y)
                candidate = b_b + _samples(y, dim)
            else:
                y, v_b = _chain(p.action, w_bb, h, g, y if fold else None, levels, rows_shape)
                candidate = b_b + y
            change = _row_sup(candidate - cur, weight)
            return (candidate, y, v_b), _relative(change, _stop_size(solved, candidate, weight))

        # a later block starts from the data plus its history; the head block
        # starts from the data alone, exactly as whole-horizon Picard does
        start = (b_b + h if s else b_b, None, None)
        (cur, _, v_b), history, converged = _converge(opts, f"block rows {s}..{e - 1}", start, sweep)
        if not converged:
            stalled = stalled or (s, e - 1)
        solved = max(solved, _row_sup(cur, weight))
        u = _stored(u, s, e, cur)
        v = _stored(v, s, e, _samples(v_b, dim) if on_modes else v_b)
        histories.append(history)
    # a block that a bound cut short of _BLOCK_ROWS (or of the rows left) sets the row limit
    row_limit = min([e - s for s, e, _ in plan if e - s < min(_BLOCK_ROWS, n - s)], default=_BLOCK_ROWS)
    folded = sum(q <= 0.5 for q in qs)
    meta = {**_plan_meta(plan, row_limit, folded), "block_q_max": max(qs)}
    return _report("kernel", u.reshape(shape), histories, stalled, meta)


def solve_rl_form(p: CauchyProblem, opts: SolverOptions = SolverOptions()) -> SolverReport:
    """Picard iteration through the fractional-derivative representation.

    The forcing enters as a derivative of order 2 - alpha under an order-one
    integral of the propagator.  The initial forcing value F(0) is split off
    exactly (constant part of the derivative) and its convolution evaluated
    in closed Mittag-Leffler form.  What remains, the Riemann-Liouville
    derivative of F - F(0), is the Caputo derivative of F; it runs through
    rl_derivative of order 2 - alpha and the blocked Volterra march under an
    order-two integral.  One solve therefore covers both derivative
    conventions.  Each sweep applies the derivative and the march's
    order-alpha weights as lower-triangular products whose rows are built
    _BLOCK_ROWS at a time from the cached taps, so no N x N matrix is held,
    and the order-two weights by their exact two-sum recursion
    (_second_integral).

    On an action with a multiplier the derivative and the march run on the
    real half spectrum, complex data part by part, and the march solves
    every mode exactly (_mode_volterra) with resolvents computed once per
    solve.  Where some mode has |1 - lam dt**alpha / Gamma(alpha + 2)| < 1/2,
    and for a variable coefficient, scalars and matrices, the march sums the
    certified series of _volterra in physical space.  The operator chooses
    the march once, before the sweeps, and the metadata's "march" names it,
    "modes" or "series"; a march by modes records series_levels and
    cold_blocks as 0.

    The whole-horizon sweeps converge window by window over the kernel form's
    blocks without their row cap (a nonlinearity one time step cannot resolve
    raises the same ResolutionError); the metadata counts them as windows.  A
    window sweeps until the row-sup change on its rows [s, e), relative to the
    whole iterate's size, is below tol; each sweep also moves the later rows.
    """
    if p.alpha >= 2.0:
        raise SingularOrderError("the derivative form needs time order strictly below 2")
    mesh = p.mesh
    f0 = _forced(p, p.initial_data, 0)
    f0_norm = float(np.linalg.norm(np.atleast_1d(f0).ravel()))

    windows = list(_fold_blocks(p, mesh.n_nodes))
    # every sweep builds its weight rows block by block: rl_derivative's of order
    # 2 - alpha and the order-alpha weights of the march
    weights_alpha = partial(pi_weights, p.alpha, mesh.n_nodes, mesh.dt)
    plan = _block_plan(p)

    singular = _propagated(p, p.alpha, f0) if f0_norm > 0.0 else 0.0
    base = _base_trajectory(p)
    # the operator chooses the march once: by modes on a multiplier, whatever the data
    lam = p.action.multiplier
    resolvents = None if lam is None else _mode_resolvents(p.alpha, mesh.n_nodes, mesh.dt, lam)
    weight = p.state_weight
    u = base.copy()
    histories: list = []
    stalled = None
    buffers: dict = {}  # the field-sized "centred" buffer, written in place on every sweep

    def by_modes(part: np.ndarray) -> np.ndarray:
        """v on real centred samples: derivative and march on the real half spectrum, each mode exact."""
        g = rl_derivative(np.fft.rfft(part, axis=-1), 2.0 - p.alpha, mesh)
        return np.fft.irfft(_mode_volterra(weights_alpha, lam, resolvents, g), p.action.dim, axis=-1)

    def memory(centred: np.ndarray) -> np.ndarray:
        """W_2 v, where v = g + A y, y = W_alpha (g + A y) and g = rl_derivative(centred), written over centred.

        A multiplier meets the data mode by mode (by_modes, per part of
        complex data).  A centred forcing with no nonzero entry has an
        exactly zero memory, returned as +0 in place without a transform or
        a product.
        """
        if _all_zero(centred):
            centred.fill(0.0)
            return centred
        if resolvents is None:
            v = _volterra(weights_alpha, p.action, rl_derivative(centred, 2.0 - p.alpha, mesh), plan)
        else:
            v = _real_parts(by_modes, centred)
        return _second_integral(v, mesh.dt, _buffer(buffers, "centred", v.dtype, v.shape))

    for s, e, _ in windows:

        def sweep(u: np.ndarray) -> tuple:
            mem = memory(_centred(p, u, f0, buffers))
            mem = mem.astype(np.result_type(mem, base, singular), copy=False)
            # singular + memory first: pre-adding singular to base moves the windows' stall levels
            candidate = np.add(base, np.add(singular, mem, out=mem), out=mem)
            change = _row_sup(candidate[s:e] - u[s:e], weight)
            u = _stored(u, s, u.shape[0], candidate[s:])
            return u, _relative(change, _row_sup(u, weight))

        u, history, converged = _converge(opts, f"window rows {s}..{e - 1}", u, sweep)
        if not converged:
            stalled = stalled or (s, e - 1)
        histories.append(history)
    if resolvents is None:
        march = {"march": "series", **_plan_meta(plan)}
    else:
        march = {"march": "modes", **_plan_meta([(s, e, 0) for s, e, _ in plan]), "cold_blocks": 0}
    meta = {**march, "windows": len(windows), "initial_forcing_norm": f0_norm}
    return _report("rl", u, histories, stalled, meta)


def second_derivative_identity_check(report: SolverReport, p: CauchyProblem) -> float:
    """Interior deviation between the two sides of the curvature identity.

    The second time difference of the memory integral y must match the
    derivative of g = f(u) + P under an integral of order alpha - 1, plus the
    analytic power carrying g(0), plus A times the order 2 alpha - 2 integral
    of g + A y, the integrand of y = W_alpha (g + A y).  The singular power is
    evaluated in closed form; nodes too close to either end are excluded
    (one-sided stencils and the unresolvable power at the origin live there).
    """
    mesh = p.mesh
    if mesh.n_nodes < 16:
        raise SizeError("identity check needs at least sixteen nodes")
    base = _base_trajectory(p)
    memory = report.trajectory - base
    lhs = second_difference(memory, mesh.dt)

    g = _forced(p, report.trajectory)
    g0 = g[0]
    term_derivative = rl_integral(first_difference(g, mesh.dt), p.alpha - 1.0, mesh)

    shape = (mesh.n_nodes,) + (1,) * p.initial_data.ndim
    power = np.zeros(mesh.n_nodes)
    power[1:] = mesh.nodes[1:] ** (p.alpha - 2.0) / gamma(p.alpha - 1.0)
    term_singular = power.reshape(shape) * np.asarray(g0)[None, ...]

    term_smoothed = p.action.apply_rows(rl_integral(g + p.action.apply_rows(memory), 2.0 * p.alpha - 2.0, mesh))

    rhs = term_derivative + term_singular + term_smoothed
    k0 = max(1, mesh.n_steps // 4)
    dev = (lhs - rhs)[k0 : mesh.n_nodes - 2]
    return _row_sup(dev, p.state_weight)


@dataclass(frozen=True)
class StabilityReport:
    """Measured initial-data sensitivity at a ladder of perturbation scales."""

    k_values: np.ndarray


def gronwall_stability_probe(
    p: CauchyProblem,
    delta_q: np.ndarray,
    opts: SolverOptions = SolverOptions(),
    scales: tuple = (1.0, 0.1),
) -> StabilityReport:
    """Growth factor of a solution difference against its data perturbation.

    Solves once for the nominal data and once per scaled perturbation; the
    reported K is the sup over time of the state-difference norm divided by
    the perturbation norm.  Stability means K barely moves across scales
    (linear response).
    """
    dq = _as_state(delta_q)
    if dq.shape != p.initial_data.shape:
        raise SizeError("perturbation shape does not match the initial data")
    weight = p.state_weight
    dq_norm = float(np.sqrt(weight) * np.linalg.norm(dq.ravel()))
    nominal = solve_kernel_form(p, opts).trajectory
    ks = []
    for s in scales:
        if s == 0.0 or dq_norm == 0.0:
            ks.append(math.nan)
            continue
        shifted = replace(p, initial_data=p.initial_data + s * dq)
        diff = solve_kernel_form(shifted, opts).trajectory - nominal
        ks.append(_row_sup(diff, weight) / (abs(s) * dq_norm))
    return StabilityReport(np.asarray(ks))


@dataclass
class ModerationReport:
    """Per-epsilon sup norms of the state, its velocity, and its fractional
    derivative, with fitted power-law exponents against 1/epsilon.

    solves holds one summary per rung of the solve's work: its sweeps, series
    levels, largest block contraction bound and count of blocks that ran their
    series cold, or None where the rung failed.
    """

    epsilons: np.ndarray
    norms: dict
    exponents: dict
    fitted_n: float
    statuses: list
    solves: list


_FAMILIES = ("state", "velocity", "fractional_derivative")


def moderateness_scan(
    build_problem: Callable[[float], CauchyProblem],
    schedule: EpsilonSchedule,
    opts: SolverOptions = SolverOptions(),
) -> ModerationReport:
    """Solve the problem family along the ladder and fit growth exponents.

    Norms are spatial Sobolev norms when the problems carry a grid and a
    regularity index, plain weighted vector norms otherwise; the exponent of
    each family is the slope of log(sup norm) against log(1/epsilon).
    Failed solves are recorded and excluded from the fits.
    """
    eps_grid = schedule.epsilons
    norms = {name: np.full(eps_grid.size, np.nan) for name in _FAMILIES}
    statuses = []
    solves = []
    for i, eps in enumerate(eps_grid):
        try:
            problem = build_problem(float(eps))
            report = solve_kernel_form(problem, opts)
        except FracwaveError as exc:
            # a ladder point that cannot even be assembled is a flagged
            # failure, same as a solve that blows up
            statuses.append(f"failed: {exc}")
            solves.append(None)
            continue
        solves.append(
            {
                "sweeps": report.sweeps,
                "series_levels": report.metadata["series_levels"],
                "block_q_max": report.metadata["block_q_max"],
                "cold_blocks": report.metadata["cold_blocks"],
            }
        )
        mesh = problem.mesh
        u = report.trajectory
        fields = {
            "state": u,
            "velocity": first_difference(u, mesh.dt),
            "fractional_derivative": caputo_derivative(u, problem.alpha, mesh),
        }
        for name, values in fields.items():
            norms[name][i] = _sup_spatial_norm(values, problem)
        statuses.append("ok" if report.converged else "no-convergence")
    exponents = {}
    for name, values in norms.items():
        good = np.isfinite(values) & (values > 0.0)
        if good.sum() >= 2:
            slope = np.polyfit(np.log(1.0 / eps_grid[good]), np.log(values[good]), 1)[0]
            exponents[name] = float(slope)
        else:
            exponents[name] = math.nan
    finite_exps = [v for v in exponents.values() if np.isfinite(v)]
    fitted_n = max(finite_exps) if finite_exps else math.nan
    return ModerationReport(eps_grid, norms, exponents, fitted_n, statuses, solves)


def _sup_spatial_norm(values: np.ndarray, p: CauchyProblem) -> float:
    if p.grid is not None and p.sobolev_order is not None:
        return float(np.max(sobolev_norms(p.grid, values, p.sobolev_order)))
    return _row_sup(values, p.state_weight)
