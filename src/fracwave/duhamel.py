"""Fixed-point solver for the fractional Cauchy problem in two Duhamel forms.

The state satisfies a Caputo problem of time order in (1, 2) driven by a
bounded generator, a pointwise nonlinearity, and an additive forcing
trajectory.  Both representations iterate the same Picard map over the whole
window; they differ in how the memory integral against the forcing is
realized:

* kernel form: the weakly singular kernel acts directly on f(U) + P;
* derivative form: the forcing enters through a fractional derivative of
  order 2 - alpha under an order-one integral of the propagator.  The
  initial forcing value is split off analytically (its convolution has a
  closed Mittag-Leffler form), leaving the quadrature only the regular
  part.

Both reduce to the same trapezoid-free product-integration toolbox, but the
discretizations are genuinely different, which is what makes their agreement
a meaningful cross-check.

Every memory integral that meets the operator (both forms and the curvature
identity check) is the same lower-triangular discrete Volterra system
y = W (g + A y), with W a product-quadrature matrix and A the operator.  One
blocked forward march solves it (once per Picard sweep): per block of rows,
one dense product sums the history of the earlier rows, and a short operator
series, certified at the block's own time span, resolves the rows inside the
block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DivergenceError, FracwaveError, SingularOrderError, SizeError
from .fractional import (
    GridFunction,
    SpatialGrid,
    TimeMesh,
    Trajectory,
    _weights_product,  # real-view product of weights with complex samples
    caputo_derivative,
    first_difference,
    pi_weights,
    rl_derivative,
    rl_integral,
    second_difference,
    sobolev_norm,
)
from .regularization import EpsilonSchedule
from .solution import LinearAction, as_action, ml_trajectory
from .special import gamma, series_term_count

__all__ = [
    "Nonlinearity",
    "zero_nonlinearity",
    "scaled_sine",
    "cubic_saturating",
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
# rows per block of the Volterra march: large enough that the history product
# is a real matrix product, small enough that the in-block series stays short
_BLOCK_ROWS = 64
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


def cubic_saturating(amplitude: float) -> Nonlinearity:
    """u -> a u / (1 + u**2); bounded with bounded slope."""
    a = float(amplitude)
    return nonlinearity_from_callable(lambda u: a * u / (1.0 + u**2), f"{a:g}*u/(1+u^2)")


def _as_state(x) -> np.ndarray:
    if isinstance(x, GridFunction):
        return x.values.copy()
    return np.atleast_1d(np.asarray(x))


@dataclass(frozen=True)
class CauchyProblem:
    """Data of one approximate Cauchy problem on a fixed time mesh.

    forcing is a per-node trajectory matching the state shape (None means
    zero).  grid and sobolev_order only matter for diagnostics that take
    spatial norms; plain vector problems leave them unset.
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
        object.__setattr__(self, "_q", q)
        u1 = None if self.initial_velocity is None else _as_state(self.initial_velocity)
        if u1 is not None and u1.shape != q.shape:
            raise SizeError("initial velocity shape does not match the initial data")
        if u1 is not None and not np.any(u1):
            u1 = None
        object.__setattr__(self, "_u1", u1)
        forcing = self.forcing
        if isinstance(forcing, Trajectory):
            forcing = forcing.values
        if forcing is not None:
            forcing = np.asarray(forcing)
            if forcing.shape != (self.mesh.n_nodes,) + q.shape:
                raise SizeError(
                    f"forcing shape {forcing.shape} does not match "
                    f"({self.mesh.n_nodes},) + {q.shape}"
                )
            if not np.any(forcing):
                forcing = None
        object.__setattr__(self, "_forcing", forcing)
        if self.grid is not None and q.shape != (self.grid.n_points,):
            raise SizeError("initial data does not match the spatial grid")

    @property
    def action(self) -> LinearAction:
        return self._action

    @property
    def state0(self) -> np.ndarray:
        return self._q

    @property
    def velocity0(self) -> Optional[np.ndarray]:
        return self._u1

    @property
    def forcing_values(self) -> Optional[np.ndarray]:
        return self._forcing

    @property
    def state_weight(self) -> float:
        """Quadrature weight of the discrete spatial L2 norm."""
        return self.grid.dx if self.grid is not None else 1.0


@dataclass(frozen=True)
class SolverOptions:
    tol: float = 1e-10
    max_iter: int = 50
    n_windows: int = 1
    series_tol: float = 1e-12

    def __post_init__(self):
        if not (0.0 < self.tol < 1.0):
            raise ValueError("tol must lie in (0, 1)")
        if self.max_iter < 1 or self.n_windows < 1:
            raise ValueError("max_iter and n_windows must be at least 1")


@dataclass
class SolverReport:
    trajectory: np.ndarray
    mesh: TimeMesh
    form: str
    converged: bool
    iterations: int
    contraction_history: list
    final_change: float
    options: SolverOptions
    metadata: dict = field(default_factory=dict)


def _row_sup(arr: np.ndarray, weight: float) -> float:
    flat = arr.reshape(arr.shape[0], -1)
    return float(np.sqrt(weight) * np.linalg.norm(flat, axis=1).max())


def _base_trajectory(p: CauchyProblem, series_tol: float) -> np.ndarray:
    """Propagated initial state plus the order-one integral of the velocity."""
    nodes = p.mesh.nodes
    base = ml_trajectory(p.alpha, 1.0, p.action, p.state0, nodes, tol=series_tol)
    if p.velocity0 is not None:
        shape = (nodes.size,) + (1,) * p.state0.ndim
        base = base + nodes.reshape(shape) * ml_trajectory(
            p.alpha, 2.0, p.action, p.velocity0, nodes, tol=series_tol
        )
    return base


def _block_plan(p: CauchyProblem, head_beta: float, series_tol: float) -> list:
    """Row blocks [s, e) of the Volterra march with their series level counts.

    A block's levels come from the certified majorant at the time span its
    quadrature rows reach.  The head block has no history, so it is exactly
    the full-horizon series of the caller's output (order head_beta) on a
    shorter mesh; later blocks add a history that enters unsmoothed, hence
    order one.
    """
    nodes = p.mesh.nodes.tolist()
    plan = []
    for s in range(0, len(nodes), _BLOCK_ROWS):
        e = min(s + _BLOCK_ROWS, len(nodes))
        # the hat functions of rows s..e-1 reach back to node s - 1 (to 0 in the head)
        span, beta = (nodes[e - 1], head_beta) if s == 0 else (nodes[e - 1] - nodes[s - 1], 1.0)
        z = span**p.alpha * p.action.norm_bound
        plan.append((s, e, series_term_count(p.alpha, beta, z, series_tol)))
    return plan


def _plan_meta(plan: list) -> dict:
    return {
        "series_levels": max(levels for _, _, levels in plan),
        "volterra_block_rows": _BLOCK_ROWS,
        "volterra_blocks": len(plan),
    }


def _volterra(weights: np.ndarray, action: LinearAction, g: np.ndarray, plan: list) -> tuple:
    """Solve y = W (g + A y) by blocked forward substitution; returns (y, v).

    v = g + A y is what the summed operator series leaves before the final
    quadrature.  Per block B = [s, e) the history h = W[B, :s] v[:s] is one
    product; the block is then a short fixed-point chain
    v_B <- g_B + A (h + W_BB v_B) and y_B = h + W_BB v_B.
    """
    shape = g.shape
    flat = g.reshape(shape[0], -1)
    y = np.empty(flat.shape, dtype=complex)
    v = np.empty(flat.shape, dtype=complex)
    for s, e, levels in plan:
        w_bb = weights[s:e, s:e]
        h = _weights_product(weights[s:e, :s], v[:s]) if s else 0.0
        g_b = flat[s:e]
        acc = g_b
        for _ in range(levels):
            rows = (h + _weights_product(w_bb, acc)).reshape((e - s,) + shape[1:])
            acc = g_b + action.apply_rows(rows).reshape(e - s, -1)
        v[s:e] = acc
        y[s:e] = h + _weights_product(w_bb, acc)
    return y.reshape(shape), v.reshape(shape)


def _window_bounds(n_steps: int, n_windows: int) -> list:
    if n_windows > n_steps:
        raise SizeError("more windows than time steps")
    return [round(w * n_steps / n_windows) for w in range(n_windows + 1)]


def _picard(p: CauchyProblem, opts: SolverOptions, integral_term, form: str, extra_meta: dict) -> SolverReport:
    base = _base_trajectory(p, opts.series_tol)
    forcing = p.forcing_values
    weight = p.state_weight
    fn = p.nonlinearity.fn

    def forced(u: np.ndarray) -> np.ndarray:
        g = fn(u)
        if forcing is not None:
            g = g + forcing
        return g

    current = base.copy()
    bounds = _window_bounds(p.mesh.n_steps, opts.n_windows)
    histories: list = []
    total_iters = 0
    all_converged = True
    for w in range(opts.n_windows):
        lo = 0 if w == 0 else bounds[w] + 1
        hi = bounds[w + 1]
        history: list = []
        rises = 0
        converged = False
        for _ in range(opts.max_iter):
            # overflow in a blowing-up iterate is caught by the finite check below
            with np.errstate(over="ignore", invalid="ignore"):
                candidate = base + integral_term(forced(current))
                delta = candidate[lo : hi + 1] - current[lo : hi + 1]
                change = _row_sup(delta, weight)
            current[lo:] = candidate[lo:]
            total_iters += 1
            if not math.isfinite(change):
                raise DivergenceError(
                    f"picard iterate blew up in window {w + 1}/{opts.n_windows}; "
                    "shorten the horizon, refine the mesh, or use more windows"
                )
            if history and change > history[-1]:
                rises += 1
                if rises >= _DIVERGENCE_PATIENCE:
                    raise DivergenceError(
                        f"picard change grew {rises} times in a row (last {change:.3e}); "
                        "shorten the horizon, refine the mesh, or use more windows"
                    )
            else:
                rises = 0
            history.append(change)
            if change < opts.tol:
                converged = True
                break
        histories.append(history)
        all_converged = all_converged and converged
    meta = {"nonlinearity": p.nonlinearity.hypothesis_flags(), "form": form}
    meta.update(extra_meta)
    return SolverReport(
        trajectory=current,
        mesh=p.mesh,
        form=form,
        converged=all_converged,
        iterations=total_iters,
        contraction_history=histories,
        final_change=histories[-1][-1] if histories and histories[-1] else 0.0,
        options=opts,
        metadata=meta,
    )


def solve_kernel_form(p: CauchyProblem, opts: SolverOptions = SolverOptions()) -> SolverReport:
    """Picard iteration with the weakly singular kernel acting on f(U) + P.

    Each sweep solves the memory integral's discrete Volterra system
    y = W (g + A y) by one blocked forward march in time: a dense product
    for each block's history, then an operator series over the block's own
    span, certified at that span.
    """
    weights = pi_weights(p.alpha, p.mesh.n_nodes, p.mesh.dt)
    plan = _block_plan(p, p.alpha + 1.0, opts.series_tol)

    def integral_term(g: np.ndarray) -> np.ndarray:
        return _volterra(weights, p.action, g, plan)[0]

    return _picard(p, opts, integral_term, "kernel", _plan_meta(plan))


def solve_rl_form(p: CauchyProblem, opts: SolverOptions = SolverOptions()) -> SolverReport:
    """Picard iteration through the fractional-derivative representation.

    The forcing enters as a derivative of order 2 - alpha under an order-one
    integral of the propagator.  The initial forcing value F(0) is split off
    exactly (constant part of the derivative) and its convolution evaluated
    in closed Mittag-Leffler form.  What remains, the Riemann-Liouville
    derivative of F - F(0), is the Caputo derivative of F; it runs through the
    discrete derivative and the blocked Volterra march under an order-two
    integral.  One solve therefore covers both derivative conventions.
    """
    if p.alpha >= 2.0:
        raise SingularOrderError("the derivative form needs time order strictly below 2")
    gamma_ord = 2.0 - p.alpha
    mesh = p.mesh
    forcing = p.forcing_values
    f0 = p.nonlinearity.fn(p.state0) + (forcing[0] if forcing is not None else 0.0)
    f0_norm = float(np.linalg.norm(np.atleast_1d(f0).ravel()))

    weights_alpha = pi_weights(p.alpha, mesh.n_nodes, mesh.dt)
    weights_two = pi_weights(2.0, mesh.n_nodes, mesh.dt)
    plan = _block_plan(p, 3.0, opts.series_tol)

    if f0_norm > 0.0:
        shape = (mesh.n_nodes,) + (1,) * p.state0.ndim
        singular = mesh.nodes.reshape(shape) ** p.alpha * ml_trajectory(
            p.alpha, p.alpha + 1.0, p.action, f0, mesh.nodes, tol=opts.series_tol
        )
    else:
        singular = 0.0

    def integral_term(g: np.ndarray) -> np.ndarray:
        w_reg = rl_derivative(g - f0, gamma_ord, mesh)
        acc = _volterra(weights_alpha, p.action, w_reg, plan)[1]
        return singular + _weights_product(weights_two, acc)

    return _picard(p, opts, integral_term, "rl", {**_plan_meta(plan), "initial_forcing_norm": f0_norm})


def second_derivative_identity_check(report: SolverReport, p: CauchyProblem) -> float:
    """Interior deviation between the two sides of the curvature identity.

    The second time difference of the memory integral must match the
    derivative of the forcing under an integral of order alpha - 1, plus the
    analytic power carrying the initial forcing value, plus the once-more
    operator-smoothed convolution.  The singular power is evaluated in
    closed form; nodes too close to either end are excluded (one-sided
    stencils and the unresolvable power at the origin live there).
    """
    mesh = p.mesh
    if mesh.n_nodes < 16:
        raise SizeError("identity check needs at least sixteen nodes")
    base = _base_trajectory(p, report.options.series_tol)
    memory = report.trajectory - base
    lhs = second_difference(memory, mesh.dt)

    g = p.nonlinearity.fn(report.trajectory)
    if p.forcing_values is not None:
        g = g + p.forcing_values
    g0 = g[0]
    term_derivative = rl_integral(first_difference(g, mesh.dt), p.alpha - 1.0, mesh)

    shape = (mesh.n_nodes,) + (1,) * p.state0.ndim
    power = np.zeros(mesh.n_nodes)
    power[1:] = mesh.nodes[1:] ** (p.alpha - 2.0) / gamma(p.alpha - 1.0)
    term_singular = power.reshape(shape) * np.asarray(g0)[None, ...]

    plan = _block_plan(p, 2.0 * p.alpha - 1.0, report.options.series_tol)
    weights_alpha = pi_weights(p.alpha, mesh.n_nodes, mesh.dt)
    weights_low = pi_weights(2.0 * p.alpha - 2.0, mesh.n_nodes, mesh.dt)
    acc = _volterra(weights_alpha, p.action, g, plan)[1]
    term_smoothed = p.action.apply_rows(_weights_product(weights_low, acc))

    rhs = term_derivative + term_singular + term_smoothed
    k0 = max(1, mesh.n_steps // 4)
    dev = (lhs - rhs)[k0 : mesh.n_nodes - 2]
    return _row_sup(dev, p.state_weight)


@dataclass(frozen=True)
class StabilityReport:
    """Measured initial-data sensitivity at a ladder of perturbation scales."""

    scales: np.ndarray
    k_values: np.ndarray
    perturbation_norm: float

    @property
    def stable(self) -> bool:
        finite = self.k_values[np.isfinite(self.k_values)]
        if finite.size < 2:
            return finite.size > 0
        return float(finite.max() / finite.min()) < 2.0


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
    if dq.shape != p.state0.shape:
        raise SizeError("perturbation shape does not match the initial data")
    weight = p.state_weight
    dq_norm = float(np.sqrt(weight) * np.linalg.norm(dq.ravel()))
    nominal = solve_kernel_form(p, opts).trajectory
    ks = []
    for s in scales:
        if s == 0.0 or dq_norm == 0.0:
            ks.append(math.nan)
            continue
        shifted = CauchyProblem(
            p.alpha,
            p.operator,
            p.nonlinearity,
            p.state0 + s * dq,
            p.mesh,
            forcing=p.forcing_values,
            initial_velocity=p.velocity0,
            grid=p.grid,
            sobolev_order=p.sobolev_order,
        )
        diff = solve_kernel_form(shifted, opts).trajectory - nominal
        ks.append(_row_sup(diff, weight) / (abs(s) * dq_norm))
    return StabilityReport(np.asarray(scales, dtype=float), np.asarray(ks), dq_norm)


@dataclass
class ModerationReport:
    """Per-epsilon sup norms of the state, its velocity, and its fractional
    derivative, with fitted power-law exponents against 1/epsilon."""

    epsilons: np.ndarray
    norms: dict
    exponents: dict
    fitted_n: float
    statuses: list
    sobolev_order: Optional[float]


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
    sob = None
    for i, eps in enumerate(eps_grid):
        try:
            problem = build_problem(float(eps))
            report = solve_kernel_form(problem, opts)
        except FracwaveError as exc:
            # a ladder point that cannot even be assembled is a flagged
            # failure, same as a solve that blows up
            statuses.append(f"failed: {exc}")
            continue
        sob = problem.sobolev_order if problem.sobolev_order is not None else sob
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
    return ModerationReport(eps_grid, norms, exponents, fitted_n, statuses, sob)


def _sup_spatial_norm(values: np.ndarray, p: CauchyProblem) -> float:
    if p.grid is not None and p.sobolev_order is not None:
        return max(
            sobolev_norm(GridFunction(p.grid, row), p.sobolev_order) for row in values
        )
    return _row_sup(values, p.state_weight)
