"""Operator-valued Mittag-Leffler sums and the fractional solution operator.

The propagator family here is the fractional analogue of a matrix exponential:
a power series in t**alpha * A summed against reciprocal gamma factors.  All
evaluations run through a certified truncation driven by the scalar majorant
at |z| = t**alpha * ||A||, so a finite norm bound for the generator is a hard
prerequisite.  Arguments stay moderate for the operators produced by the
width-schedule machinery, which is what makes the series route viable.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import FracwaveError, SingularOrderError, SizeError
from .fractional import TimeMesh, caputo_derivative, rl_integral
from .regularization import RegularizedOperator
from .special import gamma, mittag_leffler, MlParams, series_term_count

__all__ = [
    "LinearAction",
    "as_action",
    "multiplier_action",
    "ml_trajectory",
    "SolutionOperatorEvaluator",
    "volterra_residual",
    "caputo_of_S_diagnostic",
    "GeneratorProbe",
    "generator_recovery",
    "ExponentialBound",
    "exp_bound_check",
]


@dataclass(frozen=True)
class LinearAction:
    """A bounded linear map bundled with the norm bound used for truncation.

    dim is None for scalar multiples, which act on arrays of any shape.
    batch_matvec, when present, applies the map along the last axis of a
    stacked array in one call; otherwise rows are processed one by one.
    """

    matvec: Callable[[np.ndarray], np.ndarray]
    norm_bound: float
    dim: Optional[int]
    label: str = "action"
    batch_matvec: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def __post_init__(self):
        if not (np.isfinite(self.norm_bound) and self.norm_bound >= 0.0):
            raise ValueError(f"norm bound must be finite and >= 0, got {self.norm_bound!r}")

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        return self.matvec(vec)

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """Apply to each row of a (n, dim) stack."""
        if self.batch_matvec is not None:
            return self.batch_matvec(rows)
        return np.stack([self.matvec(row) for row in rows])


def as_action(operator, norm_bound: Optional[float] = None) -> LinearAction:
    """Wrap a scalar, square matrix, or regularized operator uniformly.

    Matrices get their exact spectral norm; regularized operators reuse the
    power-iteration estimate they carry.  A bare callable needs an explicit
    bound (there is nothing to infer one from).
    """
    if isinstance(operator, LinearAction):
        if norm_bound is not None and norm_bound != operator.norm_bound:
            return replace(operator, norm_bound=float(norm_bound))
        return operator
    if isinstance(operator, numbers.Number):
        c = complex(operator)
        if c.imag == 0.0:
            c = c.real
        bound = abs(c) if norm_bound is None else float(norm_bound)
        scale = lambda v: c * v
        return LinearAction(scale, bound, None, f"scalar {c!r}", batch_matvec=scale)
    if isinstance(operator, np.ndarray):
        if operator.ndim == 0:
            return as_action(operator[()], norm_bound)
        if operator.ndim != 2 or operator.shape[0] != operator.shape[1]:
            raise SizeError(f"matrix action must be square, got shape {operator.shape}")
        mat = operator.copy()
        bound = float(np.linalg.norm(mat, 2)) if norm_bound is None else float(norm_bound)
        return LinearAction(
            lambda v: mat @ v,
            bound,
            mat.shape[0],
            f"matrix {mat.shape[0]}x{mat.shape[1]}",
            batch_matvec=lambda rows: rows @ mat.T,
        )
    if isinstance(operator, RegularizedOperator):
        bound = operator.norm_estimate().value if norm_bound is None else float(norm_bound)
        return LinearAction(
            operator.apply,
            bound,
            operator.grid.n_points,
            f"regularized {operator.kind}",
            batch_matvec=operator.apply,
        )
    if callable(operator):
        if norm_bound is None:
            raise ValueError("a bare callable action needs an explicit norm bound")
        return LinearAction(operator, float(norm_bound), None, "callable")
    raise TypeError(f"cannot interpret {type(operator).__name__} as a linear action")


def multiplier_action(symbol: np.ndarray, label: str = "multiplier") -> LinearAction:
    """Fourier-multiplier action on grid samples; norm is the symbol sup."""
    sym = np.asarray(symbol, dtype=complex)
    if sym.ndim != 1:
        raise SizeError("multiplier symbol must be one-dimensional")
    bound = float(np.max(np.abs(sym))) if sym.size else 0.0

    def matvec(v: np.ndarray) -> np.ndarray:
        return np.fft.ifft(sym * np.fft.fft(v, axis=-1), axis=-1)

    return LinearAction(matvec, bound, sym.size, label, batch_matvec=matvec)


def _check_orders(alpha: float, beta_prime: float) -> None:
    if not (0.0 < alpha <= 2.0):
        raise SingularOrderError(f"series order must lie in (0, 2], got {alpha:g}")
    if beta_prime <= 0.0:
        raise SingularOrderError(f"second parameter must be positive, got {beta_prime:g}")


def ml_trajectory(
    alpha: float,
    beta_prime: float,
    operator,
    x: np.ndarray,
    times: np.ndarray,
    tol: float = 1e-12,
) -> np.ndarray:
    """Evaluate t -> E_{alpha,beta'}(t**alpha A) x on a whole time ladder.

    The operator powers A**p x are shared across nodes; per-node scalar
    coefficients are formed in log space so large gamma factors never
    overflow.  Truncation is sized once at the largest time, which dominates
    the majorant for every smaller one.
    """
    _check_orders(alpha, beta_prime)
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise SizeError("times must be a nonempty one-dimensional array")
    if np.any(ts < 0.0) or not np.all(np.isfinite(ts)):
        raise ValueError("times must be finite and >= 0")
    action = as_action(operator)
    vec = np.asarray(x)
    t_max = float(ts.max())
    z_abs = t_max**alpha * action.norm_bound
    n_terms = series_term_count(alpha, beta_prime, z_abs, tol)

    powers = np.empty((n_terms + 1, vec.size), dtype=complex)
    powers[0] = vec.ravel()
    current = vec
    for p in range(1, n_terms + 1):
        current = action(current)
        powers[p] = np.asarray(current).ravel()

    orders = np.arange(n_terms + 1, dtype=float)
    lg = np.array([math.lgamma(beta_prime + p * alpha) for p in orders])
    exponents = np.full((ts.size, n_terms + 1), -np.inf)
    positive = ts > 0.0
    exponents[positive] = orders[None, :] * alpha * np.log(ts[positive])[:, None] - lg[None, :]
    exponents[~positive, 0] = -lg[0]
    coeffs = np.exp(exponents)

    out = coeffs @ powers
    return out.reshape((ts.size,) + vec.shape)


class SolutionOperatorEvaluator:
    """Propagator family S(t) = E_alpha(t**alpha A) bound to one operator.

    The second parameter generalizes the family to the kernel and forcing
    variants the fixed-point solver needs.
    """

    def __init__(self, alpha: float, operator, tol: float = 1e-12, norm_bound: Optional[float] = None):
        if not (1.0 < alpha <= 2.0):
            raise SingularOrderError(f"time order must lie in (1, 2], got {alpha:g}")
        if not (0.0 < tol < 1.0):
            raise ValueError(f"tolerance must lie in (0, 1), got {tol!r}")
        self.alpha = float(alpha)
        self.action = as_action(operator, norm_bound)
        self.tol = float(tol)

    @property
    def norm_bound(self) -> float:
        return self.action.norm_bound

    def apply(self, t: float, x: np.ndarray, beta_prime: float = 1.0) -> np.ndarray:
        """E_{alpha,beta'}(t**alpha A) x: the trajectory at the single node t."""
        return self.trajectory(np.array([float(t)]), x, beta_prime)[0]

    def trajectory(self, times: np.ndarray, x: np.ndarray, beta_prime: float = 1.0) -> np.ndarray:
        return ml_trajectory(self.alpha, beta_prime, self.action, x, times, tol=self.tol)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    return np.linalg.norm(rows.reshape(rows.shape[0], -1), axis=1)


def volterra_residual(ev: SolutionOperatorEvaluator, mesh: TimeMesh, x: np.ndarray) -> float:
    """Sup-norm defect of S(t)x against its own Volterra integral equation.

    The fractional integral of A S(.)x is evaluated with the product
    quadrature, so the returned defect is dominated by quadrature error and
    should shrink under mesh refinement.
    """
    traj = ev.trajectory(mesh.nodes, x)
    forced = ev.action.apply_rows(traj)
    integ = rl_integral(forced, ev.alpha, mesh)
    defect = traj - np.asarray(x)[None, ...] - integ
    return float(_row_norms(defect).max())


def caputo_of_S_diagnostic(
    ev: SolutionOperatorEvaluator,
    mesh: TimeMesh,
    x: np.ndarray,
    skip_fraction: float = 0.25,
) -> float:
    """Max deviation of the fractional time derivative of S(t)x from A S(t)x.

    Measured on the interior window t >= skip_fraction * t_max: the leading
    t**alpha power of the trajectory has an unbounded second derivative at
    zero, so nodes near the origin carry an O(1) stencil error that never
    refines away.  On the interior window the deviation decays like
    dt**(alpha-1), the history-pollution order of the composed scheme.
    """
    if mesh.n_nodes < 8:
        raise SizeError("diagnostic needs at least eight nodes")
    if not (0.0 <= skip_fraction < 1.0):
        raise ValueError("skip_fraction must lie in [0, 1)")
    traj = ev.trajectory(mesh.nodes, x)
    lhs = caputo_derivative(traj, ev.alpha, mesh)
    rhs = ev.action.apply_rows(traj)
    k0 = max(1, int(round(skip_fraction * mesh.n_steps)))
    dev = lhs[k0:] - rhs[k0:]
    return float(_row_norms(dev).max())


@dataclass(frozen=True)
class GeneratorProbe:
    """Generator recovery record: scaled differences against a time ladder."""

    times: np.ndarray
    probe: np.ndarray
    recovered: np.ndarray
    errors: np.ndarray
    rate: float

    def __post_init__(self):
        ts = np.asarray(self.times, dtype=float)
        if ts.ndim != 1 or ts.size < 2:
            raise SizeError("ladder needs at least two times")
        if np.any(ts <= 0.0) or np.any(np.diff(ts) >= 0.0):
            raise ValueError("ladder must be strictly decreasing and positive")


def generator_recovery(ev: SolutionOperatorEvaluator, x: np.ndarray, ladder: np.ndarray) -> GeneratorProbe:
    """Recover the generator action from short-time propagator differences.

    The scaled difference gamma(1+alpha) (S(t)x - x) / t**alpha tends to Ax;
    the next series term makes the error decay like t**alpha, which is the
    fitted rate reported (nan when the errors vanish identically).
    """
    ts = np.asarray(ladder, dtype=float)
    vec = np.asarray(x)
    scale = gamma(1.0 + ev.alpha)
    recovered = np.empty((ts.size,) + vec.shape, dtype=complex)
    for j, t in enumerate(ts):
        recovered[j] = scale * (ev.apply(t, vec) - vec) / t**ev.alpha
    target = ev.action(vec)
    errors = _row_norms(recovered - np.asarray(target)[None, ...])
    if np.any(errors == 0.0):
        rate = math.nan
    else:
        rate = float(np.polyfit(np.log(ts), np.log(errors), 1)[0])
    return GeneratorProbe(ts, vec, recovered, errors, rate)


@dataclass(frozen=True)
class ExponentialBound:
    """Envelope certificate: norm samples against M exp(omega t)."""

    m_factor: float
    omega: float
    times: np.ndarray
    norms: np.ndarray

    @property
    def sup_norm(self) -> float:
        return float(self.norms.max())


_PROBE_SEED = 0x9E3779B97F4A7C15


def _norm_samples(ev: SolutionOperatorEvaluator, times: np.ndarray, n_probes: int) -> np.ndarray:
    """Estimated operator norm of S(t) on each grid time.

    Scalar actions are exact; small dimensions assemble the matrix column by
    column for the exact spectral norm; larger ones fall back to a seeded
    random-probe lower estimate.
    """
    action = ev.action
    if action.dim is None:
        params = MlParams(ev.alpha, 1.0)
        c = action(np.ones(1))[0]
        return np.array([abs(mittag_leffler(params, c * t**ev.alpha)) for t in times])
    dim = action.dim
    if dim <= 64:
        basis = np.eye(dim)
        out = np.empty(times.size)
        for j, t in enumerate(times):
            mat = np.column_stack([ev.apply(float(t), basis[:, k]) for k in range(dim)])
            out[j] = np.linalg.norm(mat, 2)
        return out
    rng = np.random.Generator(np.random.Philox(key=_PROBE_SEED))
    probes = rng.standard_normal((n_probes, dim))
    probes /= np.linalg.norm(probes, axis=1, keepdims=True)
    out = np.zeros(times.size)
    for j, t in enumerate(times):
        for q in probes:
            out[j] = max(out[j], float(np.linalg.norm(ev.apply(float(t), q))))
    return out


def exp_bound_check(ev: SolutionOperatorEvaluator, times: np.ndarray, n_probes: int = 4) -> ExponentialBound:
    """Fit the smallest exponential envelope over the sampled times.

    The rate is the norm bound to the power 1/alpha; the certificate fails
    loudly if any sampled norm is non-finite.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise SizeError("need a nonempty time grid")
    if np.any(ts < 0.0):
        raise ValueError("times must be >= 0")
    norms = _norm_samples(ev, ts, n_probes)
    if not np.all(np.isfinite(norms)):
        raise FracwaveError("non-finite propagator norm sample; series range exceeded")
    omega = ev.norm_bound ** (1.0 / ev.alpha)
    m_factor = float(np.max(norms * np.exp(-omega * ts)))
    return ExponentialBound(m_factor, omega, ts, norms)
