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
from .fractional import TimeMesh, _as_field, caputo_derivative, rl_integral
from .regularization import RegularizedOperator
from .special import gamma, mittag_leffler, MlParams, series_term_count

__all__ = [
    "LinearAction",
    "as_action",
    "ml_trajectory",
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
    apply acts along the last axis, so one call maps a single vector or a
    stacked array of them.
    """

    apply: Callable[[np.ndarray], np.ndarray]
    norm_bound: float
    dim: Optional[int]
    label: str = "action"

    def __post_init__(self):
        if not (np.isfinite(self.norm_bound) and self.norm_bound >= 0.0):
            raise ValueError(f"norm bound must be finite and >= 0, got {self.norm_bound!r}")

    def __call__(self, vec: np.ndarray) -> np.ndarray:
        return self.apply(vec)

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """Apply to each row of a (n, dim) stack."""
        return self.apply(rows)


def as_action(operator, norm_bound: Optional[float] = None) -> LinearAction:
    """Wrap a scalar, square matrix, or regularized operator uniformly.

    Matrices get their exact spectral norm.  Regularized operators get
    ||coeff||_inf * ||symbol||_inf, a true upper bound at no cost; the
    power-iteration estimate approaches the norm from below and serves only
    the norm gate.  A bare callable needs an explicit bound (there is nothing
    to infer one from) and is mapped row by row over stacked input.
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
        return LinearAction(lambda v: c * v, bound, None, f"scalar {c!r}")
    if isinstance(operator, np.ndarray):
        if operator.ndim == 0:
            return as_action(operator[()], norm_bound)
        if operator.ndim != 2 or operator.shape[0] != operator.shape[1]:
            raise SizeError(f"matrix action must be square, got shape {operator.shape}")
        mat = operator.copy()
        bound = float(np.linalg.norm(mat, 2)) if norm_bound is None else float(norm_bound)
        return LinearAction(lambda v: v @ mat.T, bound, mat.shape[0], f"matrix {mat.shape[0]}x{mat.shape[1]}")
    if isinstance(operator, RegularizedOperator):
        majorant = float(np.abs(operator.coeff).max() * np.abs(operator.symbol).max())
        bound = majorant if norm_bound is None else float(norm_bound)
        return LinearAction(operator.apply, bound, operator.grid.n_points, f"regularized {operator.kind}")
    if callable(operator):
        if norm_bound is None:
            raise ValueError("a bare callable action needs an explicit norm bound")

        def rowwise(v: np.ndarray) -> np.ndarray:
            return operator(v) if np.ndim(v) <= 1 else np.stack([operator(row) for row in v])

        return LinearAction(rowwise, float(norm_bound), None, "callable")
    raise TypeError(f"cannot interpret {type(operator).__name__} as a linear action")


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
    the majorant for every smaller one.  The result is real when x and every
    power A**p x are.
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

    rows = [vec]
    for _ in range(n_terms):
        rows.append(np.asarray(action(rows[-1])))
    powers = _as_field(np.stack([row.ravel() for row in rows]))

    orders = np.arange(n_terms + 1, dtype=float)
    lg = np.array([math.lgamma(beta_prime + p * alpha) for p in orders])
    exponents = np.full((ts.size, n_terms + 1), -np.inf)
    positive = ts > 0.0
    exponents[positive] = orders[None, :] * alpha * np.log(ts[positive])[:, None] - lg[None, :]
    exponents[~positive, 0] = -lg[0]
    coeffs = np.exp(exponents)

    out = coeffs @ powers
    return out.reshape((ts.size,) + vec.shape)


def _row_norms(rows: np.ndarray) -> np.ndarray:
    return np.linalg.norm(rows.reshape(rows.shape[0], -1), axis=1)


def volterra_residual(alpha: float, operator, mesh: TimeMesh, x: np.ndarray) -> float:
    """Sup-norm defect of S(t)x against its own Volterra integral equation.

    The fractional integral of A S(.)x is evaluated with the product
    quadrature, so the returned defect is dominated by quadrature error and
    should shrink under mesh refinement.
    """
    action = as_action(operator)
    traj = ml_trajectory(alpha, 1.0, action, x, mesh.nodes)
    integ = rl_integral(action.apply_rows(traj), alpha, mesh)
    defect = traj - np.asarray(x)[None, ...] - integ
    return float(_row_norms(defect).max())


def caputo_of_S_diagnostic(alpha: float, operator, mesh: TimeMesh, x: np.ndarray) -> float:
    """Max deviation of the fractional time derivative of S(t)x from A S(t)x.

    Measured on the interior window t >= t_max / 4: the leading
    t**alpha power of the trajectory has an unbounded second derivative at
    zero, so nodes near the origin carry an O(1) stencil error that never
    refines away.  On the interior window the deviation decays like
    dt**(alpha-1), the history-pollution order of the composed scheme.
    """
    if mesh.n_nodes < 8:
        raise SizeError("diagnostic needs at least eight nodes")
    action = as_action(operator)
    traj = ml_trajectory(alpha, 1.0, action, x, mesh.nodes)
    lhs = caputo_derivative(traj, alpha, mesh)
    rhs = action.apply_rows(traj)
    k0 = max(1, int(round(0.25 * mesh.n_steps)))
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


def generator_recovery(alpha: float, operator, x: np.ndarray, ladder: np.ndarray) -> GeneratorProbe:
    """Recover the generator action from short-time propagator differences.

    The scaled difference gamma(1+alpha) (S(t)x - x) / t**alpha tends to Ax;
    the next series term makes the error decay like t**alpha, which is the
    fitted rate reported (nan when the errors vanish identically).
    """
    action = as_action(operator)
    ts = np.asarray(ladder, dtype=float)
    vec = np.asarray(x)
    scale = gamma(1.0 + alpha)
    recovered = np.empty((ts.size,) + vec.shape, dtype=complex)
    for j, t in enumerate(ts):
        # one node per call: each sizes its truncation at its own time
        recovered[j] = scale * (ml_trajectory(alpha, 1.0, action, vec, ts[j : j + 1])[0] - vec) / t**alpha
    target = action(vec)
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


# largest dimension whose propagator matrix is assembled for an exact norm
_MAX_EXACT_DIM = 64


def _norm_samples(alpha: float, action: LinearAction, times: np.ndarray) -> np.ndarray:
    """Operator norm of S(t) on each grid time.

    Scalar actions are exact; matrices up to _MAX_EXACT_DIM are assembled
    column by column for the exact spectral norm.
    """
    if action.dim is None:
        params = MlParams(alpha, 1.0)
        c = action(np.ones(1))[0]
        return np.array([abs(mittag_leffler(params, c * t**alpha)) for t in times])
    basis = np.eye(action.dim)
    out = np.empty(times.size)
    for j in range(times.size):
        mat = np.column_stack([ml_trajectory(alpha, 1.0, action, col, times[j : j + 1])[0] for col in basis.T])
        out[j] = np.linalg.norm(mat, 2)
    return out


def exp_bound_check(alpha: float, operator, times: np.ndarray) -> ExponentialBound:
    """Fit the smallest exponential envelope over the sampled times.

    The rate is the norm bound to the power 1/alpha; the certificate fails
    loudly if any sampled norm is non-finite.  Norms are exact, so the
    generator may have at most _MAX_EXACT_DIM dimensions.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise SizeError("need a nonempty time grid")
    if np.any(ts < 0.0):
        raise ValueError("times must be >= 0")
    action = as_action(operator)
    if (action.dim or 0) > _MAX_EXACT_DIM:
        raise SizeError(f"exact propagator norms need dimension at most {_MAX_EXACT_DIM}, got {action.dim}")
    norms = _norm_samples(alpha, action, ts)
    if not np.all(np.isfinite(norms)):
        raise FracwaveError("non-finite propagator norm sample; series range exceeded")
    omega = action.norm_bound ** (1.0 / alpha)
    m_factor = float(np.max(norms * np.exp(-omega * ts)))
    return ExponentialBound(m_factor, omega, ts, norms)
