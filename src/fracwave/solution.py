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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import FracwaveError, SingularOrderError, SizeError
from .fractional import TimeMesh, _as_field, _half_spectra, _samples, rl_integral
from .regularization import RegularizedOperator
from .special import _scalar_powers, gamma, mittag_leffler, MlParams, series_term_count

__all__ = [
    "LinearAction",
    "as_action",
    "ml_trajectory",
    "volterra_residual",
    "GeneratorProbe",
    "generator_recovery",
    "ExponentialBound",
    "exp_bound_check",
]

# truncation certified for every operator series summed here and in the solver
SERIES_TOL = 1e-12


@dataclass(frozen=True)
class LinearAction:
    """A bounded linear map bundled with the norm bound used for truncation.

    dim is None for scalar multiples, which act on arrays of any shape.
    apply acts along the last axis, so one call maps a single vector or a
    stacked array of them.  multiplier, when set, is the map's diagonal on
    the real half spectrum (a constant-coefficient operator of any kind has
    one): apply is irfft(multiplier * rfft(.)) on real samples, and that on
    each part of complex ones (fractional._half_spectra).
    """

    apply: Callable[[np.ndarray], np.ndarray]
    norm_bound: float
    dim: Optional[int]
    multiplier: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if not (np.isfinite(self.norm_bound) and self.norm_bound >= 0.0):
            raise ValueError(f"norm bound must be finite and >= 0, got {self.norm_bound!r}")

    def apply_rows(self, rows: np.ndarray) -> np.ndarray:
        """Apply to each row of a (n, dim) stack."""
        return self.apply(rows)


def as_action(operator) -> LinearAction:
    """Wrap a scalar, square matrix, or regularized operator uniformly.

    Matrices get their exact spectral norm.  Regularized operators get
    ||coeff||_inf * ||symbol||_inf, a true upper bound at no cost; the
    power-iteration estimate approaches the norm from below and serves only
    the norm gate; a constant-coefficient operator of any kind also carries
    its diagonal as the multiplier.  Any other map is wrapped by the caller as
    a LinearAction with its own bound, and passes through unchanged.
    """
    if isinstance(operator, LinearAction):
        return operator
    if isinstance(operator, numbers.Number):
        c = complex(operator)
        if c.imag == 0.0:
            c = c.real
        return LinearAction(lambda v: c * v, abs(c), None)
    if isinstance(operator, np.ndarray):
        if operator.ndim == 0:
            return as_action(operator[()])
        if operator.ndim != 2 or operator.shape[0] != operator.shape[1]:
            raise SizeError(f"matrix action must be square, got shape {operator.shape}")
        mat = operator.copy()
        return LinearAction(lambda v: v @ mat.T, float(np.linalg.norm(mat, 2)), mat.shape[0])
    if isinstance(operator, RegularizedOperator):
        majorant = float(np.abs(operator.coeff).max() * np.abs(operator.symbol).max())
        return LinearAction(operator.apply, majorant, operator.grid.n_points, operator.diagonal)
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
) -> np.ndarray:
    """Evaluate t -> E_{alpha,beta'}(t**alpha A) x on a whole time ladder.

    The operator powers A**p x are shared across nodes: on an action with a
    multiplier and x whose last axis is the action's dimension they are one
    transform of x to its half spectra (two real fields for complex x), p
    products there and one inverse transform of the stack, and any other
    action applies itself p times.
    Per-node scalar coefficients are formed in log space so large gamma
    factors never overflow.  A coefficient t**(p alpha)/Gamma(beta' + p alpha) beyond the
    double range (a long horizon against a small operator norm) raises
    FracwaveError naming the time, whatever the powers are.  Truncation is
    sized once at the largest time, which dominates the majorant for every
    smaller one.  The result is real when x and every power A**p x are.
    """
    _check_orders(alpha, beta_prime)
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or ts.size == 0:
        raise SizeError("times must be a nonempty one-dimensional array")
    if np.any(ts < 0.0) or not np.all(np.isfinite(ts)):
        raise ValueError("times must be finite and >= 0")
    action = as_action(operator)
    vec = np.asarray(x)
    n_terms = _series_terms(alpha, beta_prime, float(ts.max()), action.norm_bound)

    if action.multiplier is not None and vec.shape[-1:] == (action.dim,):
        powers = _multiplier_powers(action, vec, n_terms)
    else:
        rows = [vec]
        for _ in range(n_terms):
            rows.append(np.asarray(action.apply(rows[-1])))
        powers = _as_field(np.stack([row.ravel() for row in rows]))

    orders = np.arange(n_terms + 1, dtype=float)
    lg = np.array([math.lgamma(beta_prime + p * alpha) for p in orders])
    exponents = np.full((ts.size, n_terms + 1), -np.inf)
    positive = ts > 0.0
    exponents[positive] = orders[None, :] * alpha * np.log(ts[positive])[:, None] - lg[None, :]
    exponents[~positive, 0] = -lg[0]
    with np.errstate(over="ignore"):
        coeffs = np.exp(exponents)
    if not np.all(np.isfinite(coeffs)):
        # the sum would be inf or nan whatever the powers A**p x are
        raise FracwaveError(
            f"series coefficients t^(p*alpha)/Gamma(beta + p*alpha) overflow double precision "
            f"at t = {ts.max():.3g}; shorten the horizon"
        )

    out = coeffs @ powers
    return out.reshape((ts.size,) + vec.shape)


def _multiplier_powers(action: LinearAction, vec: np.ndarray, n_terms: int) -> np.ndarray:
    """x, A x, ..., A**n_terms x as raveled rows, for a multiplier A; real for real x.

    One transform of x to its half spectra, n_terms products with the
    multiplier there and one inverse transform of the whole stack; row 0 is
    x itself.
    """
    spectra = _half_spectra(vec)
    stack = np.empty((n_terms,) + spectra.shape, complex)
    for p in range(n_terms):
        spectra = np.multiply(spectra, action.multiplier, out=stack[p])
    powers = np.empty((n_terms + 1, vec.size), complex if spectra.shape[-2] == 2 else float)
    powers[0] = vec.ravel()
    powers[1:] = _samples(stack, action.dim).reshape(n_terms, vec.size)
    return powers


def _series_terms(alpha: float, beta: float, t: float, norm: float) -> int:
    """Certified term count of the operator series of orders (alpha, beta) on [0, t].

    The majorant argument is t**alpha times the operator's norm bound; a power
    beyond the double range is an overflowing majorant (TruncationError) too.
    """
    try:
        z_abs = t**alpha * norm
    except OverflowError:
        z_abs = math.inf
    return series_term_count(alpha, beta, z_abs, SERIES_TOL)


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


@dataclass(frozen=True)
class GeneratorProbe:
    """Generator recovery record: scaled differences against a time ladder."""

    times: np.ndarray
    errors: np.ndarray
    rate: float


def generator_recovery(alpha: float, operator, x: np.ndarray, ladder: np.ndarray) -> GeneratorProbe:
    """Recover the generator action from short-time propagator differences.

    The scaled difference gamma(1+alpha) (S(t)x - x) / t**alpha tends to Ax;
    the next series term makes the error decay like t**alpha, which is the
    fitted rate reported (nan when the errors vanish identically).  A ladder
    of fewer than two times raises SizeError, and one not positive and
    strictly decreasing ValueError, before any propagator is evaluated.
    """
    ts = np.asarray(ladder, dtype=float)
    if ts.ndim != 1 or ts.size < 2:
        raise SizeError("ladder needs at least two times")
    if np.any(ts <= 0.0) or np.any(np.diff(ts) >= 0.0):
        raise ValueError("ladder must be strictly decreasing and positive")
    action = as_action(operator)
    vec = np.asarray(x)
    powers = ts.reshape((ts.size,) + (1,) * vec.ndim) ** alpha
    recovered = gamma(1.0 + alpha) * (ml_trajectory(alpha, 1.0, action, vec, ts) - vec) / powers
    target = action.apply(vec)
    errors = _row_norms(recovered - np.asarray(target)[None, ...])
    if np.any(errors == 0.0):
        rate = math.nan
    else:
        rate = float(np.polyfit(np.log(ts), np.log(errors), 1)[0])
    return GeneratorProbe(ts, errors, rate)


@dataclass(frozen=True)
class ExponentialBound:
    """Envelope certificate: norm samples against M exp(omega t)."""

    m_factor: float
    omega: float
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
        c = action.apply(np.ones(1))[0]
        return np.abs(mittag_leffler(params, c * _scalar_powers(times, alpha)))
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
    return ExponentialBound(m_factor, omega, norms)
