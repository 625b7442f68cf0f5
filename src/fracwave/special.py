"""Scalar special functions for fractional evolution problems.

The module provides the gamma function with pole guards, a two-parameter
Mittag-Leffler evaluator with a certified truncation rule, the term count
that sizes operator-valued series from their scalar majorant, and an
empirical certificate for the exponential growth envelope of the
Mittag-Leffler function on a rate/time grid.

One term-ratio loop, `_series`, sums sum_{n>=0} z**n / Gamma(beta + n*alpha)
for every caller, with compensated (Kahan) summation and a running sum of
term magnitudes; once the magnitude ratio of consecutive terms drops below
1/2 the geometric tail bound certifies the truncation.  Its callers pass in
their arithmetic:

* the double path (lgamma ratios) also bounds the rounding error by machine
  epsilon times the sum of term magnitudes; on catastrophic cancellation
  the sum is redone in mpmath (gammaprod ratios) at increasing working
  precision until the requested tolerance is certified;
* `series_term_count` sums the majorant and rejects one that overflows.

`mittag_leffler_hp` keeps a loop of its own: it is the independent oracle.

Documented argument ranges: |z| <= 50 is guaranteed for the double path with
alpha >= 0.5; up to |z| <= 200 the high-precision retry covers whatever the
double path cannot certify.  Beyond 200 a range error is raised.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath
import numpy as np

from .errors import MittagLefflerRangeError, SingularOrderError, TruncationError

__all__ = [
    "ML_HP_RANGE",
    "MlParams",
    "GrowthEnvelope",
    "gamma",
    "mittag_leffler",
    "mittag_leffler_hp",
    "series_term_count",
    "check_growth_bound",
]

ML_HP_RANGE = 200.0

_MAX_TERMS = 10_000
_EPS = 2.220446049250313e-16


def gamma(x: float) -> float:
    """Gamma function on the real line with explicit pole guards.

    Raises SingularOrderError at zero and the negative integers instead of
    propagating a bare ValueError from the math module.
    """
    x = float(x)
    if x <= 0.0 and x == math.floor(x):
        raise SingularOrderError(f"gamma pole at x = {x:g}")
    return math.gamma(x)


@dataclass(frozen=True)
class MlParams:
    """Orders and tolerance for a Mittag-Leffler evaluation.

    alpha in (0, 2]; beta > 0; tol is the relative truncation/rounding target.
    The upper endpoint alpha = 2 is admitted for the cosine consistency
    identities.
    """

    alpha: float
    beta: float
    tol: float = 1e-14

    def __post_init__(self):
        if not (0.0 < self.alpha <= 2.0):
            raise ValueError(f"alpha must lie in (0, 2], got {self.alpha!r}")
        if not self.beta > 0.0:
            raise ValueError(f"beta must be positive, got {self.beta!r}")
        if not (0.0 < self.tol < 1.0):
            raise ValueError(f"tol must lie in (0, 1), got {self.tol!r}")


def _series(z, first, ratio, stop, tiny):
    """Compensated (Kahan) term-ratio sum of sum_{n>=0} c_n z**n.

    The caller supplies its arithmetic: the first term c_0, ratio(n) =
    c_{n+1}/c_n, the relative stop level and the floor under |total|.  The
    sum stops once |z|*ratio(n) < 1/2 and the geometric tail bound is below
    stop*max(|total|, tiny).  Returns (total, stopped, n_terms, tail,
    abs_sum); a stop certifies the truncation only while abs_sum is finite,
    so the first term that overflows to infinity ends the sum unstopped.
    """
    term = first
    total = term
    comp = term - term  # a zero of the caller's number type
    abs_sum = abs(term)
    az = abs(z)
    tail = math.inf
    n = 0
    while n < _MAX_TERMS:
        step = ratio(n)
        r = az * step
        if r < 0.5:
            tail = (abs(term) * r) / (1 - r)
            if tail <= stop * max(abs(total), tiny):
                return total, True, n, tail, abs_sum
        term = term * z * step
        mag = abs(term)
        if mag == math.inf:
            return total, False, n + 1, tail, mag
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_sum += mag
        n += 1
    return total, False, n, tail, abs_sum


def _lgamma_ratio(alpha: float, beta: float):
    """Gamma(beta + n*alpha) / Gamma(beta + (n+1)*alpha) in double precision."""
    return lambda n: math.exp(math.lgamma(beta + n * alpha) - math.lgamma(beta + (n + 1) * alpha))


def _series_hp(alpha: float, beta: float, z: complex, tol: float) -> complex:
    """High-precision retry with escalating working precision.

    The working precision is escalated until the rounding bound (unit in the
    last place times the sum of term magnitudes) is below tol relative to the
    computed value.  Raises a range error when 2560 digits do not suffice,
    which only happens far outside the documented argument range.
    """
    zc = mpmath.mpmathify(z)
    for dps in (40, 80, 160, 320, 640, 1280, 2560):
        with mpmath.workdps(dps):
            ulp = mpmath.mpf(10) ** (-dps + 5)
            total, stopped, _, _, abs_sum = _series(
                zc,
                1 / mpmath.gamma(beta),
                lambda n: mpmath.gammaprod([beta + n * alpha], [beta + (n + 1) * alpha]),
                ulp,
                mpmath.mpf(10) ** -3000,
            )
            if not stopped:
                continue
            round_bound = abs_sum * ulp
            if abs(total) > 0 and round_bound <= tol * abs(total):
                return complex(total)
            if abs(total) == 0 and round_bound <= mpmath.mpf(tol):
                return complex(total)
    raise MittagLefflerRangeError(
        f"series for E_({alpha:g},{beta:g}) at |z| = {abs(z):.3g} exceeds the "
        "supported cancellation budget (2560 digits)"
    )


def mittag_leffler(p: MlParams, z: complex) -> complex:
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    Relative error is at most p.tol.  Arguments with |z| > 200 raise
    MittagLefflerRangeError with a diagnostic; inside that range the double
    path is attempted first and the high-precision retry covers cancellation.
    """
    zc = complex(z)
    az = abs(zc)
    if not np.isfinite(az):
        raise MittagLefflerRangeError("argument must be finite")
    if az > ML_HP_RANGE:
        raise MittagLefflerRangeError(
            f"|z| = {az:.6g} exceeds the documented range {ML_HP_RANGE:g}; "
            "the series truncation cannot be certified there"
        )
    first = complex(math.exp(-math.lgamma(p.beta)))
    value, stopped, _, tail, abs_sum = _series(
        zc, first, _lgamma_ratio(p.alpha, p.beta), p.tol, 1e-300
    )
    round_err = 4.0 * _EPS * abs_sum
    if stopped and math.isfinite(abs_sum) and abs(value) > 0.0 and round_err + tail <= p.tol * abs(value):
        return value
    hp = _series_hp(p.alpha, p.beta, zc, p.tol)
    if not (np.isfinite(hp.real) and np.isfinite(hp.imag)):
        raise MittagLefflerRangeError(
            f"E_({p.alpha:g},{p.beta:g})(z) overflows double precision at |z| = {az:.6g}"
        )
    return hp


def mittag_leffler_hp(alpha: float, beta: float, z: complex, dps: int = 50):
    """Fixed-precision series sum used as an independent oracle.

    Returns an mpmath complex number computed at the requested decimal
    precision with a geometric tail certificate.  No double-precision
    shortcuts share code with the fast path beyond the series definition.
    """
    zc = mpmath.mpmathify(z)
    with mpmath.workdps(dps + 10):
        term = 1 / mpmath.gamma(beta)
        total = term
        n = 0
        while n < 10 * _MAX_TERMS:
            g_n = mpmath.gammaprod([beta + n * alpha], [beta + (n + 1) * alpha])
            ratio = abs(zc) * g_n
            if ratio < 0.5:
                tail = (abs(term) * ratio) / (1 - ratio)
                if tail <= mpmath.mpf(10) ** (-dps - 5) * max(abs(total), mpmath.mpf(10) ** -3000):
                    break
            term = term * zc * g_n
            total += term
            n += 1
        return mpmath.mpc(total)


def series_term_count(alpha: float, beta: float, z_abs: float, tol: float) -> int:
    """Number of terms after which the majorant tail of the series with
    argument magnitude z_abs is below tol relative to the partial sum.

    Used to size certified truncations of operator-valued series from their
    scalar majorant.  Raises TruncationError when the majorant overflows
    double precision or the cap is exhausted.
    """
    if z_abs < 0 or not np.isfinite(z_abs):
        raise ValueError("z_abs must be finite and nonnegative")
    _, stopped, n, _, abs_sum = _series(
        float(z_abs), math.exp(-math.lgamma(beta)), _lgamma_ratio(alpha, beta), tol, 1e-300
    )
    if not math.isfinite(abs_sum):
        raise TruncationError(
            f"majorant of orders ({alpha:g},{beta:g}) at |z| = {z_abs:.3g} overflows "
            "double precision; shorten the horizon or reduce the operator norm"
        )
    if not stopped:
        raise TruncationError(
            f"majorant tail for orders ({alpha:g},{beta:g}) at |z| = {z_abs:.3g} "
            f"not below {tol:g} within {_MAX_TERMS} terms"
        )
    return n


def _pow_nonneg(base: float, expo: float) -> float:
    """base**expo for base >= 0 with the 0**0 = 1 and 0**neg = inf conventions."""
    if base > 0.0:
        return math.pow(base, expo)
    if expo > 0.0:
        return 0.0
    if expo == 0.0:
        return 1.0
    return math.inf


@dataclass
class GrowthEnvelope:
    """Empirical certificate for an exponential growth envelope.

    For each (omega, t) on the grid the ratio

        E_{alpha,beta}(omega * t**alpha) /
            [(1 + omega**((1-beta)/alpha)) * (1 + t**(1-beta)) * exp(omega**(1/alpha) * t)]

    is recorded; c is the fitted envelope constant, at least 1, dominating
    every finite ratio.  Non-finite ratios are counted, never raised.
    """

    alpha: float
    beta: float
    omega_grid: np.ndarray
    t_grid: np.ndarray
    ratios: np.ndarray = field(repr=False)
    c: float = 1.0
    n_nonfinite: int = 0

    @property
    def ok(self) -> bool:
        return self.n_nonfinite == 0


def check_growth_bound(p: MlParams, omega_grid, t_grid) -> GrowthEnvelope:
    """Evaluate the envelope ratio on a nonnegative (omega, t) grid.

    The envelope is evaluated in log space so large exponential factors never
    overflow the ratio; an infinite envelope value (possible at omega = 0 or
    t = 0 when beta > 1) yields ratio 0 by convention.
    """
    if not (0.0 < p.alpha < 2.0):
        raise ValueError("growth envelope requires 0 < alpha < 2")
    omega_arr = np.asarray(omega_grid, dtype=float)
    t_arr = np.asarray(t_grid, dtype=float)
    if np.any(omega_arr < 0.0) or np.any(t_arr < 0.0):
        raise ValueError("omega and t grids must be nonnegative")
    ratios = np.empty((omega_arr.size, t_arr.size))
    e1 = (1.0 - p.beta) / p.alpha
    e2 = 1.0 - p.beta
    for i, om in enumerate(omega_arr):
        om_pow = _pow_nonneg(om, e1)
        om_rate = _pow_nonneg(om, 1.0 / p.alpha)
        for j, t in enumerate(t_arr):
            try:
                value = mittag_leffler(p, om * t**p.alpha).real
                log_env = math.log1p(om_pow) + math.log1p(_pow_nonneg(t, e2)) + om_rate * t
                if math.isinf(log_env):
                    ratios[i, j] = 0.0
                elif value > 0.0:
                    ratios[i, j] = math.exp(math.log(value) - log_env)
                else:
                    ratios[i, j] = 0.0 if value == 0.0 else math.nan
            except (MittagLefflerRangeError, OverflowError):
                ratios[i, j] = math.nan
    finite = ratios[np.isfinite(ratios)]
    c = max(1.0, float(finite.max())) if finite.size else 1.0
    n_bad = int(ratios.size - finite.size)
    return GrowthEnvelope(
        alpha=p.alpha,
        beta=p.beta,
        omega_grid=omega_arr,
        t_grid=t_arr,
        ratios=ratios,
        c=c,
        n_nonfinite=n_bad,
    )
