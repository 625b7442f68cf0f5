"""Special functions for fractional evolution problems.

The module provides the gamma function with pole guards, a two-parameter
Mittag-Leffler evaluator with a certified truncation rule for a scalar or a
whole argument array, the term count
that sizes operator-valued series from their scalar majorant, and an
empirical certificate for the exponential growth envelope of the
Mittag-Leffler function on a rate/time grid.

Three term-ratio loops sum sum_{n>=0} z**n / Gamma(beta + n*alpha), each
with a running sum of term magnitudes; once the magnitude ratio of
consecutive terms drops below 1/2 the geometric tail bound certifies the
truncation.  `mittag_leffler` climbs a ladder of them: double, then
double-double for the real arguments the double path leaves, then mpmath
at 40, 80, ..., 2560 digits for whatever is left (mpf for a real argument,
mpc for a complex one).

* `_series_array` is the double path of `mittag_leffler` (lgamma ratios) on
  a whole argument array, a scalar being an array of one.  Per element it
  stops the series once its tail is below half of the relative tolerance
  and accepts the value when the tail plus the rounding bound, 4 * machine
  epsilon times the sum of term magnitudes, is below the whole, so a series
  without cancellation certifies in double.  An element leaves the working
  set once it stops or its next term overflows.  Its sums are compensated
  (Kahan).
* `_series_dd` takes every real argument the double path leaves uncertified
  in one lockstep loop of the same shape, in double-double arithmetic
  (Dekker products, numpy having no fma) over the 40-digit ratio table
  split into (hi, lo) pairs.  It stops at a tail below 2**-100 of the sum
  and accepts a value when 16 * (n + 2) * 2**-106 times the sum of term
  magnitudes, plus the tail, is within the tolerance: about 32 digits, so
  the moderate cancellations of real arguments need no mpmath sum.
* `_series` is the scalar loop, with the arithmetic passed in by its
  callers: `series_term_count` sums the majorant and rejects one that
  overflows (the solver sizes its blocks with it, one magnitude at a time,
  where a numpy loop of size one would cost many times more); and on
  cancellation past the double-double budget (or of a complex argument)
  the retry, `_series_hp`, takes each element left uncertified on its own
  and redoes the sum at 40, 80, ..., 2560 working digits until the
  rounding bound 10**(5 - digits) times the sum of term magnitudes is
  below the tolerance, in the mpmath context of the ratio table it reads.
  The majorant's sum is compensated (Kahan), the retry's is not.
  Before any retry, `_hopeless` refuses in log space, with
  lgamma, an element whose sum cannot stop within `_MAX_TERMS` terms or
  whose positive argument has a value past the double range.

Term ratios come from tables keyed by (alpha, beta, working digits), the
double path's under digits None, so the retries pay for their gammaprod
coefficients once per order pair rather than once per call; for the
double-double rung each entry is converted once to a (hi, lo) pair of
doubles and kept on the table.  A table with digits owns an mpmath context
at those digits: its entries are computed, and the retry sums, in that
context and under the table's lock.  Nothing here reads or sets mpmath's
global precision, so a value depends on the table's digits only, not on
what another thread does with mpmath at the same time.  A table is
extended on demand with the same expression at the same precision, so a
warm table gives the numbers a cold one computes; at most `_TABLE_CAP`
tables of at most `_MAX_TERMS` + 1 ratios are kept, least recently used
first out.

`mittag_leffler_hp` keeps a loop of its own: it is the independent oracle.
It certifies its own rounding with the retry's bound, raising its working
digits until the requested digits hold, each in a private mpmath context.

mpmath is imported on first use, by the digit tables and the oracle, so
runs that never retry do not load it.

Documented argument ranges: |z| <= 50 is guaranteed for the double path with
alpha >= 0.5; up to |z| <= 200 the double-double and high-precision retries
cover whatever the double path cannot certify.  Beyond 200 a range error is
raised, for an array as soon as one of its elements lies there.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from typing import Optional

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
_HP_MAX_DIGITS = 20_000
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


def _series(z, first, ratio, stop, tiny, compensated=True, half=0.5, inf=math.inf):
    """Term-ratio sum of sum_{n>=0} c_n z**n, compensated (Kahan) unless compensated is False.

    `_series_array` steps like the compensated loop; the retry sums
    uncompensated, where its working digits leave compensation nothing to do.

    The caller supplies its arithmetic: the first term c_0, ratio(n) =
    c_{n+1}/c_n, the relative stop level, the floor under |total|, and 1/2
    and inf in its number type, so comparisons convert nothing.  The sum
    stops once |z|*ratio(n) < 1/2 and the geometric tail bound is below
    stop*max(|total|, tiny).  Returns (total, stopped, n_terms, tail,
    abs_sum); a stop certifies the truncation only while abs_sum is finite,
    so the first term that overflows to infinity ends the sum unstopped.
    """
    term = first
    total = term
    comp = term - term if compensated else None  # a zero of the caller's number type
    abs_sum = abs(term)
    az = abs(z)
    tail = math.inf
    n = 0
    while n < _MAX_TERMS:
        step = ratio(n)
        r = az * step
        if r < half:
            tail = (abs(term) * r) / (1 - r)
            if tail <= stop * max(abs(total), tiny):
                return total, True, n, tail, abs_sum
        term = term * z * step
        mag = abs(term)
        if mag == inf:
            return total, False, n + 1, tail, mag
        if comp is None:
            total = total + term
        else:
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
        abs_sum += mag
        n += 1
    return total, False, n, tail, abs_sum


_TABLE_CAP = 64


class _RatioTable:
    """Term ratios Gamma(beta + n*alpha) / Gamma(beta + (n+1)*alpha) and the
    first term 1/Gamma(beta): in double precision (lgamma) when dps is None,
    by mpmath at dps digits otherwise.

    Entries are appended in order under the table's lock, so two threads
    extending at once never skip or repeat a term.  A table with digits owns
    an mpmath context set once to dps digits: the first term, the ratios and
    their double-double (hi, lo) pairs for the double-double rung are
    computed in it, each pair converted once and appended under the same
    lock, and the retry sums in it.  gammaprod raises its context's
    precision while it runs, so the context is used only under the
    (re-entrant) lock.
    """

    def __init__(self, alpha: float, beta: float, dps: Optional[int]):
        self.alpha = alpha
        self.beta = beta
        self.dps = dps
        self.ratios = []
        self.pairs = []
        self.lock = threading.RLock()
        if dps is None:
            self.first = math.exp(-math.lgamma(beta))
        else:
            import mpmath

            self.ctx = mpmath.MPContext()
            self.ctx.dps = dps
            self.first = 1 / self.ctx.gamma(beta)
            self.first_pair = _as_pair(self.first)
            self.half, self.inf = self.ctx.mpf(0.5), self.ctx.inf

    def _ratio(self, k: int):
        if self.dps is None:
            lo = self.beta + k * self.alpha
            hi = self.beta + (k + 1) * self.alpha
            return math.exp(math.lgamma(lo) - math.lgamma(hi))
        ctx = self.ctx
        # beta + k*alpha in double would carry a relative error near k*eps
        alpha, beta = ctx.mpf(self.alpha), ctx.mpf(self.beta)
        return ctx.gammaprod([beta + k * alpha], [beta + (k + 1) * alpha])

    def __call__(self, n: int):
        ratios = self.ratios
        if n >= len(ratios):
            with self.lock:
                for k in range(len(ratios), n + 1):
                    ratios.append(self._ratio(k))
        return ratios[n]

    def pair(self, n: int) -> tuple:
        """Ratio n as a double-double (hi, lo): hi the nearest double, lo the nearest to the rest."""
        pairs = self.pairs
        if n >= len(pairs):
            with self.lock:
                for k in range(len(pairs), n + 1):
                    pairs.append(_as_pair(self(k)))
        return pairs[n]


def _as_pair(value) -> tuple:
    """An mpf as (hi, lo): the rest value - hi is formed at the precision of the mpf's context."""
    hi = float(value)
    return hi, float(value - hi)


@functools.lru_cache(maxsize=_TABLE_CAP)
def _ratio_table(alpha: float, beta: float, dps: Optional[int]) -> _RatioTable:
    """The memoized table for (alpha, beta, dps), least recently used first out."""
    return _RatioTable(alpha, beta, dps)


def _hopeless(alpha: float, beta: float, z) -> Optional[str]:
    """Why `_series_hp` cannot give E_{alpha,beta}(z) in double, or None when it may.

    Decided in log space with lgamma, before any high-precision sum:

    * z > 0 real: every term is positive, so a term past the double range
      makes the value overflow.  The term taken is next to the largest, at
      beta + n alpha = |z|**(1/alpha) + 1/2, where the digamma function
      reaches log|z| / alpha;
    * the sum cannot stop within `_MAX_TERMS` terms at any precision: its
      stop test needs |z| * ratio(n) < 1/2, and the ratios fall with n.  Up
      to |z| = 200 this also refuses every sum whose largest term, near
      exp(|z|**(1/alpha)), passes 10**2555, past which the last rung's 2560
      digits cannot hold the cancellation to a value of order one: such a
      sum stops only near term (2 |z|)**(1/alpha) / alpha, past 30000.
    """
    az = abs(z)
    if az == 0.0:
        return None
    log_z = math.log(az)
    if isinstance(z, float) and z > 0.0 and log_z / alpha < 700.0:
        n = max(0, round((math.exp(log_z / alpha) + 0.5 - beta) / alpha))
        if n * log_z - math.lgamma(beta + n * alpha) > math.log(np.finfo(float).max):
            return f"E_({alpha:g},{beta:g})(z) overflows double precision at |z| = {az:.6g}"
    last = _MAX_TERMS - 1
    if log_z + math.lgamma(beta + last * alpha) - math.lgamma(beta + (last + 1) * alpha) > math.log(0.5) + 1e-9:
        return f"series for E_({alpha:g},{beta:g}) at |z| = {az:.3g} needs more than {_MAX_TERMS} terms"
    return None


def _series_hp(alpha: float, beta: float, z, tol: float) -> complex:
    """High-precision retry with escalating working precision.

    z is a float (summed in mpf) or a complex (summed in mpc), in the mpmath
    context of the ratio table at each precision and under its lock.  The
    working precision is escalated until the rounding bound (unit in the last
    place times the sum of term magnitudes) is below tol relative to the
    computed value.  Raises a range error when 2560 digits do not suffice,
    which only happens far outside the documented argument range.
    """
    for dps in (40, 80, 160, 320, 640, 1280, 2560):
        table = _ratio_table(alpha, beta, dps)
        ctx = table.ctx
        with table.lock:
            ulp = ctx.mpf(10) ** (-dps + 5)
            total, stopped, _, _, abs_sum = _series(
                ctx.mpmathify(z), table.first, table, ulp, ctx.mpf(10) ** -3000,
                compensated=False, half=table.half, inf=table.inf,
            )
            certified = stopped and abs_sum * ulp <= tol * (abs(total) or 1)
        if certified:
            return complex(total)
    raise MittagLefflerRangeError(
        f"series for E_({alpha:g},{beta:g}) at |z| = {abs(z):.3g} exceeds the "
        "supported cancellation budget (2560 digits)"
    )


def _series_array(z: np.ndarray, first: float, ratio, stop: float, tiny: float):
    """`_series` on a one-dimensional array of double arguments.

    Every element runs the scalar loop's steps in lockstep with the others:
    the same stop test, Kahan update and overflow exit, so per element it
    returns the (stopped, n_terms) of `_series` and its value up to the last
    bit of a complex product.  An element leaves the working set once it
    stops or its next term overflows.  Returns the arrays (total, stopped,
    n_terms, tail, abs_sum), with tail infinite where the sum did not stop.
    """
    size = z.size
    total = np.empty_like(z)
    stopped = np.zeros(size, dtype=bool)
    n_terms = np.empty(size, dtype=np.int64)
    tail = np.full(size, math.inf)
    abs_sum = np.empty(size)
    # the working set, compacted as elements leave it
    live = np.arange(size)
    zw, az = z, np.abs(z)
    term = np.full(size, first, dtype=z.dtype)
    part, comp = term.copy(), np.zeros_like(term)
    mag = np.full(size, abs(first))
    mags = mag.copy()
    n = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live.size and n < _MAX_TERMS:
            step = ratio(n)
            r = az * step
            tl = (mag * r) / (1 - r)
            done = (r < 0.5) & (tl <= stop * np.maximum(np.abs(part), tiny))
            if done.any():
                out = live[done]
                total[out], stopped[out], n_terms[out] = part[done], True, n
                tail[out], abs_sum[out] = tl[done], mags[done]
                keep = ~done
                live, zw, az, term, part, comp, mags = (
                    a[keep] for a in (live, zw, az, term, part, comp, mags)
                )
            term = term * zw * step
            mag = np.abs(term)
            over = mag == math.inf
            if over.any():
                out = live[over]
                total[out], n_terms[out], abs_sum[out] = part[over], n + 1, math.inf
                keep = ~over
                live, zw, az, term, part, comp, mags, mag = (
                    a[keep] for a in (live, zw, az, term, part, comp, mags, mag)
                )
            y = term - comp
            t = part + y
            comp = (t - part) - y
            part = t
            mags += mag
            n += 1
    total[live], n_terms[live], abs_sum[live] = part, n, mags
    return total, stopped, n_terms, tail, abs_sum


_SPLIT = 134217729.0  # 2**27 + 1, Dekker's splitting constant
_DD_STOP = 2.0**-100  # the double-double rung's relative truncation level
_DD_UNIT = 2.0**-106  # the unit roundoff of double-double arithmetic


def _split(a):
    """Dekker's split of a into hi + lo, each of at most 26 significant bits."""
    t = _SPLIT * a
    hi = t - (t - a)
    return hi, a - hi


def _two_prod(a, b, b_hi, b_lo):
    """a*b as p + err exactly (Dekker), given b's split; numpy has no fma."""
    p = a * b
    a_hi, a_lo = _split(a)
    return p, ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _fast_two_sum(a, b):
    """a + b as s + err exactly, for |a| >= |b| or a = 0."""
    s = a + b
    return s, b - (s - a)


def _two_sum(a, b):
    """a + b as s + err exactly, for any a and b (Knuth)."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _series_dd(z: np.ndarray, table: _RatioTable, tol: float):
    """The series at real arguments in double-double arithmetic, all in lockstep.

    Shaped like `_series_array`: term n + 1 is term n times z times the
    table's ratio n, here as (hi, lo) pairs of doubles carrying about 106
    bits, with Dekker products and the accurate double-double sum of Hida,
    Li and Bailey.  An element stops once r = |z| * ratio(n) < 1/2 and the
    geometric tail bound is below 2**-100 of its sum.  Each product and each
    sum loses at most a few units of 2**-106 of its operands, so after n
    terms the value is off by less than 16 * (n + 2) * 2**-106 * sum|term|
    (the ratios' 40 digits and their hi/lo rounding included), and an
    element is certified when that bound plus the tail is within tol of
    |value| and all three are finite.  An element leaves the working set
    once it stops, or uncertified once its next term stops being finite (it
    overflows, or its split does).  Returns
    the arrays (value, certified), value the pair's hi, the nearest double.
    """
    size = z.size
    value = np.zeros(size)
    certified = np.zeros(size, dtype=bool)
    live = np.arange(size)
    zw, az = z, np.abs(z)
    z_hi, z_lo = _split(z)
    first_hi, first_lo = table.first_pair
    t_hi, t_lo = np.full(size, first_hi), np.full(size, first_lo)
    s_hi, s_lo = t_hi.copy(), t_lo.copy()
    mags = np.abs(t_hi)
    n = 0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live.size and n < _MAX_TERMS:
            r_hi, r_lo = table.pair(n)
            r = az * r_hi
            tail = (np.abs(t_hi) * r) / (1 - r)
            modulus = np.abs(s_hi)
            done = (r < 0.5) & (tail <= _DD_STOP * modulus)
            if done.any():
                out = live[done]
                bound = 16.0 * (n + 2) * _DD_UNIT * mags[done] + tail[done]
                value[out] = s_hi[done]
                certified[out] = np.isfinite(bound) & np.isfinite(modulus[done]) & (bound <= tol * modulus[done])
            # term * z, z a double
            p, e = _two_prod(t_hi, zw, z_hi, z_lo)
            t_hi, t_lo = _fast_two_sum(p, e + t_lo * zw)
            # term * ratio, ratio a double-double
            rh_hi, rh_lo = _split(r_hi)
            p, e = _two_prod(t_hi, r_hi, rh_hi, rh_lo)
            t_hi, t_lo = _fast_two_sum(p, e + (t_hi * r_lo + t_lo * r_hi))
            mag = np.abs(t_hi)
            leave = done | ~(np.isfinite(mag) & np.isfinite(t_lo))
            if leave.any():
                keep = ~leave
                live, zw, az, z_hi, z_lo, t_hi, t_lo, s_hi, s_lo, mags, mag = (
                    a[keep] for a in (live, zw, az, z_hi, z_lo, t_hi, t_lo, s_hi, s_lo, mags, mag)
                )
            # sum + term, the accurate double-double addition
            s, e = _two_sum(s_hi, t_hi)
            t, f = _two_sum(s_lo, t_lo)
            s, e = _fast_two_sum(s, e + t)
            s_hi, s_lo = _fast_two_sum(s, e + f)
            mags += mag
            n += 1
    return value, certified


def mittag_leffler(p: MlParams, z):
    """Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

    z is a scalar, which returns a complex, or an array, which returns a
    complex ndarray of its shape.  Relative error is at most p.tol.
    Arguments with |z| > 200 raise MittagLefflerRangeError with a
    diagnostic, and so does an array holding one.  Inside that range the
    double path is attempted first; the real arguments it leaves are summed
    together in double-double, and every element still uncertified (complex,
    cancelling past about 32 digits, or overflowing) takes the mpmath retry
    on its own.  Before any retry runs, an element that no retry can give
    (_hopeless) raises MittagLefflerRangeError at once.  No value depends on
    mpmath's global precision or on other threads.
    """
    zs = np.asarray(z)
    zc = zs.astype(complex).ravel()
    az = np.abs(zc)
    if not np.all(np.isfinite(az)):
        raise MittagLefflerRangeError("argument must be finite")
    if az.size and az.max() > ML_HP_RANGE:
        raise MittagLefflerRangeError(
            f"|z| = {az.max():.6g} exceeds the documented range {ML_HP_RANGE:g}; "
            "the series truncation cannot be certified there"
        )
    # real arguments sum in real arithmetic: the complex loop's imaginary
    # parts stay zero and its real parts are these products bit for bit
    work = zc if np.any(zc.imag) else zc.real.copy()
    table = _ratio_table(p.alpha, p.beta, None)
    # the truncation may take half of the budget, the rounding bound the rest
    total, stopped, _, tail, abs_sum = _series_array(work, table.first, table, 0.5 * p.tol, 1e-300)
    modulus = np.abs(total)
    certified = stopped & np.isfinite(abs_sum) & (modulus > 0.0) & (4.0 * _EPS * abs_sum + tail <= p.tol * modulus)
    value = total.astype(complex)
    # the real arguments left take the double-double rung together
    real = np.flatnonzero(~certified & (zc.imag == 0.0))
    if real.size:
        dd, dd_certified = _series_dd(zc.real[real], _ratio_table(p.alpha, p.beta, 40), p.tol)
        value[real[dd_certified]] = dd[dd_certified]
        certified[real] = dd_certified
    left = np.flatnonzero(~certified)
    args = [zk.real if zk.imag == 0.0 else zk for zk in zc[left].tolist()]
    # every element left is judged before any is summed, so a hopeless one refuses at once
    for zk in args:
        reason = _hopeless(p.alpha, p.beta, zk)
        if reason is not None:
            raise MittagLefflerRangeError(reason)
    for k, zk in zip(left, args):
        hp = _series_hp(p.alpha, p.beta, zk, p.tol)
        if not (np.isfinite(hp.real) and np.isfinite(hp.imag)):
            raise MittagLefflerRangeError(
                f"E_({p.alpha:g},{p.beta:g})(z) overflows double precision at |z| = {az[k]:.6g}"
            )
        value[k] = hp
    if zs.ndim == 0:
        return complex(value[0])
    return value.reshape(zs.shape)


def mittag_leffler_hp(alpha: float, beta: float, z: complex, dps: int = 50):
    """Series sum to dps significant digits, used as an independent oracle.

    Returns an mpmath complex number with a geometric tail certificate and a
    rounding certificate: the sum is redone, each time in a new mpmath
    context, at more working digits w until the rounding bound
    sum|term| * 10**(5 - w) is below 10**-dps relative to the computed value,
    so a cancelling sum never returns a wrong value at the caller's
    precision.  The number returned belongs to the last of those contexts.
    No double-precision shortcuts share code with the fast path beyond the
    series definition.
    """
    import mpmath

    work = dps + 10
    while work <= _HP_MAX_DIGITS:
        # a context of its own: mpmath's shared precision is neither read nor set
        ctx = mpmath.MPContext()
        ctx.dps = work
        zc = ctx.mpmathify(z)
        alpha_w, beta_w = ctx.mpf(alpha), ctx.mpf(beta)
        term = 1 / ctx.gamma(beta_w)
        total = term
        abs_sum = abs(term)
        n = 0
        while n < 10 * _MAX_TERMS:
            g_n = ctx.gammaprod([beta_w + n * alpha_w], [beta_w + (n + 1) * alpha_w])
            ratio = abs(zc) * g_n
            if ratio < 0.5:
                tail = (abs(term) * ratio) / (1 - ratio)
                if tail <= ctx.mpf(10) ** (-dps - 5) * max(abs(total), ctx.mpf(10) ** -3000):
                    break
            term = term * zc * g_n
            total += term
            abs_sum += abs(term)
            n += 1
        if abs_sum * ctx.mpf(10) ** (5 - work) <= ctx.mpf(10) ** -dps * abs(total):
            return ctx.mpc(total)
        # the digits the cancellation cost at this precision, and a margin
        lost = ctx.log10(abs_sum / abs(total)) if total else work
        work = max(work + 10, dps + 8 + int(lost))
    raise MittagLefflerRangeError(
        f"oracle for E_({alpha:g},{beta:g}) at |z| = {abs(complex(z)):.3g} cannot certify "
        f"{dps} digits within {_HP_MAX_DIGITS} working digits"
    )


def series_term_count(alpha: float, beta: float, z_abs: float, tol: float) -> int:
    """Number of terms after which the majorant tail of the series with
    argument magnitude z_abs is below tol relative to the partial sum.

    Used to size certified truncations of operator-valued series from their
    scalar majorant.  Raises TruncationError when the majorant overflows
    double precision (z_abs = inf included) or the cap is exhausted.
    """
    if not z_abs >= 0:
        raise ValueError(f"z_abs must be nonnegative, got {z_abs!r}")
    stopped, n, abs_sum = False, 0, math.inf
    if math.isfinite(z_abs):
        table = _ratio_table(alpha, beta, None)
        _, stopped, n, _, abs_sum = _series(float(z_abs), table.first, table, tol, 1e-300)
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


def _scalar_powers(base, expo: float) -> np.ndarray:
    """base**expo element by element in libm pow, overflowing to inf.

    numpy's array power can differ from libm's in the last bit, so arguments
    formed here do not depend on which vector kernel numpy dispatches to.
    """
    with np.errstate(over="ignore"):
        return np.array([b**expo for b in np.asarray(base, dtype=float)], dtype=float)


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
    ratios: np.ndarray = field(repr=False)
    c: float = 1.0
    n_nonfinite: int = 0


def check_growth_bound(p: MlParams, omega_grid, t_grid) -> GrowthEnvelope:
    """Evaluate the envelope ratio on a nonnegative (omega, t) grid.

    The envelope is evaluated in log space so large exponential factors never
    overflow the ratio; an infinite envelope value (possible at omega = 0 or
    t = 0 when beta > 1) yields ratio 0 by convention.  Every argument inside
    the series range goes into one array evaluation; a cell whose argument
    lies beyond |z| = 200 or whose value overflows reads NaN and is counted
    in n_nonfinite.
    """
    if not (0.0 < p.alpha < 2.0):
        raise ValueError("growth envelope requires 0 < alpha < 2")
    omega_arr = np.asarray(omega_grid, dtype=float)
    t_arr = np.asarray(t_grid, dtype=float)
    if np.any(omega_arr < 0.0) or np.any(t_arr < 0.0):
        raise ValueError("omega and t grids must be nonnegative")
    e1 = (1.0 - p.beta) / p.alpha
    e2 = 1.0 - p.beta
    z = np.multiply.outer(omega_arr, _scalar_powers(t_arr, p.alpha))
    values = np.full(z.shape, math.nan)
    inside = np.isfinite(z) & (np.abs(z) <= ML_HP_RANGE)
    try:
        values[inside] = mittag_leffler(p, z[inside]).real
    except MittagLefflerRangeError:
        # a retry that overflows fails its own cell only
        for cell in zip(*np.nonzero(inside)):
            try:
                values[cell] = mittag_leffler(p, z[cell]).real
            except MittagLefflerRangeError:
                pass
    om = omega_arr[:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        log_env = np.log1p(om**e1) + np.log1p(t_arr**e2) + om ** (1.0 / p.alpha) * t_arr
        ratios = np.where(np.isinf(log_env), 0.0, np.exp(np.log(values) - log_env))
    # a NaN value stays NaN, and so does a ratio that overflows
    ratios[np.isnan(values) | np.isinf(ratios)] = math.nan
    finite = ratios[np.isfinite(ratios)]
    c = max(1.0, float(finite.max())) if finite.size else 1.0
    n_bad = int(ratios.size - finite.size)
    return GrowthEnvelope(
        alpha=p.alpha,
        beta=p.beta,
        ratios=ratios,
        c=c,
        n_nonfinite=n_bad,
    )
