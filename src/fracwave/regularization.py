"""Mollifiers, regularization schedules, and mollified multiplier operators.

A rough spatial operator (a fractional or classical derivative scaled by a
bounded coefficient) is replaced by a family of bounded operators indexed by
a small parameter eps: the derivative is composed with convolution against a
compactly supported kernel whose sharpness grows slowly as eps shrinks, and
the coefficient is smoothed by the same kernel family at its own width.  The
sharpness schedules grow like powers of log(log(1/eps)), so the family's
operator norms stay under an explicit cap that solver runs enforce.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .errors import NormGateError, ResolutionError, SingularOrderError, SizeError
from .fractional import GridFunction, SpatialGrid, _half_spectra, _samples, liouville_multiplier

__all__ = [
    "BUMP_NORMALIZATION",
    "DEFAULT_KAPPA",
    "DEFAULT_KAPPA_CAP",
    "GUARD_EPS",
    "Mollifier",
    "make_mollifier",
    "h_schedule",
    "EpsilonSchedule",
    "CoefficientField",
    "RegularizedOperator",
    "build_operator",
    "approximate_operator",
    "NormEstimate",
    "operator_norm_estimate",
    "AssociationTable",
    "association_diagnostic",
    "check_norm_gate",
]

# Normalization of the standard bump exp(-1/(1-x^2)) on (-1, 1); frozen from
# a high-precision quadrature and re-derived in the test suite.
BUMP_NORMALIZATION = 2.252283621043581

# Schedules are floored once eps is too large for the iterated logarithm.
GUARD_EPS = math.exp(-math.e)

# Deepest dyadic level of a ladder: 2**-k stays a normal positive double and
# its reciprocal, the sharpness clamp 1/eps, stays finite.
_MAX_LEVEL = 1023

# Default sharpness multiplier for the kernel width schedule, and the
# calibrated cap multiplier for the operator-norm gate.  Both were fitted
# once against measured norms of the default mollified-second-derivative
# family on the reference diagnostics grid (half-length 48, 1024 points,
# lambda = 1 + 0.25 sech x): kappa = 2 keeps every measured norm below the
# theorem-scenario cap, including the eps^-1 ceiling at eps = 2^-4, while
# kappa = 3 already trips the gate there.
DEFAULT_KAPPA = 2.0
DEFAULT_KAPPA_CAP = 60.0

_SCENARIOS = ("theorem", "wave_time", "wave_timespace")
_SHAPES = ("bump", "truncated_gaussian")
_GAUSS_CUTOFF = 4.0  # truncation radius of the gaussian shape, in std units


def _kernel(shape: str, sharpness: float, disp: np.ndarray, cell: float) -> np.ndarray:
    """The family's kernel sharpness * profile(disp * sharpness) at the displacements.

    The samples are scaled to unit discrete mass on cells of the given size,
    so that convolving with them preserves means.
    """
    y = disp * sharpness
    out = np.zeros_like(y)
    if shape == "bump":
        inside = np.abs(y) < 1.0
        out[inside] = BUMP_NORMALIZATION * np.exp(-1.0 / (1.0 - y[inside] ** 2))
    else:
        inside = np.abs(y) < _GAUSS_CUTOFF
        out[inside] = np.exp(-0.5 * y[inside] ** 2) / math.sqrt(2.0 * math.pi)
    out *= sharpness
    return out / (out.sum() * cell)


def _support_radius(shape: str, width: float) -> float:
    return (1.0 if shape == "bump" else _GAUSS_CUTOFF) / width


@dataclass
class Mollifier:
    """Sampled nonnegative kernel of unit discrete mass on a periodic grid.

    samples are indexed by periodic displacement (entry m corresponds to
    displacement m * dx wrapped to [-L, L)), so convolution is a plain
    multiplication by symbol in frequency space.
    """

    grid: SpatialGrid
    samples: np.ndarray = field(repr=False)
    symbol: np.ndarray = field(repr=False)

    def convolve(self, values: np.ndarray) -> np.ndarray:
        """Periodic convolution along the last axis; real values give a real result."""
        arr = np.asarray(values)
        if arr.shape[-1] != self.grid.n_points:
            raise SizeError("values do not match the mollifier grid")
        return _multiply(self.symbol, arr)


def _multiply(symbol: np.ndarray, arr: np.ndarray) -> np.ndarray:
    """ifft(symbol * fft(arr)) along the last axis; real arr gives a real result.

    Every symbol here is Hermitian (the symbol of a map from reals to reals),
    so its modes 0..n/2, all of symbol or its first half, carry the whole
    action: one multiply between _half_spectra and _samples, which take
    complex arr part by part.
    """
    n = arr.shape[-1]
    spectra = _half_spectra(arr)
    # symbol first: numpy's complex product is not always commutative bit for bit
    return _samples(np.multiply(symbol[: n // 2 + 1], spectra, out=spectra), n)


def make_mollifier(shape: str, width: float, grid: SpatialGrid) -> Mollifier:
    """Sample a kernel of the given shape and sharpness on the grid.

    width is the sharpness: the kernel is width * profile(x * width), of
    support radius 1 / width (4 / width for the gaussian), and its discrete
    mass is one.  Kernels narrower than four grid cells or wider than half
    the domain are rejected.
    """
    if shape not in _SHAPES:
        raise ValueError(f"shape must be one of {_SHAPES}, got {shape!r}")
    if not width > 0.0:
        raise ValueError(f"width must be positive, got {width!r}")
    radius = _support_radius(shape, width)
    if 2.0 * radius < 4.0 * grid.dx:
        raise ResolutionError(
            f"kernel support {2.0 * radius:.4g} narrower than four cells "
            f"({4.0 * grid.dx:.4g}); refine the grid or lower the sharpness"
        )
    if radius > 0.5 * grid.half_length:
        raise ResolutionError(
            f"kernel support radius {radius:.4g} exceeds half the domain "
            f"half-length {grid.half_length:.4g}"
        )
    disp = (grid.dx * np.arange(grid.n_points) + grid.half_length) % (
        2.0 * grid.half_length
    ) - grid.half_length
    samples = _kernel(shape, width, disp, grid.dx)
    # the kernel is even, so its transform is real: the imaginary parts are rounding
    return Mollifier(grid=grid, samples=samples, symbol=np.fft.fft(samples).real * grid.dx)


def h_schedule(
    eps: float,
    alpha: float,
    scenario: str,
    kappa: float,
    h_min: float = 1.0,
) -> float:
    """Kernel sharpness as a function of the regularization parameter.

    theorem scenario:        kappa * ((alpha-1) * log log (1/eps))**alpha
    wave scenarios:          same base raised to alpha/5
    The value is clamped to [h_min, 1/eps]; eps >= exp(-e) falls back to the
    floor with a warning because the iterated logarithm is not informative
    there.
    """
    if not (0.0 < eps < 1.0):
        raise ValueError(f"eps must lie in (0, 1), got {eps!r}")
    if not (1.0 < alpha < 2.0):
        raise SingularOrderError(f"alpha must lie in (1, 2), got {alpha:g}")
    if scenario not in _SCENARIOS:
        raise ValueError(f"scenario must be one of {_SCENARIOS}, got {scenario!r}")
    if kappa < 0.0:
        raise ValueError(f"kappa must be nonnegative, got {kappa!r}")
    if eps >= GUARD_EPS:
        warnings.warn(
            f"eps = {eps:.4g} is above the schedule guard {GUARD_EPS:.4g}; "
            "using the floor width",
            stacklevel=2,
        )
        return h_min
    base = (alpha - 1.0) * math.log(math.log(1.0 / eps))
    expo = alpha if scenario == "theorem" else alpha / 5.0
    value = kappa * base**expo
    return min(max(value, h_min), 1.0 / eps)


@dataclass(frozen=True)
class EpsilonSchedule:
    """Dyadic regularization ladder with its width and cap schedules.

    epsilons are 2**-k for k in [k_min, k_max], strictly decreasing, with
    k_max at most _MAX_LEVEL.  kappa scales the kernel sharpness of the
    scenario at hand; kappa_cap scales the operator-norm cap (theorem
    scenario), calibrated once and recorded in run metadata.  The default ladder starts at k_min = 4, the first dyadic level
    below the schedule guard; earlier levels only produce the clamped floor.
    """

    alpha: float
    scenario: str = "wave_time"
    k_min: int = 4
    k_max: int = 12
    kappa: float = DEFAULT_KAPPA
    kappa_cap: float = DEFAULT_KAPPA_CAP
    h_min: float = 1.0
    coeff_width_factor: float = 2.0

    def __post_init__(self):
        if not (1.0 < self.alpha < 2.0):
            raise ValueError(f"alpha must lie in (1, 2), got {self.alpha!r}")
        if self.scenario not in _SCENARIOS:
            raise ValueError(f"scenario must be one of {_SCENARIOS}")
        if self.k_min < 1 or not self.k_min <= self.k_max <= _MAX_LEVEL:
            raise ValueError(f"need 1 <= k_min <= k_max <= {_MAX_LEVEL}")
        if self.kappa < 0.0 or self.kappa_cap < 0.0:
            raise ValueError("kappa factors must be nonnegative")
        if self.h_min <= 0.0 or self.coeff_width_factor <= 0.0:
            raise ValueError("h_min and coeff_width_factor must be positive")

    @property
    def epsilons(self) -> np.ndarray:
        return 2.0 ** (-np.arange(self.k_min, self.k_max + 1, dtype=float))

    def h(self, eps: float) -> float:
        return h_schedule(eps, self.alpha, self.scenario, self.kappa, self.h_min)

    def coeff_width(self, eps: float) -> float:
        return self.coeff_width_factor * self.h(eps)

    def cap(self, eps: float) -> float:
        return h_schedule(eps, self.alpha, "theorem", self.kappa_cap, self.h_min)


@dataclass
class CoefficientField:
    """A bounded coefficient profile and its smoothed representatives.

    Smoothing convolves the raw samples with the kernel family at the
    schedule's coefficient width.
    """

    grid: SpatialGrid
    raw: np.ndarray
    shape: str = "bump"

    def __post_init__(self):
        arr = np.asarray(self.raw, dtype=float)
        if arr.shape != (self.grid.n_points,):
            raise SizeError("coefficient samples do not match the grid")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficient samples must be finite")
        self.raw = arr

    def smoothed(self, eps: float, schedule: EpsilonSchedule) -> np.ndarray:
        if np.ptp(self.raw) == 0.0:
            # unit-mass kernels leave constants untouched; skipping the
            # convolution also frees constant profiles from any grid
            # resolvability constraint
            return self.raw.copy()
        return make_mollifier(self.shape, schedule.coeff_width(eps), self.grid).convolve(self.raw)


_KINDS = ("second_derivative", "liouville_left", "liouville_right", "riesz")


def _base_multiplier(kind: str, space_order: float, grid: SpatialGrid) -> np.ndarray:
    """Hermitian derivative symbol, real for the even kinds; the unmirrored Nyquist mode keeps its real part."""
    if kind == "second_derivative":
        return -(grid.xi**2)
    name = {"liouville_left": "left", "liouville_right": "right", "riesz": "riesz"}[kind]
    out = liouville_multiplier(name, space_order, grid)
    out[grid.n_points // 2] = out[grid.n_points // 2].real  # |xi|**s cos(pi s / 2), 0 at order 1
    return out


@dataclass(frozen=True)
class RegularizedOperator:
    """coefficient times (mollified fractional derivative).

    Acts on arrays whose last axis matches the grid: the symbol acts in
    frequency space, then the smoothed coefficient multiplies pointwise.
    build_operator forms the symbol: the base derivative multiplier, times the
    kernel's symbol unless the operator is sharp, the one the mollified family
    is associated with.  Frozen: coeff and symbol are read-only copies of
    the arrays passed in, so the diagonal and the norm estimate, cached on
    first use, stay those of the fields.
    """

    kind: str
    space_order: float
    eps: float
    grid: SpatialGrid
    coeff: np.ndarray = field(repr=False)
    symbol: np.ndarray = field(repr=False)

    def __post_init__(self):
        coeff, symbol = np.array(self.coeff, dtype=float), np.array(self.symbol)
        if coeff.shape != (self.grid.n_points,):
            raise SizeError("coefficient samples do not match the grid")
        coeff.flags.writeable = symbol.flags.writeable = False
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "symbol", symbol)

    @property
    def dim(self) -> int:
        return self.grid.n_points

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Real values go through real FFTs and stay real; complex values take them part by part.

        Every kind's symbol is Hermitian (_base_multiplier times the
        transform of a real kernel), so its half spectrum carries the whole
        action on real samples; with a constant coefficient that action is
        one multiply by the diagonal between the transforms.  A variable
        coefficient scales each part's field on its own, as a real times
        complex product would not (it puts a NaN in the real part where the
        imaginary part is inf).
        """
        arr = np.asarray(values)
        if arr.shape[-1] != self.grid.n_points:
            raise SizeError("values do not match the operator grid")
        diagonal = self.diagonal
        if diagonal is not None:
            return _multiply(diagonal, arr)
        out = _multiply(self.symbol, arr)
        fields = out.view(float).reshape(out.shape + (-1,))  # (..., n, parts)
        fields *= self.coeff[:, None]
        return out

    @functools.cached_property
    @np.errstate(over="ignore", invalid="ignore")
    def diagonal(self) -> Optional[np.ndarray]:
        """c * symbol on the real half spectrum when the operator is that multiplier, else None.

        An operator of any kind whose coefficient samples are all equal to c
        acts on real samples as rfft, a multiply by this array, then irfft;
        float64 for the even kinds.  Computed on first use and read-only; a coefficient with an inf or nan
        sample gives None, and one whose product overflows gives inf entries,
        without floating-point warnings (the norm gate rejects both).
        """
        if np.ptp(self.coeff) != 0.0:
            return None
        out = self.coeff[0] * self.symbol[: self.dim // 2 + 1]
        out.flags.writeable = False
        return out

    @functools.cached_property
    def _norm(self) -> "NormEstimate":
        return operator_norm_estimate(self)

    def norm_estimate(self) -> "NormEstimate":
        return self._norm


def build_operator(
    kind: str,
    space_order: float,
    coefficient: np.ndarray,
    mollifier: Optional[Mollifier],
    grid: SpatialGrid,
    eps: float = 0.0,
) -> RegularizedOperator:
    """Assemble the operator from its parts; mollifier None gives the sharp one.

    space_order is the derivative order: forced to 2 for second_derivative,
    in (0, 2) for the one-sided kinds and the symmetric combination, or in
    (0, 2] without a mollifier (order 1 is rejected for the symmetric
    combination by the multiplier).
    """
    if kind not in _KINDS:
        raise ValueError(f"kind must be one of {_KINDS}, got {kind!r}")
    sharp = mollifier is None
    if kind == "second_derivative":
        space_order = 2.0
    elif not (0.0 < space_order < 2.0 or (sharp and space_order == 2.0)):
        interval = "(0, 2]" if sharp else "(0, 2)"
        raise SingularOrderError(
            f"space order must lie in {interval} for kind {kind!r}, got {space_order:g}"
        )
    if not sharp and mollifier.grid != grid:
        raise SizeError("mollifier was sampled on a different grid")
    base = _base_multiplier(kind, space_order, grid)
    return RegularizedOperator(
        kind=kind,
        space_order=space_order,
        eps=eps,
        grid=grid,
        coeff=coefficient,
        symbol=base if sharp else mollifier.symbol * base,
    )


def approximate_operator(
    kind: str, space_order: float, field: CoefficientField, schedule: EpsilonSchedule, eps: float
) -> RegularizedOperator:
    """The approximate operator A_eps at one ladder point (not yet norm-gated).

    The coefficient is the field smoothed at eps, and the derivative is
    mollified by the field's kernel shape at the schedule's sharpness h(eps).
    """
    smoothed = field.smoothed(eps, schedule)
    moll = make_mollifier(field.shape, schedule.h(eps), field.grid)
    return build_operator(kind, space_order, smoothed, moll, field.grid, eps=eps)


@dataclass(frozen=True)
class NormEstimate:
    """Operator 2-norm estimate from power iteration on A*A.

    iterations counts the steps taken, each one application of A*A to the
    iterate's Fourier coefficients; converged is False when the step cap was
    reached first.
    """

    value: float
    iterations: int
    converged: bool


def _unit_scaled(x: np.ndarray) -> tuple:
    """x over the power of two of its peak modulus (exact: ldexp of its real view), and the exponent."""
    shift = int(np.frexp(np.max(np.abs(x)))[1])
    return np.ldexp(np.ascontiguousarray(x).view(float), -shift).view(x.dtype), shift


_MAX_POWER_STEPS = 10_000
_BLOCK_STEPS = 64  # a power of two: the table's rows double up to 2 * _BLOCK_STEPS


def _diagonal_norm_estimate(gain: np.ndarray, weights: np.ndarray, shift: int) -> NormEstimate:
    """The power iteration's steps on a diagonal gain g >= 0, with the loop's stop rule, cap and results.

    From start coefficients of squared moduli w, step k's Rayleigh value is
    sqrt(S(2k - 1) / S(2k - 2)) with S(j) = sum w g**j: one product with a
    table of the powers of g / max g gives _BLOCK_STEPS steps, then w takes
    the table's last row (the peak keeps its weight, so no moment underflows).
    """
    top = float(np.max(gain))
    if top == 0.0 or not math.isfinite(top):  # where the loop's first step ends
        return NormEstimate(0.0, 1, True) if top == 0.0 else NormEstimate(math.nan, 1, False)
    powers = np.empty((2 * _BLOCK_STEPS + 1, gain.size))
    powers[0], powers[1] = 1.0, gain / top
    known = 1
    while known < 2 * _BLOCK_STEPS:  # rows 0..known hold the powers 0..known
        np.multiply(powers[1 : known + 1], powers[known], out=powers[known + 1 : 2 * known + 1])
        known *= 2
    sigma = math.nan  # no change is measured at the first step
    for start in range(0, _MAX_POWER_STEPS, _BLOCK_STEPS):
        moments = powers @ weights
        steps = np.sqrt(top * moments[1::2] / moments[:-1:2])[: _MAX_POWER_STEPS - start]
        stops = np.flatnonzero(np.abs(np.diff(steps, prepend=sigma)) <= 1e-6 * np.maximum(steps, 1e-300))
        if stops.size:
            return NormEstimate(float(np.ldexp(steps[stops[0]], shift)), start + int(stops[0]) + 1, True)
        sigma, weights = steps[-1], weights * powers[-1]
    return NormEstimate(float(np.ldexp(sigma, shift)), _MAX_POWER_STEPS, False)


@functools.lru_cache(maxsize=8)
def _power_start(n: int) -> np.ndarray:
    """The power iteration's start: unit DFT coefficients of a fixed draw, read-only."""
    rng = np.random.Generator(np.random.Philox(key=0x9E3779B97F4A7C15))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = np.fft.fft(v / np.linalg.norm(v), norm="ortho")
    v.flags.writeable = False
    return v


@np.errstate(over="ignore", invalid="ignore")
def operator_norm_estimate(op: RegularizedOperator) -> NormEstimate:
    """Largest-singular-value estimate by power iteration on A*A.

    The iteration runs on the unitary DFT coefficients fft(v)/sqrt(n) of a
    start vector drawn from a fixed counter-based generator, so the estimate
    is reproducible.  A power iteration is invariant under a unitary change of
    basis, so these are the steps of the sample-space iteration v <- A*A v,
    with the same iterates, Rayleigh quotients and stop up to rounding.  In
    coefficients A*A is conj(symbol) * fft(coeff**2 * ifft(symbol * .)): two
    FFTs per step; for a constant coefficient it is coeff**2 * |symbol|**2,
    whose steps _diagonal_norm_estimate sums in closed form.  It runs at unit
    scale: the coefficient and the symbol are divided by the powers of two at
    their peaks and the estimate is multiplied back (inf beyond the double
    range), so an operator 2**k times as large takes the same steps.  The
    iteration stops at a relative change of 1e-6; one still unconverged after
    10 000 steps returns its last value flagged, never raises.  A coefficient
    or symbol that is not finite returns NaN flagged at the first step,
    without floating-point warnings, for the gate to reject.
    """
    v = _power_start(op.dim)
    coeff, coeff_shift = _unit_scaled(op.coeff)
    symbol, symbol_shift = _unit_scaled(op.symbol)
    squared = coeff**2
    shift = coeff_shift + symbol_shift
    if op.diagonal is not None:
        gain = squared[0] * (symbol.real**2 + symbol.imag**2)
        return _diagonal_norm_estimate(gain, v.real**2 + v.imag**2, shift)
    adjoint = np.conj(symbol)
    sigma = 0.0
    for it in range(1, _MAX_POWER_STEPS + 1):
        y = adjoint * np.fft.fft(squared * np.fft.ifft(symbol * v))
        # the sum np.linalg.norm evaluates for a complex vector, without its overhead
        ny = math.sqrt(y.real.dot(y.real) + y.imag.dot(y.imag))
        if not math.isfinite(ny):
            return NormEstimate(math.nan, it, False)
        if ny == 0.0:
            return NormEstimate(0.0, it, True)
        sigma_new = math.sqrt(float(np.real(np.vdot(v, y))))
        v = y / ny
        if it > 1 and abs(sigma_new - sigma) <= 1e-6 * max(sigma_new, 1e-300):
            return NormEstimate(float(np.ldexp(sigma_new, shift)), it, True)
        sigma = sigma_new
    return NormEstimate(float(np.ldexp(sigma, shift)), it, False)


def check_norm_gate(op: RegularizedOperator, schedule: EpsilonSchedule) -> float:
    """Enforce the norm cap for the operator's eps; returns the measured norm.

    Raises NormGateError when the measured norm exceeds the schedule cap or
    is not a number.  Solver entry points call this before time stepping.
    The advice names the coefficient scale when max|c| alone exceeds the cap,
    and the sharpness or the schedule otherwise.
    """
    est = op.norm_estimate()
    cap = schedule.cap(op.eps)
    if math.isnan(est.value):
        raise NormGateError(
            f"operator norm estimate is not finite (nan) at eps = {op.eps:.6g}: the "
            "operator's coefficient or symbol is not finite; reduce the coefficient scale"
        )
    if not est.value <= cap:
        coeff_max = float(np.max(np.abs(op.coeff)))
        if coeff_max > cap:
            advice = f"the coefficient alone has max|c| = {coeff_max:.6g}; lower operator.coefficient_scale"
        else:
            advice = "lower the sharpness multiplier or refine the schedule"
        raise NormGateError(
            f"operator norm {est.value:.6g} exceeds the schedule cap {cap:.6g} at eps = {op.eps:.6g}; {advice}"
        )
    return est.value


@dataclass
class AssociationTable:
    """Errors against the sharp operator, one per eps.

    errors[i] is the dx-weighted L2 distance between the sharp action and the
    regularized action at epsilons[i] on the probe.  The table is reported
    even when the decay is not monotone.
    """

    epsilons: np.ndarray
    errors: np.ndarray

    @property
    def strictly_decreasing(self) -> bool:
        return bool(np.all(np.diff(self.errors) < 0.0))


def association_diagnostic(
    operators: Dict[float, RegularizedOperator],
    probe: GridFunction,
    raw_coefficient: np.ndarray,
) -> AssociationTable:
    """Measure how fast the regularized actions approach the sharp action.

    The sharp action is the operator without a mollifier, with the raw
    coefficient.  The probe should be smooth and supported in the middle half
    of the domain so the periodic truncation does not pollute the comparison.
    """
    if not operators:
        raise ValueError("need at least one regularized operator")
    eps_sorted = sorted(operators.keys(), reverse=True)
    ref = operators[eps_sorted[0]]
    if probe.grid != ref.grid:
        raise SizeError("probe grid does not match the operator grid")
    sharp = build_operator(ref.kind, ref.space_order, raw_coefficient, None, ref.grid).apply(probe.values)
    errors = np.empty(len(eps_sorted))
    for i, eps in enumerate(eps_sorted):
        op = operators[eps]
        if op.kind != ref.kind or op.space_order != ref.space_order:
            raise ValueError("operators in the table must share kind and order")
        diff = op.apply(probe.values) - sharp
        errors[i] = math.sqrt(ref.grid.dx * float(np.sum(np.abs(diff) ** 2)))
    return AssociationTable(epsilons=np.asarray(eps_sorted, dtype=float), errors=errors)
