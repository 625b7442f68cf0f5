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

import math
import warnings
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from .errors import NormGateError, ResolutionError, SingularOrderError, SizeError
from .fractional import GridFunction, SpatialGrid, liouville_multiplier

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
        return _multiply(self.symbol, arr, not np.iscomplexobj(arr))


def _multiply(symbol: np.ndarray, arr: np.ndarray, real: bool) -> np.ndarray:
    """ifft(symbol * fft(arr)) along the last axis.

    real takes rfft/irfft with the half spectrum, which is the whole action
    when arr is real and symbol Hermitian (the symbol of a map from reals to
    reals); the result is then real.
    """
    n = symbol.size
    if real:
        return np.fft.irfft(symbol[: n // 2 + 1] * np.fft.rfft(arr, axis=-1), n, axis=-1)
    return np.fft.ifft(symbol * np.fft.fft(np.asarray(arr, dtype=complex), axis=-1), axis=-1)


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
    return Mollifier(grid=grid, samples=samples, symbol=np.fft.fft(samples) * grid.dx)


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
# kinds whose symbol maps real samples to real samples
_REAL_KINDS = ("second_derivative", "riesz")


def _base_multiplier(kind: str, space_order: float, grid: SpatialGrid) -> np.ndarray:
    if kind == "second_derivative":
        return -(grid.xi.astype(complex) ** 2)
    name = {"liouville_left": "left", "liouville_right": "right", "riesz": "riesz"}[kind]
    return liouville_multiplier(name, space_order, grid)


@dataclass
class RegularizedOperator:
    """coefficient times (mollified fractional derivative).

    Acts on arrays whose last axis matches the grid: the symbol acts in
    frequency space, then the smoothed coefficient multiplies pointwise.
    build_operator forms the symbol: the base derivative multiplier, times the
    kernel's symbol unless the operator is sharp, the one the mollified family
    is associated with.
    """

    kind: str
    space_order: float
    eps: float
    grid: SpatialGrid
    coeff: np.ndarray = field(repr=False)
    symbol: np.ndarray = field(repr=False)
    _norm: Optional["NormEstimate"] = field(default=None, repr=False)

    def __post_init__(self):
        coeff = np.asarray(self.coeff, dtype=float)
        if coeff.shape != (self.grid.n_points,):
            raise SizeError("coefficient samples do not match the grid")
        self.coeff = coeff

    @property
    def dim(self) -> int:
        return self.grid.n_points

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Real values meet the real-to-real kinds in real FFTs and stay real.

        The symbols of second_derivative and riesz are Hermitian (a real even
        multiplier times the transform of a real kernel), so their half
        spectrum carries the whole action.  The Liouville symbols (i xi)**s
        are not Hermitian at the Nyquist mode, and every complex input takes
        the full complex transform.
        """
        arr = np.asarray(values)
        if arr.shape[-1] != self.grid.n_points:
            raise SizeError("values do not match the operator grid")
        real = self.kind in _REAL_KINDS and not np.iscomplexobj(arr)
        return self.coeff * _multiply(self.symbol, arr, real)

    def norm_estimate(self) -> "NormEstimate":
        if self._norm is None:
            self._norm = operator_norm_estimate(self)
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


# below this norm an iterate's squared entries underflow and its norm loses bits
_SQUARES_UNDERFLOW = math.sqrt(np.finfo(float).tiny)


@np.errstate(over="ignore", invalid="ignore")
def operator_norm_estimate(op: RegularizedOperator) -> NormEstimate:
    """Largest-singular-value estimate by power iteration on A*A.

    The iteration runs on the unitary DFT coefficients fft(v)/sqrt(n) of a
    start vector drawn from a fixed counter-based generator, so the estimate
    is reproducible.  A power iteration is invariant under a unitary change of
    basis, so these are the steps of the sample-space iteration v <- A*A v,
    with the same iterates, Rayleigh quotients and stop up to rounding.  In
    coefficients A*A is conj(symbol) * fft(coeff**2 * ifft(symbol * .)): two
    FFTs per step, and none for a constant coefficient, where it is the
    diagonal multiply coeff**2 * |symbol|**2.  The iteration stops at a
    relative change of 1e-6; one still unconverged after 10 000 steps returns
    its last value flagged, never raises.  A coefficient or symbol whose
    products leave the double range makes an iterate non-finite: that step
    returns NaN flagged, without floating-point warnings, for the gate to
    reject.  An iterate whose squared entries underflow is measured scaled by
    about its largest modulus, so a tiny nonzero operator does not read as
    zero.
    """
    n = op.dim
    rng = np.random.Generator(np.random.Philox(key=0x9E3779B97F4A7C15))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = np.fft.fft(v / np.linalg.norm(v), norm="ortho")
    symbol = op.symbol
    squared = op.coeff**2
    if np.ptp(op.coeff) == 0.0:
        gain = squared[0] * (np.conj(symbol) * symbol)

        def gram(x: np.ndarray) -> np.ndarray:
            return gain * x

    else:
        adjoint = np.conj(symbol)

        def gram(x: np.ndarray) -> np.ndarray:
            return adjoint * np.fft.fft(squared * np.fft.ifft(symbol * x))

    sigma = 0.0
    for it in range(1, 10_001):
        y = gram(v)
        ny = np.linalg.norm(y)
        if not math.isfinite(ny):
            return NormEstimate(math.nan, it, False)
        scale = 1.0
        if ny < _SQUARES_UNDERFLOW:
            # measure the iterate scaled by the power of two of its largest modulus;
            # dividing by that modulus itself overflows when it is subnormal
            peak = float(np.max(np.abs(y)))
            if peak == 0.0:
                return NormEstimate(0.0, it, True)
            shift = math.frexp(peak)[1]
            scale = math.ldexp(1.0, shift)
            y = np.ldexp(y.real, -shift) + 1j * np.ldexp(y.imag, -shift)
            ny = np.linalg.norm(y)
        sigma_new = math.sqrt(scale) * math.sqrt(float(np.real(np.vdot(v, y))))
        v = y / ny
        if it > 1 and abs(sigma_new - sigma) <= 1e-6 * max(sigma_new, 1e-300):
            return NormEstimate(sigma_new, it, True)
        sigma = sigma_new
    return NormEstimate(sigma, it, False)


def check_norm_gate(op: RegularizedOperator, schedule: EpsilonSchedule) -> float:
    """Enforce the norm cap for the operator's eps; returns the measured norm.

    Raises NormGateError when the measured norm exceeds the schedule cap or
    is not a number.  Solver entry points call this before time stepping.
    """
    est = op.norm_estimate()
    cap = schedule.cap(op.eps)
    if math.isnan(est.value):
        raise NormGateError(
            f"operator norm estimate is not finite (nan) at eps = {op.eps:.6g}: the "
            "operator's coefficient or symbol leaves the double range; reduce the "
            "coefficient scale"
        )
    if not est.value <= cap:
        raise NormGateError(
            f"operator norm {est.value:.6g} exceeds the schedule cap {cap:.6g} "
            f"at eps = {op.eps:.6g}; lower the sharpness multiplier or refine "
            "the schedule"
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
