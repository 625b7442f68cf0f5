"""Seeded mollified white-noise representatives and ensemble orchestration.

Randomness is realized operationally: a counter-based Philox stream keyed by
(master seed, member index, purpose tag) through numpy's SeedSequence, with
normals drawn by the generator's documented ziggurat transform.  Every field
is therefore a pure function of its seed data, which is what stands in for
joint measurability here: same (spec, eps, seed), same bits.

Spatial smoothing is the periodic kernel machinery wholesale; temporal
smoothing convolves against a compactly supported kernel with zero extension
outside the time window, so early and late nodes see a truncated kernel mass
(their variance dips accordingly; the closed-form variance below is that
of the central node, which is interior whenever the kernel fits the window).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .duhamel import CauchyProblem, SolverOptions, SolverReport, solve_kernel_form
from .errors import FracwaveError, ResolutionError
from .fractional import GridFunction, SpatialGrid, TimeMesh, Trajectory
from .regularization import EpsilonSchedule, make_mollifier
from .regularization import _profile, _support_radius  # shared kernel profiles

__all__ = [
    "NoiseSpec",
    "NoiseRepresentative",
    "white_noise_representative",
    "mollified_variance",
    "stochastic_initial_data",
    "EnsembleStats",
    "ensemble_run",
]

_TAG_FORCING = 0
_TAG_INITIAL = 1


def _stream(master_seed: int, member: int, tag: int) -> np.random.Generator:
    """Philox stream for one (member, purpose) pair; streams never overlap."""
    ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(member, tag))
    return np.random.Generator(np.random.Philox(ss))


@dataclass(frozen=True)
class NoiseSpec:
    """Intensity, smoothing sharpness, and seed coordinates of one noise field.

    Sharpness values are the kernel family parameter (support radius is its
    reciprocal); when left unset they follow the width schedule at the
    requested epsilon, which ties the smoothing scale to the operator
    regularization.  The temporal sharpness is independently overridable
    since short horizons usually need a narrower kernel than the schedule
    suggests.
    """

    intensity: float
    master_seed: int
    member: int = 0
    spatial_sharpness: Optional[float] = None
    temporal_sharpness: Optional[float] = None
    schedule: Optional[EpsilonSchedule] = None
    shape: str = "bump"

    def __post_init__(self):
        if not (np.isfinite(self.intensity) and self.intensity >= 0.0):
            raise ValueError(f"intensity must be finite and >= 0, got {self.intensity!r}")
        if self.member < 0:
            raise ValueError("member index must be >= 0")

    def sharpness_at(self, eps: float) -> tuple:
        """Resolve (spatial, temporal) sharpness for one ladder point."""
        hx = self.spatial_sharpness
        ht = self.temporal_sharpness
        if hx is None or ht is None:
            if self.schedule is None:
                raise ValueError(
                    "sharpness left to the default requires a width schedule on the spec"
                )
            h = self.schedule.h(eps)
            hx = h if hx is None else hx
            ht = h if ht is None else ht
        return float(hx), float(ht)

    def provenance(self, eps: float, tag: int) -> dict:
        hx, ht = self.sharpness_at(eps)
        return {
            "intensity": self.intensity,
            "master_seed": self.master_seed,
            "member": self.member,
            "tag": tag,
            "eps": eps,
            "spatial_sharpness": hx,
            "temporal_sharpness": ht,
            "shape": self.shape,
        }


@dataclass(frozen=True)
class NoiseRepresentative:
    """One realized mollified noise field with its full seed provenance."""

    trajectory: Trajectory
    provenance: dict


def _time_kernel(shape: str, sharpness: float, mesh: TimeMesh) -> np.ndarray:
    """Unit-mass kernel taps on the time step lattice.

    Entry m corresponds to displacement (m - center) * dt; mass is
    renormalized exactly like the spatial kernels so smoothing preserves
    means.
    """
    if not sharpness > 0.0:
        raise ValueError(f"temporal sharpness must be positive, got {sharpness!r}")
    radius = _support_radius(shape, sharpness)
    if 2.0 * radius < 4.0 * mesh.dt:
        raise ResolutionError(
            f"temporal kernel support {2.0 * radius:g} narrower than four steps "
            f"({4.0 * mesh.dt:g}); refine the mesh or lower the sharpness"
        )
    m_max = int(math.floor(radius / mesh.dt))
    offsets = np.arange(-m_max, m_max + 1)
    taps = sharpness * _profile(shape, offsets * mesh.dt * sharpness)
    mass = taps.sum() * mesh.dt
    return taps / mass


def _convolve_time(values: np.ndarray, taps: np.ndarray, dt: float) -> np.ndarray:
    """Discrete convolution of real values along axis 0 with zero extension.

    Row i is sum_m dt taps[m_max + m] values[i - m] over the nodes inside
    the window.  Taps with |m| > n - 1 reach no node and are dropped; the
    rest run as one linear FFT convolution, zero-padded to a power of two
    >= n + m so that rows [m, m + n) see no wrap-around.
    """
    n = values.shape[0]
    m_max = (taps.size - 1) // 2
    m = min(m_max, n - 1)
    kept = taps[m_max - m : m_max + m + 1] * dt
    size = 1 << (n + m - 1).bit_length()
    spectrum = np.fft.rfft(values, n=size, axis=0)
    spectrum *= np.fft.rfft(kept, n=size)[:, None]
    return np.fft.irfft(spectrum, n=size, axis=0)[m : m + n].copy()


def white_noise_representative(
    spec: NoiseSpec, eps: float, grid: SpatialGrid, mesh: TimeMesh
) -> NoiseRepresentative:
    """Mollified space-time Gaussian white noise on the grid and mesh.

    Cell draws are scaled by intensity / sqrt(dx dt) so the smoothed field
    has the closed-form interior variance of mollified_variance; smoothing is
    periodic in space, zero-extended in time.
    """
    provenance = spec.provenance(eps, _TAG_FORCING)
    n_nodes, n_points = mesh.n_nodes, grid.n_points
    if spec.intensity == 0.0:
        values = np.zeros((n_nodes, n_points))
        return NoiseRepresentative(Trajectory(mesh, values, grid), provenance)
    hx, ht = spec.sharpness_at(eps)
    moll = make_mollifier(spec.shape, hx, grid)
    taps = _time_kernel(spec.shape, ht, mesh)
    rng = _stream(spec.master_seed, spec.member, _TAG_FORCING)
    draws = rng.standard_normal((n_nodes, n_points))
    draws *= spec.intensity / math.sqrt(grid.dx * mesh.dt)
    smoothed = moll.convolve(draws)
    values = _convolve_time(smoothed, taps, mesh.dt)
    return NoiseRepresentative(Trajectory(mesh, values, grid), provenance)


def mollified_variance(spec: NoiseSpec, eps: float, grid: SpatialGrid, mesh: TimeMesh) -> float:
    """Variance of the mollified field at the central node, in closed form.

    Independence of the cell draws turns the double smoothing into a product
    of discrete kernel energies: sigma^2 (dx sum phi_x^2)(dt sum phi_t^2),
    the time sum running over the taps that reach the central node
    i = (n - 1) // 2 inside the window.  When the kernel fits in the window
    that node sees every tap, and the value is the interior variance shared
    by all nodes away from the window ends.
    """
    if spec.intensity == 0.0:
        return 0.0
    hx, ht = spec.sharpness_at(eps)
    moll = make_mollifier(spec.shape, hx, grid)
    taps = _time_kernel(spec.shape, ht, mesh)
    m_max = (taps.size - 1) // 2
    centre = (mesh.n_nodes - 1) // 2
    # node i sees values[i - m] for offsets m in [i - (n - 1), i]
    reach = taps[m_max - min(m_max, mesh.n_nodes - 1 - centre) : m_max + min(m_max, centre) + 1]
    space_energy = float(np.sum(moll.samples**2)) * grid.dx
    time_energy = float(np.sum(reach**2)) * mesh.dt
    return spec.intensity**2 * space_energy * time_energy


def stochastic_initial_data(
    u0: GridFunction, spec: NoiseSpec, eps: float, grid: SpatialGrid
) -> GridFunction:
    """Initial state plus spatially mollified noise of the spec's intensity."""
    if u0.grid is not grid and u0.grid != grid:
        raise ValueError("initial profile lives on a different grid")
    if spec.intensity == 0.0:
        return GridFunction(grid, u0.values.copy())
    hx, _ = spec.sharpness_at(eps)
    moll = make_mollifier(spec.shape, hx, grid)
    rng = _stream(spec.master_seed, spec.member, _TAG_INITIAL)
    draws = rng.standard_normal(grid.n_points) * (spec.intensity / math.sqrt(grid.dx))
    return GridFunction(grid, u0.values + moll.convolve(draws))


@dataclass
class EnsembleStats:
    """Node-wise moments over the successful members, in fixed member order."""

    n_members: int
    n_ok: int
    mean: np.ndarray
    variance: np.ndarray
    std_error: np.ndarray
    statuses: list

    @property
    def all_ok(self) -> bool:
        return self.n_ok == self.n_members


def ensemble_run(
    build_problem: Callable[[int, int], CauchyProblem],
    n_members: int,
    master_seed: int,
    opts: SolverOptions = SolverOptions(),
    solve: Callable[[CauchyProblem, SolverOptions], SolverReport] = solve_kernel_form,
) -> tuple:
    """Solve independent members and aggregate node-wise statistics.

    build_problem(member, master_seed) assembles one member's problem; the
    seed coordinates make members independent by construction.  Failed
    members are recorded and left out of the moments.  Summation runs in
    member order, so repeated calls aggregate identically.
    """
    if n_members < 1:
        raise ValueError("need at least one member")
    reports: list = []
    statuses: list = []
    trajectories: list = []
    for member in range(n_members):
        problem = build_problem(member, master_seed)
        try:
            report = solve(problem, opts)
        except FracwaveError as exc:
            statuses.append(f"failed: {exc}")
            reports.append(None)
            continue
        statuses.append("ok" if report.converged else "no-convergence")
        reports.append(report)
        trajectories.append(report.trajectory)
    n_ok = len(trajectories)
    if n_ok == 0:
        raise FracwaveError("every ensemble member failed")
    acc = np.zeros_like(trajectories[0])
    for traj in trajectories:
        acc = acc + traj
    mean = acc / n_ok
    if n_ok > 1:
        sq = np.zeros(trajectories[0].shape, dtype=float)
        for traj in trajectories:
            sq = sq + np.abs(traj - mean) ** 2
        variance = sq / (n_ok - 1)
    else:
        variance = np.zeros(trajectories[0].shape, dtype=float)
    stats = EnsembleStats(
        n_members=n_members,
        n_ok=n_ok,
        mean=mean,
        variance=variance,
        std_error=np.sqrt(variance / n_ok),
        statuses=statuses,
    )
    return stats, reports
