"""Packaged acceptance checks.

Each check builds its scenario from scratch, measures, and compares against
the named thresholds of its registry entry.  Checks report measured values
either way: a failure is data, not an exception.

The scenarios are frozen: fixed seeds, fixed grids, fixed ladders.  Changing
any of them invalidates recorded margins, so treat the constants here the
way you would treat a regression baseline.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .duhamel import (
    CauchyProblem,
    SolverOptions,
    gronwall_stability_probe,
    moderateness_scan,
    scaled_sine,
    second_derivative_identity_check,
    solve_kernel_form,
    solve_rl_form,
    zero_nonlinearity,
)
from .errors import NormGateError
from .fractional import GridFunction, SpatialGrid, TimeMesh
from .regularization import (
    CoefficientField,
    EpsilonSchedule,
    approximate_operator,
    association_diagnostic,
    build_operator,
    check_norm_gate,
)
from .solution import exp_bound_check, generator_recovery, ml_trajectory, volterra_residual
from .special import MlParams, _scalar_powers, check_growth_bound, mittag_leffler, mittag_leffler_hp
from .stochastic import NoiseSpec, ensemble_run, stochastic_initial_data, white_noise_representative

__all__ = ["CriterionResult", "run_all", "CRITERIA"]


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    measured: dict
    thresholds: dict
    runtime: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.index:2d} {self.name}: {self.detail} ({self.runtime:.2f}s)"


# ------------------------------------------------------------ shared pieces

_FORCED = dict(alpha=1.5, c=0.5, q=1.0, horizon=1.0)


def _forced_problem(n_steps: int, forcing: Callable, nonlinearity=None) -> CauchyProblem:
    mesh = TimeMesh(_FORCED["horizon"], n_steps)
    values = np.asarray(forcing(mesh.nodes), dtype=float)[:, None]
    return CauchyProblem(
        alpha=_FORCED["alpha"],
        operator=_FORCED["c"],
        nonlinearity=nonlinearity or zero_nonlinearity(),
        initial_data=np.array([_FORCED["q"]]),
        mesh=mesh,
        forcing=values,
    )


def _random_symmetric(dim: int, key: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=key))
    m = rng.standard_normal((dim, dim))
    sym = 0.5 * (m + m.T)
    return sym / np.linalg.norm(sym, 2)


_DIAG_CACHE: dict = {}


def _diagnostic_family(kappa: float):
    """Mollified variable-coefficient family on the wide diagnostics grid."""
    if kappa not in _DIAG_CACHE:
        grid = SpatialGrid(48.0, 1024)
        lam = 1.0 + 0.25 / np.cosh(grid.x)
        schedule = EpsilonSchedule(alpha=1.5, kappa=kappa)
        coeff = CoefficientField(grid, lam)
        ops = {}
        for eps in schedule.epsilons:
            eps = float(eps)
            ops[eps] = approximate_operator("second_derivative", 2.0, coeff, schedule, eps)
        _DIAG_CACHE[kappa] = (grid, lam, schedule, ops)
    return _DIAG_CACHE[kappa]


# ------------------------------------------------------------ the checks


def _c01_series_identities(th: dict):
    p_exp = MlParams(1.0, 1.0)
    xs = np.linspace(-5.0, 5.0, 101)
    values = mittag_leffler(p_exp, xs).tolist()
    exp_rel = max(abs(v - math.exp(x)) / math.exp(x) for v, x in zip(values, xs.tolist()))
    p_cos = MlParams(2.0, 1.0)
    ts = np.linspace(0.0, 10.0, 201)
    values = mittag_leffler(p_cos, -ts * ts).tolist()
    cos_abs = max(abs(v - math.cos(t)) for v, t in zip(values, ts.tolist()))
    passed = exp_rel <= th["exp_rel"] and cos_abs <= th["cos_abs"]
    measured = {"exp_rel": float(exp_rel), "cos_abs": float(cos_abs)}
    return passed, measured, f"exp rel {exp_rel:.2e}, cos abs {cos_abs:.2e}"


def _c02_series_oracle(th: dict):
    fast = mittag_leffler(MlParams(0.5, 1.0), 1.0)
    oracle = complex(mittag_leffler_hp(0.5, 1.0, 1.0, dps=50))
    closed = math.e * math.erfc(-1.0)
    oracle_rel = abs(fast - oracle) / abs(oracle)
    erfc_rel = abs(fast - closed) / closed
    passed = oracle_rel <= th["oracle_rel"] and erfc_rel <= th["erfc_rel"]
    measured = {"oracle_rel": float(oracle_rel), "erfc_rel": float(erfc_rel)}
    return passed, measured, f"oracle rel {oracle_rel:.2e}, erfc rel {erfc_rel:.2e}"


def _c03_growth_envelope(th: dict):
    omega = np.linspace(0.0, 4.0, 17)
    times = np.linspace(0.0, 5.0, 26)
    worst_c = 0.0
    bad = 0
    for alpha in (1.1, 1.5, 1.9):
        for beta in (alpha - 1.0, 1.0, alpha, 2.0 * alpha - 2.0):
            env = check_growth_bound(MlParams(alpha, beta), omega, times)
            worst_c = max(worst_c, env.c)
            bad += env.n_nonfinite
    passed = bad == 0 and math.isfinite(worst_c) and worst_c <= th["max_envelope"]
    measured = {"max_envelope": float(worst_c), "n_nonfinite": int(bad)}
    return passed, measured, f"max envelope {worst_c:.4g}, non-finite samples {bad}"


def _c04_matrix_series_oracle(th: dict):
    mat = _random_symmetric(8, key=0xC4)
    rng = np.random.Generator(np.random.Philox(key=0xC4 + 1))
    x = rng.standard_normal(8)
    evals, evecs = np.linalg.eigh(mat)
    worst = 0.0
    for alpha in (1.25, 1.5, 1.75):
        t_cap = 4.0 ** (1.0 / alpha)  # matrix is normalized, so t**alpha * ||A|| <= 4
        for frac in (0.25, 0.5, 0.75, 1.0):
            t = frac * t_cap
            got = ml_trajectory(alpha, 1.0, mat, x, np.array([t]))[0]
            params = MlParams(alpha, 1.0)
            scalars = mittag_leffler(params, t**alpha * evals)
            want = evecs @ (scalars * (evecs.T @ x))
            worst = max(worst, np.linalg.norm(got - want) / np.linalg.norm(want))
    passed = worst <= th["rel_err"]
    return passed, {"rel_err": float(worst)}, f"worst relative error {worst:.2e}"


def _c05_volterra_orders(th: dict):
    meshes = [TimeMesh(2.0, n) for n in (128, 256, 512)]
    orders = []
    cases = {
        "scalar": (1.5, 0.5, np.array([1.0])),
        "matrix": (
            1.75,
            _random_symmetric(8, key=0xC5),
            np.random.Generator(np.random.Philox(key=0xC5 + 1)).standard_normal(8),
        ),
    }
    measured = {}
    for name, (alpha, op, x) in cases.items():
        res = [volterra_residual(alpha, op, mesh, x) for mesh in meshes]
        steps = [math.log2(res[i] / res[i + 1]) for i in range(2)]
        measured[f"{name}_orders"] = [float(s) for s in steps]
        orders.extend(steps)
    worst = min(orders)
    passed = worst >= th["min_order"]
    return passed, measured, f"slowest refinement order {worst:.2f}"


def _c06_generator_slope(th: dict):
    ladder = 2.0 ** -np.arange(2.0, 10.0)
    probe = generator_recovery(1.5, 2.0, np.ones(1), ladder)
    gap = abs(probe.rate - 1.5)
    passed = math.isfinite(probe.rate) and gap <= th["slope_window"]
    measured = {"slope": float(probe.rate), "gap_to_alpha": float(gap)}
    return passed, measured, f"slope {probe.rate:.4f} vs alpha 1.5"


def _smooth_forcing(nodes: np.ndarray) -> np.ndarray:
    return 0.3 + 0.05 * nodes**2


def _c07_form_equivalence(th: dict):
    opts = SolverOptions()
    gaps = {}
    for n in (256, 512):
        p = _forced_problem(n, _smooth_forcing)
        uk = solve_kernel_form(p, opts).trajectory
        ur = solve_rl_form(p, opts).trajectory
        gaps[n] = float(np.max(np.abs(uk - ur)))
    # quadratic ramp: vanishes at t = 0 with enough smoothness for the
    # derivative-route stencils to keep their full order
    ramp = _forced_problem(512, lambda t: 0.4 * t**2)
    uk = solve_kernel_form(ramp, opts).trajectory
    # with F(0) = 0 split off, the derivative form is the Caputo variant
    caputo_gap = float(np.max(np.abs(uk - solve_rl_form(ramp, opts).trajectory)))
    passed = (
        gaps[512] <= th["gap_at_512"]
        and gaps[512] < gaps[256]
        and caputo_gap <= th["caputo_gap"]
    )
    measured = {
        "gap_256": gaps[256],
        "gap_512": gaps[512],
        "caputo_gap": caputo_gap,
    }
    return passed, measured, (
        f"gap {gaps[256]:.2e} -> {gaps[512]:.2e}, vanishing-start variant {caputo_gap:.2e}"
    )


def _c08_forced_closed_form(th: dict):
    p = _forced_problem(512, lambda t: np.full_like(t, 0.3))
    traj = solve_kernel_form(p, SolverOptions()).trajectory[:, 0]
    alpha, c = _FORCED["alpha"], _FORCED["c"]
    p1 = MlParams(alpha, 1.0)
    p2 = MlParams(alpha, alpha + 1.0)
    powers = _scalar_powers(p.mesh.nodes, alpha)
    exact = mittag_leffler(p1, c * powers) + 0.3 * powers * mittag_leffler(p2, c * powers)
    gap = float(np.max(np.abs(traj - exact)))
    passed = gap <= th["closed_form_gap"]
    return passed, {"closed_form_gap": gap}, f"sup gap to closed form {gap:.2e}"


def _c09_identity_refinement(th: dict):
    opts = SolverOptions()
    devs = {}
    for n in (256, 512):
        p = _forced_problem(n, _smooth_forcing)
        report = solve_kernel_form(p, opts)
        devs[n] = second_derivative_identity_check(report, p)
    factor = devs[256] / devs[512]
    passed = factor >= th["min_factor"]
    measured = {"dev_256": float(devs[256]), "dev_512": float(devs[512]), "factor": float(factor)}
    return passed, measured, f"deviation shrank by {factor:.2f}x"


def _c10_wave_limit(th: dict):
    ts = np.linspace(0.0, 2.0, 201)
    gaps = []
    for alpha in (1.9, 1.95, 1.99):
        values = mittag_leffler(MlParams(alpha, 1.0), -_scalar_powers(ts, alpha)).real.tolist()
        gap = max(abs(v - math.cos(t)) for v, t in zip(values, ts.tolist()))
        gaps.append(float(gap))
    drops = [gaps[i] - gaps[i + 1] for i in range(2)]
    passed = all(d > th["monotone_margin"] for d in drops)
    measured = {"gaps": gaps}
    return passed, measured, "gap to cosine " + " -> ".join(f"{g:.3e}" for g in gaps)


def _c11_association(th: dict):
    grid, lam, schedule, ops = _diagnostic_family(2.0)
    probe = GridFunction(grid, np.exp(-(grid.x**2) / (2.0 * 5.0**2)))
    table = association_diagnostic(ops, probe, lam)
    final = float(table.errors[-1])
    passed = table.strictly_decreasing and final <= th["final_error"]
    measured = {
        "errors": [float(e) for e in table.errors],
        "strictly_decreasing": bool(table.strictly_decreasing),
        "final_error": final,
    }
    return passed, measured, (
        f"{'strictly decreasing' if table.strictly_decreasing else 'NOT monotone'}, final {final:.2e}"
    )


def _c12_norm_gate(th: dict):
    grid, lam, schedule, ops = _diagnostic_family(2.0)
    margins = []
    for eps, op in ops.items():
        norm = op.norm_estimate().value
        cap = schedule.cap(eps)
        margins.append(cap * th["cap_scale"] - norm)
    all_below = all(m > 0.0 for m in margins)

    inflated = EpsilonSchedule(alpha=1.5, kappa=3.0)
    eps0 = float(inflated.epsilons[0])
    bad_op = approximate_operator("second_derivative", 2.0, CoefficientField(grid, lam), inflated, eps0)
    try:
        check_norm_gate(bad_op, inflated)
        tripped = False
    except NormGateError:
        tripped = True
    passed = all_below and tripped
    measured = {"min_margin": float(min(margins)), "inflated_kappa_tripped": tripped}
    return passed, measured, (
        f"min cap margin {min(margins):.3f}; inflated kappa {'tripped' if tripped else 'MISSED'} the gate"
    )


_SCAN = dict(
    half_length=16.0,
    n_points=256,
    horizon=0.25,
    n_steps=128,
    intensity=0.05,
    seed=20260815,
    temporal_sharpness=32.0,
    sobolev_order=0.75,
)


def _c13_moderateness(th: dict):
    grid = SpatialGrid(_SCAN["half_length"], _SCAN["n_points"])
    mesh = TimeMesh(_SCAN["horizon"], _SCAN["n_steps"])
    schedule = EpsilonSchedule(alpha=1.5)
    coeff = CoefficientField(grid, np.ones(grid.n_points))
    u0 = GridFunction(grid, np.exp(-(grid.x**2) / 8.0))
    fn = scaled_sine(0.1)

    def build(eps: float) -> CauchyProblem:
        op = approximate_operator("second_derivative", 2.0, coeff, schedule, eps)
        spec = NoiseSpec(
            intensity=_SCAN["intensity"],
            master_seed=_SCAN["seed"],
            temporal_sharpness=_SCAN["temporal_sharpness"],
            schedule=schedule,
        )
        forcing = white_noise_representative(spec, eps, grid, mesh).trajectory
        return CauchyProblem(
            alpha=1.5,
            operator=op,
            nonlinearity=fn,
            initial_data=u0,
            mesh=mesh,
            forcing=forcing,
            grid=grid,
            sobolev_order=_SCAN["sobolev_order"],
        )

    report = moderateness_scan(build, schedule, SolverOptions())
    ok_statuses = all(s == "ok" for s in report.statuses)
    finite = math.isfinite(report.fitted_n)
    passed = ok_statuses and finite and abs(report.fitted_n) <= th["max_exponent"]
    measured = {
        "fitted_n": float(report.fitted_n),
        "exponents": {k: float(v) for k, v in report.exponents.items()},
        "statuses": report.statuses,
    }
    return passed, measured, f"fitted exponent {report.fitted_n:.4g} over {len(report.statuses)} ladder points"


_ENSEMBLE = dict(
    half_length=16.0,
    n_points=64,
    horizon=0.25,
    n_steps=64,
    intensity=0.05,
    seed=424242,
    members=64,
    spatial_sharpness=0.5,
    temporal_sharpness=32.0,
)


def _c14_stochastic_contracts(th: dict):
    grid = SpatialGrid(_ENSEMBLE["half_length"], _ENSEMBLE["n_points"])
    mesh = TimeMesh(_ENSEMBLE["horizon"], _ENSEMBLE["n_steps"])
    op = build_operator("second_derivative", 2.0, np.full(grid.n_points, 0.5), None, grid)
    u0 = GridFunction(grid, np.exp(-(grid.x**2) / 8.0))
    opts = SolverOptions()

    def spec_for(member: int, seed: int, intensity: float) -> NoiseSpec:
        return NoiseSpec(
            intensity=intensity,
            master_seed=seed,
            member=member,
            spatial_sharpness=_ENSEMBLE["spatial_sharpness"],
            temporal_sharpness=_ENSEMBLE["temporal_sharpness"],
        )

    # same seed coordinates, same bytes
    rep_a = white_noise_representative(spec_for(3, _ENSEMBLE["seed"], 0.05), 0.1, grid, mesh)
    rep_b = white_noise_representative(spec_for(3, _ENSEMBLE["seed"], 0.05), 0.1, grid, mesh)
    bit_exact = bool(np.array_equal(rep_a.trajectory.values, rep_b.trajectory.values))

    def build(member: int, seed: int, intensity: float) -> CauchyProblem:
        q = stochastic_initial_data(u0, spec_for(member, seed, intensity), 0.1, grid)
        return CauchyProblem(
            alpha=1.5,
            operator=op,
            nonlinearity=zero_nonlinearity(),
            initial_data=q,
            mesh=mesh,
            grid=grid,
        )

    det = solve_kernel_form(build(0, _ENSEMBLE["seed"], 0.0), opts).trajectory
    det_again = solve_kernel_form(
        CauchyProblem(
            alpha=1.5,
            operator=op,
            nonlinearity=zero_nonlinearity(),
            initial_data=u0,
            mesh=mesh,
            grid=grid,
        ),
        opts,
    ).trajectory
    silent_identical = bool(np.array_equal(det, det_again))

    stats, _ = ensemble_run(
        lambda member, seed: build(member, seed, _ENSEMBLE["intensity"]),
        _ENSEMBLE["members"],
        _ENSEMBLE["seed"],
        opts,
    )
    diff = stats.mean - det
    z = float(
        math.sqrt(float(np.sum(np.abs(diff) ** 2)))
        / math.sqrt(float(np.sum(stats.std_error**2)))
    )
    passed = bit_exact and silent_identical and stats.all_ok and z <= th["z_limit"]
    measured = {
        "bit_exact": bit_exact,
        "zero_intensity_identical": silent_identical,
        "n_ok": stats.n_ok,
        "aggregate_z": z,
    }
    return passed, measured, (
        f"seeds bit-exact: {bit_exact}, zero-noise reduction exact: {silent_identical}, "
        f"ensemble mean at {z:.2f} standard errors"
    )


def _c15_gronwall(th: dict):
    opts = SolverOptions()
    base = _forced_problem(256, lambda t: 0 * t)
    linear = gronwall_stability_probe(base, np.array([1.0]), opts, scales=(1.0, 0.5))
    k_lin = float(np.nanmax(linear.k_values))
    sup_s = exp_bound_check(_FORCED["alpha"], _FORCED["c"], base.mesh.nodes).sup_norm
    ratio_gap = abs(k_lin / sup_s - 1.0)

    nonlinear_problem = _forced_problem(256, lambda t: 0 * t, scaled_sine(0.1))
    nl = gronwall_stability_probe(nonlinear_problem, np.array([1.0]), opts, scales=(1e-2, 1e-3))
    ks = nl.k_values
    spread = float(abs(ks[0] - ks[1]) / np.max(np.abs(ks)))
    passed = (
        ratio_gap <= th["k_ratio_window"]
        and np.all(np.isfinite(ks))
        and spread <= th["k_spread"]
    )
    measured = {
        "k_linear": k_lin,
        "sup_propagator_norm": float(sup_s),
        "ratio_gap": float(ratio_gap),
        "k_nonlinear": [float(k) for k in ks],
        "spread": spread,
    }
    return passed, measured, (
        f"linear K within {100 * ratio_gap:.2f}% of sup norm; nonlinear K spread {spread:.2e}"
    )


# ------------------------------------------------------------ registry


@dataclass(frozen=True)
class _Criterion:
    index: int
    name: str
    thresholds: dict
    fn: Callable[[dict], tuple]


CRITERIA = (
    _Criterion(1, "series identities", {"exp_rel": 1e-12, "cos_abs": 1e-10}, _c01_series_identities),
    _Criterion(2, "series oracle", {"oracle_rel": 1e-10, "erfc_rel": 1e-10}, _c02_series_oracle),
    _Criterion(3, "growth envelope", {"max_envelope": 1e6}, _c03_growth_envelope),
    _Criterion(4, "matrix series oracle", {"rel_err": 1e-8}, _c04_matrix_series_oracle),
    _Criterion(5, "volterra refinement", {"min_order": 1.0}, _c05_volterra_orders),
    _Criterion(6, "generator slope", {"slope_window": 0.1}, _c06_generator_slope),
    _Criterion(7, "form equivalence", {"gap_at_512": 1e-4, "caputo_gap": 1e-6}, _c07_form_equivalence),
    _Criterion(8, "forced closed form", {"closed_form_gap": 1e-6}, _c08_forced_closed_form),
    _Criterion(9, "curvature identity refinement", {"min_factor": 1.5}, _c09_identity_refinement),
    _Criterion(10, "wave limit", {"monotone_margin": 0.0}, _c10_wave_limit),
    _Criterion(11, "operator association", {"final_error": 1e-3}, _c11_association),
    _Criterion(12, "norm gate", {"cap_scale": 1.0}, _c12_norm_gate),
    _Criterion(13, "moderateness scan", {"max_exponent": 1e3}, _c13_moderateness),
    _Criterion(14, "stochastic contracts", {"z_limit": 3.0}, _c14_stochastic_contracts),
    _Criterion(15, "stability constants", {"k_ratio_window": 0.1, "k_spread": 0.1}, _c15_gronwall),
)


def run_one(index: int) -> CriterionResult:
    spec = next(c for c in CRITERIA if c.index == index)
    thresholds = dict(spec.thresholds)
    start = time.perf_counter()
    passed, measured, detail = spec.fn(thresholds)
    runtime = time.perf_counter() - start
    return CriterionResult(
        index=spec.index,
        name=spec.name,
        passed=bool(passed),
        measured=measured,
        thresholds=thresholds,
        runtime=runtime,
        detail=detail,
    )


def run_all(only: Optional[list] = None) -> list:
    """Run the checks in index order; only restricts to the listed indices."""
    return [run_one(spec.index) for spec in CRITERIA if not only or spec.index in only]
