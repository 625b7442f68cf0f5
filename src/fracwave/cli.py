"""Command line front end.

Verbs:

    run            solve one configured problem, write trajectory + metadata
    sweep-epsilon  walk the regularization ladder: norms, association, fits
    ml             evaluate the two-parameter series at a point
    validate       run the packaged acceptance checks and report pass/fail
    noise-dump     realize the configured noise field and write it out

Shared flags (per verb): --config PATH, --out DIR, --seed N, --quiet.

Exit codes: 0 success, 1 a validate check failed, 2 configuration problem
(or an unknown validate --only id), 3 numerical gate failure (norm cap,
resolution, series range), 4 fixed-point divergence (for `run`, also no
convergence within solver.max_iter).  All output
files are deterministic for a fixed config, so run directories can be
compared byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .config import NAMED_PROFILES, RunConfig, config_hash, parse_config, parse_config_file, render_config
from .duhamel import (
    CauchyProblem,
    SolverOptions,
    _row_sup,  # dx-weighted largest row norm
    moderateness_scan,
    nonlinearity_from_callable,
    solve_kernel_form,
    solve_rl_form,
    zero_nonlinearity,
)
from .errors import ConfigError, DivergenceError, FracwaveError
from .expressions import parse_expression
from .fractional import GridFunction, SpatialGrid, TimeMesh
from .regularization import (
    CoefficientField,
    EpsilonSchedule,
    approximate_operator,
    association_diagnostic,
    build_operator,
    check_norm_gate,
)
from .special import MlParams, mittag_leffler
from .stochastic import (
    NoiseSpec,
    mollified_variance,
    stochastic_initial_data,
    white_noise_representative,
)

__all__ = ["assemble_scenario", "entrypoint", "main", "run_scenario"]


# ---------------------------------------------------------------- building


def _profile_samples(source: str, grid: SpatialGrid, what: str) -> np.ndarray:
    x = grid.x
    if source in NAMED_PROFILES:
        return NAMED_PROFILES[source](x)
    if source.startswith("mode:"):
        k = int(source[5:], 10)
        with np.errstate(invalid="ignore"):  # a phase pi*K that overflows reads nan, checked below
            values = np.exp(1j * math.pi * k * x / grid.half_length)
    elif source.startswith("file:"):
        path = source[5:].strip()
        try:
            table = np.loadtxt(path, delimiter=",", dtype=float, ndmin=2)
        except OSError as err:
            raise ConfigError([(None, f"{what}: cannot read {path!r}: {err}")])
        if table.shape[0] != grid.n_points or table.shape[1] not in (1, 2):
            raise ConfigError(
                [(None, f"{what}: {path!r} must have {grid.n_points} rows of 1 or 2 columns")]
            )
        values = table[:, 0] if table.shape[1] == 1 else table[:, 0] + 1j * table[:, 1]
    else:
        values = parse_expression(source, "x").evaluate(x)
    if not np.all(np.isfinite(values)):
        raise ConfigError([(None, f"{what}: profile takes non-finite values on the grid")])
    return values


def _build_nonlinearity(cfg: RunConfig):
    if cfg.nonlinearity == "zero":
        return zero_nonlinearity()
    expr = parse_expression(cfg.nonlinearity, "u")
    try:
        return nonlinearity_from_callable(expr.evaluate, cfg.nonlinearity)
    except ValueError as err:
        raise ConfigError([(None, f"nonlinearity.f: {err}")])


def _build_schedule(cfg: RunConfig) -> EpsilonSchedule:
    return EpsilonSchedule(
        alpha=cfg.alpha,
        scenario=cfg.schedule_scenario,
        k_min=cfg.k_min,
        k_max=cfg.k_max,
        kappa=cfg.kappa,
        kappa_cap=cfg.kappa_cap,
        h_min=cfg.h_min,
        coeff_width_factor=cfg.coeff_width_factor,
    )


def _coefficient_samples(cfg: RunConfig, grid: SpatialGrid) -> np.ndarray:
    raw = _profile_samples(cfg.coefficient, grid, "operator.coefficient")
    if np.iscomplexobj(raw):
        raise ConfigError([(None, "operator.coefficient: profile must be real")])
    raw = cfg.coefficient_scale * raw.astype(float)
    if not np.all(raw > 0.0):
        raise ConfigError([(None, "operator.coefficient: profile must be strictly positive")])
    return raw


def _frame(cfg: RunConfig) -> tuple:
    """Grid, time mesh, width schedule (None when unmollified) and run epsilon."""
    grid = SpatialGrid(cfg.half_length, cfg.n_points)
    mesh = TimeMesh(cfg.horizon, cfg.n_steps)
    schedule = _build_schedule(cfg) if cfg.mollify else None
    return grid, mesh, schedule, 2.0 ** (-cfg.run_k)


def _displacement(cfg: RunConfig, grid: SpatialGrid) -> GridFunction:
    return GridFunction(
        grid, cfg.displacement_scale * _profile_samples(cfg.displacement, grid, "initial.displacement")
    )


def _noise_spec(cfg: RunConfig, schedule: Optional[EpsilonSchedule]) -> NoiseSpec:
    """The configured noise; without a schedule both sharpness values must be set."""
    if schedule is None and (cfg.spatial_sharpness is None or cfg.temporal_sharpness is None):
        raise ConfigError(
            [(None, "noise: set spatial and temporal sharpness explicitly when operator.mollify = false")]
        )
    return NoiseSpec(
        intensity=cfg.noise_intensity,
        master_seed=cfg.master_seed,
        spatial_sharpness=cfg.spatial_sharpness,
        temporal_sharpness=cfg.temporal_sharpness,
        schedule=schedule,
        shape=cfg.noise_shape,
    )


def _problem_builder(cfg: RunConfig, grid: SpatialGrid, mesh: TimeMesh, schedule: Optional[EpsilonSchedule]):
    """Read the epsilon-independent data once; returns build(operator, eps) -> (problem, noise_meta)."""
    nonlinearity = _build_nonlinearity(cfg)
    displacement = _displacement(cfg, grid)
    velocity = cfg.velocity_scale * _profile_samples(cfg.velocity, grid, "initial.velocity")
    spec = _noise_spec(cfg, schedule) if cfg.noise_intensity > 0.0 else None

    def build(operator, eps: float) -> tuple:
        """The problem at one epsilon, with the provenance of the noise it drew."""
        forcing = None
        q = displacement
        noise_meta = []
        if spec is not None:
            if cfg.noise_target in ("forcing", "both"):
                rep = white_noise_representative(spec, eps, grid, mesh)
                forcing = rep.trajectory
                noise_meta.append({"target": "forcing", **rep.provenance})
            if cfg.noise_target in ("initial", "both"):
                q = stochastic_initial_data(q, spec, eps, grid)
                noise_meta.append({"target": "initial", **spec.provenance(eps, 1)})
        problem = CauchyProblem(
            cfg.alpha, operator, nonlinearity, q, mesh, forcing=forcing, initial_velocity=velocity, grid=grid
        )
        return problem, noise_meta

    return build


def _gated_operator(cfg: RunConfig, field: CoefficientField, schedule: EpsilonSchedule, eps: float):
    """The approximate operator at eps, once it has passed its norm gate."""
    operator = approximate_operator(cfg.resolved_operator_kind(), cfg.space_order, field, schedule, eps)
    check_norm_gate(operator, schedule)
    return operator


@dataclasses.dataclass
class ScenarioParts:
    """Everything `run` needs, assembled once from a config; eps is None when unmollified."""

    schedule: Optional[EpsilonSchedule]
    eps: Optional[float]
    problem: CauchyProblem
    noise_meta: list


def assemble_scenario(cfg: RunConfig) -> ScenarioParts:
    """Build grid, operator, noise, and problem from a validated config."""
    grid, mesh, schedule, eps = _frame(cfg)
    coeff_raw = _coefficient_samples(cfg, grid)
    if schedule is None:
        operator = build_operator(cfg.resolved_operator_kind(), cfg.space_order, coeff_raw, None, grid)
    else:
        operator = _gated_operator(cfg, CoefficientField(grid, coeff_raw, shape=cfg.mollifier_shape), schedule, eps)
    problem, noise_meta = _problem_builder(cfg, grid, mesh, schedule)(operator, eps)
    return ScenarioParts(schedule, eps if schedule is not None else None, problem, noise_meta)


def _solver_options(cfg: RunConfig) -> SolverOptions:
    return SolverOptions(tol=cfg.solver_tol, max_iter=cfg.max_iter)


def run_scenario(cfg: RunConfig):
    """Assemble and solve; returns (parts, report)."""
    parts = assemble_scenario(cfg)
    solve = solve_kernel_form if cfg.solver_form == "kernel" else solve_rl_form
    report = solve(parts.problem, _solver_options(cfg))
    return parts, report


# ---------------------------------------------------------------- output


def _finite_or_none(value: float) -> Optional[float]:
    """JSON has no NaN or infinity; a non-finite number is written as null."""
    return value if math.isfinite(value) else None


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True, default=lambda obj: obj.tolist())
    path.write_text(text + "\n", encoding="utf-8")


def _write_manifest(dirpath: Path, names: list) -> None:
    entries = {}
    for name in sorted(names):
        digest = hashlib.sha256()
        size = 0
        with open(dirpath / name, "rb") as fh:
            while chunk := fh.read(1 << 20):
                digest.update(chunk)
                size += len(chunk)
        entries[name] = {"sha256": digest.hexdigest(), "bytes": size}
    _write_json(dirpath / "manifest.json", {"files": entries})


def _write_run(cfg: RunConfig, out: Optional[str], stem: str, files: dict, meta: dict) -> Path:
    """Write one run directory and return it.

    The directory holds config.txt, each file of `files` (name -> writer taking
    the path), metadata.json (the shared header plus `meta`) and manifest.json.
    """
    base = Path(out) if out else Path(cfg.output_directory)
    run_dir = base / f"{stem}-{cfg.label}-{config_hash(cfg)}"
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "config.txt").write_text(render_config(cfg), encoding="utf-8")
    for name, write in files.items():
        write(run_dir / name)
    header = {"version": __version__, "config_hash": config_hash(cfg), "label": cfg.label, "seed": cfg.master_seed}
    _write_json(run_dir / "metadata.json", {**header, **meta})
    _write_manifest(run_dir, ["config.txt", *files, "metadata.json"])
    return run_dir


def _schedule_table(schedule: EpsilonSchedule) -> list:
    return [
        {"k": k, "eps": eps, "h": schedule.h(eps), "coeff_width": schedule.coeff_width(eps), "cap": schedule.cap(eps)}
        for k, eps in zip(range(schedule.k_min, schedule.k_max + 1), schedule.epsilons.tolist())
    ]


# ---------------------------------------------------------------- verbs

# a stalled change at most this many eps times max(1, state size) is rounding
# noise, which more sweeps cannot lower
_ROUNDING_STALL = 16.0


def _say(quiet: bool, message: str) -> None:
    if not quiet:
        print(message)


def cmd_run(cfg: RunConfig, out: Optional[str], quiet: bool) -> int:
    parts, report = run_scenario(cfg)
    if not report.converged:
        # a block or window that stopped at max_iter ends with the largest change
        change = max(history[-1] for history in report.contraction_history)
        first, last = report.unconverged_rows
        size = _row_sup(report.trajectory, parts.problem.state_weight)
        if change <= _ROUNDING_STALL * np.finfo(float).eps * max(1.0, size):
            advice = f"the change is at rounding level for a state of size {size:.3g}; raise solver.tol"
        else:
            advice = "raise solver.max_iter"
        raise DivergenceError(
            f"picard did not converge in {report.iterations} sweeps at rows {first}..{last} "
            f"(last change {change:.3e}, tol {cfg.solver_tol:g}); {advice}"
        )
    from .fieldcsv import write_field_csv  # imported where used, so set-up does not load the writer

    problem, schedule, eps = parts.problem, parts.schedule, parts.eps
    norm = None if schedule is None else problem.operator.norm_estimate()
    meta = {
        "verb": "run",
        "alpha": cfg.alpha,
        "operator_kind": cfg.resolved_operator_kind(),
        "solver_form": report.form,
        "grid": {"half_length": cfg.half_length, "n_points": cfg.n_points},
        "mesh": {"horizon": cfg.horizon, "n_steps": cfg.n_steps},
        "regularization": None
        if schedule is None
        else {
            "run_k": cfg.run_k,
            "eps": eps,
            "h": schedule.h(eps),
            "coeff_width": schedule.coeff_width(eps),
            "measured_norm": norm.value,
            "norm_cap": schedule.cap(eps),
            "norm_iterations": norm.iterations,
            "ladder": _schedule_table(schedule),
        },
        "noise": parts.noise_meta,
        "nonlinearity": problem.nonlinearity.hypothesis_flags(),
        "solver": {
            "converged": report.converged,
            "iterations": report.iterations,
            "final_change": report.final_change,
            "contraction_history": list(report.contraction_history),
            "details": report.metadata,
        },
    }

    def trajectory(path: Path) -> None:
        write_field_csv(path, problem.mesh.nodes, problem.grid.x, report.trajectory)

    run_dir = _write_run(cfg, out, "run", {"trajectory.csv": trajectory}, meta)
    if norm is not None:
        _say(quiet, f"norm gate: {norm.value:.6g} <= cap {schedule.cap(eps):.6g} at eps {eps:g}")
    # every sweep of every block (kernel form) or window (derivative form)
    n = len(report.contraction_history)
    unit = ("block" if report.form == "kernel" else "window") + ("" if n == 1 else "s")
    _say(
        quiet,
        f"run {cfg.label}: converged in {report.sweeps} sweeps over {n} {unit} "
        f"(final change {report.final_change:.3e}); wrote {run_dir}",
    )
    return 0


def cmd_sweep(cfg: RunConfig, out: Optional[str], quiet: bool) -> int:
    if not cfg.mollify:
        raise ConfigError([(None, "sweep-epsilon needs operator.mollify = true")])
    grid, mesh, schedule, _ = _frame(cfg)
    coeff_raw = _coefficient_samples(cfg, grid)
    field = CoefficientField(grid, coeff_raw, shape=cfg.mollifier_shape)
    build = _problem_builder(cfg, grid, mesh, schedule)
    operators = {}  # the rungs whose operator passed its norm gate

    def build_problem(eps: float) -> CauchyProblem:
        operators[eps] = _gated_operator(cfg, field, schedule, eps)
        return build(operators[eps], eps)[0]

    if cfg.solver_form != "kernel":
        print(
            f"note: sweep-epsilon solves the kernel form; [solver] form = {cfg.solver_form} is ignored",
            file=sys.stderr,
        )
    moder = moderateness_scan(build_problem, schedule, _solver_options(cfg))

    probe_scale = cfg.half_length / 10.0
    probe = GridFunction(grid, np.exp(-(grid.x**2) / (2.0 * probe_scale**2)))
    assoc = association_diagnostic(operators, probe, coeff_raw) if operators else None

    lines = ["k,eps,h,coeff_width,cap,norm,association_error,sup_state,sup_velocity,sup_fractional_derivative,status"]
    assoc_of = {} if assoc is None else dict(zip(assoc.epsilons.tolist(), assoc.errors.tolist()))
    rungs = []
    for i, row in enumerate(_schedule_table(schedule)):
        eps = row["eps"]
        est = operators[eps].norm_estimate() if eps in operators else None
        # the work of each rung: its norm gate's power-iteration steps and its solve
        solve = moder.solves[i] or dict.fromkeys(("sweeps", "series_levels", "block_q_max", "cold_blocks"))
        rungs.append({"k": row["k"], "norm_iterations": None if est is None else est.iterations, **solve})
        norm = None if est is None else est.value
        metrics = [eps, row["h"], row["coeff_width"], row["cap"], norm, assoc_of.get(eps)]
        metrics += [moder.norms[name][i] for name in ("state", "velocity", "fractional_derivative")]
        # a rung that failed to build or to solve leaves its metric cells empty
        cells = [str(row["k"])] + ["" if v is None or not math.isfinite(v) else f"{v:.17g}" for v in metrics]
        lines.append(",".join(cells + [moder.statuses[i].replace(",", ";")]))
    table = "\n".join(lines) + "\n"

    meta = {
        "verb": "sweep-epsilon",
        "alpha": cfg.alpha,
        "operator_kind": cfg.resolved_operator_kind(),
        "solver_form": "kernel",
        "ladder": _schedule_table(schedule),
        "association": None
        if assoc is None
        else {
            "strictly_decreasing": assoc.strictly_decreasing,
            "final_error": float(assoc.errors[-1]),
        },
        "moderateness": {
            "exponents": {name: _finite_or_none(v) for name, v in moder.exponents.items()},
            "fitted_n": _finite_or_none(moder.fitted_n),
            "statuses": moder.statuses,
        },
        "rungs": rungs,
    }
    run_dir = _write_run(cfg, out, "sweep", {"sweep.csv": lambda path: path.write_text(table, encoding="utf-8")}, meta)
    if assoc is not None:
        _say(
            quiet,
            f"association: final error {assoc.errors[-1]:.3e}"
            f" ({'strictly decreasing' if assoc.strictly_decreasing else 'not monotone'})",
        )
    _say(quiet, f"moderateness: fitted exponent {moder.fitted_n:.4g}; wrote {run_dir}")
    return 0


def cmd_ml(args, quiet: bool) -> int:
    try:
        params = MlParams(alpha=args.alpha, beta=args.beta, tol=args.tol)
    except ValueError as err:
        raise ConfigError([(None, f"ml: {err}")]) from None
    z = complex(args.z_re, args.z_im)
    value = mittag_leffler(params, z)
    print(f"{value.real:.17g} {value.imag:.17g}")
    return 0


def cmd_validate(out: Optional[str], quiet: bool, only: Optional[list]) -> int:
    from .validation import run_all

    results = run_all(only=only)
    for res in results:
        _say(quiet, res.line())
    n_pass = sum(1 for r in results if r.passed)
    _say(quiet, f"{n_pass}/{len(results)} criteria passed")
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": __version__,
            "results": [dataclasses.asdict(r) for r in results],
            "passed": n_pass,
            "total": len(results),
        }
        _write_json(out_dir / "validation.json", payload)
    return 0 if n_pass == len(results) else 1


def cmd_noise_dump(cfg: RunConfig, out: Optional[str], quiet: bool) -> int:
    from .fieldcsv import write_field_csv

    grid, mesh, schedule, eps = _frame(cfg)
    spec = _noise_spec(cfg, schedule)
    rep = white_noise_representative(spec, eps, grid, mesh)
    perturb = cfg.noise_target in ("initial", "both")
    # read the displacement before any output, so a bad profile leaves no directory
    perturbed = stochastic_initial_data(_displacement(cfg, grid), spec, eps, grid) if perturb else None
    files = {"noise.csv": lambda path: write_field_csv(path, mesh.nodes, grid.x, rep.trajectory.values)}
    meta = {
        "verb": "noise-dump",
        "eps": eps,
        "provenance": rep.provenance,
        "interior_variance": mollified_variance(spec, eps, grid, mesh),
    }
    if perturb:
        files["initial.csv"] = lambda path: write_field_csv(path, mesh.nodes[:1], grid.x, perturbed.values[None, :])
        meta["initial_provenance"] = spec.provenance(eps, 1)
    run_dir = _write_run(cfg, out, "noise", files, meta)
    _say(quiet, f"noise field ({mesh.n_nodes} x {grid.n_points}) written to {run_dir}")
    return 0


# ---------------------------------------------------------------- plumbing


def _load_config(path: Optional[str], seed: Optional[int]) -> RunConfig:
    if path is None:
        cfg = parse_config("")
    else:
        try:
            cfg = parse_config_file(path)
        except OSError as err:
            raise ConfigError([(None, f"cannot read config {path!r}: {err}")])
    if seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=seed)
    return cfg


def _parse_only(text: Optional[str]) -> Optional[list]:
    """Check ids named by validate --only; None (flag absent) selects all."""
    if text is None:
        return None
    from .validation import CRITERIA

    known = {spec.index for spec in CRITERIA}
    parts = [part.strip() for part in text.split(",") if part.strip()]
    bad = [part for part in parts if not part.isdigit() or int(part) not in known]
    if bad or not parts:
        what = f"unknown check id(s) {', '.join(bad)}" if bad else "no check id given"
        raise ConfigError([(None, f"--only: {what}; known ids are {min(known)}-{max(known)}")])
    return [int(part) for part in parts]


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="configuration file (defaults apply when omitted)")
    common.add_argument("--out", metavar="DIR", help="output root (overrides [output] directory)")
    common.add_argument("--seed", type=int, metavar="N", help="override noise.master_seed")
    common.add_argument("--quiet", action="store_true", help="suppress progress lines")

    parser = argparse.ArgumentParser(prog="fracwave", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"fracwave {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    sub.add_parser("run", parents=[common], help="solve one configured problem")
    sub.add_parser("sweep-epsilon", parents=[common], help="walk the regularization ladder")

    ml = sub.add_parser("ml", parents=[common], help="evaluate the two-parameter series")
    ml.add_argument("--alpha", type=float, required=True)
    ml.add_argument("--beta", type=float, default=1.0)
    ml.add_argument("--z-re", type=float, default=0.0)
    ml.add_argument("--z-im", type=float, default=0.0)
    ml.add_argument("--tol", type=float, default=1e-14)

    val = sub.add_parser("validate", parents=[common], help="run the acceptance checks")
    val.add_argument("--only", metavar="N[,N...]", help="comma-separated criterion numbers")

    sub.add_parser("noise-dump", parents=[common], help="realize and write the noise field")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.verb == "ml":
        return cmd_ml(args, args.quiet)
    if args.verb == "validate":
        return cmd_validate(args.out, args.quiet, _parse_only(args.only))
    cfg = _load_config(args.config, args.seed)
    if args.verb == "run":
        return cmd_run(cfg, args.out, args.quiet)
    if args.verb == "sweep-epsilon":
        return cmd_sweep(cfg, args.out, args.quiet)
    return cmd_noise_dump(cfg, args.out, args.quiet)


def entrypoint(argv=None) -> int:
    try:
        return main(argv)
    except ConfigError as err:
        for line, msg in err.issues:
            where = f"line {line}: " if line is not None else ""
            print(f"config error: {where}{msg}", file=sys.stderr)
        return 2
    except DivergenceError as err:
        print(f"divergence: {err}", file=sys.stderr)
        return 4
    except FracwaveError as err:
        print(f"numerical gate: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(entrypoint())
