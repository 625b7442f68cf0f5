"""Output checks for benchmark samples.

A sample passes when the verb exits 0 (README: 0 is success), the run
converged, every sweep rung reports `ok`, every acceptance criterion passed,
and the numeric outputs match the summaries in reference.json, recorded at
the commit that introduced the benchmark, within RTOL.  Summaries rather than
bytes are compared so that a change of discretization that keeps the numbers
stays measurable.  Within one benchmark invocation, samples of the same
seed must also produce identical artifact digests.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

# Relative tolerance against the reference summaries.  About 1e5 times the
# rounding differences between BLAS thread counts or an exchanged summation
# order (1e-13), and 100 times the solver's Picard stopping tolerance (1e-10),
# yet small enough that a 1e-4 change to one trajectory entry shows.
RTOL = 1e-8
N_NODE_SAMPLES = 33
N_POINT_SAMPLES = 32
N_PROJECTIONS = 4
SWEEP_COLUMNS = ("norm", "association_error", "sup_state", "sup_velocity", "sup_fractional_derivative")


def _only_dir(out: Path, prefix: str) -> Path:
    dirs = sorted(p for p in out.iterdir() if p.is_dir() and p.name.startswith(prefix))
    if len(dirs) != 1:
        raise ValueError(f"expected one {prefix}* directory in the output, found {len(dirs)}")
    return dirs[0]


def _projection_signs(size: int) -> np.ndarray:
    rng = np.random.Generator(np.random.Philox(key=20251023))
    return rng.choice([-1.0, 1.0], size=(N_PROJECTIONS, size)) / np.sqrt(size)


def summarize_trajectory(u: np.ndarray) -> dict:
    """Compact summary of a (nodes, points) complex trajectory.

    The node norms and final-frame samples locate an error; the signed
    projections of the whole array make a change to any single entry show.
    """
    nodes = np.unique(np.linspace(0, u.shape[0] - 1, N_NODE_SAMPLES).round().astype(int))
    points = np.unique(np.linspace(0, u.shape[1] - 1, N_POINT_SAMPLES).round().astype(int))
    signs = _projection_signs(u.size)
    flat = u.ravel()
    return {
        "shape": list(u.shape),
        "max_abs": float(np.abs(u).max()),
        "node_norms": np.linalg.norm(u[nodes], axis=1).tolist(),
        "final_re": u[-1, points].real.tolist(),
        "final_im": u[-1, points].imag.tolist(),
        "projections_re": (signs @ flat.real).tolist(),
        "projections_im": (signs @ flat.imag).tolist(),
    }


def read_trajectory(path: Path) -> np.ndarray:
    table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    n_nodes = np.unique(table[:, 0]).size
    n_points = table.shape[0] // n_nodes
    return (table[:, 2] + 1j * table[:, 3]).reshape(n_nodes, n_points)


def summarize_sweep(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return {
        "k": [int(r["k"]) for r in rows],
        "status": [r["status"] for r in rows],
        **{col: [float(r[col]) if r[col] else None for r in rows] for col in SWEEP_COLUMNS},
    }


def _close(name: str, got, want, scale: float) -> list:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        return [f"{name}: shape {got.shape} != reference {want.shape}"]
    err = np.abs(got - want)
    limit = RTOL * np.maximum(np.abs(want), scale)
    bad = np.flatnonzero(err > limit)
    if bad.size:
        i = int(bad[0])
        return [f"{name}[{i}]: {got.ravel()[i]:.17g} vs reference {want.ravel()[i]:.17g} (tolerance {limit.ravel()[i]:.3g})"]
    return []


def compare_trajectory(summary: dict, ref: dict) -> list:
    if summary["shape"] != ref["shape"]:
        return [f"trajectory shape {summary['shape']} != reference {ref['shape']}"]
    scale = ref["max_abs"]
    problems = []
    for key in ("max_abs", "node_norms", "final_re", "final_im", "projections_re", "projections_im"):
        problems += _close(key, summary[key], ref[key], scale)
    return problems


def compare_sweep(summary: dict, ref: dict) -> list:
    problems = [f"rung k={k}: status {s!r}" for k, s in zip(summary["k"], summary["status"]) if s != "ok"]
    if summary["k"] != ref["k"]:
        return problems + [f"rungs {summary['k']} != reference {ref['k']}"]
    for col in SWEEP_COLUMNS:
        if None in summary[col]:
            problems.append(f"{col}: empty cell")
            continue
        problems += _close(col, summary[col], ref[col], 0.0)
    return problems


def check_validate(payload: dict) -> list:
    failed = [f"criterion {r['index']} ({r['name']}) failed: {r['detail']}" for r in payload["results"] if not r["passed"]]
    if payload["total"] != len(payload["results"]) or payload["total"] < 15:
        failed.append(f"validate ran {payload['total']} criteria, expected all 15")
    return failed


def digest(verb: str, out: Path) -> str:
    """Artifact digest that must repeat for samples of the same seed."""
    if verb == "validate":
        payload = json.loads((out / "validation.json").read_text(encoding="utf-8"))
        stable = [{k: v for k, v in r.items() if k != "runtime"} for r in payload["results"]]
        data = json.dumps(stable, sort_keys=True).encode()
    else:
        stem = "run-" if verb == "run" else "sweep-"
        data = (_only_dir(out, stem) / "manifest.json").read_bytes()
    return hashlib.sha256(data).hexdigest()


def summarize(verb: str, out: Path) -> dict:
    if verb == "run":
        return summarize_trajectory(read_trajectory(_only_dir(out, "run-") / "trajectory.csv"))
    if verb == "sweep-epsilon":
        return summarize_sweep(_only_dir(out, "sweep-") / "sweep.csv")
    raise ValueError(f"no summary for verb {verb!r}")


def check_outputs(verb: str, out: Path, ref) -> list:
    """Problems with one sample's artifacts; empty when the sample is correct."""
    if verb == "validate":
        return check_validate(json.loads((out / "validation.json").read_text(encoding="utf-8")))
    problems = []
    if verb == "run":
        meta = json.loads((_only_dir(out, "run-") / "metadata.json").read_text(encoding="utf-8"))
        if not meta["solver"]["converged"]:
            problems.append(f"solver did not converge in {meta['solver']['iterations']} sweeps")
        return problems + compare_trajectory(summarize(verb, out), ref)
    return compare_sweep(summarize(verb, out), ref)


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
