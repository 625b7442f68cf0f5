"""End-to-end command-line contract: artifacts, determinism, exit codes."""

import dataclasses
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from fracwave import ml_trajectory, parse_config, render_config
from fracwave.cli import _write_field_csv, _write_manifest, assemble_scenario, entrypoint
from fracwave.solution import SolutionOperatorEvaluator

BASE = """
[run]
alpha = 1.5
label = case
[grid]
half_length = 16
n_points = 256
[mesh]
horizon = 0.5
n_steps = 64
[schedule]
run_k = 6
"""

NOISY = BASE + """
[noise]
intensity = 0.02
master_seed = 7
temporal_sharpness = 16.0
"""

DIVERGING = """
[run]
alpha = 1.5
[grid]
half_length = 16
n_points = 64
[mesh]
horizon = 2.0
n_steps = 96
[operator]
mollify = false
coefficient_scale = 0.05
[initial]
displacement = gaussian_bump
displacement_scale = 4.0
[nonlinearity]
f = u^3
"""


def _cfg_file(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run_dir(root):
    children = [p for p in Path(root).iterdir() if p.is_dir()]
    assert len(children) == 1
    return children[0]


def _read_field(csv_path, n_nodes, n_points):
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    u = data[:, 2] + 1j * data[:, 3]
    return u.reshape(n_nodes, n_points)


def test_run_artifacts_and_manifest_closure(tmp_path):
    code = entrypoint(["run", "--config", _cfg_file(tmp_path, BASE), "--out", str(tmp_path / "a"), "--quiet"])
    assert code == 0
    run_dir = _run_dir(tmp_path / "a")
    names = sorted(p.name for p in run_dir.iterdir())
    assert names == ["config.txt", "manifest.json", "metadata.json", "trajectory.csv"]
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert sorted(manifest["files"]) == ["config.txt", "metadata.json", "trajectory.csv"]
    for name, entry in manifest["files"].items():
        blob = (run_dir / name).read_bytes()
        assert entry["sha256"] == hashlib.sha256(blob).hexdigest()
        assert entry["bytes"] == len(blob)
    header = (run_dir / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x,re_u,im_u"
    meta = json.loads((run_dir / "metadata.json").read_text())
    assert meta["verb"] == "run" and meta["alpha"] == 1.5
    assert meta["solver"]["converged"] is True
    assert meta["regularization"]["run_k"] == 6
    assert meta["regularization"]["measured_norm"] <= meta["regularization"]["norm_cap"]
    # the stored config is the canonical form and parses back to the run's config
    assert parse_config((run_dir / "config.txt").read_text()) == parse_config(BASE)


def test_runs_are_byte_stable(tmp_path):
    cfg = _cfg_file(tmp_path, NOISY)
    assert entrypoint(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--quiet"]) == 0
    assert entrypoint(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--quiet"]) == 0
    da, db = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b")
    assert da.name == db.name
    for name in ("config.txt", "trajectory.csv", "metadata.json", "manifest.json"):
        assert (da / name).read_bytes() == (db / name).read_bytes()


def _savetxt_bytes(nodes, xs, values):
    tt = np.repeat(nodes, xs.size)
    xx = np.tile(xs, values.shape[0])
    table = np.column_stack([tt, xx, values.real.ravel(), values.imag.ravel()])
    buf = io.BytesIO()
    np.savetxt(buf, table, fmt="%.17g", delimiter=",")
    return buf.getvalue()


def test_field_csv_has_the_bytes_of_savetxt(tmp_path):
    rng = np.random.Generator(np.random.Philox(key=0xC5))
    nodes = np.array([0.0, 0.1, 1.0 / 3.0, 2.0])
    xs = np.array([-16.0, -0.0, 1e-300, 0.7, 5.0])
    values = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    values[0, :] = [complex(-0.0, -0.0), complex(5e-324, -5e-324), 1e300, -1e300j, 0.0]
    values[1, :3] = [complex(3.0, -7.0), 12345678901234567.0, complex(0.0, 2.0)]
    for name, t, u in (("field.csv", nodes, values), ("initial.csv", nodes[:1], values[2][None, :])):
        path = tmp_path / name
        _write_field_csv(path, t, xs, u)
        head, _, body = path.read_bytes().partition(b"\n")
        assert head == b"t,x,re_u,im_u"
        assert body == _savetxt_bytes(t, xs, u)


def test_manifest_hashes_files_larger_than_a_chunk(tmp_path):
    blob = bytes(range(256)) * 10_000  # about 2.4 MiB: several read chunks
    (tmp_path / "big.bin").write_bytes(blob)
    (tmp_path / "empty.txt").write_bytes(b"")
    _write_manifest(tmp_path, ["empty.txt", "big.bin"])
    files = json.loads((tmp_path / "manifest.json").read_text())["files"]
    assert files["big.bin"] == {"sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}
    assert files["empty.txt"] == {"sha256": hashlib.sha256(b"").hexdigest(), "bytes": 0}


def test_run_reduces_to_propagator_without_forcing(tmp_path):
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, BASE), "--out", str(tmp_path / "a"), "--quiet"]) == 0
    run_dir = _run_dir(tmp_path / "a")
    parts = assemble_scenario(parse_config(BASE))
    u = _read_field(run_dir / "trajectory.csv", parts.mesh.n_nodes, parts.grid.n_points)
    ev = SolutionOperatorEvaluator(1.5, parts.operator, norm_bound=parts.measured_norm)
    ref = ev.trajectory(parts.mesh.nodes, parts.problem.state0)
    # sigma = 0 and f = 0: the run is exactly the propagator applied to the data,
    # so the only gap left is the 17-digit decimal round trip
    assert np.max(np.abs(u - ref)) <= 1e-10


def test_velocity_term_closed_form(tmp_path):
    text = BASE + "\n[initial]\nvelocity = gaussian_bump\nvelocity_scale = 0.3\n"
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "a"), "--quiet"]) == 0
    parts = assemble_scenario(parse_config(text))
    u = _read_field(_run_dir(tmp_path / "a") / "trajectory.csv", parts.mesh.n_nodes, parts.grid.n_points)
    ts = parts.mesh.nodes
    ev = SolutionOperatorEvaluator(1.5, parts.operator, norm_bound=parts.measured_norm)
    ref = ev.trajectory(ts, parts.problem.state0) + ts[:, None] * ml_trajectory(
        1.5, 2.0, ev.action, parts.problem.velocity0, ts
    )
    assert np.max(np.abs(u - ref)) <= 1e-10


def test_riesz_single_mode_oracle(tmp_path):
    text = """
[run]
alpha = 1.6
scenario = time_space_fractional
[grid]
half_length = 16
n_points = 256
[mesh]
horizon = 1.0
n_steps = 128
[operator]
kind = riesz
space_order = 1.5
[initial]
displacement = mode:3
"""
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "a"), "--quiet"]) == 0
    cfg = parse_config(text)
    parts = assemble_scenario(cfg)
    u = _read_field(_run_dir(tmp_path / "a") / "trajectory.csv", parts.mesh.n_nodes, parts.grid.n_points)
    # a single Fourier mode is an eigenvector of the mollified multiplier, so
    # the evolution is scalar Mittag-Leffler in the operator's own symbol
    from fracwave import MlParams, mittag_leffler

    xi0 = np.pi * 3 / 16.0
    idx = int(np.argmin(np.abs(parts.grid.xi - xi0)))
    sym = complex(parts.operator.symbol[idx])
    mode = np.exp(1j * xi0 * parts.grid.x)
    oracle = np.array(
        [mittag_leffler(MlParams(1.6, 1.0), sym * t**1.6) for t in parts.mesh.nodes]
    )[:, None] * mode[None, :]
    assert np.max(np.abs(u - oracle)) <= 1e-8


def test_bad_config_exits_2(tmp_path, capsys):
    path = _cfg_file(tmp_path, "[run]\nalpha = fast\n")
    assert entrypoint(["run", "--config", path, "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert entrypoint(["run", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_resolution_gate_exits_3(tmp_path, capsys):
    text = """
[run]
alpha = 1.5
[grid]
half_length = 16
n_points = 64
[operator]
coefficient = 1+0.25*sech(x)
[schedule]
run_k = 8
"""
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--quiet"]) == 3
    assert "kernel support" in capsys.readouterr().err


def test_divergence_exits_4(tmp_path):
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, DIVERGING), "--out", str(tmp_path / "a")]) == 4


OVERFLOW = """
[run]
alpha = 1.1
[grid]
n_points = 1024
[mesh]
n_steps = 64
[operator]
mollify = false
"""


def test_overflowing_majorant_exits_3(tmp_path, capsys):
    out = tmp_path / "out"
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, OVERFLOW), "--out", str(out), "--quiet"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical gate: ") and "overflows" in err
    assert not list(tmp_path.rglob("trajectory.csv"))


@pytest.mark.parametrize(
    "text, key",
    [
        ("[grid]\nn_points = 24\n", "grid.n_points"),
        ("[solver]\ntol = 2\n", "solver.tol"),
        ("[grid]\nhalf_length = nan\n", "grid.half_length"),
        ("[noise]\nintensity = inf\n", "noise.intensity"),
        ("[operator]\nkind = riesz\nspace_order = 2.0\n", "operator.space_order"),
        ("[operator]\nkind = riesz\nspace_order = 1.0\n", "operator.space_order"),
        ("[operator]\nkind = riesz\nspace_order = 1.0\nmollify = false\n", "operator.space_order"),
        ("[operator]\nkind = liouville_left\nspace_order = 2.0\n", "operator.space_order"),
    ],
)
def test_config_rejects_what_the_constructors_reject(tmp_path, capsys, text, key):
    out = tmp_path / "out"
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: {key}: ")


def test_sharp_fractional_kind_runs_at_order_two(tmp_path):
    # only the mollified operator needs an order below 2
    text = BASE + "[operator]\nkind = liouville_left\nspace_order = 2.0\nmollify = false\n"
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "out"), "--quiet"]) == 0


def test_ml_verb_prints_value(capsys):
    assert entrypoint(["ml", "--alpha", "0.5", "--z-re", "1.0"]) == 0
    re, im = map(float, capsys.readouterr().out.split())
    assert abs(re - math.e * math.erfc(-1.0)) <= 1e-14 * re
    assert im == 0.0
    assert entrypoint(["ml", "--alpha", "1.5", "--z-re", "250.0"]) == 3


def test_noise_dump_artifacts(tmp_path):
    cfg = _cfg_file(tmp_path, NOISY + "target = both\n")
    assert entrypoint(["noise-dump", "--config", cfg, "--out", str(tmp_path / "a"), "--quiet"]) == 0
    run_dir = _run_dir(tmp_path / "a")
    assert (run_dir / "noise.csv").exists() and (run_dir / "initial.csv").exists()
    meta = json.loads((run_dir / "metadata.json").read_text())
    assert meta["interior_variance"] > 0.0
    assert meta["provenance"]["tag"] == 0
    assert meta["initial_provenance"]["tag"] == 1
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert set(manifest["files"]) == {"config.txt", "noise.csv", "initial.csv", "metadata.json"}


def test_temporal_kernel_wider_than_the_horizon(tmp_path):
    # support radius 2.5 against a 0.5 horizon: most taps reach no node
    wide = BASE + "[noise]\nintensity = 0.1\nspatial_sharpness = 1.0\ntemporal_sharpness = 0.4\n"
    cfg = _cfg_file(tmp_path, wide)
    assert entrypoint(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--quiet"]) == 0
    u = _read_field(_run_dir(tmp_path / "a") / "trajectory.csv", 65, 256)
    assert np.all(np.isfinite(u))
    assert entrypoint(["noise-dump", "--config", cfg, "--out", str(tmp_path / "b"), "--quiet"]) == 0
    noise = np.loadtxt(_run_dir(tmp_path / "b") / "noise.csv", delimiter=",", skiprows=1)
    assert np.all(np.isfinite(noise)) and np.any(noise[:, 2])


def test_noise_dump_zero_intensity(tmp_path):
    cfg = _cfg_file(tmp_path, BASE)  # sigma defaults to zero
    assert entrypoint(["noise-dump", "--config", cfg, "--out", str(tmp_path / "a"), "--quiet"]) == 0
    data = np.loadtxt(_run_dir(tmp_path / "a") / "noise.csv", delimiter=",", skiprows=1)
    assert not np.any(data[:, 2]) and not np.any(data[:, 3])


def test_sweep_epsilon_table(tmp_path):
    text = """
[run]
alpha = 1.5
[grid]
half_length = 16
n_points = 512
[mesh]
horizon = 0.25
n_steps = 64
[operator]
coefficient = 1+0.25*sech(x)
[schedule]
k_min = 4
k_max = 6
run_k = 5
"""
    assert entrypoint(["sweep-epsilon", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "a"), "--quiet"]) == 0
    run_dir = _run_dir(tmp_path / "a")
    lines = (run_dir / "sweep.csv").read_text().splitlines()
    assert lines[0] == "k,eps,h,coeff_width,cap,norm,association_error,sup_state,sup_velocity,sup_fractional_derivative,status"
    assert len(lines) == 4  # header + one row per ladder point
    assert all(line.endswith(",ok") for line in lines[1:])
    meta = json.loads((run_dir / "metadata.json").read_text())
    assert meta["association"]["strictly_decreasing"] is True
    assert np.isfinite(meta["moderateness"]["fitted_n"])
    assert meta["moderateness"]["statuses"] == ["ok", "ok", "ok"]


def test_run_and_sweep_build_the_same_problem(tmp_path):
    # one noisy rung solved twice: by `run` at run_k = 5 and by the sweep
    text = """
[run]
alpha = 1.5
[grid]
half_length = 16
n_points = 256
[mesh]
horizon = 0.25
n_steps = 64
[operator]
coefficient = 1+0.25*sech(x)
[schedule]
k_min = 4
k_max = 6
run_k = 5
[initial]
velocity = gaussian_bump
velocity_scale = 0.3
[noise]
intensity = 0.02
master_seed = 7
temporal_sharpness = 16.0
target = both
"""
    cfg = _cfg_file(tmp_path, text)
    assert entrypoint(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--quiet"]) == 0
    assert entrypoint(["sweep-epsilon", "--config", cfg, "--out", str(tmp_path / "b"), "--quiet"]) == 0
    u = _read_field(_run_dir(tmp_path / "a") / "trajectory.csv", 65, 256)
    want = math.sqrt(32.0 / 256) * np.linalg.norm(u, axis=1).max()
    header, *rows = (_run_dir(tmp_path / "b") / "sweep.csv").read_text().splitlines()
    rung = next(row.split(",") for row in rows if row.startswith("5,"))
    got = float(rung[header.split(",").index("sup_state")])
    assert rung[-1] == "ok"
    assert abs(got - want) <= 1e-12 * want


def test_sweep_flags_unresolvable_rungs(tmp_path):
    # on the coarse grid the deepest rungs cannot resolve the coefficient
    # kernel; they must come back flagged, not crash the sweep
    text = """
[run]
alpha = 1.5
[grid]
half_length = 16
n_points = 256
[mesh]
horizon = 0.25
n_steps = 64
[operator]
coefficient = 1+0.25*sech(x)
[schedule]
k_min = 9
k_max = 12
run_k = 10
"""
    assert entrypoint(["sweep-epsilon", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "a"), "--quiet"]) == 0
    lines = (_run_dir(tmp_path / "a") / "sweep.csv").read_text().splitlines()
    statuses = [line.split(",")[-1] for line in lines[1:]]
    assert statuses[0] == "ok" and statuses[1] == "ok"
    assert all(s.startswith("failed") for s in statuses[2:])
    # flagged rows leave their measurement cells empty
    assert lines[4].split(",")[5] == ""


def test_validate_verb_single_criterion(tmp_path, capsys):
    assert entrypoint(["validate", "--only", "1", "--out", str(tmp_path / "v")]) == 0
    out = capsys.readouterr().out
    assert "[PASS]  1" in out and "1/1 criteria passed" in out
    payload = json.loads((tmp_path / "v" / "validation.json").read_text())
    assert payload["passed"] == 1 and payload["total"] == 1
    assert payload["results"][0]["index"] == 1


def test_validate_exits_1_on_a_failed_check(tmp_path, monkeypatch, capsys):
    from fracwave import validation

    forced = dataclasses.replace(validation.CRITERIA[0], fn=lambda th: (False, {}, "forced failure"))
    monkeypatch.setattr(validation, "CRITERIA", (forced,) + validation.CRITERIA[1:])
    assert entrypoint(["validate", "--only", "1", "--out", str(tmp_path / "v")]) == 1
    assert "[FAIL]  1" in capsys.readouterr().out
    payload = json.loads((tmp_path / "v" / "validation.json").read_text())
    assert payload["passed"] == 0 and payload["total"] == 1


@pytest.mark.parametrize("only", ["99", "0", "1,99", "abc", ",", ""])
def test_validate_rejects_an_empty_or_unknown_selection(only, capsys):
    assert entrypoint(["validate", "--only", only]) == 2
    captured = capsys.readouterr()
    assert "--only" in captured.err and "known ids are 1-15" in captured.err
    assert "criteria passed" not in captured.out


def test_seed_override_and_quiet(tmp_path, capsys):
    cfg = _cfg_file(tmp_path, NOISY)
    assert entrypoint(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--seed", "1", "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert entrypoint(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--seed", "2"]) == 0
    assert capsys.readouterr().out != ""
    assert entrypoint(["run", "--config", cfg, "--out", str(tmp_path / "c"), "--seed", "1", "--quiet"]) == 0
    da, db, dc = (_run_dir(tmp_path / n) for n in ("a", "b", "c"))
    assert (da / "trajectory.csv").read_bytes() == (dc / "trajectory.csv").read_bytes()
    assert (da / "trajectory.csv").read_bytes() != (db / "trajectory.csv").read_bytes()
