"""End-to-end command-line contract: artifacts, determinism, exit codes."""

import builtins
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracwave
from fracwave import cli, config_hash, ml_trajectory, parse_config, render_config
from fracwave.cli import _write_manifest, assemble_scenario, entrypoint
from fracwave import fieldcsv, special
from fracwave.fieldcsv import format_g17, write_field_csv
from fracwave.solution import as_action
from fracwave.stochastic import stochastic_initial_data, white_noise_representative
from picard_oracle import old_kernel_picard

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


def _check_run_dir(run_dir, verb, text, files):
    """The shared header of metadata.json, and a manifest of exactly the verb's files."""
    names = sorted(["config.txt", "metadata.json", *files])
    assert sorted(p.name for p in run_dir.iterdir()) == sorted(names + ["manifest.json"])
    manifest = json.loads((run_dir / "manifest.json").read_text())
    assert list(manifest["files"]) == names
    for name, entry in manifest["files"].items():
        blob = (run_dir / name).read_bytes()
        assert entry["sha256"] == hashlib.sha256(blob).hexdigest()
        assert entry["bytes"] == len(blob)
    cfg = parse_config(text)
    meta = json.loads((run_dir / "metadata.json").read_text())
    assert meta["verb"] == verb and meta["version"] == fracwave.__version__
    assert meta["config_hash"] == config_hash(cfg) and run_dir.name.endswith(meta["config_hash"])
    assert meta["label"] == cfg.label and meta["seed"] == cfg.master_seed
    return meta


def test_run_artifacts_and_manifest_closure(tmp_path):
    code = entrypoint(["run", "--config", _cfg_file(tmp_path, BASE), "--out", str(tmp_path / "a"), "--quiet"])
    assert code == 0
    run_dir = _run_dir(tmp_path / "a")
    meta = _check_run_dir(run_dir, "run", BASE, ["trajectory.csv"])
    header = (run_dir / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,x,re_u,im_u"
    assert meta["alpha"] == 1.5 and meta["label"] == "case"
    assert meta["solver"]["converged"] is True
    assert meta["regularization"]["run_k"] == 6
    assert meta["regularization"]["measured_norm"] <= meta["regularization"]["norm_cap"]
    assert meta["regularization"]["norm_iterations"] > 1
    # the stored config is the canonical form and parses back to the run's config
    assert parse_config((run_dir / "config.txt").read_text()) == parse_config(BASE)


@pytest.mark.parametrize(
    "operator, arithmetic",
    [
        ("kind = riesz\nspace_order = 1.5\n", "real"),
        ("kind = liouville_left\nspace_order = 1.5\n", "real"),
        ("kind = riesz\nmollify = false\ncoefficient_scale = 0.5\n", "real"),
        ("kind = liouville_left\nspace_order = 1.5\n[initial]\ndisplacement = mode:3\n", "complex"),
    ],
)
def test_run_arithmetic_follows_the_operator(tmp_path, operator, arithmetic):
    # every symbol is Hermitian: real data and real noise leave exact zeros in
    # im_u, and only complex data (a mode:k wave) make the run complex
    text = NOISY + "[nonlinearity]\nf = 0.1*sin(u)\n[operator]\n" + operator
    if "mollify = false" in operator:
        # the sharp symbol is well conditioned on a coarse grid, and the noise
        # has no schedule to take its spatial sharpness from
        text = text.replace("n_points = 256", "n_points = 64") + "[noise]\nspatial_sharpness = 0.5\n"
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path), "--quiet"]) == 0
    run_dir = _run_dir(tmp_path)
    meta = json.loads((run_dir / "metadata.json").read_text())
    assert meta["solver"]["details"]["arithmetic"] == arithmetic
    lines = (run_dir / "trajectory.csv").read_text().splitlines()[1:]
    im_cells = {line.rsplit(",", 1)[1] for line in lines}
    if arithmetic == "real":
        assert im_cells == {"0"}
    else:
        assert np.abs(np.array([float(c) for c in im_cells])).max() > 0.0


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
    # both sides of the switches between fixed and exponent form, and of 1
    edges = [np.nextafter(p, side) for p in (1e-5, 1e-4, 1.0, 1e16, 1e17) for side in (0.0, np.inf)]
    edges += [1e-5, 1e-4, 1.0, 1e16, 1e17, 9.9999999999999995e-05, 99999999999999999.0]
    # a 17th-digit tie (half-even), the fixed form with X >= 1, and the specials
    edges += [123456789012345.625, 123456789012345.875, 205.74663272605397, 12.5, -4096.0625]
    edges += [0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300, np.nan, np.inf, -np.inf]
    edges += [1e-280, 1e280, np.nextafter(1e-280, 0.0), np.nextafter(1e280, np.inf)]
    edges += [0.0] * (-len(edges) % 5)
    edge_re = np.array(edges).reshape(-1, 5)
    edge_field = edge_re.astype(complex)
    edge_field.imag = edge_re[::-1, ::-1]
    edge_nodes = np.linspace(0.0, 1.0, edge_field.shape[0])
    # a real field over several write chunks, with signed zeros in re_u
    real_field = rng.standard_normal((7000, 5))
    real_field[::3, 1] = -0.0
    real_field[1::3, 2] = 0.0
    real_nodes = np.linspace(0.0, 1.0, real_field.shape[0])
    for name, t, u in (
        ("field.csv", nodes, values),
        ("initial.csv", nodes[:1], values[2][None, :]),
        ("edges.csv", edge_nodes, edge_field),
        ("real.csv", edge_nodes, edge_re),
        ("real_chunks.csv", real_nodes, real_field),
    ):
        path = tmp_path / name
        write_field_csv(path, t, xs, u)
        head, _, body = path.read_bytes().partition(b"\n")
        assert head == b"t,x,re_u,im_u"
        # a real field writes the bytes of its complex cast
        assert body == _savetxt_bytes(t, xs, u.astype(complex))


def _is_tie(v):
    """Whether v lies exactly halfway between two 17-digit decimals."""
    digits = Decimal(v).normalize().as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


def test_field_csv_chunks_of_different_magnitudes(tmp_path):
    # each write chunk of a real and of a complex field holds its own mix of values
    rng = np.random.Generator(np.random.Philox(key=0x4D1))
    n_points = 512
    rows = max(1, fieldcsv._CHUNK_CELLS // n_points)  # time rows per write chunk
    sign = rng.choice([-1.0, 1.0], (4, rows * n_points))
    small = rng.uniform(-9.999, 9.999, rows * n_points)
    # fixed form with a point among digits 1..16, most with 17 digits kept
    fixed = sign[1] * 10.0 ** rng.uniform(1.0, 16.0, rows * n_points)
    # ties in fixed form (15 digits, then .125 ...) and in exponent form (2**-25 has 18 digits, the last a 5)
    ties = rng.integers(10**14, 10**15, 64) + np.tile([0.125, 0.375, 0.625, 0.875], 16)
    ties = np.concatenate([ties, np.arange(1, 64, 2) * 2.0**-25])
    exponent = 10.0 ** np.concatenate([rng.uniform(-279.0, -5.0, 4000), rng.uniform(17.0, 279.0, 4000)])
    exponent = sign[2] * np.resize(np.concatenate([ties, -ties, rng.permutation(exponent)]), rows * n_points)
    specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310, -3e-320]
    specials = np.resize(np.concatenate([specials, 1e-300 * rng.standard_normal(6)]), rows * n_points)
    chunks = [small, fixed, exponent, rng.permutation(specials)]
    texts = [["%.17g" % v for v in chunk.tolist()] for chunk in chunks]
    assert all(abs(float(t)) < 10 for t in texts[0])
    assert sum(len(t.lstrip("-")) == 18 and "." in t for t in texts[1]) > rows * n_points // 2
    tie = [_is_tie(v) for v in chunks[2].tolist()]
    assert all("e" in t or is_tie for t, is_tie in zip(texts[2], tie))
    assert any("e" in t and is_tie for t, is_tie in zip(texts[2], tie)) and any("e" not in t for t in texts[2])
    real = np.concatenate(chunks).reshape(4 * rows, n_points)
    cplx = real.astype(complex)
    cplx.imag = np.concatenate([rng.permutation(chunk) for chunk in chunks]).reshape(real.shape)
    nodes = np.linspace(0.0, 1.0, 4 * rows)
    xs = np.linspace(-16.0, 16.0, n_points)
    for name, u in (("real.csv", real), ("complex.csv", cplx)):
        write_field_csv(tmp_path / name, nodes, xs, u)
        head, _, body = (tmp_path / name).read_bytes().partition(b"\n")
        assert head == b"t,x,re_u,im_u"
        assert body == _savetxt_bytes(nodes, xs, u.astype(complex))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True), min_size=1, max_size=40))
def test_g17_formatter_matches_python(values):
    assert format_g17(np.array(values, dtype=float)) == [("%.17g" % v).encode() for v in values]


def test_g17_formatter_on_random_bit_patterns():
    bits = np.random.Generator(np.random.Philox(key=0x617)).integers(0, 2**64, 200_000, dtype=np.uint64)
    values = bits.view(np.float64)
    assert format_g17(values) == [("%.17g" % v).encode() for v in values.tolist()]


def _g17_tables_by_loops():
    """The formatter's tables as they were first built, one Python step per entry."""

    def word(text):
        return int.from_bytes(text.ljust(8, b"\0"), "little")

    exps = range(fieldcsv._X_MIN, fieldcsv._X_MAX + 1)
    hi = np.empty(len(exps))
    lo = np.empty(len(exps))
    for i, x in enumerate(exps):
        num, den = (10 ** (16 - x), 1) if x <= 16 else (1, 10 ** (x - 16))
        hi[i] = num / den
        m, e = hi[i].as_integer_ratio()
        lo[i] = (num * e - m * den) / (den * e)
    split = special._SPLIT * hi
    hi_hi = split - (split - hi)
    groups = np.frombuffer(b"".join(b"%04d" % g for g in range(10000)), np.uint8).reshape(10000, 4)
    before = [x + 1 if 0 <= x <= 16 else 17 if -4 <= x < 0 else 1 for x in exps]
    head = np.zeros((len(exps), 2, 2), np.uint64)
    for i, x in enumerate(exps):
        lead = b"0." + b"0" * (-x - 1) if -4 <= x < 0 else b""
        for neg in (0, 1):
            for more in (0, 1):
                slot = b"." if more and before[i] == 1 else b"\0"
                head[i, neg, more] = word((b"-" if neg else b"\0") + lead.ljust(5, b"\0") + b"0" + slot)
    # the 16 digit bytes of words 1-2: digits 1..keep-1 kept, or a point after digit p
    keep_masks = np.zeros((18, 16), np.uint8)
    point_low = np.zeros((16, 16), np.uint8)
    point_dot = np.zeros((16, 16), np.uint8)
    for n in range(18):
        keep_masks[n, : max(n - 1, 0)] = 0xFF
    for p in range(16):
        point_low[p, :p] = 0xFF
        point_dot[p, p] = ord(".")

    def by_word(stream):
        return np.ascontiguousarray(stream.view(np.uint64).T)

    return fieldcsv._G17Tables(
        ten_hi_hi=hi_hi,
        ten_hi_lo=hi - hi_hi,
        ten_lo=lo,
        group_ascii=np.array([[word(pad + b"%04d" % g) for g in range(10000)] for pad in (b"", b"\0" * 4)], np.uint64),
        trailing=np.cumprod(groups[:, ::-1] == ord("0"), axis=1).sum(axis=1),
        min_keep=np.array([x + 1 if 0 <= x <= 16 else 1 for x in exps], np.int64),
        interior=np.array([x + 1 if 1 <= x <= 15 else 17 for x in exps], np.int64),
        suffix=np.array([word(b"e%+03d" % x if x < -4 or x > 16 else b"") for x in exps], np.uint64),
        head=head.reshape(-1),
        keep_masks=by_word(keep_masks),
        point_low=by_word(point_low),
        point_dot=by_word(point_dot),
    )


def test_g17_tables_equal_the_loop_built_ones():
    tables = fieldcsv._g17_tables.__wrapped__()
    for name, want in zip(fieldcsv._G17Tables._fields, _g17_tables_by_loops()):
        got = getattr(tables, name)
        assert (got.dtype, got.shape) == (want.dtype, want.shape) and np.array_equal(got, want), name


def test_importing_the_cli_builds_no_formatter_table():
    # the writer is imported, and its tables built, on the first write: set-up does not pay for them
    probe = (
        "import sys, fracwave.cli; print('fracwave.fieldcsv' in sys.modules); "
        "from fracwave import fieldcsv as f; n = f._g17_tables.cache_info().currsize; "
        "f.format_g17([1.0]); print(n, f._g17_tables.cache_info().currsize)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(fracwave.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "0", "1"]


def test_importing_the_cli_loads_no_high_precision_module():
    # mpmath serves only the Mittag-Leffler retry and the oracle, which
    # import it on first use; nothing in the package imports decimal
    probe = "import sys, fracwave.cli; print('mpmath' in sys.modules, 'decimal' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(fracwave.__file__).resolve().parents[1])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False"]


def test_manifest_hashes_files_larger_than_a_chunk(tmp_path):
    # the digest and the count are taken from the bytes as they pass through the sink
    chunks = [bytes(range(256)) * 4096, b"", bytes(range(255, -1, -1)) * 3000, b"tail"]

    def body(sink):
        for chunk in chunks:
            sink.write(chunk)

    entries = {
        "big.bin": cli._write_artifact(tmp_path / "big.bin", body),
        "empty.txt": cli._write_artifact(tmp_path / "empty.txt", lambda sink: None),
    }
    _write_manifest(tmp_path, entries)
    files = json.loads((tmp_path / "manifest.json").read_text())["files"]
    assert list(files) == ["big.bin", "empty.txt"]
    blob = b"".join(chunks)
    assert (tmp_path / "big.bin").read_bytes() == blob
    assert files["big.bin"] == {"sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}
    assert (tmp_path / "empty.txt").read_bytes() == b""
    assert files["empty.txt"] == {"sha256": hashlib.sha256(b"").hexdigest(), "bytes": 0}


SWEEP = BASE.replace("run_k = 6", "k_min = 4\nk_max = 5\nrun_k = 5")


@pytest.mark.parametrize(
    "verb, text, files",
    [
        pytest.param("run", NOISY, ["trajectory.csv"], id="run"),
        pytest.param("sweep-epsilon", SWEEP, ["sweep.csv"], id="sweep-epsilon"),
        pytest.param("noise-dump", NOISY + "target = both\n", ["noise.csv", "initial.csv"], id="noise-dump"),
    ],
)
def test_run_directory_is_written_without_reading_it_back(tmp_path, monkeypatch, verb, text, files):
    out = (tmp_path / "out").resolve()
    real_open, write_run = io.open, cli._write_run

    def write_only_open(file, mode="r", *args, **kwargs):
        inside = isinstance(file, (str, os.PathLike)) and Path(file).resolve().is_relative_to(out)
        if inside and not set(mode) & set("wax+"):
            raise PermissionError(f"{file} opened for reading while its run directory is written")
        return real_open(file, mode, *args, **kwargs)

    def guarded_write_run(*args, **kwargs):
        with monkeypatch.context() as patch:
            patch.setattr(builtins, "open", write_only_open)
            patch.setattr(io, "open", write_only_open)
            return write_run(*args, **kwargs)

    monkeypatch.setattr(cli, "_write_run", guarded_write_run)
    assert entrypoint([verb, "--config", _cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 0
    _check_run_dir(_run_dir(out), verb, text, files)


def test_run_reduces_to_propagator_without_forcing(tmp_path):
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, BASE), "--out", str(tmp_path / "a"), "--quiet"]) == 0
    run_dir = _run_dir(tmp_path / "a")
    parts = assemble_scenario(parse_config(BASE))
    u = _read_field(run_dir / "trajectory.csv", parts.problem.mesh.n_nodes, parts.problem.grid.n_points)
    action = as_action(parts.problem.operator)
    ref = ml_trajectory(1.5, 1.0, action, parts.problem.initial_data, parts.problem.mesh.nodes)
    # sigma = 0 and f = 0: the run is exactly the propagator applied to the data,
    # so the only gap left is the 17-digit decimal round trip
    assert np.max(np.abs(u - ref)) <= 1e-10


def test_velocity_term_closed_form(tmp_path):
    text = BASE + "\n[initial]\nvelocity = gaussian_bump\nvelocity_scale = 0.3\n"
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "a"), "--quiet"]) == 0
    parts = assemble_scenario(parse_config(text))
    u = _read_field(_run_dir(tmp_path / "a") / "trajectory.csv", parts.problem.mesh.n_nodes, parts.problem.grid.n_points)
    ts = parts.problem.mesh.nodes
    action = as_action(parts.problem.operator)
    ref = ml_trajectory(1.5, 1.0, action, parts.problem.initial_data, ts) + ts[:, None] * ml_trajectory(
        1.5, 2.0, action, parts.problem.initial_velocity, ts
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
    u = _read_field(_run_dir(tmp_path / "a") / "trajectory.csv", parts.problem.mesh.n_nodes, parts.problem.grid.n_points)
    # a single Fourier mode is an eigenvector of the mollified multiplier, so
    # the evolution is scalar Mittag-Leffler in the operator's own symbol
    from fracwave import MlParams, mittag_leffler

    xi0 = np.pi * 3 / 16.0
    idx = int(np.argmin(np.abs(parts.problem.grid.xi - xi0)))
    sym = complex(parts.problem.operator.symbol[idx])
    mode = np.exp(1j * xi0 * parts.problem.grid.x)
    oracle = np.array(
        [mittag_leffler(MlParams(1.6, 1.0), sym * t**1.6) for t in parts.problem.mesh.nodes]
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


@pytest.mark.parametrize(
    "verb, text, message",
    [
        pytest.param(
            "run",
            "[run]\nalpha = 2.5\n[operator]\nmollify = false\n",
            "run.alpha: must lie in (1, 2]",
            id="alpha",
        ),
        pytest.param("run", "[grid]\nhalf_length = 0\n", "grid.half_length: must be positive", id="half_length"),
        pytest.param("run", "[mesh]\nhorizon = 0\n", "mesh.horizon: must be positive", id="horizon"),
        pytest.param("run", "[mesh]\nn_steps = 1\n", "mesh.n_steps: need at least 2 steps", id="n_steps"),
        pytest.param(
            "run",
            "[operator]\nkind = liouville_left\nspace_order = 2.5\n",
            "operator.space_order: must lie in (0, 2]",
            id="space_order",
        ),
        pytest.param("run", "[schedule]\nkappa = 61\n", "schedule: need 0 < kappa <= kappa_cap", id="kappa"),
        pytest.param("run", "[schedule]\nh_min = 0\n", "schedule.h_min: must be positive", id="h_min"),
        pytest.param(
            "run",
            "[schedule]\ncoeff_width_factor = 0\n",
            "schedule.coeff_width_factor: must be positive",
            id="coeff_width_factor",
        ),
        pytest.param("run", "[noise]\nintensity = -1\n", "noise.intensity: must be nonnegative", id="intensity"),
        pytest.param("run", "[noise]\nmaster_seed = -1\n", "noise.master_seed: must be nonnegative", id="master_seed"),
        pytest.param(
            "run",
            "[noise]\nspatial_sharpness = 0\n",
            "noise.spatial_sharpness: must be positive",
            id="spatial_sharpness",
        ),
        pytest.param("run", "[solver]\nmax_iter = 0\n", "solver.max_iter: must be at least 1", id="max_iter"),
        pytest.param(
            "run",
            "[operator]\ncoefficient = file:\n",
            "line 2: [operator] coefficient: file: profile needs a path",
            id="file-without-path",
        ),
        pytest.param(
            "run",
            "[operator]\ncoefficient = mode:3\n",
            "line 2: [operator] coefficient: mode:K profiles are only valid for initial data",
            id="coefficient-mode",
        ),
        pytest.param(
            "run",
            "[operator]\ncoefficient = file:{tmp}/missing.csv\n",
            "operator.coefficient: cannot read",
            id="missing-file",
        ),
        pytest.param(
            "run",
            "[operator]\ncoefficient = file:{tmp}/short.csv\n",
            "operator.coefficient: '{tmp}/short.csv' must have 256 rows",
            id="short-file",
        ),
        pytest.param(
            "run",
            "[operator]\ncoefficient = file:{tmp}/complex.csv\n",
            "operator.coefficient: profile must be real",
            id="complex-file",
        ),
        pytest.param(
            "run",
            "[operator]\ncoefficient = 1 - 2*sech(x)\n",
            "operator.coefficient: profile must be strictly positive",
            id="negative-coefficient",
        ),
        pytest.param(
            "run",
            "[nonlinearity]\nf = u/u\n",
            "nonlinearity.f: nonlinearity must be finite on the sampling range",
            id="f-undefined-at-zero",
        ),
        pytest.param(
            "run",
            "[operator]\nmollify = false\n[noise]\nintensity = 0.1\n",
            "noise: set spatial and temporal sharpness explicitly",
            id="sharp-noise-without-sharpness",
        ),
        pytest.param(
            "sweep-epsilon",
            "[operator]\nmollify = false\n",
            "sweep-epsilon needs operator.mollify = true",
            id="sharp-sweep",
        ),
    ],
)
def test_each_config_error_exits_2_with_one_line_naming_its_key(tmp_path, capsys, verb, text, message):
    (tmp_path / "short.csv").write_text("1.0\n" * 10, encoding="utf-8")
    (tmp_path / "complex.csv").write_text("1.0,0.0\n" * 256, encoding="utf-8")
    out = tmp_path / "out"
    path = _cfg_file(tmp_path, text.format(tmp=tmp_path))
    assert entrypoint([verb, "--config", path, "--out", str(out), "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: " + message.format(tmp=tmp_path))
    assert not out.exists()


LIMIT_ORDER = """
[run]
alpha = 2.0
[grid]
n_points = 64
[mesh]
n_steps = 32
[operator]
mollify = false
"""


@pytest.mark.parametrize("form, code", [("kernel", 0), ("derivative", 2)])
def test_the_derivative_form_at_the_limit_order_is_a_config_error(tmp_path, capsys, form, code):
    # the derivative form's order 2 - alpha vanishes at alpha = 2; the kernel form runs there
    out = tmp_path / "out"
    path = _cfg_file(tmp_path, LIMIT_ORDER + f"[solver]\nform = {form}\n")
    assert entrypoint(["run", "--config", path, "--out", str(out), "--quiet"]) == code
    lines = capsys.readouterr().err.splitlines()
    if code:
        assert len(lines) == 1 and lines[0].startswith("config error: solver.form: the derivative form needs alpha < 2")
        assert not out.exists()
    else:
        assert lines == [] and len(list(out.iterdir())) == 1


def test_run_without_a_config_takes_every_default(tmp_path):
    out = tmp_path / "out"
    assert entrypoint(["run", "--out", str(out), "--quiet"]) == 0
    assert (_run_dir(out) / "config.txt").read_text() == render_config(parse_config(""))


def test_tanh_step_displacement_runs_its_named_profile(tmp_path):
    out = tmp_path / "out"
    path = _cfg_file(tmp_path, BASE + "[initial]\ndisplacement = tanh_step\n")
    assert entrypoint(["run", "--config", path, "--out", str(out), "--quiet"]) == 0
    problem = assemble_scenario(parse_config(BASE)).problem
    step = 0.5 * (1.0 + np.tanh(problem.grid.x))
    ref = ml_trajectory(1.5, 1.0, as_action(problem.operator), step, problem.mesh.nodes)
    u = _read_field(_run_dir(out) / "trajectory.csv", problem.mesh.n_nodes, problem.grid.n_points)
    # f = 0 and no noise: the run is the propagator applied to the sampled step
    assert np.max(np.abs(u - ref)) <= 1e-10


FLOAT_KEYS = [
    (f.metadata["section"], f.metadata["key"] or f.name)
    for f in dataclasses.fields(fracwave.RunConfig)
    if f.type in ("float", "Optional[float]")
]


def test_float_keys_are_all_found():
    assert len(FLOAT_KEYS) == 15 and ("noise", "intensity") in FLOAT_KEYS


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS, ids=[f"{s}.{k}" for s, k in FLOAT_KEYS])
def test_non_finite_float_is_a_config_error(tmp_path, capsys, section, key, value):
    out = tmp_path / "out"
    text = f"[{section}]\n{key} = {value}\n"
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"config error: {section}.{key}: must be a finite number, got {float(value)}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "verb, text, code, message",
    [
        # 2**-1100 rounds to 0.0, and 1e20 levels do not fit an index array
        ("run", "[schedule]\nk_max = 1100\n", 2, "config error: schedule: need 1 <= k_min <= k_max <= 1023"),
        ("run", "[schedule]\nk_max = 99999999999999999999\n", 2, "config error: schedule: need 1 <= k_min"),
        # t**alpha itself overflows, or t**alpha * ||A|| does
        ("run", "[mesh]\nhorizon = 1e300\n", 3, "numerical gate: majorant of orders (1.5,1) at |z| = inf overflows"),
        ("run", "[mesh]\nhorizon = 1e205\n", 3, "numerical gate: majorant of orders (1.5,1) at |z| = inf overflows"),
        # the derivative form builds its weights first: t**(alpha + 1) overflows there
        ("run", "[mesh]\nhorizon = 1e300\n[solver]\nform = derivative\n", 3, "numerical gate: product-integration"),
        ("noise-dump", "[noise]\nintensity = 1e300\n", 3, "numerical gate: interior variance overflows"),
        ("noise-dump", "[noise]\nintensity = 1e160\n", 3, "numerical gate: interior variance overflows"),
        ("noise-dump", "[noise]\nintensity = 0.05\ntemporal_sharpness = 1e-300\n", 3, "numerical gate: temporal kernel"),
        ("noise-dump", "[noise]\nintensity = 0.05\ntemporal_sharpness = 1e-6\n", 3, "numerical gate: temporal kernel"),
        ("run", "[noise]\nintensity = 0.05\ntemporal_sharpness = 1e-6\n", 3, "numerical gate: temporal kernel"),
    ],
)
def test_finite_configs_out_of_range_exit_with_one_line(tmp_path, capsys, verb, text, code, message):
    out = tmp_path / "out"
    assert entrypoint([verb, "--config", _cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == code
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("key, value", [("n_windows", "2"), ("series_tol", "1e-11")])
def test_deleted_solver_keys_are_unknown(tmp_path, capsys, key, value):
    # the solver sizes its windows and fixes its series tolerance itself
    text = f"[solver]\nform = derivative\n{key} = {value}\n"
    out = tmp_path / "out"
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"config error: line 3: unknown key '{key}' in section [solver]"]
    assert not out.exists()


def test_sharp_fractional_kind_runs_at_order_two(tmp_path):
    # only the mollified operator needs an order below 2; the sharp riesz takes it by default
    for kind, order in (("liouville_left", "space_order = 2.0\n"), ("riesz", "")):
        text = BASE + f"[operator]\nkind = {kind}\n{order}mollify = false\n"
        assert parse_config(text).space_order == 2.0
        out = tmp_path / kind
        assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 0


@pytest.mark.parametrize("verb", ["run", "sweep-epsilon", "noise-dump"])
def test_every_verb_rejects_a_mollified_fractional_kind_at_order_two(tmp_path, capsys, verb):
    # an explicit space_order = 2.0, which no mollified fractional kind accepts
    text = BASE + "[run]\nscenario = time_space_fractional\n[operator]\nspace_order = 2.0\n"
    out = tmp_path / "out"
    assert entrypoint([verb, "--config", _cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: operator.space_order: ")
    assert "(0, 2)" in lines[0]
    assert not out.exists()


def test_time_space_fractional_scenario_runs_with_every_other_key_default(tmp_path):
    # a mollified fractional kind left without a space_order takes 1.5
    out = tmp_path / "out"
    text = "[run]\nscenario = time_space_fractional\n"
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 0
    assert "space_order = 1.5\n" in (_run_dir(out) / "config.txt").read_text()


def test_scenario_names_only_its_two_choices(tmp_path, capsys):
    out = tmp_path / "out"
    text = "[run]\nscenario = custom\n"
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["config error: line 2: [run] scenario: expected one of time_fractional, time_space_fractional; got 'custom'"]
    assert not out.exists()


@pytest.mark.parametrize("verb, key", [("run", "displacement"), ("run", "velocity"), ("noise-dump", "displacement")])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_profile_file_is_a_config_error(tmp_path, capsys, verb, key, bad):
    cells = ["0.5"] * 256
    cells[100] = bad
    profile = tmp_path / "profile.csv"
    profile.write_text("\n".join(cells) + "\n", encoding="utf-8")
    text = BASE.replace("n_steps = 64", "n_steps = 16") + f"[initial]\n{key} = file:{profile}\n"
    if verb == "noise-dump":
        text += "[noise]\nintensity = 0.1\ntarget = initial\n"
    out = tmp_path / "out"
    assert entrypoint([verb, "--config", _cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"config error: initial.{key}: ")
    assert not out.exists()


@pytest.mark.parametrize("verb", ["run", "noise-dump"])
@pytest.mark.parametrize("key", ["displacement", "velocity"])
def test_mode_beyond_the_double_range_is_a_config_error(tmp_path, capsys, verb, key):
    out = tmp_path / "out"
    text = BASE + f"[initial]\n{key} = mode:1{'0' * 400}\n"
    assert entrypoint([verb, "--config", _cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: line ") and f"[initial] {key}: mode:K" in lines[0]
    assert not out.exists()


def test_finite_mode_whose_phase_overflows_reaches_the_grid_check(tmp_path, capsys):
    # pi * 1e308 overflows on the grid although K itself is a double
    out = tmp_path / "out"
    text = BASE + f"[initial]\ndisplacement = mode:1{'0' * 308}\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["config error: initial.displacement: profile takes non-finite values on the grid"]
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("operator", "coefficient", "(" * 300 + "1" + ")" * 300),
        ("nonlinearity", "f", "-" * 990 + "u"),
        ("nonlinearity", "f", "-" * 3000 + "u"),
    ],
    ids=["300-parentheses", "990-minus-signs", "3000-minus-signs"],
)
def test_deeply_nested_expression_exits_2_with_one_short_line(tmp_path, capsys, section, key, value):
    out = tmp_path / "out"
    text = BASE + f"[{section}]\n{key} = {value}\n"
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: line ") and f"[{section}] {key}: " in lines[0]
    assert len(lines[0]) < 120  # the source is not echoed
    assert not out.exists()


def test_expression_150_levels_deep_runs_like_its_flat_form(tmp_path):
    flat = BASE + "[operator]\ncoefficient = 1 + 0.25*sech(x)\n[nonlinearity]\nf = 0.5*sin(u)\n"
    deep = flat.replace("1 + 0.25*sech(x)", "(" * 150 + "1 + 0.25*sech(x)" + ")" * 150)
    deep = deep.replace("f = 0.5*sin(u)", "f = " + "-" * 150 + "0.5*sin(u)")
    fields = []
    for name, text in (("flat", flat), ("deep", deep)):
        out = tmp_path / name
        assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 0
        fields.append((_run_dir(out) / "trajectory.csv").read_bytes())
    assert fields[0] == fields[1]


def test_unconverged_run_exits_4(tmp_path, capsys):
    text = "[mesh]\nn_steps = 32\n[nonlinearity]\nf = 0.5*sin(u)\n[noise]\nintensity = 0.1\n[solver]\nmax_iter = 2\n"
    out = tmp_path / "out"
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(out)]) == 4
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("divergence: ")
    assert "2 sweeps" in lines[0] and "tol 1e-10" in lines[0] and lines[0].endswith("; raise solver.max_iter")
    assert "converged" not in captured.out
    assert not out.exists()


@pytest.mark.parametrize("max_iter", [50, 500])
def test_rounding_level_stall_advises_raising_tol(tmp_path, capsys, max_iter):
    # a state of row norm about 1e7 stalls near eps * 1e7 = 2e-9 > tol: more sweeps cannot help.  The
    # variable coefficient keeps the physical series; on the default multiplier the chain reaches a fixed point
    text = f"[operator]\ncoefficient = 1 + 0.25*sech(x)\n[noise]\nintensity = 1e6\n[solver]\nmax_iter = {max_iter}\n"
    out = tmp_path / "out"
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"divergence: picard did not converge in {max_iter} sweeps")
    assert lines[0].endswith("the change is at rounding level for a state of size 1.03e+07; raise solver.tol")
    assert not out.exists()


def test_unconverged_line_names_the_block_rows(tmp_path, capsys):
    text = "[mesh]\nn_steps = 100\n[nonlinearity]\nf = 0.5*sin(u)\n[noise]\nintensity = 0.1\n[solver]\nmax_iter = 2\n"
    out = tmp_path / "out"
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(out)]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "2 sweeps at rows 0..63 " in lines[0]
    assert not out.exists()


def test_unconverged_line_reports_the_change_of_the_block_it_names(tmp_path, capsys):
    # block 0..63 stalls at 5.111e-06; a later block of the eight ends at 2.044e-03,
    # which would advise for the wrong block
    text = "[nonlinearity]\nf = 0.5*sin(u)\n[noise]\nintensity = 0.1\n[solver]\nmax_iter = 3\n"
    out = tmp_path / "out"
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(out)]) == 4
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "3 sweeps at rows 0..63 (last change 5.111e-06, tol 1e-10)" in lines[0]
    assert not out.exists()


SMALL = """
[grid]
n_points = 32
half_length = 4.0
[mesh]
n_steps = 32
[nonlinearity]
f = 0.1*sin(u)
[noise]
intensity = 0.05
target = both
"""


def test_one_block_run_keeps_the_picard_artifacts(tmp_path, monkeypatch):
    # 33 nodes are one block with q > 1/2: the march runs the whole-horizon
    # Picard sweeps, so the trajectory bytes and the solver record stay
    def picard(p, opts):
        report = old_kernel_picard(p, opts)
        assert len(report.contraction_history) == 1
        return report

    cfg = _cfg_file(tmp_path, SMALL)
    assert entrypoint(["run", "--config", cfg, "--out", str(tmp_path / "a"), "--quiet"]) == 0
    monkeypatch.setattr(cli, "solve_kernel_form", picard)
    assert entrypoint(["run", "--config", cfg, "--out", str(tmp_path / "b"), "--quiet"]) == 0
    da, db = _run_dir(tmp_path / "a"), _run_dir(tmp_path / "b")
    assert (da / "trajectory.csv").read_bytes() == (db / "trajectory.csv").read_bytes()
    solver = json.loads((da / "metadata.json").read_text())["solver"]
    assert solver["details"].pop("block_q_max") > 0.5
    assert solver == json.loads((db / "metadata.json").read_text())["solver"]
    assert solver["details"]["series_levels"] == 25 and solver["details"]["volterra_blocks"] == 1


def test_unresolved_nonlinearity_exits_3(tmp_path, capsys):
    # the derivative form's windows come from the kernel form's block rule, gate included
    for form in ("kernel", "derivative"):
        out = tmp_path / form
        text = f"[nonlinearity]\nf = 1e7*sin(u)\n[solver]\nform = {form}\n"
        assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numerical gate: ") and "Lip f" in lines[0]
    assert not list(tmp_path.rglob("trajectory.csv"))


def test_ml_verb_prints_value(capsys):
    assert entrypoint(["ml", "--alpha", "0.5", "--z-re", "1.0"]) == 0
    re, im = map(float, capsys.readouterr().out.split())
    assert abs(re - math.e * math.erfc(-1.0)) <= 1e-14 * re
    assert im == 0.0
    assert entrypoint(["ml", "--alpha", "1.5", "--z-re", "250.0"]) == 3


@pytest.mark.parametrize(
    "flags", [["--alpha", "3"], ["--alpha", "1.5", "--beta", "-1"], ["--alpha", "1.5", "--tol", "2"]]
)
def test_ml_verb_rejects_bad_orders(flags, capsys):
    # orders outside the series' range are a configuration problem (exit 2), not a crash
    assert entrypoint(["ml", *flags]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: ml: ")


def test_noise_dump_artifacts(tmp_path):
    cfg = _cfg_file(tmp_path, NOISY + "target = both\n")
    assert entrypoint(["noise-dump", "--config", cfg, "--out", str(tmp_path / "a"), "--quiet"]) == 0
    run_dir = _run_dir(tmp_path / "a")
    meta = _check_run_dir(run_dir, "noise-dump", NOISY + "target = both\n", ["noise.csv", "initial.csv"])
    assert meta["seed"] == 7
    assert meta["interior_variance"] > 0.0
    assert meta["provenance"]["tag"] == 0
    assert meta["initial_provenance"]["tag"] == 1
    # the realized fields, written as np.savetxt would: the noise is real, so im_u is all zeros
    parsed = parse_config(NOISY + "target = both\n")
    grid, mesh, schedule, eps = cli._frame(parsed)
    spec = cli._noise_spec(parsed, schedule)
    noise = white_noise_representative(spec, eps, grid, mesh).trajectory.values
    initial = stochastic_initial_data(cli._displacement(parsed, grid), spec, eps, grid).values
    assert not np.any(noise.imag)
    for name, t, u in (("noise.csv", mesh.nodes, noise), ("initial.csv", mesh.nodes[:1], initial[None, :])):
        head, _, body = (run_dir / name).read_bytes().partition(b"\n")
        assert head == b"t,x,re_u,im_u"
        assert body == _savetxt_bytes(t, grid.x, u)


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
    # the default target is the forcing alone: no initial.csv
    _check_run_dir(_run_dir(tmp_path / "a"), "noise-dump", BASE, ["noise.csv"])
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
    meta = _check_run_dir(run_dir, "sweep-epsilon", text, ["sweep.csv"])
    assert meta["association"]["strictly_decreasing"] is True
    assert np.isfinite(meta["moderateness"]["fitted_n"])
    assert meta["moderateness"]["statuses"] == ["ok", "ok", "ok"]
    # one record per rung of its norm gate's steps and its solve's work
    assert [rung["k"] for rung in meta["rungs"]] == [4, 5, 6]
    for rung in meta["rungs"]:
        assert rung["norm_iterations"] > 1 and rung["sweeps"] >= 1 and rung["series_levels"] >= 1
        assert rung["block_q_max"] > 0.0


LADDER = """
[operator]
coefficient = constant
[schedule]
k_min = 4
k_max = 5
run_k = 4
[nonlinearity]
f = 0.1*sin(u)
"""


def test_run_and_rungs_count_the_blocks_that_ran_cold(tmp_path):
    # the head block of 64 rows has q > 1/2 and runs its series cold; every
    # later block is cut to q <= 1/2 and folds
    cfg = _cfg_file(tmp_path, LADDER)
    assert entrypoint(["run", "--config", cfg, "--out", str(tmp_path / "run"), "--quiet"]) == 0
    details = json.loads((_run_dir(tmp_path / "run") / "metadata.json").read_text())["solver"]["details"]
    assert details["cold_blocks"] == 1 and details["volterra_blocks"] > 5 and details["block_q_max"] > 0.5
    assert entrypoint(["sweep-epsilon", "--config", cfg, "--out", str(tmp_path / "sweep"), "--quiet"]) == 0
    rungs = json.loads((_run_dir(tmp_path / "sweep") / "metadata.json").read_text())["rungs"]
    assert [rung["cold_blocks"] for rung in rungs] == [1, 1]
    assert rungs[0]["series_levels"] == details["series_levels"] > 1


def test_run_line_counts_every_sweep_of_every_block(tmp_path, capsys):
    # the line reports the sweeps that ran, not the longest block's count
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, LADDER), "--out", str(tmp_path / "run")]) == 0
    meta = json.loads((_run_dir(tmp_path / "run") / "metadata.json").read_text())
    history = meta["solver"]["contraction_history"]
    sweeps = sum(len(block) for block in history)
    assert len(history) > 5 and sweeps > meta["solver"]["iterations"]
    line = capsys.readouterr().out.splitlines()[-1]
    assert f"converged in {sweeps} sweeps over {len(history)} blocks " in line
    # the flags and the form are stated once, at the top level
    assert meta["solver_form"] == "kernel" and meta["nonlinearity"]["sampled_lipschitz"] > 0.0
    assert "form" not in meta["solver"]["details"] and "nonlinearity" not in meta["solver"]["details"]


@pytest.mark.parametrize("verb", ["run", "sweep-epsilon"])
def test_windows_reach_only_the_derivative_form(tmp_path, capsys, verb):
    # run solves the derivative form, which records the windows it derived;
    # the sweep's scan solves the kernel form and says so
    text = BASE.replace("n_steps = 64", "n_steps = 16") + "k_min = 5\nk_max = 6\n[solver]\nform = derivative\n"
    out = tmp_path / "out"
    assert entrypoint([verb, "--config", _cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 0
    meta = json.loads((_run_dir(out) / "metadata.json").read_text())
    err = capsys.readouterr().err.splitlines()
    if verb == "run":
        solver = meta["solver"]
        assert meta["solver_form"] == "rl" and solver["details"]["windows"] == len(solver["contraction_history"]) == 1
        assert err == []
    else:
        assert (_run_dir(out) / "sweep.csv").read_text().splitlines()[1].endswith(",ok")
        assert meta["solver_form"] == "kernel"
        assert len(err) == 1 and err[0].startswith("note: sweep-epsilon solves the kernel form")


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
    rungs = json.loads((_run_dir(tmp_path / "a") / "metadata.json").read_text())["rungs"]
    assert rungs[3] == {
        "k": 12,
        "norm_iterations": None,
        "sweeps": None,
        "series_levels": None,
        "block_q_max": None,
        "cold_blocks": None,
    }


NORM_GATE = """
[mesh]
n_steps = 16
horizon = 0.25
[operator]
coefficient = 1+0.25*sech(x)
[schedule]
k_min = 4
k_max = 6
kappa_cap = 40
run_k = 5
"""


def test_norm_gate_stops_run_and_flags_the_sweep_rung(tmp_path, capsys):
    # at kappa_cap = 40 the operator at k = 5 is above its cap; those at k = 4 and 6 are below theirs
    cfg = _cfg_file(tmp_path, NORM_GATE)
    out = tmp_path / "run"
    assert entrypoint(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical gate: ")
    assert "operator norm 23.1061 exceeds the schedule cap 19.5967" in lines[0]
    assert not out.exists()
    assert entrypoint(["sweep-epsilon", "--config", cfg, "--out", str(tmp_path / "sweep"), "--quiet"]) == 0
    run_dir = _run_dir(tmp_path / "sweep")
    rows = {line.split(",")[0]: line.split(",") for line in (run_dir / "sweep.csv").read_text().splitlines()[1:]}
    assert rows["4"][-1] == rows["6"][-1] == "ok"
    assert rows["5"][-1].startswith("failed: operator norm 23.1061 exceeds the schedule cap 19.5967")
    assert rows["5"][4] and rows["5"][5:10] == ["", "", "", "", ""]  # its cap, but no norm or measurement
    assert rows["4"][5] and rows["6"][5]
    meta = json.loads((run_dir / "metadata.json").read_text())
    assert meta["rungs"][1] == {
        "k": 5,
        "norm_iterations": None,
        "sweeps": None,
        "series_levels": None,
        "block_q_max": None,
        "cold_blocks": None,
    }
    assert meta["moderateness"]["statuses"][0] == meta["moderateness"]["statuses"][2] == "ok"


@pytest.mark.parametrize(
    "text, message",
    [
        # a huge finite coefficient has a huge finite norm, or an infinite one, and fails the cap
        ("[operator]\ncoefficient_scale = 1e300\n", "numerical gate: operator norm 1.56371e+301 exceeds the schedule cap"),
        ("[operator]\ncoefficient_scale = 1e308\n", "numerical gate: operator norm inf exceeds the schedule cap"),
        # the propagated data overflow before any fixed-point sweep: a range failure, not divergence
        (
            "[initial]\ndisplacement_scale = 1e300\n",
            "numerical gate: propagated initial data overflow double precision (data scale 1e+300)",
        ),
        # unit data, but the series' node coefficients t^(p alpha)/Gamma(beta + p alpha) overflow
        (
            "[operator]\ncoefficient_scale = 1e-150\n[mesh]\nhorizon = 1e100\n",
            "numerical gate: series coefficients t^(p*alpha)/Gamma(beta + p*alpha) overflow double precision "
            "at t = 1e+100; shorten the horizon",
        ),
    ],
)
def test_overflowing_operator_or_data_exits_3_without_warnings(tmp_path, capsys, text, message):
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 3
    assert [str(w.message) for w in caught] == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message)
    assert not out.exists()


def _gate_line(tmp_path, capsys, text):
    """The one stderr line of a run that fails its norm gate, after checking exit 3 and no run directory."""
    out = tmp_path / "out"
    assert entrypoint(["run", "--config", _cfg_file(tmp_path, text), "--out", str(out), "--quiet"]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("numerical gate: operator norm ")
    assert not out.exists()
    return lines[0]


def test_norm_gate_names_the_coefficient_scale_when_the_coefficient_alone_exceeds_the_cap(tmp_path, capsys):
    # max|c| = 1e300 is above the cap 47.56 however blunt the kernel: the
    # lowest sharpness the schedule allows fails the same way
    for schedule in ("", "[schedule]\nkappa = 1e-9\n"):
        line = _gate_line(tmp_path, capsys, "[operator]\ncoefficient_scale = 1e300\n" + schedule)
        assert "exceeds the schedule cap 47.5571" in line
        assert line.endswith("; the coefficient alone has max|c| = 1e+300; lower operator.coefficient_scale")
        assert "sharpness" not in line


def test_norm_gate_a_lower_sharpness_can_mend_keeps_its_advice(tmp_path, capsys):
    line = _gate_line(tmp_path, capsys, NORM_GATE)
    assert line.endswith(
        "operator norm 23.1061 exceeds the schedule cap 19.5967 at eps = 0.03125; "
        "lower the sharpness multiplier or refine the schedule"
    )
    # and the advice holds: the same rung with a blunter kernel passes its gate
    out = tmp_path / "blunt"
    cfg = _cfg_file(tmp_path, NORM_GATE + "kappa = 1.0\n")
    assert entrypoint(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0


def test_tiny_coefficient_scale_keeps_its_norm(tmp_path):
    # the coefficient's square, or the A*A iterate's, underflows at these
    # scales; the iteration runs at unit scale, so it scales with the coefficient
    def regularization(scale):
        out = tmp_path / repr(scale)
        cfg = _cfg_file(tmp_path, f"[operator]\ncoefficient_scale = {scale!r}\n")
        assert entrypoint(["run", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        return json.loads((_run_dir(out) / "metadata.json").read_text())["regularization"]

    unit = regularization(1.0)
    for scale in (1e-100, 1e-120, 1e-160, 1e-200, 1e-300):
        reg = regularization(scale)
        want = scale * unit["measured_norm"]
        assert abs(reg["measured_norm"] - want) <= 1e-12 * want
        assert reg["norm_iterations"] == unit["norm_iterations"]


def test_sweep_rung_whose_solve_fails_leaves_empty_cells_and_strict_json(tmp_path):
    # every rung builds its operator, and every solve fails the resolution gate
    text = "[nonlinearity]\nf = 40000*sin(u)\n[schedule]\nk_min = 4\nk_max = 5\nrun_k = 4\n"
    assert entrypoint(["sweep-epsilon", "--config", _cfg_file(tmp_path, text), "--out", str(tmp_path / "a"), "--quiet"]) == 0
    run_dir = _run_dir(tmp_path / "a")
    rows = [line.split(",") for line in (run_dir / "sweep.csv").read_text().splitlines()[1:]]
    assert len(rows) == 2
    for cells in rows:
        assert cells[5] and cells[6]  # norm and association error of the built operator
        assert cells[7:10] == ["", "", ""]
        assert cells[10].startswith("failed: one time step does not resolve the nonlinearity")

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    meta = json.loads((run_dir / "metadata.json").read_text(), parse_constant=reject)
    assert meta["moderateness"]["fitted_n"] is None
    assert set(meta["moderateness"]["exponents"].values()) == {None}
    # the gates ran, the solves did not
    assert all(rung["norm_iterations"] > 1 and rung["sweeps"] is None for rung in meta["rungs"])


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
