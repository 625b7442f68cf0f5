"""Whole-chain invariants: config -> operator -> solve -> CSV, through the CLI.

Each relation is an exact symmetry of the continuous problem that the
discretization keeps, so the two sides agree to rounding (time and amplitude
scaling, reflection) or to the solver tolerance (superposition), with no
reference numbers.
"""

import numpy as np
import pytest

from fracwave import SolverOptions
from fracwave.cli import entrypoint

TOL = SolverOptions.tol
BASE = """
[run]
alpha = 1.5
label = inv
[grid]
half_length = 8
n_points = {n_points}
[mesh]
horizon = {horizon!r}
n_steps = 64
"""


def _solve(tmp_path, name, text, n_points=128, horizon=1.0):
    """The trajectory of one `run`, as an (n_nodes, n_points) complex array."""
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(BASE.format(n_points=n_points, horizon=horizon) + text, encoding="utf-8")
    out = tmp_path / name
    assert entrypoint(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    (run_dir,) = out.iterdir()
    data = np.loadtxt(run_dir / "trajectory.csv", delimiter=",", skiprows=1)
    return (data[:, 2] + 1j * data[:, 3]).reshape(-1, n_points)


def _profile_file(tmp_path, name, values):
    """A one-column `file:` profile whose cells read back as the same doubles."""
    path = tmp_path / f"{name}.csv"
    path.write_text("".join(f"{v!r}\n" for v in values.tolist()), encoding="utf-8")
    return f"file:{path}"


@pytest.mark.parametrize("form", ["kernel", "derivative"])
def test_time_scaling(tmp_path, form):
    # v(s) = u(c s) solves the problem with c^alpha A, c^alpha f, c u1 and horizon T/c;
    # with n_steps fixed the weights scale as dt^alpha, so the discrete problems agree
    c, alpha = 0.5, 1.5

    def run(name, scale, horizon):
        text = (
            f"[operator]\ncoefficient = 1 + 0.25*sech(x)\ncoefficient_scale = {scale**alpha!r}\n"
            f"[initial]\nvelocity = gaussian_bump\nvelocity_scale = {scale * 0.3!r}\n"
            f"[nonlinearity]\nf = {scale}^{alpha}*0.5*sin(u)\n[solver]\nform = {form}\n"
        )
        return _solve(tmp_path, name, text, horizon=horizon)

    u = run("u", 1.0, 1.0)
    v = run("v", c, 1.0 / c)
    assert np.max(np.abs(u)) > 1.0
    assert np.max(np.abs(u - v)) <= 1e-12


@pytest.mark.parametrize("scale", [1e-30, 1e-9, 1e-3])
@pytest.mark.parametrize("form", ["kernel", "derivative"])
def test_amplitude_scaling(tmp_path, form, scale):
    # with a linear f, scale * u solves the problem with data scale * u0; the
    # stop test is relative to the state's size, so a tiny state converges as far
    def run(name, factor):
        text = f"[initial]\ndisplacement_scale = {factor!r}\n[nonlinearity]\nf = 0.1*u\n[solver]\nform = {form}\n"
        return _solve(tmp_path, name, text)

    expected = scale * run("unit", 1.0)
    assert np.max(np.abs(run("scaled", scale) - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("kind", ["second_derivative", "riesz", "liouville_left", "liouville_right"])
@pytest.mark.parametrize("noisy", [False, True], ids=["no-noise", "forcing-noise"])
def test_superposition(tmp_path, kind, noisy):
    # with f = 0, u(a + b; P) = u(a; P) + u(b; 0) for a forcing noise P of a fixed seed
    a, b = "exp(-x^2/8)", "0.5*sech(x - 1)*tanh(x)"
    noise = "[noise]\nintensity = 0.05\nmaster_seed = 5\ntemporal_sharpness = 16.0\n" if noisy else ""

    def run(name, data, forcing):
        return _solve(tmp_path, name, f"[operator]\nkind = {kind}\n[initial]\ndisplacement = {data}\n" + forcing)

    both = run("both", f"{a} + {b}", noise)
    apart = run("a", a, noise) + run("b", b, "")
    assert np.max(np.abs(both)) > 0.5
    assert np.max(np.abs(both - apart)) <= 10 * TOL


@pytest.mark.parametrize(
    "kind, mirrored_kind, n_points",
    [
        ("second_derivative", "second_derivative", 128),
        ("riesz", "riesz", 128),
        ("liouville_left", "liouville_right", 128),
        ("liouville_left", "liouville_right", 256),
    ],
)
def test_reflection(tmp_path, kind, mirrored_kind, n_points):
    # x -> -x maps grid index j to (n - j) mod n on the periodic grid [-L, L)
    x = np.linspace(-8.0, 8.0, n_points, endpoint=False)
    mirror = (-np.arange(n_points)) % n_points
    coefficient = 1.0 + 0.25 / np.cosh(x - 1.0)
    displacement = np.exp(-((x - 1.5) ** 2)) + 0.3 * np.exp(-((x + 2.0) ** 2) / 2.0)

    def run(name, kind, index, form):
        text = (
            f"[operator]\nkind = {kind}\ncoefficient = {_profile_file(tmp_path, name + '-c', coefficient[index])}\n"
            f"[initial]\ndisplacement = {_profile_file(tmp_path, name + '-q', displacement[index])}\n"
            f"[nonlinearity]\nf = 0.5*sin(u)\n[solver]\nform = {form}\n"
        )
        return _solve(tmp_path, f"{name}-{form}", text, n_points)

    for form in ("kernel", "derivative"):
        u = run("u", kind, np.arange(n_points), form)
        w = run("w", mirrored_kind, mirror, form)
        assert np.max(np.abs(u)) > 0.5
        assert np.max(np.abs(u - w[:, mirror])) <= 1e-12  # 1.7e-14 seen, 7.8e-16 for Liouville
