"""Fixed-point solves of the forced problem in both representations."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from fracwave import (
    CauchyProblem,
    DivergenceError,
    EpsilonSchedule,
    MlParams,
    ResolutionError,
    SingularOrderError,
    SizeError,
    SolverOptions,
    SpatialGrid,
    TimeMesh,
    TruncationError,
    build_operator,
    gronwall_stability_probe,
    make_mollifier,
    mittag_leffler,
    ml_trajectory,
    moderateness_scan,
    nonlinearity_from_callable,
    pi_weights,
    scaled_sine,
    second_derivative_identity_check,
    series_term_count,
    solve_kernel_form,
    solve_rl_form,
    zero_nonlinearity,
)
from fracwave import duhamel, parse_config_file
from fracwave.cli import assemble_scenario, entrypoint
from fracwave.duhamel import _block_plan, _fold_blocks, _plan_meta, _volterra
from fracwave.fractional import _weights_product, first_difference
from picard_oracle import old_kernel_picard, picard

ALPHA, C, Q = 1.5, 0.5, 1.0
OP = C


def _ml(beta, z):
    return complex(mittag_leffler(MlParams(ALPHA, beta), z))


def _problem(mesh, **kw):
    return CauchyProblem(ALPHA, OP, kw.pop("f", zero_nonlinearity()), np.array([Q]), mesh, **kw)


def test_homogeneous_solve_reduces_to_propagator():
    mesh = TimeMesh(1.0, 128)
    report = solve_kernel_form(_problem(mesh))
    ref = ml_trajectory(ALPHA, 1.0, OP, np.array([Q]), mesh.nodes)
    # with nothing to iterate on, the fixed point is the bare series
    assert np.max(np.abs(report.trajectory - ref)) == 0.0
    assert report.converged and report.iterations == 1


def test_initial_velocity_closed_form():
    mesh = TimeMesh(1.0, 256)
    u1 = 0.7
    report = solve_kernel_form(_problem(mesh, initial_velocity=np.array([u1])))
    t = mesh.nodes
    exact = np.array([_ml(1.0, C * s**ALPHA) * Q + s * _ml(2.0, C * s**ALPHA) * u1 for s in t])
    assert np.max(np.abs(report.trajectory[:, 0] - exact)) <= 1e-10


def test_constant_forcing_closed_form_both_routes():
    mesh = TimeMesh(1.0, 256)
    P = 0.3
    forcing = np.full((mesh.n_nodes, 1), P)
    p = _problem(mesh, forcing=forcing)
    t = mesh.nodes
    exact = np.array(
        [_ml(1.0, C * s**ALPHA) * Q + P * s**ALPHA * _ml(ALPHA + 1.0, C * s**ALPHA) for s in t]
    )
    rep_k = solve_kernel_form(p)
    rep_rl = solve_rl_form(p)
    assert np.max(np.abs(rep_k.trajectory[:, 0] - exact)) <= 1e-6
    assert np.max(np.abs(rep_rl.trajectory[:, 0] - exact)) <= 1e-6
    assert rep_k.form == "kernel" and rep_rl.form == "rl"


def test_caputo_variant_direct_at_vanishing_start():
    # F(0) = 0 leaves nothing to split off: the derivative form is then the
    # Caputo one directly
    mesh = TimeMesh(1.0, 128)
    ramp = 0.4 * mesh.nodes**2
    p = _problem(mesh, forcing=ramp[:, None])
    rep = solve_rl_form(p)
    assert rep.metadata["initial_forcing_norm"] == 0.0
    assert np.all(np.isfinite(rep.trajectory))


def _set_windows(monkeypatch, count):
    """Make the derivative form sweep count windows of near-equal length."""

    def fold(p, weights, cap):
        n_steps = p.mesh.n_steps
        bounds = [0] + [round(w * n_steps / count) + 1 for w in range(1, count + 1)]
        return [(s, e, 0.0) for s, e in zip(bounds, bounds[1:])], cap

    monkeypatch.setattr(duhamel, "_fold_blocks", fold)


def test_windowed_iteration_matches_single_window(monkeypatch):
    # Lip f * ||W||_inf <= 1/2 over the whole horizon: one derived window,
    # and sweeping four windows instead gives the same fixed point
    mesh = TimeMesh(1.0, 128)
    p = _problem(mesh, f=nonlinearity_from_callable(lambda v: 0.1 * np.sin(v), "0.1*sin(u)"))
    weights = pi_weights(ALPHA, mesh.n_nodes, mesh.dt)
    assert 0.1 * np.abs(weights).sum(axis=1).max() <= 0.5
    r1 = solve_rl_form(p)
    assert r1.converged and r1.metadata["windows"] == len(r1.contraction_history) == 1
    _set_windows(monkeypatch, 4)
    r4 = solve_rl_form(p)
    assert r4.converged and r4.metadata["windows"] == len(r4.contraction_history) == 4
    assert np.max(np.abs(r1.trajectory - r4.trajectory)) <= 1e-12


def test_kernel_form_takes_no_windows():
    # both forms size their blocks or windows themselves; no option sets them
    assert [f.name for f in dataclasses.fields(SolverOptions)] == ["tol", "max_iter"]
    with pytest.raises(TypeError):
        SolverOptions(n_windows=2)


def test_windows_rescue_a_long_horizon(monkeypatch):
    # whole-horizon Picard needs windows here: with one, it stops at max_iter.
    # The kernel form's blocks, sized by the Lipschitz bound, each contract;
    # the derivative form sweeps the same blocks, uncapped, as its windows.
    mesh = TimeMesh(4.0, 128)
    p = CauchyProblem(ALPHA, 1.0, scaled_sine(20.0), np.array([1.0]), mesh)
    opts = SolverOptions(max_iter=100)
    report = solve_kernel_form(p, opts)
    assert report.converged and report.iterations <= 10
    meta = report.metadata
    assert meta["volterra_blocks"] == 43 and meta["volterra_block_rows"] == 3
    assert meta["block_q_max"] <= 0.5 and meta["series_levels"] == 1
    windowed = old_kernel_picard(p, opts)
    assert windowed.converged and len(windowed.contraction_history) == 43
    assert np.max(np.abs(report.trajectory - windowed.trajectory)) <= 1e-9
    # the discrete system y = W (f(b + y) + A y) with A = 1
    y = report.trajectory - duhamel._base_trajectory(p)
    weights = pi_weights(ALPHA, mesh.n_nodes, mesh.dt)
    assert np.max(np.abs(y - weights @ (p.nonlinearity.fn(report.trajectory) + y))) <= 1e-9
    # the derivative form converges under default options in the kernel form's blocks
    rl = solve_rl_form(p)
    assert rl.converged and rl.metadata["windows"] == len(rl.contraction_history) == meta["volterra_blocks"]
    # iterations counts the longest window, not the sweeps of all of them
    assert rl.iterations == max(map(len, rl.contraction_history)) <= opts.max_iter
    # four even windows also converge, to the same fixed point; one does not
    _set_windows(monkeypatch, 4)
    four = solve_rl_form(p, opts)
    assert four.converged and np.max(np.abs(rl.trajectory - four.trajectory)) <= 1e-10
    _set_windows(monkeypatch, 1)
    assert not solve_rl_form(p, opts).converged


@pytest.mark.parametrize("scale, folded", [(1.0, False), (0.25, True)])
def test_block_march_matches_picard_on_a_matrix_problem(scale, folded):
    mesh = TimeMesh(1.0, 149)
    dim = 4
    a_mat = scale * (-np.diag([0.5, 1.0, 2.0, 4.0]) + 0.1 * np.ones((dim, dim)))
    forcing = np.outer(np.sin(3.0 * mesh.nodes), np.arange(1.0, dim + 1.0))
    p = CauchyProblem(ALPHA, a_mat, scaled_sine(0.1), np.ones(dim), mesh, forcing=forcing)
    report = solve_kernel_form(p)
    oracle = old_kernel_picard(p, SolverOptions())
    assert report.converged and oracle.converged
    meta = report.metadata
    assert meta["volterra_blocks"] == 3 and (meta["block_q_max"] <= 0.5) == folded
    assert (meta["series_levels"] == 1) == folded
    scale = np.abs(oracle.trajectory).max()
    assert np.abs(report.trajectory - oracle.trajectory).max() <= 1e-9 * scale


def test_one_block_runs_the_picard_sweeps_exactly():
    # q > 1/2 and a single block: the cold-start series chain of every sweep
    mesh = TimeMesh(1.0, 40)
    p = CauchyProblem(ALPHA, -30.0, scaled_sine(0.5), np.ones(3), mesh, forcing=np.full((41, 3), 0.2))
    report = solve_kernel_form(p)
    oracle = old_kernel_picard(p, SolverOptions())
    assert report.metadata["block_q_max"] > 0.5 and report.metadata["volterra_blocks"] == 1
    assert np.array_equal(report.trajectory, oracle.trajectory)
    assert report.contraction_history == oracle.contraction_history
    assert report.metadata["series_levels"] == oracle.metadata["series_levels"]


BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "perfbench" / "configs"


def _bench_problem(workload, **changes):
    cfg = dataclasses.replace(parse_config_file(BENCH_CONFIGS / f"{workload}.cfg"), master_seed=3, **changes)
    return assemble_scenario(cfg).problem


def _recorded_plans(monkeypatch, lip_only=False):
    """Record every block plan _fold_blocks returns; lip_only sizes every block by Lip f alone."""
    plans = []

    def recording(p, weights, cap=duhamel._BLOCK_ROWS, fold_later=False):
        blocks, limit = _fold_blocks(p, weights, cap, fold_later and not lip_only)
        plans.append(blocks)
        return blocks, limit

    monkeypatch.setattr(duhamel, "_fold_blocks", recording)
    return plans


def test_later_blocks_fold_and_agree_with_the_lipschitz_plan(monkeypatch):
    # the k = 4 rung of the benchmark ladder: under the Lipschitz rule alone
    # every later 64-row block has q > 1/2 and runs its series cold
    p = _bench_problem("sweep-ladder", run_k=4)
    old_plans = _recorded_plans(monkeypatch, lip_only=True)
    old = solve_kernel_form(p)
    (old_plan,) = old_plans
    assert len(old_plan) > 2 and all(q > 0.5 for s, e, q in old_plan if e - s == 64)
    assert old.metadata["cold_blocks"] == sum(q > 0.5 for _, _, q in old_plan)

    new_plans = _recorded_plans(monkeypatch)
    chain = duhamel._chain
    levels = []

    def counted(action, w_bb, h, g, y, n_levels, rows_shape):
        levels.append(n_levels)
        return chain(action, w_bb, h, g, y, n_levels, rows_shape)

    monkeypatch.setattr(duhamel, "_chain", counted)
    new = solve_kernel_form(p)
    ((head, *later),) = new_plans
    assert head == old_plan[0]
    assert later and all(q <= 0.5 for _, _, q in later)
    # the head block's sweeps run its certified series, every later sweep one level
    head_sweeps = len(new.contraction_history[0])
    assert levels[:head_sweeps] == [new.metadata["series_levels"]] * head_sweeps
    assert levels[head_sweeps:] == [1] * (len(levels) - head_sweeps)
    assert new.converged and new.metadata["cold_blocks"] == 1
    scale = np.abs(old.trajectory).max()
    assert np.abs(new.trajectory - old.trajectory).max() <= 1e-9 * scale


def test_later_blocks_whose_first_row_cannot_fold_keep_the_lipschitz_plan(monkeypatch):
    # w0 (||A|| + Lip f) > 1/2 >= w0 Lip f: no row of a later block folds, so
    # every block keeps its Lipschitz rows and runs cold.  A nilpotent A keeps
    # the propagated data exact at a large norm.
    mesh = TimeMesh(1.0, 40)
    a_mat = np.array([[0.0, 400.0], [0.0, 0.0]])
    p = CauchyProblem(ALPHA, a_mat, scaled_sine(-40.0), np.array([0.1, 0.2]), mesh, forcing=np.full((41, 2), 0.2))
    w0 = mesh.dt**ALPHA / math.gamma(ALPHA + 2.0)
    assert w0 * p.nonlinearity.lipschitz <= 0.5 < w0 * (p.action.norm_bound + p.nonlinearity.lipschitz)
    plans = _recorded_plans(monkeypatch)
    new = solve_kernel_form(p)
    old_plans = _recorded_plans(monkeypatch, lip_only=True)
    old = solve_kernel_form(p)
    assert new.converged and len(plans[0]) > 2 and plans == old_plans
    assert new.metadata == old.metadata and new.metadata["cold_blocks"] == new.metadata["volterra_blocks"]
    assert new.trajectory.tobytes() == old.trajectory.tobytes()
    assert new.contraction_history == old.contraction_history


def test_run_heavy_keeps_its_blocks():
    # q <= 1/2 on every 64-row block already, so the later-block cut changes nothing
    p = _bench_problem("run-heavy")
    weights = pi_weights(p.alpha, p.mesh.n_nodes, p.mesh.dt)
    blocks, limit = _fold_blocks(p, weights, fold_later=True)
    assert (blocks, limit) == _fold_blocks(p, weights)
    assert len(blocks) == 17 and limit == 64 and all(q <= 0.5 for _, _, q in blocks)


def test_derivative_windows_of_64_nodes_do_not_fold(tmp_path, monkeypatch):
    # the window cap is the node count, 64, the kernel form's row cap too; the
    # derivative form still keeps its Lipschitz windows, the later one whole at q > 1/2
    text = """
[run]
alpha = 1.5
[grid]
half_length = 16
n_points = 128
[mesh]
horizon = 0.5
n_steps = 63
[nonlinearity]
f = 5*sin(u)
[solver]
form = derivative
"""
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text, encoding="utf-8")
    outputs = []
    for lip_only in (False, True):
        plans = _recorded_plans(monkeypatch, lip_only)
        out = tmp_path / f"lip_only_{lip_only}"
        assert entrypoint(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        (run_dir,) = out.iterdir()
        outputs.append((plans, (run_dir / "trajectory.csv").read_bytes()))
    (new_plans, new_bytes), (old_plans, old_bytes) = outputs
    assert new_plans == old_plans and new_bytes == old_bytes
    ((first, later),) = new_plans
    assert first[1] == later[0] and later[1] == 64 and later[2] > 0.5


def test_unresolved_nonlinearity_is_a_resolution_error():
    p = CauchyProblem(ALPHA, OP, scaled_sine(1e7), np.array([Q]), TimeMesh(1.0, 64))
    # the derivative form's windows come from the same rule, so it raises the same error
    for solve in (solve_kernel_form, solve_rl_form):
        with pytest.raises(ResolutionError, match="dt\\^alpha \\* Lip f / Gamma\\(alpha \\+ 2\\)"):
            solve(p)


def test_stalled_block_marks_the_report_and_the_march_goes_on():
    mesh = TimeMesh(1.0, 150)
    p = _problem(mesh, f=scaled_sine(0.5), forcing=np.full((mesh.n_nodes, 1), 0.3))
    report = solve_kernel_form(p, SolverOptions(max_iter=2))
    assert not report.converged and report.unconverged_rows == (0, 63)
    assert report.iterations == 2
    assert [len(h) for h in report.contraction_history] == [2, 2, 2]
    assert np.all(np.isfinite(report.trajectory))


@pytest.mark.parametrize(
    "solve, message",
    [(solve_kernel_form, "grew 5 times in a row"), (solve_rl_form, "blew up")],
    ids=["kernel", "rl"],
)
def test_divergence_detection(solve, message):
    # the kernel form's blocks see the change rise, the derivative form's
    # whole-horizon sweeps overflow; one sweep loop raises both
    f = nonlinearity_from_callable(lambda v: v**3, "u^3")
    p = CauchyProblem(ALPHA, 1.0, f, np.array([3.0]), TimeMesh(2.0, 64))
    with pytest.raises(DivergenceError, match=message):
        solve(p)


def test_zero_data_stays_zero():
    mesh = TimeMesh(1.0, 64)
    p = CauchyProblem(ALPHA, OP, zero_nonlinearity(), np.array([0.0]), mesh)
    report = solve_kernel_form(p)
    assert not np.any(report.trajectory)
    assert report.iterations == 1


def test_nonlinearity_contracts():
    with pytest.raises(ValueError):
        nonlinearity_from_callable(lambda v: v + 1.0, "u+1")  # f(0) != 0
    f = scaled_sine(0.1)
    flags = f.hypothesis_flags()
    assert flags["zero_at_origin"] is True
    assert flags["derivative_vanishes_at_zero"] is False
    assert abs(flags["fprime_at_zero"] - 0.1) <= 1e-6
    g = nonlinearity_from_callable(lambda u: 0.2 * u / (1.0 + u**2), "0.2*u/(1+u^2)")
    # a*u/(1+u^2) has slope a at the origin, and saturates away from it
    gflags = g.hypothesis_flags()
    assert gflags["derivative_vanishes_at_zero"] is False
    assert abs(gflags["fprime_at_zero"] - 0.2) <= 1e-6
    assert gflags["sampled_lipschitz"] <= 0.2 + 1e-6


def test_problem_validation():
    mesh = TimeMesh(1.0, 64)
    with pytest.raises(SingularOrderError):
        CauchyProblem(0.9, OP, zero_nonlinearity(), np.array([Q]), mesh)
    with pytest.raises(SizeError):
        CauchyProblem(ALPHA, OP, zero_nonlinearity(), np.array([Q]), mesh,
                      initial_velocity=np.zeros(2))
    with pytest.raises(SizeError):
        CauchyProblem(ALPHA, OP, zero_nonlinearity(), np.array([Q]), mesh,
                      forcing=np.zeros((3, 1)))
    with pytest.raises(ValueError):
        SolverOptions(tol=2.0)
    # each datum has one name, holding the normalized array; zero velocity and forcing are None
    zero = CauchyProblem(ALPHA, OP, zero_nonlinearity(), Q, mesh,
                         initial_velocity=[0.0], forcing=np.zeros((mesh.n_nodes, 1)))
    assert zero.initial_data.dtype == np.float64 and zero.initial_data.shape == (1,)
    assert zero.initial_velocity is None and zero.forcing is None
    p = _problem(mesh, forcing=np.full((mesh.n_nodes, 1), 0.3))
    again = dataclasses.replace(p)
    assert again.initial_data is p.initial_data and again.forcing is p.forcing


def test_identity_defect_refines():
    P = 0.3
    devs = []
    for n in (128, 256):
        mesh = TimeMesh(1.0, n)
        p = _problem(mesh, forcing=np.full((mesh.n_nodes, 1), P))
        devs.append(second_derivative_identity_check(solve_kernel_form(p), p))
    assert devs[1] < devs[0]


def test_gronwall_probe():
    mesh = TimeMesh(1.0, 128)
    p = _problem(mesh)
    rep = gronwall_stability_probe(p, np.array([0.0]))
    assert np.all(np.isnan(rep.k_values))
    rep2 = gronwall_stability_probe(p, np.array([0.1]))
    assert np.all(np.isfinite(rep2.k_values))
    # a linear problem responds linearly: K must not move across scales
    spread = np.max(rep2.k_values) - np.min(rep2.k_values)
    assert spread <= 1e-8 * np.max(rep2.k_values)


def test_moderateness_scan_flat_family():
    sched = EpsilonSchedule(alpha=ALPHA, k_min=4, k_max=8)
    build = lambda eps: _problem(TimeMesh(0.5, 32))
    report = moderateness_scan(build, sched)
    assert report.statuses == ["ok"] * 5
    assert abs(report.fitted_n) <= 1e-10
    assert all(abs(v) <= 1e-10 for v in report.exponents.values())
    assert all(np.all(np.isfinite(v)) for v in report.norms.values())


def test_moderateness_scan_flags_failed_rungs():
    sched = EpsilonSchedule(alpha=ALPHA, k_min=4, k_max=6)

    def build(eps):
        if eps < 2.0**-5:
            raise ResolutionError("kernel too sharp for this grid")
        return _problem(TimeMesh(0.5, 32))

    report = moderateness_scan(build, sched)
    assert report.statuses[:2] == ["ok", "ok"]
    assert report.statuses[2].startswith("failed:")
    assert np.isfinite(report.fitted_n)


# ------------------------------------------------------------ Volterra march


def _dense_solve(weights, a_mat, g):
    """Exact solution of y = W (g + A y) for a matrix A acting on rows."""
    n, d = g.shape
    system = np.eye(n * d) - np.kron(weights, a_mat)
    return np.linalg.solve(system, np.kron(weights, np.eye(d)) @ g.ravel()).reshape(n, d)


def _horner_chain(weights, action, g, levels):
    """The truncated Neumann series the march replaced; returns (y, v)."""
    acc = g
    for _ in range(levels):
        acc = g + action.apply_rows(weights @ acc)
    return weights @ acc, acc


def _full_levels(p, head_beta, extra=0):
    z = p.mesh.t_max**p.alpha * p.action.norm_bound
    return series_term_count(p.alpha, head_beta, z, 1e-12) + extra


@pytest.mark.parametrize("n_nodes", [40, 64, 65, 130])
def test_march_matches_dense_solve_matrix_action(n_nodes):
    rng = np.random.default_rng(n_nodes)
    dim = 6
    a_mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    a_mat *= 3.0 / np.linalg.norm(a_mat, 2)
    mesh = TimeMesh(1.0, n_nodes - 1)
    p = CauchyProblem(ALPHA, a_mat, zero_nonlinearity(), np.zeros(dim), mesh)
    g = rng.standard_normal((n_nodes, dim)) + 1j * rng.standard_normal((n_nodes, dim))
    weights = pi_weights(ALPHA, n_nodes, mesh.dt)
    y, v = _volterra(weights, p.action, g, _block_plan(p, ALPHA + 1.0))
    exact = _dense_solve(weights, a_mat, g)
    scale = np.abs(exact).max()
    assert np.abs(y - exact).max() <= 1e-11 * scale
    assert np.abs(v - (g + exact @ a_mat.T)).max() <= 1e-11 * np.abs(v).max()


def test_march_matches_dense_solve_scalar_action():
    n_nodes, c = 130, -2.5
    mesh = TimeMesh(1.0, n_nodes - 1)
    p = CauchyProblem(ALPHA, c, zero_nonlinearity(), np.zeros(3), mesh)
    g = np.cos(np.outer(mesh.nodes, [1.0, 2.0, 3.0]))
    weights = pi_weights(ALPHA, n_nodes, mesh.dt)
    y, _ = _volterra(weights, p.action, g, _block_plan(p, ALPHA + 1.0))
    exact = _dense_solve(weights, c * np.eye(3), g)
    assert np.abs(y - exact).max() <= 1e-11 * np.abs(exact).max()


def test_march_matches_long_chain_variable_coefficient():
    grid = SpatialGrid(16.0, 64)
    coeff = 1.0 + 0.25 / np.cosh(grid.x)
    op = build_operator("second_derivative", 2.0, coeff, make_mollifier("bump", 1.0, grid), grid)
    mesh = TimeMesh(1.0, 200)
    u0 = np.exp(-grid.x**2 / 4.0)
    p = CauchyProblem(ALPHA, op, zero_nonlinearity(), u0, mesh, grid=grid)
    g = np.outer(1.0 + mesh.nodes, u0) + 0.3j * np.outer(mesh.nodes**2, np.sin(grid.x))
    weights = pi_weights(ALPHA, mesh.n_nodes, mesh.dt)
    y, v = _volterra(weights, p.action, g, _block_plan(p, ALPHA + 1.0))
    ref_y, ref_v = _horner_chain(weights, p.action, g, _full_levels(p, ALPHA + 1.0, extra=14))
    assert np.abs(y - ref_y).max() <= 1e-11 * np.abs(ref_y).max()
    assert np.abs(v - ref_v).max() <= 1e-11 * np.abs(ref_v).max()


def test_rl_form_and_identity_check_match_their_chains(monkeypatch):
    mesh = TimeMesh(1.0, 150)
    dim = 4
    a_mat = -np.diag([0.5, 1.0, 2.0, 4.0]) + 0.1 * np.ones((dim, dim))
    forcing = np.outer(np.sin(3.0 * mesh.nodes), np.arange(1.0, dim + 1.0))
    p = CauchyProblem(ALPHA, a_mat, scaled_sine(0.1), np.ones(dim), mesh, forcing=forcing)
    rl = solve_rl_form(p)
    kernel = solve_kernel_form(p)
    identity = second_derivative_identity_check(kernel, p)

    levels = _full_levels(p, 2.0 * ALPHA - 1.0, extra=14)  # the larger of the two old counts
    monkeypatch.setattr(duhamel, "_volterra", lambda w, a, g, plan: _horner_chain(w, a, g, levels))
    rl_ref = solve_rl_form(p)
    identity_ref = second_derivative_identity_check(kernel, p)
    assert rl.iterations == rl_ref.iterations
    scale = np.abs(rl_ref.trajectory).max()
    assert np.abs(rl.trajectory - rl_ref.trajectory).max() <= 1e-11 * scale
    assert abs(identity - identity_ref) <= 1e-11 * scale


def test_block_levels_never_exceed_full_horizon_count():
    for alpha in (1.1, 1.5, 1.9):
        for head_beta in (alpha + 1.0, 3.0, 2.0 * alpha - 1.0):
            for norm in (0.5, 5.0, 50.0, 500.0):
                for n_steps in (2, 17, 63, 64, 65, 100, 127, 128, 129, 300):
                    mesh = TimeMesh(1.0, n_steps)
                    p = CauchyProblem(alpha, norm, zero_nonlinearity(), np.ones(1), mesh)
                    plan = _block_plan(p, head_beta)
                    full = _full_levels(p, head_beta)
                    assert max(levels for _, _, levels in plan) <= full
                    if mesh.n_nodes <= 64:
                        # one block: exactly the old certificate, so the same
                        # meshes raise TruncationError as before
                        assert plan == [(0, mesh.n_nodes, full)]


def test_block_truncation_error_matches_full_horizon():
    mesh = TimeMesh(1.0, 40)
    p = CauchyProblem(1.01, 1e6, zero_nonlinearity(), np.ones(1), mesh)
    with pytest.raises(TruncationError):
        _full_levels(p, 2.01)
    with pytest.raises(TruncationError):
        _block_plan(p, 2.01)


def test_solver_metadata_reports_the_march():
    mesh = TimeMesh(1.0, 150)
    p = _problem(mesh, forcing=np.full((mesh.n_nodes, 1), 0.3))
    for report in (solve_kernel_form(p), solve_rl_form(p)):
        meta = report.metadata
        assert meta["volterra_block_rows"] == 64
        assert meta["volterra_blocks"] == 3
        assert 1 <= meta["series_levels"] <= _full_levels(p, ALPHA + 1.0)


def _mollified_problem(kind, mesh, f, u0=None, forcing=None):
    grid = SpatialGrid(16.0, 64)
    coeff = 1.0 + 0.25 / np.cosh(grid.x)
    op = build_operator(kind, 1.5, coeff, make_mollifier("bump", 1.0, grid), grid)
    u0 = np.exp(-grid.x**2 / 4.0) if u0 is None else u0
    if forcing is None:
        forcing = 0.3 * np.outer(np.cos(3.0 * mesh.nodes), np.sin(grid.x))
    return CauchyProblem(ALPHA, op, f, u0, mesh, forcing=forcing, initial_velocity=0.5 * u0, grid=grid)


@pytest.mark.parametrize("solve", [solve_kernel_form, solve_rl_form])
@pytest.mark.parametrize("kind", ["second_derivative", "riesz"])
def test_real_problem_solves_in_real_arithmetic(solve, kind):
    mesh = TimeMesh(1.0, 150)
    p = _mollified_problem(kind, mesh, scaled_sine(0.5))
    assert p.initial_data.dtype == p.initial_velocity.dtype == p.forcing.dtype == np.float64
    report = solve(p)
    assert report.trajectory.dtype == np.float64
    assert report.metadata["arithmetic"] == "real"
    # the same data with an explicit complex dtype: held real all the same
    cast = _mollified_problem(
        kind, mesh, scaled_sine(0.5), p.initial_data.astype(complex), p.forcing.astype(complex)
    )
    assert cast.initial_data.dtype == cast.forcing.dtype == np.float64
    assert np.array_equal(solve(cast).trajectory, report.trajectory)
    # the complex path proper, reached through a nonzero imaginary part
    tiny = 1e-300j * np.ones(mesh.n_nodes)[:, None]
    full = solve(_mollified_problem(kind, mesh, scaled_sine(0.5), forcing=p.forcing + tiny))
    assert full.metadata["arithmetic"] == "complex"
    assert np.abs(full.trajectory - report.trajectory).max() <= 1e-12


@pytest.mark.parametrize("solve", [solve_kernel_form, solve_rl_form])
def test_liouville_problem_stays_complex(solve):
    mesh = TimeMesh(1.0, 100)
    p = _mollified_problem("liouville_left", mesh, scaled_sine(0.5))
    report = solve(p)
    assert report.metadata["arithmetic"] == "complex"
    assert np.abs(report.trajectory.imag).max() > 0.0


def _old_rl_form(p, opts):
    """The derivative form integrating with the order-(alpha - 1) weights and differencing on every sweep."""
    mesh = p.mesh
    f0 = duhamel._forced(p, p.initial_data, 0)
    f0_norm = float(np.linalg.norm(np.atleast_1d(f0).ravel()))
    weights_alpha = pi_weights(p.alpha, mesh.n_nodes, mesh.dt)
    windows = _fold_blocks(p, weights_alpha, mesh.n_nodes)[0]
    weights_two = pi_weights(2.0, mesh.n_nodes, mesh.dt)
    weights_low = pi_weights(1.0 - (2.0 - p.alpha), mesh.n_nodes, mesh.dt)
    plan = _block_plan(p, 3.0)
    singular = duhamel._propagated(p, p.alpha, f0) if f0_norm > 0.0 else 0.0

    def integral_term(g):
        w_reg = first_difference(_weights_product(weights_low, g - f0), mesh.dt)
        acc = _volterra(weights_alpha, p.action, w_reg, plan)[1]
        return singular + _weights_product(weights_two, acc)

    meta = {**_plan_meta(plan), "windows": len(windows), "initial_forcing_norm": f0_norm}
    return picard(p, opts, windows, integral_term, "rl", meta)


def test_derivative_matrix_sweeps_match_the_differenced_integral():
    # a complex field problem with forcing and a nonlinearity: the prebuilt
    # derivative matrix reproduces integrate-then-difference on every sweep
    mesh = TimeMesh(1.0, 100)
    p = _mollified_problem("liouville_left", mesh, scaled_sine(0.1))
    report = solve_rl_form(p)
    oracle = _old_rl_form(p, SolverOptions())
    assert report.converged and oracle.converged
    assert report.metadata == oracle.metadata and report.metadata["arithmetic"] == "complex"
    assert list(map(len, report.contraction_history)) == list(map(len, oracle.contraction_history))
    scale = np.abs(oracle.trajectory).max()
    assert np.abs(report.trajectory - oracle.trajectory).max() <= 1e-13 * scale


@pytest.mark.parametrize("solve", [solve_kernel_form, solve_rl_form])
def test_complex_nonlinearity_output_widens_a_real_solve(solve):
    # f maps real states to complex values; the solve must not drop their imaginary part
    f = nonlinearity_from_callable(lambda u: (0.3 + 0.2j) * np.sin(u), "(0.3+0.2i)*sin(u)")
    mesh = TimeMesh(1.0, 150)
    p = _mollified_problem("second_derivative", mesh, f)
    report = solve(p)
    assert report.metadata["arithmetic"] == "complex"
    assert np.abs(report.trajectory.imag).max() > 1e-3
    tiny = 1e-300j * np.ones(mesh.n_nodes)[:, None]
    full = solve(_mollified_problem("second_derivative", mesh, f, forcing=p.forcing + tiny))
    assert np.abs(full.trajectory - report.trajectory).max() <= 1e-12
