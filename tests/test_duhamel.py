"""Fixed-point solves of the forced problem in both representations."""

import dataclasses
import math
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from fracwave import (
    CauchyProblem,
    DivergenceError,
    EpsilonSchedule,
    MlParams,
    RegularizedOperator,
    ResolutionError,
    SingularOrderError,
    SizeError,
    SolverOptions,
    SpatialGrid,
    TimeMesh,
    TruncationError,
    as_action,
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
from fracwave import duhamel, fractional, parse_config_file
from fracwave.cli import assemble_scenario, entrypoint
from fracwave.duhamel import _block_levels, _block_plan, _fold_blocks, _plan_meta, _volterra
from fracwave.fractional import _weights_product, first_difference, rl_integral, second_difference
from fracwave.solution import LinearAction
from picard_oracle import dense_blocks, kernel_plan, old_kernel_picard, picard

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

    def fold(p, cap):
        n_steps = p.mesh.n_steps
        bounds = [0] + [round(w * n_steps / count) + 1 for w in range(1, count + 1)]
        return [(s, e, 0.0) for s, e in zip(bounds, bounds[1:])]

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
    # each derived window keeps Lip f * ||W_BB||_inf <= 1/2; one window over the horizon does not
    lip = p.nonlinearity.lipschitz
    assert lip * np.abs(weights).sum(axis=1).max() > 0.5
    for s, e, _ in _fold_blocks(p, mesh.n_nodes):
        assert lip * np.abs(weights[s:e, s:e]).sum(axis=1).max() <= 0.5
    # four even windows also converge, to the same fixed point
    _set_windows(monkeypatch, 4)
    four = solve_rl_form(p, opts)
    assert four.converged and np.max(np.abs(rl.trajectory - four.trajectory)) <= 1e-10
    # one window has no contraction to rely on: whether it stops at max_iter
    # is up to rounding, but a fixed point it reports must be the windowed one
    _set_windows(monkeypatch, 1)
    one = solve_rl_form(p, opts)
    if one.converged:
        assert np.max(np.abs(one.trajectory - rl.trajectory)) <= 1e-9


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

    def recording(p, cap=duhamel._BLOCK_ROWS, fold_later=False):
        plan = []
        plans.append(plan)
        for block in _fold_blocks(p, cap, fold_later and not lip_only):
            plan.append(block)
            yield block

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
    blocks = list(_fold_blocks(p, fold_later=True))
    assert blocks == list(_fold_blocks(p))
    # no bound cut a block short of 64 rows
    assert len(blocks) == 17 and all(e - s == min(64, p.mesh.n_nodes - s) for s, e, _ in blocks)
    assert all(q <= 0.5 for _, _, q in blocks)


_PLANNED = {
    **{f"sweep-ladder-k{k}": partial(_bench_problem, "sweep-ladder", run_k=k) for k in range(4, 13)},
    "run-heavy": partial(_bench_problem, "run-heavy"),
    "run-derivative": partial(_bench_problem, "run-derivative"),
    "run-derivative-8sin": lambda: dataclasses.replace(_bench_problem("run-derivative"), nonlinearity=scaled_sine(8.0)),
    "long-horizon": lambda: CauchyProblem(ALPHA, 1.0, scaled_sine(20.0), np.array([1.0]), TimeMesh(4.0, 128)),
    "nilpotent": lambda: CauchyProblem(
        ALPHA, np.array([[0.0, 400.0], [0.0, 0.0]]), scaled_sine(-40.0), np.array([0.1, 0.2]), TimeMesh(1.0, 40)
    ),
    **{
        f"alpha{alpha}-steps{steps}": partial(
            CauchyProblem, alpha, 1.0, scaled_sine(20.0), np.array([1.0]), TimeMesh(1.0, steps)
        )
        for alpha in (1.1, 1.9)
        for steps in (64, 1024)
    },
}


@pytest.mark.parametrize("name", list(_PLANNED))
def test_block_plans_from_the_taps_match_the_dense_rows(name):
    # the kernel form's blocks and the derivative form's windows, planned from
    # prefix sums of the taps, against the row sums of the dense weights
    p = _PLANNED[name]()
    for cap, fold_later in ((duhamel._BLOCK_ROWS, True), (p.mesh.n_nodes, False)):
        planned = list(_fold_blocks(p, cap, fold_later))
        dense = dense_blocks(p, cap, fold_later)
        assert [block[:2] for block in planned] == [block[:2] for block in dense]
        np.testing.assert_allclose([q for *_, q in planned], [q for *_, q in dense], rtol=1e-15, atol=0.0)


def test_planning_windows_builds_no_weight_row(monkeypatch):
    def refuse(*args):
        raise AssertionError("a weight row was built")

    p = _bench_problem("run-derivative")
    monkeypatch.setattr(duhamel, "pi_weights", refuse)
    monkeypatch.setattr(fractional, "pi_weights", refuse)
    windows = list(_fold_blocks(p, p.mesh.n_nodes))
    assert windows and windows[-1][1] == p.mesh.n_nodes


def _recorded_weight_rows(monkeypatch):
    """Record the row count of every array pi_weights returns to duhamel or fractional."""
    rows = []
    build = fractional.pi_weights

    def recording(*args):
        weights = build(*args)
        rows.append(weights.shape[0])
        return weights

    monkeypatch.setattr(duhamel, "pi_weights", recording)
    monkeypatch.setattr(fractional, "pi_weights", recording)
    return rows


def test_no_solve_builds_more_than_a_block_of_weight_rows(monkeypatch):
    # the derivative form's derivative reads one weight row on either side of a block
    limit = duhamel._BLOCK_ROWS + 2
    rows = _recorded_weight_rows(monkeypatch)
    derivative = solve_rl_form(_bench_problem("run-derivative"))
    assert derivative.metadata["volterra_blocks"] == 9
    assert rows and max(rows) <= limit
    rows.clear()
    p = _bench_problem("sweep-ladder", run_k=8)
    kernel = solve_kernel_form(p)
    assert p.mesh.n_nodes == 257 and kernel.metadata["volterra_blocks"] > 2
    assert rows and max(rows) <= limit


def test_derivative_form_solve_peak_holds_no_dense_weights():
    # three 513 x 513 matrices (6.3 MB) held through the sweeps gave a 14.63 MB peak
    p = _bench_problem("run-derivative")
    tracemalloc.start()
    try:
        solve_rl_form(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11e6


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
    v = _volterra(partial(pi_weights, ALPHA, n_nodes, mesh.dt), p.action, g, kernel_plan(p))
    exact = _dense_solve(weights, a_mat, g)
    scale = np.abs(exact).max()
    assert np.abs(weights @ v - exact).max() <= 1e-11 * scale
    assert np.abs(v - (g + exact @ a_mat.T)).max() <= 1e-11 * np.abs(v).max()


def test_march_matches_dense_solve_scalar_action():
    n_nodes, c = 130, -2.5
    mesh = TimeMesh(1.0, n_nodes - 1)
    p = CauchyProblem(ALPHA, c, zero_nonlinearity(), np.zeros(3), mesh)
    g = np.cos(np.outer(mesh.nodes, [1.0, 2.0, 3.0]))
    weights = pi_weights(ALPHA, n_nodes, mesh.dt)
    v = _volterra(partial(pi_weights, ALPHA, n_nodes, mesh.dt), p.action, g, kernel_plan(p))
    exact = _dense_solve(weights, c * np.eye(3), g)
    assert np.abs(weights @ v - exact).max() <= 1e-11 * np.abs(exact).max()


def test_march_matches_long_chain_variable_coefficient():
    grid = SpatialGrid(16.0, 64)
    coeff = 1.0 + 0.25 / np.cosh(grid.x)
    op = build_operator("second_derivative", 2.0, coeff, make_mollifier("bump", 1.0, grid), grid)
    mesh = TimeMesh(1.0, 200)
    u0 = np.exp(-grid.x**2 / 4.0)
    p = CauchyProblem(ALPHA, op, zero_nonlinearity(), u0, mesh, grid=grid)
    g = np.outer(1.0 + mesh.nodes, u0) + 0.3j * np.outer(mesh.nodes**2, np.sin(grid.x))
    weights = pi_weights(ALPHA, mesh.n_nodes, mesh.dt)
    v = _volterra(partial(pi_weights, ALPHA, mesh.n_nodes, mesh.dt), p.action, g, kernel_plan(p))
    ref_y, ref_v = _horner_chain(weights, p.action, g, _full_levels(p, ALPHA + 1.0, extra=14))
    assert np.abs(weights @ v - ref_y).max() <= 1e-11 * np.abs(ref_y).max()
    assert np.abs(v - ref_v).max() <= 1e-11 * np.abs(ref_v).max()


def _resolved_identity(report, p, levels):
    """The curvature check with the smoothed integrand re-solved from g = f(u) + P by the chain."""
    mesh = p.mesh
    lhs = second_difference(report.trajectory - duhamel._base_trajectory(p), mesh.dt)
    g = duhamel._forced(p, report.trajectory)
    term_derivative = rl_integral(first_difference(g, mesh.dt), p.alpha - 1.0, mesh)
    power = np.zeros(mesh.n_nodes)
    power[1:] = mesh.nodes[1:] ** (p.alpha - 2.0) / math.gamma(p.alpha - 1.0)
    acc = _horner_chain(pi_weights(p.alpha, mesh.n_nodes, mesh.dt), p.action, g, levels)[1]
    term_smoothed = p.action.apply_rows(pi_weights(2.0 * p.alpha - 2.0, mesh.n_nodes, mesh.dt) @ acc)
    dev = lhs - term_derivative - power[:, None] * g[0] - term_smoothed
    return float(np.linalg.norm(dev[max(1, mesh.n_steps // 4) : mesh.n_nodes - 2], axis=1).max())


def test_rl_form_and_identity_check_match_their_chains(monkeypatch):
    mesh = TimeMesh(1.0, 150)
    dim = 4
    a_mat = -np.diag([0.5, 1.0, 2.0, 4.0]) + 0.1 * np.ones((dim, dim))
    forcing = np.outer(np.sin(3.0 * mesh.nodes), np.arange(1.0, dim + 1.0))
    p = CauchyProblem(ALPHA, a_mat, scaled_sine(0.1), np.ones(dim), mesh, forcing=forcing)
    rl = solve_rl_form(p)
    kernel = solve_kernel_form(p)
    identity = second_derivative_identity_check(kernel, p)

    levels = _full_levels(p, 2.0, extra=14)  # above the derivative form's order-3 count
    # the check reads the memory's integrand where its definition re-solves it from g
    identity_ref = _resolved_identity(kernel, p, levels)
    assert abs(identity - identity_ref) <= 1e-9 * identity_ref
    # the chain on the whole matrix, the rows [0, n) the march's weights give
    monkeypatch.setattr(duhamel, "_volterra", lambda w, a, g, plan: _horner_chain(w(0, g.shape[0]), a, g, levels)[1])
    rl_ref = solve_rl_form(p)
    assert rl.iterations == rl_ref.iterations
    scale = np.abs(rl_ref.trajectory).max()
    assert np.abs(rl.trajectory - rl_ref.trajectory).max() <= 1e-11 * scale


def test_block_levels_never_exceed_full_horizon_count():
    for alpha in (1.1, 1.5, 1.9):
        for head_beta in (alpha + 1.0, 3.0, 2.0 * alpha - 1.0):
            for norm in (0.5, 5.0, 50.0, 500.0):
                for n_steps in (2, 17, 63, 64, 65, 100, 127, 128, 129, 300):
                    mesh = TimeMesh(1.0, n_steps)
                    p = CauchyProblem(alpha, norm, zero_nonlinearity(), np.ones(1), mesh)
                    n = mesh.n_nodes
                    levels = [_block_levels(p, s, min(s + 64, n), head_beta) for s in range(0, n, 64)]
                    full = _full_levels(p, head_beta)
                    assert max(levels) <= full
                    if n <= 64:
                        # one block: exactly the old certificate, so the same
                        # meshes raise TruncationError as before
                        assert levels == [full]


def test_block_truncation_error_matches_full_horizon():
    mesh = TimeMesh(1.0, 40)
    p = CauchyProblem(1.01, 1e6, zero_nonlinearity(), np.ones(1), mesh)
    with pytest.raises(TruncationError):
        _full_levels(p, 2.01)
    with pytest.raises(TruncationError):
        _block_levels(p, 0, mesh.n_nodes, 2.01)


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
@pytest.mark.parametrize("kind", ["second_derivative", "riesz", "liouville_left"])
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


def _old_rl_form(p, opts):
    """The derivative form integrating with the order-(alpha - 1) weights and differencing on every sweep."""
    mesh = p.mesh
    f0 = duhamel._forced(p, p.initial_data, 0)
    f0_norm = float(np.linalg.norm(np.atleast_1d(f0).ravel()))
    weights_alpha = partial(pi_weights, p.alpha, mesh.n_nodes, mesh.dt)
    windows = list(_fold_blocks(p, mesh.n_nodes))
    weights_two = pi_weights(2.0, mesh.n_nodes, mesh.dt)
    weights_low = pi_weights(1.0 - (2.0 - p.alpha), mesh.n_nodes, mesh.dt)
    plan = _block_plan(p)
    singular = duhamel._propagated(p, p.alpha, f0) if f0_norm > 0.0 else 0.0

    def integral_term(g):
        w_reg = first_difference(_weights_product(weights_low, g - f0), mesh.dt)
        acc = _volterra(weights_alpha, p.action, w_reg, plan)
        return singular + _weights_product(weights_two, acc)

    meta = {"march": "series", **_plan_meta(plan), "windows": len(windows), "initial_forcing_norm": f0_norm}
    return picard(p, opts, windows, integral_term, "rl", meta)


def test_derivative_matrix_sweeps_match_the_differenced_integral():
    # a complex field problem with forcing and a nonlinearity: the prebuilt
    # derivative matrix reproduces integrate-then-difference on every sweep
    mesh = TimeMesh(1.0, 100)
    grid = SpatialGrid(16.0, 64)
    u0 = np.exp(-grid.x**2 / 4.0 + 1j * grid.x)  # a modulated bump: genuinely complex data
    p = _mollified_problem("liouville_left", mesh, scaled_sine(0.1), u0=u0)
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


KINDS = ("second_derivative", "liouville_left", "liouville_right", "riesz")


def _constant_problem(kind, mollified, forcing_offset=0.0):
    """A problem on a constant coefficient, so its operator is a Fourier multiplier; real unless the offset is not."""
    grid = SpatialGrid(16.0, 64)
    moll = make_mollifier("bump", 1.0, grid) if mollified else None
    op = build_operator(kind, 1.5, np.full(grid.n_points, 0.1), moll, grid)
    mesh = TimeMesh(1.0, 150)
    u0 = np.exp(-(grid.x**2) / 4.0)
    forcing = 0.3 * np.outer(np.cos(3.0 * mesh.nodes), np.sin(grid.x)) + forcing_offset
    return CauchyProblem(ALPHA, op, scaled_sine(0.5), u0, mesh, forcing=forcing, initial_velocity=0.5 * u0, grid=grid)


def _stripped(p):
    """The same problem with its operator's multiplier taken away: the physical march."""
    return dataclasses.replace(p, operator=dataclasses.replace(p.action, multiplier=None))


def _unmarched(meta):
    """The metadata without the keys that name the march and its series."""
    return {key: value for key, value in meta.items() if key not in ("march", "series_levels", "cold_blocks")}


@pytest.mark.parametrize("mollified", [True, False])
@pytest.mark.parametrize("kind", KINDS)
def test_spectral_march_matches_the_physical_one(kind, mollified):
    p = _constant_problem(kind, mollified)
    assert p.action.multiplier is not None
    physical = _stripped(p)
    assert physical.action.multiplier is None
    spectral, reference = solve_rl_form(p), solve_rl_form(physical)
    assert spectral.converged and reference.converged
    assert list(map(len, spectral.contraction_history)) == list(map(len, reference.contraction_history))
    # the spectral march solves each mode exactly; the physical one sums the series
    assert spectral.metadata["march"] == "modes" and reference.metadata["march"] == "series"
    assert spectral.metadata["series_levels"] == spectral.metadata["cold_blocks"] == 0
    assert _unmarched(spectral.metadata) == _unmarched(reference.metadata)
    assert spectral.metadata["arithmetic"] == "real"
    scale = np.abs(reference.trajectory).max()
    assert np.abs(spectral.trajectory - reference.trajectory).max() <= 1e-14 * scale


@pytest.mark.parametrize("n_nodes", [2, 3, 64, 65, 66, 150, 513])
@pytest.mark.parametrize("mollified", [True, False])
@pytest.mark.parametrize("kind", KINDS)
def test_the_march_by_modes_is_the_dense_solve_of_every_mode(kind, mollified, n_nodes):
    # y = W (g + lam y) on the full weight matrix, one dense solve per mode;
    # 64 to 66 nodes put a block edge next to the last row
    grid = SpatialGrid(16.0, 64)
    moll = make_mollifier("bump", 1.0, grid) if mollified else None
    lam = as_action(build_operator(kind, 1.5, np.full(grid.n_points, 0.1), moll, grid)).multiplier
    assert (np.abs(lam.imag).max() > 0.1 * np.abs(lam).max()) == kind.startswith("liouville")
    dt = 1.0 / (n_nodes - 1)
    resolvents = duhamel._mode_resolvents(ALPHA, n_nodes, dt, lam)
    assert resolvents is not None
    rng = np.random.default_rng(n_nodes)
    g = rng.standard_normal((n_nodes, lam.size)) + 1j * rng.standard_normal((n_nodes, lam.size))
    v = duhamel._mode_volterra(partial(pi_weights, ALPHA, n_nodes, dt), lam, resolvents, g)
    weights = pi_weights(ALPHA, n_nodes, dt)
    for k, lam_k in enumerate(lam):
        y = np.linalg.solve(np.eye(n_nodes) - lam_k * weights, weights @ g[:, k])
        assert np.abs(weights @ v[:, k] - y).max() <= 1e-13 * np.abs(y).max()
        exact = g[:, k] + lam_k * y
        assert np.abs(v[:, k] - exact).max() <= 1e-13 * np.abs(exact).max()


def test_a_mode_next_to_the_pivot_keeps_the_series(monkeypatch):
    # lam dt**alpha / Gamma(alpha + 2) = 1.2 on the top mode: the resolvent
    # recursion would divide by |1 - 1.2| < 1/2, so the march sums the series
    dim, mesh = 16, TimeMesh(1.0, 4)
    lam = np.linspace(-2.0, 0.0, dim // 2 + 1).astype(complex)
    lam[-1] = 1.2 * math.gamma(ALPHA + 2.0) / mesh.dt**ALPHA
    action = LinearAction(
        lambda rows: np.fft.irfft(lam * np.fft.rfft(rows, axis=-1), dim, axis=-1), float(np.abs(lam).max()), dim, lam
    )
    rng = np.random.default_rng(5)
    # every mode is excited, the top one included, so its growth sets the scale
    forcing = 0.3 * np.outer(np.cos(3.0 * mesh.nodes), rng.standard_normal(dim))
    p = CauchyProblem(ALPHA, action, zero_nonlinearity(), rng.standard_normal(dim), mesh, forcing=forcing)
    assert duhamel._mode_resolvents(ALPHA, mesh.n_nodes, mesh.dt, lam) is None
    marches = _recorded_mode_marches(monkeypatch)
    report = solve_rl_form(p)
    assert report.converged and marches == []
    assert report.metadata["march"] == "series" and report.metadata["series_levels"] >= 1
    # it is the physical march, whose propagator applies the operator term by term
    physical = solve_rl_form(_stripped(p))
    assert report.metadata == physical.metadata
    scale = np.abs(physical.trajectory).max()
    assert np.abs(report.trajectory - physical.trajectory).max() <= 1e-13 * scale


def test_the_run_derivative_workload_marches_by_modes(monkeypatch):
    # the benchmark's derivative-form workload measures the march by modes: no operator series
    p = _bench_problem("run-derivative")
    assert p.action.multiplier is not None
    applies = []
    apply_rows = LinearAction.apply_rows
    monkeypatch.setattr(LinearAction, "apply_rows", lambda self, rows: applies.append(1) or apply_rows(self, rows))
    report = solve_rl_form(p)
    assert report.converged and applies == []
    assert report.metadata["march"] == "modes" and report.metadata["series_levels"] == 0
    assert report.metadata["volterra_blocks"] == 9


@pytest.mark.parametrize("entry", ["spectral", "physical"])
def test_each_derivative_form_sweep_differentiates_once_through_rl_derivative(monkeypatch, entry):
    # the spectral entry differentiates the real half spectrum, the physical one the field
    p = _constant_problem("riesz", True)
    p = p if entry == "spectral" else _stripped(p)
    calls = []
    derivative = duhamel.rl_derivative

    def recording(samples, gamma_ord, mesh):
        calls.append((samples.shape, samples.dtype, gamma_ord))
        return derivative(samples, gamma_ord, mesh)

    monkeypatch.setattr(duhamel, "rl_derivative", recording)
    report = solve_rl_form(p)
    assert report.converged and report.sweeps > 1 and len(calls) == report.sweeps
    width, dtype = (p.grid.n_points // 2 + 1, complex) if entry == "spectral" else (p.grid.n_points, float)
    assert set(calls) == {((p.mesh.n_nodes, width), np.dtype(dtype), 2.0 - ALPHA)}


def test_multiplier_is_the_half_spectrum_of_a_real_constant_coefficient_operator():
    grid = SpatialGrid(16.0, 64)
    moll = make_mollifier("bump", 1.0, grid)
    constant, variable = np.full(grid.n_points, 0.7), 1.0 + 0.25 / np.cosh(grid.x)
    for kind in KINDS:
        op = build_operator(kind, 1.5, constant, moll, grid)
        lam = as_action(op).multiplier
        assert np.array_equal(lam, 0.7 * op.symbol[:33])
        values = np.cos(grid.x) + 0.1 * grid.x
        via_modes = np.fft.irfft(lam * np.fft.rfft(values), grid.n_points)
        assert np.abs(via_modes - op.apply(values)).max() <= 1e-14 * np.abs(op.apply(values)).max()
        assert as_action(build_operator(kind, 1.5, variable, moll, grid)).multiplier is None
    assert as_action(0.5).multiplier is None
    assert as_action(-np.eye(3)).multiplier is None


def _apply_callers(monkeypatch):
    """Patch RegularizedOperator.apply to record the name of each call's caller."""
    callers = []
    apply = RegularizedOperator.apply

    def recorded(self, values):
        callers.append(sys._getframe(1).f_code.co_name)
        return apply(self, values)

    monkeypatch.setattr(RegularizedOperator, "apply", recorded)
    return callers


def test_the_march_on_a_multiplier_never_applies_the_operator(monkeypatch):
    # the propagator's powers take the half spectrum too; a march that fell
    # back to the physical path would apply the operator once per series level
    callers = _apply_callers(monkeypatch)
    for kind in KINDS:
        callers.clear()
        p = _constant_problem(kind, True)
        solve_rl_form(p)
        assert callers == []
        # the same problem without the multiplier: the march applies it, and this test sees it
        callers.clear()
        solve_rl_form(_stripped(p))
        assert "apply_rows" in callers


def test_complex_forcing_marches_by_modes(monkeypatch):
    # the operator is real, so complex data cross the march by modes as two real fields
    callers = _apply_callers(monkeypatch)
    complex_forcing = _constant_problem("riesz", True, forcing_offset=1e-3j)
    assert complex_forcing.action.multiplier is not None
    report = solve_rl_form(complex_forcing)
    assert report.metadata["arithmetic"] == "complex" and callers == []
    assert report.metadata["march"] == "modes" and report.metadata["series_levels"] == 0
    # the stripped problem's march and base apply the operator term by term,
    # not on the half spectrum, so it differs in the last bits only
    stripped = solve_rl_form(_stripped(complex_forcing))
    assert stripped.metadata["march"] == "series" and "apply_rows" in callers
    assert list(map(len, stripped.contraction_history)) == list(map(len, report.contraction_history))
    scale = np.abs(report.trajectory).max()
    assert np.abs(stripped.trajectory - report.trajectory).max() <= 1e-13 * scale


def _recorded_complex_transforms(monkeypatch):
    """Record the axis of every np.fft.fft and np.fft.ifft call."""
    axes = []
    for name in ("fft", "ifft"):
        transform = getattr(np.fft, name)

        def recorded(a, n=None, axis=-1, norm=None, transform=transform):
            axes.append(axis % np.ndim(a))
            return transform(a, n, axis, norm)

        monkeypatch.setattr(np.fft, name, recorded)
    return axes


@pytest.mark.parametrize("solve", [solve_kernel_form, solve_rl_form])
@pytest.mark.parametrize("coefficient", ["constant", "variable"])
def test_complex_data_cross_no_complex_spatial_transform(monkeypatch, solve, coefficient):
    p = _constant_problem("riesz", True, forcing_offset=1e-3j)
    if coefficient == "variable":
        grid = p.grid
        op = build_operator("riesz", 1.5, 1.0 + 0.25 / np.cosh(grid.x), make_mollifier("bump", 1.0, grid), grid)
        p = dataclasses.replace(p, operator=op)
    axes = _recorded_complex_transforms(monkeypatch)
    report = solve(p)
    assert report.converged and report.metadata["arithmetic"] == "complex"
    # only the march by modes transforms along time, axis 0 of its (nodes, modes) columns
    assert set(axes) == ({0} if solve is solve_rl_form and coefficient == "constant" else set())


@pytest.mark.parametrize("offset", [0.0, 1e-3j])
@pytest.mark.parametrize("kind", KINDS)
def test_kernel_form_on_the_half_spectrum_matches_the_physical_march(monkeypatch, kind, offset):
    # every block of these meshes folds, so on the multiplier no sweep applies the operator
    callers = _apply_callers(monkeypatch)
    p = _constant_problem(kind, True, forcing_offset=offset)
    spectral = solve_kernel_form(p)
    assert callers == []
    physical = solve_kernel_form(_stripped(p))
    assert "apply_rows" in callers
    assert spectral.converged and physical.converged
    assert spectral.metadata == physical.metadata and spectral.metadata["volterra_blocks"] > 2
    assert spectral.metadata["arithmetic"] == ("real" if offset == 0.0 else "complex")
    scale = np.abs(physical.trajectory).max()
    assert np.abs(spectral.trajectory - physical.trajectory).max() <= 1e-12 * scale


def _switching(u):
    """A nonlinearity whose output is complex on real states and real on complex ones."""
    return 0.3 * np.sin(u.real) if np.iscomplexobj(u) else (0.3 + 0.2j) * np.sin(u)


def test_a_nonlinearity_that_changes_dtype_widens_the_half_spectrum_march():
    # the first sweep's complex f(u) makes the chain complex; the next sweep's f(u) is real
    # again and must meet the chain with a zero imaginary part, as numpy's promotion gives
    f = nonlinearity_from_callable(_switching, "switching")
    p = dataclasses.replace(_constant_problem("riesz", True), nonlinearity=f)
    spectral, physical = solve_kernel_form(p), solve_kernel_form(_stripped(p))
    assert spectral.metadata == physical.metadata and spectral.metadata["arithmetic"] == "complex"
    scale = np.abs(physical.trajectory).max()
    assert np.abs(spectral.trajectory - physical.trajectory).max() <= 1e-12 * scale


@pytest.mark.parametrize("k", [4, 12])
def test_only_cold_blocks_apply_the_operator(monkeypatch, k):
    # a sweep-ladder rung: the head block runs its series cold, every later block folds on the half spectrum
    p = _bench_problem("sweep-ladder", run_k=k)
    applies = []
    apply_rows = LinearAction.apply_rows

    def recorded(self, rows):
        applies.append(sys._getframe(1).f_code.co_name)
        return apply_rows(self, rows)

    monkeypatch.setattr(LinearAction, "apply_rows", recorded)
    chains = _recorded_mode_chains(monkeypatch)
    report = solve_kernel_form(p)
    head_sweeps = len(report.contraction_history[0])
    assert report.converged and report.metadata["cold_blocks"] == 1
    assert set(applies) == {"_chain"} and len(applies) == head_sweeps * report.metadata["series_levels"]
    assert len(chains) == report.sweeps - head_sweeps
    # one level per refresh in physical space needs more sweeps to the same fixed point
    physical = solve_kernel_form(_stripped(p))
    assert physical.metadata == report.metadata and physical.sweeps > report.sweeps
    scale = np.abs(physical.trajectory).max()
    assert np.abs(report.trajectory - physical.trajectory).max() <= 1e-9 * scale


def test_the_stop_test_skips_the_candidate_norm_past_a_solved_size_of_one(monkeypatch):
    # sweep-ladder rows are of size about 1.9: past the head block every sweep takes one norm, not two
    p = _bench_problem("sweep-ladder", run_k=8)
    norms = []
    row_sup = duhamel._row_sup
    monkeypatch.setattr(duhamel, "_row_sup", lambda arr, weight: norms.append(1) or row_sup(arr, weight))
    report = solve_kernel_form(p)
    skipping = len(norms)
    norms.clear()

    def every(solved, candidate, weight):
        return max(solved, duhamel._row_sup(candidate, weight))

    monkeypatch.setattr(duhamel, "_stop_size", every)
    every_norm = solve_kernel_form(p)
    assert report.metadata["volterra_blocks"] > 2 and _same_report(report, every_norm)
    head_sweeps = len(report.contraction_history[0])
    assert len(norms) - skipping == report.sweeps - head_sweeps


def test_a_derivative_solve_builds_no_order_two_weight_row(monkeypatch):
    orders = []
    build = fractional.pi_weights

    def recording(gamma_ord, *args):
        orders.append(gamma_ord)
        return build(gamma_ord, *args)

    monkeypatch.setattr(duhamel, "pi_weights", recording)
    monkeypatch.setattr(fractional, "pi_weights", recording)
    for p in (_bench_problem("run-derivative"), _stripped(_constant_problem("riesz", True))):
        orders.clear()
        assert solve_rl_form(p).converged
        assert p.alpha in orders and 2.0 not in orders


def _homogeneous_problems():
    """f = 0 and no forcing on a multiplier (real and complex data), a variable-coefficient, a scalar and a matrix operator."""
    grid = SpatialGrid(16.0, 64)
    mesh = TimeMesh(1.0, 150)
    moll = make_mollifier("bump", 1.0, grid)
    u0 = np.exp(-(grid.x**2) / 4.0)
    problems = {}
    for name, coeff in (("multiplier", np.full(grid.n_points, 0.1)), ("variable", 1.0 + 0.25 / np.cosh(grid.x))):
        op = build_operator("riesz", 1.5, coeff, moll, grid)
        problems[name] = CauchyProblem(
            ALPHA, op, zero_nonlinearity(), u0, mesh, initial_velocity=0.5 * u0, grid=grid
        )
    # complex data on the multiplier: the operator still acts on the half spectrum, part by part
    problems["complex"] = dataclasses.replace(problems["multiplier"], initial_data=(1.0 + 0.5j) * u0)
    data, velocity = np.array([1.0, -2.0]), np.array([0.3, 0.0])
    problems["scalar"] = CauchyProblem(ALPHA, -0.5, zero_nonlinearity(), data, mesh, initial_velocity=velocity)
    a_mat = np.array([[-1.0, 0.3], [0.2, -0.5]])
    problems["matrix"] = CauchyProblem(ALPHA, a_mat, zero_nonlinearity(), data, mesh, initial_velocity=velocity)
    return problems


def _operator_callers(monkeypatch, p):
    """p with every apply of its operator recorded by caller name, and every LinearAction.apply_rows call too."""
    callers = []
    action = p.action

    def apply(values):
        callers.append(sys._getframe(1).f_code.co_name)
        return action.apply(values)

    apply_rows = LinearAction.apply_rows

    def recorded_rows(self, rows):
        callers.append(sys._getframe(1).f_code.co_name)
        return apply_rows(self, rows)

    monkeypatch.setattr(LinearAction, "apply_rows", recorded_rows)
    return dataclasses.replace(p, operator=dataclasses.replace(action, apply=apply)), callers


def _skip_off(monkeypatch):
    """Take the zero-memory skip away: every block and sweep runs its full march."""
    monkeypatch.setattr(duhamel, "_all_zero", lambda *arrays: False)


def _same_report(a, b):
    return (
        a.trajectory.dtype == b.trajectory.dtype
        and a.trajectory.tobytes() == b.trajectory.tobytes()
        and a.contraction_history == b.contraction_history
        and a.metadata == b.metadata
        and a.unconverged_rows == b.unconverged_rows
    )


def _series_marches(names):
    """(name, solve) pairs whose march sums the series: all but a multiplier's, whatever the data.

    On a multiplier the derivative form marches by modes, and every block of
    the kernel form on these meshes folds and runs on the half spectrum.
    """
    return [
        (name, solve)
        for solve in (solve_kernel_form, solve_rl_form)
        for name in names
        if name not in ("multiplier", "complex")
    ]


def _recorded_mode_marches(monkeypatch):
    """Record every call of the march by modes."""
    calls = []
    march = duhamel._mode_volterra

    def recorded(*args):
        calls.append(args[-1].shape)
        return march(*args)

    monkeypatch.setattr(duhamel, "_mode_volterra", recorded)
    return calls


@pytest.mark.parametrize("name, solve", _series_marches(["multiplier", "complex", "variable", "scalar", "matrix"]))
def test_a_homogeneous_solve_applies_only_its_propagator(monkeypatch, solve, name):
    p, callers = _operator_callers(monkeypatch, _homogeneous_problems()[name])
    report = solve(p)
    # a multiplier's propagator powers take the half spectrum, never the operator, whatever the data
    on_modes = name in ("multiplier", "complex")
    assert report.converged and (callers == [] if on_modes else set(callers) == {"ml_trajectory"})
    # the same solve without the skip marches the series, and this test sees it
    callers.clear()
    _skip_off(monkeypatch)
    full = solve(p)
    assert "_chain" in callers
    assert _same_report(report, full)


def _recorded_mode_chains(monkeypatch):
    """Record, per _mode_chain call: (cold start, g^ zero, h^ zero, weight products made)."""
    calls, products = [], []
    chain, product = duhamel._mode_chain, duhamel._weights_product
    monkeypatch.setattr(duhamel, "_weights_product", lambda *args: products.append(1) or product(*args))

    def recorded(lam, w_bb, h_hat, g_hat, y_hat):
        before = len(products)
        out = chain(lam, w_bb, h_hat, g_hat, y_hat)
        calls.append((y_hat is None, not np.any(g_hat), not np.any(h_hat), len(products) - before))
        return out

    monkeypatch.setattr(duhamel, "_mode_chain", recorded)
    return calls


@pytest.mark.parametrize("name", ["multiplier", "complex"])
def test_a_homogeneous_kernel_solve_on_a_multiplier_applies_only_its_propagator(monkeypatch, name):
    p, callers = _operator_callers(monkeypatch, _homogeneous_problems()[name])
    chains = _recorded_mode_chains(monkeypatch)
    report = solve_kernel_form(p)
    # every block folds and marches on the half spectrum; every memory is zero,
    # so each block's one sweep is a cold start that makes no product
    assert report.converged and callers == [] and report.metadata["cold_blocks"] == 0
    assert len(chains) == report.sweeps == report.metadata["volterra_blocks"]
    assert all(cold and g_zero and h_zero and products == 0 for cold, g_zero, h_zero, products in chains)
    # the same solve without the skip runs the chain's products, and this test sees it
    chains.clear()
    _skip_off(monkeypatch)
    full = solve_kernel_form(p)
    assert callers == [] and chains and all(products > 0 for *_, products in chains)
    assert _same_report(report, full)


def test_a_homogeneous_derivative_solve_on_a_multiplier_applies_only_its_propagator(monkeypatch):
    p, callers = _operator_callers(monkeypatch, _homogeneous_problems()["multiplier"])
    marches = _recorded_mode_marches(monkeypatch)
    report = solve_rl_form(p)
    # every memory is zero: no sweep marches, and the propagator's powers take the half spectrum
    assert report.converged and callers == [] and marches == []
    assert report.metadata["march"] == "modes"
    # the same solve without the skip marches by modes on every sweep, and applies nothing
    _skip_off(monkeypatch)
    full = solve_rl_form(p)
    assert callers == [] and len(marches) == full.sweeps
    assert _same_report(report, full)


def _one_row_forcing(p, rows):
    forcing = np.zeros((p.mesh.n_nodes,) + p.initial_data.shape)
    forcing[rows] = 0.3 * np.cos(np.arange(p.initial_data.size)).reshape(p.initial_data.shape)
    return dataclasses.replace(p, forcing=forcing)


def _recorded_chains(monkeypatch):
    """Record, per _chain call: (cold start, g zero, h zero, operator applies made)."""
    calls, applies = [], []
    chain, apply_rows = duhamel._chain, LinearAction.apply_rows
    monkeypatch.setattr(LinearAction, "apply_rows", lambda self, rows: applies.append(1) or apply_rows(self, rows))

    def recorded(action, w_bb, h, g, y, levels, rows_shape):
        before = len(applies)
        out = chain(action, w_bb, h, g, y, levels, rows_shape)
        calls.append((y is None, not np.any(g), not np.any(h), len(applies) - before))
        return out

    monkeypatch.setattr(duhamel, "_chain", recorded)
    return calls


@pytest.mark.parametrize("name", ["variable", "matrix"])
def test_a_zero_block_with_a_history_still_runs_its_series(monkeypatch, name):
    # forcing on the head block's rows only: every later block starts cold on
    # g = 0, but its history is not zero, so its memory is not
    p = _one_row_forcing(_homogeneous_problems()[name], slice(0, 10))
    calls = _recorded_chains(monkeypatch)
    report = solve_kernel_form(p)
    cold_on_history = [applies for cold, g_zero, h_zero, applies in calls if cold and g_zero and not h_zero]
    assert report.metadata["volterra_blocks"] > 2 and cold_on_history and min(cold_on_history) >= 1
    _skip_off(monkeypatch)
    assert _same_report(report, solve_kernel_form(p))


@pytest.mark.parametrize("name, solve", _series_marches(["multiplier", "complex", "variable", "matrix"]))
def test_one_nonzero_forcing_row_runs_the_series_and_matches_the_full_march(monkeypatch, solve, name):
    p, callers = _operator_callers(monkeypatch, _one_row_forcing(_homogeneous_problems()[name], 100))
    report = solve(p)
    applies = len(callers)
    assert report.converged and "_chain" in callers
    # the rows before the forcing row skip their series: the full march applies more
    callers.clear()
    _skip_off(monkeypatch)
    full = solve(p)
    assert len(callers) > applies
    assert _same_report(report, full)


@pytest.mark.parametrize("name", ["multiplier", "complex"])
def test_one_nonzero_forcing_row_runs_the_mode_chain_and_matches_the_full_march(monkeypatch, name):
    p = _one_row_forcing(_homogeneous_problems()[name], 100)
    physical = solve_kernel_form(_stripped(p))
    p, callers = _operator_callers(monkeypatch, p)
    chains = _recorded_mode_chains(monkeypatch)
    report = solve_kernel_form(p)
    # the head block skips its products; the block holding row 100 and the one after it run them
    assert report.converged and callers == [] and report.metadata["cold_blocks"] == 0
    assert chains[0] == (True, True, True, 0) and chains[-1][-1] > 0
    products = sum(made for *_, made in chains)
    chains.clear()
    _skip_off(monkeypatch)
    full = solve_kernel_form(p)
    assert sum(made for *_, made in chains) > products
    assert _same_report(report, full)
    # without the multiplier the same plan folds in physical space
    assert physical.metadata == report.metadata
    scale = np.abs(physical.trajectory).max()
    assert np.abs(report.trajectory - physical.trajectory).max() <= 1e-12 * scale


def test_one_nonzero_forcing_row_on_a_multiplier_marches_by_modes_and_matches_the_full_march(monkeypatch):
    p = _one_row_forcing(_homogeneous_problems()["multiplier"], 100)
    physical = solve_rl_form(_stripped(p))
    p, callers = _operator_callers(monkeypatch, p)
    marches = _recorded_mode_marches(monkeypatch)
    report = solve_rl_form(p)
    modes = p.grid.n_points // 2 + 1
    assert report.converged and callers == [] and marches == [(p.mesh.n_nodes, modes)] * report.sweeps
    assert report.metadata["march"] == "modes"
    _skip_off(monkeypatch)
    assert _same_report(report, solve_rl_form(p))
    # the physical march sums the series on the same rows
    assert physical.metadata["march"] == "series"
    scale = np.abs(physical.trajectory).max()
    assert np.abs(report.trajectory - physical.trajectory).max() <= 1e-14 * scale


@pytest.mark.parametrize("form", ["kernel", "derivative"])
def test_signed_zero_data_write_the_full_marchs_bytes(tmp_path, monkeypatch, form):
    # displacement -0.0 * bump: the initial data are -0.0 cells, and every
    # memory is zero, so every block and sweep skips its series
    cfg = tmp_path / "case.cfg"
    cfg.write_text(
        f"[grid]\nn_points = 128\n[mesh]\nn_steps = 80\n[initial]\ndisplacement_scale = -0.0\n[solver]\nform = {form}\n",
        encoding="utf-8",
    )
    data = assemble_scenario(parse_config_file(cfg)).problem.initial_data
    assert not np.any(data) and np.signbit(data).all()
    outputs = []
    for skip in (True, False):
        if not skip:
            _skip_off(monkeypatch)
        out = tmp_path / f"skip_{skip}"
        assert entrypoint(["run", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
        (run_dir,) = out.iterdir()
        outputs.append((run_dir / "trajectory.csv").read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("operator", [-0.5, 0.5, np.array([[-1.0, 0.3], [0.2, -0.5]])])
def test_a_skipped_chain_returns_the_full_chains_memory_bit_for_bit(monkeypatch, operator):
    # g = f(u) of -0.0 cells is -0.0, and so is A y for a negative scalar; the
    # chain's sums still give +0 rows, and the skip must return those, not -0.0
    action = as_action(operator)
    w_bb = pi_weights(ALPHA, 20, 0.05, 10, 20)[:, 10:]
    g = np.full((10, 2), -0.0)
    for h in (0.0, np.full((10, 2), -0.0), np.zeros((10, 2))):
        y, _ = duhamel._chain(action, w_bb, h, g, None, 3, (10, 2))
        with monkeypatch.context() as m:
            _skip_off(m)
            full, _ = duhamel._chain(action, w_bb, h, g, None, 3, (10, 2))
        assert y.dtype == full.dtype and y.tobytes() == full.tobytes()
        assert not np.signbit(y).any()


def test_a_kernel_form_solve_builds_each_weight_row_once(monkeypatch):
    # sweep-ladder's rungs keep blocks of 30-38 rows after a 64-row head; each
    # block builds its own rows, and planning builds none
    rows = _recorded_weight_rows(monkeypatch)
    for k in (4, 8, 12):
        rows.clear()
        p = _bench_problem("sweep-ladder", run_k=k)
        report = solve_kernel_form(p)
        assert report.metadata["volterra_blocks"] > 5
        assert sum(rows) == p.mesh.n_nodes


@pytest.mark.parametrize("dtype", [float, complex])
def test_row_sup_is_the_conjugate_product_formula_bit_for_bit(dtype):
    rng = np.random.Generator(np.random.Philox(key=0xD5))
    for shape in [(33, 256), (7, 4, 65), (1, 1)]:
        arr = rng.standard_normal(shape) * np.exp(rng.uniform(-300.0, 300.0, shape))
        if dtype is complex:
            arr = arr + 1j * rng.standard_normal(shape)
        flat = arr.reshape(shape[0], -1)
        old = float(np.sqrt(0.3) * np.sqrt(np.add.reduce((flat.conj() * flat).real, axis=1)).max())
        assert duhamel._row_sup(arr, 0.3) == old
