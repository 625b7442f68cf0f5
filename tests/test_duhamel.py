"""Fixed-point solves of the forced problem in both representations."""

import dataclasses
import math

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
    cubic_saturating,
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
from fracwave import duhamel
from fracwave.duhamel import _block_plan, _fold_blocks, _picard, _plan_meta, _volterra

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


def _old_kernel_picard(p, opts):
    """The kernel form as whole-horizon Picard sweeps over 64-row blocks, in derived windows."""
    weights = pi_weights(p.alpha, p.mesh.n_nodes, p.mesh.dt)
    plan = _block_plan(p, p.alpha + 1.0)
    windows = _fold_blocks(p, weights, p.mesh.n_nodes)[0]
    return _picard(p, opts, windows, lambda g: _volterra(weights, p.action, g, plan)[0], "kernel", _plan_meta(plan))


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
    windowed = _old_kernel_picard(p, opts)
    assert windowed.converged and len(windowed.contraction_history) == 43
    assert np.max(np.abs(report.trajectory - windowed.trajectory)) <= 1e-9
    # the discrete system y = W (f(b + y) + A y) with A = 1
    y = report.trajectory - duhamel._base_trajectory(p)
    weights = pi_weights(ALPHA, mesh.n_nodes, mesh.dt)
    assert np.max(np.abs(y - weights @ (p.nonlinearity.fn(report.trajectory) + y))) <= 1e-9
    # the derivative form converges under default options in the kernel form's blocks
    rl = solve_rl_form(p)
    assert rl.converged and rl.metadata["windows"] == len(rl.contraction_history) == meta["volterra_blocks"]
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
    oracle = _old_kernel_picard(p, SolverOptions())
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
    oracle = _old_kernel_picard(p, SolverOptions())
    assert report.metadata["block_q_max"] > 0.5 and report.metadata["volterra_blocks"] == 1
    assert np.array_equal(report.trajectory, oracle.trajectory)
    assert report.contraction_history == oracle.contraction_history
    assert report.metadata["series_levels"] == oracle.metadata["series_levels"]


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


def test_divergence_detection():
    f = nonlinearity_from_callable(lambda v: v**3, "u^3")
    p = CauchyProblem(ALPHA, 1.0, f, np.array([3.0]), TimeMesh(2.0, 64))
    with pytest.raises(DivergenceError):
        solve_kernel_form(p)


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
    g = cubic_saturating(0.2)
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
    assert rep.perturbation_norm == 0.0
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
    assert p.state0.dtype == p.velocity0.dtype == p.forcing_values.dtype == np.float64
    report = solve(p)
    assert report.trajectory.dtype == np.float64
    assert report.metadata["arithmetic"] == "real"
    # the same data with an explicit complex dtype: held real all the same
    cast = _mollified_problem(
        kind, mesh, scaled_sine(0.5), p.state0.astype(complex), p.forcing_values.astype(complex)
    )
    assert cast.state0.dtype == cast.forcing_values.dtype == np.float64
    assert np.array_equal(solve(cast).trajectory, report.trajectory)
    # the complex path proper, reached through a nonzero imaginary part
    tiny = 1e-300j * np.ones(mesh.n_nodes)[:, None]
    full = solve(_mollified_problem(kind, mesh, scaled_sine(0.5), forcing=p.forcing_values + tiny))
    assert full.metadata["arithmetic"] == "complex"
    assert np.abs(full.trajectory - report.trajectory).max() <= 1e-12


@pytest.mark.parametrize("solve", [solve_kernel_form, solve_rl_form])
def test_liouville_problem_stays_complex(solve):
    mesh = TimeMesh(1.0, 100)
    p = _mollified_problem("liouville_left", mesh, scaled_sine(0.5))
    report = solve(p)
    assert report.metadata["arithmetic"] == "complex"
    assert np.abs(report.trajectory.imag).max() > 0.0


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
    full = solve(_mollified_problem("second_derivative", mesh, f, forcing=p.forcing_values + tiny))
    assert np.abs(full.trajectory - report.trajectory).max() <= 1e-12
