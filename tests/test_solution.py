"""Propagator family: truncated operator series and diagnostics."""

import math
import warnings

import numpy as np
import pytest

from fracwave import (
    LinearAction,
    MlParams,
    SingularOrderError,
    SizeError,
    TimeMesh,
    as_action,
    caputo_derivative,
    exp_bound_check,
    generator_recovery,
    mittag_leffler,
    ml_trajectory,
    parse_config,
    volterra_residual,
)
from fracwave.cli import assemble_scenario


def _symmetric(dim, key):
    rng = np.random.Generator(np.random.Philox(key=key))
    a = rng.standard_normal((dim, dim))
    a = 0.5 * (a + a.T)
    return a / np.linalg.norm(a, 2), rng.standard_normal(dim)


def test_action_wrapping():
    act = as_action(0.5)
    assert act.norm_bound == 0.5
    assert act.apply(np.array([2.0]))[0] == 1.0
    mat, _ = _symmetric(5, 0xA1)
    act_m = as_action(mat)
    assert abs(act_m.norm_bound - 1.0) <= 1e-12
    with pytest.raises(SizeError):
        as_action(np.ones((2, 3)))
    with pytest.raises(TypeError):
        as_action(lambda v: 2 * v)  # a bare map has no bound to infer
    act_c = LinearAction(lambda v: 2 * v, 2.0, None)
    assert as_action(act_c) is act_c


def _dense(op):
    """The operator's matrix: its action on the basis vectors."""
    return op.apply(np.eye(op.dim)).T


HEAVY_OPERATOR = "[grid]\nhalf_length = 16.0\nn_points = 512\n[operator]\ncoefficient = 1 + 0.25*sech(x)\n[schedule]\nrun_k = 8\n"


@pytest.mark.parametrize("text", ["", HEAVY_OPERATOR])
def test_regularized_norm_bound_is_an_upper_bound(text):
    op = assemble_scenario(parse_config(text)).problem.operator
    exact = np.linalg.norm(_dense(op), 2)
    # equality holds for a constant coefficient; the SVD itself rounds at ~1e-15
    assert as_action(op).norm_bound >= exact * (1.0 - 1e-13)


def test_power_iteration_approaches_the_norm_from_below():
    op = assemble_scenario(parse_config("")).problem.operator
    exact = np.linalg.norm(_dense(op), 2)
    estimate = op.norm_estimate().value
    assert estimate == pytest.approx(15.63707, abs=1e-5) and exact == pytest.approx(15.64072, abs=1e-5)
    assert estimate < exact


def test_series_matches_eigendecomposition():
    mat, vec = _symmetric(6, 0xB0)
    lam, Q = np.linalg.eigh(mat)
    t = 1.7
    p = MlParams(1.5, 1.0)
    oracle = Q @ (
        np.array([mittag_leffler(p, complex(l) * t**1.5) for l in lam]) * (Q.T @ vec)
    )
    val = ml_trajectory(1.5, 1.0, mat, vec, np.array([t]))[0]
    assert np.linalg.norm(val - oracle) <= 1e-8


def test_trajectory_consistent_with_single_applies():
    # each single apply sizes its truncation at its own time, so agreement
    # with the ladder (sized at the largest time) is to rounding
    mat, vec = _symmetric(4, 0xB1)
    times = np.linspace(0.0, 2.0, 9)
    rows = ml_trajectory(1.5, 1.0, mat, vec, times)
    for k in range(times.size):
        assert np.max(np.abs(rows[k] - ml_trajectory(1.5, 1.0, mat, vec, times[k : k + 1])[0])) <= 1e-10


def test_series_order_validation():
    vec = np.ones(3)
    mat = np.eye(3)
    with pytest.raises(SingularOrderError):
        ml_trajectory(2.5, 1.0, mat, vec, np.array([1.0]))
    with pytest.raises(SingularOrderError):
        ml_trajectory(1.5, 0.0, mat, vec, np.array([1.0]))
    with pytest.raises(ValueError):
        ml_trajectory(1.5, 1.0, mat, vec, np.array([-1.0]))


def test_evaluator_identity_at_zero():
    mat, vec = _symmetric(5, 0xB2)
    out0 = ml_trajectory(1.5, 1.0, mat, vec, np.array([0.0]))[0]
    assert np.max(np.abs(out0 - vec)) == 0.0
    at = np.array([0.8])
    assert np.array_equal(ml_trajectory(1.5, 1.0, mat, vec, at), ml_trajectory(1.5, 1.0, mat, vec, at))


def test_volterra_defect_refines():
    op = 0.5
    x = np.array([1.0])
    res = [volterra_residual(1.5, op, TimeMesh(2.0, n), x) for n in (256, 512)]
    assert res[0] <= 1e-5
    assert res[1] < res[0]


def test_caputo_diagnostic_interior_decay():
    # D^alpha S(t)x = A S(t)x, checked on t >= T/4: near the origin the
    # t**alpha leading power leaves an O(1) stencil error that never refines
    # away, while on the interior window the deviation decays like
    # dt**(alpha - 1), a factor 2**-0.5 per halving of the step
    dev = []
    for n in (128, 256):
        mesh = TimeMesh(1.0, n)
        traj = ml_trajectory(1.5, 1.0, 0.5, np.array([1.0]), mesh.nodes)
        gap = caputo_derivative(traj, 1.5, mesh) - 0.5 * traj
        dev.append(float(np.max(np.abs(gap[n // 4 :]))))
    assert dev[1] < 0.75 * dev[0]


def test_generator_recovery_rate_and_floor():
    mat, vec = _symmetric(8, 0xB0)
    # moderate times measure the genuine t^alpha rate of the next term
    probe = generator_recovery(1.5, mat, vec, 2.0 ** -np.arange(2, 10, dtype=float))
    assert abs(probe.rate - 1.5) <= 0.1
    assert np.all(probe.errors > 0.0)
    # a deep ladder reaches the certified-truncation floor
    deep = generator_recovery(1.5, mat, vec, 2.0 ** -np.arange(5, 14, dtype=float))
    assert deep.errors[-1] <= 1e-6


@pytest.mark.parametrize(
    "ladder, error",
    [([0.5, 0.25, 0.0], ValueError), ([0.25, 0.5], ValueError), ([0.5], SizeError)],
)
def test_generator_recovery_rejects_a_bad_ladder_before_solving(capfd, ladder, error):
    mat, vec = _symmetric(8, 0xB0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match="ladder"):
            generator_recovery(1.5, mat, vec, np.array(ladder))
    assert capfd.readouterr() == ("", "")


def test_exponential_bound_dominates_samples():
    mat, _ = _symmetric(2, 0xB3)
    times = np.linspace(0.0, 3.0, 16)
    bound = exp_bound_check(1.5, mat, times)
    assert bound.omega == as_action(mat).norm_bound ** (1.0 / 1.5)
    assert bound.m_factor >= 1.0 - 1e-12
    envelope = bound.m_factor * np.exp(bound.omega * times)
    assert np.all(bound.norms <= envelope * (1.0 + 1e-12))
    with pytest.raises(SizeError):
        exp_bound_check(1.5, mat, np.array([]))
    with pytest.raises(ValueError):
        exp_bound_check(1.5, mat, np.array([-1.0]))
    # exact norms only: a generator above 64 dimensions is refused
    with pytest.raises(SizeError):
        exp_bound_check(1.5, 0.01 * np.eye(65), times)
