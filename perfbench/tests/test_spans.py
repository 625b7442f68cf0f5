"""Tracer logic: self time, wrap-point resolution, a small traced CLI run.

Run from the root of a checkout: python3 -m pytest perfbench/tests
"""

import sys
import types

import pytest

from spans import MissingWrapPoint, Tracer, WrapPoint


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


@pytest.fixture
def fake_package():
    clock = Clock()
    pkg = types.ModuleType("fakepkg")
    core = types.ModuleType("fakepkg.core")
    user = types.ModuleType("fakepkg.user")

    def inner():
        clock.advance(2.0)
        return 7

    def outer(depth=0):
        clock.advance(1.0)
        core.inner()
        if depth == 0:
            core.outer(depth=1)
        clock.advance(3.0)

    core.inner, core.outer = inner, outer
    user.inner = inner  # a `from .core import inner` binding
    modules = {"fakepkg": pkg, "fakepkg.core": core, "fakepkg.user": user}
    sys.modules.update(modules)
    yield clock, core, user
    for name in modules:
        sys.modules.pop(name, None)


POINTS = (
    WrapPoint("fakepkg.core", "outer", "fake.outer"),
    WrapPoint("fakepkg.core", "inner", "fake.inner", info=lambda r: {"value": r}),
)


def test_self_time_subtracts_direct_children(fake_package):
    clock, core, _ = fake_package
    tracer = Tracer(clock=clock)
    tracer.install(POINTS, package="fakepkg")
    core.outer()
    tracer.uninstall()
    # outer(0): 1 + inner 2 + outer(1) [1 + 2 + 3] + 3 = 12; outer(1) = 6
    durations = [(s.group, s.duration) for s in tracer.spans]
    assert durations == [("fake.outer", 12.0), ("fake.inner", 2.0), ("fake.outer", 6.0), ("fake.inner", 2.0)]
    summary = tracer.summary()
    # the nested outer is inside the first, so inclusive time counts it once;
    # self time: outer(0) 12 - inner 2 - outer(1) 6 = 4, outer(1) 6 - 2 = 4
    assert summary["fake.outer"]["total"] == 12.0
    assert summary["fake.outer"]["self"] == 4.0 + 4.0
    assert summary["fake.inner"]["self"] == 4.0
    assert summary["fake.outer"]["calls"] == 2
    assert summary["fake.inner"]["total"] == 4.0
    assert summary["fake.inner"]["info"] == {"value": 14}


def test_every_binding_is_wrapped_and_restored(fake_package):
    clock, core, user = fake_package
    original = user.inner
    tracer = Tracer(clock=clock)
    tracer.install(POINTS, package="fakepkg")
    assert user.inner is core.inner and user.inner is not original
    user.inner()
    tracer.uninstall()
    assert user.inner is original and core.inner is original
    assert [s.group for s in tracer.spans] == ["fake.inner"]


def test_missing_wrap_point_is_reported_not_zeroed(fake_package):
    _, core, _ = fake_package
    original = core.outer
    points = POINTS + (WrapPoint("fakepkg.core", "renamed_away", "fake.gone"), WrapPoint("fakepkg.nope", "f", "x"))
    with pytest.raises(MissingWrapPoint) as info:
        Tracer().install(points, package="fakepkg")
    assert info.value.missing == ["fakepkg.core.renamed_away", "fakepkg.nope.f"]
    assert core.outer is original  # nothing patched when anything is missing


def test_wrap_points_resolve_in_the_package():
    import fracwave.cli
    import fracwave.duhamel
    from fracwave.regularization import RegularizedOperator

    originals = (fracwave.duhamel.ml_trajectory, fracwave.cli.solve_kernel_form, RegularizedOperator.apply)
    tracer = Tracer()
    tracer.install()
    try:
        # names imported into a caller's module are wrapped where the caller looks them up
        assert fracwave.duhamel.ml_trajectory is fracwave.solution.ml_trajectory
        assert fracwave.duhamel.ml_trajectory is not originals[0]
        assert fracwave.cli.solve_kernel_form is fracwave.duhamel.solve_kernel_form
        assert fracwave.cli.solve_kernel_form is not originals[1]
        assert fracwave.cli.white_noise_representative is fracwave.stochastic.white_noise_representative
        assert RegularizedOperator.apply is not originals[2]
    finally:
        tracer.uninstall()
    assert (fracwave.duhamel.ml_trajectory, fracwave.cli.solve_kernel_form, RegularizedOperator.apply) == originals


def test_traced_small_run_counts_every_solver_layer(tmp_path):
    import fracwave.cli

    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "[grid]\nn_points = 32\nhalf_length = 4.0\n[mesh]\nn_steps = 32\n"
        "[nonlinearity]\nf = 0.1*sin(u)\n[noise]\nintensity = 0.05\ntarget = both\n"
    )
    tracer = Tracer()
    tracer.install()
    try:
        rc = fracwave.cli.entrypoint(["run", "--config", str(cfg), "--out", str(tmp_path), "--quiet"])
    finally:
        tracer.uninstall()
    assert rc == 0
    m = tracer.layer_metrics()
    assert m["duhamel.picard_sweeps"] >= 2
    assert m["duhamel.series_levels"] >= 1
    assert m["duhamel.apply_rows_calls"] == m["duhamel.picard_sweeps"] * m["duhamel.series_levels"]
    assert m["fractional.weights_mb"] == pytest.approx(33 * 33 * 8 / 1e6)
    assert m["regularization.apply_rows"] >= m["duhamel.apply_rows_calls"] * 33
    assert m["regularization.power_iterations"] >= 2
    assert m["stochastic.noise_calls"] == 2
    assert m["stochastic.noise_cells"] == 33 * 32 + 32  # forcing field plus initial state
    assert m["solution.series_terms_max"] >= 1
    assert m["duhamel.solve_peak_mb"] > 0 and m["cli.write_peak_mb"] >= 0
    assert 0 < m["duhamel.solve_self_s"] < m["duhamel.solve_s"]
    assert 0 < m["cli.write_s"]
