"""Sectioned key=value configs: defaults, diagnostics, canonical form."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracwave import (
    ConfigError,
    EpsilonSchedule,
    RunConfig,
    SolverOptions,
    cli,
    config_hash,
    parse_config,
    parse_config_file,
    render_config,
)


def test_empty_document_is_complete():
    cfg = parse_config("")
    assert cfg.alpha == 1.5
    assert cfg.half_length == 16.0 and cfg.n_points == 256
    assert cfg.horizon == 1.0 and cfg.n_steps == 256
    assert cfg.mollify is True
    assert cfg.run_k == 8 and cfg.k_min == 4 and cfg.k_max == 12
    assert cfg.kappa == 2.0 and cfg.kappa_cap == 60.0
    assert cfg.noise_intensity == 0.0
    assert cfg.solver_form == "kernel"
    assert cfg.output_directory == "runs"


def test_scenario_selects_operator_kind():
    assert parse_config("").resolved_operator_kind() == "second_derivative"
    cfg = parse_config("[run]\nscenario = time_space_fractional\n[operator]\nspace_order = 1.5\n")
    assert cfg.resolved_operator_kind() == "riesz"
    explicit = parse_config("[operator]\nkind = liouville_left\nspace_order = 1.5\n")
    assert explicit.resolved_operator_kind() == "liouville_left"


def test_mollified_fractional_kinds_default_to_order_one_and_a_half():
    # the order-2 default stays for the second derivative and the sharp kinds,
    # so the default config renders and hashes as before
    assert parse_config("").space_order == 2.0
    assert render_config(parse_config("")) == render_config(RunConfig())
    for doc in ("[run]\nscenario = time_space_fractional\n", "[operator]\nkind = liouville_right\n"):
        cfg = parse_config(doc)
        assert cfg.space_order == 1.5
        assert parse_config(render_config(cfg)) == cfg
    assert parse_config("[operator]\nkind = riesz\nmollify = false\n").space_order == 2.0
    assert parse_config("[operator]\nkind = riesz\nspace_order = 0.5\n").space_order == 0.5


def test_render_parse_round_trip():
    text = """
[run]
alpha = 1.7
label = roundtrip
[noise]
intensity = 0.05
master_seed = 7
temporal_sharpness = 16.0
[nonlinearity]
f = 0.1*sin(u)
"""
    cfg = parse_config(text)
    again = parse_config(render_config(cfg))
    assert again == cfg
    assert config_hash(again) == config_hash(cfg)
    assert render_config(again) == render_config(cfg)


# (section, key, a valid non-default value, RunConfig field) for every key
EVERY_KEY = [
    ("run", "scenario", "time_space_fractional", "scenario"),
    ("run", "alpha", "1.7", "alpha"),
    ("run", "label", "other", "label"),
    ("grid", "half_length", "12.5", "half_length"),
    ("grid", "n_points", "128", "n_points"),
    ("mesh", "horizon", "0.75", "horizon"),
    ("mesh", "n_steps", "100", "n_steps"),
    ("operator", "kind", "riesz", "operator_kind"),
    ("operator", "space_order", "1.5", "space_order"),
    ("operator", "coefficient", "1+0.25*sech(x)", "coefficient"),
    ("operator", "coefficient_scale", "2.0", "coefficient_scale"),
    ("operator", "mollify", "false", "mollify"),
    ("schedule", "scenario", "theorem", "schedule_scenario"),
    ("schedule", "k_min", "5", "k_min"),
    ("schedule", "k_max", "10", "k_max"),
    ("schedule", "run_k", "6", "run_k"),
    ("schedule", "kappa", "3.0", "kappa"),
    ("schedule", "kappa_cap", "50.0", "kappa_cap"),
    ("schedule", "h_min", "0.5", "h_min"),
    ("schedule", "coeff_width_factor", "1.5", "coeff_width_factor"),
    ("schedule", "mollifier_shape", "truncated_gaussian", "mollifier_shape"),
    ("initial", "displacement", "mode:3", "displacement"),
    ("initial", "displacement_scale", "0.5", "displacement_scale"),
    ("initial", "velocity", "tanh_step", "velocity"),
    ("initial", "velocity_scale", "0.25", "velocity_scale"),
    ("nonlinearity", "f", "0.5*sin(u)", "nonlinearity"),
    ("noise", "intensity", "0.1", "noise_intensity"),
    ("noise", "master_seed", "9", "master_seed"),
    ("noise", "target", "both", "noise_target"),
    ("noise", "spatial_sharpness", "4.0", "spatial_sharpness"),
    ("noise", "temporal_sharpness", "8.0", "temporal_sharpness"),
    ("noise", "shape", "truncated_gaussian", "noise_shape"),
    ("solver", "form", "derivative", "solver_form"),
    ("solver", "tol", "1e-9", "solver_tol"),
    ("solver", "max_iter", "30", "max_iter"),
    ("output", "directory", "elsewhere", "output_directory"),
]


def test_every_key_round_trips():
    assert [attr for *_, attr in EVERY_KEY] == [f.name for f in dataclasses.fields(RunConfig)]
    default = parse_config("")
    for section, key, text, attr in EVERY_KEY:
        doc = f"[{section}]\n{key} = {text}\n"
        if (section, key) in (("run", "scenario"), ("operator", "kind")):
            doc += "[operator]\nspace_order = 1.5\n"  # a mollified fractional kind needs an order below 2
        cfg = parse_config(doc)
        assert getattr(cfg, attr) != getattr(default, attr), (section, key)
        assert f"[{section}]" in render_config(cfg)
        assert parse_config(render_config(cfg)) == cfg, (section, key)


def test_default_hash_is_pinned():
    # run-directory names embed this hash; a change here renames every run
    assert config_hash(parse_config("")) == "d270894be354bf0b"


def test_defaults_come_from_the_schedule_and_solver_classes():
    cfg = parse_config("")
    assert cli._build_schedule(cfg) == EpsilonSchedule(alpha=1.5)
    assert cli._solver_options(cfg) == SolverOptions()

def test_hash_tracks_content():
    a = parse_config("[run]\nalpha = 1.5\n")
    b = parse_config("[run]\nalpha = 1.6\n")
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 16


def test_issues_are_aggregated_with_lines():
    text = "\n".join(
        [
            "[run]",            # 1
            "alpha = fast",     # 2: bad float
            "label = a",        # 3
            "label = b",        # 4: duplicate of a cleanly parsed key
            "mystery = 3",      # 5: unknown key
            "[conduction]",     # 6: unknown section
            "x = 1",            # 7: key under no recognized section
            "[grid]",           # 8
            "n_points = 100",   # 9: parses as int; power-of-two is a grid rule
            "stray text",       # 10: not a key = value line
        ]
    )
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    lines = [line for line, _ in err.value.issues if line is not None]
    for expected in (2, 4, 5, 6, 7, 10):
        assert expected in lines
    assert 3 not in lines and 9 not in lines


def test_key_outside_section():
    with pytest.raises(ConfigError) as err:
        parse_config("alpha = 1.5\n")
    assert err.value.issues[0][0] == 1


def test_semantic_checks():
    with pytest.raises(ConfigError, match="alpha < 2"):
        parse_config("[run]\nalpha = 2.0\n")
    # the limit order is allowed once the width schedule is out of the way
    cfg = parse_config("[run]\nalpha = 2.0\n[operator]\nmollify = false\n")
    assert cfg.alpha == 2.0
    with pytest.raises(ConfigError):
        parse_config("[operator]\nmollify = false\ncoefficient = 1+0.25*sech(x)\n")
    with pytest.raises(ConfigError):
        parse_config("[schedule]\nk_min = 6\nk_max = 8\nrun_k = 4\n")


def test_choice_and_bool_forms():
    cfg = parse_config("[operator]\nmollify = off\n[run]\nalpha = 1.9\n")
    assert cfg.mollify is False
    cfg2 = parse_config("[operator]\nmollify = YES\n")
    assert cfg2.mollify is True
    with pytest.raises(ConfigError):
        parse_config("[operator]\nmollify = maybe\n")
    with pytest.raises(ConfigError):
        parse_config("[solver]\nform = spectral\n")


def test_config_file_loading(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text("[run]\nalpha = 1.25\nlabel = fromfile\n", encoding="utf-8")
    cfg = parse_config_file(str(path))
    assert cfg.alpha == 1.25 and cfg.label == "fromfile"


def test_replace_keeps_frozen_semantics():
    cfg = parse_config("")
    bumped = dataclasses.replace(cfg, master_seed=99)
    assert bumped.master_seed == 99 and cfg.master_seed == 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.alpha = 1.9


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    alpha=st.floats(1.05, 1.95),
    seed=st.integers(0, 2**31 - 1),
    sigma=st.floats(0.0, 1.0),
)
def test_round_trip_property(alpha, seed, sigma):
    text = f"[run]\nalpha = {alpha!r}\n[noise]\nintensity = {sigma!r}\nmaster_seed = {seed}\n"
    cfg = parse_config(text)
    assert cfg.alpha == alpha and cfg.master_seed == seed
    assert parse_config(render_config(cfg)) == cfg
