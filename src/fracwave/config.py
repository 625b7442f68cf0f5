"""Run configuration: a small sectioned key=value format.

The format is deliberately flat so every diagnostic can carry a line number:

    # comment
    [run]
    alpha = 1.5

    [operator]
    coefficient = 1 + 0.25*sech(x)

An empty document is a complete configuration; every key has a default.
All problems found in one document are reported together in a single
ConfigError rather than one at a time, except that a non-finite number
(``inf``, ``nan``) is reported on its own: the range checks run once every
number is finite, so none of them repeats it.

Profile values (coefficient, initial data) accept either an expression in
``x``, a named shape (a key of ``NAMED_PROFILES``, ``file:PATH``, and
``mode:K`` for initial data), each multiplied by the matching ``*_scale``
key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError
from .expressions import parse_expression
from .duhamel import SolverOptions
from .regularization import _KINDS, _MAX_LEVEL, _SCENARIOS, _SHAPES, EpsilonSchedule

__all__ = ["RunConfig", "parse_config", "parse_config_file", "render_config", "config_hash"]

# named profile -> its samples at the grid points x
NAMED_PROFILES = {
    "constant": np.ones_like,
    "zero": np.zeros_like,
    "gaussian_bump": lambda x: np.exp(-(x**2) / 8.0),
    "tanh_step": lambda x: 0.5 * (1.0 + np.tanh(x)),
}
# operator.space_order when unset for a mollified fractional kind
MOLLIFIED_FRACTIONAL_ORDER = 1.5


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float(text: str) -> float:
    return float(text)

def _parse_int(text: str) -> int:
    return int(text, 10)


def _parse_optional_float(text: str) -> Optional[float]:
    if not text.strip():
        return None
    return float(text)


def _choice(*options: str) -> Callable[[str], str]:
    def parse(text: str) -> str:
        value = text.strip()
        if value not in options:
            raise ValueError(f"expected one of {', '.join(options)}; got {value!r}")
        return value

    return parse


def _profile(allow_modes: bool) -> Callable[[str], str]:
    """Profiles are kept as source strings; here we only validate them."""

    def parse(text: str) -> str:
        value = text.strip()
        if value in NAMED_PROFILES:
            return value
        if value.startswith("file:"):
            if not value[5:].strip():
                raise ValueError("file: profile needs a path")
            return value
        if value.startswith("mode:"):
            if not allow_modes:
                raise ValueError("mode:K profiles are only valid for initial data")
            int(value[5:], 10)
            if math.isinf(float(value[5:])):
                raise ValueError("mode:K needs a wave number K within the double range")
            return value
        parse_expression(value, "x")
        return value

    return parse


def _nonlinearity(text: str) -> str:
    value = text.strip()
    if value == "zero":
        return value
    parse_expression(value, "u")
    return value


def _key(section: str, parse: Callable[[str], object], default, key: str = ""):
    """A RunConfig field read from ``key = value`` in ``[section]``.

    The key defaults to the field name; the field order is the rendering order.
    """
    return dataclasses.field(default=default, metadata={"section": section, "key": key, "parse": parse})


@dataclass(frozen=True)
class RunConfig:
    scenario: str = _key("run", _choice("time_fractional", "time_space_fractional"), "time_fractional")
    alpha: float = _key("run", _parse_float, 1.5)
    label: str = _key("run", str.strip, "run")
    half_length: float = _key("grid", _parse_float, 16.0)
    n_points: int = _key("grid", _parse_int, 256)
    horizon: float = _key("mesh", _parse_float, 1.0)
    n_steps: int = _key("mesh", _parse_int, 256)
    # blank kind defers to the scenario default
    operator_kind: str = _key("operator", _choice(*_KINDS, ""), "", key="kind")
    space_order: float = _key("operator", _parse_float, 2.0)
    coefficient: str = _key("operator", _profile(allow_modes=False), "constant")
    coefficient_scale: float = _key("operator", _parse_float, 1.0)
    mollify: bool = _key("operator", _parse_bool, True)
    schedule_scenario: str = _key("schedule", _choice(*_SCENARIOS), EpsilonSchedule.scenario, key="scenario")
    k_min: int = _key("schedule", _parse_int, EpsilonSchedule.k_min)
    k_max: int = _key("schedule", _parse_int, EpsilonSchedule.k_max)
    run_k: int = _key("schedule", _parse_int, 8)
    kappa: float = _key("schedule", _parse_float, EpsilonSchedule.kappa)
    kappa_cap: float = _key("schedule", _parse_float, EpsilonSchedule.kappa_cap)
    h_min: float = _key("schedule", _parse_float, EpsilonSchedule.h_min)
    coeff_width_factor: float = _key("schedule", _parse_float, EpsilonSchedule.coeff_width_factor)
    mollifier_shape: str = _key("schedule", _choice(*_SHAPES), "bump")
    displacement: str = _key("initial", _profile(allow_modes=True), "gaussian_bump")
    displacement_scale: float = _key("initial", _parse_float, 1.0)
    velocity: str = _key("initial", _profile(allow_modes=True), "zero")
    velocity_scale: float = _key("initial", _parse_float, 1.0)
    nonlinearity: str = _key("nonlinearity", _nonlinearity, "zero", key="f")
    noise_intensity: float = _key("noise", _parse_float, 0.0, key="intensity")
    master_seed: int = _key("noise", _parse_int, 0)
    noise_target: str = _key("noise", _choice("forcing", "initial", "both"), "forcing", key="target")
    spatial_sharpness: Optional[float] = _key("noise", _parse_optional_float, None)
    temporal_sharpness: Optional[float] = _key("noise", _parse_optional_float, None)
    noise_shape: str = _key("noise", _choice(*_SHAPES), "bump", key="shape")
    solver_form: str = _key("solver", _choice("kernel", "derivative"), "kernel", key="form")
    solver_tol: float = _key("solver", _parse_float, SolverOptions.tol, key="tol")
    max_iter: int = _key("solver", _parse_int, SolverOptions.max_iter)
    output_directory: str = _key("output", str.strip, "runs", key="directory")

    def resolved_operator_kind(self) -> str:
        if self.operator_kind:
            return self.operator_kind
        return "second_derivative" if self.scenario == "time_fractional" else "riesz"


# section -> key -> RunConfig field, in rendering order
_SCHEMA: dict = {}
for _f in dataclasses.fields(RunConfig):
    _SCHEMA.setdefault(_f.metadata["section"], {})[_f.metadata["key"] or _f.name] = _f
del _f


def _nonfinite_issues(cfg: RunConfig) -> list:
    """One issue per float key holding inf or nan."""
    issues = []
    for section, keys in _SCHEMA.items():
        for key, spec in keys.items():
            value = getattr(cfg, spec.name)
            if isinstance(value, float) and not math.isfinite(value):
                issues.append(f"{section}.{key}: must be a finite number, got {value}")
    return issues


def _semantic_issues(cfg: RunConfig) -> list:
    issues = _nonfinite_issues(cfg)
    if issues:
        return [(None, msg) for msg in issues]
    if not 1.0 < cfg.alpha <= 2.0:
        issues.append(f"run.alpha: must lie in (1, 2], got {cfg.alpha}")
    if not cfg.half_length > 0.0:
        issues.append("grid.half_length: must be positive")
    if cfg.n_points < 8 or cfg.n_points & (cfg.n_points - 1):
        issues.append(f"grid.n_points: need a power of two of at least 8, got {cfg.n_points}")
    if not cfg.horizon > 0.0:
        issues.append("mesh.horizon: must be positive")
    if cfg.n_steps < 2:
        issues.append(f"mesh.n_steps: need at least 2 steps, got {cfg.n_steps}")
    kind = cfg.resolved_operator_kind()
    if kind != "second_derivative" and not 0.0 < cfg.space_order <= 2.0:
        issues.append(f"operator.space_order: must lie in (0, 2], got {cfg.space_order}")
    elif kind == "riesz" and abs(math.cos(cfg.space_order * math.pi / 2.0)) < 1e-12:
        issues.append(f"operator.space_order: the riesz symbol is singular at order 1, got {cfg.space_order}")
    elif kind != "second_derivative" and cfg.mollify and cfg.space_order == 2.0:
        issues.append("operator.space_order: a mollified fractional kind needs an order below 2; set it in (0, 2)")
    if not cfg.mollify and cfg.coefficient != "constant":
        issues.append("operator.mollify: only constant coefficients admit the exact (unmollified) route")
    if cfg.mollify and cfg.alpha >= 2.0:
        issues.append("run.alpha: the width schedule needs alpha < 2; set operator.mollify = false for the limit case")
    if cfg.solver_form == "derivative" and cfg.alpha >= 2.0:
        issues.append("solver.form: the derivative form needs alpha < 2; set solver.form = kernel for the limit case")
    if cfg.k_min < 1 or not cfg.k_min <= cfg.k_max <= _MAX_LEVEL:
        issues.append(
            f"schedule: need 1 <= k_min <= k_max <= {_MAX_LEVEL}, got k_min={cfg.k_min}, k_max={cfg.k_max}"
        )
    elif not cfg.k_min <= cfg.run_k <= cfg.k_max:
        issues.append(f"schedule.run_k: must lie in [k_min, k_max] = [{cfg.k_min}, {cfg.k_max}], got {cfg.run_k}")
    if not 0.0 < cfg.kappa <= cfg.kappa_cap:
        issues.append(f"schedule: need 0 < kappa <= kappa_cap, got kappa={cfg.kappa}, kappa_cap={cfg.kappa_cap}")
    if not cfg.h_min > 0.0:
        issues.append("schedule.h_min: must be positive")
    if not cfg.coeff_width_factor > 0.0:
        issues.append("schedule.coeff_width_factor: must be positive")
    if not cfg.noise_intensity >= 0.0:
        issues.append(f"noise.intensity: must be nonnegative, got {cfg.noise_intensity}")
    if cfg.master_seed < 0:
        issues.append("noise.master_seed: must be nonnegative")
    for name in ("spatial_sharpness", "temporal_sharpness"):
        value = getattr(cfg, name)
        if value is not None and not value > 0.0:
            issues.append(f"noise.{name}: must be positive when given")
    if not 0.0 < cfg.solver_tol < 1.0:
        issues.append(f"solver.tol: must lie in (0, 1), got {cfg.solver_tol}")
    if cfg.max_iter < 1:
        issues.append("solver.max_iter: must be at least 1")
    return [(None, msg) for msg in issues]


def parse_config(text: str) -> RunConfig:
    """Parse a config document; raise ConfigError listing every problem."""
    issues = []
    values = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                issues.append((lineno, f"unknown section [{name}]"))
                section = None
            else:
                section = name
            continue
        if "=" not in line:
            issues.append((lineno, f"expected key = value, got {line!r}"))
            continue
        if section is None:
            issues.append((lineno, "key outside any recognized section"))
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        spec = _SCHEMA[section].get(key)
        if spec is None:
            issues.append((lineno, f"unknown key {key!r} in section [{section}]"))
            continue
        if spec.name in values:
            issues.append((lineno, f"duplicate key {key!r} in section [{section}]"))
            continue
        try:
            values[spec.name] = spec.metadata["parse"](value.strip())
        except ValueError as err:
            issues.append((lineno, f"[{section}] {key}: {err}"))

    cfg = RunConfig(**values)
    if "space_order" not in values and cfg.mollify and cfg.resolved_operator_kind() != "second_derivative":
        # no mollified fractional kind takes the order-2 default
        cfg = dataclasses.replace(cfg, space_order=MOLLIFIED_FRACTIONAL_ORDER)
    issues.extend(_semantic_issues(cfg))
    if issues:
        raise ConfigError(issues)
    return cfg


def parse_config_file(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def render_config(cfg: RunConfig) -> str:
    """Canonical text with every value resolved; stable across runs."""
    lines = []
    for section in _SCHEMA:
        lines.append(f"[{section}]")
        for key, spec in _SCHEMA[section].items():
            value = getattr(cfg, spec.name)
            if value is None:
                rendered = ""
            elif isinstance(value, bool):
                rendered = "true" if value else "false"
            elif isinstance(value, float):
                rendered = repr(value)
            else:
                rendered = str(value)
            lines.append(f"{key} = {rendered}")
        lines.append("")
    return "\n".join(lines)


def config_hash(cfg: RunConfig) -> str:
    return hashlib.sha256(render_config(cfg).encode("utf-8")).hexdigest()[:16]
