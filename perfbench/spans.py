"""Outside-in span tracer for the fracwave benchmark.

The program has no spans of its own, so the tracer wraps public functions
and methods from outside.  Modules import names directly
(`from .solution import ml_trajectory`), so a function is replaced at every
binding in every loaded `fracwave` module that holds it, not only in its
defining module.  Methods are replaced on the class, which must happen
before any problem is built because `as_action` binds `operator.apply` when
it is constructed.

Every wrap point must exist.  A wrap point that a later version of the
package renamed or removed raises `MissingWrapPoint`, so a traced run reports
it instead of printing a silent zero for its layer.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import Callable, Optional

# Span groups whose memory is measured: "full" runs tracemalloc over the span
# and its children (peak allocation inside a solve); "self" samples the
# resident set only while no child span runs (the verb's own work, which is
# mostly artifact writing).
FULL, SELF = "full", "self"


def _result_iterations(result) -> dict:
    return {"iterations": int(result.iterations)}


def _solve_info(result) -> dict:
    return {
        "iterations": int(result.iterations),
        "series_levels": int(result.metadata.get("series_levels", 0)),
    }


def _nbytes(result) -> dict:
    return {"bytes": int(result.nbytes)}


def _terms(result) -> dict:
    return {"terms": int(result)}


def _field_cells(result) -> dict:
    return {"cells": int(result.trajectory.values.size)}


def _state_cells(result) -> dict:
    return {"cells": int(result.values.size)}


@dataclass(frozen=True)
class WrapPoint:
    """One public name to wrap: `attr` may be `Class.method`."""

    module: str
    attr: str
    group: str
    memory: Optional[str] = None
    info: Optional[Callable] = None
    rows: bool = False


WRAP_POINTS = (
    WrapPoint("fracwave.cli", "cmd_run", "cli.verb", memory=SELF),
    WrapPoint("fracwave.cli", "cmd_sweep", "cli.verb", memory=SELF),
    WrapPoint("fracwave.cli", "cmd_validate", "cli.verb", memory=SELF),
    WrapPoint("fracwave.cli", "run_scenario", "cli.run_scenario"),
    WrapPoint("fracwave.cli", "assemble_scenario", "cli.assemble"),
    WrapPoint("fracwave.duhamel", "solve_kernel_form", "duhamel.solve", memory=FULL, info=_solve_info),
    WrapPoint("fracwave.duhamel", "solve_rl_form", "duhamel.solve", memory=FULL, info=_solve_info),
    WrapPoint("fracwave.duhamel", "moderateness_scan", "duhamel.moderateness"),
    WrapPoint("fracwave.solution", "LinearAction.apply_rows", "duhamel.apply_rows"),
    WrapPoint("fracwave.fractional", "pi_weights", "fractional.pi_weights", info=_nbytes),
    WrapPoint("fracwave.fractional", "rl_integral", "fractional.rl_integral"),
    WrapPoint("fracwave.fractional", "rl_derivative", "fractional.rl_derivative"),
    WrapPoint("fracwave.fractional", "caputo_derivative", "fractional.caputo_derivative"),
    WrapPoint("fracwave.regularization", "RegularizedOperator.apply", "regularization.apply", rows=True),
    WrapPoint("fracwave.regularization", "make_mollifier", "regularization.build"),
    WrapPoint("fracwave.regularization", "CoefficientField.smoothed", "regularization.build"),
    WrapPoint("fracwave.regularization", "build_operator", "regularization.build"),
    WrapPoint("fracwave.regularization", "check_norm_gate", "regularization.norm_gate"),
    WrapPoint(
        "fracwave.regularization", "operator_norm_estimate", "regularization.norm_gate", info=_result_iterations
    ),
    WrapPoint("fracwave.regularization", "association_diagnostic", "regularization.association"),
    WrapPoint("fracwave.solution", "ml_trajectory", "solution.ml_trajectory"),
    WrapPoint("fracwave.special", "series_term_count", "special.series_term_count", info=_terms),
    WrapPoint("fracwave.special", "mittag_leffler", "special.ml"),
    WrapPoint("fracwave.stochastic", "white_noise_representative", "stochastic.noise", info=_field_cells),
    WrapPoint("fracwave.stochastic", "stochastic_initial_data", "stochastic.noise", info=_state_cells),
    WrapPoint("fracwave.validation", "run_all", "validation.run_all"),
)


class MissingWrapPoint(RuntimeError):
    """Raised when wrap points named by the benchmark no longer exist."""

    def __init__(self, missing: list):
        self.missing = list(missing)
        super().__init__("wrap points missing from the program: " + ", ".join(self.missing))


@dataclass
class Span:
    group: str
    start: float
    end: float = 0.0
    parent: int = -1
    info: dict = field(default_factory=dict)
    peak_bytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rows_of(values) -> int:
    shape = getattr(values, "shape", None)
    if not shape:
        return 1
    rows = 1
    for n in shape[:-1]:
        rows *= int(n)
    return rows


class RssSampler:
    """Peak growth of the resident set while active, sampled by a thread.

    tracemalloc would trace every Python allocation of the row-by-row CSV
    writer and slow it about fifteenfold; reading /proc/self/statm every
    millisecond costs little and sees numpy buffers as a user's RSS does.
    """

    def __init__(self, interval: float = 1e-3):
        self.interval = interval
        self._page = os.sysconf("SC_PAGE_SIZE")
        self._lock = threading.Lock()
        self._active = threading.Event()
        self._closed = False
        self._base = self._max = 0
        self._generation = 0
        self._thread: Optional[threading.Thread] = None

    def rss(self) -> int:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * self._page

    def _run(self) -> None:
        while True:
            self._active.wait()
            if self._closed:
                return
            with self._lock:
                generation = self._generation
            rss = self.rss()
            with self._lock:
                # a reading from an earlier activation must not raise this one's peak
                if self._active.is_set() and generation == self._generation:
                    self._max = max(self._max, rss)
            time.sleep(self.interval)

    def start(self) -> None:
        if self._thread is None:
            self._thread = threading.Thread(target=self._run, name="rss-sampler", daemon=True)
            self._thread.start()
        rss = self.rss()
        with self._lock:
            self._generation += 1
            self._base = self._max = rss
        self._active.set()

    def stop(self) -> int:
        """Stop sampling; returns the peak growth in bytes since start()."""
        self._active.clear()
        rss = self.rss()
        with self._lock:
            self._max = max(self._max, rss)
            return self._max - self._base

    def close(self) -> None:
        self._closed = True
        self._active.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None


class Tracer:
    """Records one span per wrapped call, in memory, for one process."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self._stack: list = []
        self._self_memory: set = set()
        self._rss = RssSampler()
        self._undo: list = []

    # ---------------------------------------------------------- recording

    def _pause_self_memory(self) -> None:
        if self._stack and self._stack[-1] in self._self_memory:
            span = self.spans[self._stack[-1]]
            span.peak_bytes = max(span.peak_bytes, self._rss.stop())

    def _resume_self_memory(self) -> None:
        if self._stack and self._stack[-1] in self._self_memory:
            self._rss.start()

    def call(self, point: WrapPoint, fn: Callable, args: tuple, kwargs: dict):
        self._pause_self_memory()
        index = len(self.spans)
        span = Span(point.group, 0.0, parent=self._stack[-1] if self._stack else -1)
        self.spans.append(span)
        if point.rows:
            span.info["rows"] = _rows_of(args[1] if len(args) > 1 else kwargs.get("values"))
        traces_full = point.memory == FULL and not tracemalloc.is_tracing()
        if traces_full:
            tracemalloc.start()
        self._stack.append(index)
        if point.memory == SELF:
            self._self_memory.add(index)
            self._resume_self_memory()
        span.start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._pause_self_memory()
            self._stack.pop()
            if traces_full:
                span.peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._resume_self_memory()
        if point.info is not None:
            span.info.update(point.info(result))
        return result

    def wrap(self, point: WrapPoint, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(point, fn, args, kwargs)

        return traced

    # ---------------------------------------------------------- installing

    def install(self, points=WRAP_POINTS, package: str = "fracwave") -> None:
        """Wrap every point at every binding; raises MissingWrapPoint first.

        Nothing is patched unless every point resolves.
        """
        resolved = []
        missing = []
        for point in points:
            try:
                module = importlib.import_module(point.module)
            except ImportError:
                missing.append(f"{point.module}.{point.attr}")
                continue
            owner = module
            *path, name = point.attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            target = getattr(owner, name, None) if owner is not None else None
            if not callable(target):
                missing.append(f"{point.module}.{point.attr}")
                continue
            resolved.append((point, owner, name, target, bool(path)))
        if missing:
            raise MissingWrapPoint(missing)
        modules = [m for key, m in list(sys.modules.items()) if key == package or key.startswith(package + ".")]
        for point, owner, name, target, is_method in resolved:
            traced = self.wrap(point, target)
            if is_method:
                self._undo.append((owner, name, target))
                setattr(owner, name, traced)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is target:
                        self._undo.append((module, key, target))
                        setattr(module, key, traced)

    def uninstall(self) -> None:
        self._rss.close()
        for owner, name, target in reversed(self._undo):
            setattr(owner, name, target)
        self._undo.clear()

    # ---------------------------------------------------------- reading

    def summary(self) -> dict:
        """Per group: calls, inclusive time, self time, info sums, peak bytes.

        Inclusive time sums only the outermost spans of a group, so a group
        that calls itself (a smoothed coefficient building a mollifier) is not
        counted twice.  Self time is a span's duration minus the durations of
        its direct children.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span.parent >= 0:
                child_time[span.parent] += span.duration
        ancestors: list = []
        interned: dict = {}
        out: dict = {}
        for i, span in enumerate(spans):
            if span.parent < 0:
                above = frozenset()
            else:
                key = (ancestors[span.parent], spans[span.parent].group)
                above = interned.get(key)
                if above is None:
                    above = interned[key] = key[0] | {key[1]}
            ancestors.append(above)
            g = out.setdefault(span.group, {"calls": 0, "total": 0.0, "self": 0.0, "info": {}, "peak": 0})
            g["calls"] += 1
            if span.group not in above:
                g["total"] += span.duration
            g["self"] += span.duration - child_time[i]
            g["peak"] = max(g["peak"], span.peak_bytes)
            for key, value in span.info.items():
                g["info"][key] = g["info"].get(key, 0) + value
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metrics named as in BENCHMARK.json (units there)."""
        groups = self.summary()
        empty = {"calls": 0, "total": 0.0, "self": 0.0, "info": {}, "peak": 0}

        def g(name):
            return groups.get(name, empty)

        ml_spans = {i for i, s in enumerate(self.spans) if s.group == "solution.ml_trajectory"}
        terms = [
            s.info["terms"]
            for s in self.spans
            if s.group == "special.series_term_count" and s.parent in ml_spans
        ]
        return {
            "duhamel.solve_s": g("duhamel.solve")["total"],
            "duhamel.solve_self_s": g("duhamel.solve")["self"],
            "duhamel.picard_sweeps": g("duhamel.solve")["info"].get("iterations", 0),
            "duhamel.series_levels": g("duhamel.solve")["info"].get("series_levels", 0),
            "duhamel.apply_rows_calls": g("duhamel.apply_rows")["calls"],
            "duhamel.solve_peak_mb": g("duhamel.solve")["peak"] / 1e6,
            "duhamel.moderateness_s": g("duhamel.moderateness")["total"],
            "fractional.pi_weights_calls": g("fractional.pi_weights")["calls"],
            "fractional.pi_weights_s": g("fractional.pi_weights")["total"],
            "fractional.weights_mb": g("fractional.pi_weights")["info"].get("bytes", 0) / 1e6,
            "fractional.rl_integral_s": g("fractional.rl_integral")["total"],
            "fractional.rl_derivative_calls": g("fractional.rl_derivative")["calls"],
            "fractional.rl_derivative_s": g("fractional.rl_derivative")["total"],
            "fractional.caputo_derivative_s": g("fractional.caputo_derivative")["total"],
            "regularization.apply_calls": g("regularization.apply")["calls"],
            "regularization.apply_rows": g("regularization.apply")["info"].get("rows", 0),
            "regularization.apply_s": g("regularization.apply")["total"],
            "regularization.build_s": g("regularization.build")["total"],
            "regularization.norm_gate_s": g("regularization.norm_gate")["total"],
            "regularization.power_iterations": g("regularization.norm_gate")["info"].get("iterations", 0),
            "regularization.association_s": g("regularization.association")["total"],
            "solution.ml_trajectory_calls": g("solution.ml_trajectory")["calls"],
            "solution.ml_trajectory_s": g("solution.ml_trajectory")["total"],
            "solution.series_terms_max": max(terms, default=0),
            "special.ml_calls": g("special.ml")["calls"],
            "special.ml_s": g("special.ml")["total"],
            "stochastic.noise_calls": g("stochastic.noise")["calls"],
            "stochastic.noise_cells": g("stochastic.noise")["info"].get("cells", 0),
            "stochastic.noise_s": g("stochastic.noise")["total"],
            "cli.assemble_s": g("cli.assemble")["self"],
            "cli.write_s": g("cli.verb")["self"],
            "cli.write_peak_mb": g("cli.verb")["peak"] / 1e6,
        }
