"""The benchmark's run and sweep workloads reproduce perfbench/reference.json.

The benchmark checks its outputs against recorded summaries within 1e-8, so a
change that moves one of its numbers further fails here, before the benchmark
runs.  The checker is perfbench's own.  The sweep's norm gates must also keep
their power-iteration step counts, which the traced benchmark reports.
"""

import json
import sys
from pathlib import Path

import pytest

from fracwave.cli import entrypoint

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

from outputs import check_outputs  # noqa: E402

SEED = 3
REFERENCE = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
# power-iteration steps of the sweep-ladder norm gates at seed 3, rungs k = 4..12
LADDER_NORM_ITERATIONS = [323, 113, 110, 107, 300, 354, 424, 204, 248]


@pytest.mark.parametrize(
    "workload, verb", [("run-heavy", "run"), ("run-derivative", "run"), ("sweep-ladder", "sweep-epsilon")]
)
def test_workload_matches_the_reference(workload, verb, tmp_path):
    config = BENCH / "configs" / f"{workload}.cfg"
    argv = [verb, "--config", str(config), "--out", str(tmp_path), "--seed", str(SEED), "--quiet"]
    assert entrypoint(argv) == 0
    assert check_outputs(verb, tmp_path, REFERENCE[workload][str(SEED)]) == []


def test_sweep_ladder_norm_gates_keep_their_steps(tmp_path):
    config = BENCH / "configs" / "sweep-ladder.cfg"
    argv = ["sweep-epsilon", "--config", str(config), "--out", str(tmp_path), "--seed", str(SEED), "--quiet"]
    assert entrypoint(argv) == 0
    (meta,) = tmp_path.glob("sweep-*/metadata.json")
    rungs = json.loads(meta.read_text(encoding="utf-8"))["rungs"]
    assert [rung["norm_iterations"] for rung in rungs] == LADDER_NORM_ITERATIONS
