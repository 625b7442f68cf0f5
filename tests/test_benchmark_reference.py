"""The benchmark's run and sweep workloads reproduce perfbench/reference.json.

The benchmark checks its outputs against recorded summaries within 1e-8, so a
change that moves one of its numbers further fails here, before the benchmark
runs.  The checker is perfbench's own.
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


@pytest.mark.parametrize(
    "workload, verb", [("run-heavy", "run"), ("run-derivative", "run"), ("sweep-ladder", "sweep-epsilon")]
)
def test_workload_matches_the_reference(workload, verb, tmp_path):
    config = BENCH / "configs" / f"{workload}.cfg"
    argv = [verb, "--config", str(config), "--out", str(tmp_path), "--seed", str(SEED), "--quiet"]
    assert entrypoint(argv) == 0
    assert check_outputs(verb, tmp_path, REFERENCE[workload][str(SEED)]) == []
