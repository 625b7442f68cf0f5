"""Acceptance gate: every numbered criterion at its registered threshold.

Each test solves its criterion fresh through the validation registry and
prints the registry's own pass/fail line, so `pytest -v -s` reads as the
full report.  Thresholds live in one place (the registry); the tamper test
below checks that tightening one criterion cannot leak into its neighbors.
"""

import dataclasses

import pytest

from fracwave import validation
from fracwave.validation import CRITERIA, run_all, run_one

INDICES = [c.index for c in CRITERIA]
NAMES = {c.index: c.name for c in CRITERIA}


def test_registry_is_complete():
    assert INDICES == list(range(1, 16))
    assert len({c.name for c in CRITERIA}) == len(CRITERIA)


@pytest.mark.parametrize("index", INDICES, ids=[f"{i:02d}-{NAMES[i]}" for i in INDICES])
def test_criterion(index):
    result = run_one(index)
    print(result.line())
    assert result.runtime > 0.0
    assert result.passed, result.detail


def test_thresholds_are_isolated(monkeypatch):
    # squeezing one criterion's tolerance flips that one alone
    squeezed = tuple(
        dataclasses.replace(c, thresholds={**c.thresholds, "closed_form_gap": 1e-12}) if c.index == 8 else c
        for c in CRITERIA
    )
    monkeypatch.setattr(validation, "CRITERIA", squeezed)
    results = run_all(only=[7, 8, 9])
    assert [r.passed for r in results] == [True, False, True]
    assert results[1].thresholds == {"closed_form_gap": 1e-12}
