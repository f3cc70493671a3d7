"""Acceptance battery: one test per criterion, each printing its
pass/fail line.  The Hölder cross-check is soft (reported, not fatal)."""

import numpy as np
import pytest

from cmvkit import verify


@pytest.mark.parametrize("number", range(1, 14))
def test_criterion(number, capsys):
    result = verify.ALL_CRITERIA[number - 1]()
    with capsys.disabled():
        print()
        print(result.line())
    if result.severity == "hard":
        assert result.passed, result.details
    else:
        # soft criterion: the computation must complete and report;
        # band violations are recorded in the emitted details
        assert result.measured, result.details


def test_criterion_8_draws_the_same_points():
    # the 1000 F of criterion 8, drawn one scalar at a time, re then im
    rng = np.random.default_rng(1)
    drawn = [complex(rng.uniform(0.01, 4.0), rng.uniform(-4.0, 4.0))
             for _ in range(1000)]
    assert verify._mobius_points().tolist() == drawn
