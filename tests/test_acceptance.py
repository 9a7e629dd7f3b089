"""Acceptance suite: runs every criterion at full scale with the pinned seed
and prints one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live; the
full suite takes several minutes (the scaling-limit criterion dominates).
"""

import pytest

from collapsim import acceptance


@pytest.mark.parametrize(
    "num,name,fn", acceptance.CRITERIA,
    ids=[f"criterion_{num}_{name}" for num, name, _ in acceptance.CRITERIA])
def test_acceptance_criterion(num, name, fn):
    report = fn(acceptance.DEFAULT_SEED)
    runtime = report.details.get("runtime_seconds", 0.0)
    status = "PASS" if report.passed else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} "
          f"(statistic={report.statistic:.6g}, threshold={report.threshold:.6g}, "
          f"runtime={runtime:.1f}s)")
    assert report.passed, report.to_json()
    budget = acceptance.BUDGET_SECONDS[num]
    assert runtime <= budget, (
        f"criterion {num} took {runtime:.1f}s, over its {budget}s budget")


def test_splitting_order_subcheck_is_pinned():
    # c7 composes schrodinger_step; these are the errors and the slope of the
    # substepped evolve_unitary it replaced, the same phasors and steps
    details = acceptance.criterion_7(acceptance.DEFAULT_SEED).details
    assert details["splitting_errors"] == pytest.approx(
        [4.413298548886061e-05, 1.1034935035109684e-05, 2.758839276697113e-06,
         6.897164150891452e-07], rel=1e-9)
    assert details["splitting_order"] == pytest.approx(1.9999075516482112, rel=1e-12)
