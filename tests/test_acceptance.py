"""Acceptance suite: runs every criterion at full scale with the pinned seed
and prints one pass/fail line per criterion; pins criterion 7's splitting
subcheck and its Taylor oracle, and checks that criterion 8 sees a row that
differs from its batch of one.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live; the
full suite takes several minutes (the scaling-limit criterion dominates).
"""

from unittest import mock

import numpy as np
import pytest
import scipy.linalg

from collapsim import acceptance
from collapsim.grid import (
    Grid,
    HamiltonianSpec,
    cosine_potential,
    hamiltonian_matrix,
    make_gaussian_packet,
)


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
    # c7's errors and slope against its Taylor oracle, with the closed-form
    # least-squares slope: no BLAS call, so the same bits under every OpenBLAS
    # kernel; they lie within 3.7e-9 relative (the slope 8.4e-10) of the
    # values against scipy's expm
    details = acceptance.criterion_7(acceptance.DEFAULT_SEED).details
    assert details["splitting_errors"] == pytest.approx(
        [4.413298548631729e-05, 1.103493503256604e-05, 2.7588392741533923e-06,
         6.89716412545404e-07], rel=1e-9)
    assert details["splitting_order"] == pytest.approx(1.9999075533192723, rel=1e-12)


@pytest.mark.parametrize("kind", ["free", "potential_only", "cos"])
@pytest.mark.parametrize("t", [0.05, 0.5, 2.0])
def test_taylor_oracle_is_the_matrix_exponential(kind, t):
    grid = Grid(128, -16.0, 16.0)
    phi = make_gaussian_packet(grid, 0.5, 1.0, momentum=0.7)
    v = np.zeros(grid.n_points) if kind == "free" else cosine_potential(grid, 0.5)
    h = HamiltonianSpec(grid, v, kinetic=kind != "potential_only")
    want = scipy.linalg.expm(-1j * t * hamiltonian_matrix(h)) @ phi.amplitudes
    assert np.max(np.abs(acceptance._taylor_unitary(phi, h, t) - want)) <= 1e-13


def test_c8_sees_a_row_that_is_not_its_batch_of_one():
    # row 128 (two jumps) rerun on another seed stands in for a row whose
    # bytes depend on its batch: the subcheck must fail on it, and on it alone
    rerun = acceptance.grw_trajectory

    def other_seed_at_128(phi0, h, p, seed, index):
        return rerun(phi0, h, p, seed + (index == 128), index)

    with mock.patch.object(acceptance, "grw_trajectory", other_seed_at_128):
        report = acceptance.criterion_8(acceptance.DEFAULT_SEED)
    assert report.details["failed_subchecks"] == ["grw_cos_rows_are_batches_of_one"]
    assert report.details["grw_cos_rows_differing"] == [128]
