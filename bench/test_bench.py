"""Tests of the benchmark itself: its checks must be able to fail, its span
arithmetic must be right, and its call counts must repeat.

    python3 -m pytest bench -q
"""

import os
import shutil
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import collapsim  # noqa: E402
from collapsim import diosi, grid, grw, master  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SEED = 3


@pytest.fixture
def workdir(request):
    path = os.path.join(HERE, ".runs", f"test-{request.node.name}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _spans(rows):
    out = np.empty(len(rows), dtype=spans.SPAN_DTYPE)
    for i, (name, start, end, parent) in enumerate(rows):
        out[i] = (name, start, end, parent)
    return out


def test_self_time_of_nested_spans():
    # A [0,10] holds B [1,4] (which holds C [2,3]) and D [5,6] in its own
    # process, and two overlapping worker spans E [6,9] and F [7,9.5].
    rows = [(0, 0.0, 10.0, -1), (1, 1.0, 4.0, 0), (2, 2.0, 3.0, 1),
            (3, 5.0, 6.0, 0), (4, 6.0, 9.0, 0), (4, 7.0, 9.5, 0)]
    pids = np.array([1, 1, 1, 1, 2, 3])
    got = spans.self_times(_spans(rows), pids)
    # A: 10 - (3 + 1) - |[6, 9.5]| = 2.5
    np.testing.assert_allclose(got, [2.5, 2.0, 1.0, 1.0, 3.0, 2.5])


def test_summary_counts_pool_work():
    rows = [(0, 0.0, 10.0, -1), (1, 1.0, 9.0, 0), (2, 1.0, 5.0, 1), (2, 1.5, 9.0, 1)]
    keys = ["cli.main", "parallel.run_indexed", "grw.grw_trajectory"]
    pids = np.array([1, 1, 2, 3])
    s = spans.summarize(keys, _spans(rows), pids, {}, 1)
    assert s["pool"]["busy_s"] == pytest.approx(11.5)
    assert s["pool"]["pooled_wall_s"] == pytest.approx(8.0)
    assert s["pool"]["workers"] == 2
    assert s["parallel.run_indexed"]["self_s"] == pytest.approx(0.0)
    assert s["cli.main"]["self_s"] == pytest.approx(2.0)
    assert s["trace.covered_s"] == pytest.approx(10.0)


def test_poisson_count_at_wrong_rate_fails():
    n, mu, t = 1000, 4.0, 0.5
    rng = np.random.default_rng(SEED)
    assert checks.poisson_count(int(rng.poisson(n * mu * t)), n, mu, t) == []
    assert checks.poisson_count(int(rng.poisson(1.25 * n * mu * t)), n, mu, t)


def test_master_solution_at_another_mu_fails():
    g = grid.Grid(128, -16.0, 16.0)
    phi0 = grid.make_gaussian_packet(g, 0.0, 1.0)
    h = grid.HamiltonianSpec(g, grid.cosine_potential(g, 0.5))
    mu, alpha, t = 4.0, 0.5, 0.5
    recs = grw.grw_ensemble(phi0, h, grw.GrwParams(mu, alpha, t, (t,)), SEED, 400)
    ens = collapsim.reweight_ensemble(recs, t)
    rho, se = master.ensemble_density(ens).entries, master.ensemble_density_se(ens)
    rho0 = master.DensityMatrix.from_wavefunction(phi0)

    def ref(m):
        return master.evolve_grw_master(rho0, h, m, alpha, t, 0.005).entries

    assert checks.master_gap(rho, se, ref(mu)) == []
    assert checks.master_gap(rho, se, ref(2.0 * mu))


@pytest.mark.parametrize("lam", [0.5, 4.0])
def test_diosi_reference_at_another_lambda_fails(lam, workdir):
    wl = workloads.ScalingLimit(SEED, workdir)
    wl.prepare()
    wl.ref_params = diosi.DiosiParams(lam, wl.resolution, wl.times[-1], wl.times)
    rnd = wl.run_round()
    assert any("density gap" in msg for msg in rnd.ops["diosi-reference/0"]), rnd.ops


def test_variance_target_off_by_ten_percent_fails(workdir):
    wl = workloads.FlashLaw(SEED, workdir)
    wl.prepare()
    wl.target_variance *= 1.1
    rnd = wl.run_round()
    assert any("variance" in msg for errs in rnd.ops.values() for msg in errs), rnd.ops


def test_flash_law_negative_control_fails(workdir):
    wl = workloads.FlashLaw(SEED, workdir)
    wl.prepare()
    wl.hybrid_alpha = 1.0  # the hybrid side at twice the collapse rate
    rnd = wl.run_round()
    assert any("combined KS" in msg for errs in rnd.ops.values() for msg in errs), rnd.ops


def test_fisher_combination_fails_two_weak_passes():
    # each p-value passes 0.01 alone; together they are evidence at p ~ 0.005
    assert checks.fisher_at_least([0.02, 0.03], 0.01)
    assert not checks.fisher_at_least([0.5, 0.2], 0.01)


def _traced_calls(make, workdir):
    wl = make(os.path.join(workdir, "wl"))
    wl.prepare()
    spool = os.path.join(workdir, "spool")
    os.makedirs(spool, exist_ok=True)
    tracer = spans.Tracer(spool).install()
    try:
        wl.run_round()
    finally:
        tracer.restore()
    got, pids, counters = tracer.collect()
    s = spans.summarize(tracer.keys, got, pids, counters, os.getpid())
    return {k: s[k]["calls"] for k in tracer.keys}, counters, tracer.absent


@pytest.mark.parametrize("make", [
    lambda d: workloads.SimulateGrw(SEED, d, n_trajectories=40),
    lambda d: workloads.ScalingLimit(SEED, d, n_trajectories=8, mus=(4, 16)),
    lambda d: workloads.FlashLaw(SEED, d, n_samples=300, n_checks=4),
], ids=["simulate-grw", "scaling-limit", "flash-law"])
def test_call_counts_repeat(make, workdir):
    original = grid.norm2
    first = _traced_calls(make, workdir)
    assert grid.norm2 is original and grw.norm2 is original  # restored
    second = _traced_calls(make, workdir)
    assert first == second
    calls, _, absent = first
    assert absent == []
    assert sum(calls.values()) > 0


def test_worker_spans_are_gathered(workdir):
    calls, _, _ = _traced_calls(
        lambda d: workloads.SimulateGrw(SEED, d, n_trajectories=40), workdir)
    # 40 trajectories in the pool plus the in-process reruns
    assert calls["grw.grw_trajectory"] == 40 + 3


def test_missing_name_is_reported_absent(monkeypatch, workdir):
    monkeypatch.delattr(grid, "schrodinger_step")
    tracer = spans.Tracer(workdir).install()
    try:
        assert tracer.absent == ["grid.schrodinger_step"]
    finally:
        tracer.restore()
