"""The batched Trotter-product engine: batch rows against single runs and
against a literal composition of the grid propagators for all three
processes, fail-closed parameters, and the boundary flag of weights-only
runs."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from collapsim import (
    DiosiParams,
    Grid,
    GrwParams,
    HamiltonianSpec,
    HybridParams,
    diosi_ensemble,
    diosi_trajectory,
    evolve_unitary,
    gaussian_hit,
    grw_ensemble,
    grw_trajectory,
    hybrid_ensemble,
    hybrid_trajectory,
    make_gaussian_packet,
    sample_flash_center,
    sample_jump_times,
)
from collapsim import diosi
from collapsim.errors import InvalidParameterError
from collapsim.grid import (
    BOUNDARY_MASS_LIMIT,
    CollapseSpec,
    boundary_mass,
    collapse_flow,
    cosine_potential,
    norm2,
    normalize,
)
from collapsim.rng import (
    ROLE_FLASH_NOISE,
    ROLE_FLASH_POSITION,
    ROLE_JUMP_TIMES,
    ExponentialSequence,
    WienerPath,
    stream,
)

GRID = Grid(64, -12.0, 12.0)
# a centred packet, and one started near the edge and pushed towards it
PACKETS = {
    "centre": make_gaussian_packet(GRID, 0.0, 1.0),
    "edge": make_gaussian_packet(GRID, 6.0, 1.0, momentum=6.0),
}
HAMILTONIANS = {
    "zero": HamiltonianSpec.zero(GRID),
    "free": HamiltonianSpec.free(GRID),
    "cos": HamiltonianSpec(GRID, cosine_potential(GRID, 0.5)),
}


def assert_same_record(a, b):
    assert a.index == b.index
    assert a.times == b.times
    assert np.array_equal(a.weights, b.weights)
    assert len(a.states) == len(b.states)
    for s, t in zip(a.states, b.states):
        assert np.array_equal(s.amplitudes, t.amplitudes)
    assert a.flashes == b.flashes
    assert a.boundary_flag == b.boundary_flag


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(0, 2**16), first=st.integers(0, 40),
       n=st.integers(1, 9), block_rows=st.sampled_from([1, 2, 3, 5]),
       h_name=st.sampled_from(sorted(HAMILTONIANS)),
       packet=st.sampled_from(sorted(PACKETS)),
       deterministic=st.booleans(), mu=st.sampled_from([4.0, 16.0]),
       store_states=st.booleans(), workers=st.sampled_from([1, 2]))
def test_batch_row_is_batch_of_one(seed, first, n, block_rows, h_name, packet,
                                   deterministic, mu, store_states, workers):
    # blocks of 1-5 rows make every window straddle block boundaries
    phi, h = PACKETS[packet], HAMILTONIANS[h_name]
    times = (0.0, 0.125, 0.25)
    hp = HybridParams(1.0, mu, 0.25, times, deterministic_times=deterministic,
                      wiener_resolution=64.0, unitary_substep=1.0 / 32.0)
    dp = DiosiParams(1.0, 64, 0.25, times)
    # GRW at lam = 1 (alpha = 2 lam / mu), with jumps after the last sample time
    gp = GrwParams(mu, 2.0 / mu, 0.3, times, unitary_substep=1.0 / 32.0)
    with mock.patch.object(diosi, "_BLOCK_AMPLITUDES", block_rows * GRID.n_points):
        hyb = hybrid_ensemble(phi, h, hp, seed, n, store_states=store_states,
                              workers=workers)
        dio = diosi_ensemble(phi, h, dp, seed, n, store_states=store_states,
                             first_index=first)
        grw = grw_ensemble(phi, h, gp, seed, n, workers=workers)
    for i in range(n):
        assert_same_record(hyb[i], hybrid_trajectory(phi, h, hp, seed, index=i,
                                                     store_states=store_states))
        assert_same_record(dio[i], diosi_trajectory(phi, h, dp, seed, index=first + i,
                                                    store_states=store_states))
        assert_same_record(grw[i], grw_trajectory(phi, h, gp, seed, index=i))


def test_rows_straddling_the_real_block_size():
    grid = Grid(256, -20.0, 20.0)
    phi = make_gaussian_packet(grid, 0.0, 1.0)
    h = HamiltonianSpec(grid, cosine_potential(grid, 0.5))
    rows = diosi._BLOCK_AMPLITUDES // grid.n_points
    hp = HybridParams(1.0, 16.0, 0.25, (0.125, 0.25))
    dp = DiosiParams(1.0, 32, 0.25, (0.125, 0.25))
    gp = GrwParams(16.0, 0.125, 0.25, (0.125, 0.25))
    hyb = hybrid_ensemble(phi, h, hp, 61, rows + 2)
    dio = diosi_ensemble(phi, h, dp, 61, rows + 2)
    grw = grw_ensemble(phi, h, gp, 61, rows + 2)
    for i in range(rows - 2, rows + 2):
        assert_same_record(hyb[i], hybrid_trajectory(phi, h, hp, 61, index=i))
        assert_same_record(dio[i], diosi_trajectory(phi, h, dp, 61, index=i))
        assert_same_record(grw[i], grw_trajectory(phi, h, gp, 61, index=i))


@pytest.mark.parametrize("chunk_elements", [5 * 7, 3 * 4096 * 5 + 5 * 9])
def test_diosi_wiener_chunks_ending_inside_blocks(chunk_elements):
    # the flow fetches 7 cells per row at a time, so chunks start and end
    # inside the 4096-cell Wiener blocks (12297 is cut to 3 whole blocks);
    # each row must still take the cells of its own WienerPath
    phi = PACKETS["centre"]
    p = DiosiParams(1.0, 4096, 3.0, (1.0, 3.0))
    whole = diosi_ensemble(phi, HAMILTONIANS["cos"], p, 29, 5, store_states=False)
    with mock.patch.object(diosi, "_MAX_INCREMENT_ELEMENTS", chunk_elements):
        chunked = diosi_ensemble(phi, HAMILTONIANS["cos"], p, 29, 5, store_states=False)
        pure = diosi_ensemble(phi, HAMILTONIANS["zero"], p, 29, 5, store_states=False)
    for a, b in zip(whole, chunked):
        assert_same_record(a, b)
    # with H = 0 the product of flows is exp(x xi_t - t x^2), xi_t from WienerPath
    x = GRID.x
    for i, rec in enumerate(pure):
        xi = WienerPath(29, i, 4096).increment(0, 3 * 4096)
        want = np.sum(np.abs(phi.amplitudes * np.exp(x * xi - 3.0 * x * x)) ** 2) * GRID.dx
        assert rec.weights[-1] == pytest.approx(want, rel=1e-9)


def test_engine_matches_literal_composition_with_substeps():
    # each row rebuilt by evolve_unitary and collapse_flow, one factor at a time
    grid = Grid(128, -16.0, 16.0)
    phi = make_gaussian_packet(grid, 0.0, 1.0)
    h = HamiltonianSpec(grid, cosine_potential(grid, 0.5))
    lam, mu, cap, seed = 1.0, 4.0, 1.0 / 64.0, 62
    times = (0.3, 0.7)
    p = HybridParams(lam, mu, 0.7, times, unitary_substep=cap)
    recs = hybrid_ensemble(phi, h, p, seed, 6)
    c = CollapseSpec(lam)
    substeps = 0
    for i, rec in enumerate(recs):
        waits = ExponentialSequence(seed, i)
        path = WienerPath(seed, i, mu)
        state, t_k, k = phi, 0.0, 0
        for j, t in enumerate(times):
            while t_k + waits[k] / mu <= t:
                substeps += math.ceil(waits[k] / mu / cap)
                state = evolve_unitary(state, h, waits[k] / mu, max_step=cap)
                state = collapse_flow(state, c, path.increment(k, k + 1), 1.0 / mu)
                assert rec.flashes[k].pre_collapse_norm2 == pytest.approx(
                    norm2(state), rel=1e-12)
                t_k += waits[k] / mu
                k += 1
            assert rec.weights[j] == pytest.approx(norm2(state), rel=1e-12)
            snap = normalize(evolve_unitary(state, h, t - t_k, max_step=cap))
            assert np.max(np.abs(snap.amplitudes - rec.states[j].amplitudes)) <= 1e-12
        assert len(rec.flashes) == k
    assert substeps > 2 * sum(len(r.flashes) for r in recs)  # factors were split


def test_grw_matches_literal_composition_with_substeps():
    # each row rebuilt jump by jump from the grid propagators and the sampler;
    # the packet runs towards the edge, so some rows carry the boundary flag
    grid = Grid(128, -16.0, 16.0)
    phi = make_gaussian_packet(grid, 9.0, 1.0, momentum=2.0)
    h = HamiltonianSpec(grid, cosine_potential(grid, 0.5))
    mu, alpha, cap, seed = 4.0, 0.5, 1.0 / 64.0, 64
    times = (0.3, 0.7)
    p = GrwParams(mu, alpha, 1.0, times, unitary_substep=cap)
    recs = grw_ensemble(phi, h, p, seed, 8)
    # without sample times only the hits can set the flag
    bare = grw_ensemble(phi, h, GrwParams(mu, alpha, 1.0, unitary_substep=cap), seed, 8)
    substeps = hits = 0
    flags, hit_flags = [], []
    for i, rec in enumerate(recs):
        jumps = sample_jump_times(mu, 1.0, stream(seed, i, ROLE_JUMP_TIMES))
        pos = stream(seed, i, ROLE_FLASH_POSITION)
        noise = stream(seed, i, ROLE_FLASH_NOISE)
        assert [f.time for f in rec.flashes] == jumps.tolist()
        state, t_k, j = phi, 0.0, 0
        masses, hit_masses = [], [0.0]
        for k, t_jump in enumerate(jumps):
            while j < len(times) and times[j] < t_jump:  # snapshots before this jump
                snap = normalize(evolve_unitary(state, h, times[j] - t_k, max_step=cap))
                assert np.max(np.abs(snap.amplitudes - rec.states[j].amplitudes)) <= 1e-12
                masses.append(boundary_mass(snap))
                j += 1
            substeps += math.ceil((t_jump - t_k) / cap)
            state = evolve_unitary(state, h, t_jump - t_k, max_step=cap)
            y = sample_flash_center(state, alpha, pos, noise)
            assert rec.flashes[k].center == pytest.approx(y, abs=1e-12)
            hit = gaussian_hit(state, y, alpha)
            assert rec.flashes[k].pre_collapse_norm2 == pytest.approx(norm2(hit), rel=1e-12)
            state, t_k = normalize(hit), t_jump
            hit_masses.append(boundary_mass(state))
            hits += 1
        for j in range(j, len(times)):
            snap = normalize(evolve_unitary(state, h, times[j] - t_k, max_step=cap))
            assert np.max(np.abs(snap.amplitudes - rec.states[j].amplitudes)) <= 1e-12
            masses.append(boundary_mass(snap))
        assert np.all(rec.weights == 1.0)
        flags.append(rec.boundary_flag)
        hit_flags.append(bare[i].boundary_flag)
        assert rec.boundary_flag == (max(masses + hit_masses) > BOUNDARY_MASS_LIMIT)
        assert bare[i].boundary_flag == (max(hit_masses) > BOUNDARY_MASS_LIMIT)
        assert bare[i].flashes == rec.flashes
    assert any(f.time > times[-1] for r in recs for f in r.flashes)  # jumps past the last
    assert substeps > 2 * hits  # factors were split
    assert any(flags) and not all(flags) and any(hit_flags)


def test_grw_jump_at_a_sample_time_comes_before_the_snapshot():
    grid = Grid(128, -16.0, 16.0)
    phi = make_gaussian_packet(grid, 0.0, 1.0)
    h0 = HamiltonianSpec.zero(grid)
    alpha, seed = 0.5, 65
    t_hit = sample_jump_times(4.0, 1.0, stream(seed, 0, ROLE_JUMP_TIMES))[0]
    rec = grw_trajectory(phi, h0, GrwParams(4.0, alpha, 1.0, (float(t_hit),)), seed)
    after = normalize(gaussian_hit(phi, rec.flashes[0].center, alpha))
    assert np.max(np.abs(rec.states[0].amplitudes - after.amplitudes)) <= 1e-12


def test_grw_state_does_not_depend_on_other_sample_times():
    grid = Grid(128, -16.0, 16.0)
    phi = make_gaussian_packet(grid, 0.0, 1.0)
    h = HamiltonianSpec(grid, cosine_potential(grid, 0.5))
    alone = GrwParams(4.0, 0.5, 1.0, (1.0,))
    among = GrwParams(4.0, 0.5, 1.0, (0.3, 0.6, 1.0))
    for seed in range(20):
        a = grw_trajectory(phi, h, alone, seed)
        b = grw_trajectory(phi, h, among, seed)
        assert a.flashes == b.flashes
        assert np.array_equal(a.state_at(1.0).amplitudes, b.state_at(1.0).amplitudes)


@pytest.mark.parametrize("make", [
    lambda: DiosiParams(float("nan"), 64, 1.0),
    lambda: DiosiParams(float("inf"), 64, 1.0),
    lambda: DiosiParams(1.0, 64, float("nan")),
    lambda: DiosiParams(1.0, 64, float("inf")),
    lambda: HybridParams(float("nan"), 4.0, 1.0),
    lambda: HybridParams(1.0, float("nan"), 1.0),
    lambda: HybridParams(1.0, float("inf"), 1.0),
    lambda: HybridParams(1.0, 4.0, float("inf")),
    lambda: HybridParams(1.0, 4.0, 1.0, unitary_substep=0.0),
    lambda: HybridParams(1.0, 4.0, 1.0, unitary_substep=-0.1),
    lambda: HybridParams(1.0, 4.0, 1.0, unitary_substep=float("nan")),
    lambda: HybridParams(1.0, 4.0, 1.0, unitary_substep=float("inf")),
    lambda: GrwParams(float("inf"), 0.5, 1.0),
    lambda: GrwParams(float("nan"), 0.5, 1.0),
    lambda: GrwParams(4.0, float("nan"), 1.0),
    lambda: GrwParams(4.0, float("inf"), 1.0),
    lambda: GrwParams(4.0, 0.5, float("nan")),
    lambda: GrwParams(4.0, 0.5, 1.0, unitary_substep=0.0),
    lambda: GrwParams(4.0, 0.5, 1.0, unitary_substep=float("nan")),
    lambda: GrwParams(4.0, 0.5, 1.0, unitary_substep=float("inf")),
    lambda: DiosiParams(1.0, 64, 1.0, (float("nan"),)),
    lambda: DiosiParams(1.0, 64, 1.0, (0.5, float("inf"))),
    lambda: HybridParams(1.0, 4.0, 1.0, (float("nan"),)),
    lambda: HybridParams(1.0, 4.0, 1.0, (float("-inf"), 0.5)),
    lambda: GrwParams(4.0, 0.5, 0.5, (float("nan"),)),
    lambda: GrwParams(4.0, 0.5, 0.5, (0.25, float("nan"))),
], ids=[
    "diosi-lam-nan", "diosi-lam-inf", "diosi-tmax-nan", "diosi-tmax-inf",
    "hybrid-lam-nan", "hybrid-mu-nan", "hybrid-mu-inf", "hybrid-tmax-inf",
    "hybrid-substep-zero", "hybrid-substep-negative", "hybrid-substep-nan",
    "hybrid-substep-inf",
    "grw-mu-inf", "grw-mu-nan", "grw-alpha-nan", "grw-alpha-inf", "grw-tmax-nan",
    "grw-substep-zero", "grw-substep-nan", "grw-substep-inf",
    "diosi-time-nan", "diosi-time-inf", "hybrid-time-nan", "hybrid-time-minus-inf",
    "grw-time-nan", "grw-second-time-nan",
])
def test_non_finite_or_non_positive_parameter_fails_closed(make):
    with pytest.raises(InvalidParameterError):
        make()


@pytest.mark.parametrize("packet,flagged", [("edge", True), ("centre", False)])
def test_weights_only_diosi_keeps_boundary_flag(packet, flagged):
    # weak collapse: the pushed packet reaches the edge on every trajectory
    phi, h = PACKETS[packet], HAMILTONIANS["free"]
    p = DiosiParams(0.1, 64, 0.5, (0.25, 0.5))
    full = diosi_ensemble(phi, h, p, 63, 20)
    bare = diosi_ensemble(phi, h, p, 63, 20, store_states=False)
    assert [r.boundary_flag for r in bare] == [r.boundary_flag for r in full]
    assert all(r.boundary_flag is flagged for r in bare)
