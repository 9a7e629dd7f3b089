"""Stream keying and Wiener-path invariants.

The references here (``_reference_key`` and the ``reference`` module)
build numpy's SeedSequence / Philox / Generator directly, so they pin the
stream bytes independently of collapsim.rng.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsim.diosi import _waiting_times
from collapsim.errors import InvalidParameterError
from collapsim.rng import (
    ROLE_FLASH_NOISE,
    ROLE_FLASH_POSITION,
    ROLE_JUMP_TIMES,
    ROLE_WIENER,
    WienerRows,
    coarse_ratio,
    coarse_sums,
    fill_rows,
    philox_keys,
    row_generators,
)
import reference


def _reference_key(seed, trajectory, role, block=0):
    return np.random.SeedSequence(
        seed, spawn_key=(trajectory, role, block)).generate_state(2, np.uint64)


SEEDS = st.sampled_from([0, 1, 2**32 - 1, 2**32 + 5, 2**63 + 17, 2**64 + 3, 2**130 + 9])
TRAJECTORIES = st.lists(
    st.one_of(st.integers(0, 2**32 + 8), st.sampled_from([2**32 - 1, 2**32, 2**40, 2**64 + 1])),
    min_size=1, max_size=12)


@settings(max_examples=60)
@given(SEEDS, TRAJECTORIES, st.integers(0, 3), st.sampled_from([0, 1, 2**33]))
def test_philox_keys_equal_seed_sequence(seed, trajectories, role, block):
    # rows of one, two and three 32-bit words are mixed in one call
    want = np.array([_reference_key(seed, t, role, block) for t in trajectories])
    got = philox_keys(seed, np.array(trajectories, dtype=object), role, block)
    assert got.dtype == np.uint64
    assert np.array_equal(got, want)
    small = [t for t in trajectories if t < 2**63]
    assert np.array_equal(philox_keys(seed, np.array(small, dtype=np.int64), role, block),
                          np.array([_reference_key(seed, t, role, block) for t in small])
                          .reshape(-1, 2))


def test_philox_keys_of_a_range():
    got = philox_keys(953, range(2**32 - 3, 2**32 + 3), ROLE_FLASH_POSITION)
    want = [_reference_key(953, t, ROLE_FLASH_POSITION) for t in range(2**32 - 3, 2**32 + 3)]
    assert np.array_equal(got, np.array(want))
    assert philox_keys(953, [], ROLE_WIENER).shape == (0, 2)


@pytest.mark.parametrize("args", [(-1, [0], 0, 0), (1, [-1], 0, 0), (1, [0], -1, 0),
                                  (1, [0], 0, -1), (1, [0.5], 0, 0), (1, [[0]], 0, 0)])
def test_bad_key_components_raise(args):
    with pytest.raises(InvalidParameterError):
        philox_keys(*args)


@pytest.mark.parametrize("trajectory", [0, 7, 2**32 + 1, 2**70])
def test_stream_equals_seed_sequence_stream(trajectory):
    keys = philox_keys(11, [trajectory], ROLE_FLASH_NOISE, 2)
    got = next(row_generators(keys)).standard_normal(64)
    assert np.array_equal(got, reference.stream(11, trajectory, ROLE_FLASH_NOISE, 2)
                          .standard_normal(64))


@pytest.mark.parametrize("method", ["random", "standard_normal", "standard_exponential"])
def test_bulk_row_draws_equal_scalar_draws(method):
    # one bulk draw of K values on a restarted Philox equals K scalar draws
    # on the stream built from its SeedSequence
    trajectories = [0, 3, 2**32 + 2]
    k = 700
    bulk = fill_rows(philox_keys(5, trajectories, ROLE_JUMP_TIMES, 1), method,
                     np.empty((len(trajectories), k)))
    for row, t in zip(bulk, trajectories):
        g = reference.stream(5, t, ROLE_JUMP_TIMES, 1)
        assert np.array_equal(row, [getattr(g, method)() for _ in range(k)])
    sized = [getattr(g, method)(k) for g in
             row_generators(philox_keys(5, trajectories, ROLE_JUMP_TIMES, 1))]
    assert np.array_equal(np.array(sized), bulk)


def _cells(seed, trajectory, cells_per_unit, start, stop):
    """Cells [start, stop) of one path, read through WienerRows."""
    rows = WienerRows(seed, [trajectory], cells_per_unit)
    return rows.fill(0, start, np.empty(stop - start))


def test_wiener_cells_equal_seed_sequence_normals():
    scale = (1.0 / 64.0) ** 0.5
    want = np.concatenate([reference.stream(13, 2, ROLE_WIENER, b).standard_normal(4096)
                           for b in range(2)]) * scale
    assert np.array_equal(_cells(13, 2, 64, 0, 8192), want)
    assert np.array_equal(_cells(13, 2, 64, 4000, 4200), want[4000:4200])
    assert np.array_equal(reference.wiener_cells(13, 2, 64, 0, 8192), want)
    assert np.array_equal(reference.wiener_cells(13, 2, 64, 4000, 4200), want[4000:4200])


def test_wiener_rows_equal_wiener_paths():
    # chunks that start and end inside blocks, read row after row
    trajectories = [0, 9, 2**33]
    paths = [reference.wiener_cells(21, t, 32, 0, 70, block_size=16) for t in trajectories]
    rows = WienerRows(21, trajectories, 32, block_size=16)
    got = np.zeros((3, 70))
    for a, b in [(0, 5), (5, 16), (16, 37), (37, 38), (38, 70)]:
        for r in range(3):
            rows.fill(r, a, got[r, a:b])
    assert np.array_equal(got, np.array(paths))
    assert np.array_equal(rows.fill(1, 20, np.empty(9)), paths[1][20:29])
    assert rows.fill(2, 3, np.empty(0)).size == 0


def test_same_key_same_stream():
    keys = philox_keys(7, [3, 3], ROLE_WIENER)
    a, b = fill_rows(keys, "standard_normal", np.empty((2, 16)))
    assert np.array_equal(a, b)


def test_distinct_keys_differ():
    base = fill_rows(philox_keys(7, [3], ROLE_WIENER), "standard_normal", np.empty((1, 16)))
    for key in [philox_keys(8, [3], ROLE_WIENER), philox_keys(7, [4], ROLE_WIENER),
                philox_keys(7, [3], ROLE_JUMP_TIMES), philox_keys(7, [3], ROLE_WIENER, 1)]:
        assert not np.array_equal(base, fill_rows(key, "standard_normal", np.empty((1, 16))))


def test_wiener_cells_order_independent():
    p1 = WienerRows(1, [0, 5], 64)
    p2 = WienerRows(1, [5, 0], 64)
    late = p1.fill(1, 4100, np.empty(40))
    p2.fill(0, 0, np.empty(4100))
    assert np.array_equal(late, p2.fill(0, 4100, np.empty(40)))


def test_wiener_block_boundary_consistency():
    p = WienerRows(5, [2], 32, block_size=16)
    whole = p.fill(0, 0, np.empty(50))
    parts = np.concatenate([p.fill(0, 0, np.empty(13)), p.fill(0, 13, np.empty(3)),
                            p.fill(0, 16, np.empty(34))])
    assert np.array_equal(whole, parts)


def test_coarse_increments_are_fine_sums():
    fine = _cells(9, 1, 256, 0, 256)
    ratio = coarse_ratio(256, 4)  # 4 cells of a 4-per-unit mesh
    assert ratio == 64
    coarse = coarse_sums(fine, ratio)
    assert coarse.shape == (4,)
    for c, run in zip(coarse, fine.reshape(4, 64)):
        assert c == run.sum()
    assert coarse_sums(fine, 1) is fine
    assert coarse.sum() == pytest.approx(fine.sum(), rel=1e-12)


def test_coarse_requires_divisibility():
    for mesh in (3, 512, 100.0):
        with pytest.raises(InvalidParameterError):
            coarse_ratio(256, mesh)


def test_wiener_increment_variance():
    # variance of one cell is 1/resolution; crude 6-sigma sanity bound
    cells = _cells(11, 0, 128, 0, 8192)
    var = cells.var()
    expected = 1.0 / 128.0
    assert abs(var - expected) < 6.0 * expected * np.sqrt(2.0 / 8192)


def test_waiting_times_follow_the_block_layout():
    # about 400 waits pass the horizon, so every row takes two blocks of 256,
    # whichever other rows share the call
    for indices in ([0, 4, 2**33], [4]):
        waits = _waiting_times(3, indices, 1.0 / 400.0, 1.0)
        assert waits.shape == (len(indices), 512)
        for row, i in zip(waits, indices):
            assert np.array_equal(row, reference.waits(3, i, 512))
            assert np.cumsum(row / 400.0)[-1] > 1.0
    short = _waiting_times(3, [0, 1], 1.0 / 400.0, 0.1)  # one block suffices
    assert np.array_equal(short, [reference.waits(3, i, 256) for i in (0, 1)])
