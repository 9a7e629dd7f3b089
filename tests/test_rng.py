"""Stream keying and Wiener-path invariants.

The references here build numpy's SeedSequence / Philox / Generator
directly, so they pin the stream bytes independently of collapsim.rng.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsim.errors import InvalidParameterError
from collapsim.rng import (
    ROLE_FLASH_NOISE,
    ROLE_FLASH_POSITION,
    ROLE_JUMP_TIMES,
    ROLE_WIENER,
    ExponentialSequence,
    WienerPath,
    WienerRows,
    fill_rows,
    philox_keys,
    row_generators,
    stream,
)


def _reference(seed, trajectory, role, block=0):
    return np.random.Generator(np.random.Philox(
        np.random.SeedSequence(seed, spawn_key=(trajectory, role, block))))


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
    got = stream(11, trajectory, ROLE_FLASH_NOISE, 2).standard_normal(64)
    assert np.array_equal(got, _reference(11, trajectory, ROLE_FLASH_NOISE, 2)
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
        g = _reference(5, t, ROLE_JUMP_TIMES, 1)
        assert np.array_equal(row, [getattr(g, method)() for _ in range(k)])
    sized = [getattr(g, method)(k) for g in
             row_generators(philox_keys(5, trajectories, ROLE_JUMP_TIMES, 1))]
    assert np.array_equal(np.array(sized), bulk)


def test_wiener_cells_equal_seed_sequence_normals():
    scale = (1.0 / 64.0) ** 0.5
    want = np.concatenate([_reference(13, 2, ROLE_WIENER, b).standard_normal(4096)
                           for b in range(2)]) * scale
    assert np.array_equal(WienerPath(13, 2, 64).cell_increments(0, 8192), want)
    assert np.array_equal(WienerPath(13, 2, 64).cell_increments(4000, 4200),
                          want[4000:4200])


def test_wiener_rows_equal_wiener_paths():
    # chunks that start and end inside blocks, read row after row
    trajectories = [0, 9, 2**33]
    paths = [WienerPath(21, t, 32, block_size=16).cell_increments(0, 70)
             for t in trajectories]
    rows = WienerRows(21, trajectories, 32, block_size=16)
    got = np.zeros((3, 70))
    for a, b in [(0, 5), (5, 16), (16, 37), (37, 38), (38, 70)]:
        for r in range(3):
            rows.fill(r, a, got[r, a:b])
    assert np.array_equal(got, np.array(paths))
    assert np.array_equal(rows.fill(1, 20, np.empty(9)), paths[1][20:29])
    assert rows.fill(2, 3, np.empty(0)).size == 0


def test_same_key_same_stream():
    a = stream(7, 3, ROLE_WIENER).standard_normal(16)
    b = stream(7, 3, ROLE_WIENER).standard_normal(16)
    assert np.array_equal(a, b)


def test_distinct_keys_differ():
    base = stream(7, 3, ROLE_WIENER).standard_normal(16)
    for other in [stream(8, 3, ROLE_WIENER), stream(7, 4, ROLE_WIENER),
                  stream(7, 3, ROLE_JUMP_TIMES), stream(7, 3, ROLE_WIENER, 1)]:
        assert not np.array_equal(base, other.standard_normal(16))


def test_wiener_cells_order_independent():
    p1 = WienerPath(1, 0, 64)
    p2 = WienerPath(1, 0, 64)
    late = p1.cell_increments(100, 140)
    _ = p2.cell_increments(0, 100)
    assert np.array_equal(late, p2.cell_increments(100, 140))


def test_wiener_block_boundary_consistency():
    p = WienerPath(5, 2, 32, block_size=16)
    whole = p.cell_increments(0, 50)
    parts = np.concatenate([p.cell_increments(0, 13), p.cell_increments(13, 16),
                            p.cell_increments(16, 50)])
    assert np.array_equal(whole, parts)


def test_wiener_draws_only_the_prefix_it_needs():
    # a short draw, a later longer one and one across a block boundary give
    # the cells of a path drawn as whole blocks, and draw no further
    scale = (1.0 / 64.0) ** 0.5
    blocks = np.concatenate([stream(13, 2, ROLE_WIENER, b).standard_normal(4096)
                             for b in range(2)]) * scale
    whole = WienerPath(13, 2, 64).cell_increments(0, 8192)
    assert np.array_equal(whole, blocks)
    lazy = WienerPath(13, 2, 64)
    assert np.array_equal(lazy.cell_increments(0, 1), blocks[:1])
    assert lazy.normals_drawn == 1
    assert np.array_equal(lazy.cell_increments(0, 512), blocks[:512])
    assert lazy.normals_drawn == 512
    assert np.array_equal(lazy.cell_increments(4000, 4200), blocks[4000:4200])
    assert lazy.normals_drawn == 4096 + 104
    assert np.array_equal(lazy.cell_increments(0, 8192), blocks)


def test_coarse_increments_are_fine_sums():
    p = WienerPath(9, 1, 256)
    fine = p.cell_increments(0, 256)
    coarse = p.coarse_increments(4, 0, 4)  # 4 cells of a 4-per-unit mesh
    assert coarse.shape == (4,)
    assert np.allclose(coarse, fine.reshape(4, 64).sum(axis=1), rtol=0, atol=0)
    assert p.increment(0, 256) == pytest.approx(coarse.sum(), rel=1e-12)


def test_coarse_requires_divisibility():
    p = WienerPath(9, 1, 256)
    with pytest.raises(InvalidParameterError):
        p.coarse_increments(3, 0, 1)


def test_wiener_increment_variance():
    # variance of one cell is 1/resolution; crude 6-sigma sanity bound
    p = WienerPath(11, 0, 128)
    cells = p.cell_increments(0, 8192)
    var = cells.var()
    expected = 1.0 / 128.0
    assert abs(var - expected) < 6.0 * expected * np.sqrt(2.0 / 8192)


def test_exponential_sequence_indexing():
    s1 = ExponentialSequence(3, 4, block_size=8)
    s2 = ExponentialSequence(3, 4, block_size=8)
    vals = [s1[i] for i in range(20)]
    assert vals[17] == s2[17]
    assert all(v > 0 for v in vals)
    assert stream(3, 4, ROLE_FLASH_NOISE) is not None
