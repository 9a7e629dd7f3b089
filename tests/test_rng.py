"""Stream keying and Wiener-path invariants."""

import numpy as np
import pytest

from collapsim.errors import InvalidParameterError
from collapsim.rng import (
    ROLE_FLASH_NOISE,
    ROLE_JUMP_TIMES,
    ROLE_WIENER,
    ExponentialSequence,
    WienerPath,
    stream,
)


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
