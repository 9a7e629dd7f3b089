"""Test oracle for the stream layouts of collapsim.rng, from numpy alone.

Each function builds its streams with np.random.SeedSequence and Philox,
so tests that compare against it pin the bytes independently of the
package's own key derivation and row draws.
"""

import numpy as np

from collapsim.rng import EXPONENTIAL_BLOCK, ROLE_JUMP_TIMES, ROLE_WIENER, WIENER_BLOCK


def stream(seed, trajectory, role, block=0):
    """The Generator of stream (seed, trajectory, role, block)."""
    key = np.random.SeedSequence(seed, spawn_key=(trajectory, role, block))
    return np.random.Generator(np.random.Philox(key))


def wiener_cells(seed, trajectory, cells_per_unit, start, stop, block_size=WIENER_BLOCK):
    """Cells [start, stop) of trajectory's Wiener path at cells_per_unit."""
    first = start // block_size
    blocks = [stream(seed, trajectory, ROLE_WIENER, b).standard_normal(block_size)
              for b in range(first, -(-stop // block_size))]
    cells = np.concatenate([np.empty(0)] + blocks)[start - first * block_size:][:stop - start]
    return cells * (1.0 / cells_per_unit) ** 0.5


def waits(seed, trajectory, m, block_size=EXPONENTIAL_BLOCK):
    """The first m Exp(1) waiting times of trajectory."""
    blocks = [stream(seed, trajectory, ROLE_JUMP_TIMES, b).standard_exponential(block_size)
              for b in range(-(-m // block_size))]
    return np.concatenate([np.empty(0)] + blocks)[:m]
