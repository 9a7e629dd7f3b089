"""Counter-based random streams for reproducible parallel Monte Carlo.

Every random draw in collapsim comes from a Philox stream keyed by
(seed, trajectory index, role, block).  The values depend only on the key,
never on draw order, thread schedule or worker count.  The layouts below
are the spec; ``tests/reference.py`` is their oracle, built on numpy alone.

Keys.  The stream of (seed, t, role, block) is Philox at counter 0 with
the 128-bit key that numpy's SeedSequence of entropy seed and spawn key
(t, role, block) generates (``generate_state(2, np.uint64)``), i.e. the
stream of a Generator on a Philox seeded by it.  ``philox_keys`` derives that
key for many trajectories in one pass: it runs SeedSequence's hash in
32-bit arithmetic, with one uint32 array entry per trajectory.  Each
integer is split into little-endian 32-bit words (one word for 0), the
seed's words are zero-padded to the pool size, and the spawn key's words
follow.  Four pool words are filled by hashmix (constants INIT_A / MULT_A)
and mixed pairwise (MIX_MULT_L / MIX_MULT_R); the remaining words are
mixed into every pool word; the state is drawn from the pool by hashmix
with INIT_B / MULT_B.  Words shared by all rows (the seed, role and block)
are hashed as Python ints, so rows of different word counts are hashed in
groups.

Wiener paths.  Cell j of trajectory t's path at resolution R, the
increment over [j, j + 1] / R, is R^(-1/2) times value j % 4096
(WIENER_BLOCK) of the standard normals of stream (seed, t, ROLE_WIENER,
j // 4096).  A coarser mesh (M cells per unit, M dividing R) sums runs of
R / M fine cells, so processes at different resolutions share one path.

Waits.  Exp(1) wait k of trajectory t is value k % 256 (EXPONENTIAL_BLOCK)
of the standard exponentials of stream (seed, t, ROLE_JUMP_TIMES, k // 256).
Every jump process reads its waits so: the GRW and hybrid processes run on
the one jump clock ``engine._jump_schedule``, whose jump times are the
running sums of wait k times 1/mu.

Row draws.  ``fill_rows`` gives row r values start .. start + K - 1 of
key r's stream, exactly as a Generator on a Philox at {counter 0, key r}
gives them.  Rows of at most ``_VECTOR_ROW_LIMIT`` (16) values of
``random`` or ``standard_normal`` are drawn for every key in one array
pass, since Philox is counter-based: ``_philox_raw`` runs Philox4x64-10 on
uint64 arrays (the 64 x 64 -> 128-bit products on 32-bit halves), with
numpy's counter, which is incremented before the first block.  A uniform
is (raw >> 11) 2^-53.  A normal takes numpy's ziggurat fast path: idx =
raw & 0xff, the sign is bit 8, rabs is bits 9 .. 60, and x = rabs wi[idx],
accepted when rabs < ki[idx].  The widths wi are read from numpy itself
at import, by setting Philox's buffer (rabs = 1, so x = wi[idx]); the
bounds ki[idx] = floor(2^52 wi[idx - 1] / wi[idx]) - 4 lie at or below
numpy's own, and idx 0 and 1 never pass.  A row with any value off the
fast path is redrawn by the per-row restart: one reused Philox reset to
{counter 0, key k} and one bulk call (``random(out=...)``,
``standard_normal(out=...)``, ``standard_exponential(out=...)``).  The
restart also draws the longer rows, where it is the faster path, and
every ``standard_exponential`` row.  A bulk draw of K values from one
stream equals K scalar draws, so a row's values depend neither on how
many are drawn at once, nor on the other rows, nor on the path that drew
them.
"""

import math

import numpy as np

from .errors import InvalidParameterError

# Stream roles.  One stream per (trajectory, role) keeps the jump clock,
# the Wiener path and the flash draws mutually independent.
ROLE_JUMP_TIMES = 0
ROLE_WIENER = 1
ROLE_FLASH_NOISE = 2
ROLE_FLASH_POSITION = 3

# Values per keyed block of a Wiener path and of the waits.
WIENER_BLOCK = 4096
EXPONENTIAL_BLOCK = 256

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx).
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _words(n):
    """Little-endian 32-bit words of a nonnegative int; one word for 0."""
    n = int(n)
    if n < 0:
        raise InvalidParameterError("stream key components must be nonnegative")
    words = [n & _MASK32]
    while n >> 32:
        n >>= 32
        words.append(n & _MASK32)
    return words


class _HashMix:
    """SeedSequence's hashmix with a running constant.

    Values are Python ints or uint32 arrays; array products wrap mod 2^32.
    """

    def __init__(self, init, mult):
        self.const, self.mult = init, mult

    def __call__(self, value):
        value = value ^ self.const
        self.const = self.const * self.mult & _MASK32
        value = value * self.const & _MASK32
        return value ^ value >> 16


def _mix(x, y):
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _seed_sequence_key(entropy):
    """The two uint64 key words SeedSequence derives from its entropy words."""
    hashmix = _HashMix(_INIT_A, _MULT_A)
    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _HashMix(_INIT_B, _MULT_B)
    lo0, hi0, lo1, hi1 = (np.asarray(hashmix(w), dtype=np.uint64) for w in pool)
    return lo0 | hi0 << np.uint64(32), lo1 | hi1 << np.uint64(32)


def philox_keys(seed, trajectories, role, block=0):
    """(N, 2) uint64 Philox keys of the streams (seed, trajectories[r], role, block).

    Row r is the ``generate_state(2, np.uint64)`` of numpy's SeedSequence
    of entropy seed and spawn key (trajectories[r], role, block); every
    component must be a nonnegative integer.
    """
    t = np.asarray(trajectories)
    if t.ndim != 1:
        raise InvalidParameterError("trajectories must be a 1-D sequence")
    keys = np.empty((t.size, 2), dtype=np.uint64)
    head = _words(seed)
    head += [0] * (_POOL_SIZE - len(head))
    tail = _words(role) + _words(block)
    if t.size == 0:
        return keys
    if t.dtype.kind not in "iuO" or np.any(t < 0):
        raise InvalidParameterError("trajectory indices must be nonnegative integers")
    n_words = np.ones(t.size, dtype=np.int64)
    rest = t >> 32
    while np.any(rest > 0):
        n_words += rest > 0
        rest = rest >> 32
    for w in np.unique(n_words):
        rows = n_words == w
        words = [((t[rows] >> 32 * i) & _MASK32).astype(np.uint32) for i in range(w)]
        keys[rows] = np.column_stack(_seed_sequence_key(head + words + tail))
    return keys


class _Restartable:
    """One Generator on one Philox that restarts at the stream of any key."""

    def __init__(self):
        self.bit_generator = np.random.Philox(0)  # a fixed seed: no OS entropy
        self.generator = np.random.Generator(self.bit_generator)
        self._start = self.bit_generator.state  # counter 0, empty buffer

    def at(self, key):
        """The generator at the start of key's stream."""
        self._start["state"]["key"] = key
        self.bit_generator.state = self._start
        return self.generator


# Philox4x64-10 (numpy/random/src/philox/philox.h): the multipliers of
# counter words 0 and 2, and the Weyl increments of key words 0 and 1.
_PHILOX_M = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157], dtype=np.uint64)[:, None, None]
_PHILOX_W = np.array([0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)[:, None, None]
_PHILOX_M_LO, _PHILOX_M_HI = _PHILOX_M & np.uint64(_MASK32), _PHILOX_M >> np.uint64(32)
_PHILOX_ROUNDS = 10


def _philox_raw(keys, n):
    """(N, n) uint64: the first n raw outputs of Philox at {counter 0, key r}, row r.

    Block b of a row is the ten-round Philox of the counter (b + 1, 0, 0,
    0), whose four words are outputs 4b .. 4b + 3.  Counter words 0 and 2
    (the multiplied pair) and words 1 and 3 are held as (2, N, blocks)
    arrays, so a round is one pass over both pairs.
    """
    keys = np.asarray(keys, dtype=np.uint64).reshape(-1, 2)
    rows, blocks = keys.shape[0], -(-n // 4)
    mul = np.zeros((2, rows, blocks), dtype=np.uint64)
    mul[0] = np.arange(1, blocks + 1, dtype=np.uint64)
    xor = np.zeros_like(mul)
    key = keys.T[:, :, None].copy()
    low, shift = np.uint64(_MASK32), np.uint64(32)
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += _PHILOX_W
        m_lo, m_hi = mul & low, mul >> shift
        lh, hl = _PHILOX_M_LO * m_hi, _PHILOX_M_HI * m_lo
        carry = (_PHILOX_M_LO * m_lo >> shift) + (lh & low) + (hl & low)
        high = _PHILOX_M_HI * m_hi + (lh >> shift) + (hl >> shift) + (carry >> shift)
        # words 0, 2 <- high of the other pair's product ^ words 1, 3 ^ key;
        # words 1, 3 <- low of the other pair's product
        mul, xor = high[::-1] ^ xor ^ key, (_PHILOX_M * mul)[::-1]
    out = np.stack([mul[0], xor[0], mul[1], xor[1]], axis=-1)
    return out.reshape(rows, 4 * blocks)[:, :n]


def _ziggurat_tables():
    """(wi, ki): numpy's ziggurat widths, and fast-path bounds at or below its own.

    wi[idx] is read from numpy: with Philox's buffer holding the raw value
    idx | 1 << 9 (sign 0, rabs 1), standard_normal returns 1 * wi[idx].
    The second buffer word, 0, lets idx 1 pass its wedge test at once.
    """
    bit_generator = np.random.Philox(0)
    generator = np.random.Generator(bit_generator)
    state = bit_generator.state

    def width(idx):
        state["buffer"] = np.array([idx | 1 << 9, 0, 0, 0], dtype=np.uint64)
        state["buffer_pos"] = 0
        bit_generator.state = state
        return generator.standard_normal()

    wi = np.array([width(idx) for idx in range(256)])
    ki = np.zeros(256, dtype=np.uint64)  # idx 0 and 1 never pass
    ki[2:] = np.floor(2.0 ** 52 * wi[1:-1] / wi[2:]) - 4
    return wi, ki


_ZIGGURAT_WI, _ZIGGURAT_KI = _ziggurat_tables()

# Longest rows drawn in one array pass.  Normals for 1000 rows, array pass
# plus redraws against the per-row restart (2 cores, numpy 2.4): 8 values
# 2.5 / 3.0 ms, 16 values 2.4 / 3.0 ms, 24 values 3.1 / 3.1 ms, 32 values
# 5.2 / 3.6 ms.  Uniforms, with no redraws, gain at each of these lengths.
_VECTOR_ROW_LIMIT = 16


def _fill_each(keys, method, out, start):
    """fill_rows by the per-row restart: one bulk call per row."""
    gen = _Restartable()
    for key, row in zip(keys, out):
        row_gen = getattr(gen.at(key), method)
        if start:
            row_gen(start)
        row_gen(out=row)
    return out


def fill_rows(keys, method, out, start=0):
    """Row r of ``out``: values start .. start + out.shape[1] - 1 of ``method`` on key r's stream.

    ``method`` names a Generator method taking ``out=`` ("random",
    "standard_normal", "standard_exponential").  Short rows of the first
    two are drawn for every key at once (module docstring).  Returns ``out``.
    """
    n = start + out.shape[1]
    if method not in ("random", "standard_normal") or n > _VECTOR_ROW_LIMIT:
        return _fill_each(keys, method, out, start)
    keys = np.asarray(keys, dtype=np.uint64)
    raw = _philox_raw(keys, n)
    if method == "random":
        out[...] = (raw[:, start:] >> 11) * 2.0 ** -53
        return out
    idx = raw & 0xFF
    rabs = raw >> 9 & (1 << 52) - 1
    x = rabs * _ZIGGURAT_WI[idx]
    np.negative(x, out=x, where=(raw & 0x100).astype(bool))
    out[...] = x[:, start:]
    redo = np.flatnonzero(~(rabs < _ZIGGURAT_KI[idx]).all(axis=1))
    if redo.size:
        out[redo] = _fill_each(keys[redo], method, np.empty((redo.size, out.shape[1])), start)
    return out


def coarse_ratio(cells_per_unit, mesh_per_unit):
    """Number of fine cells per cell of the coarser mesh (a positive integer, or raise).

    A path resolution that is zero, negative or not finite has no such
    number; mesh_per_unit must be positive.
    """
    ratio = float(cells_per_unit) / float(mesh_per_unit)
    rounded = round(ratio) if math.isfinite(ratio) else 0
    if rounded < 1 or abs(ratio - rounded) > 1e-9 * max(1.0, ratio):
        raise InvalidParameterError(
            f"mesh resolution {mesh_per_unit} does not divide path resolution "
            f"{float(cells_per_unit)}")
    return int(rounded)


class WienerRows:
    """The Wiener paths of many trajectories at resolution cells_per_unit.

    Row r holds the cells of trajectory trajectories[r] in the layout of
    the module docstring.  ``fill`` reads a range of cells for many rows
    at once through ``fill_rows``; the keys of block b are derived for
    every row at once, on first use.  A read that starts inside a block
    draws the block's prefix again, so readers that go chunk by chunk
    should end their chunks on block boundaries.

    The key cache is not locked, so each thread needs a WienerRows of its
    own.
    """

    def __init__(self, seed, trajectories, cells_per_unit, block_size=WIENER_BLOCK):
        if not (0 < cells_per_unit < np.inf):
            raise InvalidParameterError("cells_per_unit must be positive and finite")
        self._scale = (1.0 / float(cells_per_unit)) ** 0.5
        self.seed = int(seed)
        self.trajectories = list(trajectories)
        self.block_size = int(block_size)
        self._keys = {}  # block index -> keys of every row

    def fill(self, rows, start, out):
        """Write the cells [start, start + out.shape[1]) of ``rows`` into ``out``; return it.

        ``rows`` indexes the trajectories (a slice or an index array), and
        out row i receives the cells of the i-th row it selects.
        """
        pos, stop = start, start + out.shape[1]
        while pos < stop:
            b, off = divmod(pos, self.block_size)
            take = min(self.block_size - off, stop - pos)
            if b not in self._keys:
                self._keys[b] = philox_keys(self.seed, self.trajectories, ROLE_WIENER, b)
            fill_rows(self._keys[b][rows], "standard_normal",
                      out[:, pos - start:pos - start + take], off)
            pos += take
        out *= self._scale
        return out


def coarse_sums(fine, ratio):
    """Sums of consecutive runs of ``ratio`` fine cells along the last axis: increments
    over the coarse cells."""
    return fine if ratio == 1 else fine.reshape(fine.shape[:-1] + (-1, ratio)).sum(axis=-1)
