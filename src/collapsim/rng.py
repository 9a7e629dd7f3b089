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

Row draws.  An engine draws a row's values by resetting one reused Philox
to {counter 0, key k} and making one bulk call (``random(out=...)``,
``standard_normal(out=...)``, ``standard_exponential(out=...)``).  A bulk
draw of K values from one stream equals K scalar draws, so a row's values
do not depend on how many are drawn at once, nor on the other rows.
"""

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


def fill_rows(keys, method, out):
    """Row r of ``out``: the first out.shape[1] values of ``method`` on key r's stream.

    ``method`` names a Generator method taking ``out=`` ("random",
    "standard_normal", "standard_exponential").  Returns ``out``.
    """
    gen = _Restartable()
    for key, row in zip(keys, out):
        getattr(gen.at(key), method)(out=row)
    return out


def row_generators(keys):
    """Yield one Generator, restarted in turn at the stream of each key.

    The same object is yielded every time, so a row's draws must be made
    before the next row is requested.
    """
    gen = _Restartable()
    return (gen.at(key) for key in keys)


def coarse_ratio(cells_per_unit, mesh_per_unit):
    """Number of fine cells per cell of the coarser mesh (must be integral)."""
    ratio = float(cells_per_unit) / float(mesh_per_unit)
    rounded = round(ratio)
    if rounded < 1 or abs(ratio - rounded) > 1e-9 * max(1.0, ratio):
        raise InvalidParameterError(
            f"mesh resolution {mesh_per_unit} does not divide path resolution "
            f"{float(cells_per_unit)}")
    return int(rounded)


class WienerRows:
    """The Wiener paths of many trajectories at resolution cells_per_unit, row by row.

    Row r holds the cells of trajectory trajectories[r] in the layout of
    the module docstring, drawn on one reused Philox; the keys of block b
    are derived for every row at once, on first use.  A read that starts
    inside a block draws the block's prefix again, so readers that go
    chunk by chunk should end their chunks on block boundaries.

    Not thread-safe: the Philox and the key cache are shared by every
    read, so each thread needs a WienerRows of its own.
    """

    def __init__(self, seed, trajectories, cells_per_unit, block_size=WIENER_BLOCK):
        if not (0 < cells_per_unit < np.inf):
            raise InvalidParameterError("cells_per_unit must be positive and finite")
        self._scale = (1.0 / float(cells_per_unit)) ** 0.5
        self.seed = int(seed)
        self.trajectories = list(trajectories)
        self.block_size = int(block_size)
        self._keys = {}  # block index -> keys of every row
        self._gen = _Restartable()

    def fill(self, r, start, out):
        """Write the cells [start, start + out.size) of row r into ``out``; return it."""
        pos, stop = start, start + out.size
        while pos < stop:
            b, off = divmod(pos, self.block_size)
            take = min(self.block_size - off, stop - pos)
            if b not in self._keys:
                self._keys[b] = philox_keys(self.seed, self.trajectories, ROLE_WIENER, b)
            gen = self._gen.at(self._keys[b][r])
            if off:
                gen.standard_normal(off)
            gen.standard_normal(out=out[pos - start:pos - start + take])
            pos += take
        out *= self._scale
        return out


def coarse_sums(fine, ratio):
    """Sums of consecutive runs of ``ratio`` fine cells: increments over the coarse cells."""
    return fine if ratio == 1 else fine.reshape(-1, ratio).sum(axis=1)
