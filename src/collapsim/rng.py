"""Counter-based random streams for reproducible parallel Monte Carlo.

Every random draw in collapsim comes from a Philox stream keyed by
(seed, trajectory index, role, block).  The values depend only on the key,
never on draw order, thread schedule or worker count.  Wiener paths are
generated on a fixed fine mesh in blocks, so increments over a coarser
mesh (common random numbers across process resolutions) are sums of the
same underlying fine cells.

Keys.  The stream of (seed, t, role, block) is Philox at counter 0 with
the 128-bit key ``SeedSequence(seed, spawn_key=(t, role, block))
.generate_state(2, np.uint64)``, i.e. the stream of
``Generator(Philox(SeedSequence(...)))``.  ``philox_keys`` derives that
key for many trajectories in one pass: it runs SeedSequence's hash in
32-bit arithmetic, with one uint32 array entry per trajectory.  Each
integer is split into little-endian 32-bit words (one word for 0), the
seed's words are zero-padded to the pool size, and the spawn key's words
follow.  Four pool words are filled by hashmix (constants INIT_A / MULT_A)
and mixed pairwise (MIX_MULT_L / MIX_MULT_R); the remaining words are
mixed into every pool word; the state is drawn from the pool by hashmix
with INIT_B / MULT_B.  Words shared by all rows (the seed, role and block)
are hashed as Python ints, so rows of different word counts are hashed in
groups.  ``stream`` builds the SeedSequence itself, numpy's reference for
the key that ``philox_keys`` reproduces.

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

# Values per keyed block of a Wiener path and of an exponential sequence.
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

    Row r equals ``SeedSequence(seed, spawn_key=(trajectories[r], role,
    block)).generate_state(2, np.uint64)``; every component must be a
    nonnegative integer.
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


def stream(seed, trajectory, role, block=0):
    """Return a counter-based generator for the given stream key.

    Two calls with equal keys yield generators that produce identical
    sequences; distinct keys give statistically independent streams.
    """
    key = np.random.SeedSequence(int(seed), spawn_key=(int(trajectory), int(role), int(block)))
    return np.random.Generator(np.random.Philox(key))


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


def _cell_scale(cells_per_unit):
    if not (0 < cells_per_unit < np.inf):
        raise InvalidParameterError("cells_per_unit must be positive and finite")
    return (1.0 / float(cells_per_unit)) ** 0.5


def coarse_ratio(cells_per_unit, mesh_per_unit):
    """Number of fine cells per cell of the coarser mesh (must be integral)."""
    ratio = float(cells_per_unit) / float(mesh_per_unit)
    rounded = round(ratio)
    if rounded < 1 or abs(ratio - rounded) > 1e-9 * max(1.0, ratio):
        raise InvalidParameterError(
            f"mesh resolution {mesh_per_unit} does not divide path resolution "
            f"{float(cells_per_unit)}")
    return int(rounded)


class WienerPath:
    """Lazily generated Wiener path increments on a fixed uniform mesh.

    The path is defined by its increments over cells [j, j+1] / cells_per_unit,
    each Normal(0, 1/cells_per_unit).  Cells are materialized in blocks keyed
    by (seed, trajectory, ROLE_WIENER, block index), so any sub-range can be
    (re)computed independently of access order, and the path extends lazily
    past any horizon.  Within a block only the prefix a caller has reached is
    drawn; the block's generator is kept and extends the prefix on demand.
    A chunked draw from one Philox stream equals a single draw, so the cells
    do not depend on how the path was read.

    Parameters
    ----------
    seed, trajectory : int
        Stream key components.
    cells_per_unit : float
        Mesh resolution; the increment over one cell has variance
        1/cells_per_unit.
    """

    def __init__(self, seed, trajectory, cells_per_unit, block_size=WIENER_BLOCK):
        self._scale = _cell_scale(cells_per_unit)
        self.seed = int(seed)
        self.trajectory = int(trajectory)
        self.cells_per_unit = float(cells_per_unit)
        self.block_size = int(block_size)
        self._blocks = {}  # block index -> [generator, cells, number drawn]

    @property
    def normals_drawn(self):
        """Normals drawn so far, over all blocks."""
        return sum(drawn for _, _, drawn in self._blocks.values())

    def _block(self, b, stop):
        """Cells of block b with at least the prefix [0, stop) drawn."""
        got = self._blocks.get(b)
        if got is None:
            got = [stream(self.seed, self.trajectory, ROLE_WIENER, block=b),
                   np.empty(self.block_size), 0]
            self._blocks[b] = got
        g, cells, drawn = got
        if stop > drawn:
            fresh = cells[drawn:stop]
            g.standard_normal(out=fresh)
            fresh *= self._scale
            got[2] = stop
        return cells

    def cell_increments(self, start, stop):
        """Increments of the cells [start, stop) as an array."""
        start, stop = int(start), int(stop)
        if start < 0 or stop < start:
            raise InvalidParameterError("invalid cell range")
        out = np.empty(stop - start)
        pos = start
        at = 0
        while pos < stop:
            b, off = divmod(pos, self.block_size)
            take = min(self.block_size - off, stop - pos)
            out[at:at + take] = self._block(b, off + take)[off:off + take]
            pos += take
            at += take
        return out

    def increment(self, start, stop):
        """xi(stop/r) - xi(start/r) where r = cells_per_unit."""
        return float(self.cell_increments(start, stop).sum())

    def coarse_ratio(self, mesh_per_unit):
        """Number of fine cells per cell of the coarser mesh (must be integral)."""
        return coarse_ratio(self.cells_per_unit, mesh_per_unit)

    def coarse_increments(self, mesh_per_unit, start, stop):
        """Increments over cells [start, stop) of a coarser mesh.

        The coarser mesh must subdivide evenly into the path mesh; the
        returned increments are exact sums of the underlying fine cells,
        which is what makes runs at different resolutions share one path.
        """
        ratio = self.coarse_ratio(mesh_per_unit)
        return coarse_sums(self.cell_increments(start * ratio, stop * ratio), ratio)


class WienerRows:
    """The paths WienerPath(seed, t, cells_per_unit) of many trajectories, row by row.

    The cells come from the same keyed blocks as WienerPath's, drawn on one
    reused Philox; the keys of block b are derived for every row at once,
    on first use.  A read that starts inside a block draws the block's
    prefix again, so readers that go chunk by chunk should end their
    chunks on block boundaries.

    Not thread-safe: the Philox and the key cache are shared by every
    read, so each thread needs a WienerRows of its own.
    """

    def __init__(self, seed, trajectories, cells_per_unit, block_size=WIENER_BLOCK):
        self._scale = _cell_scale(cells_per_unit)
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


class ExponentialSequence:
    """Lazy i.i.d. Exp(1) sequence with block-keyed, order-independent access."""

    def __init__(self, seed, trajectory, block_size=EXPONENTIAL_BLOCK):
        self.seed = int(seed)
        self.trajectory = int(trajectory)
        self.block_size = int(block_size)
        self._blocks = {}

    def _block(self, b):
        got = self._blocks.get(b)
        if got is None:
            g = stream(self.seed, self.trajectory, ROLE_JUMP_TIMES, block=b)
            got = g.standard_exponential(self.block_size)
            self._blocks[b] = got
        return got

    def __getitem__(self, i):
        i = int(i)
        if i < 0:
            raise IndexError("negative index")
        b, off = divmod(i, self.block_size)
        return float(self._block(b)[off])

    def head(self, m):
        """The first m values as an array."""
        blocks = [self._block(b) for b in range(-(-int(m) // self.block_size))]
        return np.concatenate(blocks)[:m] if blocks else np.empty(0)
