"""Counter-based random streams for reproducible parallel Monte Carlo.

Every random draw in collapsim comes from a Philox stream keyed by
(seed, trajectory index, role, block).  The values depend only on the key,
never on draw order, thread schedule or worker count.  Wiener paths are
generated on a fixed fine mesh in blocks, so increments over a coarser
mesh (common random numbers across process resolutions) are sums of the
same underlying fine cells.
"""

import numpy as np

from .errors import InvalidParameterError

# Stream roles.  One stream per (trajectory, role) keeps the jump clock,
# the Wiener path and the flash draws mutually independent.
ROLE_JUMP_TIMES = 0
ROLE_WIENER = 1
ROLE_FLASH_NOISE = 2
ROLE_FLASH_POSITION = 3


def stream(seed, trajectory, role, block=0):
    """Return a counter-based generator for the given stream key.

    Two calls with equal keys yield generators that produce identical
    sequences; distinct keys give statistically independent streams.
    """
    key = np.random.SeedSequence(int(seed), spawn_key=(int(trajectory), int(role), int(block)))
    return np.random.Generator(np.random.Philox(key))


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

    def __init__(self, seed, trajectory, cells_per_unit, block_size=4096):
        if not (0 < cells_per_unit < np.inf):
            raise InvalidParameterError("cells_per_unit must be positive and finite")
        self.seed = int(seed)
        self.trajectory = int(trajectory)
        self.cells_per_unit = float(cells_per_unit)
        self.block_size = int(block_size)
        self._scale = (1.0 / self.cells_per_unit) ** 0.5
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
        ratio = self.cells_per_unit / float(mesh_per_unit)
        rounded = round(ratio)
        if rounded < 1 or abs(ratio - rounded) > 1e-9 * max(1.0, ratio):
            raise InvalidParameterError(
                f"mesh resolution {mesh_per_unit} does not divide path resolution "
                f"{self.cells_per_unit}")
        return int(rounded)

    def coarse_increments(self, mesh_per_unit, start, stop):
        """Increments over cells [start, stop) of a coarser mesh.

        The coarser mesh must subdivide evenly into the path mesh; the
        returned increments are exact sums of the underlying fine cells,
        which is what makes runs at different resolutions share one path.
        """
        ratio = self.coarse_ratio(mesh_per_unit)
        fine = self.cell_increments(start * ratio, stop * ratio)
        if ratio == 1:
            return fine
        return fine.reshape(-1, ratio).sum(axis=1)


class ExponentialSequence:
    """Lazy i.i.d. Exp(1) sequence with block-keyed, order-independent access."""

    def __init__(self, seed, trajectory, block_size=256):
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
