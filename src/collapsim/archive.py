"""Trajectory archive: a documented little-endian binary container.

Layout (format version string "CLDN1"):

    magic            6 bytes   b"CLDN1\\0"
    header_len       u32 LE
    header           header_len bytes of canonical JSON (sorted keys)
    header_sha256    32 bytes, SHA-256 of the header bytes
    records          n_records record blocks, ordered by trajectory index

Record block:

    index            u64 LE
    boundary_flag    u8
    n_flashes        u32 LE
    flashes          n_flashes x (time f64, center f64, norm2 f64) LE
    n_times          u32 LE
    per time         time f64, weight f64, amplitudes n_points x complex64
                     (real f32, imag f32 interleaved) LE

Amplitudes are stored as complex64; scalars as float64.  The writer takes
a ``records.Trajectories`` with states and the reader returns one, its
states one (N, T, n) complex64 array and its flashes flat, so reading and
rewriting an archive is byte-identical.  The header binds the archive to
the SHA-256 of its producing config: any header mutation fails closed.
The header's grid and sample_times are the trajectories' own.  The records
must agree with the header: every record's times are the header's
sample_times, and the indices strictly increase.  The writer refuses a
weights-only run and indices that do not increase, and the reader raises
ArchiveError on records that break either rule, as on a truncated file or
trailing bytes.
"""

import hashlib
import json

import numpy as np

from .errors import ArchiveError
from .grid import Grid, position_moments
from .records import Trajectories, reweight_ensemble
from .stats import effective_sample_size

MAGIC = b"CLDN1\x00"
FORMAT_VERSION = "CLDN1"
_U32 = np.dtype("<u4")
_RECORD_HEAD = np.dtype([("index", "<u8"), ("boundary_flag", "u1"), ("n_flashes", "<u4")])
_FLASH = np.dtype([("time", "<f8"), ("center", "<f8"), ("norm2", "<f8")])


def _record_tail(n_times, n_points):
    """What follows a record's flashes: n_times, then (time, weight, amplitudes) per time."""
    entry = np.dtype([("time", "<f8"), ("weight", "<f8"), ("amplitudes", "<c8", (n_points,))])
    return np.dtype([("n_times", "<u4"), ("entries", entry, (n_times,))])


def _header_dict(config_sha, seed, grid, sample_times, n_records):
    return {
        "format_version": FORMAT_VERSION,
        "config_sha256": config_sha,
        "seed": int(seed),
        "grid": {"n_points": grid.n_points, "x_min": grid.x_min,
                 "x_max": grid.x_max},
        "sample_times": [float(t) for t in sample_times],
        "n_records": int(n_records),
        "amplitude_dtype": "complex64-le",
        "scalar_dtype": "float64-le",
    }


def _check_indices(indices):
    """ArchiveError unless the record indices strictly increase."""
    bad = np.flatnonzero(np.diff(indices) <= 0)
    if bad.size:
        raise ArchiveError(f"record index {indices[bad[0] + 1]} follows {indices[bad[0]]}; "
                           f"indices must strictly increase")


def write_archive(path, config, records):
    """Write a Trajectories (with states, ordered by index) bound to ``config``."""
    if records.states is None:
        raise ArchiveError("an archive stores states; this run kept the weights only")
    _check_indices(records.indices)
    # plain structured arrays: a recarray row is a slow np.record lookup
    heads = np.rec.fromarrays([records.indices, records.boundary_flags, records.n_flashes],
                              dtype=_RECORD_HEAD).view(np.ndarray)
    flashes = np.rec.fromarrays([records.flash_times, records.flash_centers, records.flash_norms],
                                dtype=_FLASH).view(np.ndarray)
    tails = np.empty(len(records), _record_tail(len(records.times), records.grid.n_points))
    tails["n_times"], entries = len(records.times), tails["entries"]
    entries["time"], entries["weight"], entries["amplitudes"] = (
        records.times, records.weights, records.states)
    header = _header_dict(config.sha256(), config.seed, records.grid, records.times, len(records))
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + np.array(len(header_bytes), _U32).tobytes() + header_bytes
                 + hashlib.sha256(header_bytes).digest())
        for i, end in enumerate(np.cumsum(records.n_flashes)):
            fh.write(heads[i].tobytes() + flashes[end - records.n_flashes[i]:end].tobytes()
                     + tails[i].tobytes())


class ArchiveReader:
    """Parsed archive: header dict plus the Trajectories (complex64 states)."""

    def __init__(self, header, records, grid):
        self.header = header
        self.records = records
        self.grid = grid

    @property
    def sample_times(self):
        return tuple(self.header["sample_times"])


def _take(blob, off, dtype, count=1):
    """count items of dtype at off, with a bounds check; returns (array, offset after)."""
    end = off + dtype.itemsize * count
    if end > len(blob):
        raise ArchiveError(f"archive is truncated: {len(blob)} bytes, record data "
                           f"needs {end}")
    return np.frombuffer(blob, dtype, count, off), end


def read_archive(path, expected_config=None):
    """Parse an archive; any malformed or truncated input raises ArchiveError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise ArchiveError("bad magic; not a CLDN1 archive")
    hlen, off = _take(blob, len(MAGIC), _U32)
    end = off + int(hlen[0])
    header_bytes, digest, off = blob[off:end], blob[end:end + 32], end + 32
    if hashlib.sha256(header_bytes).digest() != digest:
        raise ArchiveError("header checksum mismatch; archive rejected")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except ValueError as exc:
        raise ArchiveError(f"header is not valid JSON: {exc}") from None
    if header.get("format_version") != FORMAT_VERSION:
        raise ArchiveError("unsupported format version")
    if expected_config is not None and header["config_sha256"] != expected_config.sha256():
        raise ArchiveError("archive was produced by a different config")
    g = header["grid"]
    grid = Grid(g["n_points"], g["x_min"], g["x_max"])
    times, n = tuple(header["sample_times"]), header["n_records"]
    tail = _record_tail(len(times), grid.n_points)
    _take(blob, off, tail, n)  # a record count the file cannot hold fails before allocating
    heads, tails, flashes = np.empty(n, _RECORD_HEAD), np.empty(n, tail), [np.empty(0, _FLASH)]
    for i in range(n):
        head, off = _take(blob, off, _RECORD_HEAD)
        fl, off = _take(blob, off, _FLASH, int(head["n_flashes"][0]))
        rest, off = _take(blob, off, tail)
        heads[i], tails[i] = head[0], rest[0]
        flashes.append(fl)
    if off != len(blob):
        raise ArchiveError("trailing bytes after the last record")
    entries = tails["entries"]
    bad = np.flatnonzero((tails["n_times"] != len(times))
                         | (entries["time"] != np.array(times)).any(axis=1))
    if bad.size:
        raise ArchiveError(f"record {heads['index'][bad[0]]} has times "
                           f"{entries['time'][bad[0]].tolist()}, not the archive's "
                           f"sample_times {times}")
    _check_indices(heads["index"].astype(np.int64))
    flashes = np.concatenate(flashes)
    records = Trajectories(header["seed"], grid, times, heads["index"], entries["weight"].copy(),
                           entries["amplitudes"].copy(), heads["boundary_flag"] != 0,
                           flashes["time"], flashes["center"], flashes["norm2"],
                           heads["n_flashes"].astype(np.int64))
    return ArchiveReader(header, records, grid)


def _fmt(value):
    return f"{value:.17g}"


def _csv_line(values):
    return ",".join(values) + "\r\n"


def summary_csv(records):
    """Per-sample-time summary of a Trajectories: weighted position stats and weight health.

    Columns: time, mean_position, position_variance, mean_weight,
    mean_weight_se, ess, boundary_flags.  The position moments are
    reweighted by the raw squared norms (all ones for the jump process),
    divided by N; ess is the effective sample size of the weights at that
    time, and boundary_flags the number of trajectories whose boundary
    flag is set.
    """
    if not records:
        raise ArchiveError("no records to summarize")
    lines = [_csv_line(["time", "mean_position", "position_variance",
                        "mean_weight", "mean_weight_se", "ess", "boundary_flags"])]
    n = len(records)
    flags = str(np.count_nonzero(records.boundary_flags))
    for t in records.times:
        ens = reweight_ensemble(records, t)
        w = ens.weights
        m1, var = position_moments(ens.amplitudes, ens.grid)
        # <x>^2 as a Python float power (libm pow, which can differ from x * x
        # in the last bit): each row is position_variance + position_mean ** 2
        m2 = var + np.array([m**2 for m in m1.tolist()])
        mean_x = float((w * m1).mean())
        var_x = float((w * m2).mean() - mean_x**2)
        mw = float(w.mean())
        se = float(w.std(ddof=1) / np.sqrt(n)) if n > 1 else 0.0
        lines.append(_csv_line([_fmt(t), _fmt(mean_x), _fmt(var_x),
                                _fmt(mw), _fmt(se), _fmt(effective_sample_size(w)), flags]))
    return "".join(lines)


def density_csv(records, t, max_points=128):
    """Weighted mean density of a Trajectories at time t on a decimated grid.

    Columns: x, density, se.  The density estimator is
    sum_i w_i |phi_i(x)|^2 / N; its per-point standard error comes from
    the spread of the weighted contributions.
    """
    if not records:
        raise ArchiveError("no records to export")
    ens = reweight_ensemble(records, t)
    grid, n = ens.grid, ens.n
    d = np.abs(ens.amplitudes) ** 2
    # w_i |phi_i|^2 in the precision of the amplitudes (float32 for an
    # archive's complex64), averaged in float64
    dens = (ens.weights.astype(d.dtype)[:, None] * d).astype(np.float64)
    mean = dens.mean(axis=0)
    se = dens.std(axis=0, ddof=1) / np.sqrt(n) if n > 1 else np.zeros_like(mean)
    stride = max(1, -(-grid.n_points // max_points))
    lines = [_csv_line(["x", "density", "se"])]
    for j in range(0, grid.n_points, stride):
        lines.append(_csv_line([_fmt(grid.x[j]), _fmt(mean[j]), _fmt(se[j])]))
    return "".join(lines)
