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

Amplitudes are stored as complex64; scalars as float64.  Reading and
rewriting an archive is byte-identical, and the header binds the archive
to the SHA-256 of its producing config: any header mutation fails closed.
The records must agree with the header: every record's times are the
header's sample_times, and the indices strictly increase.  The writer
refuses records that break either rule, and the reader raises
ArchiveError on them, as on a truncated file or trailing bytes.
"""

import hashlib
import json
import struct

import numpy as np

from .errors import ArchiveError
from .grid import Grid, NORMALIZED, WaveFunction, position_moments
from .records import FlashEvent, TrajectoryRecord, reweight_ensemble
from .stats import effective_sample_size

MAGIC = b"CLDN1\x00"
FORMAT_VERSION = "CLDN1"


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


def _encode_record(rec, n_points):
    parts = [struct.pack("<QBI", rec.index, 1 if rec.boundary_flag else 0,
                         len(rec.flashes))]
    for fl in rec.flashes:
        parts.append(struct.pack("<ddd", fl.time, fl.center,
                                 fl.pre_collapse_norm2))
    parts.append(struct.pack("<I", len(rec.times)))
    for j, t in enumerate(rec.times):
        parts.append(struct.pack("<dd", float(t), float(rec.weights[j])))
        amps = np.asarray(rec.states[j].amplitudes, dtype=np.complex64)
        if amps.shape != (n_points,):
            raise ArchiveError("record state does not match the archive grid")
        parts.append(amps.astype("<c8").tobytes())
    return b"".join(parts)


def _check_records(records, sample_times):
    """ArchiveError unless every record has the sample times and the indices increase."""
    for i, rec in enumerate(records):
        if tuple(map(float, rec.times)) != sample_times:
            raise ArchiveError(f"record {rec.index} has times {rec.times}, not the "
                               f"archive's sample_times {sample_times}")
        if i and rec.index <= records[i - 1].index:
            raise ArchiveError(f"record index {rec.index} follows {records[i - 1].index}; "
                               f"indices must strictly increase")


def write_archive(path, config, records, grid, sample_times):
    """Write records (ordered by trajectory index) bound to ``config``."""
    recs = sorted(records, key=lambda r: r.index)
    _check_records(recs, tuple(map(float, sample_times)))
    header = _header_dict(config.sha256(), config.seed, grid, sample_times,
                          len(recs))
    header_bytes = json.dumps(header, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header_bytes)))
        fh.write(header_bytes)
        fh.write(hashlib.sha256(header_bytes).digest())
        for rec in recs:
            fh.write(_encode_record(rec, grid.n_points))


class ArchiveReader:
    """Parsed archive: header dict plus TrajectoryRecords (complex64 states)."""

    def __init__(self, header, records, grid):
        self.header = header
        self.records = records
        self.grid = grid

    @property
    def sample_times(self):
        return tuple(self.header["sample_times"])


def _require(blob, end):
    if end > len(blob):
        raise ArchiveError(f"archive is truncated: {len(blob)} bytes, record data "
                           f"needs {end}")


def _unpack(fmt, blob, off):
    """struct.unpack_from with a bounds check; returns (values, offset after)."""
    end = off + struct.calcsize(fmt)
    _require(blob, end)
    return struct.unpack_from(fmt, blob, off), end


def read_archive(path, expected_config=None):
    """Parse an archive; any malformed or truncated input raises ArchiveError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(MAGIC)] != MAGIC:
        raise ArchiveError("bad magic; not a CLDN1 archive")
    (hlen,), off = _unpack("<I", blob, len(MAGIC))
    header_bytes = blob[off:off + hlen]
    off += hlen
    digest = blob[off:off + 32]
    off += 32
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
    records = []
    for _ in range(header["n_records"]):
        (index, bflag, n_flash), off = _unpack("<QBI", blob, off)
        flashes = []
        for _ in range(n_flash):
            fl, off = _unpack("<ddd", blob, off)
            flashes.append(FlashEvent(*fl))
        (n_times,), off = _unpack("<I", blob, off)
        times, weights, states = [], [], []
        for _ in range(n_times):
            (t, w), off = _unpack("<dd", blob, off)
            _require(blob, off + 8 * grid.n_points)
            amps = np.frombuffer(blob, dtype="<c8", count=grid.n_points, offset=off)
            off += 8 * grid.n_points
            times.append(t)
            weights.append(w)
            states.append(WaveFunction(grid, amps.copy(), NORMALIZED))
        records.append(TrajectoryRecord(
            seed=int(header["seed"]), index=int(index), times=tuple(times),
            states=tuple(states), weights=np.array(weights),
            flashes=tuple(flashes), boundary_flag=bool(bflag)))
    if off != len(blob):
        raise ArchiveError("trailing bytes after the last record")
    _check_records(records, tuple(header["sample_times"]))
    return ArchiveReader(header, records, grid)


def _fmt(value):
    return f"{value:.17g}"


def _csv_line(values):
    return ",".join(values) + "\r\n"


def summary_csv(records, sample_times):
    """Per-sample-time summary: weighted position stats and weight health.

    Columns: time, mean_position, position_variance, mean_weight,
    mean_weight_se, ess, boundary_flags.  The position moments are
    reweighted by the raw squared norms (all ones for the jump process),
    divided by N; ess is the effective sample size of the weights at that
    time, and boundary_flags the number of records whose boundary flag is
    set.
    """
    if not records:
        raise ArchiveError("no records to summarize")
    lines = [_csv_line(["time", "mean_position", "position_variance",
                        "mean_weight", "mean_weight_se", "ess", "boundary_flags"])]
    n = len(records)
    flags = str(sum(bool(r.boundary_flag) for r in records))
    for t in sample_times:
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
    """Weighted mean density at time t on a decimated grid.

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
