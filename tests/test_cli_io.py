"""Config parsing, archive round trips, CSV exports, CLI determinism."""

import dataclasses
import json
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collapsim.archive import (
    density_csv,
    read_archive,
    summary_csv,
    write_archive,
)
from collapsim.cli import main, run_simulate
from collapsim.config import RunConfig
from collapsim.errors import ArchiveError, ConfigError, DegenerateStateError
from collapsim.grid import Grid, HamiltonianSpec, cosine_potential, make_gaussian_packet
from collapsim.master import DensityMatrix, evolve_grw_master
from collapsim.records import Trajectories

HYBRID_CFG = """
# a small hybrid run
model = hybrid
seed = 99
lambda = 1.0
mu = 8            # alpha is derived as 2*lambda/mu
x_min = -16
x_max = 16
n_points = 128
t_max = 0.5
sample_times = 0.25, 0.5
n_trajectories = 12
"""

GRW_CFG = """
model = grw
seed = 5
mu = 4
alpha = 0.5
x_min = -16
x_max = 16
n_points = 128
t_max = 0.5
sample_times = 0.25, 0.5
n_trajectories = 4
"""

DIOSI_CFG = """
model = diosi
seed = 4
lambda = 1.0
x_min = -16
x_max = 16
n_points = 128
t_max = 0.5
sample_times = 0.25, 0.5
n_substeps = 64
n_trajectories = 3
"""

MASTER_CFG = """
model = master
master_model = grw
seed = 5
mu = 4
alpha = 0.5
x_min = -8
x_max = 8
n_points = 16
potential = cos
potential_amplitude = 0.5
t_max = 0.2
sample_times = 0.2
master_dt = 0.005
"""


class TestConfig:
    def test_parse_with_comments_and_alias(self):
        cfg = RunConfig.from_text(HYBRID_CFG)
        assert cfg.model == "hybrid"
        assert cfg.lam == 1.0
        assert cfg.alpha == pytest.approx(0.25)
        assert cfg.sample_times == (0.25, 0.5)

    def test_unknown_key(self):
        with pytest.raises(ConfigError):
            RunConfig.from_text("model = grw\nseed = 1\nbogus = 2\n")

    def test_seed_mandatory(self):
        with pytest.raises(ConfigError):
            RunConfig.from_text("model = diosi\nlambda = 1.0\n")

    def test_scaling_constraint_violation(self):
        text = HYBRID_CFG + "alpha = 0.3\n"
        with pytest.raises(ConfigError):
            RunConfig.from_text(text)

    def test_scaling_constraint_matching_alpha_ok(self):
        text = HYBRID_CFG + "alpha = 0.25\n"
        cfg = RunConfig.from_text(text)
        assert cfg.alpha == 0.25

    def test_grw_requires_mu_alpha(self):
        with pytest.raises(ConfigError):
            RunConfig.from_text("model = grw\nseed = 1\nmu = 2\n")

    def test_canonical_text_and_hash_stable(self):
        a = RunConfig.from_text(HYBRID_CFG)
        b = RunConfig.from_text(HYBRID_CFG)
        assert a.canonical_text() == b.canonical_text()
        assert a.sha256() == b.sha256()
        other = RunConfig.from_text(HYBRID_CFG.replace("seed = 99", "seed = 100"))
        assert a.sha256() != other.sha256()

    @pytest.mark.parametrize("times", ["nan", "0.25, nan", "inf", "-inf, 0.5"])
    def test_non_finite_sample_times_rejected(self, times):
        with pytest.raises(ConfigError, match="sample_times"):
            RunConfig.from_text(GRW_CFG.replace("sample_times = 0.25, 0.5",
                                                f"sample_times = {times}"))

    def test_nan_sample_time_fails_before_any_work(self, tmp_path, capsys):
        cfg_path = os.path.join(tmp_path, "nan.cfg")
        open(cfg_path, "w").write(GRW_CFG.replace("sample_times = 0.25, 0.5",
                                                  "sample_times = nan"))
        out = os.path.join(tmp_path, "o")
        assert main(["simulate", "--config", cfg_path, "--output", out]) == 2
        assert capsys.readouterr().err.startswith("error: ConfigError")
        assert not os.path.exists(out)

    def test_negative_seed_fails_before_output(self, tmp_path, capsys):
        text = GRW_CFG.replace("seed = 5", "seed = -1")
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_text(text)
        cfg_path = os.path.join(tmp_path, "neg.cfg")
        open(cfg_path, "w").write(text)
        out = os.path.join(tmp_path, "o")
        assert main(["simulate", "--config", cfg_path, "--output", out]) == 2
        assert capsys.readouterr().err.startswith("error: ConfigError: seed")
        assert not os.path.exists(out)

    def test_negative_trajectory_count_rejected(self):
        with pytest.raises(ConfigError, match="n_trajectories"):
            RunConfig.from_text(GRW_CFG + "n_trajectories = -3\n")

    @pytest.mark.parametrize("key, value, error", [
        ("n_trajectories", "-3", "ConfigError"),
        ("packet_sigma", "nan", "InvalidParameterError")])
    def test_simulate_bad_input_fails_closed(self, tmp_path, capsys, key, value, error):
        cfg_path = os.path.join(tmp_path, "bad.cfg")
        open(cfg_path, "w").write(HYBRID_CFG + f"{key} = {value}\n")
        out = os.path.join(tmp_path, "o")
        assert main(["simulate", "--config", cfg_path, "--output", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ") and key.split("_")[-1] in err
        assert not os.path.exists(out) or os.listdir(out) == []

    def test_bool_parsing(self):
        cfg = RunConfig.from_text(HYBRID_CFG + "deterministic_times = yes\n")
        assert cfg.deterministic_times is True
        with pytest.raises(ConfigError):
            RunConfig.from_text(HYBRID_CFG + "kinetic = maybe\n")


def _record_starts(blob, records, n_points):
    """Byte offsets of each record block and of the end, from the documented layout."""
    (hlen,) = struct.unpack_from("<I", blob, 6)
    starts = [6 + 4 + hlen + 32]
    for rec in records:
        starts.append(starts[-1] + 13 + 24 * len(rec.flashes) + 4
                      + len(rec.times) * (16 + 8 * n_points))
    return starts


class TestArchive:
    def _records(self, tmp_path, n=5):
        cfg = RunConfig.from_text(HYBRID_CFG.replace("n_trajectories = 12",
                                                     f"n_trajectories = {n}"))
        out = os.path.join(tmp_path, "run")
        paths = run_simulate(cfg, out)
        arc = [p for p in paths if p.endswith(".cldn")][0]
        return cfg, arc

    def test_round_trip_bit_identical(self, tmp_path):
        cfg, arc = self._records(tmp_path)
        reader = read_archive(arc, expected_config=cfg)
        rewritten = os.path.join(tmp_path, "copy.cldn")
        write_archive(rewritten, cfg, reader.records)
        with open(arc, "rb") as fh:
            original = fh.read()
        with open(rewritten, "rb") as fh:
            copy = fh.read()
        assert original == copy

    def test_header_tamper_fails_closed(self, tmp_path):
        _, arc = self._records(tmp_path)
        blob = bytearray(open(arc, "rb").read())
        blob[20] ^= 0xFF  # inside the JSON header
        bad = os.path.join(tmp_path, "bad.cldn")
        open(bad, "wb").write(bytes(blob))
        with pytest.raises(ArchiveError):
            read_archive(bad)

    def test_wrong_config_rejected(self, tmp_path):
        cfg, arc = self._records(tmp_path)
        other = RunConfig.from_text(HYBRID_CFG.replace("seed = 99", "seed = 7"))
        with pytest.raises(ArchiveError):
            read_archive(arc, expected_config=other)

    def test_empty_archive(self, tmp_path):
        cfg = RunConfig.from_text(
            HYBRID_CFG.replace("n_trajectories = 12", "n_trajectories = 0"))
        out = os.path.join(tmp_path, "empty")
        paths = run_simulate(cfg, out)
        arc = [p for p in paths if p.endswith(".cldn")][0]
        reader = read_archive(arc, expected_config=cfg)
        assert len(reader.records) == 0

    def test_flashes_survive_round_trip(self, tmp_path):
        cfg, arc = self._records(tmp_path)
        reader = read_archive(arc)
        assert any(len(r.flashes) > 0 for r in reader.records)
        for rec in reader.records:
            assert all(f.time <= 0.5 + 1e-12 for f in rec.flashes)

    def test_truncated_archive_fails_closed(self, tmp_path, capsys):
        cfg = RunConfig.from_text(GRW_CFG)
        arc = [p for p in run_simulate(cfg, os.path.join(tmp_path, "run"))
               if p.endswith(".cldn")][0]
        blob = open(arc, "rb").read()
        reader = read_archive(arc, expected_config=cfg)
        starts = _record_starts(blob, reader.records, reader.grid.n_points)
        assert starts[-1] == len(blob)
        k = next(i for i, r in enumerate(reader.records) if r.flashes)
        cuts = {
            "record header": starts[1] + 5,
            "flashes": starts[k] + 13 + 10,
            "amplitudes": starts[0] + 13 + 24 * len(reader.records[0].flashes)
            + 4 + 16 + 100,
            "last 5 bytes": len(blob) - 5,
            "last 700 bytes": len(blob) - 700,
        }
        for where, cut in cuts.items():
            bad = os.path.join(tmp_path, "cut.cldn")
            open(bad, "wb").write(blob[:cut])
            with pytest.raises(ArchiveError, match="truncated"):
                read_archive(bad)
            dest = os.path.join(tmp_path, "dens.csv")
            rc = main(["export", "--archive", bad, "--time", "0.5", "--output", dest])
            err = capsys.readouterr().err
            assert rc == 2, where
            assert err.startswith("error: ArchiveError: ") and err.count("\n") == 1, where
            assert not os.path.exists(dest)


class TestArchiveRecordChecks:
    def _archive(self, tmp_path):
        cfg = RunConfig.from_text(GRW_CFG)
        arc = [p for p in run_simulate(cfg, os.path.join(tmp_path, "run"))
               if p.endswith(".cldn")][0]
        reader = read_archive(arc)
        blob = bytearray(open(arc, "rb").read())
        return cfg, reader, blob, _record_starts(blob, reader.records, reader.grid.n_points)

    def _read(self, tmp_path, blob):
        bad = os.path.join(tmp_path, "bad.cldn")
        open(bad, "wb").write(bytes(blob))
        return read_archive(bad)

    def test_record_time_differing_from_the_header_fails_closed(self, tmp_path):
        _, reader, blob, starts = self._archive(tmp_path)
        rec = reader.records[1]
        at = starts[1] + 13 + 24 * len(rec.flashes) + 4  # first time of record 1
        assert struct.unpack_from("<d", blob, at) == (0.25,)
        struct.pack_into("<d", blob, at, 0.3)
        with pytest.raises(ArchiveError, match="sample_times"):
            self._read(tmp_path, blob)

    @pytest.mark.parametrize("indices", [(2, 1, 2, 3), (0, 0, 2, 3), (0, 2, 1, 3)])
    def test_duplicate_or_unordered_indices_fail_closed(self, tmp_path, indices):
        _, reader, blob, starts = self._archive(tmp_path)
        assert [r.index for r in reader.records] == [0, 1, 2, 3]
        for start, index in zip(starts, indices):
            struct.pack_into("<Q", blob, start, index)
        with pytest.raises(ArchiveError, match="indices must strictly increase"):
            self._read(tmp_path, blob)

    def test_writer_refuses_what_the_reader_rejects(self, tmp_path):
        cfg, reader, _, _ = self._archive(tmp_path)
        path = os.path.join(tmp_path, "w.cldn")
        recs = reader.records
        with pytest.raises(ArchiveError, match="indices"):
            write_archive(path, cfg, Trajectories.concat([recs, recs]))
        with pytest.raises(ArchiveError, match="indices"):
            write_archive(path, cfg, dataclasses.replace(recs, indices=[0, 2, 1, 3]))
        with pytest.raises(ArchiveError, match="states"):
            write_archive(path, cfg, dataclasses.replace(recs, states=None))
        assert not os.path.exists(path)


def _draw_records(data, n_points):
    """Trajectories with drawn indices (maybe none), flashes, weights and states."""
    times = tuple(sorted(data.draw(st.sets(st.floats(0.0, 1.0), max_size=3))))
    indices = sorted(data.draw(st.sets(st.integers(0, 2**40), max_size=4)))
    n = len(indices)
    finite = st.floats(-1e6, 1e6)
    n_flashes = np.array(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)),
                         dtype=np.int64)
    n_values = 3 * int(n_flashes.sum())
    flashes = np.array(data.draw(st.lists(finite, min_size=n_values, max_size=n_values)))
    flashes = flashes.reshape(3, -1)
    weights = data.draw(st.lists(finite, min_size=n * len(times), max_size=n * len(times)))
    rng = np.random.default_rng(n)
    shape = (n, len(times), n_points)
    return Trajectories(
        5, Grid(n_points, -4.0, 4.0), times, indices,
        np.array(weights, dtype=float).reshape(n, len(times)),
        rng.standard_normal(shape) + 1j * rng.standard_normal(shape),
        np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool),
        *flashes, n_flashes)


class TestArchiveProperties:
    CFG = RunConfig.from_text(GRW_CFG)

    @settings(max_examples=40)
    @given(data=st.data())
    def test_write_read_rewrite_is_byte_identical(self, data):
        records = _draw_records(data, 8)
        with tempfile.TemporaryDirectory() as tmp:
            first, second = os.path.join(tmp, "a.cldn"), os.path.join(tmp, "b.cldn")
            write_archive(first, self.CFG, records)
            reader = read_archive(first, expected_config=self.CFG)
            write_archive(second, self.CFG, reader.records)
            assert open(first, "rb").read() == open(second, "rb").read()
        assert reader.sample_times == records.times and reader.grid == records.grid
        assert len(reader.records) == len(records)
        for got, rec in zip(reader.records, records):
            assert (got.index, got.times, got.flashes, got.boundary_flag) == (
                rec.index, rec.times, rec.flashes, rec.boundary_flag)
            assert np.array_equal(got.weights, rec.weights)
            for a, b in zip(got.states, rec.states):
                assert np.array_equal(a.amplitudes, b.amplitudes.astype(np.complex64))

    @settings(max_examples=40)
    @given(data=st.data())
    def test_truncation_at_any_offset_fails_closed(self, data):
        records = _draw_records(data, 8)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "a.cldn")
            write_archive(path, self.CFG, records)
            blob = open(path, "rb").read()
            cut = data.draw(st.integers(0, len(blob) - 1))
            open(path, "wb").write(blob[:cut])
            with pytest.raises(ArchiveError):
                read_archive(path)


class TestCsv:
    def test_single_trajectory_density_is_exact(self, tmp_path):
        cfg = RunConfig.from_text(
            HYBRID_CFG.replace("n_trajectories = 12", "n_trajectories = 1"))
        out = os.path.join(tmp_path, "single")
        paths = run_simulate(cfg, out)
        arc = [p for p in paths if p.endswith(".cldn")][0]
        reader = read_archive(arc)
        rec = reader.records[0]
        text = density_csv(reader.records, 0.5)
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        got = np.array([float(r[1]) for r in rows])
        want = rec.weight_at(0.5) * np.abs(rec.state_at(0.5).amplitudes) ** 2
        assert np.allclose(got, want, rtol=1e-6)
        assert all(float(r[2]) == 0.0 for r in rows)

    def test_diosi_density_integrates_to_one(self):
        # weak noise keeps the weight variance inside the 2e-3 budget
        from collapsim import (DiosiParams, Grid, HamiltonianSpec,
                               diosi_ensemble, make_gaussian_packet)
        grid = Grid(128, -16.0, 16.0)
        phi = make_gaussian_packet(grid, 0.0, 1.0)
        h = HamiltonianSpec.free(grid)
        p = DiosiParams(lam=0.01, n_substeps_per_unit_time=64, t_max=0.1,
                        sample_times=(0.1,))
        recs = diosi_ensemble(phi, h, p, 71, 1000)
        text = density_csv(recs, p.sample_times[0])  # 0.1 snapped to 6/64
        rows = [line.split(",") for line in text.strip().splitlines()[1:]]
        xs = np.array([float(r[0]) for r in rows])
        dens = np.array([float(r[1]) for r in rows])
        integral = float(dens.sum() * (xs[1] - xs[0]))
        assert abs(integral - 1.0) <= 2e-3

    def test_grw_density_symmetry(self):
        from collapsim import (Grid, GrwParams, HamiltonianSpec, grw_ensemble,
                               make_gaussian_packet)
        grid = Grid(128, -16.0, 16.0)
        phi = make_gaussian_packet(grid, 0.0, 1.0)
        h0 = HamiltonianSpec.zero(grid)
        p = GrwParams(mu=2.0, alpha=1.0, t_max=0.5, sample_times=(0.5,))
        recs = grw_ensemble(phi, h0, p, 72, 400)
        dens = np.stack([np.abs(r.state_at(0.5).amplitudes) ** 2 for r in recs])
        mean = dens.mean(axis=0)
        se = dens.std(axis=0, ddof=1) / np.sqrt(len(recs))

        def reflect(a):
            # x_j = x_min + j dx, so the mirror of index j is (n - j) mod n
            return np.concatenate([a[:1], a[1:][::-1]])

        se_diff = np.sqrt(se**2 + reflect(se) ** 2) + 1e-12
        # the law is symmetric although single realizations are not
        assert np.max(np.abs(mean - reflect(mean)) / (5.0 * se_diff)) <= 1.0

    def test_summary_csv_shape(self, tmp_path):
        cfg = RunConfig.from_text(HYBRID_CFG)
        out = os.path.join(tmp_path, "sum")
        run_simulate(cfg, out)
        text = open(os.path.join(out, "summary.csv")).read()
        lines = text.strip().splitlines()
        assert lines[0] == ("time,mean_position,position_variance,mean_weight,"
                            "mean_weight_se,ess,boundary_flags")
        assert len(lines) == 3


    @pytest.mark.parametrize("centre", [0, 10])  # a packet at 10 flags every record
    def test_summary_csv_weight_health(self, tmp_path, centre):
        cfg = RunConfig.from_text(HYBRID_CFG + f"packet_center = {centre}\n")
        out = os.path.join(tmp_path, "sum")
        run_simulate(cfg, out)
        reader = read_archive(os.path.join(out, "hybrid_archive.cldn"))
        lines = open(os.path.join(out, "summary.csv")).read().strip().splitlines()
        flags = sum(r.boundary_flag for r in reader.records)
        assert flags == (len(reader.records) if centre else 0)
        for line, t in zip(lines[1:], cfg.sample_times):
            cols = line.split(",")
            w = [r.weight_at(t) for r in reader.records]
            assert float(cols[5]) == pytest.approx(sum(w) ** 2 / sum(x * x for x in w),
                                                   rel=1e-12)
            assert int(cols[6]) == flags

    def test_summary_csv_rejects_empty_and_vanishing(self, tmp_path):
        cfg = RunConfig.from_text(GRW_CFG)
        out = os.path.join(tmp_path, "sum")
        run_simulate(cfg, out)
        reader = read_archive(os.path.join(out, "grw_archive.cldn"))
        recs = reader.records
        empty = Trajectories(recs.seed, recs.grid, recs.times, [], recs.weights[:0],
                             recs.states[:0], recs.boundary_flags[:0])
        with pytest.raises(ArchiveError):
            summary_csv(empty)
        recs.states[0, 0] = 0.0
        with pytest.raises(DegenerateStateError):
            summary_csv(recs)

    def test_diosi_outputs_carry_the_snapped_times(self, tmp_path):
        # 0.1 and 0.3 at n_substeps = 64 are taken at steps 6 and 19
        cfg = RunConfig.from_text(
            "model = diosi\nseed = 4\nlambda = 1.0\nx_min = -16\nx_max = 16\n"
            "n_points = 128\nt_max = 0.5\nsample_times = 0.1, 0.3\n"
            "n_substeps = 64\nn_trajectories = 3\n")
        out = os.path.join(tmp_path, "dio")
        run_simulate(cfg, out)
        want = [6 / 64, 19 / 64]
        reader = read_archive(os.path.join(out, "diosi_archive.cldn"))
        assert list(reader.sample_times) == want
        assert all(list(r.times) == want for r in reader.records)
        rows = open(os.path.join(out, "summary.csv")).read().strip().splitlines()[1:]
        assert [float(r.split(",")[0]) for r in rows] == want
        assert os.path.exists(os.path.join(out, "density_t1.csv"))


class TestCliVerify:
    @pytest.mark.parametrize("args, error", [
        (["--criteria", "9"], "ConfigError"),
        (["--criteria", "x"], "ConfigError"),
        (["--seed", "-1", "--criteria", "6"], "InvalidParameterError")])
    def test_bad_input_fails_before_output(self, tmp_path, capsys, args, error):
        out = os.path.join(tmp_path, "v")
        assert main(["verify", "--output", out] + args) == 2
        assert capsys.readouterr().err.startswith(f"error: {error}: ")
        assert not os.path.exists(out)

    def test_criterion_7_passes(self, tmp_path, capsys):
        out = os.path.join(tmp_path, "v")
        assert main(["verify", "--criteria", "7", "--seed", "1", "--output", out]) == 0
        assert capsys.readouterr().out.startswith("ACCEPTANCE 7 numerics_baseline: PASS")
        assert os.listdir(out) == ["criterion_7_numerics_baseline.json"]
        with open(os.path.join(out, "criterion_7_numerics_baseline.json")) as fh:
            assert json.load(fh)["pass"] is True


class TestCliDeterminism:
    def test_worker_count_does_not_change_bytes(self, tmp_path):
        cfg = RunConfig.from_text(HYBRID_CFG)
        out1 = os.path.join(tmp_path, "w1")
        out2 = os.path.join(tmp_path, "w2")
        p1 = run_simulate(cfg, out1, workers=1)
        p2 = run_simulate(cfg, out2, workers=2)
        for a, b in zip(sorted(p1), sorted(p2)):
            assert open(a, "rb").read() == open(b, "rb").read()

    def test_cli_simulate_and_export(self, tmp_path):
        cfg_path = os.path.join(tmp_path, "run.cfg")
        open(cfg_path, "w").write(HYBRID_CFG)
        out = os.path.join(tmp_path, "out")
        assert main(["simulate", "--config", cfg_path, "--output", out]) == 0
        arc = os.path.join(out, "hybrid_archive.cldn")
        dest = os.path.join(tmp_path, "dens.csv")
        assert main(["export", "--archive", arc, "--time", "0.5",
                     "--output", dest]) == 0
        assert open(dest).read().startswith("x,density,se")

    def test_cli_export_schedule_mismatch(self, tmp_path):
        cfg_path = os.path.join(tmp_path, "run.cfg")
        open(cfg_path, "w").write(HYBRID_CFG)
        out = os.path.join(tmp_path, "out")
        main(["simulate", "--config", cfg_path, "--output", out])
        arc = os.path.join(out, "hybrid_archive.cldn")
        rc = main(["export", "--archive", arc, "--time", "0.33",
                   "--output", os.path.join(tmp_path, "x.csv")])
        assert rc == 2

    def test_cli_bad_config_exit_code(self, tmp_path, capsys):
        cfg_path = os.path.join(tmp_path, "bad.cfg")
        open(cfg_path, "w").write("model = grw\nseed = 1\n")  # missing mu/alpha
        rc = main(["simulate", "--config", cfg_path, "--output",
                   os.path.join(tmp_path, "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "\n" not in err.strip()

    @pytest.mark.parametrize("key, value", [("mu", "nan"), ("alpha", "inf"),
                                            ("master_dt", "nan"), ("master_dt", "0"),
                                            ("master_dt", "inf"), ("master_dt", "1e-12")])
    def test_master_non_finite_input_fails_closed(self, tmp_path, capsys, key, value):
        cfg_path = os.path.join(tmp_path, "m.cfg")
        body = {"mu": "2.0", "alpha": "1.0", "master_dt": "2e-4", key: value}
        open(cfg_path, "w").write(
            "model = master\nmaster_model = grw\nseed = 5\nx_min = -12\n"
            "x_max = 12\nn_points = 32\nt_max = 0.2\nsample_times = 0.2\n"
            + "".join(f"{k} = {v}\n" for k, v in body.items()))
        out = os.path.join(tmp_path, "o")
        assert main(["simulate", "--config", cfg_path, "--output", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: InvalidParameterError") and "\n" not in err.strip()
        assert not os.path.exists(os.path.join(out, "master_rho.csv"))

    def test_master_run(self, tmp_path):
        text = """
model = master
seed = 5
lambda = 1.0
x_min = -12
x_max = 12
n_points = 32
t_max = 0.2
sample_times = 0.2
master_dt = 2e-4
"""
        cfg = RunConfig.from_text(text)
        assert cfg.master_model == "diosi"
        out = os.path.join(tmp_path, "m")
        paths = run_simulate(cfg, out)
        assert paths and paths[0].endswith("master_rho.csv")
        header = open(paths[0]).readline().strip()
        assert header == "x_i,x_j,re,im"

    def test_master_csv_matches_per_entry_format(self, tmp_path):
        cfg = RunConfig.from_text(MASTER_CFG)
        out = os.path.join(tmp_path, "m")
        (path,) = run_simulate(cfg, out)
        grid = Grid(cfg.n_points, cfg.x_min, cfg.x_max)
        h = HamiltonianSpec(grid, cosine_potential(grid, cfg.potential_amplitude))
        rho0 = DensityMatrix.from_wavefunction(make_gaussian_packet(grid, 0.0, 1.0))
        rho = evolve_grw_master(rho0, h, cfg.mu, cfg.alpha,
                                cfg.sample_times[-1], cfg.master_dt)
        want = "x_i,x_j,re,im\r\n" + "".join(
            f"{grid.x[i]:.17g},{grid.x[j]:.17g},"
            f"{rho.entries[i, j].real:.17g},{rho.entries[i, j].imag:.17g}\r\n"
            for i in range(grid.n_points) for j in range(grid.n_points))
        with open(path, newline="") as fh:
            assert fh.read() == want

    @pytest.mark.parametrize("model", ["diosi", "master", "grw"])
    @pytest.mark.parametrize("env, flag, error", [
        ("abc", [], "ConfigError"),
        (None, ["--workers", "0"], "InvalidParameterError")])
    def test_bad_worker_count_fails_before_output(self, tmp_path, capsys, monkeypatch,
                                                  model, env, flag, error):
        text = {"diosi": DIOSI_CFG, "master": MASTER_CFG, "grw": GRW_CFG}[model]
        cfg_path = os.path.join(tmp_path, "w.cfg")
        open(cfg_path, "w").write(text)
        if env is None:
            monkeypatch.delenv("COLLAPSIM_WORKERS", raising=False)
        else:
            monkeypatch.setenv("COLLAPSIM_WORKERS", env)
        out = os.path.join(tmp_path, "o")
        assert main(["simulate", "--config", cfg_path, "--output", out] + flag) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {error}: ") and "workers" in err.lower()
        assert not os.path.exists(out)
