"""The benchmark's three workloads over collapsim.

Each workload is built from a seed, prepares its inputs once, and then
runs identical rounds.  A round calls into the program through module
attributes looked up at call time (so the tracer's rebinding sees every
call), checks the outputs, and returns a ``Round``: the operations it
attempted with their failures, the Trotter factors applied, and the ESS of
the ensembles produced.

An operation is one top-level call into the program: a CLI command, an
ensemble, or a check.  It fails if it raises or if its output fails a
check; the other operations of the round still run.
"""

import contextlib
import io
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

from collapsim import archive, cli, config, diosi, grid, grw, master, records, verify

import checks

# The archive stores complex64 amplitudes, and the program forms products of
# them in single precision; 8 units of float32 rounding (2^-23) bound the
# gap to the benchmark's double-precision arithmetic.
F32_RTOL = 8 * 2.0 ** -23

# The ESS below which check_flash_vs_increment reports inconclusive.
ESS_FLOOR = 100.0
# Level of the flash-law gate on the combined KS p-value.  The program's own
# 1 % level would fail one seed in a hundred by chance; at 1e-4 the gate still
# rejects hybrid_alpha = 1.0 (combined p 1e-12 to 1e-22 over three tries).
LAW_LEVEL = 1e-4


@dataclass
class Round:
    ops: dict = field(default_factory=dict)  # name -> list of failure messages
    program_s: dict = field(default_factory=dict)  # name -> seconds inside the program
    cells: int = 0
    ess: float = 0.0

    def op(self, name):
        return self.ops.setdefault(name, [])

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def failed(self):
        return sum(1 for errs in self.ops.values() if errs)

    def signature(self):
        """What must repeat exactly between rounds on the same inputs."""
        return (tuple((k, tuple(v)) for k, v in self.ops.items()),
                self.cells, round(self.ess, 6))


def _guard(rnd, name, fn, *args, **kwargs):
    """Run one operation; an exception is recorded as its failure."""
    errs = rnd.op(name)
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the benchmark must finish its round
        errs.append(f"raised {type(exc).__name__}: {exc}")
        return None


def _timed(rnd, name, fn, *args, **kwargs):
    """_guard around a call into the program, adding its wall time to the op."""
    start = time.perf_counter()
    try:
        return _guard(rnd, name, fn, *args, **kwargs)
    finally:
        rnd.program_s[name] = rnd.program_s.get(name, 0.0) + time.perf_counter() - start


def _cli(argv):
    """collapsim.cli.main in-process; its stdout is kept off the benchmark's."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    if rc != 0:
        raise RuntimeError(f"collapsim {argv[0]} returned {rc}")
    return buf.getvalue().split()


class SimulateGrw:
    """CLI simulate (GRW at 2 workers), simulate (master), export, read-back."""

    name = "simulate-grw"
    workers = 2  # nproc of the reference machine

    def __init__(self, seed, workdir, n_trajectories=1000):
        self.seed = int(seed)
        self.workdir = workdir
        self.n = int(n_trajectories)
        self.mu, self.alpha, self.t_max = 4.0, 0.5, 0.5
        self.times = (0.125, 0.25, 0.5)
        self.recheck = sorted({0, self.n // 2, self.n - 1})

    def _config_text(self, model, n, t_max, times):
        lines = [
            f"model = {model}", f"seed = {self.seed}",
            "x_min = -16", "x_max = 16", "n_points = 128",
            f"t_max = {t_max!r}",
            "sample_times = " + ", ".join(repr(t) for t in times),
            f"n_trajectories = {n}", f"mu = {self.mu!r}", f"alpha = {self.alpha!r}",
            "potential = cos", "potential_amplitude = 0.5",
            "packet_center = 0.0", "packet_sigma = 1.0",
        ]
        if model == "master":
            lines += ["master_model = grw", "master_dt = 0.005"]
        return "\n".join(lines) + "\n"

    def _write_configs(self, tag, n, t_max, times):
        paths = {}
        for model in ("grw", "master"):
            path = os.path.join(self.workdir, f"{tag}_{model}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(self._config_text(model, n, t_max, times))
            paths[model] = path
        return paths

    def prepare(self):
        os.makedirs(self.workdir, exist_ok=True)
        self.cfg_paths = self._write_configs("run", self.n, self.t_max, self.times)
        self.cfg = config.RunConfig.from_file(self.cfg_paths["grw"])
        g = cli.build_grid(self.cfg)
        self.phi0 = cli.build_packet(self.cfg, g)
        self.h = cli.build_hamiltonian(self.cfg, g)
        self.params = grw.GrwParams(mu=self.cfg.mu, alpha=self.cfg.alpha,
                                    t_max=self.cfg.t_max,
                                    sample_times=self.cfg.sample_times)

    def warm_up(self):
        paths = self._write_configs("warm", 4, 0.01, (0.01,))
        out = os.path.join(self.workdir, "warm")
        _cli(["simulate", "--config", paths["grw"], "--output", out,
              "--workers", str(self.workers)])
        _cli(["simulate", "--config", paths["master"], "--output", out])
        _cli(["export", "--archive", os.path.join(out, "grw_archive.cldn"),
              "--time", "0.01", "--output", os.path.join(out, "export.csv")])
        shutil.rmtree(out)

    def run_round(self):
        rnd = Round()
        out = os.path.join(self.workdir, "out")
        shutil.rmtree(out, ignore_errors=True)
        arc = os.path.join(out, "grw_archive.cldn")
        exported = os.path.join(out, "export.csv")
        t_end = self.times[-1]

        _timed(rnd, "simulate", _cli, ["simulate", "--config", self.cfg_paths["grw"],
                                       "--output", out, "--workers", str(self.workers)])
        _timed(rnd, "simulate-master", _cli,
               ["simulate", "--config", self.cfg_paths["master"], "--output", out])
        _timed(rnd, "export", _cli, ["export", "--archive", arc, "--time", repr(t_end),
                                     "--output", exported])
        got = _timed(rnd, "read-back", self._read_back, arc, t_end)
        rho_master = _guard(rnd, "simulate-master", _read_master,
                            os.path.join(out, "master_rho.csv"), self.cfg.n_points)

        if rho_master is not None:
            rnd.op("simulate-master").extend(checks.unit_trace(rho_master, self.phi0.grid.dx))
        if got is None:
            for name in ("simulate", "export"):
                rnd.op(name).append("archive could not be read back")
            return rnd
        reader, rho, se = got
        recs = reader.records
        amps = {t: np.array([r.state_at(t).amplitudes for r in recs]) for t in self.times}
        weights = {t: np.array([r.weight_at(t) for r in recs]) for t in self.times}
        rnd.cells = sum(len(r.flashes) for r in recs)
        rnd.ess = sum(checks.ess(w) for w in weights.values())

        sim = rnd.op("simulate")
        if reader.header["config_sha256"] != self.cfg.sha256():
            sim.append("archive is not bound to its config")
        if [r.index for r in recs] != list(range(self.n)):
            sim.append("record indices are not 0..N-1")
        for t in self.times:
            if not np.all(weights[t] == 1.0):
                sim.append(f"GRW weights at t={t} are not all 1")
            sim.extend(checks.unit_norms(amps[t], self.phi0.grid.dx, 1e-6))
        sim.extend(checks.poisson_count(rnd.cells, self.n, self.mu, self.t_max))
        sim.extend(_guard(rnd, "simulate", self._recompute, recs) or [])

        a_end, w_end = amps[t_end], weights[t_end]
        mine = checks.density_matrix(a_end, w_end)
        back = rnd.op("read-back")
        back.extend(checks.matches(rho, mine, F32_RTOL, "ensemble_density"))
        back.extend(checks.matches(se, checks.density_se(a_end, w_end), F32_RTOL,
                                   "ensemble_density_se"))
        if rho_master is not None:
            back.extend(checks.master_gap(rho, se, rho_master))
        else:
            back.append("no master solution to compare with")

        dens = _guard(rnd, "export", np.loadtxt, exported, delimiter=",", skiprows=1)
        if dens is not None:
            rnd.op("export").extend(checks.matches(
                dens[:, 1], np.real(np.diag(mine)), F32_RTOL, "exported density"))
        return rnd

    def _read_back(self, arc, t_end):
        reader = archive.read_archive(arc, expected_config=self.cfg)
        ens = records.reweight_ensemble(reader.records, t_end)
        return reader, master.ensemble_density(ens).entries, master.ensemble_density_se(ens)

    def _recompute(self, recs):
        """A few indices rerun in-process must match the pooled archive."""
        errs = []
        for i in self.recheck:
            fresh = grw.grw_trajectory(self.phi0, self.h, self.params, self.seed, index=i)
            old = recs[i]
            same_flashes = [(f.time, f.center, f.pre_collapse_norm2) for f in fresh.flashes] \
                == [(f.time, f.center, f.pre_collapse_norm2) for f in old.flashes]
            same_states = all(
                np.array_equal(np.asarray(a.amplitudes, dtype=np.complex64), b.amplitudes)
                for a, b in zip(fresh.states, old.states))
            if not (same_flashes and same_states):
                errs.append(f"trajectory {i} differs from its in-process rerun")
        return errs


def _read_master(path, n_points):
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    return (data[:, 2] + 1j * data[:, 3]).reshape(n_points, n_points)


class ScalingLimit:
    """Diosi reference and hybrid ensembles at four meshes, common random numbers.

    Each ensemble is run as ``n_chunks`` calls of N / n_chunks trajectories
    at program seeds made from the benchmark's seed; the checks pool the
    chunks into one ensemble of N.  The hybrid weights at mu = 4 have an
    infinite second moment, so one ensemble's ESS is set by its largest
    weight; summed over independent chunks it swings much less.
    """

    name = "scaling-limit"
    n_chunks = 4

    def __init__(self, seed, workdir, n_trajectories=1000, mus=(4, 16, 64, 256)):
        self.seed = int(seed)
        self.workdir = workdir
        self.n = int(n_trajectories) // self.n_chunks
        self.seeds = [self.seed * self.n_chunks + c for c in range(self.n_chunks)]
        self.mus = tuple(mus)
        self.lam, self.resolution = 1.0, 4096
        self.times = (0.0625, 0.125)

    def prepare(self):
        g = grid.Grid(128, -16.0, 16.0)
        self.phi0 = grid.make_gaussian_packet(g, 0.0, 1.0)
        self.h = grid.HamiltonianSpec(g, grid.cosine_potential(g, 0.5))
        self.ref_params = diosi.DiosiParams(self.lam, self.resolution, self.times[-1],
                                            self.times)
        self.hyb_params = {mu: diosi.HybridParams(self.lam, mu, self.times[-1], self.times,
                                                  wiener_resolution=self.resolution)
                           for mu in self.mus}
        # the reference's weighted density must follow the Diosi master equation at lam
        self.rho_master = checks.diosi_master(self.phi0.amplitudes, self.h.potential, g.dx,
                                              self.lam, self.times[-1], steps=50)

    def warm_up(self):
        diosi.diosi_ensemble(self.phi0, self.h, self.ref_params, self.seed, 2)
        for p in self.hyb_params.values():
            diosi.hybrid_ensemble(self.phi0, self.h, p, self.seed, 2, workers=1)

    def _ensemble(self, rnd, name, fn, params, **kwargs):
        """fn over the chunks; the pooled records, or None if a chunk failed."""
        chunks = [_timed(rnd, f"{name}/{c}", fn, self.phi0, self.h, params, s, self.n,
                         **kwargs)
                  for c, s in enumerate(self.seeds)]
        if any(recs is None for recs in chunks):
            return None
        for recs in chunks:
            w = np.array([r.weights for r in recs])
            rnd.ess += sum(checks.ess(w[:, j]) for j in range(len(self.times)))
        return [r for recs in chunks for r in recs]

    def _fail(self, rnd, name, errs):
        for c in range(len(self.seeds)):
            rnd.op(f"{name}/{c}").extend(errs)

    def run_round(self):
        rnd = Round()
        ref = self._ensemble(rnd, "diosi-reference", diosi.diosi_ensemble, self.ref_params)
        ens = {mu: self._ensemble(rnd, f"hybrid-mu{mu}", diosi.hybrid_ensemble, p, workers=1)
               for mu, p in self.hyb_params.items()}
        dx = self.phi0.grid.dx
        wf = {}
        for name, mu, recs in [("diosi-reference", None, ref)] + [
                (f"hybrid-mu{mu}", mu, ens[mu]) for mu in self.mus]:
            if recs is None:
                continue
            errs = []
            w = np.array([r.weights for r in recs])
            # No z-test of mean weight = 1: these weights are too heavy-tailed
            # for its SE (at mu = 4 one flow gives E w^2 = infinity).  For the
            # same reason the ESS floor holds only where one cell's flow has a
            # finite second moment, 4 lam / mu < 1: at mu = 4 a single weight
            # can take the ESS of 1000 trajectories down to 29.
            if mu is None or 4.0 * self.lam / mu < 1.0:
                for j in range(len(self.times)):
                    errs.extend(checks.ess_at_least(w[:, j]))
            f = np.mean([checks.overlap([r.states[j].amplitudes for r in recs],
                                        self.phi0.amplitudes, dx)
                         for j in range(len(self.times))], axis=0)
            wf[name] = w[:, -1] * f
            if name == "diosi-reference":
                p = self.ref_params
                rnd.cells += len(recs) * round(p.sample_times[-1] * p.n_substeps_per_unit_time)
                a = np.array([r.states[-1].amplitudes for r in recs])
                errs.extend(checks.master_gap(checks.density_matrix(a, w[:, -1]),
                                              checks.density_se(a, w[:, -1]), self.rho_master))
            else:
                rnd.cells += sum(len(r.flashes) for r in recs)
            self._fail(rnd, name, errs)
        coarse, fine = f"hybrid-mu{self.mus[0]}", f"hybrid-mu{self.mus[-1]}"
        if {"diosi-reference", coarse, fine} <= wf.keys():
            base = wf["diosi-reference"]
            self._fail(rnd, fine, checks.strong_decrease(np.abs(wf[coarse] - base),
                                                         np.abs(wf[fine] - base))
                       + checks.weak_close(wf[fine], base))
        else:
            self._fail(rnd, fine, ["no reference or coarse ensemble to compare with"])
        return rnd


class FlashLaw:
    """check_flash_vs_increment in the c1 shape (Grid(256,-20,20), alpha 0.5, mu 4, one jump).

    A round runs the check at ``n_checks`` program seeds made from the
    benchmark's seed.  The hybrid side's weights have an infinite second
    moment, so one ensemble's ESS is set by a few extreme weights and
    swings with the seed; summed over many independent ensembles it swings
    much less, which keeps ``ess_per_s`` of one run close to the next.
    """

    name = "flash-law"

    def __init__(self, seed, workdir, n_samples=1000, n_checks=40):
        self.seed = int(seed)
        self.workdir = workdir
        self.n = int(n_samples)
        self.seeds = [self.seed * n_checks + k for k in range(n_checks)]
        self.alpha, self.mu = 0.5, 4.0
        self.hybrid_alpha = None  # another value is the negative control

    def prepare(self):
        g = grid.Grid(256, -20.0, 20.0)
        self.phi0 = grid.make_gaussian_packet(g, 0.0, 1.0)
        # sigma^2 + 1/(2 alpha) for a unit-width packet
        self.target_variance = 1.0 + 1.0 / (2.0 * self.alpha)

    def warm_up(self):
        verify.check_flash_vs_increment(self.phi0, self.alpha, self.mu, 1, 200, self.seed)

    def run_round(self):
        rnd = Round()
        reps = {}
        for k, s in enumerate(self.seeds):
            name = f"check-{k}"
            rep = _timed(rnd, name, verify.check_flash_vs_increment, self.phi0,
                         self.alpha, self.mu, 1, self.n, s, hybrid_alpha=self.hybrid_alpha)
            if rep is None:
                continue
            d = rep.details
            ess = d["effective_sample_size"]
            rnd.cells += 2 * rep.n_samples * d["n_jumps"]  # one jump on each side
            rnd.ess += rep.n_samples + ess
            # A check abstains (inconclusive) exactly when its ESS is below the
            # floor; an abstaining check is no failure, it adds no p-value.
            abstains = d.get("status") == "inconclusive"
            if abstains != (ess < ESS_FLOOR):
                rnd.op(name).append(f"status {d.get('status')} with ESS {ess:.1f}")
            elif not abstains:
                reps[name] = rep
        if len(reps) < 0.75 * len(self.seeds):
            for k in range(len(self.seeds)):
                rnd.op(f"check-{k}").append(
                    f"only {len(reps)} of {len(self.seeds)} checks conclusive")
            return rnd
        # The checks are independent, so their KS p-values combine by Fisher's method.
        errs = checks.fisher_at_least([r.statistic for r in reps.values()], LAW_LEVEL)
        # The hybrid side's weighted variance is not gated: its weights have
        # infinite variance here, and the estimate runs low on some seeds.
        errs += checks.variance_near(
            np.mean([r.details["var_first_marginal_grw"] for r in reps.values()]),
            np.sqrt(np.sum([r.details["var_first_marginal_grw_se"] ** 2
                            for r in reps.values()])) / len(reps),
            self.target_variance, what="GRW first-marginal variance")
        for name in reps:
            rnd.op(name).extend(errs)
        return rnd


WORKLOADS = {w.name: w for w in (SimulateGrw, ScalingLimit, FlashLaw)}
