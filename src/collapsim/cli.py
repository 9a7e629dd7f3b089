"""Command-line front end: simulate, verify, export.

All artifacts are pure functions of (config, seed); --workers caps the
engine's threads and never affects results, only wall time.  On failure
(a ``CollapsimError``, or an ``OSError`` such as a missing config, archive
or output directory), partially written outputs are removed, a single
machine-parsable error line goes to stderr and the exit status is 2.
A master run writes rho at its last sample time; when the config lists
earlier ones, ``simulate`` says on one stderr line which time it wrote
and which it did not.
"""

import argparse
import os
import sys

import numpy as np

from . import archive as archive_mod
from .archive import _csv_line, _fmt
from .config import ConfigError, RunConfig
from .diosi import DiosiParams, HybridParams, diosi_ensemble, hybrid_ensemble
from .engine import engine_threads
from .errors import CollapsimError, InvalidParameterError
from .grid import Grid, HamiltonianSpec, cosine_potential, make_gaussian_packet
from .grw import GrwParams, grw_ensemble
from .master import DensityMatrix, evolve_diosi_master, evolve_grw_master

DEFAULT_VERIFY_SEED = 20260810


def build_grid(cfg):
    return Grid(cfg.n_points, cfg.x_min, cfg.x_max)


def build_packet(cfg, grid):
    return make_gaussian_packet(grid, cfg.packet_center, cfg.packet_sigma,
                                cfg.packet_momentum)


def build_hamiltonian(cfg, grid):
    if cfg.potential == "cos":
        v = cosine_potential(grid, cfg.potential_amplitude)
    else:
        v = np.zeros(grid.n_points)
    return HamiltonianSpec(grid, v, kinetic=cfg.kinetic)


def _write_text(path, text, created):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    created.append(path)


def _model_params(cfg):
    """The parameter object of a trajectory model's run; None for a master run."""
    if cfg.model == "grw":
        return GrwParams(mu=cfg.mu, alpha=cfg.alpha, t_max=cfg.t_max,
                         sample_times=cfg.sample_times)
    if cfg.model == "diosi":
        return DiosiParams(lam=cfg.lam, n_substeps_per_unit_time=cfg.n_substeps,
                           t_max=cfg.t_max, sample_times=cfg.sample_times)
    if cfg.model == "hybrid":
        return HybridParams(lam=cfg.lam, mu=cfg.mu, t_max=cfg.t_max,
                            sample_times=cfg.sample_times,
                            deterministic_times=cfg.deterministic_times,
                            wiener_resolution=cfg.wiener_resolution)
    if cfg.model == "master":
        return None
    raise ConfigError(f"model {cfg.model!r} is not a simulation")


_ENSEMBLES = {"grw": grw_ensemble, "diosi": diosi_ensemble, "hybrid": hybrid_ensemble}


def run_simulate(cfg, out_dir, workers=None):
    """Run a trajectory or master-equation simulation; returns artifact paths.

    The worker count, the grid, the initial packet, the Hamiltonian and the
    model's parameters are all checked, and the master equation solved or
    the ensemble run, before the output directory is made: a failed run
    leaves no directory.  ``workers`` caps the engine's threads.
    """
    engine_threads(workers)
    grid = build_grid(cfg)
    phi0 = build_packet(cfg, grid)
    h = build_hamiltonian(cfg, grid)
    params = _model_params(cfg)
    if cfg.model == "master":
        rho0 = DensityMatrix.from_wavefunction(phi0)
        t = cfg.sample_times[-1]
        if cfg.master_model == "grw":
            rho = evolve_grw_master(rho0, h, cfg.mu, cfg.alpha, t, cfg.master_dt)
        else:
            rho = evolve_diosi_master(rho0, h, cfg.lam, t, cfg.master_dt)
    else:
        records = _ENSEMBLES[cfg.model](phi0, h, params, cfg.seed, cfg.n_trajectories,
                                        workers=workers)
    os.makedirs(out_dir, exist_ok=True)
    created = []
    try:
        if cfg.model == "master":
            xs = [_fmt(x) for x in grid.x.tolist()]
            lines = ["x_i,x_j,re,im\r\n"]
            for xi, re_row, im_row in zip(xs, rho.entries.real.tolist(),
                                          rho.entries.imag.tolist()):
                lines.extend(_csv_line([xi, xj, _fmt(re), _fmt(im)])
                             for xj, re, im in zip(xs, re_row, im_row))
            path = os.path.join(out_dir, "master_rho.csv")
            _write_text(path, "".join(lines), created)
            return created

        arc_path = os.path.join(out_dir, f"{cfg.model}_archive.cldn")
        archive_mod.write_archive(arc_path, cfg, records)
        created.append(arc_path)
        if records:
            _write_text(os.path.join(out_dir, "summary.csv"),
                        archive_mod.summary_csv(records), created)
            for j, t in enumerate(records.times):
                _write_text(os.path.join(out_dir, f"density_t{j}.csv"),
                            archive_mod.density_csv(records, t), created)
        return created
    except Exception:
        for path in created:
            try:
                os.remove(path)
            except OSError:
                pass
        raise


def run_verify(seed, out_dir, criteria=None):
    """Run acceptance criteria, write one TestReport JSON each, print lines.

    Bad criteria or a negative seed fail before the output directory is made.
    """
    from . import acceptance

    selected = acceptance.select_criteria(criteria)
    if seed < 0:
        raise InvalidParameterError(f"seed must be >= 0, got {seed}")
    os.makedirs(out_dir, exist_ok=True)
    created = []
    reports = []
    try:
        for num, name, fn in selected:
            report = fn(seed)
            reports.append(report)
            path = os.path.join(out_dir, f"criterion_{num}_{name}.json")
            _write_text(path, report.to_json() + "\n", created)
            status = "PASS" if report.passed else "FAIL"
            print(f"ACCEPTANCE {num} {name}: {status} "
                  f"(statistic={report.statistic:.6g}, "
                  f"threshold={report.threshold:.6g}, "
                  f"runtime={report.details.get('runtime_seconds', 0.0):.1f}s)")
        return reports, created
    except Exception:
        for path in created:
            try:
                os.remove(path)
            except OSError:
                pass
        raise


def run_export(archive_path, t, out_path):
    reader = archive_mod.read_archive(archive_path)
    text = archive_mod.density_csv(reader.records, t)
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    return out_path


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="collapsim",
        description="Collapse-model Monte Carlo simulator and verification harness")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a simulation from a config file")
    sim.add_argument("--config", required=True)
    sim.add_argument("--output", default=None, help="output directory")
    sim.add_argument("--workers", type=int, default=None,
                     help="most engine threads to use (default: every usable core); "
                          "results do not depend on it")

    ver = sub.add_parser("verify", help="run the acceptance criteria")
    ver.add_argument("--config", default=None)
    ver.add_argument("--output", default=None,
                     help="output directory (default: the config's output_dir, else verify_out)")
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--criteria", default=None,
                     help="comma-separated criterion numbers (default all)")

    exp = sub.add_parser("export", help="export a density CSV from an archive")
    exp.add_argument("--archive", required=True)
    exp.add_argument("--time", type=float, required=True)
    exp.add_argument("--output", default="density.csv")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            cfg = RunConfig.from_file(args.config)
            out = args.output or cfg.output_dir or "."
            paths = run_simulate(cfg, out, workers=args.workers)
            for p in paths:
                print(p)
            if cfg.model == "master" and len(cfg.sample_times) > 1:
                *skipped, t = map(str, cfg.sample_times)
                print(f"note: master_rho.csv holds rho at t = {t} only; "
                      f"sample times not written: {', '.join(skipped)}", file=sys.stderr)
            return 0
        if args.command == "verify":
            seed, criteria, out = args.seed, None, args.output
            if args.config:
                cfg = RunConfig.from_file(args.config)
                seed = seed if seed is not None else cfg.seed
                criteria = list(cfg.criteria) or None
                out = out or cfg.output_dir
            if args.criteria:
                criteria = args.criteria.split(",")
            seed = DEFAULT_VERIFY_SEED if seed is None else seed
            reports, _ = run_verify(seed, out or "verify_out", criteria)
            return 0 if all(r.passed for r in reports) else 1
        if args.command == "export":
            path = run_export(args.archive, args.time, args.output)
            print(path)
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except (CollapsimError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
