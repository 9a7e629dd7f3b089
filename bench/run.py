"""Benchmark entry point: one workload, one process, one JSON line.

    python3 bench/run.py --workload simulate-grw --seed 1 --seconds 20 --trace 0

Run from the repository root.  The program is imported from ``src/`` next
to this directory.  After import the workload is set up three times
(inputs built from the seed, then a small warm-up call of every operation)
and the median set-up is added to the import time.  Identical rounds then
run for about ``--seconds``; every round checks the program's outputs,
and only the calls into the program are timed.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced round, then traces the rest with spans around the program's
public functions, and prints the per-layer metrics per round; the spans
of the last traced round are written to ``bench/.runs/``.

The last line of standard output is the result object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Without ``src/collapsim`` the
benchmark exits with status 2 and prints no result.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(HERE, ".runs")
SETUP_REPEATS = 3


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["simulate-grw", "scaling-limit", "flash-law"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def _cap_threads():
    """BLAS and OpenMP threads at most the usable cores, set before numpy loads."""
    n = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = n
    os.environ.pop("COLLAPSIM_WORKERS", None)  # worker counts come from the workload


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _run_rounds(workload, seconds, on_round=None):
    """Identical rounds for about ``seconds``; at least one.

    A round starts only if, at the mean round time so far, at least half
    of it falls inside ``seconds``, so a run overshoots by at most half a
    round and runs of one workload last about as long as each other.
    """
    rounds, walls = [], []
    t0 = time.perf_counter()
    while not rounds or time.perf_counter() - t0 + 0.5 * statistics.mean(walls) < seconds:
        start = time.perf_counter()
        rnd = workload.run_round()
        walls.append(time.perf_counter() - start)
        rounds.append(rnd)
        if on_round is not None:
            on_round()
    return rounds, walls


def _report(rounds, walls):
    print("round walls (s): " + " ".join(f"{w:.3f}" for w in walls), file=sys.stderr)
    print("program seconds per round and operation: "
          + json.dumps([{k: round(v, 4) for k, v in r.program_s.items()} for r in rounds]),
          file=sys.stderr)
    for name, errs in rounds[0].ops.items():
        for msg in errs:
            print(f"FAILED {name}: {msg}", file=sys.stderr)


def _end_to_end(workload, seconds, import_s, setup_s):
    rounds, walls = _run_rounds(workload, seconds)
    # the time spent inside the program; the benchmark's own checks are not timed
    wall = statistics.median(sum(r.program_s.values()) for r in rounds)
    first = rounds[0]
    metrics = {
        "setup_s": _metric(import_s + statistics.median(setup_s), "s"),
        "wall_s": _metric(wall, "s"),
        "trajectory_cells_per_s": _metric(first.cells / wall, "1/s"),
        "ess_per_s": _metric(first.ess / wall, "1/s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return rounds, walls, metrics


def _per_layer(workload, args, workdir):
    import numpy as np

    import spans as tracing

    t0 = time.perf_counter()
    untraced = workload.run_round()  # same work, no spans: the overhead baseline
    base_wall = time.perf_counter() - t0

    spool = os.path.join(workdir, "spool")
    os.makedirs(spool, exist_ok=True)
    tracer = tracing.Tracer(spool).install()
    summaries = []
    last = {}

    def on_round():
        spans, pids, counters = tracer.collect()
        summaries.append(tracing.summarize(tracer.keys, spans, pids, counters, os.getpid()))
        last.update(spans=spans, pids=pids)

    try:
        rounds, walls = _run_rounds(workload, args.seconds, on_round)
    finally:
        tracer.restore()
    rounds.insert(0, untraced)

    os.makedirs(RUNS, exist_ok=True)
    np.savez_compressed(
        os.path.join(RUNS, f"trace-{args.workload}-seed{args.seed}.npz"),
        spans=last["spans"], pids=last["pids"], names=np.array(tracer.keys),
        absent=np.array(tracer.absent, dtype=str))
    for key in tracer.absent:
        print(f"ABSENT {key}: not in the program, reported as 0", file=sys.stderr)
    calls_repeat = all(
        [s[k]["calls"] for k in tracer.keys] == [summaries[0][k]["calls"] for k in tracer.keys]
        and s["counters"] == summaries[0]["counters"] for s in summaries)
    metrics = _layer_metrics(tracer.keys, summaries, walls, base_wall)
    return rounds, [base_wall] + walls, metrics, calls_repeat


def _layer_metrics(keys, summaries, walls, base_wall):
    """Per-round means of the traced rounds."""
    k = len(summaries)

    def mean(get):
        return sum(get(s) for s in summaries) / k

    def ratio(num, den):
        return num / den if den > 0 else 0.0

    out = {}
    for key in keys[:-1]:  # the last key is the pool helper
        out[f"{key}.calls"] = _metric(summaries[0][key]["calls"], "count")
        out[f"{key}.self_s"] = _metric(mean(lambda s: s[key]["self_s"]), "s")
    first = summaries[0]["counters"]
    for name in ("diosi.hybrid_trajectory", "diosi.diosi_ensemble"):
        incl = mean(lambda s: s[name]["incl_s"])
        out[f"{name}.us_per_cell"] = _metric(ratio(1e6 * incl, first.get(f"{name}.cells", 0)), "us")
    drawn = first.get("rng.wiener_normals_drawn", 0)
    used = first.get("rng.wiener_normals_used", 0)
    out["rng.wiener_normals_drawn"] = _metric(drawn, "count")
    out["rng.wiener_normals_used"] = _metric(used, "count")
    out["rng.wiener_use_ratio"] = _metric(ratio(used, drawn), "ratio")
    for name in ("archive.write_archive", "archive.read_archive"):
        incl = mean(lambda s: s[name]["incl_s"])
        out[f"{name}.mb_per_s"] = _metric(ratio(first.get(f"{name}.bytes", 0) / 1e6, incl), "MB/s")
    pooled = mean(lambda s: s["pool"]["pooled_wall_s"])
    busy = mean(lambda s: s["pool"]["busy_s"])
    workers = max(s["pool"]["workers"] for s in summaries)
    out["parallel.run_indexed.wall_s"] = _metric(mean(lambda s: s["pool"]["wall_s"]), "s")
    out["parallel.worker_busy_s"] = _metric(busy, "s")
    out["parallel.efficiency"] = _metric(ratio(busy, workers * pooled), "ratio")
    out["trace.coverage"] = _metric(
        ratio(sum(s["trace.covered_s"] for s in summaries), sum(walls)), "ratio")
    out["trace.overhead_s"] = _metric(statistics.median(walls) - base_wall, "s")
    return out


def main(args):
    if not os.path.isfile(os.path.join(SRC, "collapsim", "__init__.py")):
        print(f"error: no collapsim package under {SRC}", file=sys.stderr)
        return 2
    _cap_threads()
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (numpy, scipy and collapsim are part of the import time)
    import collapsim  # noqa: F401
    import workloads
    import_s = time.perf_counter() - t0

    workdir = os.path.join(RUNS, f"{args.workload}-{os.getpid()}")
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.prepare()
            workload.warm_up()
            setup_s.append(time.perf_counter() - start)
        if args.trace:
            rounds, walls, metrics, counts_repeat = _per_layer(workload, args, workdir)
        else:
            rounds, walls, metrics = _end_to_end(workload, args.seconds, import_s, setup_s)
            counts_repeat = True
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"import {import_s:.3f} s, set-up repeats (s): "
          + " ".join(f"{t:.3f}" for t in setup_s), file=sys.stderr)
    _report(rounds, walls)
    same = all(r.signature() == rounds[0].signature() for r in rounds)
    result = {
        "correct": bool(same and counts_repeat),
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(_parse(sys.argv[1:])))
