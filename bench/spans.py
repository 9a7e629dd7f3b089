"""Span tracing of collapsim's public functions, installed from outside.

``Tracer.install`` rebinds every traced name in each ``collapsim`` module
that holds it (and methods on their classes) to a wrapper that records a
span: name, start, end and the enclosing span.  ``Tracer.restore`` puts the
originals back.  Spans live in flat arrays, so a round of several hundred
thousand calls stays small in memory.

Forked pool workers inherit the wrapped names.  A worker appends its spans
(and the argument-derived counters) to files in the trace directory each
time its outermost span closes; ``Tracer.collect`` merges them into the
parent's arrays, with the worker spans parented to the span that was open
in the parent when the pool forked.

Self time is a span's duration minus the part of it that its child spans
cover; children running in parallel workers are merged as a union of
intervals, so a parent that waits on a pool has no self time while it
waits.
"""

import functools
import importlib
import inspect
import json
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

PACKAGE = "collapsim"

# (module, attribute path) of every traced public function.
TRACED = [
    ("grid", "evolve_unitary"), ("grid", "schrodinger_step"),
    ("grid", "collapse_flow"), ("grid", "gaussian_hit"),
    ("grid", "normalize"), ("grid", "norm2"), ("grid", "boundary_mass"),
    ("grw", "grw_trajectory"), ("grw", "sample_flash_center"),
    ("grw", "sample_jump_times"),
    ("diosi", "hybrid_trajectory"), ("diosi", "hybrid_ensemble"),
    ("diosi", "diosi_ensemble"),
    ("rng", "stream"), ("rng", "WienerPath.cell_increments"),
    ("rng", "WienerPath.coarse_increments"),
    ("records", "reweight_ensemble"),
    ("master", "evolve_grw_master"), ("master", "ensemble_density"),
    ("master", "ensemble_density_se"),
    ("stats", "ks_2samp"), ("stats", "effective_sample_size"),
    ("verify", "check_flash_vs_increment"),
    ("archive", "write_archive"), ("archive", "read_archive"),
    ("archive", "summary_csv"), ("archive", "density_csv"),
    ("cli", "main"),
]
# Wrapped for the pool metrics only; it gets no calls/self_s metric.
POOL = ("parallel", "run_indexed")

SPAN_DTYPE = np.dtype([("name", "<i4"), ("start", "<f8"), ("end", "<f8"),
                       ("parent", "<i8")])
NO_PARENT = -1


def _owner_ref(index):
    """Encode a parent span that lives in the process that forked a worker."""
    return -(index + 2)


def _arg(args, kwargs, pos, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else default


def _counters_for(key):
    """Argument- or result-derived counts recorded beside a span."""
    if key == "rng.stream":
        rng = importlib.import_module(f"{PACKAGE}.rng")
        try:
            role = rng.ROLE_WIENER
            block = inspect.signature(rng.WienerPath).parameters["block_size"].default
        except (AttributeError, KeyError):
            return None

        def count(args, kwargs, result):
            if int(_arg(args, kwargs, 2, "role")) == role:
                return {"rng.wiener_normals_drawn": block}
            return None
        return count
    if key == "rng.WienerPath.cell_increments":
        def count(args, kwargs, result):
            return {"rng.wiener_normals_used": int(len(result))}
        return count
    if key in ("archive.write_archive", "archive.read_archive"):
        def count(args, kwargs, result):
            path = _arg(args, kwargs, 0, "path")
            return {f"{key}.bytes": os.path.getsize(path)}
        return count
    if key == "diosi.hybrid_trajectory":
        def count(args, kwargs, result):
            return {"diosi.hybrid_trajectory.cells": len(result.flashes)}
        return count
    if key == "diosi.diosi_ensemble":
        def count(args, kwargs, result):
            p = _arg(args, kwargs, 2, "p")
            n = _arg(args, kwargs, 4, "n_trajectories")
            steps = round(p.sample_times[-1] * p.n_substeps_per_unit_time) \
                if p.sample_times else 0
            return {"diosi.diosi_ensemble.cells": int(steps) * int(n)}
        return count
    return None


class Tracer:
    """Records spans of wrapped collapsim functions; one per traced process."""

    def __init__(self, spool_dir):
        self.spool_dir = spool_dir
        self.keys = [f"{m}.{a}" for m, a in TRACED] + [".".join(POOL)]
        self.name_index = {k: i for i, k in enumerate(self.keys)}
        self.absent = []
        self._rebound = []
        self._owner_pid = os.getpid()
        self._reset_spans()
        self._stack = []
        self._inherited = None  # open owner span in a forked worker
        self._flushed = 0
        os.register_at_fork(after_in_child=self._after_fork)

    # -- recording -------------------------------------------------------

    def _reset_spans(self):
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self.counters = defaultdict(int)

    def _after_fork(self):
        if not self._rebound:
            return
        parent = self._stack[-1] if self._stack else None
        self._reset_spans()
        self._stack = []
        self._inherited = NO_PARENT if parent is None else _owner_ref(parent)
        self._flushed = 0

    def _wrap(self, fn, key):
        idx = self.name_index[key]
        count = _counters_for(key)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._stack:
                parent = self._stack[-1]
            elif self._inherited is not None:
                parent = self._inherited
            else:
                parent = NO_PARENT
            span = len(self._start)
            self._name.append(idx)
            self._parent.append(parent)
            self._end.append(float("nan"))
            self._stack.append(span)
            self._start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end[span] = clock()
                self._stack.pop()
            if count is not None:
                extra = count(args, kwargs, result)
                if extra:
                    for k, v in extra.items():
                        self.counters[k] += v
            if self._inherited is not None and not self._stack:
                self._flush_worker()
            return result

        return traced

    def _flush_worker(self):
        """Append a worker's closed spans and counters to its spool files."""
        n = len(self._start)
        rec = np.empty(n, dtype=SPAN_DTYPE)
        rec["name"] = self._name
        rec["start"] = self._start
        rec["end"] = self._end
        parent = np.frombuffer(self._parent, dtype=np.int64).copy()
        local = parent >= 0
        parent[local] += self._flushed  # positions within the spool file
        rec["parent"] = parent
        pid = os.getpid()
        with open(os.path.join(self.spool_dir, f"spans-{pid}.bin"), "ab") as fh:
            fh.write(rec.tobytes())
        if self.counters:
            with open(os.path.join(self.spool_dir, f"counters-{pid}.jsonl"), "a",
                      encoding="utf-8") as fh:
                fh.write(json.dumps(self.counters) + "\n")
        self._flushed += n
        self._reset_spans()

    # -- installing ------------------------------------------------------

    def install(self):
        """Rebind every traced name; names the program lacks are listed in absent."""
        importlib.import_module(PACKAGE)
        self.absent = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        for mod_name, path in TRACED + [POOL]:
            key = f"{mod_name}.{path}"
            try:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(key)
                continue
            if mod not in modules:
                modules.append(mod)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            orig = getattr(owner, attr, None) if owner is not None else None
            if not callable(orig):
                self.absent.append(key)
                continue
            wrapped = self._wrap(orig, key)
            if owner_name:
                self._rebind(owner, attr, orig, wrapped)
                continue
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._rebind(m, name, orig, wrapped)
        return self

    def _rebind(self, holder, name, orig, wrapped):
        setattr(holder, name, wrapped)
        self._rebound.append((holder, name, orig))

    def restore(self):
        for holder, name, orig in reversed(self._rebound):
            setattr(holder, name, orig)
        self._rebound = []

    # -- reading ---------------------------------------------------------

    def collect(self):
        """Merge worker spool files and return this round's spans and counters.

        Returns (spans, pids, counters) and clears the recorded state, so
        each round is summarised on its own.
        """
        own = np.empty(len(self._start), dtype=SPAN_DTYPE)
        own["name"] = self._name
        own["start"] = self._start
        own["end"] = self._end
        own["parent"] = np.frombuffer(self._parent, dtype=np.int64)
        parts = [own]
        pids = [np.full(len(own), self._owner_pid, dtype=np.int64)]
        counters = defaultdict(int, self.counters)
        offset = len(own)
        for fname in sorted(os.listdir(self.spool_dir)):
            path = os.path.join(self.spool_dir, fname)
            if fname.startswith("spans-") and fname.endswith(".bin"):
                rec = np.fromfile(path, dtype=SPAN_DTYPE)
                parent = rec["parent"]
                local = parent >= 0
                owner = parent <= -2
                parent[local] += offset
                parent[owner] = -(parent[owner] + 2)
                parts.append(rec)
                pids.append(np.full(len(rec), int(fname[6:-4]), dtype=np.int64))
                offset += len(rec)
                os.remove(path)
            elif fname.startswith("counters-") and fname.endswith(".jsonl"):
                with open(path, encoding="utf-8") as fh:
                    for line in fh:
                        for k, v in json.loads(line).items():
                            counters[k] += v
                os.remove(path)
        self._reset_spans()
        return np.concatenate(parts), np.concatenate(pids), dict(counters)


def self_times(spans, pids):
    """Per-span self time: duration minus the union of its children's intervals.

    Children in the parent's own process run one after another inside it,
    so their durations add; children in pool workers may overlap each
    other, so their intervals are merged.
    """
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    dur = end - start
    kids = parent >= 0
    same = kids & (pids == pids[np.maximum(parent, 0)])
    covered = np.bincount(parent[same], weights=dur[same], minlength=len(spans))
    cross = np.flatnonzero(kids & ~same)
    order = cross[np.lexsort((start[cross], parent[cross]))]
    cur_parent, reach = -1, 0.0
    for c in order:
        p = parent[c]
        lo, hi = start[p], end[p]
        if p != cur_parent:
            cur_parent, reach = p, lo
        s = max(start[c], reach)
        e = min(end[c], hi)
        if e > s:
            covered[p] += e - s
        reach = max(reach, e)
    return dur - covered


def summarize(keys, spans, pids, counters, owner_pid):
    """Per-name calls, self and inclusive seconds, plus the pool and coverage totals."""
    own_self = self_times(spans, pids)
    dur = spans["end"] - spans["start"]
    names = spans["name"]
    out = {}
    for i, key in enumerate(keys):
        sel = names == i
        out[key] = {"calls": int(sel.sum()), "self_s": float(own_self[sel].sum()),
                    "incl_s": float(dur[sel].sum())}
    roots = (spans["parent"] == NO_PARENT) & (pids == owner_pid)
    out["trace.covered_s"] = float(dur[roots].sum())
    # pool: run_indexed spans that forked workers, and the workers' outermost spans
    pool_idx = keys.index(".".join(POOL))
    in_worker = pids != owner_pid
    worker_roots = in_worker & (spans["parent"] >= 0)
    worker_roots &= pids[np.maximum(spans["parent"], 0)] == owner_pid
    pooled = np.unique(spans["parent"][worker_roots])
    pooled = pooled[names[pooled] == pool_idx]
    busy = float(dur[worker_roots].sum())
    workers = len(np.unique(pids[in_worker]))
    out["pool"] = {"wall_s": float(dur[names == pool_idx].sum()),
                   "pooled_wall_s": float(dur[pooled].sum()),
                   "busy_s": busy, "workers": workers}
    out["counters"] = dict(counters)
    return out
