"""Deterministic worker pool for batched trajectory simulation.

Each trajectory derives all of its randomness from (seed, index), so the
results are identical for any worker count; only wall time changes.  The
pool splits the index range into one contiguous slice per worker, each
worker runs one batch over its slice, and the caller receives records
ordered by index regardless of completion order.
"""

import os
from concurrent.futures import ProcessPoolExecutor

_ENV_WORKERS = "COLLAPSIM_WORKERS"


def worker_count(workers=None):
    """Resolve the worker count: explicit argument, else env var, else 1."""
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(_ENV_WORKERS)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            return 1
    return 1


def run_sliced(fn, fixed_args, n, workers=None):
    """fn(*fixed_args, lo, hi) over contiguous slices of range(n), one per worker.

    fn returns the list of results for indices lo .. hi-1; the lists are
    concatenated in index order.
    """
    n = int(n)
    w = min(worker_count(workers), max(1, n))
    if w <= 1:
        return fn(*fixed_args, 0, n)
    bounds = [(n * j) // w for j in range(w + 1)]
    out = []
    with ProcessPoolExecutor(max_workers=w) as pool:
        futures = [
            pool.submit(fn, *fixed_args, bounds[j], bounds[j + 1])
            for j in range(w)
        ]
        for fut in futures:  # submission order == index order
            out.extend(fut.result())
    return out

