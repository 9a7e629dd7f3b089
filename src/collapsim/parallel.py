"""Deterministic worker pool for batched trajectory simulation.

Each trajectory derives all of its randomness from (seed, index), so the
results are identical for any worker count; only wall time changes.  The
pool splits the index range into one contiguous slice per worker, each
worker runs one batch over its slice, and the caller receives one
Trajectories ordered by index regardless of completion order.
"""

import os
from concurrent.futures import ProcessPoolExecutor

from .errors import ConfigError, InvalidParameterError
from .records import Trajectories

_ENV_WORKERS = "COLLAPSIM_WORKERS"


def worker_count(workers=None):
    """Resolve the worker count: explicit argument, else env var, else 1.

    An argument below 1 raises InvalidParameterError, and an env value that
    is not a positive integer ConfigError.
    """
    if workers is None:
        env = os.environ.get(_ENV_WORKERS) or "1"
        if not (env.strip().isdecimal() and int(env) >= 1):
            raise ConfigError(f"{_ENV_WORKERS}={env!r} is not a positive integer")
        return int(env)
    if not workers >= 1:
        raise InvalidParameterError(f"workers must be at least 1, got {workers!r}")
    return int(workers)


def run_sliced(fn, fixed_args, n, workers=None):
    """fn(*fixed_args, lo, hi) over contiguous slices of range(n), one per worker.

    fn returns the Trajectories of indices lo .. hi-1; they are joined in
    index order.
    """
    n = int(n)
    w = min(worker_count(workers), max(1, n))
    if w <= 1:
        return fn(*fixed_args, 0, n)
    bounds = [(n * j) // w for j in range(w + 1)]
    with ProcessPoolExecutor(max_workers=w) as pool:
        futures = [
            pool.submit(fn, *fixed_args, bounds[j], bounds[j + 1])
            for j in range(w)
        ]
        return Trajectories.concat([fut.result() for fut in futures])  # index order
