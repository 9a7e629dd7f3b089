"""Deterministic worker pool for batched trajectory simulation, and the engine's threads.

Each trajectory derives all of its randomness from (seed, index), so the
results are identical for any worker count; only wall time changes.  The
pool splits the index range into one contiguous slice per worker, each
worker runs one batch over its slice, and the caller receives one
Trajectories ordered by index regardless of completion order.

Cores.  Inside one process the Trotter engine runs its row blocks on
``engine_threads()`` threads (``diosi._in_blocks``): the usable cores
(``os.sched_getaffinity``) divided among the worker processes of an
enclosing pool, which each worker learns from the pool's initializer.  So
a pool of w workers on c cores runs c // w threads per worker (at least
one), and a call with one worker runs c threads in the caller's process.

Both exist because each wins where the other loses.  Threads start no
process and pickle nothing, and they pay where a block's time goes to
numpy and FFT calls that release the GIL: the Diosi and hybrid blocks,
as in the scaling-limit benchmark.  The GRW split step runs a Python loop
over shrinking row prefixes, which holds the GIL.  Measured on 2 cores,
the 1000-row GRW ensemble of the simulate-grw benchmark (Grid(128), cos
V, mu 4, t 0.5) took 0.17 s on 1 thread and on 2 threads, against 0.12 s
on 2 processes, so the process pool stays.
"""

import os
from concurrent.futures import ProcessPoolExecutor

from .errors import ConfigError, InvalidParameterError
from .records import Trajectories

_ENV_WORKERS = "COLLAPSIM_WORKERS"

# Worker processes sharing this process's cores: 1, or the size of the pool
# this process is a worker of.
_processes_sharing_cores = 1


def _share_cores(processes):
    """Pool initializer: this worker shares the usable cores with ``processes`` workers."""
    global _processes_sharing_cores
    _processes_sharing_cores = processes


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def engine_threads():
    """Threads for the engine's row blocks: this process's share of the usable cores."""
    return max(1, _usable_cores() // _processes_sharing_cores)


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
    with ProcessPoolExecutor(max_workers=w, initializer=_share_cores, initargs=(w,)) as pool:
        futures = [
            pool.submit(fn, *fixed_args, bounds[j], bounds[j + 1])
            for j in range(w)
        ]
        return Trajectories.concat([fut.result() for fut in futures])  # index order
