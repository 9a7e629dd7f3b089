"""The engine's threads, and the worker count that caps them.

Each trajectory derives all of its randomness from (seed, index), so the
results are identical for any thread count; only wall time changes.  The
Trotter engine (``diosi._records``, the one block function of every
process) maps its row blocks over ``engine_threads(workers)`` threads in
one process (``diosi._in_blocks``): the usable cores
(``os.sched_getaffinity``), capped at ``workers`` when it is given, as an
argument or as COLLAPSIM_WORKERS.

There is no process pool.  The unitary factors of the jump processes are
real GEMMs on each block (``grid._eigen_rows``), and OpenBLAS spreads a
GEMM over the cores itself; worker processes, each with its own BLAS
threads, would oversubscribe them.  numpy, the FFTs and the GEMMs release
the GIL, so the blocks of one call still run on every core.
"""

import os

from .errors import ConfigError, InvalidParameterError

_ENV_WORKERS = "COLLAPSIM_WORKERS"


def _usable_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


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


def engine_threads(workers=None):
    """Threads for the engine's row blocks: the usable cores, at most ``worker_count(workers)``
    when ``workers`` or COLLAPSIM_WORKERS is set."""
    cores = _usable_cores()
    if workers is None and not os.environ.get(_ENV_WORKERS):
        return cores
    return min(cores, worker_count(workers))
