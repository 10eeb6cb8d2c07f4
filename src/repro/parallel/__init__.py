"""Forked multicore execution for PC's level-wise CI tests.

Each PC-stable level searches its adjacent pairs' separating sets
independently (adjacency is frozen per level), so
:func:`repro.pgm.learn_cpdag` can fan one job per pair out across
worker processes.  That level fork, reached through
``synthesize(workers=)``, is this package's one caller.  (Detection and
Algorithm 2's sketch fills run in the calling process: the compiled
kernel vets a million rows in a fraction of a second, and the fills
share one statement-level fill cache that a forked worker would
refill.)  The primitive is :class:`WorkerPool`, a fork-based
``multiprocessing`` pool with

* **shared state by inheritance**: workers are forked, so the CI
  tester's code matrix (and any other shared state) is inherited
  copy-on-write — nothing large is ever pickled;
* **a serial fallback**: ``workers=1``, a platform without ``fork``, or
  a nested pool all run the same task functions inline, so every call
  site has exactly one code path;
* **obs merging**: when tracing is enabled, each worker's counters,
  histograms, and spans are captured per task and re-emitted into the
  parent's sink (tagged with the worker pid), so ``repro obs report``
  stays truthful under parallelism.

Results are **bit-identical to the serial path at any worker count**:
PC reduces each level's jobs in serial job order and the per-job work
is pure, so parallelism changes wall-clock only.  See
``docs/PERFORMANCE.md`` for the performance model.

Execution is **supervised** (:mod:`repro.parallel.supervise`): a worker
that is SIGKILLed, crashes, wedges past its deadline, or produces an
unpicklable result never hangs the caller.  Affected items are retried
in re-forked workers and, past the retry budget, run inline serially —
the caller still gets complete, bit-identical results, and every
incident is surfaced as a typed :class:`WorkerFault` obs event plus the
``parallel.worker_faults`` counter.  :func:`worker_chaos` is the
test-only hook the chaos harness uses to plant such faults.
"""

from .pool import (
    WorkerPool,
    as_pool,
    fork_available,
    get_shared,
    in_worker,
    resolve_workers,
)
from .supervise import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_TASK_TIMEOUT,
    WORKER_FAULT_KINDS,
    WorkerFault,
    WorkerTaskError,
    worker_chaos,
)

__all__ = [
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_TASK_TIMEOUT",
    "WORKER_FAULT_KINDS",
    "WorkerFault",
    "WorkerPool",
    "WorkerTaskError",
    "as_pool",
    "fork_available",
    "get_shared",
    "in_worker",
    "resolve_workers",
    "worker_chaos",
]
