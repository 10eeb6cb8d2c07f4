"""Sharded multicore execution for synthesis and detection.

The hot paths of the reproduction — compiled detection and PC's
level-wise CI tests — are embarrassingly parallel over row shards or
independent work items.  (Algorithm 2's sketch fills are
not fanned out: they share one statement-level fill cache, and a forked
worker would refill what the cache already holds.)  This package
provides the one primitive they share:
:class:`WorkerPool`, a fork-based ``multiprocessing`` pool with

* **shared-memory numpy partitions**: workers are forked, so relation
  code arrays (and any other shared state) are inherited copy-on-write
  — nothing large is ever pickled;
* **a serial fallback**: ``workers=1``, a platform without ``fork``, or
  a nested pool all run the same task functions inline, so every call
  site has exactly one code path;
* **obs merging**: when tracing is enabled, each worker's counters,
  histograms, and spans are captured per task and re-emitted into the
  parent's sink (tagged with the worker pid), so ``repro obs report``
  stays truthful under parallelism.

Results are **bit-identical to the serial path at any worker count**:
every fan-out in the repo reduces in deterministic (shard/item) order
and the per-item work is pure, so parallelism changes wall-clock only.
See ``docs/PERFORMANCE.md`` for the performance model.

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
from .shard import shard_bounds
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
    "shard_bounds",
    "worker_chaos",
]
