"""The fork-based worker pool behind every sharded stage.

Design notes
------------

**Fork, not spawn.**  Pools are created with the ``fork`` start method,
so workers inherit the parent's memory copy-on-write: the relation code
arrays, compiled programs, and CI testers a stage shares with its
workers cost nothing to transfer.  Only the per-item payloads (shard
indices, pair indices — small integers) and the per-item results cross
the process boundary via pickle.

**Shared state by inheritance.**  A stage passes its large read-only
state via ``map(..., shared=...)``; the pool installs it in a module
global *before* forking, and worker tasks read it back with
:func:`get_shared`.  Task functions must be module-level (picklable by
reference); closures cannot cross the boundary.

**Serial fallback.**  ``workers=1``, a platform without ``fork``, a
single work item, or a nested call from inside a worker all run the
identical task functions inline in the parent.  Call sites therefore
never branch on "am I parallel" — they call :meth:`WorkerPool.map` and
get the same answers either way (the bit-identical guarantee).

**Obs merging.**  When tracing is enabled in the parent, each worker
wraps its task in a private :class:`~repro.obs.MemorySink`; the events
ride back with the result and are re-emitted into the parent's sink by
:func:`repro.obs.merge_events`, tagged with the worker's pid.  Without
this, a forked worker's counters would be silently dropped (the child's
increments land in a copy of the sink that dies with the process).
"""

from __future__ import annotations

import multiprocessing as mp
import os
from typing import Any, Callable, Iterable, Sequence

from .. import obs
from .supervise import (
    DEFAULT_MAX_RETRIES,
    DEFAULT_TASK_TIMEOUT,
    run_supervised,
)

_WORKER_SHARED: Any = None
_WORKER_CAPTURE: bool = False
_IN_WORKER: bool = False

DEFAULT_MIN_SHARD_ROWS = 20_000
"""Below this many rows per shard, fan-out overhead (fork + pickle of
results) exceeds the kernel time saved; stages fall back to fewer
shards, possibly one (see ``docs/PERFORMANCE.md``)."""


def get_shared() -> Any:
    """The state installed by the currently running ``map``.

    Inside a forked worker this is the parent's ``shared=`` object,
    inherited copy-on-write; on the serial fallback it is the same
    object by reference.  ``None`` outside any pool call.
    """
    return _WORKER_SHARED


def in_worker() -> bool:
    """Is this process a pool worker?  (Nested pools degrade to serial.)"""
    return _IN_WORKER


def fork_available() -> bool:
    """Does this platform support the ``fork`` start method?"""
    return "fork" in mp.get_all_start_methods()


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count knob: ``None``→1, ``0``→all cores."""
    if workers is None:
        return 1
    workers = int(workers)
    if workers < 0:
        raise ValueError("workers must be >= 0")
    if workers == 0:
        return os.cpu_count() or 1
    return workers


def _worker_init(shared: Any, capture: bool) -> None:
    """Pool initializer (runs once per worker, post-fork).

    Resets tracing first: the worker inherited the parent's enabled
    flag *and sink object* via fork, and appending to a copy of the
    parent's JSONL file handle would interleave garbage.  Capture, when
    requested, happens per task via a private MemorySink instead.
    """
    global _WORKER_SHARED, _WORKER_CAPTURE, _IN_WORKER
    _IN_WORKER = True
    _WORKER_SHARED = shared
    _WORKER_CAPTURE = capture
    obs.configure(None)


class WorkerPool:
    """A reusable worker-count + shard-size policy for sharded stages.

    Instances are cheap value objects: the actual ``multiprocessing``
    pool is created per ``map`` call (fork is fast, and each stage
    shares different state), so a ``WorkerPool`` can be threaded
    through a whole pipeline — synthesis and detection — and each stage
    forks against its own shared state.

    Parameters
    ----------
    workers:
        Worker processes to fan out to.  ``1`` (the default) and
        ``None`` mean serial; ``0`` means one per CPU core.
    min_shard_rows:
        Row-sharding floor: :meth:`shards_for` never cuts shards
        smaller than this, so tiny inputs run serial even at high
        worker counts (fan-out overhead would dominate).  Tests pass
        ``1`` to force the parallel path on small fixtures.
    task_timeout:
        Per-task progress deadline in seconds (default a generous
        backstop, :data:`~repro.parallel.DEFAULT_TASK_TIMEOUT`): a
        worker holding work that reports nothing for this long is
        presumed wedged, killed, and its items retried.  ``None``
        disables hang detection (death detection stays on).
    max_retries:
        How many times one item is re-dispatched to workers after a
        fault before degrading to inline serial execution.

    After each ``map`` call, :attr:`last_faults` holds the
    tuple of :class:`~repro.parallel.WorkerFault` incidents the
    supervisor absorbed (empty on a healthy run).
    """

    __slots__ = (
        "workers",
        "min_shard_rows",
        "task_timeout",
        "max_retries",
        "last_faults",
    )

    def __init__(
        self,
        workers: int | None = 1,
        min_shard_rows: int = DEFAULT_MIN_SHARD_ROWS,
        task_timeout: "float | None" = DEFAULT_TASK_TIMEOUT,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ):
        self.workers = resolve_workers(workers)
        if min_shard_rows < 1:
            raise ValueError("min_shard_rows must be >= 1")
        self.min_shard_rows = int(min_shard_rows)
        if task_timeout is not None and not task_timeout > 0:
            raise ValueError("task_timeout must be positive or None")
        self.task_timeout = task_timeout
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.max_retries = int(max_retries)
        self.last_faults: tuple = ()

    @property
    def parallel(self) -> bool:
        """Would ``map`` actually fork?  False forces the serial path."""
        return self.workers > 1 and fork_available() and not _IN_WORKER

    def shards_for(self, n_rows: int) -> list[tuple[int, int]]:
        """Contiguous row shard bounds for this pool's policy.

        At most ``workers`` shards, each at least ``min_shard_rows``
        rows (except when the input itself is smaller); one shard means
        the caller should run serial.
        """
        from .shard import shard_bounds

        if not self.parallel:
            return shard_bounds(n_rows, 1)
        return shard_bounds(
            n_rows, self.workers, min_rows=self.min_shard_rows
        )

    # ------------------------------------------------------------------

    def map(
        self,
        task: Callable[[Any], Any],
        items: Iterable[Any],
        shared: Any = None,
    ) -> list[Any]:
        """Run ``task`` over ``items``, in order, possibly in parallel.

        ``task`` must be a module-level function; it reads the large
        read-only ``shared`` state via :func:`get_shared`.  Results come
        back in item order regardless of completion order — the
        deterministic reduction every bit-identical stage relies on.

        Collection is supervised (see :mod:`repro.parallel.supervise`):
        a worker that dies or wedges mid-item never hangs the call —
        its items are retried in a re-forked worker and, past the retry
        budget, run inline serially, so the returned list is always
        complete and bit-identical to a serial run of pure tasks.
        """
        items = list(items)
        if not self.parallel or len(items) <= 1:
            self.last_faults = ()
            return _serial_map(task, items, shared)
        faults: list = []
        engine = run_supervised(
            task,
            items,
            shared,
            workers=min(self.workers, len(items)),
            capture=obs.enabled(),
            chunk_size=max(1, len(items) // (self.workers * 4)),
            task_timeout=self.task_timeout,
            max_retries=self.max_retries,
            max_reforks=self.workers,
            faults=faults,
        )
        outs: list = [None] * len(items)
        try:
            for index, payload in engine:
                outs[index] = payload
        finally:
            engine.close()
            self.last_faults = tuple(faults)
        return [_merge_out(out) for out in outs]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"WorkerPool(workers={self.workers}, "
            f"min_shard_rows={self.min_shard_rows}, "
            f"task_timeout={self.task_timeout}, "
            f"max_retries={self.max_retries})"
        )


def _merge_out(out: tuple) -> Any:
    result, events, pid = out
    if events:
        obs.merge_events(events, worker=pid)
    return result


def _serial_map(
    task: Callable[[Any], Any], items: Sequence[Any], shared: Any
) -> list[Any]:
    """The inline fallback: same task functions, same shared-state
    protocol, current process (obs events flow to the live sink)."""
    global _WORKER_SHARED
    previous = _WORKER_SHARED
    _WORKER_SHARED = shared
    try:
        return [task(item) for item in items]
    finally:
        _WORKER_SHARED = previous


def as_pool(pool: "WorkerPool | int | None") -> "WorkerPool | None":
    """Coerce a ``workers`` knob (int or pool) to a :class:`WorkerPool`.

    ``None`` and ``1`` return ``None`` (pure serial, zero overhead);
    an int builds a pool with default shard policy; a pool passes
    through.  Every sharded entry point accepts this union.
    """
    if pool is None:
        return None
    if isinstance(pool, WorkerPool):
        return pool
    workers = resolve_workers(pool)
    if workers <= 1:
        return None
    return WorkerPool(workers)
