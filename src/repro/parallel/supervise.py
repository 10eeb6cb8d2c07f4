"""Supervised fork execution: the fault-tolerant engine behind the pool.

:class:`~repro.parallel.WorkerPool` used to hand its items to a blind
``multiprocessing.Pool.map`` — a worker that was OOM-killed or wedged
left the call blocked forever, taking synthesis down with it.  This
module replaces that collection loop with a supervised one:

* **Dead-worker detection.**  Each worker gets a private duplex pipe;
  the parent waits on every result channel *and* every process sentinel
  at once (:func:`multiprocessing.connection.wait`).  A SIGKILLed
  worker trips its sentinel and EOFs its pipe; both paths converge on
  the same recovery.
* **Per-task deadlines.**  A worker that holds dispatched items but
  makes no progress for ``task_timeout`` seconds is presumed wedged,
  killed, and treated as dead (fault kind ``task_deadline``).
* **Bounded retry.**  Items in flight on a dead worker are re-dispatched
  (at most ``max_retries`` times per item) to a re-forked replacement
  worker, while a refork budget remains.
* **Serial fallback.**  An item that exhausts its retries — or has no
  worker left to run on — executes inline in the parent, so the caller
  still gets the bit-identical result the serial path would produce.
* **Typed incidents.**  Every fault is surfaced as a
  :class:`WorkerFault` (kept on ``pool.last_faults``), an obs counter
  (``parallel.worker_faults``) and a ``worker_fault`` obs event —
  never a silent stall.

Tasks must be pure functions of ``(item, shared)``: a retried or
inlined item recomputes the same answer, which is what makes recovery
invisible to callers.

The chaos hook (:func:`worker_chaos`) is test-only: it plants a fault
description in a module global that forked workers inherit, letting the
chaos harness SIGKILL a worker mid-item, wedge it past the deadline, or
poison its result — exercising the real recovery paths end to end.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import signal
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import connection as mp_connection
from typing import Any, Callable, Iterator, Sequence

from .. import obs

WORKER_FAULT_KINDS = (
    "worker_died",
    "task_deadline",
    "result_unpicklable",
)
"""Every ``WorkerFault.kind`` the supervisor can emit."""

DEFAULT_TASK_TIMEOUT = 600.0
"""Backstop per-task progress deadline (seconds).  No healthy PC pair
job comes within two orders of magnitude of this; it exists so a wedged
worker can never hang a caller forever.  ``None`` disables deadlines."""

DEFAULT_MAX_RETRIES = 1
"""Times one item is re-dispatched to a worker before falling back to
inline serial execution in the parent."""

_PREFETCH_CHUNKS = 2
"""Chunks kept outstanding per worker (pipelines dispatch latency)."""

_POLL_SECONDS = 0.25
"""Upper bound on one supervisor wait (keeps deadline checks timely)."""

_JOIN_SECONDS = 0.5
"""How long to wait for a worker to exit before killing it."""

_CHAOS_FAULTS = ("kill", "hang", "unpicklable")


@dataclass(frozen=True)
class WorkerFault:
    """One process-level incident the supervisor absorbed.

    Attributes
    ----------
    kind:
        One of :data:`WORKER_FAULT_KINDS`.
    items:
        The item indices that were in flight on the affected worker.
    worker:
        The worker's pid (0 when unknown).
    attempt:
        The highest dispatch attempt among the affected items at the
        time of the fault (0 = first try).
    detail:
        Free-text diagnosis (exit code, deadline, pickling error).
    """

    kind: str
    items: tuple
    worker: int
    attempt: int
    detail: str = ""


class WorkerTaskError(RuntimeError):
    """A worker task raised an exception that could not itself be
    pickled back to the parent; the repr rides in the message."""


@dataclass(frozen=True)
class WorkerChaos:
    """A planted process-level fault (test-only; see :func:`worker_chaos`)."""

    fault: str
    item: int = 0
    times: int = 1
    hang_seconds: float = 30.0

    def matches(self, index: int, attempt: int) -> bool:
        """Should the fault fire for this (item, attempt) pair?"""
        return index == self.item and attempt < self.times


_CHAOS: "WorkerChaos | None" = None


@contextmanager
def worker_chaos(
    fault: str,
    item: int = 0,
    times: int = 1,
    hang_seconds: float = 30.0,
):
    """Plant a process-level fault for pool calls inside the block.

    ``fault`` is one of ``kill`` (the worker SIGKILLs itself when it
    picks up ``item``), ``hang`` (it sleeps ``hang_seconds`` first,
    tripping the pool's ``task_timeout``), or ``unpicklable`` (its
    result for ``item`` cannot be pickled back).  The fault fires on
    the first ``times`` dispatch attempts of ``item``, so retries (or
    the inline fallback, which injection never touches) recover.

    Workers inherit the planted fault via fork; the injection check
    lives only on the worker side, so parent-side inline execution is
    never sabotaged — exactly the recovery path under test.
    """
    global _CHAOS
    if fault not in _CHAOS_FAULTS:
        raise ValueError(
            f"unknown chaos fault {fault!r} (one of {_CHAOS_FAULTS})"
        )
    previous = _CHAOS
    _CHAOS = WorkerChaos(
        fault=fault, item=item, times=times, hang_seconds=hang_seconds
    )
    try:
        yield _CHAOS
    finally:
        _CHAOS = previous


class _Unpicklable:
    """A result that refuses to cross the process boundary."""

    def __reduce__(self):
        raise TypeError("chaos: poisoned result is not picklable")


# ----------------------------------------------------------------------
# Worker side.
# ----------------------------------------------------------------------


def _worker_main(parent_conn, conn, task, items, shared, capture) -> None:
    """Worker loop: recv ``(indices, attempt)`` chunks, send per-item
    ``("ok", index, payload)`` messages; ``None`` means shut down."""
    parent_conn.close()  # only the parent reads our results
    from . import pool

    pool._worker_init(shared, capture)
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        indices, attempt = message
        for index in indices:
            chaos = _CHAOS
            if chaos is not None and chaos.matches(index, attempt):
                if chaos.fault == "kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                elif chaos.fault == "hang":
                    time.sleep(chaos.hang_seconds)
            try:
                payload = _run_item(task, items[index], capture)
            except Exception as error:
                if not _send_raise(conn, index, error):
                    return
                continue
            if (
                chaos is not None
                and chaos.fault == "unpicklable"
                and chaos.matches(index, attempt)
            ):
                payload = (_Unpicklable(), None, os.getpid())
            try:
                conn.send(("ok", index, payload))
            except (BrokenPipeError, OSError):
                return  # parent gone; nothing left to report to
            except Exception as error:
                # The result itself would not pickle (the pipe is
                # intact: pickling happens before any byte is written).
                try:
                    conn.send(
                        (
                            "fault",
                            index,
                            f"{type(error).__name__}: {error}",
                        )
                    )
                except (BrokenPipeError, OSError):
                    return


def _run_item(task, item, capture: bool) -> tuple:
    """Run one task, capturing its obs events when the parent traces."""
    if capture:
        with obs.tracing(obs.MemorySink()) as sink:
            result = task(item)
        return result, sink.events, os.getpid()
    return task(item), None, 0


def _send_raise(conn, index, error) -> bool:
    """Report a task exception; False when the parent is unreachable."""
    try:
        conn.send(("raise", index, error))
    except (BrokenPipeError, OSError):
        return False
    except Exception:
        # The exception object itself would not pickle; degrade to its
        # repr (the parent raises WorkerTaskError with it).
        try:
            conn.send(
                ("raise_text", index, f"{type(error).__name__}: {error!r}")
            )
        except (BrokenPipeError, OSError):
            return False
    return True


# ----------------------------------------------------------------------
# Parent side.
# ----------------------------------------------------------------------


class _Handle:
    """Parent-side bookkeeping for one live worker."""

    __slots__ = ("proc", "conn", "inflight", "last_progress", "alive")

    def __init__(self, proc, conn):
        self.proc = proc
        self.conn = conn
        self.inflight: dict[int, int] = {}  # item index -> attempt
        self.last_progress = time.monotonic()
        self.alive = True


def _run_inline(task, item, shared) -> Any:
    """The parent-side fallback: identical task, serial protocol."""
    from . import pool

    previous = pool._WORKER_SHARED
    pool._WORKER_SHARED = shared
    try:
        return task(item)
    finally:
        pool._WORKER_SHARED = previous


def run_supervised(
    task: Callable[[Any], Any],
    items: Sequence[Any],
    shared: Any,
    *,
    workers: int,
    capture: bool,
    chunk_size: int,
    task_timeout: "float | None",
    max_retries: int,
    max_reforks: int,
    faults: list,
) -> Iterator[tuple]:
    """Run ``task`` over ``items`` under supervision; yield
    ``(index, payload)`` pairs in completion order.

    ``payload`` is the same ``(result, events, pid)`` triple the old
    pool protocol used; inline-fallback items carry ``(result, None,
    0)`` (their obs events flowed straight to the live sink).  Worker
    incidents are appended to ``faults`` as :class:`WorkerFault`.

    Closing the generator (or an exception from a worker task, which
    re-raises here) tears the workers down in a ``finally``: shutdown
    sentinels, bounded join, then SIGKILL for stragglers — no orphaned
    fork processes, however the consumer leaves.
    """
    ctx = mp.get_context("fork")
    n_items = len(items)
    pending = set(range(n_items))
    dispatch: deque = deque(
        (tuple(range(start, min(start + chunk_size, n_items))), 0)
        for start in range(0, n_items, chunk_size)
    )
    inline: deque = deque()
    ready: deque = deque()
    handles: list[_Handle] = []
    forks_left = workers + max_reforks

    def record_fault(kind, indices, pid, attempt, detail):
        fault = WorkerFault(
            kind=kind,
            items=tuple(indices),
            worker=pid or 0,
            attempt=attempt,
            detail=detail,
        )
        faults.append(fault)
        if obs.enabled():
            obs.count("parallel.worker_faults")
            # ObsReport reads the fault kind from the "fault" field.
            obs.record(
                "worker_fault",
                fault=kind,
                items=list(fault.items),
                pid=fault.worker,
                attempt=attempt,
                detail=detail,
            )

    def requeue(index, attempt):
        if attempt + 1 > max_retries:
            inline.append(index)
        else:
            dispatch.appendleft(((index,), attempt + 1))

    def deliver(handle, message):
        tag, index, payload = message
        handle.last_progress = time.monotonic()
        if tag == "raise":
            raise payload
        if tag == "raise_text":
            raise WorkerTaskError(payload)
        attempt = handle.inflight.pop(index, None)
        if attempt is None or index not in pending:
            return  # stale duplicate after a retry; drop it
        if tag == "ok":
            pending.discard(index)
            ready.append((index, payload))
        else:  # "fault": the result would not pickle
            record_fault(
                "result_unpicklable",
                (index,),
                handle.proc.pid,
                attempt,
                payload,
            )
            requeue(index, attempt)

    def on_death(handle, kind, detail):
        handle.alive = False
        # Salvage results already buffered in the pipe: the worker may
        # have finished (and reported) items before dying.
        try:
            while handle.conn.poll(0):
                deliver(handle, handle.conn.recv())
        except (EOFError, OSError):
            pass
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.proc.join(timeout=_JOIN_SECONDS)
        affected = sorted(i for i in handle.inflight if i in pending)
        if affected:
            record_fault(
                kind,
                affected,
                handle.proc.pid,
                max(handle.inflight[i] for i in affected),
                detail,
            )
            for index in affected:
                requeue(index, handle.inflight[index])
        handle.inflight.clear()
        handles.remove(handle)

    def feed(handle):
        """Top up one worker's outstanding work; False if its pipe died."""
        budget = _PREFETCH_CHUNKS * max(1, chunk_size)
        while dispatch and len(handle.inflight) < budget:
            indices, attempt = dispatch[0]
            try:
                handle.conn.send((indices, attempt))
            except (BrokenPipeError, OSError):
                return False
            dispatch.popleft()
            for index in indices:
                handle.inflight[index] = attempt
        return True

    def spawn():
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main,
            args=(parent_conn, child_conn, task, items, shared, capture),
            daemon=True,
        )
        proc.start()
        # Close the child end in the parent *now*: a later-forked
        # worker must not inherit it, or a dead worker's pipe would
        # never EOF and death detection would silently degrade.
        child_conn.close()
        handles.append(_Handle(proc, parent_conn))

    try:
        while pending:
            while ready:
                yield ready.popleft()
            if inline:
                index = inline.popleft()
                if index in pending:
                    pending.discard(index)
                    yield index, (_run_inline(task, items[index], shared), None, 0)
                continue
            if not pending:
                break
            while dispatch and len(handles) < workers and forks_left > 0:
                spawn()
                forks_left -= 1
            if not handles:
                # No workers and no refork budget: degrade every
                # remaining item to inline serial execution.
                while dispatch:
                    indices, _attempt = dispatch.popleft()
                    inline.extend(i for i in indices if i in pending)
                if not inline:  # pragma: no cover - defensive
                    inline.extend(sorted(pending))
                continue
            for handle in list(handles):
                if dispatch and handle.alive and not feed(handle):
                    on_death(
                        handle,
                        "worker_died",
                        f"dispatch pipe closed "
                        f"(exitcode {handle.proc.exitcode})",
                    )
            timeout = _POLL_SECONDS
            if task_timeout is not None:
                now = time.monotonic()
                soonest = min(
                    (
                        h.last_progress + task_timeout
                        for h in handles
                        if h.inflight
                    ),
                    default=None,
                )
                if soonest is not None:
                    timeout = min(timeout, max(0.01, soonest - now))
            waitables = {}
            for handle in handles:
                waitables[handle.conn] = (handle, "conn")
                waitables[handle.proc.sentinel] = (handle, "sentinel")
            dead = []
            for obj in mp_connection.wait(list(waitables), timeout):
                handle, what = waitables[obj]
                if not handle.alive:
                    continue
                if what == "sentinel":
                    if handle not in dead:
                        dead.append(handle)
                    continue
                try:
                    while handle.conn.poll(0):
                        deliver(handle, handle.conn.recv())
                except (EOFError, OSError):
                    if handle not in dead:
                        dead.append(handle)
            for handle in dead:
                if handle.alive:
                    on_death(
                        handle,
                        "worker_died",
                        f"exitcode {handle.proc.exitcode}",
                    )
            if task_timeout is not None:
                now = time.monotonic()
                for handle in list(handles):
                    if (
                        handle.alive
                        and handle.inflight
                        and now - handle.last_progress > task_timeout
                    ):
                        handle.proc.kill()
                        handle.proc.join(timeout=_JOIN_SECONDS)
                        on_death(
                            handle,
                            "task_deadline",
                            f"no progress in {task_timeout:.3g}s",
                        )
        while ready:
            yield ready.popleft()
    finally:
        for handle in handles:
            try:
                handle.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        deadline = time.monotonic() + _JOIN_SECONDS
        for handle in handles:
            handle.proc.join(
                timeout=max(0.0, deadline - time.monotonic())
            )
        for handle in handles:
            if handle.proc.is_alive():
                handle.proc.kill()
                handle.proc.join()
            try:
                handle.conn.close()
            except OSError:
                pass
