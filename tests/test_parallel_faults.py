"""Process-level fault tolerance of the supervised worker pool.

The contract under test (``repro.parallel.supervise``): a worker that
is SIGKILLed, wedges past its deadline, or produces an unpicklable
result must never hang the caller — results stay bit-identical to
serial, the incident is recorded as a typed ``WorkerFault`` (and, when
tracing, an obs event + counter), and no orphaned fork process outlives
the call, however it ends.
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import signal
import time

import pytest

from repro import obs
from repro.parallel import (
    WorkerFault,
    WorkerPool,
    fork_available,
    get_shared,
    worker_chaos,
)

pytestmark = pytest.mark.chaos

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail loudly (instead of hanging CI) if the block wedges."""

    def handler(signum, frame):
        raise TimeoutError(
            f"fault-recovery path hung for more than {seconds}s"
        )

    previous = signal.signal(signal.SIGALRM, handler)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_no_fork_children():
    """Every pool worker must be joined by the time a call returns."""
    leftovers = [
        p for p in mp.active_children() if p.name.startswith("Process-")
    ]
    assert not leftovers, f"orphaned fork processes: {leftovers}"


# ---------------------------------------------------------------------------
# Module-level tasks (pool payloads must be picklable by reference)
# ---------------------------------------------------------------------------


def _square(x):
    return x * x


def _kill_self_once(x):
    """SIGKILL the worker the first time item 3 is attempted — no
    chaos hook involved, just a task that takes its process down."""
    if x == 3:
        flag = get_shared()
        if not os.path.exists(flag):
            with open(flag, "w") as handle:
                handle.write(str(os.getpid()))
            os.kill(os.getpid(), signal.SIGKILL)
    return x * x


def _crash_on_two(x):
    if x == 2:
        raise ValueError(f"task {x} failed")
    return x


# ---------------------------------------------------------------------------
# SIGKILL mid-map (the headline regression: used to hang forever)
# ---------------------------------------------------------------------------


@needs_fork
@pytest.mark.parametrize("workers", [2, 4])
def test_sigkill_mid_map_returns_bit_identical(workers):
    pool = WorkerPool(workers, min_shard_rows=1)
    with deadline(60):
        with worker_chaos("kill", item=5):
            result = pool.map(_square, range(64))
    assert result == [x * x for x in range(64)]
    assert any(f.kind == "worker_died" for f in pool.last_faults)
    assert all(isinstance(f, WorkerFault) for f in pool.last_faults)
    _assert_no_fork_children()


@needs_fork
def test_sigkill_from_the_task_itself(tmp_path):
    """No injection hook: the task SIGKILLs its own worker once; the
    retry (which sees the flag file) succeeds."""
    flag = tmp_path / "killed"
    pool = WorkerPool(2, min_shard_rows=1)
    with deadline(60):
        result = pool.map(_kill_self_once, range(8), shared=str(flag))
    assert result == [x * x for x in range(8)]
    assert flag.exists()
    assert any(f.kind == "worker_died" for f in pool.last_faults)


@needs_fork
def test_hung_worker_hits_deadline_and_recovers():
    pool = WorkerPool(2, min_shard_rows=1, task_timeout=0.5)
    started = time.monotonic()
    with deadline(60):
        with worker_chaos("hang", item=2, hang_seconds=60.0):
            result = pool.map(_square, range(8))
    elapsed = time.monotonic() - started
    assert result == [x * x for x in range(8)]
    assert any(f.kind == "task_deadline" for f in pool.last_faults)
    assert elapsed < 30.0  # recovered via the deadline, not the hang


@needs_fork
def test_unpicklable_result_degrades_to_inline_serial():
    # times=8 outlives max_retries=1, so the item must fall back to
    # inline execution in the parent (where nothing is pickled).
    pool = WorkerPool(2, min_shard_rows=1, max_retries=1)
    with deadline(60):
        with worker_chaos("unpicklable", item=1, times=8):
            result = pool.map(_square, range(8))
    assert result == [x * x for x in range(8)]
    kinds = [f.kind for f in pool.last_faults]
    assert kinds.count("result_unpicklable") >= 2  # initial + retry
    _assert_no_fork_children()


@needs_fork
def test_retry_handles_fault_on_retried_attempt_too():
    # The fault fires on attempts 0 and 1: the first retry dies as
    # well, and the item still completes (inline past the budget).
    pool = WorkerPool(2, min_shard_rows=1, max_retries=1)
    with deadline(60):
        with worker_chaos("kill", item=0, times=2):
            result = pool.map(_square, range(6))
    assert result == [x * x for x in range(6)]
    assert len(pool.last_faults) >= 2


# ---------------------------------------------------------------------------
# Typed surfacing: WorkerFault obs events and counters
# ---------------------------------------------------------------------------


@needs_fork
def test_worker_fault_surfaces_as_obs_event():
    pool = WorkerPool(2, min_shard_rows=1)
    with obs.tracing(obs.MemorySink()) as sink:
        with deadline(60):
            with worker_chaos("kill", item=1):
                result = pool.map(_square, range(16))
    assert result == [x * x for x in range(16)]
    faults = [
        e for e in sink.events if e.get("type") == "worker_fault"
    ]
    assert faults and faults[0]["fault"] == "worker_died"
    assert 1 in faults[0]["items"]
    report = obs.ObsReport.from_events(sink.events)
    assert report.counter("parallel.worker_faults") >= 1
    assert report.worker_faults.get("worker_died", 0) >= 1
    assert "worker faults absorbed" in report.render()


@needs_fork
def test_healthy_run_records_no_faults():
    pool = WorkerPool(2, min_shard_rows=1)
    assert pool.map(_square, range(16)) == [x * x for x in range(16)]
    assert pool.last_faults == ()


# ---------------------------------------------------------------------------
# Lifecycle: no orphans when a task raises
# ---------------------------------------------------------------------------


@needs_fork
def test_task_exception_still_propagates_and_cleans_up():
    pool = WorkerPool(2, min_shard_rows=1)
    with deadline(60):
        with pytest.raises(ValueError, match="task 2 failed"):
            pool.map(_crash_on_two, range(8))
    _assert_no_fork_children()
