"""One seeded load generator: duration-based closed loops and Poisson open loops.

All load comes from one process, one thread and one asyncio event loop;
clients are coroutines (no OS threads, no sockets), so the generator and
the system under test share the interpreter exactly as an in-process
caller of ``repro`` would.

* :func:`closed_loop` runs ``clients`` coroutines that each send their
  next operation only after the previous one completed, until the
  window closes.  Latency runs from send to completion.
* :func:`open_loop` sends on a precomputed, seeded Poisson schedule
  whether or not earlier operations completed.  Latency runs from each
  operation's *due* time, so a stall charges its wait to every
  operation queued behind it; how late the generator itself sent is
  recorded separately.

Per-operation results go into preallocated numpy columns (:class:`Columns`),
and the open loop keeps no reference to a task once it has completed.
Operations are stamped with ``time.perf_counter``, and the caller turns
the stamps into durations: on the host-corrected clock of
:mod:`hostclock`, or on the wall clock.
"""

from __future__ import annotations

import asyncio
import resource
import time

import numpy as np

LATE_MS = 1.0
"""An open-loop send more than this far behind its due time counts as late."""
DRAIN_TIMEOUT_S = 60.0
"""Longest wait for open-loop operations still in flight when the window closes."""
CAPACITY = 1 << 20
"""Rows preallocated per phase, and written once up front: resident
memory then does not depend on how many operations a run made (a
serve-closed run makes about 200k in 10 s)."""


class Columns:
    """Per-operation result columns: preallocated, touched arrays grown by doubling."""

    def __init__(self, capacity: int = CAPACITY, **dtypes):
        self.n = 0
        self._arrays = {name: np.ones(max(capacity, 1), dtype=dtype) for name, dtype in dtypes.items()}

    def append(self, **values) -> int:
        """Write one row of values; returns its index."""
        index = self.n
        arrays = self._arrays
        if index == len(next(iter(arrays.values()))):
            for name, array in arrays.items():
                grown = np.ones(2 * len(array), dtype=array.dtype)
                grown[: len(array)] = array
                arrays[name] = grown
        for name, value in values.items():
            arrays[name][index] = value
        self.n = index + 1
        return index

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name][: self.n]

    def as_lists(self) -> dict[str, list]:
        """Every column as a Python list (fast to index in a loop)."""
        return {name: array[: self.n].tolist() for name, array in self._arrays.items()}


class Phase:
    """What one load phase did: counts plus per-operation stamps."""

    def __init__(self, name: str, capacity: int = CAPACITY):
        self.name = name
        self.sent = 0
        self.succeeded = 0
        self.failed = 0
        self.started = self.stopped = 0.0
        """Stamps of the window the phase generated load in (the throughput base)."""
        self.peak_rss_mb = 0.0
        self.busy_s = 0.0
        """Time spent in the generator's own bookkeeping (traced runs)."""
        self.errors: list[str] = []
        """The first few exceptions operations raised."""
        self.ops = Columns(capacity, begin=np.float64, done=np.float64, late_ms=np.float64)

    def close(self, stopped: float) -> None:
        """End the load window, and take the memory high-water mark so far
        (the oracles that run later do not count)."""
        self.stopped = stopped
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def record(self, ok: bool, begin: float, done: float, late_s: float = 0.0) -> None:
        """Account one finished operation: its latency runs from the stamp
        ``begin`` (sent, or due) to the stamp ``done``."""
        if ok:
            self.succeeded += 1
            self.ops.append(begin=begin, done=done, late_ms=late_s * 1e3)
        else:
            self.failed += 1

    def error(self, exc: Exception) -> None:
        """Account one operation that raised; keep the first few messages."""
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    @property
    def window_s(self) -> float:
        """Wall-clock length of the load window."""
        return self.stopped - self.started

    @property
    def latency_ms(self) -> np.ndarray:
        """Wall-clock latencies of the operations that succeeded."""
        return (self.ops["done"] - self.ops["begin"]) * 1e3

    @property
    def late_ms(self) -> np.ndarray:
        """Send lateness of the operations that succeeded (open loop)."""
        return self.ops["late_ms"]

    def summary(self) -> dict:
        """Counts of the phase, as printed and recorded."""
        return {
            "phase": self.name,
            "sent": self.sent,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "window_s": self.window_s,
        }


def percentile(values, q: float) -> float:
    """The q-quantile (0..1) by linear interpolation; 0.0 when empty."""
    if len(values) == 0:
        return 0.0
    return float(np.quantile(np.asarray(values, dtype=np.float64), q))


async def closed_loop(
    op,
    clients: int,
    seconds: float,
    name: str = "measure",
    prepare=None,
    settle=bool,
    min_ops: int = 0,
    traced: bool = False,
    capacity: int = CAPACITY,
) -> Phase:
    """Run ``clients`` closed-loop clients for ``seconds``.

    ``op(arg, client)`` is a coroutine function; ``arg`` is
    ``prepare(seq)`` when ``prepare`` is given and the phase-wide
    sequence number ``seq`` otherwise.  ``settle(result)`` turns what
    ``op`` returned into success or failure and does the caller's
    bookkeeping.  Neither ``prepare`` nor ``settle`` counts towards the
    operation's latency; in a traced run both count as the generator's
    busy time.  Operations in flight when the window closes complete and
    count, and clients go on past the window until at least ``min_ops``
    operations were sent.
    """
    phase = Phase(name, capacity)
    clock = time.perf_counter
    phase.started = clock()
    stop = phase.started + seconds

    async def client(index: int) -> None:
        while clock() < stop or phase.sent < min_ops:
            mark = clock()
            seq = phase.sent
            phase.sent += 1
            arg = prepare(seq) if prepare is not None else seq
            sent = clock()
            if traced:
                phase.busy_s += sent - mark
            try:
                result = await op(arg, index)
            except Exception as exc:
                phase.error(exc)
                continue
            done = clock()
            phase.record(settle(result), sent, done)
            if traced:
                phase.busy_s += clock() - done

    await asyncio.gather(*(client(index) for index in range(clients)))
    phase.close(clock())
    return phase


async def open_loop(
    op,
    rate: float,
    seconds: float,
    rng: np.random.Generator,
    name: str = "measure",
    settle=bool,
    traced: bool = False,
) -> Phase:
    """Send operations on a seeded Poisson schedule for ``seconds``.

    ``op(seq)`` is a coroutine function, and ``settle`` is as for
    :func:`closed_loop`.  The arrival schedule is drawn from ``rng`` up
    front; operations still in flight when the window closes are awaited
    (bounded by :data:`DRAIN_TIMEOUT_S`) and count.  Throughput is taken
    over the arrival window, never over the drain.
    """
    expected = int(rate * seconds)
    gaps = rng.exponential(1.0 / rate, size=expected + 8 * int(expected**0.5) + 16)
    due = np.cumsum(gaps)
    due = due[due < seconds]
    phase = Phase(name, len(due))
    clock = time.perf_counter
    pending: set[asyncio.Task] = set()

    async def one(seq: int, due_at: float, late: float) -> None:
        try:
            result = await op(seq)
        except Exception as exc:
            phase.error(exc)
            return
        mark = clock()
        phase.record(settle(result), due_at, mark, late)
        if traced:
            phase.busy_s += clock() - mark

    start = phase.started = clock()
    for seq, offset in enumerate(due.tolist()):
        due_at = start + offset
        now = clock()
        if due_at > now:
            await asyncio.sleep(due_at - now)
        mark = clock()
        phase.sent += 1
        task = asyncio.ensure_future(one(seq, due_at, max(0.0, mark - due_at)))
        pending.add(task)
        task.add_done_callback(pending.discard)
        if traced:
            phase.busy_s += clock() - mark
    phase.close(clock())
    if pending:
        await asyncio.wait_for(
            asyncio.gather(*list(pending)), timeout=DRAIN_TIMEOUT_S
        )
    return phase
