"""Structured tracing: spans, counters, histograms, verdict records.

The instrumentation contract for every subsystem in the reproduction:

* ``span("synth.sampling", rows=n)`` — a context manager timing one
  phase; spans nest, and the emitted event carries the dotted path of
  its ancestry so a report can rebuild the phase tree;
* ``@traced`` / ``@traced("name")`` — decorator form of the same;
* ``count("sketch.fill.cache_hit")`` — monotonic counters;
* ``observe("guard.check_seconds", dt)`` — histogram samples;
* ``record("verdict", ok=False, ...)`` — free-form structured events
  (the tripwire-style per-row verdict records of the runtime guard).

Everything funnels into one process-wide sink (:mod:`repro.obs.sinks`).
Tracing is **disabled by default** and every emit path starts with a
single module-flag check, so the instrumented hot loops (Table 6) pay
one predictable branch when observability is off.

    from repro import obs
    with obs.tracing(obs.JsonlSink("trace.jsonl")):
        synthesize(relation)

Every event is stamped by :data:`STEADY_CLOCK`, the one process-wide
clock the serving layer also measures queue sojourns and deadlines on.

Thread-safety: the span stack is thread-local, so concurrent guards
trace correctly; the sink itself is shared and assumed append-only.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager
from typing import Callable, Iterator, TypeVar

from .sinks import JsonlSink, MemorySink, NullSink, Sink

F = TypeVar("F", bound=Callable)


class SteadyClock:
    """A wall-anchored monotonic clock: one source for stamps *and* spans.

    ``time.time()`` can step backwards under NTP corrections, which
    makes it unusable for durations — yet event timestamps need wall
    meaning.  ``SteadyClock`` anchors a ``perf_counter`` origin to the
    wall clock once, at construction: :meth:`now` returns
    wall-meaningful timestamps that can never go backwards, and
    :meth:`monotonic` returns the raw monotonic reading for interval
    arithmetic (queue sojourns, deadlines).  Because both come from
    the same counter, a duration computed from two :meth:`now` stamps
    equals the same duration computed from :meth:`monotonic` — the
    single-clock-source property that obs-event stamps and the serving
    layer's ``queued_ms`` accounting share.
    """

    def __init__(self) -> None:
        self._anchor = time.time()
        self._origin = time.perf_counter()

    def monotonic(self) -> float:
        """Seconds on the monotonic axis (for intervals and deadlines)."""
        return time.perf_counter()

    def now(self) -> float:
        """A wall-meaningful timestamp that can never step backwards."""
        return self._anchor + (time.perf_counter() - self._origin)


STEADY_CLOCK = SteadyClock()
"""The process-wide clock every obs event is stamped with, and the one
the serving layer measures sojourns and deadlines on, so all of their
timestamps are mutually ordered."""

_NULL = NullSink()
_sink: Sink = _NULL
_enabled: bool = False
_lock = threading.Lock()
_ids = iter(range(1, 1 << 62))


class _Local(threading.local):
    def __init__(self):
        self.stack: list["SpanHandle"] = []


_local = _Local()


def enabled() -> bool:
    """Is tracing currently on?  (The hot-path guard.)"""
    return _enabled


def current_sink() -> Sink:
    """The sink events currently go to (NullSink when disabled)."""
    return _sink


def configure(sink: "Sink | None") -> None:
    """Install a sink and enable tracing; ``None`` disables.

    Prefer the :func:`tracing` context manager in library code — it
    restores the previous configuration on exit.
    """
    global _sink, _enabled
    with _lock:
        if sink is None:
            _sink = _NULL
            _enabled = False
        else:
            _sink = sink
            _enabled = True


def disable() -> None:
    """Turn tracing off (equivalent to ``configure(None)``)."""
    configure(None)


@contextmanager
def tracing(sink: "Sink | None" = None) -> Iterator[Sink]:
    """Enable tracing into ``sink`` for a scope, then restore.

    With no argument a fresh :class:`MemorySink` is created and yielded:

    >>> with tracing() as sink:
    ...     with span("phase"):
    ...         pass
    >>> sink.events[0]["name"]
    'phase'
    """
    global _sink, _enabled
    previous_sink, previous_enabled = _sink, _enabled
    target = sink if sink is not None else MemorySink()
    configure(target)
    try:
        yield target
    finally:
        with _lock:
            _sink = previous_sink
            _enabled = previous_enabled


def _emit(event: dict) -> None:
    _sink.emit(event)


# ----------------------------------------------------------------------
# Spans


class SpanHandle:
    """A live span; emits one ``span`` event when the scope exits.

    Returned by :func:`span` when tracing is enabled.  ``set()`` attaches
    result attributes discovered mid-phase (e.g. the number of CI tests
    a PC run ended up issuing).
    """

    __slots__ = ("name", "path", "span_id", "parent_id", "attrs", "_start")

    def __init__(self, name: str, attrs: dict):
        self.name = name
        self.attrs = attrs
        parent = _local.stack[-1] if _local.stack else None
        self.parent_id = parent.span_id if parent else None
        self.path = f"{parent.path}/{name}" if parent else name
        self.span_id = next(_ids)
        self._start = 0.0

    def set(self, **attrs) -> "SpanHandle":
        """Attach attributes to the span before it closes."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "SpanHandle":
        _local.stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        duration = time.perf_counter() - self._start
        stack = _local.stack
        if stack and stack[-1] is self:
            stack.pop()
        event = {
            "type": "span",
            "name": self.name,
            "path": self.path,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "dur_s": duration,
            "ts": STEADY_CLOCK.now(),
        }
        if exc_type is not None:
            event["error"] = exc_type.__name__
        if self.attrs:
            event["attrs"] = self.attrs
        _emit(event)


class _NoopSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs) -> "_NoopSpan":
        """Ignore attributes."""
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None


_NOOP_SPAN = _NoopSpan()


def span(name: str, **attrs) -> "SpanHandle | _NoopSpan":
    """Open a timed, nested span: ``with span("synth.sampling"): ...``.

    Returns a shared no-op object when tracing is disabled, so the
    disabled cost is one flag test and no allocation.
    """
    if not _enabled:
        return _NOOP_SPAN
    return SpanHandle(name, attrs)


def traced(target: "F | str | None" = None) -> "F | Callable[[F], F]":
    """Decorator tracing every call of a function as a span.

    Use bare (``@traced`` — span named after the function) or with an
    explicit name (``@traced("pgm.pc")``).  Disabled tracing costs one
    flag check per call.
    """

    def decorate(func: F, name: str) -> F:
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not _enabled:
                return func(*args, **kwargs)
            with span(name):
                return func(*args, **kwargs)

        return wrapper  # type: ignore[return-value]

    if callable(target):
        return decorate(target, target.__qualname__)
    explicit = target

    def with_name(func: F) -> F:
        return decorate(func, explicit or func.__qualname__)

    return with_name


# ----------------------------------------------------------------------
# Counters, histograms, free-form records


def count(name: str, value: int = 1, **attrs) -> None:
    """Increment a named monotonic counter by ``value``."""
    if not _enabled:
        return
    event = {
        "type": "counter",
        "name": name,
        "value": value,
        "ts": STEADY_CLOCK.now(),
    }
    if attrs:
        event["attrs"] = attrs
    _emit(event)


def observe(name: str, value: float, **attrs) -> None:
    """Record one sample of a named histogram (e.g. a latency)."""
    if not _enabled:
        return
    event = {
        "type": "observe",
        "name": name,
        "value": float(value),
        "ts": STEADY_CLOCK.now(),
    }
    if attrs:
        event["attrs"] = attrs
    _emit(event)


def record(kind: str, /, **fields) -> None:
    """Emit a free-form structured event (e.g. a guard verdict).

    ``kind`` is positional-only, so a record may carry a field named
    ``kind`` of its own (a drift alert's kind).
    """
    if not _enabled:
        return
    event = {"type": kind, "ts": STEADY_CLOCK.now()}
    event.update(fields)
    _emit(event)


def merge_events(events, worker: int | None = None) -> None:
    """Re-emit events captured in another process into the current sink.

    A forked worker inherits a *copy* of the sink, so its counters,
    histograms, and spans would be silently dropped when it exits.  The
    worker-pool protocol (:mod:`repro.parallel`) instead captures each
    task's events in a private :class:`~repro.obs.MemorySink`, ships
    them back with the result, and the parent replays them here —
    tagged with the worker's pid so reports can attribute them.

    No-op when tracing is disabled; events are copied before tagging,
    never mutated.
    """
    if not _enabled or not events:
        return
    for event in events:
        if worker:
            event = dict(event)
            event.setdefault("worker", worker)
        _emit(event)
