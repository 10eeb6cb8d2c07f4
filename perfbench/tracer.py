"""Per-layer tracing from outside the program under test.

The benchmark never edits ``src/``.  A traced run instead

* wraps public functions at layer boundaries (``Tenant.flush``,
  ``BatchGuard.check_batch``, ``CompiledProgram.run_codes``, ...) in
  :func:`repro.obs.span` for the measured window, and restores them
  afterwards;
* installs an aggregating sink into :mod:`repro.obs`, which receives
  those spans together with the spans and counters the program already
  emits (``synth.sampling``, ``pgm.pc_level``, ``errors.detect``,
  ``sql.guard``, ...), all in one span tree.

A span's *self* time is its duration minus the time of its child spans;
summed per layer and divided by the window's wall time this gives each
layer's busy share.  A span's layer is the prefix of its name, except
for the program's own spans listed in :data:`OBS_LAYERS`.  Wrappers sit
on per-batch and per-call boundaries only, never per cell.  An untraced
run uses ``Tracer(enabled=False)``, which installs nothing.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

from repro import obs

MAX_SPANS = 50_000
"""Raw spans kept for the trace file; the aggregates cover every span."""

OBS_LAYERS = {
    "synth.sampling": "sampler",
    "synth.structure_learning": "pgm",
    "sketch.fill_program": "sketch",
    "errors.detect": "dsl",
    "sql.guard": "errors",
    "sql.predict": "ml",
}
"""Layer of the program's spans whose name prefix is not their layer."""

_ABSENT = object()


def layer_of(name: str) -> str:
    """The layer a span belongs to."""
    return OBS_LAYERS.get(name) or name.split(".", 1)[0]


class Tracer:
    """Span and counter recorder for one benchmark run.

    Also the :mod:`repro.obs` sink while the window is open.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.on = False
        self.window_s = 0.0
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.by_name: dict[str, list] = {}
        """Span name -> [count, total_s, self_s]."""
        self.counters: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        """Workload-specific sums (queue wait, batch rows, ...)."""
        self._children: dict[int, float] = defaultdict(float)
        self._patches: list[tuple] = []
        self._t0 = 0.0

    # ------------------------------------------------------------------
    # Instrumentation

    def wrap(self, owner, attr: str, name: str, before=None, after=None) -> None:
        """Time every call of ``owner.attr`` as a span called ``name``.

        ``owner`` is a class (all instances) or a module.  ``before`` and
        ``after`` receive the call's positional arguments and run outside
        the span, for workload-side bookkeeping.
        """
        if not self.enabled:
            return
        inner = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.on:
                return inner(*args, **kwargs)
            if before is not None:
                before(args)
            try:
                with obs.span(name):
                    return inner(*args, **kwargs)
            finally:
                if after is not None:
                    after(args)

        self._patch(owner, attr, wrapper)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Time each step of the generator ``owner.attr`` as a span."""
        if not self.enabled:
            return
        inner = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            steps = inner(*args, **kwargs)
            while True:
                with obs.span(name):
                    item = next(steps, _ABSENT)
                if item is _ABSENT:
                    return
                yield item

        self._patch(owner, attr, wrapper)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner).get(attr, _ABSENT)))
        setattr(owner, attr, replacement)

    # ------------------------------------------------------------------
    # The obs sink

    def emit(self, event: dict) -> None:
        """Aggregate one :mod:`repro.obs` event."""
        kind = event.get("type")
        if kind == "counter":
            self.counters[event["name"]] += event.get("value", 1)
        elif kind == "span":
            self._span(event)

    def _span(self, event: dict) -> None:
        name, duration = event["name"], event["dur_s"]
        span_id, parent = event["span_id"], event.get("parent_id")
        own = duration - self._children.pop(span_id, 0.0)
        if parent is not None:
            self._children[parent] += duration
        entry = self.by_name.get(name)
        if entry is None:
            entry = self.by_name[name] = [0, 0.0, 0.0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += own
        if len(self.spans) < MAX_SPANS:
            start = time.perf_counter() - duration - self._t0
            self.spans.append((span_id, parent, name, start, duration))
        else:
            self.dropped_spans += 1

    # ------------------------------------------------------------------
    # The measured window

    def start(self) -> None:
        """Open the measured window: spans and counters now record."""
        if not self.enabled:
            return
        obs.configure(self)
        self._t0 = time.perf_counter()
        self.on = True

    def stop(self) -> None:
        """Close the measured window."""
        if not self.on:
            return
        self.window_s = time.perf_counter() - self._t0
        self.on = False
        obs.disable()

    def close(self) -> None:
        """Stop and undo every wrapper, newest first."""
        self.stop()
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------
    # Results

    def calls(self, name: str) -> int:
        """How many spans called ``name`` closed in the window."""
        entry = self.by_name.get(name)
        return entry[0] if entry else 0

    def self_s(self, name: str) -> float:
        """Summed self time of the spans called ``name``."""
        entry = self.by_name.get(name)
        return entry[2] if entry else 0.0

    def layer_self_s(self) -> dict[str, float]:
        """Summed self time per layer."""
        out: dict[str, float] = defaultdict(float)
        for name, (_, _, own) in self.by_name.items():
            out[layer_of(name)] += own
        return dict(out)

    def write(self, path, **context) -> None:
        """Write the window's spans, aggregates and counters as JSON."""
        payload = dict(context)
        payload.update(
            window_s=self.window_s,
            layers_self_s=self.layer_self_s(),
            spans_by_name={
                name: {"layer": layer_of(name), "count": count, "total_s": total, "self_s": own}
                for name, (count, total, own) in sorted(self.by_name.items())
            },
            counters=dict(self.counters),
            extra=dict(self.extra),
            dropped_spans=self.dropped_spans,
            spans=[
                {"id": span_id, "parent": parent, "name": name, "start_s": start, "dur_s": duration}
                for span_id, parent, name, start, duration in self.spans
            ],
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1)
