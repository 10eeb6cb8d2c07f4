"""Observability: tracing spans, metrics, and trace reports.

The reproduction's subsystems (synthesis, sketch filling, the PC
learner, the streaming guard, the SQL executor) are instrumented with
this package's primitives.  Tracing is **off by default** and costs one
flag check per instrumentation site when off, so enabling the package
never changes Table 6's overhead numbers.

Typical use::

    from repro import obs

    with obs.tracing(obs.JsonlSink("trace.jsonl")):
        result = synthesize(relation)

    print(obs.render_report("trace.jsonl"))

or from the CLI: ``python -m repro synthesize data.csv --trace
trace.jsonl`` then ``python -m repro obs report trace.jsonl``.
"""

from .report import (
    ObsReport,
    SpanNode,
    aggregate_counters,
    aggregate_histograms,
    aggregate_durability,
    aggregate_overload,
    aggregate_worker_faults,
    build_span_tree,
    render_drift_dashboard,
    render_guard_dashboard,
    render_metrics,
    render_report,
    render_span_tree,
    worker_ids,
)
from .sinks import (
    JsonlSink,
    MemorySink,
    NullSink,
    Sink,
    iter_events,
    read_jsonl,
)
from .trace import (
    STEADY_CLOCK,
    SpanHandle,
    SteadyClock,
    configure,
    count,
    current_sink,
    disable,
    enabled,
    merge_events,
    observe,
    record,
    span,
    traced,
    tracing,
)

__all__ = [
    # trace
    "span",
    "traced",
    "count",
    "observe",
    "record",
    "tracing",
    "configure",
    "disable",
    "enabled",
    "current_sink",
    "merge_events",
    "SpanHandle",
    "SteadyClock",
    "STEADY_CLOCK",
    # sinks
    "Sink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "read_jsonl",
    "iter_events",
    # report
    "ObsReport",
    "worker_ids",
    "SpanNode",
    "build_span_tree",
    "render_span_tree",
    "aggregate_counters",
    "aggregate_histograms",
    "aggregate_durability",
    "aggregate_overload",
    "aggregate_worker_faults",
    "render_metrics",
    "render_drift_dashboard",
    "render_guard_dashboard",
    "render_report",
]
