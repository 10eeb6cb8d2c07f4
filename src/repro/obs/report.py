"""Render a trace (JSONL file or event list) into an operator report.

``repro obs report trace.jsonl`` prints three sections:

* **Phase timings** — the span tree, aggregated by path: call count,
  total/mean wall time, and a share-of-root bar, so "where did the
  synthesis time go" is one glance (MEC enumeration vs. CI tests vs.
  sketch filling);
* **Counters / histograms** — cache hit rates, DAGs enumerated,
  per-row guard latency percentiles;
* **Guard dashboard** — the runtime-guard story of Fig. 1: rows
  checked/flagged/rectified, violation rate, and the violations-by-
  attribute breakdown reconstructed from the per-row verdict records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .sinks import iter_events


@dataclass
class SpanNode:
    """One aggregated node of the phase-timing tree."""

    name: str
    path: str
    count: int = 0
    total_s: float = 0.0
    errors: int = 0
    children: "dict[str, SpanNode]" = field(default_factory=dict)

    @property
    def mean_s(self) -> float:
        """Average duration per call (0 for an unvisited placeholder)."""
        return self.total_s / self.count if self.count else 0.0


def build_span_tree(events: Iterable[dict]) -> SpanNode:
    """Aggregate ``span`` events into a tree keyed by slash-path.

    Spans sharing a path are merged (count/total accumulate); a parent
    observed only through its children gets a placeholder node with
    ``count == 0`` so the hierarchy still renders.
    """
    root = SpanNode(name="<root>", path="")
    for event in events:
        if event.get("type") != "span":
            continue
        parts = [p for p in str(event.get("path", "")).split("/") if p]
        node = root
        prefix = ""
        for part in parts:
            prefix = f"{prefix}/{part}" if prefix else part
            node = node.children.setdefault(
                part, SpanNode(name=part, path=prefix)
            )
        node.count += 1
        node.total_s += float(event.get("dur_s", 0.0))
        if "error" in event:
            node.errors += 1
    return root


def _walk(node: SpanNode, depth: int, lines: list[str], scale: float):
    for child in sorted(
        node.children.values(), key=lambda n: -n.total_s
    ):
        share = child.total_s / scale if scale > 0 else 0.0
        bar = "#" * max(1, round(share * 24)) if child.count else ""
        mean_ms = child.mean_s * 1e3
        lines.append(
            f"  {'  ' * depth}{child.name:<{max(4, 34 - 2 * depth)}}"
            f"{child.count:>6}x {child.total_s:>9.3f}s "
            f"{mean_ms:>9.2f}ms/call  {bar}"
        )
        if child.errors:
            lines.append(
                f"  {'  ' * depth}  !! {child.errors} call(s) raised"
            )
        _walk(child, depth + 1, lines, scale)


def render_span_tree(events: Iterable[dict]) -> str:
    """The phase-timing section: an indented, share-annotated tree."""
    root = build_span_tree(events)
    if not root.children:
        return "  (no spans recorded)"
    scale = sum(c.total_s for c in root.children.values())
    header = (
        f"  {'phase':<34}{'calls':>7} {'total':>10} {'per call':>14}"
    )
    lines = [header]
    _walk(root, 0, lines, scale)
    return "\n".join(lines)


def aggregate_counters(events: Iterable[dict]) -> dict[str, int]:
    """Sum every ``counter`` event by name."""
    totals: dict[str, int] = {}
    for event in events:
        if event.get("type") == "counter":
            name = str(event["name"])
            totals[name] = totals.get(name, 0) + int(event.get("value", 1))
    return totals


def aggregate_histograms(events: Iterable[dict]) -> dict[str, list[float]]:
    """Collect every ``observe`` sample by histogram name."""
    samples: dict[str, list[float]] = {}
    for event in events:
        if event.get("type") == "observe":
            samples.setdefault(str(event["name"]), []).append(
                float(event["value"])
            )
    return samples


def _percentile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(
        len(sorted_values) - 1, int(q * (len(sorted_values) - 1) + 0.5)
    )
    return sorted_values[index]


def render_metrics(events: Iterable[dict]) -> str:
    """The counters + histograms section."""
    events = list(events)
    counters = aggregate_counters(events)
    histograms = aggregate_histograms(events)
    lines: list[str] = []
    if counters:
        lines.append("  counters:")
        for name in sorted(counters):
            lines.append(f"    {name:<40} {counters[name]:>10}")
    if histograms:
        lines.append("  histograms:")
        for name in sorted(histograms):
            values = sorted(histograms[name])
            n = len(values)
            mean = sum(values) / n
            lines.append(
                f"    {name:<40} n={n:<7} mean={mean:.6f} "
                f"p50={_percentile(values, 0.50):.6f} "
                f"p95={_percentile(values, 0.95):.6f} "
                f"max={values[-1]:.6f}"
            )
    return "\n".join(lines) if lines else "  (no metrics recorded)"


def render_guard_dashboard(events: Iterable[dict]) -> str:
    """The runtime-guard section, built from the per-row
    ``guard.verdict`` and per-batch ``guard.batch`` records."""
    checked = flagged = rectified = 0
    by_attribute: dict[str, int] = {}
    for event in events:
        kind = event.get("type")
        if kind == "guard.rectify":
            rectified += 1
            continue
        if kind == "guard.verdict":
            checked += 1
            violated = []
            if not event.get("ok", True):
                flagged += 1
                violated = [event.get("attributes", [])]
        elif kind == "guard.batch":
            checked += int(event.get("n_rows", 0))
            flagged += int(event.get("flagged", 0))
            violated = event.get("attributes", [])
        else:
            continue
        for attributes in violated:
            for attribute in attributes:
                by_attribute[attribute] = by_attribute.get(attribute, 0) + 1
    if checked == 0 and rectified == 0:
        return "  (no guard activity recorded)"
    rate = flagged / checked if checked else 0.0
    lines = [
        f"  rows checked    {checked}",
        f"  rows flagged    {flagged}  ({rate:.2%})",
        f"  rows rectified  {rectified}",
    ]
    if by_attribute:
        lines.append("  violations by attribute:")
        for name, n in sorted(by_attribute.items(), key=lambda kv: -kv[1]):
            lines.append(f"    {name:<30} {n}")
    return "\n".join(lines)


def render_drift_dashboard(events: Iterable[dict]) -> str:
    """The self-healing section: drift alerts and guardrail swaps."""
    alerts_by_kind: dict[str, int] = {}
    alerts_by_attribute: dict[str, int] = {}
    windows = swaps = heals_accepted = heals_rejected = 0
    for event in events:
        kind = event.get("type")
        if kind == "drift.alert":
            alert_kind = event.get("kind", "?")
            alerts_by_kind[alert_kind] = (
                alerts_by_kind.get(alert_kind, 0) + 1
            )
            attribute = event.get("attribute")
            if attribute:
                alerts_by_attribute[attribute] = (
                    alerts_by_attribute.get(attribute, 0) + 1
                )
        elif kind == "counter":
            name = event.get("name")
            delta = int(event.get("value", 1))
            if name == "drift.window":
                windows += delta
            elif name == "recovery.swap":
                swaps += delta
            elif name == "recovery.heal.accepted":
                heals_accepted += delta
            elif name == "recovery.heal.rejected":
                heals_rejected += delta
    total_alerts = sum(alerts_by_kind.values())
    if total_alerts == 0 and windows == 0 and swaps == 0:
        return "  (no drift activity recorded)"
    lines = [
        f"  windows evaluated  {windows}",
        f"  alerts raised      {total_alerts}",
    ]
    for name, n in sorted(alerts_by_kind.items(), key=lambda kv: -kv[1]):
        lines.append(f"    {name:<28} {n}")
    if alerts_by_attribute:
        lines.append("  alerts by attribute:")
        for name, n in sorted(
            alerts_by_attribute.items(), key=lambda kv: -kv[1]
        ):
            lines.append(f"    {name:<28} {n}")
    lines.append(
        f"  heals              {heals_accepted} accepted, "
        f"{heals_rejected} rejected"
    )
    lines.append(f"  guardrail swaps    {swaps}")
    return "\n".join(lines)


DURABILITY_COUNTERS = (
    "recovery.replayed_records",
    "recovery.truncated_tail_bytes",
    "recovery.rejected_snapshots",
    "snapshot.generations",
    "durability.snapshots",
    "durability.append_errors",
    "durability.quarantine_unjournaled",
    "durability.stop_snapshot_failed",
)
"""Counters the durability layer (:mod:`repro.resilience.durability`)
emits; the subset present in a trace forms the report's durability
section."""


def _counter_subset(
    events: Iterable[dict], names: tuple[str, ...]
) -> dict[str, int]:
    """Totals of the ``names`` counters present in a trace (one entry
    per name observed; empty when none was emitted)."""
    totals: dict[str, int] = {}
    wanted = set(names)
    for event in events:
        if event.get("type") != "counter":
            continue
        name = event.get("name")
        if name in wanted:
            totals[name] = totals.get(name, 0) + int(event.get("value", 1))
    return totals


def aggregate_durability(events: Iterable[dict]) -> dict[str, int]:
    """Collect the durability/recovery counters present in a trace.

    One entry per :data:`DURABILITY_COUNTERS` name observed; an empty
    dict means the trace never touched a durable state store.  Every
    absorbed disk incident and every recovery statistic is surfaced,
    never silently dropped.
    """
    return _counter_subset(events, DURABILITY_COUNTERS)


OVERLOAD_COUNTERS = (
    "serve.rejected",
    "serve.expired",
    "serve.shed_admission",
    "serve.shed_fair_share",
    "serve.drain_expired",
    "serve.brownout_step_down",
    "serve.brownout_step_up",
)
"""Counters the serve layer's overload pipeline
(:mod:`repro.resilience.overload`) emits; the subset present in a
trace forms the report's overload section."""


def aggregate_overload(events: Iterable[dict]) -> dict[str, int]:
    """Collect the overload-control counters present in a trace.

    One entry per :data:`OVERLOAD_COUNTERS` name observed; an empty
    dict means the trace never shed load.  Deliberate sheds (adaptive
    admission, fair share, deadlines, brownout steps) are first-class
    outcomes, so they surface in the report exactly like durability
    incidents rather than hiding inside per-tenant counters.
    """
    return _counter_subset(events, OVERLOAD_COUNTERS)


def _summary_lines(
    durability: dict[str, int], overload: dict[str, int]
) -> list[str]:
    """The report's one-line summaries: durability and overload
    counters (each only when present)."""
    lines = []
    for title, totals in (
        ("durability", durability),
        ("overload", overload),
    ):
        if totals:
            stats = ", ".join(
                f"{name}={n}" for name, n in sorted(totals.items())
            )
            lines.append(f"{title}: {stats}")
    return lines


@dataclass
class ObsReport:
    """A trace aggregated into one queryable object.

    Where the ``render_*`` functions format text, ``ObsReport`` exposes
    the same aggregates — counters, histogram samples, the span tree —
    as data, so a counter incremented at many call sites reads as one
    total here.

    >>> with obs.tracing() as sink:
    ...     for _ in range(16):
    ...         obs.count("items.done")
    >>> report = ObsReport.from_events(sink.events)
    >>> report.counter("items.done")          # 16
    """

    counters: dict[str, int] = field(default_factory=dict)
    histograms: dict[str, list[float]] = field(default_factory=dict)
    span_tree: SpanNode = field(
        default_factory=lambda: SpanNode(name="<root>", path="")
    )
    durability: dict[str, int] = field(default_factory=dict)
    overload: dict[str, int] = field(default_factory=dict)
    n_events: int = 0

    @classmethod
    def from_events(
        cls, source: "Iterable[dict] | str | Path"
    ) -> "ObsReport":
        """Aggregate a trace file, sink, or event list."""
        events = iter_events(source)
        return cls(
            counters=aggregate_counters(events),
            histograms=aggregate_histograms(events),
            span_tree=build_span_tree(events),
            durability=aggregate_durability(events),
            overload=aggregate_overload(events),
            n_events=len(events),
        )

    def counter(self, name: str, default: int = 0) -> int:
        """Total of one counter over every event that counted it."""
        return self.counters.get(name, default)

    def render(self) -> str:
        """The metrics section of the text report, under the summary
        lines (durability, overload)."""
        lines = [
            f"  {line}"
            for line in _summary_lines(self.durability, self.overload)
        ]
        body = render_metrics(
            [
                {"type": "counter", "name": name, "value": value}
                for name, value in self.counters.items()
            ]
            + [
                {"type": "observe", "name": name, "value": value}
                for name, values in self.histograms.items()
                for value in values
            ]
        )
        lines.append(body)
        return "\n".join(lines)


def render_report(source: "Iterable[dict] | str | Path") -> str:
    """Full report from a trace file, sink, or event list."""
    events = iter_events(source)
    sections = [
        ("Phase timings", render_span_tree(events)),
        ("Metrics", render_metrics(events)),
        ("Guard dashboard", render_guard_dashboard(events)),
        ("Drift & self-healing", render_drift_dashboard(events)),
    ]
    parts = [f"trace: {len(events)} events"]
    parts += _summary_lines(
        aggregate_durability(events), aggregate_overload(events)
    )
    for title, body in sections:
        parts.append(f"\n{title}\n{'-' * len(title)}\n{body}")
    return "\n".join(parts)
