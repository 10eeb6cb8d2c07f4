"""Tests for the observability layer (repro.obs)."""

import json

import pytest

from repro import obs
from repro.errors import Guard


class TestSpans:
    def test_disabled_by_default(self):
        assert not obs.enabled()
        assert isinstance(obs.current_sink(), obs.NullSink)

    def test_disabled_span_is_shared_noop(self):
        first = obs.span("a")
        second = obs.span("b", attr=1)
        assert first is second  # no per-call allocation when off
        with first as handle:
            assert handle.set(x=1) is handle

    def test_span_nesting_paths(self):
        with obs.tracing() as sink:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        inner, outer = sink.events
        assert inner["path"] == "outer/inner"
        assert inner["parent_id"] == outer["span_id"]
        assert outer["path"] == "outer"
        assert outer["parent_id"] is None
        assert outer["dur_s"] >= inner["dur_s"]

    def test_span_attrs_and_set(self):
        with obs.tracing() as sink:
            with obs.span("phase", rows=10) as handle:
                handle.set(dags=4)
        (event,) = sink.events
        assert event["attrs"] == {"rows": 10, "dags": 4}

    def test_span_records_exception(self):
        with obs.tracing() as sink:
            with pytest.raises(ValueError):
                with obs.span("boom"):
                    raise ValueError("x")
        assert sink.events[0]["error"] == "ValueError"

    def test_tracing_restores_previous_state(self):
        outer = obs.MemorySink()
        obs.configure(outer)
        try:
            with obs.tracing() as inner:
                assert obs.current_sink() is inner
            assert obs.current_sink() is outer
            assert obs.enabled()
        finally:
            obs.disable()
        assert not obs.enabled()

    def test_traced_decorator(self):
        @obs.traced
        def bare(x):
            return x + 1

        @obs.traced("named.span")
        def named():
            return 7

        assert bare(1) == 2  # works while disabled
        with obs.tracing() as sink:
            assert bare(2) == 3
            assert named() == 7
        names = [e["name"] for e in sink.events]
        assert names[0].endswith("bare")
        assert names[1] == "named.span"


class TestMetricsAndRecords:
    def test_counters_aggregate(self):
        with obs.tracing() as sink:
            obs.count("hits")
            obs.count("hits", 4)
            obs.count("misses", 2)
        assert obs.aggregate_counters(sink.events) == {
            "hits": 5,
            "misses": 2,
        }

    def test_histograms_aggregate(self):
        with obs.tracing() as sink:
            for value in (0.1, 0.2, 0.3):
                obs.observe("latency", value)
        assert obs.aggregate_histograms(sink.events) == {
            "latency": [0.1, 0.2, 0.3]
        }

    def test_noop_when_disabled(self):
        sink = obs.MemorySink()
        obs.count("x")
        obs.observe("y", 1.0)
        obs.record("z", a=1)
        assert len(sink) == 0
        assert not obs.enabled()

    def test_memory_sink_ring_buffer(self):
        sink = obs.MemorySink(maxlen=2)
        for i in range(5):
            sink.emit({"i": i})
        assert [e["i"] for e in sink.events] == [3, 4]


class TestJsonlRoundTrip:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.tracing(obs.JsonlSink(path)) as sink:
            with obs.span("phase", rows=3):
                obs.count("counter", 2)
                obs.observe("hist", 0.5)
                obs.record("guard.verdict", ok=False, attributes=["a"])
        sink.close()
        events = obs.read_jsonl(path)
        assert [e["type"] for e in events] == [
            "counter",
            "observe",
            "guard.verdict",
            "span",
        ]
        assert events[0]["value"] == 2
        assert events[2]["attributes"] == ["a"]
        assert events[3]["attrs"] == {"rows": 3}
        # Loading through the generic normalizer agrees.
        assert obs.iter_events(path) == events

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"type":"counter","name":"n","value":1}\n\n')
        assert len(obs.read_jsonl(path)) == 1

    def test_closed_sink_raises(self, tmp_path):
        sink = obs.JsonlSink(tmp_path / "t.jsonl")
        sink.close()
        with pytest.raises(ValueError):
            sink.emit({"type": "counter"})

    def test_non_serializable_attrs_stringified(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with obs.JsonlSink(path) as sink:
            sink.emit({"type": "x", "value": {1, 2}.__class__})
        assert json.loads(path.read_text())["value"]


class TestReport:
    def test_report_sections(self):
        with obs.tracing() as sink:
            with obs.span("synth.synthesize"):
                with obs.span("synth.sampling"):
                    pass
            obs.count("sketch.fill.cache_hit", 3)
            obs.observe("guard.check_seconds", 0.002)
            obs.record("guard.verdict", ok=False, attributes=["City"])
            obs.record("guard.verdict", ok=True, attributes=[])
            obs.record("guard.rectify", attributes=["City"])
        report = obs.render_report(sink.events)
        assert "Phase timings" in report
        assert "synth.sampling" in report
        assert "sketch.fill.cache_hit" in report
        assert "guard.check_seconds" in report
        assert "rows checked    2" in report
        assert "rows flagged    1" in report
        assert "rows rectified  1" in report
        assert "City" in report

    def test_report_summarizes_overload_and_durability(self):
        events = [
            {"type": "counter", "name": "serve.rejected", "value": 3},
            {"type": "counter", "name": "durability.snapshots", "value": 1},
        ]
        report = obs.render_report(events)
        assert "overload: serve.rejected=3" in report
        assert "durability: durability.snapshots=1" in report
        # The aggregated view prints the same summary lines.
        merged = obs.ObsReport.from_events(events).render()
        assert "  overload: serve.rejected=3" in merged
        assert "  durability: durability.snapshots=1" in merged

    def test_counter_default_and_n_events(self):
        report = obs.ObsReport.from_events([])
        assert report.counter("missing") == 0
        assert report.counter("missing", default=7) == 7
        assert report.n_events == 0

    def test_empty_trace_renders(self):
        report = obs.render_report([])
        assert "(no spans recorded)" in report
        assert "(no guard activity recorded)" in report

    def test_span_tree_merges_repeated_paths(self):
        events = [
            {"type": "span", "path": "a/b", "dur_s": 1.0},
            {"type": "span", "path": "a/b", "dur_s": 2.0},
            {"type": "span", "path": "a", "dur_s": 4.0},
        ]
        tree = obs.build_span_tree(events)
        node_a = tree.children["a"]
        assert node_a.count == 1 and node_a.total_s == 4.0
        node_b = node_a.children["b"]
        assert node_b.count == 2 and node_b.total_s == 3.0
        assert node_b.mean_s == pytest.approx(1.5)


class TestInstrumentation:
    def test_synthesize_emits_phase_spans(self, city_relation):
        from repro.synth import GuardrailConfig, synthesize

        with obs.tracing() as sink:
            synthesize(city_relation, GuardrailConfig(min_support=1))
        paths = {
            e["path"] for e in sink.events if e["type"] == "span"
        }
        assert any(p == "synth.synthesize" for p in paths)
        assert "synth.synthesize/synth.sampling" in paths
        assert "synth.synthesize/synth.structure_learning" in paths
        assert (
            "synth.synthesize/synth.enumeration_and_fill" in paths
        )
        counters = obs.aggregate_counters(sink.events)
        assert "pgm.mec.dags_enumerated" in counters

    def test_row_guard_emits_verdicts(self, city_program):
        guard = Guard(city_program)
        clean = {
            "PostalCode": "94704",
            "City": "Berkeley",
            "State": "CA",
            "Country": "USA",
        }
        with obs.tracing() as sink:
            guard.check(clean)
            guard.check({**clean, "City": "wrong"})
            guard.rectify({**clean, "City": "wrong"})
        verdicts = [
            e for e in sink.events if e["type"] == "guard.verdict"
        ]
        assert [v["ok"] for v in verdicts] == [True, False]
        assert verdicts[1]["attributes"] == ["City"]
        rectifies = [
            e for e in sink.events if e["type"] == "guard.rectify"
        ]
        assert rectifies and "City" in rectifies[0]["attributes"]
        latencies = obs.aggregate_histograms(sink.events)
        assert len(latencies["guard.check_seconds"]) == 2

    def test_batch_latency_sample_with_drift_attached(self, city_program):
        """Regression: the batch drift countdown reused the timer's start
        variable, so a traced 64-row batch recorded hundreds of seconds."""

        class Recorder:
            sample_every = 1

            def __init__(self):
                self.rows = 0

            def observe_batch(self, rows, oks):
                self.rows += len(rows)

        guard = Guard(city_program)
        detector = Recorder()
        guard.attach_drift(detector)
        row = {"PostalCode": "94704", "City": "Berkeley"}
        with obs.tracing() as sink:
            guard.check_batch([row] * 64)
        (seconds,) = obs.aggregate_histograms(sink.events)[
            "guard.batch_seconds"
        ]
        assert 0.0 <= seconds < 1.0
        assert detector.rows == 64

    def test_dashboard_counts_batch_checks(self, city_program):
        """Regression: the dashboard read only per-row verdict records,
        so batch-checked traffic (every served request, ``stream``)
        rendered as "(no guard activity recorded)"."""
        clean = {
            "PostalCode": "94704",
            "City": "Berkeley",
            "State": "CA",
            "Country": "USA",
        }
        rows = [clean] * 3 + [{**clean, "City": "NewYork"}] * 4 + [
            {**clean, "Country": "Mars"}
        ]
        guard = Guard(city_program)
        with obs.tracing() as sink:
            verdicts = guard.check_batch(rows)
        assert sum(not v.ok for v in verdicts) == 5
        assert (guard.stats.rows_checked, guard.stats.rows_flagged) == (8, 5)
        report = obs.render_guard_dashboard(sink.events)
        assert "rows checked    8" in report
        assert "rows flagged    5" in report
        assert "City                           4" in report
        assert "Country                        1" in report

    def test_detect_errors_span(self, city_program, city_relation):
        from repro.errors import detect_errors

        with obs.tracing() as sink:
            detect_errors(city_program, city_relation)
        (span_event,) = [
            e for e in sink.events if e["type"] == "span"
        ]
        assert span_event["name"] == "errors.detect"
        assert span_event["attrs"]["n_rows"] == city_relation.n_rows

    def test_untraced_behaviour_unchanged(self, city_program):
        guard = Guard(city_program)
        verdict = guard.check({"PostalCode": "94704", "City": "wrong"})
        assert not verdict.ok
        assert guard.stats.rows_checked == 1
