#!/usr/bin/env python3
"""The repository benchmark: four workloads over serve, synthesis and guarded SQL.

    python3 perfbench/run.py --workload serve-closed --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

One workload per run, in a fresh interpreter.  The run builds its
inputs from ``--seed``, sets up ``repro`` several times (``setup_s`` is
the median), warms up, measures for ``--seconds``, then checks every
output against an oracle.  Times of work paced by the processor are
taken on the host-corrected clock of :mod:`hostclock`.  It prints each metric with its unit and, as
the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the ``end_to_end`` metrics of ``BENCHMARK.json`` with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  A wrong
output makes the exit code 1.

``--trace 1`` also writes the window's spans, counters and per-layer
table to ``perfbench/out/<workload>-seed<seed>.trace.json``.
``--workload all`` runs every workload in its own interpreter (untraced,
then traced when ``--trace 1``, reporting the tracing overhead) and
writes a stamped record to ``perfbench/out/`` with :func:`record_bench`.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from common import OUT_DIR
from hostclock import HostClock
from loadgen import LATE_MS, percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
LAYERS = tuple(
    m["name"].removesuffix(".busy_pct")
    for m in SPEC["per_layer"]
    if m["name"].endswith(".busy_pct")
)
"""The layers per-layer busy shares are reported for (module names)."""


def _import_repro() -> None:
    """Put ``src/`` first on the path; refuse a ``repro`` from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as error:
        raise SystemExit(f"perfbench: cannot import repro from {src}: {error}")
    if not Path(repro.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {src}")


def _workload(name: str):
    import serve_bench
    import sql_bench
    import synth_bench

    pins = json.loads((HERE / "pins.json").read_text())
    return {
        "serve-closed": serve_bench.serve_closed,
        "serve-open-mixed": serve_bench.serve_open_mixed,
        "synth-suite": partial(synth_bench.synth_suite, pins=pins["synth-suite"]),
        "sql-ingest": partial(sql_bench.sql_ingest, pins=pins["sql-ingest"]),
    }[name]


# ----------------------------------------------------------------------
# Metrics


def _span(outcome, clock):
    """``(start, end) -> seconds`` for the outcome's stamps: the
    host-corrected clock for host-bound work, the wall clock otherwise."""
    return clock.span if outcome.host_bound else (lambda start, end: np.subtract(end, start))


def latencies_ms(outcome, clock) -> np.ndarray:
    """Latencies of the measured operations that succeeded."""
    ops = outcome.measured.ops
    return _span(outcome, clock)(ops["begin"], ops["done"]) * 1e3


def end_to_end(outcome, clock) -> dict:
    """What a user of the system sees, by ``BENCHMARK.json`` name.

    Throughput is over the whole window, latency is a mean, and set-up
    time a median over the run's set-ups.  Set-ups are always timed on
    the host-corrected clock, the load when ``outcome.host_bound``
    says so (see :class:`common.Outcome`).  Latency is a mean, not a
    percentile: in ``serve-closed`` the four tenants' batches fall into
    two phase patterns, latencies form two modes about 1.6x apart, and
    which mode holds the median flips between identical runs.
    Percentiles are printed beside it.  Peak memory is taken when the
    window closes, before the oracles run.
    """
    span = _span(outcome, clock)
    phase = outcome.measured
    starts, ends = np.array(outcome.setups).T
    latencies = latencies_ms(outcome, clock)
    return {
        "setup_s": float(np.median(clock.span(starts, ends))),
        "throughput_ops_s": phase.succeeded / float(span(phase.started, phase.stopped)),
        "latency_mean_ms": float(latencies.mean()) if len(latencies) else 0.0,
        "peak_rss_mb": phase.peak_rss_mb,
    }


def per_layer(outcome, tracer) -> dict:
    """Busy shares, counts and hit ratios of single layers (traced run)."""
    phase = outcome.measured
    window = tracer.window_s
    busy = tracer.layer_self_s()
    busy["loadgen"] = phase.busy_s
    extra, counters, facts = tracer.extra, tracer.counters, outcome.facts
    latency_s = float(phase.latency_ms.sum()) / 1e3
    ops = max(phase.succeeded, 1)

    def pct(seconds):
        return 100.0 * seconds / window

    def of_latency(seconds):
        return 100.0 * seconds / latency_s if latency_s else 0.0

    def ratio(hit, miss):
        return counters[hit] / (counters[hit] + counters[miss]) if counters[hit] + counters[miss] else 0.0

    values = {f"{layer}.busy_pct": pct(busy.get(layer, 0.0)) for layer in LAYERS}
    values.update(
        {
            "serve.admit_pct": pct(tracer.self_s("serve.admit")),
            "serve.flush_pct": pct(tracer.self_s("serve.flush")),
            "serve.batch_fill": extra["flush_rows"] / extra["flushes"] if extra["flushes"] else 0.0,
            "serve.queue_wait_pct": of_latency(extra["queue_wait_s"]),
            "serve.respond_pct": of_latency(extra["respond_s"]),
            "resilience.journal_pct": pct(tracer.self_s("resilience.journal_append")),
            "resilience.journal_appends": tracer.calls("resilience.journal_append"),
            "resilience.quarantine_pushes": tracer.calls("resilience.quarantine_push"),
            "errors.rectify_pct": pct(tracer.self_s("errors.rectify")),
            "dsl.kernel_evals_per_op": counters["dsl.kernel.eval"] / ops,
            "dsl.mask_cache_hit_ratio": ratio("dsl.mask_cache.hit", "dsl.mask_cache.miss"),
            "pgm.ci_tests_per_op": facts.get("ci_tests", 0.0),
            "pgm.dags_per_op": facts.get("dags", 0.0),
            "sketch.fill_cache_hit_ratio": ratio("sketch.fill.cache_hit", "sketch.fill.cache_miss"),
            "loadgen.late_pct": 100.0 * float((phase.late_ms > LATE_MS).mean()) if phase.succeeded else 0.0,
            "loadgen.sent": phase.sent,
            "loadgen.failed": phase.failed,
            "unattributed_pct": 100.0 - pct(sum(busy.get(layer, 0.0) for layer in LAYERS)),
        }
    )
    return values


def layer_table(tracer) -> list[str]:
    """One line per span name: calls, self time per call, share of the window."""
    from tracer import layer_of

    lines = [f"  {'span':34s} {'layer':10s} {'calls':>9s} {'self us/call':>13s} {'self %':>7s}"]
    rows = sorted(tracer.by_name.items(), key=lambda item: -item[1][2])
    for name, (count, _, own) in rows:
        lines.append(
            f"  {name:34s} {layer_of(name):10s} {count:9d} {1e6 * own / count:13.2f} "
            f"{100.0 * own / tracer.window_s:7.2f}"
        )
    return lines


# ----------------------------------------------------------------------
# One workload


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Run one workload in this interpreter; returns the exit code."""
    from tracer import Tracer

    tracer = Tracer(enabled=trace)
    try:
        with HostClock() as clock:
            outcome = _workload(name)(seconds, seed, tracer)
    finally:
        tracer.close()
    e2e = end_to_end(outcome, clock)
    metrics = per_layer(outcome, tracer) if trace else e2e
    declared = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

    print(f"{name} seed={seed} seconds={seconds:g} trace={int(trace)}")
    for phase in outcome.phases:
        print("  phase " + " ".join(f"{k}={v}" for k, v in phase.summary().items()))
        for error in phase.errors:
            print(f"    error: {error}")
    for key, value in e2e.items():
        print(f"  {key:28s} {value:14.4f} {units[key]}")
    phase = outcome.measured
    latencies = latencies_ms(outcome, clock)
    print(f"  {'setup_runs':28s} {len(outcome.setups)}")
    print(f"  {'clock':28s} {'host-corrected' if outcome.host_bound else 'wall'}")
    print(f"  {'host_slowdown':28s} {clock.slowdown:14.4f} wall s per reference s ({clock.probes} probes)")
    print(f"  {'throughput_wall_ops_s':28s} {phase.succeeded / phase.window_s:14.4f} 1/s (wall clock; not gated)")
    if len(latencies):
        print(f"  {'latency_wall_mean_ms':28s} {phase.latency_ms.mean():14.4f} ms (wall clock; not gated)")
    for q in (0.50, 0.95, 0.99):
        label = f"latency_p{round(100 * q)}_ms"
        beyond = int(len(latencies) * (1 - q))
        print(f"  {label:28s} {percentile(latencies, q):14.4f} ms (n={len(latencies)}, {beyond} beyond; not gated)")
    for key, value in outcome.facts.items():
        print(f"  {key:28s} {value}")
    if trace:
        print("per-layer (traced window):")
        for key, value in metrics.items():
            print(f"  {key:34s} {value:14.4f} {units[key]}")
        print("spans (self time):")
        print("\n".join(layer_table(tracer)))
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"{name}-seed{seed}.trace.json"
        tracer.write(
            path,
            workload=name,
            seed=seed,
            seconds=seconds,
            end_to_end=e2e,
            per_layer=metrics,
            facts=outcome.facts,
            phases=[p.summary() for p in outcome.phases],
        )
        print(f"trace written to {path}")
    correct = not outcome.mismatches
    if not correct:
        print(f"{len(outcome.mismatches)} outputs disagree with their oracle:", file=sys.stderr)
        for line in outcome.mismatches[:20]:
            print(f"  {line}", file=sys.stderr)
    result = {
        "correct": correct,
        "attempted": outcome.measured.sent,
        "failed": outcome.measured.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared
        },
    }
    print(json.dumps(result))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# Every workload


def record_bench(runs: dict, **context) -> Path:
    """Write one benchmark record stamped with date, ``cpu_count`` and commit.

    ``runs`` maps each workload to its variants (``untraced``, and with
    tracing ``traced`` plus ``overhead_pct``), all measured in the same
    invocation, so a variant is only ever compared with a baseline from
    its own run.
    """
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    now = datetime.now(timezone.utc)
    record = {
        "date": now.isoformat(timespec="seconds"),
        "cpu_count": os.cpu_count(),
        "commit": commit or "unknown",
        **context,
        "runs": runs,
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"record-{now.strftime('%Y%m%dT%H%M%S')}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    return path


def _child(name: str, seed: int, seconds: float, trace: int):
    """Run one workload in a fresh interpreter; returns its result or None."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        name,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=600)
    print(done.stdout, end="", flush=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload, each in its own interpreter; returns the exit code."""
    runs: dict[str, dict] = {}
    ok = True
    for name in WORKLOADS:
        untraced = _child(name, seed, seconds, 0)
        if untraced is None:
            ok = False
            continue
        entry = runs[name] = {"untraced": untraced}
        if trace:
            if _child(name, seed, seconds, 1) is None:
                ok = False
                continue
            trace_file = OUT_DIR / f"{name}-seed{seed}.trace.json"
            traced = json.loads(trace_file.read_text())["end_to_end"]
            entry["traced"] = traced
            entry["overhead_pct"] = {
                key: 100.0 * (traced[key] / base["value"] - 1.0)
                for key, base in untraced["metrics"].items()
            }
    print("summary")
    for name, entry in runs.items():
        for key, metric in entry["untraced"]["metrics"].items():
            overhead = entry.get("overhead_pct", {}).get(key)
            suffix = f"  (traced {overhead:+.1f}%)" if overhead is not None else ""
            print(f"  {name:18s} {key:18s} {metric['value']:14.4f} {metric['unit']}{suffix}")
    path = record_bench(runs, seed=seed, seconds=seconds)
    print(f"record written to {path}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    _import_repro()
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
