"""Drift-instrumentation overhead — instrumented guards vs. bare guards.

The drift hook sits on the guard's per-row hot path (one inlined
countdown decrement; every k-th row pays a buffer append, and all
statistics are amortized to the window flush), so it must be nearly
free: the acceptance bar for the self-healing PR is drift-instrumented
throughput within 10% of the bare guards.

Each run also records its measurements against ``BENCH_guard.json``.
That file holds a ``baseline`` object (this benchmark's committed
reference numbers) plus a ``trajectory`` list (worker-scaling entries
appended by ``test_scaling_workers.py``); set ``REPRO_UPDATE_BENCH=1``
to rewrite the baseline on a quiet machine — the trajectory is
preserved.  ``benchmarks/README.md`` documents the format.
"""

import json
import os
import time
from pathlib import Path

import pytest

from conftest import banner
from repro.pgm import DAG, random_sem, sem_to_program
from repro.resilience import DriftDetector
from repro.synth import Guardrail

_N_ROWS = 20_000
_REPEATS = 9
_BASELINE = Path(__file__).resolve().parent / "BENCH_guard.json"


@pytest.fixture(scope="module")
def workload():
    """The same moderately wide workload the policy-overhead benchmark
    uses, so the two overhead numbers are directly comparable."""
    import numpy as np

    rng = np.random.default_rng(7)
    names = [f"a{i}" for i in range(6)]
    dag = DAG(
        names, [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    )
    sem = random_sem(dag, cardinalities=4, determinism=1.0, rng=rng)
    relation = sem.sample(_N_ROWS, rng)
    guardrail = Guardrail.from_program(sem_to_program(sem, relation))
    rows = list(relation.iter_rows())
    return guardrail, relation, rows


def _paired(bare_fn, drift_fn, repeats=_REPEATS):
    """Paired timing: (best bare, best drifted, median pair ratio).

    Each repeat times the two callables back to back (alternating
    which goes first), so both legs of a pair share the machine's load
    conditions; the *median* of the per-pair ratios is then robust to
    load spikes that would skew a single best-of series either way.
    """
    import statistics

    def once(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    bare_times, drift_times, ratios = [], [], []
    for i in range(repeats):
        if i % 2:
            drift_times.append(once(drift_fn))
            bare_times.append(once(bare_fn))
        else:
            bare_times.append(once(bare_fn))
            drift_times.append(once(drift_fn))
        ratios.append(drift_times[-1] / bare_times[-1])
    return min(bare_times), min(drift_times), statistics.median(ratios)


def _detector(relation, guardrail) -> DriftDetector:
    return DriftDetector.from_training(
        relation, program=guardrail.program, window=512
    )


def _record_baseline(measurements: dict) -> str:
    """Compare against (or rewrite) the committed baseline file.

    ``BENCH_guard.json`` is ``{"baseline": {...}, "trajectory": [...]}``;
    only the baseline object belongs to this benchmark, and a rewrite
    keeps the scaling trajectory intact.
    """
    payload = (
        json.loads(_BASELINE.read_text()) if _BASELINE.exists() else {}
    )
    if "baseline" not in payload and payload:
        # Migrate the pre-trajectory flat layout in place.
        payload = {"baseline": payload, "trajectory": []}
    if os.environ.get("REPRO_UPDATE_BENCH") == "1" or not payload:
        payload["baseline"] = measurements
        payload.setdefault("trajectory", [])
        _BASELINE.write_text(json.dumps(payload, indent=2) + "\n")
        return f"baseline written to {_BASELINE.name}"
    baseline = payload["baseline"]
    lines = []
    for key, value in measurements.items():
        reference = baseline.get(key)
        if isinstance(reference, (int, float)) and reference:
            lines.append(
                f"{key}: {value:.4f} (baseline {reference:.4f}, "
                f"{value / reference:.2f}x)"
            )
    return "vs committed baseline:\n  " + "\n  ".join(lines)


def test_drift_instrumentation_overhead(workload):
    guardrail, relation, rows = workload

    bare_row = guardrail.guard()
    drift_row = guardrail.guard()
    drift_row.attach_drift(_detector(relation, guardrail))
    bare_batch = guardrail.guard()
    drift_batch = guardrail.guard()
    drift_batch.attach_drift(_detector(relation, guardrail))

    # Warm-up: compile kernels / memoize codecs outside the timings.
    for guard in (bare_row, drift_row):
        guard.check(rows[0])
    bare_batch.check_batch(rows[:64])
    drift_batch.check_batch(rows[:64])

    t_bare_row, t_drift_row, row_ratio = _paired(
        lambda: [bare_row.check(r) for r in rows],
        lambda: [drift_row.check(r) for r in rows],
    )
    t_bare_batch, t_drift_batch, batch_ratio = _paired(
        lambda: list(bare_batch.stream(rows)),
        lambda: list(drift_batch.stream(rows)),
    )
    measurements = {
        "n_rows": _N_ROWS,
        "row_bare_ms": t_bare_row * 1e3,
        "row_drift_ms": t_drift_row * 1e3,
        "row_ratio": row_ratio,
        "batch_bare_ms": t_bare_batch * 1e3,
        "batch_drift_ms": t_drift_batch * 1e3,
        "batch_ratio": batch_ratio,
    }
    body = (
        f"rows: {_N_ROWS}, {_REPEATS} paired runs, "
        f"ratio = median of per-pair ratios\n"
        f"row guard   bare {t_bare_row * 1e3:8.2f} ms   "
        f"drifted {t_drift_row * 1e3:8.2f} ms   ratio {row_ratio:.3f}\n"
        f"batch guard bare {t_bare_batch * 1e3:8.2f} ms   "
        f"drifted {t_drift_batch * 1e3:8.2f} ms   ratio {batch_ratio:.3f}\n"
        + _record_baseline(measurements)
    )
    banner("Drift instrumentation overhead", body)

    # The acceptance bar: within 10% of bare-guard throughput.
    assert row_ratio < 1.10, f"row drift overhead {row_ratio:.3f}x"
    assert batch_ratio < 1.10, f"batch drift overhead {batch_ratio:.3f}x"


def test_instrumented_verdicts_match_bare(workload):
    guardrail, relation, rows = workload
    bare = guardrail.guard()
    drifted = guardrail.guard()
    drifted.attach_drift(_detector(relation, guardrail))
    sample = rows[:200]
    assert [bare.check(r).ok for r in sample] == [
        drifted.check(r).ok for r in sample
    ]


def test_detector_actually_fed(workload):
    """The overhead number is honest only if the detector really ran."""
    guardrail, relation, rows = workload
    guard = guardrail.guard()
    detector = _detector(relation, guardrail)
    guard.attach_drift(detector)
    for row in rows:
        guard.check(row)
    # The detector evaluates 1-in-k sampled windows of 512 rows.
    expected = _N_ROWS // (512 * detector.sample_every)
    assert detector.stats.windows_evaluated == expected
    assert expected >= 1
