"""Worker-scaling benchmark — sharded detection and parallel synthesis.

The multicore tentpole promises two things at once: **speed** (row
shards across forked workers) and **bit-identical results** (every
parallel path reduces in serial order).  This module measures the
first and asserts the second on the same workload: the 6-attribute
chain SEM at ``REPRO_SCALE_ROWS_PARALLEL`` rows (default 150 000;
``REPRO_FULL=1`` runs 1 200 000, the ISSUE-6 acceptance size).

Speedup assertions only run where they are measurable — a live
``>= 2.5x`` at 4 workers needs at least 4 physical cores, so on
smaller machines the equivalence half still runs and the scaling half
is recorded but not asserted.  The committed record lives in
``BENCH_synth.json`` / ``BENCH_guard.json`` as ``trajectory`` entries
(see ``benchmarks/README.md`` for the format);
``REPRO_UPDATE_BENCH=1`` appends this run's measurements.
"""

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import banner
from repro.errors import detect_errors
from repro.parallel import WorkerPool, fork_available
from repro.pgm import DAG, random_sem, sem_to_program
from repro.synth import GuardrailConfig, synthesize

_FULL = os.environ.get("REPRO_FULL") == "1"
_N_ROWS = int(
    os.environ.get(
        "REPRO_SCALE_ROWS_PARALLEL", "1200000" if _FULL else "150000"
    )
)
_WORKER_COUNTS = (1, 2, 4)
_HERE = Path(__file__).resolve().parent
_BENCH_SYNTH = _HERE / "BENCH_synth.json"
_BENCH_GUARD = _HERE / "BENCH_guard.json"
_ACCEPTANCE_ROWS = 1_000_000
_ACCEPTANCE_SPEEDUP = 2.5

_can_fork = fork_available()
_cores = os.cpu_count() or 1
_live_scaling = _can_fork and _cores >= 4 and _N_ROWS >= _ACCEPTANCE_ROWS


@pytest.fixture(scope="module")
def workload():
    """Chain SEM sample + its ground-truth guard program."""
    rng = np.random.default_rng(13)
    names = [f"a{i}" for i in range(6)]
    dag = DAG(
        names, [(names[i], names[i + 1]) for i in range(len(names) - 1)]
    )
    sem = random_sem(dag, cardinalities=4, determinism=0.95, rng=rng)
    relation = sem.sample(_N_ROWS, rng)
    program = sem_to_program(sem, relation)
    return relation, program


def _best_of(fn, repeats=2):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _timed(fn):
    """One run of ``fn``: (wall seconds, its result)."""
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _append_trajectory(path: Path, entry: dict) -> None:
    """Append one scaling entry to a BENCH_*.json trajectory."""
    payload = json.loads(path.read_text()) if path.exists() else {}
    if "trajectory" not in payload:
        payload = (
            {"baseline": payload, "trajectory": []}
            if payload
            else {"trajectory": []}
        )
    payload["trajectory"].append(entry)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def test_detection_scan_scaling(workload):
    relation, program = workload

    def fresh():
        # A new Relation identity over the same (zero-copy) columns:
        # detection results are memoized per relation, and a cache hit
        # would time a dict lookup instead of a scan.
        return relation.slice_rows(0, relation.n_rows)

    detect_errors(program, relation)  # warm the compile cache
    baseline = detect_errors(program, fresh())
    serial_s = _best_of(lambda: detect_errors(program, fresh()))

    times = {}
    for workers in _WORKER_COUNTS:
        pool = WorkerPool(workers, min_shard_rows=1024)
        result = detect_errors(program, fresh(), pool=pool)
        assert np.array_equal(result.row_mask, baseline.row_mask)
        assert [(v.row, v.attribute) for v in result.violations] == [
            (v.row, v.attribute) for v in baseline.violations
        ]
        times[workers] = _best_of(
            lambda: detect_errors(program, fresh(), pool=pool)
        )

    speedup = serial_s / times[4]
    lines = [f"rows: {relation.n_rows}, cores: {_cores}"]
    lines.append(f"serial        {serial_s * 1e3:9.1f} ms")
    for workers, t in times.items():
        lines.append(
            f"{workers} worker(s)   {t * 1e3:9.1f} ms   "
            f"speedup {serial_s / t:.2f}x"
        )
    banner("Sharded detection scaling", "\n".join(lines))

    if os.environ.get("REPRO_UPDATE_BENCH") == "1":
        _append_trajectory(
            _BENCH_GUARD,
            {
                "date": time.strftime("%Y-%m-%d"),
                "benchmark": "guard_scan_scaling",
                "cpu_count": _cores,
                "n_rows": relation.n_rows,
                "n_attributes": len(relation.names),
                "serial_s": round(serial_s, 4),
                "workers_s": {
                    str(w): round(t, 4) for w, t in times.items()
                },
                "speedup_4w": round(speedup, 2),
                "note": "live run of test_detection_scan_scaling",
            },
        )
    if _live_scaling:
        assert speedup >= _ACCEPTANCE_SPEEDUP, (
            f"detection speedup {speedup:.2f}x at 4 workers "
            f"(need {_ACCEPTANCE_SPEEDUP}x)"
        )


def test_synthesis_scaling(workload):
    relation, _ = workload
    config = GuardrailConfig(epsilon=0.08, min_support=8, seed=5)

    results, times = {}, {}
    serial_s, baseline = _timed(lambda: synthesize(relation, config))
    for workers in _WORKER_COUNTS:
        pool = WorkerPool(workers, min_shard_rows=1024)
        synthesize(relation, config, workers=pool)  # warm-up
        times[workers], results[workers] = _timed(
            lambda: synthesize(relation, config, workers=pool)
        )

    for workers, result in results.items():
        assert result.program == baseline.program, f"workers={workers}"
        assert result.coverage == baseline.coverage
        assert (
            result.pc_result.n_ci_tests == baseline.pc_result.n_ci_tests
        )
        # Only PC fans out: Algorithm 2 fills each distinct statement
        # once against the one shared fill cache, at any worker count.
        assert (
            result.fill_stats.statements_filled
            == baseline.fill_stats.statements_filled
        ), f"workers={workers}"

    speedup = serial_s / times[4]
    lines = [f"rows: {relation.n_rows}, cores: {_cores}"]
    lines.append(
        f"{'':12}  {'total':>8}   {'speedup':>7}   {'pc':>7}   "
        f"{'alg2':>7}   filled"
    )

    def row(label, seconds, result):
        timings = result.timings
        return (
            f"{label:12}  {seconds:7.2f}s   {serial_s / seconds:6.2f}x   "
            f"{timings['structure_learning']:6.2f}s   "
            f"{timings['enumeration_and_fill']:6.2f}s   "
            f"{result.fill_stats.statements_filled:6d}"
        )

    lines.append(row("serial", serial_s, baseline))
    for workers, t in times.items():
        lines.append(row(f"{workers} worker(s)", t, results[workers]))
    lines.append(
        "pc = structure_learning, alg2 = enumeration_and_fill, "
        "filled = fill_stats.statements_filled"
    )
    banner("Parallel synthesis scaling", "\n".join(lines))

    if os.environ.get("REPRO_UPDATE_BENCH") == "1":
        _append_trajectory(
            _BENCH_SYNTH,
            {
                "date": time.strftime("%Y-%m-%d"),
                "benchmark": "synthesis_and_scan_scaling",
                "cpu_count": _cores,
                "n_rows": relation.n_rows,
                "n_attributes": len(relation.names),
                "synth_serial_s": round(serial_s, 3),
                "synth_workers_s": {
                    str(w): round(t, 3) for w, t in times.items()
                },
                "speedup_4w": round(speedup, 2),
                "note": "live run of test_synthesis_scaling",
            },
        )
    if _live_scaling:
        assert speedup >= _ACCEPTANCE_SPEEDUP, (
            f"synthesis speedup {speedup:.2f}x at 4 workers "
            f"(need {_ACCEPTANCE_SPEEDUP}x)"
        )


def _supervision_probe(x):
    """A CPU-bound ~5ms task (module-level: pickled by reference)."""
    values = np.arange(1_000_000, dtype=np.float64) % 97.0
    return float(np.sqrt(values + x).sum())


@pytest.mark.skipif(not _can_fork, reason="fork unavailable")
def test_supervision_overhead_on_healthy_path():
    """The fault-tolerant pool's supervision machinery (per-worker
    pipes, ``connection.wait`` collection, deadline bookkeeping) must
    cost < 5% wall-clock vs a raw ``multiprocessing.Pool`` on the same
    healthy workload — fault tolerance is free until a fault happens."""
    import multiprocessing as mp

    items = list(range(64))
    workers = 4
    chunksize = max(1, len(items) // (workers * 4))
    expected = [_supervision_probe(x) for x in items]

    def raw_run():
        with mp.get_context("fork").Pool(workers) as raw:
            assert (
                raw.map(_supervision_probe, items, chunksize=chunksize)
                == expected
            )

    supervised_pool = WorkerPool(workers, min_shard_rows=1)

    def supervised_run():
        assert supervised_pool.map(_supervision_probe, items) == expected
        assert supervised_pool.last_faults == ()

    raw_s = _best_of(raw_run, repeats=3)
    supervised_s = _best_of(supervised_run, repeats=3)
    overhead = supervised_s / raw_s - 1.0
    banner(
        "Supervision overhead (healthy path)",
        f"items: {len(items)}, workers: {workers}, cores: {_cores}\n"
        f"raw mp.Pool      {raw_s * 1e3:9.1f} ms\n"
        f"supervised pool  {supervised_s * 1e3:9.1f} ms\n"
        f"overhead         {overhead:+.1%}  (budget < +5%)",
    )
    if os.environ.get("REPRO_UPDATE_BENCH") == "1":
        _append_trajectory(
            _BENCH_GUARD,
            {
                "date": time.strftime("%Y-%m-%d"),
                "benchmark": "supervision_overhead",
                "cpu_count": _cores,
                "n_items": len(items),
                "raw_s": round(raw_s, 4),
                "supervised_s": round(supervised_s, 4),
                "overhead": round(overhead, 4),
                "note": "live run of test_supervision_overhead",
            },
        )
    if _cores >= 4:
        assert overhead < 0.05, (
            f"supervision overhead {overhead:+.1%} on the healthy path "
            f"(budget < +5%)"
        )


def test_recorded_trajectory_meets_acceptance():
    """The committed record must witness the ISSUE-6 acceptance bar:
    >= 2.5x at 4 workers on a >= 1M-row synthesis+scan workload."""
    payload = json.loads(_BENCH_SYNTH.read_text())
    qualifying = [
        entry
        for entry in payload["trajectory"]
        if entry.get("n_rows", 0) >= _ACCEPTANCE_ROWS
        and entry.get("cpu_count", 0) >= 4
    ]
    assert qualifying, "no >=1M-row, >=4-core entry in BENCH_synth.json"
    best = max(entry["speedup_4w"] for entry in qualifying)
    assert best >= _ACCEPTANCE_SPEEDUP

    guard_payload = json.loads(_BENCH_GUARD.read_text())
    assert guard_payload["baseline"]  # drift-overhead reference numbers
    assert any(
        entry.get("n_rows", 0) >= _ACCEPTANCE_ROWS
        for entry in guard_payload["trajectory"]
    )
