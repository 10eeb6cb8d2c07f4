"""Smoke tests of the benchmark harness.

Not part of the tier-1 suite (``testpaths`` is ``tests/``); run with

    python -m pytest perfbench/test_harness.py

Every workload runs for about a second with a fixed seed, traced and
untraced, and must emit every metric ``BENCHMARK.json`` names with its
unit.  A harness-side fake guard that answers "ok" to everything must be
caught by the correctness checks.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.dsl import Program  # noqa: E402
from repro.synth import Guardrail  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINS = json.loads((HERE / "pins.json").read_text())


class AlwaysOk(Guardrail):
    """A guardrail that enforces nothing: every row passes, nothing is repaired."""

    @property
    def program(self):
        return Program.empty()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted(workload, trace):
    done = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload",
            workload,
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            str(trace),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
        if not trace:
            assert emitted["value"] > 0, metric["name"]


def _tracer():
    from tracer import Tracer

    return Tracer(enabled=False)


@pytest.mark.parametrize("workload", ["serve_closed", "serve_open_mixed"])
def test_fake_guard_fails_the_serve_oracle(workload):
    import serve_bench

    run = getattr(serve_bench, workload)
    outcome = run(0.5, 1, _tracer(), make_guardrail=AlwaysOk.from_program)
    assert outcome.measured.failed == 0
    assert any("oracle False" in line for line in outcome.mismatches)


def test_fake_guard_fails_the_sql_oracle():
    import sql_bench

    outcome = sql_bench.sql_ingest(
        0.5, 1, _tracer(), pins=PINS["sql-ingest"], make_guardrail=AlwaysOk.from_program
    )
    assert any("rows_flagged=0" in line for line in outcome.mismatches)
