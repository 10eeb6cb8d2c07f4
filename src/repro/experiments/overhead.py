"""Runtime overhead of the guard at query time (paper Table 6).

Per dataset: execute an ML-integrated query with GUARDRAIL attached and
report the time spent in the guard stage (constraint checking +
rectification) next to the model inference time.  The paper's shape:
guard time is dominated by rows × program complexity and is comparable
to or smaller than inference time.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

from ..datasets import queries_for
from ..ml import AutoModel
from ..sql import QueryExecutor
from .harness import ExperimentContext, Prepared, fit_guardrail, format_table, prepare

REPETITIONS = 5
"""Timed executions per dataset; Table 6 reports their medians."""


@dataclass
class OverheadRow:
    """Table 6 row: guard time vs inference time on one dataset."""
    dataset_id: int
    dataset_name: str
    guardrail_seconds: float
    inference_seconds: float
    rows_checked: int
    rows_rectified: int


def run_overhead(
    dataset_key: "int | str",
    context: ExperimentContext,
    prepared: Prepared | None = None,
) -> OverheadRow:
    """Measure guard vs inference time on one dataset.

    One untimed warm-up, then the medians of :data:`REPETITIONS` timed
    executions.  Each execution queries a fresh zero-copy view of the
    test rows, so the per-relation detection and mask caches never hit.
    """
    prepared = prepared or prepare(dataset_key, context)
    target = prepared.dataset.target
    model = AutoModel(seed=context.seed).fit(prepared.train, target)
    guard = fit_guardrail(prepared, context)
    sql = queries_for(prepared.dataset)[0].sql
    test = prepared.test_dirty
    runs = []
    for _ in range(1 + REPETITIONS):
        executor = QueryExecutor(
            {"t": test.slice_rows(0, test.n_rows)},
            {"m": model},
            guardrail=guard,
            strategy="rectify",
        )
        executor.execute(sql)
        runs.append(executor.last_metrics)
    counts = {(m.rows_scanned, m.rows_rectified) for m in runs}
    assert len(counts) == 1, f"executions disagree on row counts: {counts}"
    timed = runs[1:]
    return OverheadRow(
        dataset_id=prepared.spec.id,
        dataset_name=prepared.spec.name,
        guardrail_seconds=statistics.median(m.guard_seconds for m in timed),
        inference_seconds=statistics.median(
            m.inference_seconds for m in timed
        ),
        rows_checked=runs[0].rows_scanned,
        rows_rectified=runs[0].rows_rectified,
    )


def run_table6(
    context: ExperimentContext, dataset_ids: list[int] | None = None
) -> list[OverheadRow]:
    """Run the overhead measurement across the evaluation datasets."""
    from ..datasets import DATASETS

    ids = dataset_ids or [s.id for s in DATASETS]
    return [run_overhead(i, context) for i in ids]


def format_table6(rows: list[OverheadRow]) -> str:
    """Render Table 6 as plain text."""
    headers = ["Dataset ID"] + [str(r.dataset_id) for r in rows]
    body = [
        ["Guardrail Time"]
        + [round(r.guardrail_seconds, 4) for r in rows],
        ["Inference Time"]
        + [round(r.inference_seconds, 4) for r in rows],
    ]
    return format_table(headers, body)
