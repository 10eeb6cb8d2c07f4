"""Serial ↔ parallel equivalence properties (the tentpole guarantee).

Every parallel path in the pipeline — sharded detection and
level-parallel PC — promises **bit-identical** results to its serial
twin at any worker count.  Synthesis with ``workers=`` fans out PC
only; Algorithm 2 runs one loop against one fill cache, so its
``fill_stats`` match the serial run's too.  These tests pin that
promise at workers ∈ {1, 2, 4} with fixed seeds.  The drift detector's
whole-relation ``scan`` counts windows from codes; it is pinned here
against the row-at-a-time ``observe`` loop it replaces.

Relations are rebuilt fresh for every worker setting: detection results
are memoized per (program, relation) in :mod:`repro.dsl.compiled`, and
a cache hit would make the comparison vacuous.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.dsl import Branch, Condition, Program, Statement
from repro.errors import Guard
from repro.errors.stream import _PROBE_MAX_ROWS
from repro.parallel import WorkerPool, fork_available
from repro.relation import Attribute, AttributeType, Relation, Schema
from repro.resilience import Budget
from repro.resilience.drift import DriftDetector
from repro.synth import GuardrailConfig, synthesize
from repro.synth.synthesizer import Guardrail

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable"
)

WORKER_COUNTS = (1, 2, 4)

_CITY = {
    "94704": "Berkeley",
    "94720": "Berkeley",
    "10001": "NewYork",
    "10002": "NewYork",
    "73301": "Austin",
}
_STATE = {"Berkeley": "CA", "NewYork": "NY", "Austin": "TX"}


def _rows(n: int, n_errors: int, seed: int = 11) -> list[dict]:
    rng = np.random.default_rng(seed)
    postal = rng.choice(list(_CITY), size=n)
    rows = [
        {
            "PostalCode": p,
            "City": _CITY[p],
            "State": _STATE[_CITY[p]],
            "Country": "USA",
        }
        for p in postal
    ]
    for i in rng.choice(n, size=n_errors, replace=False):
        rows[int(i)][rng.choice(["City", "State"])] = "CORRUPT"
    return rows


def _pool(workers: int) -> WorkerPool:
    # Tiny min_shard_rows so small test relations still shard.
    return WorkerPool(workers, min_shard_rows=16)


# ---------------------------------------------------------------------------
# Detection
# ---------------------------------------------------------------------------


class TestDetectionEquivalence:
    def test_masks_and_violations_identical(self):
        rows = _rows(4000, 120)
        guard = Guardrail(GuardrailConfig(epsilon=0.05, seed=3)).fit(
            Relation.from_rows(_rows(2000, 20, seed=4))
        )
        outcomes = {}
        for workers in WORKER_COUNTS:
            relation = Relation.from_rows(rows)  # fresh: defeat the cache
            detection = guard.handle(
                relation, "ignore", pool=_pool(workers)
            ).detection
            outcomes[workers] = (
                detection.row_mask.tolist(),
                [(v.row, v.attribute, v.expected) for v in detection.violations],
            )
        assert outcomes[2] == outcomes[1]
        assert outcomes[4] == outcomes[1]
        assert sum(outcomes[1][0]) > 0  # the property is not vacuous

    def test_check_mask_identical(self):
        rows = _rows(3000, 90)
        guard = Guardrail(GuardrailConfig(epsilon=0.05, seed=3)).fit(
            Relation.from_rows(_rows(2000, 20, seed=4))
        )
        masks = [
            guard.check(Relation.from_rows(rows), pool=_pool(w))
            for w in WORKER_COUNTS
        ]
        assert np.array_equal(masks[0], masks[1])
        assert np.array_equal(masks[0], masks[2])

    def test_rectify_repairs_identical(self):
        rows = _rows(2500, 80)
        guard = Guardrail(GuardrailConfig(epsilon=0.05, seed=3)).fit(
            Relation.from_rows(_rows(2000, 20, seed=4))
        )
        repaired = [
            guard.handle(Relation.from_rows(rows), "rectify", pool=_pool(w))
            for w in WORKER_COUNTS
        ]
        baseline = repaired[0]
        for outcome in repaired[1:]:
            assert outcome.cells_changed == baseline.cells_changed
            assert outcome.relation.to_rows() == baseline.relation.to_rows()
        assert baseline.n_changed > 0


# ---------------------------------------------------------------------------
# Structure learning (PC)
# ---------------------------------------------------------------------------


class TestPCEquivalence:
    def test_skeleton_sepsets_and_test_counts_identical(self):
        rows = _rows(3000, 30)
        results = {}
        for workers in WORKER_COUNTS:
            result = synthesize(
                Relation.from_rows(rows),
                GuardrailConfig(epsilon=0.05, seed=9),
                workers=_pool(workers),
            ).pc_result
            results[workers] = (
                sorted(map(tuple, map(sorted, result.cpdag.skeleton()))),
                sorted(result.cpdag.directed_edges()),
                {
                    tuple(sorted(k)): v
                    for k, v in result.separating_sets.items()
                },
                result.n_ci_tests,
            )
        assert results[2] == results[1]
        assert results[4] == results[1]
        assert results[1][3] > 0


# ---------------------------------------------------------------------------
# Full synthesis (Alg. 2)
# ---------------------------------------------------------------------------


class TestSynthesisEquivalence:
    def test_programs_identical(self):
        rows = _rows(3000, 60)
        results = [
            synthesize(
                Relation.from_rows(rows),
                GuardrailConfig(epsilon=0.05, seed=9),
                workers=_pool(w),
            )
            for w in WORKER_COUNTS
        ]
        baseline = results[0]
        assert len(baseline.program) > 0
        for result in results[1:]:
            assert result.program == baseline.program
            assert result.coverage == baseline.coverage
            assert result.loss == baseline.loss
            assert result.n_dags_enumerated == baseline.n_dags_enumerated
            assert result.fill_stats == baseline.fill_stats

    def test_fill_cache_merges_back(self):
        from repro.sketch import FillCache

        rows = _rows(2000, 40)
        caches = []
        for workers in (1, 4):
            cache = FillCache()
            synthesize(
                Relation.from_rows(rows),
                GuardrailConfig(epsilon=0.05, seed=9),
                workers=_pool(workers),
                fill_cache=cache,
            )
            caches.append(cache)
        serial, parallel = caches
        assert set(parallel.entries) == set(serial.entries)
        assert parallel.entries == serial.entries  # same fills, not just keys

    def test_budgeted_parallel_run_returns_valid_partial(self):
        rows = _rows(3000, 60)
        complete = synthesize(
            Relation.from_rows(rows), GuardrailConfig(epsilon=0.05, seed=9)
        )
        budgeted = synthesize(
            Relation.from_rows(rows),
            GuardrailConfig(epsilon=0.05, seed=9),
            budget=Budget(max_steps=1),
            workers=_pool(4),
        )
        # PC's truncation may land on a different (level) boundary than
        # serial, but the partial result must be a valid program the
        # serial run also reaches — and the first-DAG guarantee holds.
        assert budgeted.partial
        assert budgeted.budget_notes
        assert len(budgeted.program) > 0
        assert budgeted.n_dags_enumerated >= 1
        assert budgeted.n_dags_enumerated <= complete.n_dags_enumerated
        for statement in budgeted.program:
            assert statement.branches


# ---------------------------------------------------------------------------
# Drift scanning
# ---------------------------------------------------------------------------


class TestDriftScanEquivalence:
    def _detector(
        self, train: Relation, sample_every: int = 3, **kwargs
    ) -> DriftDetector:
        return DriftDetector(
            train,
            window=128,
            sample_every=sample_every,
            min_window=32,
            baseline_violation_rate=0.03,
            unseen_threshold=0.02,
            **kwargs,
        )

    def _stream(self) -> tuple[Relation, np.ndarray]:
        rng = np.random.default_rng(8)
        rows = []
        n = 20000
        for i in range(n):
            drifted = i > n // 2 and rng.random() < 0.1
            rows.append(
                {
                    "City": "Atlantis" if drifted else str(
                        rng.choice(list(_STATE))
                    ),
                    "State": str(rng.choice(list(_STATE.values()))),
                }
            )
        oks = (np.arange(n) % 23) != 0
        return Relation.from_rows(rows), oks

    def _shifted_stream(self) -> tuple[Relation, np.ndarray]:
        """MISSING cells throughout, and a second half that brings a
        City value the training codec never saw and a State marginal
        skewed towards TX."""
        rng = np.random.default_rng(21)
        cities, states = list(_STATE), list(_STATE.values())
        rows = []
        n = 12000
        for i in range(n):
            late = i > n // 2
            city = str(rng.choice(cities))
            if late and rng.random() < 0.08:
                city = "Atlantis"
            state = (
                "TX" if late and rng.random() < 0.7
                else str(rng.choice(states))
            )
            rows.append(
                {
                    "City": None if rng.random() < 0.05 else city,
                    "State": None if rng.random() < 0.05 else state,
                }
            )
        oks = rng.random(n) > 0.04
        return Relation.from_rows(rows), oks

    def _fingerprint(self, detector: DriftDetector) -> tuple:
        alerts = [
            (a.kind, a.attribute, a.statistic, a.threshold, a.window, a.message)
            for a in detector.poll()
        ]
        return (
            alerts,
            detector.violation_ewma,
            detector.stats.rows_observed,
            detector.stats.windows_evaluated,
            detector.stats.alerts_by_kind,
            detector._tick,
            len(detector._rows),
        )

    def test_scan_matches_observe_loop(self):
        train = Relation.from_rows(_rows(1500, 0, seed=2))
        stream, oks = self._stream()
        looped = self._detector(train)
        for i in range(stream.n_rows):
            looped.observe(stream.row(i), bool(oks[i]))
        scanned = self._detector(train)
        scanned.scan(stream, oks)
        assert self._fingerprint(scanned) == self._fingerprint(looped)

    @pytest.mark.parametrize("sample_every", (1, 3, 8))
    def test_scan_matches_observe_loop_on_shifted_stream(self, sample_every):
        """MISSING cells, unseen values, a shifted marginal and a
        monitored attribute the stream lacks, scanned whole and scanned
        onto a part-filled buffer in two misaligned pieces."""
        train = Relation.from_rows(_rows(1500, 0, seed=2))
        stream, oks = self._shifted_stream()
        monitored = ("City", "State", "PostalCode")
        assert "PostalCode" not in stream.schema
        assert (stream.codes("City") < 0).any()

        looped = self._detector(train, sample_every, attributes=monitored)
        for i in range(stream.n_rows):
            looped.observe(stream.row(i), bool(oks[i]))
        expected = self._fingerprint(looped)
        kinds = {alert[0] for alert in expected[0]}
        assert {"unseen_values", "marginal_shift"} <= kinds

        whole = self._detector(train, sample_every, attributes=monitored)
        whole.scan(stream, oks)
        assert self._fingerprint(whole) == expected

        pieces = self._detector(train, sample_every, attributes=monitored)
        head, cut = 53, 7001  # a part-filled buffer, then a misaligned cut
        for i in range(head):
            pieces.observe(stream.row(i), bool(oks[i]))
        assert pieces._rows
        pieces.scan(stream.slice_rows(head, cut), oks[head:cut])
        pieces.scan(stream.slice_rows(cut, stream.n_rows), oks[cut:])
        assert self._fingerprint(pieces) == expected

    def test_scan_counts_a_numeric_column_by_its_decoded_values(self):
        train = Relation.from_rows(_rows(1500, 0, seed=2))
        rng = np.random.default_rng(4)
        rows = [
            {
                "City": str(rng.choice(list(_STATE))),
                "PostalCode": None if i % 7 == 0 else float(i % 3),
            }
            for i in range(2000)
        ]
        schema = Schema(
            [
                Attribute("City"),
                Attribute("PostalCode", AttributeType.NUMERIC),
            ]
        )
        stream = Relation.from_rows(rows, schema=schema)
        oks = np.ones(stream.n_rows, dtype=bool)
        monitored = ("City", "PostalCode")
        looped = self._detector(train, 1, attributes=monitored)
        for i in range(stream.n_rows):
            looped.observe(stream.row(i), bool(oks[i]))
        scanned = self._detector(train, 1, attributes=monitored)
        scanned.scan(stream, oks)
        expected = self._fingerprint(looped)
        assert any(alert[1] == "PostalCode" for alert in expected[0])
        assert self._fingerprint(scanned) == expected

    def test_guard_row_and_batch_feeds_match_observe(self):
        """``Guard.check`` row by row, ``Guard.check_batch`` in batches
        misaligned with ``sample_every`` on both sides of the probe
        crossover, and ``observe`` with the same verdicts all sample
        the same rows through the detector's one countdown."""
        program = Program(
            (
                Statement(
                    ("City",),
                    "State",
                    tuple(
                        Branch(Condition.of(City=city), "State", state)
                        for city, state in _STATE.items()
                    ),
                ),
            )
        )
        train = Relation.from_rows(_rows(1500, 0, seed=2))
        stream, _ = self._stream()
        rows = [stream.row(i) for i in range(stream.n_rows)]

        row_guard = Guard(program)
        row_fed = self._detector(train)
        row_guard.attach_drift(row_fed)
        verdicts = [row_guard.check(row) for row in rows]

        batch_guard = Guard(program)
        batch_fed = self._detector(train)
        batch_guard.attach_drift(batch_fed)
        sizes = itertools.cycle(
            (1, 5, _PROBE_MAX_ROWS, _PROBE_MAX_ROWS + 2, 211)
        )
        batch_verdicts, start = [], 0
        while start < len(rows):
            end = start + next(sizes)
            batch_verdicts += batch_guard.check_batch(rows[start:end])
            start = end
        assert batch_verdicts == verdicts

        observed = self._detector(train)
        for row, verdict in zip(rows, verdicts):
            observed.observe(row, verdict.ok)
        expected = self._fingerprint(observed)
        assert expected[0]  # alerts fired: the property is not vacuous
        assert self._fingerprint(row_fed) == expected
        assert self._fingerprint(batch_fed) == expected

    def test_scan_carries_countdown_across_calls(self):
        train = Relation.from_rows(_rows(1500, 0, seed=2))
        stream, oks = self._stream()
        whole = self._detector(train)
        whole.scan(stream, oks)
        split = self._detector(train)
        cut = 10007  # deliberately misaligned with window * sample_every
        split.scan(stream.slice_rows(0, cut), oks[:cut])
        split.scan(stream.slice_rows(cut, stream.n_rows), oks[cut:])
        assert self._fingerprint(split) == self._fingerprint(whole)
