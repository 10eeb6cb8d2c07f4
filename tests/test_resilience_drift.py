"""Drift detection and the end-to-end self-healing loop.

Marked ``drift`` so the suite can be selected with ``pytest -m drift``
(it also runs as part of plain tier-1).  Every stream here is sampled
from an explicitly seeded :class:`numpy.random.Generator`, so the
statistical assertions are deterministic.
"""

import itertools

import numpy as np
import pytest

from repro import obs
from repro.dsl import Branch, Condition, Program, Statement
from repro.errors import Guard
from repro.errors.stream import _PROBE_MAX_ROWS
from repro.obs.report import render_drift_dashboard
from repro.relation import Attribute, AttributeType, Relation, Schema
from repro.resilience import (
    DRIFT_KINDS,
    DriftDetector,
    GuardrailSupervisor,
    SupervisorConfig,
    render_drift_report,
)
from repro.synth import Guardrail

pytestmark = pytest.mark.drift

_WORLD = {
    "94704": ("Berkeley", "CA"),
    "94720": ("Berkeley", "CA"),
    "10001": ("NewYork", "NY"),
    "73301": ("Austin", "TX"),
}


def _rows(mapping, n, rng):
    postals = sorted(mapping)
    rows = []
    for _ in range(n):
        postal = postals[int(rng.integers(len(postals)))]
        city, state = mapping[postal]
        rows.append({"PostalCode": postal, "City": city, "State": state})
    return rows


def _training(rng, n=400) -> Relation:
    return Relation.from_rows(_rows(_WORLD, n, rng))


class TestDriftDetector:
    def test_stationary_stream_raises_no_alert(self):
        """Acceptance criterion: >= 10k in-distribution rows, 0 alerts."""
        rng = np.random.default_rng(7)
        training = _training(rng, 1000)
        detector = DriftDetector(training, window=512, sample_every=1)
        for row in _rows(_WORLD, 10_000, rng):
            detector.observe(row, True)
        detector.flush()
        assert detector.poll() == []
        assert detector.stats.total_alerts == 0
        assert detector.stats.windows_evaluated >= 10_000 // 512

    def test_unseen_values_alert(self):
        rng = np.random.default_rng(1)
        detector = DriftDetector(
            _training(rng), window=128, sample_every=1
        )
        burst = dict(_WORLD)
        burst["02139"] = ("Cambridge", "MA")
        for row in _rows(burst, 256, rng):
            detector.observe(row, True)
        alerts = detector.poll()
        kinds = {alert.kind for alert in alerts}
        assert "unseen_values" in kinds
        attributes = {
            a.attribute for a in alerts if a.kind == "unseen_values"
        }
        assert "PostalCode" in attributes

    def test_traced_alert_is_recorded_with_its_kind(self):
        """Regression: ``obs.record`` took the record type as a
        parameter named ``kind``, so a traced alert (which records its
        own ``kind=``) raised TypeError inside the detector."""
        rng = np.random.default_rng(1)
        detector = DriftDetector(
            _training(rng), window=128, sample_every=1
        )
        burst = dict(_WORLD)
        burst["02139"] = ("Cambridge", "MA")
        with obs.tracing() as sink:
            for row in _rows(burst, 256, rng):
                detector.observe(row, True)
        records = [e for e in sink.events if e["type"] == "drift.alert"]
        assert len(records) == detector.stats.total_alerts > 0
        assert {e["kind"] for e in records} == {
            a.kind for a in detector.poll()
        }
        assert "unseen_values" in render_drift_dashboard(sink.events)

    def test_marginal_shift_alert(self):
        rng = np.random.default_rng(2)
        detector = DriftDetector(
            _training(rng), window=256, sample_every=1
        )
        # Same support, very different marginal: all traffic collapses
        # onto a single postal code.
        for _ in range(256):
            detector.observe(
                {"PostalCode": "10001", "City": "NewYork", "State": "NY"},
                True,
            )
        kinds = {alert.kind for alert in detector.poll()}
        assert "marginal_shift" in kinds

    def test_violation_rate_alert(self):
        rng = np.random.default_rng(3)
        detector = DriftDetector(
            _training(rng),
            window=256,
            baseline_violation_rate=0.0,
            sample_every=1,
        )
        for i, row in enumerate(_rows(_WORLD, 256, rng)):
            detector.observe(row, ok=(i % 3 != 0))  # ~33% violations
        alerts = [
            a for a in detector.poll() if a.kind == "violation_rate"
        ]
        assert alerts
        assert alerts[0].attribute is None
        assert alerts[0].statistic > alerts[0].threshold

    def test_rebase_clears_stale_evidence(self):
        rng = np.random.default_rng(4)
        detector = DriftDetector(
            _training(rng), window=128, sample_every=1
        )
        shifted = dict(_WORLD)
        shifted["94704"] = ("Oakland", "CA")
        for row in _rows(shifted, 120, rng):  # partial window buffered
            detector.observe(row, False)
        detector.rebase(
            Relation.from_rows(_rows(shifted, 400, rng)),
            baseline_violation_rate=0.0,
        )
        # Post-rebase, the shifted world IS the reference: quiet.
        for row in _rows(shifted, 256, rng):
            detector.observe(row, True)
        assert detector.poll() == []

    def test_small_final_window_is_discarded(self):
        rng = np.random.default_rng(5)
        detector = DriftDetector(
            _training(rng), window=512, min_window=64, sample_every=1
        )
        for row in _rows(_WORLD, 32, rng):
            detector.observe(row, True)
        detector.flush()
        assert detector.stats.windows_evaluated == 0

    def test_from_training_monitors_program_attributes(self, rng):
        training = _training(rng)
        guardrail = Guardrail().fit(training)
        detector = DriftDetector.from_training(
            training, program=guardrail.program
        )
        assert set(detector.attributes) <= {"PostalCode", "City", "State"}

    def test_constructor_validation(self, rng):
        training = _training(rng)
        with pytest.raises(ValueError, match="window"):
            DriftDetector(training, window=0)
        with pytest.raises(ValueError, match="alpha"):
            DriftDetector(training, alpha=1.5)
        with pytest.raises(ValueError, match="sample_every"):
            DriftDetector(training, sample_every=0)

    def test_kinds_registry(self):
        assert DRIFT_KINDS == (
            "unseen_values",
            "marginal_shift",
            "violation_rate",
        )

    def test_report_renders_alerts_and_stats(self):
        rng = np.random.default_rng(6)
        detector = DriftDetector(
            _training(rng), window=128, sample_every=1
        )
        burst = {"00000": ("Nowhere", "XX")}
        for row in _rows(burst, 128, rng):
            detector.observe(row, True)
        report = render_drift_report(detector.poll(), detector.stats)
        assert "unseen" in report
        assert "128 rows observed" in report

    def test_quiet_report(self):
        assert "no drift detected" in render_drift_report([])


class TestSelfHealingEndToEnd:
    def _supervisor(self, training, rng, **config_overrides):
        guardrail = Guardrail().fit(training)
        detector = DriftDetector.from_training(
            training,
            program=guardrail.program,
            window=96,
            min_window=48,
            sample_every=1,
        )
        defaults = dict(
            history_rows=512,
            min_heal_rows=96,
            heal_budget_seconds=10.0,
            cooldown_rows=128,
        )
        defaults.update(config_overrides)
        return GuardrailSupervisor(
            guardrail, drift=detector, config=SupervisorConfig(**defaults)
        )

    def test_marginal_shift_is_detected_and_healed(self):
        """The headline loop: shift -> alert -> re-synthesis -> swap ->
        false-flag rate back to the pre-shift level."""
        rng = np.random.default_rng(11)
        training = _training(rng, 300)
        supervisor = self._supervisor(training, rng)
        shifted = dict(_WORLD)
        shifted["94704"] = ("Oakland", "CA")

        pre_flags = sum(
            not v.ok for v in supervisor.stream(_rows(_WORLD, 200, rng))
        )
        assert pre_flags == 0
        assert supervisor.alerts == []

        for row in _rows(shifted, 600, rng):
            supervisor.check(row)
        assert supervisor.alerts, "drift went undetected"
        accepted = [h for h in supervisor.heals if h.accepted]
        assert accepted, [h.reason for h in supervisor.heals]
        assert supervisor.version > 1
        assert accepted[0].new_version > accepted[0].old_version
        assert accepted[0].candidate_statements > 0

        post_flags = sum(
            not v.ok for v in supervisor.stream(_rows(shifted, 200, rng))
        )
        assert post_flags / 200 <= 0.05  # back to the pre-shift level

    def test_stationary_stream_never_heals(self):
        rng = np.random.default_rng(12)
        training = _training(rng, 300)
        supervisor = self._supervisor(training, rng)
        flags = sum(
            not v.ok for v in supervisor.stream(_rows(_WORLD, 1500, rng))
        )
        assert flags == 0
        assert supervisor.alerts == []
        assert supervisor.heals == []
        assert supervisor.version == 1

    def test_flagged_rows_are_quarantined(self):
        from repro.dsl import Branch, Condition, Program, Statement

        rng = np.random.default_rng(13)
        training = _training(rng, 300)
        # Pin the program (synthesis may legitimately keep only the
        # City -> State statement) so 94704/Oakland rows must flag.
        program = Program(
            (
                Statement(
                    ("PostalCode",),
                    "City",
                    tuple(
                        Branch(
                            Condition.of(PostalCode=postal), "City", city
                        )
                        for postal, (city, _) in sorted(_WORLD.items())
                    ),
                ),
            )
        )
        supervisor = GuardrailSupervisor(
            Guardrail.from_program(program),
            drift=DriftDetector.from_training(
                training,
                program=program,
                window=96,
                min_window=48,
                sample_every=1,
            ),
            config=SupervisorConfig(
                history_rows=512, min_heal_rows=10_000  # heals never fire
            ),
        )
        shifted = dict(_WORLD)
        shifted["94704"] = ("Oakland", "CA")
        for row in _rows(shifted, 300, rng):
            supervisor.check(row)
        assert len(supervisor.quarantine) > 0
        assert all(
            row["PostalCode"] == "94704"
            for row in supervisor.quarantine.peek()
        )

    def test_insufficient_history_rejects_heal(self):
        rng = np.random.default_rng(14)
        training = _training(rng, 300)
        supervisor = self._supervisor(training, rng, min_heal_rows=400)
        outcome = supervisor.heal()
        assert not outcome.accepted
        assert "insufficient history" in outcome.reason
        assert supervisor.version == 1

    def test_heal_checkpoints_when_directory_configured(self, tmp_path):
        rng = np.random.default_rng(15)
        training = _training(rng, 300)
        supervisor = self._supervisor(
            training, rng, checkpoint_dir=tmp_path / "heals"
        )
        for row in _rows(_WORLD, 200, rng):
            supervisor.check(row)
        outcome = supervisor.heal()
        assert outcome.accepted, outcome.reason
        journals = list((tmp_path / "heals").glob("heal-v*.json"))
        assert journals, "heal synthesis did not journal its state"

    def test_rollback_after_heal(self):
        rng = np.random.default_rng(16)
        training = _training(rng, 300)
        supervisor = self._supervisor(training, rng)
        for row in _rows(_WORLD, 200, rng):
            supervisor.check(row)
        assert supervisor.heal().accepted
        version = supervisor.version
        assert supervisor.rollback() == version - 1


# ---------------------------------------------------------------------------
# The whole-relation scan against the row-at-a-time observe loop
# ---------------------------------------------------------------------------

_CITY = {
    "94704": "Berkeley",
    "94720": "Berkeley",
    "10001": "NewYork",
    "10002": "NewYork",
    "73301": "Austin",
}
_STATE = {"Berkeley": "CA", "NewYork": "NY", "Austin": "TX"}


def _postal_rows(n: int, n_errors: int, seed: int = 11) -> list[dict]:
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
        train = Relation.from_rows(_postal_rows(1500, 0, seed=2))
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
        train = Relation.from_rows(_postal_rows(1500, 0, seed=2))
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
        train = Relation.from_rows(_postal_rows(1500, 0, seed=2))
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
        train = Relation.from_rows(_postal_rows(1500, 0, seed=2))
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
        train = Relation.from_rows(_postal_rows(1500, 0, seed=2))
        stream, oks = self._stream()
        whole = self._detector(train)
        whole.scan(stream, oks)
        split = self._detector(train)
        cut = 10007  # deliberately misaligned with window * sample_every
        split.scan(stream.slice_rows(0, cut), oks[:cut])
        split.scan(stream.slice_rows(cut, stream.n_rows), oks[cut:])
        assert self._fingerprint(split) == self._fingerprint(whole)
