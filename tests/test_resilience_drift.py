"""Drift detection and the end-to-end self-healing loop.

Marked ``drift`` so the suite can be selected with ``pytest -m drift``
(it also runs as part of plain tier-1).  Every stream here is sampled
from an explicitly seeded :class:`numpy.random.Generator`, so the
statistical assertions are deterministic.
"""

import numpy as np
import pytest

from repro import obs
from repro.obs.report import render_drift_dashboard
from repro.relation import Relation
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
