"""Recovery layer: quarantine, versioned hot-swap, live guard proxies.

Streaming edge cases from the self-healing PR: an empty batch through
:class:`ResilientGuard`, quarantine-buffer overflow policies, and
row/batch verdict parity while a hot-swap is in flight.
"""

import pytest

from repro.dsl import Branch, Condition, Program, Statement
from repro.resilience import (
    OVERFLOW_POLICIES,
    GuardPolicy,
    GuardrailVersions,
    QuarantineBuffer,
    ResilientGuard,
    SupervisorConfig,
)
from repro.synth import Guardrail


def _ok_row():
    return {
        "PostalCode": "94704",
        "City": "Berkeley",
        "State": "CA",
        "Country": "USA",
    }


def _bad_row():
    return {
        "PostalCode": "94704",
        "City": "NewYork",
        "State": "CA",
        "Country": "USA",
    }


def _oakland_program() -> Program:
    """A variant program: 94704 now maps to Oakland."""
    branches = (
        Branch(Condition.of(PostalCode="94704"), "City", "Oakland"),
        Branch(Condition.of(PostalCode="10001"), "City", "NewYork"),
    )
    return Program((Statement(("PostalCode",), "City", branches),))


class TestQuarantineBuffer:
    def test_push_and_drain(self):
        buffer = QuarantineBuffer(capacity=4)
        for i in range(3):
            assert buffer.push({"i": i})
        assert len(buffer) == 3
        rows = buffer.drain()
        assert [row["i"] for row in rows] == [0, 1, 2]
        assert len(buffer) == 0

    def test_drop_oldest_keeps_recent_suspects(self):
        buffer = QuarantineBuffer(capacity=2, overflow="drop_oldest")
        buffer.push({"i": 0})
        buffer.push({"i": 1})
        assert not buffer.push({"i": 2})
        assert [row["i"] for row in buffer.peek()] == [1, 2]
        assert buffer.dropped == 1

    def test_drop_newest_keeps_first_evidence(self):
        buffer = QuarantineBuffer(capacity=2, overflow="drop_newest")
        buffer.push({"i": 0})
        buffer.push({"i": 1})
        assert not buffer.push({"i": 2})
        assert [row["i"] for row in buffer.peek()] == [0, 1]
        assert buffer.dropped == 1

    def test_dropped_counter_accumulates(self):
        buffer = QuarantineBuffer(capacity=1)
        buffer.push({"i": 0})
        for i in range(5):
            buffer.push({"i": i})
        assert buffer.dropped == 5
        assert len(buffer) == 1

    def test_peek_is_non_destructive(self):
        buffer = QuarantineBuffer(capacity=4)
        buffer.push({"i": 0})
        assert buffer.peek() == buffer.peek()
        assert len(buffer) == 1

    def test_rejects_bad_capacity_and_policy(self):
        with pytest.raises(ValueError, match="capacity"):
            QuarantineBuffer(capacity=0)
        with pytest.raises(ValueError, match="overflow"):
            QuarantineBuffer(overflow="explode")

    def test_policy_registry_matches(self):
        assert set(OVERFLOW_POLICIES) == {"drop_oldest", "drop_newest"}


class TestGuardrailVersions:
    def test_initial_version(self, city_program):
        versions = GuardrailVersions(Guardrail.from_program(city_program))
        assert versions.version == 1
        assert versions.n_versions == 1
        assert versions.previous is None

    def test_swap_bumps_version_and_keeps_history(self, city_program):
        versions = GuardrailVersions(Guardrail.from_program(city_program))
        incumbent = versions.current
        versions.swap(Guardrail.from_program(_oakland_program()))
        assert versions.version == 2
        assert versions.previous is incumbent
        assert versions.program == _oakland_program()

    def test_rollback_restores_previous(self, city_program):
        versions = GuardrailVersions(Guardrail.from_program(city_program))
        versions.swap(Guardrail.from_program(_oakland_program()))
        assert versions.rollback() == 1
        assert versions.program == city_program

    def test_rollback_at_v1_raises(self, city_program):
        versions = GuardrailVersions(Guardrail.from_program(city_program))
        with pytest.raises(RuntimeError, match="roll back"):
            versions.rollback()

    def test_check_delegates_to_live_version(
        self, city_relation, city_program
    ):
        versions = GuardrailVersions(Guardrail.from_program(city_program))
        assert versions.check(city_relation).sum() == 0
        versions.swap(Guardrail.from_program(_oakland_program()))
        # Under the Oakland program every 94704/Berkeley row violates.
        assert versions.check(city_relation).sum() == 10


class TestLiveGuards:
    def test_row_guard_follows_hot_swap(self, city_program):
        versions = GuardrailVersions(Guardrail.from_program(city_program))
        live = versions.guard()
        assert live.check(_ok_row()).ok
        versions.swap(Guardrail.from_program(_oakland_program()))
        assert live.version == 2
        assert not live.check(_ok_row()).ok  # 94704 -> Oakland now

    def test_batch_guard_follows_hot_swap(self, city_program):
        versions = GuardrailVersions(Guardrail.from_program(city_program))
        live = versions.guard()
        assert all(v.ok for v in live.check_batch([_ok_row()] * 3))
        versions.swap(Guardrail.from_program(_oakland_program()))
        assert not any(v.ok for v in live.check_batch([_ok_row()] * 3))

    def test_row_batch_parity_with_swap_in_flight(self, city_program):
        """Swapping between batches must keep row/batch verdicts equal."""
        versions_a = GuardrailVersions(Guardrail.from_program(city_program))
        versions_b = GuardrailVersions(Guardrail.from_program(city_program))
        row_live = versions_a.guard()
        batch_live = versions_b.guard()
        rows = [_ok_row() if i % 3 else _bad_row() for i in range(8)]
        # Drive both guards through the same swap schedule: first four
        # rows under v1, swap, last four under v2.
        row_verdicts, batch_verdicts = [], []
        for index, row in enumerate(rows):
            if index == 4:
                versions_a.swap(Guardrail.from_program(_oakland_program()))
            row_verdicts.append(row_live.check(row))
        first, rest = rows[:4], rows[4:]
        batch_verdicts.extend(batch_live.check_batch(first))
        versions_b.swap(Guardrail.from_program(_oakland_program()))
        batch_verdicts.extend(batch_live.check_batch(rest))
        assert [v.ok for v in row_verdicts] == [
            v.ok for v in batch_verdicts
        ]

    def test_batch_stream_picks_up_swap_at_boundary(self, city_program):
        versions = GuardrailVersions(Guardrail.from_program(city_program))
        live = versions.guard()

        def rows():
            yield _ok_row()
            yield _ok_row()
            # After the first flush, the guardrail changes under us.
            versions.swap(Guardrail.from_program(_oakland_program()))
            yield _ok_row()
            yield _ok_row()

        verdicts = list(live.stream(rows(), batch_size=2))
        assert [v.ok for v in verdicts] == [True, True, False, False]

    def test_drift_detector_survives_rebuild(self, city_program):
        class Recorder:
            sample_every = 1

            def __init__(self):
                self.seen = []

            def ingest(self, row, ok):
                self.seen.append(ok)

        versions = GuardrailVersions(Guardrail.from_program(city_program))
        live = versions.guard()
        detector = Recorder()
        live.attach_drift(detector)
        live.check(_ok_row())
        versions.swap(Guardrail.from_program(_oakland_program()))
        live.check(_ok_row())  # rebuild happens here
        assert live.drift is detector
        assert detector.seen == [True, False]


class TestResilientEdgeCases:
    def test_empty_batch_yields_no_verdicts(self, city_program):
        guard = ResilientGuard(
            Guardrail.from_program(city_program).guard(),
            policy=GuardPolicy.WARN,
        )
        assert guard.check_batch([]) == []
        assert list(guard.stream([], batch_size=4)) == []
        assert list(guard.stream(iter([]), batch_size=4)) == []

    def test_empty_batch_through_live_guard(self, city_program):
        versions = GuardrailVersions(Guardrail.from_program(city_program))
        live = versions.guard()
        assert live.check_batch([]) == []
        assert list(live.stream([], batch_size=4)) == []

    def test_supervisor_config_validation(self):
        with pytest.raises(ValueError, match="holdout_every"):
            SupervisorConfig(holdout_every=1)
        with pytest.raises(ValueError, match="history_rows"):
            SupervisorConfig(history_rows=0)
