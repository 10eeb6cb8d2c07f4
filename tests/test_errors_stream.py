"""Edge-case tests for the streaming guard and GuardStats."""

import pytest

from repro.dsl import (
    Branch,
    Condition,
    Program,
    Statement,
    row_conforms,
)
from repro.errors import (
    DataIntegrityError,
    Guard,
    GuardStats,
)


def _statement_with_colliding_branches() -> Statement:
    """Two branches with the same determinant values, built by force.

    The Statement constructor rejects duplicate conditions, so this
    hand-assembles the frozen dataclass to model a hand-built/corrupted
    program; first-match semantics must pick the first branch.
    """
    statement = Statement(
        ("a",),
        "b",
        (
            Branch(Condition((("a", "x"),)), "b", "first"),
            Branch(Condition((("a", "y"),)), "b", "other"),
        ),
    )
    colliding = (
        statement.branches[0],
        Branch(Condition((("a", "x"),)), "b", "second"),
    )
    object.__setattr__(statement, "branches", colliding)
    return statement


class TestEmptyProgram:
    @pytest.fixture
    def guard(self) -> Guard:
        return Guard(Program.empty())

    def test_any_row_passes(self, guard):
        assert guard.check({"x": 1, "y": "anything"}).ok
        assert guard.check({}).ok

    def test_has_no_statements(self, guard):
        assert len(guard) == 0

    def test_rectify_returns_equal_copy(self, guard):
        row = {"x": 1}
        repaired = guard.rectify(row)
        assert repaired == row
        assert repaired is not row  # a copy, not the caller's dict
        assert guard.stats.rows_rectified == 0

    def test_stats_still_count(self, guard):
        guard.check({})
        assert guard.stats.rows_checked == 1
        assert guard.stats.rows_flagged == 0


class TestMissingDeterminant:
    def test_row_without_determinant_is_uncovered(self, city_program):
        guard = Guard(city_program)
        # No PostalCode ⇒ the City statement warrants nothing; the
        # chain below it still applies.
        verdict = guard.check(
            {"City": "Berkeley", "State": "CA", "Country": "USA"}
        )
        assert verdict.ok

    def test_missing_determinant_does_not_mask_downstream(
        self, city_program
    ):
        guard = Guard(city_program)
        verdict = guard.check(
            {"City": "Berkeley", "State": "TX", "Country": "USA"}
        )
        assert not verdict.ok
        assert ("State", "CA") in verdict.violations

    def test_missing_dependent_counts_as_violation(self, city_program):
        guard = Guard(city_program)
        verdict = guard.check({"PostalCode": "94704"})
        assert not verdict.ok
        assert ("City", "Berkeley") in verdict.violations


class TestRectifyMultiStatementConflict:
    def test_corrupted_mid_chain_determinant(self, city_program):
        """One wrong City implicates one cell under threaded semantics.

        Canonical Eqn. 1 threads the City rewrite ("Berkeley") into the
        State statement, whose check then passes (CA is consistent with
        Berkeley) — so exactly the corrupted cell is implicated, not the
        correct cells downstream of it.
        """
        guard = Guard(city_program)
        row = {
            "PostalCode": "94704",
            "City": "NewYork",  # corrupted determinant mid-chain
            "State": "CA",
            "Country": "USA",
        }
        assert guard.check(row).violations == (("City", "Berkeley"),)
        repaired = guard.rectify(row)
        assert row_conforms(city_program, repaired)
        assert repaired["City"] == "Berkeley"
        assert repaired["State"] == "CA"
        assert guard.stats.rows_rectified == 1

    def test_rectify_clean_row_is_noop(self, city_program):
        guard = Guard(city_program)
        row = {
            "PostalCode": "10001",
            "City": "NewYork",
            "State": "NY",
            "Country": "USA",
        }
        assert guard.rectify(row) == row
        assert guard.stats.rows_rectified == 0


class TestGuardStats:
    def test_violation_rate_with_zero_rows(self):
        assert GuardStats().violation_rate == 0.0

    def test_violation_rate(self, city_program):
        guard = Guard(city_program)
        clean = {
            "PostalCode": "94704",
            "City": "Berkeley",
            "State": "CA",
            "Country": "USA",
        }
        guard.check(clean)
        guard.check({**clean, "City": "wrong"})
        assert guard.stats.violation_rate == pytest.approx(0.5)
        assert guard.stats.violations_by_attribute == {"City": 1}

    def test_process_strategies(self, city_program):
        guard = Guard(city_program)
        bad = {"PostalCode": "94704", "City": "wrong"}
        with pytest.raises(DataIntegrityError):
            guard.process(bad, "raise")
        assert guard.process(bad, "ignore")["City"] == "wrong"
        assert guard.process(bad, "coerce")["City"] is None
        assert guard.process(bad, "rectify")["City"] == "Berkeley"


class TestBranchCollision:
    """Two branches carrying the same determinant values (hand-built)."""

    def test_rowguard_first_match_wins(self):
        program = Program((_statement_with_colliding_branches(),))
        guard = Guard(program)
        # Before the setdefault fix, compiling the lookup table let the
        # *last* colliding branch overwrite the first.
        assert guard.check({"a": "x", "b": "first"}).ok
        verdict = guard.check({"a": "x", "b": "second"})
        assert not verdict.ok
        assert verdict.violations == (("b", "first"),)

    def test_batchguard_first_match_wins(self, batch_sides):
        program = Program((_statement_with_colliding_branches(),))
        guard = Guard(program)
        for side in batch_sides:
            verdicts = guard.check_batch(
                [{"a": "x", "b": "first"}, {"a": "x", "b": "second"}]
            )
            assert verdicts[0].ok, side
            assert verdicts[1].violations == (("b", "first"),), side


class TestStateThreading:
    """Guard.check/check_batch must thread writes across statements."""

    @pytest.fixture
    def chain(self) -> Program:
        from repro.dsl import parse_program

        return parse_program(
            """
            GIVEN a ON b HAVING
              IF a = 'a1' THEN b <- 'b1';
            GIVEN b ON c HAVING
              IF b = 'b1' THEN c <- 'c1';
              IF b = 'bad' THEN c <- 'c9'
            """
        )

    def test_downstream_reads_threaded_value(self, chain, batch_sides):
        # b is corrupted; statement 1 rewrites it to 'b1', so statement
        # 2 must judge c against the *threaded* b1 (expect c1), not
        # against the observed 'bad' (which would expect c9).
        row = {"a": "a1", "b": "bad", "c": "c1"}
        guard = Guard(chain)
        verdicts = [guard.check(row)]
        verdicts += [guard.check_batch([row])[0] for _ in batch_sides]
        for verdict in verdicts:
            assert not verdict.ok
            assert verdict.violations == (("b", "b1"),)

    def test_threaded_write_can_flag_downstream(self, chain, batch_sides):
        # The threaded b1 makes statement 2 fire: c must become c1.
        row = {"a": "a1", "b": "bad", "c": "c9"}
        guard = Guard(chain)
        verdicts = [guard.check(row)]
        verdicts += [guard.check_batch([row])[0] for _ in batch_sides]
        for verdict in verdicts:
            assert set(verdict.violations) == {("b", "b1"), ("c", "c1")}


class TestBatchGuard:
    def test_matches_rowguard_on_fixtures(
        self, city_program, city_relation, batch_sides
    ):
        rows = [city_relation.row(i) for i in range(city_relation.n_rows)]
        singles = [Guard(city_program).check(r) for r in rows]
        for side in batch_sides:
            batched = Guard(city_program).check_batch(rows)
            assert [v.ok for v in singles] == [v.ok for v in batched], side
            assert [v.violations for v in singles] == [
                v.violations for v in batched
            ], side

    def test_stream_micro_batches(self, city_program, city_relation):
        rows = [city_relation.row(i) for i in range(city_relation.n_rows)]
        guard = Guard(city_program)
        streamed = list(guard.stream(rows, batch_size=7))
        assert len(streamed) == len(rows)
        assert [v.ok for v in streamed] == [
            v.ok for v in Guard(city_program).check_batch(rows)
        ]
        assert guard.stats.rows_checked == len(rows)

    def test_check_relation_matches_detection(
        self, city_program, city_relation
    ):
        from repro.errors import detect_errors

        mask = Guard(city_program).check_relation(city_relation)
        expected = detect_errors(city_program, city_relation).row_mask
        assert (mask == expected).all()

    def test_empty_batch_and_empty_program(self, city_program, batch_sides):
        for side in batch_sides:
            assert Guard(Program.empty()).check_batch([]) == [], side
            assert Guard(city_program).check_batch([]) == [], side
            assert Guard(Program.empty()).check_batch([{"x": 1}])[0].ok, side

    def test_rejects_bad_batch_size(self, city_program):
        with pytest.raises(ValueError):
            list(Guard(city_program).stream([{}], batch_size=0))

    def test_unseen_values_are_uncovered(self, city_program, batch_sides):
        guard = Guard(city_program)
        row = {"PostalCode": "00000", "City": "Atlantis"}
        for side in batch_sides:
            assert guard.check_batch([row])[0].ok, side
