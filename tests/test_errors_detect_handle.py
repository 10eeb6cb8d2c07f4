"""Tests for violation detection and the four handling strategies."""

import numpy as np
import pytest

from repro.errors import (
    DataIntegrityError,
    Strategy,
    apply_strategy,
    detect_errors,
    inject_errors,
)
from repro.relation import MISSING


class TestDetect:
    def test_clean_data_has_no_violations(self, city_relation, city_program):
        result = detect_errors(city_program, city_relation)
        assert result.n_flagged_rows == 0
        assert result.violations == []

    def test_flags_corrupted_dependent(self, city_relation, city_program):
        corrupted = city_relation.set_cell(4, "City", "gibbon")
        result = detect_errors(city_program, corrupted)
        assert result.flagged_rows().tolist() == [4]
        violation = result.violations[0]
        assert violation.attribute == "City"
        assert violation.expected == "Berkeley"

    def test_by_row_groups_violations(self, city_relation, city_program):
        corrupted = city_relation.set_cell(0, "State", "XX")
        # Corrupted State violates City->State AND State->Country (XX
        # matches no Country branch, so only the State statement fires).
        result = detect_errors(city_program, corrupted)
        grouped = result.by_row()
        assert set(grouped) == {0}

    def test_flagged_cells(self, city_relation, city_program):
        corrupted = city_relation.set_cell(7, "Country", "ZZ")
        result = detect_errors(city_program, corrupted)
        assert (7, "Country") in result.flagged_cells()


class TestStrategies:
    def test_parse_strategy(self):
        assert Strategy.parse("RAISE") is Strategy.RAISE
        assert Strategy.parse(Strategy.COERCE) is Strategy.COERCE
        with pytest.raises(ValueError, match="unknown strategy"):
            Strategy.parse("explode")

    def test_raise_on_clean_data_passes(self, city_relation, city_program):
        outcome = apply_strategy(city_program, city_relation, "raise")
        assert outcome.n_changed == 0

    def test_raise_on_dirty_data(self, city_relation, city_program):
        corrupted = city_relation.set_cell(0, "City", "gibbon")
        with pytest.raises(DataIntegrityError) as excinfo:
            apply_strategy(city_program, corrupted, "raise")
        assert 0 in excinfo.value.rows

    def test_ignore_returns_data_unchanged(self, city_relation, city_program):
        corrupted = city_relation.set_cell(0, "City", "gibbon")
        outcome = apply_strategy(city_program, corrupted, "ignore")
        assert outcome.relation is corrupted
        assert outcome.detection.n_flagged_rows == 1

    def test_coerce_blanks_dependent(self, city_relation, city_program):
        corrupted = city_relation.set_cell(0, "City", "gibbon")
        outcome = apply_strategy(city_program, corrupted, "coerce")
        assert outcome.relation.codes("City")[0] == MISSING
        assert (0, "City") in outcome.cells_changed


class TestRectify:
    def test_repairs_corrupted_dependent(self, city_relation, city_program):
        corrupted = city_relation.set_cell(0, "City", "gibbon")
        outcome = apply_strategy(city_program, corrupted, "rectify")
        assert outcome.relation.value(0, "City") == "Berkeley"
        assert outcome.n_changed == 1

    def test_repairs_corrupted_midchain_determinant(
        self, city_relation, city_program
    ):
        """A corrupted City breaks both the City and State statements;
        the minimal repair restores City rather than breaking State."""
        # Row 0 is PostalCode=94704 / Berkeley / CA.
        corrupted = city_relation.set_cell(0, "City", "Austin")
        outcome = apply_strategy(city_program, corrupted, "rectify")
        assert outcome.relation.value(0, "City") == "Berkeley"
        assert outcome.relation.value(0, "State") == "CA"

    def test_rectified_data_conforms(self, city_relation, city_program, rng):
        report = inject_errors(city_relation, n_errors=10, rng=rng)
        outcome = apply_strategy(city_program, report.relation, "rectify")
        post = detect_errors(city_program, outcome.relation)
        assert post.n_flagged_rows == 0

    def test_double_corruption_falls_back(self, city_relation, city_program):
        """Appendix F's hard case: two cells of one row corrupted."""
        corrupted = city_relation.set_cell(0, "City", "gibbon")
        corrupted = corrupted.set_cell(0, "State", "ZZ")
        outcome = apply_strategy(city_program, corrupted, "rectify")
        # The per-statement fallback still restores the whole chain.
        assert outcome.relation.value(0, "City") == "Berkeley"
        assert outcome.relation.value(0, "State") == "CA"

    def test_rectify_preserves_clean_rows(self, city_relation, city_program):
        corrupted = city_relation.set_cell(0, "City", "gibbon")
        outcome = apply_strategy(city_program, corrupted, "rectify")
        diff = city_relation.rows_differ(outcome.relation)
        assert diff.sum() == 0  # row 0 restored, others untouched

    def test_two_rows_repaired_to_the_same_new_value(self):
        """Regression: rows rectified to one value the data never held
        used to crash the codec extension with a duplicate."""
        from repro.dsl import parse_program
        from repro.relation import Relation

        program = parse_program("GIVEN a ON b HAVING IF a = 'x' THEN b <- 'y'")
        relation = Relation.from_rows(
            [{"a": "x", "b": "z"}, {"a": "x", "b": "z"}, {"a": "w", "b": "z"}]
        )
        outcome = apply_strategy(program, relation, "rectify")
        assert outcome.relation.to_rows() == [
            {"a": "x", "b": "y"},
            {"a": "x", "b": "y"},
            {"a": "w", "b": "z"},
        ]
        assert outcome.cells_changed == [(0, "b"), (1, "b")]

    def test_changed_cells_reported(self, city_relation, city_program):
        corrupted = city_relation.set_cell(2, "Country", "Narnia")
        outcome = apply_strategy(city_program, corrupted, "rectify")
        assert outcome.cells_changed == [(2, "Country")]
