"""Tests for repro.relation.relation (the column store)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relation import (
    MISSING,
    Attribute,
    AttributeType,
    Codec,
    Relation,
    RelationError,
    Schema,
    SchemaError,
)


@pytest.fixture
def simple() -> Relation:
    return Relation.from_rows(
        [
            {"color": "red", "size": "s"},
            {"color": "blue", "size": "m"},
            {"color": "red", "size": "m"},
            {"color": None, "size": "s"},
        ]
    )


class TestConstruction:
    def test_from_rows_infers_schema(self, simple):
        assert simple.names == ("color", "size")
        assert simple.n_rows == 4

    def test_from_rows_empty_raises(self):
        with pytest.raises(RelationError, match="zero rows"):
            Relation.from_rows([])

    def test_from_columns(self):
        relation = Relation.from_columns({"a": ["x", "y"], "b": ["p", "q"]})
        assert relation.row(1) == {"a": "y", "b": "q"}

    def test_from_codes(self):
        codec = Codec(["u", "v"])
        relation = Relation.from_codes(
            {"a": np.array([0, 1, 0], dtype=np.int32)}, {"a": codec}
        )
        assert relation.column_values("a") == ["u", "v", "u"]

    def test_numeric_column(self):
        schema = Schema(
            [Attribute("x"), Attribute("v", AttributeType.NUMERIC)]
        )
        relation = Relation.from_rows(
            [{"x": "a", "v": 1.5}, {"x": "b", "v": None}], schema=schema
        )
        values = relation.numeric("v")
        assert values[0] == 1.5 and np.isnan(values[1])

    def test_mismatched_column_lengths_raise(self):
        schema = Schema.categorical(["a", "b"])
        codec = Codec(["x"])
        with pytest.raises(RelationError, match="rows"):
            Relation(
                schema,
                {
                    "a": np.zeros(2, dtype=np.int32),
                    "b": np.zeros(3, dtype=np.int32),
                },
                {"a": codec, "b": codec},
            )

    def test_missing_codec_raises(self):
        schema = Schema.categorical(["a"])
        with pytest.raises(RelationError, match="codec"):
            Relation(schema, {"a": np.zeros(1, dtype=np.int32)}, {})


class TestAccess:
    def test_row_decoding(self, simple):
        assert simple.row(0) == {"color": "red", "size": "s"}
        assert simple.row(3)["color"] is None

    def test_row_out_of_range(self, simple):
        with pytest.raises(IndexError):
            simple.row(99)

    def test_codes_for_numeric_raises(self):
        schema = Schema([Attribute("v", AttributeType.NUMERIC)])
        relation = Relation.from_rows([{"v": 1.0}], schema=schema)
        with pytest.raises(SchemaError, match="not categorical"):
            relation.codes("v")

    def test_cardinality_ignores_missing(self, simple):
        assert simple.cardinality("color") == 2

    def test_unique(self, simple):
        assert simple.unique("color") == ["red", "blue"]

    def test_codes_matrix_shape(self, simple):
        matrix = simple.codes_matrix()
        assert matrix.shape == (4, 2)

    def test_codes_matrix_empty_names(self, simple):
        assert simple.codes_matrix([]).shape == (4, 0)

    def test_to_rows_roundtrip(self, simple):
        rebuilt = Relation.from_rows(
            simple.to_rows(), schema=simple.schema, codecs=simple.codecs()
        )
        assert rebuilt.equals(simple)


class TestOperations:
    def test_project(self, simple):
        projected = simple.project(["size"])
        assert projected.names == ("size",)
        assert projected.n_rows == 4

    def test_filter(self, simple):
        mask = np.array([True, False, True, False])
        filtered = simple.filter(mask)
        assert filtered.n_rows == 2
        assert filtered.row(0)["color"] == "red"

    def test_filter_bad_mask(self, simple):
        with pytest.raises(RelationError, match="mask shape"):
            simple.filter(np.array([True]))

    def test_take_with_repetition(self, simple):
        taken = simple.take([1, 1, 0])
        assert taken.n_rows == 3
        assert taken.row(0)["color"] == "blue"

    def test_head(self, simple):
        assert simple.head(2).n_rows == 2
        assert simple.head(100).n_rows == 4

    def test_slice_rows_views_not_copies(self, city_relation):
        base = city_relation.codes("City")
        for start, stop in ((0, 17), (17, 34), (34, city_relation.n_rows)):
            view = city_relation.slice_rows(start, stop)
            assert view.n_rows == stop - start
            assert np.shares_memory(view.codes("City"), base)
            assert np.array_equal(view.codes("City"), base[start:stop])

    def test_slice_rows_bounds_checked(self, city_relation):
        with pytest.raises(RelationError):
            city_relation.slice_rows(-1, 3)
        with pytest.raises(RelationError):
            city_relation.slice_rows(0, city_relation.n_rows + 1)
        with pytest.raises(RelationError):
            city_relation.slice_rows(5, 3)

    def test_with_column_add(self, simple):
        out = simple.with_column("flag", ["y", "n", "y", "n"])
        assert out.names == ("color", "size", "flag")
        assert out.row(0)["flag"] == "y"

    def test_with_column_replace(self, simple):
        out = simple.with_column("size", ["l", "l", "l", "l"])
        assert out.column_values("size") == ["l"] * 4

    def test_with_numeric_column(self, simple):
        out = simple.with_column(
            "score", [1.0, 2.0, 3.0, 4.0], type=AttributeType.NUMERIC
        )
        assert out.numeric("score")[2] == 3.0

    def test_replace_codes(self, simple):
        codes = simple.codes("size").copy()
        codes[:] = 0
        out = simple.replace_codes("size", codes)
        assert set(out.column_values("size")) == {"s"}

    def test_set_cell_extends_codec(self, simple):
        out = simple.set_cell(0, "color", "green")
        assert out.value(0, "color") == "green"
        assert simple.value(0, "color") == "red"  # original untouched

    def test_concat(self, simple):
        doubled = simple.concat(simple)
        assert doubled.n_rows == 8

    def test_concat_codec_mismatch(self, simple):
        other = Relation.from_rows(
            [{"color": "green", "size": "s"}]
        )
        with pytest.raises(RelationError):
            simple.concat(other)

    def test_align_codecs(self, simple):
        target = simple.codec("color").extend(["green"])
        aligned = simple.align_codecs({"color": target})
        assert aligned.column_values("color") == simple.column_values("color")
        assert aligned.codec("color") == target


class TestGrouping:
    def test_group_indices(self, simple):
        groups = simple.group_indices(["size"])
        sizes = {
            simple.codec("size").decode_one(k[0]): len(v)
            for k, v in groups.items()
        }
        assert sizes == {"s": 2, "m": 2}

    def test_group_indices_empty_names(self, simple):
        groups = simple.group_indices([])
        assert list(groups) == [()]
        assert len(groups[()]) == 4

    def test_group_indices_partition(self, simple):
        groups = simple.group_indices(["color", "size"])
        total = sorted(
            int(i) for idx in groups.values() for i in idx
        )
        assert total == [0, 1, 2, 3]

    def test_split_disjoint_and_exhaustive(self, simple, rng):
        first, second = simple.split(0.5, rng)
        assert first.n_rows + second.n_rows == simple.n_rows

    def test_split_bad_fraction(self, simple, rng):
        with pytest.raises(RelationError):
            simple.split(1.5, rng)


class TestComparison:
    def test_equals_self(self, simple):
        assert simple.equals(simple)

    def test_rows_differ(self, simple):
        changed = simple.set_cell(2, "size", "s")
        diff = simple.rows_differ(changed)
        assert list(np.nonzero(diff)[0]) == [2]

    def test_rows_differ_incompatible(self, simple):
        with pytest.raises(RelationError):
            simple.rows_differ(simple.project(["size"]))

    def test_to_text_contains_header(self, simple):
        text = simple.to_text()
        assert "color" in text and "size" in text


@settings(max_examples=30)
@given(
    data=st.lists(
        st.tuples(st.sampled_from("abc"), st.sampled_from("xyz")),
        min_size=1,
        max_size=30,
    )
)
def test_group_indices_matches_python_grouping(data):
    rows = [{"u": u, "v": v} for u, v in data]
    relation = Relation.from_rows(rows)
    groups = relation.group_indices(["u", "v"])
    # Rebuild groups in pure Python and compare.
    expected: dict[tuple, list[int]] = {}
    for index, (u, v) in enumerate(data):
        key = (
            relation.codec("u").encode_one(u),
            relation.codec("v").encode_one(v),
        )
        expected.setdefault(key, []).append(index)
    assert {k: sorted(int(i) for i in v) for k, v in groups.items()} == {
        k: v for k, v in expected.items()
    }
