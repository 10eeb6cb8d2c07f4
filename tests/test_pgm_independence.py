"""Tests for the conditional-independence tester."""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

from repro.pgm import CIResult, CITester, IndependenceError
from repro.pgm.independence import _g2_from_table, _x2_from_table
from repro.relation import MISSING, Relation


def make_tester(columns: dict[str, np.ndarray], **kwargs) -> CITester:
    names = list(columns)
    codes = np.column_stack([columns[n] for n in names])
    return CITester(codes, names, **kwargs)


@pytest.fixture
def dependent_data(rng) -> CITester:
    x = rng.integers(0, 3, size=3000).astype(np.int32)
    y = (x + rng.integers(0, 2, size=3000)) % 3  # strongly dependent
    z = rng.integers(0, 3, size=3000).astype(np.int32)
    return make_tester({"x": x, "y": y.astype(np.int32), "z": z})


class TestMarginalTests:
    def test_detects_dependence(self, dependent_data):
        assert not dependent_data.independent("x", "y")

    def test_detects_independence(self, dependent_data):
        assert dependent_data.independent("x", "z")

    def test_result_fields(self, dependent_data):
        result = dependent_data.test("x", "y")
        assert result.statistic > 0
        assert 0 <= result.p_value <= 1
        assert result.dof > 0
        assert bool(result) == result.independent

    def test_symmetry(self, dependent_data):
        assert dependent_data.test("x", "y") == dependent_data.test("y", "x")

    def test_memoization(self, dependent_data):
        before = dependent_data.n_queries
        dependent_data.test("x", "z")
        dependent_data.test("z", "x")
        dependent_data.test("x", "z", ())
        assert dependent_data.n_queries == before + 1


class TestConditionalTests:
    def test_chain_blocked_by_middle(self, rng):
        a = rng.integers(0, 3, size=4000).astype(np.int32)
        noise_b = rng.random(4000) < 0.05
        b = np.where(noise_b, (a + 1) % 3, a).astype(np.int32)
        noise_c = rng.random(4000) < 0.05
        c = np.where(noise_c, (b + 1) % 3, b).astype(np.int32)
        tester = make_tester({"a": a, "b": b, "c": c})
        assert not tester.independent("a", "c")
        assert tester.independent("a", "c", ["b"])

    def test_collider_opens(self, rng):
        a = rng.integers(0, 2, size=4000).astype(np.int32)
        b = rng.integers(0, 2, size=4000).astype(np.int32)
        c = ((a + b) % 2).astype(np.int32)
        tester = make_tester({"a": a, "b": b, "c": c})
        assert tester.independent("a", "b")
        assert not tester.independent("a", "b", ["c"])


class TestEdgeCases:
    def test_same_variable_rejected(self, dependent_data):
        with pytest.raises(IndependenceError):
            dependent_data.test("x", "x")

    def test_conditioning_on_endpoint_rejected(self, dependent_data):
        with pytest.raises(IndependenceError):
            dependent_data.test("x", "y", ["x"])

    def test_unknown_column_rejected(self, dependent_data):
        with pytest.raises(IndependenceError):
            dependent_data.test("x", "nope")

    def test_constant_column_is_independent(self, rng):
        x = rng.integers(0, 3, size=100).astype(np.int32)
        const = np.zeros(100, dtype=np.int32)
        tester = make_tester({"x": x, "c": const})
        result = tester.test("x", "c")
        assert result.independent
        assert result.dof == 0

    def test_missing_values_dropped(self, rng):
        x = rng.integers(0, 2, size=500).astype(np.int32)
        y = x.copy()
        y[:50] = -1  # MISSING
        tester = make_tester({"x": x, "y": y})
        assert not tester.independent("x", "y")

    def test_empty_after_missing(self):
        x = np.full(10, -1, dtype=np.int32)
        y = np.zeros(10, dtype=np.int32)
        tester = make_tester({"x": x, "y": y})
        assert tester.test("x", "y").independent

    def test_x2_method(self, dependent_data):
        codes = dependent_data._codes
        tester = CITester(codes, dependent_data.names, method="x2")
        assert not tester.independent("x", "y")

    def test_unknown_method_rejected(self):
        with pytest.raises(IndependenceError):
            make_tester({"a": np.zeros(1, dtype=np.int32)}, method="zzz")

    def test_min_samples_per_dof_guards_sparse_tables(self, rng):
        # 400 rows over a 20x20 table: informative, but below the
        # 5-samples-per-dof bar (dof = 19*19 = 361 needs 1805 rows).
        x = rng.integers(0, 20, size=400).astype(np.int32)
        y = x.copy()  # perfectly dependent
        strict = make_tester({"x": x, "y": y}, min_samples_per_dof=5.0)
        loose = make_tester({"x": x, "y": y}, min_samples_per_dof=0.0)
        assert strict.test("x", "y").independent
        assert not loose.test("x", "y").independent

    def test_from_relation(self):
        relation = Relation.from_rows(
            [{"a": "x", "b": "y"}, {"a": "z", "b": "w"}]
        )
        tester = CITester.from_relation(relation)
        assert set(tester.names) == {"a", "b"}


class TestColumnValidation:
    def test_float_codes_rejected(self):
        with pytest.raises(IndependenceError, match="integers"):
            CITester(np.zeros((4, 2)), ["a", "b"])

    def test_codes_below_missing_rejected(self):
        codes = np.array([[0, 1], [-2, 0]], dtype=np.int32)
        with pytest.raises(IndependenceError, match="MISSING"):
            CITester(codes, ["a", "b"])

    def test_duplicate_names_rejected(self):
        with pytest.raises(IndependenceError, match="distinct"):
            CITester(np.zeros((4, 2), dtype=np.int32), ["a", "a"])

    def test_empty_matrix_accepted(self):
        tester = CITester(np.zeros((0, 2), dtype=np.int32), ["a", "b"])
        assert tester.test("a", "b").independent

    def test_add_column_is_queryable(self, dependent_data):
        dependent_data.add_column("x_copy", dependent_data.column("x"))
        assert dependent_data.names[-1] == "x_copy"
        assert not dependent_data.independent("x_copy", "y")
        assert dependent_data.independent("x_copy", "z")

    def test_add_column_rejects_existing_name(self, dependent_data):
        with pytest.raises(IndependenceError, match="already exists"):
            dependent_data.add_column("x", dependent_data.column("y"))

    def test_add_column_rejects_wrong_row_count(self, dependent_data):
        with pytest.raises(IndependenceError, match="needs 3000 codes"):
            dependent_data.add_column("short", np.zeros(10, dtype=np.int32))

    def test_add_column_rejects_a_matrix(self, dependent_data):
        with pytest.raises(IndependenceError, match="needs 3000 codes"):
            dependent_data.add_column("wide", np.zeros((3000, 2), dtype=np.int32))

    def test_add_column_rejects_float_codes(self, dependent_data):
        with pytest.raises(IndependenceError, match="integers"):
            dependent_data.add_column("f", np.zeros(3000))

    def test_add_column_rejects_codes_below_missing(self, dependent_data):
        codes = np.zeros(3000, dtype=np.int32)
        codes[7] = -5
        with pytest.raises(IndependenceError, match="MISSING"):
            dependent_data.add_column("bad", codes)
        assert "bad" not in dependent_data.names

    def test_column_view_is_read_only(self, dependent_data):
        column = dependent_data.column("x")
        with pytest.raises(ValueError):
            column[0] = 1


# ----------------------------------------------------------------------
# Differential test: the one-pass kernel against the per-stratum loop
# ----------------------------------------------------------------------


def _crosstab(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dense contingency table of two small-cardinality code columns."""
    x_vals, x_idx = np.unique(x, return_inverse=True)
    y_vals, y_idx = np.unique(y, return_inverse=True)
    table = np.zeros((len(x_vals), len(y_vals)), dtype=np.float64)
    np.add.at(table, (x_idx, y_idx), 1.0)
    return table


def _stratify(z_cols: list[np.ndarray]) -> list[np.ndarray]:
    """Index arrays for each observed combination of the z columns."""
    stacked = np.column_stack(z_cols)
    order = np.lexsort(stacked.T[::-1])
    ordered = stacked[order]
    changes = np.any(np.diff(ordered, axis=0) != 0, axis=1)
    bounds = np.concatenate([[0], np.nonzero(changes)[0] + 1, [len(order)]])
    return [order[s:e] for s, e in zip(bounds[:-1], bounds[1:])]


def reference_test(codes, names, x, y, z, alpha, method, min_samples_per_dof):
    """``x ⊥ y | z`` the way the tester answered it one stratum at a time:
    a crosstab per observed Z combination, in lexicographic order."""
    column = {name: codes[:, i] for i, name in enumerate(names)}
    x_col, y_col = column[x], column[y]
    keep = (x_col != MISSING) & (y_col != MISSING)
    z_cols = [column[name] for name in z]
    for col in z_cols:
        keep &= col != MISSING
    x_col, y_col = x_col[keep], y_col[keep]
    z_cols = [col[keep] for col in z_cols]
    if x_col.size == 0:
        return CIResult(0.0, 1.0, 0, True)
    stat_fn = _g2_from_table if method == "g2" else _x2_from_table
    statistic = 0.0
    dof = 0
    if not z:
        statistic, dof = stat_fn(_crosstab(x_col, y_col))
        if (
            min_samples_per_dof > 0
            and dof > 0
            and x_col.size < min_samples_per_dof * dof
        ):
            return CIResult(statistic, 1.0, 0, True)
    else:
        for indices in _stratify(z_cols):
            s, d = stat_fn(_crosstab(x_col[indices], y_col[indices]))
            if (
                min_samples_per_dof > 0
                and d > 0
                and indices.size < min_samples_per_dof * d
            ):
                continue
            statistic += s
            dof += d
    if dof == 0:
        return CIResult(statistic, 1.0, 0, True)
    p_value = float(stats.chi2.sf(statistic, dof))
    return CIResult(statistic, p_value, dof, p_value > alpha)


def _random_codes(rng, n_rows, cards, missing_rate):
    codes = np.column_stack(
        [rng.integers(0, card, size=n_rows) for card in cards]
    ).astype(np.int64)
    codes[rng.random(codes.shape) < missing_rate] = MISSING
    return codes


def _compare_all_queries(codes, exact, alpha=0.05):
    """Run every query with |Z| <= 3 on both paths; return the count."""
    names = [f"c{i}" for i in range(codes.shape[1])]
    n_queries = 0
    for method in ("g2", "x2"):
        for min_samples in (0.0, 5.0):
            tester = CITester(
                codes, names, alpha=alpha, method=method,
                min_samples_per_dof=min_samples,
            )
            for x, y in itertools.combinations(names, 2):
                rest = [n for n in names if n not in (x, y)]
                for size in range(4):
                    for z in itertools.combinations(rest, size):
                        got = tester.test(x, y, z)
                        want = reference_test(
                            codes, names, x, y, z, alpha, method, min_samples
                        )
                        where = (method, min_samples, x, y, z)
                        assert got.independent == want.independent, where
                        assert got.dof == want.dof, where
                        if exact:
                            assert got.statistic == want.statistic, where
                            assert got.p_value == want.p_value, where
                        else:
                            assert math.isclose(
                                got.statistic, want.statistic, rel_tol=1e-12
                            ), (where, got, want)
                            assert math.isclose(
                                got.p_value, want.p_value, rel_tol=1e-12
                            ), (where, got, want)
                        n_queries += 1
    return n_queries


class TestKernelMatchesPerStratumLoop:
    """The one-pass kernel gives the per-stratum loop's verdicts and dof
    everywhere; on 0/1 codes (the auxiliary distribution's) its numbers
    are bit-identical, and otherwise equal up to summation order."""

    @pytest.mark.parametrize("seed", range(6))
    def test_binary_codes_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        n_rows = int(rng.choice([3, 12, 40, 300]))
        codes = _random_codes(rng, n_rows, [2] * 6, 0.1 if seed % 2 else 0.0)
        codes[:, 5] = 1  # a constant column
        # Make c1 depend on c0 so some queries reject independence.
        codes[:, 1] = np.where(rng.random(n_rows) < 0.8, codes[:, 0], codes[:, 1])
        assert _compare_all_queries(codes, exact=True) == 2 * 2 * 15 * 15  # methods x guards x pairs x Z sets

    @pytest.mark.parametrize("seed", range(6))
    def test_small_cardinalities_match(self, seed):
        rng = np.random.default_rng(100 + seed)
        n_rows = int(rng.choice([5, 60, 250]))
        cards = rng.integers(1, 7, size=6)
        codes = _random_codes(rng, n_rows, cards, 0.1 if seed % 2 else 0.0)
        assert _compare_all_queries(codes, exact=False) == 2 * 2 * 15 * 15  # methods x guards x pairs x Z sets

    def test_sparse_key_space_takes_the_compacted_path(self):
        # 40**3 strata x 6 x 6 cells over 200 rows: counting the whole key
        # space would be mostly empty cells, so the kernel sorts the keys.
        rng = np.random.default_rng(7)
        codes = _random_codes(rng, 200, [6, 6, 40, 40, 40], 0.05)
        assert _compare_all_queries(codes, exact=False) > 0

    def test_key_beyond_int64_does_not_overflow(self):
        # Codes up to about 2**61: the naive mixed-radix key of
        # (z1, z2, z3, x, y) spans about 2**300 values, and even one
        # column's radix times the row count passes int64.
        rng = np.random.default_rng(8)
        base = _random_codes(rng, 150, [3, 3, 4, 4, 4], 0.05)
        codes = np.where(base == MISSING, MISSING, base * (1 << 59) + 11)
        assert _compare_all_queries(codes, exact=False) > 0

    def test_binary_compacted_path_bit_identical(self):
        # Three rows, three binary Z columns: a key space of 32 cells for
        # 3 rows takes the compacted path; 0/1 results stay bit-identical.
        codes = np.array(
            [[0, 1, 0, 1, 1, 0], [1, 0, 1, 0, 1, 1], [1, 1, 0, 0, 0, 1]],
            dtype=np.int32,
        )
        assert _compare_all_queries(codes, exact=True) > 0
