"""Tests for Markov equivalence class enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pgm import (
    DAG,
    PDAG,
    GraphError,
    OrientationConflict,
    cpdag_from_dag,
    enumerate_mec,
    enumerate_mec_brute_force,
    mec_of,
    mec_size,
)


class TestEnumeration:
    def test_chain_mec_has_three_members(self):
        # a - b - c without colliders: a→b→c, a←b←c, a←b→c.
        chain = DAG(["a", "b", "c"], [("a", "b"), ("b", "c")])
        members = mec_of(chain)
        assert len(members) == 3
        assert chain in members

    def test_collider_is_unique_in_class(self):
        collider = DAG(["a", "b", "c"], [("a", "b"), ("c", "b")])
        assert mec_size(cpdag_from_dag(collider)) == 1

    def test_complete_graph_class_size(self):
        # A complete DAG on 3 nodes: all 3! orderings are equivalent.
        complete = DAG(
            ["a", "b", "c"], [("a", "b"), ("a", "c"), ("b", "c")]
        )
        assert mec_size(cpdag_from_dag(complete)) == 6

    def test_members_are_markov_equivalent(self, chain_dag):
        members = mec_of(chain_dag)
        for member in members:
            assert member.markov_equivalent(chain_dag)

    def test_members_are_distinct(self):
        chain = DAG(["a", "b", "c"], [("a", "b"), ("b", "c")])
        members = mec_of(chain)
        assert len({frozenset(m.edges()) for m in members}) == len(members)

    def test_max_dags_cap(self):
        chain = DAG(["a", "b", "c"], [("a", "b"), ("b", "c")])
        cpdag = cpdag_from_dag(chain)
        assert sum(1 for _ in enumerate_mec(cpdag, max_dags=2)) == 2

    def test_isolated_nodes(self):
        dag = DAG(["a", "b"])
        assert mec_size(cpdag_from_dag(dag)) == 1


def _dag_from_bits(node_count: int, edge_bits: int) -> DAG:
    names = [f"n{i}" for i in range(node_count)]
    edges = []
    bit = 0
    for i in range(node_count):
        for j in range(i + 1, node_count):
            if edge_bits >> bit & 1:
                edges.append((names[i], names[j]))
            bit += 1
    return DAG(names, edges)


@settings(max_examples=60, deadline=None)
@given(node_count=st.integers(2, 5), edge_bits=st.integers(0, 1023))
def test_enumeration_matches_brute_force(node_count, edge_bits):
    """The backtracking enumerator finds exactly the brute-force MEC."""
    dag = _dag_from_bits(node_count, edge_bits)
    cpdag = cpdag_from_dag(dag)
    fast = {frozenset(d.edges()) for d in enumerate_mec(cpdag)}
    slow = {
        frozenset(d.edges()) for d in enumerate_mec_brute_force(cpdag)
    }
    assert fast == slow
    assert frozenset(dag.edges()) in fast


@settings(max_examples=40, deadline=None)
@given(node_count=st.integers(2, 5), edge_bits=st.integers(0, 1023))
def test_every_member_roundtrips_to_same_cpdag(node_count, edge_bits):
    dag = _dag_from_bits(node_count, edge_bits)
    cpdag = cpdag_from_dag(dag)
    for member in enumerate_mec(cpdag):
        assert cpdag_from_dag(member) == cpdag


# ----------------------------------------------------------------------
# Cycle pruning: the same DAGs, in the same order, without dead branches
# ----------------------------------------------------------------------


def reference_enumerate(cpdag, max_dags=None, verify_leaves=True):
    """The search without cycle pruning: every branch is expanded down to
    its leaves, and a cyclic leaf fails ``to_dag``."""
    produced = 0

    def recurse(pdag):
        nonlocal produced
        if max_dags is not None and produced >= max_dags:
            return
        undirected = pdag.undirected_edges()
        if not undirected:
            try:
                dag = pdag.to_dag()
            except GraphError:
                return
            if not verify_leaves or cpdag_from_dag(dag) == cpdag:
                produced += 1
                yield dag
            return
        u, v = undirected[0]
        for x, y in ((u, v), (v, u)):
            if pdag.creates_cycle(x, y) or pdag.creates_new_v_structure(x, y):
                continue
            candidate = pdag.copy()
            candidate.orient(x, y)
            try:
                candidate.apply_meek_rules()
            except OrientationConflict:
                continue
            yield from recurse(candidate)

    yield from recurse(cpdag.copy())


def _pdag_from_states(node_count, states):
    """Pair (i, j), i < j, gets no edge (0), i - j (1), i -> j (2) or
    j -> i (3); directed parts may be cyclic, like noisy PC output.
    Undirected edges past the ninth are dropped, which keeps the
    unpruned reference search small."""
    names = [f"n{i}" for i in range(node_count)]
    directed, undirected = [], []
    pairs = [
        (names[i], names[j])
        for i in range(node_count)
        for j in range(i + 1, node_count)
    ]
    for (a, b), state in zip(pairs, states):
        if state == 1 and len(undirected) < 9:
            undirected.append((a, b))
        elif state == 2:
            directed.append((a, b))
        elif state == 3:
            directed.append((b, a))
    return PDAG(names, directed, undirected)


@settings(max_examples=150, deadline=None)
@given(
    node_count=st.integers(2, 7),
    states=st.lists(st.integers(0, 3), min_size=21, max_size=21),
)
def test_pruned_search_yields_the_unpruned_sequence(node_count, states):
    pattern = _pdag_from_states(node_count, states)
    for verify_leaves in (True, False):
        for max_dags in (None, 1, 3):
            pruned = [
                frozenset(d.edges())
                for d in enumerate_mec(
                    pattern, max_dags=max_dags, verify_leaves=verify_leaves
                )
            ]
            full = [
                frozenset(d.edges())
                for d in reference_enumerate(
                    pattern, max_dags=max_dags, verify_leaves=verify_leaves
                )
            ]
            assert pruned == full, (verify_leaves, max_dags)


def _four_rings(count, prefix="r"):
    nodes, edges = [], []
    for i in range(count):
        ring = [f"{prefix}{i}{corner}" for corner in "abcd"]
        nodes += ring
        edges += [(ring[j], ring[(j + 1) % 4]) for j in range(4)]
    return nodes, edges


@pytest.fixture
def to_dag_calls(monkeypatch):
    """Counts every ``PDAG.to_dag`` call made while the test runs."""
    calls = []
    to_dag = PDAG.to_dag

    def counting(self):
        calls.append(self)
        return to_dag(self)

    monkeypatch.setattr(PDAG, "to_dag", counting)
    return calls


class TestCyclePruning:
    def test_cyclic_pattern_never_reaches_a_leaf(self, to_dag_calls):
        # An unpruned search walks all 27 leaves of the three rings, each
        # carrying the x -> y -> w -> x cycle.
        nodes, edges = _four_rings(3)
        pattern = PDAG(
            nodes + ["x", "y", "w"],
            [("x", "y"), ("y", "w"), ("w", "x")],
            edges,
        )
        for verify_leaves in (True, False):
            assert list(enumerate_mec(pattern, verify_leaves=verify_leaves)) == []
        assert to_dag_calls == []

    def test_cyclic_closures_are_cut_where_they_form(self, to_dag_calls):
        # Each 4-ring has three leaves, one of which Meek closure makes
        # cyclic; unpruned, that is 3**6 = 729 leaves for 2**6 DAGs.
        nodes, edges = _four_rings(6)
        dags = list(enumerate_mec(PDAG(nodes, (), edges), verify_leaves=False))
        assert len(dags) == 64
        assert len(to_dag_calls) == 64
