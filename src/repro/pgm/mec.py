"""Markov equivalence class enumeration (paper §4.5, Alg. 2's inner loop).

Given a CPDAG, :func:`enumerate_mec` yields every DAG in its equivalence
class — the consistent extensions.  The paper adapts a Julia PDAG
enumerator [36]; here we implement the enumeration in pure Python as a
backtracking search:

1. pick an undirected edge,
2. try both orientations, discarding those that create a directed cycle
   or a new unshielded collider,
3. close under Meek's rules (forced orientations; contradictions, and
   directed cycles the closure forms, prune the branch), and
4. at each fully directed leaf, verify class membership by recomputing
   the CPDAG (the definitional check — cheap at the scale we run).

Each branch fixes one edge's direction differently, so leaves are
distinct; the leaf check makes the procedure correct even if the Meek
closure were incomplete.  Orienting and closing only ever add directed
edges, so a cycle never goes away: a branch with a cyclic directed part
(or a cyclic input pattern, which noisy PC output can be) has no DAG
below it, and cutting it early yields the same DAGs in the same order.
"""

from __future__ import annotations

from typing import Iterator

from .. import obs
from .dag import DAG
from .pdag import PDAG, OrientationConflict, cpdag_from_dag


def enumerate_mec(
    cpdag: PDAG,
    max_dags: int | None = None,
    verify_leaves: bool = True,
    budget=None,
) -> Iterator[DAG]:
    """Yield the DAGs of the Markov equivalence class ``cpdag`` encodes.

    Parameters
    ----------
    cpdag:
        The class representative (e.g., the output of the PC algorithm).
    max_dags:
        Stop after yielding this many DAGs (the "maximal enumeration"
        cap that Alg. 2 mentions); ``None`` enumerates exhaustively.
    verify_leaves:
        Recompute the CPDAG of each candidate and compare — the
        definitional membership test.  Disable only for speed when the
        input is known to be a valid CPDAG.
    budget:
        Optional :class:`repro.resilience.Budget`, charged one step per
        search-node expansion.  Exhaustion prunes the remaining search
        — but only after at least one DAG has been produced, so a
        budgeted caller is still guaranteed a candidate whenever the
        class is non-empty.  Branches cut for a directed cycle are
        never expanded, so they charge no ``mec.expansion`` steps.
    """
    produced = 0

    def recurse(pdag: PDAG) -> Iterator[DAG]:
        nonlocal produced
        if max_dags is not None and produced >= max_dags:
            return
        if budget is not None and produced > 0:
            budget.spend(1, kind="mec.expansion")
            if budget.exhausted():
                return
        undirected = pdag.undirected_edges()
        if not undirected:
            dag = pdag.to_dag()
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
            if candidate.has_directed_cycle():
                continue
            yield from recurse(candidate)

    root = cpdag.copy()
    search = iter(()) if root.has_directed_cycle() else recurse(root)
    if not obs.enabled():
        yield from search
        return
    # Traced path: report how many class members the search produced
    # (and count them even when the consumer stops early).
    try:
        yield from search
    finally:
        obs.count("pgm.mec.dags_enumerated", produced)


def mec_size(cpdag: PDAG, max_dags: int | None = None) -> int:
    """The number of DAGs in the Markov equivalence class."""
    return sum(1 for _ in enumerate_mec(cpdag, max_dags=max_dags))


def mec_of(dag: DAG, max_dags: int | None = None) -> list[DAG]:
    """All DAGs Markov-equivalent to ``dag`` (including itself)."""
    return list(enumerate_mec(cpdag_from_dag(dag), max_dags=max_dags))


def undirected_components(cpdag: PDAG) -> list[set[str]]:
    """Connected components of the CPDAG's undirected part.

    By the chain-graph decomposition of CPDAGs, orientations of
    distinct undirected (chain) components are independent, so the MEC
    factorizes over them.
    """
    adjacency: dict[str, set[str]] = {}
    for u, v in cpdag.undirected_edges():
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)
    seen: set[str] = set()
    components: list[set[str]] = []
    for start in sorted(adjacency):
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbor in adjacency[node]:
                if neighbor not in component:
                    component.add(neighbor)
                    frontier.append(neighbor)
        seen |= component
        components.append(component)
    return components


def mec_size_factorized(cpdag: PDAG) -> int:
    """MEC size via the chain-component factorization.

    The paper leaves enumeration optimizations as future work (§4.5);
    this is the standard first one: count orientations per undirected
    component independently and multiply, rather than enumerating the
    full Cartesian product.  Exponentially faster when the undirected
    part is fragmented.
    """
    total = 1
    for component in undirected_components(cpdag):
        sub = _restrict_to_component(cpdag, component)
        total *= max(mec_size(sub), 1)
    return total


def _restrict_to_component(cpdag: PDAG, component: set[str]) -> PDAG:
    """The undirected subgraph a chain component induces.

    For a valid CPDAG the directed part never constrains how a chain
    component may be oriented (chain components of CPDAGs are chordal
    and orient independently), so the restriction keeps only the
    component's own undirected edges.
    """
    undirected = [
        (u, v)
        for (u, v) in cpdag.undirected_edges()
        if u in component and v in component
    ]
    return PDAG(sorted(component), (), undirected)


def enumerate_mec_brute_force(cpdag: PDAG) -> list[DAG]:
    """Reference implementation: try all 2^k orientations of the k
    undirected edges and keep those whose CPDAG matches.

    Exponential — used only by tests to validate :func:`enumerate_mec`.
    """
    undirected = cpdag.undirected_edges()
    results: list[DAG] = []
    for mask in range(1 << len(undirected)):
        directed = set(cpdag.directed_edges())
        for bit, (u, v) in enumerate(undirected):
            if mask >> bit & 1:
                directed.add((u, v))
            else:
                directed.add((v, u))
        try:
            dag = DAG(cpdag.nodes, directed)
        except Exception:
            continue
        if cpdag_from_dag(dag) == cpdag:
            results.append(dag)
    return results
