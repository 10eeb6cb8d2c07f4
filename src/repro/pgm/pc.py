"""The PC algorithm for structure learning (PC-stable variant).

GUARDRAIL learns the Markov equivalence class of the data-generating
process from data (§4.4).  We implement PC-stable (Colombo & Maathuis):

1. start from the complete undirected graph;
2. level ℓ = 0, 1, 2, …: for each adjacent pair ``(x, y)``, search for a
   separating set S ⊆ adj(x)\\{y} with |S| = ℓ; if a CI test accepts
   ``x ⊥ y | S``, delete the edge and record S (adjacency sets are
   frozen per level — the "stable" part, making output order-independent);
3. orient unshielded triples ``x - z - y`` as v-structures ``x → z ← y``
   whenever z is **not** in the recorded separating set;
4. close under Meek's rules, yielding the CPDAG.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Sequence

from .. import obs
from .independence import CITester
from .pdag import PDAG


@dataclass
class PCResult:
    """Output of the PC algorithm."""

    cpdag: PDAG
    separating_sets: dict[frozenset[str], frozenset[str]]
    n_ci_tests: int
    levels_run: int = 0
    notes: list[str] = field(default_factory=list)


def learn_cpdag(
    tester: CITester,
    max_condition_size: int | None = None,
    budget=None,
    initial_skeleton=None,
    initial_separating=None,
) -> PCResult:
    """Run PC-stable on the variables of ``tester``.

    Parameters
    ----------
    tester:
        The CI oracle (bound to data, or to a ground-truth DAG in tests).
    max_condition_size:
        Cap on |S|; ``None`` runs until no adjacency set is large enough.
    budget:
        Optional :class:`repro.resilience.Budget`, charged one step per
        CI test.  Exhaustion stops edge *removal* early (remaining
        edges stay — a denser, conservative skeleton) and is recorded
        in ``PCResult.notes``; orientation still runs on what was
        learned.
    initial_skeleton:
        Warm start: a :class:`PDAG` (its skeleton is used) or an
        iterable of node pairs.  The search starts from these edges
        instead of the complete graph, so PC only *prunes within* the
        prior structure — the payoff when re-synthesizing after drift,
        where the true skeleton rarely changes wholesale.  Edges naming
        unknown variables are ignored (schemas may gain attributes
        between runs).
    initial_separating:
        Warm start: separating sets from the prior run for the pairs
        *outside* ``initial_skeleton``, so v-structure orientation sees
        the evidence that removed those edges.
    """
    nodes = tester.names
    truncated = False
    if initial_skeleton is None:
        adjacency: dict[str, set[str]] = {
            n: {m for m in nodes if m != n} for n in nodes
        }
    else:
        known = set(nodes)
        edges = (
            initial_skeleton.skeleton()
            if hasattr(initial_skeleton, "skeleton")
            else initial_skeleton
        )
        adjacency = {n: set() for n in nodes}
        for u, v in edges:
            if u in known and v in known and u != v:
                adjacency[u].add(v)
                adjacency[v].add(u)
    separating: dict[frozenset[str], frozenset[str]] = {}
    if initial_separating is not None:
        known = set(nodes)
        for pair, sepset in initial_separating.items():
            if set(pair) <= known and set(sepset) <= known:
                separating[frozenset(pair)] = frozenset(sepset)
    queries_before = tester.n_queries

    with obs.span("pgm.learn_cpdag", n_nodes=len(nodes)) as pc_span:
        level = 0
        while True:
            if (
                max_condition_size is not None
                and level > max_condition_size
            ):
                break
            # PC-stable: freeze adjacency for this level.
            frozen = {
                n: frozenset(neigh) for n, neigh in adjacency.items()
            }
            any_candidate = False
            with obs.span("pgm.pc_level", level=level):
                for x in nodes:
                    if truncated:
                        break
                    for y in sorted(frozen[x]):
                        if budget is not None and budget.exhausted():
                            truncated = True
                            pc_note = (
                                f"pc: stopped at level {level} "
                                f"({tester.n_queries - queries_before} "
                                f"CI tests)"
                            )
                            budget.note(pc_note)
                            break
                        if y not in adjacency[x]:
                            continue  # already removed at this level
                        candidates = frozen[x] - {y}
                        if len(candidates) < level:
                            continue
                        any_candidate = True
                        _find_separator(
                            tester,
                            x,
                            y,
                            candidates,
                            level,
                            adjacency,
                            separating,
                            budget,
                        )
            if truncated or not any_candidate:
                break
            level += 1

        with obs.span("pgm.orientation"):
            directed, undirected = _orient_v_structures(
                nodes, adjacency, separating
            )
            cpdag = PDAG(nodes, directed, undirected)
            cpdag.apply_meek_rules()
        n_ci_tests = tester.n_queries - queries_before
        pc_span.set(n_ci_tests=n_ci_tests, levels_run=level)
    notes = ["budget: " + pc_note] if truncated else []
    return PCResult(
        cpdag=cpdag,
        separating_sets=dict(separating),
        n_ci_tests=n_ci_tests,
        levels_run=level,
        notes=notes,
    )


def _find_separator(
    tester: CITester,
    x: str,
    y: str,
    candidates: frozenset[str],
    level: int,
    adjacency: dict[str, set[str]],
    separating: dict[frozenset[str], frozenset[str]],
    budget=None,
) -> bool:
    """Try all |S| = level subsets; on success remove the edge."""
    for subset in combinations(sorted(candidates), level):
        if budget is not None:
            budget.spend(1, kind="pc.ci_test")
            if budget.exhausted():
                return False
        if tester.independent(x, y, subset):
            adjacency[x].discard(y)
            adjacency[y].discard(x)
            separating[frozenset((x, y))] = frozenset(subset)
            return True
    return False


def _orient_v_structures(
    nodes: Sequence[str],
    adjacency: dict[str, set[str]],
    separating: dict[frozenset[str], frozenset[str]],
) -> tuple[set[tuple[str, str]], set[tuple[str, str]]]:
    """Collider orientation: x - z - y, x ∉ adj(y), z ∉ sepset(x, y).

    On finite noisy data different triples can demand opposite
    orientations of the same edge.  Such conflicts indicate the collider
    evidence is unreliable, so every triple touching a conflicted edge
    is discarded wholesale and its edges stay undirected — Algorithm 2's
    coverage criterion later arbitrates among the extensions.
    """
    triples: list[tuple[tuple[str, str], tuple[str, str]]] = []
    for z in nodes:
        neighbors = sorted(adjacency[z])
        for i, x in enumerate(neighbors):
            for y in neighbors[i + 1 :]:
                if y in adjacency[x]:
                    continue  # shielded
                sepset = separating.get(frozenset((x, y)), frozenset())
                if z not in sepset:
                    triples.append(((x, z), (y, z)))

    demanded: set[tuple[str, str]] = {
        edge for triple in triples for edge in triple
    }
    conflicted = {
        frozenset(edge)
        for edge in demanded
        if (edge[1], edge[0]) in demanded
    }
    resolved: set[tuple[str, str]] = set()
    for triple in triples:
        if any(frozenset(edge) in conflicted for edge in triple):
            continue
        resolved.update(triple)
    undirected: set[tuple[str, str]] = set()
    for x in nodes:
        for y in adjacency[x]:
            if x < y and (x, y) not in resolved and (y, x) not in resolved:
                undirected.add((x, y))
    return resolved, undirected


class OracleCITester(CITester):
    """A CI oracle answering queries from a ground-truth DAG.

    Used by tests and synthetic studies: with a perfect oracle, PC
    provably recovers the CPDAG, so any mismatch is an implementation
    bug rather than sampling noise.
    """

    def __init__(self, dag) -> None:  # noqa: D401 - see class docstring
        import numpy as np

        names = list(dag.nodes)
        super().__init__(
            np.zeros((1, len(names)), dtype=np.int32), names
        )
        self._dag = dag

    def _run_test(self, x, y, z):  # type: ignore[override]
        from .independence import CIResult

        independent = self._dag.d_separated(x, y, z)
        p_value = 1.0 if independent else 0.0
        return CIResult(0.0, p_value, 1, independent)
