"""Partially directed acyclic graphs, CPDAGs, and Meek's rules (§4.4).

A :class:`PDAG` mixes directed and undirected edges.  The *CPDAG* (the
canonical representative of a Markov equivalence class) is a PDAG whose
directed edges are exactly the orientations shared by every DAG in the
class.  :func:`cpdag_from_dag` computes it via the Verma–Pearl
characterization (skeleton + v-structures) followed by Meek-rule closure.
"""

from __future__ import annotations

from typing import Iterable

from .dag import DAG, Edge, GraphError


class OrientationConflict(GraphError):
    """Raised when Meek closure forces an edge in both directions."""


class PDAG:
    """A mutable partially directed graph over named nodes."""

    __slots__ = ("_nodes", "_directed", "_undirected")

    def __init__(
        self,
        nodes: Iterable[str],
        directed: Iterable[Edge] = (),
        undirected: Iterable[Edge] = (),
    ):
        self._nodes = tuple(dict.fromkeys(nodes))
        node_set = set(self._nodes)
        self._directed: set[Edge] = set()
        self._undirected: set[frozenset[str]] = set()
        for u, v in directed:
            if u not in node_set or v not in node_set:
                raise GraphError(f"directed edge ({u!r}, {v!r}) uses unknown node")
            self._directed.add((u, v))
        for u, v in undirected:
            if u not in node_set or v not in node_set:
                raise GraphError(
                    f"undirected edge ({u!r}, {v!r}) uses unknown node"
                )
            if u == v:
                raise GraphError(f"self-loop on {u!r}")
            self._undirected.add(frozenset((u, v)))
        for u, v in self._directed:
            if (v, u) in self._directed:
                raise GraphError(f"edge between {u!r} and {v!r} directed both ways")
            if frozenset((u, v)) in self._undirected:
                raise GraphError(
                    f"edge between {u!r} and {v!r} both directed and undirected"
                )

    # ------------------------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        """The nodes, in insertion order."""
        return self._nodes

    def directed_edges(self) -> set[Edge]:
        """The directed edges as a set of (parent, child) pairs."""
        return set(self._directed)

    def undirected_edges(self) -> list[tuple[str, str]]:
        """The undirected edges as sorted pairs."""
        return sorted(tuple(sorted(e)) for e in self._undirected)

    @property
    def n_undirected(self) -> int:
        """Number of undirected edges."""
        return len(self._undirected)

    def has_directed(self, u: str, v: str) -> bool:
        """Is there a directed edge ``u -> v``?"""
        return (u, v) in self._directed

    def has_undirected(self, u: str, v: str) -> bool:
        """Is there an undirected edge ``u - v``?"""
        return frozenset((u, v)) in self._undirected

    def adjacent(self, u: str, v: str) -> bool:
        """Are ``u`` and ``v`` joined by any edge?"""
        return (
            (u, v) in self._directed
            or (v, u) in self._directed
            or frozenset((u, v)) in self._undirected
        )

    def parents(self, node: str) -> set[str]:
        """Nodes with a directed edge into ``node``."""
        return {u for u, v in self._directed if v == node}

    def children(self, node: str) -> set[str]:
        """Nodes ``node`` has a directed edge to."""
        return {v for u, v in self._directed if u == node}

    def undirected_neighbors(self, node: str) -> set[str]:
        """Nodes joined to ``node`` by an undirected edge."""
        return {
            next(iter(e - {node}))
            for e in self._undirected
            if node in e
        }

    def neighbors(self, node: str) -> set[str]:
        """All adjacent nodes, directed or not."""
        return self.parents(node) | self.children(node) | self.undirected_neighbors(node)

    def copy(self) -> "PDAG":
        """A deep, independent copy of the pattern."""
        clone = PDAG(self._nodes)
        clone._directed = set(self._directed)
        clone._undirected = set(self._undirected)
        return clone

    # ------------------------------------------------------------------
    # Orientation
    # ------------------------------------------------------------------

    def orient(self, u: str, v: str) -> None:
        """Turn the undirected edge ``u - v`` into ``u -> v``.

        Raises :class:`OrientationConflict` if the edge is already
        directed the other way; a no-op if already directed ``u -> v``.
        """
        if (u, v) in self._directed:
            return
        if (v, u) in self._directed:
            raise OrientationConflict(f"edge {v!r} -> {u!r} already oriented")
        key = frozenset((u, v))
        if key not in self._undirected:
            raise GraphError(f"no undirected edge between {u!r} and {v!r}")
        self._undirected.discard(key)
        self._directed.add((u, v))

    def creates_cycle(self, u: str, v: str) -> bool:
        """Would orienting ``u -> v`` create a directed cycle?"""
        # Cycle iff a directed path v ~> u already exists.
        frontier = [v]
        seen = {v}
        while frontier:
            node = frontier.pop()
            if node == u:
                return True
            for child in self.children(node):
                if child not in seen:
                    seen.add(child)
                    frontier.append(child)
        return False

    def has_directed_cycle(self) -> bool:
        """Does the directed part contain a directed cycle?"""
        # Kahn's algorithm: peel off nodes with no remaining in-edges; a
        # node still waiting at the end sits on (or below) a cycle.
        children: dict[str, list[str]] = {}
        waiting: dict[str, int] = {}
        for u, v in self._directed:
            children.setdefault(u, []).append(v)
            waiting[v] = waiting.get(v, 0) + 1
        ready = [u for u in children if u not in waiting]
        while ready:
            for v in children.get(ready.pop(), ()):
                waiting[v] -= 1
                if not waiting[v]:
                    del waiting[v]
                    ready.append(v)
        return bool(waiting)

    def creates_new_v_structure(self, u: str, v: str) -> bool:
        """Would orienting ``u -> v`` create an unshielded collider at v?"""
        return any(not self.adjacent(w, u) for w in self.parents(v) if w != u)

    def apply_meek_rules(self) -> bool:
        """Apply Meek's orientation rules R1–R4 until a fixed point.

        Returns True if any edge was oriented.  Raises
        :class:`OrientationConflict` on contradiction.
        """
        changed_any = False
        changed = True
        while changed:
            changed = False
            for a, b in list(self.undirected_edges()):
                for x, y in ((a, b), (b, a)):
                    if self._meek_applies(x, y):
                        self.orient(x, y)
                        changed = True
                        changed_any = True
                        break
        return changed_any

    def _meek_applies(self, x: str, y: str) -> bool:
        """Does any Meek rule force orientation ``x -> y``?"""
        # R1: some w -> x with w, y nonadjacent.
        for w in self.parents(x):
            if not self.adjacent(w, y):
                return True
        # R2: directed path x -> c -> y with x - y undirected.
        for c in self.children(x):
            if self.has_directed(c, y):
                return True
        # R3: x - c -> y and x - d -> y with c, d nonadjacent.
        through = [
            c
            for c in self.undirected_neighbors(x)
            if self.has_directed(c, y)
        ]
        for i, c in enumerate(through):
            for d in through[i + 1 :]:
                if not self.adjacent(c, d):
                    return True
        # R4: x - d, d -> c, c -> y, with d, y nonadjacent (and x adj c
        # through any edge type).  Needed for closure under background
        # knowledge (our enumeration orients edges speculatively).
        for d in self.undirected_neighbors(x):
            for c in self.children(d):
                if self.has_directed(c, y) and not self.adjacent(d, y):
                    return True
        return False

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------

    def to_dag(self) -> DAG:
        """Interpret a fully directed PDAG as a DAG."""
        if self._undirected:
            raise GraphError("PDAG still has undirected edges")
        return DAG(self._nodes, self._directed)

    def skeleton(self) -> set[frozenset[str]]:
        """The undirected skeleton as a set of node pairs."""
        return {frozenset(e) for e in self._directed} | set(self._undirected)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PDAG):
            return NotImplemented
        return (
            set(self._nodes) == set(other._nodes)
            and self._directed == other._directed
            and self._undirected == other._undirected
        )

    def __hash__(self) -> int:
        return hash(
            (
                frozenset(self._nodes),
                frozenset(self._directed),
                frozenset(self._undirected),
            )
        )

    def __repr__(self) -> str:
        return (
            f"PDAG({len(self._nodes)} nodes, {len(self._directed)} directed, "
            f"{len(self._undirected)} undirected)"
        )


def cpdag_from_dag(dag: DAG) -> PDAG:
    """The CPDAG of ``dag``'s Markov equivalence class.

    Start from the skeleton, direct exactly the v-structure edges, then
    close under Meek's rules; everything left undirected is reversible
    within the class (Verma & Pearl; Meek 1995).
    """
    directed: set[Edge] = set()
    for a, collider, b in dag.v_structures():
        directed.add((a, collider))
        directed.add((b, collider))
    undirected = {
        frozenset((p, c))
        for p, c in dag.edges()
        if (p, c) not in directed and (c, p) not in directed
    }
    pdag = PDAG(
        dag.nodes,
        directed,
        (tuple(sorted(e)) for e in undirected),
    )
    pdag.apply_meek_rules()
    return pdag
