"""The object layer that ``Mug`` ran on before it held packed graphs.

A verbatim copy of that ``Mug``, ``combination_graph``,
``append_transformed`` and ``UGraph.delete_node``, kept as the reference
that ``mugci.mug`` and its packed moves are checked against.  Three lines
differ from the original: ``delete_node`` is a function of its graph
(dedented, with ``self`` kept), so ``append_transformed`` calls it as one,
and ``enumerate_satisfied`` packs each graph for ``separations``, which now
takes a packed graph.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from mugci import CanonicalStatement, UGraph, Universe
from mugci.errors import StatementNotSatisfied, UnknownNode, WrongElementSet
from mugci.model import ENUMERATION_GUARD, check_size
from mugci.mug import Combine, Delete, Move, packed_graph, separations


class Mug:
    """An ordered, duplicate-free collection of undirected graphs."""

    __slots__ = ("_universe", "_graphs", "_index")

    def __init__(self, universe: Universe, graphs: Iterable[UGraph] = ()):
        self._universe = universe
        self._graphs: tuple[UGraph, ...] = ()
        self._index: dict[tuple, int] = {}
        for g in graphs:
            universe.require(g.elements)
            key = g.key()
            if key not in self._index:
                self._index[key] = len(self._graphs)
                self._graphs = self._graphs + (g,)

    @property
    def universe(self) -> Universe:
        return self._universe

    @property
    def graphs(self) -> tuple[UGraph, ...]:
        return self._graphs

    def witness(self, s: CanonicalStatement) -> int | None:
        """Index of the first graph satisfying s, or None.

        A graph that does not contain every element of the statement is
        never a witness.
        """
        needed = s.elements
        for i, g in enumerate(self._graphs):
            if needed <= g.elements and g.separates(s.x, s.z, s.y):
                return i
        return None

    def enumerate_satisfied(self) -> frozenset:
        """All canonical statements over the universe satisfied by some graph.

        Generated graph by graph, not tested one by one: see ``separations``.
        """
        check_size(self._universe, ENUMERATION_GUARD)
        enc = self._universe.encoding
        found: set[int] = set()
        for g in self._graphs:
            found.update(separations(enc, *packed_graph(enc, g)))
        return frozenset(map(enc.decode, found))

    def with_graph(self, g: UGraph) -> tuple["Mug", int]:
        """Append a graph, deduplicating by key; returns (mug, graph index)."""
        key = g.key()
        existing = self._index.get(key)
        if existing is not None:
            return self, existing
        # Only the new graph needs checking: the parent's graphs and their
        # keys carry over as they are.
        self._universe.require(g.elements)
        gi = len(self._graphs)
        m = Mug.__new__(Mug)
        m._universe = self._universe
        m._graphs = self._graphs + (g,)
        m._index = {**self._index, key: gi}
        return m, gi

    def _graph_at(self, gi: int) -> UGraph:
        if not 0 <= gi < len(self._graphs):
            raise IndexError(f"no graph at index {gi}")
        return self._graphs[gi]

    def combined(self, s: CanonicalStatement, gi: int) -> tuple["Mug", int]:
        """Graph combination: the one transformation that adds statements.

        Requires s to be satisfied somewhere in the model; the appended
        graph is ``combination_graph(graph gi, s)``.
        """
        base = self._graph_at(gi)
        if self.witness(s) is None:
            raise StatementNotSatisfied(f"model does not satisfy {s}")
        return self.with_graph(combination_graph(base, s))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mug):
            return NotImplemented
        return self._universe == other._universe and self._graphs == other._graphs

    def __hash__(self) -> int:
        return hash((self._universe, self._graphs))

    def __repr__(self) -> str:
        return f"Mug({len(self._graphs)} graphs over {self._universe!r})"


def combination_graph(base: UGraph, s: CanonicalStatement) -> UGraph:
    """The graph that combining ``base`` with a satisfied statement s adds.

    ``base`` must cover exactly one side of s plus its conditioning set.
    The new graph copies it, adds a fresh single-element node for each
    element of the other side, and cliques those new nodes together with
    every node carrying a conditioning element.
    """
    elements = base.elements
    if elements == s.x | s.z:
        added_side = s.y
    elif elements == s.y | s.z:
        added_side = s.x
    else:
        raise WrongElementSet(
            f"graph covers {sorted(elements)}, not one side of {s} plus z"
        )
    nodes = base.nodes
    edges = set(base.edges)
    anchors = [n for n in sorted(nodes) if nodes[n] & s.z]
    next_id = max(nodes, default=-1) + 1
    new_ids = []
    for e in sorted(added_side):
        nodes[next_id] = frozenset((e,))
        new_ids.append(next_id)
        next_id += 1
    for a, b in combinations(new_ids + anchors, 2):
        edges.add(frozenset((a, b)))
    return UGraph(nodes, edges)


def delete_node(self: UGraph, n: int) -> UGraph:
    """Remove a node after pairwise connecting its former neighbors.

    Every other node sharing an element with it counts as a neighbor:
    such an element stays in the graph, and its paths through the node
    must stay too.  The fill-in keeps every path that ran through the
    deleted node, so no separation appears that the original graph did
    not have.
    """
    if n not in self._nodes:
        raise UnknownNode(f"no node {n}")
    es = self._nodes[n]
    sharing = {k for k, v in self._nodes.items() if k != n and v & es}
    nbrs = sorted(self.neighbors(n) | sharing)
    edges = {e for e in self._edges if n not in e}
    edges.update(frozenset((a, b)) for a, b in combinations(nbrs, 2))
    nodes = {k: v for k, v in self._nodes.items() if k != n}
    return UGraph(nodes, edges)


def append_transformed(m: Mug, move: Move) -> tuple[Mug, int]:
    """Apply a transformation descriptor; returns (new mug, result graph index)."""
    if isinstance(move, Combine):
        return m.combined(move.statement, move.graph)
    if isinstance(move, Delete):
        return m.with_graph(delete_node(m._graph_at(move.graph), move.node))
    raise TypeError(f"not a transformation descriptor: {move!r}")
