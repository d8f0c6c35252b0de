"""Dependency models made of multiple undirected graphs.

A statement is satisfied when some member graph contains all of its elements
and witnesses the separation.  Transformations never mutate: they append the
transformed graph (deduplicated by canonical key), so the satisfied set can
only grow along a derivation.

The graph moves, node deletion and graph combination, live here in both
forms: on ``UGraph`` objects for replay and script checks, and packed
(``packed_graph``) for search.  Search and ``separations``, which the axiom
closure seeds itself from, share one element-neighbour-mask builder and one
mask flood (``reach``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Union

from .errors import StatementNotSatisfied, WrongElementSet
from .model import (
    ENUMERATION_GUARD,
    CanonicalStatement,
    Encoding,
    Universe,
    check_size,
)
from .ugraph import UGraph


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
            found.update(separations(enc, g))
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


def packed_graph(enc: Encoding, g: UGraph) -> tuple[tuple, tuple]:
    """A graph in packed form: ``(nodes, adj)``.

    ``nodes`` is a tuple of (node id, element mask) in id order; ``adj``
    gives each node's neighbours as a mask over those positions, so any
    node ids, negative or sparse, pack alike.  Two graphs are equal
    exactly when their packed forms are.
    """
    labels = g.nodes
    ids = sorted(labels)
    position = {n: i for i, n in enumerate(ids)}
    adj = [0] * len(ids)
    for a, b in map(tuple, g.edges):
        adj[position[a]] |= 1 << position[b]
        adj[position[b]] |= 1 << position[a]
    return tuple((n, enc.mask(labels[n])) for n in ids), tuple(adj)


def packed_key(nodes: tuple, adj: tuple) -> tuple:
    """The multiset of node masks and of the mask pairs along edges.

    Masks stand for element sets one to one, so two graphs over the same
    encoding have equal packed keys exactly when ``UGraph.key`` is equal.
    Like that key, equal packed keys need not mean isomorphic graphs when
    one element set sits on two nodes.
    """
    masks = [m for _, m in nodes]
    pairs = []
    for i, nbrs in enumerate(adj):
        a = masks[i]
        later = nbrs >> i + 1 << i + 1  # each edge once, from its lower end
        while later:
            low = later & -later
            later ^= low
            b = masks[low.bit_length() - 1]
            pairs.append((a, b) if a <= b else (b, a))
    masks.sort()
    pairs.sort()
    return tuple(masks), tuple(pairs)


def packed_deletion(nodes: tuple, adj: tuple, i: int) -> tuple[tuple, tuple]:
    """``UGraph.delete_node`` of the node at position i, packed.

    Its neighbours, and every other node sharing an element with it, are
    pairwise connected, then the position is dropped: the positions above
    it move down by one.
    """
    bit = 1 << i
    below = bit - 1
    filled = adj[i]
    mask = nodes[i][1]
    for j, (_, m) in enumerate(nodes):
        if m & mask and j != i:
            filled |= 1 << j
    out = []
    for j, nbrs in enumerate(adj):
        if j != i:
            if filled >> j & 1:
                nbrs = (nbrs | filled) & ~(1 << j)
            out.append(nbrs & below | nbrs >> 1 & ~below)
    return nodes[:i] + nodes[i + 1 :], tuple(out)


def packed_combination(
    nodes: tuple, adj: tuple, z: int, added: int
) -> tuple[tuple, tuple]:
    """``combination_graph`` packed: ``added`` is the side the graph lacks.

    One single-element node per added element, with ids from the largest
    id plus one in element order, cliqued together with every node that
    carries an element of z.
    """
    clique = 0
    for i, (_, m) in enumerate(nodes):
        if m & z:
            clique |= 1 << i
    grown = list(nodes)
    next_id = nodes[-1][0] + 1
    while added:
        bit = added & -added
        added ^= bit
        clique |= 1 << len(grown)
        grown.append((next_id, bit))
        next_id += 1
    out = list(adj) + [0] * (len(grown) - len(adj))
    rest = clique
    while rest:
        bit = rest & -rest
        rest ^= bit
        j = bit.bit_length() - 1
        out[j] |= clique ^ bit
    return tuple(grown), tuple(out)


def element_neighbours(nodes: tuple, adj: tuple) -> dict[int, int]:
    """Each element's bit mapped to the mask of its element-graph neighbours.

    Each element's own bit is included: ``reach`` never returns to what it
    has reached, so the extra bit is harmless.
    """
    out: dict[int, int] = {}
    for (_, m), nbrs in zip(nodes, adj):
        near = m
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            near |= nodes[low.bit_length() - 1][1]
        while m:
            bit = m & -m
            m ^= bit
            out[bit] = out.get(bit, 0) | near
    return out


def reach(neighbours: dict[int, int], start: int, blocked: int) -> int:
    """Mask of what ``element_neighbours`` connects to ``start`` outside ``blocked``."""
    reached = frontier = start
    while frontier:
        bit = frontier & -frontier
        frontier ^= bit
        new = neighbours[bit] & ~(blocked | reached)
        reached |= new
        frontier |= new
    return reached


def separations(enc: Encoding, g: UGraph) -> list[int]:
    """Every statement the graph witnesses, packed.

    I(x, z, y) holds in g iff its elements lie in g and no connected
    component of the element graph minus z meets both x and y.  So for each
    z within g's elements, each component of g - z gives a non-empty subset
    of itself to x, to y, or nothing; the side holding the lower lowest bit
    is x.
    """
    members = enc.mask(g.elements)
    neighbours = element_neighbours(*packed_graph(enc, g))
    out = []
    z = 0
    while True:
        rest = members & ~z
        pairs = [(0, 0)]
        while rest:
            component = reach(neighbours, rest & -rest, z)
            rest &= ~component
            parts = []
            part = component
            while part:
                parts.append(part)
                part = (part - 1) & component
            pairs += [(x | part, y) for x, y in pairs for part in parts] + [
                (x, y | part) for x, y in pairs for part in parts
            ]
        out.extend(
            enc.pack(x, z, y) for x, y in pairs if x and y and x & -x < y & -y
        )
        if z == members:
            return out
        z = (z - members) & members


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


@dataclass(frozen=True)
class Delete:
    graph: int
    node: int


@dataclass(frozen=True)
class Combine:
    statement: CanonicalStatement
    graph: int


Move = Union[Delete, Combine]


def append_transformed(m: Mug, move: Move) -> tuple[Mug, int]:
    """Apply a transformation descriptor; returns (new mug, result graph index)."""
    if isinstance(move, Combine):
        return m.combined(move.statement, move.graph)
    if isinstance(move, Delete):
        return m.with_graph(m._graph_at(move.graph).delete_node(move.node))
    raise TypeError(f"not a transformation descriptor: {move!r}")
