"""Undirected graphs whose nodes carry sets of elements, and their packed form.

Separation is always evaluated on the element graph: two elements are
adjacent iff they share a node or sit in adjacent nodes.  This single rule
covers plain graphs, multi-element nodes, and repeated elements uniformly.

A graph is packed (``packed_graph``) over a ``Universe`` into node element
masks and neighbour bitmasks.  This module holds the one implementation of
the packed form, the element graph built from it (``element_neighbours``),
the mask flood behind every separation (``reach``) and the graph key
(``packed_key``).  A ``UGraph`` packs itself once, over a universe of its
own sorted elements, and answers its queries from that form; ``mug``,
``derivation`` and ``dsep`` use the same functions.  All transformations
are pure and return new graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (
    CoverageGap,
    EmptyPart,
    InvalidOverlap,
    MissingElements,
    SameNode,
    SelfLoop,
    UnknownNode,
)
from .model import Universe, format_set


@dataclass(frozen=True)
class ElementGraph:
    """Simple graph with one vertex per element."""

    vertices: frozenset
    edges: frozenset


def _as_edge(pair) -> frozenset:
    edge = frozenset(pair)
    if len(edge) != 2:
        raise SelfLoop(f"edge endpoints must differ: {sorted(pair)}")
    return edge


class UGraph:
    """Undirected graph over integer node ids, each holding an element set.

    Immutable: the element set and the packed form, with its element graph,
    are computed on first use and kept for every later query.
    """

    __slots__ = ("_nodes", "_edges", "_elements", "_packed", "_neighbours")

    def __init__(self, nodes: Mapping[int, Iterable[str]], edges: Iterable = ()):
        node_map = {int(n): frozenset(es) for n, es in nodes.items()}
        for n, es in node_map.items():
            if not es:
                raise ValueError(f"node {n} carries no elements")
        edge_set = set()
        for pair in edges:
            edge = _as_edge(pair)
            for endpoint in edge:
                if endpoint not in node_map:
                    raise UnknownNode(f"edge endpoint {endpoint} is not a node")
            edge_set.add(edge)
        self._nodes = node_map
        self._edges = frozenset(edge_set)
        self._elements = None
        self._packed = None
        self._neighbours = None

    @classmethod
    def from_singletons(cls, elements: Iterable[str], element_edges: Iterable = ()):
        """Build a one-element-per-node graph; ids follow sorted element order."""
        names = sorted(set(elements))
        ids = {e: i for i, e in enumerate(names)}
        edges = [(ids[a], ids[b]) for a, b in element_edges]
        return cls({ids[e]: {e} for e in names}, edges)

    @property
    def nodes(self) -> dict[int, frozenset]:
        return dict(self._nodes)

    @property
    def edges(self) -> frozenset:
        return self._edges

    @property
    def elements(self) -> frozenset:
        if self._elements is None:
            self._elements = frozenset().union(*self._nodes.values())
        return self._elements

    def node_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._nodes))

    def neighbors(self, n: int) -> frozenset:
        if n not in self._nodes:
            raise UnknownNode(f"no node {n}")
        return frozenset(next(iter(e - {n})) for e in self._edges if n in e)

    def _fresh_id(self) -> int:
        return max(self._nodes, default=-1) + 1

    def expand(self) -> ElementGraph:
        """Collapse to one vertex per element, edges from the element adjacency."""
        adj = self.element_adjacency()
        edges = frozenset(frozenset((a, b)) for a in adj for b in adj[a])
        return ElementGraph(self.elements, edges)

    def separates(self, x: Iterable[str], z: Iterable[str], y: Iterable[str]) -> bool:
        """Whether z blocks every element-graph path between x and y.

        Expects a canonicalized triple whose elements all occur in the graph.
        """
        x, z, y = frozenset(x), frozenset(z), frozenset(y)
        missing = (x | z | y) - self.elements
        if missing:
            raise MissingElements(f"graph lacks {', '.join(sorted(missing))}")
        if x & y or x & z or y & z:
            raise InvalidOverlap("separation queries take a canonicalized triple")
        mask = self._packed_form()[0].mask
        return not reach(self._element_neighbours(), mask(x), mask(z)) & mask(y)

    def element_adjacency(self) -> Mapping[str, frozenset]:
        """Each element's neighbours in the element graph (read-only view)."""
        universe = self._packed_form()[0]
        neighbours = self._element_neighbours()
        names = universe.names
        return MappingProxyType(
            {e: names(neighbours[bit] & ~bit) for e, bit in universe.bits.items()}
        )

    def _packed_form(self) -> tuple[Universe, tuple, tuple]:
        """The universe of the graph's elements and the graph packed over
        it, built on first use.

        The names are not checked: a graph may carry any strings.
        """
        if self._packed is None:
            universe = Universe._from_sorted(sorted(self.elements))
            self._packed = universe, *packed_graph(universe, self)
        return self._packed

    def _element_neighbours(self) -> dict[int, int]:
        """The packed form's ``element_neighbours``, built on first read."""
        if self._neighbours is None:
            self._neighbours = element_neighbours(*self._packed_form()[1:])
        return self._neighbours

    def add_arcs(self, arcs: Iterable) -> "UGraph":
        """Return a copy with the given node-id pairs added as edges."""
        new_edges = set(self._edges)
        for pair in arcs:
            edge = _as_edge(pair)
            for endpoint in edge:
                if endpoint not in self._nodes:
                    raise UnknownNode(f"no node {endpoint}")
            new_edges.add(edge)
        return UGraph(self._nodes, new_edges)

    def merge_nodes(self, n1: int, n2: int) -> "UGraph":
        """Replace two nodes by one carrying the union of their elements."""
        if n1 == n2:
            raise SameNode("merge requires two distinct nodes")
        for n in (n1, n2):
            if n not in self._nodes:
                raise UnknownNode(f"no node {n}")
        merged = self._fresh_id()
        nbrs = (self.neighbors(n1) | self.neighbors(n2)) - {n1, n2}
        nodes = {k: v for k, v in self._nodes.items() if k not in (n1, n2)}
        nodes[merged] = self._nodes[n1] | self._nodes[n2]
        edges = {e for e in self._edges if n1 not in e and n2 not in e}
        edges.update(frozenset((merged, v)) for v in nbrs)
        return UGraph(nodes, edges)

    def split_node(self, n: int, part1: Iterable[str], part2: Iterable[str]) -> "UGraph":
        """Replace a node by two adjacent parts that jointly cover it.

        Parts may overlap; both inherit every former neighbor, and the edge
        between them keeps shared elements on a common path.
        """
        if n not in self._nodes:
            raise UnknownNode(f"no node {n}")
        p1, p2 = frozenset(part1), frozenset(part2)
        if not p1 or not p2:
            raise EmptyPart("both split parts must be non-empty")
        if p1 | p2 != self._nodes[n]:
            raise CoverageGap("split parts must cover the node's elements exactly")
        a = self._fresh_id()
        b = a + 1
        nbrs = self.neighbors(n)
        nodes = {k: v for k, v in self._nodes.items() if k != n}
        nodes[a] = p1
        nodes[b] = p2
        edges = {e for e in self._edges if n not in e}
        edges.add(frozenset((a, b)))
        for v in nbrs:
            edges.add(frozenset((a, v)))
            edges.add(frozenset((b, v)))
        return UGraph(nodes, edges)

    def key(self) -> tuple:
        """Canonical serialization: the sorted elements and the ``packed_key``
        over them, the multisets of node element sets and of element-set
        pairs along edges.

        Isomorphic graphs have equal keys.  Equal keys need not mean
        isomorphic graphs when one element set sits on two nodes: edges 1–3,
        2–4 and edges 1–3, 1–4 over nodes 1={a} 2={a} 3={b} 4={c} agree.
        """
        universe, nodes, adj = self._packed_form()
        return universe.elements, packed_key(nodes, adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UGraph):
            return NotImplemented
        return self._nodes == other._nodes and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((frozenset(self._nodes.items()), self._edges))

    def __repr__(self) -> str:
        nodes = "; ".join(f"{n}={format_set(es)}" for n, es in sorted(self._nodes.items()))
        edges = ", ".join(f"{a}-{b}" for a, b in sorted(map(lambda e: tuple(sorted(e)), self._edges)))
        return f"UGraph({nodes} | {edges})"


def packed_graph(universe: Universe, g: UGraph) -> tuple[tuple, tuple]:
    """A graph in packed form over the universe: ``(nodes, adj)``.

    ``nodes`` is a tuple of (node id, element mask) in id order; ``adj``
    gives each node's neighbours as a mask over those positions, so any
    node ids, negative or sparse, pack alike.  Two graphs are equal
    exactly when their packed forms are.  Raises UnknownElement unless
    the universe holds every element of the graph.
    """
    universe.require(g.elements)
    labels = g.nodes
    ids = sorted(labels)
    position = {n: i for i, n in enumerate(ids)}
    adj = [0] * len(ids)
    for a, b in map(tuple, g.edges):
        adj[position[a]] |= 1 << position[b]
        adj[position[b]] |= 1 << position[a]
    return tuple((n, universe.mask(labels[n])) for n in ids), tuple(adj)


def unpacked_graph(universe: Universe, nodes: tuple, adj: tuple) -> UGraph:
    """The ``UGraph`` a packed graph stands for: ``packed_graph`` undone."""
    edges = [
        (nodes[i][0], nodes[j][0])
        for i, j in combinations(range(len(nodes)), 2)
        if adj[i] >> j & 1
    ]
    return UGraph({n: universe.names(m) for n, m in nodes}, edges)


def element_mask(nodes: tuple) -> int:
    """The mask of the elements a packed graph's nodes carry."""
    mask = 0
    for _, m in nodes:
        mask |= m
    return mask


def packed_key(nodes: tuple, adj: tuple) -> tuple:
    """The multiset of node masks and of the mask pairs along edges.

    Masks stand for element sets one to one, so over one universe two
    graphs have equal packed keys exactly when they have the same multisets
    of node element sets and of element-set pairs along edges.  Equal
    packed keys need not mean isomorphic graphs when one element set sits
    on two nodes (see ``UGraph.key``).
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
