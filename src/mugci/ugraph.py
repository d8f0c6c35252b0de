"""Undirected graphs whose nodes carry sets of elements.

Separation is always evaluated on the element graph: two elements are
adjacent iff they share a node or sit in adjacent nodes.  This single rule
covers plain graphs, multi-element nodes, and repeated elements uniformly.
Each graph builds its element adjacency once, from its nodes and edges, and
everything else reads it (``UGraph.element_adjacency``).  All
transformations are pure and return new graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class ElementGraph:
    """Simple graph with one vertex per element."""

    vertices: frozenset
    edges: frozenset


def _separated(adj: Mapping[str, set], x, z, y) -> bool:
    """True iff removing z leaves no path from any x-vertex to any y-vertex."""
    stack = list(x)
    visited = set(stack)
    while stack:
        v = stack.pop()
        if v in y:
            return False
        for nb in adj[v]:
            if nb not in z and nb not in visited:
                visited.add(nb)
                stack.append(nb)
    return True


def _as_edge(pair) -> frozenset:
    edge = frozenset(pair)
    if len(edge) != 2:
        raise SelfLoop(f"edge endpoints must differ: {sorted(pair)}")
    return edge


class UGraph:
    """Undirected graph over integer node ids, each holding an element set.

    Immutable: the element set and the element-graph adjacency are computed
    on first use and kept for every later query; the canonical key is
    computed on every call.
    """

    __slots__ = ("_nodes", "_edges", "_elements", "_adjacency")

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
        self._adjacency = None

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
        adj = self._element_adjacency()
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
        return _separated(self._element_adjacency(), x, z, y)

    def element_adjacency(self) -> Mapping[str, frozenset]:
        """Each element's neighbours in the element graph (read-only view)."""
        return MappingProxyType(self._element_adjacency())

    def _element_adjacency(self) -> dict[str, frozenset]:
        # A repeated element merges the neighbourhoods of its nodes.
        if self._adjacency is None:
            nodes = self._nodes
            adj = {e: set() for e in self.elements}
            for es in nodes.values():
                for e in es:
                    adj[e] |= es
            for n1, n2 in self._edges:
                for a in nodes[n1]:
                    adj[a] |= nodes[n2]
                for b in nodes[n2]:
                    adj[b] |= nodes[n1]
            self._adjacency = {e: frozenset(nbrs - {e}) for e, nbrs in adj.items()}
        return self._adjacency

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
        """Canonical serialization: the multisets of node element sets and of
        element-set pairs along edges.

        Isomorphic graphs have equal keys.  Equal keys need not mean
        isomorphic graphs when one element set sits on two nodes: edges 1–3,
        2–4 and edges 1–3, 1–4 over nodes 1={a} 2={a} 3={b} 4={c} agree.
        """
        labels = {n: tuple(sorted(es)) for n, es in self._nodes.items()}
        nodes_part = tuple(sorted(labels.values()))
        edges_part = tuple(
            sorted(tuple(sorted((labels[a], labels[b]))) for a, b in map(tuple, self._edges))
        )
        return nodes_part, edges_part

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UGraph):
            return NotImplemented
        return self._nodes == other._nodes and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((frozenset(self._nodes.items()), self._edges))

    def __repr__(self) -> str:
        nodes = "; ".join(
            f"{n}={{{','.join(sorted(es))}}}" for n, es in sorted(self._nodes.items())
        )
        edges = ", ".join(f"{a}-{b}" for a, b in sorted(map(lambda e: tuple(sorted(e)), self._edges)))
        return f"UGraph({nodes} | {edges})"
