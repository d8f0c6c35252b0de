"""Undirected graphs whose nodes carry sets of elements, and their packed form.

Separation is always evaluated on the element graph: two elements are
adjacent iff they share a node or sit in adjacent nodes.  This single rule
covers plain graphs, multi-element nodes, and repeated elements uniformly.

A graph is packed (``packed_graph``) over a ``Universe`` into node element
masks and neighbour bitmasks.  This module holds the one implementation of
the packed form, the element graph built from it (``element_neighbours``),
the mask flood behind every separation (``reach``), the one exact graph key
(``packed_key``) and ``Floods``, the one record of what a packed graph
derives, which holds the one witness rule.  A graph whose nodes each carry
one element of their own is its element graph: its key (``element_key``)
is that graph, and ``element_deletion`` and ``element_combination`` move it
as mask updates.  A ``UGraph`` packs itself once, over a universe of its
own sorted elements, into a ``Floods``; ``mug``, ``graphoid`` and
``derivation`` hold one per graph.  All transformations are pure and
return new graphs.
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

    Immutable: the element set, the packed form, a ``Floods`` record, and
    the key are computed on first use and kept for every later query.
    """

    __slots__ = ("_nodes", "_edges", "_elements", "_packed", "_key")

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
        self._key = None

    @classmethod
    def from_singletons(cls, elements: Iterable[str], element_edges: Iterable = ()):
        """Build a one-element-per-node graph; ids follow sorted element order.

        UnknownElement names every edge endpoint outside the elements."""
        names = sorted(set(elements))
        pairs = [tuple(pair) for pair in element_edges]
        Universe._from_sorted(names).require(e for pair in pairs for e in pair)
        ids = {e: i for i, e in enumerate(names)}
        return cls({ids[e]: {e} for e in names}, [(ids[a], ids[b]) for a, b in pairs])

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
        universe, packed = self._packed_form()
        mask = universe.mask
        return packed.witnesses(mask(x), mask(z), mask(y))

    def element_adjacency(self) -> Mapping[str, frozenset]:
        """Each element's neighbours in the element graph (read-only view)."""
        universe, packed = self._packed_form()
        neighbours = packed.neighbours
        names = universe.names
        return MappingProxyType(
            {e: names(neighbours[bit] & ~bit) for e, bit in universe.bits.items()}
        )

    def _packed_form(self) -> tuple[Universe, Floods]:
        """The universe of the graph's elements, whose names are not checked,
        and the graph's ``Floods`` over it, built on first use."""
        if self._packed is None:
            universe = Universe._from_sorted(sorted(self.elements))
            self._packed = universe, Floods(*packed_graph(universe, self))
        return self._packed

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
        over them.  Two graphs have equal keys exactly when they are
        isomorphic: some bijection of their nodes keeps every node's
        element set and every edge.
        """
        if self._key is None:
            universe, packed = self._packed_form()
            key = element_key(packed.nodes, packed.adj, packed)
            self._key = universe.elements, key or packed_key(packed.nodes, packed.adj)
        return self._key

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
    """The exact key of a packed graph: over one universe, two graphs have
    equal keys exactly when some bijection of their nodes keeps every
    node's element set and every edge.

    Every key starts with the graph's element mask.  A graph whose nodes
    each carry one element of their own is keyed by its ``element_key``.
    Any other graph is keyed by its element mask, its node masks in sorted
    order and the edges between their places, nodes that share a mask put
    in a canonical order (``_tied_order``).  So keys of either kind compare,
    and never equal one of the other kind.
    """
    key = element_key(nodes, adj)
    if key is not None:
        return key
    masks = [m for _, m in nodes]
    if len(set(masks)) < len(masks):
        order = _tied_order(masks, adj)
    else:
        order = sorted(range(len(masks)), key=masks.__getitem__)
    return element_mask(nodes), tuple(masks[i] for i in order), _placed_edges(adj, order)


def _placed_edges(adj: tuple, order: list[int]) -> tuple:
    """The sorted edges as pairs of places, node ``order[p]`` at place p."""
    place = [0] * len(order)
    for p, i in enumerate(order):
        place[i] = p
    pairs = []
    for i, nbrs in enumerate(adj):
        a = place[i]
        later = nbrs >> i + 1 << i + 1  # each edge once, from its lower end
        while later:
            low = later & -later
            later ^= low
            b = place[low.bit_length() - 1]
            pairs.append((a, b) if a < b else (b, a))
    pairs.sort()
    return tuple(pairs)


def _tied_order(masks: list[int], adj: tuple) -> list[int]:
    """The node order, by mask, whose ``_placed_edges`` is least.

    Colour refinement splits the nodes that share a mask by their
    neighbours' colours; each class still tied is split by trying each of
    its nodes first, in turn, and refining again.  Of two nodes whose
    neighbours agree but for each other only one is tried, since swapping
    them maps each try onto the other.
    """
    neighbours = [[j for j in range(len(masks)) if nbrs >> j & 1] for nbrs in adj]

    def refined(colours: list) -> list:
        while True:
            signs = [
                (c, tuple(sorted(colours[j] for j in near)))
                for c, near in zip(colours, neighbours)
            ]
            rank = {sign: r for r, sign in enumerate(sorted(set(signs)))}
            split = len(rank) > len(set(colours))
            colours = [rank[sign] for sign in signs]
            if not split:
                return colours

    def least(colours: list) -> tuple[tuple, list[int]]:
        colours = refined(colours)
        tied = [c for c in set(colours) if colours.count(c) > 1]
        if not tied:
            order = sorted(range(len(colours)), key=colours.__getitem__)
            return _placed_edges(adj, order), order
        c = min(tied)
        best = None
        tried: list[int] = []
        for v, cv in enumerate(colours):
            if cv != c or any(
                adj[v] & ~(1 << u) == adj[u] & ~(1 << v) for u in tried
            ):
                continue
            tried.append(v)
            # v first in its class: every colour doubles, the rest of v's
            # class one above it
            found = least([2 * k + (k == c and i != v) for i, k in enumerate(colours)])
            if best is None or found[0] < best[0]:
                best = found
        return best

    ranks = {m: r for r, m in enumerate(sorted(set(masks)))}
    return least([ranks[m] for m in masks])[1]


def element_key(
    nodes: tuple, adj: tuple, floods: Floods | None = None
) -> tuple[int, tuple] | None:
    """A graph's element key, if each node carries one element of its own.

    The key is ``(element mask, near)``, ``near`` giving each element's
    ``element_neighbours`` mask, its own bit included, in element order.
    Such a graph's node graph is its element graph, so over one universe
    two such graphs have equal element keys exactly when they are
    isomorphic.  A graph in this element form, its nodes and the two parts
    of its key, is moved by ``element_deletion`` and ``element_combination``.
    The element graph is read from the graph's ``floods`` record if given.
    """
    mask = 0
    for _, m in nodes:
        if m & (m - 1) or m & mask:
            return None
        mask |= m
    near = element_neighbours(nodes, adj) if floods is None else floods.neighbours
    return mask, tuple([near[bit] for bit in sorted(near)])


def element_deletion(
    nodes: tuple, mask: int, near: tuple, i: int
) -> tuple[tuple, int, tuple]:
    """``packed_deletion`` of the node at position i of a graph in element
    form: the node's element leaves, and its neighbour mask joins each
    neighbour's."""
    bit = nodes[i][1]
    k = (mask & (bit - 1)).bit_count()
    joined = near[k]
    rest = near[:k] + near[k + 1 :]
    return (
        nodes[:i] + nodes[i + 1 :],
        mask ^ bit,
        tuple([(n | joined) ^ bit if n & bit else n for n in rest]),
    )


def element_combination(
    nodes: tuple, mask: int, near: tuple, z: int, added: int
) -> tuple[tuple, int, tuple]:
    """``packed_combination`` of a graph in element form: z and the
    ``added`` elements become a clique, and the added elements' nodes get
    the next ids in element order."""
    clique = z | added
    out = []
    old = iter(near)
    rest = mask | added
    while rest:
        bit = rest & -rest
        rest ^= bit
        if bit & added:
            out.append(clique)
        else:
            n = next(old)
            out.append(n | clique if bit & z else n)
    grown = list(nodes)
    next_id = nodes[-1][0] + 1
    while added:
        bit = added & -added
        added ^= bit
        grown.append((next_id, bit))
        next_id += 1
    return tuple(grown), mask | clique, tuple(out)


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


class Floods(dict):
    """What a packed graph derives: its element mask, its element graph
    (``neighbours``) and, as a dict, its floods, ``reach`` by (start,
    blocked), each kept once asked.

    Given the graph's ``element_key``, it keeps the key's ``near``.  The
    element graph is built on first read, from ``near`` if kept.
    """

    __slots__ = ("nodes", "adj", "mask", "near", "_neighbours")

    def __init__(self, nodes: tuple, adj: tuple | None, key: tuple | None = None):
        self.nodes, self.adj, self._neighbours = nodes, adj, None
        self.mask, self.near = (element_mask(nodes), None) if key is None else key

    @property
    def neighbours(self) -> dict[int, int]:
        if self._neighbours is None:
            if self.near is None:
                self._neighbours = element_neighbours(self.nodes, self.adj)
            else:  # a node per element, so its mask's bits in element order
                self._neighbours = dict(zip(sorted([m for _, m in self.nodes]), self.near))
        return self._neighbours

    def __missing__(self, key: tuple[int, int]) -> int:
        reached = self[key] = reach(self.neighbours, *key)
        return reached

    def witnesses(self, x: int, z: int, y: int) -> bool:
        """Whether the graph holds x, z and y, and x's flood outside z misses y."""
        return not (x | z | y) & ~self.mask and not self[x, z] & y
