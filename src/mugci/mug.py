"""Dependency models made of multiple undirected graphs.

A statement is satisfied when some member graph contains all of its elements
and witnesses the separation.  Transformations never mutate: they append the
transformed graph (deduplicated by canonical key), so the satisfied set can
only grow along a derivation.

Graphs are packed (``packed_graph``) into node element masks and neighbour
bitmasks.  ``Mug``, replay, script checks, search and the closure's graph
intake share the one packed form of each graph move, the dedup key
(``packed_key``) and the mask flood behind every separation (``reach``, ``Floods``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Union

from .errors import StatementNotSatisfied, UnknownNode, WrongElementSet
from .model import (
    ENUMERATION_GUARD,
    CanonicalStatement,
    Encoding,
    Universe,
    check_size,
)
from .ugraph import UGraph


class Mug:
    """An ordered, duplicate-free collection of packed undirected graphs."""

    __slots__ = ("_universe", "_packed", "_masks", "_index", "_floods")

    def __init__(
        self,
        universe: Universe,
        graphs: Iterable[UGraph] = (),
        packed: Iterable[tuple[tuple, tuple]] = (),
    ):
        """The graphs, then the ``packed`` graphs over the universe's encoding."""
        self._universe = universe
        self._packed: tuple[tuple[tuple, tuple], ...] = ()
        self._masks: tuple[int, ...] = ()
        self._index: dict[tuple, int] = {}
        self._floods: list[Floods] = []
        for g in graphs:
            universe.require(g.elements)
            self._add(packed_graph(universe.encoding, g))
        for graph in packed:
            self._add(graph)

    @property
    def universe(self) -> Universe:
        return self._universe

    @property
    def packed(self) -> tuple[tuple[tuple, tuple], ...]:
        return self._packed

    @property
    def graphs(self) -> tuple[UGraph, ...]:
        """The graphs as ``UGraph`` objects, decoded on each call."""
        enc = self._universe.encoding
        return tuple(unpacked_graph(enc, *g) for g in self._packed)

    def witness(self, s: CanonicalStatement) -> int | None:
        """Index of the first graph satisfying s, or None.

        A graph that does not contain every element of the statement is
        never a witness.
        """
        enc = self._universe.encoding
        try:
            x, z, y = enc.mask(s.x), enc.mask(s.z), enc.mask(s.y)
        except KeyError:  # an element outside the universe, so no graph holds it
            return None
        needed = x | z | y
        for i, mask in enumerate(self._masks):
            if not needed & ~mask and self.separates(i, x, z, y):
                return i
        return None

    def separates(self, gi: int, x: int, z: int, y: int) -> bool:
        """Whether graph gi, which holds masks x, z and y, separates x from y by z."""
        return not self._floods[gi][x, z] & y

    def enumerate_satisfied(self) -> frozenset:
        """All canonical statements over the universe satisfied by some graph.

        Generated graph by graph, not tested one by one: see ``separations``.
        """
        check_size(self._universe, ENUMERATION_GUARD)
        enc = self._universe.encoding
        found: set[int] = set()
        for g in self._packed:
            found.update(separations(enc, *g))
        return frozenset(map(enc.decode, found))

    def singletonized(self) -> "Mug":
        """This model with each graph as ``packed_singletons`` rebuilds it."""
        m = Mug(self._universe)
        for g in self._packed:
            m._add(packed_singletons(*g))
        return m

    def with_graph(self, g: UGraph) -> tuple["Mug", int]:
        """Append a graph, deduplicating by key; returns (mug, graph index)."""
        self._universe.require(g.elements)
        return self._appended(packed_graph(self._universe.encoding, g))

    def _add(self, graph: tuple[tuple, tuple]) -> int:
        """Add a packed graph in place unless its key is here; its index."""
        gi = self._index.setdefault(packed_key(*graph), len(self._packed))
        if gi == len(self._packed):
            self._packed += (graph,)
            self._masks += (element_mask(graph[0]),)
            self._floods.append(Floods(*graph))
        return gi

    def _appended(self, graph: tuple[tuple, tuple]) -> tuple["Mug", int]:
        """This model if it holds the packed graph's key, else a copy with it."""
        # The tables are copied: a sibling appended to this model puts
        # another graph at the same index.
        m = Mug.__new__(Mug)
        m._universe, m._packed, m._masks = self._universe, self._packed, self._masks
        m._index, m._floods = dict(self._index), list(self._floods)
        gi = m._add(graph)
        return (self if gi < len(self._packed) else m), gi

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mug):
            return NotImplemented
        return self._universe == other._universe and self._packed == other._packed

    def __hash__(self) -> int:
        return hash((self._universe, self._packed))

    def __repr__(self) -> str:
        return f"Mug({len(self._packed)} graphs over {self._universe!r})"


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


def unpacked_graph(enc: Encoding, nodes: tuple, adj: tuple) -> UGraph:
    """The ``UGraph`` a packed graph stands for: ``packed_graph`` undone."""
    edges = [
        (nodes[i][0], nodes[j][0])
        for i, j in combinations(range(len(nodes)), 2)
        if adj[i] >> j & 1
    ]
    return UGraph({n: enc.names(m) for n, m in nodes}, edges)


def element_mask(nodes: tuple) -> int:
    """The mask of the elements a packed graph's nodes carry."""
    mask = 0
    for _, m in nodes:
        mask |= m
    return mask


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
    """Node deletion: the graph without the node at position i.

    Its neighbours, and every other node sharing an element with it (whose
    paths through it must stay), are pairwise connected first, so no
    separation appears that the graph did not have.  The positions above i
    move down by one.
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
    """Graph combination with I(x, z, y) of a graph over one side plus z.

    ``added`` is the other side: one single-element node per element, with
    ids from the largest id plus one in element order, cliqued together
    with every node that carries an element of z.
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


def packed_singletons(nodes: tuple, adj: tuple) -> tuple[tuple, tuple]:
    """One node per element, ids 0, 1, ... in element order, same element graph."""
    near = element_neighbours(nodes, adj)
    bits = sorted(near)
    adj = [sum(1 << j for j, b in enumerate(bits) if near[a] & ~a & b) for a in bits]
    return tuple(enumerate(bits)), tuple(adj)


class Floods(dict):
    """A packed graph's floods, ``reach`` by (start, blocked), kept once asked."""

    def __init__(self, nodes: tuple, adj: tuple):
        super().__init__()
        self.graph = nodes, adj
        self.neighbours = None

    def __missing__(self, key: tuple[int, int]) -> int:
        if self.neighbours is None:
            self.neighbours = element_neighbours(*self.graph)
        reached = self[key] = reach(self.neighbours, *key)
        return reached


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


def separations(enc: Encoding, nodes: tuple, adj: tuple) -> list[int]:
    """Every statement a packed graph witnesses, packed.

    I(x, z, y) holds in g iff its elements lie in g and no connected
    component of the element graph minus z meets both x and y.  So for each
    z within g's elements, each component of g - z gives a non-empty subset
    of itself to x, to y, or nothing; the side holding the lower lowest bit
    is x.
    """
    members = element_mask(nodes)
    neighbours = element_neighbours(nodes, adj)
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
    """Apply a transformation descriptor; returns (new mug, result graph index).

    A combination's statement must be satisfied in the model, and its graph
    cover exactly one side of the statement plus z.
    """
    if not isinstance(move, (Combine, Delete)):
        raise TypeError(f"not a transformation descriptor: {move!r}")
    gi = move.graph
    if not 0 <= gi < len(m._packed):
        raise IndexError(f"no graph at index {gi}")
    nodes, adj = m._packed[gi]
    if isinstance(move, Delete):
        ids = [n for n, _ in nodes]
        if move.node not in ids:
            raise UnknownNode(f"no node {move.node}")
        return m._appended(packed_deletion(nodes, adj, ids.index(move.node)))
    s = move.statement
    if m.witness(s) is None:
        raise StatementNotSatisfied(f"model does not satisfy {s}")
    enc = m.universe.encoding
    x, z, y = enc.mask(s.x), enc.mask(s.z), enc.mask(s.y)
    inside = m._masks[gi]
    added = y if inside == x | z else x if inside == y | z else 0
    if not added:
        raise WrongElementSet(
            f"graph covers {sorted(enc.names(inside))}, not one side of {s} plus z"
        )
    return m._appended(packed_combination(nodes, adj, z, added))
