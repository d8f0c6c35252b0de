"""Dependency models made of multiple undirected graphs.

A statement is satisfied when some member graph contains all of its elements
and witnesses the separation.  Transformations never mutate: they append the
transformed graph (deduplicated by canonical key), so the satisfied set can
only grow along a derivation.

Graphs are held in ``ugraph``'s packed form (``packed_graph``) over the
model's ``Universe``: node element masks and neighbour bitmasks.  This
module holds the one implementation of each graph move on that form, which
``Mug``, replay, script checks and search share; models deduplicate by
``ugraph.packed_key``, which is exact, and hold one ``ugraph.Floods``
record per graph, which decides every witness query and lists every
separation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Union

from .errors import StatementNotSatisfied, UnknownNode, WrongElementSet
from .model import CanonicalStatement, Universe, check_size
from .ugraph import (
    Floods,
    UGraph,
    element_key,
    element_neighbours,
    packed_graph,
    packed_key,
    reach,
    unpacked_graph,
)


class Mug:
    """An ordered, duplicate-free collection of packed undirected graphs."""

    __slots__ = ("_universe", "_packed", "_index", "_floods")

    def __init__(
        self,
        universe: Universe,
        graphs: Iterable[UGraph] = (),
        packed: Iterable[tuple[tuple, tuple]] = (),
    ):
        """The graphs, packed over the universe, then the ``packed`` graphs."""
        self._universe = universe
        self._packed: tuple[tuple[tuple, tuple], ...] = ()
        self._index: dict[tuple, int] = {}
        self._floods: list[Floods] = []
        for g in graphs:
            self._add(packed_graph(universe, g))
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
        universe = self._universe
        return tuple(unpacked_graph(universe, *g) for g in self._packed)

    def witness(self, s: CanonicalStatement) -> int | None:
        """Index of the first graph satisfying s, or None.

        A graph that does not contain every element of the statement is
        never a witness.
        """
        universe = self._universe
        try:
            x, z, y = universe.mask(s.x), universe.mask(s.z), universe.mask(s.y)
        except KeyError:  # an element outside the universe, so no graph holds it
            return None
        for i, floods in enumerate(self._floods):
            if floods.witnesses(x, z, y):
                return i
        return None

    def separates(self, gi: int, x: int, z: int, y: int) -> bool:
        """Whether graph gi witnesses the packed I(x, z, y)."""
        return self._floods[gi].witnesses(x, z, y)

    def enumerate_satisfied(self) -> frozenset:
        """All canonical statements over the universe satisfied by some graph.

        Generated graph by graph, not tested one by one: see ``separations``.
        """
        universe = self._universe
        check_size(universe)
        found: set[int] = set()
        for floods in self._floods:
            found.update(separations(universe, floods))
        return frozenset(map(universe.decode, found))

    def singletonized(self) -> "Mug":
        """This model with each graph as ``packed_singletons`` rebuilds it.

        That is the model itself when every graph is already so built, as
        every graph of an ``initial_mug`` model is.
        """
        if all(_singletons(nodes) for nodes, _ in self._packed):
            return self
        m = Mug(self._universe)
        for g in self._packed:
            m._add(packed_singletons(*g))
        return m

    def with_graph(self, g: UGraph) -> tuple["Mug", int]:
        """Append a graph, deduplicating by key; returns (mug, graph index)."""
        return self._appended(packed_graph(self._universe, g))

    def _add(self, graph: tuple[tuple, tuple]) -> int:
        """Add a packed graph in place unless its key is here; its index.

        An element key is the graph's ``packed_key``, and its record's
        element graph as well."""
        key = element_key(*graph)
        gi = self._index.setdefault(key or packed_key(*graph), len(self._packed))
        if gi == len(self._packed):
            self._packed += (graph,)
            self._floods.append(Floods(*graph, key))
        return gi

    def _appended(self, graph: tuple[tuple, tuple]) -> tuple["Mug", int]:
        """This model if it holds the packed graph's key, else a copy with it."""
        # The tables are copied: a sibling appended to this model puts
        # another graph at the same index.
        m = Mug.__new__(Mug)
        m._universe, m._packed = self._universe, self._packed
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


def packed_singletons(nodes: tuple, adj: tuple) -> tuple[tuple, tuple]:
    """One node per element, ids 0, 1, ... in element order, same element graph."""
    near = element_neighbours(nodes, adj)
    bits = sorted(near)
    position = {b: 1 << j for j, b in enumerate(bits)}
    out = []
    for a in bits:
        rest = near[a] & ~a
        mask = 0
        while rest:
            low = rest & -rest
            rest ^= low
            mask |= position[low]
        out.append(mask)
    return tuple(enumerate(bits)), tuple(out)


def _singletons(nodes: tuple) -> bool:
    """Whether nodes are as ``packed_singletons`` makes them: ids 0, 1, ...
    holding one element each, in element order.  Its adjacency then already
    is the element graph's."""
    below = 0
    for i, (n, m) in enumerate(nodes):
        if n != i or m & (m - 1) or m <= below:
            return False
        below = m
    return True


def separations(universe: Universe, floods: Floods) -> list[int]:
    """Every statement a packed graph witnesses, packed, from its ``Floods``.

    I(x, z, y) holds in g iff its elements lie in g and no connected
    component of the element graph minus z meets both x and y.  So for each
    z within g's elements, each component of g - z gives a non-empty subset
    of itself to x, to y, or nothing.  Each choice adds ``part << 2n`` or
    ``part`` to a packed statement, so the statements are the sums of one
    choice per component.  The first component (by lowest bit) that gives
    anything gives it to x, so each pair of sides is made once; a sum with
    y non-empty is kept, its sides swapped if y holds the lower lowest bit.
    """
    n, full = len(universe), universe.full
    shift = 2 * n
    members = floods.mask
    neighbours = floods.neighbours
    out = []
    z = 0
    while True:
        rest = members & ~z
        sums = []
        while rest:
            component = reach(neighbours, rest & -rest, z)
            rest &= ~component
            choices = []
            part = component
            while part:
                choices += (part << shift, part)
                part = (part - 1) & component
            # each sum so far takes one choice, or this is the first to give: to x
            sums += [s + c for s in sums for c in choices] + choices[::2]
        zn = z << n
        out += [
            (s if (x := s >> shift) & -x < y & -y else y << shift | x) | zn
            for s in sums
            if (y := s & full)
        ]
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

    A combination's statement must be a ``CanonicalStatement`` satisfied in
    the model (``TypeError`` for anything else), and its graph
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
    if not isinstance(s, CanonicalStatement):
        raise TypeError(f"not a canonical statement: {s!r}")
    if m.witness(s) is None:
        raise StatementNotSatisfied(f"model does not satisfy {s}")
    universe = m.universe
    x, z, y = universe.mask(s.x), universe.mask(s.z), universe.mask(s.y)
    inside = m._floods[gi].mask
    added = y if inside == x | z else x if inside == y | z else 0
    if not added:
        raise WrongElementSet(
            f"graph covers {sorted(universe.names(inside))}, not one side of {s} plus z"
        )
    return m._appended(packed_combination(nodes, adj, z, added))
