"""Directed models, deterministic propagation, moral graphs, and join trees.

A ``DiGraph`` is held as bitmasks over its ``Universe``: each element's
parents and children as masks, keyed by the element's bit, the
deterministic elements as one mask, and a topological order of the bits.

The separation test for a directed graph runs in four stages: prune to the
query elements and their ancestors, reroute the children of unobserved
deterministic elements to draw from their parents instead, moralize, and
test plain separation in the resulting undirected graph.  All four are mask
operations on the parent index, the last being the flood ``ugraph.reach``,
so ``d_separated`` builds no intermediate graph.

The moral graph (``moral_graph``) and join trees (``join_tree_masks``) are
built in ``ugraph``'s packed form, which the CLI prints as it is;
``moralize`` and ``build_join_tree`` decode the same masks into objects.
Join trees are checked with the same flood over masks of cluster positions.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping

from .errors import CyclicGraph, InvalidOrder, ModelError
from .model import (
    TRIVIALLY_TRUE,
    Statement,
    Universe,
    format_set,
)
from .ugraph import UGraph, reach, unpacked_graph


class DiGraph:
    """Acyclic directed graph over elements, with a deterministic-node flag."""

    __slots__ = ("_universe", "_parents", "_children", "_det", "_order")

    def __init__(
        self,
        universe: Universe,
        arcs: Iterable[tuple[str, str]] = (),
        deterministic: Iterable[str] = (),
    ):
        self._universe = universe
        bits = universe.bits
        parents = dict.fromkeys(bits.values(), 0)
        children = parents.copy()
        for a, b in arcs:
            try:
                pa, pb = bits[a], bits[b]
            except KeyError:  # require() raises, naming every unknown endpoint
                universe.require((a, b))
            if pa == pb:
                raise CyclicGraph(f"self-arc on {a}")
            parents[pb] |= pa
            children[pa] |= pb
        det = frozenset(deterministic)
        universe.require(det)
        self._det = universe.mask(det)
        self._parents = parents
        self._children = children
        self._order = _toposort(parents, children)

    @property
    def universe(self) -> Universe:
        return self._universe

    @property
    def arcs(self) -> frozenset:
        return frozenset(self._named_arcs(self._parents))

    @property
    def deterministic(self) -> frozenset:
        return self._universe.names(self._det)

    def parents(self, v: str) -> frozenset:
        universe = self._universe
        universe.require((v,))
        return universe.names(self._parents[universe.bits[v]])

    def ancestral_prune(self, keep: Iterable[str]) -> "DiGraph":
        """Induced subgraph on keep plus all of its ancestors."""
        keep = frozenset(keep)
        universe = self._universe
        universe.require(keep)
        kept, parents = self._ancestral(universe.mask(keep))
        return DiGraph(
            Universe(universe.names(kept)),
            self._named_arcs(parents),
            universe.names(self._det & kept),
        )

    def det_propagate(self, z: Iterable[str]) -> "DiGraph":
        """Reroute children of unobserved deterministic elements.

        Each deterministic element outside z has every outgoing arc replaced
        by arcs from its current parents, so earlier propagations cascade
        into later ones.  Observed deterministic elements (members of z) are
        left untouched; a graph with nothing to reroute is returned as it is.
        """
        z = frozenset(z)
        universe = self._universe
        observed = universe.mask(e for e in z if e in universe)
        if not self._det & ~observed:
            return self
        parents = self._rerouted(dict(self._parents), universe.full, observed)
        return DiGraph(universe, self._named_arcs(parents), self.deterministic)

    def moral_graph(self) -> tuple[tuple, tuple]:
        """The moral graph, packed over the universe as ``packed_graph``
        packs a graph: node i holds element i."""
        near = _moral_neighbours(self._parents)
        return tuple(enumerate(near)), tuple(ns & ~v for v, ns in near.items())

    def moralize(self) -> UGraph:
        """Drop arc directions and marry every pair of co-parents.

        Node ids follow element order, as in ``UGraph.from_singletons``.
        """
        return unpacked_graph(self._universe, *self.moral_graph())

    def d_separated(
        self, x: Iterable[str], z: Iterable[str], y: Iterable[str]
    ) -> bool:
        """Four-stage separation test; handles deterministic elements.

        Raises for elements outside the universe or sides overlapping
        outside z; trivial queries (an empty side) hold vacuously.
        """
        c = self._universe.canonical(Statement(x, z, y))
        if c is TRIVIALLY_TRUE:
            return True
        mask = self._universe.mask
        x, z, y = mask(c.x), mask(c.z), mask(c.y)
        kept, parents = self._ancestral(x | z | y)
        moral = _moral_neighbours(self._rerouted(parents, kept, z))
        return not reach(moral, x, z) & y

    def _ancestral(self, seed: int) -> tuple[int, dict]:
        """The mask of the seed and its ancestors, and their parent masks."""
        parents = self._parents
        kept = {}
        reached = frontier = seed
        while frontier:
            v = frontier & -frontier
            frontier ^= v
            ps = kept[v] = parents[v]
            new = ps & ~reached
            reached |= new
            frontier |= new
        return reached, kept

    def _rerouted(self, parents: dict, kept: int, z: int) -> dict:
        """Reroute past the unobserved deterministic elements in kept, whose
        parent masks ``parents`` holds, in place and in a topological order:
        rerouting v gives new children only to v's parents, which come before
        v, so v's children are still its own when v is visited, and any
        topological order gives the same parent masks."""
        rerouted = self._det & kept & ~z
        children = self._children
        for v in self._order:
            if not rerouted:
                break
            if v & rerouted:
                rerouted ^= v
                for c in _bits(children[v] & kept):
                    parents[c] = parents[c] & ~v | parents[v]
        return parents

    def _named_arcs(self, parents: dict) -> list[tuple[str, str]]:
        """The arcs of a parent-mask index, as name pairs."""
        name = {bit: e for e, bit in self._universe.bits.items()}
        return [(name[p], name[c]) for c, ps in parents.items() for p in _bits(ps)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self._universe == other._universe
            and self._parents == other._parents
            and self._det == other._det
        )

    def __hash__(self) -> int:
        return hash((self._universe, self.arcs, self.deterministic))

    def __repr__(self) -> str:
        arcs = ", ".join(f"{a}->{b}" for a, b in sorted(self.arcs))
        return f"DiGraph({arcs}; det={format_set(self.deterministic)})"


def _bits(mask: int) -> Iterator[int]:
    """The one-bit masks of a mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low
        mask ^= low


def _toposort(parents: dict, children: dict) -> tuple[int, ...]:
    """The bits in a topological order; CyclicGraph if there is none.

    A bit is placed once its parents all are, which is checked whenever one
    of them is visited: the last of them to be visited sees the rest placed.
    """
    order = [v for v, ps in parents.items() if not ps]
    placed = sum(order)
    for v in order:  # grows as elements become ready
        rest = children[v] & ~placed
        while rest:
            c = rest & -rest
            rest ^= c
            if not parents[c] & ~placed:
                placed |= c
                order.append(c)
    if len(order) != len(parents):
        raise CyclicGraph("arcs contain a directed cycle")
    return tuple(order)


def _moral_neighbours(parents: Mapping[int, int]) -> dict[int, int]:
    """Each element's parents, children and co-parents, and maybe itself,
    keyed by its bit, as ``reach`` takes them."""
    adj = dict(parents)
    for v, ps in parents.items():
        family = ps | v
        while ps:
            p = ps & -ps
            ps ^= p
            adj[p] |= family
    return adj


class JoinTree:
    """Tree of element clusters; each sepset is its link's cluster intersection."""

    __slots__ = ("_clusters", "_links", "_sepsets")

    def __init__(
        self,
        clusters: Mapping[int, Iterable[str]],
        links: Iterable[tuple[int, int]] = (),
    ):
        self._clusters = {int(c): frozenset(es) for c, es in clusters.items()}
        self._links = frozenset(frozenset(l) for l in links)
        self._sepsets = {}
        for link in self._links:
            a, b = sorted(link)
            if a in self._clusters and b in self._clusters:
                self._sepsets[(a, b)] = self._clusters[a] & self._clusters[b]

    @property
    def clusters(self) -> dict[int, frozenset]:
        return dict(self._clusters)

    @property
    def links(self) -> frozenset:
        return self._links

    def sepset(self, a: int, b: int) -> frozenset:
        return self._sepsets[tuple(sorted((a, b)))]

    def validate(self) -> list[str]:
        """Diagnostics: empty means a structurally valid join tree.

        Checks that links reference clusters and form a tree, and that every
        element's clusters form a connected subtree (running intersection).
        """
        violations = []
        clusters = self._clusters
        position = {c: 1 << i for i, c in enumerate(sorted(clusters))}
        neighbours = dict.fromkeys(position.values(), 0)
        well_formed = 0
        for link in sorted(self._links, key=sorted):
            a, b = sorted(link)
            if a not in clusters or b not in clusters:
                violations.append(f"link {a}-{b} references a missing cluster")
                continue
            neighbours[position[a]] |= position[b]
            neighbours[position[b]] |= position[a]
            well_formed += 1

        everything = (1 << len(clusters)) - 1
        if clusters and (
            reach(neighbours, 1, 0) != everything or well_formed != len(clusters) - 1
        ):
            violations.append("links do not form a tree over the clusters")

        holders: dict[str, int] = {}
        for c, es in clusters.items():
            for e in es:
                holders[e] = holders.get(e, 0) | position[c]
        for e, held in sorted(holders.items()):
            if reach(neighbours, held & -held, ~held) != held:
                violations.append(
                    f"element {e} appears in clusters not connected through "
                    f"clusters containing it"
                )
        return violations

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JoinTree):
            return NotImplemented
        return self._clusters == other._clusters and self._links == other._links

    def __repr__(self) -> str:
        parts = "; ".join(
            f"{c}={format_set(es)}" for c, es in sorted(self._clusters.items())
        )
        return f"JoinTree({parts})"


def build_join_tree(
    g: UGraph, order: Iterable[str]
) -> tuple[UGraph, JoinTree]:
    """Elimination-order fill-in, maximal cliques, max-weight spanning tree.

    The graph must have exactly one single-element node per element.  Any
    elimination order works; bad orders just produce more fill-in.  The
    returned tree always satisfies the running intersection property.
    """
    seen = set()
    for es in g.nodes.values():
        if len(es) != 1:
            raise ModelError("join-tree construction needs single-element nodes")
        (e,) = es
        if e in seen:
            raise ModelError(f"element {e} appears in more than one node")
        seen.add(e)
    universe, packed = g._packed_form()
    filled, clusters, links = join_tree_masks(universe, packed.nodes, packed.adj, order)
    return unpacked_graph(universe, packed.nodes, filled), JoinTree(
        {i: universe.names(c) for i, c in enumerate(clusters)}, links
    )


def join_tree_masks(
    universe: Universe, nodes: tuple, adj: tuple, order: Iterable[str]
) -> tuple[tuple, list[int], list[tuple[int, int]]]:
    """``build_join_tree`` on a packed graph of single-element nodes that
    holds every element of the universe once: the filled adjacency over the
    same nodes, the clusters' element masks by cluster id, and the links.
    InvalidOrder unless the order is a permutation of the elements."""
    order = tuple(order)
    if tuple(sorted(order)) != universe.elements:
        raise InvalidOrder("order must be a permutation of the graph's elements")
    position = {m: 1 << i for i, (_, m) in enumerate(nodes)}  # by element bit
    adjacency = dict(zip(position.values(), adj))  # neighbours and fill-in

    cliques = []
    later = set()  # each eliminated node's neighbours not yet eliminated
    eliminated = 0
    for v in map(position.__getitem__, map(universe.bits.__getitem__, order)):
        nbrs = adjacency[v] & ~eliminated
        cliques.append(v | nbrs)
        later.add(nbrs)
        rest = nbrs
        while rest:
            a = rest & -rest
            rest ^= a
            adjacency[a] |= nbrs ^ a
        eliminated |= v

    # v's clique is v and its later neighbours.  Each u's later neighbours
    # lie in the clique of the first of them, so a clique inside another is,
    # following such steps, exactly some u's later neighbours.
    maximal = [c for c in cliques if c not in later]
    if any(m != p for m, p in position.items()):  # node i holds another element
        element = {p: m for m, p in position.items()}
        maximal = [sum(map(element.__getitem__, _bits(c))) for c in maximal]
    maximal.sort(key=lambda c: sorted(universe.names(c)))

    # Kruskal's loop takes the pairs of clusters by falling weight, the size
    # of their intersection, and pairs of equal weight in (i, j) order.  Pairs
    # of disjoint clusters are needed only to join the parts of a
    # disconnected graph, and are not listed.
    by_weight = {}  # weight -> its pairs (i, j), i < j, in (i, j) order
    for i, c in enumerate(maximal):
        overlaps = map(int.bit_count, map(c.__and__, maximal[i + 1:]))
        for j, weight in enumerate(overlaps, i + 1):
            if weight:
                by_weight.setdefault(weight, []).append((i, j))
    # Each position's part is named by one of its positions, and a link
    # renames the smaller of the two parts it joins.
    part = list(range(len(maximal)))
    members = [1 << i for i in range(len(maximal))]  # by the part's name
    links = []

    def link(i: int, j: int) -> None:
        keep, drop = part[i], part[j]
        if members[keep].bit_count() < members[drop].bit_count():
            keep, drop = drop, keep
        rest = members[drop]
        members[keep] |= rest
        while rest:
            k = rest & -rest
            rest ^= k
            part[k.bit_length() - 1] = keep
        links.append((i, j))

    for weight in sorted(by_weight, reverse=True):
        for i, j in by_weight[weight]:
            if part[i] != part[j]:
                link(i, j)
    # The first disjoint pair in (i, j) order that joins two parts is i and
    # the lowest position above i outside i's part.
    everything = (1 << len(maximal)) - 1
    for i in range(len(maximal)):
        while outside := everything >> i + 1 << i + 1 & ~members[part[i]]:
            link(i, (outside & -outside).bit_length() - 1)
    return tuple(adjacency.values()), maximal, links
