"""Directed models, deterministic propagation, moral graphs, and join trees.

The separation test for a directed graph runs in four stages: prune to the
query elements and their ancestors, reroute the children of unobserved
deterministic elements to draw from their parents instead, moralize, and
test plain separation in the resulting undirected graph.  All four run on
the parent index with plain sets and dicts: ``d_separated`` builds no
intermediate graph.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping

from .errors import CyclicGraph, InvalidOrder, ModelError
from .model import (
    TRIVIALLY_TRUE,
    Statement,
    Universe,
    format_set,
)
from .ugraph import UGraph, _separated


class DiGraph:
    """Acyclic directed graph over elements, with a deterministic-node flag."""

    __slots__ = (
        "_universe", "_arcs", "_deterministic", "_parents", "_children", "_order"
    )

    def __init__(
        self,
        universe: Universe,
        arcs: Iterable[tuple[str, str]] = (),
        deterministic: Iterable[str] = (),
    ):
        self._universe = universe
        arc_set = set()
        for a, b in arcs:
            # require() builds a sorted error message; call it only to raise.
            if a not in universe or b not in universe:
                universe.require((a, b))
            if a == b:
                raise CyclicGraph(f"self-arc on {a}")
            arc_set.add((a, b))
        self._arcs = frozenset(arc_set)
        det = frozenset(deterministic)
        universe.require(det)
        self._deterministic = det
        parents: dict[str, set] = {v: set() for v in universe}
        children: dict[str, set] = {v: set() for v in universe}
        for a, b in arc_set:
            parents[b].add(a)
            children[a].add(b)
        self._parents = {v: frozenset(ps) for v, ps in parents.items()}
        self._children = {v: frozenset(cs) for v, cs in children.items()}
        self._order = self._toposort()

    def _toposort(self) -> tuple[str, ...]:
        indegree = {v: len(ps) for v, ps in self._parents.items()}
        order = [v for v, n in indegree.items() if n == 0]
        for v in order:  # grows as elements become ready
            for c in self._children[v]:
                indegree[c] -= 1
                if indegree[c] == 0:
                    order.append(c)
        if len(order) != len(self._universe):
            raise CyclicGraph("arcs contain a directed cycle")
        return tuple(order)

    @property
    def universe(self) -> Universe:
        return self._universe

    @property
    def arcs(self) -> frozenset:
        return self._arcs

    @property
    def deterministic(self) -> frozenset:
        return self._deterministic

    def parents(self, v: str) -> frozenset:
        self._universe.require((v,))
        return self._parents[v]

    def ancestral_prune(self, keep: Iterable[str]) -> "DiGraph":
        """Induced subgraph on keep plus all of its ancestors."""
        keep = frozenset(keep)
        self._universe.require(keep)
        kept = self._ancestral(keep)
        arcs = [(p, v) for v, ps in kept.items() for p in ps]
        return DiGraph(Universe(kept), arcs, self._deterministic.intersection(kept))

    def det_propagate(self, z: Iterable[str]) -> "DiGraph":
        """Reroute children of unobserved deterministic elements.

        Each deterministic element outside z has every outgoing arc replaced
        by arcs from its current parents, so earlier propagations cascade
        into later ones.  Observed deterministic elements (members of z) are
        left untouched; a graph with nothing to reroute is returned as it is.
        """
        z = frozenset(z)
        if self._deterministic <= z:
            return self
        parents = self._rerouted(dict(self._parents), z)
        arcs = [(p, c) for c, ps in parents.items() for p in ps]
        return DiGraph(self._universe, arcs, self._deterministic)

    def moralize(self) -> UGraph:
        """Drop arc directions and marry every pair of co-parents."""
        edges = [(a, b) for a, ns in _moral(self._parents).items() for b in ns if a < b]
        return UGraph.from_singletons(self._universe, edges)

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
        parents = self._rerouted(self._ancestral(c.x | c.z | c.y), c.z)
        return _separated(_moral(parents), c.x, c.z, c.y)

    def _ancestral(self, seed: frozenset) -> dict:
        """Parents of the seed and of every element with a path into it."""
        kept = {}
        frontier = list(seed)
        while frontier:
            v = frontier.pop()
            if v not in kept:
                kept[v] = self._parents[v]
                frontier += kept[v]
        return kept

    def _rerouted(self, parents: dict, z: frozenset) -> dict:
        """Reroute past unobserved deterministic elements, in place and in a
        topological order: rerouting v gives new children only to v's parents,
        which come before v, so v's children are still its own when v is
        visited, and any topological order gives the same parent sets."""
        rerouted = (self._deterministic - z).intersection(parents)
        for v in filter(rerouted.__contains__, self._order):
            for c in self._children[v]:
                if c in parents:
                    parents[c] = (parents[c] - {v}) | parents[v]
        return parents

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DiGraph):
            return NotImplemented
        return (
            self._universe == other._universe
            and self._arcs == other._arcs
            and self._deterministic == other._deterministic
        )

    def __hash__(self) -> int:
        return hash((self._universe, self._arcs, self._deterministic))

    def __repr__(self) -> str:
        arcs = ", ".join(f"{a}->{b}" for a, b in sorted(self._arcs))
        return f"DiGraph({arcs}; det={format_set(self._deterministic)})"


def _moral(parents: Mapping[str, frozenset]) -> dict[str, set]:
    """Each element's parents, children and co-parents, and maybe itself."""
    adj = {v: set(ps) for v, ps in parents.items()}
    for v, ps in parents.items():
        for p in ps:
            adj[p].update(ps, (v,))
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
        adjacency: dict[int, set[int]] = {c: set() for c in self._clusters}
        well_formed = 0
        for link in sorted(self._links, key=sorted):
            a, b = sorted(link)
            if a not in self._clusters or b not in self._clusters:
                violations.append(f"link {a}-{b} references a missing cluster")
                continue
            adjacency[a].add(b)
            adjacency[b].add(a)
            well_formed += 1

        if self._clusters:
            seen = _reach(adjacency, min(self._clusters), adjacency)
            if len(seen) != len(self._clusters) or well_formed != len(seen) - 1:
                violations.append("links do not form a tree over the clusters")

        for e in sorted(set().union(*self._clusters.values())):
            holders = {c for c, es in self._clusters.items() if e in es}
            if _reach(adjacency, min(holders), holders) != holders:
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


def _reach(adjacency: Mapping[int, set], start: int, inside) -> set:
    """Clusters reachable from start along links between clusters inside."""
    seen, stack = {start}, [start]
    while stack:
        for nb in adjacency[stack.pop()]:
            if nb in inside and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen


class _UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, i):
        while self.parent[i] != i:
            self.parent[i] = self.parent[self.parent[i]]
            i = self.parent[i]
        return i

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def build_join_tree(
    g: UGraph, order: Iterable[str]
) -> tuple[UGraph, JoinTree]:
    """Elimination-order fill-in, maximal cliques, max-weight spanning tree.

    The graph must have exactly one single-element node per element.  Any
    elimination order works; bad orders just produce more fill-in.  The
    returned tree always satisfies the running intersection property.
    """
    node_of = {}
    for n, es in g.nodes.items():
        if len(es) != 1:
            raise ModelError("join-tree construction needs single-element nodes")
        (e,) = es
        if e in node_of:
            raise ModelError(f"element {e} appears in more than one node")
        node_of[e] = n
    order = tuple(order)
    if sorted(order) != sorted(node_of):
        raise InvalidOrder("order must be a permutation of the graph's elements")

    adjacency = {e: set(nbrs) for e, nbrs in g.element_adjacency().items()}

    fill = []
    cliques = []
    eliminated: set[str] = set()
    for v in order:
        nbrs = sorted(adjacency[v] - eliminated)
        cliques.append(frozenset((v, *nbrs)))
        for a, b in combinations(nbrs, 2):
            if b not in adjacency[a]:
                adjacency[a].add(b)
                adjacency[b].add(a)
                fill.append((a, b))
        eliminated.add(v)

    chordal = g.add_arcs((node_of[a], node_of[b]) for a, b in fill)

    unique = list(dict.fromkeys(cliques))
    maximal = sorted(
        (c for c in unique if not any(c < d for d in unique)),
        key=lambda c: tuple(sorted(c)),
    )
    clusters = {i: c for i, c in enumerate(maximal)}

    # maximal is in name order, so the stable sort keeps links of equal
    # weight in name order too.
    candidates = sorted(
        combinations(range(len(maximal)), 2),
        key=lambda ij: -len(maximal[ij[0]] & maximal[ij[1]]),
    )
    uf = _UnionFind(range(len(maximal)))
    links = [(i, j) for i, j in candidates if uf.union(i, j)]
    return chordal, JoinTree(clusters, links)
