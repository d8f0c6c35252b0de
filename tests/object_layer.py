"""Reference code that the package no longer holds, kept for the tests.

A verbatim copy of the ``Mug`` that ran on ``UGraph`` objects before it
held packed graphs, with ``combination_graph``, ``append_transformed`` and
``UGraph.delete_node``, kept as the reference that ``mugci.mug`` and its
packed moves are checked against.  Four lines differ from the original:
``delete_node`` is a function of its graph (dedented, with ``self`` kept),
so ``append_transformed`` calls it as one, and ``enumerate_satisfied``
packs each graph for ``separations``, which now takes a packed graph's
``Floods`` record, over the universe itself, which now holds the bitmask
encoding.

Below them are helpers that only tests called, copied from the package
with the same bodies: ``witness_graph``, ``singletonize``,
``nodes_with_element`` (a ``UGraph`` method before, so ``self`` is kept),
``as_floats``, and ``serialize_model`` with its ``format_digraph``.  With
them is ``reference_packed_witness``, a verbatim copy of
``derivation.packed_witness`` as it was before it singletonized two unlinked
nodes, renamed.

Last come verbatim copies of code that ran on name sets before the package
ran it on masks: ``ugraph._separated``; ``UGraph.key``, the name-tuple key,
as a function of its graph (``self`` kept); ``DiGraph`` with its ``_moral``;
``JoinTree.validate`` (again with ``self`` kept) and its ``_reach``; and
``_UnionFind`` with ``build_join_tree`` as it was before Kruskal's loop
stopped at the tree's last link.  They are the references that the mask
``DiGraph``, ``JoinTree.validate`` and the join-tree builder are checked
against.  The name-tuple key is kept for the two graphs it cannot tell
apart, which the exact ``UGraph.key`` does.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Mapping

from mugci import (
    TRIVIALLY_TRUE,
    CanonicalStatement,
    DiscreteJoint,
    JoinTree,
    ModelFile,
    Statement,
    UGraph,
    Universe,
)
from mugci.derivation import packed_witness
from mugci.errors import (
    CyclicGraph,
    InvalidOrder,
    ModelError,
    StatementNotSatisfied,
    UnknownNode,
    WrongElementSet,
)
from mugci.model import check_size, format_set
from mugci.modelfile import format_jointree, format_ugraph
from mugci.mug import (
    Combine,
    Delete,
    Move,
    packed_singletons,
    separations,
)
from mugci.ugraph import Floods, packed_graph, unpacked_graph


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
        check_size(self._universe)
        enc = self._universe
        found: set[int] = set()
        for g in self._graphs:
            found.update(separations(enc, Floods(*packed_graph(enc, g))))
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


def witness_graph(s: CanonicalStatement) -> UGraph:
    """Single-element-node graph encoding exactly one statement.

    It is ``packed_witness`` decoded over the statement's own elements.
    """
    enc = Universe._from_sorted(sorted(s.elements))
    x, z, y = enc.mask(s.x), enc.mask(s.z), enc.mask(s.y)
    return unpacked_graph(enc, *packed_witness(x, z, y))


def reference_packed_witness(x: int, z: int, y: int) -> tuple[tuple, tuple]:
    """The witness graph of I(x, z, y), packed as by ``packed_graph``.

    One node per element, ids 0, 1, ... in element order, with cliques over
    x+z and over y+z and nothing across: z separates x from y, and the
    satisfied set equals the closure of the statement restricted to its
    elements (no unintended independence sneaks in).
    """
    bits = []
    rest = x | z | y
    while rest:
        bits.append(rest & -rest)
        rest ^= bits[-1]
    left = right = 0  # the two cliques, as masks over node positions
    for j, bit in enumerate(bits):
        if bit & (x | z):
            left |= 1 << j
        if bit & (y | z):
            right |= 1 << j
    adj = tuple(
        ((left if left >> j & 1 else 0) | (right if right >> j & 1 else 0)) & ~(1 << j)
        for j in range(len(bits))
    )
    return tuple(enumerate(bits)), adj


def singletonize(g: UGraph) -> UGraph:
    """Rebuild a graph with one node per element, preserving separations."""
    enc = Universe._from_sorted(sorted(g.elements))
    return unpacked_graph(enc, *packed_singletons(*packed_graph(enc, g)))


def nodes_with_element(self: UGraph, element: str) -> tuple[int, ...]:
    return tuple(sorted(n for n, es in self._nodes.items() if element in es))


def as_floats(p: DiscreteJoint) -> DiscreteJoint:
    """Float copy of an exact table (for tolerance-mode checks)."""
    return DiscreteJoint(
        p.variables, p.cardinalities, tuple(float(v) for v in p.probabilities)
    )


def format_digraph(name: str, d: DiGraph) -> str:
    lines = [f"digraph {name} {{"]
    for e in d.universe:
        prefix = "det node" if e in d.deterministic else "node"
        lines.append(f"  {prefix} {e};")
    for a, b in sorted(d.arcs):
        lines.append(f"  arc {a} {b};")
    lines.append("}")
    return "\n".join(lines)


def serialize_model(model: ModelFile) -> str:
    """Deterministic text for a model; reparses to an equal model."""
    parts = ["universe " + " ".join(model.universe)]
    for name, g in model.graphs.items():
        parts.append(format_ugraph(name, g))
    for name, d in model.digraphs.items():
        parts.append(format_digraph(name, d))
    for name, t in model.jointrees.items():
        parts.append(format_jointree(name, t))
    for name, s in model.statements.items():
        parts.append(f"stmt {name}: {s}")
    return "\n".join(parts) + "\n"


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
