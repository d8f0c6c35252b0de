import heapq
import random
from itertools import combinations, permutations

import pytest

import object_layer
from mugci import (
    DiGraph,
    JoinTree,
    UGraph,
    Universe,
    Statement,
    TRIVIALLY_TRUE,
    build_join_tree,
    canonicalize,
)
from mugci.errors import (
    CyclicGraph,
    InvalidOrder,
    InvalidOverlap,
    ModelError,
    UnknownElement,
)


def double_det_cascade():
    # two deterministic elements feeding x; conditioning on z reroutes both
    u = Universe(["v", "w", "x", "y", "z"])
    arcs = [("z", "w"), ("w", "y"), ("v", "y"), ("w", "x"), ("y", "x")]
    return DiGraph(u, arcs, deterministic={"w", "y"})


def observed_det_model():
    # the deterministic element itself is observed; no propagation
    u = Universe(["w", "x", "y", "z"])
    return DiGraph(u, [("x", "z"), ("z", "y"), ("z", "w")], deterministic={"z"})


def leaf_collider_model():
    # v is a collider child of x and y; w hangs above z
    u = Universe(["v", "w", "x", "y", "z"])
    arcs = [("w", "z"), ("z", "x"), ("z", "y"), ("x", "v"), ("y", "v")]
    return DiGraph(u, arcs)


def chest_fragment():
    u = Universe(["b", "d", "e", "l", "t"])
    return DiGraph(u, [("t", "e"), ("l", "e"), ("e", "d"), ("b", "d")])


# -- construction ---------------------------------------------------------------


def test_cycles_rejected():
    u = Universe(["a", "b"])
    with pytest.raises(CyclicGraph):
        DiGraph(u, [("a", "b"), ("b", "a")])
    with pytest.raises(CyclicGraph):
        DiGraph(u, [("a", "a")])


def test_unknown_members_rejected():
    u = Universe(["a", "b"])
    with pytest.raises(UnknownElement):
        DiGraph(u, [("a", "q")])
    with pytest.raises(UnknownElement):
        DiGraph(u, deterministic={"q"})


def test_first_bad_arc_decides_the_error():
    u = Universe(["a", "b"])
    with pytest.raises(CyclicGraph, match="^self-arc on a$"):
        DiGraph(u, [("a", "b"), ("a", "a"), ("q", "b")])
    with pytest.raises(UnknownElement, match="^not in universe: q$"):
        DiGraph(u, [("a", "b"), ("q", "b"), ("a", "a"), ("r", "s")])
    with pytest.raises(UnknownElement, match="^not in universe: r, s$"):
        DiGraph(u, [("s", "r"), ("q", "q")])


def reference_arc_check(universe, arcs):
    """The arc-by-arc check DiGraph made before it tested membership first."""
    arc_set = set()
    for a, b in arcs:
        universe.require((a, b))
        if a == b:
            raise CyclicGraph(f"self-arc on {a}")
        arc_set.add((a, b))
    return frozenset(arc_set)


def outcome(build):
    try:
        return build()
    except Exception as exc:
        return type(exc), str(exc)


def test_arc_check_matches_arc_by_arc_reference():
    rng = random.Random(4860)
    u = Universe("abcde")
    pool = list("abcdeqr") + [["a", "b"], ("a", "b", "c"), ("a",), 7]
    for _ in range(2000):
        arcs = []
        for _ in range(rng.randint(0, 5)):
            if rng.random() < 0.1:
                arcs.append(rng.choice(pool[7:]))
            else:
                arcs.append((rng.choice(pool[:7]), rng.choice(pool[:7])))
        want = outcome(lambda: reference_arc_check(u, arcs))
        got = outcome(lambda: DiGraph(u, arcs))
        if isinstance(got, DiGraph):
            assert got.arcs == want, arcs
        elif isinstance(want, frozenset):
            # arcs that pass the check may still close a cycle
            assert got == (CyclicGraph, "arcs contain a directed cycle"), arcs
        else:
            assert got == want, arcs


# -- ancestral pruning ------------------------------------------------------------


def test_prune_drops_leaf_descendants():
    d = leaf_collider_model()
    pruned = d.ancestral_prune({"x", "y", "z"})
    assert set(pruned.universe) == {"w", "x", "y", "z"}
    assert pruned.arcs == frozenset({("w", "z"), ("z", "x"), ("z", "y")})


def test_prune_to_full_universe_is_identity():
    d = leaf_collider_model()
    pruned = d.ancestral_prune(set(d.universe))
    assert pruned == d


def test_prune_to_nothing_is_empty():
    pruned = leaf_collider_model().ancestral_prune(set())
    assert len(pruned.universe) == 0 and pruned.arcs == frozenset()


def test_prune_checks_membership():
    with pytest.raises(UnknownElement):
        leaf_collider_model().ancestral_prune({"nope"})


# -- deterministic propagation -----------------------------------------------------


def test_propagation_reproduces_quoted_replacements():
    d = double_det_cascade()
    result = d.det_propagate({"z"})
    assert result.arcs == frozenset(
        {("z", "w"), ("z", "y"), ("v", "y"), ("z", "x"), ("v", "x")}
    )


def test_observed_deterministic_element_untouched():
    d = observed_det_model()
    assert d.det_propagate({"z"}).arcs == d.arcs


def test_parentless_deterministic_element_drops_children_arcs():
    u = Universe(["a", "b"])
    d = DiGraph(u, [("a", "b")], deterministic={"a"})
    result = d.det_propagate(set())
    assert result.arcs == frozenset()


def test_propagation_without_deterministic_elements_is_identity():
    d = leaf_collider_model()
    assert d.det_propagate(set()) == d
    assert d.det_propagate({"z"}) == d


def test_propagation_output_is_acyclic():
    # construction revalidates; a cascade through two det elements stays a DAG
    u = Universe(["a", "b", "c", "d"])
    d = DiGraph(u, [("a", "b"), ("b", "c"), ("c", "d")], deterministic={"b", "c"})
    result = d.det_propagate(set())
    assert result.arcs == frozenset({("a", "b"), ("a", "c"), ("a", "d")})


# -- moralization -------------------------------------------------------------------


def test_moralization_marries_exactly_the_two_parent_pairs():
    moral = chest_fragment().moralize()
    skeleton = {
        frozenset("te"), frozenset("le"), frozenset("ed"), frozenset("bd")
    }
    marriages = {frozenset("tl"), frozenset("eb")}
    assert moral.expand().edges == skeleton | marriages


def test_moralize_arcless_graph_has_no_edges():
    u = Universe(["a", "b"])
    assert DiGraph(u).moralize().expand().edges == frozenset()


def test_moralize_collider_forms_triangle():
    u = Universe(["a", "b", "c"])
    moral = DiGraph(u, [("a", "c"), ("b", "c")]).moralize()
    assert moral.expand().edges == {
        frozenset("ac"), frozenset("bc"), frozenset("ab")
    }


def test_moral_graph_contains_the_skeleton():
    d = double_det_cascade()
    moral_edges = d.moralize().expand().edges
    for a, b in d.arcs:
        assert frozenset((a, b)) in moral_edges


# -- d-separation -------------------------------------------------------------------


def test_collider_blocked_only_when_unobserved():
    u = Universe(["x", "y", "z"])
    d = DiGraph(u, [("x", "z"), ("y", "z")])
    assert not d.d_separated({"x"}, {"z"}, {"y"})
    assert d.d_separated({"x"}, set(), {"y"})


def test_pruning_enables_separation():
    d = leaf_collider_model()
    assert d.d_separated({"x"}, {"z"}, {"y"})
    assert not d.moralize().separates({"x"}, {"z"}, {"y"})


def test_propagated_model_separations():
    d = double_det_cascade()
    assert d.d_separated({"w"}, {"z"}, {"v", "x", "y"})
    assert not d.d_separated({"x"}, {"z"}, {"y"})


def test_observed_deterministic_separation_needs_the_exemption():
    d = observed_det_model()
    assert d.d_separated({"x"}, {"z"}, {"y", "w"})
    forced = d.det_propagate(set()).moralize()
    assert not forced.separates({"x"}, {"z"}, {"y", "w"})


def test_d_separated_validates_inputs():
    d = observed_det_model()
    with pytest.raises(UnknownElement):
        d.d_separated({"q"}, set(), {"x"})
    assert d.d_separated(set(), {"z"}, {"x"})  # trivial query holds


# -- join trees ---------------------------------------------------------------------


def good_tree():
    return JoinTree({0: {"e", "l", "t"}, 1: {"b", "d", "e"}}, [(0, 1)])


def test_valid_join_tree_passes():
    assert good_tree().validate() == []
    assert good_tree().sepset(0, 1) == frozenset("e")


def test_single_cluster_tree_is_valid():
    assert JoinTree({0: {"a", "b"}}).validate() == []


def test_running_intersection_violation_detected():
    broken = JoinTree(
        {0: {"e", "l", "t"}, 1: {"b", "d"}, 2: {"d", "e"}},
        [(0, 1), (1, 2)],
    )
    assert any("element e" in v for v in broken.validate())


def test_non_tree_links_detected():
    t = JoinTree({0: {"a"}, 1: {"a"}, 2: {"a"}}, [(0, 1)])
    assert any("tree" in v for v in t.validate())


def test_missing_cluster_link_detected():
    t = JoinTree({0: {"a"}}, [(0, 5)])
    assert any("missing cluster" in v for v in t.validate())


# -- join tree construction -----------------------------------------------------------


def test_tree_shaped_graph_needs_no_fill_for_leaf_first_orders():
    g = UGraph.from_singletons("abcd", [("a", "b"), ("b", "c"), ("b", "d")])
    for order in (("a", "c", "d", "b"), ("d", "c", "a", "b"), ("c", "a", "d", "b")):
        chordal, tree = build_join_tree(g, order)
        assert chordal == g
        assert sorted(map(sorted, tree.clusters.values())) == [
            ["a", "b"], ["b", "c"], ["b", "d"]
        ]
        assert tree.validate() == []


def test_four_cycle_gets_one_chord_and_two_triangles():
    g = UGraph.from_singletons("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")])
    chordal, tree = build_join_tree(g, ("a", "b", "c", "d"))
    extra = chordal.expand().edges - g.expand().edges
    assert extra == {frozenset("bd")}
    assert sorted(map(sorted, tree.clusters.values())) == [
        ["a", "b", "d"], ["b", "c", "d"]
    ]
    assert tree.validate() == []


def test_chest_moral_graph_fill_in_over_all_orders():
    moral = chest_fragment().moralize()
    chord_counts = {}
    base_edges = moral.expand().edges
    for order in permutations("bdelt"):
        chordal, tree = build_join_tree(moral, order)
        assert tree.validate() == []
        chord_counts[order] = len(chordal.expand().edges - base_edges)
    assert min(chord_counts.values()) == 0
    # some orders introduce exactly one chord; the l-b fill-in is among them
    ones = [o for o, n in chord_counts.items() if n == 1]
    assert ones
    single_chords = set()
    for order in ones:
        chordal, _ = build_join_tree(moral, order)
        (chord,) = chordal.expand().edges - base_edges
        single_chords.add(chord)
    assert frozenset("lb") in single_chords


def test_build_join_tree_validates_order():
    g = UGraph.from_singletons("ab", [("a", "b")])
    with pytest.raises(InvalidOrder):
        build_join_tree(g, ("a",))
    with pytest.raises(InvalidOrder):
        build_join_tree(g, ("a", "a"))
    with pytest.raises(ModelError, match="single-element nodes"):
        build_join_tree(UGraph({0: {"a", "b"}}), ("a", "b"))
    with pytest.raises(ModelError, match="element a appears in more than one node"):
        build_join_tree(UGraph({0: {"a"}, 1: {"a"}}), ("a",))


def test_disconnected_graph_still_yields_a_tree():
    g = UGraph.from_singletons("abcd", [("a", "b"), ("c", "d")])
    _, tree = build_join_tree(g, ("a", "b", "c", "d"))
    assert tree.validate() == []
    assert len(tree.links) == len(tree.clusters) - 1


def reference_links(clusters):
    """Kruskal's links over every pair of clusters, sorted as ``(-weight, i,
    j)``, the way ``build_join_tree`` once listed them."""
    pairs = sorted(
        combinations(sorted(clusters), 2),
        key=lambda ij: -len(clusters[ij[0]] & clusters[ij[1]]),
    )
    part = {c: {c} for c in clusters}
    links = set()
    for i, j in pairs:
        if part[i] is not part[j]:
            joined = part[i] | part[j]
            for k in joined:
                part[k] = joined
            links.add(frozenset((i, j)))
    return links


def test_join_tree_links_match_sorting_every_pair():
    rng = random.Random(4242)
    disconnected = 0
    for _ in range(400):
        n = rng.randint(1, 14)
        names = [f"e{i}" for i in range(n)]
        density = rng.choice((0.0, 0.1, 0.2, 0.35, 0.6))
        edges = [(a, b) for a, b in combinations(names, 2) if rng.random() < density]
        g = UGraph.from_singletons(names, edges)
        _, tree = build_join_tree(g, rng.sample(names, n))
        assert tree.links == reference_links(tree.clusters), (edges, tree)
        disconnected += any(
            not (tree.clusters[a] & tree.clusters[b]) for a, b in map(sorted, tree.links)
        )
    assert disconnected > 50, disconnected


# -- differential: the parents and children index against arc scans ---------
#
# The references below scan every arc for each element, as ``DiGraph`` did
# before it indexed parents and children once.  Parents, ancestral sets,
# moral graphs and separation verdicts must all be the same.


def reference_toposort(universe, arcs):
    indegree = {v: 0 for v in universe}
    for _, b in arcs:
        indegree[b] += 1
    ready = [v for v in universe if indegree[v] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        v = heapq.heappop(ready)
        order.append(v)
        for a, b in arcs:
            if a == v:
                indegree[b] -= 1
                if indegree[b] == 0:
                    heapq.heappush(ready, b)
    return tuple(order)


def reference_parents(arcs, v):
    return frozenset(a for a, b in arcs if b == v)


def reference_ancestors(arcs, seed):
    seed = frozenset(seed)
    reached = set()
    frontier = list(seed)
    while frontier:
        v = frontier.pop()
        for p in reference_parents(arcs, v):
            if p not in reached and p not in seed:
                reached.add(p)
                frontier.append(p)
    return frozenset(reached)


def reference_moralize(universe, arcs):
    edges = {tuple(sorted(arc)) for arc in arcs}
    for v in universe:
        for a, b in combinations(sorted(reference_parents(arcs, v)), 2):
            edges.add((a, b))
    return UGraph.from_singletons(universe, edges)


def reference_d_separated(d, x, z, y):
    c = canonicalize(Statement(frozenset(x), frozenset(z), frozenset(y)))
    if c is TRIVIALLY_TRUE:
        return True
    keep = c.x | c.z | c.y
    kept = keep | reference_ancestors(d.arcs, keep)
    arcs = {(a, b) for a, b in d.arcs if a in kept and b in kept}
    arcs = reference_det_propagate(sorted(kept), arcs, d.deterministic, c.z)
    return reference_moralize(sorted(kept), arcs).separates(c.x, c.z, c.y)


def reference_det_propagate(universe, arcs, deterministic, z):
    """``DiGraph.det_propagate`` as it was: two arc scans per rerouted element."""
    arcs = set(arcs)
    for v in reference_toposort(universe, arcs):
        if v not in deterministic or v in z:
            continue
        parents = sorted(a for a, b in arcs if b == v)
        for c in sorted(b for a, b in arcs if a == v):
            arcs.discard((v, c))
            arcs.update((p, c) for p in parents)
    return arcs


def random_dag(rng, n, det_share):
    names = [f"v{i:02d}" for i in range(n)]
    rng.shuffle(names)  # so that the order is not the name order
    arcs = []
    for j in range(1, n):
        for i in rng.sample(range(j), min(j, rng.randint(0, 3))):
            arcs.append((names[i], names[j]))
    det = {v for v in names if rng.random() < det_share}
    return DiGraph(Universe(names), arcs, det)


def random_query(rng, names):
    pool = rng.sample(names, min(len(names), rng.randint(2, 7)))
    cut1 = rng.randint(1, len(pool) - 1)
    cut2 = rng.randint(cut1, len(pool))
    x, y, z = pool[:cut1], pool[cut1:cut2], pool[cut2:]
    return set(x), set(z), set(y)


def test_index_matches_arc_scans_on_random_dags():
    rng = random.Random(31)
    # small DAGs, then DAGs of the benchmark's sizes with many more
    # deterministic elements, so that rerouting cascades and the
    # conditioning set often holds a deterministic element
    shapes = [(1, 14, 0.2)] * 200 + [(16, 64, 0.3)] * 30 + [(16, 64, 0.6)] * 30
    observed_det = set()
    for low, high, det_share in shapes:
        d = random_dag(rng, rng.randint(low, high), det_share)
        names = list(d.universe)
        for v in names:
            assert d.parents(v) == reference_parents(d.arcs, v)
        seed = rng.sample(names, rng.randint(0, len(names)))
        kept = d.ancestral_prune(seed).universe
        assert set(kept) == set(seed) | reference_ancestors(d.arcs, seed)
        want = reference_moralize(names, d.arcs).expand().edges
        assert d.moralize().expand().edges == want
        if len(names) >= 2:
            for _ in range(5):
                x, z, y = random_query(rng, names)
                want = reference_d_separated(d, x, z, y)
                assert d.d_separated(x, z, y) == want
                if high == 64 and z & d.deterministic:
                    observed_det.add(want)
    assert observed_det == {True, False}


def test_det_propagate_matches_arc_scans_on_random_dags():
    rng = random.Random(43)
    rerouted = 0
    for _ in range(300):
        d = random_dag(rng, rng.randint(1, 16), rng.choice((0.0, 0.3, 0.6)))
        names = list(d.universe)
        z = set(rng.sample(names, rng.randint(0, len(names) // 2)))
        want = reference_det_propagate(names, d.arcs, d.deterministic, z)
        got = d.det_propagate(z)
        assert got == DiGraph(d.universe, want, d.deterministic)
        rerouted += got.arcs != d.arcs
    assert rerouted > 50  # the cascade changes many of the graphs


def test_d_separated_builds_no_graph(monkeypatch):
    rng = random.Random(47)
    dags = [double_det_cascade()]
    dags += [random_dag(rng, rng.randint(16, 64), 0.6) for _ in range(10)]
    built = []
    for cls in (DiGraph, Universe, UGraph):
        real_init = cls.__init__

        def counting_init(self, *args, _real_init=real_init, **kwargs):
            built.append(type(self).__name__)
            _real_init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting_init)
    verdicts = set()
    for d in dags:
        names = list(d.universe)
        for _ in range(10):
            verdicts.add(d.d_separated(*random_query(rng, names)))
    assert verdicts == {True, False}
    assert built == []


# -- networkx as an outside oracle ------------------------------------------------


def test_d_separation_and_moral_graph_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(57)
    verdicts = set()
    for _ in range(30):
        d = random_dag(rng, rng.randint(16, 64), 0.0)
        g = nx.DiGraph()
        g.add_nodes_from(d.universe)
        g.add_edges_from(d.arcs)
        moral = {frozenset(e) for e in nx.moral_graph(g).edges}
        assert d.moralize().expand().edges == moral
        names = list(d.universe)
        for _ in range(10):
            x, z, y = random_query(rng, names)
            want = nx.is_d_separator(g, x, y, z)
            assert d.d_separated(x, z, y) == want
            assert d.d_separated(y, z, x) == want
            verdicts.add(want)
    assert verdicts == {True, False}


def test_join_tree_of_random_orders_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(61)
    filled = 0
    for _ in range(60):
        moral = random_dag(rng, rng.randint(2, 24), 0.0).moralize()
        order = sorted(moral.elements)
        rng.shuffle(order)
        chordal, tree = build_join_tree(moral, order)
        g = nx.Graph()
        g.add_nodes_from(chordal.elements)
        g.add_edges_from(chordal.expand().edges)
        assert nx.is_chordal(g)
        assert set(tree.clusters.values()) == set(nx.chordal_graph_cliques(g))
        assert len(tree.clusters) == len(set(tree.clusters.values()))
        assert tree.validate() == []
        filled += chordal != moral
    assert filled > 30


# -- differential: the mask DiGraph against the name-set reference ------------
#
# ``object_layer.DiGraph`` is the class as it was held on name sets; the
# package's ``DiGraph`` holds bitmasks.  Errors, every public view and every
# verdict must be the same.


def reference_dag(rng, n, det_share):
    """Names, arcs and deterministic elements of a random DAG; the
    topological order is not the name order."""
    names = [f"v{i:02d}" for i in range(n)]
    rng.shuffle(names)
    arcs = []
    for j in range(1, n):
        for i in rng.sample(range(j), min(j, rng.randint(0, 3))):
            arcs.append((names[i], names[j]))
    det = [v for v in names if rng.random() < det_share]
    return names, arcs, det


def digraph_view(d):
    return (d.universe, d.arcs, d.deterministic, hash(d), repr(d))


def broken_arcs(rng, names, arcs):
    """The arcs with one fault put in at a random place."""
    arcs = list(arcs)
    roll = rng.random()
    if roll < 0.3:
        bad = (rng.choice(names), "q") if rng.random() < 0.5 else ("q", rng.choice(names))
    elif roll < 0.6:
        v = rng.choice(names)
        bad = (v, v)
    else:  # an arc back up some path closes a cycle
        a, b = rng.choice(arcs)
        bad = (b, a)
    arcs.insert(rng.randint(0, len(arcs)), bad)
    return arcs


def test_mask_digraph_matches_name_set_reference():
    rng = random.Random(89)
    shapes = [(1, 14, 0.0), (1, 14, 0.3)] * 60 + [(16, 64, 0.3), (16, 64, 0.6)] * 40
    errors = set()
    verdicts = set()
    rerouted = 0
    for low, high, det_share in shapes:
        names, arcs, det = reference_dag(rng, rng.randint(low, high), det_share)
        u = Universe(names)
        d = DiGraph(u, arcs, det)
        ref = object_layer.DiGraph(u, arcs, det)
        assert digraph_view(d) == digraph_view(ref)
        assert d == DiGraph(Universe(names), reversed(arcs), set(det))
        assert d != DiGraph(u, arcs[1:], det) or not arcs
        for v in names:
            assert d.parents(v) == ref.parents(v)
        assert outcome(lambda: d.parents("q")) == outcome(lambda: ref.parents("q"))

        # each constructor error, with the same type and text
        builds = [lambda cls: cls(u, arcs, [*det, "q", "p"])]
        if arcs:
            builds.append(lambda cls: cls(u, broken_arcs(rng, names, arcs), det))
        for build in builds:
            state = rng.getstate()
            want = outcome(lambda: build(object_layer.DiGraph))
            rng.setstate(state)
            assert outcome(lambda: build(DiGraph)) == want
            errors.add(want)

        keep = rng.sample(names, rng.randint(0, len(names)))
        assert digraph_view(d.ancestral_prune(keep)) == digraph_view(
            ref.ancestral_prune(keep)
        )
        z = set(rng.sample(names, rng.randint(0, len(names) // 2))) | {"q"}
        got, want = d.det_propagate(z), ref.det_propagate(z)
        assert digraph_view(got) == digraph_view(want)
        assert (got is d) == (want is ref)
        rerouted += got is not d
        assert d.moralize() == ref.moralize()
        if len(names) >= 2:
            for _ in range(5):
                x, z, y = random_query(rng, names)
                want = ref.d_separated(x, z, y)
                assert d.d_separated(x, z, y) == want
                verdicts.add(want)
            for x, z, y in (({names[0]}, set(), {"q"}), ({names[0]}, set(), {names[0]})):
                want = outcome(lambda: ref.d_separated(x, z, y))
                assert outcome(lambda: d.d_separated(x, z, y)) == want
                errors.add(want)
    kinds = {want[0] if isinstance(want, tuple) else want for want in errors}
    texts = {want[1] for want in errors if isinstance(want, tuple)}
    assert {CyclicGraph, UnknownElement, InvalidOverlap} <= kinds
    assert {"arcs contain a directed cycle", "not in universe: p, q"} <= texts
    assert any(t.startswith("self-arc on ") for t in texts)
    assert verdicts == {True, False}
    assert rerouted > 50


def declared_singletons(rng, n):
    """A graph of n single-element nodes under sparse node ids, some
    negative, that are not in element order."""
    names = [f"e{i:02d}" for i in range(n)]
    ids = rng.sample(range(-40, 60), n)
    share = rng.choice((0.1, 0.3, 0.6))
    edges = [(a, b) for a, b in combinations(ids, 2) if rng.random() < share]
    return names, UGraph(dict(zip(ids, ({e} for e in names))), edges)


def test_early_kruskal_stop_matches_reference_join_trees():
    rng = random.Random(97)
    filled = 0
    cases = [(1, 24, "moral")] * 200 + [(48, 64, "moral")] * 40
    cases += [(1, 24, "declared")] * 100 + [(48, 64, "declared")] * 10
    for low, high, kind in cases:
        if kind == "moral":
            names, arcs, _ = reference_dag(rng, rng.randint(low, high), 0.0)
            g = DiGraph(Universe(names), arcs).moralize()
        else:
            names, g = declared_singletons(rng, rng.randint(low, high))
        order = sorted(names)
        rng.shuffle(order)
        chordal, tree = build_join_tree(g, order)
        want_chordal, want_tree = object_layer.build_join_tree(g, order)
        assert chordal == want_chordal
        assert tree == want_tree
        assert tree.validate() == []
        filled += chordal != g
    assert filled > 200


def random_join_tree(rng):
    """Clusters with sparse ids over a few elements, some empty or shared,
    linked as a tree, a forest, a tree with extra links, or at random, some
    links naming clusters that are not there."""
    ids = rng.sample(range(-5, 30), rng.choice((0, 1, 2, 3, 4, 6, 8)))
    clusters = {c: set(rng.sample("abcde", rng.randint(0, 3))) for c in ids}
    links = [(ids[i], ids[rng.randrange(i)]) for i in range(1, len(ids))]
    shape = rng.choice(("tree", "forest", "cycle", "random"))
    if shape == "forest" and links:
        del links[rng.randrange(len(links))]
    elif shape == "cycle" and len(ids) > 2:
        links += rng.sample(list(combinations(ids, 2)), 2)
    elif shape == "random":
        links = [tuple(rng.sample(ids, 2)) for _ in range(rng.randint(0, 4)) if len(ids) > 1]
    if rng.random() < 0.25:
        missing = rng.choice((-9, 31, 40))
        links.append((missing, rng.choice(ids)) if ids else (missing, 41))
    return JoinTree(clusters, links)


def test_validate_matches_name_set_reference():
    rng = random.Random(113)
    seen = {"valid": 0, "missing": 0, "tree": 0, "element": 0, "empty": 0}
    for _ in range(600):
        t = random_join_tree(rng)
        got = t.validate()
        assert got == object_layer.validate(t), t
        seen["valid"] += got == []
        seen["empty"] += not t.clusters
        for kind in ("missing", "tree", "element"):
            seen[kind] += any(kind in v for v in got)
    assert min(seen.values()) > 30, seen
