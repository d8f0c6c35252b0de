import random
from itertools import combinations

import pytest

from mugci import (
    ENUMERATION_GUARD,
    Combine,
    Delete,
    Mug,
    UGraph,
    Universe,
    append_transformed,
    canonical_triple,
    enumerate_canonical,
)
from mugci.errors import (
    StatementNotSatisfied,
    UniverseTooLarge,
    UnknownElement,
    WrongElementSet,
)

from oracle import as_plain, mug_statements

U3 = Universe(["x", "y", "z"])


def chain_graph():
    return UGraph.from_singletons("xyz", [("x", "z"), ("z", "y")])


def triangle_graph():
    return UGraph.from_singletons("xyz", [("x", "z"), ("z", "y"), ("x", "y")])


def test_satisfies_uses_first_witnessing_graph():
    m = Mug(U3, [chain_graph(), triangle_graph()])
    s = canonical_triple({"x"}, {"z"}, {"y"})
    assert m.witness(s) == 0
    flipped = Mug(U3, [triangle_graph(), chain_graph()])
    assert flipped.witness(s) == 1


def test_triangle_satisfies_nothing():
    m = Mug(U3, [triangle_graph()])
    assert m.enumerate_satisfied() == frozenset()


def test_graph_missing_elements_is_not_a_witness():
    m = Mug(Universe(["a", "b", "c"]), [UGraph.from_singletons("ab")])
    assert m.witness(canonical_triple({"a"}, set(), {"c"})) is None
    assert m.witness(canonical_triple({"a"}, set(), {"b"})) == 0


def test_enumerate_satisfied_chain():
    m = Mug(U3, [chain_graph()])
    assert m.enumerate_satisfied() == {canonical_triple({"x"}, {"z"}, {"y"})}


def test_enumerate_satisfied_empty_mug():
    assert Mug(U3).enumerate_satisfied() == frozenset()


def test_enumerate_satisfied_isolated_nodes():
    m = Mug(Universe(["a", "b"]), [UGraph.from_singletons("ab")])
    assert canonical_triple({"a"}, set(), {"b"}) in m.enumerate_satisfied()


def test_enumerate_matches_oracle():
    graphs = [chain_graph(), UGraph({0: {"x", "y"}, 1: {"z"}}, [(0, 1)])]
    m = Mug(U3, graphs)
    expected = mug_statements([as_plain(g) for g in graphs], ["x", "y", "z"])
    assert m.enumerate_satisfied() == expected


# Both give the text ``closure`` gives for a graph outside the universe.


def test_universe_containment_checked():
    with pytest.raises(UnknownElement, match="^not in universe: q$"):
        Mug(U3, [UGraph.from_singletons("xq", [("x", "q")])])


def test_with_graph_checks_the_new_graph_against_the_universe():
    m = Mug(U3, [chain_graph()])
    with pytest.raises(UnknownElement, match="^not in universe: q$"):
        m.with_graph(UGraph.from_singletons("xq", [("x", "q")]))


def test_with_graph_extends_like_a_fresh_model():
    m = Mug(U3, [chain_graph()])
    m2, gi = m.with_graph(triangle_graph())
    fresh = Mug(U3, [chain_graph(), triangle_graph()])
    assert gi == 1 and m2 == fresh
    assert m.graphs == (chain_graph(),)
    m3, gi = m2.with_graph(triangle_graph())
    assert m3 is m2 and gi == 1


def test_duplicate_graphs_stored_once():
    m = Mug(U3, [chain_graph(), chain_graph()])
    assert len(m.graphs) == 1
    m2, idx = m.with_graph(chain_graph())
    assert m2 is m and idx == 0


# -- combination --------------------------------------------------------------


def test_combination_reveals_new_separation():
    # one graph separates both x-groups from both y-groups; the other covers
    # exactly the x and z elements; combining exposes a finer separation.
    u = Universe(["x1", "x2", "y1", "y2", "z1", "z2"])
    wide = UGraph.from_singletons(
        ["x1", "x2", "y1", "y2", "z1", "z2"],
        [("x1", "z1"), ("z1", "y1"), ("x2", "z2"), ("z2", "y2"),
         ("x1", "x2"), ("y1", "y2")],
    )
    narrow = UGraph.from_singletons(
        ["x1", "x2", "z1", "z2"], [("x1", "z1"), ("z1", "x2"), ("x2", "z2")]
    )
    m = Mug(u, [wide, narrow])
    s = canonical_triple({"x1", "x2"}, {"z1", "z2"}, {"y1", "y2"})
    assert m.witness(s) == 0
    fine = canonical_triple({"x1"}, {"z1"}, {"y1", "y2"})
    assert m.witness(fine) is None
    m2, gi = append_transformed(m, Combine(s, 1))
    combined = m2.graphs[gi]
    # every pair among the added y-nodes and the z-carrying nodes is linked
    for a, b in [("y1", "y2"), ("y1", "z1"), ("y1", "z2"), ("y2", "z1"),
                 ("y2", "z2"), ("z1", "z2")]:
        assert frozenset((a, b)) in combined.expand().edges
    assert m2.witness(fine) == gi


def test_combination_contraction_pattern():
    # premise I(x,{z,y},w) plus a graph over exactly {x,z,y} with z between
    u = Universe(["w", "x", "y", "z"])
    premise_graph = UGraph.from_singletons(
        "wxyz", [("x", "z"), ("x", "y"), ("z", "y"), ("z", "w"), ("y", "w")]
    )
    small = chain_graph()
    m = Mug(u, [premise_graph, small])
    s = canonical_triple({"x"}, {"z", "y"}, {"w"})
    assert m.witness(s) is not None
    m2, gi = append_transformed(m, Combine(s, 1))
    assert m2.graphs[gi].separates({"x"}, {"z"}, {"y", "w"})


def test_combination_requires_satisfaction():
    m = Mug(U3, [triangle_graph()])
    with pytest.raises(StatementNotSatisfied):
        append_transformed(m, Combine(canonical_triple({"x"}, {"z"}, {"y"}), 0))


def test_combination_requires_exact_element_set():
    s = canonical_triple({"x"}, {"z"}, {"y"})
    m = Mug(U3, [chain_graph()])
    with pytest.raises(WrongElementSet):
        # the witnessing chain covers all of {x,y,z}: neither side matches
        append_transformed(m, Combine(s, 0))


def test_combination_accepts_either_side():
    xz = UGraph.from_singletons("xz", [("x", "z")])
    yz = UGraph.from_singletons("yz")
    m = Mug(U3, [chain_graph(), xz, yz])
    s = canonical_triple({"x"}, {"z"}, {"y"})
    m2, gi = append_transformed(m, Combine(s, 1))  # adds a y node cliqued to z
    assert m2.graphs[gi].separates({"x"}, {"z"}, {"y"})
    m3, gj = append_transformed(m, Combine(s, 2))  # adds an x node instead
    assert m3.graphs[gj].separates({"x"}, {"z"}, {"y"})


# -- equivalence-preserving transformations -----------------------------------


def test_delete_keeps_satisfied_set():
    # w-z-x-y path: deleting x requires the z-y fill-in first
    g = UGraph.from_singletons("wxyz", [("w", "z"), ("z", "x"), ("x", "y")])
    u = Universe(["w", "x", "y", "z"])
    m = Mug(u, [g])
    m2, _ = append_transformed(m, Delete(0, g.nodes_with_element("x")[0]))
    assert m2.enumerate_satisfied() == m.enumerate_satisfied()


def test_add_arcs_empty_is_dedup_noop():
    m = Mug(U3, [chain_graph()])
    m2, idx = m.with_graph(m.graphs[0].add_arcs(()))
    assert m2 is m and idx == 0


def test_merge_then_split_keeps_satisfied_set():
    g = UGraph.from_singletons("wxyz", [("x", "z"), ("z", "y"), ("w", "y")])
    u = Universe(["w", "x", "y", "z"])
    m = Mug(u, [g])
    zid = g.nodes_with_element("z")[0]
    yid = g.nodes_with_element("y")[0]
    m2, gi = m.with_graph(g.merge_nodes(zid, yid))
    (zy,) = [n for n, es in m2.graphs[gi].nodes.items() if es == frozenset("zy")]
    m3, _ = m2.with_graph(
        m2.graphs[gi].split_node(zy, frozenset("z"), frozenset("y"))
    )
    assert m3.enumerate_satisfied() == m.enumerate_satisfied()


def test_append_transformed_dispatches_combine():
    m = Mug(U3, [chain_graph(), UGraph.from_singletons("xz", [("x", "z")])])
    m2, gi = append_transformed(
        m, Combine(canonical_triple({"x"}, {"z"}, {"y"}), 1)
    )
    # the combined graph is the x-z-y chain again, so dedup reuses graph 0
    assert m2 is m and gi == 0


def test_transformations_never_shrink_satisfaction():
    g = UGraph.from_singletons("wxyz", [("w", "z"), ("z", "x"), ("x", "y")])
    u = Universe(["w", "x", "y", "z"])
    m = Mug(u, [g])
    base = m.enumerate_satisfied()
    m2, _ = append_transformed(m, Delete(0, g.nodes_with_element("w")[0]))
    m3, _ = m2.with_graph(m2.graphs[0].merge_nodes(1, 2))
    assert base <= m2.enumerate_satisfied() <= m3.enumerate_satisfied()


# -- differential: separations generated per graph against the 4^n filter -----


def filtered_satisfied(m, max_elements=ENUMERATION_GUARD):
    """The filter enumerate_satisfied ran before it generated statements per
    graph: test every canonical statement over the universe."""
    return frozenset(
        s
        for s in enumerate_canonical(m.universe, max_elements)
        if m.witness(s) is not None
    )


def random_graph(rng, names):
    """A graph over part or all of names: multi-element nodes, elements
    repeated across nodes, and edgeless, complete or sparse edges."""
    members = rng.sample(names, rng.randint(1, len(names)))
    k = rng.randint((len(members) + 1) // 2, len(members))
    nodes = {i: set() for i in range(k)}
    for i, e in enumerate(members):
        nodes[i % k].add(e)
    for _ in range(rng.randint(0, 2)):
        nodes[rng.randrange(k)].add(rng.choice(members))
    pairs = [(a, b) for a in range(k) for b in range(a + 1, k)]
    style = rng.choice(("edgeless", "complete", "sparse", "sparse"))
    if style == "edgeless":
        edges = []
    elif style == "complete":
        edges = pairs
    else:
        edges = [p for p in pairs if rng.random() < 0.4]
    return UGraph(nodes, edges)


def test_generated_separations_match_the_filter():
    rng = random.Random(7734)
    for n in range(8):
        names = [f"e{i}" for i in range(n)]
        for _ in range(30 if n <= 5 else 12 if n == 6 else 8):
            graphs = [random_graph(rng, names) for _ in range(rng.randint(1, 3))] if n else []
            m = Mug(Universe(names), graphs)
            assert m.enumerate_satisfied() == filtered_satisfied(m), graphs


def test_generated_separations_on_edgeless_and_complete_graphs():
    names = list("abcdefg")
    edgeless = UGraph.from_singletons(names)
    complete = UGraph.from_singletons(names, combinations(names, 2))
    for graphs in ([edgeless], [complete], [complete, edgeless]):
        m = Mug(Universe(names), graphs)
        assert m.enumerate_satisfied() == filtered_satisfied(m)
    assert len(Mug(Universe(names), [edgeless]).enumerate_satisfied()) == 6069
    assert Mug(Universe(names), [complete]).enumerate_satisfied() == frozenset()


def test_enumerate_satisfied_guard_comes_before_any_work(monkeypatch):
    n = ENUMERATION_GUARD + 1
    names = [f"e{i}" for i in range(n)]
    m = Mug(Universe(names), [UGraph.from_singletons(names)])

    def no_work(self):
        raise AssertionError("graph read before the guard")

    monkeypatch.setattr(UGraph, "element_adjacency", no_work)
    monkeypatch.setattr(UGraph, "elements", property(no_work))
    with pytest.raises(
        UniverseTooLarge, match=f"^universe has {n} elements, guard is {ENUMERATION_GUARD}$"
    ):
        m.enumerate_satisfied()
