import pytest

from mugci import (
    Combine,
    Delete,
    Merge,
    Mug,
    Split,
    UGraph,
    Universe,
    append_transformed,
    canonical_triple,
)
from mugci.errors import StatementNotSatisfied, UnknownElement, WrongElementSet

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


def test_universe_containment_checked():
    with pytest.raises(UnknownElement):
        Mug(Universe(["a"]), [UGraph.from_singletons("ab")])


def test_with_graph_checks_the_new_graph_against_the_universe():
    m = Mug(U3, [chain_graph()])
    with pytest.raises(UnknownElement):
        m.with_graph(UGraph.from_singletons("xw", [("x", "w")]))


def test_with_graph_extends_like_a_fresh_model():
    m = Mug(U3, [chain_graph()])
    m2, gi = m.with_graph(triangle_graph())
    fresh = Mug(U3, [chain_graph(), triangle_graph()])
    assert gi == 1 and m2 == fresh
    assert m2.state_key() == fresh.state_key()
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
    m2, gi = m.combined(s, 1)
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
    assert m.satisfies(s)
    m2, gi = m.combined(s, 1)
    assert m2.graphs[gi].separates({"x"}, {"z"}, {"y", "w"})


def test_combination_requires_satisfaction():
    m = Mug(U3, [triangle_graph()])
    with pytest.raises(StatementNotSatisfied):
        m.combined(canonical_triple({"x"}, {"z"}, {"y"}), 0)


def test_combination_requires_exact_element_set():
    s = canonical_triple({"x"}, {"z"}, {"y"})
    m = Mug(U3, [chain_graph()])
    with pytest.raises(WrongElementSet):
        # the witnessing chain covers all of {x,y,z}: neither side matches
        m.combined(s, 0)


def test_combination_accepts_either_side():
    xz = UGraph.from_singletons("xz", [("x", "z")])
    yz = UGraph.from_singletons("yz")
    m = Mug(U3, [chain_graph(), xz, yz])
    s = canonical_triple({"x"}, {"z"}, {"y"})
    m2, gi = m.combined(s, 1)  # adds a y node cliqued to z
    assert m2.graphs[gi].separates({"x"}, {"z"}, {"y"})
    m3, gj = m.combined(s, 2)  # adds an x node instead
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
    m2, idx = m.with_arcs_added(0, [])
    assert m2 is m and idx == 0


def test_merge_then_split_keeps_satisfied_set():
    g = UGraph.from_singletons("wxyz", [("x", "z"), ("z", "y"), ("w", "y")])
    u = Universe(["w", "x", "y", "z"])
    m = Mug(u, [g])
    zid = g.nodes_with_element("z")[0]
    yid = g.nodes_with_element("y")[0]
    m2, gi = append_transformed(m, Merge(0, zid, yid))
    (zy,) = [n for n, es in m2.graphs[gi].nodes.items() if es == frozenset("zy")]
    m3, _ = append_transformed(
        m2, Split(gi, zy, frozenset("z"), frozenset("y"))
    )
    assert m3.enumerate_satisfied() == m.enumerate_satisfied()


def test_append_transformed_dispatches_combine():
    m = Mug(U3, [chain_graph(), UGraph.from_singletons("xz", [("x", "z")])])
    m2, gi = append_transformed(
        m, Combine(canonical_triple({"x"}, {"z"}, {"y"}), 1)
    )
    # the combined graph is the x-z-y chain again, so dedup reuses graph 0
    assert m2 is m and gi == 0


def test_state_key_is_order_insensitive():
    a = Mug(U3, [chain_graph(), triangle_graph()])
    b = Mug(U3, [triangle_graph(), chain_graph()])
    assert a.state_key() == b.state_key()
    assert a != b


def test_transformations_never_shrink_satisfaction():
    g = UGraph.from_singletons("wxyz", [("w", "z"), ("z", "x"), ("x", "y")])
    u = Universe(["w", "x", "y", "z"])
    m = Mug(u, [g])
    base = m.enumerate_satisfied()
    m2, _ = append_transformed(m, Delete(0, g.nodes_with_element("w")[0]))
    m3, _ = append_transformed(m2, Merge(0, 1, 2))
    assert base <= m2.enumerate_satisfied() <= m3.enumerate_satisfied()
