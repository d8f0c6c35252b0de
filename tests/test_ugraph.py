import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mugci import (
    Delete,
    ElementGraph,
    Mug,
    UGraph,
    Universe,
    append_transformed,
    canonical_triple,
)
from mugci.errors import (
    CoverageGap,
    EmptyPart,
    InvalidOverlap,
    MissingElements,
    SameNode,
    SelfLoop,
    UnknownElement,
    UnknownNode,
)
from mugci.ugraph import packed_graph

from object_layer import key as name_tuple_key
from object_layer import nodes_with_element, singletonize
from oracle import all_triples, as_plain, element_adjacency, separates_oracle


def chain_xzy():
    return UGraph.from_singletons("xyz", [("x", "z"), ("z", "y")])


def graph_triples(g):
    """Canonical statements the graph witnesses (via the library)."""
    els = g.elements
    return {s for s in all_triples(els) if g.separates(s.x, s.z, s.y)}


def oracle_triples(g):
    nodes, edges = as_plain(g)
    return {
        s
        for s in all_triples(g.elements)
        if separates_oracle(nodes, edges, s.x, s.z, s.y)
    }


# -- expand -----------------------------------------------------------------


def test_expand_singletons_identity():
    g = chain_xzy()
    eg = g.expand()
    assert eg.vertices == frozenset("xyz")
    assert eg.edges == frozenset({frozenset("xz"), frozenset("zy")})


def test_expand_multi_element_node_connects_members():
    g = UGraph({0: {"z", "y"}})
    assert g.expand().edges == frozenset({frozenset("zy")})


def test_expand_merges_repeated_element_neighborhoods():
    # two components both holding e; its merged neighborhood spans both
    g = UGraph({0: {"e"}, 1: {"a"}, 2: {"e"}, 3: {"b"}}, [(0, 1), (2, 3)])
    eg = g.expand()
    assert eg.edges == frozenset({frozenset("ea"), frozenset("eb")})
    nodes, edges = as_plain(g)
    assert not separates_oracle(nodes, edges, {"a"}, set(), {"b"})


def random_multi_graph(rng, n):
    """n elements in nodes of one to three, some elements repeated across
    nodes; edgeless, sparse or denser, so some nodes are isolated."""
    names = [f"e{i}" for i in range(n)]
    nodes = {}
    for i, e in enumerate(names):
        nodes[i] = {e, *rng.sample(names, rng.choice((0, 0, 1, 2)))}
    for i in range(n, n + rng.randint(0, 2)):
        nodes[i] = {rng.choice(names)}
    ids = list(nodes)
    share = rng.choice((0.0, 0.2, 0.5))
    edges = [
        (a, b) for i, a in enumerate(ids) for b in ids[i + 1:] if rng.random() < share
    ]
    return UGraph(nodes, edges)


def relabelled(rng, g):
    """The same graph under sparse node ids, some negative, in another order."""
    ids = sorted(g.nodes)
    moved = dict(zip(ids, rng.sample(range(-50, 50), len(ids))))
    return UGraph(
        {moved[n]: es for n, es in g.nodes.items()},
        [tuple(moved[n] for n in e) for e in g.edges],
    )


def test_element_graph_matches_the_oracle_on_random_graphs():
    rng = random.Random(8191)
    seen = {"multi": 0, "repeated": 0, "isolated": 0}
    graphs = []
    for _ in range(300):
        g = random_multi_graph(rng, rng.randint(3, 8))
        nodes, edges = as_plain(g)
        want = element_adjacency(nodes, edges)
        assert g.element_adjacency() == want
        assert g.expand() == ElementGraph(
            frozenset(want),
            frozenset(frozenset((a, b)) for a, nbrs in want.items() for b in nbrs),
        )
        assert singletonize(g).element_adjacency() == want
        if len(g.elements) <= 6:  # 1,351 triples at 6 elements, 26,335 at 8
            assert graph_triples(g) == oracle_triples(g)
        # the copy over other names packs alike over its own elements
        renamed = UGraph({n: {e.upper() for e in es} for n, es in nodes.items()}, edges)
        graphs += [g, relabelled(rng, g), renamed]
        seen["multi"] += any(len(es) > 1 for es in nodes.values())
        seen["repeated"] += sum(map(len, nodes.values())) > len(g.elements)
        seen["isolated"] += any(g.neighbors(n) == frozenset() for n in nodes)
    assert min(seen.values()) > 50, seen
    # Node 1 and node 2 carry one element set, so the name-tuple key cannot
    # tell these two apart, and neither may the key.
    nodes = {1: {"a"}, 2: {"a"}, 3: {"b"}, 4: {"c"}}
    graphs += [UGraph(nodes, [(1, 3), (2, 4)]), UGraph(nodes, [(1, 3), (1, 4)])]
    assert graphs[-1] != graphs[-2] and graphs[-1].key() == graphs[-2].key()
    keys = [(g.key(), name_tuple_key(g)) for g in graphs]
    equal = 0
    for (key, want), (other, other_want) in combinations(keys, 2):
        assert (key == other) == (want == other_want)
        equal += key == other
    assert equal > 300


# -- separates --------------------------------------------------------------


def test_separates_chain():
    assert chain_xzy().separates({"x"}, {"z"}, {"y"})


def test_separates_triangle_fails():
    g = UGraph.from_singletons("xyz", [("x", "z"), ("z", "y"), ("x", "y")])
    assert not g.separates({"x"}, {"z"}, {"y"})


def test_separates_overlap_after_canonicalization():
    g = chain_xzy()
    c = canonical_triple({"x", "z"}, {"z"}, {"y", "z"})
    assert g.separates(c.x, c.z, c.y)


def test_separates_requires_elements_present():
    with pytest.raises(MissingElements):
        chain_xzy().separates({"x"}, {"z"}, {"q"})


def test_separates_rejects_uncanonical_triples():
    with pytest.raises(InvalidOverlap):
        chain_xzy().separates({"x", "z"}, {"z"}, {"y"})


# -- add_arcs ---------------------------------------------------------------


def test_add_arc_blocks_separation():
    g = UGraph.from_singletons("wxyz", [("w", "z"), ("z", "x"), ("x", "y")])
    g2 = g.add_arcs([(nodes_with_element(g, "z")[0], nodes_with_element(g, "y")[0])])
    assert g.separates({"y"}, {"x"}, {"z"})
    assert not g2.separates({"y"}, {"x"}, {"z"})


def test_add_arcs_idempotent_and_identity():
    g = chain_xzy()
    existing = tuple(sorted(tuple(sorted(e)) for e in g.edges))[0]
    assert g.add_arcs([existing]) == g
    assert g.add_arcs([]) == g


def test_add_arcs_errors():
    g = chain_xzy()
    with pytest.raises(UnknownNode):
        g.add_arcs([(0, 99)])
    with pytest.raises(SelfLoop):
        g.add_arcs([(1, 1)])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2))
def test_arc_addition_antimonotone(a, b):
    # separations of the denser graph are a subset of the original's
    g = chain_xzy()
    if a == b:
        return
    g2 = g.add_arcs([(a, b)])
    assert graph_triples(g2) <= graph_triples(g)


# -- node deletion ------------------------------------------------------


def without_node(g, n):
    """g without node n, deleted as a model's move."""
    m, gi = append_transformed(Mug(Universe(g.elements), [g]), Delete(0, n))
    return m.graphs[gi]


def test_delete_fills_in_neighbors():
    # star: x adjacent to z and y, no z-y edge
    g = UGraph.from_singletons("xyz", [("x", "z"), ("x", "y")])
    g2 = without_node(g, nodes_with_element(g, "x")[0])
    assert g2.expand().edges == frozenset({frozenset("zy")})


def test_delete_isolated_node():
    g = UGraph({0: {"a"}, 1: {"b"}}, [])
    g2 = without_node(g, 0)
    assert g2.nodes == {1: frozenset("b")}
    assert g2.edges == frozenset()


def test_delete_middle_of_path_keeps_connection():
    g = UGraph.from_singletons("abc", [("a", "b"), ("b", "c")])
    g2 = without_node(g, nodes_with_element(g, "b")[0])
    assert g2.expand().edges == frozenset({frozenset("ac")})
    # brute force: every separation of the result holds in the original
    nodes, edges = as_plain(g)
    for s in oracle_triples(g2):
        assert separates_oracle(nodes, edges, s.x, s.z, s.y)


def test_delete_unknown_node():
    with pytest.raises(UnknownNode):
        without_node(chain_xzy(), 7)


DELETION_CORPUS = [
    UGraph.from_singletons("abcd", [("a", "b"), ("b", "c"), ("c", "d")]),
    UGraph.from_singletons("abcd", [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]),
    UGraph.from_singletons("abcde", [("a", "b"), ("b", "c"), ("b", "d"), ("d", "e")]),
    UGraph({0: {"a", "b"}, 1: {"c"}, 2: {"d", "e"}}, [(0, 1), (1, 2)]),
    UGraph({0: {"a"}, 1: {"a", "b"}, 2: {"c"}}, [(0, 1), (1, 2)]),
    # one element on two non-adjacent nodes
    UGraph({1: {"a"}, 2: {"a"}, 3: {"b"}, 4: {"c"}}, [(1, 3), (2, 4)]),
]


@pytest.mark.parametrize("g", DELETION_CORPUS)
def test_deletion_soundness_exhaustive(g):
    for n in g.node_ids():
        g2 = without_node(g, n)
        if not g2.nodes:
            continue
        before = oracle_triples(g)
        for s in oracle_triples(g2):
            assert s in before


@pytest.mark.parametrize("g", DELETION_CORPUS)
def test_deletion_preserves_untouched_separations(g):
    for n in g.node_ids():
        deleted = g.nodes[n]
        g2 = without_node(g, n)
        for s in oracle_triples(g):
            if s.elements & deleted:
                continue
            assert g2.separates(s.x, s.z, s.y)


# -- merge / split ----------------------------------------------------------


def test_merge_inherits_both_neighborhoods():
    g = UGraph.from_singletons("wxyz", [("x", "z"), ("z", "y"), ("w", "y")])
    zid = nodes_with_element(g, "z")[0]
    yid = nodes_with_element(g, "y")[0]
    merged = g.merge_nodes(zid, yid)
    (new_id,) = [n for n, es in merged.nodes.items() if es == frozenset("zy")]
    assert merged.neighbors(new_id) == frozenset(
        (nodes_with_element(g, "x")[0], nodes_with_element(g, "w")[0])
    )


def test_merge_isolated_nodes():
    g = UGraph({0: {"a"}, 1: {"b"}})
    merged = g.merge_nodes(0, 1)
    assert merged.nodes == {2: frozenset("ab")}
    assert merged.edges == frozenset()


def test_merge_in_triangle_sound():
    g = UGraph.from_singletons("xyz", [("x", "y"), ("y", "z"), ("x", "z")])
    merged = g.merge_nodes(0, 1)
    assert len(merged.nodes) == 2 and len(merged.edges) == 1
    before = oracle_triples(g)
    assert oracle_triples(merged) <= before


def test_merge_errors():
    g = chain_xzy()
    with pytest.raises(SameNode):
        g.merge_nodes(0, 0)
    with pytest.raises(UnknownNode):
        g.merge_nodes(0, 9)


def test_split_restores_merged_shape():
    g = UGraph.from_singletons("wxyz", [("x", "z"), ("z", "y"), ("w", "y")])
    merged = g.merge_nodes(nodes_with_element(g, "z")[0], nodes_with_element(g, "y")[0])
    (zy,) = [n for n, es in merged.nodes.items() if es == frozenset("zy")]
    back = merged.split_node(zy, {"z"}, {"y"})
    assert back.expand().edges >= g.expand().edges
    assert frozenset("zy") in back.expand().edges


def test_split_singleton_into_overlapping_parts():
    g = UGraph({0: {"a"}})
    out = g.split_node(0, {"a"}, {"a"})
    assert sorted(out.nodes.values()) == [frozenset("a"), frozenset("a")]
    assert len(out.edges) == 1


def test_split_then_merge_round_trip():
    g = UGraph({0: {"a", "b"}, 1: {"c"}}, [(0, 1)])
    split = g.split_node(0, {"a"}, {"b"})
    merged = split.merge_nodes(*(n for n in split.node_ids() if n != 1))
    def shape(graph):
        return sorted(tuple(sorted(es)) for es in graph.nodes.values())
    assert shape(merged) == shape(g)
    assert merged.expand().edges == g.expand().edges


def test_split_errors():
    g = UGraph({0: {"a", "b"}})
    with pytest.raises(EmptyPart):
        g.split_node(0, set(), {"a", "b"})
    with pytest.raises(CoverageGap):
        g.split_node(0, {"a"}, {"a"})
    with pytest.raises(UnknownNode):
        g.split_node(3, {"a"}, {"b"})


@pytest.mark.parametrize("g", DELETION_CORPUS)
def test_merge_soundness_exhaustive(g):
    before = oracle_triples(g)
    ids = g.node_ids()
    for i, n1 in enumerate(ids):
        for n2 in ids[i + 1 :]:
            merged = g.merge_nodes(n1, n2)
            assert oracle_triples(merged) <= before


@pytest.mark.parametrize("g", DELETION_CORPUS)
def test_split_soundness_exhaustive(g):
    from itertools import combinations as combos

    before = oracle_triples(g)
    for n in g.node_ids():
        members = sorted(g.nodes[n])
        parts = [({members[0]}, set(members))] if len(members) == 1 else []
        for r in range(1, len(members)):
            for chosen in combos(members, r):
                parts.append((set(chosen), set(members) - set(chosen)))
        for p1, p2 in parts:
            split = g.split_node(n, p1, p2)
            assert oracle_triples(split) <= before


@pytest.mark.parametrize("g", DELETION_CORPUS)
def test_arc_addition_antimonotone_exhaustive(g):
    from itertools import combinations as combos

    before = oracle_triples(g)
    for a, b in combos(g.node_ids(), 2):
        if frozenset((a, b)) in g.edges:
            continue
        denser = g.add_arcs([(a, b)])
        assert oracle_triples(denser) <= before


# -- structural --------------------------------------------------------------


def test_graph_validation():
    with pytest.raises(UnknownNode):
        UGraph({0: {"a"}}, [(0, 1)])
    with pytest.raises(SelfLoop):
        UGraph({0: {"a"}}, [(0, 0)])
    with pytest.raises(ValueError):
        UGraph({0: set()})


def test_key_ignores_node_ids_but_not_structure():
    g1 = UGraph({0: {"a"}, 1: {"b"}}, [(0, 1)])
    g2 = UGraph({5: {"a"}, 9: {"b"}}, [(5, 9)])
    g3 = UGraph({0: {"a"}, 1: {"b"}})
    assert g1.key() == g2.key()
    assert g1.key() != g3.key()


@pytest.mark.parametrize(
    "transform",
    [
        lambda g: without_node(g, 1),
        lambda g: g.merge_nodes(0, 2),
        lambda g: g.split_node(1, {"z", "w"}, {"w"}),
        lambda g: g.add_arcs([(0, 2)]),
    ],
)
def test_cached_key_of_transformed_graph_matches_fresh_build(transform):
    g = UGraph({0: {"x"}, 1: {"z", "w"}, 2: {"y"}}, [(0, 1), (1, 2)])
    t = transform(g)
    assert t.key() == UGraph(t.nodes, t.edges).key()


def test_element_adjacency_is_a_read_only_view_of_the_expansion():
    g = UGraph({0: {"a", "b"}, 1: {"b", "c"}, 2: {"d"}}, [(1, 2)])
    adjacency = g.element_adjacency()
    assert adjacency == element_adjacency(*as_plain(g))
    assert adjacency["a"] == frozenset({"b"})
    assert adjacency["b"] == frozenset({"a", "c", "d"})
    with pytest.raises(TypeError):
        adjacency["a"] = frozenset()
    assert g.separates({"a"}, {"b"}, {"d"})
    assert g.element_adjacency() == adjacency


def test_element_graph_is_built_only_when_read(monkeypatch):
    import mugci.ugraph as ugraph
    from mugci.modelfile import format_ugraph

    built = []
    real = ugraph.element_neighbours

    def counting(nodes, adj):
        built.append(nodes)
        return real(nodes, adj)

    monkeypatch.setattr(ugraph, "element_neighbours", counting)
    g = UGraph({0: {"a", "b"}, 1: {"b", "c"}, 2: {"d"}}, [(1, 2)])
    # the key and the printed graph read the packed form alone
    g.key()
    format_ugraph("G", g)
    assert built == []
    assert g.separates({"a"}, {"b"}, {"d"})
    assert not g.separates({"a"}, {}, {"d"})
    assert g.element_adjacency()["b"] == frozenset({"a", "c", "d"})
    assert len(built) == 1


# -- element names that are not identifiers -----------------------------------

# A graph packs over a universe of its own elements that checks no names, so
# a graph may carry any strings.  Listed in sorted order, so renaming e0, e1,
# ... to them keeps every element's place.
ODD_NAMES = sorted(["1", "a b", "é", "x-y", "if", "٣"])


def test_graphs_over_names_that_are_not_identifiers():
    rng = random.Random(6007)
    rename = {f"e{i}": name for i, name in enumerate(ODD_NAMES)}
    graphs = []
    for _ in range(120):
        g = random_multi_graph(rng, rng.randint(2, len(ODD_NAMES)))
        nodes, edges = as_plain(g)
        odd = UGraph({n: {rename[e] for e in es} for n, es in nodes.items()}, edges)
        odd_nodes, _ = as_plain(odd)
        assert odd.element_adjacency() == element_adjacency(odd_nodes, edges)
        for s in all_triples(g.elements):
            x, z, y = ({rename[e] for e in side} for side in (s.x, s.z, s.y))
            want = separates_oracle(odd_nodes, edges, x, z, y)
            assert odd.separates(x, z, y) == want == g.separates(s.x, s.z, s.y)
        assert odd.key() == (tuple(sorted(odd.elements)), g.key()[1])
        graphs.append(odd)
    keys = [(g.key(), name_tuple_key(g)) for g in graphs]
    equal = 0
    for (key, want), (other, other_want) in combinations(keys, 2):
        assert (key == other) == (want == other_want)
        equal += key == other
    assert equal > 0, equal


def test_packed_graph_checks_the_graph_against_the_universe():
    g = UGraph({0: {"a"}, 1: {"q", "b"}, 2: {"r"}, 3: {"z", "m"}}, [(0, 1)])
    with pytest.raises(UnknownElement, match="^not in universe: m, q, r, z$"):
        packed_graph(Universe("ab"), g)
    with pytest.raises(UnknownElement, match="^not in universe: m, q, r, z$"):
        Mug(Universe("ab"), [g])
    with pytest.raises(UnknownElement, match="^not in universe: m, r, z$"):
        Mug(Universe("abq")).with_graph(g)
    packed = (((0, 1), (1, 10), (2, 16), (3, 36)), (2, 1, 0, 0))
    assert packed_graph(Universe("abmqrz"), g) == packed
