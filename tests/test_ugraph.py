import random
from itertools import combinations, permutations, product

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
    enumerate_canonical,
    prove,
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
from mugci.mug import packed_combination, packed_deletion
from mugci.ugraph import (
    Floods,
    element_combination,
    element_deletion,
    element_key,
    packed_graph,
    packed_key,
    unpacked_graph,
)

from object_layer import key as name_tuple_key
from object_layer import nodes_with_element, singletonize
from oracle import all_triples, as_plain, element_adjacency, separates_oracle
from test_mug import random_graph


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


def isomorphism_key(g):
    """The element sets and the least edge list over every numbering of
    the nodes that keeps element sets in order and numbers tied nodes in
    any order: equal exactly for isomorphic graphs."""
    labels = {n: tuple(sorted(es)) for n, es in g.nodes.items()}
    ties: dict[tuple, list] = {}
    for n in sorted(g.nodes):
        ties.setdefault(labels[n], []).append(n)
    groups = sorted(ties.items())
    best = None
    for orders in product(*(permutations(ns) for _, ns in groups)):
        name = {n: (label, i) for (label, _), order in zip(groups, orders)
                for i, n in enumerate(order)}
        edges = sorted(tuple(sorted((name[a], name[b]))) for a, b in g.edges)
        best = edges if best is None or edges < best else best
    return tuple(sorted(labels.values())), tuple(best)


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
    # tell these two apart; the key must, since deleting node 1 leaves
    # graphs with different separations.
    nodes = {1: {"a"}, 2: {"a"}, 3: {"b"}, 4: {"c"}}
    pair = [UGraph(nodes, [(1, 3), (2, 4)]), UGraph(nodes, [(1, 3), (1, 4)])]
    assert name_tuple_key(pair[0]) == name_tuple_key(pair[1])
    assert pair[0].key() != pair[1].key()
    graphs += pair
    keys = [(g.key(), isomorphism_key(g)) for g in graphs]
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


def test_keys_of_graphs_with_tied_nodes_are_exact():
    # Few element sets over many nodes, so that nodes share element sets
    # and graphs share the name-tuple key without being isomorphic.
    rng = random.Random(4099)
    pool = [{"a"}, {"b"}, {"a", "b"}, {"c"}]
    graphs = []
    for _ in range(250):
        n = rng.randint(3, 6)
        sets = pool[: rng.randint(2, 4)]
        nodes = {i: rng.choice(sets) for i in range(n)}
        edges = [pair for pair in combinations(range(n), 2) if rng.random() < 0.4]
        g = UGraph(nodes, edges)
        graphs += [g, relabelled(rng, g)]
    keys = [(g.key(), isomorphism_key(g), name_tuple_key(g)) for g in graphs]
    equal = told_apart = 0
    for (key, want, named), (other, other_want, other_named) in combinations(keys, 2):
        assert (key == other) == (want == other_want)
        equal += key == other
        told_apart += named == other_named and key != other
    # beyond the relabelled pairs, some drawn graphs agree, and the
    # name-tuple key joins some that the key tells apart
    assert equal > len(graphs) // 2 + 20 and told_apart > 20, (equal, told_apart)


def test_tied_key_where_refinement_splits_nothing():
    # Seven nodes over one element set, every node of degree two: a triangle
    # beside a square, or one seven-cycle.  Refinement cannot split them, so
    # each numbering's key rests on trying every node first.
    rng = random.Random(2027)
    shapes = {
        "3+4": [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3)],
        "7": [(i, (i + 1) % 7) for i in range(7)],
    }
    keys = {}
    for shape, edges in shapes.items():
        for _ in range(20):
            place = rng.sample(range(7), 7)
            g = UGraph({i: {"a"} for i in range(7)}, [(place[a], place[b]) for a, b in edges])
            keys.setdefault(shape, set()).add(g.key())
    assert len(keys["3+4"]) == len(keys["7"]) == 1
    assert keys["3+4"] != keys["7"]


U6 = Universe("abcdef")


@st.composite
def single_element_graphs(draw, names="abcdef"):
    """A graph with one element of its own on each node, node ids drawn
    apart from the element order."""
    chosen = draw(st.lists(st.sampled_from(names), min_size=1, unique=True))
    ids = draw(
        st.lists(st.integers(-9, 9), min_size=len(chosen), max_size=len(chosen), unique=True)
    )
    pairs = list(combinations(range(len(chosen)), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [(ids[a], ids[b]) for (a, b), k in zip(pairs, keep) if k]
    return UGraph({n: {e} for n, e in zip(ids, chosen)}, edges)


def decoded(nodes: tuple, mask: int, near: tuple) -> UGraph:
    """The graph a graph in element form stands for, over ``U6``."""
    bits = [bit for bit in U6.bits.values() if bit & mask]
    near_of = dict(zip(bits, near))
    edges = [(a, b) for (a, m), (b, n) in combinations(nodes, 2) if near_of[m] & n]
    return UGraph({n: U6.names(m) for n, m in nodes}, edges)


@settings(max_examples=200, deadline=None)
@given(single_element_graphs(), st.data())
def test_element_form_moves_are_the_packed_moves(g, data):
    packed = packed_graph(U6, g)
    nodes = packed[0]
    key = element_key(*packed)
    assert key == packed_key(*packed) and decoded(nodes, *key) == g
    for i in range(len(nodes)):
        got = element_deletion(nodes, *key, i)
        want = packed_deletion(*packed, i)
        assert got[0] == want[0] and got[1:] == element_key(*want)
        assert decoded(*got) == unpacked_graph(U6, *want)
    mask = key[0]
    outside = U6.full & ~mask
    if outside:
        z = data.draw(st.integers(0, mask)) & mask
        added = data.draw(st.integers(1, outside).filter(lambda a: a & outside)) & outside
        got = element_combination(nodes, *key, z, added)
        want = packed_combination(*packed, z, added)
        assert got[0] == want[0] and got[1:] == element_key(*want)
        assert decoded(*got) == unpacked_graph(U6, *want)


@settings(max_examples=300, deadline=None)
@given(st.lists(single_element_graphs("abc"), min_size=2, max_size=2))
def test_element_keys_are_equal_exactly_for_isomorphic_graphs(pair):
    g, h = pair
    key, other = (element_key(*packed_graph(U6, graph)) for graph in pair)
    assert (key == other) == (isomorphism_key(g) == isomorphism_key(h))
    assert (key == other) == (name_tuple_key(g) == name_tuple_key(h))
    assert element_key(*packed_graph(U6, UGraph({0: {"a", "b"}}))) is None


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


def count_element_graph_builds(monkeypatch) -> list:
    """The packed graphs ``ugraph.element_neighbours`` is asked for, from now
    on, by ``ugraph`` or by ``mug``, which imports it."""
    import mugci.mug as mug
    import mugci.ugraph as ugraph

    built = []
    real = ugraph.element_neighbours

    def counting(nodes, adj):
        built.append((nodes, adj))
        return real(nodes, adj)

    for module in (ugraph, mug):
        monkeypatch.setattr(module, "element_neighbours", counting)
    return built


def test_element_graph_is_built_only_when_read(monkeypatch):
    from mugci.modelfile import format_ugraph

    built = count_element_graph_builds(monkeypatch)
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
    keys = [(g.key(), isomorphism_key(g)) for g in graphs]
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


# -- the witness rule, from every entry point -----------------------------------


def networkx_separates(nx, g, s):
    """Whether s.z separates s.x from s.y in g's element graph, by networkx."""
    nodes = g.nodes
    eg = nx.Graph()
    eg.add_nodes_from(g.elements - s.z)
    for es in nodes.values():
        eg.add_edges_from((a, b) for a in es - s.z for b in es - s.z if a < b)
    for n1, n2 in g.edges:
        eg.add_edges_from(
            (a, b) for a in nodes[n1] - s.z for b in nodes[n2] - s.z if a != b
        )
    near = set().union(*(nx.node_connected_component(eg, e) for e in s.x))
    return not near & s.y


def test_one_witness_rule_from_every_entry_point():
    # Floods.witnesses is the rule; UGraph.separates, Mug.witness on a
    # one-graph model and prove with no premises all answer through it.
    nx = pytest.importorskip("networkx")
    rng = random.Random(3030)
    seen = {"multi": 0, "repeated": 0, "negative": 0, "lacking": 0}
    for round_ in range(60):
        n = rng.randint(3, 5)
        names = [f"e{i}" for i in range(n)]
        if round_ % 2:
            g = relabelled(rng, random_multi_graph(rng, n))
        else:  # over part of the universe, so some statements are not held
            g = relabelled(rng, random_graph(rng, names))
        u = Universe(names)
        nodes, adj = packed_graph(u, g)
        floods = Floods(nodes, adj)
        m = Mug(u, [g])
        for s in enumerate_canonical(u):
            got = floods.witnesses(u.mask(s.x), u.mask(s.z), u.mask(s.y))
            assert (m.witness(s) == 0) is got, (g, s)
            assert (prove([], u, [g], s) is not None) is got, (g, s)
            if s.elements <= g.elements:
                assert g.separates(s.x, s.z, s.y) is got, (g, s)
                assert networkx_separates(nx, g, s) is got, (g, s)
            else:
                assert not got
                with pytest.raises(MissingElements):
                    g.separates(s.x, s.z, s.y)
        plain = g.nodes.values()
        seen["multi"] += any(len(es) > 1 for es in plain)
        seen["repeated"] += sum(map(len, plain)) > len(g.elements)
        seen["negative"] += min(g.nodes) < 0
        seen["lacking"] += len(g.elements) < n
    assert min(seen.values()) > 10, seen


def test_each_graph_element_graph_and_floods_are_made_once_per_model(monkeypatch):
    import mugci.ugraph as ugraph

    u = Universe("abcde")
    graphs = [
        UGraph({0: {"a", "b"}, -3: {"c"}, 7: {"b", "d"}}, [(0, -3), (-3, 7)]),
        UGraph.from_singletons("abcde", zip("abcd", "bcde")),
        UGraph({4: {"e"}, 9: {"a"}}),  # asked only I(a, {}, e), which the path fails
    ]
    built = count_element_graph_builds(monkeypatch)
    m = Mug(u, graphs)
    floods = []
    real_reach = ugraph.reach
    monkeypatch.setattr(ugraph, "reach", lambda *a: floods.append(a) or real_reach(*a))
    statements = list(enumerate_canonical(u))
    counts = []
    for _ in range(3):
        for s in statements:
            m.witness(s)
        counts.append(len(floods))
    # the graphs of one element per node as they are keyed, the other on
    # its first flood
    assert built == [m.packed[1], m.packed[2], m.packed[0]]
    # each (start, blocked) is flooded once a graph; later passes only read
    assert counts[0] == counts[2] > 0


def test_prove_builds_each_graph_element_graph_once_per_call(monkeypatch):
    u = Universe("abcd")
    g = UGraph.from_singletons("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    premises = [canonical_triple("a", "b", "c"), canonical_triple("a", "c", "d")]
    premises += [canonical_triple("b", "c", "d"), canonical_triple("a", "bc", "d")]
    built = count_element_graph_builds(monkeypatch)
    for _ in range(3):
        # four premises and the target flooded, the graph built once
        assert prove(premises, u, [g], canonical_triple("a", "", "d")) is None
    assert built == [packed_graph(u, g)] * 3
    built.clear()
    other = UGraph.from_singletons("ad")
    for _ in range(2):
        # the target is the second graph's seed: both graphs flooded once
        assert prove(premises, u, [g, other], canonical_triple("a", "", "d"))
    assert built == [packed_graph(u, g), packed_graph(u, other)] * 2
    built.clear()
    # The floods cannot decide and the run is needed: the separations are
    # listed from the same records, so still one build a graph.
    graphs = [g, UGraph.from_singletons("abd", [("a", "b")])]
    target = canonical_triple("a", "c", "bd")
    assert prove([canonical_triple("a", "b", "c")], u, graphs, target) is None
    assert built == [packed_graph(u, h) for h in graphs]


def test_from_singletons_names_every_unknown_endpoint(monkeypatch):
    def no_nodes(self, *args):
        raise AssertionError("a node was built before the check")

    monkeypatch.setattr(UGraph, "__init__", no_nodes)
    with pytest.raises(UnknownElement, match="^not in universe: c, d$"):
        UGraph.from_singletons("ab", [("a", "c"), ("d", "b"), ("c", "a")])
    with pytest.raises(UnknownElement, match="^not in universe: c$"):
        UGraph.from_singletons("ab", iter([("a", "b"), ("a", "c")]))
    monkeypatch.undo()
    g = UGraph.from_singletons("ba", iter([("a", "b")]))
    assert g == UGraph({0: {"a"}, 1: {"b"}}, [(0, 1)])
