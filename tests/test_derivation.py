import random
from collections import deque
from itertools import combinations, permutations
from typing import Iterator
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mugci import (
    Combine,
    Delete,
    Exhausted,
    Move,
    MoveScript,
    Mug,
    UGraph,
    Universe,
    canonical_triple,
    closure,
    enumerate_canonical,
    initial_mug,
    replay_chain,
    replay_final,
    search,
    statement_key,
    verify_script,
)
from mugci.derivation import _candidates, _components, packed_witness
from mugci.errors import (
    ModelError,
    PremiseNotSatisfied,
    StatementNotSatisfied,
    UnknownNode,
    WrongElementSet,
)
from mugci.graphoid import AxiomStep
from mugci.model import CanonicalStatement, Statement, TriviallyTrue, canonicalize
from mugci.modelfile import parse_model
from mugci.mug import (
    append_transformed,
    packed_combination,
    packed_deletion,
    separations,
)
from mugci.ugraph import (
    element_mask,
    element_neighbours,
    packed_graph,
    packed_key,
    reach,
    unpacked_graph,
)

import object_layer
from object_layer import (
    combination_graph,
    delete_node,
    nodes_with_element,
    singletonize,
    witness_graph,
)

U4 = Universe(["w", "x", "y", "z"])
FIXTURES = Path(__file__).parent / "fixtures"


def cs(x, z, y):
    return canonical_triple(set(x), set(z), set(y))


# -- witness graphs -----------------------------------------------------------


def test_witness_graph_of_singleton_triple_is_a_path():
    g = witness_graph(cs("x", "z", "y"))
    assert g.expand().edges == {frozenset("xz"), frozenset("zy")}


def test_witness_graph_double_clique():
    g = witness_graph(cs("x", "z", "yw"))
    assert g.expand().edges == {
        frozenset("xz"),
        frozenset("zy"),
        frozenset("zw"),
        frozenset("yw"),
    }


def test_witness_graph_with_empty_conditioning():
    g = witness_graph(cs("ab", "", "c"))
    assert g.expand().edges == {frozenset("ab")}
    assert g.elements == frozenset("abc")


@pytest.mark.parametrize(
    "s",
    [
        cs("x", "z", "y"),
        cs("x", "z", "yw"),
        cs("xy", "z", "w"),
        cs("ab", "", "c"),
        cs("a", "bc", "d"),
    ],
)
def test_witness_graph_encodes_exactly_the_closure(s):
    # satisfied set of the lone witness graph == closure of the statement
    # restricted to its own elements
    sub = Universe(s.elements)
    m = Mug(sub, [witness_graph(s)])
    assert m.enumerate_satisfied() == closure([s], sub).statements


def reference_witness_graph(s: CanonicalStatement) -> UGraph:
    """``witness_graph`` as it was built from element pairs before it was
    decoded from ``packed_witness``."""
    members = sorted(s.elements)
    left, right = s.x | s.z, s.y | s.z
    edges = [
        (a, b)
        for a, b in combinations(members, 2)
        if {a, b} <= left or {a, b} <= right
    ]
    return UGraph.from_singletons(members, edges)


def test_witness_graphs_match_the_element_pair_construction():
    # every statement over six elements, each placed anywhere in the universe
    u = Universe("abcdef")
    pool = sorted(enumerate_canonical(u), key=statement_key)
    for s in pool:
        want = reference_witness_graph(s)
        assert witness_graph(s) == want
        assert initial_mug(u, statements=[s]) == Mug(u, [want])
    rng = random.Random(1312)
    for _ in range(40):
        graphs = [reference_witness_graph(s) for s in rng.sample(pool, 2)]
        premises = rng.sample(pool, 3)
        m0 = initial_mug(u, statements=premises, graphs=graphs)
        witnesses = map(reference_witness_graph, premises)
        assert m0 == Mug(u, [*map(singletonize, graphs), *witnesses])
    # Declared graphs that give two nodes one element set, and one with
    # sparse and negative node ids and multi-element nodes, in every order:
    # packed over the universe, they give the graphs, order and dedup of
    # packing each singletonized graph.
    declared = [
        UGraph({1: {"a"}, 2: {"a"}, 3: {"b"}, 4: {"c"}}, [(1, 3), (2, 4)]),
        UGraph({1: {"a"}, 2: {"a"}, 3: {"b"}, 4: {"c"}}, [(1, 3), (1, 4)]),
        UGraph({-5: {"b", "d"}, 9: {"f"}, 40: {"a", "e"}}, [(-5, 40), (9, 40)]),
    ]
    premises = [cs("a", "b", "c"), cs("d", "", "f")]
    for graphs in permutations(declared):
        m0 = initial_mug(u, statements=premises, graphs=graphs)
        witnesses = map(reference_witness_graph, premises)
        want = Mug(u, [*map(singletonize, graphs), *witnesses])
        assert m0.packed == want.packed
        assert len(m0.packed) == 4


def test_packed_witness_matches_the_two_clique_construction():
    # Disjoint non-empty x and y and a disjoint z, drawn over 2-10 bits with
    # gaps, so the witness's node positions differ from its element bits.
    rng = random.Random(2203)
    shapes = {"empty z": 0, "single side": 0}
    for _ in range(4000):
        n = rng.randint(2, 10)
        bits = [1 << i for i in range(n)]
        x, y, *rest = rng.sample(bits, rng.randint(2, n))
        z = 0
        for bit in rest:
            roll = rng.random()
            if roll < 0.3:
                x |= bit
            elif roll < 0.6:
                y |= bit
            else:
                z |= bit
        want = object_layer.reference_packed_witness(x, z, y)
        assert packed_witness(x, z, y) == want == packed_witness(y, z, x)
        shapes["empty z"] += not z
        shapes["single side"] += x.bit_count() == 1 or y.bit_count() == 1
    assert min(shapes.values()) > 300, shapes
    assert packed_witness(1, 0, 2) == (((0, 1), (1, 2)), (0, 0))
    assert packed_witness(0b1, 0b10, 0b100) == (((0, 1), (1, 2), (2, 4)), (2, 5, 2))


# -- replay -------------------------------------------------------------------


def test_replay_of_given_needs_no_moves():
    s = cs("x", "z", "y")
    m0 = initial_mug(U4, statements=[s])
    script = replay_chain(m0, (AxiomStep("given", (), s),))
    assert script.moves == ()
    assert verify_script(script)


def test_replay_contraction():
    premises = [cs("x", "zy", "w"), cs("x", "z", "y")]
    m0 = initial_mug(U4, statements=premises)
    c = closure(premises, U4)
    target = cs("x", "z", "yw")
    script = replay_chain(m0, c.chain(target))
    assert script.target == target
    assert verify_script(script)
    assert any(isinstance(mv, Combine) for mv in script.moves)
    assert replay_final(script).witness(target) is not None


def test_replay_full_mixing_derivation():
    premises = [cs("xy", "z", "w"), cs("x", "z", "y")]
    m0 = initial_mug(U4, statements=premises)
    c = closure(premises, U4)
    target = cs("x", "z", "yw")
    script = replay_chain(m0, c.chain(target))
    assert verify_script(script)
    final = replay_final(script)
    # the final model shows z separating every pair of other elements
    for pair in (("x", "y"), ("x", "w"), ("y", "w")):
        assert final.witness(cs(pair[0], "z", pair[1])) is not None
    assert final.witness(target) is not None


def _replay_with_deletions_model() -> Mug:
    """The only witness for I(x,z,y) carries an extra element q."""
    q_universe = Universe(["q", "w", "x", "y", "z"])
    wide = witness_graph(cs("x", "z", "y")).add_arcs([])
    wide_nodes = dict(wide.nodes)
    qid = max(wide_nodes) + 1
    wide_nodes[qid] = frozenset("q")
    wide = UGraph(
        wide_nodes, list(wide.edges) + [(qid, nodes_with_element(wide, "x")[0])]
    )
    return Mug(q_universe, [wide, witness_graph(cs("x", "zy", "w"))])


def test_replay_deletes_extraneous_elements_before_combining():
    # q must go before the combination
    m0 = _replay_with_deletions_model()
    c = closure(m0.enumerate_satisfied(), m0.universe)
    target = cs("x", "z", "yw")
    assert target in c.statements
    script = replay_chain(m0, c.chain(target))
    assert verify_script(script)
    kinds = [type(mv).__name__ for mv in script.moves]
    assert "Delete" in kinds and "Combine" in kinds


def test_replay_rejects_unsatisfied_givens():
    m0 = initial_mug(U4, statements=[cs("x", "z", "y")])
    with pytest.raises(PremiseNotSatisfied):
        replay_chain(m0, (AxiomStep("given", (), cs("x", "z", "w")),))


def test_replay_rejects_broken_chains():
    s = cs("x", "z", "y")
    m0 = initial_mug(U4, statements=[s])
    bad = (
        AxiomStep("given", (), s),
        AxiomStep("decomposition", (0,), cs("x", "z", "w")),
    )
    with pytest.raises(ValueError):
        replay_chain(m0, bad)


# -- search -------------------------------------------------------------------


def test_search_trivial_when_already_satisfied():
    s = cs("x", "z", "y")
    m0 = initial_mug(U4, statements=[s])
    script = search(m0, s, max_moves=2, max_graphs=4)
    assert isinstance(script, MoveScript) and script.moves == ()


def test_search_finds_contraction_script():
    premises = [cs("x", "zy", "w"), cs("x", "z", "y")]
    m0 = initial_mug(U4, statements=premises)
    target = cs("x", "z", "yw")
    script = search(m0, target, max_moves=3, max_graphs=8)
    assert isinstance(script, MoveScript)
    assert verify_script(script)
    # replay reaches the same statement; search should match its length
    replayed = replay_chain(m0, closure(premises, U4).chain(target))
    assert len(script.moves) <= len(replayed.moves)


def test_search_exhausts_on_intersection_premises():
    premises = [cs("x", "zy", "w"), cs("x", "zw", "y")]
    m0 = initial_mug(U4, statements=premises)
    target = cs("x", "z", "yw")
    outcome = search(m0, target, max_moves=3, max_graphs=6)
    assert isinstance(outcome, Exhausted)
    assert outcome.states_explored > 0


def test_search_is_deterministic():
    premises = [cs("xy", "z", "w"), cs("x", "z", "y")]
    m0 = initial_mug(U4, statements=premises)
    target = cs("x", "z", "yw")
    a = search(m0, target, max_moves=3, max_graphs=8)
    b = search(m0, target, max_moves=3, max_graphs=8)
    assert a == b


def test_search_gives_up_at_once_on_a_target_outside_the_universe():
    # no graph can hold q, so no state is explored
    m0 = initial_mug(U4, statements=[cs("x", "zy", "w"), cs("x", "z", "y")])
    target = canonical_triple({"x"}, {"z"}, {"q"})
    outcome = search(m0, target, max_moves=2, max_graphs=4)
    assert outcome == Exhausted(states_explored=0, depth_reached=0)
    assert outcome.stats == dict.fromkeys(
        ("dedup_hits", "rejected_graph_cap", "floods", "flood_hits"), 0
    )


def test_search_bounds_must_be_positive():
    m0 = initial_mug(U4, statements=[cs("x", "z", "y")])
    with pytest.raises(ValueError):
        search(m0, cs("x", "z", "y"), max_moves=0, max_graphs=1)


# -- script verification --------------------------------------------------------


def test_verify_rejects_unsatisfied_combination():
    m0 = initial_mug(U4, statements=[cs("x", "z", "y")])
    bad = MoveScript(
        m0, (Combine(cs("x", "z", "w"), 0),), cs("x", "z", "w")
    )
    assert not verify_script(bad)
    # a script holding something that is not a move is rejected, not raised
    assert not verify_script(MoveScript(m0, ("junk",), cs("x", "z", "y")))
    assert not verify_script(MoveScript(m0, (Combine("junk", 0),), cs("x", "z", "y")))


def test_verify_reports_unreached_target():
    m0 = initial_mug(U4, statements=[cs("x", "z", "y")])
    script = MoveScript(m0, (), cs("x", "z", "w"))
    assert not verify_script(script)  # no moves, target unsatisfied


def test_singletonize_rebuilds_the_element_graph():
    # one node per element, ids in element order, over the element
    # adjacency: a model's packed graphs and a lone UGraph alike
    cases = [*_odd_id_cases(60), *_declared_graph_cases(20)]
    for m0, _ in cases:
        want = [
            UGraph.from_singletons(
                g.elements,
                [(a, b) for a, near in g.element_adjacency().items() for b in near],
            )
            for g in m0.graphs
        ]
        assert [singletonize(g) for g in m0.graphs] == want
        assert m0.singletonized() == Mug(m0.universe, want)


def test_singletonize_preserves_satisfaction():
    g = UGraph({0: {"x", "y"}, 1: {"z"}, 2: {"w"}}, [(0, 1), (1, 2)])
    u = Universe(["w", "x", "y", "z"])
    m_multi = Mug(u, [g])
    m_single = Mug(u, [singletonize(g)])
    assert m_multi.enumerate_satisfied() == m_single.enumerate_satisfied()


# -- soundness on random instances ---------------------------------------------


def test_search_scripts_stay_inside_the_closure():
    import random

    rng = random.Random(5)
    pool = sorted(enumerate_canonical(U4), key=statement_key)
    for _ in range(10):
        premises = rng.sample(pool, 2)
        m0 = initial_mug(U4, statements=premises)
        base = m0.enumerate_satisfied()
        allowed = closure(base, U4).statements
        target = rng.choice(pool)
        outcome = search(m0, target, max_moves=2, max_graphs=6)
        if isinstance(outcome, Exhausted):
            continue  # bounds may be too tight; soundness is what matters
        assert verify_script(outcome)
        assert replay_final(outcome).enumerate_satisfied() <= allowed


# -- packed graphs ----------------------------------------------------------------
#
# Every move is made on packed graphs; each packed move must unpack to
# exactly what the object layer's move built (``object_layer``), and packed
# keys must group graphs exactly as ``UGraph.key`` does.

U6 = Universe("abcdef")


def _packed_test_graphs(count):
    rng = random.Random(23)
    for _ in range(count):
        names = rng.sample(U6.elements, rng.randint(2, 6))
        yield _odd_id_graph(rng, names)


def test_packed_graph_round_trips():
    enc = U6
    for g in _packed_test_graphs(200):
        nodes, adj = packed_graph(enc, g)
        assert [n for n, _ in nodes] == sorted(g.nodes)
        assert unpacked_graph(enc, nodes, adj) == g


def test_packed_deletion_is_delete_node():
    enc = U6
    for g in _packed_test_graphs(200):
        packed = packed_graph(enc, g)
        for i, (n, _) in enumerate(packed[0]):
            got = packed_deletion(*packed, i)
            assert unpacked_graph(enc, *got) == delete_node(g, n), (g, n)


def test_packed_combination_is_combination_graph():
    enc = U6
    rng = random.Random(24)
    checked = 0
    for g in _packed_test_graphs(200):
        inside = sorted(g.elements)
        outside = sorted(set(U6) - g.elements)
        if not outside:
            continue
        packed = packed_graph(enc, g)
        for _ in range(5):
            x = set(rng.sample(inside, rng.randint(1, len(inside))))
            y = set(rng.sample(outside, rng.randint(1, len(outside))))
            statement = cs(x, set(inside) - x, y)
            got = packed_combination(*packed, enc.mask(statement.z), enc.mask(y))
            assert unpacked_graph(enc, *got) == combination_graph(g, statement)
            checked += 1
    assert checked > 500


def test_packed_key_groups_graphs_as_ugraph_key_does():
    enc = U4
    rng = random.Random(25)
    graphs = []
    for _ in range(120):
        # few elements and nodes, so that unequal graphs share keys often
        names = rng.sample(U4.elements, rng.randint(2, 3))
        g = _odd_id_graph(rng, names)
        # the same graph under other ids has the same key
        ids = sorted(g.nodes)
        moved = dict(zip(ids, rng.sample([-5, 2, 3, 11, 40], len(ids))))
        graphs.append(g)
        graphs.append(
            UGraph(
                {moved[n]: es for n, es in g.nodes.items()},
                [tuple(moved[n] for n in e) for e in g.edges],
            )
        )
    keys = [packed_key(*packed_graph(enc, g)) for g in graphs]
    equal_keys = 0
    for (g, k), (h, l) in combinations(zip(graphs, keys), 2):
        assert (k == l) == (g.key() == h.key()), (g, h)
        equal_keys += k == l
    # beyond the relabelled pairs, some independently drawn graphs agree
    assert equal_keys > len(graphs) // 2


# -- search against a reference search -----------------------------------------
#
# The reference below builds a whole model for every successor and asks every
# witness question of every graph afresh; ``search`` must return the same
# outcome: the same moves, or the same exhaustion figures.


def _combine_candidates(m: Mug, gi: int) -> list[Combine]:
    elements = m.universe.names(element_mask(m.packed[gi][0]))
    inside = sorted(elements)
    outside = sorted(set(m.universe) - elements)
    if not outside:
        return []
    out = []
    for xmask in range(1, 1 << len(inside)):
        x = frozenset(e for i, e in enumerate(inside) if xmask >> i & 1)
        z = frozenset(inside) - x
        for ymask in range(1, 1 << len(outside)):
            y = frozenset(e for i, e in enumerate(outside) if ymask >> i & 1)
            c = canonicalize(Statement(x, z, y))
            if isinstance(c, TriviallyTrue):
                continue
            if m.witness(c) is not None:
                out.append(Combine(c, gi))
    out.sort(key=lambda mv: statement_key(mv.statement))
    return out


def _search_moves(m: Mug) -> list[Move]:
    moves: list[Move] = []
    for gi, (nodes, _) in enumerate(m.packed):
        moves.extend(Delete(gi, n) for n, _ in nodes)
        moves.extend(_combine_candidates(m, gi))
    return moves


def reference_search(
    m0: Mug, target: CanonicalStatement, max_moves: int, max_graphs: int
) -> MoveScript | Exhausted:
    """Breadth-first search for a deletion/combination script reaching target.

    States are deduplicated by their graph-key multiset; successor moves are
    ordered by graph index, deletions before combinations, so the result is
    the deterministic shortest script within the bounds.
    """
    if max_moves <= 0 or max_graphs <= 0:
        raise ValueError("search bounds must be positive")
    if m0.witness(target) is not None:
        return MoveScript(m0, (), target)
    visited = {tuple(sorted(packed_key(*g) for g in m0.packed))}
    queue: deque[tuple[Mug, tuple[Move, ...]]] = deque([(m0, ())])
    explored = 0
    depth_reached = 0
    while queue:
        m, path = queue.popleft()
        explored += 1
        if len(path) >= max_moves:
            continue
        for move in _search_moves(m):
            try:
                m2, _ = append_transformed(m, move)
            except ModelError:
                continue
            if len(m2.packed) > max_graphs:
                continue
            key = tuple(sorted(packed_key(*g) for g in m2.packed))
            if key in visited:
                continue
            visited.add(key)
            path2 = path + (move,)
            depth_reached = max(depth_reached, len(path2))
            if m2.witness(target) is not None:
                return MoveScript(m0, path2, target)
            queue.append((m2, path2))
    return Exhausted(states_explored=explored, depth_reached=depth_reached)


def _intersection_model():
    model = parse_model((FIXTURES / "intersection.mug").read_text(encoding="utf-8"))
    premises = [canonicalize(s) for s in model.statements.values()]
    m0 = initial_mug(model.universe, statements=premises)
    return m0, cs("x", "z", "yw")


def _random_search_cases(count):
    """Premise models over 4-5 elements; every other target is derivable."""
    rng = random.Random(20)
    for i in range(count):
        u = Universe("abcde"[: rng.randint(4, 5)])
        pool = sorted(enumerate_canonical(u), key=statement_key)
        premises = rng.sample(pool, rng.randint(2, 3))
        m0 = initial_mug(u, statements=premises)
        derivable = sorted(
            closure(premises, u).statements - m0.enumerate_satisfied(),
            key=statement_key,
        )
        yield m0, rng.choice(derivable if i % 2 and derivable else pool)


def _random_graph(rng, names, shape):
    """A graph over ``names``: dense, sparse, or with a two-element node."""
    nodes = [{e} for e in names]
    if shape == "multi":
        nodes[0] |= nodes.pop()
    p = {"dense": 0.8, "sparse": 0.25, "multi": 0.5}[shape]
    edges = [
        (a, b) for a in range(len(nodes)) for b in range(a + 1, len(nodes))
        if rng.random() < p
    ]
    return UGraph(dict(enumerate(nodes)), edges)


def _declared_graph_cases(count):
    """Models declaring 1-2 graphs over 4-5 elements beside 1-2 premises."""
    rng = random.Random(21)
    for i in range(count):
        u = Universe("abcde"[: rng.randint(4, 5)])
        pool = sorted(enumerate_canonical(u), key=statement_key)
        graphs = [
            _random_graph(
                rng,
                rng.sample(u.elements, rng.randint(4, len(u))),
                ("dense", "sparse", "multi")[(i + k) % 3],
            )
            for k in range(rng.randint(1, 2))
        ]
        premises = rng.sample(pool, rng.randint(1, 2))
        m0 = initial_mug(u, statements=premises, graphs=graphs)
        held = m0.enumerate_satisfied()
        derivable = sorted(closure(held, u).statements - held, key=statement_key)
        yield m0, rng.choice(derivable if i % 2 and derivable else pool)


def _odd_id_graph(rng, names):
    """2-4 nodes with odd ids (negative, sparse, huge), 1-2 elements each.

    An element may sit on two nodes; every name sits on at least one.
    """
    # ids in drawn order, so the graph's node mapping is not in id order
    ids = rng.sample([-7, -3, -1, 0, 5, 7, 10**9, 10**9 + 2], rng.randint(2, 4))
    nodes = {n: set(rng.sample(names, rng.randint(1, 2))) for n in ids}
    for e in names:
        if not any(e in es for es in nodes.values()):
            nodes[rng.choice(ids)].add(e)
    edges = [(a, b) for a, b in combinations(ids, 2) if rng.random() < 0.5]
    return UGraph(nodes, edges)


def _odd_id_cases(count):
    """Models built as ``Mug``s directly, so their graphs keep odd node ids
    and multi-element nodes (``initial_mug`` would renumber them)."""
    rng = random.Random(22)
    for i in range(count):
        u = Universe("abcde"[: rng.randint(4, 5)])
        pool = sorted(enumerate_canonical(u), key=statement_key)
        graphs = [_odd_id_graph(rng, rng.sample(u.elements, rng.randint(3, len(u))))]
        graphs += [witness_graph(s) for s in rng.sample(pool, 2)]
        m0 = Mug(u, graphs)
        held = m0.enumerate_satisfied()
        derivable = sorted(closure(held, u).statements - held, key=statement_key)
        yield m0, rng.choice(derivable if i % 2 and derivable else pool)


def test_search_keeps_the_paths_of_a_repeated_element():
    # a sits on nodes 1 and 2; deleting node 1 must not cut b off from c,
    # since a still links them through node 2
    u = Universe("abc")
    g = UGraph({1: {"a"}, 2: {"a"}, 3: {"b"}, 4: {"c"}}, [(1, 3), (2, 4)])
    m0 = Mug(u, [g])
    target = cs("b", "", "ac")
    assert closure((), u, [g]).statements == {cs("b", "a", "c")}
    assert isinstance(search(m0, target, 1, 4), Exhausted)
    assert not verify_script(MoveScript(m0, (Delete(0, 1),), target))


def test_odd_id_scripts_stay_inside_the_closure():
    # graphs that put one element on two nodes, and multi-element nodes
    scripts = 0
    for m0, target in _odd_id_cases(400):
        allowed = closure(m0.enumerate_satisfied(), m0.universe).statements
        for max_moves, max_graphs in ((3, 8), (2, 4)):
            outcome = search(m0, target, max_moves, max_graphs)
            if isinstance(outcome, MoveScript):
                assert verify_script(outcome)
                final = replay_final(outcome).enumerate_satisfied()
                assert final <= allowed, (m0, target)
                scripts += 1
    assert scripts > 200


# -- the model layer against its object-layer predecessor ----------------------
#
# ``object_layer`` is a copy of the ``Mug`` and the moves that ran on
# ``UGraph`` objects.  Every move, valid or not, must give the same graphs
# and index, or the same error, and the models made must answer alike.


def _made(apply, m, move) -> tuple:
    """("made", model, index), or ("raised", error type, message)."""
    try:
        return ("made", *apply(m, move))
    except (ModelError, IndexError) as exc:
        return "raised", type(exc), str(exc)


def _every_move(rng, graphs, pool) -> list[Move]:
    """Each node's deletion and each combination whose statement has one
    side plus z on the graph, for every graph and the indices either side;
    an absent node, and random statements, for each index."""
    moves: list[Move] = []
    for gi in range(-1, len(graphs) + 1):
        g = graphs[gi] if 0 <= gi < len(graphs) else UGraph({})
        ids = sorted(g.nodes)
        moves += [Delete(gi, n) for n in ids + [max(ids, default=0) + 1]]
        shaped = [s for s in pool if g.elements in (s.x | s.z, s.y | s.z)]
        moves += [Combine(s, gi) for s in shaped + rng.sample(pool, 8)]
    return moves


def test_mug_matches_the_object_layer():
    rng = random.Random(26)
    cases = [*_random_search_cases(30), *_declared_graph_cases(30), *_odd_id_cases(30)]
    raised = {}
    witnessed = 0
    for m0, _ in cases:
        pool = sorted(enumerate_canonical(m0.universe), key=statement_key)
        m, old = m0, object_layer.Mug(m0.universe, m0.graphs)
        # Every move from the model, then again from one of the models made.
        for _ in range(3):
            assert m.graphs == old.graphs
            made = []
            for move in _every_move(rng, old.graphs, pool):
                got = _made(append_transformed, m, move)
                want = _made(object_layer.append_transformed, old, move)
                if want[0] == "raised":
                    assert got == want, move
                    raised[want[1]] = raised.get(want[1], 0) + 1
                    continue
                assert got[0] == "made" and got[2] == want[2], move
                assert got[1].graphs == want[1].graphs, move
                made.append((got[1], want[1]))
            for new, parent in rng.sample(made, min(len(made), 4)):
                assert new.enumerate_satisfied() == parent.enumerate_satisfied()
                for s in rng.sample(pool, 20):
                    assert new.witness(s) == parent.witness(s), s
                    witnessed += new.witness(s) is not None
            m, old = rng.choice(made)
    assert set(raised) == {
        UnknownNode, IndexError, StatementNotSatisfied, WrongElementSet
    }, raised
    assert min(raised.values()) > 50 and witnessed > 500, (raised, witnessed)


def test_sibling_models_answer_from_their_own_graphs():
    # Both children put their new graph at index 2 of the same parent; each
    # must answer from its own, whichever is asked first.
    u = Universe("wxyz")
    premise = UGraph.from_singletons(
        "wxyz", [("x", "z"), ("x", "y"), ("z", "y"), ("z", "w"), ("y", "w")]
    )
    parent = Mug(u, [premise, UGraph.from_singletons("xyz", [("x", "z"), ("z", "y")])])
    target = cs("x", "z", "yw")
    assert parent.witness(target) is None
    complete = UGraph.from_singletons("wxyz", combinations("wxyz", 2))
    for first in range(2):
        combined, gi = append_transformed(parent, Combine(cs("x", "zy", "w"), 1))
        dense, gj = parent.with_graph(complete)
        assert gi == gj == 2
        pair = [(combined, 2), (dense, None)]
        for m, expected in pair[first:] + pair[:first]:
            assert m.witness(target) == expected
    assert parent.witness(target) is None


def test_search_matches_reference_on_random_models():
    # Equality covers a script's initial model, moves and target, and an
    # exhaustion's states explored and depth reached.
    exhausted = scripts = 0
    cases = [
        *_random_search_cases(100),
        *_declared_graph_cases(40),
        *_odd_id_cases(30),
        _intersection_model(),
    ]
    for m0, target in cases:
        got = search(m0, target, max_moves=3, max_graphs=8)
        want = reference_search(m0, target, max_moves=3, max_graphs=8)
        assert got == want, (m0, target)
        exhausted += isinstance(got, Exhausted)
        scripts += isinstance(got, MoveScript) and len(got.moves) > 0
        # a graph cap the search runs into
        got = search(m0, target, max_moves=3, max_graphs=3)
        want = reference_search(m0, target, max_moves=3, max_graphs=3)
        assert got == want, (m0, target)
    # both outcomes occur, and scripts of one to three moves are compared
    assert exhausted >= 20 and scripts >= 20


@pytest.mark.parametrize(
    "max_graphs, expected",
    [
        (
            8,
            {
                "states_depth_0": 1,
                "states_depth_1": 4,
                "states_depth_2": 18,
                "states_depth_3": 70,
                # Successors that only reorder earlier moves are skipped
                # before the dedup lookup and are not counted here.
                "dedup_hits": 80,
                "rejected_graph_cap": 0,
                # One flood per component of a covering graph outside a
                # listed graph's elements, and one per graph key holding
                # the target's elements; a state takes over its parent's
                # listings without flooding.
                "floods": 36,
                "flood_hits": 14,
            },
        ),
        (
            3,
            {
                "states_depth_0": 1,
                "states_depth_1": 4,
                "dedup_hits": 16,
                "rejected_graph_cap": 36,
                "floods": 10,
                "flood_hits": 0,
            },
        ),
    ],
)
def test_search_stats_on_intersection_fixture(max_graphs, expected):
    m0, target = _intersection_model()
    outcome = search(m0, target, max_moves=3, max_graphs=max_graphs)
    assert isinstance(outcome, Exhausted)
    # the counters take no part in equality
    assert outcome == Exhausted(outcome.states_explored, outcome.depth_reached)
    assert outcome.stats == expected
    depths = [v for k, v in outcome.stats.items() if k.startswith("states_depth_")]
    assert sum(depths) == outcome.states_explored


def test_search_stats_on_a_proven_contraction():
    premises = [cs("x", "zy", "w"), cs("x", "z", "y")]
    m0 = initial_mug(U4, statements=premises)
    target = cs("x", "z", "yw")
    script = search(m0, target, max_moves=3, max_graphs=8)
    assert script.moves == (Combine(cs("x", "zy", "w"), 1),)
    # the counters take no part in equality
    assert script == MoveScript(m0, script.moves, target)
    assert script.stats == {
        "states_depth_0": 1,
        "dedup_hits": 0,
        "rejected_graph_cap": 0,
        "floods": 3,
        "flood_hits": 0,
    }
    # a replayed script carries no search counters
    assert replay_chain(m0, closure(premises, U4).chain(target)).stats == {}


def test_search_stats_when_the_witness_is_in_the_last_layer():
    # I(a, {}, c) takes two moves: delete a from the witness of
    # I(ac, {}, bd), then combine what is left with I(a, bd, c).  The fresh
    # children the last layer made before it are counted as explored.
    u = Universe("abcd")
    m0 = initial_mug(u, statements=[cs("ac", "", "bd"), cs("a", "bd", "c")])
    target = cs("a", "", "c")
    script = search(m0, target, max_moves=2, max_graphs=8)
    assert script.moves == (Delete(0, 0), Combine(cs("a", "bd", "c"), 2))
    assert verify_script(script)
    assert script.stats == {
        "states_depth_0": 1,
        "states_depth_1": 1,
        "states_depth_2": 11,
        "dedup_hits": 1,
        "rejected_graph_cap": 0,
        "floods": 10,
        "flood_hits": 0,
    }
    want = parent_search(m0, target, 2, 8)
    assert script == want
    assert _uncounted(script.stats, "floods", "flood_hits") == _uncounted(
        want.stats, "answer_hits", "answer_misses"
    )


def _covering_graph(rng) -> tuple[Universe, tuple, tuple]:
    """A sparse packed graph over 4-8 elements whose nodes hold one to three
    elements, one element sometimes on two nodes."""
    u = Universe("abcdefgh"[: rng.randint(4, 8)])
    nodes: list[set] = []
    for e in rng.sample(u.elements, rng.randint(3, len(u))):
        if not nodes or len(nodes[-1]) == 3 or rng.random() < 0.6:
            nodes.append(set())
        nodes[-1].add(e)
    if len(nodes) > 1 and rng.random() < 0.3:
        nodes[0].add(rng.choice(sorted(nodes[-1])))
    pairs = combinations(range(len(nodes)), 2)
    edges = [pair for pair in pairs if rng.random() < 0.3]
    return u, *packed_graph(u, UGraph(dict(enumerate(nodes)), edges))


def test_component_listing_matches_the_separations():
    # The candidates a covering graph gives a graph over ``inside`` are the
    # statements it witnesses (``mug.separations``, which lists them by z)
    # with one side plus z exactly ``inside`` and the other side outside it.
    rng = random.Random(29)
    several = untouched = 0
    for _ in range(400):
        u, nodes, adj = _covering_graph(rng)
        elements = element_mask(nodes)
        inside = 0
        while not inside or inside == elements:
            inside = rng.randrange(1 << len(u)) & elements
        parts = _components(element_neighbours(nodes, adj), elements, inside)
        got = _candidates(u, inside, parts)
        want = set()
        for p in separations(u, nodes, adj):
            a, z, b = u.unpack(p)
            if a | z == inside and not b & inside or b | z == inside and not a & inside:
                want.add(p)
        assert sorted(got) == sorted(want), (nodes, adj, inside)
        several += len(parts) > 1
        untouched += any(not touched for _, touched in parts)
    # extra elements in several components, some next to nothing inside
    assert several > 100 and untouched > 100, (several, untouched)


@pytest.mark.parametrize("max_graphs", [3, 8])
def test_search_builds_no_ugraph(monkeypatch, max_graphs):
    m0, target = _intersection_model()
    built = []
    real_init = UGraph.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(UGraph, "__init__", counting_init)
    outcome = search(m0, target, max_moves=3, max_graphs=max_graphs)
    assert isinstance(outcome, Exhausted) and outcome.states_explored > 1
    assert built == []

    # Checking a found script, and making moves, build none either.
    premises = [cs("x", "zy", "w"), cs("x", "z", "y")]
    m0 = initial_mug(U4, statements=premises)
    built.clear()
    script = search(m0, cs("x", "z", "yw"), max_moves=3, max_graphs=max_graphs)
    assert script.moves and verify_script(script)
    m1, gi = append_transformed(m0, Delete(1, 1))  # y off the x - z - y path
    assert append_transformed(m1, Combine(cs("x", "z", "y"), gi)) == (m1, 1)
    assert built == []

    # Replay builds none either, though it renumbers the first graph's nodes
    # when it singletonizes the model, and however many moves it makes.
    m0 = _replay_with_deletions_model()
    chain = closure(m0.enumerate_satisfied(), m0.universe).chain(cs("x", "z", "yw"))
    built.clear()
    script = replay_chain(m0, chain)
    assert built == []
    assert script.initial != m0
    assert any(isinstance(mv, Delete) for mv in script.moves)


def test_search_work_ignores_elements_no_graph_holds():
    import time

    premises = [cs("x", "zy", "w"), cs("x", "zw", "y")]
    m0, target = _intersection_model()
    narrow = search(m0, target, max_moves=3, max_graphs=8)
    for width in (16, 40):
        extra = [f"u{i}" for i in range(width - 4)]
        wide = Universe(["w", "x", "y", "z"] + extra)
        start = time.perf_counter()
        outcome = search(initial_mug(wide, statements=premises), target, 3, 8)
        elapsed = time.perf_counter() - start
        assert outcome == narrow and outcome.stats == narrow.stats
        # candidates range over what the model's graphs hold, not over 2**width
        assert elapsed < 1.0


# -- search against a frozen copy of its predecessor ---------------------------
#
# ``_Member``, ``parent_search`` and ``_parent_moves`` below are a verbatim
# copy of ``search`` before a covered graph's candidates were listed again
# through the listing memo (instead of patching the inherited list) and
# before paths held packed statements (only ``search`` and ``_moves`` are
# renamed).  Both must return equal outcomes with equal counters, except
# the work counters: the predecessor asks each candidate's separation
# question (``answer_hits``, ``answer_misses``) where ``search`` floods once
# per component of a covering graph (``floods``, ``flood_hits``).


class _Member:
    """One distinct graph in a search, packed as by ``packed_graph``.

    ``mask`` is its element set; ``answers`` holds its key's separation
    answers (shared by every member with that key) by packed statement.
    """

    __slots__ = ("nodes", "adj", "gid", "mask", "answers")

    def __init__(self, nodes: tuple, adj: tuple, gid: int, answers: dict):
        self.nodes = nodes
        self.adj = adj
        self.gid = gid
        self.answers = answers
        mask = 0
        for _, m in nodes:
            mask |= m
        self.mask = mask


def parent_search(
    m0: Mug, target: CanonicalStatement, max_moves: int, max_graphs: int
) -> MoveScript | Exhausted:
    """Breadth-first search for a deletion/combination script reaching target.

    States are deduplicated by their set of graph keys, a mask of key
    numbers; successor moves are ordered by graph index, deletions before
    combinations (in ``Universe.key`` order, which is ``statement_key``
    order), so the result is the deterministic shortest script within the
    bounds.

    A state's graph set only grows along a path, so a move enabled at a
    state is enabled at every superset, and two moves made in either order
    reach the same state.  Each queued state carries a sleep mask
    (Godefroid's sleep sets): the key numbers of the children its parent's
    earlier moves made, and the parent's own mask.  Adding such a child
    again reaches a state that the first order has already visited, or
    that is over the graph cap, so it is skipped before the dedup lookup.
    (This needs equal keys to mean equal successors, which holds unless a
    graph gives two nodes one element set: moves never make such a graph,
    and ``initial_mug`` never does.)

    Graphs are packed (``packed_graph``): the model's graphs are packed once
    and every move is made on the packed form, so no ``UGraph`` is built;
    a returned script is checked through ``UGraph`` by ``verify_script``.
    Element sets are masks and statements packed ints of the universe's
    encoding; every table is sized by what the graphs hold, never by the
    universe.  Each distinct graph is keyed, and each question put to a
    key answered, once per call.  A queued state carries its parent's
    per-member lists of holding candidates: only a member the new graph
    strictly covers can gain some, those the new graph witnesses.  A new
    graph's list is listed once per set of covering graphs' keys.  A state
    at the move bound is counted as explored, not queued.  Moves are built
    only for the returned script; a path is (previous path, kind, a, b).
    """
    if max_moves <= 0 or max_graphs <= 0:
        raise ValueError("search bounds must be positive")
    stats = dict.fromkeys(
        ("dedup_hits", "rejected_graph_cap", "answer_hits", "answer_misses"), 0
    )
    enc = m0.universe
    held: dict[tuple, _Member] = {}
    gids: dict[tuple, int] = {}
    answers: list[dict] = []
    neighbours: list[dict | None] = []
    candidates: dict[tuple[int, int], list] = {}
    listings: dict[tuple[int, int], tuple[int, list]] = {}
    statements: dict[int, CanonicalStatement] = {}
    # Each member's successors, built on first use since every state holding
    # it would ask for the same.  They live here, not on the members: equal
    # graphs share a member, so links between members could form cycles that
    # keep a finished search's graphs alive until a full collection.
    deletions: dict[_Member, list] = {}
    combinations: dict[_Member, dict] = {}

    def member(graph: tuple[tuple, tuple]) -> _Member:
        mem = held.get(graph)
        if mem is None:
            gid = gids.setdefault(packed_key(*graph), len(gids))
            if gid == len(answers):
                answers.append({})
                neighbours.append(None)
            mem = held[graph] = _Member(*graph, gid, answers[gid])
        return mem

    def holds(members, c: tuple) -> bool:
        """Whether a member witnesses c, a (packed statement, elements) pair."""
        p, needed = c
        for mem in members:
            if needed & ~mem.mask:
                continue
            answer = mem.answers.get(p)
            if answer is None:
                stats["answer_misses"] += 1
                nbrs = neighbours[mem.gid]
                if nbrs is None:
                    nbrs = neighbours[mem.gid] = element_neighbours(mem.nodes, mem.adj)
                x, z, y = enc.unpack(p)
                answer = mem.answers[p] = not reach(nbrs, x, z) & y
            else:
                stats["answer_hits"] += 1
            if answer:
                return True
        return False

    def combinable(inside: int, extra: int) -> list:
        """Candidates for a graph over ``inside``, as (packed, elements) pairs.

        One side plus z is exactly ``inside``, the other lies in ``extra``;
        the list is in ``Universe.key`` order.
        """
        if (inside, extra) not in candidates:
            found = {}
            x = inside
            while x:
                y = extra
                while y:
                    found[enc.pack(x, inside ^ x, y)] = inside | y
                    y = (y - 1) & extra
                x = (x - 1) & inside
            ordered = sorted(found, key=enc.key)
            candidates[inside, extra] = [(p, found[p]) for p in ordered]
        return candidates[inside, extra]

    def listing(mem: _Member, members) -> tuple[int, list]:
        """A member's extra elements and holding candidates in a state."""
        # Only a graph with more elements can witness a candidate, so its
        # other side lies among those graphs' extra elements.
        inside = mem.mask
        covering = [o for o in members if o.mask != inside and not inside & ~o.mask]
        key = mem.gid, sum(1 << o.gid for o in covering)
        if key not in listings:
            extra = 0
            for other in covering:
                extra |= other.mask & ~inside
            listed = [c for c in combinable(inside, extra) if holds(covering, c)]
            listings[key] = extra, listed
        return listings[key]

    def extended(mem: _Member, listed: tuple, new: _Member) -> tuple[int, list]:
        """A member's listing once ``new``, which strictly covers it, joins.

        The older covering graphs' answers stand, so only ``new`` is asked.
        """
        extra, before = listed
        extra |= new.mask & ~mem.mask
        known = {p for p, _ in before}
        return extra, [
            c for c in combinable(mem.mask, extra) if c[0] in known or holds((new,), c)
        ]

    def successors(members, lists) -> Iterator[tuple]:
        """(move kind, its two arguments, child member) in move order."""
        for gi, mem in enumerate(members):
            if mem not in deletions:
                deletions[mem] = [
                    (n, member(packed_deletion(mem.nodes, mem.adj, i)))
                    for i, (n, _) in enumerate(mem.nodes)
                ]
            for n, child in deletions[mem]:
                yield Delete, gi, n, child
            combined = combinations.setdefault(mem, {})
            for p, _ in lists[gi][1]:
                if p not in combined:
                    s = statements[p] = statements.get(p) or enc.decode(p)
                    x, z, y = enc.unpack(p)
                    added = y if x | z == mem.mask else x
                    graph = packed_combination(mem.nodes, mem.adj, z, added)
                    combined[p] = s, member(graph)
                s, child = combined[p]
                yield Combine, s, gi, child

    members0 = tuple(member(packed_graph(enc, g)) for g in m0.graphs)
    try:
        goal = enc.encode(target), enc.mask(target.elements)
    except KeyError:  # an element outside the universe, so no graph holds it
        goal = None, -1
    if holds(members0, goal):
        return MoveScript(m0, (), target, stats)
    ids0 = sum(1 << mem.gid for mem in members0)
    visited = {ids0}
    # Members, their key numbers and sleep mask, moves made, the path and
    # the parent's listings (None at first).
    queue: deque[tuple] = deque([(members0, ids0, 0, 0, None, None)])
    explored = 0
    depth_reached = 0
    while queue:
        members, ids, sleep, moved, path, inherited = queue.popleft()
        explored += 1
        depth = f"states_depth_{moved}"
        stats[depth] = stats.get(depth, 0) + 1
        if inherited is None:
            lists = [listing(mem, members) for mem in members]
        else:
            new = members[-1]
            lists = [
                extended(mem, listed, new)
                if mem.mask != new.mask and not mem.mask & ~new.mask
                else listed
                for mem, listed in zip(members, inherited)
            ]
            lists.append(listing(new, members))
        slept = sleep
        for kind, a, b, child in successors(members, lists):
            bit = 1 << child.gid
            is_new = not ids & bit
            if len(members) + is_new > max_graphs:
                stats["rejected_graph_cap"] += 1
                continue
            if sleep & bit:
                continue
            ids2 = ids | bit
            if ids2 in visited:
                stats["dedup_hits"] += 1
                slept |= bit
                continue
            visited.add(ids2)
            path2 = path, kind, a, b
            depth_reached = max(depth_reached, moved + 1)
            # The parent's graphs already fail the target; ask the new one.
            if holds((child,), goal):
                return MoveScript(m0, _parent_moves(path2), target, stats)
            if moved + 1 < max_moves:
                queue.append((members + (child,), ids2, slept, moved + 1, path2, lists))
            else:
                explored += 1
                depth = f"states_depth_{max_moves}"
                stats[depth] = stats.get(depth, 0) + 1
            slept |= bit
    return Exhausted(
        states_explored=explored, depth_reached=depth_reached, stats=stats
    )


def _parent_moves(path) -> tuple[Move, ...]:
    """The moves along a ``search`` path, first to last."""
    moves = []
    while path:
        path, kind, a, b = path
        moves.append(kind(a, b))
    return tuple(reversed(moves))


_DIFFERENTIAL_BOUNDS = [(3, 8), (3, 3), (2, 4), (4, 6)]


@pytest.mark.parametrize("max_moves, max_graphs", _DIFFERENTIAL_BOUNDS)
def test_search_matches_its_predecessor(max_moves, max_graphs):
    cases = [
        *_random_search_cases(100),
        *_declared_graph_cases(40),
        *_odd_id_cases(30),
        _intersection_model(),
        (initial_mug(U4), cs("x", "", "y")),  # a model of no graphs
    ]
    for m0, target in cases:
        got = search(m0, target, max_moves, max_graphs)
        want = parent_search(m0, target, max_moves, max_graphs)
        assert got == want, (m0, target)
        assert _uncounted(got.stats, "floods", "flood_hits") == _uncounted(
            want.stats, "answer_hits", "answer_misses"
        ), (m0, target)


def _uncounted(stats: dict, *floods: str) -> dict:
    """The counters other than the named work counters, which must be there."""
    assert set(floods) <= stats.keys()
    return {k: v for k, v in stats.items() if k not in floods}


def test_search_over_the_graph_cap_from_the_start():
    # Two graphs against a cap of one: every move is over it, even deleting
    # z from the second graph, which remakes the first and adds nothing.
    m0 = initial_mug(U4, statements=[cs("x", "", "y"), cs("x", "", "yz")])
    target = cs("y", "", "z")
    # The same at the move bound, where a child is only counted.
    for max_moves in (3, 1):
        got = search(m0, target, max_moves, 1)
        want = parent_search(m0, target, max_moves, 1)
        assert got == want == Exhausted(states_explored=1, depth_reached=0)
        assert got.stats["rejected_graph_cap"] == want.stats["rejected_graph_cap"] == 6
        assert got.stats["dedup_hits"] == want.stats["dedup_hits"] == 0
    # and models of two or three graphs against every smaller cap
    for m0, target in [*_random_search_cases(30), *_declared_graph_cases(20)]:
        for cap in range(1, len(m0.packed)):
            for max_moves in (2, 1):
                got = search(m0, target, max_moves, cap)
                want = parent_search(m0, target, max_moves, cap)
                assert got == want, (m0, target, cap, max_moves)
                assert _uncounted(got.stats, "floods", "flood_hits") == _uncounted(
                    want.stats, "answer_hits", "answer_misses"
                ), (m0, target, cap, max_moves)


def _multi_element_graph(draw, names: list[str]) -> UGraph:
    """A graph over some of names whose nodes hold one to three elements."""
    chosen = draw(st.lists(st.sampled_from(names), min_size=2, unique=True))
    cuts = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    nodes: list[set] = []
    for e, cut in zip(chosen, cuts):
        if cut or not nodes or len(nodes[-1]) == 3:
            nodes.append(set())
        nodes[-1].add(e)
    pairs = list(combinations(range(len(nodes)), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return UGraph(dict(enumerate(nodes)), [p for p, k in zip(pairs, keep) if k])


@st.composite
def _multi_element_models(draw):
    """A 4-6 element model of 1-3 graphs with multi-element nodes, beside
    0-2 premise witnesses, and a target."""
    u = Universe("abcdef"[: draw(st.integers(4, 6))])
    pool = sorted(enumerate_canonical(u), key=statement_key)
    graphs = [
        _multi_element_graph(draw, list(u.elements))
        for _ in range(draw(st.integers(1, 3)))
    ]
    premises = draw(st.lists(st.sampled_from(pool), max_size=2))
    return Mug(u, graphs + [witness_graph(s) for s in premises]), draw(
        st.sampled_from(pool)
    )


@settings(max_examples=150, deadline=None)
@given(_multi_element_models(), st.sampled_from([(3, 8), (2, 4), (3, 3)]))
def test_search_matches_its_predecessor_on_multi_element_graphs(case, bounds):
    m0, target = case
    got = search(m0, target, *bounds)
    want = parent_search(m0, target, *bounds)
    assert got == want
    assert _uncounted(got.stats, "floods", "flood_hits") == _uncounted(
        want.stats, "answer_hits", "answer_misses"
    )
