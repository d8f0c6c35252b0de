import random
from collections import deque
from itertools import combinations
from typing import Iterator
from pathlib import Path

import pytest

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
    singletonize,
    statement_key,
    verify_script,
    witness_graph,
)
from mugci.errors import ModelError, PremiseNotSatisfied
from mugci.graphoid import AxiomStep
from mugci.model import CanonicalStatement, Statement, TriviallyTrue, canonicalize
from mugci.modelfile import parse_model
from mugci.mug import (
    append_transformed,
    combination_graph,
    element_neighbours,
    packed_combination,
    packed_deletion,
    packed_graph,
    packed_key,
    reach,
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


def test_replay_deletes_extraneous_elements_before_combining():
    # the only witness for I(x,z,y) carries an extra element q that must go
    q_universe = Universe(["q", "w", "x", "y", "z"])
    wide = witness_graph(cs("x", "z", "y")).add_arcs([])
    wide_nodes = dict(wide.nodes)
    qid = max(wide_nodes) + 1
    wide_nodes[qid] = frozenset("q")
    wide = UGraph(wide_nodes, list(wide.edges) + [(qid, wide.nodes_with_element("x")[0])])
    m0 = Mug(q_universe, [wide, witness_graph(cs("x", "zy", "w"))])
    c = closure(m0.enumerate_satisfied(), q_universe)
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


def test_verify_reports_unreached_target():
    m0 = initial_mug(U4, statements=[cs("x", "z", "y")])
    script = MoveScript(m0, (), cs("x", "z", "w"))
    assert not verify_script(script)  # no moves, target unsatisfied


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
# ``search`` moves on packed graphs; each packed move must unpack to exactly
# what the ``UGraph`` move builds, and packed keys must group graphs exactly
# as ``UGraph.key`` does.

U6 = Universe("abcdef")


def _unpacked(enc, nodes, adj) -> UGraph:
    edges = [
        (nodes[i][0], nodes[j][0])
        for i, j in combinations(range(len(nodes)), 2)
        if adj[i] >> j & 1
    ]
    return UGraph({n: enc.names(m) for n, m in nodes}, edges)


def _packed_test_graphs(count):
    rng = random.Random(23)
    for _ in range(count):
        names = rng.sample(U6.elements, rng.randint(2, 6))
        yield _odd_id_graph(rng, names)


def test_packed_graph_round_trips():
    enc = U6.encoding
    for g in _packed_test_graphs(200):
        nodes, adj = packed_graph(enc, g)
        assert [n for n, _ in nodes] == sorted(g.nodes)
        assert _unpacked(enc, nodes, adj) == g


def test_packed_deletion_is_delete_node():
    enc = U6.encoding
    for g in _packed_test_graphs(200):
        packed = packed_graph(enc, g)
        for i, (n, _) in enumerate(packed[0]):
            got = packed_deletion(*packed, i)
            assert _unpacked(enc, *got) == g.delete_node(n), (g, n)


def test_packed_combination_is_combination_graph():
    enc = U6.encoding
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
            assert _unpacked(enc, *got) == combination_graph(g, statement)
            checked += 1
    assert checked > 500


def test_packed_key_groups_graphs_as_ugraph_key_does():
    enc = U4.encoding
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
    g = m.graphs[gi]
    inside = sorted(g.elements)
    outside = sorted(set(m.universe) - g.elements)
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
    for gi, g in enumerate(m.graphs):
        moves.extend(Delete(gi, n) for n in sorted(g.nodes))
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
    visited = {tuple(sorted(g.key() for g in m0.graphs))}
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
            if len(m2.graphs) > max_graphs:
                continue
            key = tuple(sorted(g.key() for g in m2.graphs))
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
                # A state takes over its parent's holding candidates, and a
                # new graph's listing is reused under the same covering
                # graphs, instead of asking their graphs again; the
                # questions asked, answer_misses, are the same.
                "answer_hits": 187,
                "answer_misses": 121,
            },
        ),
        (
            3,
            {
                "states_depth_0": 1,
                "states_depth_1": 4,
                "dedup_hits": 16,
                "rejected_graph_cap": 36,
                "answer_hits": 13,
                "answer_misses": 43,
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
        "answer_hits": 0,
        "answer_misses": 9,
    }
    # a replayed script carries no search counters
    assert replay_chain(m0, closure(premises, U4).chain(target)).stats == {}


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
# ``answer_hits``: a listing asks the older covering graphs again, where the
# predecessor took their answers from the inherited list, and the memo saves
# some listings, so hits may move either way.


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
    combinations (in ``Encoding.key`` order, which is ``statement_key``
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
    enc = m0.universe.encoding
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
        the list is in ``Encoding.key`` order.
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
    ]
    moved = 0
    for m0, target in cases:
        got = search(m0, target, max_moves, max_graphs)
        want = parent_search(m0, target, max_moves, max_graphs)
        assert got == want, (m0, target)
        new, old = got.stats, want.stats
        assert new.keys() == old.keys()
        for key in old.keys() - {"answer_hits"}:
            assert new[key] == old[key], (m0, target, key)
        moved += new["answer_hits"] != old["answer_hits"]
    # the listings differ, so some searches read other answers
    assert moved > 0
