import random
from collections import defaultdict, deque
from pathlib import Path
from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mugci import (
    ENUMERATION_GUARD,
    TRIVIALLY_TRUE,
    AxiomStep,
    CanonicalStatement,
    Closure,
    Mug,
    Statement,
    UGraph,
    Universe,
    canonical_triple,
    canonicalize,
    closure,
    enumerate_canonical,
    graphoid,
    parse_model,
    prove,
    statement_key,
    verify_chain,
)
from mugci.errors import InvalidOverlap, UniverseTooLarge, UnknownElement
from mugci.graphoid import _unary, _unary_follows, contraction, first_invalid_step
from mugci.model import Encoding, check_size
from mugci.mug import packed_graph, separations
from test_mug import random_graph

U4 = Universe(["w", "x", "y", "z"])


def cs(x, z, y):
    return canonical_triple(set(x), set(z), set(y))


# -- closure ------------------------------------------------------------------


def test_closure_of_single_statement_is_exactly_five():
    got = closure([cs("x", "z", "yw")], U4)
    assert got.statements == {
        cs("x", "z", "yw"),
        cs("x", "z", "y"),
        cs("x", "z", "w"),
        cs("x", "zy", "w"),
        cs("x", "zw", "y"),
    }


def test_closure_of_empty_set_is_empty():
    assert closure([], U4).statements == frozenset()


def test_mixing_forward_direction():
    got = closure([cs("xy", "z", "w"), cs("x", "z", "y")], U4)
    assert cs("x", "z", "yw") in got.statements


def test_intersection_not_derivable():
    got = closure([cs("x", "zy", "w"), cs("x", "zw", "y")], U4)
    assert cs("x", "z", "yw") not in got.statements


def test_chaining_query():
    got = closure([cs("xz", "y", "w"), cs("x", "z", "y")], U4)
    chain = got.query(Statement(frozenset("x"), frozenset("z"), frozenset("w")))
    assert chain is not None and chain[-1].conclusion == cs("x", "z", "w")


def test_chaining_reverse_not_derivable():
    got = closure([cs("x", "z", "w")], U4)
    assert cs("xz", "y", "w") not in got.statements


def test_query_absorbs_symmetry():
    got = closure([cs("x", "z", "yw")], U4)
    chain = got.query(Statement(frozenset({"y", "w"}), frozenset("z"), frozenset("x")))
    assert chain is not None
    assert [s.rule for s in chain] == ["given"]
    flipped = got.query(Statement(frozenset("y"), frozenset("z"), frozenset("x")))
    assert flipped is not None and flipped[-1].rule == "decomposition"


def test_query_trivial_and_errors():
    got = closure([cs("x", "z", "y")], U4)
    assert got.query(Statement(frozenset(), frozenset("z"), frozenset("y"))) == ()
    assert got.query(Statement(frozenset("x"), frozenset(), frozenset("w"))) is None
    with pytest.raises(InvalidOverlap):
        got.query(Statement(frozenset("x"), frozenset(), frozenset("xy")))
    with pytest.raises(UnknownElement):
        got.query(Statement(frozenset("q"), frozenset(), frozenset("x")))


def test_closure_guard():
    big = Universe([f"e{i}" for i in range(13)])
    with pytest.raises(UniverseTooLarge):
        closure([], big)


def test_closure_guard_comes_before_any_graph_is_read(monkeypatch):
    n = ENUMERATION_GUARD + 1
    names = [f"e{i}" for i in range(n)]
    u = Universe(names)
    path = UGraph.from_singletons(names, zip(names, names[1:]))

    def no_work(*args):
        raise AssertionError("graph read before the guard")

    monkeypatch.setattr(UGraph, "elements", property(no_work))
    monkeypatch.setattr(graphoid, "separations", no_work)
    target = cs(["e0"], [], ["e1"])
    for run in (closure, lambda init, u, graphs: prove(init, u, graphs, target)):
        with pytest.raises(
            UniverseTooLarge,
            match=f"^universe has {n} elements, guard is {ENUMERATION_GUARD}$",
        ):
            run([], u, [path])
        # A statement error is reported before the guard, as the CLI reports it.
        overlapping = Statement(frozenset({"e0"}), frozenset(), frozenset({"e0", "e1"}))
        with pytest.raises(InvalidOverlap):
            run([overlapping], u, [path])


def test_closure_rejects_a_graph_outside_the_universe():
    with pytest.raises(UnknownElement, match="^not in universe: q$"):
        closure([], U4, [UGraph.from_singletons(["x", "q"], [("x", "q")])])


# -- chains -------------------------------------------------------------------


def test_every_closure_chain_verifies():
    got = closure([cs("xy", "z", "w"), cs("x", "z", "y")], U4)
    init = [cs("xy", "z", "w"), cs("x", "z", "y")]
    for s in got.statements:
        chain = got.chain(s)
        assert chain[-1].conclusion == s
        assert verify_chain(chain, init)


def test_chains_are_deterministic():
    init = [cs("xy", "z", "w"), cs("x", "z", "y")]
    first = closure(init, U4)
    second = closure(init, U4)
    assert first.statements == second.statements
    for s in first.statements:
        assert first.chain(s) == second.chain(s)


def test_bad_chain_is_rejected():
    chain = (
        AxiomStep("given", (), cs("x", "zy", "w")),
        AxiomStep("given", (), cs("x", "z", "y")),
        AxiomStep("contraction", (0, 1), cs("x", "z", "yw")),
    )
    assert verify_chain(chain, [cs("x", "zy", "w"), cs("x", "z", "y")])
    mismatched = (
        AxiomStep("given", (), cs("x", "zy", "w")),
        AxiomStep("given", (), cs("x", "w", "y")),
        AxiomStep("contraction", (0, 1), cs("x", "z", "yw")),
    )
    assert first_invalid_step(
        mismatched, [cs("x", "zy", "w"), cs("x", "w", "y")]
    ) == 2
    assert first_invalid_step(chain, [cs("x", "z", "y")]) == 0  # missing given


def test_hand_built_weak_union_after_decomposition():
    chain = (
        AxiomStep("given", (), cs("x", "z", "yw")),
        AxiomStep("decomposition", (0,), cs("x", "z", "y")),
        AxiomStep("symmetry", (1,), cs("x", "z", "y")),
    )
    assert verify_chain(chain, [cs("x", "z", "yw")])
    wu = (
        AxiomStep("given", (), cs("x", "z", "yw")),
        AxiomStep("weak_union", (0,), cs("x", "zy", "w")),
    )
    assert verify_chain(wu, [cs("x", "z", "yw")])


def test_forward_premise_reference_rejected():
    chain = (
        AxiomStep("decomposition", (1,), cs("x", "z", "y")),
        AxiomStep("given", (), cs("x", "z", "yw")),
    )
    assert first_invalid_step(chain, [cs("x", "z", "yw")]) == 0


def test_closure_decodes_only_the_statements_a_chain_returns(monkeypatch):
    # Mutual independence of 7 elements: 6 premises, 6069 closure statements.
    names = [f"e{i}" for i in range(7)]
    u = Universe(names)
    init = [cs([a], [], names[i + 1:]) for i, a in enumerate(names[:-1])]
    decoded = []
    real_decode = Encoding.decode

    def counting_decode(self, p):
        decoded.append(p)
        return real_decode(self, p)

    monkeypatch.setattr(Encoding, "decode", counting_decode)
    cl = closure(init, u)
    target = cs(names[:2], names[2:4], names[4:])
    assert decoded == [] and len(cl) == 6069 and target in cl
    chain = cl.chain(target)
    assert [st.rule for st in chain] == [
        "given", "weak_union", "given", "weak_union", "contraction"
    ]
    assert decoded == [u.encoding.encode(st.conclusion) for st in chain]
    assert verify_chain(chain, init)


def test_iteration_is_in_statement_order():
    cl = closure([cs("xy", "z", "w"), cs("x", "z", "y")], U4)
    assert list(cl) == sorted(cl.statements, key=statement_key)
    assert len(list(cl)) == len(cl) == 9


def test_membership_is_false_for_foreign_and_raw_statements():
    cl = closure([cs("x", "z", "y")], U4)
    assert cs("x", "z", "y") in cl
    assert cs("x", "", "y") not in cl
    assert cs("q", "z", "y") not in cl
    assert Statement(frozenset("x"), frozenset("z"), frozenset("y")) not in cl
    assert "x" not in cl
    with pytest.raises(KeyError):
        cl.chain(cs("q", "z", "y"))
    assert cl.query(cs("q", "z", "y")) is None


# -- algebraic properties -----------------------------------------------------


def statements_over(u):
    return sorted(enumerate_canonical(u), key=statement_key)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_closure_monotone_and_idempotent(data):
    pool = statements_over(U4)
    small = data.draw(st.sets(st.sampled_from(pool), max_size=2))
    extra = data.draw(st.sets(st.sampled_from(pool), max_size=1))
    c_small = closure(small, U4)
    c_big = closure(small | extra, U4)
    assert c_small.statements <= c_big.statements
    again = closure(c_small.statements, U4)
    assert again.statements == c_small.statements


# -- differential: indexed closure against the all-pairs loop -----------------

# The frozenset rules the closure ran on before it moved to packed ints,
# kept verbatim as the reference's rule implementation.


def _subsets(elements: frozenset):
    """Nonempty proper subsets in a fixed order (bitmask over sorted names)."""
    items = sorted(elements)
    for mask in range(1, (1 << len(items)) - 1):
        yield frozenset(e for i, e in enumerate(items) if mask >> i & 1)


def _unary_consequences(s):
    out = []
    seen = set()
    for kept, split_side in ((s.x, s.y), (s.y, s.x)):
        for part in _subsets(split_side):
            rest = split_side - part
            dec = canonicalize(Statement(kept, s.z, part))
            wu = canonicalize(Statement(kept, s.z | part, rest))
            for rule, c in (("decomposition", dec), ("weak_union", wu)):
                if (rule, c) not in seen:
                    seen.add((rule, c))
                    out.append((rule, c))
    return out


def _contraction_consequences(s1, s2):
    """Conclusions of contraction with s1 = I(X, Z+Y, W) and s2 = I(X, Z, Y)."""
    out = []
    seen = set()
    for x1, w in ((s1.x, s1.y), (s1.y, s1.x)):
        for x2, y in ((s2.x, s2.y), (s2.y, s2.x)):
            if x1 != x2:
                continue
            if s1.z != s2.z | y or s2.z & y:
                continue
            c = canonicalize(Statement(x1, s2.z, y | w))
            if c not in seen:
                seen.add(c)
                out.append(c)
    return out


def all_pairs_closure(init, universe):
    """Reference loop: on every pop, try contraction against a sorted snapshot
    of every known statement, queued ones included."""
    parents = {}
    known = set()
    queue = deque()

    def admit(c, rule, premises):
        if c not in known:
            known.add(c)
            parents[c] = (rule, premises)
            queue.append(c)

    for s in sorted(set(init), key=statement_key):
        admit(s, "given", ())
    while queue:
        s = queue.popleft()
        snapshot = sorted(known, key=statement_key)
        for rule, c in _unary_consequences(s):
            admit(c, rule, (s,))
        for t in snapshot:
            for c in _contraction_consequences(s, t):
                admit(c, "contraction", (s, t))
            for c in _contraction_consequences(t, s):
                admit(c, "contraction", (t, s))
    # Closure keeps its derivation packed: encode at the boundary only.
    encode = universe.encoding.encode
    packed = {
        encode(c): (rule, tuple(map(encode, premises)))
        for c, (rule, premises) in parents.items()
    }
    return Closure(universe, packed, {})


def chain_text(cl, s):
    return [(step.rule, step.premises, str(step.conclusion)) for step in cl.chain(s)]


def assert_same_closure(declared, universe, graphs=()):
    """The closure of declared statements and graphs against the all-pairs
    loop, with the graphs' separations passed in decoded and, separately,
    as the graphs themselves."""
    decoded = Mug(universe, graphs).enumerate_satisfied()
    got = closure([*declared, *decoded], universe)
    init = {canonicalize(s) for s in declared} - {TRIVIALLY_TRUE} | decoded
    want = all_pairs_closure(init, universe)
    assert got.statements == want.statements
    for s in want.statements:
        assert chain_text(got, s) == chain_text(want, s)
    packed = closure(declared, universe, graphs)
    assert packed.statements == want.statements
    # The graphs' own work is skipped; every partner is still counted once.
    assert got.stats["pairs_shared_graph"] == 0
    assert pairs_folded(packed.stats) == pairs_folded(got.stats)
    for s in want.statements:
        assert chain_text(packed, s) == chain_text(want, s)
    return got


def pairs_folded(stats):
    """The counters with the partners skipped as sharing a graph counted as
    tried, as the closure counted them before it skipped them."""
    out = dict(stats)
    out["pairs_tried"] += out.pop("pairs_shared_graph")
    return out


def path_init(n):
    names = [f"v{i}" for i in range(n)]
    g = UGraph.from_singletons(names, zip(names, names[1:]))
    return [], Universe(names), [g]


def random_raw_statement(rng, names):
    """A raw statement whose conditioning set may absorb part or all of a side."""
    x = rng.sample(names, rng.randint(1, 2))
    y = rng.sample([e for e in names if e not in x], rng.randint(1, 2))
    z = rng.sample(names, rng.randint(0, 3))
    return Statement(frozenset(x), frozenset(z), frozenset(y))


def random_model_init(rng, n):
    names = [f"e{i}" for i in range(n)]
    declared = [random_raw_statement(rng, names) for _ in range(rng.randint(0, 3))]
    graphs = [random_graph(rng, names) for _ in range(rng.randint(1, 3))]
    return declared, Universe(names), graphs


def test_indexed_closure_matches_all_pairs_on_premise_sets():
    rng = random.Random(20130322)
    pools = {n: statements_over(Universe("abcdef"[:n])) for n in (4, 5, 6)}
    for _ in range(150):
        n = rng.choice((4, 5, 6))
        premises = rng.sample(pools[n], rng.randint(1, 4))
        assert_same_closure(premises, Universe("abcdef"[:n]))


def test_indexed_closure_matches_all_pairs_on_graph_models():
    rng = random.Random(1987)
    raw = trivial = 0
    for _ in range(20):
        declared, u, graphs = random_model_init(rng, rng.choice((5, 6)))
        assert_same_closure(declared, u, graphs)
        raw += len(declared)
        trivial += sum(canonicalize(s) is TRIVIALLY_TRUE for s in declared)
    assert 0 < trivial < raw
    declared, u, graphs = random_model_init(rng, 5)
    assert_same_closure(declared, u, [*graphs, UGraph({}, [])])


def test_indexed_closure_matches_all_pairs_on_seven_element_path():
    assert_same_closure(*path_init(7))


# -- closure against a frozen copy of its predecessor ---------------------------
#
# ``parent_closure`` below is a verbatim copy of ``closure`` before it skipped
# work within one graph (only the name is changed).  Both must admit the same
# statements in the same order with the same derivations and equal counters,
# except that a partner sharing a graph with the popped statement is counted
# in ``pairs_shared_graph`` rather than ``pairs_tried``.


def parent_closure(
    init: Iterable[CanonicalStatement | Statement],
    universe: Universe,
    graphs: Iterable[UGraph] = (),
) -> Closure:
    """Saturate the initial statements and the graphs' separations.

    The initial statements may be raw; trivial ones drop out.  Each graph
    gives every statement it witnesses, packed straight from the graph.
    The statements are checked before the size guard and the graphs after
    it, so no graph is read over a universe the guard refuses.  The
    worklist starts from all of these in lexicographic order and runs FIFO,
    so the discovered chains are deterministic.  The run makes no
    statement object; ``Closure`` decodes on demand.
    """
    statements = [universe.canonical(s) for s in init]
    check_size(universe, ENUMERATION_GUARD)
    enc = universe.encoding
    seeds = {enc.encode(s) for s in statements if s is not TRIVIALLY_TRUE}
    for g in graphs:
        universe.require(g.elements)
        seeds.update(separations(enc, *packed_graph(enc, g)))

    unpack, key = enc.unpack, enc.key
    parents: dict[int, tuple[str, tuple[int, ...]]] = {}
    queue: deque[int] = deque()
    # Contraction partners, indexed on admission: (side, z) finds the
    # statements that can play s1 = I(X, Z+Y, W), (side, z + other side)
    # those that can play s2 = I(X, Z, Y).  Entries carry the statement's
    # sort key and the parts the conclusion is made of.
    by_z: dict[tuple[int, int], list] = defaultdict(list)
    by_zy: dict[tuple[int, int], list] = defaultdict(list)
    admitted = dict.fromkeys(("given", "decomposition", "weak_union", "contraction"), 0)
    peak_queue = 0

    def admit(c: int, rule: str, premises: tuple) -> None:
        nonlocal peak_queue
        parents[c] = (rule, premises)
        k = key(c)
        x, z, y = unpack(c)
        by_z[x, z].append((k, c, y))
        by_z[y, z].append((k, c, x))
        by_zy[x, z | y].append((k, c, z, y))
        by_zy[y, z | x].append((k, c, z, x))
        queue.append(c)
        admitted[rule] += 1
        peak_queue = max(peak_queue, len(queue))

    for p in sorted(seeds, key=key):
        admit(p, "given", ())

    pairs_tried = pairs_productive = 0
    while queue:
        s = queue.popleft()
        x, z, y = unpack(s)
        # Partners are taken from the statements known when s is popped,
        # queued ones included, and tried in statement_key order: the same
        # admissions, in the same order, as trying every known statement.
        # Each partner meets s in exactly one contraction.
        found = []
        for side, other in ((x, y), (y, x)):
            for k, t, tz, ty in by_zy.get((side, z), ()):
                found.append((k, enc.pack(side, tz, ty | other), (s, t)))
            for k, t, tw in by_z.get((side, z | other), ()):
                found.append((k, enc.pack(side, z, other | tw), (t, s)))
        found.sort()
        for rule, c in _unary(enc, s):
            if c not in parents:
                admit(c, rule, (s,))
        pairs_tried += len(found)
        for _, c, premises in found:
            if c not in parents:
                admit(c, "contraction", premises)
                pairs_productive += 1

    stats = {f"admitted_{rule}": count for rule, count in admitted.items()}
    stats.update(
        pairs_tried=pairs_tried, pairs_productive=pairs_productive, peak_queue=peak_queue
    )
    return Closure(universe, parents, stats)


def differential_model(rng):
    """0-3 raw premises and 0-3 graphs of multi-element nodes, some elements
    on two nodes, over 4-6 elements."""
    names = [f"e{i}" for i in range(rng.choice((4, 5, 6)))]
    declared = [random_raw_statement(rng, names) for _ in range(rng.randint(0, 3))]
    graphs = [random_graph(rng, names) for _ in range(rng.randint(0, 3))]
    return declared, Universe(names), graphs


def test_closure_matches_its_predecessor():
    rng = random.Random(1988_5)
    shared = repeated = 0
    for _ in range(120):
        declared, u, graphs = differential_model(rng)
        got = closure(declared, u, graphs)
        want = parent_closure(declared, u, graphs)
        assert list(got._parents.items()) == list(want._parents.items())
        assert pairs_folded(got.stats) == want.stats
        shared += got.stats["pairs_shared_graph"] > 0
        repeated += any(
            len(g.elements) < sum(map(len, g.nodes.values())) for g in graphs
        )
    assert shared > 30 and repeated > 10


def fixture_models():
    """Each fixture that the size guard admits, as (statements, universe, graphs)."""
    out = []
    for path in sorted((Path(__file__).parent / "fixtures").glob("*.mug")):
        model = parse_model(path.read_text(encoding="utf-8"))
        if len(model.universe) <= ENUMERATION_GUARD:
            out.append(
                (list(model.statements.values()), model.universe, list(model.graphs.values()))
            )
    return out


def test_prove_is_the_closure_query():
    rng = random.Random(2013)
    models = fixture_models()
    assert len(models) == 4
    while len(models) < 4 + 30:
        declared, u, graphs = differential_model(rng)
        if len(u) <= 5:
            models.append((declared, u, graphs))
    derivable = not_derivable = 0
    for declared, u, graphs in models:
        cl = closure(declared, u, graphs)
        for s in enumerate_canonical(u):
            want = cl.query(s)
            assert prove(declared, u, graphs, s) == want, s
            derivable += want is not None
            not_derivable += want is None
    assert derivable > 1000 and not_derivable > 1000
    declared, u, graphs = models[0]
    # raw, trivial and foreign targets answer as the query does
    raw = Statement(frozenset("y"), frozenset("z"), frozenset("x"))
    assert prove(declared, u, graphs, raw) == closure(declared, u, graphs).query(raw)
    trivial = Statement(frozenset(), frozenset("z"), frozenset("y"))
    assert prove(declared, u, graphs, trivial) == ()
    assert prove(declared, u, graphs, cs("q", "z", "y")) is None
    with pytest.raises(UnknownElement):
        prove(declared, u, graphs, Statement(frozenset("q"), frozenset(), frozenset("x")))


def test_prove_stops_once_the_target_is_admitted(monkeypatch):
    # A given target needs no pop; a non-derivable one saturates fully.
    init = [cs("xy", "z", "w"), cs("x", "z", "y")]
    popped = []
    real_unary = graphoid._unary

    def counting_unary(enc, p):
        popped.append(p)
        return real_unary(enc, p)

    monkeypatch.setattr(graphoid, "_unary", counting_unary)
    assert [st.rule for st in prove(init, U4, [], cs("x", "z", "y"))] == ["given"]
    assert popped == []
    assert prove(init, U4, [], cs("x", "", "y")) is None
    assert len(popped) == len(closure(init, U4)) == 9


# -- networkx as an outside oracle ------------------------------------------


def random_node_graph(rng, names):
    """A graph over all or all but one of names, in nodes of one to three."""
    members = rng.sample(names, rng.randint(len(names) - 1, len(names)))
    nodes = {}
    while members:
        k = rng.choice((1, 1, 1, 2, 3))
        nodes[len(nodes)], members = set(members[:k]), members[k:]
    share = rng.choice((0.2, 0.4, 0.6))
    edges = [(a, b) for a in nodes for b in nodes if a < b and rng.random() < share]
    return UGraph(nodes, edges)


def test_one_graph_closure_is_networkx_separation():
    # Graph separation is a graphoid (Pearl & Paz 1987): closing one graph's
    # separations adds nothing, and nothing the graph witnesses is missed.
    nx = pytest.importorskip("networkx")
    rng = random.Random(1987_7)
    sizes = [4, 5, 6, 7] * 6 + [8] * 3
    multi = 0
    for n in sizes:
        names = [f"e{i}" for i in range(n)]
        g = random_node_graph(rng, names)
        nodes = g.nodes
        multi += any(len(es) > 1 for es in nodes.values())
        eg = nx.Graph()
        eg.add_nodes_from(g.elements)
        for es in nodes.values():
            eg.add_edges_from((a, b) for a in es for b in es if a < b)
        for n1, n2 in g.edges:
            eg.add_edges_from((a, b) for a in nodes[n1] for b in nodes[n2] if a != b)
        u = Universe(names)
        component = {}
        want = set()
        for s in enumerate_canonical(u):
            if not s.elements <= g.elements:
                continue
            if s.z not in component:
                parts = nx.connected_components(eg.subgraph(g.elements - s.z))
                component[s.z] = {e: i for i, part in enumerate(parts) for e in part}
            label = component[s.z]
            if not {label[e] for e in s.x} & {label[e] for e in s.y}:
                want.add(s)
        got = closure(Mug(u, [g]).enumerate_satisfied(), u)
        assert got.statements == want, g
    assert multi > len(sizes) // 2


# -- work counters ------------------------------------------------------------


def test_closure_stats_on_seven_element_path():
    cl = closure(*path_init(7))
    assert cl.stats == {
        "admitted_given": 1141,
        "admitted_decomposition": 0,
        "admitted_weak_union": 0,
        "admitted_contraction": 0,
        "pairs_tried": 0,
        "pairs_shared_graph": 6056,
        "pairs_productive": 0,
        "peak_queue": 1141,
    }


def test_closure_stats_count_every_rule():
    cl = closure([cs("xy", "z", "w"), cs("x", "z", "y")], U4)
    stats = cl.stats
    assert stats == {
        "admitted_given": 2,
        "admitted_decomposition": 2,
        "admitted_weak_union": 3,
        "admitted_contraction": 2,
        "pairs_tried": 10,
        "pairs_shared_graph": 0,
        "pairs_productive": 2,
        "peak_queue": 6,
    }
    assert sum(v for k, v in stats.items() if k.startswith("admitted_")) == len(cl)


def test_closure_stats_on_eight_element_path():
    assert closure(*path_init(8)).stats == {
        "admitted_given": 4711,
        "admitted_decomposition": 0,
        "admitted_weak_union": 0,
        "admitted_contraction": 0,
        "pairs_tried": 0,
        "pairs_shared_graph": 35656,
        "pairs_productive": 0,
        "peak_queue": 4711,
    }


# -- differential: mask rules against the frozenset rules ---------------------


def test_unary_rules_match_frozenset_rules():
    for s in statements_over(Universe("abcde")):
        enc = Encoding(sorted(s.elements))
        got = [(rule, enc.decode(c)) for rule, c in _unary(enc, enc.encode(s))]
        assert got == _unary_consequences(s)


def test_unary_mask_test_matches_unary_membership():
    # every (premise, conclusion, rule) triple over five elements
    enc = Universe("abcde").encoding
    packed = [enc.encode(s) for s in statements_over(Universe("abcde"))]
    follows = 0
    for p in packed:
        consequences = set(_unary(enc, p))
        for c in packed:
            for rule in ("decomposition", "weak_union"):
                got = _unary_follows(enc, rule, p, c)
                assert got == ((rule, c) in consequences), (enc.decode(p), enc.decode(c))
                follows += got
    assert follows == sum(len(_unary(enc, p)) for p in packed)


def test_contraction_rule_matches_frozenset_rule():
    pool = statements_over(U4)
    matched = 0
    for s1 in pool:
        for s2 in pool:
            enc = Encoding(sorted(s1.elements | s2.elements))
            parts = contraction(enc, enc.encode(s1), enc.encode(s2))
            got = []
            if parts is not None:
                x, z, y, w = parts
                got.append(enc.decode(enc.pack(x, z, y | w)))
            assert got == _contraction_consequences(s1, s2)
            matched += bool(got)
    assert matched > 50


def reference_first_invalid_step(chain, init):
    """first_invalid_step as it ran on the frozenset rules."""
    given = set(init)
    steps = list(chain)
    for i, step in enumerate(steps):
        if any(not 0 <= p < i for p in step.premises):
            return i
        if step.rule == "given":
            if step.premises or step.conclusion not in given:
                return i
        elif step.rule == "symmetry":
            if len(step.premises) != 1:
                return i
            if steps[step.premises[0]].conclusion != step.conclusion:
                return i
        elif step.rule in ("decomposition", "weak_union"):
            if len(step.premises) != 1:
                return i
            premise = steps[step.premises[0]].conclusion
            if (step.rule, step.conclusion) not in _unary_consequences(premise):
                return i
        elif step.rule == "contraction":
            if len(step.premises) != 2:
                return i
            s1 = steps[step.premises[0]].conclusion
            s2 = steps[step.premises[1]].conclusion
            if step.conclusion not in _contraction_consequences(s1, s2):
                return i
        else:
            return i
    return None


def test_chain_check_matches_frozenset_rules_on_corrupted_chains():
    rng = random.Random(1988)
    pool = statements_over(Universe("abcde"))
    rules = ("given", "symmetry", "decomposition", "weak_union", "contraction")
    checked = 0
    for _ in range(60):
        init = rng.sample(pool, rng.randint(1, 4))
        cl = closure(init, Universe("abcde"))
        ordered = sorted(cl.statements, key=statement_key)
        for s in rng.sample(ordered, min(5, len(ordered))):
            chain = list(cl.chain(s))
            assert first_invalid_step(chain, init) is None
            i = rng.randrange(len(chain))
            step = chain[i]
            change = rng.choice(("rule", "conclusion", "premises"))
            if change == "rule":
                step = AxiomStep(rng.choice(rules), step.premises, step.conclusion)
            elif change == "conclusion":
                step = AxiomStep(step.rule, step.premises, rng.choice(pool))
            else:
                step = AxiomStep(step.rule, step.premises[::-1], step.conclusion)
            chain[i] = step
            assert first_invalid_step(chain, init) == reference_first_invalid_step(
                chain, init
            )
            checked += first_invalid_step(chain, init) is not None
    assert checked > 100
