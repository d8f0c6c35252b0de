"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Everything here is exact: set comparisons, rational arithmetic, and
byte-identical CLI output; the only tolerance is the documented 1e-9 for
float-mode conditional-probability checks.
"""

import os
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from mugci import (
    Delete,
    DiGraph,
    DiscreteJoint,
    Exhausted,
    Mug,
    UGraph,
    Universe,
    all_ci,
    append_transformed,
    canonical_triple,
    ci_holds,
    closure,
    enumerate_canonical,
    initial_mug,
    replay_chain,
    replay_final,
    sample_dag_joint,
    search,
    statement_key,
    validate_join_tree,
    verify_chain,
    verify_script,
)
from mugci.dsep import JoinTree, build_join_tree
from mugci.mug import packed_key, unpacked_graph
from mugci.prob import as_floats


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[criterion {number}] {description}: FAIL")
        raise
    print(f"[criterion {number}] {description}: PASS")


def cs(x, z, y):
    return canonical_triple(set(x), set(z), set(y))


LETTERS = "abcde"


def pools():
    return {
        n: sorted(enumerate_canonical(Universe(LETTERS[:n])), key=statement_key)
        for n in (2, 3, 4)
    }


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_scripts_prove_exactly_the_closure():
    with criterion(1, "transformation scripts prove exactly the axiom closure (200 premise sets)"):
        rng = random.Random(1991)
        pool_by_size = pools()
        stmt_cache = {}

        def graph_statements(u, key, packed, pool):
            cached = stmt_cache.get((len(u), key))
            if cached is None:
                g = unpacked_graph(u.encoding, *packed)
                cached = frozenset(
                    s
                    for s in pool
                    if s.elements <= g.elements and g.separates(s.x, s.z, s.y)
                )
                stmt_cache[len(u), key] = cached
            return cached

        checked = 0
        for n, count in ((2, 10), (3, 95), (4, 95)):
            u = Universe(LETTERS[:n])
            pool = pool_by_size[n]
            for i in range(count):
                premises = rng.sample(pool, rng.randint(1, min(3, len(pool))))
                m0 = initial_mug(u, statements=premises)
                base = m0.enumerate_satisfied()
                cl = closure(base, u)
                allowed = cl.statements

                seen = {packed_key(*g): g for g in m0.packed}
                # completeness: replay every derivable statement
                for target in sorted(allowed, key=statement_key):
                    script = replay_chain(m0, cl.chain(target))
                    assert verify_script(script)
                    final = replay_final(script)
                    assert final.witness(target) is not None
                    for g in final.packed:
                        seen.setdefault(packed_key(*g), g)

                # a bounded search run contributes its transformation sequence
                if i % 10 == 0 and allowed:
                    target = sorted(allowed, key=statement_key)[-1]
                    outcome = search(m0, target, max_moves=2, max_graphs=6)
                    if not isinstance(outcome, Exhausted):
                        assert verify_script(outcome)
                        for g in replay_final(outcome).packed:
                            seen.setdefault(packed_key(*g), g)

                # soundness: everything any generated graph satisfies is allowed
                for key, g in seen.items():
                    assert graph_statements(u, key, g, pool) <= allowed
                checked += 1
        assert checked == 200


def test_criterion_1_scripts_prove_exactly_the_closure_of_graph_models():
    with criterion(1, "transformation scripts prove exactly the closure of 70 graph models"):
        rng = random.Random(2013)
        replayed = moved = 0
        for _ in range(70):
            u = Universe("abcdef"[: rng.randint(4, 6)])
            pool = sorted(enumerate_canonical(u), key=statement_key)
            graphs = [
                random_multinode_graph(rng, u.elements) for _ in range(rng.randint(1, 2))
            ]
            premises = rng.sample(pool, rng.randint(0, 2))
            m0 = initial_mug(u, statements=premises, graphs=graphs)
            cl = closure(premises, u, graphs)
            seen = {packed_key(*g): g for g in m0.packed}
            # completeness: every closure statement replays to a verified script
            for target in sorted(cl.statements, key=statement_key):
                script = replay_chain(m0, cl.chain(target))
                assert verify_script(script), target
                for g in replay_final(script).packed:
                    seen.setdefault(packed_key(*g), g)
                replayed += 1
                moved += len(script.moves) > 0
            # soundness: every generated graph satisfies only closure statements
            graphs = [unpacked_graph(u.encoding, *g) for g in seen.values()]
            assert Mug(u, graphs).enumerate_satisfied() <= cl.statements
        # derived statements take moves; some models derive many
        assert replayed > 3000 and moved > 1000


# -- criterion 2 ---------------------------------------------------------------


def random_multinode_graph(rng, elements):
    els = [e for e in elements if rng.random() < 0.85]
    if not els:
        els = [elements[0]]
    rng.shuffle(els)
    nodes = {}
    i = 0
    while i < len(els):
        size = rng.choice((1, 1, 1, 2, 2, 3))
        chunk = frozenset(els[i : i + size])
        nodes[len(nodes)] = chunk
        i += len(chunk)
    ids = sorted(nodes)
    edges = [
        (a, b) for a, b in combinations(ids, 2) if rng.random() < 0.45
    ]
    return UGraph(nodes, edges)


def equivalence_descriptors(g):
    """Every applicable single-arc addition, merge, and split (deletion is
    a model move, made with ``append_transformed``)."""
    ids = g.node_ids()
    nodes = g.nodes
    for a, b in combinations(ids, 2):
        if frozenset((a, b)) not in g.edges:
            yield ("add", lambda gg=g, a=a, b=b: gg.add_arcs([(a, b)]))
    for a, b in combinations(ids, 2):
        yield ("merge", lambda gg=g, a=a, b=b: gg.merge_nodes(a, b))
    for n in ids:
        members = sorted(nodes[n])
        if len(members) < 2:
            # overlapping split of a singleton is still applicable
            yield (
                "split",
                lambda gg=g, n=n, p=frozenset(members): gg.split_node(n, p, p),
            )
            continue
        for mask in range(1, 1 << (len(members) - 1)):
            part1 = frozenset(
                m for j, m in enumerate(members) if mask >> j & 1
            )
            part2 = frozenset(members) - part1
            yield (
                "split",
                lambda gg=g, n=n, p1=part1, p2=part2: gg.split_node(n, p1, p2),
            )


def test_criterion_2_equivalence_preserving_transformations():
    with criterion(2, "arc addition, deletion, merge, split all preserve the model"):
        rng = random.Random(42)
        corpus = []
        for n, count in ((3, 10), (4, 12), (5, 10)):
            u = Universe(LETTERS[:n])
            for _ in range(count):
                graphs = [
                    random_multinode_graph(rng, LETTERS[:n])
                    for _ in range(rng.randint(1, 2))
                ]
                corpus.append(Mug(u, graphs))
        # repeated elements on a shared path, and a multi-element chain
        corpus.append(
            Mug(
                Universe("abc"),
                [UGraph({0: {"a", "b"}, 1: {"b", "c"}}, [(0, 1)])],
            )
        )
        corpus.append(
            Mug(
                Universe("abcd"),
                [UGraph({0: {"a"}, 1: {"b", "c"}, 2: {"d"}}, [(0, 1), (1, 2)])],
            )
        )
        # one element on two non-adjacent nodes
        corpus.append(
            Mug(
                Universe("abc"),
                [UGraph({1: {"a"}, 2: {"a"}, 3: {"b"}, 4: {"c"}}, [(1, 3), (2, 4)])],
            )
        )

        descriptors_checked = 0
        for m in corpus:
            before = m.enumerate_satisfied()
            for gi, g in enumerate(m.graphs):
                made = [m.with_graph(apply_op()) for _, apply_op in equivalence_descriptors(g)]
                made += [append_transformed(m, Delete(gi, n)) for n in g.node_ids()]
                for m2, _ in made:
                    assert m2.enumerate_satisfied() == before
                    descriptors_checked += 1
        assert descriptors_checked > 300


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_mixing_chaining_intersection():
    with criterion(3, "mixing and chaining prove, intersection stays out of reach"):
        u = Universe("wxyz")

        mixing = [cs("xy", "z", "w"), cs("x", "z", "y")]
        mixing_target = cs("x", "z", "yw")
        cl = closure(mixing, u)
        assert mixing_target in cl.statements
        script = replay_chain(initial_mug(u, statements=mixing),
                              cl.chain(mixing_target))
        assert verify_script(script)

        chaining = [cs("xz", "y", "w"), cs("x", "z", "y")]
        chaining_target = cs("x", "z", "w")
        cl2 = closure(chaining, u)
        assert chaining_target in cl2.statements
        script2 = replay_chain(initial_mug(u, statements=chaining),
                               cl2.chain(chaining_target))
        assert verify_script(script2)

        intersection = [cs("x", "zy", "w"), cs("x", "zw", "y")]
        cl3 = closure(intersection, u)
        assert cs("x", "z", "yw") not in cl3.statements
        outcome = search(
            initial_mug(u, statements=intersection),
            cs("x", "z", "yw"),
            max_moves=3,
            max_graphs=6,
        )
        assert isinstance(outcome, Exhausted)


# -- criterion 4 ---------------------------------------------------------------


def random_rational_joint(rng, names):
    size = 2 ** len(names)
    while True:
        weights = [Fraction(rng.randint(0, 6)) for _ in range(size)]
        total = sum(weights)
        if total:
            break
    return DiscreteJoint(
        tuple(names), (2,) * len(names), tuple(w / total for w in weights)
    )


def test_criterion_4_axioms_sound_for_probability():
    with criterion(4, "closure adds nothing false on 100 exact rational joints"):
        rng = random.Random(7)
        checked = 0
        for n, count in ((2, 20), (3, 40), (4, 40)):
            names = list(LETTERS[:n])
            u = Universe(names)
            for _ in range(count):
                p = random_rational_joint(rng, names)
                facts = all_ci(p)
                assert closure(facts, u).statements == facts
                checked += 1
        assert checked == 100


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_intersection_counterexample_realized():
    with criterion(5, "non-positive joint defeats the intersection property"):
        half = Fraction(1, 2)
        probs = []
        for w in (0, 1):
            for x in (0, 1):
                for y in (0, 1):
                    probs.append(half if w == x == y else Fraction(0))
        p = DiscreteJoint(("w", "x", "y"), (2, 2, 2), tuple(probs))
        assert p.exact
        assert ci_holds(p, {"x"}, {"y"}, {"w"})  # I(X, Z+Y, W) with Z empty
        assert ci_holds(p, {"x"}, {"w"}, {"y"})  # I(X, Z+W, Y)
        assert not ci_holds(p, {"x"}, set(), {"y", "w"})


# -- criterion 6 ---------------------------------------------------------------


def random_dag(rng, names):
    order = list(names)
    rng.shuffle(order)
    arcs = []
    for i, a in enumerate(order):
        for b in order[i + 1 :]:
            if rng.random() < 0.4:
                arcs.append((a, b))
    with_parents = {b for _, b in arcs}
    det = frozenset(
        v for v in sorted(with_parents) if rng.random() < 0.3
    )
    return DiGraph(Universe(names), arcs, det)


def test_criterion_6_d_separation_sound_against_sampled_joints():
    with criterion(6, "d-separation implies independence on 200 sampled DAGs"):
        rng = random.Random(60)
        pool_cache = {}
        separated_seen = 0
        for index in range(200):
            n = rng.choice((3, 3, 4, 4, 5))
            names = list(LETTERS[:n])
            d = random_dag(rng, names)
            p = sample_dag_joint(d, seed=index)
            q = as_floats(p) if index % 10 == 0 else None
            if n not in pool_cache:
                pool_cache[n] = list(enumerate_canonical(Universe(names)))
            for s in pool_cache[n]:
                if d.d_separated(s.x, s.z, s.y):
                    separated_seen += 1
                    assert ci_holds(p, s.x, s.z, s.y)
                    if q is not None:
                        assert ci_holds(q, s.x, s.z, s.y)
        assert separated_seen > 1000


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_7_deterministic_propagation_fixtures():
    with criterion(7, "deterministic propagation fixtures match quoted behavior"):
        u = Universe("vwxyz")
        d = DiGraph(
            u,
            [("z", "w"), ("w", "y"), ("v", "y"), ("w", "x"), ("y", "x")],
            deterministic={"w", "y"},
        )
        propagated = d.det_propagate({"z"})
        assert propagated.arcs == frozenset(
            {("z", "w"), ("z", "y"), ("v", "y"), ("z", "x"), ("v", "x")}
        )
        assert d.d_separated({"w"}, {"z"}, {"v", "x", "y"})
        assert not d.d_separated({"x"}, {"z"}, {"y"})

        observed = DiGraph(
            Universe("wxyz"),
            [("x", "z"), ("z", "y"), ("z", "w")],
            deterministic={"z"},
        )
        assert observed.d_separated({"x"}, {"z"}, {"y", "w"})
        forced = observed.det_propagate(set()).moralize()
        assert not forced.separates({"x"}, {"z"}, {"y", "w"})


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_moral_graph_and_join_trees():
    with criterion(8, "moralization and join trees behave on the worked fixtures"):
        u = Universe("bdelt")
        chest = DiGraph(u, [("t", "e"), ("l", "e"), ("e", "d"), ("b", "d")])
        moral = chest.moralize()
        skeleton = {frozenset("te"), frozenset("le"), frozenset("ed"),
                    frozenset("bd")}
        assert moral.expand().edges == skeleton | {frozenset("tl"),
                                                   frozenset("eb")}

        good = JoinTree({0: {"e", "l", "t"}, 1: {"b", "d", "e"}}, [(0, 1)])
        assert validate_join_tree(good) == []
        mutated = JoinTree(
            {0: {"e", "l", "t"}, 1: {"b", "d"}, 2: {"d", "e"}},
            [(0, 1), (1, 2)],
        )
        assert validate_join_tree(mutated) != []

        six = UGraph.from_singletons(
            "abcdef",
            [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("d", "e"),
             ("e", "f"), ("f", "a")],
        )
        corpus = [
            moral,
            six,
            UGraph.from_singletons("abcd", [("a", "b"), ("b", "c"), ("b", "d")]),
            UGraph.from_singletons("abcd", [("a", "b"), ("b", "c"), ("c", "d"),
                                            ("d", "a")]),
        ]
        built = 0
        for g in corpus:
            members = sorted(g.elements)
            for order in permutations(members):
                _, tree = build_join_tree(g, order)
                assert validate_join_tree(tree) == []
                built += 1
        assert built == 120 + 720 + 24 + 24


# -- criterion 9 ---------------------------------------------------------------

CLI_COMMANDS = (
    ("closure", "tests/fixtures/mixing.mug", "--emit-chains"),
    ("closure", "tests/fixtures/chains.mug", "--json"),
    ("query", "tests/fixtures/mixing.mug", "--stmt", "{x}|{z}|{y,w}",
     "--mode", "axioms"),
    ("query", "tests/fixtures/mixing.mug", "--stmt", "{x}|{z}|{y,w}",
     "--mode", "replay"),
    ("query", "tests/fixtures/chaining.mug", "--stmt", "{x}|{z}|{w}",
     "--mode", "replay"),
    ("query", "tests/fixtures/intersection.mug", "--stmt", "{x}|{z}|{y,w}",
     "--mode", "search", "--max-moves", "3", "--max-graphs", "6"),
    ("dsep", "tests/fixtures/directed.mug", "--graph", "Prop",
     "--x", "w", "--z", "z", "--y", "v,x,y"),
    ("moralize", "tests/fixtures/directed.mug", "--graph", "Chest"),
    ("check-jointree", "tests/fixtures/directed.mug", "--tree", "Good"),
    ("build-jointree", "tests/fixtures/directed.mug", "--graph", "Chest",
     "--order", "t,d,e,l,b"),
)


def run_cli(argv, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, "-m", "mugci.cli", *argv],
        capture_output=True,
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    return proc.returncode, proc.stdout


def test_criterion_9_deterministic_output_and_reverifiable_artifacts():
    with criterion(9, "CLI output is byte-stable and every artifact re-verifies"):
        for argv in CLI_COMMANDS:
            first = run_cli(argv, hash_seed=0)
            second = run_cli(argv, hash_seed=97)
            assert first == second, f"nondeterministic output for {argv}"

        # the proof artifacts the CLI emits are rebuilt and re-verified here
        u = Universe("wxyz")
        premises = [cs("xy", "z", "w"), cs("x", "z", "y")]
        cl = closure(premises, u)
        target = cs("x", "z", "yw")
        chain = cl.chain(target)
        assert verify_chain(chain, premises)
        script = replay_chain(initial_mug(u, statements=premises), chain)
        assert verify_script(script)
