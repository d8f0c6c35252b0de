import random
from fractions import Fraction
from itertools import product

import pytest

from mugci import (
    DiGraph,
    DiscreteJoint,
    Universe,
    all_ci,
    canonical_triple,
    ci_holds,
    closure,
    enumerate_canonical,
    sample_dag_joint,
)
from mugci.errors import UniverseTooLarge, UnknownVariable

from object_layer import as_floats

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def product_bits():
    return DiscreteJoint(("a", "b"), (2, 2), (QUARTER,) * 4)


def xor_triple():
    probs = []
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                probs.append(QUARTER if c == (a ^ b) else Fraction(0))
    return DiscreteJoint(("a", "b", "c"), (2, 2, 2), tuple(probs))


def copy_pair():
    # b is a copy of a
    return DiscreteJoint(("a", "b"), (2, 2), (HALF, Fraction(0), Fraction(0), HALF))


def test_product_bits_independent():
    assert ci_holds(product_bits(), {"a"}, set(), {"b"})


def test_xor_hides_dependence_marginally():
    p = xor_triple()
    assert ci_holds(p, {"a"}, set(), {"b"})
    assert not ci_holds(p, {"a"}, {"c"}, {"b"})


def test_copy_conditioning_is_vacuous():
    p = copy_pair()
    # given b, the value of a is fixed: nothing can break independence
    assert ci_holds(p, {"a"}, {"b"}, set())


def test_intersection_counterexample_semantics():
    # w = x = y with probability one half each way: both intersection
    # premises hold, the conclusion fails, zeros are essential
    probs = []
    for w in (0, 1):
        for x in (0, 1):
            for y in (0, 1):
                probs.append(HALF if w == x == y else Fraction(0))
    p = DiscreteJoint(("w", "x", "y"), (2, 2, 2), tuple(probs))
    assert ci_holds(p, {"x"}, {"y"}, {"w"})
    assert ci_holds(p, {"x"}, {"w"}, {"y"})
    assert not ci_holds(p, {"x"}, set(), {"y", "w"})


def test_table_validation():
    with pytest.raises(ValueError):
        DiscreteJoint(("a",), (2,), (HALF, HALF, HALF))
    with pytest.raises(ValueError):
        DiscreteJoint(("a",), (2,), (HALF, QUARTER))
    with pytest.raises(ValueError):
        DiscreteJoint(("a",), (0,), ())
    with pytest.raises(ValueError, match="probabilities must be nonnegative"):
        DiscreteJoint(("a",), (2,), (Fraction(3, 2), -HALF))
    with pytest.raises(ValueError, match="probabilities must be nonnegative"):
        DiscreteJoint(("a",), (2,), (1.5, -0.5))
    # A negative entry is reported before a wrong total, exact or float.
    with pytest.raises(ValueError, match="probabilities must be nonnegative"):
        DiscreteJoint(("a",), (2,), (-HALF, QUARTER))
    with pytest.raises(ValueError, match="probabilities must be nonnegative"):
        DiscreteJoint(("a",), (2,), (-0.5, 0.25))
    with pytest.raises(UnknownVariable):
        ci_holds(product_bits(), {"q"}, set(), {"b"})
    with pytest.raises(ValueError):
        ci_holds(product_bits(), {"a"}, {"a"}, {"b"})


def test_table_total_check_matches_fraction_sum():
    # The exact total is checked on integer numerators; it must accept and
    # reject the same tables as summing the fractions, with the same text.
    rng = random.Random(5)
    rejected = 0
    for _ in range(300):
        size = rng.choice((1, 2, 4, 6))
        weights = [rng.choice((0, 1, 2, 3)) for _ in range(size)]
        total = sum(weights) or 1
        table = [Fraction(w, total) for w in weights]
        if rng.random() < 0.4:
            i = rng.randrange(size)
            table[i] += Fraction(rng.choice((-1, 1)), rng.randint(2, 30))
            table[i] = max(table[i], Fraction(0))
        if rng.random() < 0.3:
            table = [int(pr) if pr.denominator == 1 else pr for pr in table]
        want = sum(table)
        try:
            DiscreteJoint(("v",), (size,), tuple(table))
            got = None
        except ValueError as exc:
            got = str(exc)
        assert got == (None if want == 1 else f"probabilities sum to {want}, not 1")
        rejected += got is not None
    assert 50 < rejected < 250


def test_all_ci_factorized_joint_holds_everything():
    p = DiscreteJoint(("a", "b", "c"), (2, 2, 2), (Fraction(1, 8),) * 8)
    universe = Universe(("a", "b", "c"))
    from mugci import enumerate_canonical

    assert all_ci(p) == set(enumerate_canonical(universe))


def test_all_ci_xor_pattern():
    got = all_ci(xor_triple())
    assert got == {
        canonical_triple({"a"}, set(), {"b"}),
        canonical_triple({"a"}, set(), {"c"}),
        canonical_triple({"b"}, set(), {"c"}),
    }


def test_all_ci_copy_chain():
    # a -> b -> c with b = a and c = b
    probs = []
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                probs.append(HALF if a == b == c else Fraction(0))
    p = DiscreteJoint(("a", "b", "c"), (2, 2, 2), tuple(probs))
    assert canonical_triple({"a"}, {"b"}, {"c"}) in all_ci(p)


def test_all_ci_guard():
    p = DiscreteJoint(
        tuple(f"v{i}" for i in range(8)), (2,) * 8, (Fraction(1, 256),) * 256
    )
    with pytest.raises(UniverseTooLarge):
        all_ci(p)


def test_sampled_arcless_graph_is_a_product():
    u = Universe(["a", "b"])
    p = sample_dag_joint(DiGraph(u), seed=1)
    assert ci_holds(p, {"a"}, set(), {"b"})


def test_sampling_is_reproducible():
    u = Universe(["a", "b", "c"])
    d = DiGraph(u, [("a", "b"), ("b", "c")])
    assert sample_dag_joint(d, 11) == sample_dag_joint(d, 11)
    assert sample_dag_joint(d, 11) != sample_dag_joint(d, 12)


def test_sampled_collider_shows_marginal_independence_only():
    u = Universe(["a", "b", "c"])
    d = DiGraph(u, [("a", "c"), ("b", "c")])
    for seed in range(5):
        p = sample_dag_joint(d, seed)
        assert ci_holds(p, {"a"}, set(), {"b"})
        assert not ci_holds(p, {"a"}, {"c"}, {"b"})


def test_deterministic_elements_have_zero_one_rows():
    u = Universe(["a", "b"])
    d = DiGraph(u, [("a", "b")], deterministic={"b"})
    p = sample_dag_joint(d, 3)
    assert p.exact
    # joint mass concentrates on the function graph of b = f(a)
    positive = [cfg for cfg, pr in p.configurations() if pr > 0]
    values = {a: b for a, b in positive}
    assert len(values) == 2  # one b-value per a-value


def test_axiom_soundness_on_sampled_joints():
    u = Universe(["a", "b", "c"])
    d = DiGraph(u, [("a", "b"), ("b", "c")])
    for seed in range(5):
        p = sample_dag_joint(d, seed)
        facts = all_ci(p)
        assert closure(facts, u).statements == facts


def test_float_mode_matches_exact_mode():
    p = xor_triple()
    q = as_floats(p)
    assert ci_holds(q, {"a"}, set(), {"b"})
    assert not ci_holds(q, {"a"}, {"c"}, {"b"})
    assert all_ci(q) == all_ci(p)


def literal_ci(p, x, z, y):
    """Direct reading of the definition, tolerating overlapping sets.

    Evaluates P{X | Z, Y} = P{X | Z} over joint assignments of the union, so
    z-elements may also appear in x or y.  Serves as the oracle for the
    overlap-absorption behavior of canonicalization.
    """
    from itertools import product as iproduct

    union = sorted(set(x) | set(z) | set(y))
    pos = {v: i for i, v in enumerate(p.variables)}

    def mass(assignment, over):
        total = Fraction(0)
        for cfg, pr in p.configurations():
            if all(cfg[pos[v]] == assignment[v] for v in over):
                total += pr
        return total

    for values in iproduct((0, 1), repeat=len(union)):
        a = dict(zip(union, values))
        pz = mass(a, set(z))
        if pz == 0:
            continue
        pzy = mass(a, set(z) | set(y))
        pxz = mass(a, set(x) | set(z))
        pxzy = mass(a, set(x) | set(z) | set(y))
        if pxzy * pz != pxz * pzy:
            return False
    return True


def test_overlap_consistency_against_literal_definition():
    from mugci import canonicalize, Statement, TRIVIALLY_TRUE
    import random

    rng = random.Random(99)
    u = Universe(["a", "b", "c"])
    d = DiGraph(u, [("a", "b"), ("b", "c")])
    for seed in range(4):
        p = sample_dag_joint(d, seed)
        for _ in range(20):
            x = {v for v in "abc" if rng.random() < 0.5}
            z = {v for v in "abc" if rng.random() < 0.4}
            y = {v for v in "abc" if rng.random() < 0.5}
            if (x - z) & (y - z):
                continue  # overlap outside z is not a statement
            c = canonicalize(Statement(frozenset(x), frozenset(z), frozenset(y)))
            literal = literal_ci(p, x, z, y)
            if c is TRIVIALLY_TRUE:
                assert literal
            else:
                assert literal == ci_holds(p, c.x, c.z, c.y)


# -- differential: integer arithmetic against the Fraction-only code ---------
#
# The references below do every step in ``Fraction``; the library multiplies
# integer weights and compares integer numerators over one denominator.  The
# tables and every answer must be exactly the same.


def reference_sample_dag_joint(d, seed):
    rng = random.Random(seed)
    variables = tuple(d.universe)
    tables = {}
    for v in variables:
        parents = tuple(sorted(d.parents(v)))
        rows = {}
        for cfg in product((0, 1), repeat=len(parents)):
            if v in d.deterministic:
                rows[cfg] = Fraction(rng.randrange(2))
            else:
                rows[cfg] = Fraction(rng.randint(1, 9), 10)
        tables[v] = (parents, rows)
    probabilities = []
    for cfg in product((0, 1), repeat=len(variables)):
        value = dict(zip(variables, cfg))
        pr = Fraction(1)
        for v in variables:
            parents, rows = tables[v]
            p_one = rows[tuple(value[q] for q in parents)]
            pr *= p_one if value[v] == 1 else 1 - p_one
        probabilities.append(pr)
    return DiscreteJoint(variables, (2,) * len(variables), tuple(probabilities))


def reference_ci_holds(p, x, z, y):
    index = {v: i for i, v in enumerate(p.variables)}
    xs, zs, ys = (tuple(index[v] for v in sorted(side)) for side in (x, z, y))
    pz, pzy, pxz, pxzy = {}, {}, {}, {}
    for cfg, pr in p.configurations():
        if pr == 0:
            continue
        xc = tuple(cfg[i] for i in xs)
        zc = tuple(cfg[i] for i in zs)
        yc = tuple(cfg[i] for i in ys)
        pz[zc] = pz.get(zc, 0) + pr
        pzy[(zc, yc)] = pzy.get((zc, yc), 0) + pr
        pxz[(xc, zc)] = pxz.get((xc, zc), 0) + pr
        pxzy[(xc, zc, yc)] = pxzy.get((xc, zc, yc), 0) + pr
    x_configs = list(product(*(range(p.cardinalities[i]) for i in xs)))
    for zc in product(*(range(p.cardinalities[i]) for i in zs)):
        mass_z = pz.get(zc, 0)
        if mass_z == 0:
            continue
        for yc in product(*(range(p.cardinalities[i]) for i in ys)):
            mass_zy = pzy.get((zc, yc), 0)
            if mass_zy == 0:
                continue
            for xc in x_configs:
                joint = pxzy.get((xc, zc, yc), 0)
                marginal = pxz.get((xc, zc), 0)
                if joint * mass_z != marginal * mass_zy:
                    return False
    return True


def random_dag(rng, n, shuffled=False, det_share=0.3):
    """Arcs only from earlier to later in a topological order, which is the
    universe order unless ``shuffled``: then arcs also run from later names
    to earlier ones."""
    names = [f"v{i}" for i in range(n)]
    order = list(names)
    if shuffled:
        rng.shuffle(order)
    arcs = [
        (order[i], order[j])
        for j in range(n)
        for i in range(j)
        if rng.random() < 0.4
    ]
    det = {v for v in names if rng.random() < det_share}
    return DiGraph(Universe(names), arcs, det)


def test_sample_dag_joint_matches_fraction_reference():
    rng = random.Random(5)
    saw_deterministic = False
    saw_backward_arc = False
    for seed in range(100):
        if seed % 2:
            d = random_dag(rng, rng.randint(1, 10), shuffled=True)
        else:
            d = random_dag(rng, rng.randint(1, 8))
        saw_deterministic |= bool(d.deterministic)
        saw_backward_arc |= any(a > b for a, b in d.arcs)
        got = sample_dag_joint(d, seed)
        want = reference_sample_dag_joint(d, seed)
        assert got == want
        assert got.probabilities == want.probabilities
        assert all(type(pr) is Fraction for pr in got.probabilities)
        # the weights handed over as numerators give the same answers
        names = list(d.universe)
        for _ in range(5 if len(names) >= 2 else 0):
            pool = rng.sample(names, rng.randint(2, len(names)))
            cut = rng.randint(1, len(pool) - 1)
            rest = rng.randint(cut + 1, len(pool))
            x, y, z = pool[:cut], pool[cut:rest], pool[rest:]
            assert ci_holds(got, x, z, y) == ci_holds(want, x, z, y)
    assert saw_deterministic
    assert saw_backward_arc


def random_exact_joint(rng):
    """Entries with mixed denominators and zeros; every other joint is built
    as p(z) p(x | z) p(y | z) over a random split, so some statements hold."""
    n = rng.randint(2, 4)
    names = tuple(f"v{i}" for i in range(n))
    cards = tuple(rng.choice((2, 2, 3)) for _ in names)

    def weight():
        return 0 if rng.random() < 0.25 else Fraction(rng.randint(1, 9), rng.randint(1, 12))

    configs = list(product(*(range(c) for c in cards)))
    if rng.random() < 0.5:
        weights = [weight() for _ in configs]
    else:
        roles = [rng.choice("xzy") for _ in names]
        tables = {}
        weights = []
        for cfg in configs:
            pr = 1
            for role in "xzy":
                key = (role,) + tuple(
                    c for c, r in zip(cfg, roles) if r == role or (role != "z" and r == "z")
                )
                if key not in tables:
                    tables[key] = weight()
                pr *= tables[key]
            weights.append(pr)
    total = sum(weights)
    if total == 0:
        weights[0], total = 1, 1
    return DiscreteJoint(names, cards, tuple(Fraction(w) / total for w in weights))


def test_ci_holds_matches_fraction_reference():
    rng = random.Random(17)
    answers = set()
    mixed = 0
    joints = [
        DiscreteJoint(("a", "b"), (2, 2), (1, 0, 0, 0)),
        DiscreteJoint(("a", "b"), (2, 2), (Fraction(1, 3), 0, Fraction(1, 6), HALF)),
    ]
    joints += [random_exact_joint(rng) for _ in range(150)]
    for p in joints:
        denominators = {Fraction(pr).denominator for pr in p.probabilities}
        mixed += len(denominators) > 1 and 0 in p.probabilities
        q = as_floats(p)
        for s in enumerate_canonical(Universe(p.variables)):
            got = ci_holds(p, s.x, s.z, s.y)
            assert got == reference_ci_holds(p, s.x, s.z, s.y)
            assert ci_holds(q, s.x, s.z, s.y) == got
            answers.add(got)
    assert answers == {True, False}
    assert mixed > 50  # zeros beside entries over several denominators


def test_d_connected_statements_are_dependent_on_some_seed():
    # Completeness of d-separation (Meek 1995): with no deterministic
    # element, a statement the graph does not d-separate fails in almost
    # every joint that factorizes along it.  One sampled joint can still
    # hold it by coincidence, so each must fail on one of three seeds.
    rng = random.Random(23)
    statements = {n: list(enumerate_canonical(Universe(f"v{i}" for i in range(n))))
                  for n in (3, 4, 5)}
    connected = 0
    for index in range(100):
        d = random_dag(rng, rng.choice((3, 4, 5, 5)), shuffled=True, det_share=0)
        joints = [sample_dag_joint(d, 3 * index + k) for k in range(3)]
        for s in statements[len(d.universe)]:
            if d.d_separated(s.x, s.z, s.y):
                continue
            connected += 1
            assert not all(ci_holds(p, s.x, s.z, s.y) for p in joints), s
    assert connected > 10000


def test_sampled_joint_builds_its_fractions_only_when_read():
    # A sampled table keeps integer weights; its Fraction entries are made on
    # the first read of ``probabilities``, which ci_holds never does.  Each
    # view below is taken on a fresh table, so each one makes them itself.
    rng = random.Random(29)
    statements = {n: list(enumerate_canonical(Universe(f"v{i}" for i in range(n))))
                  for n in range(2, 6)}
    answers = set()
    for seed in range(60):
        d = random_dag(rng, rng.randint(1, 5), shuffled=seed % 2 == 1)
        want = reference_sample_dag_joint(d, seed)
        fresh = lambda: sample_dag_joint(d, seed)
        assert "probabilities" not in vars(fresh())
        assert fresh() == want and want == fresh()
        assert hash(fresh()) == hash(want)
        assert repr(fresh()) == repr(want)
        assert fresh().exact
        assert list(fresh().configurations()) == list(want.configurations())
        assert fresh().probabilities == want.probabilities
        p = fresh()
        for s in statements.get(len(d.universe), ()):
            got = ci_holds(p, s.x, s.z, s.y)
            assert got == ci_holds(want, s.x, s.z, s.y)
            answers.add(got)
        assert "probabilities" not in vars(p)
        assert p.probabilities is p.probabilities  # made once, then kept
    assert answers == {True, False}
    with pytest.raises(AttributeError, match="'DiscreteJoint' object has no attribute 'weights'"):
        sample_dag_joint(DiGraph(Universe("a")), 0).weights
