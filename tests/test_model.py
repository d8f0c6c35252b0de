import random
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mugci import (
    CanonicalStatement,
    Statement,
    TRIVIALLY_TRUE,
    Universe,
    canonical_triple,
    canonicalize,
    enumerate_canonical,
    statement_key,
)
from mugci.errors import InvalidOverlap, UniverseTooLarge

from oracle import all_triples

ELEMENTS = ["a", "b", "c", "d"]


def sets_from(names):
    return st.frozensets(st.sampled_from(names), max_size=len(names))


def raw_statements(names=ELEMENTS):
    return st.builds(Statement, sets_from(names), sets_from(names), sets_from(names))


def test_overlap_absorption_example():
    assert canonical_triple({"x", "z1"}, {"z1"}, {"y"}) == canonical_triple(
        {"x"}, {"z1"}, {"y"}
    )


def test_symmetry_absorbed():
    assert canonical_triple({"y"}, {"z"}, {"x"}) == canonical_triple(
        {"x"}, {"z"}, {"y"}
    )


def test_empty_side_is_trivial():
    assert canonical_triple(set(), {"z"}, {"y"}) is TRIVIALLY_TRUE
    assert canonical_triple({"x"}, {"z"}, set()) is TRIVIALLY_TRUE
    assert canonical_triple({"z"}, {"z"}, {"y"}) is TRIVIALLY_TRUE


def test_overlap_outside_z_is_an_error():
    with pytest.raises(InvalidOverlap):
        canonical_triple({"a"}, set(), {"a", "b"})


def test_canonical_statement_invariants_enforced():
    with pytest.raises(ValueError):
        CanonicalStatement(frozenset("a"), frozenset("a"), frozenset("b"))
    with pytest.raises(ValueError):
        CanonicalStatement(frozenset(), frozenset(), frozenset("b"))
    with pytest.raises(ValueError):
        # sides out of order: {b} > {a}
        CanonicalStatement(frozenset("b"), frozenset(), frozenset("a"))


@settings(max_examples=200, deadline=None)
@given(raw_statements())
def test_canonicalize_idempotent_and_symmetric(s):
    try:
        c = canonicalize(s)
    except InvalidOverlap:
        with pytest.raises(InvalidOverlap):
            canonicalize(Statement(s.y, s.z, s.x))
        return
    assert canonicalize(Statement(s.y, s.z, s.x)) == c
    if c is not TRIVIALLY_TRUE:
        assert canonicalize(Statement(c.x, c.z, c.y)) == c


@settings(max_examples=200, deadline=None)
@given(raw_statements(), sets_from(ELEMENTS), sets_from(ELEMENTS))
def test_overlap_absorption_property(s, extra_x, extra_y):
    try:
        base = canonicalize(s)
    except InvalidOverlap:
        return
    widened = Statement(s.x | (extra_x & s.z), s.z, s.y | (extra_y & s.z))
    assert canonicalize(widened) == base


def test_enumerate_two_elements():
    u = Universe(["a", "b"])
    got = list(enumerate_canonical(u))
    assert got == [canonical_triple({"a"}, set(), {"b"})]


def test_enumerate_single_element_empty():
    assert list(enumerate_canonical(Universe(["a"]))) == []


def test_enumerate_three_elements_contains_examples():
    got = set(enumerate_canonical(Universe(["a", "b", "c"])))
    assert canonical_triple({"a"}, {"c"}, {"b"}) in got
    assert canonical_triple({"a"}, set(), {"b", "c"}) in got


@pytest.mark.parametrize("names", [["a", "b", "c"], ["a", "b", "c", "d"]])
def test_enumerate_matches_brute_force(names):
    got = list(enumerate_canonical(Universe(names)))
    assert len(got) == len(set(got))
    assert set(got) == all_triples(names)
    assert got == sorted(got, key=statement_key)


@settings(max_examples=100, deadline=None)
@given(raw_statements())
def test_enumeration_covers_every_canonical_statement(s):
    try:
        c = canonicalize(s)
    except InvalidOverlap:
        return
    if c is TRIVIALLY_TRUE:
        return
    assert c in set(enumerate_canonical(Universe(ELEMENTS)))


def product_enumeration(universe):
    """Reference: assign each element to x, z, y or neither (4**n ways),
    canonicalize, deduplicate and sort."""
    elements = universe.elements
    seen = set()
    for assignment in product(range(4), repeat=len(elements)):
        x = frozenset(e for e, a in zip(elements, assignment) if a == 0)
        z = frozenset(e for e, a in zip(elements, assignment) if a == 1)
        y = frozenset(e for e, a in zip(elements, assignment) if a == 2)
        if x and y:
            seen.add(canonicalize(Statement(x, z, y)))
    return sorted(seen, key=statement_key)


@pytest.mark.parametrize("n", range(8))
def test_enumerate_matches_product_enumeration(n):
    names = [f"v{i}" for i in range(n)][::-1]
    u = Universe(names)
    assert list(enumerate_canonical(u)) == product_enumeration(u)


def test_enumeration_guard():
    big = Universe([f"e{i}" for i in range(13)])
    with pytest.raises(UniverseTooLarge):
        list(enumerate_canonical(big))


def test_universe_iteration_is_sorted_and_checked():
    u = Universe(["c", "a", "b", "a"])
    assert list(u) == ["a", "b", "c"]
    assert "a" in u and "x" not in u
    with pytest.raises(ValueError):
        Universe(["not an identifier!"])


@pytest.mark.parametrize("bad", ["1", "a b", "x-y", "", "é!", 3, None])
def test_universe_rejects_a_name_that_is_not_an_identifier(bad):
    with pytest.raises(ValueError) as caught:
        Universe(["a", bad, "b"])
    assert str(caught.value) == f"element name must be an identifier, got {bad!r}"


def test_universe_drops_repeated_names():
    u = Universe(["v2", "v10", "v2", "é", "v10"])
    assert u.elements == ("v10", "v2", "é") and len(u) == 3
    assert u.bits == {"v10": 1, "v2": 2, "é": 4} and u.full == 7
    assert u == Universe(["é", "v2", "v10"])
    assert hash(u) == hash(Universe(["é", "v2", "v10"]))


# -- bitmask encoding -----------------------------------------------------------


def test_encoding_round_trip_and_key_order():
    # names whose string order differs from their numeric order
    u = Universe(["v10", "v2", "v1", "w", "a_b", "ab"])
    enc = u
    statements = list(enumerate_canonical(u))
    packed = [enc.encode(s) for s in statements]
    assert [enc.decode(p) for p in packed] == statements
    assert len(set(packed)) == len(packed)
    assert sorted(packed, key=enc.key) == packed
    for s, p in zip(statements, packed):
        x, z, y = enc.unpack(p)
        assert (enc.names(x), enc.names(z), enc.names(y)) == (s.x, s.z, s.y)
        assert enc.pack(y, z, x) == enc.pack(x, z, y) == p
    # Far beyond the enumeration guard: no 2^n-sized work per universe.
    names = [f"v{i}" for i in range(40)]
    rng = random.Random(40)
    seeded = set()
    while len(seeded) < 300:
        pool = rng.sample(names, rng.randint(2, 12))
        cut1 = rng.randint(1, len(pool) - 1)
        cut2 = rng.randint(cut1 + 1, len(pool))
        seeded.add(canonical_triple(pool[:cut1], pool[cut2:], pool[cut1:cut2]))
    big = Universe(names)
    start = time.perf_counter()
    ordered = sorted(map(big.encode, seeded), key=big.key)
    assert time.perf_counter() - start < 1.0
    assert [big.decode(p) for p in ordered] == sorted(seeded, key=statement_key)


def test_decode_builds_the_object_the_checked_constructor_builds():
    # decode skips CanonicalStatement's checks; over every packed statement
    # at n = 5 its objects must be indistinguishable from checked ones.
    enc = Universe("abcde")
    seen = 0
    for x, z, y in product(range(32), repeat=3):
        if not x or not y or x & y or x & z or y & z:
            continue
        p = enc.pack(x, z, y)
        got = enc.decode(p)
        a, zz, b = enc.unpack(p)
        want = CanonicalStatement(enc.names(a), enc.names(zz), enc.names(b))
        assert type(got) is CanonicalStatement
        assert got == want and hash(got) == hash(want) and str(got) == str(want)
        assert (got.x, got.z, got.y) == (want.x, want.z, want.y)
        seen += 1
    assert seen == 2 * 285  # each of the 285 statements from either side
    with pytest.raises(AttributeError):
        got.x = frozenset()


def test_encoding_bits_follow_the_element_order():
    u = Universe(["c", "a", "b"])
    enc = u
    assert enc.mask({"a"}) == 1 and enc.mask({"c", "b"}) == 6
    assert enc.names(5) == frozenset({"a", "c"})
    with pytest.raises(KeyError):
        enc.mask({"q"})
