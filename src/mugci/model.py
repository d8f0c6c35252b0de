"""Element universes and independence statements in canonical form.

An independence statement I(x, z, y) asserts that the elements of x tell us
nothing further about the elements of y once z has been observed.  Every
module in this package exchanges statements in a single canonical form:
z-elements are removed from both sides (overlap absorption), the two sides
are ordered lexicographically (symmetry absorption), and statements with an
empty side are represented by the ``TRIVIALLY_TRUE`` marker instead of a
statement object.

Statement objects are the boundary form.  Inside, the engines work on the
``Universe``'s own bitmask encoding: element sets as int bitmasks and
canonical statements packed into single ints, encoded when a statement comes
in and decoded only when a caller asks for an object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InvalidOverlap, UnknownElement, UniverseTooLarge

# Largest universe that enumeration and closure accept.  The slowest closure
# measured over 8 elements (every statement, 26335 of them, given or derived)
# takes about 1.5 s through the CLI, below the 2 s the slowest 7-element one
# took on the frozenset engine; over 9 elements the statement count grows
# 4.2-fold again (README "Size limits").
ENUMERATION_GUARD = 8


def _checked_name(name: str) -> str:
    if not isinstance(name, str) or not name.isidentifier():
        raise ValueError(f"element name must be an identifier, got {name!r}")
    return name


class Universe:
    """Finite ordered set of named elements, and its bitmask encoding.

    Iteration is lexicographic.  Bit i of a mask stands for ``elements[i]``;
    with the elements sorted, a mask's lowest bit is its lowest member.  A
    canonical statement over n elements packs into ``x << 2n | z << n | y``,
    x being the side that holds the lower lowest bit, as in
    ``CanonicalStatement``.  This class is the only code that packs and
    unpacks statements; ``mug.separations`` alone adds packed sides up
    itself, for speed.  ``bits`` maps each element to its one-bit mask.  A
    mask's names and their ``format_set`` text are each made once.
    """

    __slots__ = ("_elements", "_n", "full", "bits", "_sets", "_texts", "_rank")

    def __init__(self, elements: Iterable[str]):
        self._adopt(tuple(sorted({_checked_name(e) for e in elements})))

    @classmethod
    def _from_sorted(cls, elements: Iterable[str]) -> "Universe":
        """The universe over names already distinct and sorted; nothing is
        checked, so any strings will do."""
        universe = cls.__new__(cls)
        universe._adopt(tuple(elements))
        return universe

    def _adopt(self, elements: tuple[str, ...]) -> None:
        self._elements = elements
        self._n = len(elements)
        self.full = (1 << self._n) - 1
        self.bits = {e: 1 << i for i, e in enumerate(elements)}
        self._sets: dict[int, frozenset] = {}
        self._texts: dict[int, str] = {}
        self._rank = _MaskRanks(self._n)

    @property
    def elements(self) -> tuple[str, ...]:
        return self._elements

    def require(self, names: Iterable[str]) -> None:
        """Raise UnknownElement unless every name belongs to this universe."""
        missing = sorted(set(names).difference(self.bits))
        if missing:
            raise UnknownElement(f"not in universe: {', '.join(missing)}")

    def canonical(self, s: "Statement") -> "CanonicalStatement | TriviallyTrue":
        """``canonicalize(s)``, once every element of s is in this universe."""
        self.require(s.x | s.z | s.y)
        return canonicalize(s)

    def mask(self, names: Iterable[str]) -> int:
        """Mask of a set of names; KeyError for a name not in the universe."""
        return sum(map(self.bits.__getitem__, names))

    def names(self, mask: int) -> frozenset:
        found = self._sets.get(mask)
        if found is None:
            members = []
            rest = mask
            while rest:
                low = rest & -rest
                members.append(self._elements[low.bit_length() - 1])
                rest ^= low
            found = self._sets[mask] = frozenset(members)
        return found

    def text(self, mask: int) -> str:
        """``format_set`` of the mask's names."""
        found = self._texts.get(mask)
        if found is None:
            found = self._texts[mask] = format_set(self.names(mask))
        return found

    def pack(self, a: int, z: int, b: int) -> int:
        """The statement with disjoint non-empty sides a and b given z."""
        if b & -b < a & -a:
            a, b = b, a
        n = self._n
        return (a << n | z) << n | b

    def unpack(self, p: int) -> tuple[int, int, int]:
        n = self._n
        return p >> n >> n, p >> n & self.full, p & self.full

    def encode(self, s: CanonicalStatement) -> int:
        """Pack a statement; KeyError if it uses an element not in the universe."""
        n = self._n
        return (self.mask(s.x) << n | self.mask(s.z)) << n | self.mask(s.y)

    def decode(self, p: int) -> CanonicalStatement:
        """The statement a packed int from ``pack`` or ``encode`` stands for.

        Such an int is canonical by construction, so the object is built
        without ``CanonicalStatement``'s checks, which every other
        construction runs.
        """
        x, z, y = self.unpack(p)
        names = self.names
        s = object.__new__(CanonicalStatement)
        fields = s.__dict__
        fields["x"] = names(x)
        fields["z"] = names(z)
        fields["y"] = names(y)
        return s

    def key(self, p: int) -> int:
        """Sort key of a packed statement, in ``statement_key`` order.

        Masks are ranked by their ascending index tuples, which is how
        ``statement_key`` orders the sets they stand for.  Each mask's rank is
        worked out when it first occurs; no table over all 2^n masks is built.
        """
        n = self._n
        full = self.full
        rank = self._rank
        return (rank[p >> n >> n] << n | rank[p >> n & full]) << n | rank[p & full]

    def __iter__(self) -> Iterator[str]:
        return iter(self._elements)

    def __len__(self) -> int:
        return self._n

    def __contains__(self, name: object) -> bool:
        return name in self.bits

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Universe):
            return NotImplemented
        return self._elements == other._elements

    def __hash__(self) -> int:
        return hash(self._elements)

    def __repr__(self) -> str:
        return f"Universe({' '.join(self._elements)})"


def format_set(elements: Iterable[str]) -> str:
    return "{" + ",".join(sorted(elements)) + "}"


@dataclass(frozen=True)
class _Triple:
    """The body both statement forms share: three frozen element sets."""

    x: frozenset
    z: frozenset
    y: frozenset

    def __post_init__(self):
        object.__setattr__(self, "x", frozenset(self.x))
        object.__setattr__(self, "z", frozenset(self.z))
        object.__setattr__(self, "y", frozenset(self.y))

    def __str__(self) -> str:
        return f"{format_set(self.x)} | {format_set(self.z)} | {format_set(self.y)}"


@dataclass(frozen=True)
class Statement(_Triple):
    """Raw independence triple I(x, z, y); sides may overlap with z."""


@dataclass(frozen=True)
class CanonicalStatement(_Triple):
    """Normalized statement: sides disjoint from z and each other, x <= y."""

    def __post_init__(self):
        super().__post_init__()
        if not self.x or not self.y:
            raise ValueError("canonical statements have non-empty sides")
        if self.x & self.z or self.y & self.z or self.x & self.y:
            raise ValueError("canonical statement sets must be pairwise disjoint")
        # Disjoint sides compare as sorted tuples by their lowest members.
        if min(self.x) > min(self.y):
            raise ValueError("canonical statement sides must be ordered")

    @property
    def elements(self) -> frozenset:
        return self.x | self.z | self.y


def statement_key(s: CanonicalStatement) -> tuple:
    """Total order on statements: each set compared as a sorted tuple."""
    return tuple(sorted(s.x)), tuple(sorted(s.z)), tuple(sorted(s.y))


class TriviallyTrue:
    """Marker for statements that hold by convention (an empty side).

    ``TRIVIALLY_TRUE`` is its one instance; compare with ``is``.
    """

    def __repr__(self) -> str:
        return "TriviallyTrue"


TRIVIALLY_TRUE = TriviallyTrue()


def canonicalize(s: Statement) -> CanonicalStatement | TriviallyTrue:
    """Normalize a raw statement.

    Removes z-elements from both sides, orders the sides, and collapses
    statements with an empty remaining side to ``TRIVIALLY_TRUE``.  Sides
    overlapping outside z are not statements at all and raise
    ``InvalidOverlap``.
    """
    x = s.x - s.z
    y = s.y - s.z
    shared = x & y
    if shared:
        raise InvalidOverlap(
            f"sides share {format_set(shared)} outside the conditioning set"
        )
    if not x or not y:
        return TRIVIALLY_TRUE
    if min(x) > min(y):
        x, y = y, x
    return CanonicalStatement(x, frozenset(s.z), y)


def canonical_triple(
    x: Iterable[str], z: Iterable[str], y: Iterable[str]
) -> CanonicalStatement | TriviallyTrue:
    """Shorthand for canonicalize(Statement(x, z, y))."""
    return canonicalize(Statement(frozenset(x), frozenset(z), frozenset(y)))


def check_size(universe: Universe) -> None:
    """Raise UniverseTooLarge when the universe exceeds ``ENUMERATION_GUARD``."""
    if len(universe) > ENUMERATION_GUARD:
        raise UniverseTooLarge(
            f"universe has {len(universe)} elements, guard is {ENUMERATION_GUARD}"
        )


class _MaskRanks(dict):
    """Each n-bit mask's rank in ascending-index-tuple order, kept once asked."""

    def __init__(self, n: int):
        super().__init__()
        self.n = n

    def __missing__(self, m: int) -> int:
        # After the previous member prev (-1 at the first), member i follows
        # the 2^(n-1-prev) - 2^(n-i) sets holding some c with prev < c < i,
        # and the one set that stops before i.
        r, prev, rest = 0, -1, m
        while rest:
            i = (rest & -rest).bit_length() - 1
            r += (1 << (self.n - 1 - prev)) - (1 << (self.n - i)) + 1
            prev = i
            rest &= rest - 1
        self[m] = r
        return r


def enumerate_canonical(universe: Universe) -> Iterator[CanonicalStatement]:
    """Yield every canonical statement over the universe exactly once.

    Element sets are bitmasks over the sorted universe: x, then y among the
    elements outside x, then z among those outside both.  Sides are
    disjoint, so x sorts first iff it holds the lower of the two lowest
    bits, and each statement is generated once.  Statements come out sorted
    by ``statement_key`` so callers see a stable order.
    """
    check_size(universe)
    full = universe.full
    packed = []
    for x in range(1, full + 1):
        x_low = x & -x
        rest = full & ~x
        y = rest
        while y:
            if x_low < y & -y:
                free = rest & ~y
                z = free
                while True:
                    packed.append(universe.pack(x, z, y))
                    if not z:
                        break
                    z = (z - 1) & free
            y = (y - 1) & rest
    packed.sort(key=universe.key)
    for p in packed:
        yield universe.decode(p)
