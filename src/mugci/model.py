"""Element universes and independence statements in canonical form.

An independence statement I(x, z, y) asserts that the elements of x tell us
nothing further about the elements of y once z has been observed.  Every
module in this package exchanges statements in a single canonical form:
z-elements are removed from both sides (overlap absorption), the two sides
are ordered lexicographically (symmetry absorption), and statements with an
empty side are represented by the ``TRIVIALLY_TRUE`` marker instead of a
statement object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import InvalidOverlap, UnknownElement, UniverseTooLarge

# Largest universe that enumeration and closure accept.  The closure of
# every statement over 7 elements (6069 of them) takes about 2 s through the
# CLI; over 8 elements (26335) it takes about 12 s.
ENUMERATION_GUARD = 7


def _checked_name(name: str) -> str:
    if not isinstance(name, str) or not name.isidentifier():
        raise ValueError(f"element name must be an identifier, got {name!r}")
    return name


class Universe:
    """Finite ordered set of named elements; iteration is lexicographic."""

    __slots__ = ("_elements", "_members")

    def __init__(self, elements: Iterable[str]):
        self._elements = tuple(sorted({_checked_name(e) for e in elements}))
        self._members = frozenset(self._elements)

    @property
    def elements(self) -> tuple[str, ...]:
        return self._elements

    def require(self, names: Iterable[str]) -> None:
        """Raise UnknownElement unless every name belongs to this universe."""
        missing = sorted(set(names) - self._members)
        if missing:
            raise UnknownElement(f"not in universe: {', '.join(missing)}")

    def __iter__(self) -> Iterator[str]:
        return iter(self._elements)

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, name: object) -> bool:
        return name in self._members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Universe):
            return NotImplemented
        return self._elements == other._elements

    def __hash__(self) -> int:
        return hash(self._elements)

    def __repr__(self) -> str:
        return f"Universe({' '.join(self._elements)})"


def set_key(elements: frozenset) -> tuple[str, ...]:
    """Total order on element sets: compare as sorted tuples."""
    return tuple(sorted(elements))


def format_set(elements: Iterable[str]) -> str:
    return "{" + ",".join(sorted(elements)) + "}"


@dataclass(frozen=True)
class Statement:
    """Raw independence triple I(x, z, y); sides may overlap with z."""

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
class CanonicalStatement:
    """Normalized statement: sides disjoint from z and each other, x <= y."""

    x: frozenset
    z: frozenset
    y: frozenset

    def __post_init__(self):
        object.__setattr__(self, "x", frozenset(self.x))
        object.__setattr__(self, "z", frozenset(self.z))
        object.__setattr__(self, "y", frozenset(self.y))
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

    def __str__(self) -> str:
        return f"{format_set(self.x)} | {format_set(self.z)} | {format_set(self.y)}"


def statement_key(s: CanonicalStatement) -> tuple:
    return (set_key(s.x), set_key(s.z), set_key(s.y))


class TriviallyTrue:
    """Marker for statements that hold by convention (an empty side)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

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


def enumerate_canonical(
    universe: Universe, max_elements: int = ENUMERATION_GUARD
) -> Iterator[CanonicalStatement]:
    """Yield every canonical statement over the universe exactly once.

    Element sets are bitmasks over the sorted universe: x, then y among the
    elements outside x, then z among those outside both.  Sides are
    disjoint, so x sorts first iff it holds the lower of the two lowest
    bits, and each statement is generated once.  Statements come out sorted
    by ``statement_key`` so callers see a stable order.
    """
    if len(universe) > max_elements:
        raise UniverseTooLarge(
            f"universe has {len(universe)} elements, guard is {max_elements}"
        )
    elements = universe.elements
    full = (1 << len(elements)) - 1
    names = [
        tuple(e for i, e in enumerate(elements) if mask >> i & 1)
        for mask in range(full + 1)
    ]
    keys = []
    for x in range(1, full + 1):
        x_low = x & -x
        rest = full & ~x
        y = rest
        while y:
            if x_low < y & -y:
                free = rest & ~y
                z = free
                while True:
                    keys.append((names[x], names[z], names[y]))
                    if not z:
                        break
                    z = (z - 1) & free
            y = (y - 1) & rest
    keys.sort()
    for x, z, y in keys:
        yield CanonicalStatement(frozenset(x), frozenset(z), frozenset(y))


def validate_statement(universe: Universe, s: Statement) -> None:
    """Raise UnknownElement if the statement uses names outside the universe."""
    universe.require(s.x | s.z | s.y)
