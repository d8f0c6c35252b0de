"""Fixpoint closure of statement sets under the graphoid axioms.

The four axioms are symmetry, decomposition, weak union, and contraction.
Symmetry is absorbed by the canonical statement form, so the closure only
applies the other three; decomposition and weak union enumerate every
two-way partition of a statement's second side, and contraction pairs a
statement against every compatible split of another's conditioning set.
Contraction partners are found through an index built as statements are
admitted: I(X, Z, Y) is filed under (X, Z) and (X, Z+Y) for either side X,
so each statement meets only the statements it can contract with, not every
known one.  Each derived statement remembers one derivation, replayable as
a chain.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable

from .errors import UniverseTooLarge
from .model import (
    ENUMERATION_GUARD,
    TRIVIALLY_TRUE,
    CanonicalStatement,
    Statement,
    TriviallyTrue,
    Universe,
    canonicalize,
    statement_key,
)

RULES = ("given", "symmetry", "decomposition", "weak_union", "contraction")


@dataclass(frozen=True)
class AxiomStep:
    """One chain entry: a statement plus how it was obtained.

    ``premises`` are indices of earlier steps in the same chain; a ``given``
    step has none.
    """

    rule: str
    premises: tuple[int, ...]
    conclusion: CanonicalStatement


def _subsets(elements: frozenset):
    """Nonempty proper subsets in a fixed order (bitmask over sorted names)."""
    items = sorted(elements)
    for mask in range(1, (1 << len(items)) - 1):
        yield frozenset(e for i, e in enumerate(items) if mask >> i & 1)


def _unary_consequences(s: CanonicalStatement) -> list[tuple[str, CanonicalStatement]]:
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


def _contraction_consequences(
    s1: CanonicalStatement, s2: CanonicalStatement
) -> list[CanonicalStatement]:
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


def axiom_consequences(
    s1: CanonicalStatement, s2: CanonicalStatement | None = None
) -> list[tuple[str, CanonicalStatement]]:
    """Single-application consequences; pass s2 only for contraction."""
    if s2 is None:
        return _unary_consequences(s1)
    return [("contraction", c) for c in _contraction_consequences(s1, s2)]


class Closure:
    """Least fixpoint of an initial statement set under the axioms.

    ``stats`` holds the deterministic work counters of the run that built
    it: ``admitted_<rule>`` for each rule that added statements,
    ``pairs_tried`` and ``pairs_productive`` for contraction applications
    (productive ones admitted at least one new statement), and
    ``peak_queue`` for the longest the worklist grew.
    """

    __slots__ = ("_universe", "_statements", "_parents", "_stats")

    def __init__(self, universe, parents, stats):
        self._universe = universe
        self._statements = frozenset(parents)
        self._parents = parents
        self._stats = stats

    @property
    def universe(self) -> Universe:
        return self._universe

    @property
    def statements(self) -> frozenset:
        return self._statements

    @property
    def stats(self) -> dict[str, int]:
        return dict(self._stats)

    def __contains__(self, s: object) -> bool:
        return s in self._statements

    def __len__(self) -> int:
        return len(self._statements)

    def chain(self, s: CanonicalStatement) -> tuple[AxiomStep, ...]:
        """A verifiable derivation chain ending at s."""
        if s not in self._statements:
            raise KeyError(f"{s} is not in the closure")
        steps: list[AxiomStep] = []
        position: dict[CanonicalStatement, int] = {}

        def emit(t: CanonicalStatement) -> int:
            if t in position:
                return position[t]
            rule, premises = self._parents[t]
            indices = tuple(emit(p) for p in premises)
            position[t] = len(steps)
            steps.append(AxiomStep(rule, indices, t))
            return position[t]

        emit(s)
        return tuple(steps)

    def query(
        self, s: Statement | CanonicalStatement
    ) -> tuple[AxiomStep, ...] | None:
        """Chain proving s, () if trivially true, or None if not derivable."""
        if isinstance(s, CanonicalStatement):
            c: CanonicalStatement | TriviallyTrue = s
        else:
            self._universe.require(s.x | s.z | s.y)
            c = canonicalize(s)
        if c is TRIVIALLY_TRUE:
            return ()
        if c not in self._statements:
            return None
        return self.chain(c)


def closure(
    init: Iterable[CanonicalStatement | Statement],
    universe: Universe,
    max_elements: int = ENUMERATION_GUARD,
) -> Closure:
    """Saturate the initial statements under the axioms.

    The worklist starts from the initial statements in lexicographic order
    and runs FIFO, so the discovered chains are deterministic.
    """
    if len(universe) > max_elements:
        raise UniverseTooLarge(
            f"universe has {len(universe)} elements, guard is {max_elements}"
        )
    start: set[CanonicalStatement] = set()
    for s in init:
        if not isinstance(s, CanonicalStatement):
            universe.require(s.x | s.z | s.y)
            c = canonicalize(s)
            if c is TRIVIALLY_TRUE:
                continue
            s = c
        universe.require(s.elements)
        start.add(s)

    parents: dict[CanonicalStatement, tuple[str, tuple[CanonicalStatement, ...]]] = {}
    keys: dict[CanonicalStatement, tuple] = {}
    queue: deque[CanonicalStatement] = deque()
    # Contraction partners, indexed on admission: (side, z) finds the
    # statements that can play s1 = I(X, Z+Y, W), (side, z + other side)
    # those that can play s2 = I(X, Z, Y).
    by_z: dict[tuple[frozenset, frozenset], list] = defaultdict(list)
    by_zy: dict[tuple[frozenset, frozenset], list] = defaultdict(list)
    stats = dict.fromkeys(
        ("admitted_given", "admitted_decomposition", "admitted_weak_union",
         "admitted_contraction", "pairs_tried", "pairs_productive", "peak_queue"),
        0,
    )

    def admit(c: CanonicalStatement, rule: str, premises: tuple) -> bool:
        if c in parents:
            return False
        parents[c] = (rule, premises)
        keys[c] = statement_key(c)
        for side, other in ((c.x, c.y), (c.y, c.x)):
            by_z[side, c.z].append(c)
            by_zy[side, c.z | other].append(c)
        queue.append(c)
        stats[f"admitted_{rule}"] += 1
        stats["peak_queue"] = max(stats["peak_queue"], len(queue))
        return True

    def contract(s1: CanonicalStatement, s2: CanonicalStatement) -> None:
        stats["pairs_tried"] += 1
        added = False
        for c in _contraction_consequences(s1, s2):
            added |= admit(c, "contraction", (s1, s2))
        stats["pairs_productive"] += added

    for s in sorted(start, key=statement_key):
        admit(s, "given", ())

    while queue:
        s = queue.popleft()
        # Partners are taken from the statements known when s is popped,
        # queued ones included, and tried in statement_key order: the same
        # admissions, in the same order, as trying every known statement.
        as_s1 = set()
        as_s2 = set()
        for side, other in ((s.x, s.y), (s.y, s.x)):
            as_s1.update(by_zy.get((side, s.z), ()))
            as_s2.update(by_z.get((side, s.z | other), ()))
        partners = sorted(as_s1 | as_s2, key=keys.__getitem__)
        for rule, c in _unary_consequences(s):
            admit(c, rule, (s,))
        for t in partners:
            if t in as_s1:
                contract(s, t)
            if t in as_s2:
                contract(t, s)

    return Closure(universe, parents, stats)


def first_invalid_step(
    chain: Iterable[AxiomStep], init: Iterable[CanonicalStatement]
) -> int | None:
    """Index of the first step that does not follow, or None when all do."""
    given = set(init)
    steps = list(chain)
    for i, step in enumerate(steps):
        if any(not 0 <= p < i for p in step.premises):
            return i
        if step.rule == "given":
            if step.premises or step.conclusion not in given:
                return i
        elif step.rule == "symmetry":
            # Canonical form absorbs symmetry: premise and conclusion coincide.
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


def verify_chain(
    chain: Iterable[AxiomStep], init: Iterable[CanonicalStatement]
) -> bool:
    """True iff every step is given or follows from earlier steps by its rule."""
    return first_invalid_step(chain, init) is None
