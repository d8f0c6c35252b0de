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

Statements are packed into ints by ``model.Encoding`` on the way in and
stay packed inside: the closure runs and keeps its derivation over the
universe's encoding, and a chain check packs over the sorted union of the
elements its steps use.  A model's graphs come in as graphs: the closure
packs each one and lists its separations packed (``mug.separations``), so no
statement object is made for them.  Statement objects appear only at the
boundary, when a caller asks ``Closure`` for its statements or a chain.

One graph's separations are already closed under the axioms (graph
separation is a graphoid, Pearl & Paz 1987), and all of them are seeds.  So
the closure never applies a rule within one graph: a seed a graph witnesses
gets no decomposition or weak union, and two statements one graph witnesses
are never contracted.  That work could only re-derive admitted statements,
so skipping it changes no admission, order or chain.  ``prove`` answers one
query with the same run, stopped once its target is admitted.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Iterator

from .model import (
    ENUMERATION_GUARD,
    TRIVIALLY_TRUE,
    CanonicalStatement,
    Encoding,
    Statement,
    Universe,
    check_size,
)
from .mug import packed_graph, separations
from .ugraph import UGraph


@dataclass(frozen=True)
class AxiomStep:
    """One chain entry: a statement plus how it was obtained.

    ``premises`` are indices of earlier steps in the same chain; a ``given``
    step has none.
    """

    rule: str
    premises: tuple[int, ...]
    conclusion: CanonicalStatement


def _unary(enc: Encoding, p: int) -> list[tuple[str, int]]:
    """Decomposition and weak union of a packed statement.

    For each side kept whole, every non-empty proper part of the other side
    in ascending mask order (the order of the sorted names' subsets) gives
    I(kept, z, part) and I(kept, z + part, rest).  No two of these coincide.
    """
    x, z, y = enc.unpack(p)
    pack = enc.pack
    out = []
    for kept, split in ((x, y), (y, x)):
        part = (-split) & split
        while part != split:
            out.append(("decomposition", pack(kept, z, part)))
            out.append(("weak_union", pack(kept, z | part, split ^ part)))
            part = (part - split) & split
    return out


def _unary_follows(enc: Encoding, rule: str, p: int, c: int) -> bool:
    """Whether ``(rule, c)`` is among ``_unary(enc, p)``, by masks alone.

    The part a rule takes from the split side is read off c: its side
    other than the kept one for decomposition, what its z adds to p's for
    weak union.  Then c follows iff that part is a non-empty proper part of
    the split side and packing the rule's conclusion from it gives c.
    """
    x, z, y = enc.unpack(p)
    cx, cz, cy = enc.unpack(c)
    for kept, split in ((x, y), (y, x)):
        if rule == "decomposition":
            part = (cx | cy) & ~kept
            made = enc.pack(kept, z, part)
        else:
            part = cz & ~z
            made = enc.pack(kept, z | part, split ^ part)
        if part and part != split and not part & ~split and made == c:
            return True
    return False


def contraction(enc: Encoding, p1: int, p2: int) -> tuple[int, int, int, int] | None:
    """Masks (x, z, y, w) with p1 = I(x, z+y, w) and p2 = I(x, z, y), or None.

    Sides are disjoint from each other and from z, so at most one pairing
    of the sides matches; the conclusion is ``enc.pack(x, z, y | w)``.
    """
    x1, z1, y1 = enc.unpack(p1)
    x2, z2, y2 = enc.unpack(p2)
    for a, w in ((x1, y1), (y1, x1)):
        for b, y in ((x2, y2), (y2, x2)):
            if a == b and z1 == z2 | y:
                return a, z2, y, w
    return None


class Closure:
    """Least fixpoint of an initial statement set under the axioms.

    ``parents`` maps each statement, packed by the universe's encoding, to
    its ``(rule, packed premises)``; statement objects are made only when a
    caller asks for them.  ``stats`` holds the deterministic work counters
    of the run that built it: ``admitted_<rule>`` for each rule that added
    statements; ``pairs_tried`` for the contraction partners tried and
    ``pairs_productive`` for those that admitted a new statement;
    ``pairs_shared_graph`` for the partners skipped untried because a graph
    witnesses both statements, so the conclusion is that graph's separation
    and already admitted; and ``peak_queue`` for the longest the worklist
    grew.
    """

    __slots__ = ("_universe", "_statements", "_parents", "_stats")

    def __init__(self, universe: Universe, parents: dict, stats: dict):
        self._universe = universe
        self._statements: frozenset | None = None
        self._parents = parents
        self._stats = stats

    @property
    def universe(self) -> Universe:
        return self._universe

    @property
    def statements(self) -> frozenset:
        """Every closure statement, decoded on first use."""
        if self._statements is None:
            self._statements = frozenset(self)
        return self._statements

    @property
    def stats(self) -> dict[str, int]:
        return dict(self._stats)

    def _packed(self, s: object) -> int | None:
        """s packed, or None unless it is a canonical closure statement."""
        if not isinstance(s, CanonicalStatement):
            return None
        try:
            p = self._universe.encoding.encode(s)
        except KeyError:
            return None
        return p if p in self._parents else None

    def __contains__(self, s: object) -> bool:
        return self._packed(s) is not None

    def __len__(self) -> int:
        return len(self._parents)

    def __iter__(self) -> Iterator[CanonicalStatement]:
        """The statements in ``statement_key`` order, each decoded as it comes."""
        enc = self._universe.encoding
        return map(enc.decode, sorted(self._parents, key=enc.key))

    def chain(self, s: CanonicalStatement) -> tuple[AxiomStep, ...]:
        """A verifiable derivation chain ending at s."""
        p = self._packed(s)
        if p is None:
            raise KeyError(f"{s} is not in the closure")
        decode = self._universe.encoding.decode
        steps: list[AxiomStep] = []
        position: dict[int, int] = {}

        def emit(t: int) -> int:
            if t in position:
                return position[t]
            rule, premises = self._parents[t]
            indices = tuple(emit(q) for q in premises)
            position[t] = len(steps)
            steps.append(AxiomStep(rule, indices, decode(t)))
            return position[t]

        emit(p)
        return tuple(steps)

    def query(
        self, s: Statement | CanonicalStatement
    ) -> tuple[AxiomStep, ...] | None:
        """Chain proving s, () if trivially true, or None if not derivable."""
        if not isinstance(s, CanonicalStatement):
            s = self._universe.canonical(s)
            if s is TRIVIALLY_TRUE:
                return ()
        return self.chain(s) if s in self else None


def closure(
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
    seeds = _intake(init, universe, graphs)
    return Closure(universe, *_saturate(universe.encoding, seeds))


def prove(
    init: Iterable[CanonicalStatement | Statement],
    universe: Universe,
    graphs: Iterable[UGraph],
    target: Statement | CanonicalStatement,
) -> tuple[AxiomStep, ...] | None:
    """``closure(init, universe, graphs).query(target)``, stopping at target.

    The checks run as ``closure`` runs them, then the target's.  The
    saturation stops once target is admitted: a statement's ancestors are
    admitted before it and never re-parented, so its chain is the one the
    full closure gives.  A target that is not derivable saturates fully.
    """
    seeds = _intake(init, universe, graphs)
    if not isinstance(target, CanonicalStatement):
        target = universe.canonical(target)
        if target is TRIVIALLY_TRUE:
            return ()
    enc = universe.encoding
    try:
        stop = enc.encode(target)
    except KeyError:  # an element outside the universe, so never derived
        return None
    return Closure(universe, *_saturate(enc, seeds, stop)).query(target)


def _intake(
    init: Iterable[CanonicalStatement | Statement],
    universe: Universe,
    graphs: Iterable[UGraph],
) -> dict[int, int]:
    """The packed seeds, each mapped to a bitmask of the graphs witnessing it.

    Bit i stands for the i-th graph; a statement only given has 0.
    """
    statements = [universe.canonical(s) for s in init]
    check_size(universe, ENUMERATION_GUARD)
    enc = universe.encoding
    seeds = dict.fromkeys(
        (enc.encode(s) for s in statements if s is not TRIVIALLY_TRUE), 0
    )
    for i, g in enumerate(graphs):
        universe.require(g.elements)
        bit = 1 << i
        for p in separations(enc, *packed_graph(enc, g)):
            seeds[p] = seeds.get(p, 0) | bit
    return seeds


def _saturate(
    enc: Encoding, seeds: dict[int, int], stop: int | None = None
) -> tuple[dict, dict[str, int]]:
    """The worklist run behind ``closure`` and ``prove``: ``(parents, stats)``.

    It ends when the worklist empties or once ``stop`` is admitted.  A
    statement carries its graph bits from ``seeds`` (0 once derived), and
    the work those bits show to lie within one graph is skipped (see the
    module docstring).
    """
    unpack, key = enc.unpack, enc.key
    parents: dict[int, tuple[str, tuple[int, ...]]] = {}
    queue: deque[tuple[int, int]] = deque()
    # Contraction partners, indexed on admission: (side, z) finds the
    # statements that can play s1 = I(X, Z+Y, W), (side, z + other side)
    # those that can play s2 = I(X, Z, Y).  Entries carry the statement's
    # sort key, the parts the conclusion is made of and its graph bits.
    by_z: dict[tuple[int, int], list] = defaultdict(list)
    by_zy: dict[tuple[int, int], list] = defaultdict(list)
    admitted = dict.fromkeys(("given", "decomposition", "weak_union", "contraction"), 0)
    peak_queue = 0

    def admit(c: int, rule: str, premises: tuple, bits: int = 0) -> None:
        nonlocal peak_queue
        parents[c] = (rule, premises)
        k = key(c)
        x, z, y = unpack(c)
        by_z[x, z].append((k, c, y, bits))
        by_z[y, z].append((k, c, x, bits))
        by_zy[x, z | y].append((k, c, z, y, bits))
        by_zy[y, z | x].append((k, c, z, x, bits))
        queue.append((c, bits))
        admitted[rule] += 1
        peak_queue = max(peak_queue, len(queue))

    for p in sorted(seeds, key=key):
        admit(p, "given", (), seeds[p])

    pairs_tried = pairs_listed = pairs_productive = 0
    while queue and stop not in parents:
        s, bits = queue.popleft()
        x, z, y = unpack(s)
        # Partners are taken from the statements known when s is popped,
        # queued ones included, and tried in statement_key order: the same
        # admissions, in the same order, as trying every known statement.
        # Each partner meets s in exactly one contraction.
        found = []
        for side, other in ((x, y), (y, x)):
            s1s = by_zy.get((side, z), ())
            s2s = by_z.get((side, z | other), ())
            pairs_listed += len(s1s) + len(s2s)
            for k, t, tz, ty, tbits in s1s:
                if not tbits & bits:
                    found.append((k, enc.pack(side, tz, ty | other), (s, t)))
            for k, t, tw, tbits in s2s:
                if not tbits & bits:
                    found.append((k, enc.pack(side, z, other | tw), (t, s)))
        found.sort()
        if not bits:
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
        pairs_tried=pairs_tried,
        pairs_shared_graph=pairs_listed - pairs_tried,
        pairs_productive=pairs_productive,
        peak_queue=peak_queue,
    )
    return parents, stats


def first_invalid_step(
    chain: Iterable[AxiomStep], init: Iterable[CanonicalStatement]
) -> int | None:
    """Index of the first step that does not follow, or None when all do.

    Every conclusion is packed once, over the sorted union of the elements
    the chain uses, and the rules run on the packed statements; a
    decomposition or weak-union step is one mask test, not a listing of
    its premise's consequences.
    """
    given = set(init)
    steps = list(chain)
    elements = frozenset().union(*(step.conclusion.elements for step in steps))
    enc = Encoding(sorted(elements))
    packed = [enc.encode(step.conclusion) for step in steps]
    for i, step in enumerate(steps):
        premises = [packed[q] for q in step.premises if 0 <= q < i]
        if len(premises) != len(step.premises):
            return i
        if step.rule == "given":
            if premises or step.conclusion not in given:
                return i
        elif step.rule == "symmetry":
            # Canonical form absorbs symmetry: premise and conclusion coincide.
            if premises != [packed[i]]:
                return i
        elif step.rule in ("decomposition", "weak_union"):
            if len(premises) != 1:
                return i
            if not _unary_follows(enc, step.rule, premises[0], packed[i]):
                return i
        elif step.rule == "contraction":
            parts = contraction(enc, *premises) if len(premises) == 2 else None
            if parts is None:
                return i
            x, z, y, w = parts
            if enc.pack(x, z, y | w) != packed[i]:
                return i
        else:
            return i
    return None


def verify_chain(
    chain: Iterable[AxiomStep], init: Iterable[CanonicalStatement]
) -> bool:
    """True iff every step is given or follows from earlier steps by its rule."""
    return first_invalid_step(chain, init) is None
