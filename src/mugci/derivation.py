"""Turning axiom chains into checked graph-transformation scripts.

A chain step justified by symmetry, decomposition, or weak union needs no
graph work: any graph witnessing the premise already witnesses the
conclusion.  A contraction step is realized graphically by reducing a
witness of the second premise to exactly the premise's elements (node
deletions) and then applying graph combination with the first premise.
Replay therefore yields, for every statement in the closure, a script of
deletions and combinations ending in a model that satisfies it.  A bounded
breadth-first search over the same two move kinds is available when no
chain is supplied.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Iterable, Iterator

from .errors import (
    ModelError,
    PremiseNotSatisfied,
    ReducedGraphLosesSeparation,
)
from .graphoid import AxiomStep, contraction_parts, first_invalid_step
from .model import CanonicalStatement, Universe
from .mug import Combine, Delete, Move, Mug, append_transformed, combination_graph
from .ugraph import UGraph


@dataclass(frozen=True)
class MoveScript:
    """A replayable transformation sequence ending in satisfaction of target."""

    initial: Mug
    moves: tuple[Move, ...]
    target: CanonicalStatement


@dataclass(frozen=True)
class Exhausted:
    """Search gave up within its bounds; carries frontier statistics.

    ``stats`` holds the search's deterministic work counters: states
    explored at each depth (``states_depth_<d>``), successors dropped as
    already visited (``dedup_hits``), by a ``ModelError``
    (``rejected_model_error``) or by the graph cap
    (``rejected_graph_cap``), and separation answers reused or computed
    (``answer_hits``, ``answer_misses``).  It takes no part in equality.
    """

    states_explored: int
    depth_reached: int
    stats: dict = field(default_factory=dict, compare=False)


def witness_graph(s: CanonicalStatement) -> UGraph:
    """Single-element-node graph encoding exactly one statement.

    Cliques over x+z and over y+z, nothing across: z separates x from y,
    and the satisfied set equals the closure of s restricted to its
    elements (no unintended independence sneaks in).
    """
    members = sorted(s.elements)
    left = s.x | s.z
    right = s.y | s.z
    edges = [
        (a, b)
        for a, b in combinations(members, 2)
        if {a, b} <= left or {a, b} <= right
    ]
    return UGraph.from_singletons(members, edges)


def singletonize(g: UGraph) -> UGraph:
    """Rebuild a graph with one node per element, preserving separations."""
    eg = g.expand()
    return UGraph.from_singletons(eg.vertices, (tuple(sorted(e)) for e in eg.edges))


def initial_mug(
    universe: Universe,
    statements: Iterable[CanonicalStatement] = (),
    graphs: Iterable[UGraph] = (),
) -> Mug:
    """Model seeding: declared graphs (singletonized) then statement witnesses."""
    members = [singletonize(g) for g in graphs]
    members += [witness_graph(s) for s in statements]
    return Mug(universe, members)


def replay_chain(m0: Mug, chain: Iterable[AxiomStep]) -> MoveScript:
    """Construct a move script realizing a verified axiom chain.

    Every ``given`` statement must be satisfied by the starting model.  The
    model is singletonized first; multi-element nodes carry no extra
    separation information, so this is loss-free.
    """
    steps = tuple(chain)
    if not steps:
        raise ValueError("empty chain")
    m0 = Mug(m0.universe, [singletonize(g) for g in m0.graphs])
    givens = tuple(st.conclusion for st in steps if st.rule == "given")
    for g in givens:
        if m0.witness(g) is None:
            raise PremiseNotSatisfied(f"initial model does not satisfy {g}")
    bad = first_invalid_step(steps, givens)
    if bad is not None:
        raise ValueError(f"chain does not verify at step {bad}")

    m = m0
    moves: list[Move] = []
    for step in steps:
        if step.rule != "contraction":
            # The premise's witness graph witnesses the conclusion as well.
            if m.witness(step.conclusion) is None:
                raise ReducedGraphLosesSeparation(
                    f"{step.rule} conclusion {step.conclusion} lost its witness"
                )
            continue
        s1 = steps[step.premises[0]].conclusion
        s2 = steps[step.premises[1]].conclusion
        # The chain verified, so the premises pair up as contraction's.
        x, z, y, _w = contraction_parts(s1, s2)
        kept = x | z | y
        gi = m.witness(s2)
        if gi is None:
            raise PremiseNotSatisfied(f"model lost premise {s2}")
        for e in sorted(m.graphs[gi].elements - kept):
            node = m.graphs[gi].nodes_with_element(e)[0]
            move = Delete(gi, node)
            m, gi = append_transformed(m, move)
            moves.append(move)
        if not m.graphs[gi].separates(x, z, y):
            raise ReducedGraphLosesSeparation(
                f"reduction broke {s2} while replaying {step.conclusion}"
            )
        move = Combine(s1, gi)
        m, _ = append_transformed(m, move)
        moves.append(move)
        if m.witness(step.conclusion) is None:
            raise ReducedGraphLosesSeparation(
                f"combination failed to realize {step.conclusion}"
            )
    return MoveScript(m0, tuple(moves), steps[-1].conclusion)


def _subsets(names: list[str]) -> list[tuple[str, ...]]:
    """Every non-empty subset of ``names``, each in the order of ``names``."""
    return [
        tuple(e for i, e in enumerate(names) if mask >> i & 1)
        for mask in range(1, 1 << len(names))
    ]


def _combine_statements(inside: frozenset, reach: frozenset) -> list:
    """Canonical statements a graph over ``inside`` could be combined with.

    One side plus the conditioning set is exactly ``inside``, the other
    side lies in ``reach``; the list is in ``statement_key`` order.
    """
    members = sorted(inside)
    outside = _subsets(sorted(reach))
    keys = []
    for x in _subsets(members):
        z = tuple(e for e in members if e not in x)
        # Disjoint sides: the one holding the lower element comes first.
        keys.extend((x, z, y) if x[0] < y[0] else (y, z, x) for y in outside)
    keys.sort()
    return [CanonicalStatement(frozenset(x), frozenset(z), frozenset(y)) for x, z, y in keys]


class _Member:
    """One graph object as a search holds it, shared by every state holding it.

    ``answers`` is the separation-answer table of the graph's key (shared by
    every member with that key); the member's own successors are built on
    first use, since every state that inherits it would ask for the same.
    """

    __slots__ = ("graph", "gid", "elements", "answers", "deletions", "combinations")

    def __init__(self, graph: UGraph, gid: int, answers: dict):
        self.graph = graph
        self.gid = gid
        self.elements = graph.elements
        self.answers = answers
        self.deletions = None
        self.combinations = {}


def search(
    m0: Mug, target: CanonicalStatement, max_moves: int, max_graphs: int
) -> MoveScript | Exhausted:
    """Breadth-first search for a deletion/combination script reaching target.

    States are deduplicated by their set of graph keys; successor moves are
    ordered by graph index, deletions before combinations (in
    ``statement_key`` order), so the result is the deterministic shortest
    script within the bounds.

    Two tables live for one call: the candidate combination statements of
    each element set and reach, and every graph's separation answers, keyed by graph
    key and statement (each numbered once per call).  A state is the tuple
    of its graphs' members and the set of their key numbers; a successor
    shares its parent's members, so each graph is keyed, and each question
    put to it, once per search.
    """
    if max_moves <= 0 or max_graphs <= 0:
        raise ValueError("search bounds must be positive")
    stats = dict.fromkeys(
        (
            "dedup_hits",
            "rejected_model_error",
            "rejected_graph_cap",
            "answer_hits",
            "answer_misses",
        ),
        0,
    )
    gids: dict[tuple, int] = {}
    answers: list[dict] = []
    questions: dict[CanonicalStatement, tuple] = {}
    candidates: dict[tuple[frozenset, frozenset], list] = {}

    def member(g: UGraph) -> _Member:
        gid = gids.setdefault(g.key(), len(gids))
        if gid == len(answers):
            answers.append({})
        return _Member(g, gid, answers[gid])

    def question(s: CanonicalStatement) -> tuple:
        """(s, its elements, its number in this search)."""
        if s not in questions:
            questions[s] = (s, s.elements, len(questions))
        return questions[s]

    def holds(members, q: tuple) -> bool:
        s, needed, qid = q
        for mem in members:
            if not needed <= mem.elements:
                continue
            answer = mem.answers.get(qid)
            if answer is None:
                stats["answer_misses"] += 1
                answer = mem.answers[qid] = mem.graph.separates(s.x, s.z, s.y)
            else:
                stats["answer_hits"] += 1
            if answer:
                return True
        return False

    def grown(build, *args) -> _Member | None:
        """The member of a transformed graph; None if the move is invalid."""
        try:
            return member(build(*args))
        except ModelError:
            return None

    def deletions(mem: _Member) -> list:
        if mem.deletions is None:
            g = mem.graph
            mem.deletions = [(n, grown(g.delete_node, n)) for n in g.node_ids()]
        return mem.deletions

    def combination(mem: _Member, q: tuple) -> _Member | None:
        s, _, qid = q
        if qid not in mem.combinations:
            # Candidates are offered only once s is known to hold.
            mem.combinations[qid] = grown(combination_graph, mem.graph, s)
        return mem.combinations[qid]

    def successors(members) -> Iterator[tuple[Move, _Member | None]]:
        for gi, mem in enumerate(members):
            for n, child in deletions(mem):
                yield Delete(gi, n), child
            # Only a graph with more elements can witness a candidate, so
            # its other side lies among those graphs' extra elements.
            inside = mem.elements
            covering = [other for other in members if inside < other.elements]
            if not covering:
                continue
            reach = frozenset().union(*(other.elements for other in covering)) - inside
            if (inside, reach) not in candidates:
                candidates[inside, reach] = [
                    question(s) for s in _combine_statements(inside, reach)
                ]
            for q in candidates[inside, reach]:
                if holds(covering, q):
                    yield Combine(q[0], gi), combination(mem, q)

    members0 = tuple(member(g) for g in m0.graphs)
    target_q = question(target)
    if holds(members0, target_q):
        return MoveScript(m0, (), target)
    ids0 = frozenset(mem.gid for mem in members0)
    visited = {ids0}
    queue: deque[tuple[tuple, frozenset, tuple[Move, ...]]] = deque(
        [(members0, ids0, ())]
    )
    explored = 0
    depth_reached = 0
    while queue:
        members, ids, path = queue.popleft()
        explored += 1
        depth = f"states_depth_{len(path)}"
        stats[depth] = stats.get(depth, 0) + 1
        if len(path) >= max_moves:
            continue
        for move, child in successors(members):
            if child is None:
                stats["rejected_model_error"] += 1
                continue
            is_new = child.gid not in ids
            if len(members) + is_new > max_graphs:
                stats["rejected_graph_cap"] += 1
                continue
            ids2 = ids | {child.gid} if is_new else ids
            if ids2 in visited:
                stats["dedup_hits"] += 1
                continue
            visited.add(ids2)
            path2 = path + (move,)
            depth_reached = max(depth_reached, len(path2))
            # The parent's graphs already fail the target; ask the new one.
            if holds((child,), target_q):
                return MoveScript(m0, path2, target)
            queue.append((members + (child,), ids2, path2))
    return Exhausted(
        states_explored=explored, depth_reached=depth_reached, stats=stats
    )


def first_failing_move(script: MoveScript) -> int | None:
    """None if the script replays cleanly and satisfies its target.

    Otherwise the index of the failing move, or ``len(moves)`` when replay
    succeeds but the target is not satisfied at the end.
    """
    m = script.initial
    for i, move in enumerate(script.moves):
        try:
            m, _ = append_transformed(m, move)
        except (ModelError, IndexError, ValueError):
            return i
    if m.witness(script.target) is None:
        return len(script.moves)
    return None


def verify_script(script: MoveScript) -> bool:
    """Replay the script through the model layer and check final satisfaction."""
    return first_failing_move(script) is None


def replay_final(script: MoveScript) -> Mug:
    """The model obtained after applying every move of a valid script."""
    m = script.initial
    for move in script.moves:
        m, _ = append_transformed(m, move)
    return m
