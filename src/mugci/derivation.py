"""Turning axiom chains into checked graph-transformation scripts.

A chain step justified by symmetry, decomposition, or weak union needs no
graph work: any graph witnessing the premise already witnesses the
conclusion.  A contraction step is realized graphically by reducing a
witness of the second premise to exactly the premise's elements (node
deletions) and then applying graph combination with the first premise.
Replay therefore yields, for every statement in the closure, a script of
deletions and combinations ending in a model that satisfies it.  A bounded
breadth-first search over the same two move kinds is available when no
chain is supplied.  This module chooses moves and checks scripts; ``mug``
makes every move, on the packed graphs a ``Mug`` holds.
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
from .graphoid import AxiomStep, contraction, first_invalid_step
from .model import TRIVIALLY_TRUE, CanonicalStatement, Encoding, Statement, Universe
from .mug import (
    Combine,
    Delete,
    Move,
    Mug,
    append_transformed,
    element_mask,
    element_neighbours,
    packed_combination,
    packed_deletion,
    packed_key,
    reach,
)
from .ugraph import UGraph


@dataclass(frozen=True)
class MoveScript:
    """A replayable transformation sequence ending in satisfaction of target.

    ``stats`` holds, for a script ``search`` found, the same work counters
    as ``Exhausted.stats``; ``replay_chain`` leaves it empty.  It takes no
    part in equality.
    """

    initial: Mug
    moves: tuple[Move, ...]
    target: CanonicalStatement
    stats: dict = field(default_factory=dict, compare=False)


@dataclass(frozen=True)
class Exhausted:
    """Search gave up within its bounds; carries frontier statistics.

    ``stats`` holds the search's deterministic work counters: states
    explored at each depth (``states_depth_<d>``), successors dropped as
    already visited (``dedup_hits``) or by the graph cap
    (``rejected_graph_cap``), and separation questions answered from a
    graph key's table or computed (``answer_hits``, ``answer_misses``).
    ``dedup_hits`` leaves out the successors skipped, unbuilt as states,
    as commuted orders of earlier moves (see ``search``).  A hit is a
    question that key was asked before, through another graph or state:
    listing a member again under a new covering graph asks the older
    covering graphs again, and those answers are hits.  The holding
    candidates a state takes over from its parent, or from an earlier
    listing of the same graph under the same covering graphs, are not
    asked again and count as neither.  It takes no part in equality.
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
    return UGraph.from_singletons(
        g.elements,
        ((a, b) for a, nbrs in g.element_adjacency().items() for b in nbrs if a < b),
    )


def initial_mug(
    universe: Universe,
    statements: Iterable[CanonicalStatement | Statement] = (),
    graphs: Iterable[UGraph] = (),
) -> Mug:
    """Model seeding: declared graphs (singletonized) then statement witnesses.

    The statements may be raw: each is checked against the universe and
    canonicalized first, and trivial ones get no witness graph.
    """
    canonical = [universe.canonical(s) for s in statements]
    members = [singletonize(g) for g in graphs]
    members += [witness_graph(s) for s in canonical if s is not TRIVIALLY_TRUE]
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

    enc = m0.universe.encoding
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
        x, z, y, _w = contraction(enc, enc.encode(s1), enc.encode(s2))
        gi = m.witness(s2)
        if gi is None:
            raise PremiseNotSatisfied(f"model lost premise {s2}")
        # Each extra element, in name order, goes at its lowest node id.
        extra = element_mask(m.packed[gi][0]) & ~(x | z | y)
        while extra:
            bit = extra & -extra
            extra ^= bit
            node = next(n for n, mask in m.packed[gi][0] if mask & bit)
            move = Delete(gi, node)
            m, gi = append_transformed(m, move)
            moves.append(move)
        if not m.separates(gi, x, z, y):
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
        self.mask = element_mask(nodes)


def search(
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

    Graphs are packed (``packed_graph``): search starts from the model's
    packed graphs and makes every move on them, so no ``UGraph`` is built;
    ``verify_script`` replays a returned script through ``Mug``.
    Element sets are masks and statements packed ints of the universe's
    encoding; every table is sized by what the graphs hold, never by the
    universe.  Each distinct graph is keyed, and each question put to a
    key answered, once per call.  A queued state carries its parent's
    per-member lists of holding candidates.  Only a member the new graph
    strictly covers can gain some, so only it and the new graph are listed
    again, and each graph is listed once per set of covering graphs' keys.
    A state at the move bound is counted as explored, not queued.  A path
    is (previous path, kind, a, b), with a combination's statement packed;
    moves and statement objects are built only for the returned script.
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
    listings: dict[tuple[int, int], list] = {}
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

    def listing(mem: _Member, members) -> list:
        """A member's holding candidates in a state, once per covering set."""
        # Only a graph with more elements can witness a candidate, so its
        # other side lies among those graphs' extra elements.
        inside = mem.mask
        covering = [o for o in members if o.mask != inside and not inside & ~o.mask]
        key = mem.gid, sum(1 << o.gid for o in covering)
        if key not in listings:
            extra = 0
            for other in covering:
                extra |= other.mask & ~inside
            listings[key] = [c for c in combinable(inside, extra) if holds(covering, c)]
        return listings[key]

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
            for p, _ in lists[gi]:
                if p not in combined:
                    x, z, y = enc.unpack(p)
                    added = y if x | z == mem.mask else x
                    combined[p] = member(packed_combination(mem.nodes, mem.adj, z, added))
                yield Combine, p, gi, combined[p]

    members0 = tuple(member(g) for g in m0.packed)
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
                listing(mem, members)
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
                return MoveScript(m0, _moves(enc, path2), target, stats)
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


def _moves(enc: Encoding, path) -> tuple[Move, ...]:
    """The moves along a ``search`` path, first to last, statements decoded."""
    moves = []
    while path:
        path, kind, a, b = path
        moves.append(Combine(enc.decode(a), b) if kind is Combine else kind(a, b))
    return tuple(reversed(moves))


def replay_final(script: MoveScript) -> Mug:
    """The model obtained after applying every move of a valid script."""
    m = script.initial
    for move in script.moves:
        m, _ = append_transformed(m, move)
    return m


def verify_script(script: MoveScript) -> bool:
    """Replay the script, checking each move's preconditions, then the target."""
    try:
        final = replay_final(script)
    except (ModelError, IndexError, ValueError):
        return False
    return final.witness(script.target) is not None
