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
    Floods,
    Move,
    Mug,
    append_transformed,
    element_mask,
    packed_combination,
    packed_deletion,
    packed_graph,
    packed_key,
    packed_singletons,
    unpacked_graph,
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
    (``rejected_graph_cap``), and floods of a graph key's element graph
    computed, or read again for another graph or listing (``floods``,
    ``flood_hits``).  ``dedup_hits`` leaves out the successors skipped,
    unbuilt as states, as commuted orders of earlier moves (see
    ``search``).  It takes no part in equality.
    """

    states_explored: int
    depth_reached: int
    stats: dict = field(default_factory=dict, compare=False)


def witness_graph(s: CanonicalStatement) -> UGraph:
    """Single-element-node graph encoding exactly one statement.

    Cliques over x+z and over y+z, nothing across: z separates x from y,
    and the satisfied set equals the closure of s restricted to its
    elements (no unintended independence sneaks in).  It is
    ``packed_witness`` decoded over the statement's own elements.
    """
    enc = Encoding(sorted(s.elements))
    x, z, y = enc.mask(s.x), enc.mask(s.z), enc.mask(s.y)
    return unpacked_graph(enc, *packed_witness(x, z, y))


def packed_witness(x: int, z: int, y: int) -> tuple[tuple, tuple]:
    """The witness graph of I(x, z, y), packed as by ``packed_graph``.

    One node per element, ids 0, 1, ... in element order, so over a
    universe's encoding it equals the packed ``witness_graph``.
    """
    bits = []
    rest = x | z | y
    while rest:
        bits.append(rest & -rest)
        rest ^= bits[-1]
    left = right = 0  # the two cliques, as masks over node positions
    for j, bit in enumerate(bits):
        if bit & (x | z):
            left |= 1 << j
        if bit & (y | z):
            right |= 1 << j
    adj = tuple(
        ((left if left >> j & 1 else 0) | (right if right >> j & 1 else 0)) & ~(1 << j)
        for j in range(len(bits))
    )
    return tuple(enumerate(bits)), adj


def singletonize(g: UGraph) -> UGraph:
    """Rebuild a graph with one node per element, preserving separations."""
    enc = Encoding(sorted(g.elements))
    return unpacked_graph(enc, *packed_singletons(*packed_graph(enc, g)))


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
    mask = universe.encoding.mask
    witnesses = [
        packed_witness(mask(s.x), mask(s.z), mask(s.y))
        for s in canonical
        if s is not TRIVIALLY_TRUE
    ]
    return Mug(universe, map(singletonize, graphs), witnesses)


def replay_chain(m0: Mug, chain: Iterable[AxiomStep]) -> MoveScript:
    """Construct a move script realizing a verified axiom chain.

    Every ``given`` statement must be satisfied by the starting model.  The
    model is singletonized first; multi-element nodes carry no extra
    separation information, so this is loss-free.
    """
    steps = tuple(chain)
    if not steps:
        raise ValueError("empty chain")
    m0 = m0.singletonized()
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
    """One distinct graph in a search: packed graph, key number, element set."""

    __slots__ = ("nodes", "adj", "gid", "mask")

    def __init__(self, nodes: tuple, adj: tuple, gid: int):
        self.nodes = nodes
        self.adj = adj
        self.gid = gid
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

    Graphs are packed (``packed_graph``), and every move is made on them;
    ``verify_script`` replays a returned script through ``Mug``.  Every
    table is sized by what the graphs hold, never by the universe.  A
    candidate I(x, z, y) for a graph over ``inside`` has x + z = inside,
    and holds where a graph strictly covering ``inside`` holds y and its
    flood from x, blocked by z, misses y: each side x takes one flood per
    covering graph, and each key floods each (start, blocked) pair once.
    A queued state carries its parent's per-member lists of holding
    candidates; only a member the new graph strictly covers can gain some,
    so only it and the new graph are listed again, once per set of
    covering graphs' keys.  Each key is tested against the target once.  A
    state at the move bound is counted as explored, not queued.  A path is
    (previous path, kind, a, b), with a combination's statement packed;
    moves are built only for the returned script.
    """
    if max_moves <= 0 or max_graphs <= 0:
        raise ValueError("search bounds must be positive")
    stats = dict.fromkeys(("dedup_hits", "rejected_graph_cap"), 0)
    enc = m0.universe.encoding
    held: dict[tuple, _Member] = {}
    gids: dict[tuple, int] = {}
    try:
        gx, gz, gy = enc.mask(target.x), enc.mask(target.z), enc.mask(target.y)
        needed = gx | gz | gy
    except KeyError:  # an element outside the universe, so no graph holds it
        gx = gz = gy = needed = -1
    # By key number: floods, and whether the key witnesses the target.
    # ``asked`` counts flood lookups, hits and misses alike.
    floods: list[Floods] = []
    witnessed: list[bool] = []
    asked = 0
    listings: dict[tuple[int, int], list] = {}
    # Each member's successors with their key bits, built on first use since
    # every state holding it would ask for the same.  They live here, not on
    # the members: equal graphs share a member, so links between members
    # could form cycles that keep a finished search's graphs alive until a
    # full collection.
    deletions: dict[_Member, list] = {}
    combinations: dict[_Member, dict] = {}

    def member(graph: tuple[tuple, tuple]) -> tuple[_Member, int]:
        """The graph's member and key bit."""
        nonlocal asked
        mem = held.get(graph)
        if mem is None:
            gid = gids.setdefault(packed_key(*graph), len(gids))
            mem = held[graph] = _Member(*graph, gid)
            if gid == len(floods):
                floods.append(Floods(*graph))
                covers = not needed & ~mem.mask
                asked += covers
                witnessed.append(covers and not floods[gid][gx, gz] & gy)
        return mem, 1 << mem.gid

    def listing(mem: _Member, members) -> list:
        """A member's holding candidates in a state, once per covering set."""
        nonlocal asked
        inside = mem.mask
        covering = [o for o in members if o.mask != inside and not inside & ~o.mask]
        key = mem.gid, sum(1 << o.gid for o in covering)
        listed = listings.get(key)
        if listed is None:
            found = set()
            for o in covering:
                reached = floods[o.gid]
                free = o.mask & ~inside
                x = inside
                while x:
                    z = inside ^ x
                    y = holding = free & ~reached[x, z]
                    while y:
                        found.add(enc.pack(x, z, y))
                        y = (y - 1) & holding
                    x = (x - 1) & inside
            asked += len(covering) * ((1 << inside.bit_count()) - 1)
            listed = listings[key] = sorted(found, key=enc.key)
        return listed

    def counted() -> dict:
        """The stats, with the floods computed and those read again."""
        stats["floods"] = sum(map(len, floods))
        stats["flood_hits"] = asked - stats["floods"]
        return stats

    def successors(members, lists) -> Iterator[tuple]:
        """(move kind, its two arguments, child member, key bit) in move order."""
        for gi, mem in enumerate(members):
            if mem not in deletions:
                deletions[mem] = [
                    (n, *member(packed_deletion(mem.nodes, mem.adj, i)))
                    for i, (n, _) in enumerate(mem.nodes)
                ]
            for n, child, bit in deletions[mem]:
                yield Delete, gi, n, child, bit
            combined = combinations.setdefault(mem, {})
            for p in lists[gi]:
                if p not in combined:
                    x, z, y = enc.unpack(p)
                    added = y if x | z == mem.mask else x
                    combined[p] = member(packed_combination(mem.nodes, mem.adj, z, added))
                yield Combine, p, gi, *combined[p]

    members0 = tuple(member(g)[0] for g in m0.packed)
    if any(witnessed[mem.gid] for mem in members0):
        return MoveScript(m0, (), target, counted())
    ids0 = sum(1 << mem.gid for mem in members0)
    visited = {ids0}
    # Members, their key numbers and sleep mask, moves made, the path and
    # the parent's listings (none at first).
    queue: deque[tuple] = deque([(members0, ids0, 0, 0, None, ())])
    explored = 0
    depth_reached = 0
    while queue:
        members, ids, sleep, moved, path, inherited = queue.popleft()
        explored += 1
        depth = f"states_depth_{moved}"
        stats[depth] = stats.get(depth, 0) + 1
        grown = members[-1].mask if inherited else 0
        lists = [
            listing(mem, members)
            if mem.mask != grown and not mem.mask & ~grown
            else listed
            for mem, listed in zip(members, inherited)
        ]
        lists += [listing(mem, members) for mem in members[len(lists) :]]
        # A move that adds a graph needs room for it; an initial model over
        # the cap has none even for a move that adds nothing.
        room = max_graphs - len(members)
        slept = sleep
        for kind, a, b, child, bit in successors(members, lists):
            is_new = not ids & bit
            if is_new > room:
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
            # Breadth-first: no state reached earlier is deeper.
            depth_reached = moved + 1
            # The parent's graphs already fail the target.
            if witnessed[child.gid]:
                return MoveScript(m0, _moves(enc, path2), target, counted())
            if moved + 1 < max_moves:
                queue.append((members + (child,), ids2, slept, moved + 1, path2, lists))
            else:
                explored += 1
                depth = f"states_depth_{max_moves}"
                stats[depth] = stats.get(depth, 0) + 1
            slept |= bit
    return Exhausted(
        states_explored=explored, depth_reached=depth_reached, stats=counted()
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
