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
from functools import partial
from itertools import chain
from typing import Callable, Iterable

from .errors import (
    ModelError,
    PremiseNotSatisfied,
    ReducedGraphLosesSeparation,
)
from .graphoid import AxiomStep, contraction, first_invalid_step
from .model import TRIVIALLY_TRUE, CanonicalStatement, Statement, Universe
from .mug import (
    Combine,
    Delete,
    Move,
    Mug,
    append_transformed,
    packed_singletons,
)
from .ugraph import (
    Floods,
    UGraph,
    element_combination,
    element_deletion,
    element_mask,
    packed_graph,
    reach,
)


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

    ``stats`` holds the search's deterministic work counters, in this
    order: successors dropped as already visited (``dedup_hits``) or by the
    graph cap (``rejected_graph_cap``), states explored at each depth
    (``states_depth_<d>``, from 0 up to the deepest reached; none when an
    initial graph witnesses the target, and the move bound's only when a
    child was made there), the ``reach`` calls made (``floods``: one per
    component of a (listed graph, covering graph) pair when the pair is
    first listed, see ``search``, and one per graph key holding the
    target's elements), and those components counted again at each later
    read of the pair, by a listing or a patch (``flood_hits``).
    ``dedup_hits`` leaves out the successors skipped, unbuilt as states, as
    commuted orders of earlier moves.  It takes no part in equality.
    """

    states_explored: int
    depth_reached: int
    stats: dict = field(default_factory=dict, compare=False)


def packed_witness(x: int, z: int, y: int) -> tuple[tuple, tuple]:
    """The witness graph of I(x, z, y), packed as by ``packed_graph``.

    Two unlinked nodes over x+z and y+z, singletonized: one node per
    element, ids 0, 1, ... in element order, with cliques over x+z and over
    y+z and nothing across.  z separates x from y, and the satisfied set
    equals the closure of the statement restricted to its elements (no
    unintended independence sneaks in).
    """
    return packed_singletons(((0, x | z), (1, y | z)), (0, 0))


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
    mask = universe.mask
    witnesses = [
        packed_witness(mask(s.x), mask(s.z), mask(s.y))
        for s in canonical
        if s is not TRIVIALLY_TRUE
    ]
    declared = [packed_singletons(*packed_graph(universe, g)) for g in graphs]
    return Mug(universe, packed=[*declared, *witnesses])


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

    universe = m0.universe
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
        x, z, y, _w = contraction(universe, universe.encode(s1), universe.encode(s2))
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
    """One distinct graph in a search: its nodes, its element key's
    ``near``, its key number and its element set."""

    __slots__ = ("nodes", "near", "gid", "mask")

    def __init__(self, nodes: tuple, near: tuple, gid: int, mask: int):
        self.nodes, self.near, self.gid, self.mask = nodes, near, gid, mask


class _Combinations(dict):
    """A member's combination successors by packed statement, made on first ask."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[int], tuple]):
        self.make = make

    def __missing__(self, p: int) -> tuple:
        made = self[p] = self.make(p)
        return made


def _components(
    neighbours: dict[int, int], elements: int, inside: int
) -> list[tuple[int, int]]:
    """The components of a graph's element graph without ``inside``.

    ``neighbours`` is the graph's ``element_neighbours`` and ``elements``
    its element mask.  Each component comes with the mask of the elements
    of ``inside`` next to it; one ``reach`` finds each.
    """
    parts = []
    rest = elements & ~inside
    while rest:
        part = bits = reach(neighbours, rest & -rest, inside)
        rest ^= part
        touched = 0
        while bits:
            bit = bits & -bits
            bits ^= bit
            touched |= neighbours[bit]
        parts.append((part, touched & inside))
    return parts


def _candidates(universe: Universe, inside: int, parts: list) -> list[int]:
    """Every packed I(x, inside - x, y) that a graph holding ``inside``
    witnesses with y outside it, its ``_components`` being ``parts``; each
    once.

    A path from x to y that avoids z = inside - x enters y's component
    straight from x, so y may take any elements of the components next to
    no element of x.  So x has some y exactly when it lies within a
    component's free elements, those of ``inside`` it is next to none of.
    x ranges over the non-empty subsets of each free mask that no mask
    listed before holds, and is skipped where such a mask holds it.  A
    mask sorts after every mask holding it, so the largest come first.
    The work is the candidates found.
    """
    pack = universe.pack
    found = []
    done: list[int] = []
    for free in sorted({inside & ~touched for _, touched in parts}, reverse=True):
        for f in done:
            if not free & ~f:
                break
        else:
            x = free
            while x:
                for f in done:
                    if not x & ~f:
                        break
                else:
                    holding = 0
                    for part, touched in parts:
                        if not touched & x:
                            holding |= part
                    z = inside ^ x
                    y = holding
                    while y:
                        found.append(pack(x, z, y))
                        y = (y - 1) & holding
                x = (x - 1) & free
            done.append(free)
    return found


def search(
    m0: Mug, target: CanonicalStatement, max_moves: int, max_graphs: int
) -> MoveScript | Exhausted:
    """Breadth-first search for a deletion/combination script reaching target.

    States are deduplicated by their set of graph keys, a mask of key
    numbers; successor moves are ordered by graph index, deletions before
    combinations (in ``Universe.key`` order, which is ``statement_key``
    order), so the result is the deterministic shortest script within the
    bounds.

    A state's graph set only grows along a path, so a move enabled at a
    state is enabled at every superset, and two moves made in either order
    reach the same state.  Each queued state carries a sleep mask
    (Godefroid's sleep sets): the key numbers of the children its parent's
    earlier moves made, and the parent's own mask.  Adding such a child
    again reaches a state that the first order has already visited, or
    that is over the graph cap, so it is skipped before the dedup lookup.
    (This needs equal keys to mean equal successors: keys are exact, see
    ``element_key``.)

    Search starts from ``m0.singletonized()``, as ``replay_chain`` does,
    which is ``m0`` itself for an ``initial_mug`` model; a returned
    script's ``initial`` is that model.  So every graph, and every graph
    that moves make from one, carries one element per node and is held in
    element form: its nodes and its ``element_key``, read from the model's
    record for an initial graph.  Its moves are mask updates
    (``element_deletion``, ``element_combination``), its key is its form
    as it stands, and its ``Floods`` record is made from that.
    ``verify_script`` replays a returned script through ``Mug``.
    Every table is sized by what the graphs hold, never by the universe.  A
    candidate I(x, z, y) for a graph over ``inside`` has x + z = inside,
    and holds where a graph strictly covering ``inside`` witnesses it.
    Each such pair of ``inside`` and a covering key is listed once per
    search, in key order: the covering graph's other elements split into
    components (``_components``, one flood each), and each side x within
    some component's free elements takes the components next to none of
    its elements (``_candidates``, whose work is the candidates it finds).
    A state takes over its parent's per-member candidate lists, shared and
    never changed.  Only the new graph can strictly cover a member, whose
    list is then merged with their pair's; the new graph takes the one
    non-empty list of its pairs with the members covering it, or their
    sorted union.  Each key is tested against the target once, by one
    flood.  A child at the move bound is counted as explored, and nothing
    more is made for it.  A path is (previous path, kind, graph index, node
    or packed statement); moves are built only for the returned script.
    """
    if max_moves <= 0 or max_graphs <= 0:
        raise ValueError("search bounds must be positive")
    m0 = m0.singletonized()
    universe = m0.universe
    held: dict[tuple, _Member] = {}  # members by (nodes, near)
    gids: dict[tuple, int] = {}
    # By key number: the ``Floods`` of the first member with that key (equal
    # keys have equal element graphs), and whether the key witnesses the
    # target.
    records: list[Floods] = []
    witnessed: list[bool] = []
    # By (a listed graph's elements, a covering key number): how many
    # components the covering graph has outside those elements, and the
    # candidates it gives them, in key order, a list never changed.
    pairs: dict[tuple[int, int], tuple[int, list[int]]] = {}
    # Each member's successors, built on first use since every state holding
    # it would ask for the same.  They live here, not on the members: equal
    # graphs share a member, so links between members could form cycles that
    # keep a finished search's graphs alive until a full collection.
    successors: dict[_Member, tuple[list, _Combinations]] = {}
    floods = reread = dedup = rejected = bounded = 0
    # States explored, by moves made.
    per_depth: list[int] = []

    def member(nodes: tuple, mask: int, near: tuple) -> tuple[_Member, int]:
        """The member and key bit of a graph; a new key is numbered by its
        record and tested against the target."""
        nonlocal floods
        graph = nodes, near
        mem = held.get(graph)
        if mem is None:
            key = mask, near
            gid = gids.setdefault(key, len(gids))
            if gid == len(records):
                record = Floods(nodes, None, key)
                records.append(record)
                floods += not needed & ~mask
                witnessed.append(record.witnesses(gx, gz, gy))
            mem = held[graph] = _Member(nodes, near, gid, mask)
        return mem, 1 << mem.gid

    def deletions(mem: _Member) -> list:
        """The successors deleting each of a member's nodes, in id order."""
        nodes, near, mask = mem.nodes, mem.near, mem.mask
        return [
            (Delete, n, *member(*element_deletion(nodes, mask, near, i)))
            for i, (n, _) in enumerate(nodes)
        ]

    def combination(mem: _Member, p: int) -> tuple:
        """The successor combining a member with packed statement p."""
        x, z, y = universe.unpack(p)
        added = y if x | z == mem.mask else x
        child = member(*element_combination(mem.nodes, mem.mask, mem.near, z, added))
        return Combine, p, *child

    def pair(inside: int, o: _Member) -> list[int]:
        """The candidates a covering member gives ``inside``, listed once."""
        nonlocal floods, reread
        made = pairs.get((inside, o.gid))
        if made is None:
            parts = _components(records[o.gid].neighbours, o.mask, inside)
            found = _candidates(universe, inside, parts)
            if len(found) > 1:
                found.sort(key=universe.key)
            made = pairs[inside, o.gid] = len(parts), found
            floods += made[0]
        else:
            reread += made[0]
        return made[1]

    def union(lists: list[list[int]]) -> list[int]:
        """Key-ordered lists merged; the list itself if only one has any."""
        lists = [listed for listed in lists if listed]
        if len(lists) > 1:
            return sorted(set().union(*lists), key=universe.key)
        return lists[0] if lists else []

    def counted() -> dict:
        """The stats, with the states by depth and the floods."""
        stats = {"dedup_hits": dedup, "rejected_graph_cap": rejected}
        for d, n in enumerate(per_depth):
            stats[f"states_depth_{d}"] = n
        if bounded:
            stats[f"states_depth_{max_moves}"] = bounded
        stats["floods"] = floods
        stats["flood_hits"] = reread
        return stats

    mask = universe.mask
    try:
        gx, gz, gy = mask(target.x), mask(target.z), mask(target.y)
    except KeyError:  # an element outside the universe, so no graph holds it
        return Exhausted(states_explored=0, depth_reached=0, stats=counted())
    needed = gx | gz | gy
    members0 = tuple(
        member(nodes, record.mask, record.near)[0]
        for (nodes, _), record in zip(m0.packed, m0.records)
    )
    if any(witnessed[mem.gid] for mem in members0):
        return MoveScript(m0, (), target, counted())
    ids0 = sum(1 << mem.gid for mem in members0)
    visited = {ids0}
    # Members, their key numbers and sleep mask, moves made, the path and
    # the parent's candidate lists (none at first).
    queue: deque[tuple] = deque([(members0, ids0, 0, 0, None, ())])
    depth_reached = 0
    while queue:
        members, ids, sleep, moved, path, inherited = queue.popleft()
        if moved < len(per_depth):
            per_depth[moved] += 1
        else:
            per_depth.append(1)
        # Only a graph added after those the parent listed can strictly
        # cover one of them: the new graph, or at the root each in turn.
        lists = list(inherited)
        for k in range(len(lists), len(members)):
            new = members[k]
            grown = new.mask
            found = []
            for i, mem in enumerate(members[:k]):
                inside = mem.mask
                if inside & ~grown:
                    if not grown & ~inside:  # mem strictly covers new
                        found.append(pair(grown, mem))
                elif inside != grown:  # new strictly covers mem
                    more = pair(inside, new)
                    if more:
                        lists[i] = union([lists[i], more])
            lists.append(union(found))
        # A move that adds a graph needs room for it; an initial model over
        # the cap has none even for a move that adds nothing.
        room = max_graphs - len(members)
        last = moved + 1 == max_moves
        slept = sleep
        for gi, mem in enumerate(members):
            made = successors.get(mem)
            if made is None:
                made = successors[mem] = (
                    deletions(mem), _Combinations(partial(combination, mem))
                )
            deleted, combined = made
            listed = lists[gi]
            walk = chain(deleted, map(combined.__getitem__, listed)) if listed else deleted
            for kind, a, child, bit in walk:
                if ids & bit:  # it adds no graph, so it reaches this state
                    if room < 0:
                        rejected += 1
                    elif not sleep & bit:
                        dedup += 1
                        slept |= bit
                    continue
                if room <= 0:
                    rejected += 1
                    continue
                if sleep & bit:
                    continue
                ids2 = ids | bit
                if ids2 in visited:
                    dedup += 1
                    slept |= bit
                    continue
                visited.add(ids2)
                # Breadth-first: no state reached earlier is deeper.
                depth_reached = moved + 1
                # The parent's graphs already fail the target.
                if witnessed[child.gid]:
                    moves = _moves(universe, (path, kind, gi, a))
                    return MoveScript(m0, moves, target, counted())
                if last:  # no move is made from it, so it is only counted
                    bounded += 1
                    continue
                path2 = path, kind, gi, a
                queue.append((members + (child,), ids2, slept, moved + 1, path2, lists))
                slept |= bit
    return Exhausted(
        states_explored=sum(per_depth) + bounded,
        depth_reached=depth_reached,
        stats=counted(),
    )


def _moves(universe: Universe, path) -> tuple[Move, ...]:
    """The moves along a ``search`` path, first to last, statements decoded."""
    moves = []
    while path:
        path, kind, gi, a = path
        move = Delete(gi, a) if kind is Delete else Combine(universe.decode(a), gi)
        moves.append(move)
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
    except (ModelError, IndexError, TypeError, ValueError):
        return False
    return final.witness(script.target) is not None
