"""``search`` outcomes and work counters against a record.

Every canonical statement over each statement or graph fixture is searched
for at 3 moves/8 graphs and at 2 moves/5 graphs, and so is one target of
each of 200 seeded random premise models over 4-5 elements, every other
one derivable.  Each search's outcome class, states explored, depth
reached, moves and full ``stats`` (keys in order) must equal the line
recorded in ``search_record.txt``.  A change to what search finds, or to
how much work it counts, fails here.

After a deliberate change to that output, re-record from the repository
root with::

    PYTHONPATH=src python tests/test_search_record.py
"""

import os
import random

from mugci import Delete, Exhausted, Universe, closure, initial_mug, search
from mugci.model import canonicalize, enumerate_canonical, statement_key
from mugci.modelfile import parse_model

HERE = os.path.dirname(__file__)
RECORD = os.path.join(HERE, "search_record.txt")
FIXTURES = ("chaining", "chains", "intersection", "mixing")
BOUNDS = ((3, 8), (2, 5))


def _cases():
    """(name, model, target): the fixtures' statements, then random models."""
    for name in FIXTURES:
        with open(os.path.join(HERE, "fixtures", f"{name}.mug"), encoding="utf-8") as f:
            model = parse_model(f.read())
        m0 = initial_mug(
            model.universe, model.statements.values(), model.graphs.values()
        )
        for s in enumerate_canonical(model.universe):
            yield name, m0, s
    rng = random.Random(34)
    for i in range(200):
        u = Universe("abcde"[: rng.randint(4, 5)])
        pool = sorted(enumerate_canonical(u), key=statement_key)
        premises = [canonicalize(s) for s in rng.sample(pool, rng.randint(2, 3))]
        m0 = initial_mug(u, statements=premises)
        derivable = sorted(
            closure(premises, u).statements - m0.enumerate_satisfied(),
            key=statement_key,
        )
        yield f"random{i}", m0, rng.choice(derivable if i % 2 and derivable else pool)


def _move(move) -> str:
    """A move as the graph it starts from, then the node or statement."""
    if isinstance(move, Delete):
        return f"delete {move.graph} {move.node}"
    return f"combine {move.graph} {move.statement}"


def _lines() -> list[str]:
    """One line per search: case, bounds, outcome, stats, target."""
    lines = []
    for name, m0, target in _cases():
        for moves, graphs in BOUNDS:
            got = search(m0, target, moves, graphs)
            if isinstance(got, Exhausted):
                outcome = f"exhausted {got.states_explored} {got.depth_reached}"
            else:
                outcome = "script " + ",".join(map(_move, got.moves))
            stats = " ".join(f"{k}={v}" for k, v in got.stats.items())
            lines.append(f"{name} {moves}/{graphs} {outcome} {stats} | {target}")
    return lines


def test_search_outcomes_and_counters_match_the_record():
    with open(RECORD, encoding="utf-8") as f:
        recorded = f.read().splitlines()
    got = _lines()
    assert len(got) == 748
    assert got == recorded


if __name__ == "__main__":
    with open(RECORD, "w", encoding="utf-8") as f:
        f.write("\n".join(_lines()) + "\n")
