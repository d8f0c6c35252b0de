"""The README's python examples run and give the values their comments state.

Each ```python block of README.md runs statement by statement in a fresh
namespace.  An expression statement whose line ends in a comment starting
with ``True`` or ``False`` must evaluate to exactly that value.  The counts
of the search table in "Size limits", and those of its closure table that
do not depend on a random draw, are what their recipes give.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

from mugci import (
    Exhausted,
    UGraph,
    Universe,
    canonical_triple,
    closure,
    initial_mug,
    search,
)

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", text, re.S | re.M)


def run_block(block: str) -> int:
    """Run one block; returns how many commented values it checked."""
    comments = {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(block).readline)
        if tok.type == tokenize.COMMENT
    }
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(block).body:
        stated = re.match(r"(True|False)\b", comments.get(stmt.end_lineno, ""))
        if isinstance(stmt, ast.Expr) and stated:
            code = compile(ast.Expression(stmt.value), "README.md", "eval")
            value = eval(code, namespace)
            assert value is (stated.group(1) == "True"), ast.unparse(stmt)
            checked += 1
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    return checked


def test_readme_python_examples_give_their_commented_values():
    blocks = python_blocks()
    assert len(blocks) >= 3
    checked = [run_block(block) for block in blocks]
    # the quick start, the directed example and the oracle each state values
    assert all(checked), checked


def search_table() -> dict[int, tuple[int, int]]:
    """The "Size limits" search table: k mapped to (states, floods)."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| k | states | floods | `search` |", 1)[1].split("\n\n")[0]
    rows = re.findall(r"^\| (\d+) \| (\d+) \| (\d+) \|", table.replace(",", ""), re.M)
    return {int(k): (int(states), int(floods)) for k, states, floods in rows}


def test_readme_search_table_counts_are_its_recipes():
    # search(m0, I(e0, e1, e_{k+1}), 2, 4) on the premises
    # I(e0..e_{k/2-1}, {}, e_{k/2}..e_{k-1}) and I(e0, e_k, e_{k+1})
    table = search_table()
    assert sorted(table) == [8, 10, 12, 14]
    for k in (8, 10, 12, 14):
        e = [f"e{i}" for i in range(k + 2)]
        premises = [
            canonical_triple(e[: k // 2], (), e[k // 2 : k]),
            canonical_triple([e[0]], [e[k]], [e[k + 1]]),
        ]
        m0 = initial_mug(Universe(e), statements=premises)
        outcome = search(m0, canonical_triple([e[0]], [e[1]], [e[k + 1]]), 2, 4)
        assert isinstance(outcome, Exhausted) and outcome.depth_reached == 2
        assert (outcome.states_explored, outcome.stats["floods"]) == table[k], k


def closure_table() -> dict[str, str]:
    """The "Size limits" closure table: model mapped to its statements cell."""
    text = README.read_text(encoding="utf-8")
    table = text.split("| model | statements |", 1)[1].split("\n\n")[0]
    rows = re.findall(r"^\| ([^|]+?) \| ([^|]+?) \|", table, re.M)
    return dict(rows)


def test_readme_closure_table_counts_are_its_recipes():
    # a path over the elements, and one graph with no edge
    table = closure_table()
    counted = {}
    for n in (7, 8):
        names = [f"e{i}" for i in range(n)]
        u = Universe(names)
        path = UGraph.from_singletons(names, zip(names, names[1:]))
        edgeless = UGraph.from_singletons(names)
        counted[f"{n}-element path"] = len(closure([], u, [path]))
        counted[f"{n} elements, every statement holds"] = len(closure([], u, [edgeless]))
    assert {row: table[row] for row in counted} == {
        row: str(count) for row, count in counted.items()
    }
    assert sorted(counted.values()) == [1141, 4711, 6069, 26335]
