"""The README's python examples run and give the values their comments state.

Each ```python block of README.md runs statement by statement in a fresh
namespace.  An expression statement whose line ends in a comment starting
with ``True`` or ``False`` must evaluate to exactly that value.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

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
