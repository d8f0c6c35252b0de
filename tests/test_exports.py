"""The package's export list matches what its ``__init__`` imports.

Every name in ``mugci.__all__`` resolves, none is listed twice, and the
list holds exactly the names ``src/mugci/__init__.py`` imports, so deleting
a function cannot leave a stale export and a new import is not left out.
"""

import ast
from pathlib import Path

import mugci

INIT = Path(__file__).resolve().parent.parent / "src" / "mugci" / "__init__.py"


def imported_names() -> list[str]:
    tree = ast.parse(INIT.read_text(encoding="utf-8"), filename=str(INIT))
    return [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]


def test_every_export_resolves_once_and_matches_the_imports():
    exported = mugci.__all__
    assert [name for name in exported if not hasattr(mugci, name)] == []
    assert len(set(exported)) == len(exported)
    assert set(exported) == set(imported_names())
