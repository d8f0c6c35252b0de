"""The runtime stays standard-library only.

Every absolute import in ``src/mugci`` must name a standard-library module;
test-only tools (pytest, hypothesis, networkx) never become runtime
dependencies.
"""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mugci"


def absolute_imports(path: Path):
    """(line, module) for each absolute import in a source file."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5
    outside = [
        f"{path.name}:{line}: {module}"
        for path in sources
        for line, module in absolute_imports(path)
        if module.partition(".")[0] not in sys.stdlib_module_names
    ]
    assert outside == []
