"""The runtime stays standard-library only, and runs on every Python it claims.

Every absolute import in ``src/mugci`` must name a standard-library module;
test-only tools (pytest, hypothesis, networkx) never become runtime
dependencies.  Every module must parse as the oldest Python that
``pyproject.toml`` admits.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mugci"
OLDEST_PYTHON = (3, 10)


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


def test_package_parses_as_the_oldest_supported_python():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert 'requires-python = ">=%d.%d"' % OLDEST_PYTHON in pyproject
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(
            path.read_text(encoding="utf-8"),
            filename=str(path),
            feature_version=OLDEST_PYTHON,
        )
