"""The packed undirected graph and the packed layout each have one home.

``ugraph.py`` holds the packed form, the element graph built from it, the
mask flood, the graph key, the element form's key and moves, and
``Floods``, the one record of what a packed graph derives.  It may import only ``errors`` and ``model`` from the
package, so no import cycle can form through it, and each of those functions
and classes is defined in exactly one module, so no second copy can grow back.
``model.Universe`` is the one element-set type and the only code that knows
the packed statement layout, and ``model.format_set`` the one rule for an
element set's text.  Read with ``ast`` only: nothing is imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mugci"
SHARED = (
    "reach",
    "element_neighbours",
    "packed_key",
    "packed_graph",
    "Floods",
    "element_key",
    "element_deletion",
    "element_combination",
)


def parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def package_imports(tree: ast.Module) -> set[str]:
    """The package modules a source file imports, by module name."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module.partition(".")[0])
            else:  # from . import x
                found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            head, _, rest = (node.module or "").partition(".")
            if head == "mugci":
                found.add(rest.partition(".")[0] or "__init__")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "mugci":
                    found.add(rest.partition(".")[0] or "__init__")
    return found


def test_ugraph_imports_only_errors_and_model():
    assert package_imports(parsed(PACKAGE / "ugraph.py")) <= {"errors", "model"}


def test_each_shared_graph_function_is_defined_once():
    homes = {name: [] for name in SHARED}
    defined = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(parsed(path)):
            if isinstance(node, defined) and node.name in homes:
                homes[node.name].append(path.stem)
    assert homes == {name: ["ugraph"] for name in SHARED}


def test_the_packed_layout_is_defined_once_on_the_universe():
    homes = {name: [] for name in ("pack", "unpack", "mask")}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parsed(path)
        owners = {
            id(node): owner.name
            for owner in ast.walk(tree)
            if isinstance(owner, ast.ClassDef)
            for node in owner.body
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name in homes:
                homes[node.name].append((path.stem, owners.get(id(node))))
    assert homes == {name: [("model", "Universe")] for name in homes}


def builds_set_text(function: ast.FunctionDef) -> bool:
    """Whether a function joins names with "," and writes a "{" itself."""
    joins = braces = False
    for node in ast.walk(function):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            target = node.func.value
            joins |= node.func.attr == "join" and isinstance(target, ast.Constant) and target.value == ","
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            braces |= "{" in node.value
    return joins and braces


def test_format_set_is_the_one_set_text_rule():
    builders = [
        f"{path.stem}.{node.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(parsed(path))
        if isinstance(node, ast.FunctionDef) and builds_set_text(node)
    ]
    assert builders == ["model.format_set"]


def test_prove_floods_the_graph_only_through_ugraph_floods():
    # prove decides what it can by floods before the worklist run; those
    # floods are ugraph.Floods records, so no graphoid function walks a
    # graph or states the witness rule itself.
    tree = parsed(PACKAGE / "graphoid.py")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    front, called, todo = set(), set(), ["prove"]
    while todo:
        name = todo.pop()
        if name in front or name not in functions or name == "_saturate":
            continue
        front.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                called.add(node.func.id)
                todo.append(node.func.id)
    assert "Floods" in called and "Floods" not in functions
    assert not {"reach", "element_neighbours"} & called
    assert any(
        isinstance(node, ast.ImportFrom) and node.module == "ugraph" and node.level == 1
        and "Floods" in {alias.name for alias in node.names}
        for node in tree.body
    )
    # A flood of its own would loop until nothing new is reached.
    loops = [
        name
        for name in sorted(front)
        for node in ast.walk(functions[name])
        if isinstance(node, ast.While)
    ]
    assert loops == []
