"""The package's import layering, read from the source with ``ast``: a
module imports the package's other modules at its top only, and those
imports form no cycle."""

import ast
import graphlib
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "anisostokes"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def _targets(node):
    """The package modules an import statement loads ('__init__' for the package itself)."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        if node.module != "anisostokes":
            names = [node.module]
        else:
            names = [
                f"anisostokes.{alias.name}" if alias.name in MODULES else "anisostokes"
                for alias in node.names
            ]
    else:
        return set()
    parts = [name.split(".") for name in names]
    return {p[1] if len(p) > 1 else "__init__" for p in parts if p[0] == "anisostokes"}


def _split(tree):
    """(module-level imports, imports inside a function body) of one module."""
    top, lazy = [], []

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                (lazy if in_function else top).append(child)
            inner = in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, inner)

    visit(tree, False)
    return top, lazy


def test_no_function_imports_a_package_module():
    lazy = {
        f"{name}:{node.lineno}": sorted(_targets(node))
        for name, tree in MODULES.items()
        for node in _split(tree)[1]
        if _targets(node)
    }
    assert lazy == {}


def _cycle(graph):
    """One import cycle of ``graph`` (module -> modules it imports), or None."""
    try:
        tuple(graphlib.TopologicalSorter(graph).static_order())
    except graphlib.CycleError as exc:
        return exc.args[1]
    return None


def test_the_module_import_graph_is_acyclic():
    graph = {
        name: set().union(*(_targets(node) for node in _split(tree)[0])) - {name}
        for name, tree in MODULES.items()
    }
    assert _cycle(graph) is None


def test_the_checks_see_the_package_a_lazy_import_and_a_cycle():
    assert {"__init__", "fields", "viscosity", "stokes", "marching", "cli"} <= set(MODULES)
    lazy = ast.parse("def f():\n    from anisostokes import stokes\n")
    assert [_targets(node) for node in _split(lazy)[1]] == [{"stokes"}]
    top = ast.parse("import anisostokes.fields\nfrom anisostokes import GridSpec\nimport numpy\n")
    assert set().union(*(_targets(node) for node in _split(top)[0])) == {"fields", "__init__"}
    assert set(_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}})) == {"a", "b", "c"}
    assert _cycle({"a": {"b", "c"}, "b": {"c"}, "c": set()}) is None
