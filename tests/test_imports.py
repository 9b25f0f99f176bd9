"""Import and definition hygiene of the library modules, read from their syntax trees.

Every name a module imports is used in it, and scipy is loaded at module
level only for the CLI manifest's version string: the reduced pipeline
(scales, toda, spectral, geometry, profile) runs on numpy alone, and the
strip solvers import their scipy routines where they call them; no module
imports scipy.optimize at all. Every function, class and method the library
defines is used by the library or by the benchmark; helpers only the tests
need live in the tests.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

import aclayers

PACKAGE = Path(aclayers.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _bound_names(node: ast.Import | ast.ImportFrom) -> list[str]:
    if isinstance(node, ast.ImportFrom):
        return [alias.asname or alias.name for alias in node.names]
    return [alias.asname or alias.name.partition(".")[0] for alias in node.names]


def _module_level_imports(tree: ast.Module):
    """Import statements outside any function body."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


# __init__.py imports names to re-export them
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    tree = _tree(path)
    imported = {name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for name in _bound_names(node)}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


def test_scipy_is_imported_at_module_level_only_by_the_cli():
    found = []
    for path in MODULES:
        for node in _module_level_imports(_tree(path)):
            modules = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                       else [alias.name for alias in node.names])
            found += [(path.name, name) for name in modules
                      if name == "scipy" or name.startswith("scipy.")]
    assert found == [("cli.py", "scipy")]


def test_no_module_imports_scipy_optimize():
    # at module level or inside a function: root finding is a test-side oracle
    found = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
                names += [f"{node.module}.{alias.name}" for alias in node.names]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name == "scipy.optimize" or name.startswith("scipy.optimize.")]
    assert found == []


def _definitions(tree: ast.Module):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (item for item in node.body if isinstance(item, ast.FunctionDef))


def _references(node: ast.AST) -> Counter:
    """Names a subtree reads, bare or as an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


# truncation_error moves into the solve reports (ROADMAP item 4)
_UNREFERENCED_ALLOWED = {"truncation_error"}


def test_every_definition_is_referenced_outside_the_tests():
    # __init__.py only re-exports; perfbench drives the library as a client
    readers = [p for p in MODULES if p.name != "__init__.py"]
    readers += [p for p in sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))
                if not p.name.startswith("test_")]
    refs = sum((_references(_tree(p)) for p in readers), Counter())
    unreferenced = [
        f"{path.name}:{node.name}"
        for path in readers if path.parent == PACKAGE
        for node in _definitions(_tree(path))
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in _UNREFERENCED_ALLOWED
        and refs[node.name] <= _references(node)[node.name]]
    assert unreferenced == []
