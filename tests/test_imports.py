"""Import hygiene of the library modules, read from their syntax trees.

Every name a module imports is used in it, and scipy is loaded at module
level only for the CLI manifest's version string: the reduced pipeline
(scales, toda, spectral, geometry, profile) runs on numpy alone, and the
strip solvers import their scipy routines where they call them.
"""

import ast
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
