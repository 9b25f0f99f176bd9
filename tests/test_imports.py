"""Import and definition hygiene of the library modules, read from their syntax trees.

Every name a module imports is used in it, and no module imports scipy at
module level: the reduced pipeline (scales, toda, spectral, geometry,
profile) runs on numpy alone, the strip solvers import their scipy routines
where they call them, and the CLI imports scipy where it writes the
manifest's version string, so importing the CLI leaves scipy unloaded; no
module imports scipy.optimize or scipy.sparse at all. Every function, class and
method the library defines is used by the library or by the benchmark, and
so is every default of its parameters and every field its classes declare
(read outside the class's own __post_init__): helpers, settings and outputs
only the tests need live in the tests.
"""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import aclayers

PACKAGE = Path(aclayers.__file__).parent
MODULES = sorted(PACKAGE.glob("*.py"))
# the code that uses the library: __init__.py only re-exports, and perfbench
# drives the library as a client
READERS = ([p for p in MODULES if p.name != "__init__.py"]
           + [p for p in sorted((PACKAGE.parents[1] / "perfbench").glob("*.py"))
              if not p.name.startswith("test_")])


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


def test_no_module_imports_scipy_at_module_level():
    found = []
    for path in MODULES:
        for node in _module_level_imports(_tree(path)):
            modules = ([node.module or ""] if isinstance(node, ast.ImportFrom)
                       else [alias.name for alias in node.names])
            found += [(path.name, name) for name in modules
                      if name == "scipy" or name.startswith("scipy.")]
    assert found == []


def test_importing_the_cli_leaves_scipy_unloaded():
    code = "import sys, aclayers.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True)
    assert out.stdout.splitlines()[-1] == "False"


FORBIDDEN = ("scipy.optimize", "scipy.sparse")


def test_no_module_imports_scipy_optimize():
    # at module level or inside a function: root finding is a test-side
    # oracle, and the Newton steps run their own GMRES
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
            found += [(path.name, name) for name in names for package in FORBIDDEN
                      if name == package or name.startswith(f"{package}.")]
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


def test_every_definition_is_referenced_outside_the_tests():
    refs = sum((_references(_tree(p)) for p in READERS), Counter())
    unreferenced = [
        f"{path.name}:{node.name}"
        for path in READERS if path.parent == PACKAGE
        for node in _definitions(_tree(path))
        if not (node.name.startswith("__") and node.name.endswith("__"))
        and refs[node.name] <= _references(node)[node.name]]
    assert unreferenced == []


def _attribute_reads(node: ast.AST) -> Counter:
    """Names a subtree reads as `.name`."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))


def test_every_field_is_read_outside_the_tests():
    # a field that only its own class's validation reads is output no caller wants
    reads = sum((_attribute_reads(_tree(p)) for p in READERS), Counter())
    unread = []
    for path in MODULES:
        for cls in ast.walk(_tree(path)):
            if not isinstance(cls, ast.ClassDef):
                continue
            own = sum((_attribute_reads(item) for item in cls.body
                       if isinstance(item, ast.FunctionDef)
                       and item.name == "__post_init__"), Counter())
            unread += [f"{path.name}:{cls.name}.{item.target.id}" for item in cls.body
                       if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                       and reads[item.target.id] <= own[item.target.id]]
    assert unread == []


def _callee(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _dict_literals(tree: ast.Module) -> dict[str, set[str]]:
    """String keys of each module-level dict literal, by the name it is bound to."""
    found = {}
    for node in tree.body:
        if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                and all(isinstance(k, ast.Constant) and isinstance(k.value, str)
                        for k in node.value.keys)):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    found[target.id] = {k.value for k in node.value.keys}
    return found


def _calls(tree: ast.Module):
    """(callee name, positional count, keyword names) of every call, None for all.

    The benchmark's `call(name, fn, *args, **kw)` counts as a call of fn. A
    `**NAME` splat of a module-level dict literal passes that dict's keys;
    any other splat, `*` or `**`, passes every parameter.
    """
    dicts = _dict_literals(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name, args = _callee(node.func), node.args
        if name == "call" and len(args) >= 2 and _callee(args[1]) is not None:
            name, args = _callee(args[1]), args[2:]
        keywords: set[str] | None = set()
        for kw in node.keywords:
            if kw.arg is not None:
                keywords.add(kw.arg)
            elif isinstance(kw.value, ast.Name) and kw.value.id in dicts:
                keywords |= dicts[kw.value.id]
            else:
                keywords = None
                break
        if any(isinstance(arg, ast.Starred) for arg in args):
            keywords = None
        yield name, len(args), keywords


def _defaulted_parameters(tree: ast.Module):
    """(callee name, parameter, positional index or None) of every default.

    Methods are called without their first parameter, and __init__ under its
    class name; keyword-only parameters have no positional index.
    """
    owner = {id(item): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
             for item in cls.body}
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        params = node.args.posonlyargs + node.args.args
        cls = owner.get(id(node))
        static = any(_callee(d) == "staticmethod" for d in node.decorator_list)
        if cls is not None and not static:
            params = params[1:]
        name = cls.name if node.name == "__init__" and cls is not None else node.name
        first = len(params) - len(node.args.defaults)
        for index in range(first, len(params)):
            yield name, params[index].arg, index
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                yield name, arg.arg, None


# the command line is parsed from sys.argv when main is run as a program
_DEFAULT_NOT_PASSED_ALLOWED = {"main.argv"}


def test_every_default_is_passed_outside_the_tests():
    # a default no caller overrides is a constant wearing a parameter's name
    calls = [call for p in READERS for call in _calls(_tree(p))]
    unpassed = [
        f"{name}.{param}"
        for path in MODULES
        for name, param, index in _defaulted_parameters(_tree(path))
        if f"{name}.{param}" not in _DEFAULT_NOT_PASSED_ALLOWED
        and not any(callee == name and (
            keywords is None or param in keywords
            or (index is not None and positional > index))
            for callee, positional, keywords in calls)]
    assert unpassed == []
