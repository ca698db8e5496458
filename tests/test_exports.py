"""Export hygiene: every name a pgtr module lists in `__all__` exists,
every op the gradient engine exports runs somewhere in the package, every
private helper is read somewhere in it, and no module imports a name it
never reads."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pgtr
import pgtr.autodiff as ad

MODULES = ["pgtr"] + [f"pgtr.{info.name}" for info in pkgutil.iter_modules(pgtr.__path__)]

# the engine's types and entry points rather than ops
ENGINE_API = {"NumericsError", "Tensor", "backward", "zero_grad"}


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ lists undefined names {missing}"


def engine_names_used(tree: ast.Module) -> set[str]:
    """Names a module takes from `autodiff`: imported from it, or read as an
    attribute of a name the module binds to it."""
    used, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("autodiff", "pgtr.autodiff"):
                used.update(alias.name for alias in node.names)
            elif node.module in (None, "pgtr"):
                aliases.update(alias.asname or alias.name
                               for alias in node.names if alias.name == "autodiff")
        elif isinstance(node, ast.Import):
            aliases.update(alias.asname for alias in node.names
                           if alias.name == "pgtr.autodiff" and alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases):
            used.add(node.attr)
    return used


def test_every_engine_op_has_a_caller():
    """An op in `autodiff.__all__` that no other pgtr module calls is dead
    code in the engine; the tests build their extra ops themselves."""
    package = Path(pgtr.__file__).parent
    used = set()
    for path in package.glob("*.py"):
        used |= engine_names_used(ast.parse(path.read_text()))
    unused = sorted(set(ad.__all__) - ENGINE_API - used)
    assert not unused, f"autodiff exports ops no pgtr module calls: {unused}"


def private_definitions(tree: ast.Module) -> set[str]:
    """Module-level functions and classes whose names start with `_`."""
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")}


def names_read(tree: ast.Module) -> set[str]:
    """Names a module loads, reads as attributes or imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_private_helper_has_a_caller():
    """A module-level `_name` function or class that nothing in the package
    reads was orphaned by a refactor; delete it, not keep it for tests."""
    trees = [ast.parse(path.read_text())
             for path in Path(pgtr.__file__).parent.glob("*.py")]
    defined = set().union(*map(private_definitions, trees))
    unread = sorted(defined - set().union(*map(names_read, trees)))
    assert defined and not unread, f"private helpers no pgtr module reads: {unread}"


ROOT = Path(__file__).resolve().parent.parent
# the benchmark harness is versioned with its own baseline and stays out
SCANNED = sorted(path for folder in ("src/pgtr", "tests", "experiments")
                 for path in (ROOT / folder).glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but never reads, beyond those it lists in
    `__all__`; `from __future__` imports are compiler directives."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((alias.asname or alias.name.split(".")[0], node.lineno)
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update((alias.asname or alias.name, node.lineno) for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            exported = set(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in read | exported]


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = unused_imports(ast.parse(path.read_text()))
    assert not unused, f"{path.name} imports names it never reads: {unused}"
