"""Stale exports and imports: every public name resolves, and no module-level
import of a ptsim module goes unused. Deleting code leaves both behind
unnoticed, since neither makes an import fail. Also the program's one output
edge: only the CLI imports ``ptsim.io``, and no record serializes itself."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ptsim

SRC = Path(ptsim.__file__).parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(ptsim.__path__))


def _package_imports():
    """(module, name) for every name that ptsim/__init__ imports from a submodule."""
    tree = ast.parse((SRC / "__init__.py").read_text())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names]


@pytest.mark.parametrize("mod_name", MODULES)
def test_all_names_resolve(mod_name):
    module = importlib.import_module(f"ptsim.{mod_name}")
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert missing == []


def test_package_exports_are_public():
    # each name the package re-exports resolves and is in its module's __all__
    for mod_name, name in _package_imports():
        module = importlib.import_module(f"ptsim.{mod_name}")
        assert hasattr(ptsim, name), name
        assert name in getattr(module, "__all__", []), (mod_name, name)


@pytest.mark.parametrize("mod_name", MODULES)  # every module but __init__
def test_no_unused_module_level_import(mod_name):
    tree = ast.parse((SRC / f"{mod_name}.py").read_text())
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound |= {alias.asname or alias.name for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    assert sorted(bound - used - exported) == []


def _imported_names(tree):
    """The absolute dotted name of every module or name an import statement
    anywhere in tree binds, function-local imports included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["ptsim", node.module])) if node.level else node.module
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)


@pytest.mark.parametrize("mod_name", MODULES)
def test_only_cli_imports_io(mod_name):
    # the CLI chooses the fields of each record and passes them to io.dumps
    tree = ast.parse((SRC / f"{mod_name}.py").read_text())
    assert mod_name == "cli" or "ptsim.io" not in set(_imported_names(tree))


@pytest.mark.parametrize("mod_name", MODULES)
def test_no_to_obj_method(mod_name):
    tree = ast.parse((SRC / f"{mod_name}.py").read_text())
    assert [node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name == "to_obj"] == []
