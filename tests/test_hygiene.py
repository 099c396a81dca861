"""Stale exports and imports: every public name resolves, and no module-level
import of a ptsim module goes unused. Deleting code leaves both behind
unnoticed, since neither makes an import fail; so does an error class whose
last raiser was deleted, or one that only the library itself catches. Also the program's one output
edge: only the CLI imports ``ptsim.io``, and no record serializes itself. And
the import cost: importing ptsim, its CLI or the test corpus, or simulating
past kappa(Psi) = 1e8, does not load ``scipy.linalg``, which only
``matrix_exp`` needs. And every tolerance in the table has a reader. And the
size of the source, which grows only by a recorded decision."""

import ast
import dataclasses
import importlib
import os
import pkgutil
import subprocess
import sys
import tokenize
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import corpus
import ptsim
from ptsim import Dilation, PTSystem, validate_pt_pair
from ptsim.pipeline import SchemeStages, SimulationConfig

SRC = Path(ptsim.__file__).parent
MODULES = sorted(info.name for info in pkgutil.iter_modules(ptsim.__path__))


# the line count of src/ptsim/*.py (as ``wc -l`` counts it) that no change may
# exceed unless it raises this budget on purpose; the aim is at most 2,000
SOURCE_LINE_BUDGET = 2074


def test_source_line_budget():
    lines = sum(path.read_text().count("\n") for path in SRC.glob("*.py"))
    assert lines <= SOURCE_LINE_BUDGET


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


def _error_names(node):
    """X for each errors.X that an expression names, a tuple's items included."""
    for item in node.elts if isinstance(node, ast.Tuple) else [node]:
        if isinstance(item, ast.Attribute) and getattr(item.value, "id", None) == "errors":
            yield item.attr


def test_every_error_class_is_used():
    # each exception in ptsim.errors but the base is raised as
    # errors.<Name>(...) in some other module, and only the CLI catches one:
    # an error the library catches and turns into a result reaches no caller
    classes = {node.name for node in ast.parse((SRC / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)} - {"PTSimError"}
    trees = {mod_name: ast.parse((SRC / f"{mod_name}.py").read_text())
             for mod_name in MODULES if mod_name != "errors"}
    raised = {name for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
              for name in _error_names(node.exc.func)}
    assert sorted(classes - raised) == []
    caught = [(mod_name, name) for mod_name, tree in trees.items() if mod_name != "cli"
              for node in ast.walk(tree)
              if isinstance(node, ast.ExceptHandler) and node.type is not None
              for name in _error_names(node.type)]
    assert caught == []


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


def test_frozen_array_records_compare_by_identity():
    # a generated __eq__ over array fields raises numpy's "truth value of an
    # array is ambiguous" and makes the class unhashable; every frozen
    # dataclass with an np.ndarray field is eq=False, so it compares and
    # hashes by identity
    records = [cls for mod_name in MODULES for cls in vars(importlib.import_module(f"ptsim.{mod_name}")).values()
               if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == f"ptsim.{mod_name}"
               and cls.__dataclass_params__.frozen and any("np.ndarray" in str(f.type) for f in dataclasses.fields(cls))]
    assert {"Dilation", "SchemeStages"} <= {cls.__name__ for cls in records}
    assert [cls.__name__ for cls in records if cls.__dataclass_params__.eq] == []
    a, b = (ptsim.build_dilation(ptsim.gunther_system(0.3)) for _ in range(2))
    assert a == a and a != b and len({a, b}) == 2


def test_one_route_to_each_stage_operator():
    # SchemeStages holds its instrument alone: the dense completions come from
    # pipeline.preparation_completion / extraction_completion, and the stages
    # of a config from scheme_stages
    public = {f.name for f in dataclasses.fields(SchemeStages)} | set(dir(SchemeStages))
    assert {name for name in public if not name.startswith("_")} == {
        "rho", "rho_prime", "ytau_eigh", "kraus_left", "kraus_right", "kraus", "run"}
    assert not hasattr(SimulationConfig, "stages")


@pytest.mark.parametrize("mod_name", MODULES)
def test_thresholds_live_in_the_tolerance_table(mod_name):
    # a float written in e-notation is a threshold; each one is a field of
    # linalg.Tolerances, so the table is the one place to read them all
    path = SRC / f"{mod_name}.py"
    table = [node for node in ast.parse(path.read_text()).body
             if isinstance(node, ast.ClassDef) and node.name == "Tolerances"]
    inside = {line for node in table for line in range(node.lineno, node.end_lineno + 1)}
    with tokenize.open(path) as fh:
        literals = [(tok.start[0], tok.string) for tok in tokenize.generate_tokens(fh.readline)
                    if tok.type == tokenize.NUMBER and "e" in tok.string.lower()]
    assert [lit for lit in literals if lit[0] not in inside] == []
    assert (mod_name == "linalg") == bool(literals)


def test_every_tolerance_is_read():
    # each field of linalg.Tolerances is read as TOL.<field> or
    # DEFAULT_TOL.<field> in some module, so a deleted check leaves no cutoff
    fields = {f.name for f in dataclasses.fields(ptsim.linalg.Tolerances)}
    trees = [ast.parse((SRC / f"{mod_name}.py").read_text()) for mod_name in MODULES]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in ("TOL", "DEFAULT_TOL")}
    assert sorted(fields - read) == []


def test_every_record_field_is_read():
    # each field of Dilation and SchemeStages is read as an attribute in some
    # module, so a factor kept for no reader shows; the records are built by
    # position, so their constructors read none of them
    fields = {f.name for cls in (Dilation, SchemeStages) for f in dataclasses.fields(cls)}
    trees = [ast.parse((SRC / f"{mod_name}.py").read_text()) for mod_name in MODULES]
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert sorted(fields - read) == []


# H = [[1, 1e8], [0, 2]], kappa(Psi) ~ 2e8: e^{-itH} comes from the eigenframe
# at every condition, so the simulation path never needs scipy
SIMULATE_PAST_KAPPA_1E8 = """import numpy as np
from ptsim import PTSystem, SimulationConfig, build_dilation, run_simulation, validate_pt_pair
eye = np.eye(2, dtype=complex)
system = PTSystem(np.array([[1.0, 1e8], [0.0, 2.0]], dtype=complex), validate_pt_pair(eye, eye))
d = build_dilation(system)
assert d.classification.condition_estimate > 1e8
run_simulation(SimulationConfig(sys=system, dilation=d, t=1.3, psi=np.array([0.3, 0.7j])))"""


@pytest.mark.parametrize("code", [pytest.param("import ptsim, ptsim.cli", id="ptsim, ptsim.cli"),
                                  pytest.param("import corpus", id="corpus"),
                                  pytest.param(SIMULATE_PAST_KAPPA_1E8, id="simulate past kappa 1e8")])
def test_import_does_not_load_scipy_linalg(code):
    tests = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), str(tests)]))
    code = f"import sys\n{code}\nassert 'scipy.linalg' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def _random_broken_block_diag(rng, n):
    """corpus.random_broken as it was written with scipy.linalg.block_diag."""
    a = rng.uniform(-1.0, 1.0)
    b = rng.uniform(0.3, 1.5)
    lams = [a + 1j * b, a - 1j * b] + (list(corpus.separated_reals(rng, n - 2)) if n > 2 else [])
    kblocks = [np.array([[0, 1], [1, 0]], dtype=complex)] + [np.array([[1]], dtype=complex)] * (n - 2)
    psi = corpus.well_conditioned_frame(rng, n)
    psi_inv = np.linalg.inv(psi)
    h = psi @ np.diag(lams).astype(complex) @ psi_inv
    ptm = psi @ scipy.linalg.block_diag(*kblocks).astype(complex) @ psi_inv.conj()
    return PTSystem(h, validate_pt_pair(np.eye(n, dtype=complex), ptm))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 20240818])
def test_random_broken_matches_the_block_diag_construction(n, seed):
    got = corpus.random_broken(np.random.default_rng(seed), n)
    expected = _random_broken_block_diag(np.random.default_rng(seed), n)
    for a, b in ((got.H, expected.H), (got.pt.P, expected.pt.P), (got.pt.T, expected.pt.T)):
        assert np.array_equal(a, b)
