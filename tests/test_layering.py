"""Import layering of the epchain package, read from the source by AST.

Every module imports only modules below it in LAYERS, and only at module
level, so the package has no import cycle to break with a lazy import.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

import epchain

LAYERS = ["errors", "exact", "models", "linalg", "dynamics", "bethe",
          "analysis", "serialize", "cli", "__init__"]

SRC = pathlib.Path(epchain.__file__).parent


def _package_imports(tree: ast.AST):
    """(node, epchain module) for every import of the package in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            base = (".".join(["epchain"] + ([node.module] if node.module else []))
                    if node.level else node.module or "")
            dotted = [f"{base}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            dotted = [alias.name for alias in node.names]
        else:
            continue
        for name in dotted:
            parts = name.split(".")
            if parts[0] == "epchain":
                yield node, parts[1] if len(parts) > 1 else "__init__"


def test_every_module_is_layered():
    assert sorted(p.stem for p in SRC.glob("*.py")) == sorted(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_imports_go_down_the_layers(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    for node, target in _package_imports(tree):
        assert target in LAYERS, (module, node.lineno, target)
        assert LAYERS.index(target) < LAYERS.index(module), (
            f"{module}.py:{node.lineno} imports {target}, which is not below it")


@pytest.mark.parametrize("module", LAYERS)
def test_no_function_local_package_import(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node, target in _package_imports(func):
                pytest.fail(f"{module}.py:{node.lineno} imports {target} "
                            f"inside {func.name}()")


# the one eigen kernel and the one propagation path, with its Pade solve,
# live in linalg.py
KERNEL_CALLS = {f"{mod}.{fn}" for mod in ("np.linalg", "numpy.linalg")
                for fn in ("eig", "eigvals", "solve")} | {"scipy.linalg.expm"}


def _dotted(node: ast.AST) -> str:
    if isinstance(node, ast.Attribute):
        return f"{_dotted(node.value)}.{node.attr}"
    return node.id if isinstance(node, ast.Name) else ""


def _kernel_uses(tree: ast.AST):
    """Line numbers where tree names a dense eigensolver or expm."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _dotted(node) in KERNEL_CALLS:
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and any(
                f"{node.module}.{a.name}" in KERNEL_CALLS for a in node.names):
            yield node.lineno


def test_only_linalg_diagonalizes_or_exponentiates():
    users = {m: list(_kernel_uses(ast.parse((SRC / f"{m}.py").read_text())))
             for m in LAYERS}
    assert {m for m, lines in users.items() if lines} == {"linalg"}, users


# only linalg calls LAPACK, so only linalg reaches into numpy's BLAS library
# (its thread count) through ctypes
def _ctypes_imports(tree: ast.AST):
    """Line numbers where tree imports ctypes or one of its submodules."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "ctypes" for name in names):
            yield node.lineno


def test_only_linalg_imports_ctypes():
    users = {m: list(_ctypes_imports(ast.parse((SRC / f"{m}.py").read_text())))
             for m in LAYERS}
    assert {m for m, lines in users.items() if lines} == {"linalg"}, users


# each model kind's control parameter is chosen in one place
def _v_or_delta_choices(tree: ast.AST):
    """Line numbers of conditional expressions choosing "V" or "Delta"."""
    for node in ast.walk(tree):
        if isinstance(node, ast.IfExp) and all(
                isinstance(b, ast.Constant) for b in (node.body, node.orelse)) \
                and {node.body.value, node.orelse.value} == {"V", "Delta"}:
            yield node.lineno


def test_only_models_chooses_the_control_parameter():
    users = {m: list(_v_or_delta_choices(ast.parse((SRC / f"{m}.py").read_text())))
             for m in LAYERS}
    assert {m for m, lines in users.items() if lines} == {"models"}, users


def _run_python(code: str) -> str:
    """stdout of a fresh interpreter running code with this package on its path."""
    paths = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


# the runtime is numpy and mpmath: the package's root searches are
# exact.bisect and exact.illinois and its propagator is linalg's own Pade
# kernel, so importing the CLI loads no scipy module, nor numpy.f2py, which
# scipy.linalg pulls in
def test_cli_import_does_not_load_scipy():
    out = _run_python(
        "import sys, epchain.cli; print(sorted(m for m in sys.modules "
        "if m.split('.')[0] == 'scipy' or m.startswith('numpy.f2py')))")
    assert out.strip() == "[]", out


# a scipy import inside a function passes the guard above: a propagating run
# and a figure with scipy unimportable catch it
def test_cli_runs_without_scipy(tmp_path):
    evolve = ["evolve", "--model", "ising", "--n", "6", "--delta", "0.75",
              "--gamma", "0.006", "--target", "ghz", "--t-max", "1e4",
              "--out", str(tmp_path / "ghz.csv")]
    reproduce = ["reproduce", "--figure", "1", "--out-dir", str(tmp_path)]
    _run_python("import sys; sys.modules['scipy'] = None\n"
                "from epchain import cli\n"
                f"assert cli.main({evolve!r}) == 0\n"
                f"assert cli.main({reproduce!r}) == 0\n")


# serialize is the one module that knows the output format: no other module
# imports json or names the cell formatter fmt
def _format_uses(tree: ast.AST):
    """Line numbers where tree imports json or names fmt."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(a.name == "json" for a in node.names):
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and (
                node.module == "json" or any(a.name == "fmt" for a in node.names)):
            yield node.lineno
        elif (isinstance(node, ast.Name) and node.id == "fmt") or (
                isinstance(node, ast.Attribute) and node.attr == "fmt"):
            yield node.lineno


def test_only_serialize_knows_the_output_format():
    users = {m: list(_format_uses(ast.parse((SRC / f"{m}.py").read_text())))
             for m in LAYERS}
    assert {m for m, lines in users.items() if lines} == {"serialize"}, users


# dynamics propagates through the symmetry blocks only, and only models knows
# the bases behind them
def _names(tree: ast.AST):
    """(line, name) of every identifier, attribute and imported name in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield node.lineno, alias.name


# no command goes back to a dense 2^N matrix where blocks exist:
# build_hamiltonian is called only by models.block_stack, in its branch for
# the one-block models, and no module but models and bethe (whose W chain is
# build_h_w) names a dense builder; the package root only re-exports them
DENSE_BUILDERS = {"build_hamiltonian", "build_h_eq", "build_h_w",
                  "build_h_chain_full", "build_h_ghz"}


def _calls(tree: ast.AST, name: str):
    """The Call nodes in tree whose function is name or ends in .name."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and _dotted(node.func).split(".")[-1] == name]


def test_only_block_stack_builds_the_whole_hamiltonian():
    callers = {(m, getattr(stmt, "name", stmt.lineno))
               for m in LAYERS
               for stmt in ast.parse((SRC / f"{m}.py").read_text()).body
               if _calls(stmt, "build_hamiltonian")}
    assert callers == {("models", "block_stack")}
    (stack,) = [stmt for stmt in ast.parse((SRC / "models.py").read_text()).body
                if getattr(stmt, "name", "") == "block_stack"]
    one_block = [call for node in ast.walk(stack) if isinstance(node, ast.If)
                 and _calls(node.test, "_momentum_ring")
                 for stmt in node.body for call in _calls(stmt, "build_hamiltonian")]
    assert one_block == _calls(stack, "build_hamiltonian")


def test_only_models_and_bethe_name_a_dense_builder():
    users = {m for m in LAYERS if m != "__init__"
             if any(name in DENSE_BUILDERS for _, name
                    in _names(ast.parse((SRC / f"{m}.py").read_text())))}
    assert users <= {"models", "bethe"}, users


# the ring's symmetry table and the magnon chain's real-basis templates (with
# their coordinate rows) are read through hamiltonian_blocks and
# block_coordinates alone
BASIS_TABLES = {"_ring_real_templates", "_magnon_real_templates"}


def test_only_models_knows_the_momentum_structure():
    users = {m for m in LAYERS
             if any(name in BASIS_TABLES for _, name
                    in _names(ast.parse((SRC / f"{m}.py").read_text())))}
    assert users == {"models"}, users


# ModelSpec.basis is the one rule from a model kind to the space of its
# states: no other module names the basis kinds or the per-space site states
# (the package root only re-exports them)
SPACE_NAMES = {"BasisKind", "site_state", "single_flip_state"}


def test_only_models_chooses_the_space_of_a_state():
    users = {m: [line for line, name in _names(ast.parse((SRC / f"{m}.py").read_text()))
                 if name in SPACE_NAMES]
             for m in LAYERS if m != "__init__"}
    assert {m for m, lines in users.items() if lines} == {"models"}, users


# every public top-level function or class has a caller in the package other
# than its own definition and its re-export from the package root, except the
# paper-facing API: transcriptions of the paper's formulas that the acceptance
# criteria and unit tests compare against, kept public by decision
PAPER_API = {"biorthogonal_overlap", "check_pt_spectrum", "total_sz",
             "reduce_to_magnon_sector", "effective_spectrum", "eta_factors",
             "bethe_scattering_state", "scattering_ep", "all_bethe_energies"}


def test_every_public_name_has_a_package_caller():
    trees = {m: ast.parse((SRC / f"{m}.py").read_text())
             for m in LAYERS if m != "__init__"}
    uncalled = set()
    for tree in trees.values():
        for defn in tree.body:
            if (isinstance(defn, (ast.FunctionDef, ast.ClassDef))
                    and not defn.name.startswith("_")
                    and not any(name == defn.name
                                for other in trees.values()
                                for stmt in other.body if stmt is not defn
                                for _, name in _names(stmt))):
                uncalled.add(defn.name)
    assert uncalled == PAPER_API


# a module's underscore names are its own: no package module reads one of
# another's, by attribute or by import
def _private_reads(tree: ast.AST):
    """(line, module.name) where tree reads an underscore name of a package
    module."""
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level and not node.module:
            modules.update((a.asname or a.name, a.name) for a in node.names)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            yield node.lineno, f"{modules[node.value.id]}.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.level and node.module:
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, f"{node.module}.{alias.name}"


def test_no_module_reads_another_modules_private_names():
    reads = {m: list(_private_reads(ast.parse((SRC / f"{m}.py").read_text())))
             for m in LAYERS}
    assert {m: r for m, r in reads.items() if r} == {}


# exact is the one source of mpmath precision: it hands each thread its own
# context, so no other module sets a precision or makes a context, and no
# module touches the shared context's
PRECISION_NAMES = {"workprec", "workdps", "extraprec", "extradps", "MPContext"}


def _precision_uses(tree: ast.AST):
    """Line numbers where tree names an mpmath precision manager or context
    class, or assigns a prec or dps attribute."""
    for line, name in _names(tree):
        if name in PRECISION_NAMES:
            yield line
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        else:
            continue
        if any(isinstance(t, ast.Attribute) and t.attr in ("prec", "dps")
               for target in targets for t in ast.walk(target)):
            yield node.lineno


def test_only_exact_sets_mpmath_precision():
    users = {m: list(_precision_uses(ast.parse((SRC / f"{m}.py").read_text())))
             for m in LAYERS}
    assert {m for m, lines in users.items() if lines} == {"exact"}, users
