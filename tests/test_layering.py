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

LAYERS = ["errors", "models", "linalg", "dynamics", "bethe", "analysis",
          "serialize", "cli", "__init__"]

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


# the one eigen kernel and the one propagation path live in linalg.py
KERNEL_CALLS = {f"{mod}.{fn}" for mod in ("np.linalg", "numpy.linalg")
                for fn in ("eig", "eigvals")} | {"scipy.linalg.expm"}


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


# the package's root searches are bethe._bisect, so no module needs
# scipy.optimize, whose import costs about 0.3 s of every process start
def test_cli_import_does_not_load_scipy_optimize():
    code = ("import sys, epchain.cli; print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.optimize')))")
    paths = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]", out


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
