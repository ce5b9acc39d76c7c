"""Import layering of the epchain package, read from the source by AST.

Every module imports only modules below it in LAYERS, and only at module
level, so the package has no import cycle to break with a lazy import.
"""

import ast
import pathlib

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
