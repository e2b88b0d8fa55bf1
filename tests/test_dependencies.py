"""The package imports nothing beyond the standard library, numpy and scipy."""

import ast
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rseg"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "scipy"}


def _imported_roots(path):
    """Top-level module of every absolute import in the file, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_scipy(path):
    extra = sorted(set(_imported_roots(path)) - ALLOWED)
    assert not extra, f"{path.name} imports {extra}"
