"""Demos: every name they import from bfpksort exists.

The demos run outside the test suite, so a renamed or deleted library name
would otherwise break them unnoticed.  The scripts are parsed, not run.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _bfpksort_imports(path: Path):
    """(module, name) for every ``from bfpksort[.x] import name`` and
    (module, None) for every ``import bfpksort[.x]`` in the script."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module.split(".")[0] == "bfpksort":
                yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "bfpksort":
                    yield alias.name, None


def test_demos_are_found():
    assert len(DEMOS) >= 6


@pytest.mark.parametrize("path", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_imports_exist(path):
    imports = list(_bfpksort_imports(path))
    assert imports, f"{path.name} imports nothing from bfpksort"
    for module, name in imports:
        mod = importlib.import_module(module)
        # like ``from package import name``, fall back to a submodule of that name
        exists = name is None or hasattr(mod, name) or (
            hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None
        )
        assert exists, f"{path.name}: {module}.{name} does not exist"
