"""Demos: every name they import from bfpksort exists, the package exports
just those names plus the types a caller builds inputs from, and the demos
run cleanly.

Every demo is parsed for its imports, so a renamed or deleted library name
fails here.  Every demo but the slow outlier-magnitude sweep is also run
under ``python -W error``: it must exit 0 and print nothing to stderr.
"""

from __future__ import annotations

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bfpksort
from bfpksort.simharness import DecodeTrace

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
#: about 66 s on 2 CPUs, so it is parsed but not run
SLOW_DEMOS = {"demo_outlier_magnitude.py"}
RUN_DEMOS = [p for p in DEMOS if p.name not in SLOW_DEMOS]

#: The top-level names of ``bfpksort``: what the demos import, plus the types a
#: caller needs to build inputs (HeadWeights, BfpTensor, PermutationPlan) and to
#: catch failures (BfpKsortError).  Everything else is imported from its module.
PACKAGE_NAMES = {
    "BFP12_32", "BFP16_32", "BfpFormat", "BfpTensor", "bfp_dot", "bits_per_element",
    "dequantize", "pack", "quantize_block", "quantize_tensor", "unpack",
    "BfpKsortError",
    "HeadWeights", "Permutation", "PermutationPlan", "plan_head", "remap_rope_tables",
    "RopeTables", "default_rope_tables", "rope_apply",
    "OutlierSpec", "error_metrics", "exactness_check", "gen_activations", "gen_outlier_head",
    "score_max_abs_err", "simulate_decode",
}


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


@pytest.mark.parametrize("path", RUN_DEMOS, ids=[p.name for p in RUN_DEMOS])
def test_demo_runs_without_warnings(path, tmp_path):
    # a leaked file handle or a numpy warning prints to stderr, even where it
    # does not change the exit status
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=300,
        env={**os.environ, "PYTHONPATH": pythonpath},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""


def test_package_exports_only_the_kept_names():
    public = {
        name for name, obj in vars(bfpksort).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert public == PACKAGE_NAMES


def test_decode_trace_holds_keys_cache_and_score_error():
    assert [f.name for f in dataclasses.fields(DecodeTrace)] == ["keys", "key_cache", "score_err"]
