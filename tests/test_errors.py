"""Typed refusals: the library raises only its own error classes, and every
public entry point that takes a scalar refuses an illegal one the same way.

A legal integer is an ``int`` and never a ``bool``; a legal real is an ``int``
or ``float``, never a ``bool``, finite when compared (``10**400`` is refused,
not converted).  ``bfpksort.errors._require_int`` and ``_require_real`` hold
that policy; ``BfpFormat``, ``OutlierSpec`` and ``ExperimentConfig`` are
covered by their own modules' tests.
"""

from __future__ import annotations

import ast
import inspect
import math
import warnings

import numpy as np
import pytest

from bfpksort import (
    BfpFormat,
    BfpTensor,
    OutlierSpec,
    Permutation,
    default_rope_tables,
    gen_activations,
    gen_outlier_head,
)
from bfpksort import bfp, errors, ksort, rope, simharness, tensorio
from bfpksort.cli import ExperimentConfig, run
from bfpksort.errors import InvalidValue, ShapeMismatch

#: Library modules whose every ``raise`` names a class from :mod:`bfpksort.errors`.
TYPED_MODULES = (bfp, rope, ksort, simharness, tensorio)

#: The raw raises that stay, as (module, enclosing function, class):
#: ``save`` refuses a non-float array with ``TypeError`` (``test_integer_arrays_rejected``).
RAW_RAISES = {("tensorio", "save", "TypeError")}


class _Raises(ast.NodeVisitor):
    """(innermost enclosing function, raised name) of each ``raise Name(...)``."""

    def __init__(self) -> None:
        self.scope, self.found = "<module>", []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        outer, self.scope = self.scope, node.name
        self.generic_visit(node)
        self.scope = outer

    def visit_Raise(self, node: ast.Raise) -> None:
        if isinstance(node.exc, ast.Call):
            self.found.append((self.scope, ast.unparse(node.exc.func)))
        self.generic_visit(node)


def test_library_raises_only_typed_errors():
    typed = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.BfpKsortError)}
    raw = set()
    for module in TYPED_MODULES:
        visitor = _Raises()
        visitor.visit(ast.parse(inspect.getsource(module)))
        assert visitor.found, module.__name__  # the walk sees the module's raises
        short = module.__name__.rsplit(".", 1)[1]
        raw |= {(short, scope, name) for scope, name in visitor.found if name not in typed}
    assert raw == RAW_RAISES


_SPEC = OutlierSpec(1, 2.0)
_EMPTY = np.zeros(1, np.int32)

#: Each entry point with one scalar parameter left open: the parameter's name,
#: the call, and which of :data:`SCALARS` the policy accepts there.
ENTRY_POINTS = {
    "gen_activations.n_tokens": ("n_tokens", lambda v: gen_activations(v, 8, 0), {"huge"}),
    "gen_activations.d_model": ("d_model", lambda v: gen_activations(4, v, 0), {"huge"}),
    "gen_activations.seed": ("seed", lambda v: gen_activations(4, 8, v), {"huge"}),
    "gen_outlier_head.d_h": ("d_h", lambda v: gen_outlier_head(v, 8, _SPEC), {"huge"}),
    "gen_outlier_head.d_model": ("d_model", lambda v: gen_outlier_head(8, v, _SPEC), {"huge"}),
    "default_rope_tables.d_h": ("d_h", lambda v: default_rope_tables(v), {"huge"}),
    "default_rope_tables.base": ("base", lambda v: default_rope_tables(8, v), {"fraction"}),
    "Permutation.identity": ("n", Permutation.identity, {"huge"}),
    "BfpTensor.dims": (
        "dims", lambda v: BfpTensor(BfpFormat(4, 4), (v,), 0, _EMPTY, _EMPTY), {"huge"}
    ),
    "run.workers": ("workers", lambda v: run(ExperimentConfig(), workers=v), {"huge"}),
}

SCALARS = {"bool": True, "fraction": 2.5, "negative": -1, "nan": math.nan, "huge": 10**400,
           "string": "8"}


@pytest.mark.parametrize(
    "entry, kind",
    [(entry, kind) for entry, (_, _, legal) in ENTRY_POINTS.items()
     for kind in SCALARS if kind not in legal],
)
def test_entry_point_refuses_an_illegal_scalar(tmp_path, monkeypatch, entry, kind):
    # refused up front with a typed error naming the parameter, never by numpy later
    monkeypatch.chdir(tmp_path)  # run() writes nothing, but would write here
    name, call, _ = ENTRY_POINTS[entry]
    error = ShapeMismatch if name == "dims" else InvalidValue
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as exc:
            call(SCALARS[kind])
    assert str(exc.value).startswith(f"{name} must be")
    assert not list(tmp_path.iterdir())
