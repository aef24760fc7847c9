"""Typed refusals: the library raises only its own error classes, and every
public entry point that takes a scalar or an array refuses an illegal one the
same way.

A legal integer is an ``int`` and never a ``bool``; a legal real is an ``int``
or ``float``, never a ``bool``, finite when compared (``10**400`` is refused,
not converted).  ``bfpksort.errors._require_int`` and ``_require_real`` hold
that policy; ``BfpFormat``, ``OutlierSpec`` and ``ExperimentConfig`` are
covered by their own modules' tests.  A legal array reads as bools, integers
or floats; ``_require_real_array`` holds that rule and is the one float64 cast
of an argument (no ``np.asarray``, ``np.ascontiguousarray`` or ``np.array`` to
``np.float64`` elsewhere), ``HeadWeights`` adds a head's shape and finiteness,
and ``RopeTables`` reads its frequencies through it.  ``RopeTables``,
``BfpTensor`` and ``PermutationPlan`` check their other fields when built; their
own modules' tests cover that.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import math
import pkgutil
import warnings

import numpy as np
import pytest

import bfpksort
from bfpksort import (
    BfpFormat,
    BfpTensor,
    HeadWeights,
    OutlierSpec,
    Permutation,
    RopeTables,
    default_rope_tables,
    error_metrics,
    exactness_check,
    gen_activations,
    gen_outlier_head,
    plan_head,
    quantize_block,
    quantize_tensor,
    rope_apply,
    row_norms,
    simulate_decode,
)
from bfpksort import bfp, errors, ksort, rope, simharness, tensorio
from bfpksort.cli import ExperimentConfig, run
from bfpksort.ksort import cache_mse
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


#: The numpy calls that cast their first argument to a ``dtype`` given after it.
CASTING_CALLS = ("np.asarray", "np.ascontiguousarray", "np.array")


def _float64_casts(tree: ast.AST) -> list[str]:
    """Each call of :data:`CASTING_CALLS` with ``np.float64`` as its second
    argument or its ``dtype``, such as ``np.array(value, dtype=np.float64)``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func) in CASTING_CALLS:
            dtypes = node.args[1:] + [k.value for k in node.keywords if k.arg == "dtype"]
            if any(ast.unparse(d) == "np.float64" for d in dtypes):
                found.append(ast.unparse(node))
    return found


def test_only_errors_casts_arguments_to_float64():
    # an argument is read through errors._require_real_array, which refuses complex,
    # text, object and ragged input; a bare cast would coerce or truncate it silently
    written = [f"{call}(x, np.float64); {call}(x, dtype=np.float64)" for call in CASTING_CALLS]
    assert all(len(_float64_casts(ast.parse(source))) == 2 for source in written)
    assert not _float64_casts(ast.parse("np.ascontiguousarray(x, dtype=code); np.zeros(3, np.float64)"))
    names = [info.name for info in pkgutil.iter_modules(bfpksort.__path__)]
    assert {"bfp", "cli", "errors", "ksort", "rope", "simharness", "tensorio"} <= set(names)
    casts = {
        name: _float64_casts(ast.parse(inspect.getsource(importlib.import_module(f"bfpksort.{name}"))))
        for name in names if name != "errors"
    }
    assert {name: found for name, found in casts.items() if found} == {}


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


_FMT = BfpFormat(4, 4)
_HEAD = HeadWeights(w_k=np.ones((4, 8)), w_q=np.ones((4, 8)))
_PLAN = plan_head(_HEAD)
_TABLES = default_rope_tables(4)


def _ragged(shape):
    """A nested list of ``shape`` whose last row is one entry short."""
    rows = np.ones(shape).tolist()
    rows[-1] = rows[-1][:-1] if len(shape) > 1 else [1.0]
    return rows


#: Arrays that are not arrays of real numbers, built at a given shape.
HOSTILE_ARRAYS = {
    "complex": lambda shape: np.full(shape, 1.0 + 1.0j),
    "text": lambda shape: np.full(shape, "1.0"),
    "object": lambda shape: np.full(shape, 1.0, dtype=object),
    "ragged": _ragged,
    "huge": lambda shape: np.full(shape, 10**400, dtype=object).tolist(),
}

#: Each array argument of the library: its name, the shape it takes, and a call with it.
ARRAY_ENTRY_POINTS = {
    "quantize_tensor.x": ("x", (2, 4), lambda v: quantize_tensor(v, _FMT)),
    "quantize_block.values": ("values", (4,), lambda v: quantize_block(v, _FMT)),
    "rope_apply.x": ("x", (2, 4), lambda v: rope_apply(default_rope_tables(4), v, 0)),
    "rope_apply.m": ("m", (2,), lambda v: rope_apply(default_rope_tables(4), np.ones((2, 4)), v)),
    "error_metrics.reference": (
        "reference", (2, 4), lambda v: error_metrics(v, quantize_tensor(np.ones((2, 4)), _FMT))
    ),
    "simulate_decode.X": ("X", (3, 8), lambda v: simulate_decode(_HEAD, None, v)),
    "exactness_check.X": ("X", (3, 8), lambda v: exactness_check(_HEAD, _PLAN, v)),
    "row_norms.w": ("w", (4, 8), row_norms),
    "cache_mse.keys": ("keys", (16, 4), lambda v: cache_mse(v, [Permutation.identity(4)], _FMT)),
    "HeadWeights.w_k": ("w_k", (4, 8), lambda v: HeadWeights(w_k=v, w_q=np.ones((4, 8)))),
    "HeadWeights.w_q": ("w_q", (4, 8), lambda v: HeadWeights(w_k=np.ones((4, 8)), w_q=v)),
    "RopeTables.theta": ("theta", (4,), lambda v: RopeTables(v, _TABLES.partner, _TABLES.sign)),
}


def _refused(error, call, *args):
    """The message of the ``error`` that ``call(*args)`` raises, with no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error) as exc:
            call(*args)
    return str(exc.value)


@pytest.mark.parametrize("kind", list(HOSTILE_ARRAYS))
@pytest.mark.parametrize("entry", list(ARRAY_ENTRY_POINTS))
def test_entry_point_refuses_an_array_of_no_real_numbers(entry, kind):
    # refused by name before any cast: no truncated imaginary part, parsed text or raw numpy error
    name, shape, call = ARRAY_ENTRY_POINTS[entry]
    message = _refused(InvalidValue, call, HOSTILE_ARRAYS[kind](shape))
    assert message.startswith(f"{name} must be an array of real numbers, got ")


#: Each argument that must hold one of the library's checked objects: its name, what
#: it must be, and a call with it.
OBJECT_ENTRY_POINTS = {
    "simulate_decode.rope_tables": (
        "rope_tables", "a RopeTables or None", lambda v: simulate_decode(_HEAD, v, _X3)
    ),
    "simulate_decode.plan": (
        "plan", "a PermutationPlan or None", lambda v: simulate_decode(_HEAD, None, _X3, plan=v)
    ),
    "exactness_check.rope_tables": (
        "rope_tables", "a RopeTables or None", lambda v: exactness_check(_HEAD, _PLAN, _X3, v)
    ),
    "exactness_check.plan": ("plan", "a PermutationPlan", lambda v: exactness_check(_HEAD, v, _X3)),
    "plan_head.rope_tables": ("rope_tables", "a RopeTables or None", lambda v: plan_head(_HEAD, v)),
}

_X3 = np.ones((3, 8))


@pytest.mark.parametrize("value", ["x", _TABLES.theta, 4], ids=["str", "ndarray", "int"])
@pytest.mark.parametrize("entry", list(OBJECT_ENTRY_POINTS))
def test_entry_point_refuses_an_object_of_another_type(monkeypatch, entry, value):
    # refused by name before any projection, not by an AttributeError inside one
    def no_projection(*args, **kwargs):
        raise AssertionError("projected before the refusal")

    monkeypatch.setattr(simharness, "rope_apply", no_projection)
    monkeypatch.setattr(simharness, "quantize_tensor", no_projection)
    monkeypatch.setattr(ksort, "remap_rope_tables", no_projection)
    name, wanted, call = OBJECT_ENTRY_POINTS[entry]
    message = _refused(InvalidValue, call, value)
    assert message == f"{name} must be {wanted}, got {type(value).__name__}"


def test_exactness_check_needs_a_plan():
    assert _refused(InvalidValue, exactness_check, _HEAD, None, _X3) == (
        "plan must be a PermutationPlan, got NoneType"
    )


def _with(shape, index, value):
    w = np.ones(shape)
    w[index] = value
    return w


@pytest.mark.parametrize(
    "w_k, w_q, error, start",
    [(np.ones((4, 8)), _with((4, 8), (1, 2), np.nan), InvalidValue, "query-projection"),
     (_with((4, 8), (3, 0), np.inf), np.ones((4, 8)), InvalidValue, "key-projection"),
     (np.ones((0, 8)), np.ones((0, 8)), ShapeMismatch, "w_k and w_q"),
     (np.ones((4, 0)), np.ones((4, 0)), ShapeMismatch, "w_k and w_q")],
    ids=["nan_in_w_q", "inf_in_w_k", "no_rows", "no_columns"],
)
def test_head_weights_refuse_an_unusable_head(w_k, w_q, error, start):
    assert _refused(error, HeadWeights, w_k, w_q).startswith(start)


_X = gen_activations(6, 8, 0)


@pytest.mark.parametrize(
    "check",
    [lambda w: simulate_decode(w, None, _X), lambda w: exactness_check(w, plan_head(w), _X)],
    ids=["lossless_decode", "exactness_check"],
)
def test_nan_weights_cannot_reach_a_decode(check):
    # a NaN head once decoded losslessly to a NaN error and gave a NaN exactness, unrefused
    w_q = _with((4, 8), (2, 5), np.nan)
    message = _refused(InvalidValue, lambda: check(HeadWeights(w_k=np.ones((4, 8)), w_q=w_q)))
    assert message == "query-projection weights must be finite"


@pytest.mark.parametrize("d_h, d_model, name", [(0, 8, "d_h"), (8, 0, "d_model")])
def test_generated_head_needs_a_row_and_a_column(d_h, d_model, name):
    message = _refused(InvalidValue, gen_outlier_head, d_h, d_model, OutlierSpec(0, 2.0))
    assert message == f"{name} must be an integer >= 1, got 0"


def test_head_from_nested_lists_plans_like_the_arrays():
    weights = gen_outlier_head(64, 8, OutlierSpec(2, 20.0, seed=3))
    listed = HeadWeights(w_k=weights.w_k.tolist(), w_q=weights.w_q.tolist())
    assert listed.w_k.dtype == listed.w_q.dtype == np.float64
    tables = default_rope_tables(64)
    for fmt in (None, bfp.BFP12_32):
        plan, from_lists = plan_head(weights, tables, fmt), plan_head(listed, tables, fmt)
        assert np.array_equal(plan.perm.indices, from_lists.perm.indices)
        assert np.array_equal(plan.rope.partner, from_lists.rope.partner)
    # float64 matrices are held as given, others as float64 copies
    assert HeadWeights(w_k=weights.w_k, w_q=weights.w_q).w_k is weights.w_k
    integral = HeadWeights(w_k=np.ones((4, 8), np.int64), w_q=np.ones((4, 8), bool))
    assert integral.w_k.dtype == integral.w_q.dtype == np.float64
    assert np.array_equal(integral.w_q, np.ones((4, 8)))
