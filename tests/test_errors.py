"""Typed refusals: the library raises only its own error classes, and every
public entry point that takes a scalar or an array refuses an illegal one the
same way.

A legal integer is an ``int`` and never a ``bool``; a legal real is an ``int``
or ``float``, never a ``bool``, finite when compared (``10**400`` is refused,
not converted).  ``bfpksort.errors._require_int`` and ``_require_real`` hold
that policy; ``BfpFormat``, ``OutlierSpec`` and ``ExperimentConfig`` are
covered by their own modules' tests.  A legal array reads as bools, integers
or floats with no NaN or +/-inf; ``_require_real_array`` holds that rule and is
the one float64 cast of an argument (no ``np.asarray``, ``np.ascontiguousarray``
or ``np.array`` to ``np.float64`` elsewhere) and the one finiteness test of an
array (no ``np.isfinite`` outside ``errors``), ``HeadWeights`` adds a head's
shape, and ``RopeTables`` reads its frequencies through it.  ``RopeTables``,
``BfpTensor``, ``Permutation`` and ``PermutationPlan`` check their other fields when
built; their own modules' tests cover that.  ``HeadWeights``, ``BfpTensor``,
``RopeTables`` and ``Permutation`` pickle through their constructor, so an unpickled
copy is checked too.  An argument that must hold one of the library's objects, such
as a format ``fmt``, is refused by type with ``errors._require_instance``.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import math
import pickle
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
    PermutationPlan,
    RopeTables,
    default_rope_tables,
    error_metrics,
    exactness_check,
    gen_activations,
    gen_outlier_head,
    plan_head,
    quantize_block,
    quantize_tensor,
    remap_rope_tables,
    rope_apply,
    score_max_abs_err,
    simulate_decode,
)
from bfpksort import bfp, errors, ksort, rope, simharness, tensorio
from bfpksort.cli import ExperimentConfig, run
from bfpksort.ksort import cache_mse
from bfpksort.errors import InvalidRopeTables, InvalidValue, ShapeMismatch

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


def _finiteness_tests(tree: ast.AST, scope: str = "<module>") -> set[str]:
    """The innermost enclosing function of each ``np.isfinite`` in ``tree``."""
    found = set()
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "np.isfinite":
            found.add(scope)
        inner = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else scope
        found |= _finiteness_tests(node, inner)
    return found


def test_only_errors_decides_whether_an_array_is_finite():
    # one test of finiteness, errors._all_finite, used by the array rule, the overflow
    # check of a decode and the rotary frequencies and angles; a copy elsewhere could
    # disagree with it, or build a bool array the size of its input
    assert _finiteness_tests(ast.parse("def f(x):\n    return np.isfinite(x).all()")) == {"f"}
    found = {
        info.name: _finiteness_tests(ast.parse(inspect.getsource(importlib.import_module(f"bfpksort.{info.name}"))))
        for info in pkgutil.iter_modules(bfpksort.__path__)
    }
    assert found.pop("errors") == {"_require_real_array"}  # where it names the first bad index
    assert {name: scopes for name, scopes in found.items() if scopes} == {}


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
    "BfpTensor.block": ("index", lambda v: quantize_tensor(np.ones(4), bfp.BFP12_32).block(v), set()),
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


#: Arrays that are not arrays of real numbers, built at a given shape: of another
#: kind of entry, or of floats that are not finite (:data:`NON_FINITE`).
HOSTILE_ARRAYS = {
    "complex": lambda shape: np.full(shape, 1.0 + 1.0j),
    "text": lambda shape: np.full(shape, "1.0"),
    "object": lambda shape: np.full(shape, 1.0, dtype=object),
    "ragged": _ragged,
    "huge": lambda shape: np.full(shape, 10**400, dtype=object).tolist(),
    "nan": lambda shape: np.full(shape, np.nan),
    "inf": lambda shape: np.full(shape, np.inf),
    "-inf": lambda shape: np.full(shape, -np.inf),
}
NON_FINITE = ("nan", "inf", "-inf")

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
    # refused by name before any cast: no truncated imaginary part, parsed text or raw
    # numpy error; a NaN or an infinity, which no shared-exponent block can hold, is
    # named with its first index before any projection, rotation or cast
    name, shape, call = ARRAY_ENTRY_POINTS[entry]
    message = _refused(InvalidValue, call, HOSTILE_ARRAYS[kind](shape))
    if kind in NON_FINITE:
        assert message == f"{name} must be finite, got {kind} at index {(0,) * len(shape)}"
    else:
        assert message.startswith(f"{name} must be an array of real numbers, got ")


def _nan_at_first(w):
    w = w.copy()
    w[0, 0] = np.nan
    return w


#: Each value that checks itself when built: a valid one, a field of it, a value that
#: breaks its check in that field, and the error the constructor raises for it.
CHECKED_VALUES = {
    "HeadWeights": (_HEAD, "w_k", _nan_at_first(_HEAD.w_k), InvalidValue),
    "BfpTensor": (quantize_tensor(np.ones((2, 4)), _FMT), "blocking_axis", 2, ShapeMismatch),
    "RopeTables": (_TABLES, "partner", np.arange(4), InvalidRopeTables),
    "Permutation": (Permutation(np.array([1, 0, 2])), "indices", np.array([0, 0, 1]), InvalidValue),
}


@pytest.mark.parametrize("kind", list(CHECKED_VALUES))
def test_pickle_round_trip_rebuilds_through_the_check(kind):
    # unpickling runs the constructor, so the copy holds read-only arrays of the same bits
    value = CHECKED_VALUES[kind][0]
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value) and copy is not value
    arrays = {k: v for k, v in vars(copy).items() if isinstance(v, np.ndarray)}
    assert arrays and all(not a.flags.writeable for a in arrays.values())
    for name, a in arrays.items():
        held = getattr(value, name)
        assert a.dtype == held.dtype and a.tobytes() == held.tobytes()


@pytest.mark.parametrize("kind", list(CHECKED_VALUES))
def test_pickled_state_that_breaks_a_check_is_refused(kind):
    # a value pickles as its constructor and fields; a pickle of those fields with one
    # broken is refused on load by the constructor's check
    value, name, hostile, error = CHECKED_VALUES[kind]
    cls, fields = value.__reduce__()
    assert cls is type(value) and len(fields) == len(vars(value))
    index = list(vars(value)).index(name)
    forged = fields[:index] + (hostile,) + fields[index + 1:]

    class Forged:
        def __reduce__(self):
            return cls, forged

    with pytest.raises(error):
        pickle.loads(pickle.dumps(Forged()))


#: Each argument that must hold one of the library's objects: its name, what it must
#: be, and a call with it.
OBJECT_ENTRY_POINTS = {
    "simulate_decode.weights": ("weights", "a HeadWeights", lambda v: simulate_decode(v, None, _X3)),
    "exactness_check.weights": (
        "weights", "a HeadWeights", lambda v: exactness_check(v, _PLAN, _X3)
    ),
    "plan_head.weights": ("weights", "a HeadWeights", lambda v: plan_head(v)),
    "gen_outlier_head.spec": ("spec", "an OutlierSpec", lambda v: gen_outlier_head(4, 8, v)),
    "rope_apply.tables": ("tables", "a RopeTables", lambda v: rope_apply(v, np.ones(4), 0)),
    "remap_rope_tables.tables": (
        "tables", "a RopeTables", lambda v: remap_rope_tables(v, Permutation.identity(4))
    ),
    "remap_rope_tables.perm": ("perm", "a Permutation", lambda v: remap_rope_tables(_TABLES, v)),
    "PermutationPlan.perm": ("perm", "a Permutation", lambda v: PermutationPlan(v)),
    "PermutationPlan.rope": (
        "rope", "a RopeTables or None", lambda v: PermutationPlan(Permutation.identity(4), v)
    ),
    "error_metrics.quantized": (
        "quantized", "a BfpTensor or None", lambda v: error_metrics(np.ones((2, 4)), v)
    ),
    "score_max_abs_err.trace": ("trace", "a DecodeTrace", lambda v: score_max_abs_err(v)),
    "dequantize.t": ("t", "a BfpTensor", lambda v: bfp.dequantize(v)),
    "pack.t": ("t", "a BfpTensor", lambda v: bfp.pack(v)),
    "bfp_dot.a": ("a", "a BfpTensor", lambda v: bfp.bfp_dot(v, _VECTOR)),
    "bfp_dot.k": ("k", "a BfpTensor", lambda v: bfp.bfp_dot(_VECTOR, v)),
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
    "plan_head.fmt": ("fmt", "a BfpFormat or None", lambda v: plan_head(_HEAD, None, v)),
    "simulate_decode.fmt_k": (
        "fmt_k", "a BfpFormat or None", lambda v: simulate_decode(_HEAD, None, _X3, fmt_k=v)
    ),
    "simulate_decode.fmt_q": (
        "fmt_q", "a BfpFormat or None", lambda v: simulate_decode(_HEAD, None, _X3, fmt_q=v)
    ),
    "quantize_tensor.fmt": ("fmt", "a BfpFormat", lambda v: quantize_tensor(np.ones((2, 4)), v)),
    "quantize_block.fmt": ("fmt", "a BfpFormat", lambda v: quantize_block(np.ones(4), v)),
    "unpack.fmt": ("fmt", "a BfpFormat", lambda v: bfp.unpack(bytes(6), v, (2, 4))),
    "bits_per_element.fmt": ("fmt", "a BfpFormat", lambda v: bfp.bits_per_element(v)),
    "BfpTensor.fmt": ("fmt", "a BfpFormat", lambda v: BfpTensor(
        v, (2, 4), 1, np.zeros((2, 1), np.int32), np.zeros((2, 1, 4), np.int8)
    )),
    "cache_mse.fmt": (
        "fmt", "a BfpFormat", lambda v: cache_mse(np.ones((16, 4)), [Permutation.identity(4)], v)
    ),
}

_X3 = np.ones((3, 8))
_VECTOR = quantize_tensor(np.ones(4), _FMT)


@pytest.mark.parametrize("value", ["x", _TABLES.theta, 4], ids=["str", "ndarray", "int"])
@pytest.mark.parametrize("entry", list(OBJECT_ENTRY_POINTS))
def test_entry_point_refuses_an_object_of_another_type(monkeypatch, entry, value):
    # refused by name before any projection or cast, not by an AttributeError inside one
    def no_projection(*args, **kwargs):
        raise AssertionError("projected or cast before the refusal")

    monkeypatch.setattr(simharness, "rope_apply", no_projection)
    monkeypatch.setattr(simharness, "quantize_tensor", no_projection)
    monkeypatch.setattr(ksort, "remap_rope_tables", no_projection)
    monkeypatch.setattr(ksort, "quantize_tensor", no_projection)
    monkeypatch.setattr(bfp, "_encode_blocks", no_projection)
    name, wanted, call = OBJECT_ENTRY_POINTS[entry]
    message = _refused(InvalidValue, call, value)
    assert message == f"{name} must be {wanted}, got {type(value).__name__}"


#: Each parameter name that takes one of the library's objects, and that object's class.
OBJECT_PARAMETERS = {
    "fmt": BfpFormat, "fmt_k": BfpFormat, "fmt_q": BfpFormat,
    "quantized": BfpTensor, "t": BfpTensor, "a": BfpTensor, "k": BfpTensor,
    "rope_tables": RopeTables, "tables": RopeTables, "rope": RopeTables,
    "perm": Permutation, "plan": PermutationPlan, "weights": HeadWeights,
    "spec": OutlierSpec, "trace": simharness.DecodeTrace,
}


def _object_parameters() -> dict[str, inspect.Parameter]:
    """Each parameter named in :data:`OBJECT_PARAMETERS` that a public function or class
    of ``bfp``, ``rope``, ``ksort`` or ``simharness`` takes, by ``<callable>.<parameter>``."""
    found = {}
    for module in (bfp, rope, ksort, simharness):
        for name, obj in vars(module).items():
            if name.startswith("_") or not callable(obj) or obj.__module__ != module.__name__:
                continue
            found |= {f"{name}.{p.name}": p for p in inspect.signature(obj).parameters.values()
                      if p.name in OBJECT_PARAMETERS}
    return found


def test_every_object_parameter_is_refused_by_type():
    # a new entry point that takes one of these names needs a row above, so its check
    # cannot be skipped; each row wants the class that the parameter is annotated with,
    # after "an" before a vowel and "a" before any other letter
    found = _object_parameters()
    assert {"quantize_tensor.fmt", "BfpTensor.fmt", "rope_apply.tables", "bfp_dot.k"} <= set(found)
    assert set(found) - set(OBJECT_ENTRY_POINTS) == set()
    for entry, parameter in found.items():
        cls = OBJECT_PARAMETERS[parameter.name].__name__
        assert cls in parameter.annotation, (entry, parameter.annotation)
        article = "an" if cls[0] in "AEIOU" else "a"
        assert OBJECT_ENTRY_POINTS[entry][1] in (f"{article} {cls}", f"{article} {cls} or None"), entry


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
    [(np.ones((4, 8)), _with((4, 8), (1, 2), np.nan), InvalidValue,
      "w_q must be finite, got nan at index (1, 2)"),
     (_with((4, 8), (3, 0), np.inf), np.ones((4, 8)), InvalidValue,
      "w_k must be finite, got inf at index (3, 0)"),
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
    assert message == "w_q must be finite, got nan at index (2, 5)"


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
