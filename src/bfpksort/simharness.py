"""Desk-scale attention decode simulator for cache-quantization experiments.

Models a single attention head generating ``T`` tokens: every step projects
the token's activation into a key that is quantized into the growing key
cache and a query that is consumed immediately.  Following the usual cache
discipline for rotary models, keys are stored *before* rotation and the
position-dependent rotation is applied after dequantization, at score time;
queries are rotated and then cast to their (higher-precision) format.
Attention scores are evaluated in float64 from the dequantized operands, so
measured error is purely storage-format error ("fake quantization").  They
are reduced to the score error one block of query rows at a time, each block
against only its causal keys, so memory grows with T rather than T**2.

Because cache blocks never span tokens (one key vector is one or more whole
blocks), quantizing each key at its own decode step produces bit-for-bit the
same cache as quantizing all keys at once, and the simulator exploits that
by batching.  Only the casts and the rotation of the decoded keys depend on
the storage formats: the projections and the rotation of the queries and
reference keys are shared, so a sweep builds them once per plan
(:func:`_project`) and scores every format pair on them.

Error metrics accumulate squared terms in ascending sorted order, which
makes the reported numbers invariant to channel permutations: two caches
holding the same multiset of per-element errors report the *bit-identical*
MSE.  This matters when comparing sorted against unsorted runs at block
sizes where reordering provably cannot change anything.

Synthetic heads reproduce the empirical pattern that drives all of this:
a handful of key channels with projection-row norms tens of times larger
than the rest, consistent across tokens.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bfp import BfpFormat, BfpTensor, _check_finite, bits_per_element, dequantize, quantize_tensor
from .errors import InvalidValue, PlanMismatch, ShapeMismatch
from .errors import _require_instance, _require_int, _require_real, _require_real_array
from .ksort import HeadWeights, PermutationPlan
from .rope import RopeTables, rope_apply

__all__ = [
    "OutlierSpec",
    "DecodeTrace",
    "ErrorReport",
    "gen_outlier_head",
    "gen_activations",
    "simulate_decode",
    "exactness_check",
    "error_metrics",
    "score_max_abs_err",
]


@dataclass(frozen=True)
class OutlierSpec:
    """Synthetic outlier-channel model for one head's projections."""

    n_outlier_channels: int
    outlier_scale: float
    base_std: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        _require_int("n_outlier_channels", self.n_outlier_channels)
        _require_int("seed", self.seed)
        _require_real("outlier_scale", self.outlier_scale, 1)
        _require_real("base_std", self.base_std, 0, above=True)


def gen_outlier_head(d_h: int, d_model: int, spec: OutlierSpec) -> HeadWeights:
    """Gaussian projections with a few key rows scaled up by ``outlier_scale``.

    Consumes ``default_rng(spec.seed)`` in a fixed order (key matrix, outlier
    row choice, query matrix), so equal specs give bitwise-equal weights.
    A spec whose weights overflow float64 raises :class:`InvalidValue`.
    """
    _require_int("d_h", d_h, 1)
    _require_int("d_model", d_model, 1)
    if spec.n_outlier_channels > d_h:
        raise InvalidValue(f"{spec.n_outlier_channels} outlier channels > d_h={d_h}")
    rng = np.random.default_rng(spec.seed)
    w_k = rng.normal(0.0, spec.base_std, size=(d_h, d_model))
    rows = rng.choice(d_h, size=spec.n_outlier_channels, replace=False)
    with np.errstate(over="ignore"):
        w_k[rows] *= spec.outlier_scale
    w_q = rng.normal(0.0, spec.base_std, size=(d_h, d_model))
    try:  # drawn float64 matrices: HeadWeights can refuse only a non-finite weight
        return HeadWeights(w_k=w_k, w_q=w_q)
    except InvalidValue:
        raise InvalidValue(
            f"weights overflow float64 at base_std={spec.base_std}, "
            f"outlier_scale={spec.outlier_scale}"
        ) from None


def gen_activations(n_tokens: int, d_model: int, seed: int = 0) -> np.ndarray:
    """Standard Gaussian token activations, one row per decode step.

    Drawn from a stream keyed by ``(seed, 1)`` so the weight matrices of
    :func:`gen_outlier_head` stay fixed when the token count changes.
    """
    _require_int("n_tokens", n_tokens)
    _require_int("d_model", d_model)
    _require_int("seed", seed)
    rng = np.random.default_rng([seed, 1])
    return rng.normal(0.0, 1.0, size=(n_tokens, d_model))


@dataclass(frozen=True, eq=False)
class DecodeTrace:
    """What one simulated decode produced: ``keys``, ``key_cache`` and ``score_err``.

    The queries are formed and scored, but not kept.
    """

    keys: np.ndarray  # (T, d_h) pre-rotation keys, the cache reference
    key_cache: BfpTensor | None  # None for lossless float storage
    score_err: float  # largest causal |score - reference score|, see score_max_abs_err


#: Elements of the score map reduced at a time by :func:`_causal_gap`, for both
#: :func:`simulate_decode` and :func:`exactness_check`: query rows [i0, i1) are
#: scored against the causal keys [:i1], budget // T rows per block.  Every
#: T <= 724 is one block; T = 4096 takes 128 rows (4 MiB of float64) per block.
SCORE_BLOCK_ELEMENTS = 1 << 19


def _causal_gap(qa, ka, qb=None, kb=None, fmt_q: BfpFormat | None = None) -> float:
    """Largest causal ``|qa @ ka.T - qb @ kb.T|``, or ``|qa @ ka.T|`` without ``qb``.

    Reduced one block of query rows at a time (:data:`SCORE_BLOCK_ELEMENTS`),
    so no T x T map is built.  With ``fmt_q``, each block's rows of ``qa``
    are cast to it and decoded first: a BFP block never spans rows, so this
    gives the bits of a whole-matrix cast.  NaN when a causal entry is NaN,
    inf or NaN when a score overflows (see :func:`_check_overflow`), 0.0 for
    zero tokens.
    """
    n_tokens = qa.shape[0]
    rows = max(1, SCORE_BLOCK_ELEMENTS // max(n_tokens, 1))
    gap = np.float64(0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n_tokens, rows):
            i1 = min(n_tokens, i0 + rows)
            q = qa[i0:i1]
            if fmt_q is not None:
                q = dequantize(quantize_tensor(q, fmt_q, blocking_axis=1))
            scores = q @ ka[:i1].T
            if qb is not None:
                scores -= qb[i0:i1] @ kb[:i1].T
            np.abs(scores, out=scores)
            # every key before i0 is causal for the whole block: mask only the diagonal
            block_max = np.maximum(scores[:, :i0].max(initial=0.0), np.tril(scores[:, i0:]).max())
            gap = np.maximum(gap, block_max)
    return float(gap)


def _check_overflow(X, *results: np.ndarray | float) -> None:
    """Raise :class:`InvalidValue` when finite activations gave a result (an
    array or a score) that is not finite: float64 overflowed in a projection,
    a rotation or a score.  The weights are finite, as every
    :class:`HeadWeights` is; non-finite activations pass through.

    :func:`_project` checks its keys and rotated queries, so no cast meets an
    overflow.  The final score check covers a key rotation or a score that
    overflows: every key is scored against the last query.
    """
    if not all(np.isfinite(r).all() for r in results) and np.isfinite(X).all():
        raise InvalidValue("keys, queries or attention scores overflow float64")


@dataclass(frozen=True, eq=False)
class _Projection:
    """What every format pair of one plan shares, built by :func:`_project`."""

    source: tuple  # (weights, rope_tables, X, plan) as passed, matched by identity
    keys: np.ndarray  # (T, d_h) pre-rotation keys, the cache reference
    queries: np.ndarray  # (T, d_h) rotated queries
    rotated_keys: np.ndarray  # (T, d_h) rotated reference keys
    tables: RopeTables | None  # the tables the rotations used


def _project(weights: HeadWeights, rope_tables: RopeTables | None, X, plan) -> _Projection:
    """The part of a decode that no storage format changes: pre-rotation
    keys, rotated queries and rotated reference keys, with the rows gathered
    through ``plan`` when one is given, and the tables that rotated them.

    Queries and keys turn in one stacked rotation.  A float64 overflow from
    finite activations is named here, before any cast (see
    :func:`_check_overflow`).
    """
    source = (weights, rope_tables, X, plan)
    _require_instance("rope_tables", rope_tables, RopeTables, optional=True)
    _require_instance("plan", plan, PermutationPlan, optional=True)
    X = _require_real_array("X", X)
    if X.ndim != 2 or X.shape[1] != weights.d_model:
        raise ShapeMismatch(f"activations {X.shape} do not match d_model={weights.d_model}")
    w_k, w_q, tables = weights.w_k, weights.w_q, rope_tables
    if plan is not None:
        if len(plan.perm) != weights.d_h:
            raise PlanMismatch(f"plan is for d_h={len(plan.perm)}, weights have d_h={weights.d_h}")
        if (plan.rope is None) != (rope_tables is None):
            raise PlanMismatch("plan and call disagree on whether rotation is in use")
        gather = plan.perm.apply
        w_k, w_q, tables = gather(w_k), gather(w_q), plan.rope

    with np.errstate(over="ignore", invalid="ignore"):  # see _check_overflow
        keys = X @ w_k.T
        stacked = np.stack([X @ w_q.T, keys])
        del w_k, w_q  # the gathered plan rows are not held through the rotation
        queries, rotated_keys = _rotate(tables, stacked)
    _check_overflow(X, keys, queries)
    return _Projection(source, keys, queries, rotated_keys, tables)


def _rotate(tables: RopeTables | None, x: np.ndarray) -> np.ndarray:
    """Rotate queries or cached keys ``(..., T, d_h)`` to their positions 0..T-1."""
    if tables is None:
        return x
    with np.errstate(over="ignore", invalid="ignore"):  # see _check_overflow
        return rope_apply(tables, x, np.arange(x.shape[-2]))


def simulate_decode(
    weights: HeadWeights,
    rope_tables: RopeTables | None,
    X,
    fmt_k: BfpFormat | None = None,
    fmt_q: BfpFormat | None = None,
    plan: PermutationPlan | None = None,
    *,
    _projection: _Projection | None = None,
) -> DecodeTrace:
    """Run a T-step decode, quantizing keys at ``fmt_k`` and queries at ``fmt_q``.

    ``None`` formats mean lossless float storage.  With ``plan`` given, the
    projection rows are gathered through ``plan.perm`` and the
    plan's remapped rotary tables are used, as a deployed head would after
    the compile-time pass; ``rope_tables`` then names the original tables the
    plan was derived from.

    The decode projects the head (:func:`_project`), casts the keys into the
    cache, rotates the decoded keys (lossless keys are their own decode, so
    they reuse the rotated reference), then casts and scores the queries one
    block of rows at a time (:func:`_causal_gap`).  ``rope_tables`` that are
    not :class:`RopeTables` or ``None``, or a ``plan`` that is not a
    :class:`PermutationPlan` or ``None``, raise :class:`InvalidValue` before
    any projection.  A sweep scores every format pair of one plan on one
    projection by passing it as the private ``_projection``; one built from
    any other ``weights``, ``rope_tables``, ``X`` or ``plan`` object raises
    :class:`PlanMismatch` before any cast.

    The score error is reduced one block of query rows at a time
    (:data:`SCORE_BLOCK_ELEMENTS`), so neither a T x T score map nor a whole
    matrix of decoded queries is ever built.
    """
    projection = _projection
    if projection is None:
        projection = _project(weights, rope_tables, X, plan)
    elif not all(a is b for a, b in zip(projection.source, (weights, rope_tables, X, plan))):
        raise PlanMismatch(
            "projection was built for another head, rotary tables, activations or plan"
        )
    keys, queries, reference = projection.keys, projection.queries, projection.rotated_keys
    key_cache, decoded = None, reference
    if fmt_k is not None:
        key_cache = quantize_tensor(keys, fmt_k, blocking_axis=1)
        decoded = _rotate(projection.tables, dequantize(key_cache))
    if fmt_q is not None:  # named by its row in the queries, not in a block of them
        _check_finite(queries)
    score_err = _causal_gap(queries, decoded, queries, reference, fmt_q)
    _check_overflow(X, score_err)
    return DecodeTrace(keys=keys, key_cache=key_cache, score_err=score_err)


def exactness_check(
    weights: HeadWeights,
    plan: PermutationPlan,
    X,
    rope_tables: RopeTables | None = None,
) -> float:
    """Largest normalized deviation between original and permuted score maps.

    Both sides are evaluated in float64 with no quantization, over all causal
    token pairs; the return value is ``max|diff| / max|reference|`` (0.0 for
    zero tokens).  Channel permutation leaves each score a reordering of the
    same summands, so a correct plan lands at accumulated rounding error
    (~1e-15); a plan whose rotary tables were remapped wrongly deviates at
    order 1.  A ``plan`` that is not a :class:`PermutationPlan` raises
    :class:`InvalidValue` before any projection.
    """
    _require_instance("plan", plan, PermutationPlan)
    ref = _project(weights, rope_tables, X, None)
    perm = _project(weights, rope_tables, X, plan)
    scale = _causal_gap(ref.queries, ref.rotated_keys)
    diff = _causal_gap(perm.queries, perm.rotated_keys, ref.queries, ref.rotated_keys)
    _check_overflow(X, scale, diff)
    return diff / scale if scale > 0.0 else diff


def _sorted_accumulate_sq(values: np.ndarray) -> float:
    """Sum of squares, accumulated in ascending order: permutation-invariant."""
    sq = np.square(values).reshape(-1)
    sq.sort()
    return float(sq.sum())


@dataclass(frozen=True)
class ErrorReport:
    """Error metrics and storage cost of one quantized tensor.

    ``sqnr_db`` is +inf when reconstruction is exact and NaN when the
    reference carries no signal power.
    """

    mse: float
    sqnr_db: float
    max_abs_err: float
    bits_per_element: object  # fractions.Fraction


def error_metrics(reference, quantized: BfpTensor | None) -> ErrorReport:
    """Reconstruction error of ``quantized`` against the float reference.

    ``None`` is lossless float64 storage, the ``key_cache`` of a lossless
    decode: exact, so MSE and max error 0.0, SQNR +inf and 64 bits per
    element, whatever the reference.  Padding never appears (decoding strips
    it).  All reductions are permutation-invariant, see module docstring.
    """
    if quantized is None:
        return ErrorReport(mse=0.0, sqnr_db=math.inf, max_abs_err=0.0, bits_per_element=Fraction(64))
    ref = _require_real_array("reference", reference)
    deq = dequantize(quantized)
    if ref.shape != deq.shape:
        raise ShapeMismatch(f"reference {ref.shape} vs decoded {deq.shape}")
    bpe = bits_per_element(quantized.fmt)
    if ref.size == 0:
        return ErrorReport(mse=0.0, sqnr_db=math.nan, max_abs_err=0.0, bits_per_element=bpe)
    err = deq - ref
    mse = _sorted_accumulate_sq(err) / ref.size
    signal = _sorted_accumulate_sq(ref) / ref.size
    if signal == 0.0:
        sqnr_db = math.nan
    elif mse == 0.0:
        sqnr_db = math.inf
    else:
        sqnr_db = 10.0 * math.log10(signal / mse)
    return ErrorReport(
        mse=mse,
        sqnr_db=sqnr_db,
        max_abs_err=float(np.abs(err).max()),
        bits_per_element=bpe,
    )


def score_max_abs_err(trace: DecodeTrace) -> float:
    """Largest attention-score deviation caused by quantization, over the
    causal (lower-triangular) part of the score map; NaN if any such score
    is NaN, 0.0 for zero tokens."""
    return trace.score_err
