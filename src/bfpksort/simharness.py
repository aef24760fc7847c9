"""Desk-scale attention decode simulator for cache-quantization experiments.

Models a single attention head generating ``T`` tokens: every step projects
the token's activation into a key that is quantized into the growing key
cache and a query that is consumed immediately.  Following the usual cache
discipline for rotary models, keys are stored *before* rotation and the
position-dependent rotation is applied after dequantization, at score time;
queries are rotated and then cast to their (higher-precision) format.
Attention scores are evaluated in float64 from the dequantized operands, so
measured error is purely storage-format error ("fake quantization").  They
are reduced to the score error one square tile of :data:`TILE` query rows and
:data:`TILE` causal keys at a time, and the rotations and the key and query
casts run in row tiles of the same size, so memory grows with T rather than
T**2: one sorted decode with its error metrics peaks under tracemalloc at
6.8 MiB at T = 1024, 19.2 MiB at T = 4096 and 68.9 MiB at T = 16384.

Because cache blocks never span tokens (one key vector is one or more whole
blocks), quantizing each key at its own decode step produces bit-for-bit the
same cache as quantizing all keys at once, and the simulator exploits that
by batching, a tile of keys at a time.  Only the casts and the rotation of
the decoded keys depend on the storage formats: the projections and the
rotation of the queries and reference keys are shared, so a sweep builds
them once per plan (:func:`_project`) and scores every format pair on them.

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

from .bfp import BfpFormat, BfpTensor, bits_per_element, dequantize, quantize_tensor
from .bfp import _mantissa_dtype
from .errors import ExponentOverflow, InvalidValue, PlanMismatch, ShapeMismatch
from .errors import _all_finite, _require_instance, _require_int, _require_real, _require_real_array
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
    _require_instance("spec", spec, OutlierSpec)
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


#: Rows of the tiles the decode rotates, casts and scores, clamped to T:
#: :func:`_rotate` turns TILE rows of every slab at a time, :func:`_cache_keys`
#: casts and decodes TILE keys at a time, and :func:`_causal_gap` casts TILE
#: query rows once and scores them against the causal keys [j0, j0 + TILE) for
#: j0 <= i0, one 512 KiB product at a time.
TILE = 256


def _causal_gap(qa, ka, qb=None, kb=None, fmt_q: BfpFormat | None = None) -> float:
    """Largest causal ``|qa @ ka.T - qb @ kb.T|``, or ``|qa @ ka.T|`` without ``qb``.

    Reduced one square tile at a time (:data:`TILE`), so no T x T map is
    built; every tile's products go into the same one or two buffers,
    allocated once.  With ``fmt_q``, each row tile of ``qa`` is cast to it and
    decoded once (:func:`_cast_rows`): the bits, and an overflow's message, of
    a whole-matrix cast.  Inf or NaN when a score overflows (an overflow makes
    inf - inf), kept by a NaN-propagating running maximum, so that
    :func:`_check_overflow` sees it; 0.0 for zero tokens.
    """
    n_tokens = qa.shape[0]
    tile = max(1, min(TILE, n_tokens))
    buffers = [np.empty(tile * tile) for _ in range(1 if qb is None else 2)]
    causal = np.tri(tile, dtype=bool)  # the causal part of a diagonal tile
    gap = np.float64(0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n_tokens, tile):
            i1 = min(n_tokens, i0 + tile)
            q = qa[i0:i1] if fmt_q is None else dequantize(_cast_rows(qa, i0, i1, fmt_q))
            for j0 in range(0, i1, tile):
                j1 = min(n_tokens, j0 + tile)
                shape = (i1 - i0, j1 - j0)
                scores, *other = (b[: shape[0] * shape[1]].reshape(shape) for b in buffers)
                np.matmul(q, ka[j0:j1].T, out=scores)
                if qb is not None:
                    scores -= np.matmul(qb[i0:i1], kb[j0:j1].T, out=other[0])
                np.abs(scores, out=scores)
                # only the diagonal tile holds keys after its queries
                where = causal[: shape[0], : shape[1]] if j0 == i0 else True
                gap = np.maximum(gap, scores.max(initial=0.0, where=where))
    return float(gap)


def _cast_rows(x: np.ndarray, r0: int, r1: int, fmt: BfpFormat) -> BfpTensor:
    """Rows ``[r0, r1)`` of the matrix ``x`` cast to ``fmt``, blocked along the rows.

    A block never spans rows, so these are the bits of those rows in a
    whole-matrix cast.  So is an :class:`ExponentOverflow`: the first failing
    tile holds the matrix's first overflowing block, and the matrix is cast
    whole again to name that block by its row in ``x``, not in the tile.
    """
    try:
        return quantize_tensor(x[r0:r1], fmt, blocking_axis=1)
    except ExponentOverflow:
        quantize_tensor(x, fmt, blocking_axis=1)  # raises with the row in x
        raise


def _cache_keys(keys: np.ndarray, fmt: BfpFormat, out: np.ndarray) -> BfpTensor:
    """The key cache, ``keys`` cast to ``fmt``, decoded into ``out`` (``keys``' shape).

    Cast and decoded :data:`TILE` rows at a time into exponent and mantissa
    arrays of the whole cache, so no T x d_h float64 transient is made; the
    cache has the bytes of ``quantize_tensor(keys, fmt, blocking_axis=1)``
    (see :func:`_cast_rows`).
    """
    n_tokens, d_h = keys.shape
    blocks = -(-d_h // fmt.block_size)
    exponents = np.empty((n_tokens, blocks), dtype=np.int32)
    mantissas = np.empty((n_tokens, blocks, fmt.block_size), dtype=_mantissa_dtype(fmt))
    for r0 in range(0, n_tokens, TILE):
        r1 = min(n_tokens, r0 + TILE)
        tile = _cast_rows(keys, r0, r1, fmt)
        exponents[r0:r1], mantissas[r0:r1] = tile.exponents, tile.mantissas
        out[r0:r1] = dequantize(tile)
    return BfpTensor(fmt, keys.shape, 1, exponents, mantissas)


def _check_overflow(*results: np.ndarray | float) -> None:
    """Raise :class:`InvalidValue` when a result (an array or a score) is not
    finite: weights and activations are finite, as every array argument is,
    so float64 overflowed in a projection, a rotation or a score.

    :func:`_project` checks its projections before they turn and its rotated
    queries after, so no rotation or cast meets an overflow; the final score
    check covers a key rotation or a score that overflows, since every key
    is scored against the last query.
    """
    if not all(_all_finite(np.asarray(r)) for r in results):
        raise InvalidValue("keys, queries or attention scores overflow float64")


@dataclass(frozen=True, eq=False)
class _Projection:
    """What the format pairs of one plan share, built by :func:`_project`."""

    source: tuple  # (weights, rope_tables, X, plan) as passed, matched by identity
    keys: np.ndarray  # (T, d_h) pre-rotation keys, the cache reference
    queries: np.ndarray  # (T, d_h) rotated queries
    rotated_keys: np.ndarray  # (T, d_h) rotated reference keys
    tables: RopeTables | None  # the tables the rotations used
    fmt_k: BfpFormat | None  # the key format the cache below was cast to
    key_cache: BfpTensor | None  # keys cast to fmt_k; None for lossless float storage
    decoded_keys: np.ndarray  # (T, d_h) rotated decoded keys; rotated_keys when lossless


def _project(
    weights: HeadWeights, rope_tables: RopeTables | None, X, plan, fmt_k: BfpFormat | None = None
) -> _Projection:
    """The part of a decode before its queries are cast: pre-rotation keys,
    rotated queries and rotated reference keys, with the rows gathered through
    ``plan`` when one is given, the tables that rotated them and, with
    ``fmt_k``, the keys cast to it, decoded and rotated.

    The queries are projected straight into one ``(2, T, d_h)`` buffer, or
    ``(3, T, d_h)`` with a key format, one gathered plan weight matrix at a
    time, and the keys are copied beside them.  A float64 overflow of a
    projection is named here, before any cast (see :func:`_check_overflow`);
    then the keys are cast and decoded into the third slab a tile at a time
    (:func:`_cache_keys`), and the whole buffer turns in place in one stacked
    rotation, so every ``cos``/``sin`` is evaluated once per decode.  The
    cast adds no T x d_h float64 transient to the stack, so a T = 4096 decode
    peaks at 19.2 MiB inside the rotation, not inside the cast.
    """
    source = (weights, rope_tables, X, plan)
    _require_instance("weights", weights, HeadWeights)
    _require_instance("rope_tables", rope_tables, RopeTables, optional=True)
    _require_instance("plan", plan, PermutationPlan, optional=True)
    X = _require_real_array("X", X)
    if X.ndim != 2 or X.shape[1] != weights.d_model:
        raise ShapeMismatch(f"activations {X.shape} do not match d_model={weights.d_model}")
    tables, gather = rope_tables, lambda w: w
    if plan is not None:
        if len(plan.perm) != weights.d_h:
            raise PlanMismatch(f"plan is for d_h={len(plan.perm)}, weights have d_h={weights.d_h}")
        if (plan.rope is None) != (rope_tables is None):
            raise PlanMismatch("plan and call disagree on whether rotation is in use")
        tables, gather = plan.rope, plan.perm.apply

    # each gathered plan weight matrix is dropped right after its product
    with np.errstate(over="ignore", invalid="ignore"):  # see _check_overflow
        keys = X @ gather(weights.w_k).T
        stacked = np.empty((2 if fmt_k is None else 3,) + keys.shape)
        np.matmul(X, gather(weights.w_q).T, out=stacked[0])
    stacked[1] = keys
    _check_overflow(stacked[:2])
    key_cache = None if fmt_k is None else _cache_keys(keys, fmt_k, stacked[2])
    rotated = _rotate(tables, stacked)
    # the last slab is the decoded keys; lossless keys are their own decode
    queries, rotated_keys, decoded_keys = rotated[0], rotated[1], rotated[-1]
    _check_overflow(queries)
    return _Projection(source, keys, queries, rotated_keys, tables, fmt_k, key_cache, decoded_keys)


def _rotate(tables: RopeTables | None, x: np.ndarray) -> np.ndarray:
    """Rotate queries or cached keys ``(..., T, d_h)`` to their positions 0..T-1,
    in place and :data:`TILE` rows of every slab at a time: ``x`` is a float64
    array that the caller alone holds."""
    if tables is None:
        return x
    with np.errstate(over="ignore", invalid="ignore"):  # see _check_overflow
        for r0 in range(0, x.shape[-2], TILE):
            tile = x[..., r0:r0 + TILE, :]
            tile[...] = rope_apply(tables, tile, r0 + np.arange(tile.shape[-2]))
    return x


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

    The decode projects the head and casts the keys into the cache a tile at
    a time (:func:`_project` with ``fmt_k``), which turns the queries,
    reference keys and decoded keys together in one stacked rotation
    (lossless keys are their own decode, so they reuse the rotated
    reference), then casts and scores the queries one tile at a time
    (:func:`_causal_gap`).  A key or query block that overflows its exponent
    raises the :class:`~bfpksort.errors.ExponentOverflow` of a whole-matrix
    cast, naming the block by its row in the matrix.  An argument of another
    type than its annotation raises :class:`InvalidValue` before any
    projection.

    A sweep scores every format pair of one plan on one projection by
    passing it as the private ``_projection``; one built from any other
    ``weights``, ``rope_tables``, ``X`` or ``plan`` object raises
    :class:`PlanMismatch` before any cast.  The sweep builds that projection
    without a key format, and a pair whose ``fmt_k`` it was not built for
    casts its keys in the same tiles and turns its decoded keys alone:
    stacking every key format's decoded keys into one rotation would grow the
    temporaries of :func:`rope_apply` with the stack (the default sweep's
    peak rose from 1.42 to 1.85 MiB that way), for ``cos``/``sin`` that cost
    little at the sweep's T = 64.

    The score error is reduced one square tile of :data:`TILE` query rows
    and keys at a time, so neither a T x T score map nor a whole matrix of
    decoded queries is ever built, and the keys are cast a tile at a time
    into the cache, so no whole float64 matrix of their cast is built
    either: one sorted decode peaks at 68.9 MiB at T = 16384.
    """
    _require_instance("fmt_k", fmt_k, BfpFormat, optional=True)
    _require_instance("fmt_q", fmt_q, BfpFormat, optional=True)
    projection = _projection
    if projection is None:
        projection = _project(weights, rope_tables, X, plan, fmt_k)
    elif not all(a is b for a, b in zip(projection.source, (weights, rope_tables, X, plan))):
        raise PlanMismatch(
            "projection was built for another head, rotary tables, activations or plan"
        )
    keys, queries, reference = projection.keys, projection.queries, projection.rotated_keys
    key_cache, decoded = projection.key_cache, projection.decoded_keys
    if fmt_k != projection.fmt_k:  # a projection shared by the pairs of a sweep
        key_cache, decoded = None, reference
        if fmt_k is not None:
            decoded = np.empty_like(keys)
            key_cache = _cache_keys(keys, fmt_k, decoded)
            decoded = _rotate(projection.tables, decoded)
    score_err = _causal_gap(queries, decoded, queries, reference, fmt_q)
    _check_overflow(score_err)
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
    order 1.  An argument of another type than its annotation raises
    :class:`InvalidValue` before any projection.
    """
    _require_instance("plan", plan, PermutationPlan)
    ref = _project(weights, rope_tables, X, None)
    perm = _project(weights, rope_tables, X, plan)
    scale = _causal_gap(ref.queries, ref.rotated_keys)
    diff = _causal_gap(perm.queries, perm.rotated_keys, ref.queries, ref.rotated_keys)
    _check_overflow(scale, diff)
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
    """Reconstruction error of ``quantized`` against a finite float ``reference``.

    ``None`` is lossless float64 storage, the ``key_cache`` of a lossless
    decode: exact, so MSE and max error 0.0, SQNR +inf and 64 bits per
    element, without reading the reference.  Padding never appears (decoding strips
    it).  All reductions are permutation-invariant, see module docstring.
    """
    _require_instance("quantized", quantized, BfpTensor, optional=True)
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
    causal (lower-triangular) part of the score map: finite, since a decode
    whose scores overflow raises, and 0.0 for zero tokens."""
    _require_instance("trace", trace, DecodeTrace)
    return trace.score_err
