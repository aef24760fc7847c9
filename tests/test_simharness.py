"""Decode simulator: generators, traces, exactness, metrics, cache bytes."""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import re
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from bfpksort import (
    BFP12_32,
    BFP16_32,
    BfpFormat,
    BfpKsortError,
    HeadWeights,
    OutlierSpec,
    Permutation,
    PermutationPlan,
    RopeTables,
    default_rope_tables,
    dequantize,
    error_metrics,
    exactness_check,
    gen_activations,
    gen_outlier_head,
    pack,
    plan_head,
    quantize_block,
    quantize_tensor,
    remap_rope_tables,
    rope_apply,
    score_max_abs_err,
    simharness,
    simulate_decode,
)
from bfpksort.bfp import BFP12_64, BFP16_64, BFP16_128
from bfpksort.errors import ExponentOverflow, InvalidRopeTables, InvalidValue, PlanMismatch
from bfpksort.errors import ShapeMismatch
from bfpksort.errors import _require_real_array
from bfpksort.simharness import ErrorReport

BFP12_4 = BfpFormat(mantissa_bits=4, block_size=4)


# ---------------------------------------------------------------------------
# synthetic head generation
# ---------------------------------------------------------------------------


def test_generator_is_deterministic():
    spec = OutlierSpec(n_outlier_channels=4, outlier_scale=30.0, seed=42)
    a = gen_outlier_head(64, 32, spec)
    b = gen_outlier_head(64, 32, spec)
    assert np.array_equal(a.w_k, b.w_k)
    assert np.array_equal(a.w_q, b.w_q)
    assert np.array_equal(gen_activations(10, 32, 42), gen_activations(10, 32, 42))


def test_no_outliers_means_no_heavy_tail():
    spec = OutlierSpec(n_outlier_channels=0, outlier_scale=100.0, seed=1)
    head = gen_outlier_head(128, 256, spec)
    norms = np.linalg.norm(head.w_k, axis=1)
    assert norms.max() / norms.min() < 2.0


def test_outlier_rows_dominate_norm_histogram():
    spec = OutlierSpec(n_outlier_channels=4, outlier_scale=100.0, seed=2)
    head = gen_outlier_head(128, 256, spec)
    norms = np.linalg.norm(head.w_k, axis=1)
    median = float(np.median(norms))
    big = norms / median > 50.0
    assert big.sum() == 4
    assert np.all(norms[big] / median < 200.0)


def test_activation_stream_independent_of_token_count():
    short = gen_activations(4, 16, 7)
    long = gen_activations(9, 16, 7)
    assert np.array_equal(short, long[:4])


def test_outlier_spec_validation():
    with pytest.raises(ValueError):
        OutlierSpec(n_outlier_channels=-1, outlier_scale=10.0)
    with pytest.raises(ValueError):
        OutlierSpec(n_outlier_channels=1, outlier_scale=0.5)
    with pytest.raises(ValueError):
        gen_outlier_head(4, 8, OutlierSpec(n_outlier_channels=8, outlier_scale=10.0))
    for spec in (OutlierSpec(1, 1e308, base_std=10.0), OutlierSpec(0, 1.0, base_std=1e308)):
        with pytest.raises(ValueError, match="weights overflow float64"):
            gen_outlier_head(4, 8, spec)


@pytest.mark.parametrize(
    "field, value",
    [("n_outlier_channels", 1.5), ("n_outlier_channels", True), ("seed", 1.5), ("seed", -1),
     ("outlier_scale", 10**400), ("outlier_scale", True), ("base_std", True),
     ("base_std", 10**400), ("n_outlier_channels", -1), ("n_outlier_channels", math.nan),
     ("n_outlier_channels", "8"), ("seed", True), ("seed", math.nan), ("seed", "8"),
     ("outlier_scale", -1), ("outlier_scale", "8"), ("base_std", -1), ("base_std", "8")],
    ids=["fractional_channels", "bool_channels", "fractional_seed", "negative_seed",
         "huge_scale", "bool_scale", "bool_std", "huge_std", "negative_channels",
         "nan_channels", "string_channels", "bool_seed", "nan_seed", "string_seed",
         "negative_scale", "string_scale", "negative_std", "string_std"],
)
def test_outlier_spec_rejects_a_field_of_the_wrong_type(field, value):
    # refused when the spec is built, naming the field, not later by numpy or a float cast
    with pytest.raises(InvalidValue, match=f"^{field} must be"):
        OutlierSpec(**{"n_outlier_channels": 1, "outlier_scale": 2.0, field: value})


def test_outlier_spec_rejects_non_finite_values():
    # refused when the spec is built, naming the field, not later as an overflow
    for kwargs in (
        dict(outlier_scale=math.nan),
        dict(outlier_scale=math.inf),
        dict(outlier_scale=2.0, base_std=math.inf),
        dict(outlier_scale=2.0, base_std=math.nan),
    ):
        field = "base_std" if "base_std" in kwargs else "outlier_scale"
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            OutlierSpec(1, **kwargs)


# ---------------------------------------------------------------------------
# simulate_decode
# ---------------------------------------------------------------------------


def _small_setup(seed=0, d_h=8, d_model=16, n_tokens=6, rope=True):
    weights = gen_outlier_head(d_h, d_model, OutlierSpec(2, 20.0, seed=seed))
    X = gen_activations(n_tokens, d_model, seed)
    tables = default_rope_tables(d_h) if rope else None
    return weights, tables, X


def test_lossless_trace_matches_reference():
    weights, tables, X = _small_setup()
    trace = simulate_decode(weights, tables, X)
    keys, _, scores_ref, scores = _dense_decode_oracle(weights, tables, X)
    assert trace.key_cache is None
    assert np.array_equal(trace.keys, keys)
    assert np.array_equal(scores, scores_ref)
    assert score_max_abs_err(trace) == 0.0


def test_cache_holds_unrotated_keys():
    weights, tables, X = _small_setup()
    trace = simulate_decode(weights, tables, X, fmt_k=BFP12_4)
    assert np.array_equal(trace.keys, X @ weights.w_k.T)
    # the cache quantizes exactly those keys
    expected = dequantize(quantize_tensor(trace.keys, BFP12_4, 1))
    assert np.array_equal(dequantize(trace.key_cache), expected)


def test_identity_plan_equals_no_plan():
    weights, tables, X = _small_setup()
    identity = PermutationPlan(
        perm=Permutation.identity(weights.d_h),
        rope=remap_rope_tables(tables, Permutation.identity(weights.d_h)),
    )
    a = simulate_decode(weights, tables, X, BFP12_4, BFP12_4)
    b = simulate_decode(weights, tables, X, BFP12_4, BFP12_4, plan=identity)
    assert np.array_equal(a.keys, b.keys)
    assert np.array_equal(dequantize(a.key_cache), dequantize(b.key_cache))
    assert score_max_abs_err(a) > 0.0
    assert score_max_abs_err(a) == score_max_abs_err(b)


def test_scores_are_causal(monkeypatch):
    # query i scaled by 2**-i, key j by 2**j: a deviation above the diagonal (an
    # early query against a later key) outweighs the causal ones by 2**(j - i),
    # so a mask that lets any through, even inside a 7-row tile, shows
    t, d_h = 65, 8
    weights = HeadWeights(
        w_k=np.hstack([np.zeros((d_h, d_h)), np.eye(d_h)]),
        w_q=np.hstack([np.eye(d_h), np.zeros((d_h, d_h))]),
    )
    ramp = np.exp2(np.arange(t))[:, None]
    X = gen_activations(t, 2 * d_h, 3) * np.hstack([1.0 / ramp.repeat(d_h, 1), ramp.repeat(d_h, 1)])
    tables = default_rope_tables(d_h)
    _, _, scores_ref, scores = _dense_decode_oracle(weights, tables, X, BFP12_4, BFP12_4)
    dev = np.abs(_unmasked(weights, tables, X, BFP12_4, BFP12_4))
    within_7_rows = np.triu(dev, k=1) - np.triu(dev, k=7)
    assert within_7_rows.max() > 2.0 * np.tril(dev).max()
    bound = _rounding_bound(weights, tables, X, BFP12_4, BFP12_4)
    for rows in (None, 7, 1):
        with monkeypatch.context() as patch:
            _patch_rows(patch, rows)
            trace = simulate_decode(weights, tables, X, BFP12_4, BFP12_4)
            _assert_oracle_value(
                score_max_abs_err(trace), _score_err_oracle(scores_ref, scores), rows, bound
            )


def test_plan_from_other_weights_rejected():
    # a plan holds no weights, so any permutation of the head's width fits;
    # a plan for another head dimension does not
    weights, tables, X = _small_setup(d_h=8)
    other, other_tables, _ = _small_setup(d_h=10)
    plan = plan_head(other, other_tables)
    with pytest.raises(PlanMismatch):
        simulate_decode(weights, tables, X, plan=plan)
    with pytest.raises(PlanMismatch):
        exactness_check(weights, plan, X, tables)
    same_width, _, _ = _small_setup(seed=4)
    assert exactness_check(weights, plan_head(same_width, tables), X, tables) <= 1e-12


def test_rope_flag_confusion_rejected():
    weights, tables, X = _small_setup()
    plan_with_rope = plan_head(weights, tables)
    with pytest.raises(PlanMismatch):
        simulate_decode(weights, None, X, plan=plan_with_rope)
    plan_without = plan_head(weights, None)
    with pytest.raises(PlanMismatch):
        simulate_decode(weights, tables, X, plan=plan_without)


def test_activation_shape_checked():
    weights, tables, X = _small_setup()
    with pytest.raises(ShapeMismatch):
        simulate_decode(weights, tables, X[:, :-1])


@pytest.mark.parametrize(
    "name, other",
    [("weights", lambda w, t, X, p: HeadWeights(w_k=w.w_k, w_q=w.w_q)),
     ("weights", lambda w, t, X, p: _small_setup(seed=1)[0]),
     ("rope_tables", lambda w, t, X, p: default_rope_tables(w.d_h)),
     ("X", lambda w, t, X, p: X.copy()),
     ("plan", lambda w, t, X, p: None),
     ("plan", lambda w, t, X, p: plan_head(w, t))],
    ids=["equal_head", "other_head", "equal_tables", "equal_activations", "no_plan", "equal_plan"],
)
def test_projection_for_other_inputs_is_refused_before_any_cast(monkeypatch, name, other):
    # matched by identity: an equal copy of an input is another input
    calls = []

    def recording_cast(*args, **kwargs):
        calls.append(args)
        return quantize_tensor(*args, **kwargs)

    monkeypatch.setattr(simharness, "quantize_tensor", recording_cast)
    weights, tables, X = _small_setup()
    args = {"weights": weights, "rope_tables": tables, "X": X, "plan": plan_head(weights, tables)}
    projection = simharness._project(**args)
    args[name] = other(*args.values())
    with pytest.raises(PlanMismatch, match="projection was built for another"):
        simulate_decode(**args, fmt_k=BFP12_4, fmt_q=BFP12_4, _projection=projection)
    assert calls == []


def test_a_decode_rotates_queries_and_keys_once_and_decoded_keys_once(monkeypatch):
    # a BFP decode turns its queries, reference keys and decoded keys in one stacked
    # rotation, in tiles of rows: each of the 3T rows turns once, to its own position;
    # a lossless decode turns its 2T stacked rows; a pair scored on a projection shared
    # by a sweep (built without a key format) turns its decoded keys alone
    turned = []

    def counted(tables, x, m):
        turned.extend((x.shape[:-2], int(p)) for p in m)
        return rope_apply(tables, x, m)

    monkeypatch.setattr(simharness, "rope_apply", counted)
    monkeypatch.setattr(simharness, "TILE", 2)  # two rows of every slab
    weights, tables, X = _small_setup()
    plan = plan_head(weights, tables)
    positions = list(range(len(X)))
    simulate_decode(weights, tables, X, BFP12_4, BFP12_4, plan=plan)
    assert turned == [((3,), p) for p in positions]
    turned.clear()
    simulate_decode(weights, tables, X, None, BFP12_4, plan=plan)
    assert turned == [((2,), p) for p in positions]
    projection = simharness._project(weights, tables, X, plan)
    turned.clear()
    for fmt_k in (BFP12_4, None):
        simulate_decode(weights, tables, X, fmt_k, BFP12_4, plan=plan, _projection=projection)
    assert turned == [((), p) for p in positions]


def test_cache_append_equals_batch_quantization():
    # blocks never span tokens, so growing the cache one key at a time gives
    # the same blocks as quantizing the full key matrix after the fact
    weights, tables, X = _small_setup(n_tokens=5)
    trace = simulate_decode(weights, tables, X, fmt_k=BFP12_4)
    for t in range(5):
        for j, blk in enumerate(np.split(trace.keys[t], 2)):
            ref = quantize_block(blk, BFP12_4)
            got = trace.key_cache.block(t * 2 + j)
            assert got.exponent == ref.exponent
            assert np.array_equal(got.mantissas, ref.mantissas)


_TILE = simharness.TILE


@pytest.mark.parametrize("rows", [None, 7], ids=["default", "rows_7"])
@pytest.mark.parametrize("n_tokens", [0, 1, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 5])
def test_key_cache_cast_in_tiles_is_the_whole_matrix_cast(monkeypatch, rows, n_tokens):
    # d_h = 40 at block 32 leaves a ragged block on every row; each tile's rows land
    # in the cache's arrays and in the decoded slab with the bits of one whole cast
    _patch_rows(monkeypatch, rows)
    rng = np.random.default_rng(n_tokens)
    keys = rng.normal(size=(n_tokens, 40)) * np.exp2(rng.integers(-8, 9, size=(n_tokens, 1)))
    decoded = np.full_like(keys, np.nan)
    cache = simharness._cache_keys(keys, BFP12_32, decoded)
    want = quantize_tensor(keys, BFP12_32, blocking_axis=1)
    assert (cache.fmt, cache.logical_shape, cache.blocking_axis) == (
        want.fmt, want.logical_shape, want.blocking_axis
    )
    for got, expected in ((cache.exponents, want.exponents), (cache.mantissas, want.mantissas)):
        assert (got.dtype, got.shape) == (expected.dtype, expected.shape)
        assert got.tobytes() == expected.tobytes()
    assert pack(cache) == pack(want)
    assert decoded.tobytes() == dequantize(want).tobytes()


def _overflowing_head():
    """A head whose keys and queries are both ``X @ eye(16, 8).T``, and 300 tokens
    of which only token 290 holds 1e60, in channel 3: its block overflows BFP16_32."""
    eye = np.eye(16, 8)
    X = gen_activations(300, 8, 0)
    X[290, 3] = 1e60
    return HeadWeights(w_k=eye, w_q=eye), X, X @ eye.T


@pytest.mark.parametrize("rows", [None, 7], ids=["default", "rows_7"])
@pytest.mark.parametrize("shared", [False, True], ids=["decode", "shared_projection"])
@pytest.mark.parametrize("cast", ["keys", "queries"])
def test_cast_overflow_names_its_block_by_its_row_in_the_matrix(monkeypatch, rows, shared, cast):
    # row 290 is in a later tile (at rows [256, 300) by default, [287, 294) at 7 rows);
    # the decode casts its keys and queries a tile at a time, but names the block as
    # one cast of the whole matrix does: block (290, 0), not by its row in its tile
    _patch_rows(monkeypatch, rows)
    weights, X, projected = _overflowing_head()
    with pytest.raises(ExponentOverflow) as whole:
        quantize_tensor(projected, BFP16_32, blocking_axis=1)
    assert str(whole.value).startswith("block (290, 0): ")
    fmts = (BFP16_32, None) if cast == "keys" else (None, BFP16_32)
    projection = simharness._project(weights, None, X, None) if shared else None
    with pytest.raises(ExponentOverflow) as tiled:
        simulate_decode(weights, None, X, *fmts, _projection=projection)
    assert (type(tiled.value), str(tiled.value)) == (type(whole.value), str(whole.value))


def test_sorted_beats_unsorted_on_outlier_head():
    # block smaller than the head dimension: grouping the hot channels into
    # one block keeps them out of everyone else's exponent
    weights = gen_outlier_head(128, 256, OutlierSpec(4, 20.0, seed=0))
    X = gen_activations(64, 256, 0)
    tables = default_rope_tables(128)
    plan = plan_head(weights, tables)
    unsorted = simulate_decode(weights, tables, X, BFP12_64, BFP16_64)
    sorted_ = simulate_decode(weights, tables, X, BFP12_64, BFP16_64, plan=plan)
    mse_u = error_metrics(unsorted.keys, unsorted.key_cache).mse
    mse_s = error_metrics(sorted_.keys, sorted_.key_cache).mse
    assert mse_s < mse_u
    assert score_max_abs_err(sorted_) < score_max_abs_err(unsorted)


def _cache_mse(weights, tables, X, fmt_k, plan=None):
    trace = simulate_decode(weights, tables, X, fmt_k, plan=plan)
    return error_metrics(trace.keys, trace.key_cache).mse


def test_format_plan_never_loses_in_the_median_across_scales():
    # the plain norm sort loses to the unsorted cache at 100x; the plan built
    # for the key format must not, at any outlier magnitude
    tables = default_rope_tables(128)
    for scale in (5.0, 10.0, 20.0, 50.0, 100.0):
        for block in (32, 64):
            fmt_k = BfpFormat(mantissa_bits=4, block_size=block)
            reductions = []
            for seed in range(8):
                weights = gen_outlier_head(128, 256, OutlierSpec(4, scale, seed=seed))
                X = gen_activations(512, 256, seed)
                plan = plan_head(weights, tables, fmt=fmt_k)
                mse_u = _cache_mse(weights, tables, X, fmt_k)
                mse_s = _cache_mse(weights, tables, X, fmt_k, plan)
                reductions.append((mse_u - mse_s) / mse_u)
            assert np.median(reductions) > 0.0, (scale, block, reductions)


def test_format_plan_keeps_scores_exact():
    weights, tables, X = _small_setup()
    plan = plan_head(weights, tables, fmt=BFP12_4)
    assert exactness_check(weights, plan, X, tables) <= 1e-12


# ---------------------------------------------------------------------------
# dense oracle: simulate_decode, score_max_abs_err and exactness_check as they
# were before the decode streamed over tiles of the score map, building both
# T x T score maps in one product each
# ---------------------------------------------------------------------------


def _dense_operands(weights, rope_tables, X, fmt_k=None, fmt_q=None, plan=None):
    """``(keys, queries, keys_rot_ref, deq_queries, keys_rot_deq)``: the score
    map operands, reference and dequantized, over all T tokens."""
    X = np.asarray(X, dtype=np.float64)
    w_k, w_q, tables = weights.w_k, weights.w_q, rope_tables
    if plan is not None:
        gather = plan.perm.apply
        w_k, w_q, tables = gather(w_k), gather(w_q), plan.rope

    positions = np.arange(X.shape[0])
    keys = X @ w_k.T
    queries = X @ w_q.T
    if tables is not None:
        queries = rope_apply(tables, queries, positions)

    if fmt_k is not None:
        deq_keys = dequantize(quantize_tensor(keys, fmt_k, blocking_axis=1))
    else:
        deq_keys = keys
    deq_queries = (
        dequantize(quantize_tensor(queries, fmt_q, blocking_axis=1))
        if fmt_q is not None
        else queries
    )

    if tables is not None:
        keys_rot_ref = rope_apply(tables, keys, positions)
        keys_rot_deq = rope_apply(tables, deq_keys, positions)
    else:
        keys_rot_ref, keys_rot_deq = keys, deq_keys
    return keys, queries, keys_rot_ref, deq_queries, keys_rot_deq


def _dense_decode_oracle(weights, rope_tables, X, fmt_k=None, fmt_q=None, plan=None):
    """``(keys, queries, scores_ref, scores)`` with the full causal score maps."""
    keys, queries, keys_rot_ref, deq_queries, keys_rot_deq = _dense_operands(
        weights, rope_tables, X, fmt_k, fmt_q, plan
    )
    return (
        keys,
        queries,
        np.tril(queries @ keys_rot_ref.T),
        np.tril(deq_queries @ keys_rot_deq.T),
    )


def _score_err_oracle(scores_ref, scores):
    t = scores.shape[0]
    if t == 0:
        return 0.0
    tri = np.tril_indices(t)
    return float(np.abs(scores[tri] - scores_ref[tri]).max())


def _exactness_oracle(weights, plan, X, rope_tables=None):
    orig = _dense_decode_oracle(weights, rope_tables, X)[2]
    perm = _dense_decode_oracle(weights, rope_tables, X, plan=plan)[2]
    scale = float(np.abs(orig).max())
    diff = float(np.abs(orig - perm).max())
    return diff / scale if scale > 0.0 else diff


def _unmasked(weights, tables, X, fmt_k, fmt_q):
    """Score deviation over every token pair, causal or not."""
    _, queries, keys_rot_ref, deq_queries, keys_rot_deq = _dense_operands(
        weights, tables, X, fmt_k, fmt_q
    )
    return deq_queries @ keys_rot_deq.T - queries @ keys_rot_ref.T


def _rounding_bound(weights, tables, X, fmt_k=None, fmt_q=None, plan=None):
    """How far a causal score error may move when its products are tiled
    differently.

    Any summation order puts a dot product of length d_h within
    ``d_h * eps * sum|q||k|`` of the exact value, so two orders differ by twice
    that, and a score error, the difference of two scores, by four times.
    """
    _, queries, keys_rot_ref, deq_queries, keys_rot_deq = _dense_operands(
        weights, tables, X, fmt_k, fmt_q, plan
    )
    largest = max(
        float(np.tril(np.abs(q) @ np.abs(k).T).max(initial=0.0))
        for q, k in ((queries, keys_rot_ref), (deq_queries, keys_rot_deq))
    )
    gamma = 1.01 * weights.d_h * np.finfo(np.float64).eps
    return 4.0 * gamma * largest


def _patch_rows(monkeypatch, rows):
    """Make the decode rotate, cast and score tiles of ``rows`` rows; ``None``
    keeps the module's :data:`simharness.TILE`."""
    if rows is not None:
        monkeypatch.setattr(simharness, "TILE", rows)


def _patch_rotate_rows(monkeypatch, rows):
    """Make :func:`simharness._rotate` turn tiles of ``rows`` rows of every slab,
    while the decode casts and scores tiles of the module's :data:`simharness.TILE`."""
    rotate, default = simharness._rotate, simharness.TILE

    def rotate_in_tiles(tables, x):
        simharness.TILE = rows
        try:
            return rotate(tables, x)
        finally:
            simharness.TILE = default

    monkeypatch.setattr(simharness, "_rotate", rotate_in_tiles)


def _fuzz_tokens(tokens, rows):
    """``tokens`` without the lengths above 65 for 1-row tiles, which would score
    T * (T + 1) / 2 one-element tiles (131k at T = 512)."""
    return tuple(t for t in tokens if rows != 1 or t <= 65)


def _assert_oracle_value(got, want, rows, bound):
    if rows is None or got == want:
        # at the default tile the products of every fuzzed T match the dense
        # map's, a tile or not
        assert got == want
    else:
        # BLAS sums a product's dot products in an order that depends on the
        # tile shape, so a re-tiled score can move in its last bits
        assert abs(got - want) <= bound, (got, want, bound)


_FUZZ_TOKENS = (1, 2, 63, 64, 65, 511, 512)


def _fuzz_head(seed, rope, d_h=16):
    weights = gen_outlier_head(d_h, 24, OutlierSpec(2, 20.0, seed=seed))
    tables = None if rope == "off" else default_rope_tables(d_h, layout=rope)
    return weights, tables


@pytest.mark.parametrize("rope", ["interleaved", "half_split", "off"])
@pytest.mark.parametrize("rows", [1, 7, None], ids=["rows_1", "rows_7", "default"])
def test_score_error_matches_dense_oracle(monkeypatch, rows, rope):
    weights, tables = _fuzz_head(len(rope), rope)
    plan = plan_head(weights, tables)
    _patch_rows(monkeypatch, rows)
    for t in _fuzz_tokens(_FUZZ_TOKENS, rows):
        X = gen_activations(t, weights.d_model, t)
        for use_plan in (None, plan):
            for fmt_k, fmt_q in ((None, None), (BfpFormat(4, 8), BfpFormat(8, 8))):
                trace = simulate_decode(weights, tables, X, fmt_k, fmt_q, plan=use_plan)
                keys, _, scores_ref, scores = _dense_decode_oracle(
                    weights, tables, X, fmt_k, fmt_q, use_plan
                )
                assert np.array_equal(trace.keys, keys)
                _assert_oracle_value(
                    score_max_abs_err(trace), _score_err_oracle(scores_ref, scores), rows,
                    _rounding_bound(weights, tables, X, fmt_k, fmt_q, use_plan),
                )


@pytest.mark.parametrize("rope", ["interleaved", "half_split", "off"])
@pytest.mark.parametrize("rows", [1, 7, None], ids=["rows_1", "rows_7", "default"])
def test_exactness_check_matches_dense_oracle(monkeypatch, rows, rope):
    weights, tables = _fuzz_head(len(rope) + 1, rope)
    plans = [plan_head(weights, tables)]
    if tables is not None:
        # valid tables left unremapped: rotation acts on the wrong pairs, deviations of order 1
        plans.append(replace(plans[0], rope=tables))
    _patch_rows(monkeypatch, rows)
    for t in _fuzz_tokens(_FUZZ_TOKENS, rows):
        X = gen_activations(t, weights.d_model, t)
        scale = float(np.abs(_dense_decode_oracle(weights, tables, X)[2]).max())
        for plan in plans:
            # both maps and the scale move: a deviation ratio of order 1 moves
            # by at most a few times the score bound over the scale
            bound = 3.0 * (
                _rounding_bound(weights, tables, X) + _rounding_bound(weights, tables, X, plan=plan)
            ) / max(scale, np.finfo(np.float64).tiny)
            _assert_oracle_value(
                exactness_check(weights, plan, X, tables),
                _exactness_oracle(weights, plan, X, tables), rows, bound,
            )


# ---------------------------------------------------------------------------
# streamed oracle: the tiles simulate_decode and exactness_check score, each
# formed in a new array with no buffer or mask reuse, kept to pin the kernel's bits
# ---------------------------------------------------------------------------


def _tiles_oracle(n_tokens: int):
    """``(i0, i1, j0, j1)``: query rows ``[i0, i1)`` against keys ``[j0, j1)``, in
    square tiles of :data:`simharness.TILE` rows, clamped to T, for ``j0 <= i0``."""
    tile = max(1, min(simharness.TILE, n_tokens))
    for i0 in range(0, n_tokens, tile):
        for j0 in range(0, i0 + 1, tile):
            yield i0, min(n_tokens, i0 + tile), j0, min(n_tokens, j0 + tile)


def _causal_max_oracle(values, i0, j0):
    return np.tril(values).max() if i0 == j0 else values.max()


def _streamed_score_err_oracle(weights, rope_tables, X, fmt_k=None, fmt_q=None, plan=None):
    keys, queries, keys_rot_ref, deq_queries, keys_rot_deq = _dense_operands(
        weights, rope_tables, X, fmt_k, fmt_q, plan
    )
    score_err = np.float64(0.0)
    for i0, i1, j0, j1 in _tiles_oracle(keys.shape[0]):
        err = deq_queries[i0:i1] @ keys_rot_deq[j0:j1].T
        err -= queries[i0:i1] @ keys_rot_ref[j0:j1].T
        score_err = np.maximum(score_err, _causal_max_oracle(np.abs(err, out=err), i0, j0))
    return float(score_err)


def _streamed_exactness_oracle(weights, plan, X, rope_tables=None):
    _, queries, keys = _dense_operands(weights, rope_tables, X)[:3]
    _, p_queries, p_keys = _dense_operands(weights, rope_tables, X, plan=plan)[:3]
    scale = diff = np.float64(0.0)
    for i0, i1, j0, j1 in _tiles_oracle(keys.shape[0]):
        ref = queries[i0:i1] @ keys[j0:j1].T
        dev = p_queries[i0:i1] @ p_keys[j0:j1].T
        dev -= ref
        scale = np.maximum(scale, _causal_max_oracle(np.abs(ref, out=ref), i0, j0))
        diff = np.maximum(diff, _causal_max_oracle(np.abs(dev, out=dev), i0, j0))
    scale, diff = float(scale), float(diff)
    return diff / scale if scale > 0.0 else diff


@pytest.mark.parametrize("rope", ["interleaved", "half_split", "off"])
@pytest.mark.parametrize("rows", [1, 7, None], ids=["rows_1", "rows_7", "default"])
def test_score_kernel_matches_streamed_oracle_bitwise(monkeypatch, rows, rope):
    weights, tables = _fuzz_head(len(rope) + 2, rope)
    plan = plan_head(weights, tables)
    plans = [plan]
    if tables is not None:
        plans.append(replace(plan, rope=tables))  # valid, but not remapped
    formats = ((None, None), (BfpFormat(4, 8), BfpFormat(8, 8)), (BfpFormat(4, 16), None))
    _patch_rows(monkeypatch, rows)
    for t in _fuzz_tokens((0, 1, 5, 33, 200), rows):
        X = gen_activations(t, weights.d_model, t + 100)
        for use_plan in (None, plan):
            for fmt_k, fmt_q in formats:
                got = simulate_decode(weights, tables, X, fmt_k, fmt_q, plan=use_plan).score_err
                want = _streamed_score_err_oracle(weights, tables, X, fmt_k, fmt_q, use_plan)
                assert got.hex() == want.hex(), (t, use_plan, fmt_k, fmt_q)
        for p in plans:
            got = exactness_check(weights, p, X, tables)
            assert got.hex() == _streamed_exactness_oracle(weights, p, X, tables).hex(), t
        if t:
            # a NaN activation is refused by name before any projection, on any grid
            X[t // 2, 1] = np.nan
            message = f"X must be finite, got nan at index ({t // 2}, 1)"
            with pytest.raises(InvalidValue, match=f"^{re.escape(message)}$"):
                simulate_decode(weights, tables, X, plan=plan)


def test_nan_in_a_later_block_makes_score_error_nan(monkeypatch):
    # a decode's operands are finite, but a score that overflows makes inf - inf in
    # the kernel; a running max built on Python's max() would drop the NaN of that
    # later tile, since max(0.0, nan) is 0.0, and the overflow would go unnamed
    q, k = np.random.default_rng(3).normal(size=(2, 64, 8))
    q[50] *= 1e300  # row 50 against the 1e300 keys overflows; every other score is finite
    k[:8] *= 1e300
    _patch_rows(monkeypatch, 8)
    assert math.isnan(simharness._causal_gap(q, k, q, k))
    q[50] = 0.0
    assert simharness._causal_gap(q, k, q, k) == 0.0


def test_nan_activations_on_a_bfp_grid_are_non_finite_input():
    # not an overflow: refused by name before any projection, as on a lossless grid
    weights, tables, X = _small_setup()
    X[2, 3] = np.nan
    with pytest.raises(InvalidValue, match=re.escape("X must be finite, got nan at index (2, 3)")):
        simulate_decode(weights, tables, X, BFP12_4, BFP12_4)


def test_non_finite_query_in_a_later_block_is_named_by_its_row(monkeypatch):
    # the activation that would make a non-finite query is named by its row in X,
    # before the query cast, whose tiles of eight rows would otherwise meet it
    weights, tables, X = _small_setup(n_tokens=64)
    X[50, 3] = np.nan
    _patch_rows(monkeypatch, 8)
    with pytest.raises(InvalidValue, match=re.escape("X must be finite, got nan at index (50, 3)")):
        simulate_decode(weights, tables, X, None, BFP12_4)


_BFP_PAIR = (BfpFormat(4, 8), BfpFormat(8, 8))


@pytest.mark.parametrize(
    "w_k, w_q, fmts",
    [(1e307, 1.0, ()), (3e307, 1.0, ()), (5e307, 1.0, ()), (5e307, 1.0, _BFP_PAIR),
     (1.0, 5e307, _BFP_PAIR)],
    ids=["scores", "rotation", "keys", "keys_bfp", "queries_bfp"],
)
def test_finite_head_overflowing_float64_raises(w_k, w_q, fmts):
    # every key is w_k times the sum of a token's 8 activations (up to about 6x):
    # finite keys whose scores overflow, keys whose rotation overflows, keys that
    # do; on a BFP grid, keys or queries that overflow before their cast
    weights = HeadWeights(w_k=np.full((16, 8), w_k), w_q=np.full((16, 8), w_q))
    tables = default_rope_tables(16)
    X = gen_activations(6, 8, 0)
    with pytest.raises(InvalidValue, match="overflow float64"):
        simulate_decode(weights, tables, X, *fmts)
    with pytest.raises(InvalidValue, match="overflow float64"):
        exactness_check(weights, plan_head(weights, tables), X, tables)


# ---------------------------------------------------------------------------
# branching oracle: simulate_decode and exactness_check as they were before
# _project named a float64 overflow, with a lossless branch and a rotation or
# cast that re-raised its non-finite input as an overflow, kept to pin the
# straight path; activations are read by the array rule, so they are finite
# ---------------------------------------------------------------------------


def _unchecked_project_oracle(weights, rope_tables, X, plan):
    """Pre-rotation keys and queries, and the tables that turn them."""
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

    with np.errstate(over="ignore", invalid="ignore"):
        return X @ w_k.T, X @ w_q.T, tables


def _rotated_oracle(tables, x):
    """``x`` turned to positions 0..T-1 into a new array, as the decode did before
    it rotated in place."""
    if tables is None:
        return x
    with np.errstate(over="ignore", invalid="ignore"):
        return rope_apply(tables, x, np.arange(x.shape[-2]))


def _branching_decode_oracle(weights, rope_tables, X, fmt_k=None, fmt_q=None, plan=None):
    keys, queries, tables = _unchecked_project_oracle(weights, rope_tables, X, plan)
    try:
        queries = _rotated_oracle(tables, queries)
        if fmt_k is not None:
            key_cache = quantize_tensor(keys, fmt_k, blocking_axis=1)
            keys_rot_ref, keys_rot_deq = _rotated_oracle(
                tables, np.stack([keys, dequantize(key_cache)])
            )
        else:
            key_cache = None
            keys_rot_ref = keys_rot_deq = _rotated_oracle(tables, keys)
        deq_queries = (
            dequantize(quantize_tensor(queries, fmt_q, blocking_axis=1))
            if fmt_q is not None
            else queries
        )
    except InvalidValue:
        simharness._check_overflow(math.nan)
        raise

    score_err = simharness._causal_gap(deq_queries, keys_rot_deq, queries, keys_rot_ref)
    simharness._check_overflow(score_err)
    return simharness.DecodeTrace(keys=keys, key_cache=key_cache, score_err=score_err)


def _branching_exactness_oracle(weights, plan, X, rope_tables=None):
    keys, queries, tables = _unchecked_project_oracle(weights, rope_tables, X, None)
    p_keys, p_queries, p_tables = _unchecked_project_oracle(weights, rope_tables, X, plan)
    try:
        keys, queries = _rotated_oracle(tables, keys), _rotated_oracle(tables, queries)
        p_keys, p_queries = _rotated_oracle(p_tables, p_keys), _rotated_oracle(p_tables, p_queries)
    except InvalidValue:
        simharness._check_overflow(math.nan)
        raise
    scale = simharness._causal_gap(queries, keys)
    diff = simharness._causal_gap(p_queries, p_keys, queries, keys)
    simharness._check_overflow(scale, diff)
    return diff / scale if scale > 0.0 else diff


def _outcome(fn, *args):
    """The bits a decode or exactness check gave, or the type and message it raised."""
    try:
        got = fn(*args)
    except BfpKsortError as exc:
        return type(exc), str(exc)
    if isinstance(got, float):
        return got.hex()
    cache = got.key_cache
    return (
        got.keys.shape, got.keys.tobytes(), got.score_err.hex(),
        None if cache is None else (cache.exponents.tobytes(), cache.mantissas.tobytes()),
    )


#: lossless, BFP16_8, BFP12_8 and two presets; block 128 is one ragged block at d_h 16 and 40
_GRID_FORMATS = (None, BfpFormat(8, 8), BfpFormat(4, 8), BFP12_32, BFP16_128)


def _shared_outcomes(weights, tables, X, use_plan):
    """The outcome of every pair of ``_GRID_FORMATS`` scored on one shared
    projection, as the sweep scores them: a refused projection fails every pair."""
    pairs = list(itertools.product(_GRID_FORMATS, _GRID_FORMATS))
    try:
        projection = simharness._project(weights, tables, X, use_plan)
    except BfpKsortError as exc:
        return {pair: (type(exc), str(exc)) for pair in pairs}
    shared = functools.partial(simulate_decode, _projection=projection)
    return {
        (fmt_k, fmt_q): _outcome(shared, weights, tables, X, fmt_k, fmt_q, use_plan)
        for fmt_k, fmt_q in pairs
    }


def _assert_matches_branching_oracle(weights, tables, X, plan):
    for use_plan in (None, plan):
        shared = _shared_outcomes(weights, tables, X, use_plan)
        for fmt_k, fmt_q in itertools.product(_GRID_FORMATS, _GRID_FORMATS):
            args = (weights, tables, X, fmt_k, fmt_q, use_plan)
            want = _outcome(_branching_decode_oracle, *args)
            context = (X.shape, use_plan is None, fmt_k, fmt_q)
            assert _outcome(simulate_decode, *args) == want, context
            assert shared[fmt_k, fmt_q] == want, context
    args = (weights, plan, X, tables)
    assert _outcome(exactness_check, *args) == _outcome(_branching_exactness_oracle, *args)


@pytest.mark.parametrize("rope", ["interleaved", "half_split", "off"])
@pytest.mark.parametrize(
    "rows, rotate_rows",
    [(1, None), (None, None), (None, 1), (5, None)],
    ids=["rows_1", "default", "rotate_1", "rotate_5"],
)
def test_straight_decode_matches_branching_oracle_bitwise(monkeypatch, rows, rotate_rows, rope):
    # rows_1 and rotate_5 rotate, cast and score tiles of 1 and 5 rows of every slab,
    # so T = 64 ends on a short tile; 1-row tiles score T * (T + 1) / 2 tiles, so they
    # stop at T = 9, and rotate_1 turns 1-row tiles up to T = 64 but casts and scores
    # default tiles; the default tile is all of T <= 256, and two tiles at T = 300
    _patch_rows(monkeypatch, rows)
    if rotate_rows is not None:
        _patch_rotate_rows(monkeypatch, rotate_rows)
    tokens = {1: (0, 1, 5, 9), None: (0, 1, 5, 64, 300)}.get(rows, (0, 1, 5, 64))
    if rotate_rows is not None:
        tokens = (0, 1, 5, 64)
    for d_h in (16, 40):
        weights, tables = _fuzz_head(d_h + len(rope), rope, d_h)
        plan = plan_head(weights, tables)
        for t in tokens:
            _assert_matches_branching_oracle(
                weights, tables, gen_activations(t, weights.d_model, t + 200), plan
            )


def _with(X, index, value):
    X = X.copy()
    X[index] = value
    return X


_X_HOSTILE = gen_activations(6, 8, 0)


@pytest.mark.parametrize(
    "w_k, w_q, X",
    [(1.0, 1.0, _with(_X_HOSTILE, (2, 3), np.nan)), (1.0, 1.0, _with(_X_HOSTILE, (4, 0), -np.inf)),
     (5e307, 1.0, _X_HOSTILE), (1e308, 1.0, _X_HOSTILE), (1.0, 5e307, _X_HOSTILE),
     (1.0, 1e308, _X_HOSTILE), (1e160, 1e160, _X_HOSTILE), (3e307, 1.0, _X_HOSTILE),
     (1.0, 3e307, _X_HOSTILE), (1e60, 1e60, _X_HOSTILE)],
    ids=["nan_activations", "inf_activations", "keys_5e307", "keys_1e308", "queries_5e307",
         "queries_1e308", "scores_1e160", "rotation_3e307", "query_rotation_3e307", "exponent_1e60"],
)
@pytest.mark.parametrize("rope", [True, False], ids=["rope", "no_rope"])
def test_hostile_heads_fail_like_the_branching_oracle(w_k, w_q, X, rope):
    # the same error type and message on every format pair, sorted and unsorted
    weights = HeadWeights(w_k=np.full((16, 8), w_k), w_q=np.full((16, 8), w_q))
    tables = default_rope_tables(16) if rope else None
    _assert_matches_branching_oracle(weights, tables, X, plan_head(weights, tables))


@pytest.mark.parametrize("w_k, w_q", [(5e307, 1.0), (1.0, 5e307)], ids=["keys", "queries"])
def test_projection_overflow_is_named_before_any_cast(monkeypatch, w_k, w_q):
    calls = []

    def recording_cast(*args, **kwargs):
        calls.append(args)
        return quantize_tensor(*args, **kwargs)

    monkeypatch.setattr(simharness, "quantize_tensor", recording_cast)
    weights = HeadWeights(w_k=np.full((16, 8), w_k), w_q=np.full((16, 8), w_q))
    with pytest.raises(InvalidValue, match="overflow float64"):
        simulate_decode(weights, default_rope_tables(16), _X_HOSTILE, *_BFP_PAIR)
    assert calls == []


def test_zero_tokens_report_zero_error():
    weights, tables, X = _small_setup()
    plan = plan_head(weights, tables)
    trace = simulate_decode(weights, tables, X[:0], BFP12_4, BFP12_4, plan=plan)
    assert trace.keys.shape[0] == 0
    assert score_max_abs_err(trace) == 0.0
    assert exactness_check(weights, plan, X[:0], tables) == 0.0


def _decode_peak_mib(t: int) -> float:
    """The tracemalloc peak of one sorted decode as the long-context benchmark
    runs it (at T = 4096 there), with its error metrics."""
    tables = default_rope_tables(128)
    weights = gen_outlier_head(128, 256, OutlierSpec(4, 50.0, seed=0))
    X = gen_activations(t, 256, 0)
    plan = plan_head(weights, tables)
    tracemalloc.start()
    try:
        trace = simulate_decode(weights, tables, X, BFP12_32, BFP16_32, plan=plan)
        error_metrics(trace.keys, trace.key_cache)
        score_max_abs_err(trace)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_long_decode_memory_grows_with_t_not_t_squared():
    # a single T x T float64 score map is 128 MiB at T = 4096, and the dense decode
    # peaked at 522 MiB; four times the tokens may take less than twice the memory.
    # Rotated in place, with 1-byte mantissas in the key cache, 512 KiB score tiles
    # and the keys cast and decoded a tile at a time, the peaks are 6.78, 19.20 and
    # 68.91 MiB (20.69 and 82.75 with the keys cast as one matrix)
    peaks = {t: _decode_peak_mib(t) for t in (1024, 4096, 16384)}
    assert peaks[1024] < 7.5 and peaks[4096] < 19.75 and peaks[16384] < 70, peaks


#: SHA-256 of the float.hex of (mse, sqnr_db, max_abs_err, score_err), one line per
#: decode, of the long-context benchmark's four heads (seeds 0-3) decoded with the
#: sorted plan at T = 4096, then at T = 1300 with the plan and without it.  Like the
#: sweep digests, it holds for one BLAS kernel (see ROADMAP.md): a kernel that sums
#: the projections or scores in another order moves the low bits.
LONG_DECODE_DIGEST = "2b317ece3489e6a8fa56fa06894416282d6abd5a8a68b5097ccd74ca42ba9346"


def test_long_context_decodes_keep_their_digest():
    tables = default_rope_tables(128, layout="interleaved")
    lines = []
    for seed in range(4):
        weights = gen_outlier_head(128, 256, OutlierSpec(4, 50.0, 1.0, seed=seed))
        plan = plan_head(weights, tables)
        for t, use_plan in ((4096, plan), (1300, plan), (1300, None)):
            X = gen_activations(t, 256, seed)
            trace = simulate_decode(weights, tables, X, BFP12_32, BFP16_32, plan=use_plan)
            report = error_metrics(trace.keys, trace.key_cache)
            values = (report.mse, report.sqnr_db, report.max_abs_err, score_max_abs_err(trace))
            lines.append(" ".join(v.hex() for v in values))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LONG_DECODE_DIGEST, lines


# ---------------------------------------------------------------------------
# exactness_check
# ---------------------------------------------------------------------------


def test_exactness_without_rope():
    weights, _, X = _small_setup(rope=False)
    plan = plan_head(weights)
    assert exactness_check(weights, plan, X) <= 1e-12


def test_exactness_with_rope():
    weights, tables, X = _small_setup()
    plan = plan_head(weights, tables)
    assert exactness_check(weights, plan, X, tables) <= 1e-12


def test_exactness_breaks_with_literal_table_permute():
    # a partner table permuted as a plain array (no index translation) cannot be
    # built; the valid tables left unremapped visibly break the score map
    weights, tables, X = _small_setup()
    good = plan_head(weights, tables)
    idx = good.perm.indices
    with pytest.raises(InvalidRopeTables):
        RopeTables(tables.theta[idx], tables.partner[idx], tables.sign[idx])
    unremapped = replace(good, rope=tables)
    assert exactness_check(weights, good, X, tables) <= 1e-12
    assert exactness_check(weights, unremapped, X, tables) > 1e-3


# ---------------------------------------------------------------------------
# error_metrics
# ---------------------------------------------------------------------------


def test_lossless_reconstruction_reports_infinite_sqnr():
    x = np.array([1.0, 2.0, 3.0, 7.0])
    rep = error_metrics(x, quantize_tensor(x, BFP12_4, 0))
    assert rep.mse == 0.0
    assert rep.max_abs_err == 0.0
    assert math.isinf(rep.sqnr_db)


def test_lossless_storage_reports_exact_64_bit_storage():
    # key_cache None, a lossless decode's float64 cache, is exact whatever the reference holds
    for keys in (np.arange(12.0).reshape(3, 4), np.zeros((3, 4)), np.zeros((0, 4))):
        assert error_metrics(keys, None) == ErrorReport(0.0, math.inf, 0.0, Fraction(64))


def test_all_zero_reference_flags_degenerate():
    z = np.zeros(8)
    rep = error_metrics(z, quantize_tensor(z, BFP12_4, 0))
    assert rep.mse == 0.0
    assert math.isnan(rep.sqnr_db)


def test_empty_tensor_reports_zero_error():
    x = np.zeros((0, 8))
    rep = error_metrics(x, quantize_tensor(x, BFP12_4, 1))
    assert rep.mse == 0.0
    assert math.isnan(rep.sqnr_db)
    assert rep.max_abs_err == 0.0


def test_more_mantissa_bits_reduce_error():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(16, 32))
    mse4 = error_metrics(x, quantize_tensor(x, BfpFormat(4, 8), 1)).mse
    mse8 = error_metrics(x, quantize_tensor(x, BfpFormat(8, 8), 1)).mse
    assert mse8 < mse4
    sq4 = error_metrics(x, quantize_tensor(x, BfpFormat(4, 8), 1)).sqnr_db
    sq8 = error_metrics(x, quantize_tensor(x, BfpFormat(8, 8), 1)).sqnr_db
    assert sq8 > sq4


def test_metrics_are_channel_order_invariant_bitwise():
    # same multiset of errors, any channel order: identical reported MSE
    rng = np.random.default_rng(32)
    x = rng.normal(size=(8, 16)) * np.exp(rng.normal(size=(8, 1)))
    fmt = BfpFormat(4, 16)  # one block per row: permutation cannot change errors
    perm = rng.permutation(16)
    a = error_metrics(x, quantize_tensor(x, fmt, 1))
    b = error_metrics(x[:, perm], quantize_tensor(x[:, perm], fmt, 1))
    assert a.mse == b.mse
    assert a.sqnr_db == b.sqnr_db
    assert a.max_abs_err == b.max_abs_err


def test_metrics_shape_mismatch():
    x = np.ones((2, 4))
    with pytest.raises(ShapeMismatch):
        error_metrics(np.ones((2, 5)), quantize_tensor(x, BFP12_4, 1))


def test_report_carries_context():
    x = np.ones(4)
    rep = error_metrics(x, quantize_tensor(x, BFP12_4, 0))
    assert float(rep.bits_per_element) == 4 + 8 / 4


# ---------------------------------------------------------------------------
# cache bytes: BfpTensor.packed_nbytes of a key cache
# ---------------------------------------------------------------------------


def _cache_bytes(n_tokens: int, d_h: int, fmt: BfpFormat) -> int:
    return quantize_tensor(np.ones((n_tokens, d_h)), fmt, blocking_axis=1).packed_nbytes


def test_footprint_single_token_single_block():
    from bfpksort.bfp import BFP12_128

    assert _cache_bytes(1, 128, BFP12_128) == 65  # (8 + 128*4) / 8


def test_footprint_compression_ratio():
    from bfpksort import BFP12_32, BFP16_32

    small = _cache_bytes(100, 128, BFP12_32)
    big = _cache_bytes(100, 128, BFP16_32)
    assert small == 100 * 4 * 17
    assert big == 100 * 4 * 33
    assert 1.90 <= big / small <= 2.00


def test_footprint_zero_tokens():
    from bfpksort import BFP12_32

    assert _cache_bytes(0, 128, BFP12_32) == 0


def test_footprint_ragged_head_dim():
    fmt = BfpFormat(mantissa_bits=4, block_size=32)
    assert _cache_bytes(3, 40, fmt) == 3 * 2 * fmt.bytes_per_block
