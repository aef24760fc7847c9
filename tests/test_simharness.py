"""Decode simulator: generators, traces, exactness, metrics, footprint."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest

from bfpksort import (
    BFP12_64,
    BFP16_64,
    BfpFormat,
    OutlierSpec,
    Permutation,
    PermutationPlan,
    RopeTables,
    default_rope_tables,
    dequantize,
    error_metrics,
    exactness_check,
    footprint,
    gen_activations,
    gen_outlier_head,
    plan_head,
    quantize_block,
    quantize_tensor,
    remap_rope_tables,
    row_norms,
    score_max_abs_err,
    simulate_decode,
)
from bfpksort.errors import PlanMismatch, ShapeMismatch

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
    norms = row_norms(head.w_k)
    assert norms.max() / norms.min() < 2.0


def test_outlier_rows_dominate_norm_histogram():
    spec = OutlierSpec(n_outlier_channels=4, outlier_scale=100.0, seed=2)
    head = gen_outlier_head(128, 256, spec)
    norms = row_norms(head.w_k)
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
    assert trace.key_cache is None
    assert np.array_equal(trace.scores, trace.scores_ref)
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
    assert np.array_equal(a.queries, b.queries)
    assert np.array_equal(a.scores, b.scores)
    assert np.array_equal(a.scores_ref, b.scores_ref)


def test_scores_are_causal():
    weights, tables, X = _small_setup()
    trace = simulate_decode(weights, tables, X, BFP12_4, BFP12_4)
    assert np.array_equal(np.triu(trace.scores, k=1), np.zeros_like(trace.scores))


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
    # permuting the partner table as a plain array (no index translation)
    # visibly breaks the score map
    weights, tables, X = _small_setup()
    good = plan_head(weights, tables)
    idx = good.perm.indices
    shuffled = RopeTables(tables.theta[idx], tables.partner[idx], tables.sign[idx])
    literal = replace(good, rope=shuffled)
    assert exactness_check(weights, good, X, tables) <= 1e-12
    assert exactness_check(weights, literal, X, tables) > 1e-3


# ---------------------------------------------------------------------------
# error_metrics
# ---------------------------------------------------------------------------


def test_lossless_reconstruction_reports_infinite_sqnr():
    x = np.array([1.0, 2.0, 3.0, 7.0])
    rep = error_metrics(x, quantize_tensor(x, BFP12_4, 0))
    assert rep.mse == 0.0
    assert rep.max_abs_err == 0.0
    assert math.isinf(rep.sqnr_db)
    assert not rep.degenerate_signal


def test_all_zero_reference_flags_degenerate():
    z = np.zeros(8)
    rep = error_metrics(z, quantize_tensor(z, BFP12_4, 0))
    assert rep.mse == 0.0
    assert math.isnan(rep.sqnr_db)
    assert rep.degenerate_signal


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
# footprint
# ---------------------------------------------------------------------------


def test_footprint_single_token_single_block():
    from bfpksort import BFP12_128

    assert footprint(1, 128, BFP12_128) == 65  # (8 + 128*4) / 8


def test_footprint_compression_ratio():
    from bfpksort import BFP12_32, BFP16_32

    small = footprint(100, 128, BFP12_32)
    big = footprint(100, 128, BFP16_32)
    assert small == 100 * 4 * 17
    assert big == 100 * 4 * 33
    assert 1.90 <= big / small <= 2.00


def test_footprint_zero_tokens():
    from bfpksort import BFP12_32

    assert footprint(0, 128, BFP12_32) == 0


def test_footprint_ragged_head_dim():
    fmt = BfpFormat(mantissa_bits=4, block_size=32)
    assert footprint(3, 40, fmt) == 3 * 2 * fmt.bytes_per_block
