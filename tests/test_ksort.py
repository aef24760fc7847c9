"""Sorting pass: norms, permutations, table remapping, whole-head plans."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from bfpksort import (
    BfpFormat,
    HeadWeights,
    OutlierSpec,
    Permutation,
    PermutationPlan,
    RopeTables,
    default_rope_tables,
    dequantize,
    gen_outlier_head,
    plan_head,
    quantize_tensor,
    remap_rope_tables,
    rope_apply,
    row_norms,
    simulate_decode,
)
from bfpksort.errors import InvalidRopeTables, ShapeMismatch
from bfpksort.ksort import argsort_norms, expected_cache_mse


def naive_row_norms(w):
    """Left-to-right scalar accumulation, independent of the vectorized path."""
    out = []
    for row in w:
        acc = 0.0
        for v in row:
            acc += float(v) * float(v)
        out.append(math.sqrt(acc))
    return out


# ---------------------------------------------------------------------------
# row_norms
# ---------------------------------------------------------------------------


def test_identity_rows():
    assert row_norms(np.eye(2)).tolist() == [1.0, 1.0]


def test_three_four_five():
    assert row_norms(np.array([[3.0, 4.0], [0.0, 0.0]])).tolist() == [5.0, 0.0]


def test_matches_naive_reference():
    rng = np.random.default_rng(11)
    w = rng.normal(size=(8, 16))
    got = row_norms(w)
    ref = naive_row_norms(w)
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


def test_row_norms_keep_their_bits_on_outlier_heads():
    # the power-of-two scaling is exact: ordinary heads get the unscaled norms
    for seed in range(20):
        for scale in (1.0, 5.0, 20.0, 50.0, 100.0):
            w = gen_outlier_head(128, 256, OutlierSpec(4, scale, seed=seed)).w_k
            assert np.array_equal(row_norms(w), np.sqrt(np.sum(w * w, axis=1)))


def test_row_norms_of_huge_finite_weights():
    # squares of 1e200 overflow, the scaled squares do not; no warning either way
    assert row_norms(np.full((2, 4), 1e200)).tolist() == [2e200, 2e200]
    assert row_norms(np.full((1, 4), 1e307)).tolist() == [2e307]
    assert row_norms(np.full((1, 4), 1e308)).tolist() == [math.inf]


def test_row_norms_rejects_vectors():
    with pytest.raises(ShapeMismatch):
        row_norms(np.ones(4))


# ---------------------------------------------------------------------------
# argsort_norms / Permutation
# ---------------------------------------------------------------------------


def test_ascending_order():
    perm = argsort_norms([3.0, 1.0, 2.0])
    assert perm.indices.tolist() == [1, 2, 0]


def test_ties_keep_original_order():
    assert argsort_norms([5.0, 5.0, 5.0]).indices.tolist() == [0, 1, 2]


def test_sortedness_on_random_input():
    rng = np.random.default_rng(12)
    norms = rng.exponential(size=100)
    perm = argsort_norms(norms)
    assert np.all(np.diff(norms[perm.indices]) >= 0)


def test_permutation_bijectivity_enforced():
    with pytest.raises(ValueError):
        Permutation(np.array([0, 0, 2]))


def test_inverse_composes_to_identity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        perm = Permutation(rng.permutation(17).astype(np.intp))
        assert perm.inverse().indices[perm.indices].tolist() == list(range(17))
        assert Permutation.identity(17).indices.tolist() == list(range(17))


# ---------------------------------------------------------------------------
# Permutation.apply
# ---------------------------------------------------------------------------


def test_identity_permutation_is_noop():
    rng = np.random.default_rng(14)
    w = rng.normal(size=(6, 4))
    assert np.array_equal(Permutation.identity(6).apply(w), w)


def test_two_row_swap():
    w = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = Permutation(np.array([1, 0])).apply(w)
    assert out.tolist() == [[3.0, 4.0], [1.0, 2.0]]


def test_permute_then_inverse_restores_bitwise():
    rng = np.random.default_rng(15)
    w = rng.normal(size=(9, 5))
    perm = Permutation(rng.permutation(9).astype(np.intp))
    back = perm.inverse().apply(perm.apply(w))
    assert np.array_equal(back, w)


# ---------------------------------------------------------------------------
# remap_rope_tables
# ---------------------------------------------------------------------------


def test_identity_remap_is_noop():
    t = default_rope_tables(8)
    r = remap_rope_tables(t, Permutation.identity(8))
    assert np.array_equal(r.theta, t.theta)
    assert np.array_equal(r.partner, t.partner)
    assert np.array_equal(r.sign, t.sign)


def test_pairwise_swap_example():
    # moving whole pairs keeps local structure: partner stays [1,0,3,2]
    t = default_rope_tables(4)
    r = remap_rope_tables(t, Permutation(np.array([2, 3, 0, 1])))
    assert r.partner.tolist() == [1, 0, 3, 2]
    assert r.sign.tolist() == [-1, 1, -1, 1]
    assert np.array_equal(r.theta, t.theta[[2, 3, 0, 1]])


@pytest.mark.parametrize("layout", ["interleaved", "half_split"])
def test_random_remaps_preserve_invariants(layout):
    rng = np.random.default_rng(16)
    t = default_rope_tables(8, layout=layout)
    for _ in range(50):
        perm = Permutation(rng.permutation(8).astype(np.intp))
        remap_rope_tables(t, perm).validate()


def test_literal_array_permute_breaks_pairing():
    # translating partner values is what keeps the involution; a plain array
    # permute of the partner table generally does not survive validation
    t = default_rope_tables(8)
    rng = np.random.default_rng(17)
    broken = 0
    for _ in range(20):
        idx = rng.permutation(8).astype(np.intp)
        literal = RopeTables(t.theta[idx], t.partner[idx], t.sign[idx])
        try:
            literal.validate()
        except InvalidRopeTables:
            broken += 1
    assert broken > 0


def test_invalid_input_tables_rejected():
    t = default_rope_tables(4)
    bad = type(t)(theta=t.theta, partner=np.zeros(4, dtype=np.intp), sign=t.sign)
    with pytest.raises(InvalidRopeTables):
        remap_rope_tables(bad, Permutation.identity(4))


def test_remap_with_permutation_of_other_length_rejected():
    with pytest.raises(ShapeMismatch, match="permutation length 6"):
        remap_rope_tables(default_rope_tables(4), Permutation.identity(6))


# ---------------------------------------------------------------------------
# plan_head
# ---------------------------------------------------------------------------


def _random_head(rng, d_h=8, d_model=16):
    return HeadWeights(w_k=rng.normal(size=(d_h, d_model)), w_q=rng.normal(size=(d_h, d_model)))


def test_presorted_head_gets_identity_plan():
    w_k = np.arange(1.0, 5.0)[:, None] * np.ones((4, 6))
    weights = HeadWeights(w_k=w_k, w_q=np.ones((4, 6)))
    plan = plan_head(weights)
    assert plan.perm.indices.tolist() == list(range(4))
    assert np.array_equal(plan.perm.apply(weights.w_k), weights.w_k)
    assert np.array_equal(plan.perm.apply(weights.w_q), weights.w_q)


def test_two_channel_toy_head():
    weights = HeadWeights(
        w_k=np.array([[2.0, 0.0], [1.0, 0.0]]),
        w_q=np.array([[10.0, 0.0], [20.0, 0.0]]),
    )
    plan = plan_head(weights)
    assert plan.perm.indices.tolist() == [1, 0]
    assert plan.perm.apply(weights.w_k).tolist() == [[1.0, 0.0], [2.0, 0.0]]
    assert plan.perm.apply(weights.w_q).tolist() == [[20.0, 0.0], [10.0, 0.0]]


def test_norms_sorted_after_plan():
    rng = np.random.default_rng(18)
    weights = _random_head(rng, d_h=16, d_model=8)
    plan = plan_head(weights)
    assert np.all(np.diff(row_norms(plan.perm.apply(weights.w_k))) >= 0)


def test_product_preservation():
    # W_q^T . W_k is invariant to simultaneous row permutation, entrywise up
    # to the reordering of the channel sum
    rng = np.random.default_rng(19)
    weights = _random_head(rng, d_h=12, d_model=10)
    plan = plan_head(weights)
    a = weights.w_q.T @ weights.w_k
    b = plan.perm.apply(weights.w_q).T @ plan.perm.apply(weights.w_k)
    assert np.allclose(a, b, rtol=0.0, atol=1e-12 * float(np.abs(a).max()))


def test_plan_is_deterministic():
    rng1 = np.random.default_rng(20)
    rng2 = np.random.default_rng(20)
    tables = default_rope_tables(8)
    w1, w2 = _random_head(rng1), _random_head(rng2)
    p1, p2 = plan_head(w1, tables), plan_head(w2, tables)
    assert np.array_equal(p1.perm.indices, p2.perm.indices)
    assert np.array_equal(p1.perm.apply(w1.w_k), p2.perm.apply(w2.w_k))
    assert np.array_equal(p1.rope.theta, p2.rope.theta)


def _assert_rows_follow_plan(weights, tables, plan):
    # the sorted decode's keys are the unsorted ones with their channels
    # gathered by the plan
    X = np.random.default_rng(29).normal(size=(5, weights.d_model))
    unsorted = simulate_decode(weights, tables, X)
    sorted_ = simulate_decode(weights, tables, X, plan=plan)
    assert np.array_equal(sorted_.keys, plan.perm.apply(unsorted.keys, axis=1))


def test_rope_commutes_through_plan():
    rng = np.random.default_rng(22)
    weights = _random_head(rng, d_h=8)
    tables = default_rope_tables(8)
    plan = plan_head(weights, tables)
    x = rng.normal(size=8)
    lhs = rope_apply(tables, x, 5)[plan.perm.indices]
    rhs = rope_apply(plan.rope, x[plan.perm.indices], 5)
    assert np.array_equal(lhs, rhs)


def test_odd_head_dim_with_rope_rejected():
    weights = HeadWeights(w_k=np.ones((3, 4)), w_q=np.ones((3, 4)))
    with pytest.raises(ShapeMismatch):
        plan_head(weights, default_rope_tables(4))


def test_head_weights_shape_validation():
    with pytest.raises(ShapeMismatch):
        HeadWeights(w_k=np.ones((4, 3)), w_q=np.ones((3, 4)))


def _assert_document_holds(plan):
    """``plan.to_json()`` holds the plan's arrays bit for bit, and nothing else."""
    doc = json.loads(plan.to_json())
    assert set(doc) == {"d_h", "pi", "rope"}
    assert doc["d_h"] == len(plan.perm)
    assert np.asarray(doc["pi"], dtype=np.intp).tobytes() == plan.perm.indices.tobytes()
    if plan.rope is None:
        assert doc["rope"] is None
        return
    assert set(doc["rope"]) == {"theta", "partner", "sign"}
    for name in ("theta", "partner", "sign"):
        table = getattr(plan.rope, name)
        assert np.asarray(doc["rope"][name], dtype=table.dtype).tobytes() == table.tobytes()


def test_plan_json_round_trip():
    rng = np.random.default_rng(23)
    weights = _random_head(rng, d_h=8)
    plan = plan_head(weights, default_rope_tables(8, layout="half_split"))
    assert not np.array_equal(plan.perm.indices, np.arange(8))  # the tables were remapped
    _assert_document_holds(plan)


def test_plan_json_without_rope():
    rng = np.random.default_rng(24)
    plan = plan_head(_random_head(rng))
    _assert_document_holds(plan)
    assert json.loads(plan.to_json())["rope"] is None


def test_plan_json_rejects_mismatched_lengths():
    # a valid permutation, but of 6 channels, with tables for 8
    with pytest.raises(ShapeMismatch):
        PermutationPlan(Permutation.identity(6), rope=default_rope_tables(8))


# ---------------------------------------------------------------------------
# format-aware plan
# ---------------------------------------------------------------------------

BFP12_BLOCK32 = BfpFormat(mantissa_bits=4, block_size=32)


def _outlier_blocks(weights, plan, block):
    """Block index of each of the four largest-norm channels after the plan."""
    top = np.argsort(row_norms(weights.w_k))[-4:]
    return np.sort(plan.perm.inverse().indices[top] // block).tolist()


def test_format_plan_groups_moderate_outliers():
    weights = gen_outlier_head(128, 256, OutlierSpec(4, 20.0, seed=3))
    plan = plan_head(weights, fmt=BFP12_BLOCK32)
    assert len(set(_outlier_blocks(weights, plan, 32))) == 1


def test_format_plan_spreads_huge_outliers():
    # at 100x a shared step costs more than grouping saves: one outlier per block
    weights = gen_outlier_head(128, 256, OutlierSpec(4, 100.0, seed=3))
    plan = plan_head(weights, fmt=BFP12_BLOCK32)
    assert _outlier_blocks(weights, plan, 32) == [0, 1, 2, 3]


def test_format_plan_is_cheapest_of_norm_sort_and_identity():
    for scale in (5.0, 50.0, 100.0):
        weights = gen_outlier_head(128, 256, OutlierSpec(4, scale, seed=4))
        plan = plan_head(weights, fmt=BFP12_BLOCK32)
        cost = expected_cache_mse(
            weights,
            [plan.perm, argsort_norms(row_norms(weights.w_k)), Permutation.identity(128)],
            BFP12_BLOCK32,
        )
        assert cost[0] <= cost[1] and cost[0] <= cost[2]


def test_format_plan_with_one_block_per_key_is_the_norm_sort():
    rng = np.random.default_rng(25)
    weights = _random_head(rng, d_h=16)
    plan = plan_head(weights, fmt=BfpFormat(mantissa_bits=4, block_size=16))
    assert np.array_equal(plan.perm.indices, plan_head(weights).perm.indices)


def test_format_plan_ragged_head():
    rng = np.random.default_rng(26)
    weights = _random_head(rng, d_h=24, d_model=16)
    tables = default_rope_tables(24)
    fmt = BfpFormat(mantissa_bits=4, block_size=16)
    plan = plan_head(weights, tables, fmt=fmt)
    assert np.array_equal(plan.perm.indices, plan_head(weights, tables, fmt=fmt).perm.indices)
    _assert_rows_follow_plan(weights, tables, plan)
    x = rng.normal(size=24)
    lhs = rope_apply(tables, x, 3)[plan.perm.indices]
    assert np.array_equal(lhs, rope_apply(plan.rope, x[plan.perm.indices], 3))


def test_expected_cache_mse_matches_gaussian_keys():
    # the model's expectation agrees with the measured MSE of keys from unit
    # Gaussian activations, the distribution it stands for
    weights = gen_outlier_head(128, 256, OutlierSpec(4, 20.0, seed=5))
    perm = argsort_norms(row_norms(weights.w_k))
    keys = np.random.default_rng(6).normal(size=(4096, 256)) @ weights.w_k.T
    for p in (Permutation.identity(128), perm):
        k = keys[:, p.indices]
        deq = dequantize(quantize_tensor(k, BFP12_BLOCK32, blocking_axis=1))
        measured = np.mean((deq - k) ** 2)
        (model,) = expected_cache_mse(weights, [p], BFP12_BLOCK32)
        assert abs(model - measured) < 0.05 * measured


def test_expected_cache_mse_rejects_wrong_length():
    rng = np.random.default_rng(28)
    with pytest.raises(ShapeMismatch):
        expected_cache_mse(_random_head(rng), [Permutation.identity(4)], BFP12_BLOCK32)
