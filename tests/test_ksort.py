"""Sorting pass: norms, permutations, table remapping, whole-head plans."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import pickle

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
    gen_activations,
    gen_outlier_head,
    plan_head,
    quantize_tensor,
    remap_rope_tables,
    rope_apply,
    simulate_decode,
)
from bfpksort import ksort
from bfpksort.bfp import BFP12_32, BFP12_64
from bfpksort.errors import BfpKsortError, InvalidRopeTables, InvalidValue, ShapeMismatch
from bfpksort.ksort import _grouped_layout, cache_mse


def naive_row_norms(w):
    """Left-to-right scalar accumulation, independent of the vectorized path."""
    out = []
    for row in w:
        acc = 0.0
        for v in row:
            acc += float(v) * float(v)
        out.append(math.sqrt(acc))
    return out


def _scaled_back(w):
    """``ksort._unit_row_norms(w)`` times the power of two it divides out of ``w``."""
    return np.ldexp(ksort._unit_row_norms(w), np.frexp(np.abs(w).max())[1])


# ---------------------------------------------------------------------------
# row norms in units of a power of two, as plan_head ranks channels
# ---------------------------------------------------------------------------


def test_identity_rows():
    # the largest weight, 1.0, is 0.5 * 2**1: norms in units of 2
    assert ksort._unit_row_norms(np.eye(2)).tolist() == [0.5, 0.5]


def test_three_four_five():
    assert ksort._unit_row_norms(np.array([[3.0, 4.0], [0.0, 0.0]])).tolist() == [0.625, 0.0]


def test_matches_naive_reference():
    rng = np.random.default_rng(11)
    w = rng.normal(size=(8, 16))
    got = _scaled_back(w)
    ref = naive_row_norms(w)
    assert np.allclose(got, ref, rtol=1e-12, atol=0.0)


def test_row_norms_keep_their_bits_on_outlier_heads():
    # the power-of-two scaling is exact: scaled back, ordinary heads get the plain norms
    for seed in range(20):
        for scale in (1.0, 5.0, 20.0, 50.0, 100.0):
            w = gen_outlier_head(128, 256, OutlierSpec(4, scale, seed=seed)).w_k
            assert np.array_equal(_scaled_back(w), np.sqrt(np.sum(w * w, axis=1)))


def test_row_norms_of_huge_finite_weights():
    # squares of 1e200 overflow, the scaled squares do not; no warning either way,
    # and a head whose plain norms overflow has the units of its 2**-1000 copy
    assert _scaled_back(np.full((2, 4), 1e200)).tolist() == [2e200, 2e200]
    assert _scaled_back(np.full((1, 4), 1e307)).tolist() == [2e307]
    units = ksort._unit_row_norms(np.full((1, 4), 1e308))
    assert units.tolist() == ksort._unit_row_norms(np.full((1, 4), 2.0**-1000 * 1e308)).tolist()
    assert 1.0 <= units[0] < 2.0


# ---------------------------------------------------------------------------
# norm order / Permutation
# ---------------------------------------------------------------------------


def _plain_plan(norms):
    """``plan_head`` on a one-column head whose key-row norms are ``norms``."""
    w = np.asarray(norms, dtype=np.float64)[:, None]
    return plan_head(HeadWeights(w_k=w, w_q=w)).perm


def test_ascending_order():
    assert _plain_plan([3.0, 1.0, 2.0]).indices.tolist() == [1, 2, 0]


def test_ties_keep_original_order():
    assert _plain_plan([5.0, 5.0, 5.0]).indices.tolist() == [0, 1, 2]


def test_sortedness_on_random_input():
    rng = np.random.default_rng(12)
    norms = rng.exponential(size=100)
    perm = _plain_plan(norms)
    assert np.all(np.diff(norms[perm.indices]) >= 0)


def test_permutation_bijectivity_enforced():
    with pytest.raises(ValueError):
        Permutation(np.array([0, 0, 2]))


@pytest.mark.parametrize(
    "indices", [[0, 0, 2], [1.0, 0.0], [True, False]], ids=["repeat", "float", "bool"]
)
def test_permutation_refuses_an_array_that_is_not_integer_indices(indices):
    # one package error for every bad array, not a later cast error or a silent bool
    with pytest.raises(ValueError) as exc:
        Permutation(np.array(indices))
    assert isinstance(exc.value, BfpKsortError)


def test_inverse_composes_to_identity():
    rng = np.random.default_rng(13)
    for _ in range(20):
        perm = Permutation(rng.permutation(17).astype(np.intp))
        assert perm.inverse().indices[perm.indices].tolist() == list(range(17))
        assert Permutation.identity(17).indices.tolist() == list(range(17))


def test_array_holders_compare_by_identity_and_hash():
    # a generated __eq__ would compare the arrays and raise numpy's ambiguous-truth
    # ValueError, and a generated __hash__ would hash them and raise TypeError
    w = np.ones((4, 2))
    makers = (
        lambda: HeadWeights(w, w),
        lambda: Permutation.identity(3),
        lambda: PermutationPlan(Permutation.identity(4), default_rope_tables(4)),
        lambda: default_rope_tables(4),
        lambda: quantize_tensor(w, BFP12_32, 1),
        lambda: simulate_decode(HeadWeights(w, w), None, np.ones((3, 2)), BFP12_32),
    )
    for make in makers:
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b, a}) == 2


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


def test_permutation_is_read_only():
    # a checked permutation cannot become a non-bijection afterwards, in a plan or
    # through a pickle; the caller's own array stays writable
    plan = plan_head(gen_outlier_head(8, 16, OutlierSpec(2, 20.0, seed=0)))
    with pytest.raises(ValueError, match="read-only"):
        plan.perm.indices[0] = plan.perm.indices[1]
    copy = pickle.loads(pickle.dumps(plan))
    assert type(copy) is PermutationPlan and not copy.perm.indices.flags.writeable
    assert copy.perm.indices.tobytes() == plan.perm.indices.tobytes()
    mine = np.array([1, 0, 2])
    held = Permutation(mine)
    assert np.shares_memory(held.indices, mine) and not held.indices.flags.writeable
    assert mine.flags.writeable


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
        remap_rope_tables(t, perm)  # the remapped tables check their invariants when built


def test_literal_array_permute_breaks_pairing():
    # translating partner values is what keeps the involution; a plain array
    # permute of the partner table generally cannot even be built.  Every pair
    # has its own frequency, so the literal table is valid only where it equals
    # the remapped one
    t = default_rope_tables(8)
    rng = np.random.default_rng(17)
    broken = 0
    for _ in range(20):
        perm = Permutation(rng.permutation(8).astype(np.intp))
        idx = perm.indices
        if np.array_equal(t.partner[idx], remap_rope_tables(t, perm).partner):
            RopeTables(t.theta[idx], t.partner[idx], t.sign[idx])
            continue
        with pytest.raises(InvalidRopeTables):
            RopeTables(t.theta[idx], t.partner[idx], t.sign[idx])
        broken += 1
    assert broken > 0


def test_invalid_input_tables_rejected():
    t = default_rope_tables(4)
    with pytest.raises(InvalidRopeTables):
        type(t)(theta=t.theta, partner=np.zeros(4, dtype=np.intp), sign=t.sign)


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
    assert np.all(np.diff(np.linalg.norm(plan.perm.apply(weights.w_k), axis=1)) >= 0)


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
    assert np.array_equal(sorted_.keys, unsorted.keys[:, plan.perm.indices])


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


def test_head_weights_are_read_only():
    # a checked head cannot be broken afterwards: writing to it raises numpy's read-only error
    w = gen_outlier_head(8, 16, OutlierSpec(2, 20.0, seed=0))
    with pytest.raises(ValueError, match="read-only"):
        w.w_k[0, 0] = np.nan
    with pytest.raises(ValueError, match="read-only"):
        w.w_q[0, 0] = np.nan
    assert np.isfinite(w.w_k).all() and np.isfinite(w.w_q).all()
    # the caller's float64 matrices are viewed, not copied, and stay writable;
    # read-only ones are held as they are
    mine = np.ones((4, 6))
    frozen = np.ones((4, 6))
    frozen.flags.writeable = False
    held = HeadWeights(w_k=mine, w_q=frozen)
    assert np.shares_memory(held.w_k, mine) and not held.w_k.flags.writeable
    assert mine.flags.writeable and held.w_q is frozen


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


@pytest.mark.parametrize(
    "perm, rope, message",
    [(np.arange(4), None, "perm must be a Permutation, got ndarray"),
     (Permutation.identity(4), "x", "rope must be a RopeTables or None, got str"),
     (Permutation.identity(4), default_rope_tables(4).theta,
      "rope must be a RopeTables or None, got ndarray")],
    ids=["array_perm", "string_rope", "array_rope"],
)
def test_plan_holds_a_permutation_and_tables(perm, rope, message):
    # refused by type when built, so no decode meets a raw AttributeError from the plan
    with pytest.raises(InvalidValue, match=f"^{message}$"):
        PermutationPlan(perm, rope)


# ---------------------------------------------------------------------------
# format-aware plan
# ---------------------------------------------------------------------------

BFP12_BLOCK32 = BfpFormat(mantissa_bits=4, block_size=32)


def _model_keys(weights):
    """The Gaussian model keys ``plan_head(..., fmt=)`` draws once per plan."""
    rng = np.random.default_rng(ksort.COST_MODEL_SEED)
    norms = np.linalg.norm(weights.w_k, axis=1)
    return rng.standard_normal((ksort.COST_SAMPLES, weights.d_h)) * norms


def _norm_sort(weights):
    """The plain plan: key channels by ascending row norm, ties in index order."""
    return Permutation(np.argsort(np.linalg.norm(weights.w_k, axis=1), kind="stable"))


def _outlier_blocks(weights, plan, block):
    """Block index of each of the four largest-norm channels after the plan."""
    top = np.argsort(np.linalg.norm(weights.w_k, axis=1))[-4:]
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
        cost = cache_mse(
            _model_keys(weights),
            [plan.perm, _norm_sort(weights), Permutation.identity(128)],
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


def test_cache_mse_matches_gaussian_keys():
    # the cost on the model keys agrees with the measured MSE of keys from
    # unit Gaussian activations, the distribution the model stands for
    weights = gen_outlier_head(128, 256, OutlierSpec(4, 20.0, seed=5))
    perm = _norm_sort(weights)
    keys = np.random.default_rng(6).normal(size=(4096, 256)) @ weights.w_k.T
    for p in (Permutation.identity(128), perm):
        k = keys[:, p.indices]
        deq = dequantize(quantize_tensor(k, BFP12_BLOCK32, blocking_axis=1))
        measured = np.mean((deq - k) ** 2)
        (model,) = cache_mse(_model_keys(weights), [p], BFP12_BLOCK32)
        assert abs(model - measured) < 0.05 * measured


def test_cache_mse_rejects_wrong_length():
    keys = np.random.default_rng(28).normal(size=(4, 8))
    with pytest.raises(ShapeMismatch, match=r"lengths \[8, 4\] != d_h 8"):
        cache_mse(keys, [Permutation.identity(8), Permutation.identity(4)], BFP12_BLOCK32)


@pytest.mark.parametrize(
    "keys, n_perms, message",
    [
        (np.ones((4, 64)), 0, r"got \(4, 64\), 0 layouts"),
        (np.ones(64), 1, r"got \(64,\), 1 layouts"),
        (np.ones((0, 64)), 1, r"got \(0, 64\), 1 layouts"),
    ],
    ids=["no_layouts", "vector_sample", "zero_rows"],
)
def test_cache_mse_rejects_an_empty_or_flat_input(keys, n_perms, message):
    with pytest.raises(ShapeMismatch, match=message):
        cache_mse(keys, [Permutation.identity(64)] * n_perms, BFP12_32)


def test_format_plan_whose_raw_model_keys_would_overflow_float64_plans():
    # every key-row norm is finite, but the largest times a Gaussian draw is
    # not; the model keys are drawn in units of the largest weight, so the
    # head plans with no numpy warning (tier-1 turns warnings into errors)
    rng = np.random.default_rng(0)
    w_k = rng.normal(size=(128, 16))
    w_k[3] *= 3e307
    weights = HeadWeights(w_k=w_k, w_q=rng.normal(size=(128, 16)))
    assert all(math.isfinite(math.hypot(*row)) for row in w_k)
    assert plan_head(weights, fmt=BFP12_BLOCK32).perm.indices[-1] == 3
    assert plan_head(weights).perm.indices[-1] == 3


def _scaled(weights, k):
    return HeadWeights(w_k=np.ldexp(weights.w_k, k), w_q=np.ldexp(weights.w_q, k))


def _assert_same_plan(a, b):
    assert np.array_equal(a.perm.indices, b.perm.indices)
    if a.rope is not None or b.rope is not None:
        for name in ("theta", "partner", "sign"):
            assert np.array_equal(getattr(a.rope, name), getattr(b.rope, name)), name


@pytest.mark.parametrize("fmt", [None, BFP12_32, BFP12_64], ids=["plain", "BFP12_32", "BFP12_64"])
def test_plans_do_not_depend_on_the_heads_power_of_two_scale(fmt):
    weights = gen_outlier_head(128, 256, OutlierSpec(4, 50.0, seed=1))
    tables = default_rope_tables(128)
    plan = plan_head(weights, tables, fmt=fmt)
    for k in (-1000, -300, -60, -1, 1, 60, 300, 1000):
        _assert_same_plan(plan_head(_scaled(weights, k), tables, fmt=fmt), plan)


def test_format_plan_of_a_head_beyond_the_key_exponent():
    # a key-row norm of about 4e200 needs a BFP12 exponent far above 127; the
    # plan costs layouts in units of the largest weight, so it plans as the
    # 2**-664 copy (largest weight in [0.5, 1)) does
    rng = np.random.default_rng(0)
    w_k = rng.normal(size=(128, 16))
    w_k[3] *= 1e200
    weights = HeadWeights(w_k=w_k, w_q=rng.normal(size=(128, 16)))
    plan = plan_head(weights, fmt=BFP12_32)
    assert plan.perm.indices[-1] == 3
    _assert_same_plan(plan, plan_head(_scaled(weights, -664), fmt=BFP12_32))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("fmt", [None, BFP12_32], ids=["plain", "BFP12_32"])
def test_non_finite_key_weights_rejected_with_or_without_fmt(bad, fmt):
    weights = gen_outlier_head(128, 256, OutlierSpec(4, 50.0, seed=1))
    w_k = weights.w_k.copy()
    w_k[5, 7] = bad
    w_k[6, 0] = 1e300  # refused before any norm is squared, so with no warning
    with pytest.raises(InvalidValue, match=f"^w_k must be finite, got {bad} at index \\(5, 7\\)$"):
        plan_head(HeadWeights(w_k=w_k, w_q=weights.w_q), fmt=fmt)


def test_format_plan_keeps_the_norm_sort_on_an_exact_tie():
    # only channel 0 is nonzero, so every layout puts it alone among zeros in
    # some block and costs the same; the norm sort, the first candidate, wins
    w_k = np.zeros((64, 8))
    w_k[0] = 1.0
    plan = plan_head(HeadWeights(w_k=w_k, w_q=np.ones((64, 8))), fmt=BFP12_32)
    assert plan.perm.indices.tolist() == [*range(1, 64), 0]


#: SHA-256 over the plain, BFP12_32 and BFP12_64 plans (indices and remapped
#: rotary tables) of seeds 0-2 at 5/20/50/100x.  Plans use no BLAS product,
#: so unlike the report digests this one holds for any BLAS kernel.
PLAN_DIGEST = "2f8a2816e9b47f585b098821c501e526d0140ae2c127dd830167fce4180b82d4"


def test_plans_keep_their_digest():
    digest = hashlib.sha256()
    tables = default_rope_tables(128)
    for seed, scale in itertools.product(range(3), (5.0, 20.0, 50.0, 100.0)):
        weights = gen_outlier_head(128, 256, OutlierSpec(4, scale, seed=seed))
        for fmt in (None, BFP12_32, BFP12_64):
            plan = plan_head(weights, tables, fmt=fmt)
            for a in (plan.perm.indices, plan.rope.theta, plan.rope.partner, plan.rope.sign):
                digest.update(a.tobytes())
    assert digest.hexdigest() == PLAN_DIGEST


@pytest.mark.parametrize("fmt", [None, BFP12_BLOCK32], ids=["norm_sort", "format_plan"])
def test_rope_tables_of_another_width_rejected_before_the_search(monkeypatch, fmt):
    def no_search(*args):
        raise AssertionError("the layout search ran")

    monkeypatch.setattr(ksort, "cache_mse", no_search)
    weights = gen_outlier_head(128, 16, OutlierSpec(4, 20.0, seed=0))
    with pytest.raises(ShapeMismatch, match="width 64, got d_h 128"):
        plan_head(weights, default_rope_tables(64), fmt=fmt)


@pytest.mark.parametrize("block", [32, 64])
def test_grouped_layout_fills_block_j_with_group_j_and_the_lightest_channels(block):
    # every (groups, heavy) pair the search can try at d_h 128: group j (the
    # heavy ranks split in order, larger groups first) starts block j, whose
    # other channels are the lightest ones no earlier block took
    d = 128
    rank = np.random.default_rng(30).permutation(d)  # rank[c] is channel c's rank
    asc = np.argsort(rank).astype(np.intp)
    for g in range(1, d // block + 1):
        for h in range(g, block + 1):
            ranks = rank[_grouped_layout(asc, block, h, g).indices]
            sizes = [h // g + (j < h % g) for j in range(g)]
            light = heavy = 0
            for j, size in enumerate(sizes):
                got = ranks[j * block : (j + 1) * block]
                group = range(d - h + heavy, d - h + heavy + size)
                assert got[block - size :].tolist() == list(group), (g, h, j)
                assert got[: block - size].tolist() == list(range(light, light + block - size))
                light, heavy = light + block - size, heavy + size
            assert ranks[g * block :].tolist() == list(range(light, d - h)), (g, h)


# ---------------------------------------------------------------------------
# oracles: the layout search as it drew a fresh model sample on every call,
# and the outlier-magnitude demo's own layout cost
# ---------------------------------------------------------------------------


def _oracle_expected_cache_mse(weights, perms, fmt, samples=ksort.COST_SAMPLES):
    z = np.random.default_rng(ksort.COST_MODEL_SEED).standard_normal((samples, weights.d_h))
    keys = z * np.linalg.norm(weights.w_k, axis=1)
    stacked = np.concatenate([keys[:, perm.indices] for perm in perms])
    err = dequantize(quantize_tensor(stacked, fmt, blocking_axis=1)) - stacked
    return np.square(err).reshape(len(perms), -1).mean(axis=1)


def _oracle_cheapest_layout(weights, fmt):
    n, d = fmt.block_size, weights.d_h
    asc = np.argsort(np.linalg.norm(weights.w_k, axis=1), kind="stable")
    if d <= n:
        return Permutation(asc)
    shortlist = []
    for g in range(1, d // n + 1):
        best, best_cost = None, np.inf
        for lo in range(g, n + 1, ksort.SEARCH_CHUNK):
            hs = range(lo, min(lo + ksort.SEARCH_CHUNK, n + 1))
            layouts = [_grouped_layout(asc, n, h, g) for h in hs]
            rough = _oracle_expected_cache_mse(weights, layouts, fmt, ksort.SEARCH_SAMPLES)
            if rough.min() >= best_cost:
                break
            best, best_cost = layouts[int(np.argmin(rough))], rough.min()
        shortlist.append(best)
    candidates = [Permutation(asc), *shortlist, Permutation.identity(d)]
    return candidates[int(np.argmin(_oracle_expected_cache_mse(weights, candidates, fmt)))]


def _demo_cache_mse(keys, perms, fmt):
    """Rows of ``perms`` are index arrays."""
    k = keys[:, perms].transpose(1, 0, 2).reshape(-1, keys.shape[1])
    err = dequantize(quantize_tensor(k, fmt, blocking_axis=1)) - k
    return np.square(err).reshape(len(perms), -1).mean(axis=1)


#: (d_h, d_model, outlier channels, block): criterion 5's heads, then ragged ones
ORACLE_SHAPES = [(128, 256, 4, 32), (128, 256, 4, 64), (24, 64, 2, 16), (40, 64, 2, 16)]


def test_format_plan_matches_the_per_call_draw_oracle():
    for (d_h, d_model, n_out, block), scale, seed in itertools.product(
        ORACLE_SHAPES, (5.0, 50.0, 100.0), range(5)
    ):
        weights = gen_outlier_head(d_h, d_model, OutlierSpec(n_out, scale, seed=seed))
        tables = default_rope_tables(d_h)
        fmt = BfpFormat(mantissa_bits=4, block_size=block)
        plan = plan_head(weights, tables, fmt=fmt)
        want = _oracle_cheapest_layout(weights, fmt)
        assert np.array_equal(plan.perm.indices, want.indices), (d_h, scale, seed, block)
        expected = remap_rope_tables(tables, want)
        for name in ("theta", "partner", "sign"):
            assert np.array_equal(getattr(plan.rope, name), getattr(expected, name))


@pytest.mark.parametrize("block", [32, 64])
def test_cache_mse_matches_the_demo_oracle_bit_for_bit(block):
    fmt = BfpFormat(mantissa_bits=4, block_size=block)
    rng = np.random.default_rng(31)
    for scale in (5.0, 50.0):
        weights = gen_outlier_head(128, 256, OutlierSpec(4, scale, seed=7))
        keys = gen_activations(64, 256, 7) @ weights.w_k.T
        perms = [
            Permutation.identity(128),
            plan_head(weights).perm,
            plan_head(weights, fmt=fmt).perm,
            *(Permutation(rng.permutation(128).astype(np.intp)) for _ in range(5)),
        ]
        got = cache_mse(keys, perms, fmt)
        want = _demo_cache_mse(keys, np.stack([p.indices for p in perms]), fmt)
        assert got.tobytes() == want.tobytes()
