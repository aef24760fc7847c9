"""Rotary table construction and rotation properties.

The dense-matrix path (`rope_apply_matrix`) is the oracle; the scalar
expansion below is a second, loop-based reference sharing nothing with
either vectorized path.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from bfpksort import (
    Permutation,
    RopeTables,
    default_rope_tables,
    remap_rope_tables,
    rope_apply,
)
from bfpksort.errors import InvalidRopeTables, ShapeMismatch


def rope_apply_matrix(tables: RopeTables, x, m) -> np.ndarray:
    """Dense-matrix reference: build the full rotation matrix and multiply.

    Quadratic in d_h; exists to cross-check :func:`rope_apply`.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != tables.d_h:
        raise ShapeMismatch(f"vector length {x.shape[-1]} != table length {tables.d_h}")
    d = tables.d_h
    angles = float(m) * tables.theta
    rot = np.zeros((d, d))
    rot[np.arange(d), np.arange(d)] = np.cos(angles)
    rot[np.arange(d), tables.partner] = tables.sign * np.sin(angles)
    return x @ rot.T


def scalar_rope(tables: RopeTables, x, m):
    """Element-by-element reference: pure Python floats."""
    out = []
    for j in range(tables.d_h):
        angle = m * float(tables.theta[j])
        out.append(
            float(x[j]) * math.cos(angle)
            + float(tables.sign[j]) * float(x[tables.partner[j]]) * math.sin(angle)
        )
    return np.array(out)


# ---------------------------------------------------------------------------
# table construction
# ---------------------------------------------------------------------------


def test_interleaved_tables_d4():
    t = default_rope_tables(4, base=10000.0, layout="interleaved")
    assert t.partner.tolist() == [1, 0, 3, 2]
    assert t.sign.tolist() == [-1, 1, -1, 1]
    assert t.theta.tolist() == [1.0, 1.0, 10000.0 ** -0.5, 10000.0 ** -0.5]


def test_half_split_tables_d4():
    t = default_rope_tables(4, base=10000.0, layout="half_split")
    assert t.partner.tolist() == [2, 3, 0, 1]
    assert t.sign.tolist() == [-1, -1, 1, 1]
    assert t.theta.tolist() == [1.0, 10000.0 ** -0.5, 1.0, 10000.0 ** -0.5]


@pytest.mark.parametrize("layout", ["interleaved", "half_split"])
@pytest.mark.parametrize("d_h", [2, 4, 8, 16, 32, 64, 128])
def test_layouts_satisfy_invariants(layout, d_h):
    default_rope_tables(d_h, layout=layout).validate()


def test_odd_or_tiny_dims_rejected():
    with pytest.raises(ValueError):
        default_rope_tables(5)
    with pytest.raises(ValueError):
        default_rope_tables(0)
    with pytest.raises(ValueError):
        default_rope_tables(8, layout="rotato")


def test_validate_catches_broken_tables():
    good = default_rope_tables(4)
    bad_sign = RopeTables(good.theta, good.partner, np.abs(good.sign))
    with pytest.raises(InvalidRopeTables):
        bad_sign.validate()
    bad_partner = RopeTables(good.theta, np.zeros(4, dtype=np.intp), good.sign)
    with pytest.raises(InvalidRopeTables):
        bad_partner.validate()
    bad_theta = RopeTables(np.arange(4.0), good.partner, good.sign)
    with pytest.raises(InvalidRopeTables):
        bad_theta.validate()


# ---------------------------------------------------------------------------
# rotation behaviour
# ---------------------------------------------------------------------------


def test_position_zero_is_identity():
    rng = np.random.default_rng(0)
    x = rng.normal(size=16)
    t = default_rope_tables(16)
    assert np.array_equal(rope_apply(t, x, 0), x)


def test_quarter_turn_two_channels():
    # one pair with theta=1 at m = pi/2 rotates (x1, x2) to (-x2, x1)
    t = RopeTables(
        theta=np.array([1.0, 1.0]),
        partner=np.array([1, 0], dtype=np.intp),
        sign=np.array([-1, 1], dtype=np.int8),
    )
    out = rope_apply(t, np.array([3.0, 5.0]), math.pi / 2)
    assert np.allclose(out, [-5.0, 3.0], atol=1e-12)


@pytest.mark.parametrize("layout", ["interleaved", "half_split"])
def test_norm_preserved(layout):
    rng = np.random.default_rng(1)
    t = default_rope_tables(64, layout=layout)
    for m in (1, 17, 4096):
        x = rng.normal(size=64)
        out = rope_apply(t, x, m)
        assert math.isclose(
            float(np.linalg.norm(out)), float(np.linalg.norm(x)), rel_tol=1e-12
        )


def test_matches_scalar_reference():
    rng = np.random.default_rng(2)
    for layout in ("interleaved", "half_split"):
        t = default_rope_tables(8, layout=layout)
        x = rng.normal(size=8)
        for m in (0, 1, 9, 1234):
            assert np.allclose(rope_apply(t, x, m), scalar_rope(t, x, m), atol=1e-13)


@pytest.mark.parametrize("d_h", [2, 4, 8, 16])
def test_matches_dense_matrix_oracle(d_h):
    rng = np.random.default_rng(3)
    for layout in ("interleaved", "half_split"):
        t = default_rope_tables(d_h, layout=layout)
        for m in (0, 1, 7, 100):
            x = rng.normal(size=d_h)
            a = rope_apply(t, x, m)
            b = rope_apply_matrix(t, x, m)
            assert np.allclose(a, b, rtol=1e-12, atol=1e-14)


def test_matrix_composition_adds_positions():
    t = default_rope_tables(8)
    rng = np.random.default_rng(4)
    x = rng.normal(size=8)
    two_step = rope_apply_matrix(t, rope_apply_matrix(t, x, 11), 31)
    one_step = rope_apply_matrix(t, x, 42)
    assert np.allclose(two_step, one_step, rtol=1e-11, atol=1e-12)


def test_relative_position_property():
    # scores under simultaneous rotation depend only on the position gap
    t = default_rope_tables(8)
    rng = np.random.default_rng(5)
    q, k = rng.normal(size=8), rng.normal(size=8)
    gap_scores = [
        float(np.dot(rope_apply(t, q, m), rope_apply(t, k, m - 3)))
        for m in (3, 10, 57, 90)
    ]
    assert np.allclose(gap_scores, gap_scores[0], rtol=1e-10)


def test_batched_rows_with_per_row_positions():
    t = default_rope_tables(8)
    rng = np.random.default_rng(6)
    X = rng.normal(size=(5, 8))
    m = np.arange(5)
    batched = rope_apply(t, X, m)
    for i in range(5):
        assert np.array_equal(batched[i], rope_apply(t, X[i], i))


def test_length_mismatch_rejected():
    t = default_rope_tables(8)
    with pytest.raises(ShapeMismatch):
        rope_apply(t, np.ones(6), 0)
    with pytest.raises(ShapeMismatch):
        rope_apply_matrix(t, np.ones(6), 0)


# ---------------------------------------------------------------------------
# commutation with channel permutation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("layout", ["interleaved", "half_split"])
@pytest.mark.parametrize("d_h", [4, 8, 64])
def test_permutation_commutes_bitwise(layout, d_h):
    rng = np.random.default_rng(7)
    tables = default_rope_tables(d_h, layout=layout)
    for _ in range(50):
        x = rng.normal(size=d_h)
        m = int(rng.integers(0, 10_000))
        perm = Permutation(rng.permutation(d_h).astype(np.intp))
        lhs = rope_apply(tables, x, m)[perm.indices]
        rhs = rope_apply(remap_rope_tables(tables, perm), x[perm.indices], m)
        assert np.array_equal(lhs, rhs)


def test_json_round_trip():
    t = default_rope_tables(8, layout="half_split")
    again = RopeTables.from_jsonable(t.to_jsonable())
    assert np.array_equal(t.theta, again.theta)
    assert np.array_equal(t.partner, again.partner)
    assert np.array_equal(t.sign, again.sign)
