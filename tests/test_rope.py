"""Rotary table construction and rotation properties.

The dense-matrix path (`rope_apply_matrix`) is the oracle; the scalar
expansion below is a second, loop-based reference sharing nothing with
either vectorized path.  `_rope_apply_oracle` is the one-line formula the
kernel replaced, and `_whole_array_rope_oracle` the whole-array kernel that
rotated every row at once before the kernel worked one block of rows at a
time: the kernel must match both byte for byte.
"""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np
import pytest

from bfpksort import (
    OutlierSpec,
    Permutation,
    RopeTables,
    default_rope_tables,
    gen_outlier_head,
    plan_head,
    remap_rope_tables,
    rope_apply,
)
from bfpksort import rope
from bfpksort.errors import BfpKsortError, InvalidRopeTables, InvalidValue, ShapeMismatch


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


def _rope_apply_oracle(tables: RopeTables, x, m) -> np.ndarray:
    """The formula of the module docstring, evaluated as written: every
    column's cos/sin, a fancy-index gather and the int8 sign."""
    x = np.asarray(x, dtype=np.float64)
    angles = np.expand_dims(np.asarray(m, dtype=np.float64), -1) * tables.theta
    return x * np.cos(angles) + tables.sign * x[..., tables.partner] * np.sin(angles)


def _whole_array_rope_oracle(tables: RopeTables, x, m) -> np.ndarray:
    """The kernel as it was before it worked in blocks of rows: every angle,
    the full gathered sine and the full partner copy at once."""
    x, m = np.asarray(x, dtype=np.float64), np.asarray(m, dtype=np.float64)
    bits, column = np.unique(tables.theta.view(np.int64), return_inverse=True)
    with np.errstate(over="ignore", invalid="ignore"):
        angles = np.expand_dims(m, -1) * bits.view(np.float64)
    if not np.isfinite(angles).all():
        raise InvalidValue("a rotary angle m * theta is not finite")
    out = x * np.take(np.cos(angles), column, axis=-1)
    sin = np.take(np.sin(angles, out=angles), column, axis=-1)
    sin *= tables.sign.astype(np.float64)
    t = np.take(np.broadcast_to(x, out.shape), tables.partner, axis=-1)
    t *= sin
    out += t
    return out


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
    default_rope_tables(d_h, layout=layout)  # a table checks its invariants when built


def test_odd_or_tiny_dims_rejected():
    with pytest.raises(ValueError):
        default_rope_tables(5)
    with pytest.raises(ValueError):
        default_rope_tables(0)
    with pytest.raises(ValueError):
        default_rope_tables(8, layout="rotato")


def test_base_overflowing_a_frequency_rejected():
    # 5e-324 ** (-62/64) is beyond float range; at d_h = 16 every frequency fits
    with pytest.raises(ValueError, match="overflows the rotary frequencies"):
        default_rope_tables(64, 5e-324)
    assert np.all(np.isfinite(default_rope_tables(16, 5e-324).theta))


def test_construction_catches_broken_tables():
    good = default_rope_tables(4)
    with pytest.raises(InvalidRopeTables):
        RopeTables(good.theta, good.partner, np.abs(good.sign))
    with pytest.raises(InvalidRopeTables):
        RopeTables(good.theta, np.zeros(4, dtype=np.intp), good.sign)
    with pytest.raises(InvalidRopeTables):
        RopeTables(np.arange(4.0), good.partner, good.sign)
    with pytest.raises(InvalidRopeTables, match="lengths disagree"):
        RopeTables(good.theta, good.partner[:3], good.sign)
    with pytest.raises(InvalidRopeTables, match="out of range"):
        RopeTables(good.theta, np.array([1, 0, 3, 4], np.intp), good.sign)
    with pytest.raises(InvalidRopeTables, match=r"\+/-1"):
        RopeTables(good.theta, good.partner, good.sign * 2)


_GOOD = default_rope_tables(4)

#: Tables that break one rule each, built from the valid interleaved d_h = 4 tables,
#: and the start of the refusal's message.
HOSTILE_TABLES = {
    "float_partner": ((_GOOD.theta, _GOOD.partner.astype(np.float64), _GOOD.sign),
                      "partner and sign must be integer arrays"),
    "lists": ((_GOOD.theta.tolist(), _GOOD.partner.tolist(), _GOOD.sign.tolist()),
              "partner and sign must be integer arrays"),
    "partner_out_of_range": ((_GOOD.theta, np.array([1, 0, 3, 4]), _GOOD.sign),
                             "partner indices out of range"),
    "self_paired": ((_GOOD.theta, np.arange(4), _GOOD.sign), "partner table must be an involution"),
    "half_sign": ((_GOOD.theta, _GOOD.partner, _GOOD.sign * 0.5),
                  "partner and sign must be integer arrays"),
    "inf_theta": ((np.full(4, np.inf), _GOOD.partner, _GOOD.sign), "frequencies must be finite"),
    "theta_2d": ((_GOOD.theta[:, None], _GOOD.partner, _GOOD.sign), "theta/partner/sign lengths"),
}


@pytest.mark.parametrize("case", list(HOSTILE_TABLES))
def test_hostile_tables_refused_when_built(case):
    # refused with a typed error (and no numpy warning, which fails any test here)
    # before any rotation, plan or decode can use them
    fields, message = HOSTILE_TABLES[case]
    with pytest.raises(BfpKsortError, match=f"^{re.escape(message)}"):
        RopeTables(*fields)


def test_tables_held_as_float64_intp_and_int8():
    good = default_rope_tables(8, layout="half_split")
    t = RopeTables(good.theta.astype(np.float32), good.partner.astype(np.uint8), good.sign.astype(np.int64))
    assert (t.theta.dtype, t.partner.dtype, t.sign.dtype) == (np.float64, np.intp, np.int8)
    assert np.array_equal(t.partner, good.partner) and np.array_equal(t.sign, good.sign)
    same = RopeTables(good.theta, good.partner, good.sign)  # arrays of those dtypes are not copied
    assert same.theta is good.theta and same.partner is good.partner and same.sign is good.sign


@pytest.mark.parametrize("field", ["theta", "partner", "sign"])
def test_tables_are_read_only(field):
    # a checked table cannot be broken afterwards: writing to it raises numpy's read-only error
    t = default_rope_tables(8)
    with pytest.raises(ValueError, match="read-only"):
        getattr(t, field)[0] = 0
    assert rope_apply(t, np.ones(8), 1).tobytes() == _rope_apply_oracle(t, np.ones(8), 1).tobytes()
    # the caller's own arrays are viewed, not copied, and stay writable
    good = default_rope_tables(8)
    mine = {name: getattr(good, name).copy() for name in ("theta", "partner", "sign")}
    held = getattr(RopeTables(**mine), field)
    assert np.shares_memory(held, mine[field]) and not held.flags.writeable
    assert mine[field].flags.writeable


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
        rope_apply(t, 1.0, 0)
    with pytest.raises(ShapeMismatch):
        rope_apply_matrix(t, np.ones(6), 0)


# ---------------------------------------------------------------------------
# the kernel against the formula it replaced, byte for byte
# ---------------------------------------------------------------------------


def _with_signed_zeros(x: np.ndarray) -> np.ndarray:
    """``x`` with +0.0 and -0.0 planted at fixed strides."""
    x = x.copy()
    x.reshape(-1)[::7] = 0.0
    x.reshape(-1)[3::11] = -0.0
    return x


def _assert_same_bytes(tables: RopeTables, x, m) -> None:
    got, want = rope_apply(tables, x, m), _rope_apply_oracle(tables, x, m)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()  # signed zeros count, unlike array_equal


def _plan_tables(layout: str, seed: int) -> RopeTables:
    """A sorted plan's tables: equal frequencies sit at arbitrary columns."""
    weights = gen_outlier_head(128, 64, OutlierSpec(4, 20.0, seed=seed))
    plan = plan_head(weights, default_rope_tables(128, layout=layout))
    assert not np.array_equal(plan.perm.indices, np.arange(128))
    return plan.rope


@pytest.mark.parametrize("layout", ["interleaved", "half_split"])
@pytest.mark.parametrize("d_h", [2, 8, 42, 128])
def test_kernel_matches_oracle_bytewise_single_vectors(layout, d_h):
    rng = np.random.default_rng(8)
    for base in (10000.0, 500000.0, 1.5):
        tables = default_rope_tables(d_h, base, layout)
        x = _with_signed_zeros(rng.normal(size=d_h))
        for m in (0, 1, 7, 4095, math.pi / 2, -3.25):
            _assert_same_bytes(tables, x, m)


@pytest.mark.parametrize("layout", ["interleaved", "half_split"])
def test_kernel_matches_oracle_bytewise_on_plan_tables(layout):
    rng = np.random.default_rng(9)
    for seed in range(3):
        tables = _plan_tables(layout, seed)
        x = _with_signed_zeros(rng.normal(size=(2, 64, 128)))
        _assert_same_bytes(tables, x, np.arange(64))
        _assert_same_bytes(tables, x[0, 5], 5)


@pytest.mark.parametrize("layout", ["interleaved", "half_split"])
def test_kernel_matches_oracle_bytewise_at_4k_tokens(layout):
    # the long-context decode: queries (T, d_h), then the stacked keys (2, T, d_h)
    rng = np.random.default_rng(10)
    T = 4096
    positions = np.arange(T)
    for tables in (default_rope_tables(128, layout=layout), _plan_tables(layout, 0)):
        x = _with_signed_zeros(rng.normal(size=(T, 128)))
        _assert_same_bytes(tables, x, positions)
        _assert_same_bytes(tables, np.stack([x, -x]), positions)


def test_kernel_matches_oracle_bytewise_on_zeros_and_broadcast_positions():
    tables = default_rope_tables(2)
    zeros = np.array([[0.0, -0.0], [-0.0, 0.0], [-0.0, -0.0], [0.0, 0.0]])
    for m in (0, 1, math.pi / 2, math.pi, 3 * math.pi / 2, np.arange(4)):
        _assert_same_bytes(tables, zeros, m)
    # positions with more axes than x broadcast the result up
    x = np.random.default_rng(11).normal(size=(5, 8))
    _assert_same_bytes(default_rope_tables(8), x, np.arange(5) * np.ones((3, 1)))


def test_kernel_keeps_signed_zero_frequencies_apart():
    # -0.0 == +0.0, but sin(m * -0.0) is -0.0: each bit pattern is its own frequency
    tables = RopeTables(
        theta=np.array([0.0, 0.0, -0.0, -0.0]),
        partner=np.array([1, 0, 3, 2], dtype=np.intp),
        sign=np.array([-1, 1, -1, 1], dtype=np.int8),
    )
    _assert_same_bytes(tables, np.array([1.0, -2.0, 3.0, -0.0]), 5)


# ---------------------------------------------------------------------------
# the row-blocked kernel against the whole-array kernel it replaced
# ---------------------------------------------------------------------------


def _all_tables(d_h: int) -> list:
    """Interleaved, half-split and remapped (sorted plan) tables of width d_h,
    and interleaved tables whose frequencies hold +0.0 and -0.0."""
    weights = gen_outlier_head(d_h, 16, OutlierSpec(2, 20.0, seed=d_h))
    plain = [default_rope_tables(d_h, layout=layout) for layout in ("interleaved", "half_split")]
    zeros = np.resize([0.0, 0.0, -0.0, -0.0, 0.5, 0.5], d_h)
    signed_zeros = RopeTables(zeros, plain[0].partner, plain[0].sign)
    return plain + [plan_head(weights, t).rope for t in plain] + [signed_zeros]


def _block_shapes():
    """(x, m) pairs covering every broadcast the kernel blocks over."""
    rng = np.random.default_rng(12)
    d, t = 8, 23
    x = _with_signed_zeros(rng.normal(size=(t, d)))
    return {
        "vector_scalar_m": (x[3], 3),
        "rows_positions": (x, np.arange(t)),
        "stacked_positions": (np.stack([x, -x]), np.arange(t)),
        "one_row_broadcast": (x[:1], np.arange(t)),
        "two_by_t_positions": (x, np.stack([np.arange(t), np.arange(t)[::-1]])),
        "rows_scalar_m": (x, 7),
        "zero_rows": (x[:0], np.arange(0)),
        "zero_rows_scalar_m": (x[:0], 5),
    }


@pytest.mark.parametrize("block_rows", [None, 1, 5], ids=["default", "rows_1", "rows_5"])
@pytest.mark.parametrize("case", list(_block_shapes()))
def test_blocked_kernel_matches_whole_array_oracle_bitwise(monkeypatch, case, block_rows):
    # 23 rows in blocks of 5 leave a ragged last block of 3
    x, m = _block_shapes()[case]
    if block_rows is not None:
        row_elements = max(1, x.size // max(1, x.shape[-2])) if x.ndim > 1 else x.size
        monkeypatch.setattr(rope, "_BLOCK_ELEMENTS", block_rows * row_elements)
    for tables in _all_tables(8):
        got, want = rope_apply(tables, x, m), _whole_array_rope_oracle(tables, x, m)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes(), (case, block_rows)


@pytest.mark.parametrize("stack", [1, 2])
def test_blocked_kernel_matches_whole_array_oracle_at_default_budget(stack):
    # 1300 rows of 128 channels: several default blocks and a ragged last one
    rng = np.random.default_rng(13)
    x = _with_signed_zeros(rng.normal(size=(stack, 1300, 128)))
    assert x[0].size > rope._BLOCK_ELEMENTS and 1300 % (rope._BLOCK_ELEMENTS // (stack * 128))
    for tables in _all_tables(128):
        got = rope_apply(tables, x, np.arange(1300))
        assert got.tobytes() == _whole_array_rope_oracle(tables, x, np.arange(1300)).tobytes()


@pytest.mark.filterwarnings("error")
def test_non_finite_angle_in_a_late_block_raises(monkeypatch):
    # the largest frequency is about 8.1e307: positions up to 2 are finite angles,
    # and only row 9, in the last of five two-row blocks, overflows
    tables = default_rope_tables(42, 5e-324)
    monkeypatch.setattr(rope, "_BLOCK_ELEMENTS", 2 * 42)
    x, m = np.ones((10, 42)), np.array([0, 1, 2] * 3 + [3])
    for kernel in (_whole_array_rope_oracle, rope_apply):
        with pytest.raises(InvalidValue, match="not finite"):
            kernel(tables, x, m)
    assert np.all(np.isfinite(rope_apply(tables, x[:9], m[:9])))


@pytest.mark.filterwarnings("error")
def test_non_finite_angle_raises_without_warning():
    # every frequency is finite (the largest about 8.1e307), but 3 * theta overflows
    tables = default_rope_tables(42, 5e-324)
    assert np.all(np.isfinite(tables.theta))
    x = np.ones((6, 42))
    with pytest.raises(ValueError, match="not finite"):
        rope_apply(tables, x, np.arange(6))
    with pytest.raises(ValueError, match="not finite"):
        rope_apply(default_rope_tables(8), x[0, :8], math.inf)
    assert np.all(np.isfinite(rope_apply(tables, x[:1], np.arange(1))))


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
    # the plan document's bytes, tables included, for one fixed half-split head
    weights = gen_outlier_head(8, 4, OutlierSpec(2, 20.0, seed=3))
    plan = plan_head(weights, default_rope_tables(8, layout="half_split"))
    assert hashlib.sha256(plan.to_json().encode()).hexdigest() == (
        "f3e737dcd61084b3c237546b4725b4cdab60e28605d39384da46f28b20ac992f"
    )
