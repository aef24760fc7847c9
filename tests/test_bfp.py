"""Codec correctness against an exhaustive independent oracle.

The reference quantizer below never computes an exponent arithmetically: it
walks every candidate exponent in the signed b-bit range from the bottom and
takes the first one under which the block's peak magnitude rounds into the
mantissa range.  Rounding is Python's built-in round (ties to even), applied
to ``v / 2.0**e`` — division by a power of two is exact, so the oracle shares
no code path and no numerics with the production encoder.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bfpksort import (
    BFP12_32,
    BFP12_64,
    BFP12_128,
    BFP16_32,
    BfpFormat,
    BfpTensor,
    bfp_dot,
    bits_per_element,
    dequantize,
    format_from_name,
    pack,
    quantize_block,
    quantize_tensor,
    unpack,
)
from bfpksort.errors import (
    CorruptBuffer,
    ExponentOverflow,
    InvalidValue,
    ShapeMismatch,
)

# ---------------------------------------------------------------------------
# reference implementation
# ---------------------------------------------------------------------------


def oracle_quantize_block(values, fmt: BfpFormat):
    """Brute-force search for the smallest legal exponent, then round."""
    vals = [float(v) for v in values] + [0.0] * (fmt.block_size - len(values))
    mmax = fmt.mantissa_max
    peak = max(abs(v) for v in vals)
    if peak == 0.0:
        return fmt.exponent_min, [0] * fmt.block_size
    for e in range(fmt.exponent_min, fmt.exponent_max + 1):
        scaled = peak / 2.0**e
        if scaled > 2**fmt.mantissa_bits:  # far out of range; round() could overflow
            continue
        if round(scaled) <= mmax:
            mant = [max(-mmax, min(mmax, round(v / 2.0**e))) for v in vals]
            return e, mant
    raise OverflowError("no representable exponent")


def random_block_values(rng: np.random.Generator, max_len: int) -> np.ndarray:
    """Mixed-regime vectors: plain normals, power-of-two scaled, tie-prone."""
    length = int(rng.integers(1, max_len + 1))
    kind = rng.integers(0, 4)
    if kind == 0:
        v = rng.normal(size=length)
    elif kind == 1:
        v = rng.normal(size=length) * 2.0 ** int(rng.integers(-100, 100))
    elif kind == 2:
        # halves on a coarse grid force round-half-to-even decisions
        v = rng.integers(-16, 17, size=length) * 2.0 ** int(rng.integers(-3, 4)) / 2.0
    else:
        v = rng.normal(size=length)
        v[rng.random(size=length) < 0.3] = 0.0
    return v


# ---------------------------------------------------------------------------
# quantize_block
# ---------------------------------------------------------------------------


def test_all_zero_block_convention():
    fmt = BfpFormat(mantissa_bits=4, block_size=4)
    block = quantize_block([0.0, 0.0, 0.0, 0.0], fmt)
    assert block.exponent == -128
    assert block.mantissas.tolist() == [0, 0, 0, 0]
    assert block.decode().tolist() == [0.0, 0.0, 0.0, 0.0]


def test_small_integers_are_exact():
    fmt = BfpFormat(mantissa_bits=4, block_size=4)
    block = quantize_block([1, 2, 3, 7], fmt)
    assert block.exponent == 0
    assert block.mantissas.tolist() == [1, 2, 3, 7]


def test_mixed_magnitudes_match_oracle_frozen():
    # oracle_quantize_block([1.0, -0.5, 0.25, 6.0]) -> e=0, M=[1, 0, 0, 6]:
    # e=-1 would need round(12) <= 7; -0.5 rounds to -0 under ties-to-even.
    fmt = BfpFormat(mantissa_bits=4, block_size=4)
    values = [1.0, -0.5, 0.25, 6.0]
    assert oracle_quantize_block(values, fmt) == (0, [1, 0, 0, 6])
    block = quantize_block(values, fmt)
    assert block.exponent == 0
    assert block.mantissas.tolist() == [1, 0, 0, 6]


def test_short_input_zero_padded():
    # 3.0 encodes at the minimal exponent as 6 * 2**-1; the tail is padding
    fmt = BfpFormat(mantissa_bits=4, block_size=8)
    block = quantize_block([3.0], fmt)
    assert block.exponent == -1
    assert block.mantissas.tolist() == [6, 0, 0, 0, 0, 0, 0, 0]
    assert block.decode().tolist() == [3.0] + [0.0] * 7


def test_non_finite_rejected():
    fmt = BfpFormat(mantissa_bits=4, block_size=4)
    with pytest.raises(InvalidValue):
        quantize_block([1.0, float("nan")], fmt)
    with pytest.raises(InvalidValue):
        quantize_block([float("inf"), 0.0], fmt)


def test_exponent_overflow_raises():
    fmt = BfpFormat(mantissa_bits=4, block_size=2)
    with pytest.raises(ExponentOverflow):
        quantize_block([2.0**150, 0.0], fmt)


def test_codec_errors_print_plain_indices():
    # indices read (0, 1), not numpy scalar reprs such as (np.int64(0), np.int64(1))
    x = np.zeros((2, 4))
    x[0, 1] = np.nan
    with pytest.raises(InvalidValue) as exc:
        quantize_tensor(x, BfpFormat(mantissa_bits=4, block_size=2), blocking_axis=1)
    assert str(exc.value) == "non-finite input at index (0, 1)"
    x[0, 1], x[1, 3] = 0.0, 2.0**150
    with pytest.raises(ExponentOverflow) as exc:
        quantize_tensor(x, BfpFormat(mantissa_bits=4, block_size=2), blocking_axis=1)
    assert str(exc.value) == (
        f"block (1, 1): magnitude {2.0**150:g} needs exponent 148, above the 8-bit maximum 127"
    )


def test_oversized_input_rejected():
    fmt = BfpFormat(mantissa_bits=4, block_size=2)
    with pytest.raises(ShapeMismatch):
        quantize_block([1.0, 2.0, 3.0], fmt)


@pytest.mark.parametrize("p", [2, 3, 4, 6, 8])
def test_quantize_block_matches_oracle(p):
    rng = np.random.default_rng(1000 + p)
    fmt = BfpFormat(mantissa_bits=p, block_size=8)
    for _ in range(500):
        values = random_block_values(rng, fmt.block_size)
        e_ref, m_ref = oracle_quantize_block(values, fmt)
        block = quantize_block(values, fmt)
        assert block.exponent == e_ref
        assert block.mantissas.tolist() == m_ref


def test_mantissa_range_and_minimality():
    rng = np.random.default_rng(7)
    fmt = BfpFormat(mantissa_bits=4, block_size=16)
    for _ in range(300):
        values = random_block_values(rng, fmt.block_size)
        block = quantize_block(values, fmt)
        peak = int(np.abs(block.mantissas).max())
        assert peak <= fmt.mantissa_max
        if np.any(np.asarray(values) != 0.0):
            # smallest legal exponent keeps the top mantissa in the upper half
            assert peak >= 2 ** (fmt.mantissa_bits - 2)


def test_underflow_clamps_to_floor_exponent():
    fmt = BfpFormat(mantissa_bits=4, block_size=2)
    block = quantize_block([2.0**-140, 0.0], fmt)
    assert block.exponent == fmt.exponent_min
    assert block.mantissas.tolist() == [0, 0]


# ---------------------------------------------------------------------------
# quantize_tensor / dequantize
# ---------------------------------------------------------------------------


def test_tensor_block_layout():
    fmt = BfpFormat(mantissa_bits=4, block_size=4)
    t = quantize_tensor(np.arange(8.0).reshape(2, 4), fmt, blocking_axis=1)
    assert t.num_blocks == 2
    assert t.padding_count == 0
    assert t.exponents.shape == (2, 2 // 2)


def test_ragged_axis_pads_final_block():
    fmt = BfpFormat(mantissa_bits=4, block_size=4)
    t = quantize_tensor(np.ones((1, 6)), fmt, blocking_axis=1)
    assert t.num_blocks == 2
    assert t.padding_count == 2
    assert dequantize(t).shape == (1, 6)
    assert t.block(1).mantissas.tolist()[2:] == [0, 0]


def test_tensor_matches_per_block_scalar_reference():
    rng = np.random.default_rng(21)
    fmt = BfpFormat(mantissa_bits=4, block_size=32)
    x = rng.normal(size=(4, 128)) * np.exp(rng.normal(size=(4, 1)) * 3)
    t = quantize_tensor(x, fmt, blocking_axis=1)
    assert t.num_blocks == 16
    for row in range(4):
        for blk in range(4):
            e_ref, m_ref = oracle_quantize_block(x[row, blk * 32 : (blk + 1) * 32], fmt)
            b = t.block(row * 4 + blk)
            assert b.exponent == e_ref
            assert b.mantissas.tolist() == m_ref


def test_blocking_along_axis0():
    fmt = BfpFormat(mantissa_bits=8, block_size=2)
    x = np.arange(6.0).reshape(3, 2)
    t = quantize_tensor(x, fmt, blocking_axis=0)
    assert t.exponents.shape == (2, 2)  # (columns, blocks of rows)
    assert np.array_equal(dequantize(t), x)


def test_dequantize_example_block():
    fmt = BfpFormat(mantissa_bits=4, block_size=4)
    t = quantize_tensor([1.0, 2.0, 3.0, 7.0], fmt, blocking_axis=0)
    assert dequantize(t).tolist() == [1.0, 2.0, 3.0, 7.0]


def test_roundtrip_idempotence():
    rng = np.random.default_rng(33)
    fmt = BfpFormat(mantissa_bits=4, block_size=8)
    for _ in range(200):
        x = random_block_values(rng, 24)
        t1 = quantize_tensor(x, fmt, blocking_axis=0)
        t2 = quantize_tensor(dequantize(t1), fmt, blocking_axis=0)
        assert np.array_equal(t1.exponents, t2.exponents)
        assert np.array_equal(t1.mantissas, t2.mantissas)


def test_exactly_representable_inputs_survive():
    rng = np.random.default_rng(5)
    fmt = BfpFormat(mantissa_bits=5, block_size=16)
    for _ in range(100):
        e = int(rng.integers(-60, 60))
        m = rng.integers(-fmt.mantissa_max, fmt.mantissa_max + 1, size=16)
        x = np.ldexp(m.astype(np.float64), e)
        assert np.array_equal(dequantize(quantize_tensor(x, fmt, 0)), x)


def test_scale_equivariance():
    rng = np.random.default_rng(6)
    fmt = BfpFormat(mantissa_bits=4, block_size=8)
    x = rng.normal(size=16)
    base = quantize_tensor(x, fmt, 0)
    for shift in (-12, -1, 1, 20):
        shifted = quantize_tensor(np.ldexp(x, shift), fmt, 0)
        assert np.array_equal(shifted.exponents, base.exponents + shift)
        assert np.array_equal(shifted.mantissas, base.mantissas)


def test_empty_tensor():
    fmt = BfpFormat(mantissa_bits=4, block_size=4)
    t = quantize_tensor(np.empty((0, 6)), fmt, blocking_axis=1)
    assert t.num_blocks == 0
    assert dequantize(t).shape == (0, 6)
    assert pack(t) == b""


def test_empty_tensor_with_huge_block_size(deadline):
    # no blocks, so no fields to pack or unpack, however many a block would hold
    fmt = BfpFormat(mantissa_bits=4, block_size=2**32 - 1)
    with deadline(10):
        t = quantize_tensor(np.zeros(0), fmt)
        assert pack(t) == b""
        assert unpack(b"", fmt, (0,)).logical_shape == t.logical_shape


# ---------------------------------------------------------------------------
# bfp_dot
# ---------------------------------------------------------------------------


def test_dot_with_zero_vector_is_zero():
    fmt = BfpFormat(mantissa_bits=4, block_size=4)
    a = quantize_tensor(np.arange(8.0), fmt, 0)
    z = quantize_tensor(np.zeros(8), fmt, 0)
    assert bfp_dot(a, z) == 0.0


def test_dot_of_small_integer_vectors_is_exact():
    fmt = BfpFormat(mantissa_bits=8, block_size=4)
    x = np.array([1.0, -2.0, 3.0, 5.0, 7.0, 11.0, -13.0, 17.0])
    y = np.array([2.0, 4.0, -6.0, 8.0, 10.0, -12.0, 14.0, 16.0])
    a = quantize_tensor(x, fmt, 0)
    k = quantize_tensor(y, fmt, 0)
    assert bfp_dot(a, k) == float(np.dot(x, y))


def test_dot_matches_float_reference():
    rng = np.random.default_rng(44)
    for _ in range(100):
        n = int(rng.integers(1, 65))
        length = int(rng.integers(1, 1025))
        fmt = BfpFormat(mantissa_bits=int(rng.integers(3, 9)), block_size=n)
        x = rng.normal(size=length) * 2.0 ** int(rng.integers(-20, 20))
        y = rng.normal(size=length)
        a = quantize_tensor(x, fmt, 0)
        k = quantize_tensor(y, fmt, 0)
        ref = float(np.dot(dequantize(a), dequantize(k)))
        assert abs(bfp_dot(a, k) - ref) <= 1e-10 * (1.0 + abs(ref))


def test_dot_mismatched_partitioning_rejected():
    a = quantize_tensor(np.ones(8), BfpFormat(4, 4), 0)
    b = quantize_tensor(np.ones(8), BfpFormat(4, 8), 0)
    c = quantize_tensor(np.ones(12), BfpFormat(4, 4), 0)
    with pytest.raises(ShapeMismatch):
        bfp_dot(a, b)
    with pytest.raises(ShapeMismatch):
        bfp_dot(a, c)


def test_dot_allows_mixed_mantissa_widths():
    # key at 4 bits against query at 8 bits shares the same partitioning
    x = np.linspace(-3, 3, 32)
    a = quantize_tensor(x, BfpFormat(4, 16), 0)
    k = quantize_tensor(x, BfpFormat(8, 16), 0)
    ref = float(np.dot(dequantize(a), dequantize(k)))
    assert abs(bfp_dot(a, k) - ref) <= 1e-10 * (1.0 + abs(ref))


# ---------------------------------------------------------------------------
# pack / unpack
# ---------------------------------------------------------------------------


def _pack_oracle(t: BfpTensor) -> bytes:
    """Reference packer: one Python integer per block, its fields ORed in one by one."""
    fmt = t.fmt
    emask = (1 << fmt.exponent_bits) - 1
    pmask = (1 << fmt.mantissa_bits) - 1
    p = fmt.mantissa_bits
    nbytes = fmt.bytes_per_block
    out = bytearray()
    exps = t.exponents.reshape(-1).tolist()
    rows = t.mantissas.reshape(-1, fmt.block_size).tolist()
    for e, row in zip(exps, rows):
        word = e & emask
        shift = fmt.exponent_bits
        for m in row:
            word |= (m & pmask) << shift
            shift += p
        out += word.to_bytes(nbytes, "little")
    return bytes(out)


def _sign_extend(field: int, bits: int) -> int:
    return field - (1 << bits) if field & (1 << (bits - 1)) else field


def _unpack_oracle(buf: bytes, fmt: BfpFormat, shape, blocking_axis: int = -1) -> BfpTensor:
    """Reference unpacker: reads each block as one Python integer and shifts fields off."""
    shape = tuple(int(d) for d in shape)
    ndim = len(shape)
    if ndim == 0 or not -ndim <= blocking_axis < ndim:
        raise ShapeMismatch(f"axis {blocking_axis} out of range for shape {shape}")
    axis = blocking_axis % ndim

    n = fmt.block_size
    axis_len = shape[axis]
    nblocks_axis = -(-axis_len // n)
    outer = tuple(d for i, d in enumerate(shape) if i != axis)
    count = math.prod(outer) * nblocks_axis
    nbytes = fmt.bytes_per_block
    if len(buf) != count * nbytes:
        raise CorruptBuffer(
            f"expected {count * nbytes} bytes for {count} blocks of {nbytes}, got {len(buf)}"
        )

    emask = (1 << fmt.exponent_bits) - 1
    pmask = (1 << fmt.mantissa_bits) - 1
    p = fmt.mantissa_bits
    exps = np.empty(count, dtype=np.int32)
    mants = np.empty((count, n), dtype=np.int32)
    for i in range(count):
        word = int.from_bytes(buf[i * nbytes : (i + 1) * nbytes], "little")
        exps[i] = _sign_extend(word & emask, fmt.exponent_bits)
        word >>= fmt.exponent_bits
        for j in range(n):
            mants[i, j] = _sign_extend(word & pmask, p)
            word >>= p

    padding = nblocks_axis * n - axis_len
    if padding:
        tail = mants.reshape(outer + (nblocks_axis, n))[..., -1, n - padding :]
        if np.any(tail != 0):
            raise CorruptBuffer("padding mantissas must decode to zero")
    return BfpTensor(
        fmt=fmt,
        logical_shape=shape,
        blocking_axis=axis,
        exponents=exps.reshape(outer + (nblocks_axis,)),
        mantissas=mants.reshape(outer + (nblocks_axis, n)),
    )


FUZZ_BLOCK_SIZES = (1, 3, 7, 24, 32, 33, 128)
#: every blocking axis of 1-D, 2-D and 3-D shapes, as (ndim, axis)
FUZZ_LAYOUTS = [(ndim, axis) for ndim in (1, 2, 3) for axis in range(ndim)]


def _fuzz_cases(rng: np.random.Generator, p: int):
    """Formats with mantissa width ``p`` over exponent widths 2/8/11 and every fuzz
    block size, each with a random shape whose blocking axis usually ends ragged."""
    combos = itertools.product((2, 8, 11), FUZZ_BLOCK_SIZES)
    for i, (b, n) in enumerate(combos):
        ndim, axis = FUZZ_LAYOUTS[(i + p) % len(FUZZ_LAYOUTS)]
        shape = [int(d) for d in rng.integers(1, 4, size=ndim)]
        shape[axis] = int(rng.integers(1, 3 * n + 1))
        yield BfpFormat(p, n, b), tuple(shape), axis


def _random_bfp_tensor(rng, fmt: BfpFormat, shape, axis) -> BfpTensor:
    """In-range exponents and mantissas; the first block is all zero at exponent_min
    and the last holds +-mantissa_max at exponent_max."""
    n = fmt.block_size
    nblocks = -(-shape[axis] // n)
    outer = tuple(d for i, d in enumerate(shape) if i != axis)
    exps = rng.integers(fmt.exponent_min, fmt.exponent_max + 1, size=outer + (nblocks,))
    mants = rng.integers(-fmt.mantissa_max, fmt.mantissa_max + 1, size=outer + (nblocks, n))
    exps.reshape(-1)[0] = fmt.exponent_min
    mants.reshape(-1, n)[0] = 0
    exps.reshape(-1)[-1] = fmt.exponent_max
    mants.reshape(-1, n)[-1] = rng.choice([-fmt.mantissa_max, fmt.mantissa_max], size=n)
    padding = nblocks * n - shape[axis]
    mants[..., -1, n - padding :] = 0
    return BfpTensor(fmt, shape, axis, exps.astype(np.int32), mants.astype(np.int32))


def _random_packed_buffer(rng, fmt: BfpFormat, shape, axis) -> bytes:
    """Random block bytes with the padding mantissas zeroed; the first mantissa holds
    the code -2**(p-1), which the encoder never produces.  Bits past the last field
    of each block stay random."""
    n, b, p = fmt.block_size, fmt.exponent_bits, fmt.mantissa_bits
    nblocks = -(-shape[axis] // n)
    count = math.prod(d for i, d in enumerate(shape) if i != axis) * nblocks
    nbytes = fmt.bytes_per_block
    raw = rng.bytes(count * nbytes)
    words = [int.from_bytes(raw[i * nbytes : (i + 1) * nbytes], "little") for i in range(count)]
    pmask = (1 << p) - 1
    words[0] = words[0] & ~(pmask << b) | (1 << (p - 1)) << b
    padding = nblocks * n - shape[axis]
    for i in range(nblocks - 1, count, nblocks):
        words[i] &= ~(((1 << (padding * p)) - 1) << (b + (n - padding) * p))
    return b"".join(w.to_bytes(nbytes, "little") for w in words)


def _assert_unpack_matches_oracle(buf: bytes, fmt: BfpFormat, shape, axis):
    """Unpack ``buf`` both ways; returns the tensor, or ``None`` when both reject it."""
    try:
        want = _unpack_oracle(buf, fmt, shape, axis)
    except CorruptBuffer:
        with pytest.raises(CorruptBuffer):
            unpack(buf, fmt, shape, axis)
        return None
    got = unpack(buf, fmt, shape, axis)
    assert got.exponents.dtype == want.exponents.dtype
    assert got.mantissas.dtype == want.mantissas.dtype
    assert np.array_equal(got.exponents, want.exponents)
    assert np.array_equal(got.mantissas, want.mantissas)
    assert got.padding_count == want.padding_count
    return got


@pytest.mark.parametrize("p", range(2, 17))
def test_pack_matches_loop_oracle(p):
    rng = np.random.default_rng(100 + p)
    for fmt, shape, axis in _fuzz_cases(rng, p):
        t = _random_bfp_tensor(rng, fmt, shape, axis)
        buf = pack(t)
        assert buf == _pack_oracle(t), (fmt, shape, axis)
        _assert_unpack_matches_oracle(buf, fmt, shape, axis)


@pytest.mark.parametrize("p", range(2, 17))
def test_unpack_matches_loop_oracle_on_random_bytes(p):
    rng = np.random.default_rng(200 + p)
    for fmt, shape, axis in _fuzz_cases(rng, p):
        buf = _random_packed_buffer(rng, fmt, shape, axis)
        got = _assert_unpack_matches_oracle(buf, fmt, shape, axis)
        assert got.mantissas.reshape(-1)[0] == -(1 << (p - 1))
        # unzeroed padding: both reject a ragged tail, both accept a whole one
        _assert_unpack_matches_oracle(rng.bytes(len(buf)), fmt, shape, axis)


def test_block_sizes_bfp12_bfp16():
    assert BFP12_32.bytes_per_block == 17  # 8 + 32*4 = 136 bits
    assert BFP16_32.bytes_per_block == 33  # 8 + 32*8 = 264 bits
    assert BFP12_128.bytes_per_block == 65


def test_pack_layout_single_block():
    # exponent byte first, then mantissa nibbles packed low-first
    fmt = BfpFormat(mantissa_bits=4, block_size=4)
    t = quantize_tensor([1.0, 2.0, 3.0, -7.0], fmt, 0)
    buf = pack(t)
    assert len(buf) == 3
    assert buf[0] == 0x00  # e = 0 (peak 7 rounds to the mantissa maximum)
    assert buf[1] == 0x21  # M0=1 low nibble, M1=2 high
    assert buf[2] == 0x93  # M2=3, M3=-7 -> 0x9 two's complement


def test_pack_unpack_roundtrip_random():
    rng = np.random.default_rng(9)
    for _ in range(100):
        p = int(rng.integers(2, 9))
        n = int(rng.integers(1, 33))
        fmt = BfpFormat(mantissa_bits=p, block_size=n)
        shape = tuple(int(s) for s in rng.integers(1, 6, size=int(rng.integers(1, 4))))
        axis = int(rng.integers(0, len(shape)))
        x = rng.normal(size=shape) * 2.0 ** int(rng.integers(-30, 30))
        t = quantize_tensor(x, fmt, axis)
        buf = pack(t)
        assert len(buf) == t.packed_nbytes
        t2 = unpack(buf, fmt, shape, axis)
        assert np.array_equal(t.exponents, t2.exponents)
        assert np.array_equal(t.mantissas, t2.mantissas)
        assert t2.padding_count == t.padding_count
        assert pack(t2) == buf


def test_unpack_truncated_buffer_rejected():
    fmt = BfpFormat(mantissa_bits=4, block_size=4)
    t = quantize_tensor(np.ones((2, 4)), fmt, 1)
    buf = pack(t)
    with pytest.raises(CorruptBuffer):
        unpack(buf[:-1], fmt, (2, 4), 1)
    with pytest.raises(CorruptBuffer):
        unpack(buf + b"\x00", fmt, (2, 4), 1)


def test_unpack_nonzero_padding_rejected():
    fmt = BfpFormat(mantissa_bits=8, block_size=4)
    t = quantize_tensor(np.ones(3), fmt, 0)
    buf = bytearray(pack(t))
    buf[-1] = 0x01  # last mantissa slot is padding
    with pytest.raises(CorruptBuffer):
        unpack(bytes(buf), fmt, (3,), 0)


def test_unpack_bad_axis_rejected():
    fmt = BfpFormat(mantissa_bits=4, block_size=4)
    with pytest.raises(ShapeMismatch):
        unpack(b"", fmt, (2, 4), 5)


@pytest.mark.parametrize(
    "shape, axis", [((3,), 5), ((3,), -1), ((), 0)], ids=["past_end", "negative", "zero_dim"]
)
def test_tensor_axis_outside_shape_rejected(shape, axis):
    # built directly, a tensor does not normalise its axis as quantize_tensor does
    fmt = BfpFormat(mantissa_bits=4, block_size=4)
    empty = np.zeros((1,), np.int32)
    with pytest.raises(ShapeMismatch, match="blocking axis"):
        BfpTensor(fmt, shape, axis, empty, empty.reshape(1, 1).repeat(4, axis=1))


# ---------------------------------------------------------------------------
# formats and storage cost
# ---------------------------------------------------------------------------


def test_bits_per_element_values():
    assert bits_per_element(BFP12_32) == Fraction(17, 4)  # 4.25
    assert bits_per_element(BFP16_32) == Fraction(33, 4)  # 8.25
    assert bits_per_element(BFP12_64) == Fraction(4) + Fraction(8, 64)
    ratio = bits_per_element(BFP16_32) / bits_per_element(BFP12_32)
    assert abs(float(ratio) - 2.0) < 0.06  # 33/17, the "about half the bits" claim


def test_format_from_name():
    assert format_from_name("BFP12_64") == BFP12_64
    assert format_from_name("BFP16_32") == BFP16_32
    with pytest.raises(ValueError):
        format_from_name("BFP13_32")
    with pytest.raises(ValueError):
        format_from_name("BFP12")


def test_format_validation():
    with pytest.raises(ValueError):
        BfpFormat(mantissa_bits=1, block_size=4)
    with pytest.raises(ValueError):
        BfpFormat(mantissa_bits=4, block_size=0)
    with pytest.raises(ValueError):
        BfpFormat(mantissa_bits=4, block_size=4, exponent_bits=16)
