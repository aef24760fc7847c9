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
    BFP16_32,
    BfpFormat,
    BfpTensor,
    OutlierSpec,
    bfp_dot,
    bits_per_element,
    dequantize,
    gen_activations,
    gen_outlier_head,
    pack,
    quantize_block,
    quantize_tensor,
    unpack,
)
from bfpksort import tensorio
from bfpksort.bfp import BFP12_64, BFP12_128, BFP16_128, _field_classes, format_from_name
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
    assert str(exc.value) == "x must be finite, got nan at index (0, 1)"
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


def _kcache_keys(seed: int) -> np.ndarray:
    """The 4096 x 128 key cache of one synthetic outlier head, as the benchmark builds it."""
    weights = gen_outlier_head(128, 256, OutlierSpec(4, 50.0, 1.0, seed=seed))
    return gen_activations(4096, 256, seed) @ weights.w_k.T


@pytest.mark.parametrize("b", [2, 11])
@pytest.mark.parametrize("p, n", [(4, 32), (8, 128)], ids=["p4n32", "p8n128"])
def test_kcache_blocks_near_exponent_floor_and_ceiling_match_oracle(b, p, n):
    # each block of a key cache is rescaled so that its peak sits a few binades above
    # the bottom of the exponent range (or below it, where the exponent clamps), or
    # just under the largest peak the format can hold (float64's, for 11 bits)
    rng = np.random.default_rng(31 + b)
    fmt = BfpFormat(p, n, b)
    blocks = _kcache_keys(b).reshape(4096, 128 // n, n)
    grid = blocks.shape[:2]
    ceiling = min((fmt.mantissa_max + 0.5) * 2.0**fmt.exponent_max, np.finfo(np.float64).max)
    low = 2.0 ** (fmt.exponent_min + p - 1 + rng.integers(-8, 2, size=grid))
    peaks = np.where(
        rng.random(grid) < 0.5,
        low * rng.uniform(0.5, 1.0, size=grid),
        ceiling * rng.uniform(2.0**-4, 1.0, size=grid),
    )
    x = (blocks / np.abs(blocks).max(axis=-1, keepdims=True) * peaks[..., None]).reshape(4096, 128)
    t = quantize_tensor(x, fmt, blocking_axis=1)
    assert t.exponents.dtype == np.int32 and t.mantissas.dtype == np.int8
    assert t.exponents.min() == fmt.exponent_min
    # float64's largest value, just under 2**1024, takes exponent 1026 - p
    assert t.exponents.max() >= min(fmt.exponent_max, 1025 - p)
    for row in range(0, 4096, 9):  # the oracle walks up to 2048 exponents per block
        for blk in range(128 // n):
            e_ref, m_ref = oracle_quantize_block(x[row, blk * n : (blk + 1) * n], fmt)
            assert t.exponents[row, blk] == e_ref, (row, blk)
            assert t.mantissas[row, blk].tolist() == m_ref, (row, blk)


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
    matrix = quantize_tensor(np.ones((2, 4)), BfpFormat(4, 4), 1)
    with pytest.raises(ShapeMismatch, match="1-D"):
        bfp_dot(matrix, matrix)


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


def _narrow(p: int) -> type:
    """The signed integer type the codec holds ``p``-bit mantissas in."""
    return np.int8 if p <= 8 else np.int16


def _assert_unpack_matches_oracle(buf: bytes, fmt: BfpFormat, shape, axis):
    """Unpack ``buf`` both ways; returns the tensor, or ``None`` when both reject it.
    The oracle's arrays are int32; unpack's mantissas must be narrow, with equal values."""
    try:
        want = _unpack_oracle(buf, fmt, shape, axis)
    except CorruptBuffer:
        with pytest.raises(CorruptBuffer):
            unpack(buf, fmt, shape, axis)
        return None
    got = unpack(buf, fmt, shape, axis)
    assert want.exponents.dtype == want.mantissas.dtype == np.int32
    assert got.exponents.dtype == np.int32
    assert got.mantissas.dtype == _narrow(fmt.mantissa_bits)
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


@pytest.mark.parametrize("p", range(2, 17))
def test_field_classes_tile_each_block(p):
    # the kernels' classes place every field once, where the wire layout puts it,
    # and number at most 9 at any block size: never one pass per field
    for b, n in itertools.product((2, 8, 11), FUZZ_BLOCK_SIZES):
        fmt = BfpFormat(p, n, b)
        classes = list(_field_classes(fmt))
        assert len(classes) <= 9, fmt
        bits = {}
        for fields, offset, width, stride in classes:
            for i, field in enumerate(fields):
                assert field not in bits, (fmt, field)
                bits[field] = (offset + 8 * stride * i, width)
        assert sorted(bits) == list(range(n + 1)), fmt
        end = 0
        for field in range(n + 1):
            start, width = bits[field]
            assert (start, width) == (end, b if field == 0 else p), (fmt, field)
            end += width
        assert end == fmt.bits_per_block, fmt


@pytest.mark.parametrize("fmt", [BFP12_32, BFP16_128], ids=lambda f: f.name)
def test_kcache_pack_and_unpack_match_loop_oracles(fmt):
    keys = _kcache_keys(3)
    t = quantize_tensor(keys, fmt, blocking_axis=1)
    buf = pack(t)
    assert buf == _pack_oracle(t)
    got = _assert_unpack_matches_oracle(buf, fmt, keys.shape, 1)
    assert np.array_equal(got.mantissas, t.mantissas)
    assert np.array_equal(got.exponents, t.exponents)


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
    "shape", [(4.9,), (True, 0), (-1,)], ids=["fractional", "bool", "negative"]
)
def test_unpack_refuses_a_dim_that_is_not_a_count(shape):
    fmt = BfpFormat(mantissa_bits=4, block_size=4)
    with pytest.raises(ShapeMismatch, match="dims must be integers >= 0"):
        unpack(b"", fmt, shape)
    assert unpack(b"", fmt, (np.int64(0),)).logical_shape == (0,)  # numpy integers are counts


@pytest.mark.parametrize(
    "shape, axis", [((3,), 5), ((3,), -1), ((), 0)], ids=["past_end", "negative", "zero_dim"]
)
def test_tensor_axis_outside_shape_rejected(shape, axis):
    # built directly, a tensor does not normalise its axis as quantize_tensor does
    fmt = BfpFormat(mantissa_bits=4, block_size=4)
    empty = np.zeros((1,), np.int32)
    with pytest.raises(ShapeMismatch, match="blocking axis"):
        BfpTensor(fmt, shape, axis, empty, empty.reshape(1, 1).repeat(4, axis=1))


def test_tensor_arrays_of_wrong_shape_rejected():
    fmt = BfpFormat(mantissa_bits=4, block_size=4)
    good = quantize_tensor(np.ones((2, 8)), fmt, 1)  # 2 x 2 blocks of 4
    with pytest.raises(ShapeMismatch, match="exponent array shape"):
        BfpTensor(fmt, (2, 8), 1, good.exponents[:, :1], good.mantissas[:, :1])
    with pytest.raises(ShapeMismatch, match="mantissa array shape"):
        BfpTensor(fmt, (2, 8), 1, good.exponents, good.mantissas[..., :3])


@pytest.mark.parametrize(
    "field, value, got",
    [("exponents", lambda a: a.astype(np.float64), "float64"),
     ("exponents", lambda a: a.tolist(), "list"),
     ("mantissas", lambda a: a.astype(np.float32), "float32"),
     ("mantissas", lambda a: a != 0, "bool")],
    ids=["float_exponents", "list_exponents", "float_mantissas", "bool_mantissas"],
)
def test_tensor_holds_only_integer_arrays(field, value, got):
    # refused when built, never a raw TypeError in dequantize or pack, or an AttributeError
    good = quantize_tensor(np.arange(8.0).reshape(2, 4), BfpFormat(4, 4), 1)
    fields = {"exponents": good.exponents, "mantissas": good.mantissas}
    fields[field] = value(fields[field])
    with pytest.raises(InvalidValue, match=f"^{field} must be an integer array, got {got}$"):
        BfpTensor(good.fmt, good.logical_shape, 1, **fields)


def test_tensor_is_read_only():
    # a checked tensor cannot be broken afterwards: writing to it raises numpy's read-only error
    t = quantize_tensor(gen_activations(4, 64, 0), BFP12_32, blocking_axis=1)
    with pytest.raises(ValueError, match="read-only"):
        t.mantissas[0, 0, 0] = 9
    with pytest.raises(ValueError, match="read-only"):
        t.exponents[0, 0] = 9
    # the caller's own arrays are viewed, not copied, and stay writable;
    # read-only ones are held as they are
    exps, mants = t.exponents.copy(), t.mantissas.copy()
    held = BfpTensor(t.fmt, t.logical_shape, 1, exps, t.mantissas)
    assert np.shares_memory(held.exponents, exps) and not held.exponents.flags.writeable
    assert exps.flags.writeable and held.mantissas is t.mantissas
    assert not BfpTensor(t.fmt, t.logical_shape, 1, exps, mants).mantissas.flags.writeable
    assert mants.flags.writeable


def test_pack_refuses_a_field_its_bits_cannot_hold(tmp_path):
    # BFP12_32 mantissas times 100 once packed without error and unpacked to others
    t = quantize_tensor(gen_activations(16, 64, 4), BFP12_32, blocking_axis=1)
    # widened first: int8 mantissas times 100 would wrap, some of them back into range
    scaled = BfpTensor(t.fmt, t.logical_shape, 1, t.exponents, t.mantissas.astype(np.int32) * 100)
    with pytest.raises(InvalidValue, match=r"^mantissas must fit 4-bit fields in \[-8, 7\]"):
        pack(scaled)
    with pytest.raises(InvalidValue, match=r"^mantissas must fit"):
        tensorio.save(tmp_path / "k.bfpt", scaled)
    assert not list(tmp_path.iterdir())
    high = BfpTensor(t.fmt, t.logical_shape, 1, np.full_like(t.exponents, 128), t.mantissas)
    with pytest.raises(InvalidValue, match=r"^exponents must fit 8-bit fields in \[-128, 127\]"):
        pack(high)


@pytest.mark.parametrize("p", [2, 4, 8, 16])
def test_pack_accepts_every_code_of_its_fields(p):
    # both ends of each two's-complement field, -2**(p-1) (which unpack can give) included
    fmt = BfpFormat(p, 4, 8)
    top, mant = (1 << (p - 1)) - 1, 1 << (p - 1)
    exps = np.array([fmt.exponent_min, fmt.exponent_max], np.int32)
    mants = np.array([[-mant, top, 0, 1], [top, -mant, -1, 0]], np.int32)
    t = BfpTensor(fmt, (8,), 0, exps, mants)
    back = unpack(pack(t), fmt, (8,), 0)
    assert np.array_equal(back.exponents, exps) and np.array_equal(back.mantissas, mants)


@pytest.mark.parametrize("p", range(2, 17))
def test_codec_holds_mantissas_at_their_width(p):
    # int8 up to 8 bits, int16 above, from every entry point that makes mantissas;
    # a narrow tensor packs, decodes and dots bit for bit like its int32 copy
    fmt = BfpFormat(p, 8, 8)
    x = np.random.default_rng(300 + p).normal(size=(3, 40))
    x *= 2.0 ** np.arange(-60, 60, 40)[:, None]
    assert quantize_tensor(x, fmt, 1).mantissas.dtype == _narrow(p)
    assert quantize_block(x[0, :5], fmt).mantissas.dtype == _narrow(p)
    # the exponent ends make a float16 ldexp overflow; -2**(p-1) and +-mantissa_max
    # fill the first and last blocks
    top, low = fmt.mantissa_max, -(1 << (p - 1))
    exps = np.array([fmt.exponent_max, 0, fmt.exponent_min, 3], np.int32)
    mants = np.random.default_rng(p).integers(low, top + 1, size=(4, 8)).astype(np.int32)
    mants[0] = [low, top, low, -top, low, low, top, 0]
    mants[-1] = [top, low, -top, low, top, top, low, low]
    wide = BfpTensor(fmt, (32,), 0, exps, mants)
    narrow = unpack(pack(wide), fmt, (32,), 0)
    assert narrow.exponents.dtype == np.int32 and narrow.mantissas.dtype == _narrow(p)
    assert np.array_equal(narrow.mantissas, mants)
    assert pack(narrow) == pack(wide) == _pack_oracle(wide)
    decoded = dequantize(narrow)
    assert np.isfinite(decoded).all() and decoded.tobytes() == dequantize(wide).tobytes()
    assert bfp_dot(narrow, narrow) == bfp_dot(wide, wide)


def test_quantize_axis_outside_shape_rejected():
    with pytest.raises(ShapeMismatch, match="axis 1 out of range"):
        quantize_tensor(np.zeros(3), BfpFormat(mantissa_bits=4, block_size=4), blocking_axis=1)


_AXIS_CALLS = {  # a 4 x 4 tensor makes 4 blocks of 3 bytes along either axis
    "quantize_tensor": lambda axis: quantize_tensor(np.ones((4, 4)), BfpFormat(4, 4), axis),
    "unpack": lambda axis: unpack(bytes(12), BfpFormat(4, 4), (4, 4), axis),
}


@pytest.mark.parametrize("call", sorted(_AXIS_CALLS))
@pytest.mark.parametrize("axis", [True, 1.0, 1.5, "1", None], ids=repr)
def test_blocking_axis_must_be_an_integer(call, axis):
    with pytest.raises(ShapeMismatch, match=r"blocking_axis must be an integer, got "):
        _AXIS_CALLS[call](axis)


@pytest.mark.parametrize("call", sorted(_AXIS_CALLS))
def test_blocking_axis_may_be_a_numpy_integer(call):
    t = _AXIS_CALLS[call](np.int64(-2))
    assert t.blocking_axis == 0 and type(t.blocking_axis) is int


@pytest.mark.parametrize("call", sorted(_AXIS_CALLS))
@pytest.mark.parametrize("axis", [2, -3, np.int32(2)], ids=repr)
def test_blocking_axis_out_of_range_names_the_shape(call, axis):
    with pytest.raises(ShapeMismatch, match=rf"^axis {axis} out of range for shape \(4, 4\)$"):
        _AXIS_CALLS[call](axis)


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


def test_format_names_round_trip():
    # format_from_name is the exact inverse of BfpFormat.name
    for mantissa_bits in (4, 8):
        for block_size in range(1, 257):
            fmt = BfpFormat(mantissa_bits, block_size)
            assert format_from_name(fmt.name) == fmt


@pytest.mark.parametrize(
    "args",
    [(4, True), (4, 32.0), (4.5, 32), (True, 32), (4, 32, 8.0), (4, 32, False), (4, 0), (17, 32),
     (4, 2.5), (4, -1), (4, math.nan), (4, "8"), (10**400, 32), (4, 32, -1), (4, 32, math.nan),
     (4, 32, 10**400), ("8", 32)],
    ids=["bool_block", "float_block", "float_mantissa", "bool_mantissa", "float_exponent",
         "bool_exponent", "block_0", "mantissa_17", "fractional_block", "negative_block",
         "nan_block", "string_block", "huge_mantissa", "negative_exponent", "nan_exponent",
         "huge_exponent", "string_mantissa"],
)
def test_format_fields_must_be_integers_in_range(args):
    # refused when built, before a name like BFP12_True or a raw TypeError on first use;
    # the message names the first field out of range
    fields = zip(("mantissa_bits", "block_size", "exponent_bits"), args, (4, 32, 8))
    field = next(name for name, value, ok in fields if (type(value), value) != (int, ok))
    with pytest.raises(InvalidValue, match=f"^{field} must be an integer"):
        BfpFormat(*args)


def test_format_validation():
    with pytest.raises(ValueError):
        BfpFormat(mantissa_bits=1, block_size=4)
    with pytest.raises(ValueError):
        BfpFormat(mantissa_bits=4, block_size=0)
    with pytest.raises(ValueError):
        BfpFormat(mantissa_bits=4, block_size=4, exponent_bits=16)
