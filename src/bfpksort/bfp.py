"""Block floating point codec with a shared power-of-two exponent per block.

A block of ``n`` values is stored as one signed ``b``-bit exponent ``e`` plus
``n`` signed integer mantissas of ``p`` bits each; element ``i`` decodes to
``2**e * M[i]``.  Mantissas use the symmetric range ``[-(2**(p-1)-1),
2**(p-1)-1]``; the most negative two's-complement code is never produced by
the encoder.  Casting picks the smallest exponent under which the
largest-magnitude element still rounds into the mantissa range
(round-half-to-even), so at least one mantissa always lands in the top half
of the range unless the block is all zeros.

The named presets follow industry convention: BFP12 packs 4-bit mantissas
and BFP16 packs 8-bit mantissas, both with an 8-bit shared exponent, at
block sizes 32/64/128.  Storage cost is ``p + b/n`` bits per element, e.g.
4.25 for BFP12_32 versus 8.25 for BFP16_32.

Everything here is a pure function over immutable inputs; no shared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import CorruptBuffer, ExponentOverflow, InvalidValue, ShapeMismatch
from .errors import _Checked, _read_only, _require_instance, _require_int, _require_real_array

__all__ = [
    "BfpFormat",
    "BfpBlock",
    "BfpTensor",
    "BFP12_32",
    "BFP12_64",
    "BFP12_128",
    "BFP16_32",
    "BFP16_64",
    "BFP16_128",
    "format_from_name",
    "bits_per_element",
    "quantize_block",
    "quantize_tensor",
    "dequantize",
    "bfp_dot",
    "pack",
    "unpack",
]


@dataclass(frozen=True)
class BfpFormat:
    """Block format parameters: mantissa bits, block size, exponent bits."""

    mantissa_bits: int
    block_size: int
    exponent_bits: int = 8

    def __post_init__(self) -> None:
        _require_int("mantissa_bits", self.mantissa_bits, 2, 16)
        _require_int("block_size", self.block_size, 1)
        # exponents are applied with float64 ldexp; cap the width so scales stay representable
        _require_int("exponent_bits", self.exponent_bits, 2, 11)

    @property
    def mantissa_max(self) -> int:
        return (1 << (self.mantissa_bits - 1)) - 1

    @property
    def exponent_min(self) -> int:
        return -(1 << (self.exponent_bits - 1))

    @property
    def exponent_max(self) -> int:
        return (1 << (self.exponent_bits - 1)) - 1

    @property
    def bits_per_block(self) -> int:
        return self.exponent_bits + self.block_size * self.mantissa_bits

    @property
    def bytes_per_block(self) -> int:
        """Packed size of one block, rounded up to a whole byte."""
        return (self.bits_per_block + 7) // 8

    @property
    def name(self) -> str:
        total = self.mantissa_bits + self.exponent_bits
        return f"BFP{total}_{self.block_size}"


BFP12_32 = BfpFormat(mantissa_bits=4, block_size=32)
BFP12_64 = BfpFormat(mantissa_bits=4, block_size=64)
BFP12_128 = BfpFormat(mantissa_bits=4, block_size=128)
BFP16_32 = BfpFormat(mantissa_bits=8, block_size=32)
BFP16_64 = BfpFormat(mantissa_bits=8, block_size=64)
BFP16_128 = BfpFormat(mantissa_bits=8, block_size=128)

_PRESET_MANTISSA_BITS = {"BFP12": 4, "BFP16": 8}


def format_from_name(name: str) -> BfpFormat:
    """The format whose :attr:`BfpFormat.name` is ``name``, such as ``"BFP12_64"``.

    The exact inverse of :attr:`BfpFormat.name`: any other spelling (``"BFP12_064"``,
    ``"bfp12_64"``, ``"BFP12_+64"``, or not a string) raises :class:`InvalidValue`.
    """
    family, _, size = str(name).partition("_")  # a non-string fails the name comparison
    try:
        fmt = BfpFormat(mantissa_bits=_PRESET_MANTISSA_BITS[family], block_size=int(size))
    except (KeyError, ValueError):
        fmt = None
    if fmt is None or fmt.name != name:
        raise InvalidValue(f"unknown format name {name!r}")
    return fmt


def bits_per_element(fmt: BfpFormat) -> Fraction:
    """Exact storage cost per element: ``p + b/n``."""
    _require_instance("fmt", fmt, BfpFormat)
    return Fraction(fmt.mantissa_bits) + Fraction(fmt.exponent_bits, fmt.block_size)


@dataclass(frozen=True, eq=False)
class BfpBlock:
    """One encoded block: shared exponent plus integer mantissas."""

    exponent: int
    mantissas: np.ndarray  # int8 for p <= 8, else int16; length n

    def decode(self) -> np.ndarray:
        return np.ldexp(self.mantissas.astype(np.float64), self.exponent)


@dataclass(frozen=True, eq=False)
class BfpTensor(_Checked):
    """A blocked tensor: per-block exponents and mantissas plus logical shape.

    Blocks run along ``blocking_axis``; internally that axis is moved last, so
    ``exponents`` has shape ``outer_shape + (nblocks,)`` and ``mantissas`` has
    shape ``outer_shape + (nblocks, n)``.  The final block of each blocked row
    is zero-padded with :attr:`padding_count` elements, which decode to
    exactly 0 and are excluded from error metrics.

    Any integer arrays of the right shapes make a tensor, held read-only (views
    of the caller's arrays when those are writable); :func:`pack` packs them to
    the same bytes whatever their dtype.  The codec makes int32 exponents and
    mantissas in the narrowest signed type that holds ``p`` bits: int8 for
    ``p <= 8`` (every BFP12 and BFP16 preset), int16 above.  Arithmetic on
    mantissas must widen them first, as :func:`bfp_dot` does.
    """

    fmt: BfpFormat
    logical_shape: tuple[int, ...]
    blocking_axis: int
    exponents: np.ndarray  # int32 from the codec
    mantissas: np.ndarray  # int8 for p <= 8, else int16, from the codec

    def __post_init__(self) -> None:
        _require_instance("fmt", self.fmt, BfpFormat)
        _check_dims(self.logical_shape)
        for name in ("exponents", "mantissas"):
            a = getattr(self, name)
            if not (isinstance(a, np.ndarray) and a.dtype.kind in "iu"):
                raise InvalidValue(f"{name} must be an integer array, got "
                                   f"{getattr(a, 'dtype', type(a).__name__)}")
            object.__setattr__(self, name, _read_only(a))
        n = self.fmt.block_size
        if not 0 <= self.blocking_axis < len(self.logical_shape):
            raise ShapeMismatch(
                f"blocking axis {self.blocking_axis} is outside logical shape {self.logical_shape}"
            )
        if self.exponents.shape != _block_grid(self.logical_shape, self.blocking_axis, n):
            raise ShapeMismatch(
                f"exponent array shape {self.exponents.shape} does not match "
                f"logical shape {self.logical_shape} blocked along axis {self.blocking_axis}"
            )
        if self.mantissas.shape != self.exponents.shape + (n,):
            raise ShapeMismatch(
                f"mantissa array shape {self.mantissas.shape} inconsistent with "
                f"{self.exponents.shape} blocks of {n}"
            )

    @property
    def padding_count(self) -> int:
        """Zero elements padding the final block of each blocked row."""
        return -self.logical_shape[self.blocking_axis] % self.fmt.block_size

    @property
    def num_blocks(self) -> int:
        return int(self.exponents.size)

    def block(self, index: int) -> BfpBlock:
        """The ``index``-th block in C order over the exponent array."""
        _require_int("index", index, 0, self.num_blocks - 1)
        e = int(self.exponents.reshape(-1)[index])
        m = self.mantissas.reshape(-1, self.fmt.block_size)[index]
        return BfpBlock(exponent=e, mantissas=m.copy())

    @property
    def packed_nbytes(self) -> int:
        return self.num_blocks * self.fmt.bytes_per_block


def _check_dims(shape) -> tuple[int, ...]:
    if any(isinstance(d, bool) or not isinstance(d, (int, np.integer)) or d < 0 for d in shape):
        raise ShapeMismatch(f"dims must be integers >= 0, got shape {tuple(shape)!r}")
    return tuple(int(d) for d in shape)


def _axis(blocking_axis, shape: tuple[int, ...]) -> int:
    """``blocking_axis`` as an index in ``[0, len(shape))``; negative values count from the end."""
    if isinstance(blocking_axis, bool) or not isinstance(blocking_axis, (int, np.integer)):
        raise ShapeMismatch(f"blocking_axis must be an integer, got {blocking_axis!r}")
    if not -len(shape) <= blocking_axis < len(shape):
        raise ShapeMismatch(f"axis {blocking_axis} out of range for shape {shape}")
    return int(blocking_axis) % len(shape)


def _block_grid(shape: tuple[int, ...], axis: int, n: int) -> tuple[int, ...]:
    """Exponent-array shape: the dims other than ``axis``, then ``ceil(shape[axis] / n)``."""
    return tuple(d for i, d in enumerate(shape) if i != axis) + (-(-shape[axis] // n),)


def _minimal_exponents(max_abs: np.ndarray, fmt: BfpFormat) -> np.ndarray:
    """Smallest e per block with round_half_even(max_abs / 2**e) <= mantissa_max.

    For max_abs = f * 2**k (f in [0.5, 1)), e = k - (p-1) scales the maximum
    into [2**(p-2), 2**(p-1)); only rounding up to 2**(p-1) can overflow, in
    which case e is bumped by one.  Any smaller e puts the scaled maximum at
    or above 2**(p-1), which always rounds outside the range.  The exponents
    stay the int32 that ``frexp`` returns: ``ldexp`` is several times slower
    with int64 ones.
    """
    _, e = np.frexp(max_abs)
    e -= fmt.mantissa_bits - 1
    scaled = np.ldexp(max_abs, -e)
    e += np.rint(scaled, out=scaled) > fmt.mantissa_max
    return e


def _mantissa_dtype(fmt: BfpFormat) -> type:
    """The narrowest signed integer type that holds a ``p``-bit mantissa."""
    return np.int8 if fmt.mantissa_bits <= 8 else np.int16


def _encode_blocks(values: np.ndarray, fmt: BfpFormat) -> tuple[np.ndarray, np.ndarray]:
    """Encode ``values`` of shape (..., n) into (exponents, mantissas): int32 exponents,
    mantissas in :func:`_mantissa_dtype`."""
    max_abs = np.abs(values).max(axis=-1)
    e = _minimal_exponents(max_abs, fmt)
    e[max_abs == 0.0] = fmt.exponent_min
    if np.any(e > fmt.exponent_max):
        where = tuple(np.argwhere(e > fmt.exponent_max)[0].tolist())
        raise ExponentOverflow(
            f"block {where}: magnitude {max_abs[where]:g} needs exponent "
            f"{e[where]}, above the {fmt.exponent_bits}-bit maximum {fmt.exponent_max}"
        )
    np.maximum(e, fmt.exponent_min, out=e)  # tiny blocks underflow toward zero mantissas
    mant = np.ldexp(values, -e[..., None])
    return e, np.rint(mant, out=mant).astype(_mantissa_dtype(fmt))


def quantize_block(values, fmt: BfpFormat) -> BfpBlock:
    """Cast up to ``n`` real values into one block; short input is zero-padded."""
    _require_instance("fmt", fmt, BfpFormat)
    v = _require_real_array("values", values)
    if v.ndim != 1 or v.size > fmt.block_size:
        raise ShapeMismatch(
            f"expected a vector of at most {fmt.block_size} values, got shape {v.shape}"
        )
    return quantize_tensor(np.pad(v, (0, fmt.block_size - v.size)), fmt).block(0)


def quantize_tensor(x, fmt: BfpFormat, blocking_axis: int = -1) -> BfpTensor:
    """Cast a real tensor into blocks along ``blocking_axis``.

    Each contiguous run of ``n`` elements along the axis becomes one block;
    a ragged tail is zero-padded.  Blocks never span rows.
    """
    _require_instance("fmt", fmt, BfpFormat)
    arr = _require_real_array("x", x)
    axis = _axis(blocking_axis, arr.shape)

    n = fmt.block_size
    moved = np.moveaxis(arr, axis, -1)
    padding = -arr.shape[axis] % n
    if padding:  # padding copies the tensor: only a ragged tail pays for it
        moved = np.pad(moved, [(0, 0)] * (moved.ndim - 1) + [(0, padding)])
    grouped = moved.reshape(_block_grid(arr.shape, axis, n) + (n,))
    e, mant = _encode_blocks(grouped, fmt)
    return BfpTensor(
        fmt=fmt,
        logical_shape=arr.shape,
        blocking_axis=axis,
        exponents=e,
        mantissas=mant,
    )


def dequantize(t: BfpTensor) -> np.ndarray:
    """Decode to float64: element i of block k is ``2**e_k * M_{k,i}``."""
    _require_instance("t", t, BfpTensor)
    vals = t.mantissas.astype(np.float64)
    np.ldexp(vals, t.exponents[..., None], out=vals)
    flat = vals.reshape(vals.shape[:-2] + (vals.shape[-2] * vals.shape[-1],))
    axis_len = t.logical_shape[t.blocking_axis]
    return np.moveaxis(flat[..., :axis_len], -1, t.blocking_axis)


def bfp_dot(a: BfpTensor, k: BfpTensor) -> float:
    """Inner product of two blocked vectors using integer mantissa arithmetic.

    Within a block the mantissa products accumulate exactly in int64; each
    block contributes ``2**(e_a + e_k) * sum_i M_a[i] * M_k[i]``.
    """
    _require_instance("a", a, BfpTensor)
    _require_instance("k", k, BfpTensor)
    if len(a.logical_shape) != 1 or len(k.logical_shape) != 1:
        raise ShapeMismatch("bfp_dot operates on 1-D blocked vectors")
    if a.logical_shape != k.logical_shape or a.fmt.block_size != k.fmt.block_size:
        raise ShapeMismatch(
            f"operands disagree: shape {a.logical_shape} / blocks of {a.fmt.block_size} "
            f"vs shape {k.logical_shape} / blocks of {k.fmt.block_size}"
        )
    prod = (a.mantissas.astype(np.int64) * k.mantissas.astype(np.int64)).sum(axis=-1)
    scale = a.exponents.astype(np.int64) + k.exponents.astype(np.int64)
    return float(np.sum(np.ldexp(prod.astype(np.float64), scale)))


# ---------------------------------------------------------------------------
# Bit-exact packing
#
# Per block: the b-bit exponent (two's complement) occupies the lowest bits,
# followed by n p-bit two's-complement mantissas, filled least significant
# bit first; each block is padded up to a byte boundary and blocks are
# concatenated.  Byte order within a block is little-endian.
#
# The kernels move whole classes of fields at once, not single fields.
# Mantissa j starts at bit b + j*p.  With period = 8 / gcd(p, 8), period*p is
# the least common multiple of p and 8, so the mantissas j = r, r + period,
# r + 2*period, ... start at the same bit within their byte and one after
# another at a fixed stride of period*p/8 bytes.  Each of those residue
# classes is therefore a strided slice of the block's bytes, one per byte a
# field spans (at most 3: p <= 16 plus a shift <= 7).  With the exponent as a
# class of its own, a block has at most 1 + 8 classes, whatever its size.
# ---------------------------------------------------------------------------


def _field_classes(fmt: BfpFormat):
    """The fields of a block by class: ``(fields, offset, width, stride)``.

    ``fields`` ranges over field numbers, 0 for the exponent and ``j + 1`` for
    mantissa ``j``; the class's first field starts at bit ``offset`` and each
    next one ``stride`` bytes later, all ``width`` bits wide.
    """
    b, p, n = fmt.exponent_bits, fmt.mantissa_bits, fmt.block_size
    yield range(1), 0, b, 1
    period = 8 // math.gcd(p, 8)
    for r in range(min(period, n)):
        yield range(1 + r, n + 1, period), b + r * p, p, period * p // 8


def _class_slots(exps: np.ndarray, mants: np.ndarray, raw: np.ndarray, fmt: BfpFormat):
    """For each field class of ``fmt``: the view of ``exps``/``mants`` that holds its fields,
    their width and in-byte shift, and the view of ``raw`` for each byte they span; every
    view has one row per block."""
    for fields, offset, width, stride in _field_classes(fmt):
        values = exps[:, None] if fields.start == 0 else mants[:, fields.start - 1 :: fields.step]
        shift, first = offset & 7, offset >> 3
        last = first + stride * (len(fields) - 1)
        spans = [raw[:, first + k : last + k + 1 : stride] for k in range((shift + width + 7) >> 3)]
        yield values, width, shift, spans


def pack(t: BfpTensor) -> bytes:
    """Serialize the blocks of ``t`` to the packed wire layout.

    An exponent or mantissa that its ``b``- or ``p``-bit two's-complement field
    cannot hold raises :class:`InvalidValue`, never a truncated field.  The code
    ``-2**(p-1)``, which the encoder never produces but :func:`unpack` can, fits.
    """
    _require_instance("t", t, BfpTensor)
    fmt = t.fmt
    out = np.zeros((t.num_blocks, fmt.bytes_per_block), dtype=np.uint8)
    exps, mants = t.exponents.reshape(-1), t.mantissas.reshape(-1, fmt.block_size)
    for name, values, bits in (("exponent", exps, fmt.exponent_bits),
                               ("mantissa", mants, fmt.mantissa_bits)):
        low, high = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
        if values.size and (values.min() < low or values.max() > high):
            raise InvalidValue(f"{name}s must fit {bits}-bit fields in [{low}, {high}], "
                               f"got [{values.min()}, {values.max()}]")
    for values, width, shift, spans in _class_slots(exps, mants, out, fmt):
        field = np.bitwise_and(values, (1 << width) - 1, dtype=np.int32)  # room for the shifts
        field <<= shift
        for span in spans:  # OR the field's low byte in, then bring the next one down
            np.bitwise_or(span, field, out=span, casting="unsafe")
            field >>= 8
    return out.tobytes()


def unpack(buf: bytes, fmt: BfpFormat, shape, blocking_axis: int = -1) -> BfpTensor:
    """Rebuild a :class:`BfpTensor` from its packed bytes (any buffer, such as a
    ``memoryview``).

    Inverse of :func:`pack` given the same format, logical shape and axis.  The
    exponents come back as int32 and the mantissas in the narrowest signed type
    that holds ``p`` bits (int8, or int16 above 8), as :func:`quantize_tensor`
    makes them.
    """
    _require_instance("fmt", fmt, BfpFormat)
    shape = _check_dims(shape)  # before the buffer is sized from it
    axis = _axis(blocking_axis, shape)

    n, nbytes = fmt.block_size, fmt.bytes_per_block
    grid = _block_grid(shape, axis, n)
    count = math.prod(grid)
    if len(buf) != count * nbytes:
        raise CorruptBuffer(
            f"expected {count * nbytes} bytes for {count} blocks of {nbytes}, got {len(buf)}"
        )

    raw = np.frombuffer(buf, dtype=np.uint8).reshape(count, nbytes)
    exps = np.empty(count, dtype=np.int32)
    mants = np.empty((count, n), dtype=_mantissa_dtype(fmt))
    for values, width, shift, spans in _class_slots(exps, mants, raw, fmt):
        field = spans[0].astype(np.int32)
        for k, span in enumerate(spans[1:], 1):
            field |= np.left_shift(span, 8 * k, dtype=np.int32)
        field >>= shift
        field &= (1 << width) - 1
        sign = 1 << (width - 1)  # two's-complement sign extension: (v ^ s) - s
        field ^= sign
        np.subtract(field, sign, out=values)

    t = BfpTensor(
        fmt=fmt,
        logical_shape=shape,
        blocking_axis=axis,
        exponents=exps.reshape(grid),
        mantissas=mants.reshape(grid + (n,)),
    )
    padding = t.padding_count
    if padding and np.any(t.mantissas[..., -1, n - padding :] != 0):
        raise CorruptBuffer("padding mantissas must decode to zero")
    return t
