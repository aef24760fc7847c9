"""Minimal binary tensor container for weights, caches and packed blocks.

One tensor per file, little-endian throughout, no compression; the point is
that a header can be audited with ``xxd``.  Layout:

    offset  size        field
    0       4           magic ``b"BFPT"``
    4       4           format version, u32 (currently 1)
    8       4           dtype code, u32: 0 float64, 1 float32, 2 packed blocks
    12      4           ndim, u32
    16      4 * ndim    dims, u32 each
    (dtype 2 only)
    +0      4           mantissa bits, u32
    +4      4           exponent bits, u32
    +8      4           block size, u32
    +12     4           blocking axis, u32
    ...     payload

Float payloads are raw C-order little-endian values; packed payloads are the
bit-exact block buffer produced by :func:`bfpksort.bfp.pack`.  The payload
must end exactly at end of file.  Writes go to a temporary file in the
destination directory and are renamed into place, so concurrent readers
never observe a half-written tensor.

See ``docs/tensorfile-format.md`` for the normative one-page description.
"""

from __future__ import annotations

import math
import os
import struct
import tempfile
from typing import Union

import numpy as np

from .bfp import BfpFormat, BfpTensor, pack, unpack
from .errors import BfpKsortError, CorruptFile, NotATensorFile, ShapeMismatch, UnsupportedVersion

__all__ = ["MAGIC", "FORMAT_VERSION", "save", "load", "describe"]

MAGIC = b"BFPT"
FORMAT_VERSION = 1

DTYPE_FLOAT64 = 0
DTYPE_FLOAT32 = 1
DTYPE_PACKED = 2

_FLOAT_CODES = {np.dtype(np.float64): DTYPE_FLOAT64, np.dtype(np.float32): DTYPE_FLOAT32}
_CODE_DTYPES = {DTYPE_FLOAT64: np.dtype("<f8"), DTYPE_FLOAT32: np.dtype("<f4")}
_DTYPE_NAMES = {DTYPE_FLOAT64: "float64", DTYPE_FLOAT32: "float32", DTYPE_PACKED: "packed-bfp"}

MAX_NDIM = 32


def _u32(*values: int) -> bytes:
    return struct.pack(f"<{len(values)}I", *values)


def _header_bytes(dtype_code: int, shape: tuple[int, ...]) -> bytes:
    # reject here what load would reject, before save creates its temporary file
    if len(shape) > MAX_NDIM or any(d >= 1 << 32 for d in shape):
        raise ShapeMismatch(
            f"cannot store shape {shape}: at most {MAX_NDIM} dims, each below 2**32"
        )
    return MAGIC + _u32(FORMAT_VERSION, dtype_code, len(shape), *shape)


def save(path, tensor: Union[np.ndarray, BfpTensor]) -> None:
    """Write a float64/float32 array (of either byte order, stored little-endian)
    or a packed block tensor atomically."""
    if isinstance(tensor, BfpTensor):
        fmt = tensor.fmt
        header = _header_bytes(DTYPE_PACKED, tensor.logical_shape) + _u32(
            fmt.mantissa_bits, fmt.exponent_bits, fmt.block_size, tensor.blocking_axis
        )
        payload = pack(tensor)
    else:
        arr = np.asarray(tensor)
        code = _FLOAT_CODES.get(arr.dtype.newbyteorder("="))  # either byte order
        if code is None:
            raise TypeError(f"only float32/float64 arrays are supported, got {arr.dtype}")
        header = _header_bytes(code, arr.shape)
        payload = np.ascontiguousarray(arr, dtype=_CODE_DTYPES[code])  # written as a buffer

    directory = os.path.dirname(os.fspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(header)  # two writes: the payload is never copied onto the header
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class _Reader:
    def __init__(self, data: bytes, path) -> None:
        self.data = data
        self.pos = 0
        self.path = path

    def take(self, count: int, what: str) -> bytes:
        if self.pos + count > len(self.data):
            raise CorruptFile(f"{self.path}: truncated while reading {what}")
        chunk = self.data[self.pos : self.pos + count]
        self.pos += count
        return chunk

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def _read_header(r: _Reader) -> tuple[int, dict]:
    """Parse the header up to the payload: the dtype code and the fields for display."""
    path = r.path
    if r.take(4, "magic") != MAGIC:
        raise NotATensorFile(f"{path}: bad magic")
    version = r.u32("version")
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"{path}: format version {version}, supported: {FORMAT_VERSION}")
    code = r.u32("dtype code")
    if code not in _DTYPE_NAMES:
        raise CorruptFile(f"{path}: unknown dtype code {code}")
    ndim = r.u32("ndim")
    if ndim > MAX_NDIM:
        raise CorruptFile(f"{path}: implausible ndim {ndim}")
    info = {
        "version": version,
        "dtype": _DTYPE_NAMES[code],
        "shape": tuple(r.u32(f"dim {i}") for i in range(ndim)),
    }
    if code == DTYPE_PACKED:
        for key in ("mantissa_bits", "exponent_bits", "block_size", "blocking_axis"):
            info[key] = r.u32(key.replace("_", " "))
    return code, info


def load(path) -> Union[np.ndarray, BfpTensor]:
    """Read a tensor container; returns an ndarray or a :class:`BfpTensor`."""
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data, path)
    code, info = _read_header(r)
    shape = info["shape"]

    if code == DTYPE_PACKED:
        try:  # unpack checks the blocking axis against the shape
            fmt = BfpFormat(info["mantissa_bits"], info["block_size"], info["exponent_bits"])
            payload = memoryview(data)[r.pos :]  # a view: the payload is not copied
            return unpack(payload, fmt, shape, blocking_axis=info["blocking_axis"])
        except (BfpKsortError, ValueError) as exc:
            raise CorruptFile(f"{path}: {exc}") from exc

    dt = _CODE_DTYPES[code]
    payload = r.take(math.prod(shape) * dt.itemsize, "payload")
    if r.pos != len(data):
        raise CorruptFile(f"{path}: {len(data) - r.pos} trailing bytes after payload")
    return np.frombuffer(payload, dtype=dt).reshape(shape).copy()


def describe(path) -> dict:
    """Parse only the header; returns the fields for display."""
    with open(path, "rb") as fh:
        data = fh.read(16 + 4 * MAX_NDIM + 16)
    _, info = _read_header(_Reader(data, path))
    info["file_bytes"] = os.stat(path).st_size
    return info
