"""Tensor container round trips, error taxonomy, and header fuzzing.

The fuzz subject is deliberately non-square and non-empty so that every
header byte is load-bearing: any single-byte mutation must change either a
magic byte, the version, the dtype size, a dimension (and with it the
expected payload length), or a packed-format parameter.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest

from bfpksort import BfpFormat, dequantize, quantize_tensor
from bfpksort.errors import (
    CorruptFile,
    NotATensorFile,
    ShapeMismatch,
    UnsupportedVersion,
)
from bfpksort import tensorio


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_zero_dim_scalar_round_trip(tmp_path):
    path = tmp_path / "scalar.bfpt"
    tensorio.save(path, np.float64(3.5))
    out = tensorio.load(path)
    assert out.shape == ()
    assert out.dtype == np.float64
    assert out == 3.5


def test_empty_tensor_round_trip(tmp_path):
    path = tmp_path / "empty.bfpt"
    tensorio.save(path, np.empty((0, 5), dtype=np.float32))
    out = tensorio.load(path)
    assert out.shape == (0, 5)
    assert out.dtype == np.float32


def test_empty_packed_tensor_with_huge_block_size_round_trips(tmp_path, deadline):
    # 32 bytes of header and no payload: loading must not walk 2**32 - 1 mantissa fields
    path = tmp_path / "empty.bfpt"
    fmt = BfpFormat(mantissa_bits=4, block_size=2**32 - 1)
    with deadline(10):
        tensorio.save(path, quantize_tensor(np.zeros(0), fmt))
        out = tensorio.load(path)
    assert path.read_bytes() == tensorio.MAGIC + struct.pack("<8I", 1, 2, 1, 0, 4, 8, 2**32 - 1, 0)
    assert (out.fmt, out.logical_shape, out.num_blocks) == (fmt, (0,), 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_random_matrix_round_trip_bitwise(tmp_path, dtype):
    # projection-sized matrix, compared through the raw byte view
    rng = np.random.default_rng(1)
    x = rng.normal(size=(128, 4096)).astype(dtype)
    path = tmp_path / "w.bfpt"
    tensorio.save(path, x)
    out = tensorio.load(path)
    assert out.dtype == x.dtype
    assert out.shape == x.shape
    assert np.array_equal(out.view(np.uint8), x.view(np.uint8))


@pytest.mark.parametrize("dtype", ["f4", "f8"])
def test_big_endian_array_saves_as_its_native_twin(tmp_path, dtype):
    # the payload is little-endian whatever the input's byte order: the same file
    x = np.random.default_rng(3).normal(size=(5, 7)).astype(dtype)
    tensorio.save(tmp_path / "native.bfpt", x.astype("<" + dtype))
    tensorio.save(tmp_path / "big.bfpt", x.astype(">" + dtype))
    assert (tmp_path / "big.bfpt").read_bytes() == (tmp_path / "native.bfpt").read_bytes()
    out = tensorio.load(tmp_path / "big.bfpt")
    assert out.dtype == np.dtype("<" + dtype) and np.array_equal(out, x)


def test_non_contiguous_input_saved_in_c_order(tmp_path):
    x = np.arange(24.0).reshape(4, 6)[:, ::2]
    path = tmp_path / "strided.bfpt"
    tensorio.save(path, x)
    assert np.array_equal(tensorio.load(path), x)


def test_packed_tensor_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(8, 48)) * 2.0 ** rng.integers(-10, 10, size=(8, 1))
    t = quantize_tensor(x, BfpFormat(mantissa_bits=4, block_size=32), blocking_axis=1)
    path = tmp_path / "cache.bfpt"
    tensorio.save(path, t)
    out = tensorio.load(path)
    assert out.fmt == t.fmt
    assert out.logical_shape == t.logical_shape
    assert out.blocking_axis == t.blocking_axis
    assert np.array_equal(out.exponents, t.exponents)
    assert np.array_equal(out.mantissas, t.mantissas)
    assert np.array_equal(dequantize(out), dequantize(t))


def test_integer_arrays_rejected(tmp_path):
    with pytest.raises(TypeError):
        tensorio.save(tmp_path / "x.bfpt", np.arange(4))


def test_no_temp_files_left_behind(tmp_path):
    tensorio.save(tmp_path / "a.bfpt", np.ones(4))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.bfpt"]


@pytest.mark.parametrize(
    "tensor",
    [np.zeros((1,) * 33), np.empty((2**32, 0)),
     quantize_tensor(np.empty((2**32, 0)), BfpFormat(4, 8), 1)],
    ids=["ndim_33", "dim_2_32", "packed_dim_2_32"],
)
def test_save_rejects_what_load_would_reject(tmp_path, tensor):
    # 33 dims used to save and then fail to load; a dim of 2**32 raised struct.error
    with pytest.raises(ShapeMismatch):
        tensorio.save(tmp_path / "x.bfpt", tensor)
    assert list(tmp_path.iterdir()) == []


def test_max_ndim_round_trips(tmp_path):
    x = np.zeros((1,) * tensorio.MAX_NDIM)
    tensorio.save(tmp_path / "x.bfpt", x)
    assert tensorio.load(tmp_path / "x.bfpt").shape == x.shape


def test_overwrite_is_atomic_replace(tmp_path):
    path = tmp_path / "w.bfpt"
    tensorio.save(path, np.ones(3))
    tensorio.save(path, np.zeros(5))
    assert np.array_equal(tensorio.load(path), np.zeros(5))


def test_save_onto_a_directory_leaves_no_temp_file(tmp_path):
    (tmp_path / "w.bfpt").mkdir()
    with pytest.raises(OSError):
        tensorio.save(tmp_path / "w.bfpt", np.ones(3))
    assert [p.name for p in tmp_path.iterdir()] == ["w.bfpt"]
    assert list((tmp_path / "w.bfpt").iterdir()) == []


# ---------------------------------------------------------------------------
# error taxonomy
# ---------------------------------------------------------------------------


def _valid_file_bytes() -> bytes:
    x = np.arange(15.0, dtype=np.float32).reshape(3, 5)
    import os
    import tempfile

    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "t.bfpt")
        tensorio.save(p, x)
        with open(p, "rb") as fh:
            return fh.read()


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.bfpt"
    path.write_bytes(b"NOPE" + _valid_file_bytes()[4:])
    with pytest.raises(NotATensorFile):
        tensorio.load(path)
    with pytest.raises(NotATensorFile):
        tensorio.describe(path)


def test_unsupported_version(tmp_path):
    data = bytearray(_valid_file_bytes())
    data[4] = 99
    path = tmp_path / "v99.bfpt"
    path.write_bytes(bytes(data))
    with pytest.raises(UnsupportedVersion):
        tensorio.load(path)


def test_version_zero_rejected(tmp_path):
    data = bytearray(_valid_file_bytes())
    data[4] = 0
    path = tmp_path / "v0.bfpt"
    path.write_bytes(bytes(data))
    with pytest.raises(UnsupportedVersion):
        tensorio.load(path)


def test_unknown_dtype_code(tmp_path):
    data = bytearray(_valid_file_bytes())
    data[8] = 7
    path = tmp_path / "dt7.bfpt"
    path.write_bytes(bytes(data))
    with pytest.raises(CorruptFile):
        tensorio.load(path)


def test_truncated_payload(tmp_path):
    data = _valid_file_bytes()
    path = tmp_path / "trunc.bfpt"
    path.write_bytes(data[:-3])
    with pytest.raises(CorruptFile):
        tensorio.load(path)


def test_trailing_garbage(tmp_path):
    path = tmp_path / "trail.bfpt"
    path.write_bytes(_valid_file_bytes() + b"\x00")
    with pytest.raises(CorruptFile):
        tensorio.load(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "hdr.bfpt"
    path.write_bytes(_valid_file_bytes()[:10])
    with pytest.raises(CorruptFile):
        tensorio.load(path)


def test_huge_dims_do_not_wrap_the_element_count(tmp_path):
    # 65536**4 float32 elements: a 64-bit element count wraps to 0
    path = tmp_path / "huge.bfpt"
    path.write_bytes(tensorio.MAGIC + struct.pack("<7I", 1, 1, 4, *[65536] * 4))
    with pytest.raises(CorruptFile):
        tensorio.load(path)
    assert tensorio.describe(path)["shape"] == (65536,) * 4


# ---------------------------------------------------------------------------
# header fuzz sweep
# ---------------------------------------------------------------------------


def _mutations(data: bytes, upto: int):
    for offset in range(min(upto, len(data))):
        original = data[offset]
        for flip in (0x01, 0x80, 0xFF):
            mutated = original ^ flip
            if mutated == original:
                continue
            out = bytearray(data)
            out[offset] = mutated
            yield offset, bytes(out)


def test_every_header_mutation_is_rejected_float(tmp_path):
    data = _valid_file_bytes()
    header_len = 16 + 2 * 4  # magic, version, dtype, ndim, two dims
    path = tmp_path / "fuzz.bfpt"
    for offset, blob in _mutations(data, header_len):
        path.write_bytes(blob)
        with pytest.raises((NotATensorFile, UnsupportedVersion, CorruptFile)):
            tensorio.load(path)


def test_every_header_mutation_is_rejected_packed(tmp_path):
    # axis length is a multiple of the block size: with no padding envelope,
    # every dimension mutation changes the expected payload length
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 64))
    t = quantize_tensor(x, BfpFormat(mantissa_bits=4, block_size=32), blocking_axis=1)
    src = tmp_path / "packed.bfpt"
    tensorio.save(src, t)
    data = src.read_bytes()
    header_len = 16 + 2 * 4 + 16  # ... plus p/b/n/axis
    path = tmp_path / "fuzz.bfpt"
    for offset, blob in _mutations(data, header_len):
        path.write_bytes(blob)
        with pytest.raises((NotATensorFile, UnsupportedVersion, CorruptFile)):
            tensorio.load(path)


# ---------------------------------------------------------------------------
# describe
# ---------------------------------------------------------------------------


def test_describe_float(tmp_path):
    path = tmp_path / "d.bfpt"
    tensorio.save(path, np.ones((2, 3), dtype=np.float32))
    info = tensorio.describe(path)
    assert info["version"] == 1
    assert info["dtype"] == "float32"
    assert info["shape"] == (2, 3)
    assert info["file_bytes"] == 24 + 24


def test_describe_packed(tmp_path):
    t = quantize_tensor(np.ones((2, 8)), BfpFormat(4, 8), 1)
    path = tmp_path / "p.bfpt"
    tensorio.save(path, t)
    info = tensorio.describe(path)
    assert info["dtype"] == "packed-bfp"
    assert info["mantissa_bits"] == 4
    assert info["block_size"] == 8
    assert info["blocking_axis"] == 1
