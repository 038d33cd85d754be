"""Property tests of the record-codec registry (DESIGN §10).

Every registered :class:`~repro.emio.codec.RecordCodec` must be a lossless
round trip: ``decode(encode(x)) == x`` for every representable record list,
including empty inputs, extreme magnitudes, and (for float codecs) NaN and
signed infinities.  The byte plane must round-trip too —
``from_bytes(to_bytes(a))`` reproduces the array — because storage images
and message frames both travel through it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from hypothesis import given, strategies as st

from repro.emio.codec import RecordCodec, codecs, get_codec, register_codec

I64_MIN, I64_MAX = -(1 << 63), (1 << 63) - 1

i64s = st.integers(min_value=I64_MIN, max_value=I64_MAX)
i32s = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
i16s = st.integers(min_value=-(1 << 15), max_value=(1 << 15) - 1)
f64s = st.floats(allow_nan=True, allow_infinity=True, width=64)
kvs = st.tuples(i64s, i64s)


def _eq(a, b) -> bool:
    """Record equality with NaN == NaN (bitwise intent, not IEEE)."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_eq(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b


def _roundtrip(codec: RecordCodec, records: list) -> None:
    arr = codec.encode(records)
    assert isinstance(arr, np.ndarray) and arr.ndim == 1
    assert len(arr) == len(records)
    out = codec.decode(arr)
    assert len(out) == len(records)
    for x, y in zip(records, out):
        assert _eq(x, y), (x, y)
    # Byte-plane round trip: the storage/wire representation is lossless.
    again = codec.from_bytes(codec.to_bytes(codec.encode(records)))
    for x, y in zip(records, codec.decode(again)):
        assert _eq(x, y), (x, y)


@given(st.lists(i64s, max_size=64))
def test_i64_roundtrip(records):
    _roundtrip(get_codec("i64"), records)


@given(st.lists(i32s, max_size=64))
def test_i32_roundtrip(records):
    _roundtrip(get_codec("i32"), records)


@given(st.lists(i16s, max_size=64))
def test_i16_roundtrip(records):
    _roundtrip(get_codec("i16"), records)


@pytest.mark.parametrize("name,width", [("i16", 2), ("i32", 4), ("i64", 8)])
def test_int_codecs_write_canonical_little_endian_bytes(name, width):
    """The bytes a context holds depend on the records alone: little-endian
    two's complement at the codec's width, from a list or any int array."""
    codec = get_codec(name)
    lo, hi = -(1 << (8 * width - 1)), (1 << (8 * width - 1)) - 1
    records = [0, 1, -1, lo, hi]
    expected = b"".join(x.to_bytes(width, "little", signed=True) for x in records)
    assert codec.to_bytes(records) == expected
    assert codec.to_bytes(np.array(records, dtype=">i8")) == expected
    assert codec.itemsize == width


@given(st.lists(f64s, max_size=64))
def test_f64_roundtrip(records):
    _roundtrip(get_codec("f64"), records)


@given(st.lists(kvs, max_size=64))
def test_kv_i64_roundtrip(records):
    _roundtrip(get_codec("kv_i64"), records)


def test_every_registered_codec_roundtrips_empty_and_extremes():
    def boundary(dtype):
        if dtype.kind == "i":
            info = np.iinfo(dtype)
            return [0, 1, -1, int(info.min), int(info.max)]
        return [0.0, -0.0, 1.5, math.inf, -math.inf, math.nan,
                5e-324, 1.7976931348623157e308]

    for codec in codecs().values():
        _roundtrip(codec, [])
        if codec.dtype.names:
            fields = [codec.dtype[name] for name in codec.dtype.names]
            rows = list(zip(*(boundary(f)[:3] for f in fields)))
            _roundtrip(codec, rows)
        else:
            _roundtrip(codec, boundary(codec.dtype))


def test_decode_returns_plain_python_scalars():
    out = get_codec("i64").decode(np.array([1, 2], dtype="<i8"))
    assert all(type(x) is int for x in out)
    out = get_codec("f64").decode(np.array([1.5], dtype="<f8"))
    assert all(type(x) is float for x in out)
    out = get_codec("kv_i64").decode(
        np.array([(1, 2)], dtype=[("k", "<i8"), ("v", "<i8")])
    )
    assert out == [(1, 2)] and type(out[0]) is tuple


def test_registry_is_idempotent_but_rejects_conflicts():
    existing = get_codec("i64")
    register_codec(existing)  # same definition: a no-op
    with pytest.raises(ValueError):
        register_codec(RecordCodec("i64", np.dtype("<f8")))
    with pytest.raises(KeyError):
        get_codec("no-such-codec")


def test_from_bytes_is_zero_copy_readonly():
    codec = get_codec("i64")
    blob = codec.to_bytes(codec.encode([1, 2, 3]))
    arr = codec.from_bytes(blob)
    assert not arr.flags.writeable  # view over the immutable bytes
    assert arr.tolist() == [1, 2, 3]
