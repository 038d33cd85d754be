"""Fixed-width record codecs: the dtype registry of the vectorized plane.

The list-state ("object") record plane moves records as Python objects and
serializes whole contexts through :mod:`pickle`.  The vectorized plane
instead represents a run of records as a 1-D numpy array of a fixed-width
dtype, so a block payload is an array *slice* (zero-copy view), a context
field is ``array.tobytes()`` (one memcpy), and a storage image is the raw
buffer inside the existing CRC frame (see ``FileStorage``).

A :class:`RecordCodec` names one such representation and owns the exact
object<->array conversion.  The golden contract every codec must satisfy::

    codec.decode(codec.encode(records)) == records      (round trip)
    codec.encode(records).tobytes()                      (canonical bytes)

*Canonical bytes* is what makes a codec state's counted costs a function of
its records alone: algorithms store codec bytes in their contexts, so
pickled context sizes — the quantity the simulation's I/O accounting derives
block counts from — follow the record count, whatever kernel produced them.
Conversions happen only at the edges
(``encode`` on ingest, ``decode``/``tolist`` on output), which is the
"pickle at the edges" rule of DESIGN.md §10.

Dtypes are explicitly little-endian (``<``) so canonical bytes do not
depend on the host; ``decode`` always yields plain Python objects (never
numpy scalars) so outputs, digests, and ``repr``-based golden records are
byte-identical across planes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

__all__ = [
    "RecordCodec",
    "register_codec",
    "get_codec",
    "codecs",
    "I16",
    "I32",
    "I64",
    "F64",
    "KV_I64",
]


def _tolist(arr: np.ndarray) -> list:
    """Plain-Python materialization (structured rows become tuples)."""
    return arr.tolist()


@dataclass(frozen=True)
class RecordCodec:
    """One fixed-width record representation.

    Attributes
    ----------
    name:
        Registry key (also stored in repro-case JSON and bench configs).
    dtype:
        The numpy dtype of one record.  Must be itemsize-stable and
        little-endian so encoded bytes are canonical across hosts.
    encode_fn / decode_fn:
        Optional overrides; the defaults are ``np.asarray(records, dtype)``
        and ``arr.tolist()``, which is exact for integer and structured
        dtypes (and IEEE-exact for float64).
    """

    name: str
    dtype: np.dtype
    encode_fn: Callable[[Sequence[Any]], np.ndarray] | None = field(
        default=None, compare=False
    )
    decode_fn: Callable[[np.ndarray], list] | None = field(
        default=None, compare=False
    )

    def encode(self, records: Sequence[Any]) -> np.ndarray:
        """Records -> contiguous 1-D array of :attr:`dtype`."""
        if self.encode_fn is not None:
            return self.encode_fn(records)
        if isinstance(records, np.ndarray):
            arr = records.astype(self.dtype, copy=False)
        else:
            # np.asarray() of an empty list guesses float64; force the dtype.
            arr = np.asarray(records, dtype=self.dtype)
        return np.ascontiguousarray(arr).reshape(-1)

    def decode(self, arr: np.ndarray) -> list:
        """Array -> list of plain Python records (the exact inverse)."""
        if self.decode_fn is not None:
            return self.decode_fn(arr)
        return _tolist(np.asarray(arr, dtype=self.dtype))

    # -- canonical byte form (what contexts and storage images hold) --------

    def to_bytes(self, records: Sequence[Any] | np.ndarray) -> bytes:
        """Canonical little-endian bytes of ``records``."""
        if isinstance(records, np.ndarray):
            return np.ascontiguousarray(
                records.astype(self.dtype, copy=False)
            ).tobytes()
        return self.encode(records).tobytes()

    def from_bytes(self, data: bytes | memoryview) -> np.ndarray:
        """Zero-copy (read-only) array view over canonical bytes."""
        return np.frombuffer(data, dtype=self.dtype)

    @property
    def itemsize(self) -> int:
        return self.dtype.itemsize


_REGISTRY: dict[str, RecordCodec] = {}


def register_codec(codec: RecordCodec) -> RecordCodec:
    """Register ``codec`` under its name (idempotent for equal codecs)."""
    existing = _REGISTRY.get(codec.name)
    if existing is not None and existing.dtype != codec.dtype:
        raise ValueError(
            f"codec {codec.name!r} already registered with dtype "
            f"{existing.dtype} (attempted {codec.dtype})"
        )
    _REGISTRY[codec.name] = codec
    return codec


def get_codec(name: str) -> RecordCodec:
    """Look up a registered codec by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown record codec {name!r} (registered: {sorted(_REGISTRY)})"
        ) from None


def codecs() -> dict[str, RecordCodec]:
    """A snapshot of the registry (name -> codec)."""
    return dict(_REGISTRY)


#: int64 keys — the workhorse of the sort/permutation/list-ranking planes.
I64 = register_codec(RecordCodec("i64", np.dtype("<i8")))

#: Narrower signed ints: list ranking stores each context field at the
#: narrowest of ``i16`` / ``i32`` / ``i64`` its values need.
I16 = register_codec(RecordCodec("i16", np.dtype("<i2")))
I32 = register_codec(RecordCodec("i32", np.dtype("<i4")))

#: float64 records (IEEE-exact round trip, including NaN payload bits
#: within a single canonical NaN — ``tolist`` preserves inf/-0.0 exactly).
F64 = register_codec(RecordCodec("f64", np.dtype("<f8")))

#: (key, value) int64 pairs as one structured record; decodes to tuples.
KV_I64 = register_codec(
    RecordCodec("kv_i64", np.dtype([("k", "<i8"), ("v", "<i8")]))
)
