"""Vectorized-plane helpers shared by the codec-eligible CGM algorithms.

Each function here is the numpy twin of a pure-Python helper in
:mod:`repro.bsp.collectives` and must agree with it *exactly* — the vector
plane's outputs are checked against the list-state path's on the same
values.  The equivalences relied on:

* ``np.sort`` on integers == ``list.sort()`` (same total order, and ties
  are indistinguishable values).
* ``np.lexsort((positions, keys))`` == ``sorted`` over ``(key, position)``
  pairs, and ``np.searchsorted(items, keys, side=...)`` on sorted inputs ==
  ``bisect`` of the same side (the sample sort's splitters and cuts).
* ``np.argsort(kind="stable")`` grouping == dict ``setdefault``/append
  insertion order (stability preserves original order within a group).
* :func:`owners_of_indices` == ``owner_of_index`` mapped over an array.

**Output flavour follows input flavour.**  A codec-eligible algorithm keeps
its result as canonical codec bytes; what the caller gets back is decided
by what the caller handed in and nothing else: an ndarray that
:func:`int64_array` accepted gives read-only array views out, a Python
list gives lists of plain ``int``s out (:func:`share_output`).  The
algorithm records which at construction, so the pickled algorithm carries
it to process workers.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

I64 = np.dtype("<i8")

#: Pickle framing of a codec-eligible state dict, in 8-byte records: the
#: dict, its keys and the codec bytes' headers measure at most 80 bytes;
#: 128 are allowed.
STATE_FRAMING = 16

__all__ = [
    "I64",
    "STATE_FRAMING",
    "int64_array",
    "share_output",
    "as_i64",
    "sample_positions",
    "owners_of_indices",
]


def int64_array(data: Sequence[Any]) -> np.ndarray | None:
    """``data`` as a 1-D ``<i8`` array, or ``None`` if not *exactly* int64.

    This is the codec-eligibility gate, so it picks the record plane: an
    ndarray of a signed integer dtype, or any other sequence (a list, a
    tuple, a ``range``) whose every record is a plain Python ``int``
    (``bool`` excluded — its repr differs) within the int64 range, runs on
    the vector plane.  Anything else keeps the list-state path.
    """
    if isinstance(data, np.ndarray):
        if data.ndim == 1 and data.dtype.kind == "i" and data.dtype.itemsize <= 8:
            return np.ascontiguousarray(data.astype(I64, copy=False))
        return None
    if not all(type(x) is int for x in data):
        return None
    try:
        return np.asarray(data, dtype=I64)
    except OverflowError:
        return None


def share_output(codec, result: bytes | None, as_array: bool) -> np.ndarray | list:
    """One vp's output from its canonical result bytes.

    ``as_array`` (the algorithm was handed an ndarray) yields the codec's
    zero-copy read-only view over the bytes — empty for an empty or
    unfinished share — so the keys are never boxed; otherwise the decoded
    list of plain Python records.
    """
    if as_array:
        return codec.from_bytes(result or b"")
    return [] if result is None else codec.decode(codec.from_bytes(result))


def as_i64(payload: Any) -> np.ndarray:
    """A message payload as an ``<i8`` array.

    Vector-mode payloads arrive as ndarrays already; the empty-message
    marker (an empty list, from the one-empty-block convention) converts
    for free.
    """
    if isinstance(payload, np.ndarray):
        return payload
    return np.asarray(payload, dtype=I64)


def sample_positions(n: int, count: int) -> list[int]:
    """The index set :func:`~repro.bsp.collectives.regular_samples` picks."""
    if n == 0 or count <= 0:
        return []
    return sorted({min(n - 1, (i + 1) * n // (count + 1)) for i in range(count)})


def owners_of_indices(idx: np.ndarray, n: int, v: int) -> np.ndarray:
    """:func:`~repro.bsp.collectives.owner_of_index` over an index array."""
    base, extra = divmod(n, v)
    boundary = extra * (base + 1)
    # base == 0 makes the else-branch unreachable (boundary == n bounds every
    # index); max(base, 1) only keeps the dead lane division-safe.
    return np.where(
        idx < boundary,
        idx // (base + 1),
        extra + (idx - boundary) // max(base, 1),
    )
