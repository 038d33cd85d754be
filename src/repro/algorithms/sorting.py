"""CGM sorting by deterministic regular sampling (Table 1, Group A, "Sorting").

A single-sample-round CGM sort in the style of communication-efficient
parallel sorting [Goodrich 96] / parallel sorting by regular sampling:

* **Superstep 0** — each virtual processor sorts its ``n/v`` local items and
  sends ``v`` regularly spaced samples to vp 0.
* **Superstep 1** — vp 0 sorts the ``v^2`` samples, selects ``v-1`` splitters,
  and broadcasts them.
* **Superstep 2** — each vp partitions its sorted run by the splitters and
  routes partition ``j`` to vp ``j`` (the single ``h``-relation with
  ``h = O(n/v)``; regular sampling guarantees no vp receives more than
  ``2n/v`` items).
* **Superstep 3** — each vp merges the received sorted runs; the
  concatenation of the outputs over vp ids is the sorted sequence.

``lambda = O(1)`` supersteps, ``T_comp = O((n/v) log n)``, ``M = O(n/v)``
— the Table 1 row.  Requires ``n >= v^2`` (the usual CGM coarseness
condition ``n/p >= p``).

**Record planes.**  When the input is exactly int64 (plain ints or a signed
integer ndarray) and no ``key`` is given, the algorithm is *codec-eligible*
and its per-vp state holds the share as canonical ``i64`` codec bytes in
**both** record modes — so context pickles, and therefore every counted
I/O cost derived from them, are equal by construction.  The ``"object"``
mode decodes the bytes and runs the per-record reference logic; the
``"vector"`` mode runs ``np.sort``/``searchsorted`` kernels over zero-copy
views and ships ndarray message payloads.  Ineligible inputs (custom keys,
non-int records) keep the historical list-state path untouched.

**Output flavour.**  An ndarray in gives read-only ``<i8`` array views out,
a Python sequence in gives lists of plain ``int``s out — in both record
modes alike (see :mod:`._vec`).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

import numpy as np

from ..bsp.collectives import (
    merge_sorted,
    partition_by_splitters,
    regular_samples,
    share_bounds,
)
from ..bsp.program import BSPAlgorithm, VPContext
from ..emio.codec import get_codec
from ._vec import (
    I64,
    as_i64,
    int64_array,
    sample_positions,
    share_output,
)

__all__ = ["CGMSampleSort"]


class CGMSampleSort(BSPAlgorithm):
    """Sort ``data`` with ``v`` virtual processors; output ``i`` is vp ``i``'s
    sorted slice (global order = concatenation over vp ids).

    Parameters
    ----------
    data:
        The records to sort (any totally ordered values, or use ``key``).
        Plain int64 data (or a signed integer ndarray) enables the
        vectorized record plane (``RECORD_MODES`` grows ``"vector"``); the
        ndarray also makes every output an ``<i8`` array instead of a list.
    v:
        Number of virtual processors; ``len(data) >= v*v`` is required for
        the regular-sampling balance guarantee.
    key:
        Optional sort key (disables codec eligibility).
    """

    LAMBDA = 4  # supersteps (communication rounds lambda = 3 + final halt)

    def __init__(self, data: Sequence[Any], v: int, key: Callable | None = None):
        if v < 1:
            raise ValueError("v must be >= 1")
        if len(data) < v * v:
            raise ValueError(
                f"CGM sort needs n >= v^2 (n={len(data)}, v={v}); "
                "use fewer virtual processors"
            )
        self.v = v
        self.key = key
        self.n = len(data)
        arr = int64_array(data) if key is None else None
        self._array_out = arr is not None and isinstance(data, np.ndarray)
        if arr is not None:
            self._codec = "i64"
            self.data = arr
            self.RECORD_MODES = ("object", "vector")
        else:
            self._codec = None
            self.data = list(data)

    # -- resource declarations ------------------------------------------------------

    def context_size(self) -> int:
        # Local share (<= 2n/v after balancing) plus vp 0's v^2 samples,
        # in 8-byte records with pickle overhead headroom.
        per_item = 4
        return 256 + per_item * (4 * -(-self.n // self.v) + 2 * self.v * self.v)

    def comm_bound(self) -> int:
        per_item = 2
        return 64 + per_item * max(
            self.v * self.v, 4 * -(-self.n // self.v) + self.v
        )

    def quiet(self, step: int, pid: int) -> bool:
        # Superstep 1 is vp 0's alone: every other vp waits for the splitters.
        return step == 1 and pid != 0

    # -- the algorithm -----------------------------------------------------------

    def initial_state(self, pid: int, nprocs: int):
        lo, hi = share_bounds(self.n, nprocs, pid)
        if self._codec is None:
            return {"items": self.data[lo:hi], "result": None}
        # Canonical codec bytes: identical state image in both record modes.
        return {
            "enc": self._codec,
            "items": self.data[lo:hi].tobytes(),
            "result": None,
        }

    def superstep(self, ctx: VPContext) -> None:
        if self._codec is None:
            self._superstep_legacy(ctx)
        elif self.record_mode == "vector":
            self._superstep_vector(ctx)
        else:
            self._superstep_object(ctx)

    def _superstep_legacy(self, ctx: VPContext) -> None:
        v, key = ctx.nprocs, self.key
        st = ctx.state
        if ctx.step == 0:
            st["items"].sort(key=key)
            ctx.charge(len(st["items"]) * max(1, len(st["items"]).bit_length()))
            samples = regular_samples(
                [key(x) for x in st["items"]] if key else st["items"], v
            )
            ctx.send(0, samples)
        elif ctx.step == 1:
            if ctx.pid == 0:
                allsamples = sorted(r for m in ctx.incoming for r in m.payload)
                ctx.charge(len(allsamples) * max(1, len(allsamples).bit_length()))
                splitters = regular_samples(allsamples, v - 1)
                for dest in range(v):
                    ctx.send(dest, splitters)
        elif ctx.step == 2:
            splitters = list(ctx.incoming[0].payload)
            parts = partition_by_splitters(st["items"], splitters, key=key)
            ctx.charge(len(st["items"]))
            for dest, part in enumerate(parts):
                if dest < v and part:
                    ctx.send(dest, part)
            st["items"] = []
        else:
            runs = [list(m.payload) for m in ctx.incoming]
            st["result"] = merge_sorted(runs, key=key)
            ctx.charge(sum(len(r) for r in runs) * max(1, v.bit_length()))
            ctx.vote_halt()

    def _superstep_object(self, ctx: VPContext) -> None:
        """Codec-eligible reference plane: decode bytes, run per-record logic."""
        v = ctx.nprocs
        st = ctx.state
        codec = get_codec(st["enc"])
        if ctx.step == 0:
            items = codec.decode(codec.from_bytes(st["items"]))
            items.sort()
            ctx.charge(len(items) * max(1, len(items).bit_length()))
            ctx.send(0, regular_samples(items, v))
            st["items"] = codec.to_bytes(items)
        elif ctx.step == 1:
            if ctx.pid == 0:
                allsamples = sorted(r for m in ctx.incoming for r in m.payload)
                ctx.charge(len(allsamples) * max(1, len(allsamples).bit_length()))
                splitters = regular_samples(allsamples, v - 1)
                for dest in range(v):
                    ctx.send(dest, splitters)
        elif ctx.step == 2:
            splitters = list(ctx.incoming[0].payload)
            items = codec.decode(codec.from_bytes(st["items"]))
            parts = partition_by_splitters(items, splitters)
            ctx.charge(len(items))
            for dest, part in enumerate(parts):
                if dest < v and part:
                    ctx.send(dest, part)
            st["items"] = b""
        else:
            runs = [list(m.payload) for m in ctx.incoming]
            result = merge_sorted(runs)
            ctx.charge(sum(len(r) for r in runs) * max(1, v.bit_length()))
            st["result"] = codec.to_bytes(result)
            ctx.vote_halt()

    def _superstep_vector(self, ctx: VPContext) -> None:
        """The same supersteps over array kernels and zero-copy payloads."""
        v = ctx.nprocs
        st = ctx.state
        codec = get_codec(st["enc"])
        if ctx.step == 0:
            arr = np.sort(codec.from_bytes(st["items"]))
            n_loc = len(arr)
            ctx.charge(n_loc * max(1, n_loc.bit_length()))
            ctx.send(0, arr[sample_positions(n_loc, v)])
            st["items"] = arr.tobytes()
        elif ctx.step == 1:
            if ctx.pid == 0:
                allsamples = np.sort(
                    np.concatenate([as_i64(m.payload) for m in ctx.incoming])
                )
                n_s = len(allsamples)
                ctx.charge(n_s * max(1, n_s.bit_length()))
                splitters = allsamples[sample_positions(n_s, v - 1)]
                for dest in range(v):
                    ctx.send(dest, splitters)
        elif ctx.step == 2:
            splitters = as_i64(ctx.incoming[0].payload)
            arr = codec.from_bytes(st["items"])
            bounds = np.searchsorted(arr, splitters, side="left").tolist()
            ctx.charge(len(arr))
            prev = 0
            for dest, hi in enumerate([*bounds, len(arr)]):
                part = arr[prev:hi]
                if dest < v and len(part):
                    ctx.send(dest, part)
                prev = hi
            st["items"] = b""
        else:
            runs = [as_i64(m.payload) for m in ctx.incoming]
            total = np.concatenate(runs) if runs else np.empty(0, I64)
            result = np.sort(total)
            ctx.charge(sum(len(r) for r in runs) * max(1, v.bit_length()))
            st["result"] = result.tobytes()
            ctx.vote_halt()

    def output(self, pid: int, state) -> list | np.ndarray:
        if self._codec is None:
            return state["result"] if state["result"] is not None else []
        return share_output(
            get_codec(state["enc"]), state["result"], self._array_out
        )
