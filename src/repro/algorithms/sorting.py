"""CGM sorting by deterministic regular sampling (Table 1, Group A, "Sorting").

A single-sample-round CGM sort in the style of communication-efficient
parallel sorting [Goodrich 96] / parallel sorting by regular sampling:

* **Superstep 0** — each virtual processor sorts a copy of its ``n/v`` local
  items and sends ``s = max(v, floor(ceil(n/v)/v))`` regularly spaced
  samples of it to vp 0 (:meth:`CGMSampleSort.samples_per_vp`).
* **Superstep 1** — vp 0 sorts the ``v*s`` samples, selects ``v-1``
  splitters, one every ``s``, and broadcasts them.
* **Superstep 2** — each vp sorts its items again and partitions the sorted
  run by the splitters, routing partition ``j`` to vp ``j`` (the single
  ``h``-relation with ``h = O(n/v)``).
* **Superstep 3** — each vp merges the received sorted runs; the
  concatenation of the outputs over vp ids is the sorted sequence.

**Ties.**  Every record is ordered by ``(key, position)``, its position being
its index in the concatenation of the vps' sorted runs (vp ``r``'s run starts
at ``share_bounds(n, v, r)[0]``), so no two records compare equal.  A sample
still travels as its key alone: vp 0 rebuilds each sample's position from the
sender (``Message.src``), the sample's index and ``share_bounds``.  The
``v-1`` splitters go out as ``(key, position)`` pairs, and vp ``pid`` cuts
its run before a splitter ``(s, q)`` owned by vp ``js`` at
``bisect_right(s)`` if ``pid < js`` (every equal key lies before it),
``bisect_left(s)`` if ``pid > js``, and at ``q``'s own index if ``pid ==
js``.  On distinct keys that is the plain ``bisect_left`` cut.

**The bucket bound.**  Let ``m = ceil(n/v)``.  With ties broken, a vp of
``m_r <= m`` records, sampled at indices ``(i+1)*m_r//(s+1)`` for ``i < s``
(``s <= m_r``, so the ``s`` indices are distinct), has at most
``(c+1)*m_r/(s+1)`` records below a splitter that ``c`` of its samples are
below, and more than ``c*m_r/(s+1)``.  vp 0 picks splitter ``j`` at index
``(j+1)*s`` of the ``v*s`` tagged samples, so between two consecutive
splitters (and below the first, and from the last on) the ``c`` of the
``v`` vps rise by ``s`` in all, and a bucket holds at most
``(s+v)*m/(s+1) = m + (v-1)*m/(s+1)`` records, whatever the keys,
duplicates included.  That is below ``2m`` because ``s >= v``, and below
``m + v^2`` because ``s + 1 > m/v``.  At the coarseness floor ``n = v^2``,
``s = v``: the classic ``2v*m/(v+1)`` of ``v`` samples a vp.  vp 0's inbox
of ``v*s <= max(v^2, m)`` samples stays inside the same declarations.
``context_size`` and ``comm_bound`` are declared from that bound
(:meth:`CGMSampleSort.bucket_bound`).

``lambda = O(1)`` supersteps, ``T_comp = O((n/v) log n)``, ``mu = O(n/v)``
— the Table 1 row.  Requires ``n >= v^2`` (the usual CGM coarseness
condition ``n/p >= p``).  Superstep 0 only reads a vp's state and superstep
1 does not touch it (:meth:`CGMSampleSort.state_use`), so the EM engines
write no context back there and fetch none in superstep 1 (nor superstep 2
its first batch, kept in memory): sorting twice costs one more local sort,
where keeping the sorted run would cost a context write-back of the input.

**Record planes: the input picks.**  When the input is exactly int64
(plain ints or a signed integer ndarray) and no ``key`` is given, a codec
applies: the per-vp state holds the share as canonical ``i64`` codec bytes
and the supersteps run ``np.sort``/``searchsorted`` kernels over zero-copy
views, shipping ndarray message payloads (``record_mode == "vector"``).
Every other input (custom keys, non-int records) runs the list-state path,
with the same tie-break over its keys; on the same values it is the
per-record reference the vector plane is tested against (DESIGN §10).

**Output flavour.**  An ndarray in gives read-only ``<i8`` array views out,
a Python list of ints in gives lists of plain ``int``s out (see
:mod:`._vec`).
"""

from __future__ import annotations

import bisect
from typing import Any, Callable, Sequence

import numpy as np

from ..bsp.collectives import (
    merge_sorted,
    owner_of_index,
    regular_samples,
    share_bounds,
)
from ..bsp.program import BSPAlgorithm, VPContext
from ..emio.codec import get_codec
from ._vec import (
    I64,
    STATE_FRAMING,
    as_i64,
    int64_array,
    owners_of_indices,
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
        Plain int64 data (or a signed integer ndarray) runs on the vector
        record plane (``record_mode == "vector"``); the ndarray also makes
        every output an ``<i8`` array instead of a list.
    v:
        Number of virtual processors; ``len(data) >= v*v`` is required for
        the regular-sampling balance guarantee.
    key:
        Optional sort key (keeps the list-state path).
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
            self.record_mode = "vector"
        else:
            self._codec = None
            self.data = list(data)

    # -- resource declarations ------------------------------------------------------

    def samples_per_vp(self, v: int | None = None) -> int:
        """``s``: the regular samples each of ``v`` (default ``self.v``)
        vps sends to vp 0."""
        v = self.v if v is None else v
        return max(v, -(-self.n // v) // v)

    def bucket_bound(self) -> int:
        """The most records any vp's bucket holds (module docstring)."""
        m, s = -(-self.n // self.v), self.samples_per_vp()
        return (s + self.v) * m // (s + 1)

    def context_size(self) -> int:
        m = -(-self.n // self.v)
        if self._codec is None:
            # Arbitrary records have no per-record pickle bound, so the
            # object path keeps a generous declaration: its share and vp 0's
            # samples at four records an item.
            return 256 + 4 * (4 * m + 2 * self.v * self.v)
        # One key is one 8-byte record of the state's codec bytes.  The
        # largest state is the result: a bucket (module docstring), held
        # alone (the share, at most m <= bucket_bound() keys, is emptied
        # first).
        return self.bucket_bound() + STATE_FRAMING

    def comm_bound(self) -> int:
        m, v = -(-self.n // self.v), self.v
        if self._codec is None:
            return 64 + 2 * max(v * v, 4 * m + v)
        # vp 0 receives s samples from every vp and sends v-1 (key, position)
        # splitters to every vp; a data superstep sends a share and
        # receives a bucket, which is no smaller.
        return max(v * self.samples_per_vp(), 2 * v * (v - 1), self.bucket_bound())

    def state_use(self, step: int, pid: int) -> str:
        # Samples are taken from a sorted copy, and vp 0 picks the splitters
        # from its inbox alone: the items are first changed when superstep 2
        # cuts them.
        return {0: "read", 1: "none"}.get(step, "write")

    # -- the tie-break -------------------------------------------------------------

    def _sample_ranks(self, srcs: Sequence[int], v: int) -> np.ndarray:
        """Global positions in the sorted runs of the regular samples of
        vps ``srcs``, vp after vp (``s`` each, since ``s`` is at most any
        share's size)."""
        lo, hi = np.array([share_bounds(self.n, v, r) for r in srcs], I64).reshape(-1, 2).T
        s = self.samples_per_vp(v)
        idx = np.arange(1, s + 1, dtype=I64)
        return (lo[:, None] + idx * (hi - lo)[:, None] // (s + 1)).ravel()

    def _splitters(self, incoming, v: int) -> list:
        """vp 0's ``v-1`` splitters as a flat ``[key, position, ...]`` list:
        regular samples of every vp's samples in ``(key, position)`` order."""
        ranks = self._sample_ranks([m.src for m in incoming], v).tolist()
        tagged = sorted(zip((x for m in incoming for x in m.payload), ranks))
        return [e for pair in regular_samples(tagged, v - 1) for e in pair]

    def _cuts(self, keys: Sequence[Any], splitters: Sequence[Any], pid: int, v: int):
        """Where vp ``pid``'s sorted run is cut: for each splitter, the count
        of its items below it in ``(key, position)`` order."""
        lo = share_bounds(self.n, v, pid)[0]
        cuts = []
        it = iter(splitters)
        for s, pos in zip(it, it):
            owner = owner_of_index(pos, self.n, v)
            if owner > pid:  # every key equal to s lies before it
                cuts.append(bisect.bisect_right(keys, s))
            elif owner < pid:  # every key equal to s lies after it
                cuts.append(bisect.bisect_left(keys, s))
            else:
                cuts.append(pos - lo)
        return cuts

    # -- the algorithm -----------------------------------------------------------

    def initial_state(self, pid: int, nprocs: int):
        lo, hi = share_bounds(self.n, nprocs, pid)
        if self._codec is None:
            return {"items": self.data[lo:hi], "result": None}
        return {
            "enc": self._codec,
            "items": self.data[lo:hi].tobytes(),
            "result": None,
        }

    def superstep(self, ctx: VPContext) -> None:
        if self._codec is None:
            self._superstep_legacy(ctx)
        else:
            self._superstep_vector(ctx)

    def _send_parts(self, ctx: VPContext, items: Sequence[Any], cuts: list[int]) -> None:
        prev = 0
        for dest, hi in enumerate([*cuts, len(items)]):
            if hi > prev:
                ctx.send(dest, items[prev:hi])
            prev = hi

    def _superstep_legacy(self, ctx: VPContext) -> None:
        v, key = ctx.nprocs, self.key
        st = ctx.state
        if ctx.step == 0:
            items = sorted(st["items"], key=key)
            ctx.charge(len(items) * max(1, len(items).bit_length()))
            keys = [key(x) for x in items] if key else items
            ctx.send(0, regular_samples(keys, self.samples_per_vp(v)))
        elif ctx.step == 1:
            if ctx.pid == 0:
                splitters = self._splitters(ctx.incoming, v)
                n_s = sum(m.size for m in ctx.incoming)
                ctx.charge(n_s * max(1, n_s.bit_length()))
                for dest in range(v):
                    ctx.send(dest, splitters)
        elif ctx.step == 2:
            items = sorted(st["items"], key=key)
            keys = [key(x) for x in items] if key else items
            cuts = self._cuts(keys, ctx.incoming[0].payload, ctx.pid, v)
            ctx.charge(len(items) * max(1, len(items).bit_length()) + len(items))
            self._send_parts(ctx, items, cuts)
            st["items"] = []
        else:
            runs = [list(m.payload) for m in ctx.incoming]
            st["result"] = merge_sorted(runs, key=key)
            ctx.charge(sum(len(r) for r in runs) * max(1, v.bit_length()))
            ctx.vote_halt()

    def _superstep_vector(self, ctx: VPContext) -> None:
        """The codec plane: the same supersteps over array kernels and
        zero-copy payloads."""
        v = ctx.nprocs
        st = ctx.state
        if ctx.step == 0:
            arr = np.sort(get_codec(st["enc"]).from_bytes(st["items"]))
            n_loc = len(arr)
            ctx.charge(n_loc * max(1, n_loc.bit_length()))
            ctx.send(0, arr[sample_positions(n_loc, self.samples_per_vp(v))])
        elif ctx.step == 1:
            if ctx.pid == 0:
                keys = np.concatenate([as_i64(m.payload) for m in ctx.incoming])
                ranks = self._sample_ranks([m.src for m in ctx.incoming], v)
                order = np.lexsort((ranks, keys))
                n_s = len(order)
                ctx.charge(n_s * max(1, n_s.bit_length()))
                pick = order[sample_positions(n_s, v - 1)]
                splitters = np.empty(2 * len(pick), I64)
                splitters[0::2] = keys[pick]
                splitters[1::2] = ranks[pick]
                for dest in range(v):
                    ctx.send(dest, splitters)
        elif ctx.step == 2:
            spl = as_i64(ctx.incoming[0].payload)
            keys, ranks = spl[0::2], spl[1::2]
            arr = np.sort(get_codec(st["enc"]).from_bytes(st["items"]))
            n_loc = len(arr)
            lo = share_bounds(self.n, v, ctx.pid)[0]
            owner = owners_of_indices(ranks, self.n, v)
            cuts = np.where(
                owner > ctx.pid,
                np.searchsorted(arr, keys, side="right"),
                np.where(
                    owner < ctx.pid, np.searchsorted(arr, keys, side="left"), ranks - lo
                ),
            )
            ctx.charge(n_loc * max(1, n_loc.bit_length()) + n_loc)
            self._send_parts(ctx, arr, cuts.tolist())
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
