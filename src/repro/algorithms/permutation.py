"""CGM permutation routing (Table 1, Group A, "Permutation").

Given values ``x_0..x_{n-1}`` and a permutation ``pi``, produce the sequence
``y`` with ``y[pi[i]] = x[i]``.  On a CGM this is a single ``h``-relation
with ``h = n/v``: every virtual processor knows the target position of each
of its items, sends each to the owner of that position, and the owner places
arrivals by offset.  ``lambda = O(1)``; via the simulation this becomes the
Table 1 EM permutation bound ``T_I/O = O~(G n/(pBD))``, beating the naive
one-record-per-I/O approach by a factor of ``~BD`` (see the T1-A-PERM
benchmark).

**Record planes: the input picks.**  With int64 values *and* perm (and
only then) a codec applies: the per-vp state holds the ``(target, value)``
pairs as one flat canonical ``i64`` byte string ``[t0, x0, t1, x1, ...]``,
pairs are grouped by owner with a stable argsort and arrivals scattered by
fancy indexing (``record_mode == "vector"``).  Message payloads stay flat
interleaved arrays, ``2 * npairs`` records a message like the list-state
path's, which every other input runs and which is the per-record reference
on the same values (DESIGN §10).

**Output flavour.**  The outputs are the values, so ``values`` decides: an
ndarray in gives read-only ``<i8`` array views out, a Python list of
ints in gives lists of plain ``int``s out (see :mod:`._vec`).
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ..bsp.collectives import owner_of_index, share_bounds
from ..bsp.program import BSPAlgorithm, VPContext
from ..emio.codec import get_codec
from ._vec import (
    I64,
    STATE_FRAMING,
    as_i64,
    int64_array,
    owners_of_indices,
    share_output,
)

__all__ = ["CGMPermutation"]


class CGMPermutation(BSPAlgorithm):
    """Route ``values[i]`` to global position ``perm[i]``.

    Output ``j`` is vp ``j``'s slice of the permuted sequence; the
    concatenation over vp ids is ``y`` with ``y[perm[i]] = values[i]``.
    """

    LAMBDA = 2

    def __init__(self, values: Sequence[Any], perm: Sequence[int], v: int):
        if len(values) != len(perm):
            raise ValueError("values and perm must have equal length")
        perm_arr = int64_array(perm)
        if perm_arr is not None:
            valid = np.array_equal(np.sort(perm_arr), np.arange(len(perm_arr)))
        else:
            valid = sorted(perm) == list(range(len(perm)))
        if not valid:
            raise ValueError("perm is not a permutation of 0..n-1")
        vals_arr = int64_array(values)
        if vals_arr is not None and perm_arr is not None:
            self._codec = "i64"
            self.values = vals_arr
            self.perm = perm_arr
            self.record_mode = "vector"
        else:
            self._codec = None
            self.values = list(values)
            self.perm = list(perm)
        self._array_out = self._codec is not None and isinstance(values, np.ndarray)
        self.v = v
        self.n = len(values)

    def context_size(self) -> int:
        m = -(-self.n // self.v)
        if self._codec is None:
            # Arbitrary values have no per-record pickle bound, so the object
            # path keeps a generous declaration: 32 records a pair.
            return 256 + 32 * m
        # A pair is two 8-byte records of the state's codec bytes, a placed
        # value one; the pairs are emptied before the result is written.
        return 2 * m + STATE_FRAMING

    def comm_bound(self) -> int:
        # A vp sends its pairs and receives the pairs its share's positions
        # are the targets of: two records a pair either way.
        return 2 * -(-self.n // self.v)

    def initial_state(self, pid: int, nprocs: int):
        lo, hi = share_bounds(self.n, nprocs, pid)
        if self._codec is None:
            return {
                "pairs": [(self.perm[i], self.values[i]) for i in range(lo, hi)],
                "lo": lo,
                "hi": hi,
                "result": None,
            }
        flat = np.empty(2 * (hi - lo), I64)
        flat[0::2] = self.perm[lo:hi]
        flat[1::2] = self.values[lo:hi]
        return {
            "enc": self._codec,
            "pairs": flat.tobytes(),
            "lo": lo,
            "hi": hi,
            "result": None,
        }

    def superstep(self, ctx: VPContext) -> None:
        if self._codec is None:
            self._superstep_legacy(ctx)
        else:
            self._superstep_vector(ctx)

    def _superstep_legacy(self, ctx: VPContext) -> None:
        st = ctx.state
        if ctx.step == 0:
            by_owner: dict[int, list] = {}
            for target, val in st["pairs"]:
                owner = owner_of_index(target, self.n, ctx.nprocs)
                by_owner.setdefault(owner, []).extend((target, val))
            ctx.charge(len(st["pairs"]))
            ctx.send_all(by_owner)
            st["pairs"] = []
        else:
            lo, hi = st["lo"], st["hi"]
            out: list[Any] = [None] * (hi - lo)
            for m in ctx.incoming:
                it = iter(m.payload)
                for target, val in zip(it, it):
                    out[target - lo] = val
            ctx.charge(hi - lo)
            st["result"] = out
            ctx.vote_halt()

    def _superstep_vector(self, ctx: VPContext) -> None:
        """The same routing over stable-argsort grouping and fancy indexing."""
        st = ctx.state
        codec = get_codec(st["enc"])
        if ctx.step == 0:
            flat = codec.from_bytes(st["pairs"])
            targets = flat[0::2]
            owners = owners_of_indices(targets, self.n, ctx.nprocs)
            # Stable sort keeps original pair order within each owner group —
            # the setdefault/extend order of the list-state path.
            order = np.argsort(owners, kind="stable")
            by_owner: dict[int, np.ndarray] = {}
            keys, starts = np.unique(owners[order], return_index=True)
            for k, lo_i, hi_i in zip(
                keys.tolist(), starts.tolist(), [*starts[1:].tolist(), len(order)]
            ):
                idx = order[lo_i:hi_i]
                part = np.empty(2 * len(idx), I64)
                part[0::2] = targets[idx]
                part[1::2] = flat[1::2][idx]
                by_owner[k] = part
            ctx.charge(len(flat) // 2)
            ctx.send_all(by_owner)
            st["pairs"] = b""
        else:
            lo, hi = st["lo"], st["hi"]
            out = np.zeros(hi - lo, I64)
            for m in ctx.incoming:
                arr = as_i64(m.payload)
                out[arr[0::2] - lo] = arr[1::2]
            ctx.charge(hi - lo)
            st["result"] = out.tobytes()
            ctx.vote_halt()

    def output(self, pid: int, state) -> list | np.ndarray:
        if self._codec is None:
            return state["result"] if state["result"] is not None else []
        return share_output(
            get_codec(state["enc"]), state["result"], self._array_out
        )
