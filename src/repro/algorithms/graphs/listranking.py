"""CGM list ranking (Table 1, Group C) — contract, solve small, expand.

The coarse-grained list-ranking strategy of Cáceres et al. [11]: repeatedly
contract the list by removing an independent set of nodes until the reduced
list fits in a single virtual processor's memory (``O(n/v)`` nodes), solve it
locally there, then undo the contractions in reverse order.  Each round is
*one* superstep each way and removes an expected third of the list, so
``R = O(log v)`` rounds shrink it by the factor ``v`` and the whole run takes
``2R + 4`` supersteps: that ``R`` is this algorithm's ``lambda``, the
``O(log p)`` of Table 1's Group C once ``v`` is a constant multiple of ``p``
(compare the PRAM baseline's ``Theta(log n)`` full sort-and-scan passes).

Per node ``u`` the algorithm maintains a successor ``succ(u)`` and an edge
weight ``w(u)`` (the weight of the edge ``u -> succ(u)``); the *rank* of
``u`` is the total edge weight on the path from ``u`` to the list tail.
With unit weights that is the distance to the tail; with arbitrary integer
weights this computes suffix sums over the list — the primitive the
Euler-tour applications (:mod:`repro.algorithms.graphs.treealgos`) build on.

The schedule:

* **Link back** (superstep 0): every non-tail ``u`` tells its successor's
  owner ``pred(succ(u)) = u``, so the list is doubly linked.
* **Contract round** ``r`` (one superstep each): apply round ``r - 1``'s
  updates, then remove every active non-tail node ``s`` whose priority
  ``(_prio(s, r), s)`` is strictly below both neighbours' (a missing
  predecessor counts as ``+inf``).  Two adjacent nodes cannot both be
  minima of their 3-windows, so the removed set is independent; it holds an
  expected third of the list.  A removed ``s`` sends ``succ <- x,
  w += w(s)`` to its predecessor ``p`` and ``pred <- p`` to its successor
  ``x``, which logs ``s`` under round ``r``; ``w(s)`` stays frozen at ``s``.
  Active counts ride along to vp 0, which tells every vp to gather in the
  round it sees the total at most ``gather_threshold`` (a one-round lag).
* **Gather, solve**: the survivors go to vp 0, which ranks them by pointer
  jumping and scatters the ranks in walk order from the tail.  A list no
  longer than the threshold gathers at superstep 0 and skips contraction.
* **Expand round** ``r`` (one superstep each, last round first): every node
  ``x`` pushes ``rank(x)`` to each ``s`` it logged in round ``r``, and ``s``
  sets ``rank(s) = rank(x) + w(s)``.

**Contexts at fixed width.**  A context holds its per-node fields as
canonical little-endian codec bytes (:mod:`repro.emio.codec`), each at the
narrowest of ``i16`` / ``i32`` / ``i64`` its values need: node ids
(``succ``, ``pred``, the log's ``s``) by ``n - 1`` with ``-1`` the only
sentinel, the log's local indices by ``ceil(n/v) - 1``, and ``w`` / ``rank``
by the sum of the weights' magnitudes (``n - 1`` for unit weights).  A
field exists only while a superstep needs it: ``rank`` from the first expand
superstep, ``succ`` and ``pred`` until the gather, each expand round's log
until it is pushed.  The supersteps are array kernels over views of those
bytes, so ``context_size()`` is the pickled size of the largest such state
(see :meth:`CGMListRanking.context_size`).

**Messages at the same width.**  A message is flat runs of the
algorithm's integers with no per-record tags, at one wire codec: the wider
of the ids' and the weights' (every count a message carries is at most
``ceil(n/v) < n`` once contraction runs).  Its values are packed into
``<i8`` records (zero-copy ``.view`` both ways), so a message's ``len``, the
records the engine charges, is its bytes / 8.  The first value counts the
zero pad values that fill the last record; the receiver drops both
(:func:`_frame`, :func:`_values`).  A ``-1`` pad sentinel would not do:
``rank`` can be negative.
"""

from __future__ import annotations

import math
import numbers
import pickle
from typing import Any, Sequence

import numpy as np

from ...bsp.collectives import share_bounds
from ...bsp.program import BSPAlgorithm, VPContext
from ...emio.codec import get_codec
from .._vec import I64, as_i64, owners_of_indices

__all__ = ["CGMListRanking"]

_MASK = 0xFFFFFFFFFFFFFFFF

#: The signed codecs a context field may take, narrowest first.
_WIDTHS = ("i16", "i32", "i64")


def _narrowest(bound: int) -> str:
    """The narrowest codec of :data:`_WIDTHS` holding every value in
    ``[-bound, bound]``."""
    for name in _WIDTHS:
        if bound <= np.iinfo(get_codec(name).dtype).max:
            return name
    raise ValueError(f"values up to {bound} do not fit in int64")


def _prio(node: int, rnd: int, seed: int) -> int:
    """Deterministic 64-bit pseudo-random priority of ``node`` in round
    ``rnd``, computable by every vp without communication (both endpoints
    of an edge can evaluate it).  Callers compare ``(_prio, node)`` pairs,
    so a tie falls to the node id."""
    x = (node * 0x9E3779B97F4A7C15 + rnd * 0xBF58476D1CE4E5B9 + seed * 0x94D049BB) \
        & _MASK
    x ^= x >> 31
    return (x * 0x9E3779B97F4A7C15) & _MASK


def _prio_arr(nodes: np.ndarray, rnd: int, seed: int) -> np.ndarray:
    """:func:`_prio` over a node array, as uint64 — bit-identical, uint64
    wraparound plays the role of the ``& _MASK`` (mod-2**64 arithmetic is
    associative, so hoisting the round/seed term out is exact)."""
    add = np.uint64((rnd * 0xBF58476D1CE4E5B9 + seed * 0x94D049BB) & _MASK)
    with np.errstate(over="ignore"):
        x = nodes.astype(np.uint64) * np.uint64(0x9E3779B97F4A7C15) + add
        x ^= x >> np.uint64(31)
        x *= np.uint64(0x9E3779B97F4A7C15)
    return x


def _coin(node: int, rnd: int, seed: int) -> int:
    """Deterministic pseudo-random coin: one bit of :func:`_prio`."""
    return (_prio(node, rnd, seed) >> 17) & 1


def _below(hu: np.ndarray, u: np.ndarray, hv: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``(hu, u) < (hv, v)`` elementwise."""
    return (hu < hv) | ((hu == hv) & (u < v))


def _rows(*cols: np.ndarray) -> np.ndarray:
    """Equal-length columns as one ``<i8`` row per element."""
    return np.stack(cols, axis=1).astype(I64, copy=False)


def _concat(parts: list[np.ndarray], width: int) -> np.ndarray:
    """Message values joined into ``<i8`` rows of ``width`` values."""
    flat = np.concatenate(parts).astype(I64) if parts else np.empty(0, I64)
    return flat.reshape(-1, width)


def _frame(dtype: np.dtype, *parts: np.ndarray) -> np.ndarray:
    """``parts``' values as one message of ``<i8`` records: a view of a
    ``dtype`` buffer that leads with the count of the zero pad values filling
    its last record."""
    count = 1 + sum(len(part) for part in parts)
    per = 8 // dtype.itemsize
    buf = np.zeros(-(-count // per) * per, dtype)
    buf[0] = len(buf) - count
    at = 1
    for part in parts:
        buf[at:at + len(part)] = part
        at += len(part)
    return buf.view(I64)


def _values(dtype: np.dtype, payload: Any) -> np.ndarray:
    """The values of a message made by :func:`_frame`, without its frame and
    pad: a ``dtype`` view of the records."""
    vals = as_i64(payload).view(dtype)
    return vals[1:len(vals) - int(vals[0])]


class CGMListRanking(BSPAlgorithm):
    """Rank every node of a linked list given as a ``succ`` array.

    Parameters
    ----------
    succ:
        ``succ[i]`` is node ``i``'s successor; the tail satisfies
        ``succ[tail] == tail``.
    v:
        Number of virtual processors (nodes are block-distributed by id).
    values:
        Optional per-node integer edge weights (``w(u)`` for the edge out of
        ``u``); default is 1 for every non-tail node.  The tail's value is
        ignored.  Anything but integers is refused with a ``TypeError``, and
        weights whose magnitudes sum past int64 with a ``ValueError``.
    seed:
        Seed of the contraction priorities.

    Output ``j`` is the list of ``(node, rank)`` pairs of plain ``int`` for
    vp ``j``'s nodes.  Every input runs on the vector record plane.
    """

    record_mode = "vector"

    def __init__(
        self,
        succ: Sequence[int],
        v: int,
        values: Sequence[Any] | None = None,
        seed: int = 12345,
    ):
        n = len(succ)
        if values is not None and len(values) != n:
            raise ValueError("values must have one entry per node")
        nxt = np.asarray(succ, dtype=I64).reshape(-1)
        tails = np.flatnonzero(nxt == np.arange(n))
        if n and len(tails) != 1:
            raise ValueError(f"expected exactly one tail (succ[t]==t), got {len(tails)}")
        if values is None:
            weights = [1] * n
        elif all(isinstance(x, numbers.Integral) for x in values):
            weights = [int(x) for x in values]
        else:
            raise TypeError("list ranking weights must be integers")
        if n:
            weights[int(tails[0])] = 0
        self.v = v
        self.n = n
        self.seed = seed
        # The reduced list must fit in one vp's memory.
        self.gather_threshold = max(64, 2 * -(-n // v), 2 * v)
        # |w(u)| and |rank(u)| never exceed the sum of the weights' magnitudes.
        ids, wts = _narrowest(n - 1), _narrowest(sum(abs(x) for x in weights))
        self._fields = {
            key: get_codec(name)
            for key, name in (
                ("succ", ids), ("pred", ids), ("log_s", ids),
                ("log_x", _narrowest(-(-n // v) - 1)),
                ("w", wts), ("rank", wts),
            )
        }
        self._succ = self._fields["succ"].encode(nxt)
        self._w = self._fields["w"].encode(weights)
        #: The messages' value width: ids, counts, weights and ranks.
        self._wire = max(self._fields["succ"].dtype, self._fields["w"].dtype,
                         key=lambda dt: dt.itemsize)

    # -- resource declarations -----------------------------------------------------

    def context_size(self) -> int:
        """The pickled size, in 8-byte records, of the largest state a vp
        holds: at the gather (``succ``, ``pred``, ``w`` and the whole log) or
        at the first expand superstep (``w``, ``rank`` and the whole log),
        every scalar at its largest.

        Two counts in it hold with high probability, not for every input.
        The log a vp holds: every removed node is logged once, by its
        successor's owner, ``m = ceil(n/v)`` entries a vp on average; the
        excess over ``m`` measured up to ``3.5*sqrt(m)`` on random lists and
        Euler tours, and ``6*sqrt(m) + 16`` are allowed.  The contraction
        rounds: each removes an expected third of the list until it is below
        ``gather_threshold >= 2n/v``, ``log_{3/2}(v/2) < 1.71*bitlen(v)``
        rounds, so ``log_at`` is allowed ``2*bitlen(v) + 8`` entries (twice
        the rounds measured at ``v`` up to 128).
        """
        m = -(-self.n // self.v)
        log = m + 6 * math.isqrt(m) + 16
        rounds = 2 * self.v.bit_length() + 8

        def blank(key: str, count: int) -> bytes:
            return bytes(count * self._fields[key].itemsize)

        common = {
            "lo": self.n, "m": m, "live": m, "log_x": blank("log_x", log),
            "log_s": blank("log_s", log), "log_at": [log] * rounds,
            "phase": "CONTRACT", "round": rounds, "R": rounds, "eround": rounds,
        }
        gathering = {**common, "succ": blank("succ", m),
                     "pred": blank("pred", m), "w": blank("w", m)}
        expanding = {**common, "w": blank("w", m), "rank": blank("rank", m)}
        size = max(len(pickle.dumps(st, pickle.HIGHEST_PROTOCOL))
                   for st in (gathering, expanding))
        return -(-size // 8)

    def comm_bound(self) -> int:
        # In values: a contract round sends or receives at most two 3-value
        # updates a node plus a 3-value header from or to every vp; vp 0
        # gathers at most gather_threshold 3-value survivors and scatters
        # their ranks in pairs; link-back and expansion move one pair a node.
        # Each of at most v messages adds its pad count and rounds its bytes
        # up to whole records, under one record of pad.
        m = -(-self.n // self.v)
        values = max(6 * m + 3 * self.v, 3 * self.gather_threshold) + self.v
        return (values * self._wire.itemsize + 7 * self.v) // 8

    # -- state -----------------------------------------------------------------------

    def _get(self, st: dict, key: str) -> np.ndarray:
        """A writable ``<i8`` copy of a context field."""
        return self._fields[key].from_bytes(st[key]).astype(I64)

    def _put(self, st: dict, key: str, arr: np.ndarray) -> None:
        st[key] = self._fields[key].to_bytes(arr)

    def initial_state(self, pid: int, nprocs: int):
        if nprocs != self.v:
            raise ValueError(f"built for v={self.v} vps, run with {nprocs}")
        lo, hi = share_bounds(self.n, nprocs, pid)
        m = hi - lo
        ids = self._fields["pred"]
        return {
            "lo": lo,
            "m": m,
            "succ": self._succ[lo:hi].tobytes(),  # -1 once contracted away
            "pred": ids.to_bytes(np.full(m, -1, ids.dtype)),  # -1: the head
            "w": self._w[lo:hi].tobytes(),  # frozen at removal
            "live": m,  # active nodes
            # Expansion log: round r's removed nodes s and the local index of
            # the successor x that ranks each, from log_at[r] on.
            "log_x": b"",
            "log_s": b"",
            "log_at": [],
            "phase": "GATHER" if self.n <= self.gather_threshold else "LINK",
            "round": 0,
            "R": None,  # contraction rounds executed (set at gather)
            "eround": None,
        }

    # -- superstep machine ------------------------------------------------------------

    def superstep(self, ctx: VPContext) -> None:
        phase = ctx.state["phase"]
        if phase == "LINK":
            self._link_back(ctx)
        elif phase == "CONTRACT":
            self._contract(ctx)
        elif phase == "GATHER":
            self._gather(ctx)
        elif phase == "SOLVE":
            self._solve(ctx)
        elif phase == "EXPAND":
            self._expand(ctx)
        elif phase == "DONE":
            ctx.vote_halt()
        else:  # pragma: no cover - defensive
            raise AssertionError(f"unknown phase {phase}")

    def _by_owner(self, nodes: np.ndarray, rows: np.ndarray, v: int):
        """``rows`` stably grouped by the owner of ``nodes``, and each vp's
        ``[start, end)`` within them."""
        owner = owners_of_indices(nodes, self.n, v)
        counts = np.bincount(owner, minlength=v)
        ends = np.cumsum(counts)
        return rows[np.argsort(owner, kind="stable")], ends - counts, ends

    def _send_by_owner(self, ctx: VPContext, nodes: np.ndarray, rows: np.ndarray) -> None:
        """One message of ``rows`` per owner of ``nodes``, ascending."""
        rows, starts, ends = self._by_owner(nodes, rows, ctx.nprocs)
        for d in np.flatnonzero(ends > starts).tolist():
            ctx.send(d, _frame(self._wire, rows[starts[d]:ends[d]].reshape(-1)))

    def _received(self, ctx: VPContext, width: int) -> np.ndarray:
        """Every incoming message's values as ``<i8`` rows of ``width``."""
        return _concat([_values(self._wire, m.payload) for m in ctx.incoming], width)

    def _link_back(self, ctx: VPContext) -> None:
        st = ctx.state
        succ = self._get(st, "succ")
        u = st["lo"] + np.arange(st["m"], dtype=I64)
        keep = succ != u
        ctx.charge(st["m"])
        self._send_by_owner(ctx, succ[keep], _rows(succ[keep], u[keep]))
        st["phase"] = "CONTRACT"

    def _contract(self, ctx: VPContext) -> None:
        """Apply the previous round's updates, then run round ``st["round"]``.

        A round-``r`` message's values are ``[k, live, gather]`` followed by
        ``k`` successor updates ``(p, x, w(s))`` and then pred updates ``(x,
        p, s)``; ``live`` counts for vp 0 only.  Round 0 receives the
        link-back pairs ``(x, p)`` instead.
        """
        st = ctx.state
        lo, rnd, v = st["lo"], st["round"], ctx.nprocs
        succ, pred, w = self._get(st, "succ"), self._get(st, "pred"), self._get(st, "w")
        total, gather = 0, False
        if rnd == 0:
            links = self._received(ctx, 2)
            pred[links[:, 0] - lo] = links[:, 1]
        else:
            heads, tails = [], []
            for m in ctx.incoming:
                pl = _values(self._wire, m.payload)
                split = 3 + 3 * int(pl[0])
                total += int(pl[1])
                gather = gather or bool(pl[2])
                heads.append(pl[3:split])
                tails.append(pl[split:])
            head, tail = _concat(heads, 3), _concat(tails, 3)
            li = head[:, 0] - lo
            succ[li] = head[:, 1]
            w[li] += head[:, 2]
            li = tail[:, 0] - lo
            pred[li] = tail[:, 1]
            st["log_at"].append(len(st["log_s"]) // self._fields["log_s"].itemsize)
            st["log_x"] += self._fields["log_x"].to_bytes(li)
            st["log_s"] += self._fields["log_s"].to_bytes(tail[:, 2])
        self._put(st, "pred", pred)
        self._put(st, "w", w)
        if gather:
            self._put(st, "succ", succ)
            self._gather(ctx)
            return

        ctx.charge(st["m"])
        li = np.asarray(self._leaving(lo, succ, pred, rnd), I64)
        p, x = pred[li], succ[li]
        has_p = p >= 0
        head, hs, he = self._by_owner(
            p[has_p], _rows(p[has_p], x[has_p], w[li][has_p]), v)
        tail, ts, te = self._by_owner(x, _rows(x, p, lo + li), v)
        succ[li] = -1
        st["live"] -= len(li)
        self._put(st, "succ", succ)
        # vp 0 decides on the counts of the round before: one round of lag.
        decide = ctx.pid == 0 and rnd > 0 and total <= self.gather_threshold
        if decide:
            dests = range(v)
        else:
            dests = sorted({0, *np.flatnonzero((he > hs) | (te > ts)).tolist()})
        for d in dests:
            ctx.send(d, _frame(
                self._wire, (he[d] - hs[d], st["live"] if d == 0 else 0, decide),
                head[hs[d]:he[d]].reshape(-1), tail[ts[d]:te[d]].reshape(-1)))
        st["round"] = rnd + 1

    def _leaving(self, lo: int, succ: np.ndarray, pred: np.ndarray, rnd: int) -> np.ndarray:
        """Local indices of the nodes removed in round ``rnd``, ascending:
        the active non-tail nodes whose priority is below both neighbours'.
        ``succ`` and ``pred`` are the vp's ``<i8`` fields, ``lo`` its first
        node."""
        idx = np.flatnonzero(succ >= 0)
        idx = idx[succ[idx] != idx + lo]  # the tail is never removed
        u, s, p = idx + lo, succ[idx], pred[idx]
        hu = _prio_arr(u, rnd, self.seed)
        hp = _prio_arr(np.maximum(p, 0), rnd, self.seed)
        mask = _below(hu, u, _prio_arr(s, rnd, self.seed), s) & (
            (p < 0) | _below(hu, u, hp, p)
        )
        return idx[mask]

    def _gather(self, ctx: VPContext) -> None:
        """Ship the reduced list to vp 0 for the sequential solve; the links
        are not needed after it."""
        st = ctx.state
        succ = self._get(st, "succ")
        idx = np.flatnonzero(succ >= 0)
        ctx.charge(st["m"])
        if len(idx):
            ctx.send(0, _frame(self._wire, _rows(
                st["lo"] + idx, succ[idx], self._get(st, "w")[idx]).reshape(-1)))
        del st["succ"], st["pred"]
        st["R"] = st["round"]
        st["phase"] = "SOLVE"

    def _solve(self, ctx: VPContext) -> None:
        st = ctx.state
        if ctx.pid == 0:
            reduced = self._received(ctx, 3)
            u, s, w = reduced[:, 0], reduced[:, 1], reduced[:, 2]
            count = len(u)
            ctx.charge(count)
            if count:
                # Rank the reduced list by pointer jumping: after ceil(log2)
                # doublings every node points at the tail, and rank / hops
                # sum the weights / edges on the way.
                order = np.argsort(u)
                at = np.minimum(np.searchsorted(u[order], s), count - 1)
                nxt = order[at]
                tail = nxt == np.arange(count)
                rank = np.where(tail, 0, w)
                hops = (~tail).astype(I64)
                for _ in range(count.bit_length()):
                    rank += rank[nxt]
                    hops += hops[nxt]
                    nxt = nxt[nxt]
                if (np.count_nonzero(tail) != 1 or not np.array_equal(u[order][at], s)
                        or not np.array_equal(np.sort(hops), np.arange(count))):
                    raise AssertionError("reduced list is not a single chain")
                # Scatter in walk order: the tail first, then back along it.
                walk = np.argsort(hops)
                self._send_by_owner(ctx, u[walk], _rows(u[walk], rank[walk]))
        st["eround"] = st["R"]
        st["phase"] = "EXPAND"

    def _expand(self, ctx: VPContext) -> None:
        """Take in ranks ``(s, r)``, then push expansion round ``eround - 1``
        and drop its log.

        The first expand superstep receives the solved ranks themselves and
        creates ``rank``; after that ``r`` is ``rank(x)`` and ``rank(s) = r +
        w(s)``.
        """
        st = ctx.state
        lo, w = st["lo"], self._get(st, "w")
        pairs = self._received(ctx, 2)
        li = pairs[:, 0] - lo
        if st["eround"] == st["R"]:
            rank = np.zeros(st["m"], I64)
            rank[li] = pairs[:, 1]
        else:
            rank = self._get(st, "rank")
            rank[li] = pairs[:, 1] + w[li]
        ctx.charge(st["m"])
        er = st["eround"] = st["eround"] - 1
        if er < 0:
            self._put(st, "rank", rank)
            del st["w"]
            st["phase"] = "DONE"
            ctx.vote_halt()
            return
        start = st["log_at"].pop()
        xs = self._fields["log_x"].from_bytes(st["log_x"])[start:].astype(I64)
        ss = self._fields["log_s"].from_bytes(st["log_s"])[start:].astype(I64)
        # Even with nothing to push the vp stays in lockstep: other vps may
        # push to *it* this round.
        self._send_by_owner(ctx, ss, _rows(ss, rank[xs]))
        st["log_x"] = st["log_x"][:start * self._fields["log_x"].itemsize]
        st["log_s"] = st["log_s"][:start * self._fields["log_s"].itemsize]
        self._put(st, "rank", rank)

    def output(self, pid: int, state) -> list[tuple[int, int]]:
        rank = self._fields["rank"].from_bytes(state["rank"]).tolist()
        return list(zip(range(state["lo"], state["lo"] + state["m"]), rank))
