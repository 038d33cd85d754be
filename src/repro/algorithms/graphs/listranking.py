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
With unit weights that is the distance to the tail; with arbitrary weights
this computes suffix sums over the list — the primitive the Euler-tour
applications (:mod:`repro.algorithms.graphs.treealgos`) build on.

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
* **Gather, solve**: the survivors go to vp 0, which ranks them by walking
  back from the tail and scatters the ranks.  A list no longer than the
  threshold gathers at superstep 0 and skips contraction altogether.
* **Expand round** ``r`` (one superstep each, last round first): every node
  ``x`` pushes ``rank(x)`` to each ``s`` it logged in round ``r``, and ``s``
  sets ``rank(s) = rank(x) + w(s)``.

Contexts are stored as parallel lists indexed by ``node - lo`` — an order
of magnitude tighter under pickling than per-node dicts, which directly
reduces the generated EM algorithm's I/O volume.  Messages are flat integer
runs with no per-record tags.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from ...bsp.collectives import owner_of_index, share_bounds
from ...bsp.program import BSPAlgorithm, VPContext

__all__ = ["CGMListRanking"]

_MASK = 0xFFFFFFFFFFFFFFFF


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
        Optional per-node edge weights (``w(u)`` for the edge out of ``u``);
        default is 1 for every non-tail node.  The tail's value is ignored.
    seed:
        Seed of the contraction priorities.

    Output ``j`` is the list of ``(node, rank)`` pairs for vp ``j``'s nodes.

    The ``"vector"`` record mode computes each round's removal mask with
    numpy (:func:`_prio_arr`); contexts and message payloads are untouched,
    so golden identity with the object plane is structural.
    """

    RECORD_MODES = ("object", "vector")

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
        tails = [i for i in range(n) if succ[i] == i]
        if n and len(tails) != 1:
            raise ValueError(f"expected exactly one tail (succ[t]==t), got {len(tails)}")
        self.succ = list(succ)
        self.values = list(values) if values is not None else None
        self.v = v
        self.n = n
        self.seed = seed
        # The reduced list must fit in one vp's memory.
        self.gather_threshold = max(64, 2 * -(-n // v), 2 * v)

    # -- resource declarations -----------------------------------------------------

    def context_size(self) -> int:
        per_node = 8
        return 1024 + per_node * (2 * -(-self.n // self.v) + self.gather_threshold)

    def comm_bound(self) -> int:
        per_node = 4
        return 256 + per_node * (2 * -(-self.n // self.v) + self.gather_threshold)

    # -- state -----------------------------------------------------------------------

    def initial_state(self, pid: int, nprocs: int):
        # Parallel lists indexed by (node - lo): far tighter under pickle
        # than per-node dicts, and the simulation's I/O tracks pickle size.
        lo, hi = share_bounds(self.n, nprocs, pid)
        succ, w = [], []
        for i in range(lo, hi):
            is_tail = self.succ[i] == i
            succ.append(self.succ[i])
            w.append(0 if is_tail else (self.values[i] if self.values else 1))
        m = hi - lo
        return {
            "lo": lo,
            "m": m,
            "succ": succ,  # -1 once the node is contracted away
            "pred": [-1] * m,  # -1: the head (or not yet linked back)
            "w": w,  # frozen at removal: rank(s) = rank(x) + w(s)
            "live": m,  # active nodes
            "rank": [None] * m,
            # Expansion log: round r's removed nodes s and the local index of
            # the successor x that ranks each, from log_at[r] on.
            "log_x": [],
            "log_s": [],
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

    def _owner(self, node: int, v: int) -> int:
        return owner_of_index(node, self.n, v)

    def _link_back(self, ctx: VPContext) -> None:
        st = ctx.state
        lo = st["lo"]
        by_dest: dict[int, list] = {}
        for li, s in enumerate(st["succ"]):
            if s != lo + li:
                by_dest.setdefault(self._owner(s, ctx.nprocs), []).extend((s, lo + li))
        ctx.charge(st["m"])
        ctx.send_all(by_dest)
        st["phase"] = "CONTRACT"

    def _contract(self, ctx: VPContext) -> None:
        """Apply the previous round's updates, then run round ``st["round"]``.

        A round-``r`` message is ``[k, live, gather]`` followed by ``k``
        successor updates ``(p, x, w(s))`` and then pred updates ``(x, p,
        s)``; ``live`` counts for vp 0 only.  Round 0 receives the link-back
        pairs ``(x, p)`` instead.
        """
        st = ctx.state
        lo, rnd = st["lo"], st["round"]
        succ, pred, w = st["succ"], st["pred"], st["w"]
        total, gather = 0, False
        if rnd == 0:
            for m in ctx.incoming:
                it = iter(m.payload)
                for x in it:
                    pred[x - lo] = next(it)
        else:
            log_x, log_s = st["log_x"], st["log_s"]
            st["log_at"].append(len(log_s))
            for m in ctx.incoming:
                pl = m.payload
                split = 3 + 3 * pl[0]
                total += pl[1]
                gather = gather or bool(pl[2])
                it = iter(pl[3:split])
                for p in it:
                    li = p - lo
                    succ[li] = next(it)
                    w[li] += next(it)
                it = iter(pl[split:])
                for x in it:
                    li = x - lo
                    pred[li] = next(it)
                    log_x.append(li)
                    log_s.append(next(it))
        if gather:
            self._gather(ctx)
            return

        ctx.charge(st["m"])
        v = ctx.nprocs
        to_pred: dict[int, list] = {}
        to_succ: dict[int, list] = {}
        leaving = self._leaving(st, rnd)
        for li in leaving:
            p, x = pred[li], succ[li]
            if p >= 0:
                to_pred.setdefault(self._owner(p, v), []).extend((p, x, w[li]))
            to_succ.setdefault(self._owner(x, v), []).extend((x, p, lo + li))
            succ[li] = -1
        st["live"] -= len(leaving)
        # vp 0 decides on the counts of the round before: one round of lag.
        decide = ctx.pid == 0 and rnd > 0 and total <= self.gather_threshold
        dests = range(v) if decide else sorted({0, *to_pred, *to_succ})
        for d in dests:
            head = to_pred.get(d, ())
            ctx.send(d, [len(head) // 3, st["live"] if d == 0 else 0, int(decide),
                         *head, *to_succ.get(d, ())])
        st["round"] = rnd + 1

    def _leaving(self, st: dict, rnd: int) -> list[int]:
        """Local indices of the nodes removed in round ``rnd``, ascending:
        the active non-tail nodes whose priority is below both neighbours'."""
        lo, seed = st["lo"], self.seed
        if self.record_mode == "vector":
            succ = np.asarray(st["succ"], np.int64)
            idx = np.flatnonzero(succ >= 0)
            idx = idx[succ[idx] != idx + lo]  # the tail is never removed
            u, s = idx + lo, succ[idx]
            p = np.asarray(st["pred"], np.int64)[idx]
            hu = _prio_arr(u, rnd, seed)
            hp = _prio_arr(np.maximum(p, 0), rnd, seed)
            mask = _below(hu, u, _prio_arr(s, rnd, seed), s) & (
                (p < 0) | _below(hu, u, hp, p)
            )
            return idx[mask].tolist()
        out = []
        pred = st["pred"]
        for li, s in enumerate(st["succ"]):
            u = lo + li
            if s < 0 or s == u:
                continue  # contracted away, or the tail
            key = (_prio(u, rnd, seed), u)
            if key < (_prio(s, rnd, seed), s):
                p = pred[li]
                if p < 0 or key < (_prio(p, rnd, seed), p):
                    out.append(li)
        return out

    def _gather(self, ctx: VPContext) -> None:
        """Ship the reduced list to vp 0 for the sequential solve."""
        st = ctx.state
        lo, w = st["lo"], st["w"]
        payload = []
        for li, s in enumerate(st["succ"]):
            if s >= 0:
                payload.extend((lo + li, s, w[li]))
        ctx.charge(st["m"])
        if payload:
            ctx.send(0, payload)
        st["R"] = st["round"]
        st["phase"] = "SOLVE"

    def _solve(self, ctx: VPContext) -> None:
        st = ctx.state
        if ctx.pid == 0:
            reduced: dict[int, tuple[int, Any]] = {}
            for m in ctx.incoming:
                it = iter(m.payload)
                for u in it:
                    reduced[u] = (next(it), next(it))
            ctx.charge(len(reduced))
            # Rank the reduced list by walking backwards from the tail.
            pred: dict[int, int] = {}
            tail = None
            for u, (s, _w) in reduced.items():
                if s == u:
                    tail = u
                else:
                    pred[s] = u
            ranks: dict[int, Any] = {}
            if tail is not None:
                ranks[tail] = 0
                cur = tail
                while cur in pred:
                    p_ = pred[cur]
                    ranks[p_] = ranks[cur] + reduced[p_][1]
                    cur = p_
            if len(ranks) != len(reduced):  # pragma: no cover - defensive
                raise AssertionError("reduced list is not a single chain")
            by_dest: dict[int, list] = {}
            for u, r in ranks.items():
                by_dest.setdefault(self._owner(u, ctx.nprocs), []).extend((u, r))
            ctx.send_all(by_dest)
        st["eround"] = st["R"]
        st["phase"] = "EXPAND"

    def _expand(self, ctx: VPContext) -> None:
        """Take in ranks ``(s, r)``, then push expansion round ``eround - 1``.

        The first expand superstep receives the solved ranks themselves;
        after that ``r`` is ``rank(x)`` and ``rank(s) = r + w(s)``.
        """
        st = ctx.state
        lo, rank, w = st["lo"], st["rank"], st["w"]
        solved = st["eround"] == st["R"]
        for m in ctx.incoming:
            it = iter(m.payload)
            for s in it:
                li = s - lo
                rank[li] = next(it) if solved else next(it) + w[li]
        ctx.charge(st["m"])
        er = st["eround"] = st["eround"] - 1
        if er < 0:
            st["phase"] = "DONE"
            ctx.vote_halt()
            return
        log_at = st["log_at"]
        end = log_at[er + 1] if er + 1 < len(log_at) else len(st["log_s"])
        by_dest: dict[int, list] = {}
        for x, s in zip(st["log_x"][log_at[er]:end], st["log_s"][log_at[er]:end]):
            by_dest.setdefault(self._owner(s, ctx.nprocs), []).extend((s, rank[x]))
        # Even with nothing to push the vp stays in lockstep: other vps may
        # push to *it* this round.
        ctx.send_all(by_dest)

    def output(self, pid: int, state) -> list[tuple[int, Any]]:
        lo = state["lo"]
        return [(lo + li, state["rank"][li]) for li in range(state["m"])]
