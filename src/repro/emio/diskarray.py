"""An array of ``D`` disks supporting *parallel I/O operations*.

Section 3 of the paper: "Each processor can use all of its ``D`` disk drives
concurrently, and transfer ``D x B`` items from the local disks to its local
memory in a single I/O operation and at cost ``G``.  In such an operation, we
permit only one track per disk to be accessed ...  An operation involving
fewer disk drives incurs the same cost."

:class:`DiskArray` is the only interface through which the simulation touches
disks.  It enforces the one-track-per-disk rule per operation and counts the
number of parallel I/O operations — the quantity ``t_I/O / G`` the paper's
theorems bound.

Robustness (see :mod:`repro.emio.faults`): when a :class:`FaultPlan` is
attached, the array masks transient errors with a bounded
:class:`RetryPolicy` (each retry round is one extra counted parallel I/O,
plus deterministic backoff stalls), and survives a permanent disk death in
*degraded mode*: writes bound for the dead disk are remapped round-robin
across the surviving ``D-1`` drives into a shadow track namespace, so the
Lemma 2 balance accounting degrades gracefully instead of collapsing.  Data
written to a disk *before* it died is gone — reading it raises
:class:`DataLossError`, which the engines answer with checkpoint recovery.
"""

from __future__ import annotations

from collections import defaultdict
from operator import itemgetter
from typing import Iterable, Sequence

from ..obs.profile import NULL_PROFILER
from .disk import SHADOW_TRACK_BASE, Block, Disk, DiskError
from .storage import StorageSpec
from .faults import (
    DataLossError,
    FaultInjector,
    FaultPlan,
    FaultyDisk,
    PermanentDiskError,
    RetryExhaustedError,
    RetryPolicy,
    TransientDiskError,
)

__all__ = ["DiskArray"]

#: One round of a relay: the tracks it reads, and where each block read goes.
Round = tuple[Sequence[tuple[int, int]], Sequence[tuple[int, int]]]

#: The fields of a batched transfer's ``(disk, track[, block])`` tuples.
_DISK, _TRACK, _BLOCK = itemgetter(0), itemgetter(1), itemgetter(2)


class DiskArray:
    """``D`` simulated disks with parallel-operation accounting.

    Parameters
    ----------
    D:
        Number of drives.
    B:
        Block (track) size in records.
    ntracks:
        Optional per-disk capacity, to assert the paper's space bounds.
    faults:
        A :class:`~repro.emio.faults.FaultPlan` (instantiated for processor
        ``proc``) or an already-built :class:`FaultInjector`.  When given,
        the array's disks become :class:`FaultyDisk` instances.
    retry:
        Retry policy masking transient faults.  Defaults to
        :class:`RetryPolicy()` whenever ``faults`` is given.
    proc:
        Real-processor index this array belongs to (selects the fault
        streams and the plan's ``dead_proc`` target).
    fast_io:
        Ask for the fast data plane (:attr:`fast_data_plane`): ``True`` /
        ``False`` are honoured, ``None`` (default) lets the storage plane
        decide (:meth:`StorageSpec.fast_plane
        <repro.emio.storage.StorageSpec.fast_plane>`: on in the heap, off on
        ``file`` / ``mmap``).  Whatever was asked, an array with ``faults``
        or ``ntracks``, a traced one and a degraded one run the physical
        path.
    storage:
        A :class:`~repro.emio.storage.StorageSpec` choosing where the
        drives' tracks live (memory / file / mmap).  Defaults to the
        in-heap memory plane.  The plane never changes counted costs.
    M:
        The owning processor's internal memory in records.  It bounds how
        many write cycles of :meth:`LinkedBuckets.append_blocks
        <repro.emio.linked.LinkedBuckets.append_blocks>` go to the drives in
        one batch (:attr:`rounds_in_flight`); an array that is not told
        sends one.
    """

    def __init__(
        self,
        D: int,
        B: int,
        ntracks: int | None = None,
        faults: "FaultPlan | FaultInjector | None" = None,
        retry: RetryPolicy | None = None,
        proc: int = 0,
        fast_io: bool | None = None,
        storage: "StorageSpec | None" = None,
        M: int | None = None,
    ):
        if D < 1:
            raise DiskError(f"D must be >= 1, got {D}")
        self.D = D
        self.B = B
        self.proc = proc
        if isinstance(faults, FaultPlan):
            faults = faults.injector(proc)
        self.injector: FaultInjector | None = faults
        if (
            faults is not None
            and faults.plan.dead_disk is not None
            and faults.plan.dead_proc == proc
            and faults.plan.dead_disk >= D
        ):
            raise DiskError(
                f"FaultPlan.dead_disk={faults.plan.dead_disk} is out of range "
                f"for a {D}-disk array (disk ids are 0..{D - 1})"
            )
        self.retry = retry if retry is not None else (RetryPolicy() if faults else None)
        self.storage_spec = storage if storage is not None else StorageSpec()
        spec = self.storage_spec
        if faults is not None:
            self.disks: list[Disk] = [
                FaultyDisk(d, B, ntracks, injector=faults, storage=spec.make(d, B))
                for d in range(D)
            ]
        else:
            self.disks = [Disk(d, B, ntracks, storage=spec.make(d, B)) for d in range(D)]
        self.parallel_ops = 0
        # -- fast data plane ----------------------------------------------------
        # When enabled (and the array is healthy, unbounded, and untraced)
        # a batch moves with one transfer per drive, which produces the
        # *identical* counted costs (parallel_ops, per-disk reads/writes,
        # high-water marks, stored blocks) while skipping the fault/remap/
        # retry machinery that provably cannot fire on a healthy array.
        # ``hooked`` is set by IOTrace.attach: a traced array always runs the
        # full physical-attempt path so traces stay byte-identical.
        self._fast = spec.fast_plane(fast_io) and faults is None and ntracks is None
        self.hooked = False
        # A quarter of memory's worth of full write cycles (D*B records each).
        self._chunk_rounds = max(1, (M or 0) // (4 * D * max(B, 1)))
        # -- robustness state ---------------------------------------------------
        self.dead_disks: set[int] = set()
        self.retry_reads = 0  # extra parallel ops spent re-reading
        self.retry_writes = 0  # extra parallel ops spent re-writing
        self.stall_ops = 0  # backoff stalls (op-equivalents), see RetryPolicy
        self.degraded_writes = 0  # writes remapped away from dead disks
        self._remap: dict[tuple[int, int], tuple[int, int]] = {}
        self._shadow_next: dict[int, int] = {}
        self._remap_rr = 0

    #: Wall-clock attribution profiler shared with this array's storages
    #: (installed by :meth:`set_profiler`; the no-op by default).
    profiler = NULL_PROFILER

    @property
    def fast_data_plane(self) -> bool:
        """True when the counted-cost short-circuits are active."""
        return self._fast and not self.hooked and not self.dead_disks

    @property
    def rounds_in_flight(self) -> int:
        """How many write cycles of ``append_blocks`` go to
        :meth:`write_batched` in one batch: at most ``M/4`` records' worth
        on the fast data plane, where a batch moves with one transfer per
        drive; one cycle everywhere else, so that a traced, faulty, bounded
        or degraded array makes its physical attempts in the order its
        trace and its fault streams are defined on."""
        return self._chunk_rounds if self.fast_data_plane else 1

    def set_profiler(self, profiler) -> None:
        """Install an attribution profiler on the array and its storages.

        Threading is by object reference, never module state: each drive's
        storage bills its ``pread``/``pwrite``/``fsync`` and image
        encode/decode to the given profiler's scope stack.  Profiling is
        read-only — nothing about counted costs or stored bytes changes.
        """
        self.profiler = profiler
        for d in self.disks:
            st = d.storage
            # CrashyStorage wraps the real plane; the raw I/O happens on
            # the inner object, so the scopes must live there.
            getattr(st, "_inner", st).profiler = profiler

    # -- degraded mode ---------------------------------------------------------

    @property
    def live_disks(self) -> list[int]:
        """Ids of the drives still alive (all of them in the healthy case)."""
        if not self.dead_disks:
            return list(range(self.D))
        return [d for d in range(self.D) if d not in self.dead_disks]

    def mark_dead(self, disk_id: int) -> None:
        """Take ``disk_id`` out of service permanently (degraded mode)."""
        if disk_id in self.dead_disks:
            return
        if len(self.dead_disks) + 1 >= self.D:
            # Total array failure (the last drive died).  Fatal but *orderly*:
            # raising a FATAL_IO_FAULTS member routes the run through the
            # engines' checkpoint machinery (SimulationAborted carrying the
            # last checkpoint) instead of an unclassified DiskError crash.
            raise PermanentDiskError(
                f"disk {disk_id}: cannot enter degraded mode, no surviving "
                "drives (total array failure)"
            )
        self.dead_disks.add(disk_id)
        disk = self.disks[disk_id]
        if isinstance(disk, FaultyDisk):
            disk.dead = True

    def _resolve_read(self, disk: int, track: int) -> tuple[int, int]:
        return self._remap.get((disk, track), (disk, track))

    def _resolve_write(self, disk: int, track: int) -> tuple[int, int]:
        """Physical address for a write; remaps dead-disk targets.

        Remapped targets are spread round-robin over the surviving drives
        (preserving balance in the Lemma 2 sense up to the D/(D-1) factor)
        and live in the shadow track namespace so they can never collide
        with allocator-managed ranges.  The mapping is stable: rewriting the
        same logical address overwrites the same shadow block.
        """
        if disk not in self.dead_disks:
            return disk, track
        key = (disk, track)
        target = self._remap.get(key)
        if target is None:
            live = self.live_disks
            tgt_disk = live[self._remap_rr % len(live)]
            self._remap_rr += 1
            shadow = self._shadow_next.get(tgt_disk, SHADOW_TRACK_BASE)
            self._shadow_next[tgt_disk] = shadow + 1
            target = (tgt_disk, shadow)
            self._remap[key] = target
        self.degraded_writes += 1
        return target

    # -- physical attempts (the unit the I/O trace records) ---------------------

    def _attempt_read(
        self, addrs: Sequence[tuple[int, int]], retry: bool = False
    ) -> list["Block | None | DiskError"]:
        """One physical parallel read; per-slot result is a block or an error."""
        self.parallel_ops += 1
        out: list[Block | None | DiskError] = []
        for d, t in addrs:
            try:
                if d in self.dead_disks:
                    raise PermanentDiskError(f"disk {d}: drive is dead")
                out.append(self.disks[d].read_track(t))
            except (TransientDiskError, PermanentDiskError) as exc:
                out.append(exc)
        return out

    def _attempt_write(
        self,
        ops: Sequence[tuple[int, int, Block | None]],
        retry: bool = False,
    ) -> list["None | DiskError"]:
        """One physical parallel write; per-slot result is None or an error."""
        self.parallel_ops += 1
        out: list[None | DiskError] = []
        for d, t, blk in ops:
            try:
                if d in self.dead_disks:
                    raise PermanentDiskError(f"disk {d}: drive is dead")
                self.disks[d].write_track(t, blk)
                out.append(None)
            except (TransientDiskError, PermanentDiskError) as exc:
                out.append(exc)
        return out

    # -- parallel primitives ---------------------------------------------------

    def _check_round(self, kind: str, disk_ids: Sequence[int]) -> None:
        """The model's rule for one parallel op: 1..D tracks, one per disk,
        on drives the array has."""
        if not disk_ids:
            raise DiskError(f"parallel {kind} of no tracks: a round holds 1..D")
        if len(disk_ids) > self.D:
            raise DiskError(
                f"parallel {kind} of {len(disk_ids)} tracks exceeds D={self.D}"
            )
        if not 0 <= min(disk_ids) <= max(disk_ids) < self.D:
            raise DiskError(
                f"parallel {kind} names a disk outside 0..{self.D - 1}: "
                f"disk ids {sorted(disk_ids)}"
            )
        if len(set(disk_ids)) != len(disk_ids):
            raise DiskError(
                "parallel I/O operation touches a disk twice: "
                f"disk ids {sorted(disk_ids)}"
            )

    @staticmethod
    def _pack_round(items: list) -> tuple[list, list]:
        """Split pending items into one physically-valid round and the rest.

        ``items`` are ``(slot, (disk, ...))`` pairs; a round may touch each
        physical disk once.  In degraded mode remapping can direct two
        logical addresses at the same surviving disk — the extra rounds this
        costs are exactly the degraded array's I/O penalty.
        """
        used: set[int] = set()
        round_items, rest = [], []
        for item in items:
            d = item[1][0]
            if d in used:
                rest.append(item)
            else:
                used.add(d)
                round_items.append(item)
        return round_items, rest

    def _charge_backoff(self, attempt: int) -> None:
        if self.retry is not None:
            self.stall_ops += self.retry.backoff_ops(attempt)

    def _check_retry_budget(self, attempts: int, cause: DiskError) -> None:
        limit = self.retry.max_retries if self.retry is not None else 0
        if attempts > limit:
            raise RetryExhaustedError(
                f"access failed after {attempts - 1} retries: {cause}"
            ) from cause

    def parallel_read(self, ops: Sequence[tuple[int, int]]) -> list[Block | None]:
        """One parallel I/O operation reading ``(disk, track)`` pairs.

        At most one track per disk; 1 <= len(ops) <= D.  Returns the blocks in
        the order requested.  Counts as one parallel operation regardless of
        how many disks participate.  Transient faults are retried per the
        array's :class:`RetryPolicy` (each retry round counts as one extra
        parallel operation); reads of blocks lost with a dead disk raise
        :class:`DataLossError`.  A checked round is a batch whose greedy
        packing is that one round, so it runs as :meth:`read_batched`.
        """
        ops = list(ops)
        if ops:
            self._check_round("read", [d for d, _ in ops])
        return self.read_batched(ops)

    def _read_round(self, ops: list[tuple[int, int]]) -> list[Block | None]:
        """One checked, non-empty round of reads, attempt by attempt:
        retries and degraded-mode remaps included, each attempt counted."""
        results: list[Block | None] = [None] * len(ops)
        fresh = [(i, self._resolve_read(d, t)) for i, (d, t) in enumerate(ops)]
        retry_q: list[tuple[int, tuple[int, int]]] = []
        attempts = [0] * len(ops)
        while fresh or retry_q:
            if fresh:
                round_items, fresh = self._pack_round(fresh)
                is_retry = False
            else:
                round_items, retry_q = self._pack_round(retry_q)
                is_retry = True
                self.retry_reads += 1
            outcomes = self._attempt_read([a for _, a in round_items], retry=is_retry)
            for (idx, (d, t)), out in zip(round_items, outcomes):
                if isinstance(out, PermanentDiskError):
                    self.mark_dead(d)
                    target = self._remap.get((d, t))
                    if target is None:
                        raise DataLossError(
                            f"disk {d}: block at track {t} was lost with the drive"
                        ) from out
                    retry_q.append((idx, target))
                elif isinstance(out, TransientDiskError):
                    attempts[idx] += 1
                    self._check_retry_budget(attempts[idx], out)
                    self._charge_backoff(attempts[idx])
                    retry_q.append((idx, (d, t)))
                else:
                    results[idx] = out
        return results

    def parallel_write(self, ops: Sequence[tuple[int, int, Block | None]]) -> None:
        """One parallel I/O operation writing ``(disk, track, block)`` triples.

        Transient faults are retried; writes aimed at a dead disk are
        remapped onto the surviving drives (degraded mode), so no write is
        ever silently dropped.  Runs as :meth:`write_batched`, like
        :meth:`parallel_read`.
        """
        ops = list(ops)
        if ops:
            self._check_round("write", [d for d, _, _ in ops])
        self.write_batched(ops)

    def _write_round(self, ops: list[tuple[int, int, Block | None]]) -> None:
        """One checked, non-empty round of writes, like :meth:`_read_round`."""
        fresh = [
            (i, (*self._resolve_write(d, t), blk))
            for i, (d, t, blk) in enumerate(ops)
        ]
        retry_q: list[tuple[int, tuple[int, int, Block | None]]] = []
        attempts = [0] * len(ops)
        while fresh or retry_q:
            if fresh:
                round_items, fresh = self._pack_round(fresh)
                is_retry = False
            else:
                round_items, retry_q = self._pack_round(retry_q)
                is_retry = True
                self.retry_writes += 1
            outcomes = self._attempt_write(
                [triple for _, triple in round_items], retry=is_retry
            )
            for (idx, (d, t, blk)), out in zip(round_items, outcomes):
                if isinstance(out, PermanentDiskError):
                    self.mark_dead(d)
                    retry_q.append((idx, (*self._resolve_write(d, t), blk)))
                elif isinstance(out, TransientDiskError):
                    attempts[idx] += 1
                    self._check_retry_budget(attempts[idx], out)
                    self._charge_backoff(attempts[idx])
                    retry_q.append((idx, (d, t, blk)))

    # -- scheduled rounds --------------------------------------------------------

    def move_rounds(
        self, rounds: Iterable[Round], then: Iterable[Round] = ()
    ) -> tuple[int, int]:
        """A relay whose addresses are all known up front: the schedule
        ``rounds`` and, after it, the schedule ``then``.  Round ``(reads,
        write_addrs)`` reads the tracks ``reads`` and writes the ``i``-th of
        them to ``write_addrs[i]``.  Returns the parallel operations each
        schedule cost.

        Each round is one parallel read plus one parallel write (1..D
        tracks, one per disk, each), run read, write, read, write,
        ``rounds`` to the end and then ``then``, on every plane.  Every
        round of both schedules is checked before any data moves or any
        counter changes, so a malformed schedule leaves the array
        untouched; checking takes one walk and running another, so a
        schedule must start over on every ``iter()`` (a list does, an
        iterator does not and is refused).
        """
        schedules = (rounds, then)
        if any(iter(schedule) is schedule for schedule in schedules):
            raise TypeError("a relay schedule is walked twice: pass a list, not an iterator")
        for schedule in schedules:
            self._check_rounds(schedule)
        ops = []
        for schedule in schedules:
            before = self.parallel_ops
            for reads, write_addrs in schedule:
                # One expression: a round's blocks die with it, not with the next read.
                self._write_round(
                    [(d, t, blk) for (d, t), blk in zip(write_addrs, self._read_round(reads))]
                )
            ops.append(self.parallel_ops - before)
        return ops[0], ops[1]

    def _check_rounds(self, rounds: Iterable[Round]) -> None:
        """Refuse the first round of ``rounds`` that breaks a rule: 1..D
        tracks read, one per disk, and as many written, one per disk."""
        for reads, write_addrs in rounds:
            self._check_round("read", [d for d, _ in reads])
            self._check_round("write", [d for d, _ in write_addrs])
            if len(reads) != len(write_addrs):
                raise DiskError(
                    f"relay round reads {len(reads)} tracks but writes {len(write_addrs)}"
                )

    # -- batched transfers -------------------------------------------------------

    def _batch(self, kind: str, ops: Iterable[tuple]) -> tuple[dict, dict[int, list[int]]]:
        """The one grouping step of a batched transfer, ``kind`` ``"R"`` or
        ``"W"``: ``ops`` (``(disk, track, ...)`` tuples) grouped by drive,
        each drive's in batch order — returned as the ops and as their
        tracks, both keyed by disk id; the tracks in drive order, the order
        the drives are served in.

        A batch that names a disk the array does not have, or a track no
        drive has (negative, or past a bounded drive's capacity), is
        refused with a :class:`DiskError` before any counter or byte moves,
        on either plane; the test is one range check over the per-drive
        minima and maxima, not one per address.  On the fast data plane the
        batch is charged here (:meth:`_charge`): the per-disk counters and
        ``parallel_ops`` by the rounds its greedy packing takes, the
        longest per-drive queue (:meth:`_greedy_rounds` puts a drive's r-th
        access in round r).  Off it each physical attempt counts itself."""
        groups: defaultdict[int, list] = defaultdict(list)
        for op in ops:
            groups[op[0]].append(op)
        tracks = {d: list(map(_TRACK, groups[d])) for d in sorted(groups)}
        if tracks:
            verb = "read" if kind == "R" else "write"
            if not 0 <= min(tracks) <= max(tracks) < self.D:
                raise DiskError(
                    f"batched {verb} names a disk outside 0..{self.D - 1}: "
                    f"disk ids {sorted(tracks)}"
                )
            lo, hi = min(map(min, tracks.values())), max(map(max, tracks.values()))
            capacity = self.disks[0].capacity
            if lo < 0 or (capacity is not None and hi >= capacity):
                raise DiskError(
                    f"batched {verb} names a track outside the drives: tracks "
                    f"{lo}..{hi}, capacity {capacity}"
                )
        if self.fast_data_plane:
            self.parallel_ops += self._charge(kind, [tracks.get(d, ()) for d in range(self.D)])
        return groups, tracks

    def _charge(self, kind: str, per_disk: Sequence[Sequence[int]]) -> int:
        """Charge a batch of accesses, given as the tracks it touches on
        each drive, to the per-disk ``reads`` or
        ``writes`` and, a write, to the high-water marks — by the rule
        :meth:`Disk._raise_high_water <repro.emio.disk.Disk._raise_high_water>`
        holds: a shadow track in the batch neither counts nor hides the
        ordinary ones beside it.  Returns the longest per-drive queue — the
        rounds the greedy packing of the batch takes; ``parallel_ops`` is
        the caller's to charge."""
        for disk, tracks in zip(self.disks, per_disk):
            if kind == "R":
                disk.reads += len(tracks)
            elif len(tracks):
                disk.writes += len(tracks)
                top = max(tracks)
                disk._raise_high_water(top)
                if disk._high_water < top:  # a shadow track tops the batch: track by track
                    for t in tracks:
                        disk._raise_high_water(t)
        return max(map(len, per_disk))

    @staticmethod
    def _greedy_rounds(disk_ids: Iterable[int]) -> list[list[int]]:
        """Pack items into rounds of at most one per disk, in one pass.

        Takes each item's disk and returns, per round, the items' indices.
        The greedy packing (fill a round in input order, skipping disks it
        already holds) puts the r-th occurrence of a disk into round r: a
        round holds at most one item per disk, so the D-item cap can never
        bind first.  Bucketing by occurrence count therefore gives the
        greedy's rounds, each in input order, without re-scanning the
        leftovers once per round.
        """
        rounds: list[list[int]] = []
        seen: dict[int, int] = {}
        for i, d in enumerate(disk_ids):
            r = seen.get(d, 0)
            seen[d] = r + 1
            if r == len(rounds):
                rounds.append([])
            rounds[r].append(i)
        return rounds

    def read_batched(self, addrs: Iterable[tuple[int, int]]) -> list[Block | None]:
        """Read many ``(disk, track)`` addresses using as few parallel ops as possible.

        Addresses are greedily packed into rounds with at most one access per
        disk per round, preserving the input order of the returned blocks.
        Layouts in *standard consecutive format* always pack perfectly
        (ceil(n/D) rounds).  On the fast data plane the batch moves as one
        ``_load_many`` per drive (file-backed planes coalesce near-adjacent
        slot extents into single preads); off it round by round.
        """
        addrs = list(addrs)
        _, tracks = self._batch("R", addrs)
        if self.fast_data_plane:
            disks = self.disks
            loaded = {d: iter(disks[d]._load_many(ts)) for d, ts in tracks.items()}
            return [next(loaded[d]) for d, _ in addrs]
        results: list[Block | None] = [None] * len(addrs)
        for idxs in self._greedy_rounds(map(_DISK, addrs)):
            for i, blk in zip(idxs, self._read_round([addrs[i] for i in idxs])):
                results[i] = blk
        return results

    def write_batched(self, ops: Iterable[tuple[int, int, Block | None]]) -> int:
        """Write many ``(disk, track, block)`` triples in packed parallel ops.

        Every block is checked against ``B`` and every address as in
        :meth:`read_batched` before anything moves.  On the fast data plane
        the batch moves as one ``_store_many`` per drive (file-backed planes
        merge adjacent slot runs into single pwrites); a drive receives its
        blocks in batch order, so the storage plane sees the puts of the
        round-by-round loop.  Returns the number of parallel operations used.
        """
        before = self.parallel_ops
        ops = list(ops)
        B = self.B
        for blk in map(_BLOCK, ops):
            if blk is not None:
                blk.validate(B)
        groups, tracks = self._batch("W", ops)
        if self.fast_data_plane:
            disks = self.disks
            for d, ts in tracks.items():
                disks[d]._store_many(list(zip(ts, map(_BLOCK, groups[d]))))
        else:
            for idxs in self._greedy_rounds(map(_DISK, ops)):
                self._write_round([ops[i] for i in idxs])
        return self.parallel_ops - before

    def charge_batched(self, kind: str, addrs: Iterable[tuple[int, int]]) -> int:
        """Charge the counted cost of a batched transfer without moving data.

        ``kind`` is ``"R"`` or ``"W"``.  Increments ``parallel_ops`` by the
        exact number of rounds the greedy packing of :meth:`read_batched` /
        :meth:`write_batched` would use for ``addrs`` (max per-disk count;
        see :meth:`_batch`), plus the per-disk access counters and, for
        writes, the high-water marks — but touches no block data.  This is
        the substrate of the context-swap fast path: a cached (clean)
        context swap charges the identical parallel I/O the reference path
        would, so Theorem 1 accounting is unchanged.  It refuses the
        addresses :meth:`read_batched` / :meth:`write_batched` refuse.

        Only legal on the fast data plane: a faulty, bounded, or traced
        array must run the physical path (faults may fire; traces record
        physical attempts), so charging silently would diverge.

        Returns the number of parallel operations charged.
        """
        if not self.fast_data_plane:
            raise DiskError(
                "charge_batched requires the fast data plane "
                "(healthy, unbounded, untraced array with fast_io on)"
            )
        if kind not in ("R", "W"):
            raise DiskError(f"charge_batched kind must be 'R' or 'W', got {kind!r}")
        before = self.parallel_ops
        self._batch(kind, addrs)
        return self.parallel_ops - before

    # -- storage plane -----------------------------------------------------------

    def sync_storage(self) -> None:
        """Flush every drive's storage to stable media (fsync on file planes)."""
        for d in self.disks:
            d.storage.sync()

    def crash_storage(self, stage: str) -> None:
        """Inflict one crash stage's byte damage on every crash-wrapped drive."""
        for d in self.disks:
            apply = getattr(d.storage, "apply_crash", None)
            if apply is not None:
                apply(stage)

    def close_storage(self) -> None:
        """Release every drive's storage resources (file descriptors, maps)."""
        for d in self.disks:
            d.storage.close()

    def snapshot_storage(self) -> list[dict | None]:
        """Per-drive storage snapshots for checkpoint-by-reference (or Nones)."""
        return [d.storage.snapshot() for d in self.disks]

    def restore_storage(self, snaps: Sequence[dict | None]) -> None:
        """Re-attach per-drive snapshots and rebuild derived disk statistics."""
        if len(snaps) != self.D:
            raise DiskError(
                f"storage restore carries {len(snaps)} drive snapshots, "
                f"array has D={self.D}"
            )
        for disk, snap in zip(self.disks, snaps):
            disk.storage.restore(snap)
            tracks = list(disk.storage.tracks())
            disk._occupied = len(tracks)
            disk._high_water = -1
            for t in tracks:
                disk._raise_high_water(t)

    @property
    def storage_read_bytes(self) -> int:
        """Payload bytes read from the storage plane (0 on the memory plane)."""
        return sum(d.storage.read_bytes for d in self.disks)

    @property
    def storage_write_bytes(self) -> int:
        """Payload bytes written to the storage plane (0 on the memory plane)."""
        return sum(d.storage.write_bytes for d in self.disks)

    # -- statistics ----------------------------------------------------------------

    @property
    def retry_ops(self) -> int:
        """Extra parallel operations spent on retries (reads + writes)."""
        return self.retry_reads + self.retry_writes

    @property
    def total_accesses(self) -> int:
        return sum(d.accesses for d in self.disks)

    @property
    def used_tracks_per_disk(self) -> list[int]:
        return [d.used_tracks for d in self.disks]

    @property
    def high_water_per_disk(self) -> list[int]:
        return [d.high_water for d in self.disks]

    def reset_stats(self) -> None:
        self.parallel_ops = 0
        self.retry_reads = 0
        self.retry_writes = 0
        self.stall_ops = 0
        self.degraded_writes = 0
        for d in self.disks:
            d.reset_stats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiskArray(D={self.D}, B={self.B}, parallel_ops={self.parallel_ops})"
