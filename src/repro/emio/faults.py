"""Fault injection for the simulated disk subsystem.

The paper's machine model assumes perfect devices; real parallel-disk
machines (the PDM setting of Arge-Thorup, the STXXL systems work) must
survive transient I/O errors, silently corrupted blocks, slow drives, and
outright drive death.  This module supplies the fault model:

* :class:`FaultPlan` — a seeded, deterministic description of *what goes
  wrong*: per-access transient read/write error rates, a silent-corruption
  rate, a latency-spike rate, and at most one permanent disk death at a
  configured access count.  The same plan (same seed) always injects the
  same fault sequence, so every failure scenario is reproducible.
* :class:`FaultInjector` — one plan instantiated for one real processor's
  disk array; holds the per-disk random streams and the injected-fault
  counters.
* :class:`FaultyDisk` — a drop-in :class:`~repro.emio.disk.Disk` that
  consults the injector on every access and keeps a CRC32 checksum per
  written block, so corruption is *detected* at read time (raising
  :class:`ChecksumError`) instead of silently propagating wrong records
  into the routing fabric.
* :class:`RetryPolicy` — bounded retries with deterministic backoff, used
  by :class:`~repro.emio.diskarray.DiskArray` to mask transient faults.
* :class:`CrashPlan` / :class:`CrashyStorage` — the *byte-level* sibling of
  the above: instead of failing logical track accesses, it models what a
  hard host crash does to a file-backed storage plane (torn slot writes,
  unsynced writes reordered past the fsync and lost) at a deterministic,
  seeded crash point.  :class:`HostCrash` is the injected process death
  itself — deliberately *not* a ``DiskError``, because a dead host is not
  a fault the engines can retry or checkpoint-recover in-process.

Error taxonomy (all subclasses of :class:`~repro.emio.disk.DiskError`):

* :class:`TransientDiskError` — the access failed but a retry may succeed.
* :class:`ChecksumError` — a read returned data whose checksum does not
  match what was written; retriable (the medium, not the data, glitched).
* :class:`PermanentDiskError` — the drive is dead; no retry will help.
* :class:`DataLossError` — a block lived only on a now-dead drive; only a
  checkpoint (see :mod:`repro.core.checkpoint`) can recover the run.
* :class:`RetryExhaustedError` — the retry budget ran out.
"""

from __future__ import annotations

import pickle
import random
import zlib

import numpy as np
from dataclasses import dataclass, replace

from .disk import Block, Disk, DiskError

__all__ = [
    "TransientDiskError",
    "ChecksumError",
    "PermanentDiskError",
    "DataLossError",
    "RetryExhaustedError",
    "FATAL_IO_FAULTS",
    "HostCrash",
    "CRASH_STAGES",
    "RetryPolicy",
    "FaultStats",
    "FaultPlan",
    "FaultInjector",
    "FaultyDisk",
    "CrashPlan",
    "CrashyStorage",
    "block_checksum",
]


class TransientDiskError(DiskError):
    """A disk access failed transiently; retrying may succeed."""


class ChecksumError(TransientDiskError):
    """A read returned a block whose checksum does not match the write."""


class PermanentDiskError(DiskError):
    """The disk is permanently dead; no retry will succeed."""


class DataLossError(DiskError):
    """A block was stored only on a now-dead disk and cannot be re-read."""


class RetryExhaustedError(DiskError):
    """The bounded retry budget was exhausted without a successful access."""


#: Faults a retry cannot mask; engines recover from these via checkpoints.
FATAL_IO_FAULTS = (DataLossError, PermanentDiskError, RetryExhaustedError)


class HostCrash(RuntimeError):
    """An injected hard process crash (a :class:`CrashPlan` point fired).

    Deliberately *not* a :class:`~repro.emio.disk.DiskError` and not in
    :data:`FATAL_IO_FAULTS`: a dead host cannot retry or restore anything
    in-process.  It propagates out of ``run()`` exactly like a real process
    death, leaving the storage plane in whatever byte state the crash left
    it; recovery means ``scrub()``-ing the storage root and resuming in a
    fresh engine (what ``repro crashcheck`` automates).
    """


#: The crash stages injected at every checkpoint barrier, in order.  A
#: :class:`CrashPlan`'s ``crash_point`` indexes the global stage sequence:
#: stage ``CRASH_STAGES[k % 5]`` of barrier ``k // 5``.
#:
#: * ``"torn"`` — die before the barrier sync with the most recent
#:   unsynced slot write only partially on the platter.
#: * ``"lost"`` — die before the barrier sync with a seeded subset of
#:   unsynced writes dropped (write-behind reordering).
#: * ``"postsync"`` — die after the track files are synced but before the
#:   checkpoint journal stages anything.
#: * ``"staged"`` — die after the journal's temp file is written and
#:   fsynced but before the commit rename.
#: * ``"committed"`` — die right after the rename + directory fsync.
CRASH_STAGES = ("torn", "lost", "postsync", "staged", "committed")


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy for :class:`~repro.emio.diskarray.DiskArray`.

    Each failed access is retried up to ``max_retries`` times.  Before the
    ``r``-th retry of an access the array stalls for ``backoff_ops(r)``
    parallel-operation equivalents — a deterministic linear backoff counted
    in the cost ledger (every stall op costs ``G`` model time, like a real
    parallel I/O the drives spend waiting instead of transferring).
    """

    max_retries: int = 6
    backoff_base: int = 1

    def backoff_ops(self, attempt: int) -> int:
        """Stall ops charged before retry number ``attempt`` (1-based)."""
        return self.backoff_base * attempt


@dataclass
class FaultStats:
    """Counters of injected faults, kept per :class:`FaultInjector`."""

    transient_read_errors: int = 0
    transient_write_errors: int = 0
    corruptions_injected: int = 0
    checksum_errors: int = 0
    latency_spikes: int = 0
    stall_ops: int = 0  # op-equivalents lost to latency spikes
    disks_died: int = 0


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic description of the faults to inject.

    All rates are per-access probabilities in ``[0, 1]``.  A plan is pure
    configuration; call :meth:`injector` to instantiate it for one real
    processor's disk array (each processor gets independent but
    deterministic fault streams derived from ``seed``).

    Parameters
    ----------
    seed:
        Root seed of every per-disk fault stream.
    read_error_rate, write_error_rate:
        Probability that a read/write access fails with a
        :class:`TransientDiskError` (nothing is transferred).
    corruption_rate:
        Probability that a read returns a silently corrupted copy of the
        stored block.  With ``checksums=True`` (the default) the corruption
        is detected and surfaces as a retriable :class:`ChecksumError`;
        with ``checksums=False`` the corrupted block is returned as-is —
        the failure mode the checksums exist to prevent.
    latency_rate:
        Probability that an access stalls its drive for
        ``latency_stall_ops`` parallel-operation equivalents (a slow-disk
        spike; counted as model I/O time, data still transfers).
    latency_stall_ops:
        Size of one latency spike, in parallel-op equivalents.
    dead_disk:
        Disk id (on processor ``dead_proc``) that dies permanently, or
        ``None`` for no death.
    dead_after:
        Number of accesses the doomed disk serves before dying.
    dead_proc:
        Real-processor index whose array contains the doomed disk.
    checksums:
        Maintain and verify per-block CRC32 checksums on the faulty disks.
    """

    seed: int = 0
    read_error_rate: float = 0.0
    write_error_rate: float = 0.0
    corruption_rate: float = 0.0
    latency_rate: float = 0.0
    latency_stall_ops: int = 2
    dead_disk: int | None = None
    dead_after: int = 0
    dead_proc: int = 0
    checksums: bool = True

    def __post_init__(self) -> None:
        for name in (
            "read_error_rate",
            "write_error_rate",
            "corruption_rate",
            "latency_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"FaultPlan.{name} must be in [0, 1], got {rate}")
        if self.latency_stall_ops < 0:
            raise ValueError("FaultPlan.latency_stall_ops must be >= 0")
        if self.dead_after < 0:
            raise ValueError("FaultPlan.dead_after must be >= 0")
        if self.dead_disk is not None and self.dead_disk < 0:
            raise ValueError("FaultPlan.dead_disk must be a disk id >= 0")

    def injector(self, proc: int = 0) -> "FaultInjector":
        """Instantiate this plan for real processor ``proc``."""
        return FaultInjector(self, proc)


@dataclass
class _AccessDraw:
    """The injector's verdict for one disk access."""

    die: bool = False
    fail: bool = False
    corrupt: bool = False
    stall_ops: int = 0


class FaultInjector:
    """One :class:`FaultPlan` bound to one processor's disks.

    Every disk gets its own :class:`random.Random` stream seeded from
    ``(plan.seed, proc, disk_id)``, and every access draws the same number
    of variates regardless of the configured rates — so fault sequences
    are stable when rates change and identical across re-runs.
    """

    def __init__(self, plan: FaultPlan, proc: int = 0):
        self.plan = plan
        self.proc = proc
        self.stats = FaultStats()
        self._rngs: dict[int, random.Random] = {}
        self._accesses: dict[int, int] = {}

    def _rng(self, disk_id: int) -> random.Random:
        rng = self._rngs.get(disk_id)
        if rng is None:
            mix = (self.plan.seed * 1_000_003 + self.proc) * 1_000_003 + disk_id
            rng = self._rngs[disk_id] = random.Random(mix)
        return rng

    def draw(self, disk_id: int, kind: str) -> _AccessDraw:
        """Decide the fate of one access (``kind`` is ``"read"``/``"write"``)."""
        plan = self.plan
        count = self._accesses.get(disk_id, 0) + 1
        self._accesses[disk_id] = count
        rng = self._rng(disk_id)
        # Draw all variates unconditionally so the stream is rate-independent.
        fail_r, corrupt_r, stall_r = rng.random(), rng.random(), rng.random()

        draw = _AccessDraw()
        if (
            plan.dead_disk == disk_id
            and plan.dead_proc == self.proc
            and count > plan.dead_after
        ):
            draw.die = True
            self.stats.disks_died += 1
            return draw
        if stall_r < plan.latency_rate:
            draw.stall_ops = plan.latency_stall_ops
            self.stats.latency_spikes += 1
            self.stats.stall_ops += plan.latency_stall_ops
        if kind == "read":
            if fail_r < plan.read_error_rate:
                draw.fail = True
                self.stats.transient_read_errors += 1
            elif corrupt_r < plan.corruption_rate:
                draw.corrupt = True
                self.stats.corruptions_injected += 1
        else:
            if fail_r < plan.write_error_rate:
                draw.fail = True
                self.stats.transient_write_errors += 1
        return draw


def _canonical_bytes(payload) -> bytes:
    """A payload's bytes as the checksum sees them: the same whether an
    ndarray is a view, a slice, or a reloaded copy of the same records."""
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return bytes(payload)
    if isinstance(payload, np.ndarray):
        return np.ascontiguousarray(payload).tobytes()
    return pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)


def block_checksum(block: Block) -> int:
    """CRC32 over a block's payload, routing metadata and segment table
    (a message block's parts one by one, as they are held)."""
    header = (
        f"{block.dest},{block.src},{block.msg},{block.seq},{int(block.dummy)}|"
        f"{block.segs}|"
    ).encode()
    payload = block.records
    if isinstance(payload, tuple):
        crc = zlib.crc32(header)
        for part in payload:
            crc = zlib.crc32(_canonical_bytes(part), crc)
        return crc
    return zlib.crc32(header + _canonical_bytes(payload))


def _corrupted(payload):
    """``payload`` with its first record changed (a flipped medium bit); a
    message block's parts keep their shape, the first non-empty one hit."""
    if isinstance(payload, tuple):
        hit = next((i for i, part in enumerate(payload) if len(part)), 0)
        return payload[:hit] + (_corrupted(payload[hit]),) + payload[hit + 1 :]
    if isinstance(payload, memoryview):
        payload = bytes(payload)
    if isinstance(payload, (bytes, bytearray)):
        data = bytes(payload)
        return (bytes([data[0] ^ 0xFF]) + data[1:]) if data else b"\xff"
    if isinstance(payload, np.ndarray):
        if len(payload):
            # Flip every bit of the first record: always a different value,
            # for any dtype, and detected by the canonical-bytes checksum.
            bad = payload.copy()
            first = bytes(b ^ 0xFF for b in np.ascontiguousarray(bad[:1]).tobytes())
            bad[0] = np.frombuffer(first, dtype=payload.dtype)[0]
            return bad
        return np.frombuffer(b"\xff" * payload.dtype.itemsize, dtype=payload.dtype)
    return ["\x00CORRUPT"] + list(payload[1:])


def _corrupted_copy(block: Block) -> Block:
    """A copy of ``block`` whose payload differs (a flipped medium bit);
    routing metadata and segment table stay as they were."""
    return replace(block, records=_corrupted(block.records))


class FaultyDisk(Disk):
    """A :class:`Disk` whose accesses pass through a :class:`FaultInjector`.

    The disk keeps a CRC32 checksum per written track (``checksums=True``
    in the plan) and verifies it on every read, so injected corruption is
    detected at the device boundary.  Failed accesses still count toward
    the drive's access statistics (the attempt occupied the device).
    """

    def __init__(
        self,
        disk_id: int,
        B: int,
        ntracks: int | None = None,
        injector: FaultInjector | None = None,
        storage=None,
    ):
        super().__init__(disk_id, B, ntracks, storage=storage)
        self.injector = injector
        self.dead = False
        self._sums: dict[int, int] = {}

    @property
    def checksums(self) -> bool:
        return self.injector is None or self.injector.plan.checksums

    def _check_alive(self) -> None:
        if self.dead:
            raise PermanentDiskError(f"disk {self.disk_id}: drive is dead")

    def _die(self) -> None:
        self.dead = True

    def read_track(self, track: int) -> Block | None:
        self._check_track(track)
        self._check_alive()
        draw = self.injector.draw(self.disk_id, "read") if self.injector else None
        if draw is not None:
            if draw.die:
                self._die()
                raise PermanentDiskError(
                    f"disk {self.disk_id}: drive died during read of track {track}"
                )
            if draw.fail:
                self.reads += 1  # the failed attempt occupied the device
                raise TransientDiskError(
                    f"disk {self.disk_id}: transient read error at track {track}"
                )
        blk = super().read_track(track)
        if blk is None:
            return None
        if draw is not None and draw.corrupt:
            bad = _corrupted_copy(blk)
            if self.checksums:
                self.injector.stats.checksum_errors += 1
                raise ChecksumError(
                    f"disk {self.disk_id}: checksum mismatch at track {track} "
                    "(corrupted block detected)"
                )
            return bad  # silent corruption: exactly what checksums prevent
        if self.checksums:
            expected = self._sums.get(track)
            if expected is not None and block_checksum(blk) != expected:
                if self.injector is not None:
                    self.injector.stats.checksum_errors += 1
                raise ChecksumError(
                    f"disk {self.disk_id}: checksum mismatch at track {track}"
                )
        return blk

    def write_track(self, track: int, block: Block | None) -> None:
        self._check_track(track)
        self._check_alive()
        draw = self.injector.draw(self.disk_id, "write") if self.injector else None
        if draw is not None:
            if draw.die:
                self._die()
                raise PermanentDiskError(
                    f"disk {self.disk_id}: drive died during write of track {track}"
                )
            if draw.fail:
                self.writes += 1  # the failed attempt occupied the device
                raise TransientDiskError(
                    f"disk {self.disk_id}: transient write error at track {track}"
                )
        super().write_track(track, block)
        if block is None:
            self._sums.pop(track, None)
        else:
            self._sums[track] = block_checksum(block)

    # A freed track's checksum goes with its contents.

    def discard_track(self, track: int) -> None:
        super().discard_track(track)
        self._sums.pop(track, None)

    def discard_range(self, lo: int, hi: int) -> None:
        super().discard_range(lo, hi)
        for track in range(lo, hi):
            self._sums.pop(track, None)


@dataclass(frozen=True)
class CrashPlan:
    """Seeded, deterministic description of one injected host crash.

    Like :class:`FaultPlan`, a plan is pure configuration and replayable:
    the same plan against the same run always dies at the same point with
    the same bytes on disk.  Attach it via the engines' ``crash=`` knob
    (requires ``checkpoint=True`` and a non-memory storage plane).

    Parameters
    ----------
    seed:
        Root seed of the per-disk survival streams used by the ``"lost"``
        stage (mixed with ``(proc, disk_id)`` exactly like
        :class:`FaultInjector` streams are).
    crash_point:
        Global index of the stage at which the host dies.  Stages are
        counted in execution order across the run, :data:`CRASH_STAGES`
        per checkpoint barrier; an index past the last barrier never fires
        and the run completes normally.
    keep_rate:
        Probability that an individual unsynced write survives a
        ``"lost"`` crash (write-behind caches flush opportunistically, so
        an arbitrary subset may have hit the platter).
    """

    seed: int = 0
    crash_point: int = 0
    keep_rate: float = 0.5

    def __post_init__(self) -> None:
        if self.crash_point < 0:
            raise ValueError("CrashPlan.crash_point must be >= 0")
        if not 0.0 <= self.keep_rate <= 1.0:
            raise ValueError(
                f"CrashPlan.keep_rate must be in [0, 1], got {self.keep_rate}"
            )

    def stage_of(self, point: int) -> str:
        """The :data:`CRASH_STAGES` name of global crash point ``point``."""
        return CRASH_STAGES[point % len(CRASH_STAGES)]


class CrashyStorage:
    """A ``BlockStorage`` wrapper that models what a crash does to bytes.

    The byte-level sibling of :class:`FaultyDisk`, one layer down:
    ``FaultyDisk`` fails logical track accesses, ``CrashyStorage`` rewrites
    the underlying file the way an OS crash would have left it.  It shadows
    the wrapped storage's raw ``_write_at`` to log every write since the
    last ``sync()`` together with its preimage; :meth:`apply_crash` then
    inflicts the damage of one :data:`CRASH_STAGES` stage:

    * ``"torn"`` — the most recent unsynced write lands only partially
      (its first half hits the platter, the tail keeps the preimage).
    * ``"lost"`` — each unsynced write is independently dropped with
      probability ``1 - keep_rate`` (nothing after the last fsync is
      ordered), restoring its preimage newest-first.

    Both are deterministic in ``(plan.seed, proc, disk_id)``.  Because the
    engines sync at every checkpoint barrier (which clears the log), damage
    can only ever touch bytes written *after* the last committed barrier —
    and copy-on-write pinning keeps those disjoint from every extent a
    committed checkpoint references.  That is the invariant ``scrub()``
    verifies and the conformance fuzzer's ``crash_resume`` oracle enforces.
    """

    def __init__(self, inner, plan: CrashPlan, proc: int = 0, disk_id: int = 0):
        self._inner = inner
        self.plan = plan
        mix = (plan.seed * 1_000_003 + proc) * 1_000_003 + disk_id
        self._rng = random.Random(mix)
        self._wlog: list[tuple[int, bytes, bytes]] = []  # offset, new, preimage
        self._raw_write = inner._write_at
        inner._write_at = self._logged_write  # instance-level shadow

    def _logged_write(self, offset: int, data: bytes) -> None:
        pre = self._inner._read_at(offset, len(data))
        if len(pre) < len(data):
            pre = pre + b"\x00" * (len(data) - len(pre))
        self._wlog.append((offset, bytes(data), pre))
        self._raw_write(offset, data)

    def apply_crash(self, stage: str) -> None:
        """Damage the unsynced suffix of the write stream, then drop the log.

        The damage goes through the saved raw primitive, not the logging
        shadow: it models the platter at crash time, not new writes.
        """
        if stage == "torn" and self._wlog:
            offset, data, pre = self._wlog[-1]
            cut = max(1, len(data) // 2)
            self._raw_write(offset, data[:cut] + pre[cut:])
        elif stage == "lost":
            for offset, _data, pre in reversed(self._wlog):
                if self._rng.random() >= self.plan.keep_rate:
                    self._raw_write(offset, pre)
        self._wlog.clear()

    def sync(self) -> None:
        self._inner.sync()
        self._wlog.clear()  # everything up to here is on the platter

    # -- delegation: everything else is the wrapped storage's business ---------

    @property
    def kind(self) -> str:
        return self._inner.kind

    @property
    def read_bytes(self) -> int:
        return self._inner.read_bytes

    @read_bytes.setter
    def read_bytes(self, value: int) -> None:
        self._inner.read_bytes = value

    @property
    def write_bytes(self) -> int:
        return self._inner.write_bytes

    @write_bytes.setter
    def write_bytes(self, value: int) -> None:
        self._inner.write_bytes = value

    def __getattr__(self, name):
        return getattr(object.__getattribute__(self, "_inner"), name)
