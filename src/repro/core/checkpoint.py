"""Superstep-granular checkpointing for the simulation engines.

The compound-superstep barrier is the natural recovery point of the
simulation: between two compound supersteps the *entire* live state of the
virtual machine is (a) the virtual-processor contexts in their standard
consecutive region — all but the one group a processor holds in memory
across the barrier, which the checkpoint reads from memory and every restore
holds again — (b) the incoming-message region produced by Algorithm 2,
(c) the engine's RNG state, and (d) the cost ledger.  Nothing else persists
across the barrier — the bucket stores are freed by the reorganization step.
A checkpoint is therefore a faithful snapshot of exactly those four things,
taken right after Step 2 completes, and restoring it re-enters the run at
the barrier as if the following superstep had never started.

Checkpoints live on the host side (outside the simulated disk array), the
way a production system would write them to a separate durable service.
*Reading* the state off the simulated disks is charged as real parallel I/O
(reported as ``checkpoint_io_ops``); the write to the checkpoint medium is
outside the machine model and free.

:class:`SuperstepCheckpoint` is engine-agnostic: the sequential engine uses
one entry per list, the parallel engine one entry per real processor.

On non-memory storage planes the engines additionally *publish* every
checkpoint through a :class:`CheckpointJournal` living inside the storage
root.  Publication is atomic (write temp file, fsync, rename, fsync the
directory — DESIGN §9), so a resumed run can never attach to a
half-committed barrier; :func:`scrub` walks the journalled generations
newest-first, raw-verifies every slot extent they pin, quarantines the
ones a crash damaged, and hands back the newest trustworthy checkpoint.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "SuperstepCheckpoint",
    "SimulationAborted",
    "CheckpointJournal",
    "ScrubResult",
    "scrub",
    "freeze",
    "thaw",
]


def freeze(obj: Any) -> bytes:
    """Pickle ``obj`` for checkpoint storage (deep-copies by construction)."""
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def thaw(blob: bytes) -> Any:
    """Inverse of :func:`freeze`."""
    return pickle.loads(blob)


@dataclass
class SuperstepCheckpoint:
    """Snapshot of one engine's state at a compound-superstep barrier.

    Attributes
    ----------
    step:
        Index of the next superstep to execute after restoring.
    rng_state:
        ``random.Random.getstate()`` of the engine's RNG, so restored runs
        redraw exactly the permutations and deal offsets they would have.
    proc_states:
        Per real processor: pickled list of that processor's context states
        (local slot order).
    proc_incoming:
        Per real processor: pickled ``(slot_sizes, blocks_per_slot)`` of the
        incoming-message region, or ``None`` before the first superstep.
    report_blob:
        Pickled ``(SimulationReport, CostLedger)`` pair as of the barrier,
        so a resumed run keeps the completed supersteps' accounting.
    dead_disks:
        Per real processor: disk ids already dead at the barrier (purely
        diagnostic; restoring onto a degraded array works regardless).
    storage_refs:
        Per real processor: a storage-plane reference dict (track-file
        snapshots + allocator/region metadata), present only on non-memory
        planes.  It lets ``resume_from_checkpoint`` on an engine pointed at
        the *same* ``storage_dir`` re-attach the on-disk track files
        directly instead of rehydrating the whole array from the pickled
        state blobs (which remain present as the portable fallback).
    """

    step: int
    rng_state: Any
    proc_states: list[bytes]
    proc_incoming: list[bytes | None]
    report_blob: bytes
    dead_disks: list[set[int]] = field(default_factory=list)
    storage_refs: list[dict | None] | None = None

    @property
    def nprocs(self) -> int:
        return len(self.proc_states)

    def size_bytes(self) -> int:
        """Approximate checkpoint footprint (for reporting/benchmarks)."""
        return (
            sum(len(b) for b in self.proc_states)
            + sum(len(b) for b in self.proc_incoming if b is not None)
            + len(self.report_blob)
        )


#: Subdirectory of a storage root holding the journalled checkpoints.
JOURNAL_DIR = "checkpoints"

_JPREFIX = struct.Struct("<IIQ")  # magic, generation, blob length
_JCRC = struct.Struct("<I")
_JMAGIC = 0x454D434B  # "EMCK"


class CheckpointJournal:
    """Atomic, generation-numbered checkpoint publication on a storage root.

    Commit protocol (the write/fsync/rename ordering invariant, DESIGN §9):

    1. pickle the checkpoint and frame it — magic, generation, length,
       CRC32 over header + blob;
    2. write the frame to ``ckpt-<gen>.tmp``, flush, fsync the temp file;
    3. ``os.replace`` it to ``ckpt-<gen>.ckpt`` — *the commit point*;
    4. fsync the journal directory so the rename itself is durable.

    A reader can therefore never observe a half-committed generation:
    either the rename happened or the temp file is ignored.  ``keep``
    generations are retained (matching the storage plane's two-snapshot
    pin window) so :func:`scrub` can fall back one barrier when the newest
    generation fails verification.
    """

    def __init__(self, root: str | os.PathLike, keep: int = 2):
        self.root = os.fspath(root)
        self.dir = os.path.join(self.root, JOURNAL_DIR)
        os.makedirs(self.dir, exist_ok=True)
        self.keep = int(keep)

    def _path(self, gen: int) -> str:
        return os.path.join(self.dir, f"ckpt-{gen:08d}.ckpt")

    def generations(self) -> list[int]:
        """Committed generation numbers, oldest first."""
        gens = []
        for name in os.listdir(self.dir):
            if name.startswith("ckpt-") and name.endswith(".ckpt"):
                try:
                    gens.append(int(name[5:-5]))
                except ValueError:
                    continue
        return sorted(gens)

    def commit(
        self,
        ckpt: SuperstepCheckpoint,
        on_stage: Callable[[str], None] | None = None,
    ) -> int:
        """Atomically publish ``ckpt`` as the next generation.

        ``on_stage`` (the crash explorer's hook) is called with
        ``"staged"`` after the fsynced temp write and ``"committed"``
        right after the rename + directory fsync.
        """
        from ..emio.storage import _fsync_dir

        stage = on_stage if on_stage is not None else (lambda _s: None)
        gens = self.generations()
        gen = (gens[-1] + 1) if gens else 1
        blob = freeze(ckpt)
        prefix = _JPREFIX.pack(_JMAGIC, gen, len(blob))
        crc = zlib.crc32(blob, zlib.crc32(prefix))
        tmp = os.path.join(self.dir, f"ckpt-{gen:08d}.tmp")
        with open(tmp, "wb") as fh:
            fh.write(prefix + _JCRC.pack(crc) + blob)
            fh.flush()
            os.fsync(fh.fileno())
        stage("staged")
        os.replace(tmp, self._path(gen))
        _fsync_dir(self.dir)
        stage("committed")
        for old in gens[: max(0, len(gens) + 1 - self.keep)]:
            try:
                os.unlink(self._path(old))
            except OSError:  # pragma: no cover - concurrent cleanup
                pass
        return gen

    def load(self, gen: int) -> SuperstepCheckpoint:
        """Read and validate one committed generation."""
        from ..emio.faults import ChecksumError

        path = self._path(gen)
        with open(path, "rb") as fh:
            raw = fh.read()
        if len(raw) >= _JPREFIX.size + _JCRC.size:
            magic, stored_gen, length = _JPREFIX.unpack_from(raw)
            (stored_crc,) = _JCRC.unpack_from(raw, _JPREFIX.size)
            blob = raw[_JPREFIX.size + _JCRC.size :]
            crc = zlib.crc32(blob, zlib.crc32(raw[: _JPREFIX.size]))
            if (
                magic == _JMAGIC
                and stored_gen == gen
                and len(blob) == length
                and crc == stored_crc
            ):
                return thaw(blob)
        raise ChecksumError(
            f"checkpoint journal {path}: corrupt frame for generation {gen}"
        )

    def load_latest(self) -> tuple[int, SuperstepCheckpoint] | None:
        """``(generation, checkpoint)`` of the newest valid generation."""
        for gen in reversed(self.generations()):
            try:
                return gen, self.load(gen)
            except Exception:
                continue
        return None

    def quarantine(self, gen: int) -> str:
        """Move a failed generation aside (kept as evidence, not deleted)."""
        from ..emio.storage import _fsync_dir

        path = self._path(gen)
        quarantined = path + ".quarantined"
        os.replace(path, quarantined)
        _fsync_dir(self.dir)
        return quarantined


@dataclass
class ScrubResult:
    """Outcome of one :func:`scrub` pass over a storage root.

    ``generation``/``checkpoint`` identify the newest journalled barrier
    that verified end-to-end (``None`` if none did — resume must restart
    from scratch).  ``quarantined`` lists the generations moved aside.
    """

    root: str
    generation: int | None = None
    checkpoint: SuperstepCheckpoint | None = None
    extents_verified: int = 0
    quarantined: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def scrub(root: str | os.PathLike, observer: Any = None) -> ScrubResult:
    """Verify the journalled checkpoint generations of a storage root.

    Walks the generations newest-first.  For each, the journal frame is
    validated (CRC32), then every slot extent the checkpoint's storage
    refs pin is raw-verified via
    :func:`~repro.emio.storage.verify_extents` — no unpickling, no engine.
    The first generation that verifies end-to-end wins; failing ones are
    quarantined (renamed aside, never deleted) and the scan falls back one
    barrier.

    ``scrub()`` repairs nothing *inside* track files: a CRC-failing extent
    means the referencing generation is abandoned, not patched — under the
    commit protocol an honest engine cannot produce one (damage is confined
    to post-barrier writes, which no committed generation references), so a
    quarantine here is evidence of real corruption or a protocol bug.
    """
    from ..emio.storage import verify_extents

    journal = CheckpointJournal(root)
    result = ScrubResult(root=os.fspath(root))
    for gen in reversed(journal.generations()):
        checked = 0
        try:
            ckpt = journal.load(gen)
            for ref in ckpt.storage_refs or []:
                if ref is None:
                    continue
                for disk_id, snap in enumerate(ref["disks"]):
                    if snap is None:
                        continue
                    path = os.path.join(ref["root"], f"disk{disk_id}.dat")
                    checked += verify_extents(path, snap)
        except Exception as exc:
            result.errors.append(f"generation {gen}: {exc}")
            result.quarantined.append(gen)
            try:
                journal.quarantine(gen)
            except OSError:  # pragma: no cover - already renamed/removed
                pass
            continue
        result.generation = gen
        result.checkpoint = ckpt
        result.extents_verified = checked
        break
    if observer is not None and getattr(observer, "enabled", False):
        observer.metrics.counter("scrub/extents_verified").inc(
            result.extents_verified
        )
        observer.metrics.counter("scrub/generations_quarantined").inc(
            len(result.quarantined)
        )
    return result


class SimulationAborted(RuntimeError):
    """The run hit an unrecoverable fault (or its recovery budget).

    Carries the last good :class:`SuperstepCheckpoint` (if any), so the
    caller can hand it to ``resume_from_checkpoint()`` on a fresh engine —
    the "mid-run kill" path.
    """

    def __init__(self, message: str, last: SuperstepCheckpoint | None = None):
        super().__init__(message)
        self.checkpoint = last
