"""Layer drills: harness spans around direct calls into one layer at a time.

Each drill calls a layer's public functions with the geometry of the
workload it runs under (``B``, ``D``, ``v``, group size ``k``, blocks per
group and per superstep, storage plane, record flavour) and checks that
what it read back equals what it wrote.  A drill that reads back something
else raises :class:`DrillError`; the harness counts that as a failure.

Rates are work / span duration; ``*_s`` seconds are medians over groups.
"""

from __future__ import annotations

import random
import shutil
import statistics
import tempfile
from typing import Any, Callable

import numpy as np

from repro.baselines import EMMergeSort, Guidesort
from repro.bsp.runner import run_reference
from repro.core import ContextStore, SequentialEMSimulation, build_params, simulate
from repro.core.checkpoint import CheckpointJournal, scrub
from repro.core.routing import simulate_routing
from repro.emio.codec import I64
from repro.emio.disk import Block
from repro.emio.diskarray import DiskArray
from repro.emio.faults import CRASH_STAGES, CrashPlan, HostCrash
from repro.emio.layout import (
    ConsecutiveRegion,
    RegionAllocator,
    pack_records,
    pickle_to_blocks,
    unpack_records,
)
from repro.emio.linked import LinkedBuckets
from repro.emio.storage import StorageSpec

import oracles
from spans import Tracer, duration
from workloads import Workload

#: The context-sized drills move at most this many groups: the sorts keep
#: 86 groups of 27 MB, and a drill needs a steady rate, not the whole input.
MAX_GROUPS = 8
COMMIT_REPS = 5


class DrillError(AssertionError):
    """A drill read back something other than what it wrote."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise DrillError(what)


class Drills:
    def __init__(
        self,
        wl: Workload,
        data: Any,
        expected: np.ndarray,
        counted: dict,
        scratch_root: str,
        tracer: Tracer,
    ):
        self.wl = wl
        self.data = data
        self.expected = expected
        self.scratch_root = scratch_root
        self.tracer = tracer
        self.machine = wl.machine_params()
        self.B, self.D, self.v = self.machine.B, self.machine.D, wl.v
        self.alg = self._algorithm()
        self.params = build_params(self.alg, self.machine, wl.v)
        self.k = self.params.k
        self.groups = [
            list(range(g * self.k, (g + 1) * self.k))
            for g in range(min(wl.v // self.k, MAX_GROUPS))
        ]
        self.supersteps = counted["supersteps"]
        self.step_blocks = max(counted["max_step_blocks"], self.D)
        ints = np.asarray(data, dtype=np.int64)
        share = wl.n // wl.v
        self.shares = [ints[i * share : (i + 1) * share] for i in range(wl.v)]
        self._ints = ints

    def _algorithm(self):
        alg = self.wl.make_algorithm(self.data)
        records = self.wl.knobs.get("records")
        if records is not None:
            alg.set_record_mode(records)
        return alg

    # -- substrate ---------------------------------------------------------------

    def _scratch(self, label: str) -> str:
        return tempfile.mkdtemp(prefix=f"drill-{label}-", dir=self.scratch_root)

    def _with_array(self, label: str, body: Callable[[DiskArray], dict]) -> dict:
        """Run ``body`` on a fresh disk array on the workload's storage plane."""
        root = self._scratch(label) if self.wl.on_file_plane else None
        spec = StorageSpec.create(self.wl.storage, root)
        array = DiskArray(
            self.D, self.B, fast_io=bool(self.wl.knobs.get("fast_io")), storage=spec
        )
        try:
            return body(array)
        finally:
            array.close_storage()
            if root is not None:
                shutil.rmtree(root, ignore_errors=True)

    def _message_blocks(self) -> list[Block]:
        """One superstep's message blocks: B-record payloads, dests round-robin."""
        B, v, n = self.B, self.v, self.wl.n
        vector = self.wl.kind == "sort"
        blocks = []
        for i in range(self.step_blocks):
            lo = (i * B) % max(n - B, 1)
            payload = self._ints[lo : lo + B]
            if not vector:  # list ranking ships mixed tuples, never ndarrays
                payload = [(int(x), i) for x in payload]
            blocks.append(Block(records=payload, dest=i % v, src=0, msg=i, seq=i // v))
        return blocks

    def _group_chunks(self, blocks: list[Block]):
        """A superstep's blocks in the shares the engine's v/k groups emit them."""
        per_group = -(-len(blocks) // max(1, self.v // self.k))
        for lo in range(0, len(blocks), per_group):
            yield lo, blocks[lo : lo + per_group]

    @staticmethod
    def _same_records(a: Any, b: Any) -> bool:
        if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
            return np.array_equal(np.asarray(a), np.asarray(b))
        return list(a) == list(b)

    # -- the drills ----------------------------------------------------------------

    def run_all(self, wall_s: float, rep: Callable[..., float | None]) -> dict:
        """Every drill that applies to the workload; ``rep`` runs one extra
        verified engine rep with knob overrides and returns its wall."""
        m: dict[str, float | None] = {}
        m.update(self.reference(wall_s))
        m.update(self.codec())
        m.update(self.layout())
        m.update(self._with_array("diskarray", self.diskarray))
        m.update(self._with_array("context", self.context))
        m.update(self._with_array("routing", self.linked_and_routing))
        m.update(self.storage())
        m.update(self.checkpoint())
        m.update(self.alternative_planes(wall_s, rep))
        m.update(self.rival_budget())
        return m

    def reference(self, wall_s: float) -> dict:
        alg = self._algorithm()
        with self.tracer.span("drill:bsp.run_reference") as sp:
            outputs, _ledger = run_reference(alg, self.v, self.machine)
        bad = oracles.check_output(self.wl.kind, outputs, self.expected)
        _require(not bad, f"run_reference: {bad}")
        return {
            "bsp.reference_s": duration(sp),
            "core.em_overhead_x": wall_s / duration(sp),
        }

    def codec(self) -> dict:
        with self.tracer.span("drill:emio.codec.to_bytes") as sp_to:
            images = [I64.to_bytes(s) for s in self.shares]
        with self.tracer.span("drill:emio.codec.from_bytes") as sp_from:
            arrays = [I64.from_bytes(img) for img in images]
        _require(
            all(np.array_equal(a, s) for a, s in zip(arrays, self.shares)),
            "codec round trip changed the records",
        )
        mib = sum(len(img) for img in images) / 2**20
        return {
            "emio.codec.to_bytes_mib_s": mib / duration(sp_to),
            "emio.codec.from_bytes_mib_s": mib / duration(sp_from),
        }

    def layout(self) -> dict:
        with self.tracer.span("drill:emio.layout.pack_records") as sp_pack:
            packed = [pack_records(s, self.B, dest=pid) for pid, s in enumerate(self.shares)]
        with self.tracer.span("drill:emio.layout.unpack_records") as sp_unpack:
            unpacked = [unpack_records(blocks) for blocks in packed]
        _require(
            all(np.array_equal(u, s) for u, s in zip(unpacked, self.shares)),
            "pack/unpack round trip changed the records",
        )
        nblocks = sum(len(blocks) for blocks in packed)
        return {
            "emio.layout.pack_blocks_s": nblocks / duration(sp_pack),
            "emio.layout.unpack_blocks_s": nblocks / duration(sp_unpack),
        }

    def _group_states(self) -> list[list[Any]]:
        return [
            [self.alg.initial_state(pid, self.v) for pid in slots] for slots in self.groups
        ]

    def diskarray(self, array: DiskArray) -> dict:
        """write_batched / read_batched of each group's context blocks."""
        region = ConsecutiveRegion(
            array, RegionAllocator(array), self.v, self.params.context_blocks_per_vp
        )
        write_s = read_s = 0.0
        write_ops = read_ops = 0
        for slots, states in zip(self.groups, self._group_states()):
            images = [pickle_to_blocks(st, self.B, self.params.bsp.mu) for st in states]
            addrs = [
                addr
                for slot, blocks in zip(slots, images)
                for addr in region.slot_addrs(slot)[: len(blocks)]
            ]
            flat = [blk for blocks in images for blk in blocks]
            with self.tracer.span("drill:emio.diskarray.write_batched") as sp:
                write_ops += array.write_batched(
                    [(d, t, blk) for (d, t), blk in zip(addrs, flat)]
                )
            write_s += duration(sp)
            before = array.parallel_ops
            with self.tracer.span("drill:emio.diskarray.read_batched") as sp:
                back = array.read_batched(addrs)
            read_s += duration(sp)
            read_ops += array.parallel_ops - before
            _require(
                [bytes(b.records) for b in back] == [bytes(b.records) for b in flat],
                "read_batched returned other blocks than write_batched stored",
            )
        return {
            "emio.diskarray.write_ops_s": write_ops / write_s,
            "emio.diskarray.read_ops_s": read_ops / read_s,
        }

    def context(self, array: DiskArray) -> dict:
        store = ContextStore(
            array, RegionAllocator(array), self.v, self.params.bsp.mu, self.B,
            cache=bool(self.wl.knobs.get("context_cache")),
        )
        saves, loads = [], []
        for slots, states in zip(self.groups, self._group_states()):
            with self.tracer.span("drill:core.context.save_group") as sp:
                store.save_group(slots, states)
            saves.append(duration(sp))
            with self.tracer.span("drill:core.context.load_group") as sp:
                back = store.load_group(slots)
            loads.append(duration(sp))
            _require(
                back == states, "load_group returned other states than save_group stored"
            )
        return {
            "core.context.save_group_s": statistics.median(saves),
            "core.context.load_group_s": statistics.median(loads),
        }

    def linked_and_routing(self, array: DiskArray) -> dict:
        """One superstep's blocks: bucket appends group by group, then Algorithm 2."""
        blocks = self._message_blocks()
        allocator = RegionAllocator(array)
        v, D = self.v, self.D
        buckets = LinkedBuckets(
            array, allocator, nbuckets=D, bucket_of=lambda dest: dest * D // v,
            rng=random.Random(0),
        )
        with self.tracer.span("drill:emio.linked.append_blocks") as sp_append:
            for _lo, chunk in self._group_chunks(blocks):
                buckets.append_blocks(chunk)
        with self.tracer.span("drill:core.routing.simulate_routing") as sp_route:
            region, stats = simulate_routing(
                array, allocator, buckets, nslots=v, slot_of=lambda dest: dest
            )
        buckets.free()
        _require(stats.total_blocks == len(blocks), "routing lost or invented blocks")
        by_key = {(b.dest, b.seq): b for b in blocks}
        for slot, got in enumerate(region.read_slots(range(v))):
            for blk in got:
                want = by_key.pop((blk.dest, blk.seq), None)
                _require(
                    want is not None
                    and blk.dest == slot
                    and self._same_records(blk.records, want.records),
                    f"slot {slot} holds a block that was not routed to it",
                )
        _require(not by_key, f"{len(by_key)} routed blocks never arrived")
        return {
            "emio.linked.append_blocks_s": len(blocks) / duration(sp_append),
            "core.routing.reorg_blocks_s": len(blocks)
            / (duration(sp_append) + duration(sp_route)),
        }

    def storage(self) -> dict:
        """One drive's storage: put a group's blocks, sync, get them back."""
        root = self._scratch("storage") if self.wl.on_file_plane else None
        store = StorageSpec.create(self.wl.storage, root).make(0, self.B)
        blocks = self._message_blocks()
        put_s = get_s = 0.0
        syncs = []
        try:
            for lo, chunk in self._group_chunks(blocks):
                items = list(enumerate(chunk, start=lo))
                with self.tracer.span("drill:emio.storage.put") as sp:
                    if hasattr(store, "put_many"):
                        store.put_many(items)
                    else:
                        for track, blk in items:
                            store.put(track, blk)
                put_s += duration(sp)
                with self.tracer.span("drill:emio.storage.sync") as sp:
                    store.sync()
                syncs.append(duration(sp))
                tracks = [track for track, _ in items]
                with self.tracer.span("drill:emio.storage.get") as sp:
                    if hasattr(store, "get_many"):
                        back = store.get_many(tracks)
                    else:
                        back = [store.get(track) for track in tracks]
                get_s += duration(sp)
                _require(
                    all(
                        got is not None and self._same_records(got.records, blk.records)
                        for got, (_, blk) in zip(back, items)
                    ),
                    "storage get returned other records than put stored",
                )
        finally:
            store.close()
            if root is not None:
                shutil.rmtree(root, ignore_errors=True)
        return {
            "emio.storage.put_blocks_s": len(blocks) / put_s,
            "emio.storage.get_blocks_s": len(blocks) / get_s,
            "emio.storage.sync_s": statistics.median(syncs),
        }

    def checkpoint(self) -> dict:
        """Crash at stage ``postsync`` of the middle barrier, scrub, resume."""
        names = ("core.checkpoint.commit_s", "core.checkpoint.scrub_s",
                 "core.checkpoint.recover_s")
        if not (self.wl.checkpointed and self.wl.on_file_plane):
            return dict.fromkeys(names)
        knobs = dict(self.wl.knobs)
        records = knobs.pop("records", None)
        # One barrier per superstep; aim at the middle one.
        barrier = len(CRASH_STAGES) * (self.supersteps // 2)
        plan = CrashPlan(seed=0, crash_point=barrier + CRASH_STAGES.index("postsync"))
        root = self._scratch("crash")
        try:
            with self.tracer.span("drill:core.checkpoint.crash_run"):
                try:
                    simulate(self._algorithm(), self.machine, v=self.v,
                             storage_dir=root, crash=plan, records=records, **knobs)
                except HostCrash:
                    pass
                else:
                    raise DrillError("the run finished without reaching its crash point")
            with self.tracer.span("drill:core.checkpoint.scrub") as sp_scrub:
                found = scrub(root)
            _require(found.checkpoint is not None and not found.quarantined,
                     f"scrub found no clean checkpoint: {found.errors}")
            engine = SequentialEMSimulation(
                self._algorithm(), self.params, storage_dir=root, max_recoveries=0, **knobs
            )
            with self.tracer.span("drill:core.checkpoint.resume") as sp_resume:
                outputs, _report = engine.resume_from_checkpoint(found.checkpoint)
            bad = oracles.check_output(self.wl.kind, outputs, self.expected)
            _require(not bad, f"resumed run: {bad}")
            commits = []
            journal = CheckpointJournal(self._scratch("journal"))
            for _ in range(COMMIT_REPS):
                with self.tracer.span("drill:core.checkpoint.commit") as sp:
                    gen = journal.commit(found.checkpoint)
                commits.append(duration(sp))
                _require(journal.load(gen) == found.checkpoint,
                         "journal returned another checkpoint than was committed")
            shutil.rmtree(journal.root, ignore_errors=True)
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return dict(zip(names, (statistics.median(commits), duration(sp_scrub),
                                duration(sp_resume))))

    def alternative_planes(self, wall_s: float, rep: Callable[..., float | None]) -> dict:
        """The tracked verdict on ``io_overlap`` and ``storage='mmap'``."""
        names = ("emio.storage.overlap_x", "emio.storage.mmap_x")
        if not self.wl.on_file_plane:
            return dict.fromkeys(names)
        overlap = rep("overlap", io_overlap=True)
        mmap = rep("mmap", storage="mmap")
        return {
            "emio.storage.overlap_x": overlap / wall_s if overlap else None,
            "emio.storage.mmap_x": mmap / wall_s if mmap else None,
        }

    def rival_budget(self) -> dict:
        names = ("baselines.emsort_pred_scans", "baselines.guidesort_pred_scans")
        if self.wl.kind != "sort":
            return dict.fromkeys(names)
        return {
            name: cls(self.machine).predicted_io_ops(self.wl.n) / self.wl.scan_ops
            for name, cls in zip(names, (EMMergeSort, Guidesort))
        }
