"""Unit tests for the fast-path substrate in the emio layer.

Covers the O(1) disk occupancy counter, the arithmetic I/O charging of
``charge_batched`` (it must reproduce the physical batched primitives'
counters exactly), the single-copy ``pack_records``, the memoized
``Block.validate``, and the gating of the fast data plane: who selects it
(the knob, else the storage plane) and what forces the physical path.
"""

import random

import pytest

from repro.core.simulator import build_params, make_engine
from repro.emio.disk import Block, Disk, DiskError
from repro.emio.diskarray import DiskArray
from repro.emio.faults import FaultPlan, RetryPolicy
from repro.emio.layout import pack_records, unpack_records
from repro.emio.storage import StorageSpec
from repro.emio.trace import IOTrace
from repro.params import MachineParams

from .helpers import RingShift


def blk(i, B=8):
    return Block(records=[i] * B)


class TestOccupancyCounter:
    def test_counter_matches_scan(self):
        disk = Disk(0, B=8)
        rng = random.Random(7)
        for _ in range(500):
            t = rng.randrange(40)
            action = rng.random()
            if action < 0.5:
                disk.write_track(t, blk(t))
            elif action < 0.8:
                disk.write_track(t, None)
            else:
                disk.discard_track(t)
            assert disk.used_tracks == sum(1 for _ in disk.occupied())

    def test_overwrite_does_not_double_count(self):
        disk = Disk(0, B=8)
        disk.write_track(3, blk(1))
        disk.write_track(3, blk(2))
        assert disk.used_tracks == 1
        disk.write_track(3, None)
        assert disk.used_tracks == 0
        disk.write_track(3, None)
        assert disk.used_tracks == 0

    def test_discard_missing_track_is_noop(self):
        disk = Disk(0, B=8)
        disk.discard_track(9)
        assert disk.used_tracks == 0


class TestChargeBatched:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_write_charge_matches_physical(self, seed):
        """charge_batched must leave the array's counters exactly where the
        physical write_batched leaves them."""
        rng = random.Random(seed)
        D = 4
        ops = [
            (rng.randrange(D), rng.randrange(30), blk(i)) for i in range(rng.randrange(1, 60))
        ]
        physical = DiskArray(D, 8, fast_io=False)
        rounds_physical = physical.write_batched(list(ops))
        charged = DiskArray(D, 8, fast_io=True)
        rounds_charged = charged.charge_batched("W", [(d, t) for d, t, _b in ops])
        assert rounds_charged == rounds_physical
        assert charged.parallel_ops == physical.parallel_ops
        for dp, dc in zip(physical.disks, charged.disks):
            assert dc.writes == dp.writes
            assert dc.high_water == dp.high_water

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_read_charge_matches_physical(self, seed):
        rng = random.Random(100 + seed)
        D = 4
        addrs = [
            (rng.randrange(D), rng.randrange(30)) for _ in range(rng.randrange(1, 60))
        ]
        physical = DiskArray(D, 8, fast_io=False)
        physical.read_batched(list(addrs))
        charged = DiskArray(D, 8, fast_io=True)
        charged.charge_batched("R", addrs)
        assert charged.parallel_ops == physical.parallel_ops
        for dp, dc in zip(physical.disks, charged.disks):
            assert dc.reads == dp.reads

    def test_shadow_track_in_a_batch_hides_no_ordinary_track(self):
        """One rule, once: a batch that mixes a shadow track with ordinary
        ones charges the marks ``write_batched`` leaves — the mark of a
        drive is its highest *ordinary* track, not nothing because the
        batch's highest is a shadow."""
        from repro.emio.disk import SHADOW_TRACK_BASE

        D = 4
        ops = [(0, 3, blk(0)), (0, SHADOW_TRACK_BASE + 2, blk(1)), (0, 7, blk(2)),
               (1, SHADOW_TRACK_BASE, blk(3)), (2, 5, blk(4)), (2, 1, blk(5))]
        arrays = {name: DiskArray(D, 8, fast_io=fast)
                  for name, fast in (("physical", False), ("stored", True), ("charged", True))}
        rounds = {name: arrays[name].write_batched(list(ops)) for name in ("physical", "stored")}
        rounds["charged"] = arrays["charged"].charge_batched("W", [(d, t) for d, t, _b in ops])
        assert rounds == {"physical": 3, "stored": 3, "charged": 3}
        for array in arrays.values():
            assert array.parallel_ops == 3
            assert [d.writes for d in array.disks] == [3, 1, 2, 0]
            assert array.high_water_per_disk == [7, -1, 5, -1]

    def test_empty_batch_charges_nothing(self):
        array = DiskArray(4, 8, fast_io=True)
        assert array.charge_batched("R", []) == 0
        assert array.parallel_ops == 0

    def test_requires_fast_data_plane(self):
        """Charging without moving data is refused wherever the physical path
        runs: by request, and unasked on an array that is bounded, faulty,
        traced or degraded (the heap default alone is fast)."""
        physical = [
            DiskArray(4, 8, fast_io=False),
            DiskArray(4, 8, ntracks=16),
            DiskArray(4, 8, faults=FaultPlan(seed=0, read_error_rate=0.5)),
        ]
        traced, degraded = DiskArray(4, 8), DiskArray(4, 8)
        IOTrace.attach(traced)
        degraded.mark_dead(2)
        for array in (*physical, traced, degraded):
            with pytest.raises(DiskError, match="fast data plane"):
                array.charge_batched("R", [(0, 0)])
            assert array.parallel_ops == 0
        assert DiskArray(4, 8).charge_batched("R", [(0, 0)]) == 1

    def test_rejects_bad_kind(self):
        array = DiskArray(4, 8, fast_io=True)
        with pytest.raises(DiskError, match="kind"):
            array.charge_batched("X", [(0, 0)])


#: The truth table's axes.  ``None`` is every signature's default.
KNOBS = (None, True, False)
KINDS = ("memory", "file", "mmap")
D_, B_, M_ = 4, 8, 1 << 10


def _wanted(knob, kind):
    """The rule: an explicit knob is honoured, ``None`` is fast on the heap."""
    return kind == "memory" if knob is None else knob


def _refuses_charge(array) -> bool:
    try:
        array.charge_batched("R", [])
    except DiskError:
        return True
    return False


class TestFastPlaneGating:
    """Who selects the plane: ``fast_io`` when given, else the storage plane
    (:meth:`StorageSpec.fast_plane`); and what overrides the selection."""

    def test_plain_array_is_not_fast(self, tmp_path):
        """... exactly when its tracks are not on the heap: an array built
        with no knob asks its storage plane."""
        assert StorageSpec().fast_plane(None) is True
        assert DiskArray(4, 8).fast_data_plane is True
        for kind in ("file", "mmap"):
            spec = StorageSpec.create(kind, tmp_path / kind)
            assert spec.fast_plane(None) is False
            assert spec.fast_plane(True) is True
            array = DiskArray(4, 8, storage=spec)
            try:
                assert array.fast_data_plane is False
            finally:
                array.close_storage()

    def test_fast_io_enables(self):
        assert DiskArray(4, 8, fast_io=True).fast_data_plane is True

    def test_trace_disables(self):
        array = DiskArray(4, 8, fast_io=True)
        IOTrace.attach(array)
        assert array.fast_data_plane is False

    def test_faults_disable(self):
        plan = FaultPlan(seed=0, read_error_rate=0.5)
        array = DiskArray(4, 8, faults=plan, fast_io=True)
        assert array.fast_data_plane is False

    def test_bounded_capacity_disables(self):
        array = DiskArray(4, 8, ntracks=16, fast_io=True)
        assert array.fast_data_plane is False

    def test_dead_disk_disables(self):
        array = DiskArray(4, 8, fast_io=True)
        array.dead_disks.add(2)
        assert array.fast_data_plane is False

    @pytest.mark.parametrize(
        "condition", ["healthy", "faults", "ntracks", "traced", "dead"]
    )
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("knob", KNOBS, ids=["default", "on", "off"])
    def test_array_truth_table(self, knob, kind, condition, tmp_path):
        kwargs = {} if knob is None else {"fast_io": knob}
        if condition == "faults":
            kwargs["faults"] = FaultPlan(seed=0, read_error_rate=0.5)
        if condition == "ntracks":
            kwargs["ntracks"] = 16
        spec = StorageSpec.create(kind, tmp_path)  # the heap plane takes no root
        array = DiskArray(D_, B_, storage=spec, M=M_, **kwargs)
        try:
            if condition == "traced":
                IOTrace.attach(array)
            if condition == "dead":
                array.mark_dead(2)
            fast = _wanted(knob, kind) and condition == "healthy"
            assert array.fast_data_plane is fast
            assert array.rounds_in_flight == (M_ // (4 * D_ * B_) if fast else 1)
            assert _refuses_charge(array) is not fast
        finally:
            array.close_storage()

    @pytest.mark.parametrize("condition", ["healthy", "faults", "traced", "dead"])
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("knob", KNOBS, ids=["default", "on", "off"])
    @pytest.mark.parametrize("p", [1, 2])
    def test_simulate_truth_table(self, p, knob, kind, condition, tmp_path):
        """The same table through the front door: the engine resolves both
        knobs once, every processor's array and context store follow, and
        the run still answers right on whichever plane that is."""
        alg = RingShift(payload_size=4, rounds=2)
        machine = MachineParams(p=p, M=1 << 12, D=D_, B=B_, b=16)
        kwargs = {} if knob is None else {"fast_io": knob, "context_cache": knob}
        if condition == "faults":
            kwargs.update(
                faults=FaultPlan(seed=0, read_error_rate=0.02), retry=RetryPolicy()
            )
        sim = make_engine(
            alg, build_params(alg, machine, v=4), storage=kind,
            storage_dir=tmp_path, **kwargs,
        )
        wanted = _wanted(knob, kind)
        assert (sim.fast_io, sim.context_cache) == (wanted, wanted)
        for pr in sim.procs:
            if condition == "traced":
                IOTrace.attach(pr.array)
            if condition == "dead":
                pr.array.mark_dead(2)
            fast = wanted and condition == "healthy"
            assert pr.array.fast_data_plane is fast
            assert pr.array.rounds_in_flight == (
                machine.M // (4 * D_ * B_) if fast else 1
            )
            assert _refuses_charge(pr.array) is not fast
            # Only an injector takes the cache away: a traced or degraded
            # array keeps it and runs its swaps on the physical path.
            assert pr.contexts.cache is (wanted and condition != "faults")
        outputs, _report = sim.run()
        assert outputs == [[((i - 2) % 4) * 1000 + j for j in range(4)] for i in range(4)]

    def test_fast_primitives_count_like_reference(self):
        """The short-circuited primitives store the same blocks and count
        the same accesses as the reference plane."""
        ref = DiskArray(4, 8, fast_io=False)
        fast = DiskArray(4, 8, fast_io=True)
        assert (ref.fast_data_plane, fast.fast_data_plane) == (False, True)
        ops = [(d, 0, blk(d)) for d in range(4)]
        for arr in (ref, fast):
            arr.parallel_write(list(ops))
            arr.parallel_read([(d, 0) for d in range(4)])
        assert fast.parallel_ops == ref.parallel_ops == 2
        for dr, df in zip(ref.disks, fast.disks):
            assert (df.reads, df.writes, df.used_tracks) == (
                dr.reads,
                dr.writes,
                dr.used_tracks,
            )
            assert df.peek(0).records == dr.peek(0).records


class TestPackRecords:
    def test_roundtrip_from_list(self):
        records = list(range(23))
        blocks = pack_records(records, B=8, dest=5)
        assert [b.seq for b in blocks] == [0, 1, 2]
        assert all(b.dest == 5 for b in blocks)
        assert unpack_records(blocks) == records

    def test_accepts_non_list_sequences(self):
        records = tuple(range(17))
        blocks = pack_records(records, B=8)
        assert unpack_records(blocks) == list(records)
        assert all(isinstance(b.records, list) for b in blocks)

    def test_accepts_generators(self):
        blocks = pack_records((i * i for i in range(10)), B=4)
        assert unpack_records(blocks) == [i * i for i in range(10)]

    def test_blocks_are_fresh_lists(self):
        records = list(range(8))
        [block] = pack_records(records, B=8)
        block.records[0] = -1
        assert records[0] == 0


class TestValidateMemo:
    def test_revalidates_for_different_bound(self):
        block = Block(records=list(range(5)))
        block.validate(8)
        with pytest.raises(DiskError, match="exceeds block size"):
            block.validate(4)

    def test_memo_hits_same_bound(self):
        block = Block(records=list(range(5)))
        block.validate(8)
        assert block._vB == 8
        block.validate(8)
        assert block._vB == 8

    def test_oversized_block_rejected_and_not_memoized(self):
        block = Block(records=list(range(9)))
        with pytest.raises(DiskError):
            block.validate(8)
        assert getattr(block, "_vB", None) is None
