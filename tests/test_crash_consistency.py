"""Crash-consistency tests: framing, torn/lost injection, journal, scrub.

The storage plane claims (DESIGN §9) that a host crash at *any* byte
boundary leaves a run recoverable: slot frames make torn and lost writes
detectable, the checkpoint journal's write/fsync/rename protocol makes
publication atomic, and ``scrub()`` plus a fresh engine recovers to the
exact golden outputs and counted costs.  These tests pin each mechanism in
isolation and then let :func:`repro.crashcheck.explore` sweep every crash
point of a small run end to end — including the planted-bug demonstration
that an engine which *forgets to fsync* before committing is caught by the
``crash_resume`` oracle.
"""

import os
import pickle
from unittest import mock

import pytest

from repro.core.checkpoint import CheckpointJournal, SuperstepCheckpoint, scrub
from repro.emio.disk import Block
from repro.emio.diskarray import DiskArray
from repro.emio.faults import (
    CRASH_STAGES,
    ChecksumError,
    CrashPlan,
    CrashyStorage,
    HostCrash,
)
from repro.emio.storage import (
    FRAME_BYTES,
    FileStorage,
    MmapStorage,
    verify_extents,
)
from repro.params import MachineParams, ParameterError

from .helpers import small_sort


def blk(tag, n=1):
    return Block(records=[tag] * n, dest=tag)


def make(impl, tmp_path, **kw):
    kw.setdefault("slot_bytes", 64)
    return impl(tmp_path / f"{impl.__name__}.dat", B=4, **kw)


def run_sort(tmp_path, name="run", crash=None, p=1, storage="file", **kw):
    from repro.core.simulator import simulate

    machine = MachineParams(p=p, M=1 << 14, D=2, B=16, b=16 if p == 1 else 32)
    kw.setdefault("checkpoint", True)
    return simulate(
        small_sort(), machine, 4, seed=0, storage=storage,
        storage_dir=os.path.join(tmp_path, name), crash=crash, **kw,
    )


# ---------------------------------------------------------------------------
# Slot frames


class TestSlotFrames:
    def test_single_byte_corruption_detected_or_harmless(self, tmp_path):
        """Satellite (c): flip ANY single byte of the used file region —
        every track read either still equals the original block or raises
        ``ChecksumError``; silent wrong data is impossible."""
        s = make(FileStorage, tmp_path)
        originals = {}
        for t, n in enumerate((1, 3, 9, 40)):  # 1..4-slot runs
            originals[t] = blk(t, n=n)
            s.put(t, originals[t])
        s.sync()
        used = s._next_slot * s.slot_bytes
        detections = 0
        with open(s.path, "r+b") as fh:
            for off in range(used):
                fh.seek(off)
                orig = fh.read(1)
                fh.seek(off)
                fh.write(bytes([orig[0] ^ 0xFF]))
                fh.flush()
                for t in originals:
                    try:
                        assert s.get(t) == originals[t]
                    except ChecksumError:
                        detections += 1
                fh.seek(off)
                fh.write(orig)
                fh.flush()
        s.close()
        # Almost every byte of a mapped extent is load-bearing: at minimum
        # every payload byte and every frame-header byte must be caught.
        assert detections >= used // 2

    def test_generation_mismatch_detected(self, tmp_path):
        """A stale image with a valid CRC but the wrong generation tag is
        still rejected (lost-write detection across checkpoints)."""
        s = make(FileStorage, tmp_path)
        s.put(1, blk(1))
        snap = s.snapshot()  # gen 0 recorded, bumps the counter
        s.put(1, blk(2))  # gen 1 image in a fresh extent
        s.sync()
        doctored = dict(snap)
        base_new = s._map[1][0]
        doctored["map"] = {1: (base_new, s._map[1][1], s._map[1][2], 0)}
        with pytest.raises(ChecksumError, match="gen"):
            verify_extents(s.path, doctored)
        s.close()

    def test_short_file_detected(self, tmp_path):
        s = make(FileStorage, tmp_path)
        s.put(1, blk(1, n=40))
        snap = s.snapshot()
        s.sync()
        path = s.path
        s.close()
        with open(path, "r+b") as fh:
            fh.truncate(FRAME_BYTES + 4)
        with pytest.raises(ChecksumError, match="short read"):
            verify_extents(path, snap)

    def test_verify_extents_counts_tracks(self, tmp_path):
        s = make(FileStorage, tmp_path)
        for t in range(5):
            s.put(t, blk(t))
        snap = s.snapshot()
        s.sync()
        assert verify_extents(s.path, snap) == 5
        s.close()


# ---------------------------------------------------------------------------
# CrashyStorage


class TestCrashyStorage:
    def test_torn_write_half_applies_last_write(self, tmp_path):
        s = make(FileStorage, tmp_path)
        c = CrashyStorage(s, CrashPlan(seed=1))
        c.put(1, blk(1))
        c.sync()  # committed: safe from damage
        c.put(2, blk(2, n=9))
        c.apply_crash("torn")
        assert c.get(1) == blk(1)
        with pytest.raises(ChecksumError):
            c.get(2)
        c.close()

    def test_lost_write_to_fresh_extent_detected(self, tmp_path):
        s = make(FileStorage, tmp_path)
        c = CrashyStorage(s, CrashPlan(seed=1, keep_rate=0.0))
        c.put(1, blk(1))
        c.sync()
        c.put(2, blk(2))  # fresh extent: preimage is unwritten zeros
        c.apply_crash("lost")  # keep_rate=0: every unsynced write dropped
        assert c.get(1) == blk(1)
        with pytest.raises(ChecksumError):
            c.get(2)
        c.close()

    def test_lost_in_place_overwrite_restores_old_image(self, tmp_path):
        """Within one generation a same-size overwrite lands in place, so
        losing it restores the *old valid frame* — readable, stale, and by
        design unreachable from a resume (snapshots pin extents and bump
        the generation before anything is committed)."""
        s = make(FileStorage, tmp_path)
        c = CrashyStorage(s, CrashPlan(seed=1, keep_rate=0.0))
        c.put(1, blk(1))
        c.sync()
        c.put(1, blk(7))
        c.apply_crash("lost")
        assert c.get(1) == blk(1)  # pre-crash image, not garbage
        c.close()

    def test_lost_write_after_snapshot_detected_by_generation(self, tmp_path):
        """Across a snapshot the overwrite goes copy-on-write to a fresh
        extent stamped with the next generation: losing it leaves zeros
        (or a stale-generation image) that verify_extents rejects."""
        s = make(FileStorage, tmp_path)
        c = CrashyStorage(s, CrashPlan(seed=1, keep_rate=0.0))
        c.put(1, blk(1))
        c.sync()
        s.snapshot()
        c.put(1, blk(7))  # COW extent, generation 1
        snap = s.snapshot()
        c.apply_crash("lost")
        with pytest.raises(ChecksumError):
            verify_extents(s.path, snap)
        c.close()

    def test_sync_clears_the_log(self, tmp_path):
        s = make(FileStorage, tmp_path)
        c = CrashyStorage(s, CrashPlan(seed=1, keep_rate=0.0))
        c.put(1, blk(1))
        c.sync()
        c.apply_crash("lost")  # nothing unsynced: a no-op
        c.apply_crash("torn")
        assert c.get(1) == blk(1)
        c.close()

    @pytest.mark.parametrize("stage", ("torn", "lost"))
    def test_damage_is_deterministic(self, stage, tmp_path):
        def damaged_bytes(sub):
            d = tmp_path / sub
            d.mkdir()
            s = FileStorage(d / "t.dat", B=4, slot_bytes=64)
            c = CrashyStorage(s, CrashPlan(seed=9, keep_rate=0.4), proc=1,
                              disk_id=2)
            for t in range(6):
                c.put(t, blk(t, n=3))
            c.apply_crash(stage)
            c.close()
            return (d / "t.dat").read_bytes()

        assert damaged_bytes("a") == damaged_bytes("b")

    def test_counter_reset_passthrough(self, tmp_path):
        """`Disk.reset_stats` assigns the byte counters through the wrapper."""
        s = make(FileStorage, tmp_path)
        c = CrashyStorage(s, CrashPlan())
        c.put(1, blk(1))
        assert c.write_bytes > 0
        c.read_bytes = 0
        c.write_bytes = 0
        assert s.write_bytes == 0
        c.close()

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="crash_point"):
            CrashPlan(crash_point=-1)
        with pytest.raises(ValueError, match="keep_rate"):
            CrashPlan(keep_rate=1.5)
        assert CrashPlan().stage_of(7) == CRASH_STAGES[2]


# ---------------------------------------------------------------------------
# Checkpoint journal


def ckpt(step=0):
    return SuperstepCheckpoint(
        step=step, rng_state=None, proc_states=[b"x"], proc_incoming=[None],
        report_blob=pickle.dumps(("r", step)),
    )


class TestCheckpointJournal:
    def test_commit_load_roundtrip(self, tmp_path):
        j = CheckpointJournal(tmp_path)
        gen = j.commit(ckpt(3))
        assert gen == 1
        assert j.load(1).step == 3
        assert j.load_latest()[0] == 1

    def test_prunes_to_keep_window(self, tmp_path):
        j = CheckpointJournal(tmp_path, keep=2)
        for step in range(5):
            j.commit(ckpt(step))
        assert j.generations() == [4, 5]

    def test_stage_hook_order(self, tmp_path):
        stages = []
        CheckpointJournal(tmp_path).commit(ckpt(), on_stage=stages.append)
        assert stages == ["staged", "committed"]

    def test_corrupt_newest_falls_back(self, tmp_path):
        j = CheckpointJournal(tmp_path)
        j.commit(ckpt(1))
        j.commit(ckpt(2))
        newest = os.path.join(j.dir, "ckpt-00000002.ckpt")
        with open(newest, "r+b") as fh:
            fh.seek(10)
            fh.write(b"\xff")
        with pytest.raises(ChecksumError, match="corrupt frame"):
            j.load(2)
        assert j.load_latest()[1].step == 1

    def test_uncommitted_temp_file_is_invisible(self, tmp_path):
        j = CheckpointJournal(tmp_path)
        j.commit(ckpt(1))
        # A crash between fsync and rename leaves only a .tmp behind.
        with open(os.path.join(j.dir, "ckpt-00000002.tmp"), "wb") as fh:
            fh.write(b"half-committed garbage")
        assert j.generations() == [1]
        assert j.load_latest()[0] == 1

    def test_quarantine_moves_aside(self, tmp_path):
        j = CheckpointJournal(tmp_path)
        j.commit(ckpt(1))
        moved = j.quarantine(1)
        assert moved.endswith(".quarantined") and os.path.exists(moved)
        assert j.generations() == []


# ---------------------------------------------------------------------------
# Scrub


class TestScrub:
    def test_honest_run_scrubs_clean(self, tmp_path):
        _out, rep = run_sort(tmp_path)
        res = scrub(os.path.join(tmp_path, "run"))
        assert res.quarantined == []
        assert res.generation is not None
        assert res.checkpoint.step == rep.faults.checkpoints_taken - 1
        assert res.extents_verified > 0

    def test_corrupt_journal_falls_back_one_generation(self, tmp_path):
        run_sort(tmp_path)
        root = os.path.join(tmp_path, "run")
        j = CheckpointJournal(root)
        gens = j.generations()
        assert len(gens) == 2  # keep-window of the barrier pin depth
        with open(j._path(gens[-1]), "r+b") as fh:
            fh.seek(6)
            fh.write(b"\xff\xff")
        res = scrub(root)
        assert res.quarantined == [gens[-1]]
        assert res.generation == gens[-2]
        assert res.errors and "corrupt frame" in res.errors[0]

    def test_damaged_track_extent_quarantines_generation(self, tmp_path):
        run_sort(tmp_path)
        root = os.path.join(tmp_path, "run")
        j = CheckpointJournal(root)
        newest = j.generations()[-1]
        ref = j.load(newest).storage_refs[0]
        snap = next(s for s in ref["disks"] if s and s["map"])
        base = next(iter(snap["map"].values()))[0]
        disk_id = ref["disks"].index(snap)
        with open(os.path.join(ref["root"], f"disk{disk_id}.dat"), "r+b") as fh:
            fh.seek(base * snap["slot_bytes"] + FRAME_BYTES)
            fh.write(b"\xff")
        res = scrub(root)
        assert newest in res.quarantined
        assert res.generation == newest - 1

    def test_scrub_reports_metrics(self, tmp_path):
        from repro.obs import Collector

        run_sort(tmp_path)
        obs = Collector()
        scrub(os.path.join(tmp_path, "run"), observer=obs)
        snap = obs.metrics.snapshot()
        assert snap["scrub/extents_verified"]["value"] > 0
        assert snap["scrub/generations_quarantined"]["value"] == 0

    def test_empty_root_scrubs_to_nothing(self, tmp_path):
        res = scrub(tmp_path)
        assert res.generation is None and res.checkpoint is None


# ---------------------------------------------------------------------------
# Mmap flush hardening (satellite b)


class TestMmapDurability:
    def test_cross_impl_reattach_after_sync(self, tmp_path):
        """After ``sync()`` the bytes must be durable in the *file*, not
        just the mapping: a plain pread-based reader sees every frame."""
        s = make(MmapStorage, tmp_path)
        for t in range(4):
            s.put(t, blk(t, n=2))
        snap = s.snapshot()
        s.sync()
        assert verify_extents(s.path, snap) == 4
        r = FileStorage(s.path, B=4, slot_bytes=64)
        r.restore(snap)
        for t in range(4):
            assert r.get(t) == blk(t, n=2)
        r.close()
        s.close()

    def test_remap_growth_flushes_old_window(self, tmp_path):
        s = make(MmapStorage, tmp_path)
        s.put(1, blk(1))
        for t in range(2, 40):  # force several _grow/_remap cycles
            s.put(t, blk(t, n=8))
        snap = s.snapshot()
        s.sync()
        assert verify_extents(s.path, snap) == 39
        s.close()

    def test_close_flushes_dirty_map(self, tmp_path):
        s = make(MmapStorage, tmp_path)
        s.put(1, blk(1, n=5))
        snap = s.snapshot()
        s.close()  # no explicit sync: close itself must flush
        assert verify_extents(s.path, snap) == 1


# ---------------------------------------------------------------------------
# Engine wiring


class TestEngineCrashWiring:
    def test_crash_requires_checkpoint_and_durable_plane(self, tmp_path):
        with pytest.raises(ParameterError, match="checkpoint=True"):
            run_sort(tmp_path, crash=CrashPlan(), checkpoint=False)
        with pytest.raises(ParameterError, match="non-memory"):
            run_sort(tmp_path, crash=CrashPlan(), storage="memory")

    def test_crash_point_fires_as_host_crash(self, tmp_path):
        with pytest.raises(HostCrash, match="point 2 .*postsync"):
            run_sort(tmp_path, crash=CrashPlan(crash_point=2))

    def test_crash_point_past_the_run_never_fires(self, tmp_path):
        golden_out, golden_rep = run_sort(tmp_path, name="golden")
        out, rep = run_sort(tmp_path, crash=CrashPlan(crash_point=10_000))
        assert out == golden_out
        assert rep.ledger.summary() == golden_rep.ledger.summary()

    def test_checkpoint_commit_counter(self, tmp_path):
        from repro.obs import Collector

        obs = Collector()
        _out, rep = run_sort(tmp_path, observer=obs)
        commits = obs.metrics.snapshot()["checkpoint/commits"]["value"]
        assert commits == rep.faults.checkpoints_taken


# ---------------------------------------------------------------------------
# The explorer, exhaustively, plus the planted-bug demonstration


class TestCrashExplorer:
    def test_sequential_sweep_recovers_every_point(self, tmp_path):
        from repro.crashcheck import explore

        machine = MachineParams(p=1, M=1 << 14, D=2, B=16, b=16)
        res = explore(small_sort, machine, 4, tmp_path, log=None)
        assert res.total_points == len(CRASH_STAGES) * res.checkpoints
        assert len(res.outcomes) == res.total_points
        assert res.passed, [str(o) for o in res.failures]
        actions = {o.action for o in res.outcomes}
        assert "restart" in actions  # pre-first-commit points
        assert any(a.startswith("resume@") for a in actions)

    def test_parallel_inline_sweep_recovers_every_point(self, tmp_path):
        from repro.crashcheck import explore

        machine = MachineParams(p=2, M=1 << 14, D=2, B=16, b=32)
        res = explore(small_sort, machine, 4, tmp_path)
        assert res.passed, [str(o) for o in res.failures]
        assert res.total_points > 0

    def test_protocol_verdicts_are_pinned(self, tmp_path):
        """Both callers of ``crash_and_recover`` — the sweep and the fuzzer's
        ``crash_resume`` oracle — give the verdicts recorded at the parent of
        PR 22, when each still carried its own copy of the protocol."""
        from repro.conform.runner import run_case
        from repro.conform.strategies import repair
        from repro.crashcheck import explore

        machine = MachineParams(p=1, M=1 << 14, D=2, B=16, b=16)
        res = explore(small_sort, machine, 4, tmp_path)
        # Four barriers; only the last stage ("committed") of a barrier leaves
        # its generation behind, so each resume step starts one point late.
        actions = ["restart"] * 4 + ["resume@0"] * 5 + ["resume@1"] * 5 \
            + ["resume@2"] * 5 + ["resume@3"]
        assert [(o.stage, o.action, o.ok) for o in res.outcomes] == [
            (CRASH_STAGES[i % len(CRASH_STAGES)], action, True)
            for i, action in enumerate(actions)
        ]
        # 184 extents while every barrier wrote the one group of contexts
        # back; 56 once it stayed in memory and only message blocks were on
        # disk; 14 since those are packed into full blocks per group; 19
        # since the splitters are (key, position) pairs.
        assert (res.checkpoints, res.extents_verified) == (4, 19)

        for point, checks in ((0, {"crash_restart": 1}), (4, {"crash_resume": 1}),
                              (6, {"crash_resume": 1}), (10_000, {"crash_survived": 1})):
            cfg = repair(dict(workload="sort", n=64, v=4, p=1, M=4096, D=2,
                              B=16, b=16, crash=True, crash_point=point,
                              crash_seed=3))
            result = run_case(cfg)
            assert result.passed and dict(result.checks) == checks, point

    def test_planted_missing_fsync_is_caught(self, tmp_path):
        """The planted bug class: an engine that no longer syncs the track
        files before committing.  The 'lost' stage then rolls back writes
        from *before* the committed barrier, and scrub must quarantine.

        The one group of contexts never reaches the disk: before barrier 3
        (points < 15) only the few sample and splitter blocks do, and this
        seed's drops miss them, so the crash is at barrier 3.  (Seed 3's
        drops missed the fewer, fuller blocks of the packed message write.)"""
        from repro.conform.runner import run_case
        from repro.conform.strategies import repair

        cfg = repair(dict(workload="sort", n=64, v=4, p=1, M=4096, D=2,
                          B=16, b=16, crash=True, crash_point=16,
                          crash_seed=1))
        with mock.patch.object(DiskArray, "sync_storage", lambda self: None):
            result = run_case(cfg)
        assert not result.passed
        assert any(f.oracle == "crash_resume" and "quarantined" in f.message
                   for f in result.failures)

    def test_conform_crash_oracle_passes_honest_code(self, tmp_path):
        from repro.conform.runner import run_case
        from repro.conform.strategies import repair

        for pt, expected in ((0, "crash_restart"), (7, "crash_resume"),
                             (9_999, "crash_survived")):
            cfg = repair(dict(workload="sort", n=64, v=4, p=1, M=4096, D=2,
                              B=16, b=16, crash=True, crash_point=pt))
            result = run_case(cfg)
            assert result.passed, [str(f) for f in result.failures]
            assert result.checks[expected] == 1

    def test_crash_repair_implications(self):
        from repro.conform.strategies import repair

        cfg = repair(dict(workload="permute", n=32, v=4, crash=True,
                          crash_point=-5, fault="kill", storage="memory"))
        assert cfg.checkpoint and cfg.storage == "file"
        assert cfg.fault == "none" and cfg.crash_point == 0
        assert "crash@" in cfg.describe()
        assert repair(cfg) == cfg
