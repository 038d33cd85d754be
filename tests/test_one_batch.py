"""One group a processor: Step 2 keeps the bucket store as it stands.

A real processor that simulates all its virtual processors in one group —
Algorithm 1 with ``k == v``, Algorithm 3 with ``v == p*k`` — fills its
bucket store with one append, and the next superstep's one fetch reads all
of it.  ``RealProcessor.deliver`` keeps the store as the incoming messages
instead of running Algorithm 2, so ``reorganize`` is 0 and
``fetch_messages`` is the store's heaviest drive.  These tests hold that
path to the in-memory reference runner on every plane, write schedule and
backend, on a degraded array, through kill-resume and crash-resume, and pin
the bucket map Algorithm 3 uses below ``v/(pk) >= D``.
"""

import random
from types import SimpleNamespace

import pytest

from repro import workloads as wl
from repro.algorithms.graphs import CGMListRanking
from repro.bsp.runner import run_reference
from repro.conform import REFERENCE
from repro.conform.oracles import (
    canonical_record,
    check_lemma2,
    check_outputs,
    check_theorem1_io,
    record_bytes,
)
from repro.core import ParallelEMSimulation, build_params
from repro.core.checkpoint import SimulationAborted
from repro.core.processor import RealProcessor
from repro.core.routing import simulate_routing
from repro.crashcheck import crash_and_recover
from repro.emio.disk import Block
from repro.emio.diskarray import DiskArray
from repro.emio.faults import CRASH_STAGES, CrashPlan, FaultPlan, RetryPolicy
from repro.emio.layout import RegionAllocator
from repro.emio.linked import WRITE_SCHEDULES, LinkedBuckets
from repro.params import MachineParams

from .helpers import PLANES, always_route

N = 128  # above list ranking's gather threshold at v = 4: contraction rounds
#: Algorithm 1 with k == v and Algorithm 3 with v == p*k.
SHAPES = {"alg1": dict(p=1, v=4, k=4), "alg3": dict(p=2, v=4, k=2)}
FAST = dict(fast_io=True, context_cache=True)


def build(shape, **knobs):
    s = SHAPES[shape]
    alg = CGMListRanking(wl.random_linked_list(N, seed=1), s["v"])
    machine = MachineParams(p=s["p"], M=1 << 16, D=4, B=8, b=16)
    params = build_params(alg, machine, s["v"], k=s["k"])
    assert params.groups_per_processor == 1
    return ParallelEMSimulation(alg, params, **knobs)


def reference_outputs(shape):
    v = SHAPES[shape]["v"]
    return run_reference(CGMListRanking(wl.random_linked_list(N, seed=1), v), v)[0]


def assert_nothing_reorganized(report):
    assert report.supersteps
    for s in report.supersteps:
        assert s.phases.reorganize == 0
        assert all(r.io_ops == 0 for r in s.routing_stats())
    assert sum(s.phases.fetch_messages for s in report.supersteps) > 0


# -- the engines ------------------------------------------------------------------


@pytest.mark.parametrize("schedule", WRITE_SCHEDULES)
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_every_plane_reads_the_kept_store(shape, schedule):
    """Outputs equal the reference runner, canonical records are
    byte-identical across the equivalent planes, nothing is reorganized,
    and the exact Theorem 1 layer (fetch == heaviest drive) holds."""
    want = reference_outputs(shape)
    records = {}
    for name, knobs in PLANES:
        outputs, report = build(shape, write_schedule=schedule, **knobs).run()
        assert check_outputs(name, outputs, want) == []
        assert_nothing_reorganized(report)
        assert check_theorem1_io(report.params, report)[0] == [], name
        assert check_lemma2(report.params, report)[0] == [], name
        records[name] = record_bytes(canonical_record(outputs, report))
    assert len(set(records.values())) == 1, sorted(records)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_a_degraded_array_reads_the_kept_store(shape):
    """A drive dies early; cycles shrink to the live drives, the store is
    still kept, and the answer is still the reference's."""
    want = reference_outputs(shape)
    records = set()
    for storage in ("memory", "file"):
        outputs, report = build(
            shape, storage=storage, checkpoint=True, retry=RetryPolicy(max_retries=2),
            faults=FaultPlan(seed=0, dead_disk=1, dead_after=20, dead_proc=0),
        ).run()
        assert check_outputs(storage, outputs, want) == []
        assert_nothing_reorganized(report)
        assert report.faults.disks_died == 1 and report.faults.degraded_writes > 0
        records.add(record_bytes(canonical_record(outputs, report)))
    assert len(records) == 1


@pytest.mark.parametrize("backend", ["inline", "process"])
def test_kill_resume_from_a_kept_store(backend):
    """A disk death aborts the run past its first barrier; the checkpoint
    holds the kept store's blocks by slot, and a fresh engine resumes from
    it (as a region) to the reference answer."""
    dying = build(
        "alg3", checkpoint=True, max_recoveries=0, retry=RetryPolicy(max_retries=2),
        faults=FaultPlan(seed=0, dead_disk=0, dead_after=50, dead_proc=0),
    )
    with pytest.raises(SimulationAborted) as exc_info:
        dying.run()
    ckpt = exc_info.value.checkpoint
    assert ckpt is not None and ckpt.step >= 1
    assert all(blob is not None for blob in ckpt.proc_incoming)
    outputs, report = build("alg3", checkpoint=True, backend=backend).resume_from_checkpoint(ckpt)
    assert check_outputs("resumed", outputs, reference_outputs("alg3")) == []
    assert report.faults.resumed_from_step == ckpt.step
    assert_nothing_reorganized(report)


@pytest.mark.parametrize("knobs", [REFERENCE, dict(FAST)],
                         ids=["reference", "fast-vector"])
@pytest.mark.parametrize("shape,backend",
                         [("alg1", "inline"), ("alg3", "inline"), ("alg3", "process")])
def test_crash_resume_attaches_a_kept_store_at_zero_io(shape, backend, knobs, tmp_path):
    """Crash right after barrier 2 commits: its incoming messages are the
    store superstep 1 kept.  A fresh engine on the same storage_dir
    re-attaches the store by reference — no recovery I/O — and finishes
    with the golden run's outputs and counted costs."""
    def engine(**kw):
        return build(shape, storage="file", checkpoint=True, backend=backend, **knobs, **kw)

    golden_out, golden_rep = engine(storage_dir=str(tmp_path / "golden")).run()
    committed = len(CRASH_STAGES) * 2 + CRASH_STAGES.index("committed")
    run = crash_and_recover(engine, str(tmp_path / "crashed"), CrashPlan(seed=7, crash_point=committed))
    assert run.action == "resume@2" and run.failure is None, run.failure
    refs = run.scrub.checkpoint.storage_refs
    assert [ref["incoming"][0] for ref in refs] == ["store"] * SHAPES[shape]["p"]
    assert run.report.faults.recovery_io_ops == 0
    assert run.outputs == golden_out
    assert run.report.ledger.summary() == golden_rep.ledger.summary()


# -- the store's read side -----------------------------------------------------------


@pytest.mark.parametrize("fast_io", [False, True])
@pytest.mark.parametrize("schedule", WRITE_SCHEDULES)
def test_kept_store_reads_what_algorithm_2_would_lay_out(schedule, fast_io):
    """Filled by one append, the store reads every slot in ``ceil(n/D)``
    parallel ops — a region's cost — and hands back each slot's blocks in
    the order Algorithm 2's region holds them; ``adopt`` of its
    ``reference`` rebuilds the same read side."""
    D, v = 4, 8
    rng = random.Random(5)
    array = DiskArray(D, 4, fast_io=fast_io)
    alloc = RegionAllocator(array)
    store = LinkedBuckets(
        array, alloc, nbuckets=D, bucket_of=lambda d: d * D // v,
        rng=random.Random(3), schedule=schedule,
    )
    blocks = [Block(records=[i], dest=rng.randrange(v), src=i % 3, msg=i) for i in range(53)]
    store.append_blocks(blocks)
    region, _ = simulate_routing(array, alloc, store, v, lambda d: d)
    want = region.read_slots(range(v))

    assert store.retain(v, lambda d: d) is store
    assert store.slot_sizes == region.slot_sizes and store.nslots == v
    ops = array.parallel_ops
    assert store.read_slots(range(v)) == want
    assert array.parallel_ops - ops == -(-len(blocks) // D)
    assert [store.read_slot(s) for s in range(v)] == want

    kind, *layout = store.reference()
    again = LinkedBuckets.adopt(array, alloc, *layout)
    assert kind == "store" and again.read_slots(range(v)) == want
    assert again._ranges == store._ranges


# -- the referee -----------------------------------------------------------------------


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_theorem1_oracle_catches_one_op_planted_in_a_kept_store_superstep(shape):
    _outputs, report = build(shape).run()
    assert check_theorem1_io(report.params, report)[0] == []
    step = next(s for s in report.supersteps if s.phases.fetch_messages)
    step.phases.fetch_messages += 1
    fails = check_theorem1_io(report.params, report)[0]
    assert any(f.oracle == "theorem1_io" and "heaviest drive" in f.message for f in fails)
    step.phases.fetch_messages -= 1
    step.phases.reorganize += 1
    fails = check_theorem1_io(report.params, report)[0]
    assert any("kept its store" in f.message for f in fails)


# -- Algorithm 3's bucket map ------------------------------------------------------------


def _batch_map(vp, p, v, k, D):
    """The bucket map before vps were ranged: batches ranged into buckets."""
    vpp = v // p
    return ((vp % vpp) // k) * D // (vpp // k)


def test_bucket_map_is_the_papers_where_D_divides_the_batch_count():
    checked = 0
    for p in (2, 4):
        for v in (16, 32):
            for k in (1, 2, 4):
                for D in (1, 2, 4, 8):
                    vpp = v // p
                    nbatches = vpp // k
                    if nbatches % D:
                        continue
                    place = SimpleNamespace(vpp=vpp, k=k, nbatches=nbatches,
                                            params=SimpleNamespace(machine=SimpleNamespace(D=D)))
                    for vp in range(v):
                        assert RealProcessor.bucket_of_vp(place, vp) == _batch_map(vp, p, v, k, D)
                    checked += 1
    assert checked > 20


def test_bucket_map_uses_every_drive_below_one_batch_a_bucket(monkeypatch):
    """p = 2, v = 16, k = 4: two batches a processor over D = 4 drives.  Ranged
    by batch, only buckets 0 and 2 hold vps; ranged by vp, all four do.  On
    four drives Step 2 would keep every store, so Algorithm 2 is forced.

    A message block is packed per destination batch and addressed to the
    batch's first vp, so its bucket is its batch's under either map: buckets
    1 and 3 stay empty, and the two maps now run alike.  Packing moved
    reorganize 1908 -> 2034 ops (the blocks sit in half the buckets) while
    the total fell 3338 -> 3205.  Dealing each round's outbox in full
    packets of ``b`` draws one random number a round instead of one a
    packet, so the bucket stores' random write permutations differ: (2034,
    3205) -> (1994, 3145), under either map.  The honest list-ranking ``mu``
    packs the context slots closer: (1994, 3113)."""
    always_route(monkeypatch)
    place = SimpleNamespace(vpp=8, k=4, nbatches=2,
                            params=SimpleNamespace(machine=SimpleNamespace(D=4)))
    assert {RealProcessor.bucket_of_vp(place, vp) for vp in range(8)} == {0, 1, 2, 3}
    assert {_batch_map(vp, 2, 16, 4, 4) for vp in range(8)} == {0, 2}

    def run():
        alg = CGMListRanking(wl.random_linked_list(1024, seed=1), 16)
        params = build_params(alg, MachineParams(p=2, M=1 << 16, D=4, B=8, b=16), 16, k=4)
        assert params.groups_per_processor == 2
        outputs, report = ParallelEMSimulation(alg, params).run()
        return outputs, sum(s.phases.reorganize for s in report.supersteps), report.io_ops

    # (1976, 4090) and (3176, 5290) below while each superstep ran its batches
    # in one order and wrote them all back: the cyclic order holds one batch
    # across each barrier and appends the batches' blocks in a new order.
    outputs, reorganize, io_ops = run()
    assert (reorganize, io_ops) == (1994, 3113)
    monkeypatch.setattr(
        RealProcessor, "bucket_of_vp",
        lambda self, vp: _batch_map(vp, self.p, self.v, self.k, self.params.machine.D),
    )
    # (3092, 4522) under the batch map before the packing, against the vp
    # map's (1908, 3338).
    old_outputs, old_reorganize, old_io_ops = run()
    assert (old_reorganize, old_io_ops) == (1994, 3113)
    assert old_outputs == outputs
