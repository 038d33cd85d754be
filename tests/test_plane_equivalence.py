"""The equivalence harness: where the blocks live (``storage``), where the
processors run (``backend``) and whether a fast path skips moving data
(``fast_io``, ``context_cache``) change nothing the model counts (DESIGN §8).

Each case runs one plane of one workload and compares its
:func:`~repro.conform.oracles.canonical_record` with that of the reference
plane :func:`repro.conform.equivalent_planes` names; the cases cover every
pair of values of the plane axes, workloads, ``p`` and what else a run
carries (checkpoints, transient faults, an observer, a trace).
"""

from __future__ import annotations

import functools
import random
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from repro import workloads as wl
from repro.algorithms import CGMPermutation, CGMSampleSort
from repro.algorithms.graphs import CGMListRanking
from repro.bsp.program import AlgorithmError
from repro.bsp.runner import run_reference
from repro.conform import REFERENCE
from repro.conform.oracles import canonical_record, check_outputs
from repro.conform.runner import equivalent_planes
from repro.core import ParallelEMSimulation, RunConfig, build_params, simulate
from repro.core.checkpoint import SimulationAborted
from repro.emio import storage as storage_mod
from repro.emio.diskarray import DiskArray
from repro.emio.faults import FaultPlan, RetryPolicy
from repro.emio.trace import IOTrace
from repro.obs import Collector, RunEventLog, build_report, read_events
from repro.obs.profile import validate_report_dict
from repro.outofcore import OutOfCoreSort
from repro.params import MachineParams

from .helpers import PLANE_AXES, PLANES, assert_plane, pairwise, piled, plane_id

V, SEED = 8, 3


def _sort():
    rng = random.Random(17)
    return CGMSampleSort(np.array([rng.randrange(1 << 30) for _ in range(4096)]), V)


def _permutation():
    rng = random.Random(23)
    values, perm = [rng.randrange(1 << 30) for _ in range(1024)], list(range(1024))
    rng.shuffle(perm)
    return CGMPermutation(values, perm, V)


#: The sort is handed an ndarray (its shares come back as arrays on every
#: plane), the permutation and list ranking lists; ``OutOfCoreSort`` answers
#: in share digests.
WORKLOADS = {
    "sort": _sort,
    "permute": _permutation,
    "listrank": lambda: CGMListRanking(wl.random_linked_list(128, seed=5), V),
    "outofcore": lambda: OutOfCoreSort(4096, V, seed=5),
}

#: What a run carries beside its plane.  An observer and a trace are sinks,
#: not ``RunConfig`` fields; ``image`` attaches them.
EXTRAS = {
    "none": {},
    "checkpoint": {"checkpoint": True},
    "faults": {"checkpoint": True, "retry": RetryPolicy(), "faults": FaultPlan(
        seed=1, read_error_rate=0.05, write_error_rate=0.05, corruption_rate=0.05)},
    "observed": {},
    "traced": {},
}


def _local_trace(row):
    """A trace attaches to the arrays of this process."""
    return not (row.get("extra") == "traced" and row.get("backend") == "process")


CASES = pairwise(
    {"workload": tuple(WORKLOADS), "p": (1, 2, 4), **PLANE_AXES, "extra": tuple(EXTRAS)},
    _local_trace,
)
# The storage smoke's comparisons (p = 2 process x file x faults, the fast
# file and mmap planes), and an observer on the fast data plane.
CASES += [row for row in (dict(zip(CASES[0], values)) for values in (
    ("sort", 2, "process", "file", False, False, "faults"),
    ("sort", 2, "inline", "file", True, True, "none"),
    ("sort", 2, "inline", "mmap", True, True, "none"),
    ("sort", 1, "inline", "memory", True, True, "observed"),
)) if row not in CASES]


def engine(workload, p, config, k=1, **sinks):
    """``workload`` on a ``p``-processor machine holding ``k`` contexts (one:
    every group is swapped), checked to run the plane ``config`` names."""
    alg = WORKLOADS[workload]()
    params = build_params(alg, MachineParams(p=p, M=1 << 20, D=4, B=32, b=64), V, k=k)
    sim = ParallelEMSimulation(alg, params, config, **sinks)
    assert_plane(sim, **vars(config))
    return sim


@functools.cache
def reference_outputs(workload):
    return run_reference(WORKLOADS[workload](), V)[0]


def _check_observed(obs, events, backend):
    """The observer's spans, profile and event stream are real and whole."""
    assert obs.spans and all(s.t1 is not None for s in obs.spans)
    report = build_report(obs, meta={"backend": backend})
    validate_report_dict(report.to_dict())
    assert report.wall > 0 and report.track_totals()
    assert any(t.startswith("p") for t in report.tracks) == (backend == "process")
    stream = read_events(events.path, strict=True)
    assert [stream[0]["kind"], stream[-1]["kind"], stream[-1]["status"]] == [
        "run_started", "run_finished", "ok"]
    finished = [e for e in stream if e["kind"] == "superstep_finished"]
    assert finished and all(e["io_ops"] > 0 and e["bytes_moved"] >= 0
                            and e["eta_s"] is not None for e in finished)


def image(workload, p, config, extra, tmp_path=None):
    """One run's canonical record, with the sinks ``extra`` names attached and
    checked, its outputs checked against the reference runner's and the
    flavour of the input."""
    sinks = {}
    if extra == "observed":
        sinks = {"observer": Collector(profile=True),
                 "events": RunEventLog(tmp_path / "run.jsonl", expected_steps=4)}
    sim = engine(workload, p, config, **sinks)
    traces = [IOTrace.attach(pr.array) for pr in sim.procs] if extra == "traced" else None
    outputs, report = sim.run()
    if traces is None:  # the run kept the plane it was built on
        assert_plane(sim, **vars(config))
    if config.faults is not None:
        assert report.faults.retry_ops > 0
    for a in (pr.array for pr in sim.procs or ()):  # bytes move off the heap only
        assert (a.storage_read_bytes > 0) == (a.storage_write_bytes > 0) == (config.storage != "memory")
    if sinks:
        sinks["events"].close()
        _check_observed(sinks["observer"], sinks["events"], config.backend)
    assert check_outputs(workload, outputs, reference_outputs(workload)) == []
    if workload == "sort":
        assert all(isinstance(o, np.ndarray) and o.dtype == np.dtype("<i8") for o in outputs)
    if workload == "permute":
        assert all(type(o) is list and all(type(x) is int for x in o) for o in outputs)
    return canonical_record(outputs, report, sim.procs, traces)


@functools.cache
def reference_image(workload, p, config, traced):
    return image(workload, p, config, "traced" if traced else "none")


def check(row, tmp_path):
    """Row ``row``'s plane against the reference plane
    :func:`equivalent_planes` names for it."""
    config = RunConfig(seed=SEED, **{axis: row[axis] for axis in PLANE_AXES},
                       **EXTRAS[row["extra"]])
    reference = dict(equivalent_planes(config)).get("reference", config)
    want = reference_image(row["workload"], row["p"], reference, row["extra"] == "traced")
    got = image(row["workload"], row["p"], config, row["extra"], tmp_path)
    # Every drive's tallies where the arrays are local; a worker's die with it.
    assert ("drives" in got) == (row["backend"] == "inline")
    assert set(want) - set(got) <= {"drives"}
    want = {key: want[key] for key in got}
    assert got == want
    # and type for type (an int is no float or numpy scalar), which pickled
    # bytes would say too, were it not for their memo of shared objects
    assert repr(got) == repr(want)


@pytest.mark.parametrize("row", CASES, ids=lambda row: "-".join(
    [row["workload"], f"p{row['p']}", plane_id(row), row["extra"]]))
def test_plane_counts_what_the_reference_plane_counts(row, tmp_path):
    check(row, tmp_path)


def test_the_cases_cover_every_pair_and_the_reference_plane_comes_first():
    axes = {"workload": WORKLOADS, "p": (1, 2, 4), **PLANE_AXES, "extra": EXTRAS}
    for a, b in combinations(axes, 2):
        assert {(row[a], row[b]) for row in CASES} == {
            (x, y) for x in axes[a] for y in axes[b] if _local_trace({a: x, b: y})}, (a, b)
    assert PLANES[0][1] == {"backend": "inline", "storage": "memory", **REFERENCE}


# -- kill-resume across planes; the fast knobs under faults ----------------------------


#: Onto every plane from the memory reference; from each plane of this
#: process that keeps its tracks off the heap back onto it.
KILLS = [("onto", name, knobs) for name, knobs in PLANES[1:]] + [
    ("from", name, knobs) for name, knobs in PLANES[1:]
    if knobs["backend"] == "inline" and knobs["storage"] != "memory"]


@pytest.mark.parametrize("direction,name,knobs", KILLS, ids=[f"{d}-{n}" for d, n, _ in KILLS])
def test_kill_resume_crosses_planes(direction, name, knobs):
    """A run killed by a dead drive resumes on another plane from its
    portable checkpoint, in both directions."""
    reference = RunConfig(seed=SEED, checkpoint=True, **REFERENCE)
    plane = RunConfig(seed=SEED, checkpoint=True, **knobs)
    dying, fresh = (reference, plane) if direction == "onto" else (plane, reference)
    doomed = replace(dying, faults=FaultPlan(seed=0, dead_disk=0, dead_after=100),
                     retry=RetryPolicy(max_retries=2), max_recoveries=0)
    with pytest.raises(SimulationAborted) as exc_info:
        engine("permute", 1, doomed).run()
    ckpt = exc_info.value.checkpoint
    assert ckpt is not None and ckpt.step == 1
    sim = engine("permute", 1, fresh)
    outputs, report = sim.resume_from_checkpoint(ckpt)
    assert check_outputs(name, outputs, reference_outputs("permute")) == []
    assert report.faults.resumed_from_step == ckpt.step
    for pr in sim.procs or ():
        if fresh.context_cache:  # the restore re-warmed every slot
            assert all(b is not None for b in pr.contexts._cached)


def test_faults_refuse_the_cache_and_the_fast_plane():
    """The disk image is authoritative when faults can corrupt it."""
    sim = engine("sort", 2, RunConfig(fast_io=True, context_cache=True, **EXTRAS["faults"]))
    for pr in sim.procs:
        assert pr.contexts.cache is False and pr.array.fast_data_plane is False


# -- the reference plane's committed counts ----------------------------------------------

#: io_ops, comm_packets, comp_ops, disk tracks, message blocks and supersteps
#: of the reference plane at the default ``k`` (one group a processor), as the
#: object plane counted them before the input picked the record plane — but
#: for the one group keeping its own vps' inbox in memory: at p = 1 that is
#: every message (io_ops 68, 68, 32 before); at p = 2 the blocks a processor
#: packs for the other's vps still go to disk (io_ops 38 before).  The sorts
#: send s = 64 samples a vp where they sent v = 8: vp 0 sorts 512 of them
#: (comp +4672), they fill 16 blocks where they filled 2, and the tighter
#: buckets (mu 1040 -> 583) take 8 slots of 19 blocks where 8 took 33.
GOLDEN = {
    ("sort", 1): (0, 46, 107520.0, 38, 148, 4),
    ("outofcore", 1): (0, 43, 107520.0, 38, 148, 4),
    ("outofcore", 2): (22, 112, 56368.0, 19, 151, 4),
    ("permute", 1): (0, 16, 2048.0, 18, 64, 2),
}


@pytest.mark.parametrize("workload,p", list(GOLDEN), ids=lambda x: str(x))
def test_the_reference_plane_counts_the_committed_columns(workload, p):
    outputs, report = engine(workload, p, RunConfig(seed=SEED, **REFERENCE), k=None).run()
    assert check_outputs(workload, outputs, reference_outputs(workload)) == []
    assert (report.io_ops, report.ledger.total_comm_packets, report.ledger.total_comp,
            report.disk_space_tracks, sum(s.message_blocks for s in report.supersteps),
            report.num_supersteps) == GOLDEN[workload, p]


# -- Algorithm 2 on disk; held contexts ---------------------------------------------------


def test_algorithm_2_on_the_file_plane_counts_what_memory_does():
    """``helpers.piled`` falls back to Algorithm 2: 46 reorganizing ops on
    the fast file plane, as on the memory reference."""
    images = {}
    for key, config in equivalent_planes(RunConfig(storage="file", fast_io=True, context_cache=True)):
        sim = piled(config)
        outputs, report = sim.run()
        assert report.supersteps[0].phases.reorganize == 46, key
        images[key] = canonical_record(outputs, report, sim.procs)
    assert len(images) > 1 and all(img == images["reference"] for img in images.values())


@pytest.mark.parametrize("storage", ["memory", "file"])
def test_a_held_context_is_pickled_once_a_save(storage, monkeypatch):
    """On the fast plane a context is pickled once a save (to be measured),
    never unpickled: ``serialize`` scopes are the saves plus the storage
    plane's block codec calls; a load that unpickled would add ``v`` more."""
    calls = []
    for name in ("_encode_block", "_decode_block"):
        real = getattr(storage_mod, name)
        monkeypatch.setattr(storage_mod, name,
                            lambda *args, real=real: calls.append(1) or real(*args))
    obs = Collector(profile=True)
    _outputs, report = simulate(
        CGMSampleSort(wl.uniform_keys(4096, seed=0), v=8),
        MachineParams(p=2, M=1 << 18, D=4, B=16, b=32), v=8, seed=0,
        fast_io=True, context_cache=True, observer=obs, storage=storage)
    scopes = build_report(obs).tracks["engine"]["counts"]["serialize"]
    saves = 8 * 3  # every vp, at the input load and the two supersteps that write its state
    assert (storage == "memory") == (not calls)
    assert scopes == saves + len(calls)


# -- planted fast-plane bugs -----------------------------------------------------------------


def _stale_block(array, addrs, got):
    """Drive 0's first block of a batch handed back in place of its last."""
    on0 = [i for i, (d, _t) in enumerate(addrs) if d == 0]
    if len(on0) > 1:
        got[on0[-1]] = got[on0[0]]


def _misfiled_read(array, addrs, got):
    """One read filed under the wrong drive: no ledger line moves."""
    array.disks[0].reads -= 1
    array.disks[1].reads += 1


#: Each plant with the catch that fires.  The stale block corrupts what a vp
#: reads for superstep 2: vp 6 then sends 697 records to one vp, past the
#: gamma declared from the sort's bucket bound (567), and the engine refuses
#: the send before any image is compared.  The misfiled read moves no
#: record, and the images differ.
PLANTS = {
    _stale_block: (AlgorithmError, "superstep 2, exceeding the declared comm bound"),
    _misfiled_read: (AssertionError, None),
}


@pytest.mark.parametrize("plant", list(PLANTS))
def test_a_planted_fast_plane_bug_in_a_batched_read_is_caught(plant, monkeypatch, tmp_path):
    row = dict(zip(CASES[0], ("sort", 2, "inline", "memory", True, True, "none")))
    check(row, tmp_path)
    real = DiskArray.read_batched

    def read_batched(self, addrs):
        addrs = list(addrs)
        got = real(self, addrs)
        if self.fast_data_plane:
            plant(self, addrs, got)
        return got

    monkeypatch.setattr(DiskArray, "read_batched", read_batched)
    caught, match = PLANTS[plant]
    with pytest.raises(caught, match=match):
        check(row, tmp_path)
