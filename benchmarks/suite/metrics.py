"""The metric catalogue: every name the suite prints, with unit and direction.

``BENCHMARK.json`` carries only name/unit/better(/bound); this file is the
single source for those and adds what the driver's schema has no room for:
the layer (module) a per-layer metric belongs to and the end-to-end metric
and workload it is expected to move.  ``BENCHMARK.json`` is written from here,
never by hand (``test_suite.py`` checks that it is current)::

    python3 benchmarks/suite/metrics.py --dump > BENCHMARK.json

A per-layer metric that does not apply to a workload (``core.checkpoint.*``
without checkpoints, ``emio.storage.*_x`` on the memory plane) is ``null``
in ``results.json`` and ``0`` on the driver's result line, which must hold
numbers only.
"""

from __future__ import annotations

import json
import sys
from typing import Any, NamedTuple

#: What one driver run measures for, in seconds: the ``--seconds`` it passes.
RUN_SECONDS = 40


class EndToEnd(NamedTuple):
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the driver lets the metric worsen,
    #: across runs whose ``--seed`` differs.
    bound: float
    #: True for counted metrics: at one seed they repeat exactly, and
    #: ``compare.py`` demands equality whatever ``bound`` says.
    exact: bool
    what: str


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str
    source: str  # "counted" | "traced" | "drill"
    moves: str  # end-to-end metric @ workload(s) it should move
    what: str


#: Bound for counted metrics.  They are exact at a fixed seed (``compare.py``
#: demands equality), but the driver varies the seed and the input decides
#: bucket sizes and coin flips: over seeds 1-20 a counted metric spreads by up
#: to 0.7% of its median.
_COUNTED_BOUND = 0.02

#: Bound for timed metrics: the largest the driver admits.  This 2-vCPU VM's
#: speed wanders by +-15% in waves of a minute and its level by more over an
#: hour (README.md, "How steady"), and the driver refuses a bound below the
#: spread of ten runs of one commit.
_TIMED_BOUND = 0.25

END_TO_END: tuple[EndToEnd, ...] = (
    EndToEnd("wall_s", "s", "lower", _TIMED_BOUND, False,
             "fastest of the timed reps: construct algorithm -> simulate() returns"),
    EndToEnd("records_per_s", "1/s", "higher", _TIMED_BOUND, False, "n / wall_s"),
    EndToEnd("setup_s", "s", "lower", _TIMED_BOUND, False,
             "imports + input generation + one untimed warm-up rep"),
    EndToEnd("peak_rss_mib", "MiB", "lower", 0.10, False,
             "ru_maxrss of the workload's interpreter after the timed reps"),
    EndToEnd("io_scans", "scans", "lower", _COUNTED_BOUND, True,
             "counted parallel I/O ops of all supersteps / ceil(n/(D*B))"),
    EndToEnd("comm_packets", "count", "lower", _COUNTED_BOUND, True,
             "ledger total of packets sent+received"),
    EndToEnd("disk_tracks", "count", "lower", _COUNTED_BOUND, True,
             "allocator high water, tracks per disk"),
    EndToEnd("passed_share", "share", "higher", _COUNTED_BOUND, True,
             "1 - failed_share: reps that passed every oracle / reps attempted"),
)


def _counted(name, unit, moves, what, better="lower"):
    return PerLayer(name, unit, better, "counted", moves, what)


def _traced(name, unit, moves, what, better="lower"):
    return PerLayer(name, unit, better, "traced", moves, what)


def _drill(name, unit, moves, what, better="higher"):
    return PerLayer(name, unit, better, "drill", moves, what)


_ALL = "all workloads"
_FILE = "sort_file, listrank_file_ckpt"
_SORTS = "sort_mem, sort_file"

PER_LAYER: tuple[PerLayer, ...] = (
    # -- counted, exact at a fixed seed, from every timed rep -------------------
    _counted("core.supersteps", "count", f"io_scans @ {_ALL}", "compound supersteps run"),
    _counted("core.fetch_context_scans", "scans", f"io_scans @ {_ALL}",
             "Step 1(a) ops / scan"),
    _counted("core.fetch_messages_scans", "scans", f"io_scans @ {_ALL}",
             "Step 1(b) ops / scan"),
    _counted("core.write_messages_scans", "scans", f"io_scans @ {_ALL}",
             "Step 1(d) ops / scan"),
    _counted("core.write_context_scans", "scans", f"io_scans @ {_ALL}",
             "Step 1(e) ops / scan"),
    _counted("core.reorganize_scans", "scans",
             "io_scans @ listrank_par_default (70% of it)", "Step 2 (Algorithm 2) ops / scan"),
    _counted("core.init_scans", "scans", "none (outside the supersteps)",
             "input loading ops / scan"),
    _counted("core.output_scans", "scans", "none (outside the supersteps)",
             "result unloading ops / scan"),
    _counted("core.theorem1_ratio", "ratio", f"io_scans @ {_ALL}",
             "counted superstep ops / the closed-form Theorem 1 bound"),
    _counted("core.routing.phase1_ops", "count",
             "core.reorganize_scans -> io_scans @ listrank_par_default",
             "Algorithm 2 phase-1 rounds, summed over supersteps"),
    _counted("core.routing.phase2_ops", "count",
             "core.reorganize_scans -> io_scans @ listrank_par_default",
             "Algorithm 2 phase-2 rounds, summed over supersteps"),
    _counted("core.routing.message_blocks", "count", f"io_scans, comm_packets @ {_ALL}",
             "message blocks generated, summed over supersteps"),
    _counted("core.routing.max_load_ratio", "ratio",
             "core.reorganize_scans -> io_scans @ listrank_par_default",
             "worst Lemma 2 deviation of any bucket store"),
    _counted("core.checkpoint.commits", "count", "wall_s @ listrank_file_ckpt",
             "checkpoints taken"),
    _counted("core.checkpoint.io_scans", "scans", "wall_s @ listrank_file_ckpt",
             "parallel reads capturing barrier state / scan"),
    _counted("bsp.comp_ops", "count", f"wall_s @ {_ALL} (kernel share)",
             "ledger total of computation operations"),
    _counted("emio.diskarray.records_io", "count", f"io_scans @ {_ALL}",
             "records moved to/from the disk arrays"),
    _counted("emio.storage.read_bytes", "B", f"wall_s @ {_FILE}; 0 @ memory plane",
             "payload bytes read from the storage plane (traced rep)"),
    _counted("emio.storage.write_bytes", "B", f"wall_s @ {_FILE}; 0 @ memory plane",
             "payload bytes written to the storage plane (traced rep)"),
    _counted("emio.storage.write_amp", "ratio", f"wall_s @ {_FILE}; 0 @ memory plane",
             "bytes written / (8 * n)"),
    # -- traced rep: seconds of exclusive time per profiler category ------------
    _traced("profile.kernel_s", "s", f"wall_s @ {_ALL}", "algorithms' supersteps"),
    _traced("profile.layout_s", "s", "wall_s @ sort_mem, listrank_par_default",
            "emio.layout / emio.linked / engine glue"),
    _traced("profile.routing_s", "s", "wall_s @ listrank_par_default", "core.routing"),
    _traced("profile.serialize_s", "s", f"wall_s @ {_FILE}; ~0 @ sort_mem",
            "emio.codec + block framing + context pickling"),
    _traced("profile.syscall_io_s", "s", f"wall_s @ {_FILE}; 0 @ memory plane",
            "emio.storage foreground pread/pwrite/fsync"),
    _traced("profile.syscall_io_bg_s", "s", "none (io_overlap is off in every workload)",
            "emio.storage flusher-pool transfers"),
    _traced("profile.ipc_s", "s", "none (no process backend in any workload)",
            "core.backend pipe framing"),
    _traced("profile.barrier_wait_s", "s", "none (no process backend in any workload)",
            "core.backend waiting on workers"),
    _traced("profile.checkpoint_s", "s", "wall_s @ listrank_file_ckpt; 0 elsewhere",
            "core.checkpoint capture + journal commits"),
    _traced("profile.kernel_share", "share", f"wall_s @ {_SORTS}",
            "kernel_s / traced wall", better="higher"),
    _traced("profile.attributed_share", "share", "none (a check on the profiler)",
            "sum of categories / traced wall", better="higher"),
    _traced("profile.syscalls", "count", f"wall_s @ {_FILE}", "syscall_io scopes entered"),
    _traced("profile.syscalls_per_op", "ratio", f"wall_s @ {_FILE}",
            "syscalls / counted parallel ops (supersteps + init + output)"),
    _traced("profile.serialize_calls", "count", f"wall_s @ {_FILE}",
            "serialize scopes entered"),
    _traced("obs.trace_overhead", "ratio", "none (a check on the observer)",
            "traced wall / median timed rep - 1"),
    # -- drills: harness spans around direct calls into one layer ---------------
    _drill("bsp.reference_s", "s", f"core.em_overhead_x @ {_ALL}",
           "run_reference: the plain in-memory run of the same problem", better="lower"),
    _drill("core.em_overhead_x", "ratio", f"wall_s @ {_ALL}",
           "median timed rep / bsp.reference_s", better="lower"),
    _drill("emio.codec.to_bytes_mib_s", "MiB/s", "profile.serialize_s -> wall_s @ sort_file",
           "I64 codec, one vp share at a time"),
    _drill("emio.codec.from_bytes_mib_s", "MiB/s", "profile.serialize_s -> wall_s @ sort_file",
           "I64 codec, one vp share at a time"),
    _drill("emio.layout.pack_blocks_s", "blocks/s", f"profile.layout_s -> wall_s @ {_SORTS}",
           "pack_records of one vp share into B-record blocks"),
    _drill("emio.layout.unpack_blocks_s", "blocks/s", f"profile.layout_s -> wall_s @ {_SORTS}",
           "unpack_records of the same blocks"),
    _drill("emio.linked.append_blocks_s", "blocks/s",
           "profile.layout_s -> wall_s @ listrank_par_default",
           "LinkedBuckets.append_blocks, one group's blocks per call"),
    _drill("emio.diskarray.write_ops_s", "ops/s", f"wall_s @ {_ALL}",
           "write_batched of one group's context blocks, on the workload's plane"),
    _drill("emio.diskarray.read_ops_s", "ops/s", f"wall_s @ {_ALL}",
           "read_batched of the same addresses"),
    _drill("emio.storage.put_blocks_s", "blocks/s", f"profile.syscall_io_s -> wall_s @ {_FILE}",
           "one drive's storage, one group's blocks per put"),
    _drill("emio.storage.get_blocks_s", "blocks/s", f"profile.syscall_io_s -> wall_s @ {_FILE}",
           "one drive's storage, one group's blocks per get"),
    _drill("emio.storage.sync_s", "s", "wall_s @ listrank_file_ckpt (27 barriers)",
           "median sync() after one group's puts", better="lower"),
    _drill("core.context.save_group_s", "s", f"profile.layout_s+serialize_s -> wall_s @ {_ALL}",
           "median ContextStore.save_group of k initial states", better="lower"),
    _drill("core.context.load_group_s", "s", f"profile.layout_s+serialize_s -> wall_s @ {_ALL}",
           "median ContextStore.load_group of the same slots", better="lower"),
    _drill("core.routing.reorg_blocks_s", "blocks/s",
           "profile.routing_s -> wall_s @ listrank_par_default",
           "append_blocks + simulate_routing over one superstep's blocks"),
    _drill("core.checkpoint.commit_s", "s", "profile.checkpoint_s -> wall_s @ listrank_file_ckpt",
           "median CheckpointJournal.commit of the middle barrier's checkpoint",
           better="lower"),
    _drill("core.checkpoint.scrub_s", "s", "none (recovery path, not in wall_s)",
           "scrub after a crash at stage postsync of the middle barrier", better="lower"),
    _drill("core.checkpoint.recover_s", "s", "none (recovery path, not in wall_s)",
           "resume_from_checkpoint to completion, output re-verified", better="lower"),
    _drill("emio.storage.overlap_x", "ratio", f"verdict on io_overlap @ {_FILE}",
           "one rep with io_overlap=True / median timed rep", better="lower"),
    _drill("emio.storage.mmap_x", "ratio", f"verdict on storage='mmap' @ {_FILE}",
           "one rep with storage='mmap' / median timed rep", better="lower"),
    _drill("baselines.emsort_pred_scans", "scans", f"rival budget next to io_scans @ {_SORTS}",
           "EMMergeSort.predicted_io_ops(n) / scan, computed not measured", better="lower"),
    _drill("baselines.guidesort_pred_scans", "scans",
           f"rival budget next to io_scans @ {_SORTS}",
           "Guidesort.predicted_io_ops(n) / scan, computed not measured", better="lower"),
)

UNITS: dict[str, str] = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}
EXACT: frozenset[str] = frozenset(
    [m.name for m in END_TO_END if m.exact]
    + [m.name for m in PER_LAYER if m.source == "counted"]
)


def benchmark_json() -> dict[str, Any]:
    """The content of ``BENCHMARK.json``."""
    from workloads import WORKLOADS

    return {
        "command": ["python3", "benchmarks/suite/run.py"],
        "paths": ["benchmarks/suite"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values() if w.gated],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    if sys.argv[1:] != ["--dump"]:
        sys.exit("usage: metrics.py --dump > BENCHMARK.json")
    json.dump(benchmark_json(), sys.stdout, indent=2)
    print()
