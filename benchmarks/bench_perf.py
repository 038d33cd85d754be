"""Wall-clock benchmark trajectory for the simulation engines.

Unlike the Table/Figure benchmarks (which measure *counted* model costs),
this harness times the host-side wall clock of the engines across the
performance knobs introduced by the fast path work:

* ``seq_reference``   — sequential engine, reference data plane (the seed path)
* ``seq_fast``        — sequential engine, ``fast_io=True, context_cache=True``
* ``par_inline``      — parallel engine (p=4), inline backend, reference plane
* ``par_fast_inline`` — parallel engine, inline backend, fast path
* ``par_fast_process``— parallel engine, process backend, fast path
* ``seq_fast_vector``/``par_fast_process_vector`` — the fast configs on the
  vectorized record plane (``records="vector"``, DESIGN §10): numpy blocks
  and argsort/searchsorted kernels instead of boxed records
* ``seq_fast_observed``/``par_fast_observed`` — the fast configs with a
  telemetry :class:`repro.obs.Collector` attached (span/metric overhead)
* ``seq_file_storage``  — sequential engine on the out-of-core file plane
  (track files in a private tempdir); measures the pread/pwrite + pickle
  cost of true external storage against the in-heap reference
  (``ratio_file_sync``)
* ``seq_file_fast_vector`` — the file plane like for like with
  ``seq_fast_vector`` (fast knobs, vector records);
  ``ratio_file_fast_vector`` (x ``seq_fast_vector``) is the file/memory
  gap the ROADMAP wants <= 2x, soft-warned above 3x

For every workload the harness *asserts* that each engine's fast and
observed configurations report exactly the same parallel I/O operation
count, packet count, and computation cost as that engine's reference
configuration — the dual-accounting invariant (counted model costs are
untouchable; only host time may change).  Observer overhead above 5% prints
a soft warning.  Results land in ``BENCH_PERF.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf.py [--quick] [--out PATH]
        [--check-regression BASELINE] [--history PATH | --no-history]

``--check-regression`` compares wall times against a committed baseline JSON
and prints warnings for >2x slowdowns; it exits 0 regardless (CI treats the
job as a soft signal; counted-cost mismatches still exit 1).

Every run also appends one schema-versioned, host-fingerprinted entry to
``BENCH_HISTORY.jsonl`` and compares it against its same-host trajectory
(:mod:`repro.obs.trend`): a slow run prints a soft ``::warning::``, while
counted ``io_ops`` drifting from history is a hard violation (exit 1) — the
model charges the same I/O on every host.  Quick and full modes are tracked
as separate config keys so their differing problem sizes never cross-trip
the drift check.  ``repro perf trend`` reads the same file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.algorithms.graphs.listranking import CGMListRanking  # noqa: E402
from repro.algorithms.permutation import CGMPermutation  # noqa: E402
from repro.algorithms.sorting import CGMSampleSort  # noqa: E402
from repro.core.simulator import build_params  # noqa: E402
from repro.core.parsim import ParallelEMSimulation  # noqa: E402
from repro.core.seqsim import SequentialEMSimulation  # noqa: E402
from repro.params import MachineParams  # noqa: E402
from repro.workloads import random_linked_list, random_permutation, uniform_keys  # noqa: E402

SEED = 3

#: (name, engine, engine kwargs) — the benchmark trajectory.
CONFIGS = [
    ("seq_reference", "sequential", {}),
    ("seq_fast", "sequential", {"context_cache": True, "fast_io": True}),
    ("par_inline", "parallel", {}),
    ("par_fast_inline", "parallel", {"context_cache": True, "fast_io": True}),
    (
        "par_fast_process",
        "parallel",
        {"backend": "process", "context_cache": True, "fast_io": True},
    ),
    (
        "seq_fast_vector",
        "sequential",
        {"context_cache": True, "fast_io": True, "records": "vector"},
    ),
    (
        "par_fast_process_vector",
        "parallel",
        {
            "backend": "process",
            "context_cache": True,
            "fast_io": True,
            "records": "vector",
        },
    ),
    (
        "seq_fast_observed",
        "sequential",
        {"context_cache": True, "fast_io": True, "observe": True},
    ),
    (
        "par_fast_observed",
        "parallel",
        {"context_cache": True, "fast_io": True, "observe": True},
    ),
    ("seq_file_storage", "sequential", {"storage": "file"}),
    (
        "seq_file_fast_vector",
        "sequential",
        {
            "storage": "file",
            "context_cache": True,
            "fast_io": True,
            "records": "vector",
        },
    ),
]


def _workloads(quick: bool) -> list[dict[str, Any]]:
    """Workload descriptions; ``make(v)`` builds a fresh algorithm."""
    if quick:
        n_sort, n_perm, n_rank, v = 16384, 16384, 4096, 16
    else:
        n_sort, n_perm, n_rank, v = 131072, 65536, 16384, 32
    return [
        {
            "name": "sort",
            "n": n_sort,
            "v": v,
            "make": lambda n=n_sort, v=v: CGMSampleSort(
                uniform_keys(n, seed=SEED), v=v
            ),
        },
        {
            "name": "permute",
            "n": n_perm,
            "v": v,
            "make": lambda n=n_perm, v=v: CGMPermutation(
                uniform_keys(n, seed=SEED), random_permutation(n, seed=SEED), v=v
            ),
        },
        {
            "name": "listrank",
            "n": n_rank,
            "v": v,
            "make": lambda n=n_rank, v=v: CGMListRanking(
                random_linked_list(n, seed=SEED), v=v
            ),
        },
    ]


def _run_config(name: str, engine: str, kwargs: dict, make, v: int) -> dict[str, Any]:
    alg = make()
    kwargs = dict(kwargs)
    records = kwargs.pop("records", None)
    if records is not None:
        alg.set_record_mode(records)
    p = 4 if engine == "parallel" else 1
    machine = MachineParams(p=p, M=1 << 20, D=4, B=32, b=64)
    params = build_params(alg, machine, v=v)
    cls = SequentialEMSimulation if engine == "sequential" else ParallelEMSimulation
    observer = None
    if kwargs.pop("observe", False):
        from repro.obs import Collector

        observer = Collector()
    sim = cls(alg, params, seed=SEED, observer=observer, **kwargs)
    t0 = time.perf_counter()
    outputs, report = sim.run()
    wall = time.perf_counter() - t0
    led = report.ledger
    ratios = [
        s.routing.max_load_ratio for s in report.supersteps if s.routing is not None
    ]
    r = {
        "wall_s": round(wall, 4),
        "io_ops": led.total_io_ops,
        "comm_packets": led.total_comm_packets,
        "comp_ops": led.total_comp,
        "records_io": led.total_records_io,
        "supersteps": len(report.supersteps),
        "lemma2_max_load_ratio": round(max(ratios), 4) if ratios else None,
        "outputs_digest": hash(repr(outputs)) & 0xFFFFFFFF,
    }
    if observer is not None:
        r["telemetry_spans"] = len(observer.spans)
    return r


COUNTED = ("io_ops", "comm_packets", "comp_ops", "records_io", "outputs_digest")


def run_suite(quick: bool) -> tuple[dict[str, Any], list[str]]:
    results: dict[str, Any] = {
        "quick": quick,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity")
            else os.cpu_count(),
        },
        "machine_params": {"D": 4, "B": 32, "b": 64, "M": 1 << 20},
        "workloads": {},
    }
    violations: list[str] = []
    for wl in _workloads(quick):
        name, v = wl["name"], wl["v"]
        print(f"== {name} (n={wl['n']}, v={v}) ==")
        configs: dict[str, Any] = {}
        for cname, engine, kwargs in CONFIGS:
            r = _run_config(cname, engine, kwargs, wl["make"], v)
            configs[cname] = r
            print(
                f"  {cname:28s} wall={r['wall_s']:8.3f}s  io={r['io_ops']:7d}  "
                f"comm={r['comm_packets']:6d}  comp={r['comp_ops']:.3g}"
            )
        # Dual-accounting invariant: fast configs must count exactly like
        # their engine's reference config.
        for fast, ref in [
            ("seq_fast", "seq_reference"),
            ("par_fast_inline", "par_inline"),
            ("par_fast_process", "par_inline"),
            ("seq_fast_observed", "seq_reference"),
            ("par_fast_observed", "par_inline"),
            # Vector-plane invariant (DESIGN §10): swapping boxed records
            # for numpy arrays must not move a single counted cost either.
            ("seq_fast_vector", "seq_reference"),
            ("par_fast_process_vector", "par_inline"),
            # Storage-plane invariant (DESIGN §8): moving the tracks out of
            # heap must not move a single counted cost.
            ("seq_file_storage", "seq_reference"),
            ("seq_file_fast_vector", "seq_reference"),
        ]:
            for kct in COUNTED:
                if configs[fast][kct] != configs[ref][kct]:
                    violations.append(
                        f"{name}: {fast}.{kct}={configs[fast][kct]} != "
                        f"{ref}.{kct}={configs[ref][kct]}"
                    )
        entry = {
            "n": wl["n"],
            "v": v,
            "configs": configs,
            "speedup_seq_fast": round(
                configs["seq_reference"]["wall_s"] / configs["seq_fast"]["wall_s"], 3
            ),
            "speedup_par_fast_inline": round(
                configs["par_inline"]["wall_s"] / configs["par_fast_inline"]["wall_s"],
                3,
            ),
            "speedup_par_fast_process": round(
                configs["par_inline"]["wall_s"] / configs["par_fast_process"]["wall_s"],
                3,
            ),
            "speedup_seq_fast_vector": round(
                configs["seq_reference"]["wall_s"]
                / configs["seq_fast_vector"]["wall_s"],
                3,
            ),
            "speedup_par_fast_process_vector": round(
                configs["par_inline"]["wall_s"]
                / configs["par_fast_process_vector"]["wall_s"],
                3,
            ),
            "observer_overhead_seq": round(
                configs["seq_fast_observed"]["wall_s"] / configs["seq_fast"]["wall_s"]
                - 1.0,
                4,
            ),
            "observer_overhead_par": round(
                configs["par_fast_observed"]["wall_s"]
                / configs["par_fast_inline"]["wall_s"]
                - 1.0,
                4,
            ),
            # Out-of-core overhead vs the in-heap reference.
            "ratio_file_sync": round(
                configs["seq_file_storage"]["wall_s"]
                / configs["seq_reference"]["wall_s"],
                3,
            ),
            # The like-for-like file/memory gap: fast knobs and vector
            # records on both sides.
            "ratio_file_fast_vector": round(
                configs["seq_file_fast_vector"]["wall_s"]
                / configs["seq_fast_vector"]["wall_s"],
                3,
            ),
        }
        print(
            f"  speedups: seq_fast={entry['speedup_seq_fast']}x  "
            f"par_fast_inline={entry['speedup_par_fast_inline']}x  "
            f"par_fast_process={entry['speedup_par_fast_process']}x  "
            f"seq_fast_vector={entry['speedup_seq_fast_vector']}x"
        )
        print(
            f"  observer overhead: seq={entry['observer_overhead_seq']:+.1%}  "
            f"par={entry['observer_overhead_par']:+.1%}"
        )
        print(
            f"  file plane vs memory: sync={entry['ratio_file_sync']}x  "
            f"fast_vector={entry['ratio_file_fast_vector']}x"
        )
        if entry["ratio_file_fast_vector"] > 3.0:
            print(
                f"::warning::{name}: seq_file_fast_vector is "
                f"{entry['ratio_file_fast_vector']}x seq_fast_vector "
                "(file/memory gap above 3x)"
            )
        # Soft signal only: wall-clock noise on shared CI runners dwarfs the
        # span layer's cost (sub-0.2s runs are all jitter), so this never
        # fails the run and only warns when the baseline is measurable.
        for key, base_cfg in (
            ("observer_overhead_seq", "seq_fast"),
            ("observer_overhead_par", "par_fast_inline"),
        ):
            if entry[key] > 0.05 and configs[base_cfg]["wall_s"] >= 0.2:
                print(
                    f"::warning::{name}: {key} = {entry[key]:+.1%} exceeds "
                    "the 5% telemetry budget"
                )
        results["workloads"][name] = entry
    results["workloads"]["sort_large"] = _headline_entry(quick, violations)
    if quick:
        results["workloads"]["sort_1m_array"] = _array_sort_entry(
            "sort_1m_array", 1_000_000, 64, violations
        )
    else:
        results["workloads"]["sort_10m"] = _array_sort_entry(
            "sort_10m", 10_000_000, 256, violations
        )
    results["headline"] = {
        "workload": "sort_large",
        "config": "seq_fast_vector vs seq_reference",
        "speedup": results["workloads"]["sort_large"]["speedup_seq_fast_vector"],
    }
    results["counted_cost_violations"] = violations
    return results, violations


def _headline_entry(quick: bool, violations: list[str]) -> dict[str, Any]:
    """The headline pair: reference object plane vs vectorized fast path.

    A dedicated large-share sort (one sequential engine, few virtual
    processors): the reference run is dominated by per-record interpreter
    work, which the vector plane replaces with ``np.sort``/``searchsorted``
    kernels, while both planes pay the same counted I/O.  The pair must
    agree on every counted cost — the golden discipline of DESIGN §10.
    """
    if quick:
        n, v, M = 32768, 8, 1 << 20
    else:
        n, v, M = 524288, 16, 1 << 21
    data = uniform_keys(n, seed=SEED)
    machine = MachineParams(p=1, M=M, D=4, B=32, b=64)
    configs: dict[str, Any] = {}
    for cname, mode, kw in (
        ("seq_reference", "object", {}),
        ("seq_fast_vector", "vector", {"context_cache": True, "fast_io": True}),
    ):
        alg = CGMSampleSort(list(data), v=v)
        alg.set_record_mode(mode)
        sim = SequentialEMSimulation(
            alg, build_params(alg, machine, v=v), seed=SEED, **kw
        )
        t0 = time.perf_counter()
        outputs, report = sim.run()
        wall = time.perf_counter() - t0
        led = report.ledger
        configs[cname] = {
            "wall_s": round(wall, 4),
            "io_ops": led.total_io_ops,
            "comm_packets": led.total_comm_packets,
            "comp_ops": led.total_comp,
            "records_io": led.total_records_io,
            "outputs_digest": hash(repr(outputs)) & 0xFFFFFFFF,
        }
    for kct in COUNTED:
        if configs["seq_fast_vector"][kct] != configs["seq_reference"][kct]:
            violations.append(
                f"sort_large: seq_fast_vector.{kct}="
                f"{configs['seq_fast_vector'][kct]} != "
                f"seq_reference.{kct}={configs['seq_reference'][kct]}"
            )
    entry = {
        "n": n,
        "v": v,
        "machine_params": {"p": 1, "D": 4, "B": 32, "b": 64, "M": M},
        "configs": configs,
        "speedup_seq_fast_vector": round(
            configs["seq_reference"]["wall_s"]
            / configs["seq_fast_vector"]["wall_s"],
            3,
        ),
    }
    print(f"== sort_large (n={n}, v={v}) ==")
    for cname, r in configs.items():
        print(f"  {cname:17s} wall={r['wall_s']:8.3f}s  io={r['io_ops']:7d}")
    print(f"  speedup: seq_fast_vector={entry['speedup_seq_fast_vector']}x")
    return entry


def _array_sort_entry(
    name: str, n: int, v: int, violations: list[str]
) -> dict[str, Any]:
    """An ndarray-fed sort on the vectorized plane only (no object twin —
    the boxed 10M run would take minutes): ``sort_1m_array`` in quick mode,
    ``sort_10m`` in full mode.

    Array in, array out is checked as a *type*, not a timing: every output
    must be a 1-D ``<i8`` ndarray and their concatenation must equal
    ``np.sort`` of the input, or the run fails.
    """
    import numpy as np

    rng = np.random.default_rng(SEED)
    data = rng.integers(0, 1 << 30, size=n, dtype=np.int64)
    machine = MachineParams(p=1, M=1 << 22, D=4, B=1024, b=2048)
    alg = CGMSampleSort(data, v=v)
    alg.set_record_mode("vector")
    sim = SequentialEMSimulation(
        alg,
        build_params(alg, machine, v=v),
        seed=SEED,
        context_cache=True,
        fast_io=True,
    )
    t0 = time.perf_counter()
    outputs, report = sim.run()
    wall = time.perf_counter() - t0
    boxed = [
        pid
        for pid, o in enumerate(outputs)
        if not (isinstance(o, np.ndarray) and o.ndim == 1 and o.dtype == "<i8")
    ]
    if boxed:
        violations.append(
            f"{name}: outputs of vps {boxed[:8]} are not 1-D <i8 ndarrays "
            "(an ndarray in must come back as ndarrays)"
        )
    flat = np.concatenate([np.asarray(o, dtype=np.int64) for o in outputs])
    sorted_ok = bool(np.array_equal(flat, np.sort(data)))
    if not sorted_ok:
        violations.append(f"{name}: vectorized output differs from np.sort")
    led = report.ledger
    entry = {
        "n": n,
        "v": v,
        "machine_params": {"p": 1, "D": 4, "B": 1024, "b": 2048, "M": 1 << 22},
        "sorted_ok": sorted_ok,
        "array_out": not boxed,
        "configs": {
            "seq_fast_vector": {
                "wall_s": round(wall, 4),
                "io_ops": led.total_io_ops,
                "comm_packets": led.total_comm_packets,
                "comp_ops": led.total_comp,
                "records_io": led.total_records_io,
                "outputs_digest": int(np.sum(flat % 1000003)) & 0xFFFFFFFF,
            }
        },
    }
    print(f"== {name} (n={n}, v={v}, ndarray in, vector plane only) ==")
    print(
        f"  seq_fast_vector   wall={wall:8.3f}s  "
        f"io={led.total_io_ops:7d}  sorted_ok={sorted_ok}  array_out={not boxed}"
    )
    return entry


def check_regression(results: dict[str, Any], baseline_path: str) -> None:
    """Soft regression check: warn (never fail) on >2x wall-clock slowdowns."""
    if not os.path.exists(baseline_path):
        print(f"[regression] no baseline at {baseline_path}; skipping")
        return
    with open(baseline_path) as fh:
        base = json.load(fh)
    if base.get("quick") != results.get("quick"):
        print("[regression] baseline ran a different mode; comparing anyway")
    warned = False
    for wname, wl in results["workloads"].items():
        bwl = base.get("workloads", {}).get(wname)
        if not bwl:
            continue
        for cname, cfg in wl["configs"].items():
            bcfg = bwl.get("configs", {}).get(cname)
            if not bcfg or not bcfg.get("wall_s"):
                continue
            ratio = cfg["wall_s"] / bcfg["wall_s"]
            if ratio > 2.0:
                warned = True
                print(
                    f"::warning::perf regression {wname}/{cname}: "
                    f"{cfg['wall_s']}s vs baseline {bcfg['wall_s']}s ({ratio:.2f}x)"
                )
    if not warned:
        print("[regression] within 2x of baseline on every config")


def update_history(
    results: dict[str, Any], path: str, violations: list[str]
) -> None:
    """Append this run to the bench history and judge it against the trend."""
    from repro.obs.trend import append_history, compare_trend, load_history

    mode = "quick" if results.get("quick") else "full"
    flat = {
        f"{mode}:{wname}/{cname}": {
            "wall_s": cfg["wall_s"],
            "io_ops": cfg["io_ops"],
        }
        for wname, wl in results["workloads"].items()
        for cname, cfg in wl["configs"].items()
    }
    append_history(path, flat, t=time.time(), meta={"mode": mode})
    verdict = compare_trend(load_history(path))
    print(f"\n[history] appended to {path}")
    print(verdict.render())
    if verdict.status == "regressed":
        # Soft: wall-clock is hostage to host load; a single slow run warns.
        print("::warning::bench trajectory regressed (wall-clock, soft)")
    elif verdict.status == "counted_drift":
        for reg in verdict.regressions:
            if reg.get("kind") == "counted":
                violations.append(
                    f"history {reg['key']}: io_ops={reg['latest']} drifted "
                    f"from trajectory {reg['seen']}"
                )


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true", help="small inputs (CI smoke)")
    ap.add_argument("--out", default="BENCH_PERF.json", help="output JSON path")
    ap.add_argument(
        "--check-regression",
        metavar="BASELINE",
        default=None,
        help="compare wall times against a baseline BENCH_PERF.json (soft)",
    )
    ap.add_argument(
        "--history",
        metavar="PATH",
        default=os.path.join(os.path.dirname(__file__), "BENCH_HISTORY.jsonl"),
        help="bench-trajectory history file (JSONL, appended every run)",
    )
    ap.add_argument(
        "--no-history",
        action="store_true",
        help="do not append to or judge against the history file",
    )
    args = ap.parse_args(argv)

    results, violations = run_suite(args.quick)
    with open(args.out, "w") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"\nwrote {args.out}")
    print(
        "headline: sort seq fast-path (vector records) speedup = "
        f"{results['headline']['speedup']}x"
    )

    if not args.no_history:
        update_history(results, args.history, violations)
    if args.check_regression:
        check_regression(results, args.check_regression)
    if violations:
        print("\nCOUNTED-COST VIOLATIONS (the fast path broke the model):")
        for vline in violations:
            print(f"  {vline}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
