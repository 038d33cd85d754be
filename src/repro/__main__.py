"""Command-line interface: run Table 1 algorithms on a described EM machine.

Examples::

    python -m repro sort --n 8192 --disks 4 --block 64
    python -m repro permute --n 4096 --procs 4
    python -m repro listrank --n 2048 --compare-pram
    python -m repro delaunay --n 256 --v 8
    python -m repro machines --n 4096          # one algorithm, many machines

Every run prints the counted model costs (parallel I/O operations, packets,
computation) and the paper's theoretical bound for comparison.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import workloads
from .core.backend import BACKENDS
from .core.engine import RunConfig
from .core.simulator import pick_v, simulate
from .emio.storage import STORAGE_KINDS
from .params import MachineParams


def _observer(args):
    """The run's shared Collector, or None when no telemetry flag was given.

    Created once per CLI invocation (cached on ``args``) so a multi-run
    subcommand like ``machines`` merges every run into one timeline.
    """
    profile = getattr(args, "profile", False) is True or bool(
        getattr(args, "profile_out", None)
    )
    if not (args.trace_out or args.jsonl_out or args.metrics or profile):
        return None
    obs = getattr(args, "_collector", None)
    if obs is None:
        from .obs import Collector

        obs = args._collector = Collector(profile=profile)
    return obs


def _events(args):
    """The run's RunEventLog, or None without ``--events`` (cached on args)."""
    path = getattr(args, "events", None)
    if not path:
        return None
    log = getattr(args, "_event_log", None)
    if log is None:
        from .obs import RunEventLog

        log = args._event_log = RunEventLog(path)
    return log


def _export_obs(args) -> None:
    obs = getattr(args, "_collector", None)
    if obs is None:
        return
    if args.trace_out:
        from .obs import write_chrome_trace

        n = write_chrome_trace(obs, args.trace_out)
        print(f"wrote {n} trace events to {args.trace_out} "
              "(load in https://ui.perfetto.dev)")
    if args.jsonl_out:
        from .obs import write_jsonl

        n = write_jsonl(obs, args.jsonl_out)
        print(f"wrote {n} JSONL records to {args.jsonl_out}")
    if args.metrics:
        print("metrics:")
        for name, data in sorted(obs.metrics.snapshot().items()):
            kind = data["type"]
            if kind == "histogram":
                print(f"  {name:<28} count={data['count']} sum={data['sum']:g} "
                      f"min={data['min']} max={data['max']}")
            else:
                print(f"  {name:<28} {data['value']:g}")
    if obs.profile.enabled:
        import json

        from .obs import build_report

        meta = {
            k: v
            for k, v in (
                ("command", getattr(args, "command", None)),
                ("n", getattr(args, "n", None)),
                ("p", getattr(args, "procs", None)),
                ("backend", getattr(args, "backend", None)),
                ("storage", getattr(args, "storage", None)),
            )
            if v is not None
        }
        report = build_report(obs, meta=meta)
        print(report.render())
        out = getattr(args, "profile_out", None)
        if out:
            with open(out, "w") as fh:
                json.dump(report.to_dict(), fh, indent=2)
                fh.write("\n")
            print(f"wrote profile report to {out}")


def _machine(args, mu: int) -> MachineParams:
    M = args.memory if args.memory else max(2 * mu, args.disks * args.block)
    return MachineParams(
        p=args.procs,
        M=M,
        D=args.disks,
        B=args.block,
        b=max(args.block, args.packet or args.block),
        G=args.G,
    )


def _resolve_v(args, make=None) -> None:
    """Fill in ``--v`` where it was not given: the smallest admissible ``v``
    on the ``--memory`` machine (:func:`~repro.core.simulator.pick_v`), or 8
    where the machine is sized from the algorithm instead."""
    if args.v is not None:
        return
    if make is None or args.memory is None:
        args.v = 8
        return
    args.v = pick_v(make, _machine(args, args.memory), args.n)
    if args.v is None:
        raise SystemExit(f"repro: no v up to n={args.n} fits M={args.memory}")


def _run(args, algorithm, machine, **kw):
    """``simulate`` with the CLI's run flags and observability flags applied."""
    config = RunConfig(
        seed=args.seed,
        backend=args.backend,
        storage=getattr(args, "storage", "memory"),
        storage_dir=getattr(args, "storage_dir", None),
    )
    return simulate(
        algorithm, machine, config=config,
        observer=_observer(args), events=_events(args), **kw,
    )


def _report(name: str, report, n: int) -> None:
    machine = report.params.machine
    led = report.ledger
    scan = max(n / machine.io_bandwidth, 1e-9)
    print(f"{name}: v={report.params.bsp.v}, k={report.params.k}, "
          f"p={machine.p}, D={machine.D}, B={machine.B}, M={machine.M}")
    print(f"  compound supersteps (lambda) : {report.num_supersteps}")
    print(f"  parallel I/O operations      : {report.io_ops} "
          f"({report.io_ops / scan:.1f} scans of the data)")
    print(f"  theoretical bound v*mu*lambda/(p*B*D) : "
          f"{report.theoretical_io_bound():.0f}")
    bsp = report.params.bsp
    print(f"  largest context / inbox      : {report.mu_used} of mu={bsp.mu} / "
          f"{report.gamma_used} of gamma={bsp.gamma} records")
    print(f"  communication packets        : {led.total_comm_packets}")
    print(f"  computation operations       : {led.total_comp:.0f}")
    print(f"  model time (G={machine.G:g}, g={machine.g:g}, L={machine.L:g}) : "
          f"{led.total_time():.0f}")
    print(f"  Lemma 2 max disk deviation   : {report.max_load_ratio:.2f}")


def cmd_sort(args) -> int:
    from .algorithms import CGMSampleSort

    data = workloads.uniform_keys(args.n, seed=args.seed)
    _resolve_v(args, lambda v: CGMSampleSort(data, v))
    alg = CGMSampleSort(data, args.v)
    out, report = _run(
        args, CGMSampleSort(data, args.v), _machine(args, alg.context_size()),
        v=args.v,
    )
    flat = [x for part in out for x in part]
    assert flat == sorted(data)
    _report(f"sorted {args.n} keys", report, args.n)
    if args.compare_baselines:
        from .baselines import EMMergeSort, SibeynKaufmannSimulation

        # The rivals are sequential by definition: same machine, one processor.
        machine = _machine(args, alg.context_size()).with_(p=1)
        _, st = EMMergeSort(machine).sort(data)
        print(f"  baseline EM mergesort        : {st.io_ops} I/O ops")
        _, sk = SibeynKaufmannSimulation(
            CGMSampleSort(data, args.v), args.v, machine
        ).run()
        print(f"  baseline Sibeyn-Kaufmann sim : {sk.io_ops} I/O ops")
    return 0


def cmd_permute(args) -> int:
    from .algorithms import CGMPermutation

    vals = list(range(args.n))
    perm = workloads.random_permutation(args.n, seed=args.seed)
    _resolve_v(args, lambda v: CGMPermutation(vals, perm, v))
    alg = CGMPermutation(vals, perm, args.v)
    out, report = _run(
        args, CGMPermutation(vals, perm, args.v), _machine(args, alg.context_size()),
        v=args.v,
    )
    y = [x for part in out for x in part]
    assert all(y[perm[i]] == vals[i] for i in range(args.n))
    _report(f"permuted {args.n} records", report, args.n)
    if args.compare_baselines:
        from .baselines import NaiveEMPermute

        machine = _machine(args, alg.context_size()).with_(p=1)
        _, st = NaiveEMPermute(machine).permute(vals, perm)
        print(f"  baseline naive permutation   : {st.io_ops} I/O ops")
    return 0


def cmd_transpose(args) -> int:
    from .algorithms import CGMMatrixTranspose

    r = args.rows or int(args.n**0.5)
    c = args.n // r
    entries = workloads.matrix_entries(r, c, seed=args.seed)
    _resolve_v(args, lambda v: CGMMatrixTranspose(entries, r, c, v))
    alg = CGMMatrixTranspose(entries, r, c, args.v)
    _, report = _run(
        args, CGMMatrixTranspose(entries, r, c, args.v),
        _machine(args, alg.context_size()), v=args.v,
    )
    _report(f"transposed a {r}x{c} matrix", report, r * c)
    return 0


def cmd_listrank(args) -> int:
    from .algorithms.graphs import CGMListRanking

    succ = workloads.random_linked_list(args.n, seed=args.seed)
    _resolve_v(args, lambda v: CGMListRanking(succ, v))
    alg = CGMListRanking(succ, args.v)
    _, report = _run(
        args, CGMListRanking(succ, args.v), _machine(args, alg.context_size()),
        v=args.v,
    )
    _report(f"ranked a {args.n}-node list", report, args.n)
    if args.compare_pram:
        from .baselines import PRAMListRanking

        machine = _machine(args, alg.context_size()).with_(p=1)
        _, st = PRAMListRanking(machine).rank(succ)
        print(f"  baseline PRAM simulation     : {st.io_ops} I/O ops "
              f"({st.io_ops / max(report.io_ops, 1):.1f}x)")
    return 0


def cmd_cc(args) -> int:
    from .algorithms.graphs import CGMConnectedComponents

    nv = args.n
    edges = workloads.random_graph_edges(nv, 2 * nv, seed=args.seed)
    _resolve_v(args, lambda v: CGMConnectedComponents(nv, edges, v))
    alg = CGMConnectedComponents(nv, edges, args.v)
    out, report = _run(
        args, CGMConnectedComponents(nv, edges, args.v),
        _machine(args, alg.context_size()), v=args.v,
    )
    ncomp = len({lbl for part in out for _vtx, lbl in part})
    _report(f"connected components (V={nv}, E={2 * nv}): {ncomp} found",
            report, 3 * nv)
    return 0


def cmd_hull(args) -> int:
    from .algorithms.geometry import CGMConvexHull

    pts = workloads.random_points(args.n, seed=args.seed)
    _resolve_v(args, lambda v: CGMConvexHull(pts, v))
    alg = CGMConvexHull(pts, args.v)
    out, report = _run(
        args, CGMConvexHull(pts, args.v), _machine(args, alg.context_size()),
        v=args.v,
    )
    _report(f"2D hull of {args.n} points: {len(out[0])} vertices", report, args.n)
    return 0


def cmd_delaunay(args) -> int:
    from .algorithms.geometry import CGMDelaunay

    pts = workloads.random_points(args.n, seed=args.seed)
    _resolve_v(args, lambda v: CGMDelaunay(pts, v))
    alg = CGMDelaunay(pts, args.v)
    out, report = _run(
        args, CGMDelaunay(pts, args.v), _machine(args, alg.context_size()),
        v=args.v,
    )
    ntris = sum(len(part) for part in out)
    _report(f"Delaunay triangulation of {args.n} points: {ntris} triangles",
            report, args.n)
    return 0


def cmd_conform(args) -> int:
    """Differential conformance fuzzing (see :mod:`repro.conform`)."""
    from .conform import ReproCase, fuzz, run_case
    from .conform.strategies import DEFAULT, QUICK

    if args.repro:
        case = ReproCase.load(args.repro)
        print(f"replaying {args.repro}: oracle={case.oracle}")
        print(f"  config: {case.config.describe()}")
        result = run_case(case.config)
        if result.passed:
            print("  case no longer fails (all oracles passed)")
            return 0
        for failure in result.failures:
            print(f"  {failure}")
        reproduced = any(f.oracle == case.oracle for f in result.failures)
        print(
            f"  reproduced the recorded {case.oracle!r} failure"
            if reproduced
            else f"  failed, but not on the recorded oracle {case.oracle!r}"
        )
        return 1

    profile = QUICK if args.profile == "quick" else DEFAULT
    stats = fuzz(
        seed=args.seed,
        budget=args.budget,
        time_limit=args.time_limit,
        profile=profile,
        out_dir=args.out_dir,
        shrink_budget=args.shrink_budget,
        log=print if args.verbose else None,
    )
    note = " (time limit reached)" if stats.time_limited else ""
    print(
        f"conform: seed={stats.seed} ran {stats.cases_run}/{stats.budget} "
        f"cases in {stats.elapsed:.1f}s{note}"
    )
    for name, count in sorted(stats.checks.items()):
        print(f"  {name:<24} {count} checks")
    if stats.passed:
        print("  all oracles passed")
        return 0
    for repro in stats.failures:
        print(f"  FAIL [{repro.oracle}] case {repro.case_index}: {repro.message}")
        print(f"       shrunk config: {repro.config.describe()}")
    return 1


def cmd_bakeoff(args) -> int:
    """Counted-cost competitor bake-off (see :mod:`repro.bakeoff`)."""
    import json

    from .bakeoff import format_table, run_sweep, validate_bakeoff_dict

    payload = run_sweep(
        quick=args.quick,
        backend=args.backend,
        storage=args.storage,
        p_cgm=args.procs,
    )
    validate_bakeoff_dict(payload)
    headers = ["task", "n", "M", "B", "D", "mode"] + list(payload["engines"])
    rows = format_table(payload)
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) for i, h in enumerate(headers)
    ]
    print("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    for r in rows:
        print("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    if args.out:
        with open(args.out, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"wrote {args.out}")
    print(
        f"bakeoff: {payload['configs']} configs x {len(payload['tasks'])} "
        f"tasks, backend={payload['backend']} storage={payload['storage']} "
        f"p_cgm={payload['p_cgm']}"
    )
    if payload["violations"] or payload["mismatches"]:
        for msg in payload["mismatches"]:
            print(f"  OUTPUT MISMATCH: {msg}")
        for msg in payload["violations"]:
            print(f"  BOUND VIOLATION: {msg}")
        return 1
    print("  all outputs byte-identical to reference; zero bound violations")
    return 0


def cmd_crashcheck(args) -> int:
    """Exhaustive crash-point exploration (see :mod:`repro.crashcheck`)."""
    import tempfile

    from .conform.config import ConformConfig, WORKLOADS
    from .crashcheck import explore

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r} (choose from {WORKLOADS})",
              file=sys.stderr)
        return 2
    if args.storage == "memory":
        print("crashcheck injects byte-level damage: pass --storage file "
              "or --storage mmap", file=sys.stderr)
        return 2
    cfg = ConformConfig(
        workload=args.workload, n=args.n, v=args.v, data_seed=args.seed,
    )
    machine = _machine(args, cfg.algorithm().context_size())
    scratch = args.dir or tempfile.mkdtemp(prefix="repro-crashcheck-")
    print(f"crashcheck: {args.workload} n={args.n} v={args.v} "
          f"p={machine.p} D={machine.D} B={machine.B} M={machine.M} "
          f"storage={args.storage} backend={args.backend}")
    print(f"  scratch root: {scratch}")
    result = explore(
        cfg.algorithm, machine, args.v, scratch,
        seed=args.seed, crash_seed=args.crash_seed,
        backend=args.backend, storage=args.storage,
        observer=_observer(args),
        log=print if args.verbose else None,
    )
    actions = {}
    for o in result.outcomes:
        kind = o.action.split("@")[0]
        actions[kind] = actions.get(kind, 0) + 1
    summary = ", ".join(f"{n} {k}" for k, n in sorted(actions.items()))
    print(f"  {result.checkpoints} checkpoints, {result.total_points} crash "
          f"points explored ({summary}), "
          f"{result.extents_verified} extents scrub-verified")
    if result.passed:
        print("  every crash point recovered to the golden outputs and costs")
        if args.dir is None:
            import shutil

            shutil.rmtree(scratch, ignore_errors=True)
        return 0
    for o in result.failures:
        print(f"  FAIL point {o.point} [{o.stage}] {o.action}: {o.detail}")
    print(f"  storage roots kept for post-mortem under {scratch}")
    return 1


#: Workloads ``repro perf report`` can run instrumented.
_PERF_WORKLOADS = {}  # populated after the cmd_* definitions below


def cmd_perf_report(args) -> int:
    """Print a wall-clock attribution breakdown (see DESIGN.md §11).

    Either replays a saved ``--profile-out`` JSON (``--load``) or runs one
    instrumented workload; ``--trace-out`` additionally emits the
    category-colored Perfetto trace of the same run.
    """
    if args.load:
        import json

        from .obs import ProfileReport

        try:
            with open(args.load) as fh:
                report = ProfileReport.from_dict(json.load(fh))
        except (OSError, ValueError) as exc:
            # JSONDecodeError and a failed schema check are both ValueErrors.
            reason = getattr(exc, "strerror", None) or exc
            print(f"perf report: cannot load {args.load}: {reason}",
                  file=sys.stderr)
            return 2
        print(report.render())
        return 0
    args.profile = True  # the attribution table is the whole point
    return _PERF_WORKLOADS[args.workload](args)


def cmd_watch(args) -> int:
    """Tail a ``--events`` JSONL file, one human line per event."""
    from .obs import tail_events
    from .obs.live import format_event

    if not (args.follow or os.path.exists(args.file)):
        print(f"watch: {args.file}: no such file (--follow waits for it)",
              file=sys.stderr)
        return 2
    try:
        for ev in tail_events(
            args.file, follow=args.follow, timeout=args.timeout
        ):
            print(format_event(ev), flush=True)
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    return 0


def cmd_machines(args) -> int:
    from .algorithms import CGMPermutation

    vals = list(range(args.n))
    perm = workloads.random_permutation(args.n, seed=args.seed)
    _resolve_v(args)
    mu = CGMPermutation(vals, perm, args.v).context_size()
    print(f"permutation of n={args.n} on four machines (same algorithm):\n")
    print(f"{'machine':<30}{'io_ops':>8}{'packets':>9}{'model time':>12}")
    for name, p, D, B in (
        ("laptop    p=1 D=1 B=32", 1, 1, 32),
        ("workstn   p=1 D=4 B=64", 1, 4, 64),
        ("diskarray p=1 D=8 B=128", 1, 8, 128),
        ("cluster   p=4 D=2 B=64", 4, 2, 64),
    ):
        machine = MachineParams(p=p, M=max(2 * mu, D * B), D=D, B=B, b=B, G=args.G)
        _, rep = _run(args, CGMPermutation(vals, perm, args.v), machine, v=args.v)
        print(f"{name:<30}{rep.io_ops:>8}{rep.ledger.total_comm_packets:>9}"
              f"{rep.ledger.total_time():>12.0f}")
    return 0


_PERF_WORKLOADS.update(
    sort=cmd_sort,
    permute=cmd_permute,
    transpose=cmd_transpose,
    listrank=cmd_listrank,
    cc=cmd_cc,
)


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` command line: every subcommand and its flags."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run coarse-grained parallel algorithms as external-memory "
        "algorithms (Dehne-Dittrich-Hutchinson simulation).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=4096, help="problem size")
        p.add_argument("--v", type=int, default=None,
                       help="virtual processors (default: the smallest v whose "
                            "contexts fit --memory, or 8 without it)")
        p.add_argument("--procs", "-p", type=int, default=1, help="real processors")
        p.add_argument("--disks", "-D", type=int, default=4, help="disks per processor")
        p.add_argument("--block", "-B", type=int, default=64, help="disk block size (records)")
        p.add_argument("--packet", "-b", type=int, default=None, help="router packet size")
        p.add_argument("--memory", "-M", type=int, default=None,
                       help="memory per processor (default: 2 contexts)")
        p.add_argument("--G", type=float, default=1.0, help="I/O cost coefficient")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--backend", choices=BACKENDS, default="inline",
                       help="where the real processors run: in-process or one "
                       "worker process each (at p = 1 too)")
        p.add_argument("--trace-out", metavar="FILE", default=None,
                       help="write a Chrome trace-event file (Perfetto-loadable)")
        p.add_argument("--jsonl-out", metavar="FILE", default=None,
                       help="write the raw telemetry as JSON lines")
        p.add_argument("--metrics", action="store_true",
                       help="print the run's metrics registry")
        p.add_argument("--storage", choices=STORAGE_KINDS,
                       default="memory",
                       help="block-storage plane backing the simulated disks "
                            "(file/mmap run truly out-of-core; outputs and "
                            "ledgers are identical to memory)")
        p.add_argument("--storage-dir", metavar="DIR", default=None,
                       help="directory for track files on non-memory planes "
                            "(default: a private tempdir removed after the run)")
        p.add_argument("--profile", action="store_true",
                       help="collect the wall-clock attribution profile and "
                            "print the breakdown table after the run "
                            "(counted costs and outputs are unchanged)")
        p.add_argument("--profile-out", metavar="FILE", default=None,
                       help="save the profile report as JSON (implies the "
                            "profiler; replay with 'repro perf report --load')")
        p.add_argument("--events", metavar="FILE", default=None,
                       help="stream run/superstep lifecycle events to FILE as "
                            "line-flushed JSONL ('repro watch FILE' tails it)")

    for name, fn, extra in (
        ("sort", cmd_sort, ["--compare-baselines"]),
        ("permute", cmd_permute, ["--compare-baselines"]),
        ("transpose", cmd_transpose, ["--rows"]),
        ("listrank", cmd_listrank, ["--compare-pram"]),
        ("cc", cmd_cc, []),
        ("hull", cmd_hull, []),
        ("delaunay", cmd_delaunay, []),
        ("machines", cmd_machines, []),
    ):
        p = sub.add_parser(name)
        common(p)
        for flag in extra:
            if flag == "--rows":
                p.add_argument(flag, type=int, default=None)
            else:
                p.add_argument(flag, action="store_true")
        p.set_defaults(func=fn)

    p = sub.add_parser(
        "conform",
        help="differential conformance fuzzing of randomized configurations",
    )
    p.add_argument("--seed", type=int, default=0, help="fuzzer seed")
    p.add_argument("--budget", type=int, default=100,
                   help="number of random configurations to run")
    p.add_argument("--time-limit", type=float, default=None, metavar="SECONDS",
                   help="stop drawing new cases after this much wall-clock")
    p.add_argument("--repro", metavar="CASE.json", default=None,
                   help="replay a serialized ReproCase instead of fuzzing")
    p.add_argument("--out-dir", default="conform-cases",
                   help="directory for failing ReproCase JSON files")
    p.add_argument("--profile", choices=("default", "quick"), default="default",
                   help="strategy profile (quick: small configs, no workers)")
    p.add_argument("--shrink-budget", type=int, default=80,
                   help="max verification runs the shrinker may spend")
    p.add_argument("--verbose", action="store_true",
                   help="print every case as it runs")
    p.set_defaults(func=cmd_conform, trace_out=None, jsonl_out=None,
                   metrics=False)

    p = sub.add_parser(
        "bakeoff",
        help="counted-cost competitor bake-off: modern PDM sorters and the "
             "buffer tree vs the simulated CGM engine on identical machines",
    )
    p.add_argument("--quick", action="store_true",
                   help="run the small CI subset of the sweep")
    p.add_argument("--backend", choices=BACKENDS,
                   default="inline",
                   help="execution backend for the CGM side")
    p.add_argument("--storage", choices=STORAGE_KINDS,
                   default="memory",
                   help="storage plane for every engine (counted-cost "
                        "invisible)")
    p.add_argument("--procs", type=int, default=1,
                   help="real processors for the CGM side (competitors are "
                        "sequential by definition)")
    p.add_argument("--out", metavar="FILE", default=None,
                   help="write the BENCH_BAKEOFF JSON payload here")
    p.set_defaults(func=cmd_bakeoff, trace_out=None, jsonl_out=None,
                   metrics=False)

    p = sub.add_parser(
        "crashcheck",
        help="crash at every fsync/rename boundary of a checkpointed run "
             "and verify each recovery against the golden outputs",
    )
    common(p)
    p.set_defaults(func=cmd_crashcheck, n=64, v=4, block=16,
                   storage="file")
    p.add_argument("--workload", default="sort",
                   help="conformance workload to explore (default: sort)")
    p.add_argument("--crash-seed", type=int, default=7,
                   help="seed of the injected byte damage (torn cut points, "
                        "which pre-fsync writes are lost)")
    p.add_argument("--dir", metavar="DIR", default=None,
                   help="scratch root for the per-point storage dirs "
                        "(default: a fresh temp directory, kept on failure)")
    p.add_argument("--verbose", action="store_true",
                   help="print every crash point as it is explored")

    p = sub.add_parser(
        "perf",
        help="wall-clock attribution reports",
    )
    perf_sub = p.add_subparsers(dest="perf_command", required=True)

    p = perf_sub.add_parser(
        "report",
        help="run one instrumented workload and print where the wall-clock "
             "went (or --load a saved report); --trace-out adds the "
             "category-colored Perfetto trace",
    )
    common(p)
    p.add_argument("--workload", choices=sorted(_PERF_WORKLOADS),
                   default="sort",
                   help="workload to run instrumented (default: sort)")
    p.add_argument("--load", metavar="REPORT.json", default=None,
                   help="print a saved --profile-out report instead of running")
    p.set_defaults(func=cmd_perf_report, compare_baselines=False,
                   compare_pram=False, rows=None)

    p = sub.add_parser(
        "watch",
        help="tail a --events JSONL file, one human line per event",
    )
    p.add_argument("file", help="event log written by --events")
    p.add_argument("--follow", "-f", action="store_true",
                   help="keep polling for new events until run_finished")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="with --follow, stop after this long without growth")
    p.set_defaults(func=cmd_watch, trace_out=None, jsonl_out=None,
                   metrics=False)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    rc = args.func(args)
    _export_obs(args)
    log = getattr(args, "_event_log", None)
    if log is not None:
        log.close()
        print(f"wrote run events to {log.path}")
    return rc


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # Downstream pager/head closed the pipe (e.g. `repro watch ... |
        # head`): exit quietly, redirecting stdout so the interpreter's
        # shutdown flush doesn't raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
