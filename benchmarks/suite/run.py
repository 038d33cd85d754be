"""The benchmark suite: four workloads, end-to-end and per-layer metrics.

Usage (from the repo root)::

    python3 benchmarks/suite/run.py [--seed 3] [--workload NAME] [--out DIR]
                                    [--seconds S] [--trace 0|1] [--smoke]

Without ``--workload`` every workload runs in its own fresh interpreter, one
after the other (closed loop, one client, no threads of the harness's own),
and ``results.json`` plus one ``<workload>.trace.json`` land in ``--out``.
With ``--workload`` the run happens in this interpreter.  ``--trace 0|1`` is
the driver's contract: measure end-to-end metrics only (0) or per-layer
metrics only (1), and print one JSON result object as the last line.

Protocol per workload, the same in every mode: set-up (imports, input from
``--seed``, one untimed warm-up rep) -> timed reps with no observer attached,
at most the workload's R and none that would overrun ``--seconds`` (``wall_s``
is the fastest of them) -> one traced rep under ``Collector(profile=True)`` ->
layer drills.  ``--trace 0``
stops after the timed reps; ``--trace 1`` prints only what follows them.  A
timed rep spans "construct the algorithm object -> ``simulate()`` returns
outputs"; verification, ``gc.collect()`` and scratch removal happen outside it.
Everything is measured from outside the program: nothing under ``src/`` is
touched, and nothing outside the checkout is written (track files go to
``benchmarks/suite/out/scratch/``).  README.md in this directory holds the
metric glossary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import contextmanager
from typing import Any, Iterator

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
DEFAULT_OUT = os.path.join(SUITE_DIR, "out")
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

import oracles  # noqa: E402
from metrics import END_TO_END, PER_LAYER, UNITS  # noqa: E402
from spans import Tracer, duration  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

RESULTS_SCHEMA = 1
SCRATCH_BASE = os.path.join(DEFAULT_OUT, "scratch")
FLUSH_POLICY = (
    "the program's own: file planes fsync every track file at every superstep "
    "barrier; identical on both sides of any comparison"
)


@contextmanager
def private_scratch() -> Iterator[str]:
    """A scratch root inside the checkout for track files, journals and every
    temp dir of the run (one the program leaks shows up there); removed on exit."""
    os.makedirs(SCRATCH_BASE, exist_ok=True)
    root = tempfile.mkdtemp(prefix="em-suite-", dir=SCRATCH_BASE)
    tempfile.tempdir = root
    try:
        yield root
    finally:
        tempfile.tempdir = None
        shutil.rmtree(root, ignore_errors=True)


def scratch_fs() -> str:
    """The type of the file system under the scratch root, e.g. ``ext4``."""
    path, best, fstype = os.path.realpath(SCRATCH_BASE), "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _dev, mount, kind = line.split()[:3]
                covers = path == mount or path.startswith(mount.rstrip("/") + "/")
                if covers and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def host_fingerprint() -> dict[str, Any]:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                "",
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "cpu": cpu,
        "kernel": platform.release(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def summarize(samples: list[float], pick=statistics.median) -> dict[str, Any]:
    """The reported value (the median unless ``pick`` says otherwise), median,
    quartiles, min, max and count; R <= 15, so no tail percentile."""
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {
        "value": pick(samples),
        "median": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "min": min(samples),
        "max": max(samples),
        "n": len(samples),
    }


# -- one workload, in this interpreter -----------------------------------------------


class Bench:
    """Runs verified reps of one workload and keeps the failure tally."""

    def __init__(self, wl: Workload, data: Any, scratch_root: str, tracer: Tracer):
        self.wl = wl
        self.data = data
        self.scratch_root = scratch_root
        self.tracer = tracer
        self.machine = wl.machine_params()
        with tracer.span("oracle:expected_output"):
            self.expected = oracles.expected_output(wl.kind, data)
        self.counted: dict | None = None  # the first rep's counted costs
        self.attempted = 0
        self.failed_labels: set[str] = set()
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failed_labels)

    def fail(self, label: str, problems: list[str]) -> None:
        if problems:
            self.failed_labels.add(label)
            self.failures += [f"{label}: {p}" for p in problems]

    def rep(self, label: str, observer=None, **overrides) -> float | None:
        """One verified engine run; its wall in seconds, or None if it failed."""
        from repro.core import simulate

        knobs = {**self.wl.knobs, **overrides}
        gc.collect()
        leaks = oracles.LeakCheck(self.scratch_root)
        storage_dir = None
        if knobs.get("storage", "memory") != "memory":
            storage_dir = tempfile.mkdtemp(prefix=f"{label}-", dir=self.scratch_root)
        problems: list[str] = []
        outputs = report = None
        with self.tracer.span(f"engine:{label}") as sp:
            try:
                alg = self.wl.make_algorithm(self.data)
                outputs, report = simulate(
                    alg, self.machine, v=self.wl.v, observer=observer,
                    storage_dir=storage_dir, **knobs,
                )
            except Exception as exc:  # a rep that raises is a failed rep
                traceback.print_exc()
                problems.append(f"raised {exc!r}")
        if storage_dir is not None:
            shutil.rmtree(storage_dir, ignore_errors=True)
        if report is not None:
            with self.tracer.span(f"verify:{label}"):
                problems += self.verify(outputs, report)
        outputs = report = alg = None
        problems += leaks.failures()
        self.attempted += 1
        self.fail(label, problems)
        return None if problems else duration(sp)

    def verify(self, outputs: list, report) -> list[str]:
        counted = oracles.counted_ops(report)
        problems = (
            oracles.check_output(self.wl.kind, outputs, self.expected)
            + oracles.check_counted(counted, self.counted)
            + oracles.check_theory(report)
        )
        if self.counted is None:
            self.counted = counted
        return problems

    def timed_reps(self, seconds: float | None) -> list[float]:
        """Walls of the timed reps that passed: at most the workload's R, and
        with a window none that would overrun it (a second rep always runs
        unless the first alone used the window up)."""
        walls: list[float] = []
        started = time.perf_counter()
        for i in range(self.wl.reps):
            if seconds is not None and i > 0:
                elapsed = time.perf_counter() - started
                longest = max(walls, default=elapsed / i)
                if elapsed >= seconds or (i >= 2 and elapsed + longest > seconds):
                    break
            wall = self.rep(f"timed{i}")
            if wall is not None:
                walls.append(wall)
        return walls


def counted_layer_metrics(wl: Workload, c: dict) -> dict[str, float]:
    scan = wl.scan_ops
    return {
        **{f"core.{phase}_scans": c[phase] / scan for phase in oracles.PHASES},
        "core.supersteps": c["supersteps"],
        "core.init_scans": c["init_io_ops"] / scan,
        "core.output_scans": c["output_io_ops"] / scan,
        "core.theorem1_ratio": c["theorem1_ratio"],
        "core.routing.phase1_ops": c["phase1_ops"],
        "core.routing.phase2_ops": c["phase2_ops"],
        "core.routing.message_blocks": c["message_blocks"],
        "core.routing.max_load_ratio": c["max_load_ratio"],
        "core.checkpoint.commits": c["checkpoints"],
        "core.checkpoint.io_scans": c["checkpoint_io_ops"] / scan,
        "bsp.comp_ops": c["comp_ops"],
        "emio.diskarray.records_io": c["records_io"],
    }


def traced_layer_metrics(wl: Workload, collector, profile, counted: dict) -> dict:
    from repro.obs import CATEGORIES

    engine = profile.tracks["engine"]
    totals, counts = engine["totals"], engine["counts"]
    ops = counted["io_ops"] + counted["init_io_ops"] + counted["output_io_ops"]
    snap = collector.metrics.snapshot()
    write_bytes = snap.get("storage/write_bytes", {}).get("value", 0)
    return {
        **{f"profile.{cat}_s": totals.get(cat, 0.0) for cat in CATEGORIES},
        "profile.kernel_share": totals.get("kernel", 0.0) / profile.wall,
        "profile.attributed_share": profile.attributed_fraction(),
        "profile.syscalls": counts.get("syscall_io", 0),
        "profile.syscalls_per_op": counts.get("syscall_io", 0) / ops,
        "profile.serialize_calls": counts.get("serialize", 0),
        "emio.storage.read_bytes": snap.get("storage/read_bytes", {}).get("value", 0),
        "emio.storage.write_bytes": write_bytes,
        "emio.storage.write_amp": write_bytes / (8 * wl.n),
    }


def measure_layers(bench: Bench, wall_s: float) -> tuple[dict, dict | None]:
    """Per-layer metrics and the profile, from one traced rep and the drills.

    ``wall_s`` is the median timed rep: what one more rep is measured against.
    """
    from repro.obs import Collector, build_report

    import drills

    wl, counted = bench.wl, bench.counted
    layers: dict[str, float | None] = counted_layer_metrics(wl, counted)
    profile = None
    collector = Collector(profile=True)
    traced_wall = bench.rep("traced", observer=collector)
    if traced_wall is not None:
        profile = build_report(collector)
        layers.update(traced_layer_metrics(wl, collector, profile, counted))
        layers["obs.trace_overhead"] = traced_wall / wall_s - 1
    bench.attempted += 1
    try:
        with bench.tracer.span("drills"):
            layers.update(
                drills.Drills(
                    wl, bench.data, bench.expected, counted, bench.scratch_root,
                    bench.tracer,
                ).run_all(wall_s, bench.rep)
            )
    except Exception as exc:  # a drill that breaks is a failure, not a crash
        traceback.print_exc()
        bench.fail("drills", [repr(exc)])
    left = sorted(os.listdir(bench.scratch_root))
    if left:
        bench.fail("drills", [f"scratch entries left behind: {left[:4]}"])
    return layers, profile.to_dict() if profile is not None else None


def pick_workload(args) -> Workload:
    wl = WORKLOADS[args.workload]
    return wl.smoke() if args.smoke else wl


def set_up(wl: Workload, seed: int, scratch_root: str, tracer: Tracer):
    """What happens before the first timed rep: the bench and what each part cost.

    ``setup_s`` is the program's imports (numpy came with the harness) +
    input generation + the warm-up rep; the oracle's answer is the harness's
    own cost and stays out.
    """
    with tracer.span("setup:imports") as sp_imports:
        import repro.algorithms  # noqa: F401
        import repro.core  # noqa: F401
    with tracer.span("setup:generate") as sp_generate:
        data = wl.generate(seed)
    bench = Bench(wl, data, scratch_root, tracer)
    warm = bench.rep("warmup")
    parts = {
        "imports": duration(sp_imports),
        "generate": duration(sp_generate),
        "warmup_rep": warm,
    }
    return bench, parts


def run_workload(args) -> tuple[dict[str, Any], dict[str, Any] | None]:
    """The whole protocol for one workload: its result record and its trace."""
    wl = pick_workload(args)
    want_e2e = args.trace in (None, 0)
    want_layers = args.trace in (None, 1)
    tracer = Tracer(wl.name)

    with private_scratch() as scratch_root:
        bench, setup_parts = set_up(wl, args.seed, scratch_root, tracer)
        # A --trace 1 run reports no end-to-end metric: it gives half its window
        # to the traced rep and the drills, and so takes about as long as a
        # --trace 0 run.
        window = args.seconds / 2 if args.seconds and args.trace == 1 else args.seconds
        walls = bench.timed_reps(window)
        # Read before the traced rep, so the observer's memory stays out.
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        counted = bench.counted

        result: dict[str, Any] = {
            "workload": wl.name,
            "why": wl.why,
            "seed": args.seed,
            "scale": "smoke" if args.smoke else "full",
            "seconds": args.seconds,
            "spec": wl.describe(),
        }
        trace = None
        if walls and want_layers:
            layers, profile = measure_layers(bench, statistics.median(walls))
            result["per_layer"] = {m.name: layers.get(m.name) for m in PER_LAYER}
            trace = {
                "workload": wl.name,
                "seed": args.seed,
                "spans": tracer.spans,
                "self_time_s": tracer.self_times(),
                "profile": profile,
            }
        if walls and want_e2e and setup_parts["warmup_rep"] is not None:
            singles = {
                "setup_s": sum(setup_parts.values()),
                "peak_rss_mib": peak_rss_mib,
                "io_scans": counted["io_ops"] / wl.scan_ops,
                "comm_packets": counted["comm_packets"],
                "disk_tracks": counted["disk_tracks"],
                "passed_share": 1 - bench.failed / bench.attempted,
            }
            table = {
                # The fastest rep, not the median: see README.md, "How steady".
                "wall_s": summarize(walls, min),
                "records_per_s": summarize([wl.n / w for w in walls], max),
                **{name: summarize([value]) for name, value in singles.items()},
            }
            result["end_to_end"] = {m.name: table[m.name] for m in END_TO_END}
            result["setup_parts_s"] = setup_parts
        result.update(
            attempted=bench.attempted,
            failed=bench.failed,
            failed_share=bench.failed / bench.attempted,
            failures=bench.failures,
            counted_ops=counted,
        )
        return result, trace


# -- output ----------------------------------------------------------------------------


def print_metrics(result: dict[str, Any]) -> None:
    """Every metric by name, with its unit."""
    print(f"== {result['workload']} (seed {result['seed']}, {result['scale']}, "
          f"scratch on {scratch_fs()}) ==")
    for m in END_TO_END:
        s = result.get("end_to_end", {}).get(m.name)
        if s is None:
            continue
        spread = (f"   [median {s['median']:.6g}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, "
                  f"min {s['min']:.6g}, max {s['max']:.6g}, n={s['n']}]") if s["n"] > 1 else ""
        print(f"{m.name} = {s['value']:.6g} {m.unit}{spread}")
    for m in PER_LAYER:
        if "per_layer" not in result:
            break
        value = result["per_layer"][m.name]
        shown = "n/a" if value is None else f"{value:.6g} {m.unit}"
        print(f"{m.name} = {shown}")
    print(f"attempted = {result['attempted']} reps, failed = {result['failed']}")
    for failure in result["failures"]:
        print(f"FAILED {failure}")


def driver_line(result: dict[str, Any], trace_flag: int) -> str | None:
    """The driver's result object, or None when a metric could not be measured."""
    if trace_flag == 0:
        table = result.get("end_to_end")
        metrics = table and {m.name: table[m.name]["value"] for m in END_TO_END}
    else:
        table = result.get("per_layer")
        # The driver takes numbers only: a metric that does not apply reads 0.
        metrics = table and {m.name: table[m.name] or 0 for m in PER_LAYER}
    if not metrics:
        return None
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": value, "unit": UNITS[name]}
                for name, value in metrics.items()
            },
        }
    )


def write_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def write_results(out: str, seed: int, results: list[dict[str, Any]]) -> str:
    path = os.path.join(out, "results.json")
    write_json(
        path,
        {
            "schema": RESULTS_SCHEMA,
            "seed": seed,
            "scale": results[0]["scale"],
            "seconds": results[0]["seconds"],
            "host": host_fingerprint(),
            "scratch_fs": scratch_fs(),
            "flush_policy": FLUSH_POLICY,
            "workloads": {r["workload"]: r for r in results},
        },
    )
    return path


# -- entry points --------------------------------------------------------------------------


def run_one(args) -> int:
    result, trace = run_workload(args)
    print_metrics(result)
    if trace is not None:
        write_json(os.path.join(args.out, f"{args.workload}.trace.json"), trace)
    if args.result_file:
        write_json(args.result_file, result)
    elif args.trace is None:
        print(f"wrote {write_results(args.out, args.seed, [result])}")
    if args.trace is not None:
        line = driver_line(result, args.trace)
        if line is None:
            print("no timed rep passed: nothing to report", file=sys.stderr)
            return 1
        print(line)
        return 0
    return 1 if result["failed"] else 0


def run_all(args) -> int:
    """Each workload in its own fresh interpreter, one at a time."""
    results = []
    for name in WORKLOADS:
        result_file = os.path.join(args.out, f".{name}.result.json")
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--out", args.out, "--result-file", result_file]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        if args.smoke:
            cmd.append("--smoke")
        proc = subprocess.run(cmd)
        if not os.path.exists(result_file):
            print(f"{name}: exited with {proc.returncode} and no result", file=sys.stderr)
            return 1
        with open(result_file) as fh:
            results.append(json.load(fh))
        os.unlink(result_file)
    print(f"wrote {write_results(args.out, args.seed, results)}")
    return 1 if any(r["failed"] for r in results) else 0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=3, help="input seed (default 3)")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="run only this one")
    ap.add_argument("--out", default=DEFAULT_OUT, help="where results.json goes")
    ap.add_argument("--seconds", type=float, default=None,
                    help="time window for the timed reps (default: the workload's R)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="driver mode: 0 = end-to-end only, 1 = per-layer only")
    ap.add_argument("--smoke", action="store_true", help="n / 64 and R = 2 (self-test)")
    ap.add_argument("--result-file", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    args.out = os.path.abspath(args.out)
    if args.trace is not None and args.workload is None:
        ap.error("--trace needs --workload")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
