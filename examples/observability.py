#!/usr/bin/env python3
"""Observability walkthrough — spans, metrics, and a Perfetto-loadable trace.

Attaches a telemetry :class:`~repro.obs.Collector` to a run of the generated
EM sort, then:

* walks the span tree (superstep -> per-phase children with counted I/O),
* prints the run metrics (context-cache hit rate, Lemma 2 load-ratio
  histogram, per-superstep I/O distribution),
* exports a Chrome trace-event file to load in https://ui.perfetto.dev and
  a JSONL event log for jq/pandas,
* re-runs on the p=2 parallel engine with the process backend to show the
  merged multi-processor timeline (one track per real processor).

Unlike ``IOTrace`` (examples/io_anatomy.py), the observer never hooks the
disk arrays' data plane: counted costs and outputs are byte-identical with
and without it, and the fast path stays enabled.

Run:  python examples/observability.py
"""

from repro import MachineParams
from repro.algorithms import CGMSampleSort
from repro.core.simulator import simulate
from repro.obs import Collector, write_chrome_trace, write_jsonl
from repro.workloads import uniform_keys


def main() -> None:
    n, v = 4096, 8
    data = uniform_keys(n, seed=3)
    machine = MachineParams(p=1, M=1 << 18, D=4, B=64, b=64)

    # --- (a) an observed sequential run -------------------------------------
    # No knob passed: in the heap, fast_io / context_cache are on by default.
    obs = Collector()
    out, report = simulate(
        CGMSampleSort(data, v), machine, v=v, seed=1, observer=obs,
    )
    assert [x for part in out for x in part] == sorted(data)

    print(f"observed sort of {n} keys: {len(obs.spans)} spans, "
          f"{len(obs.samples)} counter samples\n")

    print("span tree (wall-clock ms, counted I/O ops per span):")
    tops = [i for i, s in enumerate(obs.spans) if s.parent is None]
    for i in tops:
        _print_span(obs, i, depth=1)
    print()

    print("metrics:")
    snap = obs.metrics.snapshot()
    hits = snap["ctx_cache/hits"]["value"]
    misses = snap["ctx_cache/misses"]["value"]
    print(f"  context-cache hit rate  : {hits}/{hits + misses} loads")
    h = snap["lemma2_load_ratio"]
    print(f"  Lemma 2 load ratio      : max {h['max']:.2f} over {h['count']} "
          f"supersteps (log2 buckets {h['buckets']})")
    h = snap["superstep_io_ops"]
    print(f"  I/O ops per superstep   : min {h['min']}, max {h['max']}, "
          f"mean {h['sum'] / h['count']:.0f}")
    print()

    nev = write_chrome_trace(obs, "sort_trace.json")
    nln = write_jsonl(obs, "sort_run.jsonl")
    print(f"wrote sort_trace.json ({nev} events) - load it in "
          "https://ui.perfetto.dev")
    print(f"wrote sort_run.jsonl ({nln} lines) - one JSON object per "
          "span/sample/metric\n")

    # --- (b) a merged p=2 process-backend timeline ---------------------------
    obs2 = Collector()
    simulate(
        CGMSampleSort(data, v), machine.with_(p=2), v=v, seed=1,
        backend="process", observer=obs2,
    )
    procs = sorted({s.proc for s in obs2.spans if s.proc is not None})
    tx = obs2.metrics.snapshot().get("backend/tx_bytes", {}).get("value", 0)
    rx = obs2.metrics.snapshot().get("backend/rx_bytes", {}).get("value", 0)
    print(f"p=2 process backend: {len(obs2.spans)} spans merged from the "
          f"engine + workers {procs}")
    print(f"  pipe traffic: {tx} bytes to workers, {rx} bytes back")
    nev = write_chrome_trace(obs2, "sort_trace_p2.json")
    print(f"wrote sort_trace_p2.json ({nev} events) - one Perfetto track per "
          "real processor")


def _print_span(obs: Collector, i: int, depth: int, max_children: int = 6) -> None:
    s = obs.spans[i]
    attrs = "".join(f" {k}={v}" for k, v in s.attrs.items())
    print(f"  {'  ' * depth}{s.name:<16} {s.duration * 1e3:7.2f} ms{attrs}")
    kids = obs.children_of(i)
    for j in kids[:max_children]:
        _print_span(obs, j, depth + 1)
    if len(kids) > max_children:
        print(f"  {'  ' * (depth + 1)}... {len(kids) - max_children} more")


if __name__ == "__main__":
    main()
