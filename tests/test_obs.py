"""Observability layer tests: spans, metrics, worker merge, exporters, golden
non-interference.

The load-bearing invariant is the last one: ``simulate(..., observer=...)``
may change *nothing* the model counts — outputs, ledgers, routing stats,
reports — at any p, on any backend, fast or reference data plane, and it
must not force the arrays off the fast data plane (unlike ``IOTrace.attach``).
"""

import dataclasses
import json

import pytest

from repro.algorithms.sorting import CGMSampleSort
from repro.core.checkpoint import freeze
from repro.core import ParallelEMSimulation
from repro.core.simulator import build_params, simulate
from repro.core.stats import FaultReport, PhaseBreakdown
from repro.obs import (
    NULL_OBSERVER,
    Collector,
    MetricsRegistry,
    chrome_trace,
    read_jsonl,
    validate_chrome_trace,
    validate_trace_file,
    write_chrome_trace,
    write_jsonl,
)
from repro.params import MachineParams
from repro.workloads import uniform_keys

from .test_fastpath_golden import WORKLOADS, build


def make_sim(p=2, n=384, v=8, seed=0, **kwargs):
    alg = CGMSampleSort(uniform_keys(n, seed=7), v=v)
    machine = MachineParams(p=p, M=1 << 18, D=4, B=16, b=32)
    params = build_params(alg, machine, v=v)
    return ParallelEMSimulation(alg, params, seed=seed, **kwargs)


# -- metrics registry ---------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram(self):
        mx = MetricsRegistry()
        mx.counter("c").inc()
        mx.counter("c").inc(4)
        mx.gauge("g").set(2.5)
        for v in (1, 3, 8):
            mx.histogram("h").record(v)
        snap = mx.snapshot()
        assert snap["c"] == {"type": "counter", "value": 5}
        assert snap["g"] == {"type": "gauge", "value": 2.5}
        h = snap["h"]
        assert h["count"] == 3 and h["sum"] == 12 and h["min"] == 1 and h["max"] == 8
        assert sum(h["buckets"].values()) == 3

    def test_histogram_buckets_are_log2(self):
        mx = MetricsRegistry()
        h = mx.histogram("h")
        for v in (0, 0.5, 1, 2, 3, 4):
            h.record(v)
        # 0 and 0.5 land in bucket 0; 1 in [1,2); 2,3 in [2,4); 4 in [4,8).
        assert h.buckets == {0: 2, 1: 1, 2: 2, 3: 1}

    def test_kind_mismatch_raises(self):
        mx = MetricsRegistry()
        mx.counter("x")
        with pytest.raises(TypeError, match="is a Counter"):
            mx.gauge("x")

    def test_merge_snapshot_accumulates(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(2)
        a.histogram("h").record(5)
        b.counter("c").inc(3)
        b.histogram("h").record(9)
        b.gauge("g").set(7)
        a.merge_snapshot(b.snapshot())
        snap = a.snapshot()
        assert snap["c"]["value"] == 5
        assert snap["g"]["value"] == 7
        assert snap["h"]["count"] == 2 and snap["h"]["max"] == 9

    def test_merge_snapshot_prefix(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        b.counter("c").inc(1)
        a.merge_snapshot(b.snapshot(), prefix="p3/")
        assert a.snapshot() == {"p3/c": {"type": "counter", "value": 1}}

    def test_null_observer_is_inert_and_shared(self):
        assert NULL_OBSERVER.enabled is False
        sp = NULL_OBSERVER.span("anything", x=1)
        with sp as s:
            s.add(io_ops=3)
        NULL_OBSERVER.sample("disk0/ops", 5)
        NULL_OBSERVER.metrics.counter("c").inc()
        NULL_OBSERVER.metrics.histogram("h").record(1)
        # One shared instrument, no state anywhere.
        assert NULL_OBSERVER.metrics.counter("a") is NULL_OBSERVER.metrics.gauge("b")
        assert NULL_OBSERVER.span("x") is NULL_OBSERVER.span("y")


# -- span collection ----------------------------------------------------------------


class TestSpans:
    def test_nesting_records_parents(self):
        c = Collector()
        with c.span("outer", step=0):
            with c.span("inner") as sp:
                sp.add(io_ops=7)
            with c.span("inner2"):
                pass
        assert [s.name for s in c.spans] == ["outer", "inner", "inner2"]
        assert [s.parent for s in c.spans] == [None, 0, 0]
        assert c.spans[1].attrs == {"io_ops": 7}
        assert all(s.t1 is not None and s.t1 >= s.t0 for s in c.spans)
        assert c.children_of(0) == [1, 2]

    def test_exception_unwinds_stack(self):
        c = Collector()
        with pytest.raises(RuntimeError):
            with c.span("outer"):
                with c.span("mid"):
                    c.span("abandoned")  # opened, never exited
                    raise RuntimeError("boom")
        # The raise closed outer; the stack is empty for the next span.
        assert c._stack == []
        with c.span("after"):
            pass
        assert c.spans[-1].parent is None

    def test_drain_resets_and_ingest_remaps(self):
        w = Collector(proc=1)
        with w.span("superstep", step=0):
            with w.span("compute"):
                pass
        w.sample("disk0/ops", 4)
        w.metrics.counter("c").inc(2)
        payload = w.drain()
        assert w.spans == [] and w.samples == [] and len(w.metrics) == 0

        eng = Collector()
        with eng.span("engine_root"):
            pass
        eng.ingest(payload)
        assert [s.name for s in eng.spans] == ["engine_root", "superstep", "compute"]
        assert eng.spans[2].parent == 1  # remapped past the engine's span
        assert eng.spans[1].proc == 1 and eng.spans[2].proc == 1
        assert eng.samples == [(payload["samples"][0][0], "p1/disk0/ops", 4)]
        assert eng.metrics.snapshot()["p1/c"]["value"] == 2

    def test_total_time_and_by_name(self):
        c = Collector()
        for _ in range(3):
            with c.span("phase"):
                pass
        assert len(c.by_name("phase")) == 3
        assert c.total_time("phase") >= 0.0


# -- report key completeness (satellite) --------------------------------------------


class TestReportKeys:
    def test_fault_report_summary_covers_every_field(self):
        """Every counter field of FaultReport feeds summary() — a new field
        that silently never reaches the summary is a reporting bug."""
        fr = FaultReport(
            **{
                f.name: (9 if f.name != "resumed_from_step" else 3)
                for f in dataclasses.fields(FaultReport)
            }
        )
        s = fr.summary()
        zero = FaultReport().summary()
        assert set(s) == set(zero)
        # Flipping every field to a nonzero value must change every summary
        # entry (resumed_from_step is deliberately not summarized: it is an
        # identity, not a tally).
        changed = {k for k in s if s[k] != zero[k]}
        assert changed == set(s)

    def test_phase_breakdown_total_covers_every_field(self):
        fields = [f.name for f in dataclasses.fields(PhaseBreakdown)]
        assert len(fields) == 5
        for name in fields:
            pb = PhaseBreakdown(**{name: 11})
            assert pb.total == 11, f"phase field {name} missing from total"
        pb = PhaseBreakdown(**{name: 1 for name in fields})
        assert pb.total == len(fields)


# -- golden non-interference --------------------------------------------------------


def golden(sim):
    outputs, report = sim.run()
    return freeze(
        {
            "outputs": outputs,
            "ledger": report.ledger.summary(),
            "supersteps": [
                (repr(s.phases), repr(s.routing), s.comm_packets, s.message_blocks)
                for s in report.supersteps
            ],
            "init_io": report.init_io_ops,
            "output_io": report.output_io_ops,
            "tracks": report.disk_space_tracks,
        }
    )


class TestGoldenNonInterference:
    # The ids name the machine: "sequential" is the one-processor machine.
    @pytest.mark.parametrize("p", [1, 2], ids=["sequential", "parallel"])
    @pytest.mark.parametrize("fast", [False, True])
    def test_observer_changes_nothing(self, p, fast):
        kw = {"context_cache": fast, "fast_io": fast}
        for make in WORKLOADS:
            ref = golden(build(make, p, **kw))
            obs = Collector()
            watched = golden(build(make, p, observer=obs, **kw))
            assert watched == ref, make.__name__  # byte-identical frozen blobs
            assert obs.spans and all(s.t1 is not None for s in obs.spans)

    def test_observer_changes_nothing_process_backend(self):
        ref = golden(make_sim())
        obs = Collector()
        watched = golden(make_sim(backend="process", observer=obs))
        assert watched == ref

    def test_observer_keeps_fast_data_plane(self):
        """Unlike IOTrace.attach, observing must not force the physical path."""
        sim = make_sim(1, observer=Collector(), fast_io=True)
        assert sim.procs[0].array.fast_data_plane is True
        sim.run()
        assert sim.procs[0].array.fast_data_plane is True

    def test_simulate_front_door(self):
        alg = lambda: CGMSampleSort(uniform_keys(256, seed=7), v=4)  # noqa: E731
        machine = MachineParams(p=1, M=1 << 18, D=2, B=16, b=32)
        out_ref, rep_ref = simulate(alg(), machine, v=4)
        obs = Collector()
        out, rep = simulate(alg(), machine, v=4, observer=obs)
        assert out == out_ref
        assert freeze(rep.ledger.summary()) == freeze(rep_ref.ledger.summary())
        assert obs.by_name("superstep")


# -- worker merge -------------------------------------------------------------------


class TestWorkerMerge:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_inline_merge_per_processor(self, p):
        obs = Collector()
        sim = make_sim(p, observer=obs)
        sim.run()
        procs = {s.proc for s in obs.spans}
        assert procs == {None, *range(p)}
        # Parent links stay inside the owning processor's subtree.
        for s in obs.spans:
            if s.parent is not None:
                parent = obs.spans[s.parent]
                assert parent.proc == s.proc
                assert parent.t0 <= s.t0
        # Per-worker metrics arrive prefixed.
        snap = obs.metrics.snapshot()
        for i in range(p):
            assert f"p{i}/ctx_cache/misses" in snap
        assert "comm_packets" in snap

    def test_process_merge_matches_inline_shape(self):
        shapes = []
        for backend in ("inline", "process"):
            obs = Collector()
            make_sim(2, observer=obs, backend=backend).run()
            shapes.append(
                sorted((s.name, -1 if s.proc is None else s.proc) for s in obs.spans)
            )
        assert shapes[0] == shapes[1]

    def test_process_backend_counts_pipe_bytes(self):
        obs = Collector()
        sim = make_sim(2, observer=obs, backend="process")
        sim.run()
        snap = obs.metrics.snapshot()
        assert snap["backend/tx_bytes"]["value"] > 0
        assert snap["backend/rx_bytes"]["value"] > 0


# -- exporters ----------------------------------------------------------------------


def run_observed(tmp_path=None, p=1, **kw):
    obs = Collector()
    make_sim(p, observer=obs, **kw).run()
    return obs


class TestJSONL:
    def test_round_trip(self, tmp_path):
        obs = run_observed()
        path = str(tmp_path / "run.jsonl")
        n = write_jsonl(obs, path)
        view = read_jsonl(path)
        assert n == 1 + len(view["spans"]) + len(view["samples"]) + len(
            view["metrics"]
        )
        assert view["meta"]["nspans"] == len(obs.spans)
        assert [s["name"] for s in view["spans"]] == [s.name for s in obs.spans]
        assert [s["id"] for s in view["spans"]] == list(range(len(obs.spans)))
        by_id = {s["id"]: s for s in view["spans"]}
        for s in view["spans"]:
            if s["parent"] is not None:
                assert s["parent"] in by_id
        names = {m for m in view["metrics"]}
        assert "superstep_io_ops" in names

    def test_truncation_detected(self, tmp_path):
        obs = run_observed()
        path = str(tmp_path / "run.jsonl")
        write_jsonl(obs, path)
        lines = open(path).read().splitlines()
        open(path, "w").write("\n".join(lines[:-4]) + "\n")
        with pytest.raises(ValueError):
            read_jsonl(path)

    def test_version_mismatch_detected(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        open(path, "w").write(json.dumps({"type": "meta", "version": 99}) + "\n")
        with pytest.raises(ValueError, match="version"):
            read_jsonl(path)


class TestChromeTrace:
    def test_valid_and_loadable(self, tmp_path):
        obs = run_observed()
        path = str(tmp_path / "trace.json")
        n = write_chrome_trace(obs, path)
        assert validate_trace_file(path) == n
        trace = json.load(open(path))
        phases = {e["name"] for e in trace["traceEvents"] if e["ph"] == "X"}
        for want in ("superstep", "fetch_context", "compute", "reorganize"):
            assert want in phases

    def test_p2_process_backend_trace(self, tmp_path):
        """The acceptance-criteria trace: p=2 process-backend sort with one
        track per real processor plus the engine track."""
        obs = run_observed(p=2, backend="process")
        path = str(tmp_path / "trace.json")
        write_chrome_trace(obs, path)
        trace = json.load(open(path))
        validate_chrome_trace(trace)
        tracks = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert tracks == {"engine", "proc 0", "proc 1"}
        # Per-phase spans exist on the worker tracks, and per-disk counter
        # tracks exist for both processors.
        worker_x = {
            e["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "X" and e["tid"] > 0
        }
        assert {"fetch_context", "compute", "reorganize"} <= worker_x
        counters = {e["name"] for e in trace["traceEvents"] if e["ph"] == "C"}
        assert any(c.startswith("p0/disk") for c in counters)
        assert any(c.startswith("p1/disk") for c in counters)

    def test_timestamps_normalized(self):
        obs = run_observed()
        trace = chrome_trace(obs)
        xs = [e for e in trace["traceEvents"] if e["ph"] in ("X", "C")]
        assert xs and min(e["ts"] for e in xs) == 0.0
        assert all(e["ts"] >= 0 for e in xs)

    def test_open_span_closed_at_trace_end(self):
        c = Collector()
        c.span("never_closed")
        with c.span("done"):
            pass
        trace = chrome_trace(c)
        validate_chrome_trace(trace)
        ev = next(e for e in trace["traceEvents"] if e["name"] == "never_closed")
        assert ev["dur"] >= 0

    def test_validator_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_chrome_trace([])
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})
        with pytest.raises(ValueError, match="phase"):
            validate_chrome_trace({"traceEvents": [{"ph": "Q", "name": "x", "pid": 0}]})
        with pytest.raises(ValueError, match="dur"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "X", "name": "x", "pid": 0, "ts": 0.0}]}
            )


# -- CLI ----------------------------------------------------------------------------


class TestCLI:
    def test_trace_flags_end_to_end(self, tmp_path, capsys):
        from repro.__main__ import main

        trace_path = str(tmp_path / "cli.json")
        jsonl_path = str(tmp_path / "cli.jsonl")
        rc = main(
            [
                "sort", "--n", "256", "--v", "4",
                "--trace-out", trace_path,
                "--jsonl-out", jsonl_path,
                "--metrics",
            ]
        )
        assert rc == 0
        assert validate_trace_file(trace_path) > 0
        assert read_jsonl(jsonl_path)["metrics"]
        out = capsys.readouterr().out
        assert "metrics:" in out and "superstep_io_ops" in out

    def test_no_flags_no_collector(self, capsys):
        from repro.__main__ import main

        assert main(["sort", "--n", "256", "--v", "4"]) == 0
        assert "metrics:" not in capsys.readouterr().out
