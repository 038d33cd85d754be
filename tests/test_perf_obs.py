"""Perf observatory tests: attribution profiler, live event bus.

Two surfaces (DESIGN §11), three invariants:

* the :class:`CategoryProfiler` is an honest exclusive-time accountant —
  nested scopes carve time out of their parents and the totals never exceed
  the profiled wall-clock;
* profiling and event streaming are strictly read-only — the equivalence
  harness (``tests/test_plane_equivalence.py``) proves counted costs,
  ledgers, and outputs identical with the observatory on or off, across
  machines × backends × storage planes;
* the disabled path (``NULL_OBSERVER``/``NULL_PROFILER``) costs ~nothing —
  the overhead guard hard-asserts counted identity and soft-checks wall.
"""

import json
import statistics
import time
import warnings

import pytest

from repro.algorithms.sorting import CGMSampleSort
from repro.conform import REFERENCE
from repro.conform.oracles import canonical_record
from repro.core.simulator import simulate
from repro.obs import (
    Collector,
    ProfileReport,
    RunEventLog,
    build_report,
    chrome_trace,
    read_events,
    validate_chrome_trace,
    validate_trace_file,
    write_chrome_trace,
    write_jsonl,
    read_jsonl,
)
from repro.obs import profile as profile_mod
from repro.obs.live import format_event, tail_events
from repro.obs.profile import (
    CATEGORIES,
    CategoryProfiler,
    NULL_PROFILER,
    validate_report_dict,
)
from repro.params import MachineParams
from repro.workloads import uniform_keys


# -- profiler unit tests ------------------------------------------------------------


@pytest.fixture
def clock(monkeypatch):
    """Deterministic profiler clock: tests advance ``clock.t`` explicitly."""

    class _Clock:
        t = 0.0

    monkeypatch.setattr(profile_mod, "_now", lambda: _Clock.t)
    return _Clock


class TestCategoryProfiler:
    def test_exclusive_time_nested_scopes(self, clock):
        prof = CategoryProfiler()
        prof.start()
        clock.t = 1.0
        prof.push("layout")
        clock.t = 2.0
        prof.push("serialize")  # carves out of layout from here on
        clock.t = 5.0
        prof.pop()  # serialize: 3.0
        clock.t = 6.0
        prof.pop()  # layout: (2-1) + (6-5) = 2.0
        clock.t = 7.0
        prof.stop()
        assert prof.totals == {"layout": 2.0, "serialize": 3.0}
        assert prof.wall == 7.0
        assert prof.attributed() == 5.0  # never exceeds wall

    def test_unbalanced_pop_is_ignored(self, clock):
        prof = CategoryProfiler()
        prof.start()
        prof.pop()  # nothing open: must not corrupt totals
        clock.t = 1.0
        prof.push("kernel")
        clock.t = 3.0
        prof.pop()
        prof.pop()  # extra pop after the stack drained
        assert prof.totals == {"kernel": 2.0}

    def test_stop_unwinds_abandoned_scopes(self, clock):
        """An exception can abandon open scopes; stop() closes them all."""
        prof = CategoryProfiler()
        prof.start()
        prof.push("layout")
        prof.push("serialize")
        clock.t = 4.0
        prof.stop()
        assert prof._stack == []
        assert prof.attributed() == pytest.approx(4.0)

    def test_scope_context_manager_pops_on_exception(self, clock):
        prof = CategoryProfiler()
        prof.start()
        with pytest.raises(RuntimeError):
            with prof.scope("checkpoint"):
                clock.t = 2.0
                raise RuntimeError("boom")
        assert prof._stack == []
        assert prof.totals["checkpoint"] == 2.0

    def test_snapshot_and_reset(self, clock):
        prof = CategoryProfiler()
        prof.start()
        prof.push("ipc")
        clock.t = 1.5
        prof.pop()
        snap = prof.snapshot()
        assert snap["totals"] == {"ipc": 1.5} and snap["counts"] == {"ipc": 1}
        prof.reset()
        assert prof.totals == {} and prof.steps == [] and prof.wall == 0.0

    def test_null_profiler_is_inert(self):
        NULL_PROFILER.push("kernel")
        NULL_PROFILER.pop()
        with NULL_PROFILER.scope("layout"):
            pass
        NULL_PROFILER.start()
        NULL_PROFILER.mark_superstep(0)
        NULL_PROFILER.stop()
        assert NULL_PROFILER.totals == {} and NULL_PROFILER.wall == 0.0
        assert not NULL_PROFILER.enabled


class TestProfileReport:
    def _report(self, clock):
        obs = Collector(profile=True)
        prof = obs.profile
        prof.start()
        clock.t = 1.0
        with prof.scope("kernel"):
            clock.t = 2.0
        prof.mark_superstep(0)
        clock.t = 3.0
        with prof.scope("routing"):
            clock.t = 5.0
        prof.mark_superstep(1)
        prof.stop()
        return build_report(obs, meta={"workload": "unit"})

    def test_superstep_deltas(self, clock):
        report = self._report(clock)
        assert [r["step"] for r in report.supersteps] == [0, 1]
        assert report.supersteps[0]["totals"] == {"kernel": 1.0}
        assert report.supersteps[1]["totals"] == {"routing": 2.0}

    def test_round_trip_and_render(self, clock):
        report = self._report(clock)
        clone = ProfileReport.from_dict(
            json.loads(json.dumps(report.to_dict()))
        )
        assert clone.to_dict() == report.to_dict()
        text = report.render()
        assert "kernel" in text and "routing" in text and "(other)" in text

    def test_validate_rejections(self, clock):
        good = self._report(clock).to_dict()
        validate_report_dict(good)
        for mutate in (
            lambda d: d.pop("schema"),
            lambda d: d.__setitem__("schema", 99),
            lambda d: d.__setitem__("wall", "fast"),
            lambda d: d.__setitem__("tracks", {}),
            lambda d: d["tracks"]["engine"].pop("totals"),
            lambda d: d["tracks"]["engine"]["totals"].__setitem__("warp", 1.0),
            lambda d: d["supersteps"].append({"wall": 1.0}),
        ):
            bad = json.loads(json.dumps(good))
            mutate(bad)
            with pytest.raises(ValueError):
                validate_report_dict(bad)


# -- live event bus -----------------------------------------------------------------


class TestRunEventLog:
    def test_eta_requires_expected_steps_hint(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        with RunEventLog(path, expected_steps=3) as log:
            log.run_started(workload="t")
            for step in range(3):
                log.superstep_started(step)
                log.superstep_finished(step, io_ops=7, bytes_moved=128)
            log.run_finished()
        done = [e for e in read_events(path, strict=True)
                if e["kind"] == "superstep_finished"]
        assert [e["steps_done"] for e in done] == [1, 2, 3]
        assert all(e["eta_s"] is not None for e in done)
        assert done[-1]["eta_s"] == 0.0  # nothing remaining
        assert all(e["io_ops"] == 7 and e["bytes_moved"] == 128 for e in done)

        nohint = tmp_path / "nohint.jsonl"
        with RunEventLog(nohint) as log:
            log.superstep_started(0)
            log.superstep_finished(0, io_ops=1, bytes_moved=1)
        (ev,) = [e for e in read_events(nohint)
                 if e["kind"] == "superstep_finished"]
        assert ev["eta_s"] is None  # the log does not guess step counts

    def test_partial_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        with RunEventLog(path) as log:
            log.run_started()
        with open(path, "a") as fh:
            fh.write('{"schema":1,"kind":"superstep_st')  # writer mid-append
        events = read_events(path, strict=True)  # strict, yet no error
        assert [e["kind"] for e in events] == ["run_started"]

    def test_strict_rejects_corrupt_complete_lines(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        path.write_text('not json at all\n{"schema":1,"kind":"x"}\n')
        assert [e["kind"] for e in read_events(path)] == ["x"]  # lenient
        with pytest.raises(ValueError, match="not valid JSON"):
            read_events(path, strict=True)
        bad_schema = tmp_path / "schema.jsonl"
        bad_schema.write_text('{"schema":99,"kind":"x"}\n')
        with pytest.raises(ValueError, match="schema"):
            read_events(bad_schema, strict=True)

    def test_context_manager_records_error_status(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        with pytest.raises(RuntimeError):
            with RunEventLog(path) as log:
                log.run_started()
                raise RuntimeError("boom")
        last = read_events(path, strict=True)[-1]
        assert last["kind"] == "run_finished" and last["status"] == "error"
        assert "boom" in last["error"]

    def test_tail_and_format(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        with RunEventLog(path, expected_steps=1) as log:
            log.run_started(workload="sort")
            log.superstep_started(0)
            log.superstep_finished(0, io_ops=5, bytes_moved=64)
            log.run_finished()
        events = list(tail_events(path, follow=True, timeout=1.0))
        assert [e["kind"] for e in events] == [
            "run_started", "superstep_started", "superstep_finished",
            "run_finished",
        ]
        lines = [format_event(e) for e in events]
        assert "run started" in lines[0] and "workload=sort" in lines[0]
        assert "io_ops=5" in lines[2]
        assert "run finished" in lines[-1]


class TestRunStartedNamesThePlane:
    """``fast_io`` / ``context_cache`` left at ``None`` are derived from the
    storage plane; the run's first event says what they resolved to, so a
    reader of the stream knows which plane the wall-clock was spent on."""

    @pytest.mark.parametrize(
        "backend,p",
        [
            pytest.param("inline", 1, id="sequential-inline-1"),
            pytest.param("process", 2, id="parallel-process-2"),
        ],
    )
    @pytest.mark.parametrize(
        "storage,knobs,fast",
        [("memory", {}, True), ("file", {}, False), ("memory", REFERENCE, False)],
        ids=["default-memory", "default-file", "reference-memory"],
    )
    def test_resolved_knobs_in_meta(
        self, backend, p, storage, knobs, fast, tmp_path
    ):
        alg = CGMSampleSort(uniform_keys(256, seed=7), v=4)
        machine = MachineParams(p=p, M=1 << 18, D=2, B=16, b=32)
        with RunEventLog(tmp_path / "run.jsonl") as events:
            simulate(
                alg, machine, v=4, backend=backend,
                storage=storage, events=events, **knobs,
            )
        started = read_events(events.path, strict=True)[0]
        assert started["kind"] == "run_started"
        meta = started["meta"]
        assert (meta["storage"], meta["fast_io"], meta["context_cache"]) == (
            storage, fast, fast,
        )
        # One engine: the event names where its processors ran, not which.
        assert meta["backend"] == backend and "engine" not in meta
        line = format_event(started)
        assert f"fast_io={fast}" in line and f"context_cache={fast}" in line


class TestAttribution:
    def test_file_storage_sort_is_mostly_attributed(self):
        """The acceptance bar: a file-plane sort names >=90% of its wall."""
        alg = CGMSampleSort(uniform_keys(4096, seed=7), v=8)
        machine = MachineParams(p=1, M=1 << 18, D=4, B=64, b=64)
        obs = Collector(profile=True)
        simulate(alg, machine, v=8, storage="file", observer=obs)
        report = build_report(obs)
        assert report.attributed_fraction() >= 0.90
        # Storage-plane work is visible as its own categories.
        totals = report.track_totals()
        assert totals.get("syscall_io", 0) > 0
        assert totals.get("serialize", 0) > 0
        assert set(totals) <= set(CATEGORIES)


class TestOverheadGuard:
    def test_null_observer_counted_identity_and_wall_budget(self):
        """S2: instrumentation must not move a counted cost; wall is soft:
        the medians of ten alternating pairs of a 32768-key sort (a run of a
        few milliseconds cannot resolve 5%)."""
        machine = MachineParams(p=1, M=1 << 18, D=4, B=32, b=32)
        keys = uniform_keys(32768, seed=7)

        def run(observed):
            alg = CGMSampleSort(list(keys), v=8)
            kw = {"observer": Collector(profile=True)} if observed else {}
            t0 = time.perf_counter()
            outputs, report = simulate(alg, machine, v=8, **kw)
            return time.perf_counter() - t0, canonical_record(outputs, report)

        walls, images = {False: [], True: []}, {}
        for pair in range(10):
            for observed in (False, True) if pair % 2 else (True, False):
                wall, images[observed] = run(observed)
                walls[observed].append(wall)
        assert images[True] == images[False]  # hard: counted identity
        base, inst = statistics.median(walls[False]), statistics.median(walls[True])
        overhead = inst / base - 1.0
        # Soft 5% budget: warn, don't flake CI on scheduler noise.  The hard
        # backstop only trips when instrumentation costs more than the run.
        if overhead > 0.05:
            warnings.warn(f"observer overhead {overhead:+.1%} exceeds the 5% budget "
                          f"(median instrumented {inst:.4f}s vs {base:.4f}s)")
        assert overhead < 1.0


# -- exporter edge cases (S3) -------------------------------------------------------


class TestExportEdgeCases:
    def test_corrupt_jsonl_rejected(self, tmp_path):
        path = tmp_path / "t.jsonl"
        write_jsonl(Collector(), str(path))
        with open(path, "a") as fh:
            fh.write("{{{ not json\n")
        with pytest.raises(ValueError, match="not JSON"):
            read_jsonl(str(path))

    def test_truncated_jsonl_rejected(self, tmp_path):
        obs = Collector()
        with obs.span("a"):
            pass
        path = tmp_path / "t.jsonl"
        write_jsonl(obs, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the span line
        with pytest.raises(ValueError, match="truncated"):
            read_jsonl(str(path))

    def test_empty_collector_trace_validates(self, tmp_path):
        path = tmp_path / "empty.json"
        n = write_chrome_trace(Collector(), str(path))
        assert validate_trace_file(str(path)) == n

    def test_open_span_closed_on_exception(self, tmp_path):
        obs = Collector()
        with pytest.raises(RuntimeError):
            with obs.span("outer", cat="layout"):
                raise RuntimeError("crash mid-span")
        # The collector's exit hook closed it; simulate a harder crash too:
        obs.spans[0].t1 = None  # as if the process died inside the span
        trace = chrome_trace(obs)
        validate_chrome_trace(trace)
        xs = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert xs and all(e["dur"] >= 0 for e in xs)

    def test_category_tagged_trace_round_trip(self, tmp_path):
        obs = Collector(profile=True)
        with obs.span("superstep", cat="layout"):
            with obs.span("compute", cat="kernel"):
                pass
        with obs.span("untagged"):
            pass
        jsonl = tmp_path / "t.jsonl"
        write_jsonl(obs, str(jsonl))
        spans = read_jsonl(str(jsonl))["spans"]
        assert {s.get("cat") for s in spans} == {"layout", "kernel", None}

        trace_path = tmp_path / "trace.json"
        write_chrome_trace(obs, str(trace_path))
        assert validate_trace_file(str(trace_path)) > 0
        with open(trace_path) as fh:
            xs = [e for e in json.load(fh)["traceEvents"] if e["ph"] == "X"]
        by_name = {e["name"]: e for e in xs}
        assert by_name["compute"]["cat"] == "kernel"
        assert "cname" in by_name["compute"]  # category-colored for Perfetto
        assert by_name["untagged"]["cat"] == "span"
        assert "cname" not in by_name["untagged"]
