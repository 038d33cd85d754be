"""Self-test of the benchmark suite.  Not part of tier-1; run explicitly::

    python -m pytest benchmarks/suite -q

Two ``--smoke`` runs (n / 64, R = 2) of all four workloads take about two minutes.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
sys.path.insert(0, SUITE_DIR)

import compare  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
from metrics import END_TO_END, EXACT, PER_LAYER  # noqa: E402
from oracles import PHASES  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def load_benchmark_json() -> dict:
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_is_the_dumped_catalogue():
    spec = load_benchmark_json()
    assert spec == metrics.benchmark_json(), "run metrics.py --dump > BENCHMARK.json"
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == [n for n, w in WORKLOADS.items() if w.gated]
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert sum(m["name"] == "setup_s" for m in spec["end_to_end"]) == 1


def test_readme_names_every_metric_and_workload():
    with open(os.path.join(SUITE_DIR, "README.md")) as fh:
        text = fh.read()
    missing = [n for n in (*WORKLOADS, *(m.name for m in (*END_TO_END, *PER_LAYER)))
               if f"`{n}`" not in text]
    assert not missing


def smoke_run(out: str, hashseed: str) -> dict:
    env = {**os.environ, "PYTHONHASHSEED": hashseed}
    subprocess.run(
        [sys.executable, os.path.join(SUITE_DIR, "run.py"), "--smoke", "--out", out],
        check=True, env=env, cwd=REPO_ROOT, stdout=subprocess.DEVNULL,
    )
    with open(os.path.join(out, "results.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two smoke runs of the whole suite, under two PYTHONHASHSEED values."""
    outs = [str(tmp_path_factory.mktemp(f"smoke{i}")) for i in (0, 1)]
    return outs, [smoke_run(out, str(i)) for i, out in enumerate(outs)]


def test_results_schema(smoke):
    outs, (results, _) = smoke
    assert results["schema"] == run.RESULTS_SCHEMA
    assert results["scale"] == "smoke" and results["seed"] == 3
    assert results["host"]["nproc"] >= 1 and results["scratch_fs"]
    assert os.path.commonpath([run.SCRATCH_BASE, REPO_ROOT]) == REPO_ROOT
    assert os.listdir(run.SCRATCH_BASE) == []
    assert list(results["workloads"]) == list(WORKLOADS)
    for name, r in results["workloads"].items():
        assert r["failed"] == 0 and r["failures"] == [], r["failures"]
        assert r["attempted"] >= 4
        assert list(r["end_to_end"]) == [m.name for m in END_TO_END]
        assert list(r["per_layer"]) == [m.name for m in PER_LAYER]
        for s in r["end_to_end"].values():
            assert s["q1"] <= s["median"] <= s["q3"] and s["n"] >= 1
            assert s["min"] <= s["value"] <= s["max"]
        wall, rate = r["end_to_end"]["wall_s"], r["end_to_end"]["records_per_s"]
        assert wall["n"] == 2 and wall["value"] == wall["min"]  # the fastest rep
        assert rate["value"] == rate["max"] == r["spec"]["n"] / wall["value"]
        assert r["end_to_end"]["setup_s"]["value"] == sum(r["setup_parts_s"].values())
        assert r["end_to_end"]["passed_share"]["value"] == 1.0
        phases = [r["per_layer"][f"core.{phase}_scans"] for phase in PHASES]
        ops = r["counted_ops"]
        assert sum(ops[phase] for phase in PHASES) == ops["io_ops"]
        assert sum(phases) == pytest.approx(r["end_to_end"]["io_scans"]["value"], rel=1e-12)
        assert r["per_layer"]["profile.attributed_share"] >= 0.95
        with open(os.path.join(outs[0], f"{name}.trace.json")) as fh:
            trace = json.load(fh)
        assert trace["profile"]["tracks"]["engine"]["totals"]
        for span in trace["spans"]:
            assert set(span) == {"name", "start", "end", "parent", "workload"}
            assert span["workload"] == name and span["end"] >= span["start"]
        assert any(s["name"].startswith("drill:") for s in trace["spans"])


def test_inapplicable_layer_metrics_are_null(smoke):
    _, (results, _) = smoke
    mem = results["workloads"]["sort_mem"]["per_layer"]
    ckpt = results["workloads"]["listrank_file_ckpt"]["per_layer"]
    assert mem["emio.storage.overlap_x"] is None and mem["core.checkpoint.commit_s"] is None
    assert ckpt["emio.storage.mmap_x"] > 0 and ckpt["core.checkpoint.recover_s"] > 0
    assert ckpt["baselines.emsort_pred_scans"] is None
    assert mem["baselines.guidesort_pred_scans"] > 0


def test_the_sorts_differ_in_the_storage_plane_only(smoke):
    _, (results, _) = smoke
    mem, file = (results["workloads"][w] for w in ("sort_mem", "sort_file"))
    assert mem["counted_ops"] == file["counted_ops"]
    on_file = {"storage": "file", "io_overlap": False}
    assert file["spec"] == {**mem["spec"], "reps": file["spec"]["reps"],
                            "knobs": {**mem["spec"]["knobs"], **on_file}}


def test_exact_metrics_repeat_across_runs_and_hash_seeds(smoke):
    _, (first, second) = smoke
    for name in WORKLOADS:
        a, b = first["workloads"][name], second["workloads"][name]
        assert a["counted_ops"] == b["counted_ops"]
        for metric in EXACT:
            table = "end_to_end" if metric in a["end_to_end"] else "per_layer"
            va, vb = a[table][metric], b[table][metric]
            assert va == vb, (name, metric)
    rows = compare.compare(first, second)
    assert not [r for r in rows if r[1] in EXACT and r[4] != "same"]


# -- the driver's path ---------------------------------------------------------------------


@pytest.mark.parametrize("trace, catalogue", [(0, END_TO_END), (1, PER_LAYER)])
def test_driver_run_ends_with_one_result_line(trace, catalogue, tmp_path):
    proc = subprocess.run(
        [sys.executable, os.path.join(SUITE_DIR, "run.py"), "--smoke", "--workload",
         "listrank_file_ckpt", "--seed", "7", "--seconds", "1", "--trace", str(trace),
         "--out", str(tmp_path)],
        check=True, cwd=REPO_ROOT, stdout=subprocess.PIPE, text=True,
    )
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 3
    assert list(line["metrics"]) == [m.name for m in catalogue]
    for m in catalogue:
        got = line["metrics"][m.name]
        assert got["unit"] == m.unit and isinstance(got["value"], (int, float))
    if trace == 0:
        assert all(m["value"] > 0 for m in line["metrics"].values())
        assert not os.listdir(tmp_path)  # no trace file, no results.json
    else:
        assert line["metrics"]["core.checkpoint.recover_s"]["value"] > 0
        assert os.listdir(tmp_path) == ["listrank_file_ckpt.trace.json"]
    assert os.listdir(run.SCRATCH_BASE) == []


# -- oracles: what makes a rep fail ------------------------------------------------------


@pytest.fixture
def tiny_bench(tmp_path):
    wl = WORKLOADS["listrank_par_default"].smoke()
    return run.Bench(wl, wl.generate(5), str(tmp_path), Tracer(wl.name))


def test_a_clean_rep_passes(tiny_bench):
    assert tiny_bench.rep("clean") is not None
    assert (tiny_bench.attempted, tiny_bench.failed) == (1, 0)


def test_a_corrupted_output_is_a_failed_rep(tiny_bench, monkeypatch):
    import repro.core

    real = repro.core.simulate

    def corrupting(*args, **kwargs):
        outputs, report = real(*args, **kwargs)
        node, rank = outputs[3][0]
        outputs[3][0] = (node, rank + 1)
        return outputs, report

    monkeypatch.setattr(repro.core, "simulate", corrupting)
    assert tiny_bench.rep("corrupt") is None
    assert (tiny_bench.attempted, tiny_bench.failed) == (1, 1)
    assert "pointer walk" in tiny_bench.failures[0]


def test_a_drifting_count_and_a_leak_are_failed_reps(tiny_bench, monkeypatch, tmp_path):
    import repro.core

    assert tiny_bench.rep("first") is not None
    real = repro.core.simulate

    def drifting(*args, **kwargs):
        outputs, report = real(*args, **kwargs)
        report.supersteps[0].phases.reorganize += 1
        (tmp_path / "left-behind").mkdir()
        return outputs, report

    monkeypatch.setattr(repro.core, "simulate", drifting)
    assert tiny_bench.rep("drift") is None
    text = "\n".join(tiny_bench.failures)
    assert "counted costs differ" in text
    assert "theorem1_io" in text  # the program's own reorganize cross-check
    assert "left behind" in text
    assert tiny_bench.failed == 1


def test_a_raising_rep_is_a_failed_rep(tiny_bench, monkeypatch):
    import repro.core

    def raising(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(repro.core, "simulate", raising)
    assert tiny_bench.rep("raise") is None
    assert tiny_bench.failed == 1 and "boom" in tiny_bench.failures[0]


# -- compare.py ---------------------------------------------------------------------------


def summary(value, spread=0.0):
    return {"value": value, "q1": value * (1 - spread / 2), "q3": value * (1 + spread / 2),
            "min": value * (1 - spread), "max": value * (1 + spread), "n": 5}


def results_with(**overrides):
    e2e = {"wall_s": summary(2.0, 0.02), "records_per_s": summary(5e6, 0.02),
           "setup_s": summary(1.0), "peak_rss_mib": summary(600.0),
           "io_scans": summary(47.25), "comm_packets": summary(1026),
           "disk_tracks": summary(71872), "passed_share": summary(1.0)}
    e2e.update(overrides)
    layers = {m.name: 1.0 for m in PER_LAYER}
    return {"seed": 3, "scale": "full",
            "workloads": {"sort_mem": {"end_to_end": e2e, "per_layer": layers}}}


def verdicts(a, b):
    return {r[1]: r[4] for r in compare.compare(a, b)}


def test_compare_verdicts():
    base = results_with()
    assert set(verdicts(base, base).values()) == {"same"}
    v = verdicts(base, results_with(wall_s=summary(2.6, 0.02), io_scans=summary(47.5),
                                    records_per_s=summary(7e6, 0.02)))
    assert (v["wall_s"], v["io_scans"], v["records_per_s"]) == ("worse", "worse", "better")
    v = verdicts(base, results_with(wall_s=summary(2.3, 0.02), comm_packets=summary(1000)))
    assert (v["wall_s"], v["comm_packets"]) == ("same", "better")
    noisy = results_with(wall_s=summary(2.0, 0.6))
    assert verdicts(base, noisy)["wall_s"] == "unresolved"
    assert verdicts(noisy, results_with(wall_s=summary(0.5, 0.02)))["wall_s"] == "better"


def test_compare_exit_status(tmp_path, capsys):
    paths = []
    for i, r in enumerate((results_with(), results_with(wall_s=summary(3.0, 0.02)))):
        paths.append(str(tmp_path / f"{i}.json"))
        with open(paths[-1], "w") as fh:
            json.dump(r, fh)
    assert compare.main([paths[0], paths[0]]) == 0
    assert compare.main(paths) == 1
    assert "worse: 1" in capsys.readouterr().out


def test_driver_line_holds_numbers_only():
    result = {"failed": 0, "attempted": 3,
              "per_layer": {m.name: None for m in PER_LAYER}}
    line = json.loads(run.driver_line(result, 1))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(m["value"] == 0 for m in line["metrics"].values())
    assert run.driver_line({"failed": 0, "attempted": 1}, 0) is None


# -- hygiene --------------------------------------------------------------------------------


def test_ruff_is_clean():
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff is not installed here")
    subprocess.run([ruff, "check", os.path.join(REPO_ROOT, "benchmarks")], check=True)
