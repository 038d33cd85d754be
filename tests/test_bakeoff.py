"""Tier-1 slice of the competitor bake-off (``repro.bakeoff``).

The full sweep lives in ``benchmarks/bench_bakeoff.py`` and the committed
``BENCH_BAKEOFF.json``; this file keeps the fast guarantees in the regular
suite: the quick sweep referees clean on a fixed seed, outputs are
byte-identical across engines x backends x storage planes, every measured
cost respects its closed-form bound, the JSON schema round-trips, and the
``repro bakeoff`` entry point works end to end.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bakeoff import (
    CONTENDERS,
    SCHEMA_VERSION,
    TASKS,
    BakeoffConfig,
    default_sweep,
    format_table,
    run_row,
    run_sweep,
    validate_bakeoff_dict,
)
from repro.baselines import SORTING_BASELINES

REPO = Path(__file__).resolve().parent.parent
ARTIFACT = REPO / "BENCH_BAKEOFF.json"

JOINT = BakeoffConfig(1024, 4096, 16, 2, "joint")
DEEP = BakeoffConfig(4096, 256, 16, 4, "deep")


# -- sweep geometry -----------------------------------------------------------


class TestSweepGeometry:
    def test_engines_cover_the_registry(self):
        assert CONTENDERS[0] == "cgm"
        assert set(CONTENDERS[1:]) == set(SORTING_BASELINES)

    def test_default_sweep_modes_and_size(self):
        sweep = default_sweep()
        assert len(sweep) >= 12  # the acceptance bar's sweep size
        modes = {c.mode for c in sweep}
        assert modes == {"joint", "deep"}
        quick = default_sweep(quick=True)
        assert len(quick) < len(sweep)

    def test_pick_v_is_admissible(self):
        from repro import workloads as wl
        from repro.algorithms import CGMSampleSort
        from repro.core import build_params, pick_v

        machine = JOINT.machine(p=2)
        data = wl.uniform_keys(JOINT.n, seed=0)
        v = pick_v(lambda v: CGMSampleSort(data, v), machine, JOINT.n)
        assert v is not None
        assert v % 2 == 0 and JOINT.n >= v * v
        build_params(CGMSampleSort(data, v), machine, v)
        if v > 2:  # the smallest: half of it is refused
            with pytest.raises(ValueError):
                build_params(CGMSampleSort(data, v // 2), machine, v // 2)


# -- the quick sweep referees clean -------------------------------------------


class TestQuickSweep:
    @pytest.fixture(scope="class")
    def payload(self):
        return validate_bakeoff_dict(run_sweep(quick=True))

    def test_no_mismatches_or_violations(self, payload):
        assert payload["mismatches"] == []
        assert payload["violations"] == []

    def test_every_cell_ran_or_was_skipped_honestly(self, payload):
        assert len(payload["rows"]) == payload["configs"] * len(TASKS)
        for row in payload["rows"]:
            for name in CONTENDERS:
                entry = row["engines"][name]
                if row["mode"] == "deep" and name == "cgm":
                    assert "skipped" in entry
                else:
                    assert entry["match"] and entry["ok"]

    def test_guidesort_schedule_never_missed(self, payload):
        cells = [
            row["engines"]["guidesort"] for row in payload["rows"]
        ]
        assert cells and all(c["guide_mismatches"] == 0 for c in cells)

    def test_json_round_trip(self, payload):
        again = json.loads(json.dumps(payload, sort_keys=True))
        assert validate_bakeoff_dict(again) == payload

    def test_format_table_shape(self, payload):
        table = format_table(payload)
        assert len(table) == len(payload["rows"])
        assert all(len(r) == 6 + len(CONTENDERS) for r in table)
        # No cell carries the '!' referee mark on a clean sweep.
        assert not any("!" in c for r in table for c in r[6:])


# -- cross-plane byte equality ------------------------------------------------


class TestCrossPlane:
    """The same cell on different execution planes: identical outputs
    (match=True against one shared reference) and identical counted I/O —
    backend and storage are counted-cost invisible for every engine."""

    def cell(self, task, **kw):
        return run_row(JOINT, task, **kw)["engines"]

    @pytest.mark.parametrize("task", TASKS)
    def test_storage_plane_is_invisible(self, task):
        mem = self.cell(task)
        filed = self.cell(task, storage="file")
        for name in CONTENDERS:
            assert filed[name]["match"] and mem[name]["match"]
            assert filed[name]["io_ops"] == mem[name]["io_ops"]

    def test_process_backend_is_invisible_to_cgm(self):
        inline = self.cell("sort", p_cgm=2)["cgm"]
        proc = self.cell("sort", p_cgm=2, backend="process")["cgm"]
        assert inline["match"] and proc["match"]
        assert inline["io_ops"] == proc["io_ops"]
        assert inline["v"] == proc["v"]

    def test_deep_rows_skip_only_the_simulation(self):
        row = run_row(DEEP, "sort")
        assert "skipped" in row["engines"]["cgm"]
        for name in SORTING_BASELINES:
            assert row["engines"][name]["match"]


# -- schema validation --------------------------------------------------------


class TestValidate:
    def good(self):
        return run_sweep([JOINT], ("sort",), engines=("emsort",))

    def test_accepts_a_fresh_payload(self):
        validate_bakeoff_dict(self.good())

    @pytest.mark.parametrize(
        "mutate,match",
        [
            (lambda p: p.update(schema_version=SCHEMA_VERSION + 1), "schema"),
            (lambda p: p.update(rows=[]), "row count"),
            (lambda p: p.update(violations="nope"), "must be a list"),
            (lambda p: p["rows"][0].pop("engines"), "malformed"),
            (lambda p: p["rows"][0].update(task="transpose"), "not in payload"),
            (
                lambda p: p["rows"][0]["engines"]["emsort"].update(io_ops=-1),
                "counted int",
            ),
            (
                lambda p: p["rows"][0]["engines"]["emsort"].update(match="yes"),
                "must be a bool",
            ),
        ],
    )
    def test_rejects_malformed_payloads(self, mutate, match):
        payload = self.good()
        mutate(payload)
        with pytest.raises(ValueError, match=match):
            validate_bakeoff_dict(payload)

    def test_committed_artifact_validates(self):
        payload = validate_bakeoff_dict(json.loads(ARTIFACT.read_text()))
        assert payload["configs"] >= 12
        assert payload["violations"] == [] and payload["mismatches"] == []
        # And it survives a dump/load round trip byte-for-byte.
        dumped = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        assert dumped == ARTIFACT.read_text()

    def test_committed_joint_rows_use_half_their_mu(self):
        """The CGM's declared context bound is one its runs come within a
        factor of two of, so ``k = floor(M/mu)`` fills memory."""
        payload = json.loads(ARTIFACT.read_text())
        cells = [r["engines"]["cgm"] for r in payload["rows"] if r["mode"] == "joint"]
        assert cells and all(0.5 <= c["mu_used"] / c["mu"] <= 1 for c in cells)


# -- CLI ----------------------------------------------------------------------


class TestBakeoffCLI:
    def run_cli(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", "bakeoff", *argv],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_quick_smoke_writes_valid_json(self, tmp_path):
        out = tmp_path / "bakeoff.json"
        proc = self.run_cli("--quick", "--out", str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "bakeoff:" in proc.stdout
        assert "zero bound violations" in proc.stdout
        payload = validate_bakeoff_dict(json.loads(out.read_text()))
        assert payload["violations"] == [] and payload["mismatches"] == []
