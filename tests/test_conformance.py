"""Tier-1 slice of the differential conformance fuzzer (``repro.conform``).

The nightly CI job runs thousands of random configurations; this file keeps
a small fixed-seed budget in the regular suite plus unit tests for every
layer the fuzzer is built from: the admissibility repair projection, the
equivalent-plane computation, the oracle stack, the greedy shrinker, the
``ReproCase`` serialization, and the ``python -m repro conform`` entry
point.
"""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.conform import (
    ConformConfig,
    ReproCase,
    fuzz,
    random_config,
    repair,
    run_case,
    shrink,
)
from repro.conform.case import SCHEMA_VERSION
from repro.conform.config import BASELINE_WORKLOADS
from repro.conform.oracles import (
    canonical_record,
    check_outputs,
    check_plane_equivalence,
    check_theorem1_io,
    lemma2_allowance,
)
from repro.conform.runner import _build_engine, equivalent_planes
from repro.conform.shrinker import shrink_candidates
from repro.conform.strategies import QUICK

from .helpers import PLANE_AXES

REPO = Path(__file__).resolve().parent.parent


def small_config(**overrides):
    """A tiny admissible one-processor sort config, tweakable per test."""
    base = dict(workload="sort", n=64, v=4, p=1, M=4096, D=2, B=16, b=16)
    base.update(overrides)
    return repair(base)


# -- strategies: draw + repair ------------------------------------------------


class TestRepair:
    def test_random_draws_are_admissible(self):
        for index in range(60):
            cfg = random_config(7, index, QUICK)
            if cfg.is_baseline:
                # Competitor sorters: the CGM-only axes must be folded away.
                assert (cfg.p, cfg.v, cfg.k) == (1, 1, None)
                assert cfg.backend == "inline"
                assert cfg.fault == "none" and not cfg.crash
                assert not cfg.checkpoint
                assert cfg.M >= 2 * cfg.D * cfg.B
                cfg.baseline_sorter()  # constructible, i.e. admissible
                continue
            params = cfg.params()  # would raise ParameterError if not
            assert cfg.v % cfg.p == 0
            assert cfg.M >= cfg.D * cfg.B
            assert cfg.n % cfg.v == 0 and cfg.n >= 2 * cfg.v
            if cfg.workload == "sort":
                assert cfg.n >= cfg.v * cfg.v
            if cfg.fault == "kill":
                assert cfg.checkpoint
                assert 0 <= cfg.dead_disk < cfg.D
                assert 0 <= cfg.dead_proc < cfg.p
            assert cfg.backend == "inline"  # QUICK draws no worker processes
            assert params.k >= 1

    def test_repair_is_idempotent(self):
        for index in range(20):
            cfg = random_config(11, index)
            assert repair(cfg) == cfg

    def test_draws_are_deterministic_and_distinct(self):
        again = [random_config(3, i) for i in range(10)]
        assert [random_config(3, i) for i in range(10)] == again
        assert len(set(again)) > 1  # the stream actually varies

    def test_repair_projects_each_constraint(self):
        cfg = repair(dict(workload="sort", p=3, v=4, n=5, D=4, B=16, M=1))
        assert cfg.v == 6  # rounded up to a multiple of p
        assert cfg.n >= cfg.v * cfg.v and cfg.n % cfg.v == 0
        assert cfg.M >= cfg.D * cfg.B

        killed = repair(
            dict(workload="permute", fault="kill", dead_disk=9, dead_proc=7,
                 D=2, p=1, v=2, n=8)
        )
        assert killed.checkpoint and killed.dead_disk < 2 and killed.dead_proc == 0

        one = repair(dict(workload="prefix", p=1, backend="process", v=2, n=8))
        assert one.backend == "process"  # p = 1 runs over a worker too


# -- equivalent planes --------------------------------------------------------


class TestEquivalentPlanes:
    def test_plain_config_gets_fastpath_and_storage_planes(self):
        planes = dict(equivalent_planes(small_config().run_config()))
        assert set(planes) == {"primary", "fastpath", "file-storage"}
        assert planes["fastpath"].fast_io and planes["fastpath"].context_cache
        assert planes["file-storage"].storage == "file"

    def test_fast_config_gets_a_reference_plane(self):
        planes = dict(
            equivalent_planes(small_config(fast_io=True, context_cache=True).run_config())
        )
        assert set(planes) == {"primary", "reference", "file-storage"}
        assert not planes["reference"].fast_io

    def test_process_backend_yields_four_planes(self):
        cfg = small_config(p=2, v=4, backend="process", fast_io=True)
        planes = dict(equivalent_planes(cfg.run_config()))
        assert set(planes) == {"primary", "reference", "fastpath", "file-storage"}
        assert planes["reference"].backend == "inline"

    def test_storage_config_gets_a_memory_reference(self):
        planes = dict(equivalent_planes(small_config(storage="mmap").run_config()))
        assert planes["primary"].storage == "mmap"
        assert planes["reference"].storage == "memory"
        # Every primary off the file plane gets a file plane; a file
        # primary is its own.
        assert planes["file-storage"].storage == "file"
        assert "file-storage" not in dict(
            equivalent_planes(small_config(storage="file").run_config()))

    def test_planes_never_flip_counted_knobs(self):
        """Only the plane fields move: seed, checkpoint, faults, retry and
        every other field stay the configured plane's."""
        cfg = small_config(p=2, v=4, checkpoint=True, fault="transient", backend="process",
                           storage="mmap").run_config()
        for _key, plane in equivalent_planes(cfg):
            assert plane == replace(cfg, **{f: getattr(plane, f) for f in PLANE_AXES})


# -- oracles ------------------------------------------------------------------


class TestOracles:
    def test_small_case_passes_all_oracles(self):
        result = run_case(small_config())
        assert result.passed, [str(f) for f in result.failures]
        assert result.checks["output_vs_reference"] >= 2  # both planes
        assert result.checks["lemma2_balance"] > 0
        assert result.checks["theorem1_io"] > 0
        # One equivalence check per non-primary plane: fastpath +
        # file-storage.
        assert result.checks["plane_equivalence"] == 2

    def test_kill_case_exercises_resume_or_skip(self):
        cfg = small_config(fault="kill", checkpoint=True, dead_after=10)
        result = run_case(cfg)
        assert result.passed, [str(f) for f in result.failures]
        assert (
            result.checks["kill_resume"]
            + result.checks["kill_resume_skipped"]
            + result.checks["output_vs_reference"]
        ) >= 1

    def test_check_outputs_reports_differing_vps(self):
        assert check_outputs("x", [1, 2], [1, 2]) == []
        fails = check_outputs("x", [1, 9], [1, 2])
        assert fails[0].oracle == "output_vs_reference"
        assert "plane x" in fails[0].message

    def test_plane_equivalence_names_the_diverging_field(self):
        cfg = small_config()
        outputs, report = _build_engine(cfg).run()
        rec = canonical_record(outputs, report)
        twin = dict(rec, outputs=list(rec["outputs"]) + ["extra"])
        fails = check_plane_equivalence({"a": rec, "b": twin})
        assert fails and "outputs" in fails[0].message
        assert check_plane_equivalence({"a": rec, "b": dict(rec)}) == []

    def test_lemma2_allowance_dominates_the_mean(self):
        for R in (1, 10, 1000):
            for D in (1, 2, 8):
                assert lemma2_allowance(R, D) > R / D
        assert lemma2_allowance(1000, 4) < 1000  # but it is not vacuous

    def test_theorem1_consistency_catches_a_tampered_counter(self):
        """The drill the fuzzer exists for: inflate one phase counter and
        the theorem1_io oracle must flag that superstep — here the
        reorganize counter of a superstep that runs Algorithm 2 (eight
        drives, and traffic the identity permutations pile onto one drive
        a group, so Step 2 does not keep the store)."""
        from .helpers import piled

        _outputs, report = piled().run()
        fails, n = check_theorem1_io(report.params, report)
        assert fails == [] and n > 0
        assert report.supersteps[0].phases.reorganize > 0
        report.supersteps[0].phases.reorganize *= 2
        fails, _n = check_theorem1_io(report.params, report)
        assert any(
            f.oracle == "theorem1_io" and "Algorithm 2" in f.message
            for f in fails
        )


# -- competitor-sorter (baseline) workloads -----------------------------------


class TestBaselineWorkloads:
    """The counted-cost competitors run through the same fuzzer stack."""

    def baseline_config(self, workload, **overrides):
        base = dict(workload=workload, n=200, M=256, D=2, B=8)
        base.update(overrides)
        return repair(base)

    @pytest.mark.parametrize("workload", BASELINE_WORKLOADS)
    def test_case_passes_all_oracles(self, workload):
        result = run_case(self.baseline_config(workload))
        assert result.passed, [str(f) for f in result.failures]
        # Three planes: primary (memory), reference folds into primary here,
        # so at least primary + file-storage ran the output oracle.
        assert result.checks["output_vs_reference"] >= 2
        assert result.checks["theorem1_io"] == 1
        assert result.checks["plane_equivalence"] >= 1

    @pytest.mark.parametrize("workload", BASELINE_WORKLOADS)
    def test_non_memory_fast_primary_differentiates(self, workload):
        cfg = self.baseline_config(workload, storage="mmap", fast_io=True)
        result = run_case(cfg)
        assert result.passed, [str(f) for f in result.failures]
        # primary + reference + file-storage are all distinct planes here.
        assert result.checks["output_vs_reference"] == 3
        assert result.checks["plane_equivalence"] == 2

    def test_repair_folds_the_cgm_axes(self):
        cfg = repair(dict(
            workload="guidesort", p=4, v=8, k=3, backend="process",
            fault="kill", crash=True, checkpoint=True,
            storage="file",
            n=50, M=1, D=2, B=8,
        ))
        assert (cfg.p, cfg.v, cfg.k) == (1, 1, None)
        assert cfg.backend == "inline"
        assert cfg.fault == "none" and not cfg.crash and not cfg.checkpoint
        assert cfg.storage == "file"  # the live axes survive repair
        assert cfg.n == 50 and cfg.B == 8
        assert cfg.M >= 2 * cfg.D * cfg.B
        assert repair(cfg) == cfg  # idempotent

    def test_algorithm_refuses_baseline_workloads(self):
        cfg = self.baseline_config("buffertree")
        with pytest.raises(ValueError, match="competitor"):
            cfg.algorithm()

    def test_shrink_candidates_stay_on_the_baseline_plane(self):
        cfg = self.baseline_config(
            "emmergesort", n=120, M=512, D=3, storage="mmap", fast_io=True
        )
        cands = list(shrink_candidates(cfg))
        assert cands  # fast_io / storage / n / M / B all shrinkable
        for cand in cands:
            assert cand.is_baseline
            cand.baseline_sorter()  # still admissible

    def test_bound_violation_is_flagged_as_theorem1_io(self, monkeypatch):
        from repro.baselines import KWayMergeSort

        monkeypatch.setattr(
            KWayMergeSort, "predicted_io_ops", lambda self, n: 0
        )
        result = run_case(self.baseline_config("emmergesort"))
        assert any(f.oracle == "theorem1_io" for f in result.failures)


# -- shrinker -----------------------------------------------------------------


class TestShrinker:
    def test_candidates_are_admissible_and_simpler_first(self):
        cfg = small_config(
            fault="transient", fast_io=True, context_cache=True, n=128, v=4
        )
        cands = list(shrink_candidates(cfg))
        assert cands[0].fault == "none"  # dropping the fault is tried first
        for cand in cands:
            cand.params()  # repair keeps every candidate admissible

    def test_shrink_returns_original_when_nothing_fails(self):
        cfg = small_config()
        shrunk, runs = shrink(cfg, "no_crash", budget=3)
        assert shrunk == cfg
        assert runs <= 3


# -- ReproCase serialization --------------------------------------------------


class TestReproCase:
    def make(self):
        return ReproCase(
            config=small_config(),
            oracle="theorem1_io",
            message="superstep 0: boom",
            fuzz_seed=0,
            case_index=5,
            original=small_config(n=256),
            shrink_runs=7,
        )

    def test_json_round_trip(self):
        case = self.make()
        assert ReproCase.from_json(case.to_json()) == case

    def test_unknown_schema_version_rejected(self):
        payload = json.loads(self.make().to_json())
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ValueError, match="schema_version"):
            ReproCase.from_json(json.dumps(payload))

    def test_save_load_and_replay_command(self, tmp_path):
        case = self.make()
        path = case.save(tmp_path / "case.json")
        assert ReproCase.load(path) == case
        cmd = case.replay_command(path)
        assert cmd.startswith("PYTHONPATH=src python -m repro conform --repro ")
        assert str(path) in cmd

    def test_case_saved_with_the_retired_overlap_axis_loads_and_runs(self):
        """Saved cases carry whole configs; one written while ``io_overlap``
        (or the engine) was a conform axis drops the key and replays on the
        plane it named — at p = 1 either engine named the one engine."""
        payload = json.loads(self.make().to_json())
        payload["config"].update(storage="file", io_overlap=True, engine="sequential")
        payload["original"].update(io_overlap=True, engine="parallel")
        case = ReproCase.from_json(json.dumps(payload))
        assert case.config == small_config(storage="file")
        assert case.original == small_config(n=256)
        result = run_case(case.config)
        assert result.passed, [str(f) for f in result.failures]

    def test_case_saved_with_the_retired_records_axis_loads_and_runs(self):
        """One written while the record plane was a conform axis drops the
        key and replays on the plane its input picks."""
        payload = json.loads(self.make().to_json())
        payload["config"]["records"] = "vector"
        payload["original"]["records"] = "object"
        case = ReproCase.from_json(json.dumps(payload))
        assert case.config == small_config()
        assert case.original == small_config(n=256)
        assert case.config.algorithm().record_mode == "vector"
        result = run_case(case.config)
        assert result.passed, [str(f) for f in result.failures]


# -- the tier-1 fuzz budget ---------------------------------------------------


class TestFuzzBudget:
    def test_fixed_seed_quick_budget_passes(self):
        stats = fuzz(seed=0, budget=10, profile=QUICK)
        assert stats.passed, [
            (r.oracle, r.message, r.config.describe()) for r in stats.failures
        ]
        assert stats.cases_run == 10
        assert stats.checks["output_vs_reference"] > 0
        assert stats.checks["theorem1_io"] > 0


# -- CLI ----------------------------------------------------------------------


class TestConformCLI:
    def run_cli(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro", "conform", *argv],
            capture_output=True,
            text=True,
            cwd=REPO,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )

    def test_fuzz_smoke(self):
        proc = self.run_cli("--seed", "1", "--budget", "3", "--profile", "quick")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "all oracles passed" in proc.stdout

    def test_repro_of_a_fixed_case_exits_cleanly(self, tmp_path):
        case = ReproCase(
            config=small_config(), oracle="no_crash", message="was flaky"
        )
        path = case.save(tmp_path / "case.json")
        proc = self.run_cli("--repro", str(path))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "no longer fails" in proc.stdout


# -- fixed regressions --------------------------------------------------------


class TestFixedRegressions:
    """Shrunk ReproCases of bugs the fuzzer found, replayed on every run."""

    def crash_resume_eof_case(self, p, backend):
        """PR 8 fix: crash_resume EOFError on cached-context file crashes.

        With ``context_cache=True`` on the fast data plane, context saves
        are charge-only — the pickled bytes live in the host-side cache and
        the context region of the disk image stays empty.  The attach-based
        resume path restored ``ctx_used`` but invalidated the cache, so the
        first ``load_group`` after a crash read zero bytes off disk and
        died in ``pickle.loads(b"")`` (EOFError: Ran out of input).  Fixed
        by re-priming the cache from the checkpoint's portable
        ``proc_states`` at attach time (zero counted I/O).
        """
        return ReproCase(
            config=ConformConfig(
                p=p, D=2, B=8, b=16, M=4096, v=4,
                workload="listrank", n=48, backend=backend,
                checkpoint=True, fast_io=True, context_cache=True,
                storage="file", crash=True, crash_point=4, crash_seed=3,
            ),
            oracle="crash_resume",
            message="recovery raised EOFError('Ran out of input')",
        )

    # The ids name the machine: "sequential" is p = 1, "parallel" p = 2.
    @pytest.mark.parametrize(
        "p,backend",
        [
            pytest.param(2, "inline", id="parallel-inline"),
            pytest.param(2, "process", id="parallel-process"),
            pytest.param(1, "inline", id="sequential-inline"),
            pytest.param(1, "process", id="sequential-process"),
        ],
    )
    def test_crash_resume_survives_cached_context_attach(self, p, backend):
        case = self.crash_resume_eof_case(p, backend)
        result = run_case(case.config)
        assert not result.failures, [
            (f.oracle, f.message) for f in result.failures
        ]
        assert result.checks["crash_resume"] >= 1

    def test_crash_resume_eof_case_round_trips(self):
        case = self.crash_resume_eof_case(2, "inline")
        assert ReproCase.from_json(case.to_json()) == case
