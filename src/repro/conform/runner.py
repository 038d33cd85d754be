"""Run one config through the oracle stack; fuzz a seeded budget of them.

:func:`run_case` is the differential heart: it executes the configured
plane *and* every equivalent plane of the same configuration (reference
knobs off, fast knobs on, process backend folded back to inline), compares
all of them byte-for-byte, and checks the quantitative oracles on the
primary plane.  Kill configs instead drive the checkpoint/kill-resume
protocol: run to the injected disk death, resume the aborted run from its
last checkpoint on a fresh healthy engine, and hold the result to the same
reference-output standard.  Crash configs drive the host-crash protocol:
die mid-checkpoint at a seeded crash point, ``scrub()`` the storage root,
and resume with zero recovery budget (the ``crash_resume`` oracle).

:func:`fuzz` draws configs ``0..budget-1`` from the seed, stops at the
first failure (or runs the full budget with ``stop_on_failure=False``),
shrinks the failing config, and serializes a replayable
:class:`~repro.conform.case.ReproCase`.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ..bsp.runner import run_reference
from ..core.checkpoint import SimulationAborted
from ..core.engine import RunConfig
from ..core.simulator import build_params, make_engine
from ..crashcheck import crash_and_recover
from ..emio.faults import FATAL_IO_FAULTS, FaultPlan
from .case import ReproCase
from .config import ConformConfig
from .oracles import (
    OracleFailure,
    canonical_record,
    check_lemma2,
    check_outputs,
    check_plane_equivalence,
    check_theorem1_io,
)
from .strategies import DEFAULT, StrategyProfile, random_config

__all__ = [
    "CaseResult", "FuzzStats", "run_case", "fuzz", "equivalent_planes", "REFERENCE",
]

#: The reference plane's engine knobs, spelled once: the per-attempt physical
#: path of the disk array and contexts read back from the disk image.  Left
#: at ``None`` the knobs follow the storage plane (fast in the heap), so a
#: run that is *meant* as the oracle of a comparison passes ``**REFERENCE``.
REFERENCE = {"fast_io": False, "context_cache": False}


@dataclass
class CaseResult:
    """Everything :func:`run_case` learned about one config."""

    config: ConformConfig
    failures: list[OracleFailure] = field(default_factory=list)
    #: oracle name -> number of individual checks performed.
    checks: Counter = field(default_factory=Counter)
    #: plane key -> canonical record (non-kill cases only).
    records: dict[str, dict] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.failures


def equivalent_planes(config: ConformConfig) -> list[tuple[str, ConformConfig]]:
    """The configured plane plus every plane that must be byte-equivalent.

    The flags flipped here are exactly the ones documented as counted-cost
    invisible: ``fast_io``, ``context_cache``, the process backend, the
    block-storage plane, and the record plane (``records="vector"`` for
    algorithms that support it).  Engine choice and ``p`` are *not*
    equivalent planes (they change the counted schedule), and kill configs
    run single-plane through the kill-resume protocol instead.
    """
    planes = [("primary", config)]
    reference = config.with_(
        **REFERENCE, backend="inline", storage="memory", records="object",
    )
    if reference != config:
        planes.append(("reference", reference))
    fastpath = config.with_(fast_io=True, context_cache=True)
    if fastpath not in (config, reference):
        planes.append(("fastpath", fastpath))
    if config.storage == "memory":
        filed = config.with_(storage="file")
        if filed not in (p for _, p in planes):
            planes.append(("file-storage", filed))
    # The other record mode is a differential plane: counted costs, ledgers,
    # and outputs must be byte-identical across object and vector.
    other = "object" if config.records == "vector" else "vector"
    if other in config.algorithm().RECORD_MODES:
        vec = config.with_(records=other)
        if vec not in (p for _, p in planes):
            planes.append((f"{other}-records", vec))
    return planes


def _build_engine(config: ConformConfig, faults: FaultPlan | None, **knobs):
    """One engine instance for ``config`` (fresh algorithm, fresh params);
    ``knobs`` (``storage_dir``, ``crash``, ``max_recoveries``) complete its
    :class:`~repro.core.engine.RunConfig`."""
    alg = config.algorithm()
    params = build_params(alg, config.machine(), config.v, k=config.k)
    plane = RunConfig(
        engine=config.engine,
        backend=config.backend,
        seed=config.sim_seed,
        storage=config.storage,
        fast_io=config.fast_io,
        context_cache=config.context_cache,
        records=config.records,
        faults=faults,
        retry=config.retry_policy() if faults is not None else None,
        checkpoint=config.checkpoint,
    )
    return make_engine(alg, params, plane, **knobs)


def run_case(config: ConformConfig) -> CaseResult:
    """Execute ``config`` on every equivalent plane and apply the oracles."""
    result = CaseResult(config=config)
    if config.is_baseline:
        _run_baseline_case(config, result)
        return result
    try:
        reference_out, _ledger = run_reference(config.algorithm(), config.v)
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        result.failures.append(
            OracleFailure("no_crash", f"reference runner raised {exc!r}")
        )
        return result

    if config.crash:
        _run_crash_case(config, reference_out, result)
        return result

    if config.fault == "kill":
        _run_kill_case(config, reference_out, result)
        return result

    for key, plane_cfg in equivalent_planes(config):
        try:
            outputs, report = _build_engine(
                plane_cfg, faults=plane_cfg.fault_plan()
            ).run()
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            result.failures.append(
                OracleFailure("no_crash", f"plane {key}: raised {exc!r}")
            )
            continue
        result.checks["output_vs_reference"] += 1
        result.failures.extend(check_outputs(key, outputs, reference_out))
        result.records[key] = canonical_record(outputs, report)
        if key == "primary":
            params = report.params
            fails, n = check_lemma2(params, report)
            result.checks["lemma2_balance"] += n
            result.failures.extend(fails)
            if config.fault == "none":
                # Retries/stalls charge ops the model does not count, so the
                # Theorem 1 bound is only claimed for healthy runs.
                fails, n = check_theorem1_io(params, report)
                result.checks["theorem1_io"] += n
                result.failures.extend(fails)

    if len(result.records) >= 2:
        result.checks["plane_equivalence"] += len(result.records) - 1
        result.failures.extend(check_plane_equivalence(result.records))
    return result


def _run_baseline_case(config: ConformConfig, result: CaseResult) -> None:
    """Differential + bound oracles for the competitor-sorter workloads.

    The same counted-cost sorter runs on three planes over one deterministic
    input: the config's own ``(storage, fast_io)`` plane, the reference
    plane (memory storage, fast paths off), and the file plane.  Every
    plane must return exactly the sorted reference (``output_vs_reference``)
    and all planes must charge *identical* parallel I/O — storage kind and
    ``fast_io`` are counted-cost invisible for competitors just as for the
    simulation (``plane_equivalence``).  The primary plane's measured cost
    must also respect the competitor's closed-form ``predicted_io_ops``
    bound; that verdict is filed under ``theorem1_io`` so triage and
    shrinking treat bound violations uniformly across workloads.
    """
    import pickle

    data = config.baseline_input()
    want = pickle.dumps(sorted(data))
    planes = [
        ("primary", config.storage, config.fast_io),
        ("reference", "memory", REFERENCE["fast_io"]),
        ("file-storage", "file", config.fast_io),
    ]
    costs: dict[str, int] = {}
    for key, storage, fast_io in planes:
        if key != "primary" and (storage, fast_io) == (
            config.storage, config.fast_io
        ):
            continue  # identical to the primary plane; nothing differential
        sorter = config.baseline_sorter(storage=storage, fast_io=fast_io)
        try:
            out, stats = sorter.sort(list(data))
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            result.failures.append(
                OracleFailure("no_crash", f"plane {key}: raised {exc!r}")
            )
            continue
        result.checks["output_vs_reference"] += 1
        if pickle.dumps(list(out)) != want:
            result.failures.append(
                OracleFailure(
                    "output_vs_reference",
                    f"plane {key}: {config.workload} output differs from the "
                    f"sorted reference (n={config.n})",
                )
            )
        costs[key] = stats.io_ops
        if key == "primary":
            bound = sorter.predicted_io_ops(config.n)
            result.checks["theorem1_io"] += 1
            if stats.io_ops > bound:
                result.failures.append(
                    OracleFailure(
                        "theorem1_io",
                        f"{config.workload}: measured {stats.io_ops} parallel "
                        f"I/O ops exceed the closed-form bound {bound:g} "
                        f"(n={config.n} M={config.M} D={config.D} B={config.B})",
                    )
                )
            if stats.guide_mismatches:
                result.failures.append(
                    OracleFailure(
                        "plane_equivalence",
                        f"{config.workload}: prefetch schedule disagreed with "
                        f"consumption order {stats.guide_mismatches} times",
                    )
                )
    if len(costs) >= 2:
        result.checks["plane_equivalence"] += len(costs) - 1
        if len(set(costs.values())) > 1:
            result.failures.append(
                OracleFailure(
                    "plane_equivalence",
                    f"{config.workload}: counted I/O differs across "
                    f"storage/fast-path planes: {costs}",
                )
            )


def _run_crash_case(
    config: ConformConfig, reference_out: list[Any], result: CaseResult
) -> None:
    """Drive the crash-and-scrub-resume protocol and check its oracle.

    The config's :class:`~repro.emio.faults.CrashPlan` kills the run at one
    checkpoint-barrier crash stage (torn write, lost pre-fsync writes, or a
    kill between journal stages).  Recovery is exactly what a real operator
    would do, and what the crash explorer does at every point
    (:func:`~repro.crashcheck.crash_and_recover`): scrub the storage root,
    then resume from the scrubbed checkpoint on a fresh engine with
    ``max_recoveries=0``.  Under the commit protocol an honest engine never
    loses a generation to the scrub, so *any* quarantine is a
    ``crash_resume`` failure in itself.  A crash point past the run's last
    barrier lets the run finish; that degenerates to a plain conformance
    check.
    """
    import shutil
    import tempfile

    root = tempfile.mkdtemp(prefix="conform-crash-")
    try:
        run = crash_and_recover(
            lambda **kw: _build_engine(config, faults=None, **kw),
            root,
            config.crash_plan(),
        )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if run.action == "no-crash":
        if run.failure is not None:
            result.failures.append(
                OracleFailure("no_crash", f"crash plane raised {run.failure!r}")
            )
            return
        # The run never reached its crash point: plain conformance check.
        result.checks["crash_survived"] += 1
        result.failures.extend(
            check_outputs("crash-survived", run.outputs, reference_out)
        )
        return
    if run.action == "scrub":
        result.failures.append(
            OracleFailure(
                "crash_resume",
                f"scrub quarantined generations {run.scrub.quarantined} after "
                f"crash at point {config.crash_point} "
                f"({'; '.join(run.scrub.errors)}) — the commit protocol should "
                "confine damage to uncommitted extents",
            )
        )
        return
    if run.failure is not None:
        result.failures.append(
            OracleFailure(
                "crash_resume",
                f"recovery after crash at point {config.crash_point} "
                f"raised {run.failure!r}",
            )
        )
        return
    ckpt = run.scrub.checkpoint
    if ckpt is not None:
        result.checks["crash_resume"] += 1
        faults = run.report.faults
        if faults is None or faults.resumed_from_step != ckpt.step:
            got = None if faults is None else faults.resumed_from_step
            result.failures.append(
                OracleFailure(
                    "crash_resume",
                    f"resumed run reports resumed_from_step={got}, "
                    f"expected {ckpt.step}",
                )
            )
    else:
        result.checks["crash_restart"] += 1
    result.failures.extend(
        check_outputs(f"crash-{run.action}", run.outputs, reference_out)
    )


def _run_kill_case(
    config: ConformConfig, reference_out: list[Any], result: CaseResult
) -> None:
    """Drive the kill-and-resume protocol and check its oracle.

    ``max_recoveries=0`` turns the first fatal fault into a
    :class:`SimulationAborted` carrying the last checkpoint — the "machine
    burned down" scenario.  Resuming on a fresh, healthy engine must
    reproduce the reference outputs, report the resume step and pass the
    Theorem 1 oracle.  Two
    non-failures: the doomed disk outlived the run (plain output check),
    and death before the first checkpoint (nothing to resume; counted as
    skipped).
    """
    try:
        outputs, report = _build_engine(
            config, faults=config.fault_plan(), max_recoveries=0
        ).run()
    except SimulationAborted as abort:
        if abort.checkpoint is None:
            result.checks["kill_resume_skipped"] += 1
            return
        ckpt = abort.checkpoint
        try:
            outputs, report = _build_engine(
                config, faults=None
            ).resume_from_checkpoint(ckpt)
        except Exception as exc:  # noqa: BLE001 - any crash is a finding
            result.failures.append(
                OracleFailure(
                    "kill_resume",
                    f"resume from checkpoint at step {ckpt.step} raised {exc!r}",
                )
            )
            return
        result.checks["kill_resume"] += 1
        result.failures.extend(
            check_outputs(f"resume@{ckpt.step}", outputs, reference_out)
        )
        faults = report.faults
        if faults is None or faults.resumed_from_step != ckpt.step:
            got = None if faults is None else faults.resumed_from_step
            result.failures.append(
                OracleFailure(
                    "kill_resume",
                    f"resumed run reports resumed_from_step={got}, "
                    f"expected {ckpt.step}",
                )
            )
        # Every superstep of the resumed report ran healthy (the checkpoint
        # predates the death), and the portable restore puts the incoming set
        # back where it lay, so the exact Theorem 1 layer holds across it.
        fails, n = check_theorem1_io(report.params, report)
        result.checks["theorem1_io"] += n
        result.failures.extend(fails)
        return
    except FATAL_IO_FAULTS:
        # Fatal fault outside the recovery scope (e.g. while loading input):
        # by contract there is no checkpoint to resume from.
        result.checks["kill_resume_skipped"] += 1
        return
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        result.failures.append(
            OracleFailure("no_crash", f"kill plane raised {exc!r}")
        )
        return
    # The doomed disk never died within this run: plain conformance check.
    result.checks["output_vs_reference"] += 1
    result.failures.extend(check_outputs("kill-survived", outputs, reference_out))


@dataclass
class FuzzStats:
    """Aggregate outcome of one :func:`fuzz` invocation."""

    seed: int
    budget: int
    cases_run: int = 0
    checks: Counter = field(default_factory=Counter)
    failures: list[ReproCase] = field(default_factory=list)
    elapsed: float = 0.0
    time_limited: bool = False

    @property
    def passed(self) -> bool:
        return not self.failures


def fuzz(
    seed: int = 0,
    budget: int = 100,
    time_limit: float | None = None,
    profile: StrategyProfile = DEFAULT,
    out_dir: str | Path | None = None,
    shrink_budget: int = 80,
    stop_on_failure: bool = True,
    log: Callable[[str], None] | None = None,
) -> FuzzStats:
    """Fuzz ``budget`` seeded configs; shrink and serialize any failure."""
    from .shrinker import shrink

    say = log or (lambda _msg: None)
    stats = FuzzStats(seed=seed, budget=budget)
    t0 = time.monotonic()
    for index in range(budget):
        if time_limit is not None and time.monotonic() - t0 > time_limit:
            stats.time_limited = True
            say(f"time limit {time_limit:.0f}s reached after "
                f"{stats.cases_run} cases")
            break
        config = random_config(seed, index, profile)
        result = run_case(config)
        stats.cases_run += 1
        stats.checks.update(result.checks)
        if result.passed:
            say(f"case {index}: ok   {config.describe()}")
            continue
        say(f"case {index}: FAIL {config.describe()}")
        for failure in result.failures:
            say(f"  {failure}")
        repro = _shrink_to_case(
            config, result, seed, index, shrink_budget, say, shrink
        )
        stats.failures.append(repro)
        if out_dir is not None:
            path = Path(out_dir)
            path.mkdir(parents=True, exist_ok=True)
            case_path = path / f"repro-seed{seed}-case{index}.json"
            repro.save(case_path)
            say(f"  wrote {case_path}")
            say(f"  replay: {repro.replay_command(case_path)}")
        if stop_on_failure:
            break
    stats.elapsed = time.monotonic() - t0
    return stats


def _shrink_to_case(
    config: ConformConfig,
    result: CaseResult,
    seed: int,
    index: int,
    shrink_budget: int,
    say: Callable[[str], None],
    shrink,
) -> ReproCase:
    """Shrink the failing config and package it as a :class:`ReproCase`."""
    first = result.failures[0]
    shrunk, runs = shrink(config, first.oracle, budget=shrink_budget)
    message = first.message
    if shrunk != config:
        final = run_case(shrunk)
        for failure in final.failures:
            if failure.oracle == first.oracle:
                message = failure.message
                break
        say(f"  shrunk ({runs} runs): {shrunk.describe()}")
    return ReproCase(
        config=shrunk,
        oracle=first.oracle,
        message=message,
        fuzz_seed=seed,
        case_index=index,
        original=config if shrunk != config else None,
        shrink_runs=runs,
    )
