"""Deterministic crash-point explorer for the storage plane (DESIGN §9).

A checkpointed run on a non-memory storage plane crosses a fixed set of
*crash points*: for every compound-superstep barrier, the five stages of
:data:`~repro.emio.faults.CRASH_STAGES` — a torn slot write, writes lost
because they were reordered past the barrier fsync, a kill after the sync
but before the journal commit, a kill after the fsynced temp journal file
but before the rename, and a kill right after the rename.  The explorer
enumerates *all* of them:

1. run the workload once fault-free on ``<root>/golden`` and record its
   outputs, cost-ledger summary, and the number of checkpoints taken;
2. for every global crash point ``i`` re-run on a fresh ``<root>/pt<i>``
   with ``CrashPlan(crash_point=i)`` and let the injected
   :class:`~repro.emio.faults.HostCrash` kill the run mid-protocol;
3. :func:`~repro.core.checkpoint.scrub` the wreckage — under the commit
   protocol an honest engine can never lose a generation to the scrub, so
   any quarantine is itself a failure;
4. resume from the scrubbed checkpoint on a fresh engine with
   ``max_recoveries=0`` (no recovery budget to paper over damage), or
   restart from scratch when the crash predates the first commit;
5. require outputs *and* counted costs byte-identical to the golden run.

Steps 2-4 — the protocol for one crash point — are
:func:`crash_and_recover`, which reports what happened and judges nothing.
:func:`explore` loops it over every point and applies step 5; the
conformance fuzzer's ``crash_resume`` oracle calls it for its config's one
seeded point and holds the result to the reference outputs instead.  The
``repro crashcheck`` CLI subcommand is a thin wrapper over :func:`explore`.

The whole sweep is deterministic: same workload, seeds, and machine tuple
give the same crash points, the same damage, and the same verdicts.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from .bsp.program import BSPAlgorithm
from .core.checkpoint import ScrubResult, scrub
from .core.engine import RunConfig
from .core.simulator import build_params, make_engine
from .emio.faults import CRASH_STAGES, CrashPlan, HostCrash
from .params import MachineParams

__all__ = [
    "CrashPointOutcome", "CrashCheckResult", "CrashRun", "crash_and_recover",
    "explore",
]


@dataclass
class CrashPointOutcome:
    """Verdict for one crash point of the sweep.

    ``action`` is :attr:`CrashRun.action`; ``"scrub"`` and ``"no-crash"``
    (the plan's point was never reached) are failures in themselves inside
    an exhaustive sweep.
    """

    point: int
    stage: str
    action: str
    ok: bool
    detail: str = ""


@dataclass
class CrashCheckResult:
    """Outcome of one :func:`explore` sweep."""

    total_points: int
    checkpoints: int
    golden_summary: dict
    outcomes: list[CrashPointOutcome] = field(default_factory=list)
    extents_verified: int = 0

    @property
    def passed(self) -> bool:
        return bool(self.outcomes) and all(o.ok for o in self.outcomes)

    @property
    def failures(self) -> list[CrashPointOutcome]:
        return [o for o in self.outcomes if not o.ok]


@dataclass
class CrashRun:
    """What one crash point did, before anyone judges it.

    ``action`` is what recovery did: ``"resume@<step>"`` (scrub handed back
    a committed barrier), ``"restart"`` (crash predates the first commit),
    ``"scrub"`` (scrub quarantined a generation; nothing was resumed) or
    ``"no-crash"`` (the run never died of a :class:`HostCrash`: it either
    finished, and ``outputs``/``report`` are its own, or raised ``failure``).
    ``failure`` with a recovery action is what the recovery raised.
    """

    action: str
    outputs: list[Any] | None = None
    report: Any = None
    scrub: ScrubResult | None = None  # set once the wreckage was scrubbed
    failure: Exception | None = None


def crash_and_recover(
    build: Callable[..., Any],
    storage_dir: str,
    plan: CrashPlan,
    observer: Any = None,
) -> CrashRun:
    """Drive one crash point: crash, scrub, resume or restart.

    ``build(storage_dir=...)`` returns a fresh engine on the caller's plane
    and accepts ``crash=`` and ``max_recoveries=``.  The crash run gets
    ``crash=plan``; recovery gets ``max_recoveries=0`` so no recovery
    budget can paper over storage damage.  No verdict is passed here — :func:`explore` holds the result
    to its golden run, the fuzzer's ``crash_resume`` oracle to the
    reference outputs.
    """
    try:
        outputs, report = build(storage_dir=storage_dir, crash=plan).run()
    except HostCrash:
        pass
    except Exception as exc:  # noqa: BLE001 - any other crash is a finding
        return CrashRun("no-crash", failure=exc)
    else:
        return CrashRun("no-crash", outputs, report)

    res = scrub(storage_dir, observer=observer)
    if res.quarantined:
        return CrashRun("scrub", scrub=res)
    engine = build(storage_dir=storage_dir, max_recoveries=0)
    try:
        if res.checkpoint is not None:
            action = f"resume@{res.checkpoint.step}"
            outputs, report = engine.resume_from_checkpoint(res.checkpoint)
        else:
            action = "restart"
            outputs, report = engine.run()
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        return CrashRun(action, scrub=res, failure=exc)
    return CrashRun(action, outputs, report, res)


def explore(
    algorithm_factory: Callable[[], BSPAlgorithm],
    machine: MachineParams,
    v: int,
    root: str | os.PathLike,
    *,
    k: int | None = None,
    crash_seed: int = 7,
    keep_rate: float = 0.5,
    observer: Any = None,
    log: Callable[[str], None] | None = None,
    **knobs,
) -> CrashCheckResult:
    """Crash at every crash point of the run; verify every recovery.

    ``algorithm_factory`` must return a *fresh* algorithm instance per call
    (each crash point replays the workload from scratch);
    ``ConformConfig.algorithm`` is exactly such a factory.  ``root`` is a
    scratch directory the sweep fills with one storage root per crash
    point (``golden``, ``pt0``, ``pt1``, ...), left behind for post-mortem.
    ``knobs`` (:class:`~repro.core.engine.RunConfig` fields, e.g.
    ``records="vector", fast_io=True, context_cache=True``) pick the plane
    every engine of the sweep runs on; ``storage`` defaults to ``"file"``
    here, and every run is checkpointed.
    """
    say = log or (lambda _msg: None)
    root = os.fspath(root)
    os.makedirs(root, exist_ok=True)
    plane = replace(RunConfig.of(RunConfig(storage="file"), **knobs), checkpoint=True)

    def build(**kw):
        """One engine over a fresh algorithm instance, on the sweep's plane
        with ``kw`` (``storage_dir``, ``crash``, ``max_recoveries``) set."""
        alg = algorithm_factory()
        return make_engine(alg, build_params(alg, machine, v, k=k), plane, **kw)

    golden_out, golden_rep = build(storage_dir=os.path.join(root, "golden")).run()
    checkpoints = golden_rep.faults.checkpoints_taken
    golden_summary = golden_rep.ledger.summary()
    total = len(CRASH_STAGES) * checkpoints
    say(
        f"golden run: {checkpoints} checkpoints -> {total} crash points "
        f"({len(CRASH_STAGES)} stages per barrier)"
    )
    result = CrashCheckResult(
        total_points=total,
        checkpoints=checkpoints,
        golden_summary=golden_summary,
    )

    for point in range(total):
        stage = CRASH_STAGES[point % len(CRASH_STAGES)]
        plan = CrashPlan(seed=crash_seed, crash_point=point, keep_rate=keep_rate)
        run = crash_and_recover(
            build, os.path.join(root, f"pt{point}"), plan, observer
        )
        if run.scrub is not None:
            result.extents_verified += run.scrub.extents_verified
        detail = _finding(run, golden_out, golden_summary)
        result.outcomes.append(
            CrashPointOutcome(point, stage, run.action, not detail, detail)
        )
        verdict = "FAIL" if detail else "ok  "
        say(f"point {point:3d} [{stage:9s}] {verdict} {run.action}"
            + (f"  {detail}" if detail else ""))
    return result


def _finding(run: CrashRun, golden_out: list[Any], golden_summary: dict) -> str:
    """Why ``run`` fails the sweep's standard, or ``""`` when it meets it:
    a crash, a clean scrub, and outputs *and* costs identical to golden."""
    if run.action == "no-crash":
        if run.failure is not None:
            return f"crash run raised {run.failure!r} instead of HostCrash"
        return "run completed without reaching its crash point"
    if run.action == "scrub":
        return (
            f"scrub quarantined generations {run.scrub.quarantined} "
            f"({'; '.join(run.scrub.errors)}) — the commit protocol should "
            "never lose a generation to an injected crash"
        )
    if run.failure is not None:
        return f"recovery raised {run.failure!r}"
    if run.outputs != golden_out:
        return "recovered outputs differ from the golden run"
    summary = run.report.ledger.summary()
    if summary != golden_summary:
        diff = {
            key: (golden_summary[key], summary[key])
            for key in golden_summary
            if summary.get(key) != golden_summary[key]
        }
        return f"recovered cost ledger differs from golden: {diff}"
    return ""
