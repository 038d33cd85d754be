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

The whole sweep is deterministic: same workload, seeds, and machine tuple
give the same crash points, the same damage, and the same verdicts.  The
``repro crashcheck`` CLI subcommand and the conformance fuzzer's
``crash_resume`` oracle are both thin wrappers over :func:`explore`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable

from .bsp.program import BSPAlgorithm
from .core.checkpoint import scrub
from .core.simulator import build_params, make_engine
from .emio.faults import CRASH_STAGES, CrashPlan, HostCrash
from .params import MachineParams

__all__ = ["CrashPointOutcome", "CrashCheckResult", "explore"]


@dataclass
class CrashPointOutcome:
    """Verdict for one crash point of the sweep.

    ``action`` is what recovery did: ``"resume@<step>"`` (scrub handed back
    a committed barrier), ``"restart"`` (crash predates the first commit),
    or ``"no-crash"`` (the plan's point was never reached — itself a
    failure inside an exhaustive sweep).
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


def _build_engine(
    algorithm_factory: Callable[[], BSPAlgorithm],
    machine: MachineParams,
    v: int,
    k: int | None,
    seed: int,
    backend: str,
    storage: str,
    storage_dir: str,
    crash: CrashPlan | None,
    max_recoveries: int = 8,
    records: str | None = None,
    **engine_kwargs,
):
    """One engine over a fresh algorithm instance, storage plane attached."""
    alg = algorithm_factory()
    if records is not None:
        alg.set_record_mode(records)
    params = build_params(alg, machine, v, k=k)
    kwargs = dict(
        seed=seed,
        checkpoint=True,
        max_recoveries=max_recoveries,
        storage=storage,
        storage_dir=storage_dir,
        crash=crash,
        **engine_kwargs,
    )
    # A non-inline backend needs Algorithm 3 even on a p = 1 machine.
    engine = "auto" if backend == "inline" else "parallel"
    return make_engine(alg, params, engine=engine, backend=backend, **kwargs)


def explore(
    algorithm_factory: Callable[[], BSPAlgorithm],
    machine: MachineParams,
    v: int,
    root: str | os.PathLike,
    *,
    k: int | None = None,
    seed: int = 0,
    crash_seed: int = 7,
    keep_rate: float = 0.5,
    backend: str = "inline",
    storage: str = "file",
    observer: Any = None,
    log: Callable[[str], None] | None = None,
    **plane,
) -> CrashCheckResult:
    """Crash at every crash point of the run; verify every recovery.

    ``algorithm_factory`` must return a *fresh* algorithm instance per call
    (each crash point replays the workload from scratch);
    ``ConformConfig.algorithm`` is exactly such a factory.  ``root`` is a
    scratch directory the sweep fills with one storage root per crash
    point (``golden``, ``pt0``, ``pt1``, ...), left behind for post-mortem.
    ``plane`` picks the data plane every engine of the sweep runs on:
    ``records=`` (as :func:`~repro.core.simulator.simulate` takes it) and
    engine knobs such as ``fast_io=True, context_cache=True``.
    """
    say = log or (lambda _msg: None)
    root = os.fspath(root)
    os.makedirs(root, exist_ok=True)
    golden_dir = os.path.join(root, "golden")

    golden_out, golden_rep = _build_engine(
        algorithm_factory, machine, v, k, seed, backend, storage,
        golden_dir, crash=None, **plane,
    ).run()
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
        point_dir = os.path.join(root, f"pt{point}")
        plan = CrashPlan(seed=crash_seed, crash_point=point, keep_rate=keep_rate)
        outcome = _explore_point(
            algorithm_factory, machine, v, k, seed, backend, storage,
            point_dir, plan, point, stage, golden_out, golden_summary,
            observer, result, plane,
        )
        result.outcomes.append(outcome)
        verdict = "ok  " if outcome.ok else "FAIL"
        detail = f"  {outcome.detail}" if outcome.detail else ""
        say(f"point {point:3d} [{stage:9s}] {verdict} {outcome.action}{detail}")
    return result


def _explore_point(
    algorithm_factory,
    machine,
    v,
    k,
    seed,
    backend,
    storage,
    point_dir,
    plan,
    point,
    stage,
    golden_out,
    golden_summary,
    observer,
    result,
    plane,
) -> CrashPointOutcome:
    """Crash at one point, scrub, recover, and compare against golden."""
    try:
        _build_engine(
            algorithm_factory, machine, v, k, seed, backend, storage,
            point_dir, crash=plan, **plane,
        ).run()
    except HostCrash:
        pass
    except Exception as exc:  # noqa: BLE001 - any other crash is a finding
        return CrashPointOutcome(
            point, stage, "no-crash", False,
            f"crash run raised {exc!r} instead of HostCrash",
        )
    else:
        return CrashPointOutcome(
            point, stage, "no-crash", False,
            "run completed without reaching its crash point",
        )

    res = scrub(point_dir, observer=observer)
    result.extents_verified += res.extents_verified
    if res.quarantined:
        return CrashPointOutcome(
            point, stage, "scrub", False,
            f"scrub quarantined generations {res.quarantined} "
            f"({'; '.join(res.errors)}) — the commit protocol should never "
            "lose a generation to an injected crash",
        )

    engine = _build_engine(
        algorithm_factory, machine, v, k, seed, backend, storage,
        point_dir, crash=None, max_recoveries=0, **plane,
    )
    try:
        if res.checkpoint is not None:
            action = f"resume@{res.checkpoint.step}"
            out, rep = engine.resume_from_checkpoint(res.checkpoint)
        else:
            action = "restart"
            out, rep = engine.run()
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        return CrashPointOutcome(
            point, stage, "resume" if res.checkpoint else "restart", False,
            f"recovery raised {exc!r}",
        )

    if out != golden_out:
        return CrashPointOutcome(
            point, stage, action, False,
            "recovered outputs differ from the golden run",
        )
    summary = rep.ledger.summary()
    if summary != golden_summary:
        diff = {
            key: (golden_summary[key], summary[key])
            for key in golden_summary
            if summary.get(key) != golden_summary[key]
        }
        return CrashPointOutcome(
            point, stage, action, False,
            f"recovered cost ledger differs from golden: {diff}",
        )
    return CrashPointOutcome(point, stage, action, True)
