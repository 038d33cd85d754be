"""Greedy config shrinking: find the smallest config that still fails.

A raw fuzzer failure is usually an unreadable 8-knob tangle.  The shrinker
repeatedly tries one simplification at a time — drop the fault plan, drop
the crash plan, drop checkpointing, fold the process backend to inline,
switch the fast knobs
off, halve ``n`` / ``v`` / ``p`` / ``D`` / ``M`` / ``B``, forget the
explicit ``k`` — keeping a candidate only if the *same oracle* still fails
on it.  Every candidate goes back through
:func:`repro.conform.strategies.repair`, so shrinking can never leave the
admissible set (a halved ``n`` snaps back to the workload's minimum shape,
a halved ``M`` to one context, and so on).

The loop is a fixpoint iteration over first-accepted transformations,
bounded by a run budget; it terminates because every accepted candidate
strictly simplifies the config and rejected candidates are never retried
within a pass.
"""

from __future__ import annotations

from typing import Iterator

from .config import ConformConfig
from .strategies import repair

__all__ = ["shrink", "shrink_candidates"]


def shrink_candidates(config: ConformConfig) -> Iterator[ConformConfig]:
    """Yield repaired one-step simplifications of ``config``, biggest first."""
    c = config
    if c.fault != "none":
        yield repair(c.with_(fault="none"))
    if c.crash:
        yield repair(c.with_(crash=False))
    if c.crash and c.crash_point > 0:
        yield repair(c.with_(crash_point=c.crash_point // 2))
    if c.checkpoint and c.fault != "kill" and not c.crash:
        yield repair(c.with_(checkpoint=False))
    if c.backend == "process":
        yield repair(c.with_(backend="inline"))
    if c.fast_io:
        yield repair(c.with_(fast_io=False))
    if c.context_cache:
        yield repair(c.with_(context_cache=False))
    if c.storage != "memory":
        yield repair(c.with_(storage="memory"))
    if c.storage == "mmap":
        yield repair(c.with_(storage="file"))
    if c.records != "object":
        yield repair(c.with_(records="object"))
    if c.n > 2:
        yield repair(c.with_(n=c.n // 2))
    if c.v > 1:
        yield repair(c.with_(v=max(1, c.v // 2)))
    if c.p > 1:
        yield repair(c.with_(p=max(1, c.p // 2)))
    if c.D > 1:
        yield repair(c.with_(D=max(1, c.D // 2)))
    if c.k is not None:
        yield repair(c.with_(k=None))
    if c.M > 1:
        yield repair(c.with_(M=c.M // 2))
    if c.B > 1:
        yield repair(c.with_(B=max(1, c.B // 2)))
    if c.b != c.B:
        yield repair(c.with_(b=c.B))
    if c.fault == "kill" and c.dead_after > 1:
        yield repair(c.with_(dead_after=c.dead_after // 2))


def shrink(
    config: ConformConfig, oracle: str, budget: int = 80
) -> tuple[ConformConfig, int]:
    """Minimize ``config`` while oracle ``oracle`` keeps failing.

    Returns ``(smallest failing config found, verification runs spent)``.
    The original config is returned unchanged if no simplification
    preserves the failure (or the budget is exhausted immediately).
    """
    from .runner import run_case

    runs = 0
    current = config
    improved = True
    while improved and runs < budget:
        improved = False
        for candidate in shrink_candidates(current):
            if candidate == current:
                continue
            if runs >= budget:
                break
            runs += 1
            try:
                still_fails = any(
                    f.oracle == oracle for f in run_case(candidate).failures
                )
            except Exception:  # noqa: BLE001 - a *different* blowup: reject
                still_fails = False
            if still_fails:
                current = candidate
                improved = True
                break
    return current, runs
