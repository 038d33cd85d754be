"""The conformance oracle stack.

Five independent checks, each tied to a guarantee this repo claims:

``output_vs_reference``
    Invariant I3: every engine/plane produces exactly the outputs of the
    in-memory :class:`~repro.bsp.runner.ReferenceRunner`.
``plane_equivalence``
    Byte-identity of the canonical run record (outputs + ledger summary +
    per-superstep phase/routing breakdowns) across all equivalent planes of
    one configuration — ``fast_io`` / ``context_cache`` / process backend
    are *counted-cost-invisible* by construction, so their pickled records
    must match byte for byte.
``lemma2_balance``
    Lemma 2: random-permutation write cycles leave every bucket spread
    almost evenly over the ``D`` disks.  Checked per superstep per
    processor per bucket against a Chernoff-style whp allowance.
``theorem1_io``
    Theorem 1 / Lemma 4: counted parallel I/O per compound superstep is
    bounded by a closed form in :class:`~repro.params.SimulationParams`'
    terms (contexts, message blocks, reorganization rounds).  The form is
    *sound* — every term over-approximates its phase — and tight enough
    (no global fudge factor) that a 2x counter inflation in any phase
    trips it.
``kill_resume``
    Checkpoint/recovery: a run killed by a permanent disk death, resumed
    from its last checkpoint on a fresh engine, must still equal the
    reference output and report the resume step (checked by the runner,
    which owns the kill-and-resume control flow).
``crash_resume``
    Crash consistency (DESIGN §9): a run host-crashed at a checkpoint
    barrier — after a torn slot write, with pre-fsync writes reordered
    away, or between the journal's fsync/rename stages — must scrub clean
    (no quarantined generations: the commit protocol confines damage to
    extents no committed checkpoint references) and resume from the
    scrubbed checkpoint with *zero* recovery budget to the exact reference
    outputs.  Owned by the runner, like ``kill_resume``.
``no_crash``
    Implicit: an admissible config must not raise at all (failures under
    this name carry the exception).

Oracle functions return a list of :class:`OracleFailure` (empty = pass);
they never raise on a failing check, so one bad case reports every oracle
it violates.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..core.stats import SimulationReport
from ..params import SimulationParams

__all__ = [
    "OracleFailure",
    "ORACLES",
    "plain_outputs",
    "canonical_record",
    "record_bytes",
    "check_outputs",
    "check_plane_equivalence",
    "lemma2_allowance",
    "check_lemma2",
    "theorem1_io_bound",
    "check_theorem1_io",
]

#: Every oracle name a :class:`OracleFailure` may carry.
ORACLES = (
    "output_vs_reference",
    "plane_equivalence",
    "lemma2_balance",
    "theorem1_io",
    "kill_resume",
    "crash_resume",
    "no_crash",
)

# Lemma 2 allowance constants (see lemma2_allowance): 4-sigma-ish Chernoff
# slack — a per-check false-positive probability around (D+3)^-6, small
# enough for nightly budgets of ~10^5 bucket checks.
_LEM2_C = 4.0


@dataclass(frozen=True)
class OracleFailure:
    """One oracle violation: which oracle, and what it saw."""

    oracle: str
    message: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.oracle}] {self.message}"


# -- canonical run records (plane equivalence) ------------------------------


def _plain(x: Any) -> Any:
    if isinstance(x, np.ndarray):
        return x.tolist()
    if isinstance(x, (list, tuple)):
        items = [_plain(e) for e in x]
        if any(new is not old for new, old in zip(items, x)):
            return tuple(items) if isinstance(x, tuple) else items
    return x


def plain_outputs(outputs: list[Any]) -> list[Any]:
    """Per-vp outputs with every ndarray, at any depth, as a plain list.

    An array-fed sort or permutation answers in arrays (see
    :mod:`repro.algorithms._vec`); comparing and serialising go through
    this one form, so such a run is judged by value like any other.  A
    share that holds no array is returned as the very object it was, so
    list-fed runs serialise byte for byte as before.
    """
    return [_plain(o) for o in outputs]


def canonical_record(outputs: list[Any], report: SimulationReport) -> dict:
    """Everything two equivalent planes must agree on, as one plain dict.

    Mirrors the golden-comparison shape of ``tests/test_fastpath_golden.py``:
    outputs, the full ledger/report summary, and per-superstep phase +
    routing breakdowns (``repr`` of the stat dataclasses pins every field).
    """
    return {
        "outputs": plain_outputs(outputs),
        "summary": report.summary(),
        "supersteps": [
            (
                s.index,
                repr(s.phases),
                repr(s.routing),
                repr(s.routing_all),
                s.comm_packets,
                s.message_blocks,
                s.halted,
            )
            for s in report.supersteps
        ],
        "init_io_ops": report.init_io_ops,
        "output_io_ops": report.output_io_ops,
        "disk_space_tracks": report.disk_space_tracks,
    }


def record_bytes(record: dict) -> bytes:
    """The byte form compared across planes."""
    return pickle.dumps(record, protocol=4)


def check_outputs(
    plane: str, outputs: list[Any], reference: list[Any]
) -> list[OracleFailure]:
    """Invariant I3: engine outputs equal the in-memory reference outputs."""
    outputs, reference = plain_outputs(outputs), plain_outputs(reference)
    if outputs == reference:
        return []
    bad = [
        vp
        for vp in range(min(len(outputs), len(reference)))
        if outputs[vp] != reference[vp]
    ]
    if len(outputs) != len(reference):
        detail = f"{len(outputs)} outputs vs {len(reference)} reference outputs"
    else:
        detail = f"virtual processors {bad[:8]} differ"
    return [
        OracleFailure(
            "output_vs_reference", f"plane {plane}: {detail}"
        )
    ]


def check_plane_equivalence(records: dict[str, dict]) -> list[OracleFailure]:
    """Byte-identity of the canonical records of all equivalent planes."""
    if len(records) < 2:
        return []
    keys = sorted(records)
    base = keys[0]
    base_bytes = record_bytes(records[base])
    failures = []
    for key in keys[1:]:
        if record_bytes(records[key]) == base_bytes:
            continue
        diff = [
            field
            for field in records[base]
            if records[base][field] != records[key][field]
        ]
        failures.append(
            OracleFailure(
                "plane_equivalence",
                f"planes {base!r} and {key!r} diverge in {diff or '(bytes)'}",
            )
        )
    return failures


# -- Lemma 2: per-disk bucket balance ---------------------------------------


def lemma2_allowance(R: int, D: int) -> float:
    """Max blocks of an ``R``-block bucket one disk may hold, whp.

    Lemma 2 proves the loads are within ``(1+o(1)) R/D`` whp; the finite-size
    allowance here is the Chernoff upper tail for a sum of ``R`` indicators
    of mean ``1/D`` (the random-permutation cycles are negatively associated,
    so the independent-case tail is an upper bound):
    ``R/D + c*sqrt((R/D + 1) ln(D+3)) + c*ln(D+3)`` with ``c = 4``.
    """
    mean = R / D
    slack = math.log(D + 3)
    return mean + _LEM2_C * math.sqrt((mean + 1.0) * slack) + _LEM2_C * slack


def check_lemma2(
    params: SimulationParams, report: SimulationReport
) -> tuple[list[OracleFailure], int]:
    """Check every superstep's bucket store against the Lemma 2 allowance.

    Returns ``(failures, nchecks)`` where ``nchecks`` counts the
    (superstep, processor, bucket) triples inspected.
    """
    D = params.machine.D
    failures = []
    nchecks = 0
    for s in report.supersteps:
        for proc, routing in enumerate(s.routing_stats()):
            for bucket, loads in enumerate(routing.bucket_loads):
                R = sum(loads)
                if R == 0:
                    continue
                nchecks += 1
                allow = lemma2_allowance(R, D)
                if max(loads) > allow:
                    failures.append(
                        OracleFailure(
                            "lemma2_balance",
                            f"superstep {s.index} proc {proc} bucket {bucket}: "
                            f"max disk load {max(loads)} of R={R} blocks "
                            f"exceeds whp allowance {allow:.1f} "
                            f"(R/D={R / D:.1f}, loads={list(loads)})",
                        )
                    )
    return failures, nchecks


# -- Theorem 1: counted-I/O upper bound -------------------------------------


def theorem1_io_bound(
    params: SimulationParams, report: SimulationReport, per_superstep: bool = False
):
    """Closed-form upper bound on counted parallel I/O ops per superstep.

    In the terms of Theorem 1 / Lemma 4 (``k`` group size, ``D`` disks,
    ``G`` groups per processor, ``cbp = ceil(mu/B)`` context blocks per vp,
    ``T_s`` message blocks generated in superstep ``s``), each phase of
    compound superstep ``s`` is bounded by:

    * contexts (fetch + write back): ``2 G (ceil(k*cbp/D) + 1)`` — a group's
      contexts are ``k*cbp`` consecutive blocks of a striped region, read at
      full parallelism up to one alignment op.
    * fetch messages: ``ceil(T_{s-1}/D) + 2G`` — each group's slot range is
      consecutive in the reorganized region (Definition 2) — plus, where a
      processor kept superstep ``s-1``'s bucket store, the ``4*ceil(N/D)``
      the Step 2 rule (:func:`~repro.core.routing.keep_store`) lets a kept
      store's fetch spend in place of Algorithm 2's rounds, summed over
      processors: ``4 (ceil(T_{s-1}/D) + p)``.
    * write messages: ``ceil(T_s/D) + G`` — linked-bucket appends write full
      cycles of ``D`` blocks, one partial cycle per group (per scatter
      round on the parallel engine).
    * reorganize: per processor that runs Algorithm 2,
      ``2*min(T, D*maxq + D) + 2*min(T, D + maxb)`` where ``maxq`` is that
      processor's worst (bucket, disk) queue length and ``maxb`` its largest
      bucket — the exact round counts of Algorithm 2's two phases; the
      superstep charges the max over processors (0 for a kept store).

    Summed over supersteps this is the ``O(lambda * (v/p) * mu/(D*B))`` of
    Theorem 1 with explicit constants and lower-order terms.  The bound is
    checked only on healthy runs: retries and degraded writes charge extra
    ops the model does not count.
    """
    m = params.machine
    D = m.D
    groups = params.groups_per_processor
    kcbp = params.k * params.context_blocks_per_vp
    bounds = []
    prev, prev_kept = 0, False
    for s in report.supersteps:
        T = s.message_blocks
        ctx = 2 * groups * (-(-kcbp // D) + 1)
        fetch = -(-prev // D) + 2 * groups
        if prev_kept:
            fetch += 4 * (-(-prev // D) + m.p)
        write = -(-T // D) + groups
        reorg = 0
        for routing in s.routing_stats():
            if routing.kept:
                continue
            tp = routing.total_blocks
            maxq = max(
                (max(loads) for loads in routing.bucket_loads if loads),
                default=0,
            )
            maxb = max(
                (sum(loads) for loads in routing.bucket_loads), default=0
            )
            ph1 = 2 * min(tp, D * maxq + D)
            ph2 = 2 * min(tp, D + maxb)
            reorg = max(reorg, ph1 + ph2)
        bounds.append(ctx + fetch + write + reorg)
        prev, prev_kept = T, any(r.kept for r in s.routing_stats())
    return bounds if per_superstep else sum(bounds)


def _fetch_ops(routing: list, D: int) -> int:
    """What the fetches of the incoming set that Step 2 left behind cost,
    from its ``group_loads``: per group the max over processors of the
    heaviest drive (a kept store) or ``ceil(m/D)`` (Algorithm 2's region),
    summed over groups."""
    per_proc = [
        [max(row) if r.kept else -(-sum(row) // D) for row in r.group_loads]
        for r in routing
    ]
    return sum(map(max, zip(*per_proc)))


def _packed_write(packing: list, B: int, D: int) -> tuple[int, int]:
    """What Step 1(d)'s packing costs by its own record counts, as
    ``(message blocks, write ops)``: a destination group of ``r`` records
    packs into ``ceil(r/B)`` full-but-the-last blocks (one if every message
    in it is empty), and a round's blocks plus its Lemma 3 dummies go out in
    cycles of ``D``, the round charging its slowest processor."""
    blocks = ops = 0
    for round_ in packing:
        per_proc = [sum(-(-r // B) or 1 for r in loads) for loads, _dummies in round_]
        blocks += sum(per_proc)
        ops += max(
            (-(-(n + dummies) // D) for n, (_loads, dummies) in zip(per_proc, round_)),
            default=0,
        )
    return blocks, ops


def _traffic_packets(traffic: list, p: int, b: int) -> int:
    """What Algorithm 3's h-relations cost by their own record counts: per
    round, the max over processors of packets sent plus received — in the
    gather, ``max(1, ceil(records/b))`` per pair of distinct processors; in
    the scatter, ``n = max(1, ceil(records/b))`` per processor that dealt,
    all charged to it and ``floor(n/p)`` or ``ceil(n/p)`` to each receiver
    by its distance from the offset (a processor's own included)."""
    total = 0
    for gather, dealt in traffic:
        load = [0] * p
        for i, q, records in gather:
            if i != q:
                n = max(1, -(-records // b))
                load[i] += n
                load[q] += n
        total += max(load)
        if dealt is None:
            continue
        load = [0] * p
        for i, (records, offset) in enumerate(dealt):
            if offset is None:
                continue
            n = max(1, -(-records // b))
            load[i] += n
            for q in range(p):
                load[q] += n // p + ((q - offset) % p < n % p)
        total += max(load)
    return total


def check_theorem1_io(
    params: SimulationParams, report: SimulationReport
) -> tuple[list[OracleFailure], int]:
    """Per-superstep counted I/O against :func:`theorem1_io_bound`.

    Two layers per superstep: the closed-form *upper bound* on the phase
    total, and an *exact* layer on the two phases Step 2 decides, from its
    own :class:`~repro.core.routing.RoutingStats`, and on the context swaps
    the group order decides — two independent measurements of the same ops,
    so any engine-side double/under-charge breaks an equality even when the
    run is far below the asymptotic bound:

    * ``reorganize`` equals the max over processors of Algorithm 2's own op
      counts (``RoutingStats.io_ops``) — 0 where every processor kept its
      store (``routing.kept``);
    * the next superstep's ``fetch_messages`` equals what the incoming set
      costs by its ``group_loads``: per fetch group, the max over processors
      of the kept store's heaviest drive, or of ``ceil(m/D)`` for a region
      Algorithm 2 laid out, summed over groups;
    * the contexts, group by group (``SuperstepReport.ran``): a group's
      contexts are fetched as they were last written back — by the last
      superstep that ran the group, which is not always the one before, since
      a group of quiet vps that receives nothing is skipped — and the group a
      barrier holds in memory is written and fetched at 0
      (:func:`~repro.core.processor.group_order`), so each group's
      ``fetch_context`` equals its last ``write_context``, and each
      superstep's phase totals are those of the groups that ran.  The input
      load and the output unload move every group once more, each charged as
      one max over processors rather than a sum over rounds of maxima: equal
      to the groups' first fetches and last writes with one processor, no
      more than them with several;
    * the packed write (Step 1(d)), from the records the engine packed for
      each destination group (``SuperstepReport.packing``, counted from the
      messages, not the blocks): ``message_blocks`` equals the sum over
      (writing group or receiving processor-round, destination group) of
      ``ceil(records/B)`` — 1 for a group of empty messages only — and
      ``write_messages`` equals the sum over rounds of the max over
      processors of ``ceil((blocks + Lemma 3 dummies)/D)``.

    And one exact layer on the network ledger: under Algorithm 3,
    ``comm_packets`` equals what the gather and the deal cost by the records
    each processor moved and its deal offset (``SuperstepReport.traffic``):
    the round's outbox is cut into full packets of ``b`` and dealt
    round-robin, so the count is fixed by the records alone.
    """
    bounds = theorem1_io_bound(params, report, per_superstep=True)
    D, B = params.machine.D, params.machine.B
    sole = params.machine.p == 1
    fetch = 0  # what this superstep's fetches of the incoming set cost
    written: dict[int, tuple[int, int]] = {}  # group -> (step, ops) of its last write
    first_fetches = 0  # the fetches of what the input load wrote
    failures = []

    def ends(what: str, got: int, phase: str, want: int) -> None:
        if (got != want) if sole else (got > want):
            failures.append(
                OracleFailure(
                    "theorem1_io",
                    f"{what} charged {got} ops, but the {phase} moving the "
                    f"same contexts cost {want}",
                )
            )

    for s, bound in zip(report.supersteps, bounds):
        fetched = wrote = 0
        for g, got, put in s.ran:
            if g not in written:
                first_fetches += got
                want = got
            else:
                last, want = written[g]
                if got != want:
                    failures.append(
                        OracleFailure(
                            "theorem1_io",
                            f"superstep {s.index}: group {g}'s fetch_context "
                            f"charged {got} ops, but writing those contexts back "
                            f"in superstep {last} cost {want}",
                        )
                    )
            fetched += want
            wrote += put
            written[g] = (s.index, put)
        for phase, want in (("fetch_context", fetched), ("write_context", wrote)):
            got = getattr(s.phases, phase)
            if got != want:
                failures.append(
                    OracleFailure(
                        "theorem1_io",
                        f"superstep {s.index}: {phase} charged {got} ops, but "
                        f"writing those contexts back, group by group, cost {want}",
                    )
                )
        if s.phases.total > bound:
            failures.append(
                OracleFailure(
                    "theorem1_io",
                    f"superstep {s.index}: counted io_ops {s.phases.total} "
                    f"exceed the closed-form bound {bound} "
                    f"(phases={s.phases!r})",
                )
            )
        if s.phases.fetch_messages != fetch:
            failures.append(
                OracleFailure(
                    "theorem1_io",
                    f"superstep {s.index}: fetch_messages charged "
                    f"{s.phases.fetch_messages} ops, but the incoming set's "
                    f"group loads (heaviest drive where kept) cost {fetch}",
                )
            )
        if s.packing is not None:
            blocks, ops = _packed_write(s.packing, B, D)
            if (s.message_blocks, s.phases.write_messages) != (blocks, ops):
                failures.append(
                    OracleFailure(
                        "theorem1_io",
                        f"superstep {s.index}: the packed write charged "
                        f"{s.message_blocks} message blocks in "
                        f"{s.phases.write_messages} ops, but the records packed "
                        f"per destination group make {blocks} blocks in {ops}",
                    )
                )
        if s.traffic is not None:
            want = _traffic_packets(s.traffic, params.machine.p, params.machine.b)
            if s.comm_packets != want:
                failures.append(
                    OracleFailure(
                        "theorem1_io",
                        f"superstep {s.index}: comm_packets {s.comm_packets}, "
                        f"but the records gathered and dealt, in full packets "
                        f"of b = {params.machine.b}, make {want}",
                    )
                )
        routing = s.routing_stats()
        if routing:
            expected = max(r.io_ops for r in routing)
            if s.phases.reorganize != expected:
                kept = all(r.kept for r in routing)
                failures.append(
                    OracleFailure(
                        "theorem1_io",
                        f"superstep {s.index}: reorganize phase charged "
                        f"{s.phases.reorganize} ops but "
                        + ("every processor kept its store"
                           if kept else f"Algorithm 2's own stats count {expected}"),
                    )
                )
        fetch = _fetch_ops(routing, D)
    if written:
        ends("input load", report.init_io_ops, "first fetch_context", first_fetches)
        ends("output unload", report.output_io_ops, "last write_context",
             sum(ops for _step, ops in written.values()))
    packed = sum(s.packing is not None for s in report.supersteps)
    dealt = sum(s.traffic is not None for s in report.supersteps)
    return failures, 3 * len(bounds) + packed + dealt
