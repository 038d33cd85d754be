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
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..bsp.program import state_uses
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


def canonical_record(outputs: list[Any], report: SimulationReport, procs=None, traces=None) -> dict:
    """The one golden image: everything two equivalent planes must agree on.

    Outputs (by value, :func:`plain_outputs`), ``report.summary()``, each
    superstep's phases / routing / ``routing_all`` (``repr`` pins every
    field), packets, message blocks and halts, init / output I/O and disk
    tracks; with ``procs`` (``sim.procs``) every drive's reads, writes and
    high-water mark — a miscount inside one drive moves no ledger line — and
    with ``traces`` (their :class:`~repro.emio.trace.IOTrace` s) the op streams.
    """
    record = {
        "outputs": plain_outputs(outputs),
        "summary": report.summary(),
        "supersteps": [(s.index, repr(s.phases), repr(s.routing), repr(s.routing_all),
                        s.comm_packets, s.message_blocks, s.halted) for s in report.supersteps],
        "init_io_ops": report.init_io_ops,
        "output_io_ops": report.output_io_ops,
        "disk_space_tracks": report.disk_space_tracks,
    }
    if procs is not None:
        record["drives"] = [[(d.reads, d.writes, d.high_water) for d in pr.array.disks]
                            for pr in procs]
    if traces is not None:
        record["traces"] = [[(op.kind, op.disks, op.tracks, op.retry) for op in t.ops]
                            for t in traces]
    return record


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

    In the terms of Theorem 1 / Lemma 4 (``k`` the largest group, ``D`` disks,
    ``G`` groups per processor, ``cbp = ceil(mu/B)`` context blocks per vp,
    ``T_s`` message blocks written in superstep ``s``: the packed records'
    blocks and Lemma 3's dummy blocks, which are written and fetched alike),
    each phase of compound superstep ``s`` is bounded by:

    * contexts (fetch + write back): ``2 G (ceil(k*cbp/D) + 1)`` — a group's
      contexts are at most ``k*cbp`` consecutive blocks of a striped region, read at
      full parallelism up to one alignment op.
    * fetch messages: ``ceil(T_{s-1}/D) + 2G`` — each group's slot range is
      consecutive in the reorganized region (Definition 2) — plus, where a
      processor kept superstep ``s-1``'s bucket store, the ``4*ceil(N/D)``
      the Step 2 rule (:func:`~repro.core.routing.keep_store`) lets a kept
      store's fetch spend in place of Algorithm 2's rounds, summed over
      processors: ``4 (ceil(T_{s-1}/D) + p)``.
    * write messages: ``ceil(T_s/D) + G`` — linked-bucket appends write full
      cycles of ``D`` blocks, one partial cycle per group (round).
    * reorganize: per processor that runs Algorithm 2,
      ``2*min(T, D*maxq + D) + 2*min(T, D + maxb)`` where ``maxq`` is that
      processor's worst (bucket, disk) queue length and ``maxb`` its largest
      bucket — the exact round counts of Algorithm 2's two phases; the
      superstep charges the max over processors (0 for a kept store).

    Where the batch held across the barrier holds its inbox in memory
    (``report.inbox_held``), the blocks a processor packs for its own vps
    of it count in ``T_s`` but are neither written nor fetched, so each
    term still over-approximates its phase.

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
        T = s.message_blocks + sum(d for rnd in s.packing or () for _l, d in rnd)
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


def _packed_write(
    packing: list, B: int, D: int, kept: Callable[[int, int], bool]
) -> tuple[int, int]:
    """What Step 1(d)'s packing costs by its own record counts, as
    ``(message blocks, write ops)``: a destination group of ``r`` records
    packs into ``ceil(r/B)`` full-but-the-last blocks (one if every message
    in it is empty), and a round's blocks plus its Lemma 3 dummies go out in
    cycles of ``D``, the round charging its slowest processor — all but the
    blocks of the groups ``kept(processor, key)`` holds in memory."""
    blocks = ops = 0
    for round_ in packing:
        per_proc = [[(-(-r // B) or 1, kept(i, key)) for key, r in loads]
                    for i, (loads, _d) in enumerate(round_)]
        blocks += sum(n for row in per_proc for n, _held in row)
        ops += max(
            (-(-(sum(n for n, held in row if not held) + dummies) // D)
             for row, (_loads, dummies) in zip(per_proc, round_)),
            default=0,
        )
    return blocks, ops


def _traffic_packets(traffic: list, p: int, b: int) -> int:
    """What a superstep's communication costs by its own counts.  With one
    processor, the virtual machine's h-relation: the max over vps of the
    packets its rounds' tallies say it sent plus received.  Otherwise, per
    round, the max over processors of packets sent plus received — in the
    gather, ``max(1, ceil(records/b))`` per pair of distinct processors; in
    the scatter, ``n = max(1, ceil(records/b))`` per processor that dealt,
    all charged to it and ``floor(n/p)`` or ``ceil(n/p)`` to each receiver
    by its distance from the offset (a processor's own included)."""
    if p == 1:
        vm: Counter[int] = Counter()
        for tally in traffic:
            for vp, sent, received in tally:
                vm[vp] += sent + received
        return max(vm.values(), default=0)
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


def _context_ops(counts: tuple[int, ...], j: int, params: SimulationParams) -> int:
    """What one processor's transfer of group ``j``'s contexts costs by
    their block counts (slot by slot, the group's slots): the
    consecutive layout puts block ``t`` of local slot ``s`` on drive
    ``(s * ceil(mu/B) + t) mod D``, and a batch takes as many parallel
    operations as its busiest drive has blocks."""
    D, cbp = params.machine.D, params.context_blocks_per_vp
    per_drive = [0] * D
    for s, n in zip(params.groups[j], counts):
        base = s * cbp
        for t in range(n % D):
            per_drive[(base + t) % D] += 1
        for d in range(D):
            per_drive[d] += n // D
    return max(per_drive)


def check_theorem1_io(
    params: SimulationParams,
    report: SimulationReport,
    algorithm: Any = None,
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
      Algorithm 2 laid out, summed over groups (a held inbox is in no
      group's loads: it is read from memory);
    * the contexts, group by group (``SuperstepReport.ran``), replaying the
      engine's rule (:mod:`repro.core.engine`) on each row's state uses —
      the ``algorithm``'s, when given, which the rows must match, in the
      plan's order (:func:`~repro.core.engine.plan_rounds`).  A group is
      fetched iff a vp reads, at 0 if it is in memory and otherwise at what
      its disk image costs, slot by slot as the input load
      (``SimulationReport.loaded``) or the last write-back left it; leaving
      memory (all but the plan's held group) it writes exactly its dirty
      slots, at what their block counts cost on the consecutive layout (the
      max over processors of the busiest drive).  Each superstep's phase
      totals are its rows'.  The input load and the output unload move every
      group not in memory, one max over processors of the sum over groups;
    * the packed write (Step 1(d)), from the records the engine packed for
      each destination group (``SuperstepReport.packing``, counted from the
      messages, not the blocks): ``message_blocks`` equals the sum over
      (writing group or receiving processor-round, destination group) of
      ``ceil(records/B)`` — 1 for a group of empty messages only — and
      ``write_messages`` equals the sum over rounds of the max over
      processors of ``ceil((blocks + Lemma 3 dummies)/D)`` — the blocks a
      processor packs for its own vps of the held batch counted but not
      written where the run held its inbox (``report.inbox_held``, which
      :attr:`SimulationParams.holds_inbox
      <repro.params.SimulationParams.holds_inbox>` must allow).

    And one exact layer on the network ledger: ``comm_packets`` equals what
    ``SuperstepReport.traffic`` says was sent.  With several processors
    that is the gather and the deal, by the records each processor moved
    and its deal offset: the round's outbox is cut into full packets of
    ``b`` and dealt round-robin, so the count is fixed by the records alone.
    With one there is no network, and it is the virtual machine's
    h-relation, from each round's per-vp packet tallies.
    """
    bounds = theorem1_io_bound(params, report, per_superstep=True)
    D, B, p = params.machine.D, params.machine.B, params.machine.p
    k, vpp = params.k, params.vps_per_processor
    groups, ngroups = params.groups, params.groups_per_processor
    held_inbox = report.inbox_held
    fetch = 0  # what this superstep's fetches of the incoming set cost
    # group -> (who wrote its disk image last, each processor's block counts
    # slot by slot); the batch in memory and its dirty (processor, slot)s
    disk = {g: ("the input load", [list(c) for c in counts])
            for g, counts in enumerate(report.loaded or ())}
    every = {(i, r) for i in range(p) for r in range(k)}
    mem = (0, every) if disk else None
    failures = []

    def fail(message: str) -> None:
        failures.append(OracleFailure("theorem1_io", message))

    if held_inbox and not params.holds_inbox:
        fail(f"the run held an inbox, but k*(mu + gamma) = "
             f"{k * (params.bsp.mu + params.bsp.gamma)} records exceed M = {params.machine.M}")

    for s, bound in zip(report.supersteps, bounds):
        fetched = wrote = 0
        rows = []
        for g, uses, *rest in s.ran:
            declared = uses if algorithm is None else state_uses(algorithm, s.index, [
                i * vpp + slot for i in range(p) for slot in groups[g]])
            if uses != declared:
                fail(f"superstep {s.index}: group {g}'s row says state uses {uses!r}, "
                     f"but its vps declare {declared!r}")
            rows.append((g, declared, *rest))
        resident = mem and mem[0]
        order = [((resident or 0) + i) % ngroups for i in range(ngroups)]
        if [row[0] for row in rows] != order:
            fail(f"superstep {s.index} ran its groups in the order "
                 f"{[row[0] for row in rows]}, but from the group in memory it is {order}")
        last = next((row[0] for row in reversed(rows) if row[1].strip("n")), resident)
        for g, uses, got, put, counts in rows:
            at, n = f"superstep {s.index}: group {g}", len(groups[g])
            who, image = disk[g]
            held = mem is not None and mem[0] == g
            if not uses.strip("n"):
                want = None
            elif held:
                want, who = 0, "the barrier, in memory,"
            else:
                want = max(_context_ops(c, g, params) for c in image)
            if got != want:
                fail(
                    f"{at}'s contexts were fetched at {got} ops, but none of its vps reads"
                    if want is None else f"{at}'s contexts were not fetched, but a vp reads"
                    if got is None else f"{at}'s fetch_context charged {got} ops, "
                    f"but those contexts cost {want} as {who} left them"
                )
            fetched += want or 0
            dirty = (mem[1] if held else set()) | {
                (i, r) for i in range(p) for r in range(n) if uses[i * n + r] == "w"}
            if g == last:
                mem, dirty = (g, dirty), set()
            elif held:
                mem = None
            written = {(i, r) for i in range(p) for r in range(n) if counts[i][r]}
            if written - dirty:
                fail(f"{at} wrote (processor, slot) {sorted(written - dirty)} back, "
                     "but their disk image is their state or they stay in memory")
            if dirty - written:
                fail(f"{at} left memory with dirty (processor, slot) "
                     f"{sorted(dirty - written)} unwritten")
            predicted = max(_context_ops(c, g, params) for c in counts) if written else None
            if put != predicted:
                fail(
                    f"{at}'s write_context charged {put} ops, but its block counts "
                    f"on the consecutive layout cost {predicted}"
                )
            wrote += predicted or 0
            for i, r in written:
                image[i][r] = counts[i][r]
            if written:
                disk[g] = (f"superstep {s.index}'s write-back", image)
        for phase, want in (("fetch_context", fetched), ("write_context", wrote)):
            got = getattr(s.phases, phase)
            if got != want:
                fail(
                    f"superstep {s.index}: {phase} charged {got} ops, but "
                    f"writing those contexts back, group by group, cost {want}"
                )
        if s.phases.total > bound:
            fail(
                f"superstep {s.index}: counted io_ops {s.phases.total} "
                f"exceed the closed-form bound {bound} (phases={s.phases!r})"
            )
        if s.phases.fetch_messages != fetch:
            fail(
                f"superstep {s.index}: fetch_messages charged "
                f"{s.phases.fetch_messages} ops, but the incoming set's "
                f"group loads (heaviest drive where kept) cost {fetch}"
            )
        if s.packing is not None:
            blocks, ops = _packed_write(
                s.packing, B, D,
                lambda i, key: held_inbox and key == i * vpp + groups[last].start)
            if (s.message_blocks, s.phases.write_messages) != (blocks, ops):
                fail(
                    f"superstep {s.index}: the packed write charged "
                    f"{s.message_blocks} message blocks in "
                    f"{s.phases.write_messages} ops, but the records packed "
                    f"per destination group make {blocks} blocks in {ops}"
                    + (" (the held inbox's written nowhere)" if held_inbox else "")
                )
        if s.traffic is not None:
            want = _traffic_packets(s.traffic, p, params.machine.b)
            if s.comm_packets != want:
                sent = ("the virtual machine's messages, in packets" if p == 1
                        else "the records gathered and dealt, in full packets")
                fail(
                    f"superstep {s.index}: comm_packets {s.comm_packets}, "
                    f"but {sent} of b = {params.machine.b}, make {want}"
                )
        routing = s.routing_stats()
        if routing:
            expected = max(r.io_ops for r in routing)
            if s.phases.reorganize != expected:
                kept = all(r.kept for r in routing)
                fail(
                    f"superstep {s.index}: reorganize phase charged "
                    f"{s.phases.reorganize} ops but "
                    + ("every processor kept its store"
                       if kept else f"Algorithm 2's own stats count {expected}")
                )
        fetch = _fetch_ops(routing, D)
    # The input load and the output unload: each processor moves every group
    # it does not hold, the input load's block counts in and the last
    # written ones out; one max over processors of the sum over groups.
    for what, got, moved in (
        ("input load", report.init_io_ops, list(enumerate(report.loaded or ()))),
        ("output unload", report.output_io_ops,
         [(g, c) for g, (_who, c) in disk.items() if mem is None or g != mem[0]]),
    ):
        want = max(sum(_context_ops(c[i], g, params) for g, c in moved) for i in range(p))
        if got != want:
            fail(
                f"{what} charged {got} ops, but the block counts of the "
                f"contexts it moved cost {want}"
            )
    packed = sum(s.packing is not None for s in report.supersteps)
    dealt = sum(s.traffic is not None for s in report.supersteps)
    return failures, 3 * len(bounds) + packed + dealt
