"""Algorithms 1 and 3 — **ParCompoundSuperstep** on a ``p``-processor EM machine.

Algorithm 1 (``SeqCompoundSuperstep``) is Algorithm 3 run on one processor:
with ``p = 1`` there is no network, and every other step is the same.  This
module is the one engine for every ``p >= 1``.

Each real processor ``i`` simulates the virtual processors
``i*(v/p) .. (i+1)*(v/p)-1`` and owns its own memory, router port, and ``D``
local disks.  A compound superstep runs in ``v/(p*k)`` *rounds*; in round
``j`` processor ``i`` simulates virtual processors
``i*(v/p)+j*k .. i*(v/p)+(j+1)*k-1`` (the *batch* ``j`` comprises the
``p*k`` virtual processors simulated in round ``j`` across all processors;
Algorithm 1 calls it a *group*).

Per round:

* **Fetching phase** (Step 1(a)) — each processor reads from its local disks
  the message blocks pertaining to batch ``j`` (scattered there at random in
  the previous superstep), combines blocks bound for a common simulating
  processor into packets of size ``b``, and routes them in one h-relation.
  It also reads its ``k`` current contexts locally.
* **Computing phase** (Step 1(b)) — the ``k`` virtual supersteps run; changed
  contexts go back to the local disks.
* **Writing phase** (Step 1(c)) — the round's whole outbox (every vp of the
  batch, in message order) is cut into packets of ``b`` records, all full
  but the last, by the block packer (:func:`~repro.bsp.message.pack_blocks`;
  a message may split across packets, each packet's segment table says
  whose records it carries), and the packets are dealt round-robin from one
  uniformly random offset per processor and round (:func:`deal`).  Each
  receiver thus gets ``floor(n/p)`` or ``ceil(n/p)`` of a sender's ``n``
  packets — a deterministic bound beside Lemma 10's whp one.  A round with
  an empty outbox deals nothing and draws nothing.  Receivers pack the
  packets' pieces per destination batch's owner — the ``k`` vps it
  simulates together — into full blocks of size ``B``
  (:func:`~repro.bsp.message.pack_by_group`) and append them to their local
  ``D``-bucket stores with random-permutation disk writes.

**One processor** (:attr:`_Placement.network` is False).  Nothing is
gathered, cut or dealt, and no random number is drawn for a deal: a
round's pieces go straight to :func:`~repro.bsp.message.pack_by_group`,
which is Algorithm 1's Step 1(d) exactly, and the only barrier of a
compound superstep is Step 2's.  What the machine reports as communication
is then the *virtual* machine's h-relation (:func:`vm_packets`): the max
over vps of packets sent plus received, ``ceil(size/b)`` a message and one
for an empty one.  ``pad_to_gamma`` pads each group's blocks with Lemma 3's
dummy blocks to the analysis' worst case; it has no meaning with several
processors and is refused there.

The rounds run their batches in ascending cyclic order, each compound
superstep starting with the batch the one before ended with
(:func:`~repro.core.processor.group_order`), on every processor alike: that
batch stays in memory across the barrier, so its context write-back and
fetch are skipped — with one batch (``v == p*k``), every one.  A batch
whose vps are all declared quiet (:meth:`~repro.bsp.program.BSPAlgorithm.quiet`)
and for which every processor's gathered inbound is empty is skipped after
its gather, on every processor alike: no context swap, no compute, no
scatter (never the first or last batch of the order).

After the last round, Step 2 runs Algorithm 2 (`simulate_routing`) locally on
every processor, producing per-batch standard-consecutive regions for the
next compound superstep — or, where reading the store as it stands costs the
next superstep's batch fetches no more than Algorithm 2 could (always with
``D <= 5``, and with one batch, ``v == p*k``), keeps the store itself as the
incoming messages and charges no round
(:meth:`~repro.core.processor.RealProcessor.deliver`).  Each processor
decides for itself.

**Backends** (see :mod:`repro.core.backend`): the per-processor work lives in
:class:`_RealProcessor` (the shared :class:`~repro.core.processor.RealProcessor`
plus this algorithm's round phases), driven through a backend —
``"inline"`` (default, the reference) calls them in index order in-process;
``"process"`` runs each processor in its own ``multiprocessing`` worker, the
superstep barriers becoming send-all/receive-all pipe rounds that exchange
packed message payloads and per-worker ledger deltas.  Every processor draws
from its own deterministic RNG stream (seeded ``{seed}/proc{i}``, or
``seed`` itself on a one-processor machine), so both backends produce
identical outputs, ledgers, and reports.  All costs are accounted as the
model prescribes regardless of backend: per phase the *maximum* over
processors of computation, packets, and parallel I/O operations, plus the
barrier cost ``L`` per h-relation.

Everything around the barrier — run/resume, checkpoints, fatal-fault
rollback, crash injection, events, the fault report — is the lifecycle of
:mod:`repro.core.engine`; this module keeps what the algorithm itself
prescribes: each processor's half of a round, and the engine's
gather/scatter h-relations and max-over-processors ledger math.
"""

from __future__ import annotations

from collections import Counter
from typing import Any

from ..bsp.message import Piece, block_pieces, pack_blocks, pack_by_group
from ..costs import SuperstepCost, packets_for
from ..emio.disk import Block
from .engine import EMEngine
from .processor import RealProcessor, group_order
from .routing import RoutingStats
from .stats import PhaseBreakdown

__all__ = ["ParallelEMSimulation", "deal", "vm_packets", "h_relation"]


def deal(packets: list[Block], offset: int, p: int) -> list[list[Block]]:
    """The writing phase's deal: packet ``t`` goes to processor
    ``(offset + t) mod p``, so each of the ``p`` receivers gets
    ``floor(n/p)`` or ``ceil(n/p)`` of the ``n`` packets, in send order."""
    return [packets[(q - offset) % p :: p] for q in range(p)]


def vm_packets(pieces: list[Piece], b: int) -> tuple[tuple[int, int, int], ...]:
    """The virtual machine's h-relation of one round's outbox, as
    ``(vp, packets sent, packets received)`` per vp it touches, sorted by
    vp: a message of ``size`` records is ``ceil(max(size, 1)/b)`` packets."""
    sent: dict[int, int] = {}
    received: dict[int, int] = {}
    for dest, src, _msg, _seq, payload in pieces:
        n = packets_for(max(len(payload), 1), b)
        sent[src] = sent.get(src, 0) + n
        received[dest] = received.get(dest, 0) + n
    return tuple(
        (vp, sent.get(vp, 0), received.get(vp, 0))
        for vp in sorted(sent.keys() | received.keys())
    )


def h_relation(tallies: list[tuple[tuple[int, int, int], ...]]) -> int:
    """The virtual machine's h-relation over a compound superstep's rounds'
    :func:`vm_packets` tallies: the max over vps of packets sent plus
    received."""
    load: Counter[int] = Counter()
    for tally in tallies:
        for vp, sent, received in tally:
            load[vp] += sent + received
    return max(load.values(), default=0)


class _Placement:
    """Algorithm 3's placement maps, from ``vpp``, ``k``, ``nbatches`` and
    ``params`` (shared by the engine and its processors)."""

    @property
    def network(self) -> bool:
        """Whether the machine has a network to route over: not with one
        processor, where Algorithm 3 is Algorithm 1 (see the module
        docstring)."""
        return self.p > 1

    def owner_of_vp(self, vp: int) -> int:
        """Real processor simulating virtual processor ``vp``."""
        return vp // self.vpp

    def batch_of_vp(self, vp: int) -> int:
        """Round in which ``vp`` is simulated (its *batch* index)."""
        return (vp % self.vpp) // self.k

    def slot_of_vp(self, vp: int) -> int:
        """Incoming slot, on its owner, of a block destined for ``vp``: one
        slot per vp, as Algorithm 1 lays them out, so batch ``j`` reads its
        ``k`` consecutive slots (:meth:`slots`)."""
        return vp % self.vpp

    def batch_vps(self, j: int) -> list[int]:
        """The ``p*k`` virtual processors of batch ``j``, on every processor."""
        return [
            i * self.vpp + j * self.k + r for i in range(self.p) for r in range(self.k)
        ]

    def bucket_of_vp(self, vp: int) -> int:
        """Local disk bucket of a block destined for ``vp``.

        "Each bucket contains the blocks for ``(v/pk)/D`` batches": the
        paper assumes ``v/(pk) >= D``.  The processor's ``v/p`` virtual
        processors are ranged evenly into the ``D`` buckets, as Algorithm 1
        ranges its ``v``; where ``D`` divides the batch count this is
        exactly the paper's map, batches ranged evenly into buckets.  Ranging
        batches would use only ``v/(pk)`` buckets when ``1 < v/(pk) < D``
        and leave the other drives idle in phase 1; ranging vps, a batch may
        span two buckets, and each bucket is still a contiguous vp range, as
        Algorithm 2 requires.  A message block, packed per destination batch,
        is addressed to the batch's first vp, so its bucket is its batch's
        under either map.
        """
        return (vp % self.vpp) * self.params.machine.D // self.vpp


class _RealProcessor(_Placement, RealProcessor):
    """One real processor's half of the rounds.

    The phase methods are driven by the engine through a backend; each
    returns this processor's parallel-I/O delta, so the engine can do the
    model's max-over-processors accounting identically for every backend.
    """

    def begin_superstep(self) -> tuple[int, int, list[int]]:
        """Open a compound superstep; returns (retry_ops, stall_ops) marks
        and the blocks each batch's incoming slot holds (what the engine
        tells an idle batch by before anything is fetched)."""
        self.open_buckets(self.bucket_of_vp)
        # The round's pieces while they wait for Step 1(d) without a
        # network, and the Lemma 3 dummy blocks written so far.
        self.held: list[Piece] = []
        self.dummies = 0
        inc = self.incoming
        sizes = [sum(inc.slot_sizes[s] for s in self.slots(j)) if inc else 0
                 for j in range(self.nbatches)]
        return self.array.retry_ops, self.stall_total(), sizes

    def fetch(self, j: int) -> tuple[dict[int, list[Block]], int, int]:
        """Step 1(a): read batch ``j``'s contexts, kept here for
        :meth:`compute`, and its message blocks, grouped by owning
        processor.  Returns the blocks and the message and context I/O."""
        with self.obs.span("fetch_context", batch=j, cat="layout") as sp:
            t = self.array.parallel_ops
            self.states = self.contexts.load_group(self.slots(j))
            ctx_io = self.array.parallel_ops - t
            sp.add(io_ops=ctx_io)
        with self.obs.span("fetch", batch=j, cat="layout") as sp:
            t = self.array.parallel_ops
            blks = self.fetch_group(self.slots(j))
            by_owner: dict[int, list[Block]] = {}
            for blk in blks:
                by_owner.setdefault(self.owner_of_vp(blk.dest), []).append(blk)
            delta = self.array.parallel_ops - t
            sp.add(io_ops=delta, blocks=len(blks))
        return by_owner, delta, ctx_io

    def compute(self, j: int, step: int, inbound: list[Block]) -> dict[str, Any]:
        """Step 1(b): run batch ``j``'s ``k`` virtual supersteps; the new
        contexts stay here for :meth:`write`.

        Returns the round's outbox cut into packets of ``b`` records and
        the deal offset (``None`` for an empty outbox, which draws no random
        number) — or, without a network, no packets and the virtual
        machine's h-relation tally (:func:`vm_packets`), the pieces staying
        here for :meth:`write` — plus this processor's cost contributions.
        """
        b = self.params.machine.b
        new_states: list[Any] = []
        pieces: list[Piece] = []
        comp = 0.0
        sent_records = 0
        halted = True
        with self.obs.span("compute", batch=j, step=step, cat="kernel") as sp:
            for ctx in self.run_vps(self.vps(j), self.states, inbound, step):
                new_states.append(ctx.state)
                if not ctx.halted:
                    halted = False
                comp += ctx.comp_ops
                sent_records += ctx.sent_records
                for mi, msg in enumerate(ctx.outbox):
                    pieces.append((msg.dest, msg.src, mi, 0, msg.payload))
            self.states = new_states
            packets: list[Block] = []
            offset = tally = None
            if not self.network:
                self.held, tally = pieces, vm_packets(pieces, b)
            elif pieces:
                packets = pack_blocks(pieces, b, self.index)
                offset = self.rng.randrange(self.p)
            sp.add(comp_ops=comp, packets=len(packets))
        return {
            "packets": packets,
            "offset": offset,
            "tally": tally,
            "comp": comp,
            "sent_records": sent_records,
            "halted": halted,
        }

    def write(
        self, j: int, step: int, packets: list[Block]
    ) -> tuple[int, int, tuple[int, ...], int, int]:
        """Step 1(c): pack the pieces of the received packets (or, without
        a network, the round's own) into full blocks per destination group,
        pad them with Lemma 3's dummy blocks under ``pad_to_gamma``, and
        append them to the buckets; then write batch ``j``'s contexts back.
        Returns the message blocks, the message I/O, each destination
        group's records and the dummy blocks (for the packing referee), and
        the context I/O."""
        B = self.params.machine.B
        with self.obs.span("write_messages", batch=j, cat="layout") as sp:
            t = self.array.parallel_ops
            pieces, self.held = self.held + block_pieces(packets), []
            rblocks, loads = pack_by_group(pieces, B, self.k)
            nblocks = len(rblocks)
            dummies = max(0, self.pad - nblocks)
            for _ in range(dummies):
                rblocks.append(Block(records=[], dest=self.dummies % self.v, dummy=True))
                self.dummies += 1
            self.buckets.append_blocks(rblocks)
            delta = self.array.parallel_ops - t
            sp.add(io_ops=delta, blocks=len(rblocks), packets=len(packets))
        with self.obs.span("write_context", batch=j, cat="layout") as sp:
            t = self.array.parallel_ops
            # The last round's group stays in memory: it opens the next superstep.
            last = group_order(step, self.nbatches)[-1]
            self.contexts.save_group(self.slots(j), self.states, hold=j == last)
            self.states = None
            save_io = self.array.parallel_ops - t
            sp.add(io_ops=save_io)
        return nblocks, delta, loads, dummies, save_io

    def reorganize(self, step: int) -> tuple[RoutingStats, int]:
        """Step 2 on the local buckets: one slot per vp."""
        if self.obs.enabled:
            self._sample_disks()
        with self.obs.span("reorganize", step=step, cat="routing") as sp:
            t = self.array.parallel_ops
            routing = self.deliver(
                self.vpp, self.slot_of_vp, f"incoming@p{self.index}s{step + 1}"
            )
            delta = self.array.parallel_ops - t
            sp.add(io_ops=delta, blocks=routing.total_blocks)
        if self.obs.enabled:
            self.obs.metrics.histogram("lemma2_load_ratio").record(
                routing.max_load_ratio
            )
        return routing, delta

    def end_superstep(self) -> tuple[int, int]:
        return self.array.retry_ops, self.stall_total()


class ParallelEMSimulation(_Placement, EMEngine):
    """Runs a :class:`BSPAlgorithm` on a ``p``-processor EM machine, for
    every ``p >= 1``: Algorithm 3, which is Algorithm 1 at ``p = 1``.

    Built like every engine (see :class:`~repro.core.engine.RunConfig`);
    ``backend`` places the real processors.  Under an ``observer`` the engine
    emits barrier-level spans (superstep > fetch/compute/write/reorganize)
    on its own track; every real processor collects its own spans, samples,
    and metrics worker-side — under the process backend they travel back
    over the pipes — and the engine merges them into ``observer`` as one
    coherent timeline (``perf_counter`` is host-wide monotonic).
    """

    PROCESSOR = _RealProcessor

    # -- one compound superstep --------------------------------------------------------

    def _superstep(self, step: int) -> bool:
        cost = self.ledger.begin_superstep(label=f"superstep {step}")
        # A round's gather and deal are h-relations, each ending in a
        # barrier, only over a network; Step 2's barrier ends every
        # compound superstep.
        network = self.network
        cost.syncs = 1
        phases = PhaseBreakdown()
        marks0 = self.backend.call_all("begin_superstep")
        all_halted = True
        blocks_generated = 0
        packing: list[list[tuple[tuple[int, ...], int]]] = []
        traffic: list[tuple] = []

        obs = self.obs
        order = group_order(step, self.nbatches)
        ran: list[tuple[int, int, int]] = []
        for j in order:
            # One collective decision, before anything is read: a batch of
            # quiet vps whose incoming slot is empty on every processor is
            # skipped on every processor alike — no fetch, no compute, no
            # scatter; its gather moves nothing.  The superstep's first and
            # last batches always run: they carry the resident batch across
            # the barriers.
            if (
                j not in (order[0], order[-1])
                and not any(sizes[j] for _r, _s, sizes in marks0)
                and all(self.algorithm.quiet(step, vp) for vp in self.batch_vps(j))
            ):
                all_halted = False  # a quiet vp does not vote halt
                if network:  # its gather moved nothing, but is a barrier
                    cost.syncs += 1
                traffic.append(((), None) if network else ())
                continue

            # ---- Fetching phase: local reads + gather h-relation ----
            # inbound[q] = blocks for processor q's current k vps.
            with obs.span("fetch_barrier", batch=j, cat="layout") as sp:
                fetches = self.backend.call_all("fetch", [(j,)] * self.p)
                d = max(io for _by, io, _ctx in fetches)
                phases.fetch_messages += d
                sp.add(io_ops=d)
            fetch_ctx = max(ctx for _by, _io, ctx in fetches)
            inbound: list[list[Block]] = [[] for _ in range(self.p)]
            for by_owner, _io, _ctx in fetches:
                for q, qblocks in by_owner.items():
                    inbound[q].extend(qblocks)
            gather = self._gather(fetches, cost) if network else ()

            # ---- Computing phase ----
            with obs.span("compute_barrier", batch=j, cat="kernel") as sp:
                computes = self.backend.call_all(
                    "compute", [(j, step, inbound[q]) for q in range(self.p)]
                )
                sp.add(comp_ops=max(r["comp"] for r in computes))
            cost.comp_ops += max(r["comp"] for r in computes)
            cost.records_sent += sum(r["sent_records"] for r in computes)
            if not all(r["halted"] for r in computes):
                all_halted = False

            # ---- Writing phase: scatter h-relation + bucket and context writes ----
            if network:
                outpackets = self._scatter(computes, cost)
                traffic.append((
                    gather, tuple((r["sent_records"], r["offset"]) for r in computes)
                ))
            else:
                outpackets = [[]]
                traffic.append(computes[0]["tally"])
            with obs.span("write_barrier", batch=j, cat="layout") as sp:
                writes = self.backend.call_all(
                    "write", [(j, step, outpackets[q]) for q in range(self.p)]
                )
                d = max(w[1] for w in writes)
                sp.add(io_ops=d, packets=sum(len(r["packets"]) for r in computes))
            blocks_generated += sum(w[0] for w in writes)
            phases.write_messages += d
            packing.append([(loads, dummies) for _n, _io, loads, dummies, _ctx in writes])
            save_ctx = max(w[4] for w in writes)
            phases.fetch_context += fetch_ctx
            phases.write_context += save_ctx
            ran.append((j, fetch_ctx, save_ctx))
        if not network:  # the virtual machine's h-relation (Algorithm 1)
            cost.comm_packets += h_relation(traffic)

        # ---- Step 2: local reorganization on every processor ----
        with obs.span("reorganize_barrier", cat="routing") as sp:
            reorgs = self.backend.call_all("reorganize", [(step,)] * self.p)
            d = max(io for _r, io in reorgs)
            sp.add(io_ops=d)
        phases.reorganize += d
        routing_all = [routing for routing, _io in reorgs]
        worst_routing = max(routing_all, key=lambda r: r.max_load_ratio)

        marks1 = self.backend.call_all("end_superstep")
        cost.retry_ops = max(m1[0] - m0[0] for m0, m1 in zip(marks0, marks1))
        cost.stall_ops = max(m1[1] - m0[1] for m0, m1 in zip(marks0, marks1))
        if obs.enabled and worst_routing.total_blocks:
            obs.metrics.histogram("lemma2_load_ratio").record(
                worst_routing.max_load_ratio
            )
        return self._seal_superstep(
            step, cost, phases, worst_routing, blocks_generated, all_halted,
            routing_all, packing, ran, traffic,
        )

    def _gather(self, fetches: list, cost: SuperstepCost) -> tuple:
        """Charge the fetching phase's h-relation: the max over processors of
        packets sent plus received, ``max(1, ceil(records/b))`` per pair of
        distinct processors that moved blocks.  Returns the gather as
        ``(sender, owner, records)`` per pair, a processor's own included."""
        b = self.params.machine.b
        gather = []
        load = [0] * self.p
        for i, (by_owner, _io, _ctx) in enumerate(fetches):
            for q, qblocks in sorted(by_owner.items()):
                nrec = sum(blk.nrecords() for blk in qblocks)
                gather.append((i, q, nrec))
                if q != i:
                    npk = max(1, packets_for(nrec, b))
                    load[i] += npk
                    load[q] += npk
        cost.comm_packets += max(load)
        cost.syncs += 1
        return tuple(gather)

    def _scatter(self, computes: list[dict], cost: SuperstepCost) -> list[list[Block]]:
        """Deal every processor's packets and charge the writing phase's
        h-relation; returns each processor's received packets.  A packet a
        processor deals to itself is charged (the gather's are not): DESIGN
        §13."""
        outpackets: list[list[Block]] = [[] for _ in range(self.p)]
        load = [0] * self.p
        for i, r in enumerate(computes):
            load[i] += len(r["packets"])
            if r["offset"] is None:
                continue
            for q, got in enumerate(deal(r["packets"], r["offset"], self.p)):
                load[q] += len(got)
                outpackets[q].extend(got)
        cost.comm_packets += max(load)
        cost.syncs += 1
        return outpackets
