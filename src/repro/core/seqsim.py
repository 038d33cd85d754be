"""Algorithm 1 — **SeqCompoundSuperstep**: BSP* on a single-processor EM machine.

Simulates a ``v``-processor BSP* algorithm on one real processor with ``D``
disks and ``M`` records of memory.  Virtual processors are swapped through
memory in groups of ``k = floor(M/mu)``; per compound superstep and group:

1. *Fetching phase* — read the group's contexts (Step 1(a)) and incoming
   message blocks (Step 1(b)) from their standard-consecutive regions.
2. *Computation phase* — run the group's supersteps in memory (Step 1(c)).
3. *Writing phase* — pack generated messages into full blocks of ``B`` per
   destination group (:func:`~repro.bsp.message.pack_by_group`), write them
   to randomly permuted disks into ``D`` destination buckets in standard
   linked format (Step 1(d)), and write the changed contexts back (Step 1(e)).

The groups run in ascending cyclic order, each superstep starting with the
group the one before ended with (:func:`~repro.core.processor.group_order`):
that group stays in memory across the barrier, so its Step 1(e) and the next
Step 1(a) are skipped — with one group, every context swap is.  A group whose
vps are all declared quiet (:meth:`~repro.bsp.program.BSPAlgorithm.quiet`)
and whose incoming slots are empty is not swapped at all: no fetch, no
compute, no write-back, no packing (never the first or last group of the
order, which carry the resident group).

After all ``v/k`` groups, Step 2 (:func:`repro.core.routing.simulate_routing`,
the paper's Algorithm 2) reorganizes the buckets into the next superstep's
incoming region — unless the store, read as it stands, costs the next fetch
no more than Algorithm 2 could, and is kept
(:meth:`~repro.core.processor.RealProcessor.deliver`; always with ``D <= 5``).

The execution is *transparent*: outputs are identical to the in-memory
reference runner for every algorithm and every valid parameter choice
(invariant I3), while every byte travels through the simulated disks under
the blocking and parallelism discipline of the EM-BSP model.

Everything around the barrier — run/resume, checkpoints, fatal-fault
rollback, crash injection, events, the fault report — is the shared
lifecycle of :mod:`repro.core.engine`; this module keeps what Algorithm 1
itself prescribes: the group loop and its phase accounting.
"""

from __future__ import annotations

from ..bsp.message import Piece, pack_by_group
from ..costs import packets_for
from ..emio.disk import Block
from .engine import EMEngine
from .processor import group_order
from .stats import PhaseBreakdown

__all__ = ["SequentialEMSimulation"]


class SequentialEMSimulation(EMEngine):
    """Runs a :class:`BSPAlgorithm` under Algorithm 1 (single real processor).

    Built like every engine — ``(algorithm, params, config=None, *,
    observer=None, events=None, **knobs)``, the knobs being the fields of
    :class:`~repro.core.engine.RunConfig` — on a machine with ``p == 1``
    (use :class:`~repro.core.parsim.ParallelEMSimulation` otherwise).
    """

    ENGINE = "sequential"
    SOLE = True

    # The machine's one processor, called directly; its disks, allocator,
    # contexts and RNG stream are the engine's.
    proc = property(lambda self: self.procs[0])
    array = property(lambda self: self.procs[0].array)
    allocator = property(lambda self: self.procs[0].allocator)
    contexts = property(lambda self: self.procs[0].contexts)
    rng = property(lambda self: self.procs[0].rng)

    def _bucket_of(self, dest: int) -> int:
        """Bucket ``i`` holds blocks for the ``i``-th range of ``v/D`` vps."""
        v, D = self.params.bsp.v, self.params.machine.D
        return dest * D // v

    # -- one compound superstep --------------------------------------------------------

    def _superstep(self, step: int) -> bool:
        """Run compound superstep ``step``; return True when the algorithm
        halted with no traffic in flight."""
        p = self.params
        v, k, B = p.bsp.v, p.k, p.machine.B
        proc, array = self.proc, self.array

        cost = self.ledger.begin_superstep(label=f"superstep {step}")
        phases = PhaseBreakdown()
        retry0 = array.retry_ops
        stall0 = proc.stall_total()
        buckets = proc.open_buckets(self._bucket_of)
        all_halted = True
        blocks_generated = 0
        sent_packets = [0] * v
        recv_packets = [0] * v
        dummy_rr = 0
        packing: list[list[tuple[tuple[int, ...], int]]] = []
        # Lemma 3's dummy blocks: every group's traffic padded to k*ceil(gamma/B).
        pad = k * -(-p.bsp.gamma // B) if self.config.pad_to_gamma else 0

        obs = self.obs
        order = group_order(step, self.nbatches)
        ran: list[tuple[int, int, int]] = []
        for g in order:
            slots = proc.slots(g)
            if g not in (order[0], order[-1]) and self._idle(step, slots):
                all_halted = False  # a quiet vp does not vote halt
                continue

            # -- Fetching phase: Step 1(a) contexts, Step 1(b) messages --
            with obs.span("fetch_context", group=g, cat="layout") as sp:
                t = array.parallel_ops
                states = self.contexts.load_group(slots)
                fetch_ctx = array.parallel_ops - t
                phases.fetch_context += fetch_ctx
                sp.add(io_ops=fetch_ctx)

            with obs.span("fetch_messages", group=g, cat="layout") as sp:
                t = array.parallel_ops
                group_blocks = proc.fetch_group(slots)
                d = array.parallel_ops - t
                phases.fetch_messages += d
                sp.add(io_ops=d)

            # -- Computation phase: Step 1(c) --
            pieces: list[Piece] = []
            new_states = []
            with obs.span("compute", group=g, cat="kernel") as sp:
                comp0 = cost.comp_ops
                for ctx in proc.run_vps(slots, states, group_blocks, step):
                    new_states.append(ctx.state)
                    if not ctx.halted:
                        all_halted = False
                    cost.comp_ops += ctx.comp_ops
                    for mi, m in enumerate(ctx.outbox):
                        pk = packets_for(max(m.size, 1), p.machine.b)
                        sent_packets[ctx.pid] += pk
                        recv_packets[m.dest] += pk
                        cost.records_sent += m.size
                        pieces.append((m.dest, m.src, mi, 0, m.payload))
                sp.add(comp_ops=cost.comp_ops - comp0)

            # -- Writing phase: Step 1(d) messages, Step 1(e) contexts --
            group_out_blocks, loads = pack_by_group(pieces, B, k)
            blocks_generated += len(group_out_blocks)
            dummies = max(0, pad - len(group_out_blocks))
            for _ in range(dummies):
                group_out_blocks.append(Block(records=[], dest=dummy_rr % v, dummy=True))
                dummy_rr += 1
            packing.append([(loads, dummies)])
            with obs.span("write_messages", group=g, cat="layout") as sp:
                t = array.parallel_ops
                buckets.append_blocks(group_out_blocks)
                d = array.parallel_ops - t
                phases.write_messages += d
                sp.add(io_ops=d, blocks=len(group_out_blocks))

            with obs.span("write_context", group=g, cat="layout") as sp:
                t = array.parallel_ops
                self.contexts.save_group(slots, new_states, hold=g == order[-1])
                d = array.parallel_ops - t
                phases.write_context += d
                sp.add(io_ops=d)
            ran.append((g, fetch_ctx, d))

        # -- Step 2: reorganize the generated blocks (Algorithm 2) --
        if obs.enabled:
            proc._sample_disks(obs)
        with obs.span("reorganize", cat="routing") as sp:
            t = array.parallel_ops
            routing = proc.deliver(v, lambda dest: dest, f"incoming@{step + 1}")
            d = array.parallel_ops - t
            phases.reorganize += d
            sp.add(io_ops=d, blocks=routing.total_blocks)

        # BSP*-equivalent communication cost of the *virtual* machine
        # (diagnostic; the real machine has p=1 and no router traffic).
        cost.comm_packets = max(
            (sent_packets[i] + recv_packets[i] for i in range(v)), default=0
        )
        cost.retry_ops = array.retry_ops - retry0
        cost.stall_ops = proc.stall_total() - stall0
        if obs.enabled:
            obs.metrics.histogram("lemma2_load_ratio").record(routing.max_load_ratio)
        return self._seal_superstep(
            step, cost, phases, routing, blocks_generated, all_halted,
            packing=packing, ran=ran,
        )

    def _idle(self, step: int, vps: list[int]) -> bool:
        """Whether the group of ``vps`` is skipped in superstep ``step``:
        every vp of it declared quiet, and its incoming slots (one a vp)
        empty — which the store's ``slot_sizes`` say before anything is
        fetched."""
        if not all(self.algorithm.quiet(step, vp) for vp in vps):
            return False
        incoming = self.proc.incoming
        return incoming is None or not any(incoming.slot_sizes[vp] for vp in vps)
