"""In-memory reference runner for BSP*/CGM algorithms.

Runs an algorithm exactly as a BSP* machine would — all virtual processors
resident in memory, messages delivered through an in-memory router — while
charging BSP* costs (Section 2.2): per superstep, computation cost is the
maximum over processors of reported operations, and communication cost is
``g`` times the maximum over processors of ``ceil(sent/b) + ceil(received/b)``
packets, with a floor of ``L``.

The reference runner is the ground truth for invariant **I3** (simulation
transparency): for every algorithm and input, the EM simulations must produce
bit-identical outputs to this runner.

It is also where a :meth:`~repro.bsp.program.BSPAlgorithm.quiet` declaration
is checked rather than trusted: every quiet vp still runs here, and one whose
inbox is empty but which sends, charges, changes its state (its pickled bytes
before and after) or votes halt raises :class:`AlgorithmError` — the engines
would have skipped it.
"""

from __future__ import annotations

import pickle
from typing import Any

from ..costs import CostLedger, packets_for
from ..params import MachineParams
from .message import Message
from .program import AlgorithmError, BSPAlgorithm, VPContext

__all__ = ["ReferenceRunner", "run_reference"]


class ReferenceRunner:
    """Executes a :class:`BSPAlgorithm` on ``v`` in-memory virtual processors."""

    def __init__(
        self,
        algorithm: BSPAlgorithm,
        v: int,
        machine: MachineParams | None = None,
        enforce_comm_bound: bool = True,
    ):
        if v < 1:
            raise ValueError(f"v must be >= 1, got {v}")
        self.algorithm = algorithm
        self.v = v
        self.machine = machine if machine is not None else MachineParams()
        self.enforce_comm_bound = enforce_comm_bound
        self.ledger = CostLedger(self.machine)
        self.supersteps_executed = 0

    def run(self) -> tuple[list[Any], CostLedger]:
        """Run to completion; return (per-vp outputs, cost ledger)."""
        alg, v = self.algorithm, self.v
        states = [alg.initial_state(pid, v) for pid in range(v)]
        inboxes: list[list[Message]] = [[] for _ in range(v)]
        gamma = alg.comm_bound() if self.enforce_comm_bound else None

        for step in range(alg.MAX_SUPERSTEPS):
            cost = self.ledger.begin_superstep(label=f"superstep {step}")
            next_inboxes: list[list[Message]] = [[] for _ in range(v)]
            all_halted = True
            any_message = False
            max_comp = 0.0
            max_packets = 0
            received_records = [0] * v
            sent_packets = [0] * v
            total_sent = 0

            for pid in range(v):
                quiet = not inboxes[pid] and alg.quiet(step, pid)
                before = _image(states[pid]) if quiet else None
                ctx = VPContext(
                    pid, v, step, states[pid], inboxes[pid], comm_bound=gamma
                )
                alg.superstep(ctx)
                if quiet:
                    _check_quiet(ctx, before)
                states[pid] = ctx.state
                if not ctx.halted:
                    all_halted = False
                max_comp = max(max_comp, ctx.comp_ops)
                for m in ctx.outbox:
                    any_message = True
                    next_inboxes[m.dest].append(m)
                    received_records[m.dest] += m.size
                    sent_packets[pid] += packets_for(max(m.size, 1), self.machine.b)
                    total_sent += m.size

            if gamma is not None:
                for pid, r in enumerate(received_records):
                    if r > gamma:
                        raise AlgorithmError(
                            f"vp {pid} received {r} records in superstep {step}, "
                            f"exceeding gamma={gamma}"
                        )

            for pid in range(v):
                recv_packets = sum(
                    packets_for(max(m.size, 1), self.machine.b)
                    for m in next_inboxes[pid]
                )
                max_packets = max(max_packets, sent_packets[pid] + recv_packets)

            cost.comp_ops = max_comp
            cost.comm_packets = max_packets
            cost.records_sent = total_sent
            self.supersteps_executed += 1
            inboxes = next_inboxes

            if all_halted and not any_message:
                break
        else:
            raise AlgorithmError(
                f"algorithm did not halt within MAX_SUPERSTEPS="
                f"{alg.MAX_SUPERSTEPS}"
            )

        self.ledger.close()
        outputs = [alg.output(pid, states[pid]) for pid in range(v)]
        return outputs, self.ledger


def _image(state: Any) -> bytes:
    return pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)


def _check_quiet(ctx: VPContext, before: bytes) -> None:
    """Refuse a vp declared quiet, with an empty inbox, that did anything."""
    broken = [
        what
        for what, did in (
            ("sent messages", ctx.outbox),
            ("charged operations", ctx.comp_ops),
            ("voted halt", ctx.halted),
            ("changed its state", _image(ctx.state) != before),
        )
        if did
    ]
    if broken:
        raise AlgorithmError(
            f"vp {ctx.pid} is declared quiet in superstep {ctx.step} and "
            f"received nothing, but {' and '.join(broken)}"
        )


def run_reference(
    algorithm: BSPAlgorithm, v: int, machine: MachineParams | None = None
) -> tuple[list[Any], CostLedger]:
    """Convenience wrapper: run ``algorithm`` on ``v`` in-memory processors."""
    return ReferenceRunner(algorithm, v, machine=machine).run()
