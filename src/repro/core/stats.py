"""Simulation reports: per-phase counted costs and theory-vs-measured views."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..costs import CostLedger
from ..params import SimulationParams
from .routing import RoutingStats

__all__ = ["PhaseBreakdown", "SuperstepReport", "FaultReport", "SimulationReport"]


@dataclass
class FaultReport:
    """Faults injected, masked, and recovered from during one run.

    Populated by the engines whenever fault injection or checkpointing is
    active (see :mod:`repro.emio.faults` and :mod:`repro.core.checkpoint`).
    Injection counters aggregate over all real processors' disk arrays.
    """

    # -- injected by the fault plan -------------------------------------------
    transient_read_errors: int = 0
    transient_write_errors: int = 0
    corruptions_injected: int = 0
    checksum_errors: int = 0  # corruptions *detected* on read-back
    latency_spikes: int = 0
    disks_died: int = 0
    # -- masked by the disk array's retry policy ------------------------------
    retry_reads: int = 0  # extra parallel read operations
    retry_writes: int = 0  # extra parallel write operations
    stall_ops: int = 0  # op-equivalents lost to backoff + spikes
    degraded_writes: int = 0  # writes remapped off dead drives
    # -- handled by the engine's checkpoint/recovery loop ---------------------
    recoveries: int = 0  # superstep re-runs after a fatal fault
    checkpoints_taken: int = 0
    checkpoint_io_ops: int = 0  # parallel reads capturing barrier state
    recovery_io_ops: int = 0  # parallel writes restoring barrier state
    resumed_from_step: int | None = None  # set by resume_from_checkpoint()

    @property
    def retry_ops(self) -> int:
        return self.retry_reads + self.retry_writes

    def summary(self) -> dict:
        return {
            "transient_errors": self.transient_read_errors
            + self.transient_write_errors,
            "checksum_errors": self.checksum_errors,
            "latency_spikes": self.latency_spikes,
            "disks_died": self.disks_died,
            "retry_ops": self.retry_ops,
            "stall_ops": self.stall_ops,
            "degraded_writes": self.degraded_writes,
            "recoveries": self.recoveries,
            "checkpoints": self.checkpoints_taken,
            "checkpoint_io_ops": self.checkpoint_io_ops,
            "recovery_io_ops": self.recovery_io_ops,
        }


@dataclass
class PhaseBreakdown:
    """Parallel I/O operations of one compound superstep, by phase of Algorithm 1."""

    fetch_context: int = 0
    fetch_messages: int = 0
    write_messages: int = 0
    write_context: int = 0
    reorganize: int = 0

    @property
    def total(self) -> int:
        return (
            self.fetch_context
            + self.fetch_messages
            + self.write_messages
            + self.write_context
            + self.reorganize
        )


@dataclass
class SuperstepReport:
    """Diagnostics of one simulated compound superstep."""

    index: int
    phases: PhaseBreakdown
    routing: RoutingStats | None = None
    comm_packets: int = 0
    message_blocks: int = 0
    halted: bool = False
    # Every real processor's routing stats (the parallel engine's `routing`
    # keeps only the worst-deviation processor, but the reorganize phase is
    # charged as a max over *ops*, so bound checks need all of them).
    routing_all: list[RoutingStats] | None = None
    # Step 1(d)'s packing, per write round (Algorithm 1: group) and real
    # processor: the records packed for each destination group, and the
    # Lemma 3 dummy blocks added — what the exact write referee
    # (repro.conform.oracles.check_theorem1_io) counts blocks and ops from.
    packing: list[list[tuple[tuple[int, ...], int]]] | None = None
    # The groups (Algorithm 3: batches) that ran, in run order, each as
    # ``(group, fetch_context ops, write_context ops)`` (maxima over
    # processors); a group of quiet vps that received nothing is skipped and
    # absent.  What the context referee pins each group's fetch to its last
    # write by.
    ran: list[tuple[int, int, int]] | None = None
    # Algorithm 3's two h-relations per round, in run order, as
    # ``(gather, deal)``: the gather as ``(sender, owner, records)`` per pair
    # of processors that moved blocks (a processor's own blocks included),
    # the deal as one ``(records, offset)`` per processor — ``offset`` None
    # where it dealt nothing — or None for a skipped round.  What the exact
    # scatter referee recomputes ``comm_packets`` from.
    traffic: list[tuple[tuple[tuple[int, int, int], ...], tuple | None]] | None = None

    def routing_stats(self) -> list[RoutingStats]:
        """All per-processor routing stats known for this superstep."""
        if self.routing_all is not None:
            return self.routing_all
        return [self.routing] if self.routing is not None else []


@dataclass
class SimulationReport:
    """Full record of one EM simulation run.

    Combines the model-cost ledger with per-superstep phase breakdowns and
    the theoretical bounds of the paper evaluated at the run's parameters,
    so benchmarks can print measured-vs-predicted side by side.
    """

    params: SimulationParams
    ledger: CostLedger
    supersteps: list[SuperstepReport] = field(default_factory=list)
    disk_space_tracks: int = 0  # allocator high water, tracks per disk
    init_io_ops: int = 0  # input loading (excluded from superstep costs)
    output_io_ops: int = 0  # result unloading
    faults: FaultReport | None = None  # set when fault injection or
    # checkpointing was active (see repro.emio.faults, repro.core.checkpoint)

    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps)

    @property
    def io_ops(self) -> int:
        """Parallel I/O operations across all compound supersteps."""
        return sum(s.phases.total for s in self.supersteps)

    @property
    def io_time(self) -> float:
        return self.params.machine.G * self.io_ops

    @property
    def max_load_ratio(self) -> float:
        """Worst Lemma 2 deviation observed in any superstep's bucket store."""
        return max(
            (s.routing.max_load_ratio for s in self.supersteps if s.routing),
            default=0.0,
        )

    def theoretical_io_bound(self) -> float:
        """Theorem 1's I/O-operation bound ``lambda * (v/p) * mu / (B*D)``.

        The constant ``l`` and the O() constant are omitted; benchmarks
        compare measured/predicted ratios across parameter sweeps, where the
        constants cancel.
        """
        return self.num_supersteps * self.params.theoretical_io_ops_per_superstep()

    def io_efficiency(self) -> float:
        """Measured I/O ops divided by the (constant-free) theoretical bound."""
        bound = self.theoretical_io_bound()
        return self.io_ops / bound if bound else float("inf")

    def summary(self) -> dict:
        d = self.ledger.summary()
        d.update(
            {
                "io_ops_supersteps": self.io_ops,
                "io_ops_init": self.init_io_ops,
                "io_ops_output": self.output_io_ops,
                "theory_io_bound": self.theoretical_io_bound(),
                "max_load_ratio": self.max_load_ratio,
                "disk_space_tracks": self.disk_space_tracks,
            }
        )
        if self.faults is not None:
            d.update({f"faults_{k}": val for k, val in self.faults.summary().items()})
        return d
