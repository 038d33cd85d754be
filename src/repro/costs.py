"""Cost accounting for BSP*, EM-BSP* and EM-CGM executions.

The paper charges each compound superstep the cost

    t_comp + t_comm + t_I/O + L

where ``t_comp`` is the maximum computation time over processors, ``t_comm``
is ``g`` times the maximum number of packets (of size ``b``) sent or received
by any processor, ``t_I/O`` is ``G`` times the maximum number of parallel I/O
operations performed by any processor, and ``L`` is the synchronization cost.

:class:`CostLedger` records those quantities per superstep and produces the
totals used by every benchmark.  Costs are *counted* in model units, never
measured in wall-clock time: the paper's claims are theorems about these
counts (see DESIGN.md section 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .params import MachineParams

__all__ = ["SuperstepCost", "CostLedger", "packets_for"]


def packets_for(nrecords: int, b: int) -> int:
    """Number of packets of size ``b`` needed to carry ``nrecords`` records.

    BSP* charges messages shorter than ``b`` as a full packet; a message of
    zero records costs nothing.
    """
    if nrecords <= 0:
        return 0
    return -(-nrecords // b)


@dataclass
class SuperstepCost:
    """Counted costs of one (compound) superstep.

    Attributes are raw counts; the model-time properties multiply in the
    machine's ``g``, ``G`` and ``L`` coefficients.
    """

    comp_ops: float = 0.0  # max over processors, basic computation operations
    comm_packets: int = 0  # max over processors, packets sent+received
    io_ops: int = 0  # max over processors, parallel I/O operations
    records_sent: int = 0  # total records communicated (diagnostic)
    records_io: int = 0  # total records moved to/from disk (diagnostic)
    syncs: int = 1  # barrier synchronizations (compound supersteps of the
    # parallel simulation run ceil(v/(p*k)) rounds, each with its own barriers)
    retry_ops: int = 0  # of io_ops: retry rounds masking transient faults
    stall_ops: int = 0  # op-equivalents lost to backoff + latency spikes
    label: str = ""

    def comm_time(self, machine: MachineParams) -> float:
        """BSP* communication time ``max(L, g * packets)``."""
        if self.comm_packets == 0:
            return 0.0
        return max(machine.L, machine.g * self.comm_packets)

    def io_time(self, machine: MachineParams) -> float:
        """EM I/O time ``G * (parallel I/O operations + stalls)``.

        Retry rounds are already inside ``io_ops`` (they are real parallel
        operations); stalls occupy the array for op-equivalents without
        transferring data, so they are charged on top.
        """
        return machine.G * (self.io_ops + self.stall_ops)

    def total_time(self, machine: MachineParams) -> float:
        """Total model time of this superstep: comp + comm + I/O + L."""
        return (
            self.comp_ops
            + self.comm_time(machine)
            + self.io_time(machine)
            + machine.L * self.syncs
        )


@dataclass
class CostLedger:
    """Accumulates per-superstep costs for a whole execution.

    A fresh :class:`SuperstepCost` is opened with :meth:`begin_superstep`;
    component code charges it through the ``charge_*`` methods; the ledger
    seals it on the next ``begin_superstep`` (or :meth:`close`).
    """

    machine: MachineParams
    supersteps: list[SuperstepCost] = field(default_factory=list)
    _open: SuperstepCost | None = field(default=None, repr=False)

    def begin_superstep(self, label: str = "") -> SuperstepCost:
        """Seal the current superstep (if any) and open a new one."""
        self.close()
        self._open = SuperstepCost(label=label)
        return self._open

    def close(self) -> None:
        """Seal the currently open superstep."""
        if self._open is not None:
            self.supersteps.append(self._open)
            self._open = None

    @property
    def current(self) -> SuperstepCost:
        if self._open is None:
            self._open = SuperstepCost()
        return self._open

    # -- charging ------------------------------------------------------------

    def charge_comp(self, ops: float) -> None:
        """Charge ``ops`` basic computation operations to the open superstep."""
        self.current.comp_ops += ops

    def charge_comm_records(self, nrecords: int) -> None:
        """Charge communication of ``nrecords`` records (packetized by ``b``)."""
        self.current.comm_packets += packets_for(nrecords, self.machine.b)
        self.current.records_sent += nrecords

    def charge_io(self, ops: int, nrecords: int = 0) -> None:
        """Charge ``ops`` parallel I/O operations to the open superstep."""
        self.current.io_ops += ops
        self.current.records_io += nrecords

    # -- totals ----------------------------------------------------------------

    @property
    def num_supersteps(self) -> int:
        return len(self.supersteps) + (1 if self._open is not None else 0)

    def _all(self) -> list[SuperstepCost]:
        return self.supersteps + ([self._open] if self._open is not None else [])

    @property
    def total_comp(self) -> float:
        return sum(s.comp_ops for s in self._all())

    @property
    def total_comm_packets(self) -> int:
        return sum(s.comm_packets for s in self._all())

    @property
    def total_io_ops(self) -> int:
        return sum(s.io_ops for s in self._all())

    @property
    def total_records_sent(self) -> int:
        return sum(s.records_sent for s in self._all())

    @property
    def total_records_io(self) -> int:
        return sum(s.records_io for s in self._all())

    @property
    def total_retry_ops(self) -> int:
        return sum(s.retry_ops for s in self._all())

    @property
    def total_stall_ops(self) -> int:
        return sum(s.stall_ops for s in self._all())

    def total_comm_time(self) -> float:
        return sum(s.comm_time(self.machine) for s in self._all())

    def total_io_time(self) -> float:
        return sum(s.io_time(self.machine) for s in self._all())

    def total_time(self) -> float:
        return sum(s.total_time(self.machine) for s in self._all())

    def summary(self) -> dict:
        """A dictionary summary, convenient for benchmark tables."""
        return {
            "supersteps": self.num_supersteps,
            "comp_ops": self.total_comp,
            "comm_packets": self.total_comm_packets,
            "io_ops": self.total_io_ops,
            "retry_ops": self.total_retry_ops,
            "stall_ops": self.total_stall_ops,
            "records_sent": self.total_records_sent,
            "records_io": self.total_records_io,
            "comm_time": self.total_comm_time(),
            "io_time": self.total_io_time(),
            "total_time": self.total_time(),
        }

    def merge_max(self, other: "CostLedger") -> None:
        """Fold another processor's ledger in, superstep-wise, taking maxima.

        Used by the multiprocessor simulation: the model charges each
        superstep the *maximum* cost over the real processors.
        """
        if other.num_supersteps != self.num_supersteps:
            raise ValueError(
                "cannot merge ledgers with different superstep counts: "
                f"{self.num_supersteps} vs {other.num_supersteps}"
            )
        self.close()
        other.close()
        for mine, theirs in zip(self.supersteps, other.supersteps):
            mine.comp_ops = max(mine.comp_ops, theirs.comp_ops)
            mine.comm_packets = max(mine.comm_packets, theirs.comm_packets)
            mine.io_ops = max(mine.io_ops, theirs.io_ops)
            mine.syncs = max(mine.syncs, theirs.syncs)
            mine.retry_ops = max(mine.retry_ops, theirs.retry_ops)
            mine.stall_ops = max(mine.stall_ops, theirs.stall_ops)
            mine.records_sent += theirs.records_sent
            mine.records_io += theirs.records_io
