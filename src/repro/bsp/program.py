"""The BSP*/CGM programming model: how user algorithms are written.

An algorithm is a subclass of :class:`BSPAlgorithm`.  Its per-virtual-
processor state (the *context* of the paper) is created by
:meth:`BSPAlgorithm.initial_state` and threaded through successive calls to
:meth:`BSPAlgorithm.superstep`.  Inside a superstep the algorithm may only
touch its own state and the messages that arrived at the *beginning* of the
superstep — exactly the BSP discipline — and communicates by
:meth:`VPContext.send`, which takes effect at the next superstep.

The same algorithm object runs unchanged on

* the in-memory reference runner (:mod:`repro.bsp.runner`), and
* the EM simulation (:mod:`repro.core.parsim`) on a machine of any ``p``:
  Algorithm 3, which is Algorithm 1 when ``p = 1``,

which is the whole point of the paper: EM algorithms are *generated*, not
hand-crafted.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

import numpy as np

from .message import Message

__all__ = ["BSPAlgorithm", "VPContext", "AlgorithmError"]


class AlgorithmError(RuntimeError):
    """Raised when an algorithm violates the model (e.g. exceeds gamma)."""


class VPContext:
    """Execution context handed to one virtual processor for one superstep.

    Attributes
    ----------
    pid:
        This virtual processor's id, ``0 <= pid < nprocs``.
    nprocs:
        Number of virtual processors ``v``.
    step:
        Superstep index, starting at 0.
    state:
        The mutable per-processor state returned by ``initial_state`` (and
        round-tripped through disk by the EM simulations).
    incoming:
        Messages received at the beginning of this superstep, sorted by
        ``(src, arrival)``.
    """

    __slots__ = (
        "pid",
        "nprocs",
        "step",
        "state",
        "incoming",
        "_outbox",
        "_halted",
        "_comp_ops",
        "_sent_records",
        "_comm_bound",
    )

    def __init__(
        self,
        pid: int,
        nprocs: int,
        step: int,
        state: Any,
        incoming: Sequence[Message],
        comm_bound: int | None = None,
    ):
        self.pid = pid
        self.nprocs = nprocs
        self.step = step
        self.state = state
        self.incoming = list(incoming)
        self._outbox: list[Message] = []
        self._halted = False
        self._comp_ops = 0.0
        self._sent_records = 0
        self._comm_bound = comm_bound

    # -- communication -----------------------------------------------------------

    def send(self, dest: int, payload: Sequence[Any]) -> None:
        """Queue a message of ``len(payload)`` records for delivery next superstep.

        List payloads are copied (the caller may keep mutating its list);
        ndarray payloads pass through as contiguous 1-D views — the
        vectorized plane's zero-copy path.  The record count, and hence
        every communication charge, is ``len(payload)`` either way.
        """
        if not (0 <= dest < self.nprocs):
            raise AlgorithmError(
                f"vp {self.pid} sends to invalid destination {dest} "
                f"(v={self.nprocs})"
            )
        if isinstance(payload, np.ndarray):
            payload = np.ascontiguousarray(payload).reshape(-1)
        else:
            payload = list(payload)
        self._sent_records += len(payload)
        if self._comm_bound is not None and self._sent_records > self._comm_bound:
            raise AlgorithmError(
                f"vp {self.pid} sent {self._sent_records} records in superstep "
                f"{self.step}, exceeding the declared comm bound gamma="
                f"{self._comm_bound}"
            )
        self._outbox.append(Message(src=self.pid, dest=dest, payload=payload))

    def send_all(self, payload_by_dest: dict[int, Sequence[Any]]) -> None:
        """Send one message per entry of ``payload_by_dest`` (skips empties)."""
        for dest in sorted(payload_by_dest):
            payload = payload_by_dest[dest]
            if len(payload):
                self.send(dest, payload)

    # -- cost reporting ------------------------------------------------------------

    def charge(self, ops: float) -> None:
        """Report ``ops`` basic computation operations performed this superstep."""
        self._comp_ops += ops

    # -- control -----------------------------------------------------------------

    def vote_halt(self) -> None:
        """Vote to end the computation.

        The run stops after a superstep in which *every* virtual processor
        voted halt and no messages were generated.
        """
        self._halted = True

    # -- results collected by the runners -------------------------------------------

    @property
    def outbox(self) -> list[Message]:
        return self._outbox

    @property
    def halted(self) -> bool:
        return self._halted

    @property
    def comp_ops(self) -> float:
        return self._comp_ops

    @property
    def sent_records(self) -> int:
        return self._sent_records


class BSPAlgorithm(abc.ABC):
    """Base class for BSP*/CGM algorithms.

    Subclasses implement the four abstract methods and, for EM simulation,
    should override :meth:`context_size` and :meth:`comm_bound` with tight
    values: the simulation preallocates ``mu`` records of disk per virtual
    processor and ``gamma`` records of message area per virtual processor per
    superstep.
    """

    #: safety cap on supersteps (runaway-algorithm guard)
    MAX_SUPERSTEPS = 10_000

    #: record planes this algorithm implements.  Algorithms that port their
    #: hot supersteps onto a RecordCodec advertise ("object", "vector");
    #: everything else runs only on the reference object plane.
    RECORD_MODES: tuple[str, ...] = ("object",)

    #: active record plane; switch with :meth:`set_record_mode`.
    record_mode: str = "object"

    def set_record_mode(self, mode: str) -> None:
        """Select the record plane ("object" or "vector") for this run.

        The mode travels with the algorithm object — including through
        pickling to process-backend workers — and must be golden-invisible:
        counted costs, ledgers, and outputs are identical across modes.
        """
        if mode not in self.RECORD_MODES:
            raise AlgorithmError(
                f"{type(self).__name__} does not implement record mode "
                f"{mode!r} (supported: {self.RECORD_MODES})"
            )
        self.record_mode = mode

    @abc.abstractmethod
    def initial_state(self, pid: int, nprocs: int) -> Any:
        """Create virtual processor ``pid``'s initial context (incl. its input)."""

    @abc.abstractmethod
    def superstep(self, ctx: VPContext) -> None:
        """Execute one compound superstep for one virtual processor."""

    @abc.abstractmethod
    def output(self, pid: int, state: Any) -> Any:
        """Extract virtual processor ``pid``'s share of the result."""

    # -- resource declarations ------------------------------------------------------

    def context_size(self) -> int:
        """Declared maximum context size ``mu`` in records.

        The default is deliberately generous; override for honest space
        accounting (EM disk space is ``v * mu`` records).
        """
        return 1 << 16

    def comm_bound(self) -> int:
        """Declared maximum records sent (or received) per vp per superstep (gamma)."""
        return self.context_size()

    def quiet(self, step: int, pid: int) -> bool:
        """Declare vp ``pid`` quiet in superstep ``step``.

        Contract: a quiet vp whose inbox is empty sends nothing, charges no
        operations, leaves its state unchanged and does not vote halt.  The
        EM engines then skip the context swap of any group (Algorithm 3:
        batch) whose vps are all quiet and which receives nothing; the
        reference runner still runs every quiet vp and refuses a broken
        declaration with :class:`AlgorithmError`.
        """
        return False

    # -- conveniences ---------------------------------------------------------------

    def run_reference(self, v: int, **kwargs):
        """Run on the in-memory reference runner; returns (outputs, ledger)."""
        from .runner import ReferenceRunner

        return ReferenceRunner(self, v, **kwargs).run()
