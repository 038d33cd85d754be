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
* the EM simulation (:mod:`repro.core.engine`) on a machine of any ``p``:
  Algorithm 3, which is Algorithm 1 when ``p = 1``,

which is the whole point of the paper: EM algorithms are *generated*, not
hand-crafted.
"""

from __future__ import annotations

import abc
from typing import Any, Sequence

import numpy as np

from .message import Message

__all__ = ["BSPAlgorithm", "VPContext", "AlgorithmError", "state_uses"]


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

    #: record plane the input put this algorithm on: ``"vector"`` where a
    #: codec applies to the input (numpy kernels over canonical codec
    #: bytes), ``"object"`` — the per-record list-state path — everywhere
    #: else.  Subclasses set it from their input; nothing switches it.
    record_mode: str = "object"

    def set_record_mode(self, mode: str) -> None:
        """Check that ``mode`` is the plane the input picked.

        A check, not a switch: the plane the input runs on is accepted and
        changes nothing, any other raises :class:`AlgorithmError` naming it.
        """
        if mode != self.record_mode:
            raise AlgorithmError(
                f"{type(self).__name__} runs on the {self.record_mode!r} record "
                f"plane for this input, not {mode!r}: the input picks the plane"
            )

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

    def state_use(self, step: int, pid: int) -> str:
        """What vp ``pid`` does with its state in superstep ``step``:
        ``"none"``, ``"read"`` or ``"write"`` (the default).

        ``"none"``: the vp sees ``ctx.state is None`` and must leave it so;
        with an empty inbox it also sends nothing, charges nothing and does
        not vote halt.  ``"read"``: its state pickles to the same bytes
        after the superstep as before.  The EM engines fetch a batch's
        contexts only if some vp of it reads, write back only the slots a
        ``"write"`` vp rewrote, and skip a batch whose vps are all
        ``"none"`` and which receives nothing (DESIGN §13).  The reference
        runner checks every declaration and refuses a broken one with
        :class:`AlgorithmError`.
        """
        return "write"

    # -- conveniences ---------------------------------------------------------------

    def run_reference(self, v: int, **kwargs):
        """Run on the in-memory reference runner; returns (outputs, ledger)."""
        from .runner import ReferenceRunner

        return ReferenceRunner(self, v, **kwargs).run()


def state_uses(algorithm: BSPAlgorithm, step: int, pids: Sequence[int]) -> str:
    """:meth:`BSPAlgorithm.state_use` of each of ``pids`` in superstep
    ``step``, one letter a vp (``n`` / ``r`` / ``w``); any other answer
    raises :class:`AlgorithmError`."""
    uses = [algorithm.state_use(step, pid) for pid in pids]
    bad = set(uses) - {"none", "read", "write"}
    if bad:
        raise AlgorithmError(
            f"state_use must be 'none', 'read' or 'write', got {sorted(bad)}"
        )
    return "".join(u[0] for u in uses)
