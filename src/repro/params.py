"""Machine and algorithm parameters for the EM-BSP* / EM-CGM models.

The paper (Dehne, Dittrich & Hutchinson) extends the BSP* model with four
external-memory parameters per processor: local memory size ``M``, number of
disk drives ``D``, transfer block size ``B``, and the computation/I-O capacity
ratio ``G``.  This module defines validated parameter containers used by every
other subsystem, together with the side conditions of Theorem 1.

Units
-----
All capacities (``M``, ``B``, ``b``, context size ``mu``, message bound
``gamma``) are measured in *records*, the paper's abstract unit of data.  All
costs (``g``, ``G``, ``L``) are measured in *basic computation operations*,
exactly as in the paper's cost model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

__all__ = [
    "MachineParams",
    "BSPParams",
    "SimulationParams",
    "ParameterError",
    "log_MB",
]


class ParameterError(ValueError):
    """Raised when a parameter combination violates a model constraint."""


def log_MB(M: int, B: int) -> float:
    """Return ``log2(M/B)``, the slackness factor appearing throughout the paper.

    The paper requires ``M > B`` wherever ``log(M/B)`` appears; we clamp to a
    minimum of 1.0 so degenerate configurations (``M == B``) remain usable in
    tests of other components.
    """
    if M <= 0 or B <= 0:
        raise ParameterError(f"M and B must be positive, got M={M}, B={B}")
    return max(1.0, math.log2(M / B))


@dataclass(frozen=True)
class MachineParams:
    """Parameters of the target EM-BSP* machine (Section 3 of the paper).

    Attributes
    ----------
    p:
        Number of real processors.
    M:
        Local memory size of each real processor, in records.
    D:
        Number of disk drives attached to each real processor.
    B:
        Transfer block size of a disk drive, in records.  A *track* stores
        exactly one block of ``B`` records.
    G:
        Time (in basic computation units) for one parallel I/O operation,
        i.e. the transfer of up to ``D`` blocks, one per local disk.
    g:
        Time for the router to deliver one packet of size ``b``.
    L:
        Time to perform a barrier synchronization between the processors.
    b:
        Minimum packet size for communication (the BSP* blocking parameter).
        The simulation requires ``b >= B``.
    """

    p: int = 1
    M: int = 1 << 12
    D: int = 1
    B: int = 64
    G: float = 1.0
    g: float = 1.0
    L: float = 1.0
    b: int = 64

    def __post_init__(self) -> None:
        if self.p < 1:
            raise ParameterError(f"p must be >= 1, got {self.p}")
        if self.D < 1:
            raise ParameterError(f"D must be >= 1, got {self.D}")
        if self.B < 1:
            raise ParameterError(f"B must be >= 1, got {self.B}")
        if self.b < 1:
            raise ParameterError(f"b must be >= 1, got {self.b}")
        if self.M < self.D * self.B:
            # The paper assumes a processor can hold one block from each
            # local disk simultaneously (Section 3): M >= D*B.
            raise ParameterError(
                f"M must be >= D*B (one block per local disk), "
                f"got M={self.M} < D*B={self.D * self.B}"
            )
        if self.G < 0 or self.g < 0 or self.L < 0:
            raise ParameterError("cost parameters G, g, L must be non-negative")

    @property
    def log_MB(self) -> float:
        """``log2(M/B)`` for this machine."""
        return log_MB(self.M, self.B)

    @property
    def io_bandwidth(self) -> int:
        """Records moved by one fully parallel I/O operation (``D*B``)."""
        return self.D * self.B

    def with_(self, **kwargs) -> "MachineParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class BSPParams:
    """Parameters of the simulated (virtual) BSP*/CGM machine.

    Attributes
    ----------
    v:
        Number of virtual processors.
    mu:
        Maximum context size of a virtual processor, in records.  The
        simulation preallocates ``mu`` records of disk space per virtual
        processor for its context.
    gamma:
        Maximum total size of messages sent (and received) by one virtual
        processor in a single superstep, in records.  The paper calls this
        :math:`\\gamma` and notes :math:`\\gamma = O(\\mu)`.
    """

    v: int
    mu: int
    gamma: int

    def __post_init__(self) -> None:
        if self.v < 1:
            raise ParameterError(f"v must be >= 1, got {self.v}")
        if self.mu < 1:
            raise ParameterError(f"mu must be >= 1, got {self.mu}")
        if self.gamma < 0:
            raise ParameterError(f"gamma must be >= 0, got {self.gamma}")

    def with_(self, **kwargs) -> "BSPParams":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class SimulationParams:
    """Joint parameters of one simulation run, with Theorem 1's side conditions.

    Attributes
    ----------
    machine:
        The target EM-BSP* machine.
    bsp:
        The simulated virtual machine.
    k:
        Most virtual processors simulated concurrently per real processor
        ("group size").  The paper chooses ``k = floor(M / mu)`` to maximize
        memory use; pass ``k=None`` for that default.  The ``v/p`` vps go in
        the fewest balanced groups of at most ``k`` (:attr:`groups`), and
        ``k`` becomes the largest.
        ``k*mu <= M`` is the check; the held group keeps its inbox (up to
        ``k*gamma`` records) in memory only where ``k*(mu + gamma) <= M``
        (:meth:`RunConfig.holds_inbox <repro.core.engine.RunConfig.holds_inbox>`).
    strict:
        If True, enforce all side conditions of Theorem 1 (slackness,
        ``b >= B``, ``M/B >= p^eps``).  If False, only hard structural
        requirements are enforced (enough memory for one group, enough
        virtual processors for one group per real processor) so that small
        unit-test configurations remain expressible.
    groups:
        Set at construction, the group map: group ``j``'s local context
        slots, ``range(*share_bounds(v/p, g, j))`` for the ``g`` groups --
        ``k`` slots in the first ``(v/p) mod g``, ``k - 1`` after.
        :meth:`group_of_slot` inverts it.
    """

    machine: MachineParams
    bsp: BSPParams
    k: int | None = None
    strict: bool = False
    eps: float = field(default=0.5)

    def __post_init__(self) -> None:
        m, s = self.machine, self.bsp
        # The paper's choice k = floor(M/mu) unless given (describe() shows it).
        k = max(1, m.M // s.mu) if self.k is None else self.k
        object.__setattr__(self, "k", k)
        if k < 1:
            self._reject(f"group size k must be >= 1, got {k}")
        if m.M < s.mu:
            self._reject(
                f"real memory M={m.M} cannot hold one virtual context mu={s.mu}"
            )
        if k * s.mu > m.M:
            self._reject(
                f"group of k={k} contexts (k*mu={k * s.mu}) exceeds M={m.M}"
            )
        if s.v % m.p != 0:
            self._reject(
                f"v={s.v} must be a multiple of p={m.p} (the same v/p virtual "
                "processors per real processor; pad with idle virtual "
                "processors if necessary)"
            )
        # The fewest groups of at most k, balanced: k becomes the largest.
        from .bsp.collectives import share_bounds  # bsp imports this module

        vpp = s.v // m.p
        g = -(-vpp // min(k, vpp))
        groups = tuple(range(*share_bounds(vpp, g, j)) for j in range(g))
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "_group_of", tuple(j for j, r in enumerate(groups) for _ in r))
        object.__setattr__(self, "k", len(groups[0]))
        if self.strict:
            self.check_theorem1()

    def describe(self) -> str:
        """The full parameter tuple, in the paper's letters, on one line.

        Appended to every :class:`ParameterError` this class raises so a
        rejected configuration (e.g. a fuzzer repro case) is self-describing
        without access to the objects that produced it.
        """
        m, s = self.machine, self.bsp
        return (
            f"machine(p={m.p}, M={m.M}, D={m.D}, B={m.B}, b={m.b}, "
            f"G={m.G:g}, g={m.g:g}, L={m.L:g}) "
            f"bsp(v={s.v}, mu={s.mu}, gamma={s.gamma}) k={self.k}"
        )

    def _reject(self, message: str) -> None:
        raise ParameterError(f"{message} [{self.describe()}]")

    # -- Theorem 1 side conditions -----------------------------------------

    def check_theorem1(self) -> list[str]:
        """Check the side conditions of Theorem 1; raise on violation.

        Returns the list of condition descriptions that were checked, so
        callers can log them.
        """
        m, s, k = self.machine, self.bsp, self.k
        checked: list[str] = []
        slack = k * m.p * m.D * m.log_MB
        if s.v < slack:
            self._reject(
                f"slackness violated: v={s.v} < k*p*D*log(M/B)={slack:.1f}"
            )
        checked.append(f"v >= k*p*D*log(M/B) ({s.v} >= {slack:.1f})")
        if m.b < m.B:
            self._reject(f"packet size b={m.b} must be >= block size B={m.B}")
        checked.append(f"b >= B ({m.b} >= {m.B})")
        if m.p > 1 and m.M / m.B < m.p**self.eps:
            self._reject(
                f"M/B={m.M / m.B:.1f} < p^eps={m.p**self.eps:.1f} "
                f"(eps={self.eps})"
            )
        checked.append("M/B >= p^eps")
        if m.b * m.log_MB > 4 * m.M:
            self._reject(
                f"b*log(M/B)={m.b * m.log_MB:.0f} must be O(M)={m.M}"
            )
        checked.append("b*log(M/B) = O(M)")
        return checked

    # -- derived quantities --------------------------------------------------

    @property
    def groups_per_processor(self) -> int:
        """Groups a processor, the rounds of a superstep: ``ceil((v/p)/k)``."""
        return len(self.groups)

    def group_of_slot(self, slot: int) -> int:
        """The group whose :attr:`groups` entry holds local slot ``slot``."""
        return self._group_of[slot]

    @property
    def vps_per_processor(self) -> int:
        """Virtual processors assigned to each real processor (``v / p``)."""
        return self.bsp.v // self.machine.p

    @property
    def context_blocks_per_vp(self) -> int:
        """Blocks reserved on disk for one virtual context (``ceil(mu/B)``)."""
        return -(-self.bsp.mu // self.machine.B)

    @property
    def message_blocks_per_vp(self) -> int:
        """Blocks reserved for one virtual processor's incoming messages."""
        return -(-self.bsp.gamma // self.machine.B) if self.bsp.gamma else 0

    def theoretical_io_ops_per_superstep(self) -> float:
        """The paper's bound on parallel I/O operations per compound superstep.

        Lemma 4 / Theorem 1: ``O((v/p) * mu / (D*B))`` parallel I/O operations
        per real processor per compound superstep (constant ``l`` omitted).
        """
        m, s = self.machine, self.bsp
        return (s.v / m.p) * s.mu / (m.D * m.B)
