"""Helpers shared by the CGM algorithm library.

These are pure functions used inside superstep code: balanced block
distributions of the input across virtual processors, deterministic regular
sampling for sample-sort-style splitting, and partitioning by splitters.
They perform no communication themselves — communication always goes through
:meth:`VPContext.send` so the simulations can observe it.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

__all__ = [
    "share_bounds",
    "share_size",
    "owner_of_index",
    "regular_samples",
    "merge_sorted",
]


def share_bounds(n: int, v: int, pid: int) -> tuple[int, int]:
    """Global index range ``[lo, hi)`` of vp ``pid``'s share of ``n`` items.

    Balanced block distribution: the first ``n mod v`` processors get
    ``ceil(n/v)`` items, the rest ``floor(n/v)``.
    """
    base, extra = divmod(n, v)
    lo = pid * base + min(pid, extra)
    hi = lo + base + (1 if pid < extra else 0)
    return lo, hi


def share_size(n: int, v: int, pid: int) -> int:
    lo, hi = share_bounds(n, v, pid)
    return hi - lo


def owner_of_index(i: int, n: int, v: int) -> int:
    """The vp owning global index ``i`` under the balanced block distribution."""
    if not (0 <= i < n):
        raise IndexError(f"index {i} outside [0, {n})")
    base, extra = divmod(n, v)
    boundary = extra * (base + 1)
    if i < boundary:
        return i // (base + 1)
    if base == 0:
        return extra  # pragma: no cover - unreachable: i >= boundary == n
    return extra + (i - boundary) // base


def regular_samples(sorted_items: Sequence[Any], count: int) -> list[Any]:
    """``count`` regularly spaced samples of a locally sorted sequence.

    Deterministic regular sampling (as in communication-efficient parallel
    sorting): sample ``i`` is the item at position ``floor((i+1)*n/(count+1))``.
    Fewer samples are returned if the sequence is shorter than ``count``.
    """
    n = len(sorted_items)
    if n == 0 or count <= 0:
        return []
    idxs = sorted({min(n - 1, (i + 1) * n // (count + 1)) for i in range(count)})
    return [sorted_items[i] for i in idxs]


def merge_sorted(
    runs: Sequence[Sequence[Any]], key: Callable[[Any], Any] | None = None
) -> list[Any]:
    """Merge already-sorted runs into one sorted list."""
    import heapq

    if key is None:
        return list(heapq.merge(*runs))
    return list(heapq.merge(*runs, key=key))
