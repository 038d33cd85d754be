"""Out-of-core workloads: datasets generated on the fly, digested on output.

The file/mmap storage planes (:mod:`repro.emio.storage`) only demonstrate
anything if the *host* process never holds the dataset either.  A plain
:class:`~repro.algorithms.sorting.CGMSampleSort` defeats that by
construction: it materializes ``list(data)`` in ``__init__`` and every
virtual processor's output is its full sorted slice.  The algorithms here
close both ends:

* **Inputs** are generated per virtual processor inside ``initial_state``
  from a seeded stream (``random.Random(f"ooc/{seed}/{pid}")``), so no
  process — engine or worker — ever holds more than one share.
* **Outputs** are order-respecting digests (count, sortedness, boundary
  keys, order-independent checksums), so collecting ``v`` outputs costs
  O(v), not O(n).

With those two fixed, the peak resident heap of a run under
``FileStorage`` is one context group plus a round of ``D`` blocks —
independent of ``n`` — which is exactly what ``tests/test_storage_oom.py``
asserts with tracemalloc and an RSS rlimit.  The digests still verify the
sort globally: every share digest must report sorted data, adjacent shares
must have non-decreasing boundary keys, and the merged (sum, sum-of-squares,
count) checksums must equal the input stream's, which the seeds make
recomputable without materializing anything.
"""

from __future__ import annotations

import random
from typing import Any

import numpy as np

from .algorithms.sorting import CGMSampleSort
from .algorithms._vec import I64
from .bsp.collectives import share_bounds
from .emio.codec import get_codec

__all__ = [
    "OutOfCoreSort",
    "share_stream",
    "stream_checksum",
    "verify_digests",
    "serialized_size",
]


def _key(x) -> int:
    """A checksum key for a record: the int itself, or a bytes prefix."""
    return x if isinstance(x, int) else int.from_bytes(x[:8], "big")


def share_stream(seed: int, pid: int, count: int, reclen: int | None = None):
    """Virtual processor ``pid``'s input share as a fresh generator.

    Deterministic in ``(seed, pid)`` alone, so any process can regenerate
    any share — the property that lets checkpoints resume and checksums
    verify without a materialized dataset anywhere.  ``reclen`` switches
    from int keys to fixed-length random byte strings, whose in-heap cost
    is much closer to their pickled size (an int costs ~7x its pickle in
    RAM; 64-byte ``bytes`` cost ~1.7x) — the right record shape when the
    point is heap-vs-dataset ratios.
    """
    rng = random.Random(f"ooc/{seed}/{pid}")
    if reclen is None:
        return (rng.randrange(1 << 30) for _ in range(count))
    return (rng.randbytes(reclen) for _ in range(count))


def stream_checksum(seed: int, n: int, v: int, reclen: int | None = None) -> tuple:
    """(count, sum, sum of squares) of record keys over the input stream."""
    total = cnt = sq = 0
    for pid in range(v):
        lo, hi_b = share_bounds(n, v, pid)
        for x in share_stream(seed, pid, hi_b - lo, reclen):
            k = _key(x)
            cnt += 1
            total += k
            sq += k * k
    return cnt, total, sq


class OutOfCoreSort(CGMSampleSort):
    """CGM sample sort whose data lives nowhere but the storage plane.

    Same supersteps, counted costs, and balance guarantees as
    :class:`CGMSampleSort`; only the endpoints differ — shares are
    generated inside ``initial_state`` and outputs are digests (see module
    docstring).  ``n >= v*v`` is still required.  The input picks the
    record plane as for the parent: int streams run the vector kernels,
    byte strings (``reclen``) the list-state path.
    """

    def __init__(self, n: int, v: int, seed: int = 0, reclen: int | None = None):
        if v < 1:
            raise ValueError("v must be >= 1")
        if n < v * v:
            raise ValueError(f"CGM sort needs n >= v^2 (n={n}, v={v})")
        self.data = ()  # never materialized; kept for repr-compat only
        self.v = v
        self.key = None
        self.n = n
        self.seed = seed
        self.reclen = reclen
        # Int streams draw from randrange(1 << 30): exactly int64, so the
        # codec plane applies; byte-string records keep the list-state path.
        self._codec = "i64" if reclen is None else None
        if self._codec is not None:
            self.record_mode = "vector"

    def context_size(self) -> int:
        if self.reclen is None:
            return super().context_size()
        per_item = self.reclen + 8
        return 256 + per_item * (4 * -(-self.n // self.v) + 2 * self.v * self.v)

    def comm_bound(self) -> int:
        if self.reclen is None:
            return super().comm_bound()
        per_item = self.reclen + 4
        return 64 + per_item * max(
            self.v * self.v, 4 * -(-self.n // self.v) + self.v
        )

    def initial_state(self, pid: int, nprocs: int):
        lo, hi_b = share_bounds(self.n, nprocs, pid)
        items = list(share_stream(self.seed, pid, hi_b - lo, self.reclen))
        if self._codec is None:
            return {"items": items, "result": None}
        return {
            "enc": self._codec,
            "items": np.asarray(items, I64).tobytes(),
            "result": None,
        }

    def output(self, pid: int, state) -> dict[str, Any]:
        if self._codec is not None:
            return self._output_vector(state)
        run = state["result"] if state["result"] is not None else []
        keys = [_key(x) for x in run]
        digest = {
            "count": len(run),
            "sorted": all(a <= b for a, b in zip(run, run[1:])),
            "lo": run[0] if run else None,
            "hi": run[-1] if run else None,
            "sum": sum(keys),
            "sq": sum(k * k for k in keys),
        }
        state["result"] = None  # drop the run before contexts are collected
        return digest

    def _output_vector(self, state) -> dict[str, Any]:
        """The digest of a codec run over array kernels — plain Python
        values, no decode.

        Keys are < 2**30 (``share_stream`` draws) so the plain sum fits
        int64 even at n=10M; the sum of squares does not, and is computed
        via the split ``x**2 = a**2*2**30 + a*b*2**16 + b**2`` with
        ``a = x >> 15``, ``b = x & 0x7fff`` — each partial sum stays below
        2**54 and the combination happens in Python ints.
        """
        codec = get_codec(state["enc"])
        raw = state["result"]
        arr = codec.from_bytes(raw) if raw is not None else np.empty(0, I64)
        a = arr >> 15
        b = arr & 0x7FFF
        sq = (
            (int(np.sum(a * a)) << 30)
            + (int(np.sum(a * b)) << 16)
            + int(np.sum(b * b))
        )
        digest = {
            "count": len(arr),
            "sorted": bool(np.all(arr[:-1] <= arr[1:])),
            "lo": int(arr[0]) if len(arr) else None,
            "hi": int(arr[-1]) if len(arr) else None,
            "sum": int(np.sum(arr)),
            "sq": sq,
        }
        state["result"] = None  # drop the run before contexts are collected
        return digest


def verify_digests(digests: list[dict], seed: int, n: int, v: int,
                   reclen: int | None = None) -> None:
    """Assert that ``v`` share digests describe a correct global sort."""
    if len(digests) != v:
        raise AssertionError(f"expected {v} digests, got {len(digests)}")
    for i, d in enumerate(digests):
        if not d["sorted"]:
            raise AssertionError(f"share {i} is not sorted")
    bounds = [(d["lo"], d["hi"]) for d in digests if d["count"]]
    for (_, prev_hi), (nxt_lo, _) in zip(bounds, bounds[1:]):
        if prev_hi > nxt_lo:
            raise AssertionError("shares are not globally ordered")
    cnt = sum(d["count"] for d in digests)
    total = sum(d["sum"] for d in digests)
    sq = sum(d["sq"] for d in digests)
    if (cnt, total, sq) != stream_checksum(seed, n, v, reclen):
        raise AssertionError("digest checksums do not match the input stream")


def serialized_size(seed: int, n: int, v: int, reclen: int | None = None) -> int:
    """Honest pickled size of the dataset, one share at a time."""
    import pickle

    total = 0
    for pid in range(v):
        lo, hi_b = share_bounds(n, v, pid)
        share = list(share_stream(seed, pid, hi_b - lo, reclen))
        total += len(pickle.dumps(share, protocol=pickle.HIGHEST_PROTOCOL))
    return total


def _main(argv: list[str] | None = None) -> int:
    """Demo: sort an out-of-core dataset under an enforced heap budget.

    ``python -m repro.outofcore --n 200000 --budget-mb 4`` runs the sort on
    the file plane with tracemalloc enforcing that peak Python heap stays
    under the budget while the serialized dataset is several times larger.
    """
    import argparse
    import tracemalloc

    from .core.simulator import simulate
    from .emio.storage import STORAGE_KINDS
    from .params import MachineParams

    ap = argparse.ArgumentParser(description=_main.__doc__)
    ap.add_argument("--n", type=int, default=250_000)
    ap.add_argument("--v", type=int, default=64)
    ap.add_argument("--reclen", type=int, default=64,
                    help="record length in bytes (0: int keys)")
    ap.add_argument("--disks", "-D", type=int, default=8)
    ap.add_argument("--block", "-B", type=int, default=1024)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--budget-mb", type=float, default=5.0,
                    help="peak-heap budget enforced via tracemalloc")
    ap.add_argument("--storage", choices=STORAGE_KINDS, default="file")
    ap.add_argument("--storage-dir", default=None)
    args = ap.parse_args(argv)

    reclen = args.reclen or None
    alg = OutOfCoreSort(args.n, args.v, seed=args.seed, reclen=reclen)
    machine = MachineParams(
        p=1, M=alg.context_size(), D=args.disks, B=args.block,
    )
    serialized = serialized_size(args.seed, args.n, args.v, reclen)
    budget = int(args.budget_mb * (1 << 20))
    tracemalloc.start()
    tracemalloc.reset_peak()
    outputs, report = simulate(
        alg, machine, v=args.v, seed=args.seed,
        storage=args.storage, storage_dir=args.storage_dir,
    )
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    verify_digests(outputs, args.seed, args.n, args.v, reclen)
    print(f"sorted n={args.n} ({serialized / (1 << 20):.1f} MiB serialized) "
          f"on the {args.storage} plane")
    print(f"peak traced heap: {peak / (1 << 20):.2f} MiB "
          f"(budget {args.budget_mb:g} MiB, "
          f"dataset/peak ratio {serialized / max(peak, 1):.1f}x)")
    print(f"parallel I/O ops: {report.io_ops}")
    if args.storage != "memory" and peak > budget:
        print("FAIL: peak heap exceeded the budget")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(_main())
