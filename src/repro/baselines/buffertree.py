"""Buffer tree and bulk priority queue (Arge) on the counted disk array.

The buffer tree is the classical EM data structure behind time-forward
processing and the STXXL-style bulk priority queues (PAPERS.md): a B-tree
of degree ``Theta(M/B)`` whose nodes absorb operations into per-node disk
buffers that are emptied in bulk, so every operation costs an amortized
``O((1/B) log_{M/B}(n/B))`` I/Os instead of a per-op root-to-leaf walk.

This implementation keeps the skeleton (child pointers, splitters, block
addresses) in host memory — standard for buffer trees, where the skeleton
is a ``1/B`` fraction of the data — while all records and buffered
operations live in blocks on a :class:`~repro.emio.diskarray.DiskArray`,
charged through the batched paths like every other baseline (DESIGN §13).
Records are ``(key, seq, payload)`` triples: the insertion sequence number
makes every element distinct, so splitters are unambiguous and the
resulting sort (:class:`BufferTreeSort`) is stable.

:class:`BufferTreePQ` layers the bulk queue on top: an in-memory cache of
the globally smallest elements (a push at or below the cache maximum
enters the cache, everything else goes to the tree; refills structurally
consume leftmost leaves after flushing only the root-to-leftmost-leaf
buffer path, so routed deletions are never needed and none are
implemented).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from ..emio.disk import Block
from ..emio.storage import StorageSpec
from ..params import MachineParams
from .striping import CountedSorter, SortStats, baseline_array

__all__ = ["BufferTree", "BufferTreePQ", "BufferTreeSort", "BufferTreeStats"]


@dataclass
class BufferTreeStats:
    """Event counters of one buffer-tree session (the counted I/O is the
    tree's ``io_ops``, read live off its array)."""

    inserts: int = 0
    empties: int = 0  # bulk buffer-emptying events
    leaf_splits: int = 0
    node_splits: int = 0
    comp_ops: float = 0.0


class _Alloc:
    """Round-robin block allocator over the ``D`` drives, with free lists."""

    def __init__(self, D: int):
        self.D = D
        self._next = [0] * D
        self._free: list[list[int]] = [[] for _ in range(D)]
        self._rr = 0

    def get(self) -> tuple[int, int]:
        d = self._rr
        self._rr = (self._rr + 1) % self.D
        if self._free[d]:
            return d, self._free[d].pop()
        t = self._next[d]
        self._next[d] += 1
        return d, t

    def put(self, addr: tuple[int, int]) -> None:
        self._free[addr[0]].append(addr[1])


class _Node:
    __slots__ = ("leaf", "children", "splitters", "data_addrs", "buf_addrs", "count")

    def __init__(self, leaf: bool):
        self.leaf = leaf
        self.children: list["_Node"] = []
        self.splitters: list[tuple[Any, int]] = []  # (key, seq) lower bounds
        self.data_addrs: list[tuple[int, int]] = []  # leaf record blocks
        self.buf_addrs: list[tuple[int, int]] = []  # buffered op blocks
        self.count = 0  # records in this leaf


class BufferTree:
    """An external-memory buffer tree of insert operations.

    Supports bulk insertion, full flushing, sorted traversal
    (:meth:`items`) and structural consumption of the leftmost leaf
    (:meth:`pop_leftmost_leaf` — the priority-queue refill primitive).
    """

    def __init__(
        self,
        machine: MachineParams,
        key: Callable | None = None,
        *,
        array=None,
        storage: "str | StorageSpec | None" = None,
        fast_io: bool | None = None,
    ):
        if machine.p != 1:
            raise ValueError("BufferTree is the single-processor baseline")
        self.machine = machine
        self.keyf = key if key is not None else (lambda x: x)
        self._owns_array = array is None
        self.array = (
            baseline_array(machine, storage=storage, fast_io=fast_io)
            if array is None
            else array
        )
        m = machine
        #: tree degree Theta(M/B)
        self.degree = max(2, m.M // (4 * m.B))
        #: records per leaf before splitting
        self.leaf_max = max(m.B, m.M // 4)
        #: buffered blocks per node before a bulk emptying
        self.buf_max = max(2, m.M // (2 * m.B))
        self.stats = BufferTreeStats()
        self._alloc = _Alloc(m.D)
        self._seq = 0
        self._staging: list[tuple[Any, int, Any]] = []  # root ops not yet on disk
        self.root = _Node(leaf=True)
        self._len = 0

    # -- lifecycle ------------------------------------------------------------------

    def close(self) -> None:
        if self._owns_array:
            self.array.close_storage()
            self.array.storage_spec.cleanup()

    def __enter__(self) -> "BufferTree":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return self._len

    @property
    def io_ops(self) -> int:
        return self.array.parallel_ops

    # -- block plumbing -------------------------------------------------------------

    def _write_blocks(self, chunks: Sequence[Sequence[Any]]) -> list[tuple[int, int]]:
        addrs = [self._alloc.get() for _ in chunks]
        self.array.write_batched(
            [(*a, Block(records=list(c))) for a, c in zip(addrs, chunks)]
        )
        return addrs

    def _read_blocks(
        self, addrs: Sequence[tuple[int, int]], free: bool = True
    ) -> list[Any]:
        if not addrs:
            return []
        out: list[Any] = []
        for blk in self.array.read_batched(list(addrs)):
            if blk is not None:
                out.extend(blk.records)
        if free:
            for a in addrs:
                self._alloc.put(a)
        return out

    # -- insertion ------------------------------------------------------------------

    def insert(self, record: Any) -> None:
        """Insert one record (amortized ``O((1/B) log) `` counted I/Os:
        ops stage in memory until a full stripe of blocks accumulates)."""
        self._insert_ops([(self.keyf(record), self._next_seq(), record)])

    def bulk_insert(self, records: Iterable[Any]) -> None:
        """Insert many records, flushing the staging tail to disk at the end."""
        self._insert_ops(
            (self.keyf(r), self._next_seq(), r) for r in records
        )
        self._flush_staging(partial=True)
        self._settle_root()

    def _next_seq(self) -> int:
        s = self._seq
        self._seq += 1
        return s

    def _insert_ops(self, triples: Iterable[tuple[Any, int, Any]]) -> None:
        D, B = self.machine.D, self.machine.B
        for t in triples:
            self._staging.append(t)
            self._len += 1
            self.stats.inserts += 1
            if len(self._staging) >= D * B:
                self._flush_staging()
                self._settle_root()

    def _flush_staging(self, partial: bool = False) -> None:
        B, D = self.machine.B, self.machine.D
        while len(self._staging) >= D * B or (partial and self._staging):
            take = self._staging[: D * B]
            self._staging = self._staging[D * B :]
            chunks = [take[i : i + B] for i in range(0, len(take), B)]
            self.root.buf_addrs.extend(self._write_blocks(chunks))

    def _settle_root(self) -> None:
        while len(self.root.buf_addrs) >= self.buf_max:
            reps, seps = self._empty(self.root, force=False)
            self.root = self._make_root(reps, seps)

    # -- bulk emptying --------------------------------------------------------------

    def _take_ops(self, node: _Node) -> list[tuple[Any, int, Any]]:
        ops = self._read_blocks(node.buf_addrs)
        node.buf_addrs = []
        if node is self.root and self._staging:
            ops.extend(self._staging)
            self._staging = []
        ops.sort(key=lambda t: (t[0], t[1]))
        self.stats.comp_ops += len(ops) * max(1, len(ops).bit_length())
        return ops

    def _distribute(self, node: _Node, ops: list[tuple[Any, int, Any]]) -> None:
        """Route sorted ``ops`` into the children's disk buffers (one
        batched write; at most one partial block per child)."""
        B = self.machine.B
        per_child: list[list] = [[] for _ in node.children]
        for op in ops:
            ci = bisect.bisect_right(node.splitters, (op[0], op[1]))
            per_child[ci].append(op)
        writes = []
        for child, child_ops in zip(node.children, per_child):
            if not child_ops:
                continue
            chunks = [child_ops[i : i + B] for i in range(0, len(child_ops), B)]
            addrs = [self._alloc.get() for _ in chunks]
            child.buf_addrs.extend(addrs)
            writes.extend(
                (*a, Block(records=list(c))) for a, c in zip(addrs, chunks)
            )
        if writes:
            self.array.write_batched(writes)

    def _empty(
        self, node: _Node, force: bool
    ) -> tuple[list[_Node], list[tuple[Any, int]]]:
        """Empty ``node``'s buffer downward; return its replacement nodes
        and the splitters separating them (the node may split)."""
        if node.leaf:
            ops = self._take_ops(node)
            if not ops:
                return [node], []
            self.stats.empties += 1
            return self._apply_leaf(node, ops)

        ops = self._take_ops(node)
        if ops:
            self.stats.empties += 1
            self._distribute(node, ops)

        new_children: list[_Node] = []
        new_splitters: list[tuple[Any, int]] = []
        for i, child in enumerate(node.children):
            if i > 0:
                new_splitters.append(node.splitters[i - 1])
            if force or len(child.buf_addrs) >= self.buf_max:
                reps, seps = self._empty(child, force)
                new_children.extend(reps)
                new_splitters.extend(seps)
            else:
                new_children.append(child)
        node.children = new_children
        node.splitters = new_splitters
        return self._split_internal(node)

    def _apply_leaf(
        self, node: _Node, ops: list[tuple[Any, int, Any]]
    ) -> tuple[list[_Node], list[tuple[Any, int]]]:
        items = self._read_blocks(node.data_addrs)
        node.data_addrs = []
        merged: list[tuple[Any, int, Any]] = []
        i = j = 0
        while i < len(items) and j < len(ops):
            if (items[i][0], items[i][1]) <= (ops[j][0], ops[j][1]):
                merged.append(items[i])
                i += 1
            else:
                merged.append(ops[j])
                j += 1
        merged.extend(items[i:])
        merged.extend(ops[j:])
        self.stats.comp_ops += len(merged)

        if len(merged) <= self.leaf_max:
            pieces = [merged]
        else:
            npieces = -(-len(merged) // self.leaf_max)
            size = -(-len(merged) // npieces)
            pieces = [merged[k : k + size] for k in range(0, len(merged), size)]
            self.stats.leaf_splits += len(pieces) - 1

        B = self.machine.B
        nodes: list[_Node] = []
        seps: list[tuple[Any, int]] = []
        writes = []
        for pi, piece in enumerate(pieces):
            leaf = node if pi == 0 else _Node(leaf=True)
            leaf.count = len(piece)
            chunks = [piece[k : k + B] for k in range(0, len(piece), B)]
            leaf.data_addrs = [self._alloc.get() for _ in chunks]
            writes.extend(
                (*a, Block(records=list(c)))
                for a, c in zip(leaf.data_addrs, chunks)
            )
            nodes.append(leaf)
            if pi > 0:
                seps.append((piece[0][0], piece[0][1]))
        if writes:
            self.array.write_batched(writes)
        return nodes, seps

    def _split_internal(
        self, node: _Node
    ) -> tuple[list[_Node], list[tuple[Any, int]]]:
        if len(node.children) <= 2 * self.degree:
            return [node], []
        kids, splits = node.children, node.splitters
        npieces = -(-len(kids) // self.degree)
        size = -(-len(kids) // npieces)
        nodes: list[_Node] = []
        seps: list[tuple[Any, int]] = []
        for pi, lo in enumerate(range(0, len(kids), size)):
            hi = min(len(kids), lo + size)
            piece = node if pi == 0 else _Node(leaf=False)
            piece.children = kids[lo:hi]
            piece.splitters = splits[lo : hi - 1]
            nodes.append(piece)
            if pi > 0:
                seps.append(splits[lo - 1])
        self.stats.node_splits += len(nodes) - 1
        return nodes, seps

    def _make_root(
        self, reps: list[_Node], seps: list[tuple[Any, int]]
    ) -> _Node:
        if len(reps) == 1:
            return reps[0]
        root = _Node(leaf=False)
        root.children = reps
        root.splitters = seps
        return root

    # -- queries --------------------------------------------------------------------

    def flush(self) -> None:
        """Force-empty every buffer so all records sit in the leaves."""
        self._flush_staging(partial=True)
        reps, seps = self._empty(self.root, force=True)
        self.root = self._make_root(reps, seps)

    def _leaves(self, node: "_Node | None" = None) -> list[_Node]:
        node = node if node is not None else self.root
        if node.leaf:
            return [node]
        out: list[_Node] = []
        for c in node.children:
            out.extend(self._leaves(c))
        return out

    def items(self) -> list[Any]:
        """All payloads in key order (stable by insertion). Flushes first."""
        self.flush()
        addrs = [a for leaf in self._leaves() for a in leaf.data_addrs]
        out: list[Any] = []
        D = self.machine.D
        for k in range(0, len(addrs), 4 * D):
            for blk in self.array.read_batched(addrs[k : k + 4 * D]):
                if blk is not None:
                    out.extend(r[2] for r in blk.records)
        return out

    def check_invariants(self) -> None:
        """Structural invariants for the property tests: splitter ordering,
        splitter/child bounds, leaf block accounting, and record census."""

        def walk(node: _Node, lo, hi) -> int:
            if node.leaf:
                assert not node.children and not node.splitters
                assert len(node.data_addrs) == -(-node.count // self.machine.B)
                return node.count
            assert len(node.children) >= 1
            assert len(node.splitters) == len(node.children) - 1
            assert all(
                a < b for a, b in zip(node.splitters, node.splitters[1:])
            )
            if lo is not None:
                assert all(s > lo for s in node.splitters)
            if hi is not None:
                assert all(s < hi for s in node.splitters)
            bounds = [lo] + list(node.splitters) + [hi]
            return sum(
                walk(child, clo, chi)
                for child, clo, chi in zip(node.children, bounds, bounds[1:])
            )

        leafed = walk(self.root, None, None)
        buffered = 0

        def count_buf(node: _Node) -> None:
            nonlocal buffered
            buffered += len(node.buf_addrs)
            for c in node.children:
                count_buf(c)

        count_buf(self.root)
        # Every record is either staged, buffered (<= B per block) or in a leaf.
        assert leafed + len(self._staging) <= self._len
        assert self._len <= leafed + len(self._staging) + buffered * self.machine.B

    def pop_leftmost_leaf(self) -> list[tuple[Any, int, Any]]:
        """Remove and return the leftmost leaf's ``(key, seq, payload)``
        triples — the globally smallest records.

        Only the root-to-leftmost-leaf buffer path is flushed: ops routed
        right of the first splitter stay buffered, and all of them are
        ``>=`` every returned record.
        """
        self._flush_staging(partial=True)
        node = self.root
        parents: list[_Node] = []
        while not node.leaf:
            if node.buf_addrs:
                ops = self._take_ops(node)
                if ops:
                    self.stats.empties += 1
                    self._distribute(node, ops)
            parents.append(node)
            node = node.children[0]

        reps, seps = self._empty(node, force=True)  # applies buffered ops
        taken = self._read_blocks(reps[0].data_addrs)
        reps[0].data_addrs = []
        reps[0].count = 0
        survivors = reps[1:]
        self._len -= len(taken)

        if not parents:
            self.root = (
                self._make_root(survivors, seps[1:])
                if survivors
                else _Node(leaf=True)
            )
            return taken

        parent = parents[-1]
        rest = parent.children[1:]
        if survivors:
            # seps[0] separated the consumed piece from survivors[0]; the
            # old splitters still separate child 0's slot from the rest.
            parent.children = survivors + rest
            parent.splitters = list(seps[1:]) + parent.splitters
        else:
            parent.children = rest
            parent.splitters = parent.splitters[1:]
        self._collapse(parents)
        return taken

    def _collapse(self, parents: list[_Node]) -> None:
        for i in range(len(parents) - 1, -1, -1):
            node = parents[i]
            if not node.children:
                if i == 0:
                    self.root = _Node(leaf=True)
                else:
                    up = parents[i - 1]
                    j = up.children.index(node)
                    del up.children[j]
                    if up.splitters:
                        del up.splitters[max(0, j - 1)]
            elif len(node.children) == 1 and not node.buf_addrs:
                only = node.children[0]
                if i == 0:
                    self.root = only
                else:
                    up = parents[i - 1]
                    up.children[up.children.index(node)] = only


class BufferTreePQ:
    """Bulk external-memory priority queue on a buffer tree.

    An in-memory cache holds the globally smallest elements: pushes at or
    below the cache maximum enter the cache (evicting its maximum to the
    tree when full), larger pushes go straight to the tree, and refills
    consume whole leftmost leaves.  The cache-prefix invariant — every
    tree element is ``>=`` every cache element — makes ``pop_min`` exact.
    """

    def __init__(
        self,
        machine: MachineParams,
        key: Callable | None = None,
        *,
        array=None,
        storage: "str | StorageSpec | None" = None,
        fast_io: bool | None = None,
    ):
        self.tree = BufferTree(
            machine, key=key, array=array, storage=storage, fast_io=fast_io
        )
        self.keyf = self.tree.keyf
        self.cache_max = max(4 * machine.B, machine.M // 4)
        self._cache: list[tuple[Any, int, Any]] = []  # sorted ascending

    def close(self) -> None:
        self.tree.close()

    def __enter__(self) -> "BufferTreePQ":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._cache) + len(self.tree)

    @property
    def io_ops(self) -> int:
        return self.tree.io_ops

    def push(self, record: Any) -> None:
        t = self.tree
        entry = (self.keyf(record), t._next_seq(), record)
        if self._cache and entry[:2] <= self._cache[-1][:2]:
            bisect.insort(self._cache, entry)
            if len(self._cache) > self.cache_max:
                t._insert_ops([self._cache.pop()])
        else:
            t._insert_ops([entry])

    def bulk_push(self, records: Iterable[Any]) -> None:
        for r in records:
            self.push(r)

    def peek_min(self) -> Any:
        if not self._cache:
            self._refill()
        if not self._cache:
            raise IndexError("peek into empty priority queue")
        return self._cache[0][2]

    def pop_min(self) -> Any:
        if not self._cache:
            self._refill()
        if not self._cache:
            raise IndexError("pop from empty priority queue")
        return self._cache.pop(0)[2]

    def bulk_pop(self, count: int) -> list[Any]:
        out: list[Any] = []
        while count > 0 and len(self):
            out.append(self.pop_min())
            count -= 1
        return out

    def _refill(self) -> None:
        collected: list[tuple[Any, int, Any]] = []
        while len(self.tree) and len(collected) < max(1, self.cache_max // 2):
            collected.extend(self.tree.pop_leftmost_leaf())
        collected.sort(key=lambda e: (e[0], e[1]))
        self._cache = collected


class BufferTreeSort(CountedSorter):
    """Sorting through a buffer tree: bulk-insert everything, then one
    full flush and an in-order leaf traversal.  The counted cost is the
    amortized ``O((n/B) log_{M/B}(n/B))`` buffer-tree bound (divided by
    ``D`` for the batched stripes)."""

    def _sort(self, array, data: Sequence[Any]) -> tuple[list[Any], SortStats]:
        tree = BufferTree(self.machine, key=self.key, array=array)
        tree.bulk_insert(data)
        result = tree.items()
        # The tree's own session counters (empties, splits) stay on
        # ``tree.stats``; the contract's record carries the counted costs.
        return result, SortStats(
            n=len(data),
            fan_in=tree.degree,
            io_ops=array.parallel_ops,
            comp_ops=tree.stats.comp_ops,
        )

    # -- analytic bound -------------------------------------------------------------

    def predicted_io_ops(self, n: int) -> float:
        """Amortized buffer-tree sort bound on parallel I/O operations.

        Every record is written and read once per tree level as buffered
        ops descend (``D``-batched stripes), leaves are rewritten on
        emptying, and each emptying event pays up to ``degree`` partial
        blocks plus per-call rounding slack.
        """
        m = self.machine
        if n == 0:
            return 4.0
        degree = max(2, m.M // (4 * m.B))
        leaf_max = max(m.B, m.M // 4)
        nblk = math.ceil(n / m.B)
        stripes = math.ceil(nblk / m.D)
        nleaves = max(1, math.ceil(n / leaf_max))
        height = 1 + (
            math.ceil(math.log(nleaves, degree)) if nleaves > 1 else 0
        )
        empties = math.ceil(n / max(m.B, m.M // 2)) + 1
        per_level = 4 * (stripes + 1) + empties * (degree + 4)
        return 4 * (stripes + 1) + (height + 1) * per_level
