"""Execution backends for the parallel engine's real processors.

Algorithm 3 prescribes *what* each of the ``p`` real processors does per
phase; a backend decides *where* that work physically runs:

* :class:`InlineBackend` — the default and the reference: processors are
  plain objects called in index order inside the engine's own process.
  Fully deterministic and trivially debuggable.
* :class:`ProcessBackend` — each real processor lives in its own worker
  process (``multiprocessing``, fork-preferred) and owns its disk array,
  context store, RNG stream, and fault stream there.  The engine drives the
  same phase protocol over pipes; the superstep barriers of the model map
  onto the send-all/receive-all message rounds, which exchange packed
  message payloads and per-worker ledger deltas.

Both backends execute the identical per-processor code
(:class:`~repro.core.processor.RealProcessor`, or the subclass the engine
names — Algorithm 3 adds its round phases) with identical per-processor
RNG streams, so counted model costs, outputs, and reports are equal between
them — the golden equivalence suite asserts this.  On a multi-core host the
process backend overlaps the processors' computation and (host-side)
I/O work, which is exactly the parallelism the EM-BSP machine model assumes.

The protocol is a command loop: the engine calls ``call_all(method, args)``;
workers answer ``("ok", result)`` or ``("err", exception)``.  Errors are
collected only after *every* worker has answered the round — the workers
stay alive and consistent, so a fatal injected I/O fault on one processor
can roll all of them back to the last superstep barrier, mirroring the
inline engine's recovery semantics.
"""

from __future__ import annotations

import io
import multiprocessing as mp
import pickle
import struct
from multiprocessing.reduction import ForkingPickler
from typing import Any, Sequence

from ..obs.profile import NULL_PROFILER
from .processor import RealProcessor

__all__ = ["InlineBackend", "ProcessBackend", "make_backend", "BACKENDS"]

#: The backends :func:`make_backend` builds, by name.
BACKENDS = ("inline", "process")

# -- pipe wire format ---------------------------------------------------------
#
# Every command/reply is pickled with an out-of-band ``buffer_callback``
# (protocol 5).  Objects that expose the buffer protocol through pickle 5 —
# ndarray payloads of the vectorized record plane — are collected as raw
# buffers instead of being serialized into the object graph, and travel as
# separate ``send_bytes`` parts: a memcpy through the pipe, no boxing, no
# bytes-object splice into the pickle stream.  A message with no such
# buffers is a single part, exactly like the historical
# ``ForkingPickler.dumps`` stream (same reducer table, protocol pinned to 5
# since ``buffer_callback`` requires it).  Multipart messages are introduced
# by a MAGIC header part — pickle streams of protocol >= 2 start with 0x80,
# so the two forms cannot collide.
_MAGIC = b"EMB5"
_NBUFS = struct.Struct("<I")


class _OOBPickler(pickle.Pickler):
    """``ForkingPickler``'s reducer table + an out-of-band buffer callback.

    ``ForkingPickler.__init__`` accepts no ``buffer_callback``, so this
    subclasses :class:`pickle.Pickler` directly and copies the mp-specific
    dispatch table (DupFd and friends) that makes fork-safe reduction work.
    """

    def __init__(self, file, buffer_callback):
        super().__init__(file, 5, buffer_callback=buffer_callback)
        self.dispatch_table = ForkingPickler(io.BytesIO()).dispatch_table


def _send_msg(conn, obj) -> int:
    """Send one message (with zero-copy buffer parts); returns bytes sent."""
    bufs: list[pickle.PickleBuffer] = []
    fh = io.BytesIO()
    _OOBPickler(fh, bufs.append).dump(obj)
    payload = fh.getbuffer()
    sent = len(payload)
    if not bufs:
        conn.send_bytes(payload)
        return sent
    header = _MAGIC + _NBUFS.pack(len(bufs))
    conn.send_bytes(header)
    conn.send_bytes(payload)
    sent += len(header)
    for buf in bufs:
        raw = buf.raw()
        conn.send_bytes(raw)
        sent += len(raw)
        buf.release()
    return sent


def _recv_msg(conn) -> tuple[Any, int]:
    """Receive one message; returns ``(object, bytes received)``."""
    buf = conn.recv_bytes()
    received = len(buf)
    if buf[: len(_MAGIC)] != _MAGIC:
        return pickle.loads(buf), received
    (nbufs,) = _NBUFS.unpack_from(buf, len(_MAGIC))
    payload = conn.recv_bytes()
    received += len(payload)
    parts = []
    for _ in range(nbufs):
        part = conn.recv_bytes()
        received += len(part)
        parts.append(part)
    return pickle.loads(payload, buffers=parts), received


class InlineBackend:
    """Run the real processors in-process, in index order (the reference)."""

    name = "inline"
    #: Pipe traffic counters (always zero inline; see ProcessBackend).
    tx_bytes = 0
    rx_bytes = 0
    #: Wall-clock attribution sink (inline calls run inside the engine's own
    #: categorized spans, so the backend itself never bills anything).
    profiler = NULL_PROFILER

    def __init__(self, procs: Sequence[Any]):
        self.procs = list(procs)

    def call_all(self, method: str, args_list: Sequence[tuple] | None = None) -> list:
        if args_list is None:
            args_list = [()] * len(self.procs)
        return [getattr(pr, method)(*args) for pr, args in zip(self.procs, args_list)]

    def close(self) -> None:
        pass


def _worker_main(conn, proc_cls: type, init_args: tuple) -> None:
    """Command loop of one worker process: owns one ``proc_cls`` processor."""
    try:
        proc = proc_cls(*init_args)
        _send_msg(conn, ("ok", None))
    except BaseException as exc:  # noqa: BLE001 - must reach the parent
        _send_msg(conn, ("err", exc))
        conn.close()
        return
    while True:
        try:
            msg, _ = _recv_msg(conn)
        except (EOFError, OSError):
            break
        if msg is None:
            break
        method, args = msg
        try:
            _send_msg(conn, ("ok", getattr(proc, method)(*args)))
        except BaseException as exc:  # noqa: BLE001 - must reach the parent
            try:
                _send_msg(conn, ("err", exc))
            except Exception:
                _send_msg(
                    conn, ("err", RuntimeError(f"unpicklable worker error: {exc!r}"))
                )
    conn.close()


class ProcessBackend:
    """One worker process per real processor, driven over duplex pipes."""

    name = "process"
    #: Engine-side wall-clock attribution: command tx framing bills ``ipc``,
    #: the receive-all round bills ``barrier_wait`` (the engine is idle until
    #: the slowest worker answers — that wait IS the superstep barrier).
    profiler = NULL_PROFILER

    def __init__(
        self, init_args_list: Sequence[tuple], proc_cls: type = RealProcessor
    ):
        methods = mp.get_all_start_methods()
        ctx = mp.get_context("fork" if "fork" in methods else "spawn")
        # Exact pipe traffic: both sides speak the _send_msg/_recv_msg wire
        # format (single-part pickle, or MAGIC-multipart with raw ndarray
        # buffers), so every command and reply is counted once — including
        # the zero-copy buffer parts — with no double pickling.
        self.tx_bytes = 0
        self.rx_bytes = 0
        self._conns = []
        self._workers = []
        for init_args in init_args_list:
            parent, child = ctx.Pipe()
            worker = ctx.Process(
                target=_worker_main, args=(child, proc_cls, init_args), daemon=True
            )
            worker.start()
            child.close()
            self._conns.append(parent)
            self._workers.append(worker)
        # Startup barrier: every worker reports its processor constructed.
        # If one could not be, reap them all — nobody will call close().
        try:
            self._recv_all()
        except BaseException:
            self.close()
            raise

    def _recv_all(self) -> list:
        results: list = []
        first_err: BaseException | None = None
        prof = self.profiler
        prof.push("barrier_wait")
        try:
            for conn in self._conns:
                (status, payload), nbytes = _recv_msg(conn)
                self.rx_bytes += nbytes
                if status == "err":
                    results.append(None)
                    if first_err is None:
                        first_err = payload
                else:
                    results.append(payload)
        finally:
            prof.pop()
        if first_err is not None:
            # All workers have answered the round (they are idle and
            # consistent at the barrier), so recovery can roll them back.
            try:
                raise first_err
            finally:
                # No cycle through this frame: what the traceback holds (a
                # failed startup's last worker and its sentinel pipes) goes
                # when the caller drops the exception, not at the next GC.
                del first_err, payload
        return results

    def call_all(self, method: str, args_list: Sequence[tuple] | None = None) -> list:
        if args_list is None:
            args_list = [()] * len(self._conns)
        prof = self.profiler
        prof.push("ipc")
        try:
            for conn, args in zip(self._conns, args_list):
                self.tx_bytes += _send_msg(conn, (method, args))
        finally:
            prof.pop()
        return self._recv_all()

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(None)
            except (OSError, BrokenPipeError):
                pass
            conn.close()
        for worker in self._workers:
            worker.join(timeout=5)
            if worker.is_alive():  # pragma: no cover - defensive
                worker.terminate()
        self._conns = []
        self._workers = []


def make_backend(
    kind: str, init_args_list: Sequence[tuple], proc_cls: type = RealProcessor
):
    """Build the backend named ``kind``: one ``proc_cls`` per init tuple."""
    if kind == "inline":
        return InlineBackend([proc_cls(*args) for args in init_args_list])
    if kind == "process":
        return ProcessBackend(init_args_list, proc_cls)
    raise ValueError(f"unknown backend {kind!r} (expected one of {BACKENDS})")
