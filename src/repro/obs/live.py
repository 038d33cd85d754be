"""Live run streaming: an append-only JSONL heartbeat/event bus.

A :class:`RunEventLog` is handed to an engine (``simulate(...,
events=RunEventLog(path))`` or ``repro <workload> --events FILE``) and
receives one event per lifecycle boundary — run started, superstep
started/finished, run finished — written as **line-flushed JSON** so a
concurrent reader (``repro watch <file>``, a job server's SSE endpoint, a
plain ``tail -f``) sees each event the moment the engine emits it.

Events are append-only and schema-versioned.  Every line is an object with
at least::

    {"schema": 1, "kind": "...", "t": <unix seconds>, "elapsed": <seconds>}

``superstep_finished`` events additionally carry the counted parallel I/O
operations of the superstep, the host bytes moved through the storage plane
(or the process backend's pipes), and a trend-based ETA: the mean duration
of completed supersteps times the steps remaining when the caller declared
an ``expected_steps`` hint (``eta_s`` is ``null`` without one — compound
superstep counts are algorithm-dependent and the log does not guess).

``run_finished`` carries ``io_ops``, defined once by the engine
(:meth:`repro.core.engine.ParallelEMSimulation._counted_io_ops`) as every counted
parallel I/O operation the run's report accounts for::

    init_io_ops + sum(superstep phases.total) + output_io_ops
        + checkpoint_io_ops + recovery_io_ops

I/O spent on a superstep attempt that a fatal fault rolled back is in none
of these terms and is not counted.  ``bytes_moved`` is host traffic, not a
model cost: storage-plane bytes for in-process processors, pipe bytes under
the process backend.

Like every ``repro.obs`` surface, the event log is read-only with respect
to the simulation: emitting events never changes counted costs, ledgers,
or outputs (the equivalence harness proves it with the bus on or off).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Iterator

__all__ = [
    "EVENT_SCHEMA",
    "RunEventLog",
    "read_events",
    "tail_events",
    "format_event",
]

#: Version stamped on every event line.
EVENT_SCHEMA = 1


class RunEventLog:
    """Append-only line-flushed JSONL event bus for one run.

    Parameters
    ----------
    path:
        File to append to.  Created (with parents) on first emit; an
        existing file is appended, so sequential runs into one log file
        form one stream (each run re-emits ``run_started``).
    expected_steps:
        Optional hint for ETA computation: the number of compound
        supersteps the caller expects.  Without it ``eta_s`` stays null.
    meta:
        Run description merged into the ``run_started`` event
        (workload, machine shape, backend, ...).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        expected_steps: int | None = None,
        meta: dict[str, Any] | None = None,
    ):
        self.path = os.fspath(path)
        self.expected_steps = expected_steps
        self.meta = dict(meta or {})
        self._fh = None
        self._t0 = time.perf_counter()
        self._step_t0: dict[int, float] = {}
        self._durations: list[float] = []

    # -- raw emission ---------------------------------------------------------

    def emit(self, kind: str, **fields: Any) -> dict:
        """Append one event line and flush it to the OS immediately."""
        if self._fh is None:
            parent = os.path.dirname(self.path)
            if parent:
                os.makedirs(parent, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        event = {
            "schema": EVENT_SCHEMA,
            "kind": kind,
            "t": time.time(),
            "elapsed": round(time.perf_counter() - self._t0, 6),
        }
        event.update(fields)
        self._fh.write(json.dumps(event, separators=(",", ":")) + "\n")
        self._fh.flush()
        return event

    # -- lifecycle events (called by the engines) ------------------------------

    def run_started(self, **meta: Any) -> None:
        merged = dict(self.meta)
        merged.update(meta)
        self._t0 = time.perf_counter()
        self._durations = []
        self._step_t0 = {}
        self.emit("run_started", meta=merged,
                  expected_steps=self.expected_steps)

    def superstep_started(self, step: int) -> None:
        self._step_t0[step] = time.perf_counter()
        self.emit("superstep_started", step=step)

    def superstep_finished(
        self,
        step: int,
        *,
        io_ops: int | None = None,
        bytes_moved: int | None = None,
        **fields: Any,
    ) -> None:
        now = time.perf_counter()
        dur = now - self._step_t0.pop(step, now)
        self._durations.append(dur)
        avg = sum(self._durations) / len(self._durations)
        eta = None
        if self.expected_steps is not None:
            remaining = max(0, self.expected_steps - len(self._durations))
            eta = round(avg * remaining, 6)
        self.emit(
            "superstep_finished",
            step=step,
            io_ops=io_ops,
            bytes_moved=bytes_moved,
            step_s=round(dur, 6),
            avg_step_s=round(avg, 6),
            steps_done=len(self._durations),
            eta_s=eta,
            **fields,
        )

    def run_finished(self, status: str = "ok", **fields: Any) -> None:
        self.emit("run_finished", status=status, **fields)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunEventLog":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self._fh is not None:
            self.emit("run_finished", status="error", error=repr(exc))
        self.close()


# -- reading ------------------------------------------------------------------


def read_events(path: str | os.PathLike, strict: bool = False) -> list[dict]:
    """Parse every complete event line of ``path``.

    A trailing partial line (the writer is mid-append) is skipped; a
    malformed *complete* line raises ``ValueError`` when ``strict`` and is
    skipped otherwise.  Events of an unknown schema version are always
    rejected under ``strict``.
    """
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as fh:
        data = fh.read()
    lines = data.split("\n")
    if lines and lines[-1] != "":
        lines = lines[:-1]  # incomplete trailing line: writer mid-append
    else:
        lines = lines[:-1] if lines else lines
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            ev = json.loads(line)
        except json.JSONDecodeError:
            if strict:
                raise ValueError(f"{path}: line {i + 1} is not valid JSON")
            continue
        if not isinstance(ev, dict) or "kind" not in ev:
            if strict:
                raise ValueError(f"{path}: line {i + 1} is not an event object")
            continue
        if strict and ev.get("schema") != EVENT_SCHEMA:
            raise ValueError(
                f"{path}: line {i + 1} has schema {ev.get('schema')!r}, "
                f"expected {EVENT_SCHEMA}"
            )
        events.append(ev)
    return events


def tail_events(
    path: str | os.PathLike,
    *,
    follow: bool = False,
    poll: float = 0.2,
    timeout: float | None = None,
) -> Iterator[dict]:
    """Yield events from ``path``; with ``follow``, keep polling for more.

    Following stops at a ``run_finished`` event, after ``timeout`` seconds
    without the file appearing/growing, or when the caller stops iterating.
    """
    deadline = None if timeout is None else time.monotonic() + timeout
    pos = 0
    buffer = ""
    while True:
        grew = False
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                fh.seek(pos)
                chunk = fh.read()
                pos = fh.tell()
            if chunk:
                grew = True
                buffer += chunk
                while "\n" in buffer:
                    line, buffer = buffer.split("\n", 1)
                    if not line.strip():
                        continue
                    try:
                        ev = json.loads(line)
                    except json.JSONDecodeError:
                        continue
                    if isinstance(ev, dict) and "kind" in ev:
                        yield ev
                        if ev["kind"] == "run_finished" and follow:
                            return
        if not follow:
            return
        if grew:
            deadline = None if timeout is None else time.monotonic() + timeout
        elif deadline is not None and time.monotonic() > deadline:
            return
        time.sleep(poll)


def format_event(ev: dict) -> str:
    """One human line per event (the ``repro watch`` renderer)."""
    kind = ev.get("kind", "?")
    elapsed = ev.get("elapsed", 0.0)
    prefix = f"[{elapsed:8.2f}s]"
    if kind == "run_started":
        meta = ev.get("meta") or {}
        desc = " ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        return f"{prefix} run started {desc}"
    if kind == "superstep_started":
        return f"{prefix} superstep {ev.get('step')} ..."
    if kind == "superstep_finished":
        parts = [f"superstep {ev.get('step')} done in {ev.get('step_s', 0):.3f}s"]
        if ev.get("io_ops") is not None:
            parts.append(f"io_ops={ev['io_ops']}")
        if ev.get("bytes_moved") is not None:
            parts.append(f"bytes={ev['bytes_moved']}")
        if ev.get("eta_s") is not None:
            parts.append(f"eta={ev['eta_s']:.1f}s")
        return f"{prefix} " + " ".join(parts)
    if kind == "run_finished":
        extra = "" if ev.get("status") == "ok" else f" ({ev.get('status')})"
        fields = {k: v for k, v in ev.items()
                  if k not in ("schema", "kind", "t", "elapsed", "status")}
        desc = " ".join(f"{k}={v}" for k, v in sorted(fields.items()))
        return f"{prefix} run finished{extra} {desc}".rstrip()
    return f"{prefix} {kind} " + json.dumps(
        {k: v for k, v in ev.items()
         if k not in ("schema", "kind", "t", "elapsed")},
        separators=(",", ":"),
    )
