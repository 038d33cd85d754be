"""Span API: nested, timed, attributed records of where a run spends itself.

A :class:`Collector` hands out context-manager spans::

    with collector.span("superstep", index=3) as sp:
        with collector.span("fetch_context", group=0) as inner:
            ...
            inner.add(io_ops=delta)

Each span records wall-clock enter/exit times, its parent (the innermost
open span of the same collector), the emitting real processor, and arbitrary
counted-cost attributes added at exit (parallel I/O operations, packets,
retry events, ...).  Spans never *write* to the objects they observe — they
sample counters at phase boundaries — so attaching a collector cannot change
ledgers, routing stats, or outputs (the equivalence harness asserts it).

:data:`NULL_OBSERVER` is the detached fast path: its ``span()`` returns one
shared no-op context manager and its metrics registry hands out shared no-op
instruments, so un-instrumented runs pay a dict-build and an attribute call
per phase and nothing else.

Per-worker collection: under the process backend every real processor owns a
worker-side :class:`Collector`; :meth:`Collector.drain` turns its spans,
counter samples, and metrics into one picklable payload and
:meth:`Collector.ingest` folds such payloads into the engine's collector,
remapping span parent links and prefixing metric names with ``p{proc}/``.
Timestamps are ``time.perf_counter`` values — ``CLOCK_MONOTONIC`` on Linux,
shared by all processes of a host — so the merged spans form one coherent
timeline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

from .metrics import MetricsRegistry, NullMetricsRegistry
from .profile import NULL_PROFILER, CategoryProfiler

__all__ = ["SpanRecord", "Collector", "NullObserver", "NULL_OBSERVER"]

_now = time.perf_counter


@dataclass
class SpanRecord:
    """One completed (or still-open) span."""

    name: str
    t0: float
    t1: float | None = None
    parent: int | None = None  # index into the owning collector's span list
    proc: int | None = None  # real-processor index; None = engine/host
    attrs: dict[str, Any] = field(default_factory=dict)
    cat: str | None = None  # attribution category (repro.obs.profile)

    @property
    def duration(self) -> float:
        return (self.t1 if self.t1 is not None else _now()) - self.t0


class _Span:
    """Live handle for one open span (the context manager)."""

    __slots__ = ("_collector", "_id")

    def __init__(self, collector: "Collector", span_id: int):
        self._collector = collector
        self._id = span_id

    @property
    def record(self) -> SpanRecord:
        return self._collector.spans[self._id]

    def add(self, **attrs: Any) -> None:
        """Attach counted-cost attributes (merged into the span's attrs)."""
        self._collector.spans[self._id].attrs.update(attrs)

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._collector._close(self._id)


class _NullSpan:
    """Shared no-op span of the null observer."""

    __slots__ = ()

    def add(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullObserver:
    """The detached observer: every operation is a no-op.

    Engines hold this when ``simulate(..., observer=None)`` so the
    instrumentation points cost (nearly) nothing; hot loops additionally
    guard metric sampling with ``observer.enabled``.
    """

    enabled = False

    profile = NULL_PROFILER

    def __init__(self) -> None:
        self.metrics = NullMetricsRegistry()

    def span(self, name: str, cat: str | None = None, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    def sample(self, name: str, value: float) -> None:
        pass


NULL_OBSERVER = NullObserver()


class Collector:
    """Collects spans, timestamped counter samples, and metrics for one run.

    Parameters
    ----------
    proc:
        Real-processor index when this collector lives inside a worker
        (stamped on every span it records); ``None`` for the engine-side
        collector, whose spans form the engine track.
    profile:
        Attach a :class:`~repro.obs.profile.CategoryProfiler`: spans opened
        with a ``cat=`` push that category onto the profiler's scope stack
        for the span's duration, and the storage/backend layers bill their
        fine-grained scopes to the same stack.  Off by default —
        :data:`~repro.obs.profile.NULL_PROFILER` keeps every hook a no-op.
    """

    enabled = True

    def __init__(self, proc: int | None = None, profile: bool = False):
        self.proc = proc
        self.spans: list[SpanRecord] = []
        #: timestamped counter samples ``(t, name, value)`` — the time series
        #: behind the Chrome trace's per-disk counter tracks.
        self.samples: list[tuple[float, str, float]] = []
        self.metrics = MetricsRegistry()
        self._stack: list[int] = []
        self.profile = CategoryProfiler() if profile else NULL_PROFILER
        self._profile_shared = False
        #: per-processor profiler snapshots drained from process-backend
        #: workers (proc -> {"totals", "counts", "wall"}).
        self.proc_profiles: dict[int, dict] = {}

    def share_profile(self, profile) -> None:
        """Bill this collector's categorized spans to ``profile``.

        Used for inline-backend workers: they run on the engine's thread,
        so their scopes nest inside the engine's scope stack and carve
        exclusive time out of the same timeline (one coherent track
        instead of overlapping ones).  A shared profiler is never drained
        by this collector — the owner snapshots it.
        """
        self.profile = profile
        self._profile_shared = True

    # -- recording ------------------------------------------------------------

    def span(self, name: str, cat: str | None = None, **attrs: Any) -> _Span:
        span_id = len(self.spans)
        self.spans.append(
            SpanRecord(
                name=name,
                t0=_now(),
                parent=self._stack[-1] if self._stack else None,
                proc=self.proc,
                attrs=attrs,
                cat=cat,
            )
        )
        self._stack.append(span_id)
        if cat is not None:
            self.profile.push(cat)
        return _Span(self, span_id)

    def _close(self, span_id: int) -> None:
        self.spans[span_id].t1 = _now()
        # Exception-safe: unwind past spans abandoned by a raise.
        while self._stack:
            top = self._stack.pop()
            if self.spans[top].cat is not None:
                self.profile.pop()
            if top == span_id:
                break

    def sample(self, name: str, value: float) -> None:
        """Record one timestamped counter sample (a point on a track)."""
        self.samples.append((_now(), name, value))

    # -- worker merge ----------------------------------------------------------

    def drain(self) -> dict:
        """Return this collector's contents as one picklable payload and reset.

        Called inside workers at the end of a run (or whenever the engine
        asks); repeated drains yield disjoint payloads, so ingest-side
        accumulation is exact.
        """
        if self.profile.enabled and not self._profile_shared:
            # A worker's private profiler ships as a per-processor snapshot;
            # a shared (inline) profiler already billed the engine's track.
            self.profile.stop()
            profile = self.profile.snapshot()
            self.profile.reset()
            self.profile.start()
        else:
            profile = None
        payload = {
            "proc": self.proc,
            "spans": self.spans,
            "samples": self.samples,
            "metrics": self.metrics.snapshot(),
            "profile": profile,
        }
        self.spans = []
        self.samples = []
        self.metrics = MetricsRegistry()
        self._stack = []
        return payload

    def ingest(self, payload: dict) -> None:
        """Fold a worker's :meth:`drain` payload into this collector.

        Span parent links are remapped to this collector's id space; metric
        and sample names get a ``p{proc}/`` prefix so per-worker series stay
        distinguishable in one merged registry.
        """
        proc = payload["proc"]
        prefix = f"p{proc}/" if proc is not None else ""
        offset = len(self.spans)
        for rec in payload["spans"]:
            self.spans.append(
                SpanRecord(
                    name=rec.name,
                    t0=rec.t0,
                    t1=rec.t1,
                    parent=None if rec.parent is None else rec.parent + offset,
                    proc=rec.proc if rec.proc is not None else proc,
                    attrs=rec.attrs,
                    cat=getattr(rec, "cat", None),
                )
            )
        for t, name, value in payload["samples"]:
            self.samples.append((t, prefix + name, value))
        self.metrics.merge_snapshot(payload["metrics"], prefix=prefix)
        snap = payload.get("profile")
        if snap and proc is not None:
            # Accumulate: repeated drains are disjoint, so totals add.
            acc = self.proc_profiles.setdefault(
                proc, {"totals": {}, "counts": {}, "wall": 0.0}
            )
            for cat, sec in snap["totals"].items():
                acc["totals"][cat] = acc["totals"].get(cat, 0.0) + sec
            for cat, n in snap["counts"].items():
                acc["counts"][cat] = acc["counts"].get(cat, 0) + n
            acc["wall"] += snap.get("wall", 0.0)

    # -- views -----------------------------------------------------------------

    def children_of(self, span_id: int | None) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s.parent == span_id]

    def by_name(self, name: str) -> list[SpanRecord]:
        return [s for s in self.spans if s.name == name]

    def total_time(self, name: str) -> float:
        """Summed wall-clock duration of every completed span named ``name``."""
        return sum(s.duration for s in self.spans if s.name == name)
