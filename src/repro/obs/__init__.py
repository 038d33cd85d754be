"""Observability: structured run telemetry for the simulation engines.

The paper's argument is an accounting argument — Theorem 1 bounds I/O time
phase-by-phase through Algorithm 1's fetch/compute/route cycle.  This package
makes that accounting *visible inside a run*:

* :mod:`repro.obs.spans` — a span API (``collector.span("superstep", index=i)``)
  that the engines, routing, context store, checkpoint/recovery, and disk
  arrays emit into, with parent/child nesting, wall-clock timing, and counted
  cost attributes per span.
* :mod:`repro.obs.metrics` — a lightweight metrics registry (counters, gauges,
  log2 histograms) with near-zero overhead when no collector is attached
  (the :data:`NULL_OBSERVER` fast path).
* :mod:`repro.obs.export` — exporters: a JSONL event log and the Chrome
  trace-event format (loadable in Perfetto / ``chrome://tracing``), one track
  per real processor plus per-disk counter tracks.
* :mod:`repro.obs.profile` — the wall-clock attribution profiler: exclusive
  time per category (``kernel``, ``syscall_io``, ``serialize``, ``layout``,
  ``routing``, ``ipc``, ``barrier_wait``, ``checkpoint``) aggregated
  per-superstep into a :class:`~repro.obs.profile.ProfileReport`
  (``repro perf report``, DESIGN §11).
* :mod:`repro.obs.live` — :class:`~repro.obs.live.RunEventLog`, an
  append-only line-flushed JSONL heartbeat/event bus written *during* the
  run (``repro watch <file>`` tails it).

Wall-clock numbers are compared across runs in one place, outside this
package: ``benchmarks/suite`` and its ``compare.py``.

Attach via ``simulate(..., observer=Collector())`` or the CLI flags
``--trace-out FILE`` / ``--jsonl-out FILE`` / ``--metrics`` / ``--profile``
/ ``--events FILE``.

The layer honors the dual-accounting invariant: attaching an observer never
changes any counted cost — spans only *read* the arrays' counters at phase
boundaries, so ledgers, routing stats, and outputs stay byte-identical, and
(unlike :meth:`~repro.emio.trace.IOTrace.attach`) the disk arrays' fast data
plane stays enabled.
"""

from .export import (
    chrome_trace,
    read_jsonl,
    validate_chrome_trace,
    validate_trace_file,
    write_chrome_trace,
    write_jsonl,
)
from .live import RunEventLog, read_events, tail_events
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import (
    CATEGORIES,
    NULL_PROFILER,
    CategoryProfiler,
    NullProfiler,
    ProfileReport,
    build_report,
)
from .spans import NULL_OBSERVER, Collector, NullObserver, SpanRecord

__all__ = [
    "Collector",
    "NullObserver",
    "NULL_OBSERVER",
    "SpanRecord",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "CATEGORIES",
    "CategoryProfiler",
    "NullProfiler",
    "NULL_PROFILER",
    "ProfileReport",
    "build_report",
    "RunEventLog",
    "read_events",
    "tail_events",
    "chrome_trace",
    "write_chrome_trace",
    "write_jsonl",
    "read_jsonl",
    "validate_chrome_trace",
    "validate_trace_file",
]
