"""Harness-side spans: one record per call the benchmark makes into a layer.

Spans are recorded from the benchmark's own files, around the calls into
the program (engine run, verification, each drill call); nothing under
``src/`` is touched.  They stay in memory and are written out once, when
the workload ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator


class Tracer:
    """In-memory span log for one workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict[str, Any]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        """Time the body; the yielded record's ``end - start`` is its duration."""
        rec = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None and rec["end"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, float] = {}
        for i, rec in enumerate(self.spans):
            if rec["end"] is None:
                continue
            own = rec["end"] - rec["start"] - child_time[i]
            out[rec["name"]] = out.get(rec["name"], 0.0) + own
        return out


def duration(rec: dict[str, Any]) -> float:
    return rec["end"] - rec["start"]
