"""Wall-clock attribution profiler: where does host time actually go?

The counted-cost model says how many parallel I/O operations a run charges;
this module says which *host-side activity* the wall-clock between those
charges was spent on.  A :class:`CategoryProfiler` keeps an explicit scope
stack and accrues **exclusive (self) time** to the innermost open category,
so categories never overlap and their totals sum to at most the profiled
wall-clock — an attribution table whose shares are honest fractions.

Category taxonomy (see DESIGN.md §11):

``kernel``
    Algorithm supersteps — the simulated computation itself.
``syscall_io``
    Raw storage-plane data movement: ``pread``/``pwrite``/``fsync`` on the
    file plane, page-cache copies on the mmap plane.  Host I/O is
    synchronous: the engine thread is blocked for its duration.
``serialize``
    Encoding/decoding between objects and bytes: block image
    encode/decode, context pickling, record codec conversions.
``layout``
    Block/track bookkeeping around the data: region addressing, greedy
    round packing, bucket appends, message chopping — the EM simulation's
    own glue.
``routing``
    Algorithm 2 reorganization (bucket scans, destination grouping).
``ipc``
    Process-backend pipe framing and sends.
``barrier_wait``
    Engine-side blocking on worker replies (includes result unframing —
    the engine cannot observe the boundary between waiting and reading).
``checkpoint``
    Superstep-barrier checkpoint capture, journal commits, and recovery.

The profiler is threaded through the stack as plain object references —
``Collector(profile=True)`` owns one, engines install it into their disk
arrays (and therefore storages) and backends — never as module-global
state.  Like the span layer, profiling is strictly read-only: the golden
suite proves counted costs, ledgers, and outputs are byte-identical with
profiling enabled or disabled, and :data:`NULL_PROFILER` keeps the
disabled path at a few no-op attribute calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "CATEGORIES",
    "CATEGORY_COLORS",
    "PROFILE_SCHEMA",
    "CategoryProfiler",
    "NullProfiler",
    "NULL_PROFILER",
    "ProfileReport",
    "build_report",
    "validate_report_dict",
]

#: Every named category, in report display order.
CATEGORIES = (
    "kernel",
    "syscall_io",
    "serialize",
    "layout",
    "routing",
    "ipc",
    "barrier_wait",
    "checkpoint",
)

#: Perfetto ``cname`` per category (stable palette from the trace-viewer
#: color map, chosen for contrast between neighbouring categories).
CATEGORY_COLORS = {
    "kernel": "thread_state_running",
    "syscall_io": "rail_load",
    "serialize": "thread_state_iowait",
    "layout": "rail_idle",
    "routing": "rail_animation",
    "ipc": "thread_state_runnable",
    "barrier_wait": "grey",
    "checkpoint": "rail_response",
}

#: Version of :meth:`ProfileReport.to_dict` payloads.
PROFILE_SCHEMA = 1

_now = time.perf_counter


class _Scope:
    """Context manager pushing one category for its body."""

    __slots__ = ("_prof", "_cat")

    def __init__(self, prof: "CategoryProfiler", cat: str):
        self._prof = prof
        self._cat = cat

    def __enter__(self) -> "_Scope":
        self._prof.push(self._cat)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._prof.pop()


class CategoryProfiler:
    """Exclusive-time scope-stack profiler over the category taxonomy.

    ``push(cat)`` / ``pop()`` accrue the elapsed time since the previous
    transition to the category on top of the stack, so nested scopes carve
    their time *out* of their parent's total (a ``serialize`` scope inside
    a ``layout`` phase bills serialize, not both).  Time spent with an
    empty stack is unattributed; :meth:`ProfileReport.render` reports it as
    ``(other)``.

    One profiler belongs to one OS process/thread — the engines and their
    inline workers share the single-threaded engine loop, while process
    backend workers each own a private profiler whose snapshot is drained
    and merged as a per-processor track.
    """

    enabled = True

    __slots__ = ("totals", "counts", "steps", "_stack", "_last", "_t0", "_t1")

    def __init__(self) -> None:
        self.totals: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        #: per-superstep cumulative marks: ``(step, t, dict(totals))``
        self.steps: list[tuple[int, float, dict[str, float]]] = []
        self._stack: list[str] = []
        self._last = 0.0
        self._t0: float | None = None
        self._t1: float | None = None

    # -- scope stack ----------------------------------------------------------

    def push(self, cat: str) -> None:
        now = _now()
        stack = self._stack
        if stack:
            top = stack[-1]
            self.totals[top] = self.totals.get(top, 0.0) + (now - self._last)
        self._last = now
        stack.append(cat)
        self.counts[cat] = self.counts.get(cat, 0) + 1

    def pop(self) -> None:
        now = _now()
        stack = self._stack
        if not stack:  # unbalanced pop: ignore rather than corrupt totals
            self._last = now
            return
        top = stack.pop()
        self.totals[top] = self.totals.get(top, 0.0) + (now - self._last)
        self._last = now

    def scope(self, cat: str) -> _Scope:
        """Context-manager form of ``push``/``pop`` (cold paths)."""
        return _Scope(self, cat)

    # -- run lifecycle --------------------------------------------------------

    def start(self) -> None:
        """Open the profiled window (engine run start)."""
        if self._t0 is None:
            self._t0 = _now()
            self._last = self._t0

    def stop(self) -> None:
        """Close the profiled window; idempotent."""
        while self._stack:  # unwind scopes abandoned by an exception
            self.pop()
        self._t1 = _now()

    @property
    def wall(self) -> float:
        """Profiled wall-clock (start to stop, or to now while open)."""
        if self._t0 is None:
            return 0.0
        return (self._t1 if self._t1 is not None else _now()) - self._t0

    def attributed(self) -> float:
        """Seconds attributed to named categories."""
        return sum(self.totals.values())

    def mark_superstep(self, step: int) -> None:
        """Record cumulative totals at the end of superstep ``step``."""
        self.steps.append((step, _now(), dict(self.totals)))

    # -- worker merge ----------------------------------------------------------

    def snapshot(self) -> dict:
        """Picklable totals payload (worker drain); resets nothing."""
        return {
            "totals": dict(self.totals),
            "counts": dict(self.counts),
            "wall": self.wall,
        }

    def reset(self) -> None:
        self.totals = {}
        self.counts = {}
        self.steps = []
        self._stack = []
        self._t0 = None
        self._t1 = None


class _NullScope:
    __slots__ = ()

    def __enter__(self) -> "_NullScope":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_SCOPE = _NullScope()


class NullProfiler:
    """The detached profiler: every operation is a no-op.

    Storage and backend hot paths call ``push``/``pop`` unconditionally;
    with this object installed each call is one attribute lookup and an
    empty method — the observer-overhead guard test bounds the cost.
    """

    enabled = False

    totals: dict[str, float] = {}
    counts: dict[str, int] = {}
    steps: list = []
    wall = 0.0

    def push(self, cat: str) -> None:
        pass

    def pop(self) -> None:
        pass

    def scope(self, cat: str) -> _NullScope:
        return _NULL_SCOPE

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def mark_superstep(self, step: int) -> None:
        pass

    def attributed(self) -> float:
        return 0.0

    def snapshot(self) -> dict:
        return {"totals": {}, "counts": {}, "wall": 0.0}

    def reset(self) -> None:
        pass


NULL_PROFILER = NullProfiler()


# -- the report ---------------------------------------------------------------


@dataclass
class ProfileReport:
    """Aggregated wall-clock attribution for one run.

    ``tracks`` maps a track name (``"engine"``, ``"p0"``, ...) to
    ``{"wall": float, "totals": {cat: sec}, "counts": {cat: int}}``.  The
    ``"engine"`` track is the headline: for the sequential engine and the
    inline backend it covers the whole single-threaded run (worker scopes
    carve their categories out of the same stack's timeline), so its
    attributed fraction is the run's.  Process-backend workers overlap the
    engine in time and are therefore kept as separate tracks — there the
    engine's ``barrier_wait`` is the window the per-processor tracks fill.

    ``supersteps`` holds per-superstep deltas of the engine track:
    ``{"step": int, "wall": float, "totals": {cat: sec}}``.
    """

    wall: float
    tracks: dict[str, dict[str, Any]]
    supersteps: list[dict[str, Any]] = field(default_factory=list)
    meta: dict[str, Any] = field(default_factory=dict)
    schema: int = PROFILE_SCHEMA

    # -- derived views --------------------------------------------------------

    def track_totals(self, track: str = "engine") -> dict[str, float]:
        return dict(self.tracks.get(track, {}).get("totals", {}))

    def attributed_fraction(self, track: str = "engine") -> float:
        """Share of the run's wall-clock attributed to named categories."""
        tr = self.tracks.get(track)
        if tr is None or self.wall <= 0:
            return 0.0
        return min(1.0, sum(tr["totals"].values()) / self.wall)

    # -- serialization --------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "schema": self.schema,
            "wall": self.wall,
            "tracks": self.tracks,
            "supersteps": self.supersteps,
            "meta": self.meta,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ProfileReport":
        validate_report_dict(payload)
        return cls(
            wall=payload["wall"],
            tracks=payload["tracks"],
            supersteps=payload.get("supersteps", []),
            meta=payload.get("meta", {}),
            schema=payload["schema"],
        )

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        """The ``repro perf report`` breakdown table."""
        out: list[str] = []
        meta = " ".join(f"{k}={v}" for k, v in sorted(self.meta.items()))
        out.append(f"wall-clock attribution ({meta})" if meta else
                   "wall-clock attribution")
        for name in sorted(self.tracks, key=lambda t: (t != "engine", t)):
            tr = self.tracks[name]
            denom = self.wall if name == "engine" else (tr["wall"] or self.wall)
            denom = max(denom, 1e-12)
            out.append(f"  [{name}] wall {tr['wall']:.3f}s")
            out.append(f"    {'category':<14}{'seconds':>10}{'share':>8}"
                       f"{'scopes':>10}")
            attributed = 0.0
            for cat in CATEGORIES:
                sec = tr["totals"].get(cat, 0.0)
                if not sec and not tr["counts"].get(cat):
                    continue
                attributed += sec
                out.append(f"    {cat:<14}{sec:>10.3f}{sec / denom:>7.1%}"
                           f"{tr['counts'].get(cat, 0):>10}")
            other = max(0.0, denom - attributed)
            out.append(f"    {'(other)':<14}{other:>10.3f}"
                       f"{other / denom:>7.1%}{'':>10}")
            out.append(f"    {'attributed':<14}{attributed:>10.3f}"
                       f"{attributed / denom:>7.1%}")
        if self.supersteps:
            out.append(f"  per-superstep (engine track, seconds):")
            cats = [c for c in CATEGORIES
                    if any(row["totals"].get(c) for row in self.supersteps)]
            head = "".join(f"{c[:10]:>11}" for c in cats)
            out.append(f"    {'step':<6}{'wall':>8}{head}")
            for row in self.supersteps:
                cells = "".join(f"{row['totals'].get(c, 0.0):>11.3f}"
                                for c in cats)
                out.append(f"    {row['step']:<6}{row['wall']:>8.3f}{cells}")
        return "\n".join(out)


def validate_report_dict(payload: dict) -> None:
    """Schema check for a serialized :class:`ProfileReport` (CI gate)."""
    if not isinstance(payload, dict):
        raise ValueError("profile report payload is not an object")
    if payload.get("schema") != PROFILE_SCHEMA:
        raise ValueError(
            f"profile report schema {payload.get('schema')!r}, "
            f"expected {PROFILE_SCHEMA}"
        )
    if not isinstance(payload.get("wall"), (int, float)):
        raise ValueError("profile report wall is not a number")
    tracks = payload.get("tracks")
    if not isinstance(tracks, dict) or "engine" not in tracks:
        raise ValueError("profile report has no engine track")
    for name, tr in tracks.items():
        for key in ("wall", "totals", "counts"):
            if key not in tr:
                raise ValueError(f"track {name!r} is missing {key!r}")
        for cat in tr["totals"]:
            if cat not in CATEGORIES:
                raise ValueError(f"track {name!r} holds unknown category {cat!r}")
    for row in payload.get("supersteps", []):
        if "step" not in row or "totals" not in row:
            raise ValueError("superstep row missing step/totals")


def build_report(collector, meta: dict | None = None) -> ProfileReport:
    """Assemble the :class:`ProfileReport` from a run's collector.

    The engine track is the collector's own profiler; per-processor
    snapshots drained from process-backend workers (see
    ``Collector.ingest``) become ``p{i}`` tracks.  Inline workers share
    the engine's single-threaded timeline, so their profilers were merged
    into the engine track at drain time and no separate tracks appear.
    """
    prof = collector.profile
    tracks: dict[str, dict[str, Any]] = {
        "engine": {
            "wall": prof.wall,
            "totals": dict(prof.totals),
            "counts": dict(prof.counts),
        }
    }
    for proc, snap in sorted(getattr(collector, "proc_profiles", {}).items()):
        tracks[f"p{proc}"] = {
            "wall": snap.get("wall", 0.0),
            "totals": dict(snap.get("totals", {})),
            "counts": dict(snap.get("counts", {})),
        }
    supersteps: list[dict[str, Any]] = []
    prev_t = prof._t0 if prof._t0 is not None else 0.0
    prev_tot: dict[str, float] = {}
    for step, t, cum in prof.steps:
        totals = {
            cat: cum.get(cat, 0.0) - prev_tot.get(cat, 0.0)
            for cat in cum
            if cum.get(cat, 0.0) - prev_tot.get(cat, 0.0) > 0.0
        }
        supersteps.append({"step": step, "wall": t - prev_t, "totals": totals})
        prev_t, prev_tot = t, cum
    return ProfileReport(
        wall=prof.wall, tracks=tracks, supersteps=supersteps, meta=meta or {}
    )
