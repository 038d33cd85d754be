"""Compare two ``results.json`` files of the suite, metric by metric.

Usage::

    python3 benchmarks/suite/compare.py A.json B.json

``A`` is the parent (or the committed ``baseline.json``), ``B`` the change.
Every end-to-end metric of every workload gets one verdict:

``same``        within the metric's bound (exact metrics: equal)
``worse``       B's value is worse than A's by more than the bound
                (exact metrics: any change for the worse)
``better``      improved by more than the bound (exact: any change for the
                better), or every sample of B beats every sample of A
``unresolved``  the inter-quartile spread of either side exceeds the bound,
                so a difference of the size of the bound cannot be seen

Counted per-layer metrics are exact too and are checked for equality.  Both
files must come from the same ``--seed`` and scale: counted costs depend on
the input.  Exit status is 1 on any ``worse``, 2 on unusable input.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from metrics import END_TO_END, PER_LAYER


def verdict_exact(a: float, b: float, better: str) -> str:
    if a == b:
        return "same"
    return "better" if (b < a) == (better == "lower") else "worse"


def verdict_timed(a: dict[str, Any], b: dict[str, Any], better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    change = sign * (b["value"] - a["value"]) / a["value"]  # > 0 is worse
    spread = max((s["q3"] - s["q1"]) / s["value"] for s in (a, b))
    if spread > bound:
        b_beats_a = b["max"] < a["min"] if better == "lower" else b["min"] > a["max"]
        return "better" if b_beats_a else "unresolved"
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def compare(a: dict[str, Any], b: dict[str, Any]) -> list[tuple[str, str, Any, Any, str]]:
    """Rows of (workload, metric, A, B, verdict) for every comparable pair."""
    rows = []
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            continue
        for m in END_TO_END:
            sa, sb = wa["end_to_end"][m.name], wb["end_to_end"][m.name]
            if m.exact:
                v = verdict_exact(sa["value"], sb["value"], m.better)
            else:
                v = verdict_timed(sa, sb, m.better, m.bound)
            rows.append((name, m.name, sa["value"], sb["value"], v))
        for m in PER_LAYER:
            va, vb = wa["per_layer"][m.name], wb["per_layer"][m.name]
            if m.source == "counted" and va is not None and vb is not None:
                rows.append((name, m.name, va, vb, verdict_exact(va, vb, m.better)))
    return rows


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sides = []
    for path in argv:
        with open(path) as fh:
            sides.append(json.load(fh))
    a, b = sides
    if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
        print(f"not comparable: A is seed {a['seed']} {a['scale']}, "
              f"B is seed {b['seed']} {b['scale']}", file=sys.stderr)
        return 2
    rows = compare(a, b)
    if not rows:
        print("no workload appears in both files", file=sys.stderr)
        return 2
    width = max(len(r[1]) for r in rows)
    for workload, metric, va, vb, v in rows:
        print(f"{workload:<22}{metric:<{width + 2}}{va:>14.6g}{vb:>14.6g}  {v}")
    tally = {v: sum(r[4] == v for r in rows) for v in ("same", "better", "worse", "unresolved")}
    print("  ".join(f"{v}: {n}" for v, n in tally.items()))
    return 1 if tally["worse"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
