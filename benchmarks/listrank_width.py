"""LISTRANK-WIDTH / LISTRANK-WIRE — list ranking at the width of its values,
before and after.

Records, for a checkout of the code before the change and for this tree,
what list ranking's context and message bounds set: ``mu`` and ``gamma``
with the largest context and inbox a run saw, the batch size ``k =
floor(M/mu)``, the groups a processor runs, whether the held batch keeps its
inbox (``k*(mu + gamma) <= M``), ``disk_tracks``, message blocks, packets and
the superstep I/O in scans of the data (``io_ops / ceil(n/(D*B))``, as the
benchmark suite counts it), on six rows:

* ``gated``: the suite's ``listrank_par_default`` (``n = 32768``, ``v = 32``,
  ``p = 4``, ``M = 1Mi``, ``D = 4``, ``B = 32``, ``b = 64``);
* ``probe_p4`` / ``probe_p1``: ``n = 32768``, ``v = 64``, ``M = 8Ki``, the
  same drives and blocks, at ``p = 4`` and ``p = 1``: out of core;
* ``probe_p4_v8`` / ``probe_p1_v8``: the same at ``v = 8``, the ``v`` that
  ``pick_v`` takes there;
* ``n2^20``: ``n = 2^20``, ``v = 64``, ``p = 1``, ``B = 1024``, ``b = 2048``
  and ``M = 254208`` on both sides.

Each row's input is the suite's list generator at seed 3 and the run's seed
is 3; ``wall_s`` there is one run, not a claim.  Then ``--pairs`` alternating
runs of ``benchmarks/suite/run.py --workload listrank_par_default --trace 0``
in the two trees (before first in even pairs) give the suite's ``wall_s``,
``setup_s`` and ``peak_rss_mib``.

Run from the repository root (``--before`` is a checkout of the parent
commit, e.g. made with ``git clone``)::

    python3 benchmarks/listrank_width.py --before ../parent \\
        --out benchmarks/results/LISTRANK-WIRE.json

``LISTRANK-WIDTH.json`` is the record of the contexts' narrowing (four rows,
no message columns); ``LISTRANK-WIRE.json`` that of the messages'.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: name -> (n, v, machine)
ROWS = {
    "gated": (32768, 32, dict(p=4, M=1 << 20, D=4, B=32, b=64)),
    "probe_p4": (32768, 64, dict(p=4, M=8192, D=4, B=32, b=64)),
    "probe_p1": (32768, 64, dict(p=1, M=8192, D=4, B=32, b=64)),
    "probe_p4_v8": (32768, 8, dict(p=4, M=8192, D=4, B=32, b=64)),
    "probe_p1_v8": (32768, 8, dict(p=1, M=8192, D=4, B=32, b=64)),
    "n2^20": (1 << 20, 64, dict(p=1, M=254208, D=4, B=1024, b=2048)),
}
SEED = 3


def measure_rows() -> dict:
    """Every row on the ``repro`` first on ``sys.path``."""
    import numpy as np

    from repro.algorithms.graphs import CGMListRanking
    from repro.core import build_params
    from repro.core.simulator import simulate
    from repro.params import MachineParams

    out = {}
    for name, (n, v, machine) in ROWS.items():
        order = np.random.default_rng(SEED).permutation(n)
        succ = np.empty(n, dtype=np.int64)
        succ[order[:-1]], succ[order[-1]] = order[1:], order[-1]
        succ = succ.tolist()
        params = build_params(CGMListRanking(succ, v), MachineParams(**machine), v)
        start = time.perf_counter()
        _outputs, report = simulate(
            CGMListRanking(succ, v), MachineParams(**machine), v=v, seed=SEED)
        wall = time.perf_counter() - start
        scan = -(-n // (machine["D"] * machine["B"]))
        out[name] = {
            "n": n, "v": v, "machine": machine,
            "mu": params.bsp.mu, "mu_used": report.mu_used,
            "gamma": params.bsp.gamma, "gamma_used": report.gamma_used, "k": params.k,
            "groups_a_processor": params.groups_per_processor,
            "holds_inbox": params.holds_inbox,
            "disk_tracks": report.disk_space_tracks,
            "io_scans": round(report.io_ops / scan, 4),
            "message_blocks": sum(s.message_blocks for s in report.supersteps),
            "comm_packets": report.ledger.total_comm_packets,
            "supersteps": report.num_supersteps,
            "wall_s": round(wall, 3),
        }
    return out


def rows_of(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--rows"],
        env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def suite_run(tree: str) -> dict:
    """One ``--trace 0`` run of the gated workload in ``tree``."""
    with tempfile.TemporaryDirectory() as out:
        done = subprocess.run(
            [sys.executable, os.path.join(tree, "benchmarks", "suite", "run.py"),
             "--workload", "listrank_par_default", "--trace", "0", "--out", out],
            cwd=tree, check=True, capture_output=True, text=True)
    metrics = json.loads(done.stdout.strip().splitlines()[-1])["metrics"]
    return {k: metrics[k]["value"] for k in ("wall_s", "setup_s", "peak_rss_mib",
                                             "io_scans", "comm_packets", "disk_tracks")}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--before", help="checkout of the code before the change")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", default=os.path.join(HERE, "results", "LISTRANK-WIRE.json"))
    ap.add_argument("--rows", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.rows:
        json.dump(measure_rows(), sys.stdout)
        return 0
    if not args.before:
        ap.error("--before is required")
    trees = {"before": os.path.abspath(args.before), "after": ROOT}
    result = {"rows": {side: rows_of(tree) for side, tree in trees.items()},
              "pairs": []}
    for i in range(args.pairs):
        sides = ("before", "after") if i % 2 == 0 else ("after", "before")
        pair = {side: suite_run(trees[side]) for side in sides}
        result["pairs"].append({side: pair[side] for side in ("before", "after")})
    walls = [(p["before"]["wall_s"], p["after"]["wall_s"]) for p in result["pairs"]]
    result["after_faster_pairs"] = sum(a < b for b, a in walls)
    with open(args.out, "w") as fh:
        json.dump(result, fh, indent=1)
        fh.write("\n")
    for side in trees:
        for name, row in result["rows"][side].items():
            print(f"{side:6} {name:11} mu {row['mu']:6} gamma {row['gamma']:6} k {row['k']:3} "
                  f"groups {row['groups_a_processor']:3} tracks {row['disk_tracks']:5} "
                  f"scans {row['io_scans']:8} packets {row['comm_packets']:6} "
                  f"wall {row['wall_s']}")
    print(f"after faster in {result['after_faster_pairs']} of {len(walls)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
