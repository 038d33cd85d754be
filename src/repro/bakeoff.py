"""Differential bake-off: modern EM competitors vs the simulated CGM engine.

Extends Table 1 with the rivals the 1997 paper predates (PAPERS.md):
Hagerup's Guidesort, the textbook ``M/B``-way merge sort and Arge's
buffer tree, each implemented in :mod:`repro.baselines` against the same
counted :class:`~repro.emio.diskarray.DiskArray` substrate.  One sweep
row runs every engine on the *same* machine ``(n, M, B, D)`` and the
*same* seeded input, then referees three ways:

* **output equality** — every engine's result must be byte-identical
  (pickled) to the in-memory reference;
* **bound compliance** — each competitor's measured ``io_ops`` must stay
  within its own closed-form ``predicted_io_ops`` bound, and the CGM
  side must pass the per-superstep ``theorem1_io`` oracle;
* **comparability** (DESIGN §13) — all engines charge through the same
  parallel-I/O ledger, input loading and output unloading included, so
  the columns are directly comparable counted costs.

Sweep rows come in two modes.  ``joint`` rows size ``M`` large enough for
the simulation's context residence (``mu <= M``), so every engine runs;
``deep`` rows shrink ``M`` into the multi-pass regime
(``log_{M/B}(n/M) > 1``) where the competitors' asymptotics separate but
the coarse-grained simulation cannot hold a context, so they run the
competitors only.  ``repro bakeoff`` and ``benchmarks/bench_bakeoff.py``
drive this module; ``BENCH_BAKEOFF.json`` is the committed artifact.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Iterable, Sequence

from . import workloads as wl
from .baselines import SORTING_BASELINES
from .conform.oracles import check_theorem1_io, plain_outputs, theorem1_io_bound
from .core.simulator import build_params, pick_v, simulate
from .params import MachineParams

__all__ = [
    "SCHEMA_VERSION",
    "TASKS",
    "CONTENDERS",
    "BakeoffConfig",
    "default_sweep",
    "run_row",
    "run_sweep",
    "validate_bakeoff_dict",
    "format_table",
]

SCHEMA_VERSION = 1
TASKS = ("sort", "permute")
#: the CGM simulation plus every registered counted-cost sorter
CONTENDERS = ("cgm", *SORTING_BASELINES)


@dataclass(frozen=True)
class BakeoffConfig:
    """One sweep point: problem size and machine shape."""

    n: int
    M: int
    B: int
    D: int
    mode: str = "joint"  # "joint": all engines; "deep": competitors only
    seed: int = 0

    def machine(self, p: int = 1) -> MachineParams:
        return MachineParams(p=p, M=self.M, D=self.D, B=self.B, b=self.B)

    def label(self) -> str:
        return f"n={self.n} M={self.M} B={self.B} D={self.D} [{self.mode}]"


def default_sweep(quick: bool = False) -> list[BakeoffConfig]:
    """The standard (n, M, B, D) sweep: joint rows where the simulation's
    context fits (``mu <= M``), deep rows in the competitors' multi-pass
    regime.  ``quick`` is the CI/test subset."""
    if quick:
        return [
            BakeoffConfig(8192, 2048, 16, 2, "joint"),
            BakeoffConfig(16384, 4096, 16, 4, "joint"),
            BakeoffConfig(4096, 128, 8, 2, "deep"),
            BakeoffConfig(4096, 256, 16, 4, "deep"),
        ]
    sweep = []
    for n, M in ((4096, 8192), (8192, 16384), (16384, 32768)):
        for B, D in ((16, 2), (32, 4), (64, 1)):
            sweep.append(BakeoffConfig(n, M, B, D, "joint"))
    sweep += [
        BakeoffConfig(8192, 128, 8, 2, "deep"),
        BakeoffConfig(16384, 128, 16, 1, "deep"),
        BakeoffConfig(16384, 256, 8, 2, "deep"),
        BakeoffConfig(16384, 512, 16, 4, "deep"),
        BakeoffConfig(32768, 256, 8, 4, "deep"),
        BakeoffConfig(32768, 512, 16, 2, "deep"),
    ]
    return sweep


# -- the CGM side ---------------------------------------------------------------------


def _cgm_algorithm(task: str, v: int, data: list, perm: "list | None"):
    if task == "sort":
        from .algorithms import CGMSampleSort

        return CGMSampleSort(data, v)
    if task == "permute":
        from .algorithms import CGMPermutation

        return CGMPermutation(data, perm, v)
    raise ValueError(f"unknown bakeoff task {task!r}")


def _cgm_v(
    task: str, cfg: BakeoffConfig, machine: MachineParams, data: list, perm
) -> "int | None":
    """The CGM run's ``v``: :func:`~repro.core.simulator.pick_v`, over the
    ``v`` that divide ``n``."""

    def make(v: int):
        if cfg.n % v:
            raise ValueError(f"v={v} does not divide n={cfg.n}")
        return _cgm_algorithm(task, v, data, perm)

    return pick_v(make, machine, cfg.n)


# -- one sweep row --------------------------------------------------------------------


def _reference(task: str, data: list, perm) -> list:
    if task == "sort":
        return sorted(data)
    out = [None] * len(data)
    for i, dest in enumerate(perm):
        out[dest] = data[i]
    return out


def run_row(
    cfg: BakeoffConfig,
    task: str,
    *,
    backend: str = "inline",
    storage: str = "memory",
    p_cgm: int = 1,
    engines: "Sequence[str] | None" = None,
) -> dict:
    """Run every engine on one (config, task) cell; referee the outputs."""
    data = wl.uniform_keys(cfg.n, seed=cfg.seed)
    perm = (
        wl.random_permutation(cfg.n, seed=cfg.seed + 1)
        if task == "permute"
        else None
    )
    reference = _reference(task, data, perm)
    ref_bytes = pickle.dumps(reference, protocol=4)

    wanted = tuple(engines) if engines is not None else CONTENDERS
    row: dict = {
        "task": task,
        "n": cfg.n,
        "M": cfg.M,
        "B": cfg.B,
        "D": cfg.D,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "engines": {},
    }

    for name in wanted:
        if name == "cgm":
            if cfg.mode == "deep":
                row["engines"][name] = {"skipped": "context exceeds M (deep row)"}
                continue
            row["engines"][name] = _run_cgm(
                cfg, task, data, perm, ref_bytes, backend, storage, p_cgm
            )
        else:
            row["engines"][name] = _run_competitor(
                name, cfg, task, data, perm, ref_bytes, storage
            )
    return row


def _run_competitor(
    name: str,
    cfg: BakeoffConfig,
    task: str,
    data: list,
    perm,
    ref_bytes: bytes,
    storage: str,
) -> dict:
    cls = SORTING_BASELINES[name]
    machine = cfg.machine(p=1)
    if task == "sort":
        sorter = cls(machine, storage=storage)
        out, stats = sorter.sort(data)
    else:
        sorter = cls(machine, key=itemgetter(0), storage=storage)
        tagged = list(zip(perm, data))
        ordered, stats = sorter.sort(tagged)
        out = [val for _dest, val in ordered]
    bound = sorter.predicted_io_ops(cfg.n)
    entry = {
        "io_ops": int(stats.io_ops),
        "bound": float(bound),
        "ok": bool(stats.io_ops <= bound),
        "match": pickle.dumps(out, protocol=4) == ref_bytes,
    }
    if name == "guidesort":
        # Schema v1 carries the counter on the cells of the one rival that
        # has a prefetch schedule to referee.
        entry["guide_mismatches"] = int(stats.guide_mismatches)
    return entry


def _run_cgm(
    cfg: BakeoffConfig,
    task: str,
    data: list,
    perm,
    ref_bytes: bytes,
    backend: str,
    storage: str,
    p_cgm: int,
) -> dict:
    machine = cfg.machine(p=p_cgm)
    v = _cgm_v(task, cfg, machine, data, perm)
    if v is None:
        return {"skipped": "no admissible v for this machine"}
    alg = _cgm_algorithm(task, v, data, perm)
    outputs, report = simulate(
        alg, machine, v, seed=0, backend=backend, storage=storage
    )
    flat = [x for part in plain_outputs(outputs) for x in part]
    fresh = _cgm_algorithm(task, v, data, perm)
    params = build_params(fresh, machine, v)
    failures, checked = check_theorem1_io(params, report, fresh)
    sim_bound = theorem1_io_bound(params, report)
    measured = report.io_ops + report.init_io_ops + report.output_io_ops
    bound = float(sim_bound + report.init_io_ops + report.output_io_ops)
    return {
        "io_ops": int(measured),
        "bound": bound,
        "ok": not failures and measured <= bound,
        "match": pickle.dumps(flat, protocol=4) == ref_bytes,
        "v": v,
        "mu": params.bsp.mu,
        "mu_used": report.mu_used,
        "supersteps": len(report.supersteps),
        "theorem1_failures": [f.detail for f in failures],
        "theorem1_checked": int(checked),
    }


# -- the sweep ------------------------------------------------------------------------


def run_sweep(
    configs: "Iterable[BakeoffConfig] | None" = None,
    tasks: Sequence[str] = TASKS,
    *,
    backend: str = "inline",
    storage: str = "memory",
    p_cgm: int = 1,
    engines: "Sequence[str] | None" = None,
    quick: bool = False,
) -> dict:
    """Run the sweep and return the BENCH_BAKEOFF payload (schema v1)."""
    configs = list(configs) if configs is not None else default_sweep(quick)
    rows = []
    violations: list[str] = []
    mismatches: list[str] = []
    for cfg in configs:
        for task in tasks:
            row = run_row(
                cfg,
                task,
                backend=backend,
                storage=storage,
                p_cgm=p_cgm,
                engines=engines,
            )
            rows.append(row)
            where = f"{task} {cfg.label()}"
            for name, entry in row["engines"].items():
                if "skipped" in entry:
                    continue
                if not entry["match"]:
                    mismatches.append(f"{where} {name}: output differs from reference")
                if not entry["ok"]:
                    violations.append(
                        f"{where} {name}: io_ops {entry['io_ops']} exceeds "
                        f"bound {entry['bound']:.0f}"
                    )
                if entry.get("guide_mismatches"):
                    violations.append(
                        f"{where} {name}: {entry['guide_mismatches']} guide "
                        "schedule mismatches"
                    )
    return {
        "schema_version": SCHEMA_VERSION,
        "tasks": list(tasks),
        "engines": list(engines) if engines is not None else list(CONTENDERS),
        "backend": backend,
        "storage": storage,
        "p_cgm": p_cgm,
        "configs": len(configs),
        "rows": rows,
        "violations": violations,
        "mismatches": mismatches,
    }


# -- schema ---------------------------------------------------------------------------

_ROW_KEYS = {"task", "n", "M", "B", "D", "mode", "seed", "engines"}


def validate_bakeoff_dict(payload: Any) -> dict:
    """Structurally validate a BENCH_BAKEOFF payload; raise ``ValueError``
    on any shape problem, return the payload unchanged otherwise."""
    if not isinstance(payload, dict):
        raise ValueError("bakeoff payload must be a dict")
    if payload.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported bakeoff schema {payload.get('schema_version')!r}"
        )
    for field in ("tasks", "engines", "rows", "violations", "mismatches"):
        if not isinstance(payload.get(field), list):
            raise ValueError(f"bakeoff field {field!r} must be a list")
    if not isinstance(payload.get("configs"), int) or payload["configs"] < 0:
        raise ValueError("bakeoff field 'configs' must be a non-negative int")
    if len(payload["rows"]) != payload["configs"] * len(payload["tasks"]):
        raise ValueError("row count does not match configs x tasks")
    for row in payload["rows"]:
        if not isinstance(row, dict) or not _ROW_KEYS <= set(row):
            raise ValueError(f"malformed bakeoff row: {row!r}")
        if row["task"] not in payload["tasks"]:
            raise ValueError(f"row task {row['task']!r} not in payload tasks")
        for name, entry in row["engines"].items():
            if name not in payload["engines"]:
                raise ValueError(f"row engine {name!r} not in payload engines")
            if "skipped" in entry:
                continue
            if not isinstance(entry.get("io_ops"), int) or entry["io_ops"] < 0:
                raise ValueError(f"engine {name}: io_ops must be a counted int")
            if not isinstance(entry.get("bound"), (int, float)):
                raise ValueError(f"engine {name}: bound must be numeric")
            for flag in ("ok", "match"):
                if not isinstance(entry.get(flag), bool):
                    raise ValueError(f"engine {name}: {flag} must be a bool")
    for msg in payload["violations"] + payload["mismatches"]:
        if not isinstance(msg, str):
            raise ValueError("violations/mismatches must be strings")
    return payload


def format_table(payload: dict) -> list[list[str]]:
    """Render the sweep as rows for ``benchmarks.common.emit``."""
    out = []
    for row in payload["rows"]:
        cells = [
            row["task"],
            str(row["n"]),
            str(row["M"]),
            str(row["B"]),
            str(row["D"]),
            row["mode"],
        ]
        for name in payload["engines"]:
            entry = row["engines"].get(name, {"skipped": "-"})
            if "skipped" in entry:
                cells.append("-")
            else:
                mark = "" if entry["ok"] and entry["match"] else "!"
                cells.append(f"{entry['io_ops']}{mark}/{entry['bound']:.0f}")
        out.append(cells)
    return out
