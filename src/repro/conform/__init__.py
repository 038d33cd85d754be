"""Differential conformance fuzzer for the EM simulation.

The equivalence of this repo's execution planes — reference vs ``fast_io`` /
``context_cache``, inline vs process backend, sequential Algorithm 1 vs
parallel Algorithm 3 — and the paper's quantitative guarantees (Lemma 2
bucket balance, Theorem 1 counted-I/O bounds) hold for *every* admissible
parameter tuple, not just the hand-picked golden configurations in
``tests/``.  This package checks them at random points of the configuration
space:

* :mod:`~repro.conform.config` — :class:`ConformConfig`, one fully explicit
  end-to-end configuration (machine tuple, workload, planes, fault plan),
  JSON-serializable so failures are replayable.
* :mod:`~repro.conform.strategies` — seeded random generation with an
  admissibility *repair* step that projects arbitrary draws onto the
  constraint surface of :class:`~repro.params.SimulationParams`.
* :mod:`~repro.conform.oracles` — the oracle stack: output equality vs the
  in-memory BSP reference, byte-identity of reports across equivalent
  planes, Lemma 2 load balance within the whp bound, a closed-form
  Theorem 1 counted-I/O upper bound, and kill-and-resume equivalence.
* :mod:`~repro.conform.runner` — runs one config through every oracle
  (:func:`run_case`) or fuzzes a seeded budget of configs (:func:`fuzz`).
* :mod:`~repro.conform.shrinker` — greedily minimizes a failing config.
* :mod:`~repro.conform.case` — :class:`ReproCase` serialization and replay.

CLI: ``python -m repro conform --seed 0 --budget 50`` (see ``--help``).
"""

from .case import ReproCase
from .config import ConformConfig
from .oracles import ORACLES, OracleFailure
from .runner import REFERENCE, CaseResult, FuzzStats, fuzz, run_case
from .shrinker import shrink
from .strategies import StrategyProfile, random_config, repair

__all__ = [
    "ConformConfig",
    "ReproCase",
    "OracleFailure",
    "ORACLES",
    "CaseResult",
    "FuzzStats",
    "run_case",
    "fuzz",
    "REFERENCE",
    "shrink",
    "StrategyProfile",
    "random_config",
    "repair",
]
