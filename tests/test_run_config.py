"""One run config: the engine knobs are one frozen object, checked once.

``RunConfig`` holds every knob of how the host runs a simulation; ``simulate``,
``make_engine`` and both engines take it as ``config=`` and fold keyword
knobs into it at one place.  These tests pin the object itself (frozen,
picklable with its plans inside, keywords over ``config=``, the reference
plane), the refusals it makes before anything is claimed, written or loaded,
the one place the record plane is applied, and an AST guard that no function
in ``repro.core`` re-lists a knob as a parameter.
"""

import ast
import dataclasses
import inspect
import os
import pickle
from pathlib import Path

import pytest

from repro.algorithms.graphs import CGMListRanking
from repro.algorithms.sorting import CGMSampleSort
from repro.conform import REFERENCE
from repro.conform.oracles import plain_outputs
from repro.core import ParallelEMSimulation, RunConfig, SequentialEMSimulation
from repro.core.processor import RealProcessor
from repro.core.simulator import build_params, make_engine, simulate
from repro.crashcheck import explore
from repro.emio.faults import CrashPlan, FaultPlan, RetryPolicy
from repro.emio.linked import WRITE_SCHEDULES
from repro.params import MachineParams, ParameterError
from repro.workloads import random_linked_list, uniform_keys

from .test_crash_consistency import small_sort

CORE = Path(__file__).resolve().parent.parent / "src" / "repro" / "core"
FIELDS = {f.name for f in dataclasses.fields(RunConfig)}
KEYS = uniform_keys(256, seed=11)
V = 8


def machine(p=1):
    return MachineParams(p=p, M=1 << 12, D=4, B=16, b=32)


def sort():
    return CGMSampleSort(list(KEYS), v=V)


def params(alg, p=1):
    return build_params(alg, machine(p), v=V)


@pytest.fixture
def private_tmpdir(tmp_path, monkeypatch):
    """Point ``tempfile`` at an empty directory so claimed roots are countable."""
    import tempfile

    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)
    return tmp_path


# ---------------------------------------------------------------------------
# The object


def test_frozen_and_pickles_with_its_plans_inside():
    cfg = RunConfig(
        storage="file", checkpoint=True, seed=5,
        faults=FaultPlan(seed=1, read_error_rate=0.02, dead_disk=1, dead_after=9),
        retry=RetryPolicy(max_retries=3),
        crash=CrashPlan(seed=2, crash_point=4, keep_rate=0.25),
    )
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.seed = 6
    back = pickle.loads(pickle.dumps(cfg))
    assert back == cfg and back is not cfg
    assert back.faults == cfg.faults and back.crash == cfg.crash


def test_fields_are_the_sixteen_knobs_with_their_defaults():
    assert RunConfig() == RunConfig(
        engine="auto", backend="inline", seed=0, storage="memory", storage_dir=None,
        fast_io=None, context_cache=None, records=None, faults=None, retry=None,
        checkpoint=False, max_recoveries=8, crash=None, write_schedule=None,
        pad_to_gamma=False, enforce_gamma=True,
    )
    assert len(FIELDS) == 16


def test_a_keyword_overrides_the_same_field_of_config():
    base = RunConfig(seed=1, fast_io=False, checkpoint=True)
    sim = make_engine(sort(), params(sort()), base, seed=3, fast_io=True)
    assert (sim.config.seed, sim.fast_io, sim.config.checkpoint) == (3, True, True)
    assert base.seed == 1  # the caller's config is not touched

    by_config = simulate(sort(), machine(), V, config=RunConfig(seed=1), seed=3)
    by_keyword = simulate(sort(), machine(), V, seed=3)
    assert by_config[0] == by_keyword[0]
    assert by_config[1].ledger.summary() == by_keyword[1].ledger.summary()


@pytest.mark.parametrize(
    "build",
    [
        lambda: simulate(sort(), machine(), V, bogus_knob=1),
        lambda: make_engine(sort(), params(sort()), bogus_knob=1),
        lambda: SequentialEMSimulation(sort(), params(sort()), bogus_knob=1),
        lambda: ParallelEMSimulation(sort(), params(sort()), bogus_knob=1),
        lambda: RunConfig.of(RunConfig(), bogus_knob=1),
    ],
    ids=["simulate", "make_engine", "sequential", "parallel", "of"],
)
def test_an_unknown_knob_is_a_type_error_naming_it(build):
    with pytest.raises(TypeError, match="bogus_knob"):
        build()


def test_reference_dict_is_the_reference_plane():
    cfg = RunConfig(**REFERENCE)
    sim = make_engine(sort(), params(sort(), p=2), cfg)
    assert (sim.fast_io, sim.context_cache) == (False, False)
    for pr in sim.procs:
        assert pr.array.fast_data_plane is False and pr.contexts.cache is False
    out, rep = sim.run()
    ref_out, ref_rep = make_engine(sort(), params(sort(), p=2), **REFERENCE).run()
    assert out == ref_out and rep.ledger.summary() == ref_rep.ledger.summary()


def test_pad_to_gamma_is_refused_by_name_on_the_parallel_engine(private_tmpdir):
    with pytest.raises(ParameterError, match="pad_to_gamma"):
        ParallelEMSimulation(sort(), params(sort()), pad_to_gamma=True, storage="file")
    with pytest.raises(ParameterError, match="pad_to_gamma"):
        simulate(sort(), machine(), V, engine="parallel", pad_to_gamma=True)
    assert os.listdir(private_tmpdir) == []
    # ... and honoured where it means something.
    _out, rep = SequentialEMSimulation(sort(), params(sort()), pad_to_gamma=True).run()
    assert rep.io_ops > simulate(sort(), machine(), V)[1].io_ops


# ---------------------------------------------------------------------------
# Refuse before side effects


@pytest.mark.parametrize(
    "field,value,allowed",
    [
        ("engine", "quantum", "('auto', 'sequential', 'parallel')"),
        ("backend", "proces", "('inline', 'process')"),
        ("storage", "cloud", "('memory', 'file', 'mmap')"),
        ("records", "vec", "('object', 'vector')"),
        ("write_schedule", "rotat", str(WRITE_SCHEDULES)),
    ],
)
def test_every_enumerated_value_is_refused_naming_field_and_choices(field, value, allowed):
    with pytest.raises(ParameterError) as ei:
        RunConfig(**{field: value})
    msg = str(ei.value)
    assert field in msg and repr(value) in msg and allowed in msg


def test_bad_write_schedule_claims_writes_and_loads_nothing(tmp_path):
    root = tmp_path / "tracks"
    root.mkdir()
    loaded = []

    class Watched(CGMSampleSort):
        def initial_state(self, pid, nprocs):
            loaded.append(pid)
            return super().initial_state(pid, nprocs)

    with pytest.raises(ParameterError) as ei:
        simulate(
            Watched(list(KEYS), v=V), machine(), V,
            storage="file", storage_dir=str(root), write_schedule="rotat",
        )
    msg = str(ei.value)
    assert "write_schedule" in msg
    assert all(repr(name) in msg for name in ("random", "rotate", "static", "balance"))
    assert os.listdir(root) == []  # no marker, no track file
    assert loaded == []


@pytest.mark.parametrize("p", [1, 2])
def test_misspelled_backend_names_backend_and_its_choices(p, private_tmpdir):
    with pytest.raises(ParameterError) as ei:
        simulate(sort(), machine(p), V, backend="proces", storage="file")
    msg = str(ei.value)
    assert "backend" in msg and "('inline', 'process')" in msg
    assert "parallel engine" not in msg
    assert os.listdir(private_tmpdir) == []


def test_process_backend_on_the_sequential_engine_keeps_its_two_knob_message():
    with pytest.raises(ValueError) as ei:
        simulate(sort(), machine(), V, engine="sequential", backend="process")
    msg = str(ei.value)
    for part in ("backend='process'", "engine='sequential'", "engine='parallel'",
                 "backend='inline'"):
        assert part in msg


def test_unsupported_record_mode_is_refused_before_a_root_is_claimed(private_tmpdir):
    from repro.algorithms.prefix import CGMPrefixSums
    from repro.bsp.program import AlgorithmError

    root = private_tmpdir / "tracks"
    root.mkdir()
    for storage_dir in (str(root), None):  # explicit, and an owned temp root
        alg = CGMPrefixSums(list(range(64)), 4)
        with pytest.raises(AlgorithmError, match="vector"):
            make_engine(
                alg, build_params(alg, machine(), 4),
                records="vector", storage="file", storage_dir=storage_dir,
            )
    assert os.listdir(root) == []
    assert os.listdir(private_tmpdir) == ["tracks"]


# ---------------------------------------------------------------------------
# Records once: the engine constructor applies the record plane


class ModeProbe(CGMListRanking):
    """List ranking that refuses to load its input on the object plane: the
    record mode must reach the algorithm (in a worker, too) before
    ``load_input``."""

    def initial_state(self, pid, nprocs):
        if self.record_mode != "vector":
            raise RuntimeError(f"load_input saw record_mode={self.record_mode!r}")
        return super().initial_state(pid, nprocs)


SUCC = random_linked_list(256, seed=4)


def _image(outputs, report):
    return plain_outputs(outputs), report.ledger.summary()


@pytest.mark.parametrize("p", [1, 2])
def test_records_reach_the_algorithm_once_on_every_entry(p):
    m = MachineParams(p=p, M=1 << 15, D=2, B=16, b=32)
    want = _image(*simulate(ModeProbe(SUCC, V), m, V, records="vector"))
    alg = ModeProbe(SUCC, V)
    prm = build_params(alg, m, V)
    if p == 1:
        got = _image(*SequentialEMSimulation(alg, prm, records="vector").run())
    else:
        got = _image(
            *ParallelEMSimulation(alg, prm, backend="process", records="vector").run()
        )
    assert got == want
    assert alg.record_mode == "vector"
    with pytest.raises(RuntimeError, match="record_mode='object'"):
        simulate(ModeProbe(SUCC, V), m, V)


def test_crashcheck_on_the_fast_vector_plane_keeps_its_counts(tmp_path):
    """The sweep the benchmark's plane gets, with ``records`` now applied by
    the engine: the counts recorded before the move."""
    res = explore(
        small_sort, MachineParams(p=1, M=1 << 14, D=2, B=16, b=16), 4, tmp_path,
        records="vector", fast_io=True, context_cache=True,
    )
    actions = {}
    for o in res.outcomes:
        actions[o.action] = actions.get(o.action, 0) + 1
    assert res.passed
    assert (res.total_points, res.checkpoints, res.extents_verified) == (20, 4, 14)
    assert actions == {"restart": 4, "resume@0": 5, "resume@1": 5, "resume@2": 5,
                       "resume@3": 1}
    # 116 before the one group (k == v) kept its bucket store: the 60 ops of
    # Algorithm 2 went; 56 before the group stayed in memory across each
    # barrier: its 32 ops of context swap went, every other phase is unchanged;
    # 24 before the one group's messages were packed into full blocks: 24
    # message blocks became 6, and writing and fetching them 12 ops each, 4.
    assert res.golden_summary["io_ops"] == 8
    assert res.golden_summary["comm_packets"] == 18


# ---------------------------------------------------------------------------
# Replaced, not forked


def test_no_function_in_core_relists_a_knob():
    offenders = []
    for path in sorted(CORE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        exempt = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and node.name == "RunConfig":
                exempt.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            if id(node) in exempt or not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                if arg.arg in FIELDS:
                    name = getattr(node, "name", "<lambda>")
                    offenders.append(f"{path.name}:{node.lineno} {name}({arg.arg})")
    assert offenders == []


def test_the_engines_share_one_constructor():
    assert "__init__" not in SequentialEMSimulation.__dict__
    assert "__init__" not in ParallelEMSimulation.__dict__
    # index, algorithm, params, config, spec, observe, profile, sole
    assert len(inspect.signature(RealProcessor.__init__).parameters) - 1 <= 8
