"""One run config: the engine knobs are one frozen object, checked once.

``RunConfig`` holds every knob of how the host runs a simulation; ``simulate``
and the engine take it as ``config=`` and fold keyword knobs into it at one
place.  These tests pin the object itself (frozen,
picklable with its plans inside, keywords over ``config=``, the reference
plane), the refusals it makes before anything is claimed, written or loaded,
the record plane the input picks (``records=`` is a check, not a knob), and an
AST guard that no function in ``repro.core`` re-lists a knob as a parameter.
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
from repro.core import ParallelEMSimulation, RunConfig, build_params, simulate
from repro.core.backend import make_backend
from repro.core.processor import RealProcessor
from repro.crashcheck import explore
from repro.emio.faults import CrashPlan, FaultPlan, RetryPolicy
from repro.emio.linked import WRITE_SCHEDULES
from repro.params import MachineParams, ParameterError
from repro.workloads import random_linked_list, uniform_keys

from .helpers import small_sort

CORE = Path(__file__).resolve().parent.parent / "src" / "repro" / "core"
FIELDS = {f.name for f in dataclasses.fields(RunConfig)}
KEYS = uniform_keys(256, seed=11)
SUCC = random_linked_list(256, seed=4)
V = 8


def machine(p=1):
    return MachineParams(p=p, M=1 << 12, D=4, B=16, b=32)


def sort():
    return CGMSampleSort(list(KEYS), v=V)


def params(alg, p=1):
    return build_params(alg, machine(p), v=V)


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


def test_fields_are_the_eleven_knobs_with_their_defaults():
    assert RunConfig() == RunConfig(
        backend="inline", seed=0, storage="memory", storage_dir=None,
        fast_io=None, context_cache=None, faults=None, retry=None,
        checkpoint=False, max_recoveries=8, crash=None,
    )
    assert len(FIELDS) == 11


def test_a_keyword_overrides_the_same_field_of_config():
    base = RunConfig(seed=1, fast_io=False, checkpoint=True)
    sim = ParallelEMSimulation(sort(), params(sort()), base, seed=3, fast_io=True)
    assert (sim.config.seed, sim.fast_io, sim.config.checkpoint) == (3, True, True)
    assert base.seed == 1  # the caller's config is not touched

    by_config = simulate(sort(), machine(), V, config=RunConfig(seed=1), seed=3)
    by_keyword = simulate(sort(), machine(), V, seed=3)
    assert by_config[0] == by_keyword[0]
    assert by_config[1].ledger.summary() == by_keyword[1].ledger.summary()


@pytest.mark.parametrize(
    "build,name",
    [
        (lambda: simulate(sort(), machine(), V, bogus_knob=1), "bogus_knob"),
        (lambda: ParallelEMSimulation(sort(), params(sort()), bogus_knob=1), "bogus_knob"),
        (lambda: ParallelEMSimulation(sort(), params(sort(), p=2), bogus_knob=1), "bogus_knob"),
        (lambda: RunConfig.of(RunConfig(), bogus_knob=1), "bogus_knob"),
        # The engine's ablations and Theorem 1's check are no knobs of a run.
        (lambda: simulate(sort(), machine(), V, write_schedule="rotate"), "write_schedule"),
        (lambda: simulate(sort(), machine(), V, pad_to_gamma=True), "pad_to_gamma"),
        (lambda: simulate(sort(), machine(), V, strict=True), "strict"),
    ],
    # "sequential" is the one-processor machine, "parallel" a two-processor one.
    ids=["simulate", "sequential", "parallel", "of", "write_schedule", "pad_to_gamma", "strict"],
)
def test_an_unknown_knob_is_a_type_error_naming_it(build, name):
    with pytest.raises(TypeError, match=name):
        build()


def test_reference_dict_is_the_reference_plane():
    cfg = RunConfig(**REFERENCE)
    sim = ParallelEMSimulation(sort(), params(sort(), p=2), cfg)
    assert (sim.fast_io, sim.context_cache) == (False, False)
    for pr in sim.procs:
        assert pr.array.fast_data_plane is False and pr.contexts.cache is False
    out, rep = sim.run()
    ref_out, ref_rep = ParallelEMSimulation(sort(), params(sort(), p=2), **REFERENCE).run()
    assert out == ref_out and rep.ledger.summary() == ref_rep.ledger.summary()


def test_pad_to_gamma_is_refused_by_name_on_the_parallel_engine(private_tmpdir):
    """Lemma 3's padding is Algorithm 1's: refused on a machine of p > 1,
    by a message naming p."""
    with pytest.raises(ParameterError, match="pad_to_gamma.*p=2"):
        ParallelEMSimulation(
            sort(), params(sort(), p=2), pad_to_gamma=True, storage="file"
        )
    assert os.listdir(private_tmpdir) == []
    # ... and honoured where it means something.
    _out, rep = ParallelEMSimulation(sort(), params(sort()), pad_to_gamma=True).run()
    assert rep.io_ops > simulate(sort(), machine(), V)[1].io_ops


# ---------------------------------------------------------------------------
# Refuse before side effects


@pytest.mark.parametrize(
    "field,value,allowed",
    [
        ("backend", "proces", "('inline', 'process')"),
        ("storage", "cloud", "('memory', 'file', 'mmap')"),
        ("write_schedule", "rotat", str(WRITE_SCHEDULES)),
    ],
)
def test_every_enumerated_value_is_refused_naming_field_and_choices(field, value, allowed):
    with pytest.raises(ParameterError) as ei:
        if field in FIELDS:
            RunConfig(**{field: value})
        else:  # the engine's ablation
            ParallelEMSimulation(sort(), params(sort()), **{field: value})
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

    alg = Watched(list(KEYS), v=V)
    with pytest.raises(ParameterError) as ei:
        ParallelEMSimulation(
            alg, params(alg), storage="file", storage_dir=str(root), write_schedule="rotat",
        ).run()
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


# ---------------------------------------------------------------------------
# The input picks the record plane; ``records=`` only checks it


def test_unsupported_record_mode_is_refused_before_a_root_is_claimed(private_tmpdir):
    from repro.algorithms.prefix import CGMPrefixSums
    from repro.bsp.program import AlgorithmError

    root = private_tmpdir / "tracks"
    root.mkdir()
    for storage_dir in (str(root), None):  # explicit, and an owned temp root
        with pytest.raises(AlgorithmError, match="'object'.*'vector'"):
            simulate(CGMPrefixSums(list(range(64)), 4), machine(), 4,
                     records="vector", storage="file", storage_dir=storage_dir)
    assert os.listdir(root) == []
    assert os.listdir(private_tmpdir) == ["tracks"]


@pytest.mark.parametrize(
    "make,picked,other",
    [
        (sort, "vector", "object"),  # int64 keys: a codec applies
        (lambda: CGMSampleSort(list(KEYS), v=V, key=abs), "object", "vector"),
        (lambda: CGMListRanking(SUCC, V), "vector", "object"),  # node ids
    ],
    ids=["int64-sort", "keyed-sort", "listrank"],
)
def test_the_input_picks_the_plane_and_any_other_is_refused(make, picked, other):
    from repro.bsp.program import AlgorithmError

    alg = make()
    alg.set_record_mode(picked)  # accepted, and nothing changes
    assert alg.record_mode == picked
    with pytest.raises(AlgorithmError, match=repr(picked)):
        simulate(make(), machine(), V, records=other)
    want, got = simulate(make(), machine(), V), simulate(alg, machine(), V, records=picked)
    assert plain_outputs(got[0]) == plain_outputs(want[0])
    assert got[1].ledger.summary() == want[1].ledger.summary()


class ModeProbe(CGMListRanking):
    """List ranking that refuses to load its input off the vector plane: the
    plane the input picked travels with the algorithm into a worker."""

    def initial_state(self, pid, nprocs):
        if self.record_mode != "vector":
            raise RuntimeError(f"load_input saw record_mode={self.record_mode!r}")
        return super().initial_state(pid, nprocs)


@pytest.mark.parametrize("p", [1, 2])
def test_records_reach_the_algorithm_once_on_every_entry(p):
    m = MachineParams(p=p, M=1 << 15, D=2, B=16, b=32)
    out, rep = simulate(ModeProbe(SUCC, V), m, V, records="vector")
    alg = ModeProbe(SUCC, V)
    got = ParallelEMSimulation(alg, build_params(alg, m, V), backend="process").run()
    assert plain_outputs(got[0]) == plain_outputs(out)
    assert got[1].ledger.summary() == rep.ledger.summary()


def test_crashcheck_on_the_fast_vector_plane_keeps_its_counts(tmp_path):
    """The sweep the benchmark's plane gets, and its counts."""
    res = explore(
        small_sort, MachineParams(p=1, M=1 << 14, D=2, B=16, b=16), 4, tmp_path,
        k=1, fast_io=True, context_cache=True,
    )
    actions = {}
    for o in res.outcomes:
        actions[o.action] = actions.get(o.action, 0) + 1
    assert res.passed
    # At k = 1 the four batches swap, so there are extents to verify (at
    # k = v the one batch keeps its contexts and inbox in memory: none).
    assert (res.total_points, res.checkpoints, res.extents_verified) == (20, 4, 47)
    assert actions == {"restart": 4, "resume@0": 5, "resume@1": 5, "resume@2": 5,
                       "resume@3": 1}
    # 46 (and 56 extents) before the last batch kept its inbox in memory;
    # 43 before superstep 1, which leaves the contexts alone, kept the batch
    # superstep 0 ended with in memory for superstep 2 (one fetch fewer).
    assert res.golden_summary["io_ops"] == 42
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
    """Algorithms 1 and 3 are one engine class, driving one processor class,
    which both backends build without being told which."""
    assert ParallelEMSimulation.__mro__ == (ParallelEMSimulation, object)
    assert RealProcessor.__subclasses__() == []
    assert list(inspect.signature(make_backend).parameters) == ["kind", "init_args_list"]
    # index, algorithm, params, config, spec, observe, profile
    assert len(inspect.signature(RealProcessor.__init__).parameters) - 1 <= 7
