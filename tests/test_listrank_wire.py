"""List ranking's messages at the width of their values.

A message's values are the algorithm's integers at one codec width, the
wider of the ids' and the weights', packed into ``<i8`` records behind a
leading count of the zero pad values that fill the last record
(``listranking._frame`` / ``_values``).  So a message is ``ceil(bytes/8)``
records, the unit its contexts are counted in.  These tests hold the frame
at every width (an empty message, a one-row message whose pad must not read
as a row), the runs on both sides of each width boundary against the
reference runner and against the one-record-a-value wire, byte for byte,
with the exact referee on every plane at p = 1, 2 and 4, and ``gamma``'s
re-derived bound on the gated and probe machines.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import workloads as wl
from repro.algorithms.graphs import CGMListRanking
from repro.algorithms.graphs import listranking as lr
from repro.bsp.program import VPContext
from repro.bsp.runner import run_reference
from repro.conform.oracles import canonical_record, check_theorem1_io, record_bytes
from repro.core import ParallelEMSimulation, build_params, simulate
from repro.params import MachineParams

from .helpers import PLANES

DTYPES = [np.dtype("<i2"), np.dtype("<i4"), np.dtype("<i8")]


class OneRecordAValue(CGMListRanking):
    """The same algorithm on the wire before narrowing: one ``<i8`` record
    a value."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._wire = np.dtype("<i8")


# -- the frame ------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(DTYPES), st.data())
def test_a_frame_holds_its_values_in_bytes_over_8_records(dtype, data):
    info = np.iinfo(dtype)
    values = np.array(data.draw(st.lists(st.integers(info.min, info.max), max_size=40)),
                      dtype=np.int64)
    cut = data.draw(st.integers(0, len(values)))
    payload = lr._frame(dtype, values[:cut], values[cut:])
    assert payload.dtype == np.dtype("<i8") and payload.flags.c_contiguous
    assert len(payload) == -(-(1 + len(values)) * dtype.itemsize // 8)
    got = lr._values(dtype, payload)
    assert got.dtype == dtype
    assert not len(values) or np.shares_memory(got, payload)  # zero-copy
    assert got.astype(np.int64).tolist() == values.tolist()


@pytest.mark.parametrize("dtype", DTYPES)
def test_an_empty_message_is_one_record_of_no_values(dtype):
    payload = lr._frame(dtype)
    assert len(payload) == 1
    assert len(lr._values(dtype, payload)) == 0


@pytest.mark.parametrize("dtype,pad", [(np.dtype("<i2"), 1), (np.dtype("<i4"), 1),
                                       (np.dtype("<i8"), 0)])
def test_a_one_row_messages_pad_is_not_a_row(dtype, pad):
    """``(x, rank)`` with a negative rank: one record at i16 with a zero pad
    value behind it, which a receiver taking rows of two would misread."""
    payload = lr._frame(dtype, np.array([7, -3]))
    vals = payload.view(dtype)
    assert int(vals[0]) == pad and len(vals) == 3 + pad
    assert lr._values(dtype, payload).tolist() == [7, -3]


# -- the runs at the width boundaries ------------------------------------------------


def _weights(n, seed, total, sign=1):
    """Weights whose magnitudes sum to ``total``, split over the head and
    its successor, so the head's rank reaches it exactly."""
    succ = wl.random_linked_list(n, seed=seed)
    head = (set(range(n)) - set(succ)).pop()
    values = [0] * n
    values[head], values[succ[head]] = sign * (total // 2), sign * (total - total // 2)
    return succ, values


#: name -> (succ, values, v, the wire's width in bytes)
CASES = {
    "ids_2^15": (wl.random_linked_list(1 << 15, seed=3), None, 8, 2),
    "ids_2^15+1": (wl.random_linked_list((1 << 15) + 1, seed=3), None, 8, 4),
    "sum_i32": (*_weights(300, 4, (1 << 31) - 1), 4, 4),
    "sum_past_i32": (*_weights(300, 4, 1 << 31), 4, 8),
    "negative": (*_weights(300, 5, 1 << 15, sign=-1), 4, 4),
    "in_order": (list(range(1, 300)) + [299], None, 4, 2),
}


def _run(case, p, cls=CGMListRanking, **knobs):
    """``case`` on ``p`` processors holding one context each (so messages go
    to disk), with blocks of 16 records (256 for the 2^15-node lists)."""
    succ, values, v, _size = CASES[case]
    alg = cls(succ, v, values=values)
    B = 256 if len(succ) > 1000 else 16
    machine = MachineParams(p=p, M=alg.context_size(), D=2, B=B, b=B)
    return ParallelEMSimulation(alg, build_params(alg, machine, v, k=1), **knobs).run()


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_wire_takes_the_width_of_ids_and_weights(case):
    succ, values, v, size = CASES[case]
    assert CGMListRanking(succ, v, values=values)._wire.itemsize == size


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("case", sorted(CASES))
def test_every_plane_ranks_alike_at_the_width_boundaries(case, p):
    """Outputs equal the reference runner's and the one-record-a-value
    wire's, pickled; every plane's golden record is the same, the referee
    is exact, and the narrow wire moves no more message blocks."""
    succ, values, v, _size = CASES[case]
    want = pickle.dumps(run_reference(CGMListRanking(succ, v, values=values), v)[0])
    outputs, wide = _run(case, p, OneRecordAValue)
    assert pickle.dumps(outputs) == want
    records = set()
    for name, knobs in PLANES:
        outputs, report = _run(case, p, **knobs)
        assert pickle.dumps(outputs) == want, name
        assert check_theorem1_io(report.params, report)[0] == [], name
        records.add(record_bytes(canonical_record(outputs, report)))
    assert len(records) == 1
    blocks = [sum(s.message_blocks for s in r.supersteps) for r in (report, wide)]
    assert 0 < blocks[0] <= blocks[1]


def test_a_one_row_message_runs_with_its_pad(monkeypatch):
    """A list in node order links each vp to the next by one pair: every
    link-back message to another vp is one row and one pad value at i16."""
    sent = []
    real = VPContext.send

    def send(self, dest, payload):
        sent.append((self.step, dest != self.pid, payload))
        real(self, dest, payload)

    monkeypatch.setattr(VPContext, "send", send)
    succ, _values, v, _size = CASES["in_order"]
    outputs = run_reference(CGMListRanking(succ, v), v)[0]
    link_back = [payload for step, away, payload in sent if step == 0 and away]
    assert len(link_back) == v - 1
    for payload in link_back:
        vals = payload.view("<i2")
        assert len(payload) == 1 and int(vals[0]) == 1
    ranks = dict(pair for part in outputs for pair in part)
    assert ranks == {u: len(succ) - 1 - u for u in range(len(succ))}


# -- gamma in wire records ------------------------------------------------------------


#: The suite's gated listrank_par_default machine and the two n = 2^15 probes.
MACHINES = {
    "gated": (32, dict(p=4, M=1 << 20, D=4, B=32, b=64)),
    "probe_p4": (64, dict(p=4, M=8192, D=4, B=32, b=64)),
    "probe_p1": (64, dict(p=1, M=8192, D=4, B=32, b=64)),
}


@pytest.mark.parametrize("name", sorted(MACHINES))
def test_the_declared_gamma_is_at_least_half_used(name):
    """``gamma`` counts wire records (values plus a pad count a message,
    at most one pad record each): a bound the largest inbox comes within a
    factor of two of."""
    v, machine = MACHINES[name]
    n = 1 << 15
    order = np.random.default_rng(3).permutation(n)
    succ = np.empty(n, dtype=np.int64)
    succ[order[:-1]], succ[order[-1]] = order[1:], order[-1]
    alg = CGMListRanking(succ.tolist(), v)
    params = build_params(alg, MachineParams(**machine), v)
    _outputs, report = simulate(alg, MachineParams(**machine), v=v, seed=3)
    gamma = params.bsp.gamma
    assert 0.5 <= report.gamma_used / gamma <= 1
    assert (report.gamma_used, gamma) == {
        "gated": (964, 1596), "probe_p4": (468, 888), "probe_p1": (468, 888)}[name]
