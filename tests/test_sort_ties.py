"""The sample sort's bucket bound holds for every input, and the declared
``mu`` and ``gamma`` are bounds the runs fill.

With ``s = max(v, floor(m/v))`` regular samples a vp (``m = ceil(n/v)``),
a bucket holds at most ``(s+v)*m/(s+1) < min(2m, m + v^2)`` records, but
only if no two keys are equal; the sort therefore orders records by
``(key, global position in the sorted runs)``
(:mod:`repro.algorithms.sorting`).  These tests drive duplicate-heavy
inputs through both record planes — the codec path's vector kernels, and the
list-state path on the same values by an identity key — at one and two
processors, with the engine enforcing ``mu`` at every context save and
``gamma`` at every inbox.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.graphs import CGMListRanking
from repro.algorithms.permutation import CGMPermutation
from repro.algorithms.sorting import CGMSampleSort
from repro.bsp.runner import run_reference
from repro.core.simulator import simulate
from repro.params import MachineParams
from repro.workloads import random_linked_list

from .helpers import PerRecordListRanking, list_state_sort

N = 8192


def _machine(p: int, alg) -> MachineParams:
    # Four contexts a processor in memory (one block a drive at least): the
    # larger runs swap, and every context is measured against mu when saved.
    return MachineParams(p=p, M=max(4 * alg.context_size(), 256), D=4, B=64, b=128)


def _keys(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(7)
    if kind == "all-equal":
        return np.full(n, 5, dtype=np.int64)
    if kind == "two-key":
        return rng.integers(0, 2, n, dtype=np.int64)
    if kind == "three-key":
        return rng.integers(0, 3, n, dtype=np.int64)
    if kind == "sorted":
        return np.arange(n, dtype=np.int64)
    if kind == "reversed":
        return np.arange(n, dtype=np.int64)[::-1].copy()
    return rng.integers(0, 1 << 30, n, dtype=np.int64)


def _sort(records: str, data: np.ndarray, v: int) -> CGMSampleSort:
    return CGMSampleSort(data, v) if records == "vector" else list_state_sort(data, v)


def _bound(n: int, v: int) -> int:
    """The bucket bound, from the module docstring's formula."""
    m = -(-n // v)
    s = max(v, m // v)
    return (s + v) * m // (s + 1)


def _check_sorted(outputs, data, v: int) -> None:
    flat = np.concatenate([np.asarray(o, dtype=np.int64) for o in outputs])
    assert np.array_equal(flat, np.sort(np.asarray(data, dtype=np.int64)))
    assert max(len(o) for o in outputs) <= _bound(len(data), v)


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("records", ["object", "vector"])
@pytest.mark.parametrize("v", [8, 32, 64])
@pytest.mark.parametrize("kind", ["all-equal", "two-key", "three-key"])
def test_duplicate_heavy_input_sorts_inside_the_bucket_bound(kind, v, records, p):
    data = _keys(kind, N)
    alg = _sort(records, data, v)
    outputs, report = simulate(alg, _machine(p, alg), v)
    _check_sorted(outputs, data, v)
    assert report.mu_used <= report.params.bsp.mu
    assert report.gamma_used <= report.params.bsp.gamma


KINDS = ["sorted", "reversed", "all-equal", "two-key", "three-key", "random"]


#: (n, v, s): at v = 8 the sample count leaves v at m = 72 (n = 569); at
#: v = 16 at m = 272 (n = 4337).  The rows on either side of each switch,
#: and one far past it.
SWITCH = [(568, 8, 8), (576, 8, 9), (8192, 8, 128), (4336, 16, 16), (4352, 16, 17)]


@pytest.mark.parametrize("records", ["object", "vector"])
@pytest.mark.parametrize("n,v,s", SWITCH, ids=[f"n{n}-v{v}-s{s}" for n, v, s in SWITCH])
@pytest.mark.parametrize("kind", KINDS)
def test_every_bucket_is_inside_the_oversampled_bound(kind, n, v, s, records):
    """The largest bucket is at most ``(s+v)*m/(s+1)`` on every input, on
    both sides of the ``s = v`` switch, and no superstep's traffic is
    refused by the ``gamma`` declared from it (the engine raises if it is)."""
    data = _keys(kind, n)
    alg = _sort(records, data, v)
    m = -(-n // v)
    assert alg.samples_per_vp() == s and alg.bucket_bound() == _bound(n, v)
    assert alg.bucket_bound() < min(2 * m, m + v * v)
    outputs, report = simulate(alg, _machine(2, alg), v)
    _check_sorted(outputs, data, v)
    assert max(len(o) for o in outputs) <= alg.bucket_bound()
    assert report.gamma_used <= report.params.bsp.gamma


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize("kind", ["all-equal", "three-key"])
def test_both_record_planes_cut_ties_alike(kind, p):
    """The vector plane's lexsort and searchsorted cuts are the list-state
    path's sorted pairs and bisects on the same values: every share agrees."""
    data, v = _keys(kind, 2048), 16
    shares = []
    for alg in (_sort("vector", data, v), _sort("object", data, v)):
        outputs, _report = simulate(alg, _machine(p, alg), v)
        shares.append([list(o) for o in outputs])
    assert shares[0] == shares[1]


@pytest.mark.parametrize("kind", ["all-equal", "two-key", "three-key"])
def test_the_object_path_breaks_ties_by_position_too(kind):
    """Records sorted by a ``key`` take the list-state path; equal keys
    keep their input order there, as a stable sort's do."""
    v = 16
    data = [(int(x), i) for i, x in enumerate(_keys(kind, 1024))]
    alg = CGMSampleSort(data, v, key=lambda r: r[0])
    outputs, _report = simulate(alg, _machine(1, alg), v)
    assert [r for out in outputs for r in out] == sorted(data, key=lambda r: r[0])
    assert max(len(o) for o in outputs) <= _bound(len(data), v)


def test_distinct_keys_cut_where_they_always_did():
    """With no key repeated, ``(key, position)`` orders records as the key
    does: every vp's bucket is the records between consecutive splitters."""
    v = 16
    data = np.random.default_rng(1).permutation(8192).astype(np.int64)
    alg = CGMSampleSort(data, v)
    s = alg.samples_per_vp()
    assert s == 32
    outputs, _ = run_reference(alg, v)
    keys = np.sort(data)
    edges = np.cumsum([0, *(len(o) for o in outputs)])
    # The splitters are every s-th of the vps' s regular samples each; each
    # bucket after the first starts at one of them.
    samples = np.concatenate([
        np.sort(part)[[(i + 1) * len(part) // (s + 1) for i in range(s)]]
        for part in np.array_split(data, v)
    ])
    splitters = np.sort(samples)[[(i + 1) * s for i in range(v - 1)]]
    assert keys[edges[1:-1]].tolist() == splitters.tolist()


@settings(max_examples=25, deadline=None)
@given(
    v=st.sampled_from([2, 4, 8]),
    extra=st.integers(0, 200),
    shape=st.sampled_from(["sorted", "reversed", "dups"]),
    distinct=st.integers(1, 4),
    p=st.sampled_from([1, 2]),
)
def test_no_input_trips_mu_or_gamma(v, extra, shape, distinct, p):
    n = v * v + extra
    if shape == "sorted":
        data = np.arange(n, dtype=np.int64)
    elif shape == "reversed":
        data = np.arange(n, dtype=np.int64)[::-1].copy()
    else:
        data = np.random.default_rng(n).integers(0, distinct, n, dtype=np.int64)
    alg = CGMSampleSort(data, v)
    outputs, report = simulate(alg, _machine(p, alg), v)
    _check_sorted(outputs, data, v)
    assert report.mu_used <= report.params.bsp.mu
    assert report.gamma_used <= report.params.bsp.gamma


@pytest.mark.parametrize("task,records", [
    ("sort", "vector"), ("permutation", "vector"),
    ("listranking", "object"), ("listranking", "vector"),
])
def test_the_declared_mu_is_at_least_half_used(task, records):
    """``mu`` is a bound the run comes within a factor of two of, so
    ``k = floor(M/mu)`` fills memory with what the contexts hold — on the
    vector plane int64 input picks, and for list ranking's per-record
    removal rule too (its contexts are the same bytes).  List ranking's
    fixed-width contexts come within 10%: its ``mu`` is the measured size of
    its largest state.  The sort's oversampled bucket bound is pinned where
    this input fills it: 1184 of 1276 records (0.928; 1691 of 2064, 0.819,
    with ``v`` samples a vp).  The list-state path of other input declares
    a generous ``mu`` by design."""
    n, v = 1 << 14, 16
    rng = np.random.default_rng(3)
    keys = rng.integers(0, 1 << 30, n, dtype=np.int64)
    if task == "sort":
        alg = CGMSampleSort(keys, v)
    elif task == "permutation":
        alg = CGMPermutation(keys, rng.permutation(n).astype(np.int64), v)
    else:
        cls = PerRecordListRanking if records == "object" else CGMListRanking
        alg = cls(random_linked_list(n, seed=3), v)
    _outputs, report = simulate(alg, _machine(1, alg), v)
    bsp = report.params.bsp
    assert (0.9 if task == "listranking" else 0.5) <= report.mu_used / bsp.mu <= 1
    assert 0 < report.gamma_used <= bsp.gamma
    if task == "sort":
        assert (report.mu_used, bsp.mu) == (1184, 1276)
