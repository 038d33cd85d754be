"""Out-of-core proof: the file plane runs datasets the heap cannot hold.

Two enforcement mechanisms, per the storage-plane promise:

* **tracemalloc** — the peak Python heap of an :class:`OutOfCoreSort` run
  under ``FileStorage`` stays at most 1/4 of the honestly measured
  serialized dataset size.  The dataset is generated per-share inside the
  algorithm and digested on output (see :mod:`repro.outofcore`), so the
  only O(n) the host could hold would be storage-plane leakage — exactly
  what this pins down.
* **resource.setrlimit(RLIMIT_AS)** — a subprocess caps its own address
  space at baseline + budget; the file plane completes and verifies under
  the cap while the memory plane, which necessarily materializes every
  block in heap, dies with ``MemoryError`` under the *same* cap.

The RSS pair runs one size smaller than the tracemalloc case to keep the
suite quick; the headline ≥ 4x dataset/heap ratio is asserted in the
tracemalloc test.
"""

import os
import subprocess
import sys
import textwrap

import pytest

from repro.core.simulator import simulate
from repro.outofcore import (
    OutOfCoreSort,
    serialized_size,
    stream_checksum,
    verify_digests,
)
from repro.params import MachineParams

SEED = 0
RECLEN = 64


def _machine(alg, D=8, B=1024):
    # One context in memory, but never less than a block a drive.
    return MachineParams(p=1, M=max(alg.context_size(), D * B), D=D, B=B)


class TestDigests:
    def test_digest_sort_small_matches_checksums(self):
        alg = OutOfCoreSort(4096, 16, seed=SEED, reclen=RECLEN)
        out, _report = simulate(alg, _machine(alg, D=4, B=64), v=16, seed=SEED)
        verify_digests(out, SEED, 4096, 16, RECLEN)

    def test_digest_detects_missing_records(self):
        alg = OutOfCoreSort(4096, 16, seed=SEED, reclen=RECLEN)
        out, _report = simulate(alg, _machine(alg, D=4, B=64), v=16, seed=SEED)
        out[3] = dict(out[3], count=out[3]["count"] - 1)
        with pytest.raises(AssertionError):
            verify_digests(out, SEED, 4096, 16, RECLEN)

    def test_int_records_still_supported(self):
        alg = OutOfCoreSort(1024, 8, seed=SEED)
        out, _report = simulate(alg, _machine(alg, D=4, B=64), v=8, seed=SEED)
        verify_digests(out, SEED, 1024, 8)
        assert stream_checksum(SEED, 1024, 8)[0] == 1024


class TestTracemallocBudget:
    #: 320k 64-byte records ≈ 20.5 MiB pickled; measured peak ≈ 4.3 MiB.
    N, V = 320_000, 64

    def test_file_plane_peak_heap_quarter_of_dataset(self):
        import tracemalloc

        alg = OutOfCoreSort(self.N, self.V, seed=SEED, reclen=RECLEN)
        machine = _machine(alg)
        serialized = serialized_size(SEED, self.N, self.V, RECLEN)
        tracemalloc.start()
        tracemalloc.reset_peak()
        out, _report = simulate(
            alg, machine, v=self.V, seed=SEED, storage="file"
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        verify_digests(out, SEED, self.N, self.V, RECLEN)
        assert 4 * peak <= serialized, (
            f"peak heap {peak} exceeds 1/4 of the {serialized}-byte dataset"
        )


_RSS_CHILD = textwrap.dedent("""
    import resource, sys

    def vmsize():
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmSize:"):
                    return int(line.split()[1]) * 1024

    from repro.core.simulator import simulate
    from repro.outofcore import OutOfCoreSort, verify_digests
    from repro.params import MachineParams

    plane, budget = sys.argv[1], int(sys.argv[2])
    cap = vmsize() + budget
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    alg = OutOfCoreSort(160_000, 64, seed=0, reclen=64)
    machine = MachineParams(p=1, M=alg.context_size(), D=8, B=1024)
    out, _report = simulate(alg, machine, v=64, seed=0, storage=plane)
    verify_digests(out, 0, 160_000, 64, 64)
    print("COMPLETED")
""")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS semantics")
class TestRlimitCap:
    """160k 64-byte records ≈ 10 MiB pickled; the memory plane needs all of
    it (plus Block/dict overhead) live in heap, the file plane a few blocks.

    Measured here as ``VmPeak`` less ``VmSize`` at the moment the child sets
    its cap (two runs each, equal to 0.01 MiB): the file plane peaks 5.7 MiB
    above it, the memory plane 23.6 MiB — it was 33.8 while the context
    cache kept a pickled second copy of every context the kernel also held,
    and 23.6 fits the 24 MiB this class used to allow.  The budget is the
    geometric middle of the pair: the file plane has twice what it needs,
    the memory plane half.
    """

    #: Address-space budget above the interpreter baseline.
    BUDGET = 12 << 20

    def _run(self, plane):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                        env.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, "-c", _RSS_CHILD, plane, str(self.BUDGET)],
            env=env, capture_output=True, text=True, timeout=300,
        )

    def test_file_plane_completes_under_cap(self):
        r = self._run("file")
        assert r.returncode == 0, r.stderr
        assert "COMPLETED" in r.stdout

    def test_memory_plane_violates_same_cap(self):
        r = self._run("memory")
        assert r.returncode != 0
        assert "MemoryError" in r.stderr
