"""Crash durability on the file plane: SIGKILL a worker, resume elsewhere.

The recovery story the in-memory plane could never actually test: a
``ProcessBackend`` worker is killed mid-superstep (not an injected fault —
a real ``SIGKILL``), the engine's last checkpoint is pickled to disk like a
production system would persist it, and a *fresh process* pointing at the
same ``storage_dir`` resumes.  Because checkpoints on non-memory planes
carry storage references (fsynced track files + allocation metadata), the
resume re-attaches the on-disk data in place — zero recovery I/O, no
rehydration — and must still produce the reference outputs.
"""

import os
import pickle
import signal
import subprocess
import sys
import textwrap

import pytest

from repro.algorithms.sorting import CGMSampleSort
from repro.core.parsim import ParallelEMSimulation
from repro.core.simulator import build_params
from repro.params import MachineParams
from repro.workloads import uniform_keys

N, V, SEED = 512, 8, 0


class KillerSort(CGMSampleSort):
    """Sample sort that SIGKILLs its own worker process at superstep 1.

    The kill is armed by a flag file, so the algorithm is inert during the
    resumed run (and in the engine process, whose pid is recorded before
    the workers fork).
    """

    def __init__(self, data, v, flag_path: str):
        super().__init__(data, v)
        self.flag_path = flag_path
        self.host_pid = os.getpid()

    def superstep(self, ctx) -> None:
        if (
            ctx.step == 1
            and os.getpid() != self.host_pid
            and os.path.exists(self.flag_path)
        ):
            try:
                os.unlink(self.flag_path)
            except FileNotFoundError:  # pragma: no cover - sibling won the race
                pass
            os.kill(os.getpid(), signal.SIGKILL)
        super().superstep(ctx)


def _machine(p=2):
    return MachineParams(p=p, M=1 << 18, D=4, B=16, b=32)


def _reference_outputs():
    alg = CGMSampleSort(uniform_keys(N, seed=SEED), v=V)
    sim = ParallelEMSimulation(alg, build_params(alg, _machine(), v=V), seed=SEED)
    outputs, _report = sim.run()
    return outputs


_RESUME_CHILD = textwrap.dedent("""
    import json, pickle, sys

    from repro.algorithms.sorting import CGMSampleSort
    from repro.core.parsim import ParallelEMSimulation
    from repro.core.simulator import build_params
    from repro.params import MachineParams
    from repro.workloads import uniform_keys

    ckpt_path, storage_dir = sys.argv[1], sys.argv[2]
    with open(ckpt_path, "rb") as fh:
        ckpt = pickle.load(fh)
    alg = CGMSampleSort(uniform_keys(512, seed=0), v=8)
    machine = MachineParams(p=2, M=1 << 18, D=4, B=16, b=32)
    sim = ParallelEMSimulation(
        alg, build_params(alg, machine, v=8), seed=0,
        backend="process", checkpoint=True,
        storage="file", storage_dir=storage_dir,
    )
    outputs, report = sim.resume_from_checkpoint(ckpt)
    print(json.dumps({
        "outputs": outputs,
        "resumed_from": report.faults.resumed_from_step,
        "recovery_io_ops": report.faults.recovery_io_ops,
    }))
""")


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="SIGKILL protocol assumes fork workers",
)
class TestWorkerKillResume:
    def test_sigkill_worker_then_resume_in_fresh_process(self, tmp_path):
        flag = tmp_path / "kill.flag"
        flag.write_text("armed")
        storage_dir = str(tmp_path / "tracks")
        ckpt_path = tmp_path / "last.ckpt"

        alg = KillerSort(uniform_keys(N, seed=SEED), v=V, flag_path=str(flag))
        dying = ParallelEMSimulation(
            alg, build_params(alg, _machine(), v=V), seed=SEED,
            backend="process", checkpoint=True,
            storage="file", storage_dir=storage_dir,
        )
        with pytest.raises((EOFError, OSError, BrokenPipeError)):
            dying.run()
        assert not flag.exists(), "the worker died before disarming the flag"
        ckpt = dying.last_checkpoint
        assert ckpt is not None
        assert ckpt.storage_refs is not None
        ckpt_path.write_bytes(pickle.dumps(ckpt, pickle.HIGHEST_PROTOCOL))

        # The track files survived the crash (the engine does not own an
        # explicit storage_dir, so shutdown must leave it in place).
        assert os.path.isdir(os.path.join(storage_dir, "proc0"))

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(os.path.dirname(__file__), "..", "src"),
                        env.get("PYTHONPATH")) if p
        )
        child = subprocess.run(
            [sys.executable, "-c", _RESUME_CHILD, str(ckpt_path), storage_dir],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 0, child.stderr
        import json

        got = json.loads(child.stdout.strip().splitlines()[-1])
        assert got["outputs"] == _reference_outputs()
        assert got["resumed_from"] == ckpt.step
        # Re-attach, not rehydrate: restoring by reference costs no I/O.
        assert got["recovery_io_ops"] == 0

    def test_resume_in_same_process_reattaches(self, tmp_path):
        """Same protocol without the process boundary: a second engine in
        this process re-attaches the dead run's storage_dir directly."""
        flag = tmp_path / "kill.flag"
        flag.write_text("armed")
        storage_dir = str(tmp_path / "tracks")

        alg = KillerSort(uniform_keys(N, seed=SEED), v=V, flag_path=str(flag))
        dying = ParallelEMSimulation(
            alg, build_params(alg, _machine(), v=V), seed=SEED,
            backend="process", checkpoint=True,
            storage="file", storage_dir=storage_dir,
        )
        with pytest.raises((EOFError, OSError, BrokenPipeError)):
            dying.run()
        ckpt = dying.last_checkpoint
        assert ckpt is not None

        clean = CGMSampleSort(uniform_keys(N, seed=SEED), v=V)
        fresh = ParallelEMSimulation(
            clean, build_params(clean, _machine(), v=V), seed=SEED,
            backend="process", checkpoint=True,
            storage="file", storage_dir=storage_dir,
        )
        outputs, report = fresh.resume_from_checkpoint(ckpt)
        assert outputs == _reference_outputs()
        assert report.faults.resumed_from_step == ckpt.step
        assert report.faults.recovery_io_ops == 0
