"""Host I/O has one path: synchronous, on the engine's thread (DESIGN §12).

The overlapped plane is gone.  What is left of its option is one deprecated
keyword on ``simulate()``, which must change nothing and reach nothing
below it; and ``src/repro`` starts no thread, pool or event loop, which is
what lets crash determinism stand without a thread-timing argument.
"""

import ast
import warnings
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.core import ParallelEMSimulation, build_params, simulate
from repro.crashcheck import explore
from repro.emio.storage import FileStorage, MmapStorage, StorageSpec
from repro.params import MachineParams

from .helpers import small_sort

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
MACHINE = MachineParams(p=1, M=1 << 14, D=2, B=16, b=16)
V = 4  # small_sort's default


@pytest.mark.parametrize("plane", ["memory", "file"])
def test_io_overlap_keyword_warns_once_and_changes_nothing(plane):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # io_overlap=False is silent
        ref_out, ref = simulate(
            small_sort(), MACHINE, v=V, storage=plane, io_overlap=False
        )
    with pytest.warns(DeprecationWarning, match="DESIGN 12") as caught:
        out, rep = simulate(
            small_sort(), MACHINE, v=V, storage=plane, io_overlap=True
        )
    assert len(caught) == 1
    assert out == ref_out
    assert rep.summary() == ref.summary()
    assert rep.ledger.summary() == ref.ledger.summary()
    assert rep.io_ops == ref.io_ops


def test_nothing_below_simulate_accepts_io_overlap(tmp_path, capsys):
    alg = small_sort()
    params = build_params(alg, MACHINE, v=V)
    for build in (
        lambda: ParallelEMSimulation(alg, params, io_overlap=True),
        lambda: StorageSpec("file", str(tmp_path), io_overlap=True),
        lambda: FileStorage(tmp_path / "d0.dat", B=16, io_overlap=True),
        lambda: MmapStorage(tmp_path / "d1.dat", B=16, io_overlap=True),
        lambda: explore(small_sort, MACHINE, V, tmp_path / "cc", io_overlap=True),
    ):
        with pytest.raises(TypeError, match="io_overlap"):
            build()
    assert not hasattr(StorageSpec, "with_overlap")
    for command in ("sort", "crashcheck"):
        with pytest.raises(SystemExit):
            main([command, "--io-overlap"])
        assert "--io-overlap" in capsys.readouterr().err


def test_src_starts_no_thread_pool_or_event_loop():
    banned = {"threading", "concurrent", "asyncio"}
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] in banned for name in names):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert not offenders
