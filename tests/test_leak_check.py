"""The leak check looks at what this session made, nothing else."""

import os
import shutil
import tempfile

import pytest

from repro.emio.storage import StorageSpec

from .conftest import _storage_roots


@pytest.fixture(scope="module")
def foreign_root(session_tmpdir):
    """An ``em-storage-*`` root in the *system* temp dir, as another pytest
    session running in this container would leave one mid-run.  Module-scoped
    so that it outlives the test's own ``no_leaks`` check."""
    root = tempfile.mkdtemp(prefix="em-storage-", dir=session_tmpdir)
    yield root
    shutil.rmtree(root, ignore_errors=True)


def test_another_sessions_storage_root_is_not_this_tests_leak(foreign_root):
    assert os.path.isdir(foreign_root)
    assert foreign_root not in _storage_roots()
    # ... while a root this session makes is still seen (and, left behind,
    # would fail the test that made it).
    spec = StorageSpec.create("file")
    try:
        assert spec.root in _storage_roots()
    finally:
        spec.cleanup()
    assert spec.root not in _storage_roots()
