"""Shared test configuration.

Registers a ``ci`` hypothesis profile — derandomized, no deadline — so the
property suites behave identically on every CI run (derandomization makes
each ``@given`` derive its examples from the test name instead of a random
seed; the deadline is dropped because shared runners have noisy clocks).
Select it with ``HYPOTHESIS_PROFILE=ci``; the workflow sets that and pins
``--hypothesis-seed=0`` for the parts derandomization does not cover.

Every test also runs under a leak check: no thread, child process, open
file descriptor or owned storage root it created may outlive it.  The
session keeps its temporary files in a directory of its own, so the roots it
looks at are the ones it made.
"""

import glob
import multiprocessing
import os
import shutil
import tempfile
import threading

import pytest

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - hypothesis-free environments
    settings = None

if settings is not None:
    settings.register_profile("ci", derandomize=True, deadline=None)
    profile = os.environ.get("HYPOTHESIS_PROFILE")
    if profile:
        settings.load_profile(profile)


def _open_fds():
    """``(fd, target)`` of every open descriptor; empty where ``/proc`` is absent."""
    try:
        names = os.listdir("/proc/self/fd")
    except OSError:
        return set()
    fds = set()
    for fd in names:
        try:
            fds.add((fd, os.readlink(f"/proc/self/fd/{fd}")))
        except OSError:
            pass  # the descriptor the listing itself held
    return fds


@pytest.fixture(scope="session", autouse=True)
def session_tmpdir():
    """Point ``tempfile`` (and, through ``TMPDIR``, every child this session
    starts) at a directory only this session uses, so that ``no_leaks`` never
    blames a test for an ``em-storage-*`` root another pytest session in the
    same container made meanwhile.  Yields the temp dir it replaced."""
    system = tempfile.gettempdir()
    own = tempfile.mkdtemp(prefix="repro-pytest-", dir=system)
    saved_env = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = tempfile.tempdir = own
    try:
        yield system
    finally:
        tempfile.tempdir = system
        if saved_env is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = saved_env
        shutil.rmtree(own, ignore_errors=True)


def _storage_roots():
    """The owned roots ``StorageSpec.create`` makes when given no directory."""
    return set(glob.glob(os.path.join(tempfile.gettempdir(), "em-storage-*")))


@pytest.fixture(autouse=True)
def no_leaks():
    """Nothing a test starts or opens may outlive it: ``src/repro`` runs on
    one thread, a process backend joins its workers on every exit path (the
    SIGKILL tests reap what they kill), every storage plane closes its track
    files and an engine removes the temp root it claimed, on error paths
    too.  A leak is fixed at its source — a missing ``close()``/``join()``/
    ``cleanup()`` — not allow-listed here."""
    threads = set(threading.enumerate())
    fds, roots = _open_fds(), _storage_roots()
    yield
    leaked = [t.name for t in threading.enumerate() if t not in threads]
    assert not leaked, f"threads left running: {leaked}"
    children = multiprocessing.active_children()
    assert not children, f"child processes left running: {children}"
    leaked = sorted(_open_fds() - fds)
    assert not leaked, f"file descriptors left open: {leaked}"
    leaked = sorted(_storage_roots() - roots)
    assert not leaked, f"storage roots left behind: {leaked}"
