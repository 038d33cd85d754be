"""Shared test configuration.

Registers a ``ci`` hypothesis profile — derandomized, no deadline — so the
property suites behave identically on every CI run (derandomization makes
each ``@given`` derive its examples from the test name instead of a random
seed; the deadline is dropped because shared runners have noisy clocks).
Select it with ``HYPOTHESIS_PROFILE=ci``; the workflow sets that and pins
``--hypothesis-seed=0`` for the parts derandomization does not cover.

Every test also runs under a leak check: no thread and no child process
it started may still be alive when it ends.
"""

import multiprocessing
import os
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


@pytest.fixture(autouse=True)
def no_leaked_threads_or_children():
    """Nothing a test starts may outlive it: ``src/repro`` runs on one
    thread, and a process backend joins its workers on every exit path
    (the SIGKILL tests reap what they kill).  A leak is fixed at its
    source — a missing ``close()``/``join()`` — not allow-listed here."""
    before = set(threading.enumerate())
    yield
    leaked = [t.name for t in threading.enumerate() if t not in before]
    assert not leaked, f"threads left running: {leaked}"
    children = multiprocessing.active_children()
    assert not children, f"child processes left running: {children}"
