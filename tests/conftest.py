"""Fixtures for the tests of the forked suite workers of ``verify.run_suites``."""

import os
import select
import threading

import pytest

from mzv import verify


@pytest.fixture
def usable_cpus(monkeypatch):
    """``usable_cpus(n)`` makes ``os.sched_getaffinity`` report n CPUs, so that
    ``run_suites`` forks its workers on a one-CPU machine too.  After the test
    this process has no child left, reaped or not, and no thread more."""
    threads = threading.active_count()
    yield lambda n: monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert threading.active_count() == threads


@pytest.fixture
def in_worker(monkeypatch):
    """``in_worker(suite)`` makes ``suite`` run in a forked worker: the unit
    the caller takes first, section 0 of ``asym``, waits until a unit of
    ``suite`` has started in another process.  Every other unit runs as it
    would.  Call it after planting faults in either suite."""
    started, start = os.pipe()

    def hold(suite):
        first, held = verify._SUITES["asym"], verify._SUITES[suite]

        def waiting(bounds, rng, section, memos):
            if section == 0:
                ready, _, _ = select.select([started], [], [], 60)
                assert ready, f"{suite} did not start in a worker"
            return first(bounds, rng, section, memos)

        def announced(bounds, rng, section, memos):
            os.write(start, b".")
            return held(bounds, rng, section, memos)

        monkeypatch.setitem(verify._SUITES, "asym", waiting)
        monkeypatch.setitem(verify._SUITES, suite, announced)

    yield hold
    os.close(started)
    os.close(start)
