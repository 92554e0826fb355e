import os

import pytest

import flowpoly.verify


@pytest.fixture()
def workers(monkeypatch):
    """A setter: workers(n) sets FLOWPOLY_WORKERS to n on a box that reports
    n usable CPUs, so that the verify suites really split over n processes.
    When the test ends, no child process may be left unreaped."""

    def use(n):
        monkeypatch.setenv("FLOWPOLY_WORKERS", str(n))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        assert flowpoly.verify._worker_count(10) == n

    yield use
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
