import os

import pytest

import flowpoly.verify
from flowpoly.lidskii import LidskiiTerms

# the LidskiiTerms box method that gives the formula side of each Lidskii suite
FORMULA_SIDES = {"eq2": "counts", "eq1": "volumes", "thm41": "c_form_counts"}


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


@pytest.fixture()
def spoil_formula(monkeypatch):
    """A setter: spoil_formula(suite) makes the formula side of the eq2,
    eq1 or thm41 suite one too large at every point of every box for the
    rest of the test.  Forked verify workers inherit the patch."""

    def spoil(suite):
        name = FORMULA_SIDES[suite]
        real = getattr(LidskiiTerms, name)
        monkeypatch.setattr(LidskiiTerms, name, lambda self, box: [v + 1 for v in real(self, box)])

    return spoil
