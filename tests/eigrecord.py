"""A recording spectral.min_eigenvalue, for the tests of which start vector
each λ_min solve receives."""

from kwlab import spectral
from kwlab.errors import EigenSolveError


def record_eig_calls(monkeypatch, fail_at=()):
    """Wrap spectral.min_eigenvalue; returns the list of its calls in order,
    each a dict of its potential V, its start, its λ and the Ritz vector x
    it returned. A call whose index is in fail_at solves and then raises
    EigenSolveError, and its x is None."""
    calls = []
    original = spectral.min_eigenvalue

    def recorded(V, tol, max_iters=None, start=None):
        lam, x = original(V, tol, max_iters, start)
        failed = len(calls) in fail_at
        calls.append({"V": V, "start": start, "lam": lam, "x": None if failed else x})
        if failed:
            raise EigenSolveError("forced non-convergence", lam)
        return lam, x

    monkeypatch.setattr(spectral, "min_eigenvalue", recorded)
    return calls


def assert_threaded(calls):
    """The first call starts from the seeded vector (start None) and every
    later one from the x of the last converged call before it."""
    last = None
    for call in calls:
        assert call["start"] is last
        if call["x"] is not None:
            last = call["x"]
