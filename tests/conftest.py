"""Shared pytest wiring.

Tests in test_acceptance.py carry a ``criterion(n)`` marker; after the run a
one-line PASS/FAIL verdict is printed per acceptance criterion.  Clauses
marked xfail(strict=True) are documented defects of the stated criterion:
they keep the suite green but the criterion line still reports FAIL,
honestly, naming the clause.

The ``bloch_blocks`` fixture gives the periodic Ising ring's momentum blocks
in its complex Bloch basis, an oracle independent of the package's real
blocks.

Every test must leave mpmath's shared precision as it found it (53 bits):
the package never sets it, so a change is a leak, and it fails the test
that caused it.
"""

import collections
import functools

import mpmath as mp
import numpy as np
import pytest
import scipy.sparse

from epchain import models
from epchain.models import ModelKind, ModelSpec

# criterion number -> list of (clause, outcome) with outcome in
# {"passed", "failed", "xfailed"}
_results: dict[int, list] = collections.defaultdict(list)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call":
        return
    marker = item.get_closest_marker("criterion")
    if marker is None:
        return
    number = marker.args[0]
    clause = marker.kwargs.get("clause", "")
    if report.passed:
        verdict = "passed"
    elif report.skipped and hasattr(report, "wasxfail"):
        verdict = "xfailed"
    else:
        verdict = "failed"
    _results[number].append((clause, verdict))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    tr = terminalreporter
    tr.section("acceptance criteria")
    for number in sorted(_results):
        entries = _results[number]
        hard_failures = sorted({c or "(unnamed)" for c, v in entries
                                if v == "failed"})
        defect_failures = sorted({c or "(unnamed)" for c, v in entries
                                  if v == "xfailed"})
        if hard_failures or defect_failures:
            details = []
            if hard_failures:
                details.append(f"failing clauses: {', '.join(hard_failures)}")
            if defect_failures:
                details.append(
                    "clauses failing as stated due to documented source-text "
                    f"defects: {', '.join(defect_failures)}"
                )
            tr.write_line(f"CRITERION {number}: FAIL  ({'; '.join(details)})")
        else:
            tr.write_line(f"CRITERION {number}: PASS")


@pytest.fixture(autouse=True)
def _shared_mpmath_precision_unchanged():
    prec = mp.mp.prec
    yield
    if mp.mp.prec != prec:
        leaked, mp.mp.prec = mp.mp.prec, prec  # the next test starts clean
        pytest.fail(f"mpmath's shared precision went from {prec} to "
                    f"{leaked} bits")


# ---------------------------------------------------------------------------
# the periodic Ising ring's N momentum blocks in its complex Bloch basis,
# projected from the dense matrix: an oracle for the package's real blocks
# that shares none of their code

@functools.lru_cache(maxsize=None)
def _bloch_terms(N):
    """Per m = 0 .. N-1, the Bloch basis B of momentum k = 2 pi m / N and
    B^dagger H B for the three terms of build_h_ghz at unit parameters:
    sum_l sx_l, -sum_l sz_l sz_{l+1} and i sum_l sz_l.  Column a of B is
    sum_{r < N} e^{-ikr} T^r |a>, normalized, for each orbit representative
    a (its smallest index) whose period p has m p a multiple of N; T rotates
    the bitstring by one site."""
    idx = np.arange(2 ** N)
    rots = [idx]
    for _ in range(N - 1):
        rots.append(((rots[-1] << 1) | (rots[-1] >> (N - 1))) & (2 ** N - 1))
    rots = np.array(rots)
    reps = np.flatnonzero(rots.min(axis=0) == idx)
    terms = [scipy.sparse.csr_matrix(models.build_h_ghz(ModelSpec(
        ModelKind.TRANSVERSE_ISING, N=N, **values)))
        for values in ({"J": 0.0, "Delta": 1.0}, {"J": 1.0},
                       {"J": 0.0, "gamma": 1.0})]
    out = []
    for m in range(N):
        b = np.zeros((2 ** N, reps.size), dtype=complex)
        phases = np.exp(-2j * np.pi * m * np.arange(N) / N)
        np.add.at(b, (rots[:, reps], np.arange(reps.size)), phases[:, None])
        norm = np.linalg.norm(b, axis=0)
        b = b[:, norm > 0.5] / norm[norm > 0.5]  # the other sums vanish
        out.append((b, [b.conj().T @ (t @ b) for t in terms]))
    return out


def _bloch_blocks(spec):
    """[(B_m, B_m^dagger H B_m) for m = 0 .. N-1] of a periodic Ising ring."""
    assert spec.kind is ModelKind.TRANSVERSE_ISING
    assert spec.ising_boundary is models.IsingBoundary.PERIODIC
    return [(b, spec.Delta * x + spec.J * zz + spec.gamma * z)
            for b, (x, zz, z) in _bloch_terms(spec.N)]


@pytest.fixture
def bloch_blocks():
    """The ring's Bloch bases and blocks, m = 0 .. N-1 (_bloch_blocks)."""
    return _bloch_blocks
