"""Tests for phase-diagram sweeps, boundary extraction and the gamma
optimizer."""

import math
import os
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from epchain import analysis, bethe, cli, dynamics, exact, linalg, models, serialize
from epchain.errors import ConfigError, NoBracket, NoRoot, NoTransition
from epchain.models import ModelKind, ModelSpec


def xy(N, V=0.0, gamma=0.0):
    return ModelSpec(ModelKind.XY_MAGNON, N=N, V=V, gamma=gamma)


def ising(N, J=1.0, Delta=0.0, gamma=0.0):
    return ModelSpec(ModelKind.TRANSVERSE_ISING, N=N, J=J, Delta=Delta,
                     gamma=gamma)


# ---------------------------------------------------------------------------
# max_im_epsilon

def test_max_im_hermitian_is_zero():
    assert analysis.max_im_epsilon(xy(6, V=2.0)) < 1e-10


def test_max_im_matches_broken_pair_formula():
    root = bethe.broken_pair_kappa(6, 1.2)
    got = analysis.max_im_epsilon(xy(6, gamma=1.2))
    assert got == pytest.approx(2 * math.sinh(root.momentum.imag), abs=1e-8)


def test_max_im_ising_kronecker_sum():
    # J=0 chain is a sum of independent single spins: the largest imaginary
    # part is N*sqrt(gamma^2 - Delta^2) (all sites contributing coherently);
    # checked against direct diagonalization only
    spec = ising(4, J=0.0, Delta=1.0, gamma=2.0)
    expected = 4 * math.sqrt(2.0 ** 2 - 1.0 ** 2)
    assert analysis.max_im_epsilon(spec) == pytest.approx(expected, rel=1e-10)
    direct = np.max(np.abs(np.linalg.eigvals(models.build_h_ghz(spec)).imag))
    assert analysis.max_im_epsilon(spec) == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# axes and grids

def test_axis_spec_scales():
    log_axis = analysis.AxisSpec.from_range("V", 1.0, 100.0, "log", 3)
    assert np.allclose(log_axis.values, [1.0, 10.0, 100.0])
    lin_axis = analysis.AxisSpec.from_range("gamma", 0.0, 1.0, "lin", 3)
    assert np.allclose(lin_axis.values, [0.0, 0.5, 1.0])
    with pytest.raises(ValueError):
        analysis.AxisSpec.from_range("V", -1.0, 10.0, "log", 5)
    with pytest.raises(ValueError):
        analysis.AxisSpec.from_range("V", 1.0, 10.0, "cubic", 5)


def test_sweep_grid_gamma_zero_column_unbroken():
    grid = analysis.sweep_grid(
        xy(6),
        analysis.AxisSpec.from_range("V", 1.0, 5.0, "lin", 4),
        analysis.AxisSpec("gamma", "lin", np.array([0.0, 0.5])),
    )
    assert grid.values.shape == (4, 2)
    assert not grid.broken_mask[:, 0].any()


def test_sweep_grid_descending_boundary():
    # XY grid: the unbroken region sits below a boundary that descends with V
    grid = analysis.sweep_grid(
        xy(6),
        analysis.AxisSpec.from_range("V", 3.0, 30.0, "log", 6),
        analysis.AxisSpec.from_range("gamma", 1e-5, 1.0, "log", 24),
    )
    first_broken = []
    for i in range(6):
        broken = np.nonzero(grid.broken_mask[i])[0]
        assert len(broken) > 0
        # once broken, stays broken as gamma grows
        assert np.array_equal(broken,
                              np.arange(broken[0], grid.values.shape[1]))
        first_broken.append(broken[0])
    assert all(b2 <= b1 for b1, b2 in zip(first_broken, first_broken[1:]))


def test_sweep_grid_deterministic_under_thread_cap():
    axes = (
        analysis.AxisSpec.from_range("V", 2.0, 8.0, "lin", 3),
        analysis.AxisSpec.from_range("gamma", 0.1, 1.0, "lin", 3),
    )
    old = os.environ.get("EPCHAIN_THREADS")
    try:
        os.environ["EPCHAIN_THREADS"] = "1"
        g1 = analysis.sweep_grid(xy(6), *axes)
        os.environ["EPCHAIN_THREADS"] = "4"
        g2 = analysis.sweep_grid(xy(6), *axes)
    finally:
        if old is None:
            os.environ.pop("EPCHAIN_THREADS", None)
        else:
            os.environ["EPCHAIN_THREADS"] = old
    assert np.array_equal(g1.values, g2.values)


def test_sweep_grid_rows_identical_across_thread_counts(monkeypatch):
    # 7 rows: neither 3 nor 4 workers divide them evenly
    axes = (
        analysis.AxisSpec.from_range("V", 2.0, 100.0, "log", 7),
        analysis.AxisSpec.from_range("gamma", 1e-8, 1.0, "log", 9),
    )
    grids = []
    for threads in ("1", "3", "4"):
        monkeypatch.setenv("EPCHAIN_THREADS", threads)
        grids.append(analysis.sweep_grid(xy(8), *axes).values)
    assert np.array_equal(grids[0], grids[1])
    assert np.array_equal(grids[0], grids[2])


def test_sweep_grid_failed_node_is_nan_and_cli_exits_3(monkeypatch, tmp_path):
    axes = (
        analysis.AxisSpec.from_range("V", 2.0, 8.0, "lin", 3),
        analysis.AxisSpec.from_range("gamma", 0.1, 1.0, "lin", 2),
    )
    kernel = linalg.eigvals_stack
    injected = None  # the kernel flags the V=5 matrices as failed

    def kernel_failing_at_v5(stack):
        at_v5 = stack[:, 0, 0].real == 5.0
        if injected is not None and at_v5.any():
            raise injected("injected failure")
        vals, ok = kernel(stack)
        return vals, ok & ~at_v5

    monkeypatch.setattr(linalg, "eigvals_stack", kernel_failing_at_v5)
    grid = analysis.sweep_grid(xy(6), *axes)
    assert np.array_equal(np.isnan(grid.values), [[0, 0], [1, 1], [0, 0]])
    rc = cli.main(["phase-diagram", "--model", "xy", "--n", "6",
                   "--x-range", "2:8:lin:3", "--gamma-range", "0.1:1:lin:2",
                   "--out", str(tmp_path / "grid.csv")])
    assert rc == 3
    injected = RuntimeError  # not a node failure: must propagate
    with pytest.raises(RuntimeError, match="injected failure"):
        analysis.sweep_grid(xy(6), *axes)


def test_sweep_workers_from_environment(monkeypatch, tmp_path, capsys):
    for env, workers in (("3", 3), ("0", 1), ("-2", 1)):
        monkeypatch.setenv("EPCHAIN_THREADS", env)
        assert analysis._sweep_workers() == workers
    monkeypatch.setenv("EPCHAIN_THREADS", "abc")
    with pytest.raises(ConfigError, match="EPCHAIN_THREADS"):
        analysis._sweep_workers()
    rc = cli.main(["phase-diagram", "--model", "xy", "--n", "4",
                   "--x-range", "2:8:lin:2", "--gamma-range", "0.1:1:lin:2",
                   "--out", str(tmp_path / "grid.csv")])
    assert rc == 2
    assert "EPCHAIN_THREADS" in capsys.readouterr().err


def test_sweep_workers_default_counts_the_allowed_cpus(monkeypatch):
    # under an affinity mask (taskset) the machine has more CPUs than the
    # process may run on; the pool is sized to the latter
    monkeypatch.delenv("EPCHAIN_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5, 7},
                        raising=False)
    assert analysis._sweep_workers() == 3
    monkeypatch.delattr(os, "sched_getaffinity")  # no such call on the platform
    assert analysis._sweep_workers() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert analysis._sweep_workers() == 1


@pytest.mark.parametrize("template, name", [
    (ising(6, Delta=0.5), "V"), (xy(6), "Delta"), (xy(6), "gamma"),
    (ising(6, Delta=0.5), "gamma")])
def test_sweep_grid_x_axis_is_the_control_parameter(template, name):
    # an x-axis the Hamiltonian never reads would give a grid constant in x
    with pytest.raises(ValueError, match="unknown sweep parameter"):
        analysis.sweep_grid(
            template, analysis.AxisSpec.from_range(name, 0.5, 2.0, "lin", 3),
            analysis.AxisSpec.from_range("gamma", 0.1, 1.0, "lin", 3))


def test_sweep_grid_requires_gamma_y_axis():
    with pytest.raises(ValueError):
        analysis.sweep_grid(
            xy(6),
            analysis.AxisSpec.from_range("V", 2.0, 8.0, "lin", 3),
            analysis.AxisSpec.from_range("V", 2.0, 8.0, "lin", 3),
        )


# ---------------------------------------------------------------------------
# numeric boundary

def test_numeric_boundary_v_zero_is_one():
    gc = analysis.numeric_boundary_gamma(xy(6), 0.0)
    assert abs(gc - 1.0) < 1e-6


@pytest.mark.parametrize("N", [3, 5, 7, 9])
def test_numeric_boundary_v_zero_odd_n(N):
    # at V = 0 and odd N the chain breaks at gamma_c = sqrt((N+1)/(N-1))
    gc = analysis.numeric_boundary_gamma(xy(N), 0.0)
    exact = math.sqrt((N + 1) / (N - 1))
    assert abs(gc - exact) / exact < 1e-6


@pytest.mark.parametrize("N, V", [(4, 3.0), (6, 5.0), (5, -2.5)])
def test_full_space_xy_boundary_is_the_magnon_boundary(N, V):
    # by the free-fermion map every 2^N eigenvalue is a sum of one-magnon
    # eigenvalues, so the full chain breaks exactly where its magnon block does
    gc = analysis.numeric_boundary_gamma(xy(N), V)
    full = ModelSpec(ModelKind.XY_FULL_SPACE, N=N)
    assert analysis.numeric_boundary_gamma(full, V).hex() == gc.hex()

    def dense_max_im(g):
        h = models.build_h_chain_full(
            ModelSpec(ModelKind.XY_FULL_SPACE, N=N, V=V, gamma=g))
        return np.max(np.abs(linalg.eig(h).eigenvalues.imag))

    assert dense_max_im(gc * (1 - 1e-3)) <= 1e-10
    assert dense_max_im(gc * (1 + 1e-3)) >= 1e-6


def test_numeric_boundary_matches_exact():
    gn = analysis.numeric_boundary_gamma(xy(6, V=10.0), 10.0)
    ge = bethe.exact_boundary_gamma(6, 10.0)
    assert abs(gn - ge) / ge < 1e-3


def test_numeric_boundary_high_precision_escalation():
    # N=6, V=100: gamma_c ~ 1e-8 sits below the double-precision indicator
    # floor; the scan must escalate and still match the closed form
    gn = analysis.numeric_boundary_gamma(xy(6, V=100.0), 100.0)
    ge = bethe.exact_boundary_gamma(6, 100.0)
    assert abs(gn - ge) / ge < 1e-3


def _counted_sturm(monkeypatch):
    """Record every exact.magnon_broken call of the analysis module."""
    calls = []

    def counted(N, V, g):
        calls.append(g)
        return exact.magnon_broken(N, V, g)

    monkeypatch.setattr(analysis, "magnon_broken", counted)
    return calls


def test_magnon_boundary_starts_at_the_decay_floor(monkeypatch):
    # gamma_c ~ 1e-240 at N = 6, V = 1e60: a lower bracket starting at 1e-45
    # and stepping down by 1e-10 took 54 Sturm counts; exact.decay_floor
    # starts below gamma_c, as exact_boundary_gamma does
    calls = _counted_sturm(monkeypatch)
    gn = analysis.numeric_boundary_gamma(xy(6, V=1e60), 1e60)
    assert len(calls) <= 4  # hi, lo and the two that certify bethe's window
    ge = bethe.exact_boundary_gamma(6, 1e60)
    assert abs(gn - ge) / ge < 1e-6


def test_magnon_boundary_at_huge_v_counts_only_in_bethes_window(monkeypatch):
    # gamma_c ~ 1e-200 at N = 12, V = 1e20, where each Sturm count is slow
    # (the plain bisection takes about 31): bethe's window leaves the hi
    # check, the lower bracket and its two certifying counts
    calls = _counted_sturm(monkeypatch)
    gn = analysis.numeric_boundary_gamma(xy(12), 1e20)
    assert len(calls) <= 10
    assert gn.hex() == _reference_highprec(12, 1e20, 1e-6, mp.workprec(53)).hex()


# The window changes which midpoints run a Sturm count, not a decision of
# the bisection: a seed that cannot be certified (x2, x0.5) or that raises
# leaves the plain search, and every seed gives the plain bisection's double.
@pytest.mark.parametrize("seeding", ["bethe", "x2", "x0.5", "near", "raises"])
@pytest.mark.parametrize("N, V", [(3, 2.05), (4, -3.07), (6, 10.0), (7, 2.2),
                                  (8, -97.0), (12, 31.07), (5, 1e6),
                                  (4, 1e160), (6, 1.2e80)])  # subnormal
def test_magnon_boundary_is_the_plain_bisection_for_any_seed(monkeypatch, N, V,
                                                             seeding):
    exact_gamma = bethe.exact_boundary_gamma

    def seed(n, v):
        if seeding == "raises":
            raise NoBracket("no seed")
        factor = {"bethe": 1.0, "x2": 2.0, "x0.5": 0.5, "near": 1 + 2.0 ** -40}
        return exact_gamma(n, v) * factor[seeding]

    monkeypatch.setattr(bethe, "exact_boundary_gamma", seed)
    calls = _counted_sturm(monkeypatch)
    gn = analysis.numeric_boundary_gamma(xy(N), V)
    assert gn.hex() == _reference_highprec(N, V, 1e-6, mp.workprec(53)).hex()
    if seeding in ("bethe", "near"):
        assert len(calls) <= 8


@pytest.mark.parametrize("N, V", [(4, 1e3), (12, 1e4), (12, 1e5),
                                  (6, 31.072325059538581)])
def test_numeric_boundary_large_v_is_not_the_scan_threshold(N, V):
    # a double-precision scan with the threshold 1e-10*(1+V) stops near 1e-6
    # at large V, and 4.5e-6 above gamma_c ~ 1.07e-6 at (6, 31.07); the
    # exact bisection must agree with a 60-digit one, and its lower bracket
    # must reach gamma_c ~ V^-(N-2)
    gn = analysis.numeric_boundary_gamma(xy(N, V=V), V)
    gh = _reference_highprec(N, V, 1e-6, mp.workdps(60))
    assert abs(gn - gh) / gh < 1e-6
    with mp.workdps(60):
        assert not exact.magnon_broken(N, V, mp.mpf(gn) * (1 - 2e-6))
        assert exact.magnon_broken(N, V, mp.mpf(gn) * (1 + 2e-6))


def test_numeric_boundary_ising_j0_small_n():
    # J=0 decouples the sites, so the boundary is exactly Delta; at N=4 the
    # eigensolver noise near the exceptional point still permits 1e-6
    for delta in (0.5, 1.0, 2.0):
        gc = analysis.numeric_boundary_gamma(ising(4, J=0.0, Delta=delta),
                                             delta)
        assert abs(gc - delta) < 1e-6


@pytest.mark.xfail(
    strict=True,
    reason="double-precision limitation at the stated tolerance: the J=0 "
    "Ising chain at N=6 has eigenvalue clusters of multiplicity up to 20 "
    "whose eigenvector condition number grows as (Delta/gap)^N near the "
    "boundary, so eigensolver noise saturates ~1e-2 within |gamma - "
    "gamma_c| ~ 1e-4 and no indicator threshold can localize the onset to "
    "1e-6; achievable accuracy is ~1e-4 (and high-precision eigensolvers "
    "hit the same multiplicity-limited eps^(1/20) wall)",
)
def test_numeric_boundary_ising_j0_n6_as_stated():
    gc = analysis.numeric_boundary_gamma(ising(6, J=0.0, Delta=2.0), 2.0)
    assert abs(gc - 2.0) < 1e-6


def test_numeric_boundary_ising_j0_n6_achievable():
    gc = analysis.numeric_boundary_gamma(ising(6, J=0.0, Delta=2.0), 2.0)
    assert abs(gc - 2.0) < 1e-3


def test_numeric_boundary_no_transition():
    # with J=0 and Delta=20 the spectrum stays real for every gamma <= 10
    with pytest.raises(NoTransition):
        analysis.numeric_boundary_gamma(ising(4, J=0.0, Delta=20.0), 20.0)


@pytest.mark.parametrize("J", [1.0, 0.0])
def test_numeric_boundary_ising_delta_zero_is_zero(J):
    # at Delta = 0 the chain is diagonal with Im eps = gamma * sum sz, so it
    # is broken for every gamma > 0
    assert analysis.numeric_boundary_gamma(ising(4, J=J), 0.0) == 0.0


def test_ising_scan_raises_when_broken_at_its_lower_end(monkeypatch):
    monkeypatch.setattr(analysis, "max_im_epsilon", lambda spec: 1.0)
    with pytest.raises(NoTransition, match="1e-12"):
        analysis.numeric_boundary_gamma(ising(4, Delta=1.0), 1.0)


# The reference is the boundary scan with exact.bisect written out: the XY
# chain's exact bisection at a given working precision, and the Ising chain's
# double-precision loop.  Its threshold keeps the 1e-10*(1+|Delta|) term,
# which never wins over the floor 3e-4*(1+Delta^2).

def _reference_highprec(N, V, rel_tol, precision):
    with precision:
        v = abs(mp.mpf(V))
        lo, hi = mp.mpf(10) ** -45, mp.mpf(10)
        if v ** (N - 2) > mp.mpf(10) ** 35:  # exact.decay_floor
            lo = v ** -(N - 2) * mp.mpf(10) ** -10
        if not exact.magnon_broken(N, V, hi):
            raise NoTransition(f"no transition in gamma for N={N}, V={V}")
        while exact.magnon_broken(N, V, lo):
            lo *= mp.mpf(10) ** -10
        iterations = int(math.ceil(math.log2(float(mp.log(hi / lo)) / rel_tol))) + 2
        for _ in range(iterations):
            mid = mp.sqrt(lo * hi)
            if exact.magnon_broken(N, V, mid):
                hi = mid
            else:
                lo = mid
        return float(mp.sqrt(lo * hi))


def _reference_numeric_boundary(template, control_value, rel_tol=1e-6):
    if template.kind is not ModelKind.TRANSVERSE_ISING:
        return _reference_highprec(template.N, control_value, rel_tol,
                                   mp.workprec(53))
    base = replace(template, Delta=float(control_value))
    scaled_threshold = max(1e-10 * (1 + abs(control_value)),
                           3e-4 * (1 + control_value ** 2))

    def broken(g):
        return analysis.max_im_epsilon(replace(base, gamma=g)) > scaled_threshold

    lo, hi = 1e-12, 10.0
    if not broken(hi):
        raise NoTransition("spectrum stays real up to gamma=10")
    if broken(lo):
        raise NoTransition("transition below double-precision resolution")
    iterations = int(math.ceil(math.log2(math.log(hi / lo) / rel_tol))) + 2
    for _ in range(iterations):
        mid = math.sqrt(lo * hi)
        if broken(mid):
            hi = mid
        else:
            lo = mid
    return math.sqrt(lo * hi)


@pytest.mark.parametrize("template, control", [
    (xy(6), 0.0), (xy(6), 5.0), (xy(6), 31.072325059538581), (xy(6), 97.0),
    (xy(8), 3.07), (xy(8), 97.0),
    (ising(4, J=1.0), 1.4), (ising(6, J=1.0), 0.75), (ising(4, J=0.0), 1.0),
])
def test_numeric_boundary_bitwise_equals_reference(template, control):
    got = analysis.numeric_boundary_gamma(template, control)
    assert got.hex() == _reference_numeric_boundary(template, control).hex()


def test_numeric_boundary_no_transition_like_reference():
    for scan in (analysis.numeric_boundary_gamma, _reference_numeric_boundary):
        with pytest.raises(NoTransition):
            scan(ising(4, J=0.0), 20.0)


@pytest.mark.parametrize("num", [float, mp.mpf])
def test_bisect_locates_onset_in_its_iteration_count(num):
    rel_tol, calls = 1e-6, []
    with mp.workdps(60):
        onset = num(mp.pi) / 1000

        def broken(g):
            calls.append(g)
            return g > onset

        got = exact.bisect(broken, num("1e-12"), num(10), rel_tol)
    assert abs(got / (math.pi / 1000) - 1) <= rel_tol
    assert len(calls) == math.ceil(math.log2(math.log(1e13) / rel_tol)) + 2


# ---------------------------------------------------------------------------
# exact broken-phase predicate (integer Sturm count)
#
# The reference is the predicate it replaced: a 60-digit mp.polyroots solve of
# the complex characteristic polynomial, broken when max|Im eps| exceeds
# 1e-30 * (1 + |V|).

def _reference_magnon_charpoly(N, V, g):
    """Complex coefficients (low to high) of det(E - H), 3-term recurrence."""
    diag = [mp.mpc(V, g)] + [mp.mpc(0)] * (N - 2) + [mp.mpc(V, -g)]
    p_prev = [mp.mpc(1)]
    p = [-diag[0], mp.mpc(1)]
    for j in range(1, N):
        shifted = [mp.mpc(0)] + p
        new = [shifted[i] + (-diag[j] * p[i] if i < len(p) else 0)
               for i in range(len(shifted))]
        for i in range(len(p_prev)):
            new[i] -= p_prev[i]
        p_prev, p = p, new
    return p


def _reference_magnon_real_roots(N, V, g, dps=60):
    """Roots with |Im eps| <= 1e-30 * (1 + |V|); broken iff fewer than N."""
    with mp.workdps(dps):
        coeffs = _reference_magnon_charpoly(N, V, g)
        roots = mp.polyroots(list(reversed(coeffs)), maxsteps=2000,
                             extraprec=4 * dps)
        threshold = mp.mpf(10) ** -30 * (1 + abs(V))
        return sum(1 for r in roots if abs(mp.im(r)) <= threshold)


def _interior_chain(m):
    """Q_m = E Q_{m-1} - Q_{m-2} for m >= 1, Q_0 = 1, Q_1 = E; leading first."""
    prev, q = [1], [1, 0]
    for _ in range(m - 1):
        prev, q = q, [a - b for a, b in zip(q + [0], [0, 0] + prev)]
    return q


@pytest.mark.parametrize("coeffs, counts", [
    ([1, -3, 3, -3, 2], (2, 4)),  # (x-1)(x-2)(x^2+1)
    ([1, 1, -5, 3], (2, 2)),      # (x-1)^2 (x+3)
    ([1, 0, 1], (0, 2)),          # x^2 + 1
    ([1, 0, 1, 0], (1, 3)),       # x (x^2 + 1): chain meets a negative lc
    ([-2, 3], (1, 1)),            # 3 - 2x
    ([4, -8, 4, 0], (2, 2)),      # 4x(x-1)^2, content 4
])
def test_sturm_root_counts_known_roots(coeffs, counts):
    assert exact.sturm_root_counts(coeffs) == counts


@pytest.mark.parametrize("N", range(1, 13))
def test_sturm_counts_open_chain_spectrum(N):
    # V = gamma = 0 leaves the open chain, 2 cos(k pi / (N+1)): N real roots
    q = _interior_chain(N)
    assert exact.sturm_root_counts(q) == (N, N)
    if N >= 2:
        with mp.workdps(60):
            assert exact.magnon_int_charpoly(N, 0.0, mp.mpf(0)) == q


@pytest.mark.parametrize("N", range(2, 7))
def test_int_charpoly_matches_reference(N):
    with mp.workdps(60):
        V, g = 2.75, mp.mpf("0.0123")
        p = exact.magnon_int_charpoly(N, V, g)
        scale = mp.mpf(p[0])
        ref = _reference_magnon_charpoly(N, V, g)[::-1]
        for c, r in zip(p, ref):
            assert abs(mp.im(r)) < mp.mpf(10) ** -50
            c = c / scale
            assert abs(c - mp.re(r)) < mp.mpf(10) ** -50 * (1 + abs(c))


@pytest.mark.parametrize("N", [4, 6, 8, 10])
def test_magnon_broken_matches_polyroots_reference(N):
    with mp.workdps(60):
        for V in (3.0, 30.0, 100.0):
            gc = bethe.exact_boundary_gamma(N, V)
            for factor in (0.99, 0.9999, 1.0001, 1.01):
                g = mp.mpf(gc * factor)
                real, distinct = exact.sturm_root_counts(
                    exact.magnon_int_charpoly(N, V, g))
                assert distinct == N
                assert real == _reference_magnon_real_roots(N, V, g)
                # one conjugate pair leaves the real axis at the boundary
                assert real == (N - 2 if factor > 1 else N), (V, factor)
                assert exact.magnon_broken(N, V, g) == (factor > 1)


@pytest.mark.parametrize("V", [0.0, 3.0, -2.5, 100.0])
def test_magnon_broken_two_sites(V):
    # eps = V +- sqrt(1 - gamma^2): broken iff gamma > 1 at every V; the
    # exceptional point gamma = 1 itself (a double real root) is unbroken
    with mp.workdps(60):
        for g in ("0.5", "0.999", "1", "1.001", "2"):
            assert exact.magnon_broken(2, V, mp.mpf(g)) == (float(g) > 1)


@pytest.mark.parametrize("V", [0.0, 2.0, 10.0])
def test_magnon_broken_three_sites_matches_dense(V):
    gc = analysis.numeric_boundary_gamma(xy(3), V)
    with mp.workdps(60):
        for factor in (0.1, 0.5, 2.0, 5.0):
            g = gc * factor
            dense = analysis.max_im_epsilon(xy(3, V, g))
            assert exact.magnon_broken(3, V, mp.mpf(g)) == (dense > 1e-6)
            assert (dense > 1e-6) == (factor > 1)


# ---------------------------------------------------------------------------
# boundary table and log-log slopes

def boundary_columns(template, vs):
    """(exact, perturbative, numeric) columns of the boundary table over vs."""
    _, exact, pert, numeric, _, _ = zip(*analysis.boundary_table(template, vs))
    return exact, pert, numeric


def loglog_slope(vs, gammas):
    """Least-squares slope of ln(gamma_c) against ln(V)."""
    return float(np.polyfit(np.log(vs), np.log(gammas), 1)[0])


def test_boundary_curve_methods_consistent():
    exact, pert, numeric = boundary_columns(xy(6), [10.0, 30.0])
    for gn, ge, gp in zip(numeric, exact, pert):
        assert abs(gn - ge) / ge < 1e-3
        assert abs(gp - ge) / ge < 0.10
        assert gp >= ge  # ordered: perturbative overshoots slightly


@pytest.mark.xfail(
    strict=True,
    reason="source-text defect: the boundary decays as 1/V^(N-2) (slope -4 "
    "at N=6), not 1/V^2; the printed slope -2 relies on the closed-form "
    "coefficient that vanishes identically for even N",
)
def test_perturbative_slope_minus_two_as_stated():
    vs = [10.0, 30.0, 100.0]
    _, pert, _ = boundary_columns(xy(6), vs)
    slope = loglog_slope(vs, pert)
    assert abs(slope - (-2.0)) < 0.05 * 2.0


def test_perturbative_slope_is_minus_n_minus_two():
    vs = [10.0, 30.0, 100.0]
    _, pert, _ = boundary_columns(xy(6), vs)
    slope = loglog_slope(vs, pert)
    assert slope == pytest.approx(-4.0, rel=0.05)


def test_numeric_slope_matches_perturbative_power():
    vs = [10.0, 30.0, 100.0]
    _, _, numeric = boundary_columns(xy(6), vs)
    slope = loglog_slope(vs, numeric)
    assert slope == pytest.approx(-4.0, rel=0.05)


# empty: the columns left None in every row, among exact (1), perturbative (2)
# and rel_gap (4); the numeric column (3) is always filled
@pytest.mark.parametrize("template, controls, empty", [
    (xy(6), [0.0, 2.0], (1, 2, 4)),  # the exact rule is strictly |V| > 2
    (xy(6), [3.0, -3.0], ()),
    (xy(5), [10.0], (2,)),  # odd N: no perturbative boundary
    (xy(4), [10.0], (2,)),  # even N below 6: none either
    (ising(4), [0.5], (1, 2, 4)),  # the Ising chain: numeric column only
    (ModelSpec(ModelKind.TRANSVERSE_ISING, N=4,
               ising_boundary=models.IsingBoundary.OPEN), [0.5], (1, 2, 4)),
])
def test_boundary_table_columns_follow_the_domain_rules(template, controls,
                                                        empty):
    rows = analysis.boundary_table(template, controls)
    assert [row[0] for row in rows] == controls
    for row in rows:
        assert [i for i in (1, 2, 4) if row[i] is None] == list(empty), row
        assert row[3] > 0
        assert row[5] is False


def _counted_bethe(monkeypatch, raises=None):
    """Record every bethe.exact_boundary_gamma call; raise raises if given."""
    calls, exact_gamma = [], bethe.exact_boundary_gamma

    def counted(N, V):
        calls.append(V)
        if raises is not None:
            raise raises
        return exact_gamma(N, V)

    monkeypatch.setattr(bethe, "exact_boundary_gamma", counted)
    return calls


@pytest.mark.parametrize("template", [
    xy(6), xy(3), ModelSpec(ModelKind.XY_FULL_SPACE, N=4)])
def test_boundary_table_runs_bethe_once_per_row(monkeypatch, template):
    controls = [-10.0, -3.0, 0.0, 2.0, 2.05, 97.0]
    expected = [(v, bethe.exact_boundary_gamma(template.N, v))
                for v in controls if abs(v) > 2]
    calls = _counted_bethe(monkeypatch)
    rows = analysis.boundary_table(template, controls)
    assert calls == [v for v, _ in expected]  # the seed where |V| > 2 only
    assert [row[3] for row in rows] == [
        _reference_highprec(template.N, v, 1e-6, mp.workprec(53))
        for v in controls]
    if template.kind is ModelKind.XY_MAGNON:
        assert [(row[0], row[1]) for row in rows if row[1] is not None] == expected


def test_boundary_table_row_where_gamma_c_underflows(monkeypatch):
    # both methods raise NoRoot at N = 12, V = 1e33 (gamma_c ~ 1e-330)
    calls = _counted_bethe(monkeypatch)
    with pytest.raises(NoRoot, match=r"^gamma_c underflows a double at "
                                     r"N=12, V=1e\+33$"):
        analysis.boundary_table(xy(12), [1e33])
    assert calls == [1e33]


def test_boundary_table_raises_the_exact_error_after_the_numeric_scan(
        monkeypatch):
    calls = _counted_bethe(monkeypatch, NoBracket("forced"))
    with pytest.raises(NoBracket, match="^forced$"):
        analysis.boundary_table(xy(6), [10.0])
    assert calls == [10.0]
    # where both fail, the numeric scan's error is raised
    monkeypatch.setattr(analysis, "magnon_broken", lambda N, V, g: False)
    with pytest.raises(NoTransition,
                       match=r"^no transition in gamma for N=6, V=10\.0$"):
        analysis.boundary_table(xy(6), [10.0])
    assert calls == [10.0, 10.0]


def test_boundary_command_writes_the_table(tmp_path):
    out = tmp_path / "boundary.csv"
    assert cli.main(["boundary", "--model", "xy", "--n", "6",
                     "--x-range=-10:-3:lin:2", "--out", str(out)]) == 0
    rows = analysis.boundary_table(xy(6), [-10.0, -3.0])
    assert out.read_bytes() == serialize.boundary_table_csv(rows).encode()


# ---------------------------------------------------------------------------
# optimizer

def test_optimize_gamma_w_approaches_boundary():
    w = models.target_state("w", 6)
    g_short, f_short = analysis.optimize_gamma(xy(6), w, 200.0)
    g_long, f_long = analysis.optimize_gamma(xy(6), w, 2000.0)
    assert g_short > 1.0 and g_long > 1.0
    assert g_long < g_short  # optimum approaches gamma_c = 1 from above
    assert f_long > 0.999


def test_optimize_gamma_bell_near_boundary():
    target = models.target_state("bell", 6)
    g_star, f_star = analysis.optimize_gamma(xy(6, V=10.0), target, 2e5)
    gc = analysis.numeric_boundary_gamma(xy(6, V=10.0), 10.0)
    assert f_star > 0.98
    assert gc < g_star < 2.0 * gc  # optimum sits just above the boundary


def test_optimize_gamma_delta_zero_has_no_bracket():
    # gamma_c = 0 leaves the bracket (gamma_c, 10 gamma_c] empty
    with pytest.raises(NoTransition):
        analysis.optimize_gamma(ising(4), models.target_state("ghz", 4), 10.0)


def _reference_stepped_fidelity(spec, init, target, t_max):
    """The optimizer's former f(t_max): the last sample of a 2000-step trace."""
    return dynamics.evolve_trace(spec, init, target, t_max, 2000).fidelities[-1]


@pytest.mark.parametrize("template, target, t_max", [
    (xy(6, V=5.0), "bell", 2e4),
    (xy(6, V=10.0), "bell", 2e4),
    (ising(6, Delta=0.5), "ghz", 1e4),
    (ising(6, Delta=1.0), "ghz", 1e4),
], ids=["bell_V5", "bell_V10", "ghz_Delta0.5", "ghz_Delta1"])
def test_optimize_gamma_matches_stepped_reference(monkeypatch, template,
                                                  target, t_max):
    state = models.target_state(target, 6)
    g_star, f_star = analysis.optimize_gamma(template, state, t_max)
    monkeypatch.setattr(analysis, "final_fidelity", _reference_stepped_fidelity)
    g_ref, f_ref = analysis.optimize_gamma(template, state, t_max)
    assert abs(g_star - g_ref) <= 1e-9 * g_ref
    assert abs(f_star - f_ref) <= 1e-10


def test_conjugate_pair_count_near_boundary():
    # exactly one conjugate pair just above the XY boundary
    gc = analysis.numeric_boundary_gamma(xy(6, V=10.0), 10.0)
    h = models.build_h_eq(xy(6, V=10.0, gamma=1.5 * gc))
    vals = np.linalg.eigvals(h)
    assert np.sum(vals.imag > 1e-10) == 1
    assert np.sum(vals.imag < -1e-10) == 1
