"""Acceptance suite: nine numbered criteria, one verdict line each.

Each test carries a ``criterion(n, clause=...)`` marker; conftest.py prints
one PASS/FAIL line per criterion after the run.  Clauses that cannot hold as
stated because the source text is internally inconsistent are marked
xfail(strict=True) with the defect spelled out; the criterion line reports
them as failing honestly.
"""

import math

import numpy as np
import pytest

from epchain import analysis, bethe, dynamics, linalg, models
from epchain.models import ModelKind, ModelSpec


def xy(N, V=0.0, gamma=0.0):
    return ModelSpec(ModelKind.XY_MAGNON, N=N, V=V, gamma=gamma)


def ising(N, J=1.0, Delta=0.0, gamma=0.0):
    return ModelSpec(ModelKind.TRANSVERSE_ISING, N=N, J=J, Delta=Delta,
                     gamma=gamma)


def assert_multiset_close(got, expected, tol):
    got, expected = list(got), list(expected)
    assert len(got) == len(expected)
    for v in got:
        j = int(np.argmin([abs(v - e) for e in expected]))
        assert abs(v - expected[j]) < tol, (v, expected[j])
        expected.pop(j)


# ---------------------------------------------------------------------------
# 1. W-state exceptional-point anchor

@pytest.mark.criterion(1, clause="annihilation and self-orthogonality")
@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_criterion_1_w_state_anchor(n):
    w = models.target_state("W", n)
    calw = models.target_state("CalW", n)
    assert np.linalg.norm(models.build_h_w(n, 1.0) @ w.amplitudes) < 1e-12
    assert abs(linalg.biorthogonal_overlap(calw, w)) < 1e-14


# ---------------------------------------------------------------------------
# 2. Scattering exceptional point

@pytest.mark.criterion(2, clause="scattering EP at (pi/2, 1)")
@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_criterion_2_scattering_ep(n):
    k, g = bethe.scattering_ep(n)
    assert abs(k - math.pi / 2) < 1e-10
    assert abs(g - 1.0) < 1e-10


@pytest.mark.criterion(2, clause="numeric onset at V=0 equals 1")
def test_criterion_2_numeric_onset():
    gc = analysis.numeric_boundary_gamma(xy(6), 0.0)
    assert abs(gc - 1.0) < 1e-6


# ---------------------------------------------------------------------------
# 3. Bethe / diagonalization equivalence

@pytest.mark.criterion(3, clause="energy multiset completeness")
@pytest.mark.parametrize("gamma", [0.3, 0.7])
@pytest.mark.parametrize("v", [0.0, 3.0])
def test_criterion_3_bethe_completeness(gamma, v):
    direct = np.linalg.eigvals(models.build_h_eq(xy(6, V=v, gamma=gamma)))
    bethe_set = bethe.all_bethe_energies(6, v, gamma)
    assert_multiset_close(bethe_set, direct, 1e-8)


@pytest.mark.criterion(3, clause="odd N at V=0, below and above the pair's onset")
@pytest.mark.parametrize("factor", [0.9, 0.99, 1.01, 2.0])
@pytest.mark.parametrize("n", [3, 5, 7, 9])
def test_criterion_3_odd_n_completeness(n, factor):
    # odd N: the pair leaves the real axis at gamma^2 = (N+1)/(N-1)
    gamma = factor * math.sqrt((n + 1) / (n - 1))
    direct = np.linalg.eigvals(models.build_h_eq(xy(n, gamma=gamma)))
    assert_multiset_close(bethe.all_bethe_energies(n, 0.0, gamma), direct, 1e-8)


@pytest.mark.criterion(3, clause="bound regime |V| > 2, both signs of V")
@pytest.mark.parametrize("v", [2.5, 3.0, 5.0, 10.0, -2.5, -3.0, -5.0, -10.0])
@pytest.mark.parametrize("n", [6, 8])
def test_criterion_3_bound_regime_completeness(n, v):
    # 0.1 and 0.5 gamma_c are unbroken: at large V the two bound roots share
    # one cell of the kappa grid
    gamma_c = bethe.exact_boundary_gamma(n, v)
    for factor in (0.1, 0.5, 2.0):
        gamma = factor * gamma_c
        direct = np.linalg.eigvals(models.build_h_eq(xy(n, V=v, gamma=gamma)))
        assert_multiset_close(bethe.all_bethe_energies(n, v, gamma), direct,
                              1e-8 * (1 + abs(v)))


# ---------------------------------------------------------------------------
# 4. Broken-pair formula

@pytest.mark.criterion(4, clause="nonreal pair equals +-2i sinh kappa")
@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("gamma", [1.05, 1.2])
def test_criterion_4_broken_pair(n, gamma):
    root = bethe.broken_pair_kappa(n, gamma)
    kappa = root.momentum.imag
    vals = np.linalg.eigvals(models.build_h_w(n, gamma))
    pair = np.sort_complex(vals[np.abs(vals.imag) > 1e-10])
    assert len(pair) == 2
    expected = np.array([-2j * math.sinh(kappa), 2j * math.sinh(kappa)])
    assert_multiset_close(pair, expected, 1e-8)


# ---------------------------------------------------------------------------
# 5. Boundary triple-consistency

@pytest.mark.criterion(5, clause="numeric vs exact to relative 1e-3")
@pytest.mark.parametrize("n", [6, 8, 10])
@pytest.mark.parametrize("v", [10.0, 30.0, 100.0])
def test_criterion_5_numeric_vs_exact(n, v):
    numeric = analysis.numeric_boundary_gamma(xy(n, V=v), v)
    exact = bethe.exact_boundary_gamma(n, v)
    assert abs(numeric - exact) / exact < 1e-3


def numeric_loglog_slope(template, vs):
    """Least-squares slope of ln(gamma_c) against ln(V), gamma_c from the
    boundary table's numeric column."""
    numeric = [row[3] for row in analysis.boundary_table(template, vs)]
    return float(np.polyfit(np.log(vs), np.log(numeric), 1)[0])


@pytest.mark.criterion(5, clause="log-log slope within 5% of -2")
@pytest.mark.xfail(
    strict=True,
    reason="source-text defect: the phase boundary decays as 1/V^(N-2) "
    "(fitted slope -4 at N=6, steeper at larger N), not 1/V^2; the printed "
    "slope -2 descends from a closed-form coefficient that vanishes "
    "identically for even N, so no curve over V in [10,100] fits -2",
)
def test_criterion_5_slope_as_stated():
    slope = numeric_loglog_slope(xy(6), [10.0, 30.0, 100.0])
    assert abs(slope - (-2.0)) < 0.05 * 2.0


@pytest.mark.criterion(5, clause="log-log slope matches 1/V^(N-2) power law")
def test_criterion_5_slope_corrected():
    slope = numeric_loglog_slope(xy(6), [10.0, 30.0, 100.0])
    assert slope == pytest.approx(-4.0, rel=0.05)


# ---------------------------------------------------------------------------
# 6. Effective-model asymptotics

@pytest.mark.criterion(6, clause="V_eff(100) -> 0.01")
def test_criterion_6_v_eff():
    em = bethe.effective_model(6, 100.0)
    assert abs(em.V_eff - 0.01) < 1e-3


@pytest.mark.criterion(6, clause="lambda_eff*V^2 within 5% of Omega")
@pytest.mark.xfail(
    strict=True,
    reason="source-text defect: the printed closed-form coefficient Omega "
    "is identically zero for every even N (its two terms cancel exactly), "
    "so the relative comparison |lambda_eff*V^2 - Omega|/|Omega| is "
    "ill-posed; the coupling's true decay is 1/V^(N-2), checked elsewhere",
)
def test_criterion_6_omega_as_stated():
    em = bethe.effective_model(6, 100.0)
    assert abs(em.lambda_eff * 100.0 ** 2 - em.Omega) / abs(em.Omega) < 0.05


@pytest.mark.criterion(6, clause="effective eigenvalue real part at V=10")
def test_criterion_6_real_part():
    v = 10.0
    em = bethe.effective_model(6, v)
    gc = bethe.exact_boundary_gamma(6, v)
    eff_vals, _ = bethe.effective_spectrum(6, v, gc)
    vals = np.linalg.eigvals(models.build_h_eq(xy(6, V=v, gamma=gc)))
    pair = vals[vals.real > v / 2]  # boundary bound-state pair
    assert len(pair) == 2
    assert abs(np.mean(eff_vals.real) - np.mean(pair.real)) < 0.05 * em.V_eff


# ---------------------------------------------------------------------------
# 7. Dynamics trends

def _w_run(n, gamma, t_max=200.0, steps=2000):
    spec = xy(n, gamma=gamma)
    return spec, dynamics.evolve_trace(
        spec, dynamics.default_initial_state(spec),
        models.target_state("w", n), t_max, steps, target_name="w")


@pytest.mark.criterion(7, clause="(a) fidelity/convergence ordering in gamma")
def test_criterion_7a_orderings():
    _, tr_low = _w_run(6, 1.05)
    _, tr_high = _w_run(6, 1.5)
    assert tr_low.fidelities[-1] > tr_high.fidelities[-1]
    assert dynamics.convergence_time(tr_low) > dynamics.convergence_time(tr_high)


@pytest.mark.criterion(7, clause="(b) plateau equals dominant-state overlap")
def test_criterion_7b_plateau_identity():
    spec, tr = _w_run(6, 1.2, t_max=300.0, steps=3000)
    target = models.target_state("w", 6)
    assert abs(tr.fidelities[-1]
               - dynamics.steady_fidelity(spec, target)) < 1e-4


def _fitted_decay_rate(spec, target, t_max, n_steps):
    tr = dynamics.evolve_trace(spec, dynamics.default_initial_state(spec),
                               target, t_max, n_steps)
    dev = np.abs(tr.fidelities - tr.fidelities[-1])
    mask = (dev > 1e-11) & (tr.times > t_max * 0.1) & (tr.times < t_max * 0.7)
    slope, _ = np.polyfit(tr.times[mask], np.log(dev[mask]), 1)
    return -slope


def _im_gap(spec):
    im = np.sort(linalg.eig(models.build_hamiltonian(spec)).eigenvalues.imag)
    return im[-1] - im[-2]


@pytest.mark.criterion(7, clause="(c) decay rate equals 2x imaginary gap")
@pytest.mark.xfail(
    strict=True,
    reason="source-text defect: the fitted decay rate of 1 - f(t) equals "
    "ONE times the imaginary gap, not two; the subleading eigenvector is "
    "not orthogonal to the target so the fidelity deviation is linear in "
    "the decaying amplitude ratio, and the measured rate disagrees with "
    "the stated factor by ~2x, far outside the 10% tolerance",
)
def test_criterion_7c_decay_rate_as_stated():
    spec = xy(6, gamma=1.2)
    rate = _fitted_decay_rate(spec, models.target_state("w", 6), 120.0, 4000)
    assert rate == pytest.approx(2 * _im_gap(spec), rel=0.10)


@pytest.mark.criterion(7, clause="(c) decay rate equals the imaginary gap")
def test_criterion_7c_decay_rate_corrected():
    spec = xy(6, gamma=1.2)
    rate = _fitted_decay_rate(spec, models.target_state("w", 6), 120.0, 4000)
    assert rate == pytest.approx(_im_gap(spec), rel=0.10)


@pytest.mark.criterion(7, clause="(d) Bell run slowdown with N")
def test_criterion_7d_bell_slowdown():
    times = {}
    for n, t_max in ((6, 2e4), (8, 2e5)):
        template = xy(n, V=5.0)
        target = models.target_state("bell", n)
        g_star, _ = analysis.optimize_gamma(template, target, t_max)
        spec = xy(n, V=5.0, gamma=g_star)
        tr = dynamics.evolve_trace(spec, dynamics.default_initial_state(spec),
                                   target, t_max, 2000, target_name="bell")
        times[n] = dynamics.convergence_time(tr)
    assert times[8] >= 5.0 * times[6]


# ---------------------------------------------------------------------------
# 8. Ising anchors

@pytest.mark.criterion(8, clause="J=0 reality condition on a 20x20 grid")
def test_criterion_8_reality_grid():
    grid = analysis.sweep_grid(
        ising(4, J=0.0),
        analysis.AxisSpec.from_range("Delta", 0.1, 2.0, "lin", 20),
        analysis.AxisSpec.from_range("gamma", 0.05, 1.95, "lin", 20),
    )
    deltas = grid.x_axis.values[:, None]
    gammas = grid.y_axis.values[None, :]
    assert np.array_equal(grid.broken_mask, gammas > deltas)


@pytest.mark.criterion(8, clause="J=0 boundary gamma_c = Delta to 1e-6")
@pytest.mark.parametrize("delta", [0.5, 1.0, 1.5, 2.0])
def test_criterion_8_boundary_equals_delta(delta):
    gc = analysis.numeric_boundary_gamma(ising(4, J=0.0, Delta=delta), delta)
    assert abs(gc - delta) < 1e-6


@pytest.mark.criterion(8, clause="systematic boundary shift N=6 vs N=8")
def test_criterion_8_size_shift():
    for delta in (0.5, 0.75, 1.0):
        g6 = analysis.numeric_boundary_gamma(ising(6, J=1.0, Delta=delta),
                                             delta)
        g8 = analysis.numeric_boundary_gamma(ising(8, J=1.0, Delta=delta),
                                             delta)
        assert g8 < g6  # larger chains break at smaller gamma, uniformly


@pytest.mark.criterion(8, clause="GHZ fidelity grows as Delta shrinks")
def test_criterion_8_ghz_monotone():
    fidelities = []
    for delta, t_max in ((1.0, 5e3), (0.75, 1e4), (0.5, 2e4)):
        template = ising(6, J=1.0, Delta=delta)
        target = models.target_state("ghz", 6)
        g_star, f_star = analysis.optimize_gamma(template, target, t_max)
        fidelities.append(f_star)
    assert fidelities[0] < fidelities[1] < fidelities[2]


# ---------------------------------------------------------------------------
# 9. Sector-reduction cross-check

@pytest.mark.criterion(9, clause="full-space symmetry and block identity")
def test_criterion_9_sector_reduction():
    spec = ModelSpec(ModelKind.XY_FULL_SPACE, N=6, V=3.0, gamma=0.4)
    h = models.build_h_chain_full(spec)
    jz = models.total_sz(6)
    assert np.linalg.norm(jz @ h - h @ jz) < 1e-12
    block = models.reduce_to_magnon_sector(h, 6)
    direct = models.build_h_eq(xy(6, V=3.0, gamma=0.4))
    assert np.max(np.abs(block - direct)) < 1e-12
