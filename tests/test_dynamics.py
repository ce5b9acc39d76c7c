"""Tests for non-unitary evolution, fidelity traces and steady-state
prediction."""

import math
import os
from dataclasses import replace
import subprocess
import sys

import numpy as np
import pytest

from epchain import dynamics, linalg, models
from epchain.errors import DimensionMismatch, NoDominantState, NonConvergence
from epchain.models import ModelKind, ModelSpec


def xy(N, V=0.0, gamma=0.0):
    return ModelSpec(ModelKind.XY_MAGNON, N=N, V=V, gamma=gamma)


def ising(N, Delta, gamma, boundary=models.IsingBoundary.PERIODIC):
    return ModelSpec(ModelKind.TRANSVERSE_ISING, N=N, Delta=Delta,
                     gamma=gamma, ising_boundary=boundary)


# ---------------------------------------------------------------------------
# evolve_trace

def test_stationary_eigenvector_keeps_unit_fidelity():
    spec = xy(6, V=2.0, gamma=0.0)
    h = models.build_hamiltonian(spec)
    vec = linalg.eig(h).right_vectors[:, 0]
    state = models.StateVector(models.magnon_basis(6), vec)
    trace = dynamics.evolve_trace(spec, state, state, 10.0, 100)
    assert np.all(np.abs(trace.fidelities - 1.0) < 1e-10)


def test_w_runs_fidelity_ordering():
    w = models.target_state("w", 6)
    limits = {}
    for g in (1.05, 1.5):
        spec = xy(6, gamma=g)
        tr = dynamics.evolve_trace(spec, dynamics.default_initial_state(spec),
                                   w, 200.0, 2000, target_name="w")
        limits[g] = tr.fidelities[-1]
    assert limits[1.05] > limits[1.5]


def test_bell_run_converges_toward_one():
    from epchain import analysis

    template = xy(6, V=10.0)
    target = models.target_state("bell", 6)
    gc = analysis.numeric_boundary_gamma(template, 10.0)
    spec = xy(6, V=10.0, gamma=1.05 * gc)
    tr = dynamics.evolve_trace(spec, dynamics.default_initial_state(spec),
                               target, 2e5, 2000, target_name="bell")
    assert tr.fidelities[-1] > 0.95


def test_gamma_zero_run_conserves_norm():
    spec = xy(6, V=1.0, gamma=0.0)
    tr = dynamics.evolve_trace(spec, dynamics.default_initial_state(spec),
                               models.target_state("bell", 6), 50.0, 500)
    assert np.max(np.abs(tr.log_norms)) < 1e-8


def test_renormalization_invariance():
    # per-step renormalized fidelities equal those of the raw (never
    # renormalized) evolution sampled at the same times
    spec = xy(4, gamma=1.3)
    h = models.build_hamiltonian(spec)
    init = models.site_state(4, 1)
    target = models.target_state("w", 4)
    tr = dynamics.evolve_trace(spec, init, target, 8.0, 40)
    tgt = target.amplitudes
    for t, f, ln in zip(tr.times[::7], tr.fidelities[::7], tr.log_norms[::7]):
        u, e = linalg.scaled_propagator(h, t)
        raw = u @ init.amplitudes
        raw_f = abs(np.vdot(tgt, raw / np.linalg.norm(raw)))
        assert f == pytest.approx(raw_f, abs=1e-10)
        assert ln == pytest.approx(e * math.log(2.0)
                                   + math.log(np.linalg.norm(raw)), abs=1e-8)


def test_evolve_trace_validation():
    spec = xy(4, gamma=1.2)
    init = dynamics.default_initial_state(spec)
    target = models.target_state("w", 4)
    with pytest.raises(ValueError):
        dynamics.evolve_trace(spec, init, target, -1.0, 100)
    with pytest.raises(ValueError):
        dynamics.evolve_trace(spec, init, target, 10.0, 1)
    with pytest.raises(DimensionMismatch):
        dynamics.evolve_trace(spec, models.site_state(6, 1), target, 10.0, 100)


# ---------------------------------------------------------------------------
# final_fidelity: the stepped trace's end point from one propagator over t_max

def _ghz_deep_broken():
    from epchain import analysis

    gc = analysis.numeric_boundary_gamma(ising(6, 0.75, 0.0), 0.75)
    return ising(6, 0.75, 10.0 * gc)


_END_POINT_CASES = {
    "w_magnon": (xy(6, gamma=1.05), models.target_state("w", 6), 200.0),
    "bell_magnon": (xy(6, V=5.0, gamma=3e-3), models.target_state("bell", 6),
                    2e4),
    "ghz_periodic": (ising(6, 0.75, 0.05), models.target_state("ghz", 6),
                     500.0),
    "ghz_open": (ising(4, 0.5, 0.3, models.IsingBoundary.OPEN),
                 models.target_state("ghz", 4), 100.0),
    "xy_full_space": (ModelSpec(ModelKind.XY_FULL_SPACE, N=4, V=1.0, gamma=0.8),
                      models.single_flip_state(4, 4), 50.0),
}


@pytest.mark.parametrize("n_steps", [2, 3, 1024, 2000, 2001])
@pytest.mark.parametrize("case", sorted(_END_POINT_CASES))
def test_final_fidelity_matches_stepped_end_point(case, n_steps):
    spec, target, t_max = _END_POINT_CASES[case]
    init = dynamics.default_initial_state(spec)
    stepped = dynamics.evolve_trace(spec, init, target, t_max, n_steps)
    f = dynamics.final_fidelity(spec, init, target, t_max)
    assert abs(f - stepped.fidelities[-1]) < 1e-10


@pytest.mark.parametrize("n_steps", [1024, 2000, 2001])
def test_final_fidelity_deep_broken_ghz_is_finite(n_steps):
    # gamma = 10 gamma_c, t_max = 1e4: the raw state grows like e^{sigma t}
    # with sigma t in the thousands, far beyond double range
    spec = _ghz_deep_broken()
    target = models.target_state("ghz", 6)
    init = dynamics.default_initial_state(spec)
    f = dynamics.final_fidelity(spec, init, target, 1e4)
    stepped = dynamics.evolve_trace(spec, init, target, 1e4, n_steps)
    assert math.isfinite(f)
    assert stepped.log_norms[-1] > 1e3
    assert abs(f - stepped.fidelities[-1]) < 1e-10


@pytest.mark.parametrize("n_steps", [2, 3])
def test_deep_broken_ghz_overflowing_step_raises(n_steps):
    # sigma * dt passes ~700, so exp(-i H dt) itself is beyond double range:
    # its scaled form 2^e u still steps to the fine trace's end point
    spec = _ghz_deep_broken()
    target = models.target_state("ghz", 6)
    init = dynamics.default_initial_state(spec)
    fine = dynamics.evolve_trace(spec, init, target, 1e4, 2000)
    coarse = dynamics.evolve_trace(spec, init, target, 1e4, n_steps)
    assert abs(coarse.fidelities[-1] - fine.fidelities[-1]) < 1e-10
    assert coarse.log_norms[-1] == pytest.approx(fine.log_norms[-1], rel=1e-10)
    f = dynamics.final_fidelity(spec, init, target, 1e4)
    assert abs(f - fine.fidelities[-1]) < 1e-10


def test_scaled_propagator_deep_broken_long_step():
    # dt = 5e3 on the deep-broken ring: exp(-i H dt) grows far beyond
    # 2^1024, its scaled form stays finite, and squaring the half step
    # gives the same 2^e u
    h = models.build_hamiltonian(_ghz_deep_broken())
    u, e = linalg.scaled_propagator(h, 5e3)
    assert np.all(np.isfinite(u))
    assert 0.5 <= np.max(np.abs(u)) < 1.0
    assert e > 1024
    half, e_half = linalg.scaled_propagator(h, 2.5e3)
    assert np.linalg.norm(2.0 ** (2 * e_half - e) * (half @ half) - u) \
        <= 1e-10 * np.linalg.norm(u)


@pytest.mark.parametrize("n_steps", range(5, 14))
def test_final_fidelity_overflowing_power_is_finite(n_steps):
    # the plain step propagator is finite, its first plain squaring is not
    spec = _ghz_deep_broken()
    target = models.target_state("ghz", 6)
    init = dynamics.default_initial_state(spec)
    f = dynamics.final_fidelity(spec, init, target, 1e4)
    stepped = dynamics.evolve_trace(spec, init, target, 1e4, n_steps)
    assert math.isfinite(f)
    assert abs(f - stepped.fidelities[-1]) < 1e-10


@pytest.mark.parametrize("n_steps", range(5, 10))
def test_evolve_trace_overflowing_state_norm_is_finite(n_steps):
    # the norm of one step's state is representable, its sum of squares is
    # not: ln ||u psi|| from the dense step rescaled by its largest entry
    spec = _ghz_deep_broken()
    init = dynamics.default_initial_state(spec)
    trace = dynamics.evolve_trace(spec, init, models.target_state("ghz", 6),
                                  1e4, n_steps)
    u, e = linalg.scaled_propagator(models.build_hamiltonian(spec),
                                    1e4 / n_steps)
    raw = u @ init.amplitudes
    scale = np.max(np.abs(raw))
    expected = (e * math.log(2.0) + math.log(scale)
                + math.log(np.linalg.norm(raw / scale)))
    assert expected > math.log(np.sqrt(np.finfo(float).max))
    assert trace.log_norms[0] == pytest.approx(expected, rel=1e-12)


def test_vanishing_product_raises():
    a = np.array([[[1.0, 0.0], [0.0, 0.0]]], dtype=complex)
    b = np.array([[[0.0], [1.0]]], dtype=complex)
    with pytest.raises(NonConvergence, match="vanishes"):
        dynamics._normalized(a @ b)


def test_evolve_cli_overflowing_step_exits_3(tmp_path, capsys):
    # n_steps = 2: the plain step propagator would overflow; the run
    # succeeds and ends where the 2000-step trace ends
    from epchain import cli

    spec = _ghz_deep_broken()
    rc = cli.main(["evolve", "--model", "ising", "--n", "6", "--delta", "0.75",
                   "--gamma", repr(spec.gamma), "--target", "ghz",
                   "--t-max", "1e4", "--steps", "2",
                   "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    capsys.readouterr()
    rows = (tmp_path / "t.csv").read_text().splitlines()
    assert len(rows) == 3
    fine = dynamics.evolve_trace(spec, dynamics.default_initial_state(spec),
                                 models.target_state("ghz", 6), 1e4, 2000)
    assert abs(float(rows[-1].split(",")[1]) - fine.fidelities[-1]) < 1e-10


# ---------------------------------------------------------------------------
# the block core against plain dense stepping of the whole matrix

def _dense_stepped(spec, init, target, t_max, n_steps):
    """(fidelities, log_norms) of the whole matrix's step propagator 2^e u
    applied n_steps times, the state rescaled by its largest entry before
    each norm."""
    u, e = linalg.scaled_propagator(models.build_hamiltonian(spec),
                                    t_max / n_steps)
    psi = init.amplitudes / np.linalg.norm(init.amplitudes)
    tgt = target.amplitudes / np.linalg.norm(target.amplitudes)
    fidelities, log_norms, log_norm = [], [], 0.0
    for _ in range(n_steps):
        psi = u @ psi
        scale = np.max(np.abs(psi))
        norm = np.linalg.norm(psi / scale)
        log_norm += e * math.log(2.0) + math.log(scale) + math.log(norm)
        psi = psi / scale / norm
        fidelities.append(min(abs(np.vdot(tgt, psi)), 1.0))
        log_norms.append(log_norm)
    return np.array(fidelities), np.array(log_norms)


# fig5's runs at their optimized gamma, evolve ghz runs, the deep-broken
# case, and an init with amplitude in the m = 0 block only (as the target):
# (spec, init bits or the default single flip, t_max, n_steps)
_DENSE_REFERENCE_CASES = [
    (ising(6, 0.5, 0.005988964345216479), None, 2e4, 2000),
    (ising(6, 0.75, 0.06040278364816692), None, 1e4, 2000),
    (ising(6, 1.0, 0.23627093767361632), None, 5e3, 2000),
    (ising(8, 0.5, 0.0010610238509671517), None, 2e5, 2000),
    (ising(6, 0.75, 0.05), None, 500.0, 2000),
    (ising(8, 0.5, 0.1), None, 1e3, 2000),
    ("deep_broken", None, 1e4, 5),
    ("deep_broken", None, 1e4, 13),
    ("deep_broken", None, 1e4, 2001),
    (ising(6, 0.75, 0.05), "000000", 500.0, 200),
    (replace(ising(6, 0.75, 0.05), J=0.0), None, 500.0, 2000),
    (replace(ising(6, 1.0, 1.2), J=0.0), None, 100.0, 2000),
]


@pytest.mark.parametrize("spec, bits, t_max, n_steps", _DENSE_REFERENCE_CASES)
def test_block_dynamics_match_dense_stepping(spec, bits, t_max, n_steps):
    if spec == "deep_broken":
        spec = _ghz_deep_broken()
    target = models.target_state("ghz", spec.N)
    init = (models.bitstring_state(bits) if bits
            else dynamics.default_initial_state(spec))
    fidelities, log_norms = _dense_stepped(spec, init, target, t_max, n_steps)
    trace = dynamics.evolve_trace(spec, init, target, t_max, n_steps)
    f = dynamics.final_fidelity(spec, init, target, t_max)
    assert np.max(np.abs(trace.fidelities - fidelities)) <= 1e-12
    assert abs(f - fidelities[-1]) <= 1e-12
    assert np.all(np.abs(trace.log_norms - log_norms)
                  <= 1e-12 * (1 + np.abs(log_norms)))


# odd N, even N and J = 0; the target, one flip at site 2, has amplitude in
# every momentum sector, mirror sectors included
_RING_STACK_CASES = {
    "odd_N": ising(7, 0.75, 0.05),
    "even_N": ising(8, 0.5, 0.1),
    "J0": replace(ising(6, 0.75, 0.05), J=0.0),
}


@pytest.mark.parametrize("case", sorted(_RING_STACK_CASES))
def test_ring_propagates_only_the_blocks_up_to_k_pi(monkeypatch, case):
    # a mirror sector N-m takes block m's propagator, so the stack holds
    # the N//2 + 1 blocks of hamiltonian_blocks, not N
    spec = _RING_STACK_CASES[case]
    init = dynamics.default_initial_state(spec)
    target = models.single_flip_state(spec.N, 2)
    kernel, sizes = linalg.scaled_propagator, []
    monkeypatch.setattr(linalg, "scaled_propagator",
                        lambda m, dt: sizes.append(len(m)) or kernel(m, dt))
    trace = dynamics.evolve_trace(spec, init, target, 500.0, 2000)
    f = dynamics.final_fidelity(spec, init, target, 500.0)
    assert sizes == [spec.N // 2 + 1] * 2
    monkeypatch.undo()
    fidelities, log_norms = _dense_stepped(spec, init, target, 500.0, 2000)
    assert np.max(np.abs(trace.fidelities - fidelities)) <= 1e-12
    assert abs(f - fidelities[-1]) <= 1e-12
    assert np.all(np.abs(trace.log_norms - log_norms)
                  <= 1e-12 * (1 + np.abs(log_norms)))


_RING_DYNAMICS_SCRIPT = """
from epchain import dynamics, models, serialize
spec = models.ModelSpec(models.ModelKind.TRANSVERSE_ISING, N=8, Delta=0.5,
                        gamma=0.0010610238509671517)
init = dynamics.default_initial_state(spec)
target = models.target_state("ghz", 8)
print(dynamics.final_fidelity(spec, init, target, 2e5).hex())
print(serialize.trace_to_csv(dynamics.evolve_trace(spec, init, target, 2e5, 50)))
"""


def test_ring_ghz_dynamics_byte_identical_across_blas_threads():
    # the whole 256 x 256 ring's products are threaded in BLAS and moved its
    # last bits with the thread count; its momentum blocks are not
    src = os.path.dirname(os.path.dirname(os.path.abspath(dynamics.__file__)))
    paths = [src, os.environ.get("PYTHONPATH", "")]
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, paths)))
        outs.append(subprocess.run([sys.executable, "-c", _RING_DYNAMICS_SCRIPT],
                                   env=env, check=True, capture_output=True,
                                   text=True).stdout)
    assert outs[0] == outs[1]


def test_final_fidelity_validation():
    spec = xy(4, gamma=1.2)
    init = dynamics.default_initial_state(spec)
    target = models.target_state("w", 4)
    for t_max in (-1.0, 0.0):
        with pytest.raises(ValueError):
            dynamics.final_fidelity(spec, init, target, t_max)
    with pytest.raises(DimensionMismatch):
        dynamics.final_fidelity(spec, models.site_state(6, 1), target, 10.0)
    with pytest.raises(DimensionMismatch):
        dynamics.final_fidelity(spec, init, models.target_state("w", 6), 10.0)


@pytest.mark.parametrize("t_max", [math.inf, math.nan])
def test_nonfinite_t_max_raises(t_max):
    spec = xy(4, gamma=1.2)
    init = dynamics.default_initial_state(spec)
    target = models.target_state("w", 4)
    with pytest.raises(ValueError, match="finite"):
        dynamics.evolve_trace(spec, init, target, t_max, 100)
    with pytest.raises(ValueError, match="finite"):
        dynamics.final_fidelity(spec, init, target, t_max)


def test_default_initial_state_embeddings():
    m = dynamics.default_initial_state(xy(5))
    assert np.argmax(np.abs(m.amplitudes)) == 0
    s = dynamics.default_initial_state(
        ModelSpec(ModelKind.TRANSVERSE_ISING, N=3, Delta=0.5))
    assert np.argmax(np.abs(s.amplitudes)) == 4  # single flip at site 1 (MSB)


# ---------------------------------------------------------------------------
# _dominant_index / steady_fidelity

def test_dominant_index_picks_the_largest_imaginary_part():
    assert dynamics._dominant_index(np.array([-1j, 0.5 + 1j, 3.0])) == 1


def test_steady_fidelity_unbroken_raises():
    with pytest.raises(NoDominantState):
        dynamics.steady_fidelity(xy(6, gamma=0.5), models.target_state("w", 6))


def test_dominant_index_degenerate_raises():
    with pytest.raises(NoDominantState):
        dynamics._dominant_index(np.array([1j, 1j, -1j]))


def test_steady_fidelity_matches_trace_limit():
    spec = xy(6, gamma=1.2)
    w = models.target_state("w", 6)
    tr = dynamics.evolve_trace(spec, dynamics.default_initial_state(spec), w,
                               200.0, 2000, target_name="w")
    assert abs(tr.fidelities[-1] - dynamics.steady_fidelity(spec, w)) < 1e-6


@pytest.mark.parametrize("N, Delta, gamma", [(6, 0.75, 0.05), (6, 0.5, 0.3),
                                            (8, 0.5, 0.1)])
def test_ring_steady_fidelity_matches_dense_dominant_state(N, Delta, gamma):
    # chosen among all momentum blocks and their mirror sectors
    spec = ising(N, Delta, gamma)
    target = models.target_state("ghz", N)
    spectrum = linalg.eig(models.build_hamiltonian(spec))
    vec = spectrum.right_vectors[:, np.argmax(spectrum.eigenvalues.imag)]
    dense = abs(np.vdot(target.amplitudes, vec / np.linalg.norm(vec)))
    assert dynamics.steady_fidelity(spec, target) == pytest.approx(dense, abs=1e-10)


def _steady_fidelity_over_all_blocks(spec, target, bloch_blocks):
    """Test-only steady_fidelity over all N blocks of the Bloch oracle."""
    bases, blocks = zip(*bloch_blocks(spec))
    spectra = [linalg.eig(h) for h in blocks]
    n = dynamics._dominant_index(np.concatenate([s.eigenvalues for s in spectra]))
    b, j = [(b, j) for b, s in enumerate(spectra) for j in range(s.dim)][n]
    tgt = bases[b].conj().T @ target.amplitudes / np.linalg.norm(target.amplitudes)
    vec = spectra[b].right_vectors[:, j]
    return float(abs(np.vdot(tgt, vec / np.linalg.norm(vec))))


@pytest.mark.parametrize("N, J, Delta, gamma", [
    (6, 1.0, 0.75, 0.05), (6, 1.0, 0.5, 0.3), (8, 1.0, 0.5, 0.1),
    (10, 1.0, 0.5, 0.02), (6, 0.0, 0.9, 1.2), (8, 0.0, 0.5, 0.7),
    (7, -0.7, 1.3, 0.8), (6, 1.0, 2.0, 3.0)])
def test_ring_steady_fidelity_skips_the_mirror_blocks(monkeypatch, bloch_blocks,
                                                      N, J, Delta, gamma):
    spec = replace(ising(N, Delta, gamma), J=J)
    target = models.target_state("ghz", N)
    try:
        expected = _steady_fidelity_over_all_blocks(spec, target, bloch_blocks)
    except NoDominantState:
        expected = NoDominantState
    dims, eig = [], linalg.eig
    monkeypatch.setattr(linalg, "eig", lambda h: dims.append(len(h)) or eig(h))
    if expected is NoDominantState:
        with pytest.raises(NoDominantState):
            dynamics.steady_fidelity(spec, target)
    else:
        assert dynamics.steady_fidelity(spec, target) == pytest.approx(
            expected, abs=1e-12)
    blocks = models.hamiltonian_blocks(spec)
    assert len(blocks) == N // 2 + 1
    assert dims == [len(h) for h in blocks]


def test_ring_steady_fidelity_unbroken_raises():
    with pytest.raises(NoDominantState):
        dynamics.steady_fidelity(ising(6, 0.75, 1e-4), models.target_state("ghz", 6))


# a state of the other space with the same dimension: 4 magnon positions and
# the 2^2 spin-z configurations
FOREIGN_STATES = {
    "magnon_N4_spin_state": (xy(4, gamma=1.2), models.target_state("w", 4),
                             models.bitstring_state("01")),
    "ising_N2_ring_magnon_state": (ising(2, 0.5, 0.6), models.target_state("ghz", 2),
                                   models.target_state("w", 4)),
}


@pytest.mark.parametrize("case", FOREIGN_STATES)
def test_dynamics_reject_a_state_of_the_other_space(case):
    spec, own, foreign = FOREIGN_STATES[case]
    assert foreign.basis.dim == own.basis.dim
    runs = (lambda init, target: dynamics.evolve_trace(spec, init, target,
                                                       10.0, 100),
            lambda init, target: dynamics.final_fidelity(spec, init, target,
                                                         10.0))
    for run in runs:
        for init, target in ((foreign, own), (own, foreign)):
            with pytest.raises(DimensionMismatch):
                run(init, target)
    with pytest.raises(DimensionMismatch):
        dynamics.steady_fidelity(spec, foreign)


def test_ring_steady_fidelity_rejects_a_target_of_other_size():
    with pytest.raises(DimensionMismatch):
        dynamics.steady_fidelity(ising(6, 0.75, 0.05), models.target_state("ghz", 4))


def test_limit_identity_property():
    # lim f(t) = |<target|dominant>| whenever <dominant|init> != 0
    for g in (1.1, 1.4):
        spec = xy(6, gamma=g)
        w = models.target_state("w", 6)
        tr = dynamics.evolve_trace(spec, dynamics.default_initial_state(spec),
                                   w, 300.0, 3000, target_name="w")
        assert abs(tr.fidelities[-1]
                   - dynamics.steady_fidelity(spec, w)) < 1e-4


# ---------------------------------------------------------------------------
# decay rate of 1 - f(t)

def _fitted_decay_rate(spec, target, t_max, n_steps):
    tr = dynamics.evolve_trace(spec, dynamics.default_initial_state(spec),
                               target, t_max, n_steps)
    dev = np.abs(tr.fidelities - tr.fidelities[-1])
    # fit on the clean exponential window
    mask = (dev > 1e-11) & (tr.times > t_max * 0.1) & (tr.times < t_max * 0.7)
    t, y = tr.times[mask], np.log(dev[mask])
    slope, _ = np.polyfit(t, y, 1)
    return -slope


def _im_gap(spec):
    vals = linalg.eig(models.build_hamiltonian(spec)).eigenvalues
    im = np.sort(vals.imag)
    return im[-1] - im[-2]


@pytest.mark.xfail(
    strict=True,
    reason="source-text defect: 1-f(t) decays at the rate of ONE times the "
    "imaginary gap (the subleading eigenvector is not orthogonal to the "
    "target, so the deviation is linear, not quadratic, in the decaying "
    "amplitude ratio); the stated factor 2 disagrees with the measured "
    "rate by a factor ~2",
)
def test_decay_rate_twice_im_gap_as_stated():
    spec = xy(6, gamma=1.2)
    rate = _fitted_decay_rate(spec, models.target_state("w", 6), 120.0, 4000)
    assert rate == pytest.approx(2 * _im_gap(spec), rel=0.10)


def test_decay_rate_matches_im_gap():
    spec = xy(6, gamma=1.2)
    rate = _fitted_decay_rate(spec, models.target_state("w", 6), 120.0, 4000)
    assert rate == pytest.approx(_im_gap(spec), rel=0.10)


# ---------------------------------------------------------------------------
# convergence_time

def test_convergence_time_constant_trace():
    spec = xy(6, V=2.0, gamma=0.0)
    h = models.build_hamiltonian(spec)
    vec = linalg.eig(h).right_vectors[:, 0]
    state = models.StateVector(models.magnon_basis(6), vec)
    tr = dynamics.evolve_trace(spec, state, state, 10.0, 100)
    assert dynamics.convergence_time(tr) == pytest.approx(tr.times[0])


def test_convergence_time_needs_positive_tol():
    spec = xy(4, gamma=1.2)
    tr = dynamics.evolve_trace(spec, dynamics.default_initial_state(spec),
                               models.target_state("w", 4), 10.0, 10)
    with pytest.raises(ValueError, match="tol"):
        dynamics.convergence_time(tr, tol=0)


def test_convergence_time_ordering_in_gamma():
    w = models.target_state("w", 6)
    times = {}
    for g in (1.05, 1.5):
        spec = xy(6, gamma=g)
        tr = dynamics.evolve_trace(spec, dynamics.default_initial_state(spec),
                                   w, 200.0, 2000, target_name="w")
        times[g] = dynamics.convergence_time(tr)
    assert times[1.05] > times[1.5]


def test_convergence_time_never_settled_returns_last_sample():
    # |f(s) - f(t_max)| < tol holds vacuously at s = t_max, so a trace that
    # never settles earlier yields the final sample time (the +inf sentinel
    # is unreachable by the definition; kept for defensive completeness)
    tr = dynamics.EvolutionTrace(
        times=np.linspace(1, 10, 10),
        fidelities=np.linspace(0.1, 0.9, 10),
        log_norms=np.zeros(10),
        target_name="w",
        spec=xy(4, gamma=1.2),
    )
    assert dynamics.convergence_time(tr, tol=1e-6) == pytest.approx(10.0)


def test_trace_rejects_bad_arrays():
    spec = xy(4, gamma=1.2)
    with pytest.raises(ValueError):
        dynamics.EvolutionTrace(times=np.array([2.0, 1.0]),
                                fidelities=np.array([0.5, 0.5]),
                                log_norms=np.zeros(2), target_name="w",
                                spec=spec)
    with pytest.raises(ValueError):
        dynamics.EvolutionTrace(times=np.array([1.0, 2.0]),
                                fidelities=np.array([0.5, 1.5]),
                                log_norms=np.zeros(2), target_name="w",
                                spec=spec)


def test_trace_rejects_nan_fidelity():
    with pytest.raises(ValueError):
        dynamics.EvolutionTrace(times=np.array([1.0, 2.0]),
                                fidelities=np.array([0.5, np.nan]),
                                log_norms=np.zeros(2), target_name="w",
                                spec=xy(4, gamma=1.2))
