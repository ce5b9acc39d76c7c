"""Tests for the dense linear-algebra kernel."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from epchain import linalg, models
from epchain.errors import DimensionMismatch, NonConvergence
from epchain.models import IsingBoundary, ModelKind, ModelSpec


def h_eq(N, V, gamma):
    return models.build_h_eq(ModelSpec(ModelKind.XY_MAGNON, N=N, V=V, gamma=gamma))


# ---------------------------------------------------------------------------
# eig

def test_eig_scalar():
    spec = linalg.eig(np.array([[2 + 3j]]))
    assert spec.eigenvalues[0] == pytest.approx(2 + 3j, abs=1e-14)
    assert abs(abs(spec.right_vectors[0, 0]) - 1.0) < 1e-14


def test_eig_two_site_w_chain():
    gamma = 0.5
    spec = linalg.eig(models.build_h_w(2, gamma))
    expected = math.sqrt(1 - gamma ** 2)
    assert np.allclose(sorted(spec.eigenvalues.real), [-expected, expected],
                       atol=1e-12)
    assert np.allclose(spec.eigenvalues.imag, 0.0, atol=1e-12)


def test_eig_matches_independent_root_scan():
    # Oracle: the 6 real eigenvalues of H_eq(N=6, V=0, gamma=0.5) are
    # 2 cos k for the roots k of the scalar quantization function
    # sin(k(N+1)) + gamma^2 sin(k(N-1)), located here by an independent
    # grid-bracketed bisection (no matrix involved).
    N, gamma = 6, 0.5

    def f(k):
        return math.sin(k * (N + 1)) + gamma ** 2 * math.sin(k * (N - 1))

    ks = []
    grid = np.linspace(1e-6, math.pi - 1e-6, 20000)
    vals = [f(k) for k in grid]
    for i in range(len(grid) - 1):
        if vals[i] * vals[i + 1] < 0:
            lo, hi = grid[i], grid[i + 1]
            for _ in range(100):
                mid = (lo + hi) / 2
                if f(lo) * f(mid) <= 0:
                    hi = mid
                else:
                    lo = mid
            ks.append((lo + hi) / 2)
    assert len(ks) == N
    expected = np.sort([2 * math.cos(k) for k in ks])

    spec = linalg.eig(h_eq(N, 0.0, gamma))
    assert np.allclose(spec.eigenvalues.imag, 0.0, atol=1e-9)
    assert np.allclose(np.sort(spec.eigenvalues.real), expected, atol=1e-9)


def test_eig_residual_contract():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = rng.integers(2, 12)
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        spec = linalg.eig(a)
        assert spec.max_residual() <= 1e-9 * (1 + np.linalg.norm(a))


def test_eig_sorted_and_deterministic():
    a = h_eq(8, 3.0, 0.4)
    s1, s2 = linalg.eig(a), linalg.eig(a)
    keys = [(e.real, e.imag) for e in s1.eigenvalues]
    assert keys == sorted(keys)
    assert np.array_equal(s1.eigenvalues, s2.eigenvalues)
    assert np.array_equal(s1.right_vectors, s2.right_vectors)


def test_eig_rejects_nonsquare_and_nonfinite():
    with pytest.raises(DimensionMismatch):
        linalg.eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        linalg.eig(np.array([[np.nan, 0], [0, 1]]))


def test_conjugation_closure_for_pt_matrices():
    for V, gamma in [(0.0, 0.5), (0.0, 1.3), (3.0, 0.2), (10.0, 0.05)]:
        a = h_eq(6, V, gamma)
        assert models.check_pt_spectrum(a)
        vals = linalg.eig(a).eigenvalues
        # multiset closure under conjugation: greedy nearest-match pairing
        remaining = list(np.conj(vals))
        for v in vals:
            j = int(np.argmin([abs(v - r) for r in remaining]))
            assert abs(v - remaining[j]) < 1e-9
            remaining.pop(j)


# ---------------------------------------------------------------------------
# biorthogonal_overlap

def test_overlap_calw_w_zero():
    for N in (4, 6):
        w = models.target_state("W", N)
        calw = models.target_state("CalW", N)
        assert abs(linalg.biorthogonal_overlap(calw, w)) < 1e-14


def test_overlap_self_is_one():
    v = models.target_state("Bell", 6)
    assert linalg.biorthogonal_overlap(v, v) == pytest.approx(1.0, abs=1e-14)


def test_overlap_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        linalg.biorthogonal_overlap(models.site_state(4, 1),
                                    models.site_state(6, 1))


# ---------------------------------------------------------------------------
# propagator

def _expm(m, dt):
    """exp(-i m dt) rebuilt from scaled_propagator's (u, e) as 2^e u."""
    u, e = linalg.scaled_propagator(m, dt)
    return 2.0 ** e * u


def test_propagator_zero_matrix_identity():
    psi = np.array([1.0, 2.0j, -0.5])
    out = _expm(np.zeros((3, 3)), 2.7) @ psi
    assert np.allclose(out, psi, atol=1e-14)


def test_propagator_scalar_growth():
    gamma, t = 0.8, 1.5
    out = _expm(np.array([[1j * gamma]]), t) @ np.array([1.0])
    assert abs(out[0]) == pytest.approx(math.exp(gamma * t), rel=1e-12)


def test_propagator_backends_agree_away_from_ep():
    # Pade against the eigen synthesis V diag(e^{-i eps dt}) V^-1, which is
    # well conditioned away from the EP: X V = V D is solved as V^T X^T = (V D)^T
    h = models.build_h_w(6, 1.2)
    vals, vecs = np.linalg.eig(h)
    step_s = np.linalg.solve(vecs.T, (vecs * np.exp(-0.1j * vals)).T).T
    step_p = _expm(h, 0.1)
    psi_p = models.site_state(6, 1).amplitudes.copy()
    psi_s = psi_p.copy()
    for _ in range(200):
        psi_p = step_p @ psi_p
        psi_s = step_s @ psi_s
    assert np.linalg.norm(psi_p - psi_s) <= 1e-8 * np.linalg.norm(psi_p)


def test_propagator_spectral_defective_matrix():
    # exactly defective 2x2 Jordan block, where eigen synthesis has no basis
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    out = _expm(jordan, 0.1) @ np.array([1.0, 0.0])
    assert np.all(np.isfinite(out))


def test_propagator_pade_finite_at_physical_ep():
    h = models.build_h_w(6, 1.0)  # exceptional point of the V=0 chain
    out = _expm(h, 0.1) @ models.site_state(6, 1).amplitudes
    assert np.all(np.isfinite(out))


@given(a=st.floats(0.01, 2.0), b=st.floats(0.01, 2.0))
@settings(max_examples=25, deadline=None)
def test_propagator_composition(a, b):
    h = h_eq(4, 1.5, 0.6)
    psi = models.site_state(4, 2).amplitudes
    once = _expm(h, a + b) @ psi
    twice = _expm(h, b) @ (_expm(h, a) @ psi)
    assert np.linalg.norm(once - twice) <= 1e-8 * (1 + np.linalg.norm(once))


def test_hermitian_limit_real_spectrum_and_norm():
    h = h_eq(6, 2.0, 0.0)
    spec = linalg.eig(h)
    assert np.max(np.abs(spec.eigenvalues.imag)) <= 1e-10
    psi = models.site_state(6, 3).amplitudes
    out = _expm(h, 5.0) @ psi
    assert abs(np.linalg.norm(out) - 1.0) < 1e-8


# ---------------------------------------------------------------------------
# propagator against independent oracles: scipy.linalg.expm (imported by the
# tests only; the package runs on numpy) and mpmath's expm at 50 digits

def _rel(got, ref):
    return np.linalg.norm(got - ref) / np.linalg.norm(ref)


# every model kind at its figures' step sizes: (kind, parameters, dt)
_MODEL_STEPS = {
    "xy_magnon": (ModelKind.XY_MAGNON, {"V": 5.0, "gamma": 0.0015}, 10.0),
    "xy_full_space": (ModelKind.XY_FULL_SPACE, {"V": 5.0, "gamma": 0.0015}, 10.0),
    "ising_periodic": (ModelKind.TRANSVERSE_ISING,
                       {"Delta": 0.75, "gamma": 0.006}, 5.0),
    "ising_open": (ModelKind.TRANSVERSE_ISING,
                   {"Delta": 0.75, "gamma": 0.006,
                    "ising_boundary": IsingBoundary.OPEN}, 5.0),
}


@pytest.mark.parametrize("N", range(4, 11))
@pytest.mark.parametrize("model", sorted(_MODEL_STEPS))
def test_propagator_matches_scipy_on_model_blocks(model, N):
    kind, values, dt = _MODEL_STEPS[model]
    for h in models.hamiltonian_blocks(ModelSpec(kind, N=N, **values)):
        assert _rel(_expm(h, dt),
                    scipy.linalg.expm(-1j * dt * h)) <= 1e-12


@pytest.mark.parametrize("norm1", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
def test_propagator_matches_scipy_on_random_generators(norm1):
    # H = Hermitian hopping + i * gain/loss on the diagonal, like the models,
    # so exp(-i dt H) stays finite at every 1-norm of -i dt H
    rng = np.random.default_rng(17)
    for d in (1, 2, 5, 12):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = (a + a.conj().T) / 2 + 0.1j * np.diag(rng.normal(size=d))
        dt = norm1 / np.linalg.norm(h, 1)
        ref = scipy.linalg.expm(-1j * dt * h)
        assert np.all(np.isfinite(ref))
        assert _rel(_expm(h, dt), ref) <= 1e-12


# fig3's runs at their optimized gamma: (N, V, gamma*, dt = t_max / 2000)
_FIG3_STEPS = [(6, 5.0, 0.001536004868946402, 10.0),
               (6, 10.0, 9.900017752849266e-05, 100.0),
               (8, 5.0, 6.144154979930002e-05, 1000.0)]


@pytest.mark.parametrize("N, V, gamma, dt", _FIG3_STEPS)
def test_propagator_matches_mpmath_at_fig3_steps(N, V, gamma, dt):
    h = h_eq(N, V, gamma)
    with mpmath.workdps(50):
        ref = mpmath.expm(mpmath.matrix((-1j * dt * h).tolist()))
        ref = np.array(ref.tolist(), dtype=complex)
    assert _rel(_expm(h, dt), ref) <= 1e-12


@pytest.mark.parametrize("N, dt", [(6, 5.0), (8, 100.0)])
def test_propagator_stack_matches_single_calls(N, dt):
    # the ring's momentum blocks, of unequal sizes, zero-padded to one stack
    spec = ModelSpec(ModelKind.TRANSVERSE_ISING, N=N, Delta=0.75, gamma=0.006)
    blocks = models.hamiltonian_blocks(spec)
    d = max(len(h) for h in blocks)
    assert min(len(h) for h in blocks) < d
    stack = np.zeros((len(blocks), d, d), dtype=complex)
    for b, h in enumerate(blocks):
        stack[b, :len(h), :len(h)] = h
    u = _expm(stack, dt)
    for b, h in enumerate(blocks):
        n = len(h)
        assert _rel(u[b, :n, :n], _expm(h, dt)) <= 1e-13
        # the padding couples to nothing, so padded amplitudes stay exactly 0;
        # its own exponential is the identity up to the squarings' roundoff
        assert not u[b, :n, n:].any() and not u[b, n:, :n].any()
        assert np.allclose(u[b, n:, n:], np.eye(d - n), rtol=0, atol=1e-12)


def test_propagator_rejects_nonsquare_and_nonfinite_stacks():
    for shape in [(2, 3, 4), (0, 3, 3), (2, 2, 2, 2), (3,)]:
        with pytest.raises(DimensionMismatch):
            linalg.scaled_propagator(np.ones(shape), 1.0)
    stack = np.zeros((2, 3, 3))
    stack[1, 0, 2] = np.inf
    with pytest.raises(ValueError):
        linalg.scaled_propagator(stack, 1.0)


@pytest.mark.parametrize("dt", [math.inf, math.nan, 1e308])
def test_scaled_propagator_nonfinite_generator_raises(dt):
    # -i m dt is not finite: infinite, NaN, or overflowing the product
    with pytest.raises(NonConvergence, match="not finite"):
        linalg.scaled_propagator(np.array([[0.0, 10.0], [10.0, 0.0]]), dt)


# ---------------------------------------------------------------------------
# one_blas_thread

def test_one_blas_thread_pins_and_restores_the_count():
    threads = linalg._blas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS exposes no thread count")
    get, set_ = threads
    old = get()
    try:
        set_(2)
        with pytest.raises(RuntimeError, match="inside"):
            with linalg.one_blas_thread():
                assert get() == 1
                with linalg.one_blas_thread():
                    assert get() == 1
                assert get() == 1
                raise RuntimeError("inside")
        assert get() == 2
    finally:
        set_(old)


class _LibraryWithoutThreadCount:
    """A shared library that names no OpenBLAS thread functions."""

    def __init__(self, path):
        pass

    def __getattr__(self, name):
        raise AttributeError(name)


def _no_library(path):
    raise OSError(f"cannot load {path}")


@pytest.mark.parametrize("cdll", [_LibraryWithoutThreadCount, _no_library])
def test_one_blas_thread_without_the_symbols_does_nothing(monkeypatch, cdll):
    monkeypatch.setattr(linalg.ctypes, "CDLL", cdll)
    linalg._blas_threads.cache_clear()
    try:
        assert linalg._blas_threads() is None
        with linalg.one_blas_thread():
            spectrum = linalg.eig(h_eq(4, 0.0, 0.5))
        assert spectrum.dim == 4
    finally:
        linalg._blas_threads.cache_clear()  # found again on the next call
