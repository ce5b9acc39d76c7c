"""Tests for Hamiltonian and target-state builders."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epchain import linalg, models
from epchain.errors import (
    DimensionCap,
    DimensionMismatch,
    OddNForW,
    SectorNotInvariant,
)
from epchain.models import IsingBoundary, ModelKind, ModelSpec


def xy(N, V=0.0, gamma=0.0):
    return ModelSpec(ModelKind.XY_MAGNON, N=N, V=V, gamma=gamma)


def full(N, V=0.0, gamma=0.0):
    return ModelSpec(ModelKind.XY_FULL_SPACE, N=N, V=V, gamma=gamma)


def ising(N, J=1.0, Delta=0.0, gamma=0.0, boundary=IsingBoundary.PERIODIC):
    return ModelSpec(ModelKind.TRANSVERSE_ISING, N=N, J=J, Delta=Delta,
                     gamma=gamma, ising_boundary=boundary)


# ---------------------------------------------------------------------------
# ModelSpec validation

def test_spec_rejects_negative_gamma():
    with pytest.raises(ValueError, match="gamma"):
        xy(4, gamma=-0.1)


def test_spec_rejects_nonfinite():
    with pytest.raises(ValueError):
        xy(4, V=float("inf"))


def test_spec_dimension_cap():
    with pytest.raises(DimensionCap):
        ising(13)


def test_spec_minimum_sites():
    with pytest.raises(ValueError):
        xy(1)
    ising(1)  # single Ising spin is allowed (spec example N=1)


# ---------------------------------------------------------------------------
# build_h_eq / build_h_w

def test_h_eq_two_site_transcription():
    h = models.build_h_eq(xy(2, V=0.0, gamma=1.0))
    assert np.array_equal(h, np.array([[1j, 1], [1, -1j]]))


def test_h_eq_three_site_transcription():
    h = models.build_h_eq(xy(3, V=5.0, gamma=0.1))
    expected = np.array(
        [[5 + 0.1j, 1, 0], [1, 0, 1], [0, 1, 5 - 0.1j]], dtype=complex
    )
    assert np.array_equal(h, expected)


def test_h_eq_w_null_vector():
    h = models.build_h_eq(xy(6, V=0.0, gamma=1.0))
    w = models.target_state("W", 6)
    assert np.linalg.norm(h @ w.amplitudes) < 1e-12


def test_h_w_hermitian_limit():
    h = models.build_h_w(2, 0.0)
    assert np.array_equal(h, np.array([[0, 1], [1, 0]], dtype=complex))
    vals = np.sort(np.linalg.eigvalsh(h.real))
    assert np.allclose(vals, [-1, 1], atol=1e-14)


def test_h_w_ep_degeneracy_structure():
    h = models.build_h_w(6, 1.0)
    vals = np.linalg.eigvals(h)
    # algebraic multiplicity of eigenvalue 0 is >= 2 ...
    assert np.sum(np.abs(vals) < 1e-6) >= 2
    # ... but the geometric multiplicity is 1 (one null direction)
    svals = np.linalg.svd(h, compute_uv=False)
    assert np.sum(svals < 1e-10) == 1


def test_h_w_single_conjugate_pair_in_broken_phase():
    vals = np.linalg.eigvals(models.build_h_w(8, 1.05))
    complex_vals = vals[np.abs(vals.imag) > 1e-10]
    assert len(complex_vals) == 2
    assert complex_vals[0].imag == pytest.approx(-complex_vals[1].imag, rel=1e-9)


# ---------------------------------------------------------------------------
# full-space chain and sector reduction

def test_full_chain_two_site_block():
    h = models.build_h_chain_full(full(2))
    block = models.reduce_to_magnon_sector(h, 2)
    assert np.allclose(block, [[0, 1], [1, 0]], atol=1e-15)


def test_full_chain_commutes_with_total_sz():
    h = models.build_h_chain_full(full(4, V=1.3, gamma=0.8))
    jz = models.total_sz(4)
    assert np.linalg.norm(jz @ h - h @ jz) < 1e-12


def test_full_chain_magnon_block_equals_h_eq():
    spec = full(6, V=3.0, gamma=0.2)
    block = models.reduce_to_magnon_sector(models.build_h_chain_full(spec), 6)
    direct = models.build_h_eq(xy(6, V=3.0, gamma=0.2))
    assert np.max(np.abs(block - direct)) < 1e-12


def test_reduce_identity():
    assert np.array_equal(models.reduce_to_magnon_sector(np.eye(16), 4),
                          np.eye(4))


def test_reduce_rejects_noninvariant():
    bad = np.zeros((16, 16), dtype=complex)
    bad[0, 3] = 1.0  # couples 0-flip and 2-flip sectors
    with pytest.raises(SectorNotInvariant):
        models.reduce_to_magnon_sector(bad, 4)


def test_reduce_rejects_wrong_shape():
    with pytest.raises(DimensionMismatch):
        models.reduce_to_magnon_sector(np.eye(10), 4)


# ---------------------------------------------------------------------------
# Ising chain

def test_ghz_single_spin_eigenvalues():
    delta, gamma = 1.7, 0.9
    expected = math.sqrt(delta ** 2 - gamma ** 2)
    for J in (0.0, 1.0):  # the ring's single bond is sz_1 sz_1 = identity
        h = models.build_h_ghz(ising(1, J=J, Delta=delta, gamma=gamma))
        vals = np.sort(np.linalg.eigvals(h).real)
        assert np.allclose(vals, [-J - expected, -J + expected], atol=1e-12)
        assert np.allclose(np.linalg.eigvals(h).imag, 0.0, atol=1e-12)


def test_ghz_reality_condition_satisfied():
    vals = np.linalg.eigvals(models.build_h_ghz(ising(4, J=0.0, Delta=2.0,
                                                      gamma=1.0)))
    assert np.max(np.abs(vals.imag)) < 1e-10


def test_ghz_reality_condition_violated():
    vals = np.linalg.eigvals(models.build_h_ghz(ising(4, J=0.0, Delta=1.0,
                                                      gamma=2.0)))
    assert np.max(np.abs(vals.imag)) > 1e-3


def test_ghz_open_vs_periodic_bond_count():
    # J-term difference between periodic and open is exactly the wrap bond
    hp = models.build_h_ghz(ising(4, J=1.0))
    ho = models.build_h_ghz(ising(4, J=1.0, boundary=IsingBoundary.OPEN))
    diff = hp - ho
    assert np.count_nonzero(diff) == 16  # diagonal sigma^z_4 sigma^z_1 term
    assert np.allclose(np.diag(diff), np.diag(diff).real)


# ---------------------------------------------------------------------------
# Kronecker-product reference for the bit-operation builders

_SX = np.array([[0, 1], [1, 0]], dtype=complex)
_SZ = np.array([[-1, 0], [0, 1]], dtype=complex)
_SP = np.array([[0, 0], [1, 0]], dtype=complex)  # s+ = |up><down|, (down, up) order
_SM = _SP.T.conj()


def _kron_sites(N, ops):
    """Tensor product over sites 0..N-1 of ops[site], identity elsewhere."""
    out = np.eye(1, dtype=complex)
    for s in range(N):
        out = np.kron(out, ops.get(s, np.eye(2, dtype=complex)))
    return out


def _kron_h_ghz(spec):
    N = spec.N
    h = np.zeros((2 ** N, 2 ** N), dtype=complex)
    bonds = N if spec.ising_boundary is IsingBoundary.PERIODIC else N - 1
    for l in range(bonds):
        h += -spec.J * _kron_sites(N, {l: _SZ, (l + 1) % N: _SZ})
    for l in range(N):
        h += 1j * spec.gamma * _kron_sites(N, {l: _SZ})
        h += spec.Delta * _kron_sites(N, {l: _SX})
    return h


def _kron_h_chain_full(spec):
    N = spec.N
    dim = 2 ** N
    h = np.zeros((dim, dim), dtype=complex)
    for l in range(N - 1):
        h += _kron_sites(N, {l: _SP, l + 1: _SM})
        h += _kron_sites(N, {l: _SM, l + 1: _SP})
    n_first = (_kron_sites(N, {0: _SZ}) + np.eye(dim)) / 2
    n_last = (_kron_sites(N, {N - 1: _SZ}) + np.eye(dim)) / 2
    h += (spec.V + 1j * spec.gamma) * n_first
    h += (spec.V - 1j * spec.gamma) * n_last
    return h


@pytest.mark.parametrize("N", range(2, 9))
def test_bit_builders_equal_kron_reference(N):
    rng = np.random.default_rng(N)
    J, Delta, V = 2.0 * rng.normal(size=3)
    gamma = abs(rng.normal())
    for boundary in IsingBoundary:
        spec = ising(N, J=J, Delta=Delta, gamma=gamma, boundary=boundary)
        assert np.array_equal(models.build_h_ghz(spec), _kron_h_ghz(spec))
    spec = full(N, V=V, gamma=gamma)
    assert np.array_equal(models.build_h_chain_full(spec),
                          _kron_h_chain_full(spec))
    assert np.array_equal(models.total_sz(N),
                          sum(_kron_sites(N, {l: _SZ}) for l in range(N)))


@pytest.mark.parametrize("N", range(1, 9))
def test_spin_site_reversal_is_bitstring_reversal(N):
    # generic matrix whose PT symmetry is exactly P = reversed bitstring
    rev = [int(format(i, f"0{N}b")[::-1], 2) for i in range(2 ** N)]
    a, b = np.random.default_rng(N).normal(size=(2, 2 ** N, 2 ** N))
    m = a + a[np.ix_(rev, rev)] + 1j * (b - b[np.ix_(rev, rev)])
    assert models.check_pt_spectrum(m, basis="spin", parity="site_reversal")
    assert not models.check_pt_spectrum(m, basis="spin", parity="spin_flip")


# ---------------------------------------------------------------------------
# target states

def test_bell_two_site():
    bell = models.target_state("Bell", 2)
    assert np.allclose(bell.amplitudes,
                       [1 / math.sqrt(2), -1j / math.sqrt(2)], atol=1e-15)


def test_w_two_site_and_annihilation():
    w = models.target_state("W", 2)
    assert np.allclose(w.amplitudes,
                       [-1j / math.sqrt(2), -1 / math.sqrt(2)], atol=1e-15)
    h = models.build_h_w(2, 1.0)
    assert np.linalg.norm(h @ w.amplitudes) < 1e-14


def test_ghz_three_site_amplitudes():
    ghz = models.target_state("GHZ", 3)
    amps = ghz.amplitudes
    assert amps[0] == pytest.approx(1 / math.sqrt(2))
    assert amps[7] == pytest.approx(1 / math.sqrt(2))
    assert np.count_nonzero(amps) == 2


def test_w_odd_n_warns():
    with pytest.warns(OddNForW):
        models.target_state("W", 5)


def test_unknown_target_rejected():
    with pytest.raises(ValueError):
        models.target_state("ghzz", 4)


def test_w_annihilated_across_even_n():
    for n in (2, 4, 6, 8, 10):
        w = models.target_state("W", n)
        assert np.linalg.norm(models.build_h_w(n, 1.0) @ w.amplitudes) < 1e-12


def test_w_calw_orthogonal_across_even_n():
    for n in (2, 4, 6, 8, 10):
        w = models.target_state("W", n)
        calw = models.target_state("CalW", n)
        assert abs(linalg.biorthogonal_overlap(calw, w)) < 1e-14


# ---------------------------------------------------------------------------
# PT check

def test_pt_true_for_h_eq():
    assert models.check_pt_spectrum(models.build_h_eq(xy(6, V=2.0, gamma=0.3)))


def test_pt_false_for_broken_parity():
    h = models.build_h_eq(xy(6, V=2.0, gamma=0.3))
    h[1, 1] += 0.1j
    assert not models.check_pt_spectrum(h)


@pytest.mark.xfail(
    strict=True,
    reason="source-text defect: the Ising chain's imaginary longitudinal "
    "field i*gamma*sum(sigma^z) is NOT PT-symmetric under site reversal "
    "(site order does not affect the sign of sigma^z); direct matrix check "
    "gives max |P conj(H) P - H| = 2*gamma*N-scale, not 0",
)
def test_pt_ising_under_site_reversal_as_stated():
    h = models.build_h_ghz(ising(4, J=1.0, Delta=0.7, gamma=0.4))
    assert models.check_pt_spectrum(h, basis="spin", parity="site_reversal")


def test_pt_true_for_periodic_ising_under_spin_flip():
    h = models.build_h_ghz(ising(4, J=1.0, Delta=0.7, gamma=0.4))
    assert models.check_pt_spectrum(h, basis="spin", parity="spin_flip")


def test_pt_true_for_full_space_xy_under_site_reversal():
    h = models.build_h_chain_full(full(4, V=3.0, gamma=0.2))
    assert models.check_pt_spectrum(h, basis="spin", parity="site_reversal")


# ---------------------------------------------------------------------------
# invariants

@given(
    n=st.sampled_from([2, 3, 4, 5, 6]),
    v=st.floats(-5, 5),
)
@settings(max_examples=20, deadline=None)
def test_gamma_zero_builders_hermitian(n, v):
    for h in (
        models.build_h_eq(xy(n, V=v)),
        models.build_h_chain_full(full(n, V=v)),
        models.build_h_ghz(ising(n, J=1.0, Delta=abs(v))),
    ):
        assert np.max(np.abs(h - h.conj().T)) < 1e-15


@given(
    v=st.floats(-4, 4),
    g=st.floats(0, 3),
)
@settings(max_examples=15, deadline=None)
def test_full_chain_sector_invariance_property(v, g):
    h = models.build_h_chain_full(full(4, V=v, gamma=g))
    jz = models.total_sz(4)
    assert np.linalg.norm(jz @ h - h @ jz) < 1e-12
    block = models.reduce_to_magnon_sector(h, 4)
    assert np.max(np.abs(block - models.build_h_eq(xy(4, V=v, gamma=g)))) < 1e-12


def test_state_vector_validation():
    with pytest.raises(DimensionMismatch):
        models.StateVector(models.magnon_basis(4), np.ones(5))
    with pytest.raises(ValueError):
        models.StateVector(models.magnon_basis(2), np.zeros(2))


def test_bitstring_and_single_flip_convention():
    # site 1 is the most significant bit; bit 1 = spin up
    s = models.bitstring_state("100")
    assert np.argmax(np.abs(s.amplitudes)) == 4
    f = models.single_flip_state(3, 3)
    assert np.argmax(np.abs(f.amplitudes)) == 1


@pytest.mark.parametrize("build", [models.site_state, models.single_flip_state])
@pytest.mark.parametrize("l", [0, 4])
def test_site_states_reject_sites_outside_the_chain(build, l):
    # l = 0 must not wrap round to site N
    with pytest.raises(ValueError, match=r"site index .* outside 1\.\.3"):
        build(3, l)
