"""Symmetry blocks (models.hamiltonian_blocks): the real momentum blocks
m = 0 .. N//2 of the periodic Ising ring, which stand for their mirror blocks
N-m too, the real magnon chain, and each block's coordinates of a state; and
the block-wise broken-phase indicator built on them."""

import math
import threading
import time
from dataclasses import replace
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from epchain import analysis, cli, dynamics, linalg, models, serialize
from epchain.models import IsingBoundary, ModelKind, ModelSpec


def ring(N, **kw):
    return ModelSpec(ModelKind.TRANSVERSE_ISING, N=N, **kw)


def _ring_params():
    rng = np.random.default_rng(20261018)
    cases = []
    for N in range(1, 9):
        for _ in range(3):
            cases.append((N, rng.uniform(-2, 2), rng.uniform(-2, 2),
                          rng.uniform(0, 1.5)))
        cases.append((N, -1.0, 0.8, 0.3))  # ferro- and antiferromagnetic
        cases.append((N, 1.0, 0.0, 0.7))  # Delta = 0: diagonal blocks
        cases.append((N, 0.0, 0.9, 0.6))  # J = 0: independent dimers, unbroken
        cases.append((N, 0.0, 0.9, 1.2))  # J = 0, broken
    return cases


def _multiset_distance(a, b) -> float:
    """Largest distance between the members of an optimal pairing of a and b."""
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].max())


@pytest.mark.parametrize("N, J, Delta, gamma", _ring_params())
def test_block_spectra_equal_dense_spectrum(N, J, Delta, gamma):
    spec = ring(N, J=J, Delta=Delta, gamma=gamma)
    h = models.build_h_ghz(spec)
    blocks = models.hamiltonian_blocks(spec)
    sectors = models.sector_blocks(spec)
    assert len(blocks) == N // 2 + 1
    assert sum(blocks[b].shape[0] for b in sectors) == 2 ** N
    eps = np.concatenate([np.linalg.eigvals(blocks[b]) for b in sectors])
    dense = np.linalg.eigvals(h)
    assert _multiset_distance(eps, dense) <= 1e-10 * (1 + np.linalg.norm(h))


@pytest.mark.parametrize("N", range(1, 13))
def test_block_dimensions_sum_to_full_space(N):
    spec = ring(N, Delta=0.5, gamma=0.1)
    blocks = models.hamiltonian_blocks(spec)
    sectors = models.sector_blocks(spec)
    counts = [sectors.count(b) for b in range(len(blocks))]
    assert len(blocks) == N // 2 + 1
    assert counts == [1 if 2 * m in (0, N) else 2 for m in range(N // 2 + 1)]
    assert sum(c * b.shape[0] for b, c in zip(blocks, counts)) == 2 ** N


def test_two_site_ring_blocks():
    # k=0 in Bloch states: |00>, (|01>+|10>)/sqrt2, |11> with the doubled
    # N=2 bond; its real basis is u = (|00>+|11>)/sqrt2, the middle state
    # and v = i(|00>-|11>)/sqrt2, where i gamma sum sz takes u to -2 gamma v.
    # k=pi: (|01>-|10>)/sqrt2, which Delta sum sx annihilates
    J, D, g = 0.7, 0.3, 0.2
    k0, kpi = models.hamiltonian_blocks(ring(2, J=J, Delta=D, gamma=g))
    assert k0.dtype == kpi.dtype == np.float64
    assert np.allclose(k0, [[-2 * J, 2 * D, 2 * g],
                            [2 * D, 2 * J, 0],
                            [-2 * g, 0, -2 * J]], rtol=0, atol=1e-15)
    assert np.array_equal(kpi, [[2 * J]])


@pytest.mark.parametrize("spec", [
    ring(4, Delta=1.0, gamma=0.5, ising_boundary=IsingBoundary.OPEN),
    ModelSpec(ModelKind.XY_MAGNON, N=5, V=2.0, gamma=0.1),
    ModelSpec(ModelKind.XY_FULL_SPACE, N=3, V=2.0, gamma=0.1),
])
def test_other_models_come_back_whole(spec):
    # one real block, h in the basis of block_coordinates
    h = models.build_hamiltonian(spec)
    (block,) = models.hamiltonian_blocks(spec)
    assert models.sector_blocks(spec) == [0]
    assert block.shape == h.shape and block.dtype == np.float64
    assert _multiset_distance(np.linalg.eigvals(block), np.linalg.eigvals(h)) \
        <= 1e-10 * (1 + np.linalg.norm(h))
    (a,) = _block_adjoints(spec)
    assert np.max(np.abs(a @ h @ a.conj().T - block)) <= 1e-13 * (1 + np.abs(h).max())


@pytest.mark.parametrize("J", [1.0, -0.7, 0.0])
@pytest.mark.parametrize("N", range(2, 11))
def test_mirror_blocks_have_equal_spectra(N, J, bloch_blocks):
    # why hamiltonian_blocks stops at k = pi: in the Bloch oracle, block N-m
    # repeats the spectrum of block m, and the real block m has it too
    for Delta in (0.0, 0.3, 1.3):
        for gamma in (0.0, 0.05, 0.8, 3.0):
            spec = ring(N, J=J, Delta=Delta, gamma=gamma)
            blocks = [h for _, h in bloch_blocks(spec)]
            kept = models.hamiltonian_blocks(spec)
            assert len(kept) == N // 2 + 1
            # the blocks are H in an orthonormal basis, so they hold its norm
            scale = 1 + np.sqrt(sum(np.linalg.norm(b) ** 2 for b in blocks))
            for a, b in zip(kept, blocks):
                assert _multiset_distance(np.linalg.eigvals(a),
                                          np.linalg.eigvals(b)) <= 1e-10 * scale
            for m in range(1, N - N // 2):
                assert _multiset_distance(np.linalg.eigvals(blocks[m]),
                                          np.linalg.eigvals(blocks[N - m])) \
                    <= 1e-10 * scale


@pytest.mark.parametrize("N, dims", [(4, [6, 3, 4]), (5, [8, 6, 6])])
@pytest.mark.parametrize("entry", ["max_im_epsilon", "sweep_grid"])
def test_ring_node_diagonalizes_blocks_up_to_k_pi(monkeypatch, N, dims, entry):
    kernel, sent = linalg.eigvals_stack, []

    def counted(stack):
        sent.extend([stack.shape[1]] * len(stack))
        return kernel(stack)

    monkeypatch.setattr(linalg, "eigvals_stack", counted)
    # one sweep thread keeps the block order; on more, the order of the
    # (block, chunk) tasks is the pool's
    monkeypatch.setenv("EPCHAIN_THREADS", "1")
    spec = ring(N, Delta=1.0, gamma=0.5)
    if entry == "max_im_epsilon":
        analysis.max_im_epsilon(spec)
    else:
        analysis.sweep_grid(spec, analysis.AxisSpec("Delta", "lin", np.array([1.0])),
                            analysis.AxisSpec("gamma", "lin", np.array([0.5])))
    assert sent == dims


@pytest.mark.parametrize("N, dims", [(4, [6, 3, 4]), (5, [8, 6, 6])])
def test_ring_node_blocks_reach_the_kernel_once_each_on_two_threads(
        monkeypatch, N, dims):
    kernel, sent, lock = linalg.eigvals_stack, [], threading.Lock()

    def counted(stack):
        with lock:
            sent.extend([stack.shape[1]] * len(stack))
        return kernel(stack)

    monkeypatch.setattr(linalg, "eigvals_stack", counted)
    monkeypatch.setenv("EPCHAIN_THREADS", "2")
    analysis.sweep_grid(ring(N, Delta=1.0, gamma=0.5),
                        analysis.AxisSpec("Delta", "lin", np.array([1.0])),
                        analysis.AxisSpec("gamma", "lin", np.array([0.5])))
    assert sorted(sent) == sorted(dims)


def test_ring_node_blocks_run_on_two_threads_at_once(monkeypatch):
    # the first two kernel calls wait for each other, so a sweep that runs a
    # node's blocks one after another on one thread breaks the barrier
    kernel, shapes, lock = linalg.eigvals_stack, [], threading.Lock()
    barrier = threading.Barrier(2, timeout=5)

    def meeting(stack):
        with lock:
            shapes.append(stack.shape)
            first_two = len(shapes) <= 2
        if first_two:
            barrier.wait()
        return kernel(stack)

    monkeypatch.setattr(linalg, "eigvals_stack", meeting)
    monkeypatch.setenv("EPCHAIN_THREADS", "2")
    grid = analysis.sweep_grid(ring(10, Delta=2.0),
                               analysis.AxisSpec("Delta", "lin", np.array([2.0])),
                               analysis.AxisSpec("gamma", "lin", np.array([1.0])))
    assert np.isfinite(grid.values).all()
    # blocks m = 0 .. 5 of the 10-site ring, one call each
    assert sorted(shapes) == sorted((1, d, d) for d in [108, 99, 105, 99, 105, 100])


def _magnon_spectrum_cases():
    # gamma = 1e-9 is below and 1.5 above gamma_c at every (N, V) here
    for N in range(2, 11):
        for V in (-3.0, 0.0, 3.0):
            for gamma in (1e-9, 1.5):
                yield ModelSpec(ModelKind.XY_MAGNON, N=N, V=V, gamma=gamma)


def _check_block_spectrum(spec):
    """dynamics.block_spectrum against the dense matrix: the eigenvalues of
    linalg.eig as a multiset, and every vector an eigenvector of it of unit
    norm whose largest entry (up to ties) is real and positive."""
    h = models.build_hamiltonian(spec)
    scale = 1 + np.linalg.norm(h)
    got = dynamics.block_spectrum(spec)
    assert _multiset_distance(got.eigenvalues, linalg.eig(h).eigenvalues) <= 1e-10 * scale
    v = got.right_vectors
    assert v.shape == h.shape
    residuals = np.linalg.norm(h @ v - v * got.eigenvalues, axis=0)
    assert residuals.max() <= linalg.RESIDUAL_TOL * scale
    assert np.abs(np.linalg.norm(v, axis=0) - 1).max() <= 1e-12
    mag = np.abs(v)
    top = (mag >= mag.max(axis=0) - 1e-12) & (np.abs(v.imag) <= 1e-12) & (v.real > 0)
    assert top.any(axis=0).all()
    return got


@pytest.mark.parametrize("N, J, Delta, gamma", _ring_params())
def test_block_spectrum_is_the_dense_spectrum_on_the_ring(N, J, Delta, gamma):
    _check_block_spectrum(ring(N, J=J, Delta=Delta, gamma=gamma))


@pytest.mark.parametrize("spec", _magnon_spectrum_cases())
def test_block_spectrum_is_the_dense_spectrum_on_the_chain(spec):
    got = _check_block_spectrum(spec)
    broken = np.abs(got.eigenvalues.imag).max() > 0
    assert broken == (spec.gamma > 1)


def _full_space_spectrum_cases():
    # the XY full space breaks where its magnon block does: gamma = 1e-9 is
    # below and 1.5 above gamma_c at every (N, V) here
    for N in range(2, 9):
        for V in (-3.0, 0.0, 3.0):
            for gamma in (1e-9, 1.5):
                yield ModelSpec(ModelKind.XY_FULL_SPACE, N=N, V=V, gamma=gamma)


def _open_chain_spectrum_cases():
    for N in range(2, 9):
        for J, Delta in ((1.0, 0.5), (-0.7, -0.8), (0.0, 0.9)):
            for gamma in (1e-3, 1.2):
                yield ring(N, J=J, Delta=Delta, gamma=gamma,
                           ising_boundary=IsingBoundary.OPEN)


@pytest.mark.parametrize("spec", _full_space_spectrum_cases())
def test_block_spectrum_is_the_dense_spectrum_on_the_full_space(spec):
    got = _check_block_spectrum(spec)
    broken = np.abs(got.eigenvalues.imag).max() > analysis.BROKEN_THRESHOLD
    assert broken == (spec.gamma > 1)


@pytest.mark.parametrize("spec", _open_chain_spectrum_cases())
def test_block_spectrum_is_the_dense_spectrum_on_the_open_chain(spec):
    _check_block_spectrum(spec)


@pytest.mark.parametrize("spec", [ring(2, J=0.0, Delta=0.7, gamma=0.3),
                                  ring(6, Delta=0.7, gamma=0.3)])
def test_each_vector_has_its_chosen_entry_real_and_positive(spec):
    # linalg.rotate_phases: the entry of largest |v| before the rotation
    # becomes real and positive; where entries tie in magnitude (orbit
    # members here) the rotation may leave another, complex one an ulp larger
    eps = np.finfo(float).eps
    v = dynamics.block_spectrum(spec).right_vectors
    mag = np.abs(v)
    chosen = ((mag >= mag.max(axis=0) * (1 - 2 * eps)) & (v.real > 0)
              & (np.abs(v.imag) <= 2 * eps * mag))
    assert chosen.any(axis=0).all()


@pytest.mark.parametrize("spec", [
    ring(6, Delta=0.5, gamma=0.3),
    ModelSpec(ModelKind.XY_MAGNON, N=6, V=2.0, gamma=0.3),
    ring(6, Delta=0.5, gamma=0.3, ising_boundary=IsingBoundary.OPEN),
    ModelSpec(ModelKind.XY_FULL_SPACE, N=6, V=2.0, gamma=0.3),
])
def test_every_block_is_float64(spec):
    blocks = models.hamiltonian_blocks(spec)
    assert [b.dtype for b in blocks] == [np.float64] * len(blocks)
    assert models.block_stack([spec, spec], 0).dtype == np.float64


@pytest.mark.parametrize("flags", [
    ["--model", "ising", "--n", "8", "--delta", "0.5", "--gamma", "0.3"],
    ["--model", "xy", "--n", "8", "--v", "3", "--gamma", "0.5"],
    ["--model", "ising", "--boundary", "open", "--n", "8", "--delta", "0.5",
     "--gamma", "0.3"],
    ["--model", "xy", "--full-space", "--n", "8", "--v", "3", "--gamma", "0.5"],
])
def test_spectrum_prints_each_conjugate_pair_in_one_order(flags, tmp_path):
    # real blocks give a pair's members one real part, bit for bit, so the
    # (Re, Im) sort prints a - ib, then a + ib; a ring block's mirror copy
    # puts two equal pairs in one run of equal real parts
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", *flags, "--out", str(out)]) == 0
    rows = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
    runs = {}
    for re_text, im_text in rows:
        runs.setdefault(re_text, []).append(float(im_text))
    assert any(im != 0 for ims in runs.values() for im in ims)  # broken
    for ims in runs.values():
        assert ims == sorted(ims)
        assert sorted(-im for im in ims) == ims


@pytest.mark.parametrize("spec", [
    ring(8, J=0.0, Delta=0.7, gamma=0.3),  # the J = 0 ring's dimers tie
    ring(6, J=0.0, Delta=-0.7, gamma=0.3),  # across blocks, bit for bit
    ring(8, J=1.0, Delta=0.7),  # gamma = 0: real levels tie across blocks
    ring(8, J=1.0, Delta=0.5, gamma=0.3),
    ring(8, Delta=0.5, gamma=0.3, ising_boundary=IsingBoundary.OPEN),
    ModelSpec(ModelKind.XY_FULL_SPACE, N=8, V=3.0, gamma=0.5),
])
def test_spectrum_rows_do_not_depend_on_the_sector_order(spec, monkeypatch):
    # block_spectrum sorts by (Re, Im, residual): eigenvalues that tie bit
    # for bit in two blocks come out in one order whatever order the sectors
    # are diagonalized in
    def rows():
        return serialize.spectrum_to_csv(dynamics.block_spectrum(spec, False))

    expected = rows()
    sectors = dynamics._sector_spectra
    rng = np.random.default_rng(20261020)
    for _ in range(10):
        perm = rng.permutation(len(models.sector_blocks(spec)))
        monkeypatch.setattr(dynamics, "_sector_spectra",
                            lambda s: [sectors(s)[i] for i in perm])
        assert rows() == expected


def _block_adjoints(spec):
    """B_s^dagger of every sector s of block_coordinates, as dense matrices,
    from the coordinates of the basis states of spec's space."""
    eye = np.eye(spec.basis.dim, dtype=complex)
    coords = [models.block_coordinates(spec, eye[:, j])
              for j in range(spec.basis.dim)]
    return [np.array([c[b] for c in coords]).T for b in range(len(coords[0]))]


@pytest.mark.parametrize("N, J, Delta, gamma", _ring_params())
def test_block_basis_reduces_the_dense_matrix_to_each_block(N, J, Delta, gamma):
    # a mirror sector's basis R B_m reduces h to block m, too
    spec = ring(N, J=J, Delta=Delta, gamma=gamma)
    h = models.build_h_ghz(spec)
    blocks = [models.hamiltonian_blocks(spec)[b] for b in models.sector_blocks(spec)]
    adjoints = _block_adjoints(spec)
    assert [a.shape for a in adjoints] == [(len(b), 2 ** N) for b in blocks]
    for a, block in zip(adjoints, blocks):
        assert np.max(np.abs(a @ h @ a.conj().T - block)) <= 1e-13 * (1 + np.abs(h).max())


@pytest.mark.parametrize("N", range(2, 9))
def test_block_coordinates_preserve_inner_products(N):
    # over all sectors, mirror sectors included, on the ring and the chain
    rng = np.random.default_rng(N)
    for spec in (ring(N, Delta=0.5, gamma=0.1),
                 ModelSpec(ModelKind.XY_MAGNON, N=N, V=2.0, gamma=0.1)):
        dim = spec.basis.dim
        phi, psi = rng.normal(size=(2, dim)) + 1j * rng.normal(size=(2, dim))
        cphi, cpsi = (models.block_coordinates(spec, x) for x in (phi, psi))
        blocks = models.hamiltonian_blocks(spec)
        assert [len(c) for c in cpsi] == [len(blocks[b])
                                          for b in models.sector_blocks(spec)]
        assert sum(np.vdot(a, a).real for a in cpsi) == pytest.approx(
            np.vdot(psi, psi).real, rel=1e-13)
        overlap = sum(np.vdot(a, b) for a, b in zip(cphi, cpsi))
        assert abs(overlap - np.vdot(phi, psi)) \
            <= 1e-13 * np.linalg.norm(phi) * np.linalg.norm(psi)


def _sector_cases():
    for N in range(1, 13):
        for J in (1.0, 0.0):
            yield ring(N, J=J, Delta=0.5, gamma=0.1)
    yield ring(5, Delta=0.5, gamma=0.1, ising_boundary=IsingBoundary.OPEN)
    yield ModelSpec(ModelKind.XY_MAGNON, N=7, V=2.0, gamma=0.1)
    yield ModelSpec(ModelKind.XY_FULL_SPACE, N=4, V=2.0, gamma=0.1)


@pytest.mark.parametrize("spec", _sector_cases())
def test_sector_blocks_name_the_block_of_every_sector(spec):
    dim = spec.basis.dim
    rng = np.random.default_rng(dim)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    sectors = models.sector_blocks(spec)
    blocks = models.hamiltonian_blocks(spec)
    coords = models.block_coordinates(spec, psi)
    assert len(coords) == len(sectors)
    assert [len(c) for c in coords] == [len(blocks[b]) for b in sectors]
    assert sum(len(blocks[b]) for b in sectors) == dim
    assert np.linalg.norm(np.concatenate(coords)) == pytest.approx(
        np.linalg.norm(psi), rel=1e-13)


@pytest.mark.parametrize("spec", _sector_cases())
def test_sector_amplitudes_invert_block_coordinates(spec):
    # each sector's columns map to states with those coordinates in that
    # sector and none elsewhere, at their norm
    rng = np.random.default_rng(spec.basis.dim + 1)
    blocks = models.hamiltonian_blocks(spec)
    for s, b in enumerate(models.sector_blocks(spec)):
        d = len(blocks[b])
        coords = rng.normal(size=(d, 2)) + 1j * rng.normal(size=(d, 2))
        states = models.sector_amplitudes(spec, s, coords)
        assert states.shape == (spec.basis.dim, 2)
        assert np.linalg.norm(states, axis=0) == pytest.approx(
            np.linalg.norm(coords, axis=0), rel=1e-13)
        for j in range(2):
            back = models.block_coordinates(spec, states[:, j])
            assert np.max(np.abs(back[s] - coords[:, j])) <= 1e-13 * np.linalg.norm(coords)
            assert all(np.max(np.abs(c), initial=0.0) <= 1e-13 * np.linalg.norm(coords)
                       for t, c in enumerate(back) if t != s)


@pytest.mark.parametrize("N", range(2, 9))
def test_ghz_target_lies_in_the_zero_momentum_block(N):
    spec = ring(N, Delta=0.5, gamma=0.1)
    coords = models.block_coordinates(spec, models.target_state("ghz", N).amplitudes)
    assert np.linalg.norm(coords[0]) == pytest.approx(1.0, rel=1e-15)
    assert all(np.max(np.abs(c), initial=0.0) <= 1e-16 for c in coords[1:])


def _real_block_cases():
    for J in (1.0, -0.7, 0.0):
        for Delta in (0.2, 0.75, 2.0):
            for gamma in (0.0, 1e-3, 0.5, 10.0):  # 10: deep in the broken phase
                yield J, Delta, gamma


@pytest.mark.parametrize("N", range(2, 11))
def test_real_ring_blocks_have_the_complex_blocks_spectra(N, bloch_blocks):
    for J, Delta, gamma in _real_block_cases():
        spec = ring(N, J=J, Delta=Delta, gamma=gamma)
        blocks = [h for _, h in bloch_blocks(spec)]
        real = models.hamiltonian_blocks(spec)
        assert [b.dtype for b in real] == [np.float64] * (N // 2 + 1)
        assert [b.shape for b in real] == [b.shape for b in blocks[:N // 2 + 1]]
        scale = 1 + np.sqrt(sum(np.linalg.norm(b) ** 2 for b in blocks))
        for a, b in zip(real, blocks):
            assert _multiset_distance(np.linalg.eigvals(a),
                                      np.linalg.eigvals(b)) <= 1e-10 * scale


@pytest.mark.parametrize("N", range(2, 11))
def test_real_magnon_block_has_the_chain_spectrum(N):
    for V in (-3.0, 0.0, 0.7, 5.0):
        for gamma in (0.0, 0.3, 1.5, 10.0):
            spec = ModelSpec(ModelKind.XY_MAGNON, N=N, V=V, gamma=gamma)
            h = models.build_h_eq(spec)
            (real,) = models.hamiltonian_blocks(spec)
            assert real.dtype == np.float64 and real.shape == (N, N)
            assert _multiset_distance(np.linalg.eigvals(real), np.linalg.eigvals(h)) \
                <= 1e-10 * (1 + np.linalg.norm(h))
            # the basis of block_coordinates reduces h to the real block
            (a,) = _block_adjoints(spec)
            assert np.max(np.abs(a @ h @ a.conj().T - real)) \
                <= 1e-13 * (1 + np.abs(h).max())


def _template_arrays(blocks):
    """Every array of the (terms, rows) of blocks, a dense term's whole."""
    return [a for terms, rows in blocks
            for a in [*rows, *(x for term in terms for x in term[1:]
                               if isinstance(x, np.ndarray))]]


def test_real_templates_are_shared_read_only():
    blocks, orbits, root_period = models._ring_real_templates(6)
    arrays = [orbits, root_period, *_template_arrays(blocks)]
    for kind in ModelKind:
        arrays += _template_arrays([models._pt_real_form(kind, 5)])
    for a in arrays:
        with pytest.raises(ValueError):
            a[0] = 1


def test_real_templates_built_on_sweep_threads_are_exact(monkeypatch):
    # the first build of a size may happen on several sweep threads at once;
    # each takes its constants from a private mpmath context
    monkeypatch.setenv("EPCHAIN_THREADS", "4")
    single = models._ring_real_templates.__wrapped__(7)
    models._ring_real_templates.cache_clear()
    wide = models._wide
    monkeypatch.setattr(models, "_wide", lambda x: time.sleep(1e-4) or wide(x))
    analysis.sweep_grid(ring(7, Delta=0.5),
                        analysis.AxisSpec("Delta", "lin", np.linspace(0.2, 2.0, 8)),
                        analysis.AxisSpec("gamma", "lin", np.array([0.1])))
    assert mp.mp.prec == 53
    blocks, orbits, root_period = models._ring_real_templates(7)
    assert np.array_equal(orbits, single[1])
    assert np.array_equal(root_period, single[2])
    for a, b in zip(_template_arrays(blocks), _template_arrays(single[0]), strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("N", [6, 8, 10])
def test_real_ring_blocks_are_unbroken_at_tiny_gamma(N):
    # real LAPACK on real blocks: no roundoff pair over fig4's Delta range
    x_axis, _ = _fig4_axes()
    for Delta in x_axis.values:
        spec = ring(N, J=1.0, Delta=float(Delta), gamma=1e-12)
        assert analysis.max_im_epsilon(spec) <= analysis.BROKEN_THRESHOLD


def test_block_templates_are_shared_read_only():
    for spec in (ring(6, Delta=0.5, gamma=0.1),
                 ModelSpec(ModelKind.XY_MAGNON, N=6, V=2.0, gamma=0.1)):
        a = models.hamiltonian_blocks(spec)
        b = models.hamiltonian_blocks(spec)
        a[0][0, 0] = 99.0  # a returned block is the caller's own
        assert b[0][0, 0] != 99.0


def test_block_eig_failure_is_nan_node_and_cli_exits_3(monkeypatch, tmp_path):
    # N=4 blocks have dims 6, 3, 4, 3; fail one dim-3 block at gamma = 0.5
    kernel = linalg.eigvals_stack
    seen = []

    def kernel_failing_in_one_block(stack):
        # the antisymmetric part of a real ring block is gamma Y, and the
        # dim-3 block's Y couples sum sz = -2 and +2: |m - m^T| peaks at 4 gamma
        seen.append(stack.shape[1])
        vals, ok = kernel(stack)
        failing = [m.shape[0] == 3 and np.isclose(np.abs(m - m.T).max(), 4 * 0.5)
                   for m in stack]
        return vals, ok & ~np.array(failing)

    monkeypatch.setattr(linalg, "eigvals_stack", kernel_failing_in_one_block)
    grid = analysis.sweep_grid(
        ring(4, Delta=1.0),
        analysis.AxisSpec.from_range("Delta", 0.5, 1.0, "lin", 2),
        analysis.AxisSpec.from_range("gamma", 0.1, 0.5, "lin", 2))
    assert np.array_equal(np.isnan(grid.values), [[0, 1], [0, 1]])
    assert sorted(set(seen)) == [3, 4, 6]  # no 16 x 16 matrix reaches the kernel
    rc = cli.main(["phase-diagram", "--model", "ising", "--n", "4",
                   "--x-range", "0.5:1:lin:2", "--gamma-range", "0.1:0.5:lin:2",
                   "--out", str(tmp_path / "grid.csv")])
    assert rc == 3


def _fig4_axes():
    params = cli.FIGURES[4][1]
    return (analysis.AxisSpec.from_range("Delta", *params["Delta_range"]),
            analysis.AxisSpec.from_range("gamma", *params["gamma_range"]))


def test_fig4_ring_grid_matches_dense_reference():
    x_axis, y_axis = _fig4_axes()
    grid = analysis.sweep_grid(ring(6, J=1.0), x_axis, y_axis)
    dense = np.array([[np.max(np.abs(linalg.eig(models.build_h_ghz(
        ring(6, J=1.0, Delta=float(d), gamma=float(g)))).eigenvalues.imag))
        for g in y_axis.values] for d in x_axis.values])
    broken = dense > analysis.BROKEN_THRESHOLD
    assert np.array_equal(grid.broken_mask, broken)
    assert 0 < broken.sum() < broken.size
    # roundoff: noise of ~1e-13 where unbroken, relative 1e-9 where broken
    assert np.max(np.abs(grid.values - dense)[~broken]) < 1e-11
    assert np.max(np.abs(grid.values / dense - 1)[broken]) < 1e-9


def test_ring_grid_byte_identical_across_thread_counts(monkeypatch):
    x_axis, y_axis = _fig4_axes()
    x_axis = analysis.AxisSpec("Delta", "lin", x_axis.values[::4])
    texts = []
    for threads in ("1", "4"):
        monkeypatch.setenv("EPCHAIN_THREADS", threads)
        texts.append(serialize.grid_to_csv(
            analysis.sweep_grid(ring(6, J=1.0), x_axis, y_axis)))
    assert texts[0] == texts[1]


# ---------------------------------------------------------------------------
# the one-block models' real templates against exact arithmetic

def _gaussian_basis(kind, N):
    """(G, paired): the real basis of _pt_real_form with its 1/sqrt2 factors
    left out, as integer real and imaginary parts, and which vectors are
    pairs.  Column p < Pp is e_p + e_Pp, p > Pp is i (e_Pp - e_p), and a
    fixed point p = Pp is e_p."""
    d = N if kind is ModelKind.XY_MAGNON else 2 ** N
    if kind is ModelKind.XY_FULL_SPACE:  # site reflection: the bits reversed
        perm = [int(format(i, f"0{N}b")[::-1], 2) for i in range(d)]
    else:  # positions reversed; on spins, every bit complemented
        perm = [d - 1 - i for i in range(d)]
    gr, gi = np.zeros((d, d), dtype=np.int64), np.zeros((d, d), dtype=np.int64)
    for p, q in enumerate(perm):
        if p < q:
            gr[p, p] = gr[q, p] = 1
        elif p > q:
            gi[q, p], gi[p, p] = 1, -1
        else:
            gr[p, p] = 1
    return (gr, gi), np.array(perm) != np.arange(d)


def _is_rounded(x: float, s: int, k: int) -> bool:
    """True iff x is s / sqrt2^k rounded to the nearest double (k = 0, 1, 2)."""
    if k != 1 or s == 0:
        return x == Fraction(s, 2 ** (k // 2))
    a = abs(x)
    lo = Fraction(a) - Fraction(math.ulp(math.nextafter(a, 0))) / 2
    hi = Fraction(a) + Fraction(math.ulp(a)) / 2
    return (x > 0) == (s > 0) and lo * lo < Fraction(s * s, 2) < hi * hi


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("N", range(2, 7))
def test_one_block_templates_are_the_exact_real_form_rounded(kind, N):
    # each term is W^dagger M W for M the parent term at unit parameters:
    # an integer matrix S over sqrt2^k, k the number of paired vectors, whose
    # imaginary part vanishes exactly; the template holds S / sqrt2^k rounded
    params = ("J", "Delta", "gamma") if kind is ModelKind.TRANSVERSE_ISING else ("V", "gamma")
    base = ModelSpec(kind, N, ising_boundary=IsingBoundary.OPEN,
                     **dict.fromkeys(params, 0.0))
    (gr, gi), paired = _gaussian_basis(kind, N)
    k = paired[:, None].astype(int) + paired[None, :]
    terms = {name: (index, values) for name, index, values
             in models._pt_real_form(kind, N)[0]}
    assert set(terms) <= {None, *params}
    zero = models.build_hamiltonian(base)
    for name in (None, *params):
        m = zero if name is None else models.build_hamiltonian(
            replace(base, **{name: 1.0})) - zero
        mr, mi = m.real.astype(np.int64), m.imag.astype(np.int64)
        assert np.array_equal(mr + 1j * mi, m)
        # (gr - i gi)^T (mr + i mi) (gr + i gi)
        ar, ai = gr.T @ mr + gi.T @ mi, gr.T @ mi - gi.T @ mr
        sr, si = ar @ gr - ai @ gi, ar @ gi + ai @ gr
        assert not si.any()
        template = np.zeros(m.size)
        if name in terms:
            template[terms[name][0]] = terms[name][1]
        template = template.reshape(m.shape)
        assert all(_is_rounded(float(x), int(s), int(j))
                   for x, s, j in zip(template.ravel(), sr.ravel(), k.ravel()))


# ---------------------------------------------------------------------------
# the per-block builder of the sweeps: block b over many nodes at once

def _magnon_real_block(spec):
    """The magnon chain in the basis u_l = (e_l + e_{N+1-l}) / sqrt2 at
    position l-1, v_l = i (e_l - e_{N+1-l}) / sqrt2 at N-l, the middle site of
    an odd chain between them: T + V E + gamma O with, from the hopping, 1
    from u_l to u_{l+1} and from v_l to v_{l+1}, and at the centre sqrt2 from
    the middle site to u_{N//2} (odd N) or +1 on u_{N/2} and -1 on v_{N/2}
    (even N); V on u_1 and v_1; and -gamma from v_1 to u_1, +gamma back."""
    N, h = spec.N, spec.N // 2
    t = np.zeros((N, N))
    for l in range(N - 1):
        t[l, l + 1] = t[l + 1, l] = 1.0
    if N % 2:
        t[h - 1, h] = t[h, h - 1] = np.sqrt(2.0)
        t[h, h + 1] = t[h + 1, h] = 0.0
    else:
        t[h - 1, h] = t[h, h - 1] = 0.0
        t[h - 1, h - 1], t[h, h] = 1.0, -1.0
    e = np.zeros((N, N))
    e[0, 0] = e[N - 1, N - 1] = 1.0
    o = np.zeros((N, N))
    o[0, N - 1], o[N - 1, 0] = -1.0, 1.0
    return t + spec.V * e + spec.gamma * o


def _reference_blocks(spec):
    """hamiltonian_blocks(spec) as the one-node formula, block by block."""
    if spec.kind is ModelKind.XY_MAGNON:
        return [_magnon_real_block(spec)]
    if spec.ising_boundary is IsingBoundary.OPEN or spec.kind is ModelKind.XY_FULL_SPACE:
        terms, _ = models._pt_real_form(spec.kind, spec.N)
        d = spec.basis.dim
        dense = [np.zeros(d * d) for _ in terms]
        for x, (_, index, values) in zip(dense, terms):
            x[index] = values
        return [sum((x.reshape(d, d) * (1.0 if name is None else getattr(spec, name))
                     for x, (name, _, _) in zip(dense, terms)), np.zeros((d, d)))]
    out = []
    for terms, _ in models._ring_real_templates(spec.N)[0]:
        (_, _, x), (_, gamma_index, y), (_, diag_index, minus_zz) = terms
        d = len(minus_zz)
        h = spec.Delta * x.reshape(d, d)
        h.flat[gamma_index] += spec.gamma * y
        h.flat[diag_index] -= spec.J * -minus_zz
        out.append(h)
    return out


def _builder_templates():
    magnon = [(ModelSpec(ModelKind.XY_MAGNON, N=N), "V", (-3.7, 0.0, 2.9))
              for N in range(2, 13)]
    rings = [(ring(N, J=J), "Delta", (0.0, 0.4, 1.7))
             for N in range(1, 11) for J in (0.0, 0.3, 1.0)]
    dense = [(ring(6, J=1.0, ising_boundary=IsingBoundary.OPEN), "Delta", (0.4, 1.7)),
             (ModelSpec(ModelKind.XY_FULL_SPACE, N=6), "V", (-3.7, 2.9))]
    return magnon + rings + dense


@pytest.mark.parametrize("template, name, controls", _builder_templates())
def test_block_stack_entries_equal_the_one_node_blocks_bitwise(template, name,
                                                               controls):
    specs = [replace(template, **{name: c, "gamma": g})
             for c in controls for g in (0.0, 3e-9, 0.05, 0.8, 2.5)]
    dims = models.block_dims(template)
    ones = [models.hamiltonian_blocks(spec) for spec in specs]
    refs = [_reference_blocks(spec) for spec in specs]
    assert all(len(one) == len(ref) == len(dims) for one, ref in zip(ones, refs))
    for b, d in enumerate(dims):
        stack = models.block_stack(specs, b)
        assert stack.shape == (len(specs), d, d)
        for entry, one, ref in zip(stack, ones, refs):
            assert entry.dtype == one[b].dtype == ref[b].dtype
            assert entry.tobytes() == one[b].tobytes() == ref[b].tobytes()


@pytest.mark.parametrize("N, x_values, gammas", [
    (8, np.linspace(0.2, 2.0, 7), np.geomspace(1e-4, 1.0, 9)),
    (10, np.array([1.3]), np.array([1e-3, 0.1, 0.9]))])
def test_ring_grid_values_bitwise_equal_at_every_thread_count(monkeypatch, N,
                                                              x_values, gammas):
    axes = (analysis.AxisSpec("Delta", "lin", x_values),
            analysis.AxisSpec("gamma", "log", gammas))
    grids = []
    for threads in ("1", "2", "3", "4"):
        monkeypatch.setenv("EPCHAIN_THREADS", threads)
        grids.append(analysis.sweep_grid(ring(N, J=1.0), *axes).values.tobytes())
    assert grids == grids[:1] * 4
