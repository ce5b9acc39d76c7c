"""The stacked eigen kernel (linalg.eigvals_stack) and the chunked sweep
built on it, checked bitwise against a per-matrix reference: a test-only copy
of the single-matrix eigendecomposition the kernel replaced, and the
node-by-node sweep that called it."""

import threading
from dataclasses import replace

import numpy as np
import pytest

from epchain import analysis, bethe, cli, linalg, models
from epchain.errors import DimensionMismatch, NonConvergence
from epchain.models import IsingBoundary, ModelKind, ModelSpec

# ---------------------------------------------------------------------------
# test-only reference: one np.linalg.eig call per matrix


def _reference_fix_phase(vectors):
    out = vectors.copy()
    for n in range(out.shape[1]):
        j = int(np.argmax(np.abs(out[:, n])))
        ph = out[j, n] / abs(out[j, n])
        out[:, n] = out[:, n] / ph
    return out


def _reference_sorted_eig(a):
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc
    order = np.lexsort((vals.imag, vals.real))
    vecs = vecs[:, order] / np.linalg.norm(vecs[:, order], axis=0)
    return vals[order], _reference_fix_phase(vecs)


def reference_eig(m):
    a = np.asarray(m)  # a real matrix stays real, as in linalg.eig
    a = a.astype(float if np.isrealobj(a) else complex)
    scale = 1.0 + np.linalg.norm(a)
    vals, vecs = _reference_sorted_eig(a)
    residuals = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
    if np.max(residuals) > linalg.RESIDUAL_TOL * scale:
        raise NonConvergence("eigendecomposition residual too large")
    return linalg.Spectrum(eigenvalues=vals, right_vectors=vecs,
                           residuals=residuals)


def _complex_blocks(spec, bloch_blocks):
    """The complex matrices the indicator's real blocks stand for: the Bloch
    oracle's momentum blocks m = 0 .. N//2 on the ring, the whole matrix
    otherwise."""
    if spec.kind is ModelKind.TRANSVERSE_ISING and \
            spec.ising_boundary is IsingBoundary.PERIODIC:
        return [h for _, h in bloch_blocks(spec)[:spec.N // 2 + 1]]
    return [models.build_hamiltonian(spec)]


def reference_grid(template, x_axis, y_axis, bloch_blocks):
    """The node-by-node sweep: max over the complex blocks of the reference
    max|Im eps|, independent of models.hamiltonian_blocks' real forms."""
    out = np.empty((len(x_axis.values), len(y_axis.values)))
    for i, x in enumerate(x_axis.values):
        for j, g in enumerate(y_axis.values):
            spec = replace(template, **{x_axis.name: float(x), "gamma": float(g)})
            out[i, j] = max(
                float(np.max(np.abs(reference_eig(h).eigenvalues.imag)))
                for h in _complex_blocks(spec, bloch_blocks))
    return out


def assert_grid_matches_reference(grid, ref):
    """The same broken nodes; real blocks read exactly 0 where unbroken and
    move by roundoff where broken."""
    assert np.array_equal(grid.broken_mask, ref > analysis.BROKEN_THRESHOLD)
    assert np.all(grid.values[~grid.broken_mask] == 0.0)
    assert np.max(np.abs(grid.values - ref)) <= 1e-10


def xy(N, **kw):
    return ModelSpec(ModelKind.XY_MAGNON, N=N, **kw)


def ring(N, **kw):
    return ModelSpec(ModelKind.TRANSVERSE_ISING, N=N, **kw)


def _random_stack(rng, k, d):
    return rng.normal(size=(k, d, d)) + 1j * rng.normal(size=(k, d, d))


# ---------------------------------------------------------------------------
# the kernel

@pytest.mark.parametrize("d", range(1, 13))
def test_stack_eigenvalues_equal_eig_bitwise(d):
    rng = np.random.default_rng(100 + d)
    stack = _random_stack(rng, 7, d)
    vals, ok = linalg.eigvals_stack(stack)
    assert vals.shape == (7, d) and ok.all()
    for m, v in zip(stack, vals):
        assert np.array_equal(v, linalg.eig(m).eigenvalues)
        assert np.array_equal(v, reference_eig(m).eigenvalues)


def test_eig_keeps_a_real_matrix_real():
    # one input rule: eig, like eigvals_stack, sends a real matrix to real
    # LAPACK, so each real eigenvalue has Im exactly 0 and each pair one Re
    rng = np.random.default_rng(7)
    m = rng.normal(size=(9, 9))
    got = linalg.eig(m)
    vals, ok = linalg.eigvals_stack(m[None])
    assert ok[0] and np.array_equal(got.eigenvalues, vals[0])
    assert got.eigenvalues.dtype == got.right_vectors.dtype == complex
    pairs = got.eigenvalues[got.eigenvalues.imag != 0]
    assert pairs.size and np.array_equal(pairs.real[::2], pairs.real[1::2])
    assert np.array_equal(pairs.imag[::2], -pairs.imag[1::2])
    assert (pairs.imag[::2] < 0).all()
    with pytest.raises(ValueError):
        linalg.eig(np.diag([1.0, np.inf]))


@pytest.mark.parametrize("N", [4, 6, 8])
def test_stack_of_ring_blocks_equals_eig_bitwise(N, bloch_blocks):
    # the Bloch oracle's complex blocks m = 0 .. N//2
    blocks = [h for delta in (0.3, 1.1) for g in (1e-3, 0.2, 0.9)
              for h in _complex_blocks(ring(N, Delta=delta, gamma=g), bloch_blocks)]
    for d in sorted({h.shape[0] for h in blocks}):
        same = [h for h in blocks if h.shape[0] == d]
        vals, ok = linalg.eigvals_stack(np.stack(same))
        assert ok.all()
        for h, v in zip(same, vals):
            assert np.array_equal(v, reference_eig(h).eigenvalues)


def test_eig_equals_reference_bitwise():
    rng = np.random.default_rng(3)
    mats = [_random_stack(rng, 1, d)[0] for d in (1, 2, 5, 8, 9, 12, 33, 64)]
    # chains and rings whose eigenvectors have near-tied largest entries,
    # where the phase fix is most sensitive to the last bit
    mats += [models.build_hamiltonian(xy(10, V=2.0, gamma=0.3)),
             models.build_hamiltonian(xy(6, V=3.0, gamma=2.0)),
             models.build_hamiltonian(ring(5, Delta=0.7, gamma=0.5))]
    for m in mats:
        got, ref = linalg.eig(m), reference_eig(m)
        assert np.array_equal(got.eigenvalues, ref.eigenvalues)
        assert np.array_equal(got.right_vectors, ref.right_vectors)
        assert np.array_equal(got.residuals, ref.residuals)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_nonfinite_matrix_flags_only_itself(bad):
    rng = np.random.default_rng(4)
    stack = _random_stack(rng, 5, 6)
    stack[2, 1, 3] = bad
    vals, ok = linalg.eigvals_stack(stack)
    assert ok.tolist() == [True, True, False, True, True]
    assert np.isnan(vals[2]).all()
    for n in (0, 1, 3, 4):
        assert np.array_equal(vals[n], linalg.eig(stack[n]).eigenvalues)


def _spy_eigvals(monkeypatch, change=None):
    """Record the dtype of every stack np.linalg.eigvals gets; change(a, vals)
    may rewrite what it returns."""
    dtypes, eigvals = [], np.linalg.eigvals

    def spied(a):
        dtypes.append(a.dtype)
        vals = eigvals(a)
        return change(a, vals) if change else vals

    monkeypatch.setattr(np.linalg, "eigvals", spied)
    return dtypes


@pytest.mark.parametrize("d", range(1, 13))
def test_real_stack_goes_to_real_lapack(monkeypatch, d):
    rng = np.random.default_rng(200 + d)
    stack = rng.normal(size=(7, d, d))
    dtypes = _spy_eigvals(monkeypatch)
    vals, ok = linalg.eigvals_stack(stack)
    assert dtypes == [np.float64]
    assert vals.dtype == complex and vals.shape == (7, d) and ok.all()
    for v in vals:
        assert np.array_equal(np.lexsort((v.imag, v.real)), np.arange(d))
        # each conjugate pair sits side by side, Im < 0 first, with one Re
        pairs = np.flatnonzero(v.imag != 0)
        lo, hi = pairs[::2], pairs[1::2]
        assert np.array_equal(hi, lo + 1)
        assert np.array_equal(v[hi], v[lo].conj()) and np.all(v[lo].imag < 0)
    assert (vals.imag != 0).any() == (d > 1)  # a random stack holds pairs


def test_real_stack_fails_only_its_bad_matrix(monkeypatch):
    rng = np.random.default_rng(6)
    stack = rng.normal(size=(5, 6, 6))
    clean, _ = linalg.eigvals_stack(stack)
    bad = stack.copy()
    bad[1, 2, 2] = np.nan
    dtypes = _spy_eigvals(monkeypatch)
    vals, ok = linalg.eigvals_stack(bad)
    assert ok.tolist() == [True, False, True, True, True]
    assert np.isnan(vals[1]).all()
    keep = [0, 2, 3, 4]
    assert np.array_equal(vals[keep], clean[keep])
    assert dtypes == [np.float64]

    def shifted(a, vals):  # one eigenvalue of matrix 3 moves off its matrix
        vals = vals.astype(complex)
        vals[3, 0] += 1e-6 * (1 + np.linalg.norm(a[3]))
        return vals

    monkeypatch.undo()
    _spy_eigvals(monkeypatch, shifted)
    vals, ok = linalg.eigvals_stack(stack)
    assert ok.tolist() == [True, True, True, False, True]
    assert np.isnan(vals[3]).all()
    keep = [0, 1, 2, 4]
    assert np.array_equal(vals[keep], clean[keep])


def test_stack_shape_is_checked():
    for shape in [(3, 3), (2, 3, 4), (2, 0, 0)]:
        with pytest.raises(DimensionMismatch):
            linalg.eigvals_stack(np.zeros(shape))
    vals, ok = linalg.eigvals_stack(np.zeros((0, 3, 3)))
    assert vals.shape == (0, 3) and ok.shape == (0,)


@pytest.mark.parametrize("N", [4, 7, 10])
def test_power_sum_guard_holds_at_exceptional_points(N):
    # the guard reads no vectors, so it stays quiet where they coalesce:
    # at bethe's gamma_c, and over V up to 1e6 and gamma from 1e-10 to 1e3
    specs = [xy(N, V=V, gamma=bethe.exact_boundary_gamma(N, V) * (1 + t))
             for V in (3.0, 10.0, 100.0) for t in (-1e-12, 0.0, 1e-12)]
    specs += [xy(N, V=float(V), gamma=float(g)) for V in np.geomspace(2.5, 1e6, 8)
              for g in np.geomspace(1e-10, 1e3, 14)]
    vals, ok = linalg.eigvals_stack(models.block_stack(specs, 0))
    assert ok.all() and np.isfinite(vals).all()


def _failing_on(solver, poisoned):
    """solver (np.linalg.eig or eigvals) raising LinAlgError for any input
    holding a matrix that poisoned(m) picks, as LAPACK does for the whole
    stack."""

    def failing(a):
        mats = a if a.ndim == 3 else a[None]
        if any(poisoned(m) for m in mats):
            raise np.linalg.LinAlgError("injected non-convergence")
        return solver(a)

    return failing


def test_linalg_error_in_stack_lands_on_its_matrix(monkeypatch):
    rng = np.random.default_rng(5)
    stack = _random_stack(rng, 4, 5)
    expected = [linalg.eig(m).eigenvalues for m in stack]

    def poisoned(m):
        return m[0, 0] == stack[1, 0, 0]

    for name in ("eig", "eigvals"):
        monkeypatch.setattr(np.linalg, name,
                            _failing_on(getattr(np.linalg, name), poisoned))
    vals, ok = linalg.eigvals_stack(stack)
    assert ok.tolist() == [True, False, True, True]
    assert np.isnan(vals[1]).all()
    for n in (0, 2, 3):
        assert np.array_equal(vals[n], expected[n])
    with pytest.raises(NonConvergence):
        linalg.eig(stack[1])


def test_linalg_error_makes_only_the_owning_node_nan(monkeypatch):
    axes = (analysis.AxisSpec.from_range("V", 2.0, 8.0, "lin", 3),
            analysis.AxisSpec.from_range("gamma", 0.1, 1.0, "lin", 3))
    clean = analysis.sweep_grid(xy(6), *axes)
    # the real magnon block holds V at [0, 0] and gamma at [-1, 0], which
    # pick one node: V = 5, the middle gamma
    g = axes[1].values[1]
    monkeypatch.setattr(np.linalg, "eigvals", _failing_on(
        np.linalg.eigvals, lambda m: m[0, 0] == 5.0 and m[-1, 0] == g))
    grid = analysis.sweep_grid(xy(6), *axes)
    assert np.array_equal(np.isnan(grid.values),
                          [[0, 0, 0], [0, 1, 0], [0, 0, 0]])
    keep = ~np.isnan(grid.values)
    assert np.array_equal(grid.values[keep], clean.values[keep])


def _swept_stacks():
    """(model, stack) for each block the figures and the benchmark sweep,
    over V or Delta in the figures' ranges and gamma from 1e-8 to 1.5: the
    magnon chain at N = 2 .. 10, the ring at N = 4 .. 10 (d <= 108), and the
    open Ising chain and the XY full space, one block each, at N <= 6."""
    gammas = np.geomspace(1e-8, 1.5, 8)
    templates = [xy(N) for N in range(2, 11)]
    templates += [ring(N, J=1.0) for N in range(4, 11)]
    templates += [ring(N, ising_boundary=IsingBoundary.OPEN) for N in range(2, 7)]
    templates += [ModelSpec(ModelKind.XY_FULL_SPACE, N=N) for N in range(2, 7)]
    for t in templates:
        name = t.kind.control
        xs = (np.geomspace(2.0, 100.0, 6) if name == "V"
              else np.linspace(0.2, 2.0, 6))
        specs = [replace(t, **{name: float(x), "gamma": float(g)})
                 for x in xs for g in gammas]
        for b in range(len(models.block_dims(t))):
            yield t, models.block_stack(specs, b)


def test_stack_eigenvalues_equal_eig_on_every_swept_block():
    # values-only LAPACK rounds as eig does up to d = 108, so every value a
    # sweep reads is one that eig's residual check certifies
    count = 0
    for t, stack in _swept_stacks():
        vals, ok = linalg.eigvals_stack(stack)
        assert ok.all(), t
        for m, v in zip(stack, vals):
            assert np.array_equal(v, linalg.eig(m).eigenvalues), (t, m.shape)
        count += len(stack)
    assert count == 49 * 48  # blocks x nodes


def test_spectrum_csvs_byte_identical_to_reference_eig(monkeypatch, tmp_path):
    runs = {
        "xy": ["--model", "xy", "--n", "8", "--v", "3", "--gamma", "0.4"],
        "ising": ["--model", "ising", "--n", "6", "--delta", "0.7",
                  "--gamma", "0.3"],
    }

    def write_all(tag):
        texts = {}
        for name, flags in runs.items():
            out = tmp_path / f"{name}_{tag}.csv"
            assert cli.main(["spectrum", *flags, "--vectors", "--out", str(out)]) == 0
            texts[name] = (out.read_bytes(),
                           (tmp_path / f"{name}_{tag}.csv.vectors.csv").read_bytes())
        return texts

    got = write_all("kernel")
    monkeypatch.setattr(linalg, "eig", reference_eig)
    ref = write_all("reference")
    assert got == ref
    assert all(b"e-" in csv for csv, _ in got.values())  # residuals printed


def test_spectrum_vectors_diagonalizes_once(monkeypatch, tmp_path):
    calls, kernel = [], linalg._eig_stack

    def counted(a):
        calls.append(a.shape)
        return kernel(a)

    monkeypatch.setattr(linalg, "_eig_stack", counted)
    assert cli.main(["spectrum", "--model", "ising", "--n", "6", "--delta",
                     "0.7", "--gamma", "0.3", "--vectors",
                     "--out", str(tmp_path / "s.csv")]) == 0
    # one call per momentum block m = 0 .. 3, none for the mirror sectors
    assert calls == [(1, d, d) for d in models.block_dims(ring(6))]


# ---------------------------------------------------------------------------
# the chunked sweep

def _figure_axes(number, x_name, x_key):
    params = cli.FIGURES[number][1]
    return (analysis.AxisSpec.from_range(x_name, *params[x_key]),
            analysis.AxisSpec.from_range("gamma", *params["gamma_range"]))


@pytest.mark.parametrize("N", [6, 8])
def test_fig2_grid_equals_per_node_reference(N, bloch_blocks):
    x_axis, y_axis = _figure_axes(2, "V", "V_range")
    grid = analysis.sweep_grid(xy(N), x_axis, y_axis)
    assert_grid_matches_reference(
        grid, reference_grid(xy(N), x_axis, y_axis, bloch_blocks))


def test_fig4_ring_grid_equals_per_node_reference(bloch_blocks):
    x_axis, y_axis = _figure_axes(4, "Delta", "Delta_range")
    template = ring(6, J=1.0)
    grid = analysis.sweep_grid(template, x_axis, y_axis)
    assert_grid_matches_reference(
        grid, reference_grid(template, x_axis, y_axis, bloch_blocks))


def _counting_kernel(monkeypatch):
    kernel = linalg.eigvals_stack
    shapes = []
    lock = threading.Lock()

    def counted(stack):
        with lock:
            shapes.append(np.shape(stack))
        return kernel(stack)

    monkeypatch.setattr(linalg, "eigvals_stack", counted)
    return shapes


def _chunk_spy(monkeypatch):
    """Record each kernel call's shape and each (node, block) pair built for
    the kernel."""
    shapes = _counting_kernel(monkeypatch)
    pairs, build, lock = [], analysis.block_stack, threading.Lock()

    def built(specs, b):
        with lock:
            pairs.extend((s, b) for s in specs)
        return build(specs, b)

    monkeypatch.setattr(analysis, "block_stack", built)
    return shapes, pairs


def _chunked_shapes(nodes, dims):
    """The chunk rule: block b over the valid nodes in chunks of
    _EIGVALS_GIL_SIZE // d + 1, the last chunk of each block shorter."""
    out = []
    for d in dims:
        step = analysis._EIGVALS_GIL_SIZE // d + 1
        out += [(min(step, nodes - s), d, d) for s in range(0, nodes, step)]
    return sorted(out)


def test_xy_grid_goes_to_the_kernel_in_chunks(monkeypatch):
    shapes, pairs = _chunk_spy(monkeypatch)
    x_axis = analysis.AxisSpec.from_range("V", 2.0, 100.0, "log", 24)
    y_axis = analysis.AxisSpec.from_range("gamma", 1e-8, 1.0, "log", 24)
    grid = analysis.sweep_grid(xy(6), x_axis, y_axis)
    # 576 nodes in chunks of 84 across rows: 6 full and one of 72
    assert sorted(shapes) == [(72, 6, 6)] + [(84, 6, 6)] * 6
    assert len(pairs) == len(set(pairs)) == 576
    monkeypatch.undo()
    for i, x in enumerate(x_axis.values):
        row = analysis.sweep_grid(xy(6), analysis.AxisSpec("V", "lin", x[None]),
                                  y_axis)
        assert row.values[0].tobytes() == grid.values[i].tobytes()


def test_ring_grid_chunks_each_block_over_the_valid_nodes(monkeypatch):
    # a negative gamma fails its spec, so 4 x 6 - 4 = 20 valid nodes
    template = ring(8, J=1.0)
    shapes, pairs = _chunk_spy(monkeypatch)
    grid = analysis.sweep_grid(
        template, analysis.AxisSpec.from_range("Delta", 0.2, 2.0, "lin", 4),
        analysis.AxisSpec("gamma", "lin", np.array([-0.1, 1e-4, 0.01, 0.1, 0.5, 1.0])))
    assert np.isnan(grid.values[:, 0]).all() and np.isfinite(grid.values[:, 1:]).all()
    dims = models.block_dims(template)
    assert sorted(shapes) == _chunked_shapes(20, dims)
    assert sorted(shapes) != sorted((20, d, d) for d in dims)  # chunks split
    assert len(pairs) == len(set(pairs)) == 20 * len(dims)
    assert {s.gamma for s, _ in pairs} == {1e-4, 0.01, 0.1, 0.5, 1.0}


def test_dense_nodes_go_to_the_kernel_in_chunks(monkeypatch, bloch_blocks):
    # an open ring is one real 2^8 block per node: two nodes per chunk
    template = ring(8, Delta=1.0, ising_boundary=IsingBoundary.OPEN)
    x_axis = analysis.AxisSpec.from_range("Delta", 1.0, 1.0, "lin", 1)
    y_axis = analysis.AxisSpec.from_range("gamma", 0.1, 1.0, "log", 3)
    shapes, pairs = _chunk_spy(monkeypatch)
    grid = analysis.sweep_grid(template, x_axis, y_axis)
    assert sorted(shapes) == [(1, 256, 256), (2, 256, 256)]
    assert len(pairs) == len(set(pairs)) == 3
    assert_grid_matches_reference(
        grid, reference_grid(template, x_axis, y_axis, bloch_blocks))


def test_failed_spec_is_a_nan_node():
    grid = analysis.sweep_grid(
        xy(6), analysis.AxisSpec.from_range("V", 2.0, 8.0, "lin", 2),
        analysis.AxisSpec("gamma", "lin", np.array([-0.5, 0.0, 0.5])))
    assert np.array_equal(np.isnan(grid.values), [[1, 0, 0], [1, 0, 0]])
    with pytest.raises(ValueError, match="unknown sweep parameter"):
        analysis.sweep_grid(
            xy(6), analysis.AxisSpec("J", "lin", np.array([1.0])),
            analysis.AxisSpec("gamma", "lin", np.array([0.5])))


@pytest.mark.parametrize("template, name", [(xy(6), "V"),
                                            (ring(6, J=1.0), "Delta")])
def test_non_finite_x_makes_only_its_row_nan(template, name):
    gammas = analysis.AxisSpec("gamma", "lin", np.array([0.0, 0.3, 1.5]))
    grid = analysis.sweep_grid(
        template, analysis.AxisSpec(name, "lin", np.array([np.inf, 3.0])), gammas)
    assert np.isnan(grid.values[0]).all()
    finite = analysis.sweep_grid(
        template, analysis.AxisSpec(name, "lin", np.array([3.0])), gammas)
    assert grid.values[1:].tobytes() == finite.values.tobytes()
    assert np.isfinite(finite.values).all()


def _kernel_failing_everywhere(stack):
    return np.full(stack.shape[:2], np.nan), np.zeros(len(stack), bool)


def test_boundary_scan_raises_where_the_kernel_fails(monkeypatch):
    monkeypatch.setattr(linalg, "eigvals_stack", _kernel_failing_everywhere)
    with pytest.raises(NonConvergence):
        analysis.numeric_boundary_gamma(ring(6, J=1.0), 0.75)


def test_xy_boundary_runs_no_eigen_kernel(monkeypatch):
    # the XY boundary is a Sturm count on the magnon chain's characteristic
    # polynomial: it never diagonalizes, in either space
    for kind in (ModelKind.XY_MAGNON, ModelKind.XY_FULL_SPACE):
        template = ModelSpec(kind, N=6)
        expected = analysis.numeric_boundary_gamma(template, 5.0)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "eigvals_stack", _kernel_failing_everywhere)
            got = analysis.numeric_boundary_gamma(template, 5.0)
        assert got.hex() == expected.hex()
