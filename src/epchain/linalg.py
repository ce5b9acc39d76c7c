"""Dense linear algebra kernel, on numpy alone: non-Hermitian
eigendecomposition with residual verification, biorthogonal inner products,
and the propagator exp(-i H dt) by scaling and squaring of the degree-13 Pade
approximant (Higham, SIAM J. Matrix Anal. Appl. 26, 1179, 2005).  One input
rule (a real matrix stays real) serves the eigendecomposition of one matrix
(eig, right vectors and residuals) and the eigenvalues of a stack
(eigvals_stack, one values-only LAPACK call for a sweep chunk, checked by a
power-sum guard); the propagator takes one matrix or a stack, with one
linear solve, as 2^e u.  Nothing here mutates its inputs.  one_blas_thread
pins numpy's OpenBLAS to one thread for a block.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonConvergence

# Residual acceptance: ||H v - eps v|| <= RESIDUAL_TOL * (1 + ||H||).
RESIDUAL_TOL = 1e-9


def as_matrix(m) -> np.ndarray:
    """A square, finite, complex matrix or non-empty (k, d, d) stack."""
    a = np.asarray(m, dtype=complex)
    if a.ndim not in (2, 3) or a.shape[-1] != a.shape[-2] or a.size == 0:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _kernel_input(m, ndim: int) -> np.ndarray:
    """m with ndim axes, the last two equal and >= 1 (else DimensionMismatch),
    real if m is, so LAPACK's real kernel runs on it, else complex."""
    a = np.asarray(m)
    a = a.astype(float if np.isrealobj(a) else complex, copy=False)
    if a.ndim != ndim or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        raise DimensionMismatch(f"expected {ndim} axes, the last two equal, "
                                f"got shape {a.shape}")
    return a


# numpy's own OpenBLAS (the scipy-openblas build of numpy >= 2 wheels) names
# its thread count functions so; dlsym on numpy's LAPACK extension finds them
# in the library it links
_BLAS_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                        "scipy_openblas_set_num_threads64_")


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of numpy's OpenBLAS, or None where
    numpy links another BLAS or an OpenBLAS under other names."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        get, set_ = (getattr(lib, name) for name in _BLAS_THREAD_SYMBOLS)
    except (AttributeError, OSError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def one_blas_thread():
    """Run the block with numpy's BLAS on one thread, and restore its
    thread count afterwards, however the block ends; where that BLAS is not
    found, leave it alone.

    Extra BLAS threads change the last bits of some eigendecompositions,
    and on the sweeps' small matrices (a ring's momentum blocks, d <= 108 at
    N = 10) they only burn CPU.
    """
    threads = _blas_threads()
    if threads is None:
        yield
        return
    get, set_ = threads
    old = get()
    try:
        set_(1)
        yield
    finally:
        set_(old)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition sorted by (Re, Im) of the eigenvalues.

    right_vectors[:, n] is the unit-norm right eigenvector of eigenvalue n,
    or None where no vector was asked for; residuals[n] = ||H v_n - eps_n v_n||.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray | None
    residuals: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def max_residual(self) -> float:
        return float(np.max(self.residuals))


def rotate_phases(vecs: np.ndarray) -> np.ndarray:
    """vecs, each vector along the last axis divided in place by the phase
    (over hypot, not np.abs) of its entry of largest |v| before the division,
    which so becomes real and positive; on a tie in |v|, roundoff picks it."""
    top = np.take_along_axis(vecs, np.argmax(np.abs(vecs), axis=-1)[..., None], -1)
    vecs /= top / np.hypot(top.real, top.imag)
    return vecs


def _eig_stack(a: np.ndarray):
    """Eigendecompositions of a (k, d, d) stack: one np.linalg.eig call.

    Returns (vals, vecs, residuals, ok): vals[n] sorted by (Re, Im);
    vecs[n][:, i] the unit right eigenvector of vals[n][i], rotated by
    rotate_phases; residuals[n][i] = ||H v_i - eps_i v_i||;
    ok[n] False where the matrix is not finite, LAPACK fails on it, or a
    residual exceeds RESIDUAL_TOL * (1 + ||H||), failing no other matrix.

    The step order fixes the last bits of the printed vectors and residuals:
    columns are sorted first and normalized as contiguous rows of cols (gemm
    and the norm depend on column order and layout).
    """
    finite = np.isfinite(a).all(axis=(-2, -1))
    if not finite.all():
        a = np.where(finite[:, None, None], a, 0)
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError:
        # error path: retry one matrix at a time so the failure lands on it
        vals = np.full(a.shape[:-1], np.nan, dtype=complex)
        vecs = np.full(a.shape, np.nan, dtype=complex)
        for n in range(len(a)):
            try:
                vals[n], vecs[n] = np.linalg.eig(a[n])
            except np.linalg.LinAlgError:
                pass
    rows = np.arange(len(a))[:, None]
    order = np.lexsort((vals.imag, vals.real), axis=-1)
    vals = vals[rows, order]
    cols = vecs.swapaxes(-1, -2)[rows, order]
    del vecs
    with np.errstate(invalid="ignore", divide="ignore"):  # failed matrices
        cols /= np.linalg.norm(cols, axis=-1, keepdims=True)
        rotate_phases(cols)
        vecs = cols.swapaxes(-1, -2)
        hv = a @ vecs
        hv -= vecs * vals[:, None, :]
        residuals = np.linalg.norm(hv, axis=-2)
    scale = 1.0 + np.linalg.norm(a, axis=(-2, -1))
    ok = finite & (residuals.max(axis=-1) <= RESIDUAL_TOL * scale)
    return vals, vecs, residuals, ok


def eigvals_stack(stack) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of every matrix of a (k, d, d) stack, values only, in one
    np.linalg.eigvals call, real or complex by _kernel_input.  Returns
    (vals, ok): vals[n] holds the eigenvalues of stack[n] sorted by (Re, Im),
    as a complex array; ok[n] is False where that matrix is not finite,
    LAPACK fails on it, or it fails the power-sum guard, and vals[n] is then
    NaN.  One bad matrix never fails the others.

    The power-sum guard stands in for eig's residual check, which needs
    vectors: with s = 1 + ||A||_F it asks |sum(lam) - tr A| <= tol d s and
    |sum(lam^2) - tr A^2| <= tol d s^2, tol = RESIDUAL_TOL, computed on A/s
    and lam/s so that no square overflows.  Both sums are smooth in A, so
    the guard stays well conditioned at exceptional points, where vectors
    coalesce.  LAPACK's values-only path may round differently from eig's:
    on the blocks the figures sweep (d <= 108) vals[n] is bitwise
    eig(stack[n]).eigenvalues; from d = 128 it may differ by roundoff.
    """
    a = _kernel_input(stack, ndim=3)
    finite = np.isfinite(a).all(axis=(-2, -1))
    if not finite.all():
        a = np.where(finite[:, None, None], a, 0)
    try:
        vals = np.linalg.eigvals(a)
    except np.linalg.LinAlgError:
        # error path: retry one matrix at a time so the failure lands on it
        vals = np.full(a.shape[:-1], np.nan, dtype=complex)
        for n in range(len(a)):
            try:
                vals[n] = np.linalg.eigvals(a[n])
            except np.linalg.LinAlgError:
                pass
    order = np.lexsort((vals.imag, vals.real), axis=-1)
    vals = np.take_along_axis(vals, order, -1).astype(complex, copy=False)
    scale = 1.0 + np.linalg.norm(a, axis=(-2, -1))
    u, lam = a / scale[:, None, None], vals / scale[:, None]
    bound = RESIDUAL_TOL * a.shape[-1]
    with np.errstate(invalid="ignore"):  # NaN where LAPACK failed
        ok = (finite
              & (np.abs(lam.sum(axis=-1) - np.trace(u, axis1=-2, axis2=-1))
                 <= bound)
              & (np.abs((lam * lam).sum(axis=-1) - np.einsum("nij,nji->n", u, u))
                 <= bound))
    vals[~ok] = np.nan
    return vals, ok


def eig(m) -> Spectrum:
    """_eig_stack of one matrix, real or complex by _kernel_input, as a
    complex Spectrum; ValueError unless finite, NonConvergence unless ok."""
    a = _kernel_input(m, ndim=2)
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    vals, vecs, residuals, ok = _eig_stack(a[None])
    if not ok[0]:
        raise NonConvergence(
            f"eigendecomposition residual {np.max(residuals[0]):.3e} exceeds "
            f"{RESIDUAL_TOL:.0e} * (1 + ||H||)")
    return Spectrum(vals[0].astype(complex, copy=False),
                    vecs[0].astype(complex, copy=False), residuals[0])


def biorthogonal_overlap(left, right) -> complex:
    """Dirac product sum_l conj(left_l) * right_l of two amplitude arrays."""
    lb = getattr(left, "basis", None)
    rb = getattr(right, "basis", None)
    if lb is not None and rb is not None and lb != rb:
        raise DimensionMismatch(f"basis mismatch: {lb} vs {rb}")
    la, ra = (np.asarray(getattr(v, "amplitudes", v), dtype=complex)
              for v in (left, right))
    if la.shape != ra.shape:
        raise DimensionMismatch(f"length mismatch: {la.shape} vs {ra.shape}")
    return complex(np.vdot(la, ra))


# Higham (2005): the coefficients b_0 ... b_13 of the degree-13 Pade
# approximant r_13 = q_13(A)^-1 p_13(A) of exp(A), and the largest 1-norm
# theta_13 of A at which r_13 is exp to double roundoff.  With A^2, A^4 and
# A^6, p_13 = V + U and q_13 = V - U for U = A (A^6 W_1 + W_2) and
# V = A^6 Z_1 + Z_2; the rows of _PADE13_SUMS weigh (I, A^2, A^4, A^6) into
# W_1, W_2, Z_1 and Z_2.
_PADE13 = (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
           1187353796428800.0, 129060195264000.0, 10559470521600.0,
           670442572800.0, 33522128640.0, 1323241920.0, 40840800.0,
           960960.0, 16380.0, 182.0, 1.0)
_THETA13 = 5.371920351148152
_PADE13_SUMS = np.array([(0.0, *_PADE13[9::2]), _PADE13[1:9:2],
                         (0.0, *_PADE13[8::2]), _PADE13[0:8:2]], dtype=complex)


def scaled_propagator(m, dt: float) -> tuple[np.ndarray, int]:
    """(u, e) with exp(-i m dt) = 2^e u, of a (d, d) matrix or of each
    matrix of a (k, d, d) stack.

    Scaling and squaring of r_13: the stack shares one scaling 2^-s, set by
    its largest 1-norm, so the whole stack takes six matrix products, one
    batched solve and s squarings.  After each squaring the stack is divided
    by the power of two of its largest |entry|, which is exact, so u never
    overflows whatever the growth e^{max Im(eps) dt}; with s = 0, u is r_13
    itself and e = 0.  NonConvergence when -i m dt is not finite.
    """
    a = as_matrix(m)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        x = -1j * dt * a
        norm = float(np.abs(x).sum(axis=-2).max())
    if not math.isfinite(norm):  # an inf or NaN entry, or an overflowing sum
        raise NonConvergence(f"-i H dt is not finite at dt={dt:.6g}")
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    x *= 2.0 ** -s
    powers = np.empty((4,) + x.shape, dtype=complex)
    powers[0] = np.eye(x.shape[-1])
    np.matmul(x, x, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    w1, w2, z1, z2 = (_PADE13_SUMS @ powers.reshape(4, -1)).reshape(powers.shape)
    u = x @ (powers[3] @ w1 + w2)
    v = powers[3] @ z1 + z2
    x = np.linalg.solve(v - u, v + u)
    e = 0
    for _ in range(s):
        x = x @ x
        k = math.frexp(float(np.abs(x).max()))[1]
        x *= 2.0 ** -k
        e = 2 * e + k
    return x, e
