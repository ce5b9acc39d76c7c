"""Dense complex linear algebra kernel.

General (non-Hermitian) eigendecomposition with residual verification,
biorthogonal inner products, and the Pade scaling-and-squaring step
propagator.  One eigen kernel serves a single matrix (eig) and a stack of
them (eigvals_stack, one LAPACK call for a sweep row).  All functions are
pure; nothing here mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NonConvergence

# Residual acceptance: ||H v - eps v|| <= RESIDUAL_TOL * (1 + ||H||).
RESIDUAL_TOL = 1e-9


def as_matrix(m) -> np.ndarray:
    """Validate and return a square, finite, complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition sorted by (Re, Im) of the eigenvalues.

    right_vectors[:, n] is the unit-norm right eigenvector of eigenvalue n;
    residuals[n] = ||H v_n - eps_n v_n||.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    residuals: np.ndarray

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def max_residual(self) -> float:
        return float(np.max(self.residuals))


def _eig_stack(a: np.ndarray):
    """Eigendecompositions of a (k, d, d) stack: one np.linalg.eig call.

    Returns (vals, vecs, residuals, ok).  vals[n] is sorted by (Re, Im);
    vecs[n][:, i] is the unit-norm right eigenvector of vals[n][i], rotated so
    its largest-magnitude entry is real positive (deterministic output);
    residuals[n][i] = ||H v_i - eps_i v_i||; ok[n] is False where the matrix
    is not finite, LAPACK fails on it, or a residual exceeds
    RESIDUAL_TOL * (1 + ||H||), and one such matrix fails no other.

    The step order fixes the last bits of the printed vectors and residuals:
    gemm's result and the norm's summation order depend on column order and
    memory layout, so columns are sorted first and normalized as contiguous
    rows of cols; the phase divides by hypot, from which np.abs of a complex
    array can differ in the last bit.
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
    k, d = a.shape[:2]
    rows = np.arange(k)[:, None]
    order = np.lexsort((vals.imag, vals.real), axis=-1)
    vals = vals[rows, order]
    cols = vecs.swapaxes(-1, -2)[rows, order]
    del vecs
    with np.errstate(invalid="ignore", divide="ignore"):  # failed matrices
        cols /= np.linalg.norm(cols, axis=-1, keepdims=True)
        top = cols[rows, np.arange(d), np.argmax(np.abs(cols), axis=-1)]
        cols /= (top / np.hypot(top.real, top.imag))[..., None]
        vecs = cols.swapaxes(-1, -2)
        hv = a @ vecs
        hv -= vecs * vals[:, None, :]
        residuals = np.linalg.norm(hv, axis=-2)
    scale = 1.0 + np.linalg.norm(a, axis=(-2, -1))
    ok = finite & (residuals.max(axis=-1) <= RESIDUAL_TOL * scale)
    return vals, vecs, residuals, ok


def eigvals_stack(stack) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues of every matrix of a (k, d, d) stack, in one LAPACK call.

    Returns (vals, ok): vals[n] holds the eigenvalues of stack[n] sorted by
    (Re, Im), bitwise those of eig(stack[n]); ok[n] is False where that
    matrix is not finite, LAPACK fails on it, or its residual check fails,
    and vals[n] is then NaN.  One bad matrix never fails the others.
    """
    a = np.asarray(stack, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2] or a.shape[1] < 1:
        raise DimensionMismatch(
            f"expected a stack of square matrices, got shape {a.shape}")
    vals, _, _, ok = _eig_stack(a)
    vals[~ok] = np.nan
    return vals, ok


def eig(m) -> Spectrum:
    """_eig_stack of one matrix as a Spectrum; NonConvergence unless ok."""
    a = as_matrix(m)
    vals, vecs, residuals, ok = _eig_stack(a[None])
    if not ok[0]:
        raise NonConvergence(
            f"eigendecomposition residual {np.max(residuals[0]):.3e} exceeds "
            f"{RESIDUAL_TOL:.0e} * (1 + ||H||)")
    return Spectrum(eigenvalues=vals[0], right_vectors=vecs[0],
                    residuals=residuals[0])


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


def propagator(m, dt: float) -> np.ndarray:
    """exp(-i m dt) by scaling-and-squaring Pade approximation.

    NonConvergence when it overflows (max Im(eps) dt beyond about 700).
    """
    a = as_matrix(m)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        u = scipy.linalg.expm(-1j * dt * a)
    if not np.all(np.isfinite(u)):
        raise NonConvergence(
            f"exp(-i H dt) overflows at dt={dt:.6g}; use a smaller step")
    return u
