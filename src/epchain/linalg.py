"""Dense complex linear algebra kernel.

General (non-Hermitian) eigendecomposition with residual verification,
biorthogonal inner products, and two interchangeable propagator backends
(Pade scaling-and-squaring, spectral synthesis).  All functions are pure;
nothing here mutates its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DefectivePropagation, DimensionMismatch, NonConvergence

# Residual acceptance: ||H v - eps v|| <= RESIDUAL_TOL * (1 + ||H||).
RESIDUAL_TOL = 1e-9

# |<u|v>| below this means the left/right pair is numerically defective.
DEFECT_TOL = 1e-10


def as_matrix(m) -> np.ndarray:
    """Validate and return a square, finite, complex matrix."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a.real)) or not np.all(np.isfinite(a.imag)):
        raise ValueError("matrix entries must be finite")
    return a


def _amplitudes(v) -> np.ndarray:
    """Accept a bare array or anything carrying an .amplitudes array."""
    return np.asarray(getattr(v, "amplitudes", v), dtype=complex)


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition sorted by (Re, Im) of the eigenvalues.

    right_vectors[:, n] is the unit-norm right eigenvector of eigenvalue n;
    left_vectors[:, n] (when computed) satisfies H^dag u = conj(eps) u and is
    paired to the same eigenvalue.  residuals[n] = ||H v_n - eps_n v_n||.
    """

    eigenvalues: np.ndarray
    right_vectors: np.ndarray
    residuals: np.ndarray
    left_vectors: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def max_residual(self) -> float:
        return float(np.max(self.residuals))


def _fix_phase(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column so its largest-magnitude entry is real positive.

    Makes the decomposition deterministic, which downstream CSV output
    relies on.
    """
    out = vectors.copy()
    for n in range(out.shape[1]):
        j = int(np.argmax(np.abs(out[:, n])))
        ph = out[j, n] / abs(out[j, n])
        out[:, n] = out[:, n] / ph
    return out


def _sorted_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        vals, vecs = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(str(exc)) from exc
    order = np.lexsort((vals.imag, vals.real))
    vecs = vecs[:, order] / np.linalg.norm(vecs[:, order], axis=0)
    return vals[order], _fix_phase(vecs)


def eig(m, want_left: bool = False) -> Spectrum:
    """Full eigendecomposition of a general complex matrix.

    Left eigenvectors, when requested, are obtained as right eigenvectors of
    the conjugate transpose and paired to the eigenvalues by the shared
    (Re, Im) sort order of the conjugated spectrum.
    """
    a = as_matrix(m)
    scale = 1.0 + np.linalg.norm(a)
    vals, vecs = _sorted_eig(a)
    residuals = np.linalg.norm(a @ vecs - vecs * vals, axis=0)
    if np.max(residuals) > RESIDUAL_TOL * scale:
        raise NonConvergence(
            f"eigendecomposition residual {np.max(residuals):.3e} exceeds "
            f"{RESIDUAL_TOL * scale:.3e}"
        )
    left = None
    if want_left:
        lvals, lvecs = _sorted_eig(a.conj().T)
        # Sorting conj(lvals) by (Re, Im) must reproduce the order of vals.
        lorder = np.lexsort((-lvals.imag, lvals.real))
        left = lvecs[:, lorder]
        lres = np.linalg.norm(a.conj().T @ left - left * lvals[lorder], axis=0)
        if np.max(lres) > RESIDUAL_TOL * scale:
            raise NonConvergence("left eigenvector residual too large")
    return Spectrum(eigenvalues=vals, right_vectors=vecs, residuals=residuals,
                    left_vectors=left)


def biorthogonal_overlap(left, right) -> complex:
    """Dirac product sum_l conj(left_l) * right_l of two amplitude arrays."""
    lb = getattr(left, "basis", None)
    rb = getattr(right, "basis", None)
    if lb is not None and rb is not None and lb != rb:
        raise DimensionMismatch(f"basis mismatch: {lb} vs {rb}")
    la, ra = _amplitudes(left), _amplitudes(right)
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


def apply_propagator(m, psi, dt: float, backend: str = "pade"):
    """Apply exp(-i m dt) to psi.  The result is NOT renormalized.

    backend="pade" uses scaling-and-squaring (robust at exceptional points);
    backend="spectral" synthesizes sum_n e^{-i eps_n dt} v_n <u_n|psi>/<u_n|v_n>
    and raises DefectivePropagation when some |<u_n|v_n>| < 1e-10.
    """
    a = as_matrix(m)
    amps = _amplitudes(psi)
    if amps.shape != (a.shape[0],):
        raise DimensionMismatch(
            f"state length {amps.shape} does not match matrix dim {a.shape[0]}"
        )
    if dt < 0:
        raise ValueError("dt must be non-negative")
    if backend == "pade":
        out = propagator(a, dt) @ amps
    elif backend == "spectral":
        spec = eig(a, want_left=True)
        v, u = spec.right_vectors, spec.left_vectors
        uv = np.einsum("in,in->n", u.conj(), v)
        if np.min(np.abs(uv)) < DEFECT_TOL:
            raise DefectivePropagation(
                f"min |<u|v>| = {np.min(np.abs(uv)):.3e}: near-defective matrix, "
                "use the pade backend"
            )
        coeff = (u.conj().T @ amps) / uv
        out = v @ (np.exp(-1j * spec.eigenvalues * dt) * coeff)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    if hasattr(psi, "amplitudes"):
        return psi.__class__(basis=psi.basis, amplitudes=out)
    return out
