"""Non-unitary time evolution with Dirac renormalization.

The evolved state is renormalized every step (the accumulated log-norm keeps
the physical growth information without overflow); fidelity against a fixed
target is sampled at each step.  In the broken phase the trace converges to
the fidelity of the right eigenvector with the largest imaginary eigenvalue
part.  When only the end point is needed, final_fidelity applies the same
step propagator n_steps times by repeated squaring, in about log2(n_steps)
matrix products instead of n_steps matrix-vector steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NoDominantState, NonConvergence
from .models import (
    ModelKind,
    ModelSpec,
    StateVector,
    build_hamiltonian,
    magnon_basis,
    single_flip_state,
    site_state,
)

DOMINANT_GAP_TOL = 1e-10


@dataclass(frozen=True)
class EvolutionTrace:
    """Sampled fidelity trace of one non-unitary evolution run.

    times are dimensionless (hopping = 1); log_norms[i] is the accumulated
    ln ||psi(t_i)|| of the raw (never-renormalized) state.
    """

    times: np.ndarray
    fidelities: np.ndarray
    log_norms: np.ndarray
    target_name: str
    spec: ModelSpec

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        f = np.asarray(self.fidelities, dtype=float)
        n = np.asarray(self.log_norms, dtype=float)
        if not (len(t) == len(f) == len(n)):
            raise DimensionMismatch("trace arrays must have equal length")
        if np.any(np.diff(t) <= 0):
            raise ValueError("times must be strictly increasing")
        if not np.all((f >= 0) & (f <= 1 + 1e-12)):
            raise ValueError("fidelities must lie in [0, 1]")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "fidelities", f)
        object.__setattr__(self, "log_norms", n)


def default_initial_state(spec: ModelSpec) -> StateVector:
    """|1> of the magnon basis, or its single-flip embedding in spin space.

    The full-space reading of "initial state |1>" is ambiguous; the single
    flip at site 1 is the literal magnon-basis state embedded in spin space.
    """
    if spec.kind is ModelKind.XY_MAGNON:
        return site_state(spec.N, 1)
    return single_flip_state(spec.N, 1)


def _step_setup(spec: ModelSpec, init: StateVector, target: StateVector,
                t_max: float, n_steps: int):
    """Validated (dt, step propagator, normalized init, normalized target)."""
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    h = build_hamiltonian(spec)
    if init.basis.dim != h.shape[0] or target.basis.dim != h.shape[0]:
        raise DimensionMismatch("state dimension does not match the Hamiltonian")
    dt = t_max / n_steps
    u = linalg.propagator(h, dt)
    tgt = target.amplitudes / np.linalg.norm(target.amplitudes)
    psi = init.amplitudes / np.linalg.norm(init.amplitudes)
    return dt, u, psi, tgt


def evolve_trace(spec: ModelSpec, init: StateVector, target: StateVector,
                 t_max: float, n_steps: int,
                 target_name: str = "") -> EvolutionTrace:
    """Propagate init under the model Hamiltonian, sampling n_steps times.

    Uses the Pade propagator for one fixed step reused across the run
    (robust arbitrarily close to exceptional points).  NonConvergence when
    the norm of one step's state leaves the double range.
    """
    dt, u, psi, tgt = _step_setup(spec, init, target, t_max, n_steps)
    times = np.empty(n_steps)
    fidelities = np.empty(n_steps)
    log_norms = np.empty(n_steps)
    log_norm = 0.0
    with np.errstate(over="ignore"):  # the norm is checked below
        for i in range(n_steps):
            psi = u @ psi
            step_norm = np.linalg.norm(psi)
            if not 0.0 < step_norm < math.inf:
                raise NonConvergence(
                    f"the state norm overflows at step {i + 1} of {n_steps} "
                    f"(dt={dt:.6g}); use more steps")
            log_norm += math.log(step_norm)
            psi = psi / step_norm
            times[i] = (i + 1) * dt
            fidelities[i] = min(abs(np.vdot(tgt, psi)), 1.0)
            log_norms[i] = log_norm
    return EvolutionTrace(times=times, fidelities=fidelities,
                          log_norms=log_norms, target_name=target_name, spec=spec)


def final_fidelity(spec: ModelSpec, init: StateVector, target: StateVector,
                   t_max: float, n_steps: int) -> float:
    """evolve_trace(...).fidelities[-1] without the intermediate samples.

    The same step propagator u is applied n_steps times by square-and-multiply.
    The state is renormalized after each multiply and the running power of u
    after each squaring; both factors cancel in the normalized fidelity, so
    deep in the broken phase (growth e^{sigma t_max}) nothing overflows
    unless u itself is near the double range: then NonConvergence.
    """
    _, u, psi, tgt = _step_setup(spec, init, target, t_max, n_steps)
    n = n_steps
    with np.errstate(over="ignore", invalid="ignore"):  # NaN is checked below
        while n:
            if n & 1:
                psi = u @ psi
                psi /= np.linalg.norm(psi)
            n >>= 1
            if n:
                u = u @ u
                u /= np.linalg.norm(u)
    f = float(min(abs(np.vdot(tgt, psi)), 1.0))
    if math.isnan(f):
        raise NonConvergence("a power of the step propagator overflows; "
                             "use more steps")
    return f


def dominant_state(m, basis=None) -> StateVector:
    """Right eigenvector of the unique eigenvalue with maximal imaginary part.

    Raises NoDominantState when the spectrum is real (unbroken phase: no
    steady selection) or the maximal imaginary part is degenerate.  basis
    tags the returned state; defaults to the magnon position basis of the
    matrix dimension.
    """
    spectrum = linalg.eig(m)
    im = spectrum.eigenvalues.imag
    order = np.argsort(im)
    scale = 1.0 + float(np.max(np.abs(spectrum.eigenvalues)))
    if im[order[-1]] <= DOMINANT_GAP_TOL * scale:
        raise NoDominantState("spectrum is real: no exponentially selected state")
    if len(im) > 1 and im[order[-1]] - im[order[-2]] <= DOMINANT_GAP_TOL * scale:
        raise NoDominantState("maximal imaginary part is degenerate")
    vec = spectrum.right_vectors[:, order[-1]]
    if basis is None:
        basis = magnon_basis(len(vec))
    return StateVector(basis, vec / np.linalg.norm(vec))


def steady_fidelity(spec: ModelSpec, target: StateVector) -> float:
    """|<target|dominant right eigenvector>| (the long-time fidelity limit)."""
    state = dominant_state(build_hamiltonian(spec), basis=target.basis)
    tgt = target.amplitudes / np.linalg.norm(target.amplitudes)
    return float(abs(np.vdot(tgt, state.amplitudes)))


def convergence_time(trace: EvolutionTrace, tol: float = 1e-3) -> float:
    """Smallest sampled t with |f(s) - f(t_max)| < tol for all sampled s >= t.

    Returns +inf if the trace never settles to within tol.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    f = trace.fidelities
    deviation = np.abs(f - f[-1])
    settled = deviation < tol
    # last index where the trace is NOT settled
    bad = np.nonzero(~settled)[0]
    if len(bad) == 0:
        return float(trace.times[0])
    if bad[-1] == len(f) - 1:
        return float("inf")
    return float(trace.times[bad[-1] + 1])
