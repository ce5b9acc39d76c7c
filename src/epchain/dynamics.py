"""Non-unitary time evolution with Dirac renormalization.

The evolved state is renormalized every step (the accumulated log-norm keeps
the physical growth information without overflow); fidelity against a fixed
target is sampled at each step.  In the broken phase the trace converges to
the fidelity of the right eigenvector with the largest imaginary eigenvalue
part.  When only the end point is needed, final_fidelity applies one
propagator over the whole of t_max, so it needs no step count.  Both read
linalg.scaled_propagator, which returns exp(-i H dt) as 2^e u with u
renormalized inside its squarings: the state never overflows, and e ln 2 goes
into the log-norm.

Both run in the symmetry sectors of models.sector_blocks through one core
(_block_setup): the blocks of models.hamiltonian_blocks exponentiated in one
linalg.scaled_propagator call, the states as their sector coordinates
(models.block_coordinates).  block_spectrum and steady_fidelity diagonalize
each block once for all its sectors and map back only the vectors they use.
Every entry raises DimensionMismatch unless its states live in the model's
space (models.check_basis).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NoDominantState, NonConvergence
from .models import (
    ModelSpec,
    StateVector,
    block_coordinates,
    check_basis,
    hamiltonian_blocks,
    sector_amplitudes,
    sector_blocks,
    site_excitation,
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
    """The paper's initial state |1>: site_excitation(spec, 1), in spin
    space the literal magnon state embedded, s+_1 |down...down>."""
    return site_excitation(spec, 1)


def _block_setup(spec: ModelSpec, init: StateVector, target: StateVector,
                 t_max: float, dt: float):
    """Validated (u, e, psi, tgt) in the symmetry sectors of spec.

    The blocks, zero-padded to the largest dimension d, are exponentiated
    over dt in one linalg.scaled_propagator call; u is 2^-e times the
    (k, d, d) stack of the propagators of the k sectors, each its block's.
    psi and tgt are the (k, d, 1) sector coordinates of init and target,
    each normalized over all sectors.  The padding is exact: a padded block's
    exponential is its own beside the identity, so padded amplitudes stay 0.
    """
    if not 0 < t_max < math.inf:
        raise ValueError("t_max must be positive and finite")
    check_basis(spec, init, target)
    blocks = hamiltonian_blocks(spec)
    d = max(len(h) for h in blocks)
    h = np.zeros((len(blocks), d, d), dtype=complex)
    for b, block in enumerate(blocks):
        h[b, :len(block), :len(block)] = block
    u, e = linalg.scaled_propagator(h, dt)
    sectors = sector_blocks(spec)

    def stacked(state: StateVector) -> np.ndarray:
        x = np.zeros((len(sectors), d, 1), dtype=complex)
        for s, c in enumerate(block_coordinates(spec, state.amplitudes)):
            x[s, :len(c), 0] = c
        return x / np.linalg.norm(x)

    return u[sectors], e, stacked(init), stacked(target)


def _normalized(x: np.ndarray) -> tuple[np.ndarray, float]:
    """(x / ||x||, ln ||x||), the norm taken over the whole stack;
    NonConvergence if x vanishes."""
    norm = np.linalg.norm(x)
    if norm == 0.0:
        raise NonConvergence("the propagated state vanishes")
    return x / norm, math.log(norm)


def evolve_trace(spec: ModelSpec, init: StateVector, target: StateVector,
                 t_max: float, n_steps: int,
                 target_name: str = "") -> EvolutionTrace:
    """Propagate init under the model Hamiltonian, sampling n_steps times.

    Uses the Pade propagator for one fixed step reused across the run
    (robust arbitrarily close to exceptional points), one batched product
    over the blocks per step; its scale 2^e goes into the log-norm.
    """
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    dt = t_max / n_steps
    u, e, psi, tgt = _block_setup(spec, init, target, t_max, dt)
    log_scale = e * math.log(2.0)
    times = np.empty(n_steps)
    fidelities = np.empty(n_steps)
    log_norms = np.empty(n_steps)
    log_norm = 0.0
    for i in range(n_steps):
        psi, log_step = _normalized(u @ psi)
        log_norm += log_step + log_scale
        times[i] = (i + 1) * dt
        fidelities[i] = min(abs(np.vdot(tgt, psi)), 1.0)
        log_norms[i] = log_norm
    return EvolutionTrace(times=times, fidelities=fidelities,
                          log_norms=log_norms, target_name=target_name, spec=spec)


def final_fidelity(spec: ModelSpec, init: StateVector, target: StateVector,
                   t_max: float) -> float:
    """The fidelity at t_max alone: one propagator over t_max applied to init.

    Its scale 2^e cancels in the normalized fidelity, so deep in the broken
    phase (growth e^{sigma t_max}) nothing overflows.  It agrees with
    evolve_trace(...).fidelities[-1] at any step count to roundoff.
    """
    u, _, psi, tgt = _block_setup(spec, init, target, t_max, t_max)
    psi, _ = _normalized(u @ psi)
    return float(min(abs(np.vdot(tgt, psi)), 1.0))


def _dominant_index(eigenvalues: np.ndarray) -> int:
    """Index of the unique eigenvalue with maximal imaginary part.

    NoDominantState when the spectrum is real (unbroken phase: no steady
    selection) or the maximal imaginary part is degenerate.
    """
    im = eigenvalues.imag
    order = np.argsort(im)
    scale = 1.0 + float(np.max(np.abs(eigenvalues)))
    if im[order[-1]] <= DOMINANT_GAP_TOL * scale:
        raise NoDominantState("spectrum is real: no exponentially selected state")
    if len(im) > 1 and im[order[-1]] - im[order[-2]] <= DOMINANT_GAP_TOL * scale:
        raise NoDominantState("maximal imaginary part is degenerate")
    return int(order[-1])


def _sector_spectra(spec: ModelSpec) -> list[linalg.Spectrum]:
    """linalg.eig of each block of hamiltonian_blocks, once per sector."""
    spectra = [linalg.eig(h) for h in hamiltonian_blocks(spec)]
    return [spectra[b] for b in sector_blocks(spec)]


def block_spectrum(spec: ModelSpec, vectors: bool = True) -> linalg.Spectrum:
    """The spectrum from _sector_spectra, stably sorted by (Re, Im), with the
    block residuals (the maps are isometries), and right_vectors None unless
    vectors: then each sector's are mapped into spec.basis by
    sector_amplitudes and rotated by linalg.rotate_phases."""
    sectors = _sector_spectra(spec)
    vals = np.concatenate([sp.eigenvalues for sp in sectors])
    order = np.lexsort((vals.imag, vals.real))
    vecs = np.empty((spec.basis.dim, len(order)), dtype=complex) if vectors else None
    columns = np.split(np.argsort(order), np.cumsum([sp.dim for sp in sectors]))
    for s, sp in enumerate(sectors if vectors else ()):
        v = sector_amplitudes(spec, s, sp.right_vectors)
        vecs[:, columns[s]] = linalg.rotate_phases(v.T).T
    residuals = np.concatenate([sp.residuals for sp in sectors])
    return linalg.Spectrum(vals[order], vecs, residuals[order])


def steady_fidelity(spec: ModelSpec, target: StateVector) -> float:
    """|<target|dominant right eigenvector>| (the long-time fidelity limit),
    the dominant one chosen across the eigenvalues of _sector_spectra and
    only its vector mapped, as in block_spectrum.  A ring block 0 < m < N/2
    also runs the mirror sector N-m, so its eigenvalues count twice and a
    dominant one there is degenerate (NoDominantState).  DimensionMismatch
    unless target lives in spec.basis."""
    check_basis(spec, target)
    sectors = _sector_spectra(spec)
    s, v = [(s, v) for s, sp in enumerate(sectors) for v in sp.right_vectors.T][
        _dominant_index(np.concatenate([sp.eigenvalues for sp in sectors]))]
    vec = linalg.rotate_phases(sector_amplitudes(spec, s, v[:, None])[:, 0])
    tgt = target.amplitudes / np.linalg.norm(target.amplitudes)
    return float(abs(np.vdot(tgt, vec / np.linalg.norm(vec))))


def convergence_time(trace: EvolutionTrace, tol: float = 1e-3) -> float:
    """Smallest sampled t with |f(s) - f(t_max)| < tol for all sampled s >= t.

    The condition holds at s = t_max itself, so a trace that never settles
    earlier returns its last sample time.
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
    return float(trace.times[bad[-1] + 1])
