"""Exceptional-point analysis and entangled-state preparation dynamics for
non-Hermitian XY and transverse-field Ising spin chains."""

from .analysis import (
    AxisSpec,
    PhaseGrid,
    boundary_table,
    max_im_epsilon,
    numeric_boundary_gamma,
    optimize_gamma,
    sweep_grid,
)
from .bethe import (
    BetheRoot,
    EffectiveModel,
    EtaFactors,
    all_bethe_energies,
    bethe_scattering_state,
    bound_digamma,
    broken_pair_kappa,
    effective_model,
    effective_spectrum,
    eta_factors,
    exact_boundary_gamma,
    perturbative_boundary,
    scattering_F,
    scattering_ep,
    scattering_roots,
)
from .dynamics import (
    EvolutionTrace,
    convergence_time,
    default_initial_state,
    evolve_trace,
    final_fidelity,
    steady_fidelity,
)
from .linalg import Spectrum, biorthogonal_overlap, eig
from .models import (
    IsingBoundary,
    ModelKind,
    ModelSpec,
    StateVector,
    bitstring_state,
    block_coordinates,
    build_h_chain_full,
    build_h_eq,
    build_h_ghz,
    build_h_w,
    build_hamiltonian,
    check_pt_spectrum,
    hamiltonian_blocks,
    magnon_basis,
    reduce_to_magnon_sector,
    sector_blocks,
    single_flip_state,
    site_state,
    spin_basis,
    target_state,
    total_sz,
)

__version__ = "0.1.0"
