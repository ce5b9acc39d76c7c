"""Hamiltonian and target-state builders.

Covers the open XY chain with imaginary boundary fields (full spin space and
its single-magnon reduction) and the transverse-field Ising model with an
imaginary longitudinal field, whole or, on the ring, in momentum blocks
together with each block's coordinates of a state.
Conventions:

* magnon basis: position states |1> .. |N>, stored as indices 0 .. N-1;
* spin-z basis: index is the bitstring with site 1 as the most significant
  bit and bit 1 = spin up, so |down...down> is index 0.  Site l has
  sz = +1 exactly when ``(idx >> (N - l)) & 1`` is set, and every 2^N
  operator is written directly from these bits (``_spin_z``).

The full-space chain is assembled in the number-operator form
``sum_l (s+_l s-_{l+1} + h.c.) + (V+ig) n_1 + (V-ig) n_N`` with
``n_l = (sz_l + 1)/2`` so that its single-flip block equals the magnon
Hamiltonian entrywise.
"""

from __future__ import annotations

import enum
import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionCap, DimensionMismatch, OddNForW, SectorNotInvariant

FULL_SPACE_CAP = 4096  # 2^12


class ModelKind(enum.Enum):
    XY_MAGNON = "xy_magnon"
    XY_FULL_SPACE = "xy_full_space"
    TRANSVERSE_ISING = "transverse_ising"

    @property
    def control(self) -> str:
        """The parameter swept against gamma: Delta for Ising, V otherwise."""
        return "Delta" if self is ModelKind.TRANSVERSE_ISING else "V"


class IsingBoundary(enum.Enum):
    PERIODIC = "periodic"
    OPEN = "open"


@dataclass(frozen=True)
class ModelSpec:
    """All physical parameters of one model instance.

    Energies are dimensionless (hopping amplitude = 1).  V is the real
    boundary potential, gamma the imaginary boundary/longitudinal field
    strength, J the Ising coupling, Delta the transverse field.
    """

    kind: ModelKind
    N: int
    V: float = 0.0
    gamma: float = 0.0
    J: float = 1.0
    Delta: float = 0.0
    ising_boundary: IsingBoundary = IsingBoundary.PERIODIC

    def __post_init__(self):
        min_n = 1 if self.kind is ModelKind.TRANSVERSE_ISING else 2
        if self.N < min_n:
            raise ValueError(f"N must be >= {min_n} for {self.kind.value}")
        for name in ("V", "gamma", "J", "Delta"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.gamma < 0:
            raise ValueError("gamma must be >= 0")
        self.basis  # a spin space over FULL_SPACE_CAP raises DimensionCap

    @property
    def basis(self) -> Basis:
        """The space the model's states live in: the N magnon positions of
        the chain, or the 2^N spin-z configurations of the other kinds."""
        if self.kind is ModelKind.XY_MAGNON:
            return magnon_basis(self.N)
        return spin_basis(self.N)


class BasisKind(enum.Enum):
    MAGNON_POSITION = "magnon_position"
    SPIN_Z = "spin_z"


@dataclass(frozen=True)
class Basis:
    """N sites in one of the two spaces; DimensionCap over FULL_SPACE_CAP."""

    kind: BasisKind
    N: int

    def __post_init__(self):
        if self.kind is BasisKind.SPIN_Z and 2 ** self.N > FULL_SPACE_CAP:
            raise DimensionCap(
                f"2^{self.N} exceeds the full-space cap {FULL_SPACE_CAP}")

    @property
    def dim(self) -> int:
        return self.N if self.kind is BasisKind.MAGNON_POSITION else 2 ** self.N


def magnon_basis(N: int) -> Basis:
    return Basis(BasisKind.MAGNON_POSITION, N)


def spin_basis(N: int) -> Basis:
    return Basis(BasisKind.SPIN_Z, N)


@dataclass(frozen=True)
class StateVector:
    """Complex amplitudes over a tagged basis."""

    basis: Basis
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.basis.dim,):
            raise DimensionMismatch(
                f"amplitude length {amps.shape} does not match basis dim "
                f"{self.basis.dim}"
            )
        if np.linalg.norm(amps) == 0.0:
            raise ValueError("state must have positive Dirac norm")


def site_state(N: int, l: int) -> StateVector:
    """Magnon position state |l>, l = 1..N."""
    if not 1 <= l <= N:
        raise ValueError(f"site index {l} outside 1..{N}")
    amps = np.zeros(N, dtype=complex)
    amps[l - 1] = 1.0
    return StateVector(magnon_basis(N), amps)


def bitstring_state(bits: str) -> StateVector:
    """Spin-z product state from a bitstring, site 1 first, '1' = spin up."""
    if not bits or any(b not in "01" for b in bits):
        raise ValueError(f"invalid bitstring {bits!r}")
    basis = spin_basis(len(bits))
    amps = np.zeros(basis.dim, dtype=complex)
    amps[int(bits, 2)] = 1.0
    return StateVector(basis, amps)


def single_flip_state(N: int, l: int) -> StateVector:
    """s+_l |down...down> in the spin-z basis, l = 1..N."""
    if not 1 <= l <= N:
        raise ValueError(f"site index {l} outside 1..{N}")
    bits = ["0"] * N
    bits[l - 1] = "1"
    return bitstring_state("".join(bits))


def site_excitation(spec: ModelSpec, l: int) -> StateVector:
    """One excitation at site l = 1..N in spec's space: |l> on the magnon
    chain, its embedding s+_l |down...down> in spin space."""
    if spec.basis.kind is BasisKind.MAGNON_POSITION:
        return site_state(spec.N, l)
    return single_flip_state(spec.N, l)


def check_basis(spec: ModelSpec, *states: StateVector) -> None:
    """DimensionMismatch unless every state lives in spec's space, spec.basis."""
    for state in states:
        if state.basis != spec.basis:
            raise DimensionMismatch(
                f"a {state.basis.kind.value} state of N={state.basis.N} is not in "
                f"the {spec.basis.kind.value} space of the model, N={spec.N}")


# ---------------------------------------------------------------------------
# builders

def build_h_eq(spec: ModelSpec) -> np.ndarray:
    """N x N single-magnon chain: unit hopping, (V+ig) and (V-ig) end sites."""
    if spec.kind is not ModelKind.XY_MAGNON:
        raise ValueError("build_h_eq requires kind=XY_MAGNON")
    N = spec.N
    h = np.zeros((N, N), dtype=complex)
    for l in range(N - 1):
        h[l, l + 1] = h[l + 1, l] = 1.0
    h[0, 0] = spec.V + 1j * spec.gamma
    h[N - 1, N - 1] = spec.V - 1j * spec.gamma
    return h


def build_h_w(N: int, gamma: float) -> np.ndarray:
    """The V=0 magnon chain whose gamma=1 coalescent state is the W state."""
    return build_h_eq(ModelSpec(ModelKind.XY_MAGNON, N=N, V=0.0, gamma=gamma))


def _spin_z(N: int) -> tuple[np.ndarray, np.ndarray]:
    """Spin-z basis indices 0 .. 2^N-1 and their sz values (column l = site l+1)."""
    idx = np.arange(2 ** N)
    return idx, 2 * ((idx[:, None] >> (N - 1 - np.arange(N))) & 1) - 1


def build_h_chain_full(spec: ModelSpec) -> np.ndarray:
    """Full 2^N-space XY chain with complex boundary potentials.

    Uses number operators n_l = (sz_l + 1)/2 on the end sites, which makes
    the single-flip block equal to build_h_eq exactly.
    """
    if spec.kind is not ModelKind.XY_FULL_SPACE:
        raise ValueError("build_h_chain_full requires kind=XY_FULL_SPACE")
    N = spec.N
    idx, z = _spin_z(N)
    h = np.zeros((idx.size, idx.size), dtype=complex)
    for l in range(N - 1):
        # s+_l s-_{l+1} + h.c. swaps the two spins where they differ
        hop = idx[z[:, l] != z[:, l + 1]]
        h[hop ^ (3 << (N - 2 - l)), hop] = 1.0
    diag = np.zeros(idx.size, dtype=complex)
    diag += (spec.V + 1j * spec.gamma) * ((z[:, 0] + 1) / 2)
    diag += (spec.V - 1j * spec.gamma) * ((z[:, N - 1] + 1) / 2)
    h[idx, idx] = diag
    return h


def total_sz(N: int) -> np.ndarray:
    """J_z = sum_l sz_l on the 2^N space."""
    return np.diag(_spin_z(N)[1].sum(axis=1).astype(complex))


def reduce_to_magnon_sector(h_full: np.ndarray, N: int) -> np.ndarray:
    """Project a 2^N x 2^N matrix onto the ordered single-flip basis.

    Raises SectorNotInvariant unless [J_z, H] vanishes to 1e-10 * scale.
    """
    h_full = np.asarray(h_full, dtype=complex)
    dim = 2 ** N
    if h_full.shape != (dim, dim):
        raise DimensionMismatch(f"expected shape {(dim, dim)}, got {h_full.shape}")
    m = _spin_z(N)[1].sum(axis=1)
    comm_norm = np.linalg.norm((m[:, None] - m[None, :]) * h_full)  # [J_z, H]
    scale = 1.0 + np.linalg.norm(h_full)
    if comm_norm > 1e-10 * scale:
        raise SectorNotInvariant(
            f"[J_z, H] norm {comm_norm:.3e} exceeds {1e-10 * scale:.3e}"
        )
    idx = [2 ** (N - l) for l in range(1, N + 1)]  # |l> = single up-spin at site l
    return h_full[np.ix_(idx, idx)]


def build_h_ghz(spec: ModelSpec) -> np.ndarray:
    """Transverse-field Ising chain with imaginary longitudinal field.

    -J sum sz_l sz_{l+1} + i gamma sum sz_l + Delta sum sx_l; the ZZ sum is
    periodic (sz_{N+1} = sz_1) by default and runs to N-1 when open.
    """
    if spec.kind is not ModelKind.TRANSVERSE_ISING:
        raise ValueError("build_h_ghz requires kind=TRANSVERSE_ISING")
    N = spec.N
    idx, z = _spin_z(N)
    h = np.zeros((idx.size, idx.size), dtype=complex)
    for l in range(N):
        h[idx ^ (1 << (N - 1 - l)), idx] = spec.Delta  # sx_l flips site l
    h[idx, idx] = _ising_diagonal(spec, z)
    return h


def _ising_diagonal(spec: ModelSpec, z: np.ndarray) -> np.ndarray:
    """-J sum sz_l sz_{l+1} + i gamma sum sz_l of the states whose sz values
    are the rows of z.

    Terms are summed one by one, bonds then sites, so every entry is
    reproducible to the bit.
    """
    N = spec.N
    bonds = N if spec.ising_boundary is IsingBoundary.PERIODIC else N - 1
    diag = np.zeros(z.shape[0], dtype=complex)
    for l in range(bonds):
        diag += -spec.J * (z[:, l] * z[:, (l + 1) % N])
    for l in range(N):
        diag += 1j * spec.gamma * z[:, l]
    return diag


def build_hamiltonian(spec: ModelSpec) -> np.ndarray:
    """Dispatch to the builder matching spec.kind."""
    if spec.kind is ModelKind.XY_MAGNON:
        return build_h_eq(spec)
    if spec.kind is ModelKind.XY_FULL_SPACE:
        return build_h_chain_full(spec)
    return build_h_ghz(spec)


# ---------------------------------------------------------------------------
# symmetry blocks

@functools.lru_cache(maxsize=None)  # N <= 12 under FULL_SPACE_CAP
def _ring_momentum_structure(N: int):
    """Parameter-free momentum blocks of the N-site ring.

    T rotates the bitstring left by one site.  Each orbit of T has one
    representative a, its smallest index, with period p_a.  The Bloch state
    |a(k)> = p_a^-1/2 sum_{r < p_a} e^{-ikr} T^r |a> exists for
    k = 2 pi m / N when m p_a is a multiple of N, and these states form an
    orthonormal basis.  If sx_l |a> = T^s |b> with b a representative, then
    <b(k)| sx_l |a(k)> = e^{iks} sqrt(p_a / p_b).

    Returns, per representative a, its sz values, its orbit T^r a for
    r = 0 .. N-1 (as columns) and sqrt(p_a); and, per m = 0 .. N-1, the
    positions of its representatives in that list and the block's
    sum_l sx_l template.  The arrays are read-only: they are shared.
    """
    idx = np.arange(2 ** N)
    rots = [idx]  # rots[r] = T^r idx
    for _ in range(N - 1):
        rots.append(((rots[-1] << 1) | (rots[-1] >> (N - 1))) & (2 ** N - 1))
    rots = np.array(rots)
    rep, to_rep = rots.min(axis=0), rots.argmin(axis=0)  # T^to_rep s = rep
    reps = np.flatnonzero(rep == idx)
    # a comes back to itself at N / p_a of the N rotations
    period = N // np.sum(rots[:, reps] == reps, axis=0)
    where = np.zeros(2 ** N, dtype=int)
    where[reps] = np.arange(reps.size)
    flipped = (reps[:, None] ^ (1 << np.arange(N))).ravel()  # sx of every site
    col = np.repeat(np.arange(reps.size), N)
    row = where[rep[flipped]]
    amp = np.sqrt(period[col] / period[row])
    blocks = []
    for m in range(N):
        members = np.flatnonzero(m * period % N == 0)
        local = np.full(reps.size, -1)
        local[members] = np.arange(members.size)
        keep = (local[row] >= 0) & (local[col] >= 0)
        template = np.zeros((members.size, members.size), dtype=complex)
        np.add.at(template, (local[row[keep]], local[col[keep]]),
                  np.exp(-2j * np.pi * m * to_rep[flipped[keep]] / N) * amp[keep])
        members.setflags(write=False)
        template.setflags(write=False)
        blocks.append((members, template))
    orbits = rots[:, reps]
    root_period = np.sqrt(period)
    z = _spin_z(N)[1][reps]
    for a in (z, orbits, root_period):
        a.setflags(write=False)
    return (z, orbits, root_period), tuple(blocks)


def _momentum_ring(spec: ModelSpec) -> bool:
    """True where hamiltonian_blocks splits spec into momentum blocks."""
    return (spec.kind is ModelKind.TRANSVERSE_ISING
            and spec.ising_boundary is IsingBoundary.PERIODIC)


def _first_blocks(spec: ModelSpec, count: int) -> list[np.ndarray]:
    """Momentum blocks m = 0 .. count-1 of the ring, each filled from the
    structure cached per N; every other spec whole, whatever count."""
    if not _momentum_ring(spec):
        return [build_hamiltonian(spec)]
    (z, _, _), blocks = _ring_momentum_structure(spec.N)
    diag = _ising_diagonal(spec, z)
    out = []
    for members, template in blocks[:count]:
        h = spec.Delta * template
        h[np.diag_indices_from(h)] = diag[members]
        out.append(h)
    return out


def hamiltonian_blocks(spec: ModelSpec) -> list[np.ndarray]:
    """Diagonal blocks of the Hamiltonian in an orthonormal symmetry basis.

    The periodic Ising ring, at every J, splits into its N momentum blocks,
    k = 2 pi m / N for m = 0 .. N-1 (Sandvik, arXiv:1101.3281).  The open
    chain and the XY chain come back whole, as [build_hamiltonian(spec)].
    The block spectra together are the spectrum of build_hamiltonian(spec).
    """
    return _first_blocks(spec, spec.N)


def spectrum_blocks(spec: ModelSpec) -> list[np.ndarray]:
    """The blocks of hamiltonian_blocks(spec) whose eigenvalues, taken as a
    set, are the whole spectrum: m = 0 .. N//2 on the momentum ring, the
    one block otherwise.

    Site reflection R commutes with the ring Hamiltonian and R T R^-1 =
    T^-1, so R maps momentum k onto -k: block N-m is unitarily similar to
    block m and has the same eigenvalues with the same multiplicities.  The
    blocks m > N//2 are therefore never built here.
    """
    return _first_blocks(spec, spec.N // 2 + 1)


def block_coordinates(spec: ModelSpec, amplitudes: np.ndarray) -> list[np.ndarray]:
    """Coordinates of a state in the orthonormal basis of each block of
    hamiltonian_blocks(spec), block by block: B_b^dagger psi for the
    embedding B_b of block b.

    On the momentum ring the coordinate of the Bloch state |a(k)>,
    k = 2 pi m / N, is <a(k)|psi> = sqrt(p_a) ifft_r(psi[T^r a])[m]: a gather
    along each orbit and one inverse FFT, with no 2^N x d basis matrix.
    Every other spec is one block in its own basis, so the coordinates are
    [amplitudes] themselves.
    """
    if not _momentum_ring(spec):
        return [amplitudes]
    (_, orbits, root_period), blocks = _ring_momentum_structure(spec.N)
    coef = np.fft.ifft(amplitudes[orbits], axis=0) * root_period
    return [coef[m, members] for m, (members, _) in enumerate(blocks)]


# ---------------------------------------------------------------------------
# target states

def target_state(name: str, N: int) -> StateVector:
    """Named preparation target: 'W', 'CalW', 'Bell' (magnon basis) or 'GHZ'
    (spin-z basis, normalized)."""
    key = name.lower()
    if key in ("w", "calw") and N % 2 != 0:
        warnings.warn(
            f"{name} self-orthogonality holds only for even N (got N={N})",
            OddNForW,
        )
    if key == "w":
        amps = np.array([(-1j) ** l for l in range(1, N + 1)]) / np.sqrt(N)
        return StateVector(magnon_basis(N), amps)
    if key == "calw":
        amps = np.array([1j ** l for l in range(1, N + 1)]) / np.sqrt(N)
        return StateVector(magnon_basis(N), amps)
    if key == "bell":
        amps = np.zeros(N, dtype=complex)
        amps[0] = 1.0 / np.sqrt(2)
        amps[N - 1] = -1j / np.sqrt(2)
        return StateVector(magnon_basis(N), amps)
    if key == "ghz":
        basis = spin_basis(N)
        amps = np.zeros(basis.dim, dtype=complex)
        amps[0] = amps[-1] = 1.0 / np.sqrt(2)
        return StateVector(basis, amps)
    raise ValueError(f"unknown target state {name!r}")


# ---------------------------------------------------------------------------
# symmetry checks

def check_pt_spectrum(m: np.ndarray, basis: str = "magnon",
                      parity: str = "site_reversal") -> bool:
    """True iff P conj(m) P = m to 1e-12 for the chosen parity P.

    basis="magnon" with parity="site_reversal" reverses the N position
    indices (the XY chain's parity: it swaps the two complex end
    potentials).  basis="spin" supports two parities: "site_reversal"
    (bit-order reversal, the full-space XY parity) and "spin_flip" (global
    sigma^x, i.e. bit complement -- the parity under which the imaginary
    longitudinal field of the Ising chain is PT-symmetric; site reversal
    alone does not flip the sign of i*gamma*sum(sigma^z)).  A passing
    matrix has a spectrum closed under complex conjugation.
    """
    a = np.asarray(m, dtype=complex)
    n = a.shape[0]
    if basis == "magnon":
        if parity != "site_reversal":
            raise ValueError("magnon basis supports only site_reversal parity")
        perm = np.arange(n)[::-1]
    elif basis == "spin":
        N = int(round(np.log2(n)))
        if 2 ** N != n:
            raise DimensionMismatch(f"dim {n} is not a power of two")
        if parity == "site_reversal":
            # up spin at site l+1 moves to bit l: the reversed bitstring
            perm = (_spin_z(N)[1] > 0) @ (1 << np.arange(N))
        elif parity == "spin_flip":
            perm = np.arange(n)[::-1]  # bit complement: i -> 2^N - 1 - i
        else:
            raise ValueError(f"unknown parity {parity!r}")
    else:
        raise ValueError(f"unknown basis {basis!r}")
    transformed = a.conj()[np.ix_(perm, perm)]
    scale = 1.0 + np.max(np.abs(a))
    return bool(np.max(np.abs(transformed - a)) <= 1e-12 * scale)
