"""Hamiltonian and target-state builders.

Covers the open XY chain with imaginary boundary fields (full spin space and
its single-magnon reduction) and the transverse-field Ising model with an
imaginary longitudinal field, whole and as real symmetry blocks (momentum
blocks on the ring), together with each sector's coordinates of a state.
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
import itertools
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DimensionCap, DimensionMismatch, OddNForW, SectorNotInvariant
from .exact import precision

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

def _momentum_ring(spec: ModelSpec) -> bool:
    """True where hamiltonian_blocks splits spec into momentum blocks."""
    return (spec.kind is ModelKind.TRANSVERSE_ISING
            and spec.ising_boundary is IsingBoundary.PERIODIC)


# Every model here commutes with an antiunitary PT operator Theta whose square
# is 1 (Bender & Boettcher, PRL 80, 5243, 1998).  In an orthonormal basis of
# Theta-invariant vectors its blocks are real, so real LAPACK returns each
# real eigenvalue with imaginary part exactly 0 and each complex pair as exact
# conjugates.  Each block's template, cached per N, is (terms, rows): the sum
# of its terms (name, index, values), each the parameter name (1 if None)
# times values at the flat index; coordinate p of a vector x of the parent
# basis is sum_e weight[p, e] x[index[p, e]] over the rows (index, weight).

@functools.lru_cache(maxsize=None)  # N <= 12 under FULL_SPACE_CAP
def _pt_real_form(kind: ModelKind, N: int):
    """The one block of the magnon chain, the XY full space or (kind
    TRANSVERSE_ISING) the open Ising chain, with read-only, shared arrays.

    Theta = P K: P reverses the magnon positions, reflects the sites of the
    XY full space (bit reversal) and flips every spin of the open Ising chain
    (bit complement).  The basis W holds u = (|a> + |Pa>) / sqrt2 at the
    smaller index a, v = i (|a> - |Pa>) / sqrt2 at Pa, and |a> where Pa = a.
    A term is W^dagger M W for M build_hamiltonian's part free of parameters
    or linear in one, at unit parameters: Gaussian integers.  So an entry is
    s / sqrt2^k, s a Gaussian integer sum (its imaginary part cancels) and k
    the number of pairs among its basis vectors, rounded once as the root of
    s^2 / 2^k."""
    params = ("J", "Delta", "gamma") if kind is ModelKind.TRANSVERSE_ISING else ("V", "gamma")
    base = ModelSpec(kind, N, J=0.0, ising_boundary=IsingBoundary.OPEN)
    d = base.basis.dim
    pos = np.arange(d)
    perm = pos.reshape((2,) * N).T.ravel() if kind is ModelKind.XY_FULL_SPACE else pos[::-1]
    paired = pos != perm
    # |r> is in the vector at min(r, Pr) with 1 and at max(r, Pr) with +-i
    at = np.stack([np.minimum(pos, perm), np.maximum(pos, perm)], axis=1)
    coef = np.stack([np.ones(d), np.where(pos < perm, 1j, -1j) * paired], axis=1)
    terms = []
    for name in (None, *params):
        m = build_hamiltonian(replace(base, **{name: 1.0}) if name else base)
        if name:
            m[free[:2]] -= free[2]  # exact: integers
        r, c = np.nonzero(m)
        if not name:
            free = r, c, m[r, c]
        keys = (at[r, :, None] * d + at[c, None, :]).ravel()
        sums = (coef[r, :, None].conj() * m[r, c, None, None] * coef[c, None, :]).ravel()
        index, inverse = np.unique(keys, return_inverse=True)
        s = np.bincount(inverse, sums.real, len(index))  # exact: integers
        k = paired[index // d].astype(int) + paired[index % d]
        values = np.copysign(np.sqrt(s * s / 2.0 ** k), s)  # s / sqrt2^k, rounded
        terms.append((name, index[values != 0], values[values != 0]))
    weight = np.full((d, 2), np.sqrt(0.5), dtype=complex)
    weight[pos > perm] *= [-1j, 1j]  # v, conjugated
    weight[~paired] = 1.0, 0.0
    for a in (at, weight, *(a for _, index, values in terms for a in (index, values))):
        a.setflags(write=False)
    return tuple(terms), (at, weight)


def _wide(x) -> np.longdouble:
    """An mpmath real as np.longdouble: the sum of its two leading doubles."""
    hi = float(x)
    return np.longdouble(hi) + np.longdouble(float(x - hi))


@functools.lru_cache(maxsize=None)  # N <= 12 under FULL_SPACE_CAP
def _ring_real_templates(N: int):
    """(blocks, orbits, root_period): the N-site ring's one symmetry table.

    T rotates the bitstring left by one site.  Each orbit of T has one
    representative a, its smallest index, with period p_a; orbits holds
    T^r a for r = 0 .. N-1 (as columns), and root_period sqrt(p_a).  The
    Bloch state |a(k)> = p_a^-1/2 sum_{r < p_a} e^{-ikr} T^r |a> exists for
    k = 2 pi m / N when m p_a is a multiple of N, and these states form an
    orthonormal basis; <a(k)|psi> is entry (m, a) of
    ifft(psi[orbits]) * root_period, one inverse FFT along the orbits.

    blocks holds the (terms, rows) of blocks m = 0 .. N//2 in a real basis:
    Delta X (dense) + gamma Y (2 entries per pair) - J diag(zz), with rows
    over the flattened Bloch coordinates.

    Theta = R F K is site reflection times global spin flip times complex
    conjugation; it maps each momentum block to itself.  If R F a = T^q c
    for representatives a and c, then Theta |a(k)> = e^{ikq} |c(k)>, so the
    Theta-invariant orthonormal basis holds e^{ikq/2} |a(k)> where c = a, and
    u = (|a> + e^{ikq} |c>) / sqrt2 at the position of a and
    v = i (|a> - e^{ikq} |c>) / sqrt2 at that of c where a < c.  With W the
    block's change to this basis, X = Re(W^dagger S W) for the block's
    sum_l sx_l, symmetrized; zz, the sum of sz_l sz_{l+1}, is the same on a
    and c; and i sum_l sz_l maps u to s v and v to -s u, with
    s = sum_l sz_l(a) = -sum_l sz_l(c), which Y holds.

    X is summed term by term from the orbit tables, with no 2^N array and
    no matrix product.  Each row of W holds at most two entries, a weight
    1 or 1/sqrt2 times e^{i pi n / 2N} for an integer n, and sx_l a = T^t b
    puts e^{ikt} sqrt(p_a / p_b) into <b(k)| S |a(k)>.  So every term is
    weights times sqrt(p_a / p_b) times cos(pi n / 2N), each from mpmath at
    128 bits (exact.precision); the terms are summed in np.longdouble and
    rounded once to double.  Where longdouble is wider than double, every
    entry is its exact value correctly rounded, and an entry that vanishes
    is exactly 0.  The arrays are read-only: they are shared.
    """
    idx = np.arange(2 ** N)
    rots = np.array([((idx << r) | (idx >> (N - r))) & (2 ** N - 1)
                     for r in range(N)])  # rots[r] = T^r idx
    reps = np.flatnonzero(rots.min(axis=0) == idx)
    n_reps = reps.size
    orbits = rots[:, reps]
    # a comes back to itself at N / p_a of the N rotations
    period = N // np.sum(orbits == reps, axis=0)
    root_period = np.sqrt(period)
    # x = T^shift[x] reps[owner[x]] for every index x, shift the largest such
    # r < N (the last write wins), which fixes the sign of e^{ikq/2} below
    owner = np.empty(2 ** N, dtype=int)
    shift = np.empty(2 ** N, dtype=int)
    owner[orbits] = np.arange(n_reps)
    shift[orbits] = np.arange(N)[:, None]
    # sx_l a = T^t b for every site l of every representative a
    flipped = (reps[:, None] ^ (1 << np.arange(N))).ravel()
    dst, src, t = owner[flipped], np.repeat(np.arange(n_reps), N), shift[flipped]
    z = _spin_z(N)[1][reps]
    # R F a: every spin flipped, the site order reversed
    rf = (z[:, ::-1] < 0) @ (1 << np.arange(N)[::-1])
    partner, q = owner[rf], shift[rf]
    # the sweep threads may build a table at once: each in its own context
    with precision(prec=128) as ctx:
        cos = np.array([_wide(ctx.cospi(ctx.mpf(n) / (2 * N))) for n in range(4 * N)])
        root = np.zeros((N + 1, N + 1), dtype=np.longdouble)
        for pa, pb in itertools.product(set(period.tolist()), repeat=2):
            root[pa, pb] = _wide(ctx.sqrt(ctx.mpf(pa) / pb))
        r = _wide(ctx.sqrt(ctx.mpf(1) / 2))
    s = z.sum(axis=1)
    zz = (z * np.roll(z, -1, axis=1)).sum(axis=1).astype(float)
    blocks = []
    for m in range(N // 2 + 1):
        mem = np.flatnonzero(m * period % N == 0)
        d = mem.size
        local = np.full(n_reps, -1)
        local[mem] = np.arange(d)
        i, j = np.arange(d), local[partner[mem]]
        a, c = i[i < j], j[i < j]
        qm = 4 * m * q[mem]  # e^{ikq} = e^{i pi qm / 2N}
        # row b of W: entries (col[b, e], weight[b, e] e^{i pi n[b, e] / 2N})
        col = np.stack([i, j], axis=1)
        weight = np.zeros((d, 2), dtype=np.longdouble)
        n = np.zeros((d, 2), dtype=int)
        fixed = i == j  # e^{ikq/2}; the second entry has weight 0
        weight[fixed, 0] = 1
        n[fixed, 0] = qm[fixed] // 2
        weight[a], weight[c] = r, r
        col[c] = col[a]
        n[a, 1] = N  # i
        n[c, 0], n[c, 1] = qm[a], qm[a] + 3 * N  # e^{ikq}, -i e^{ikq}
        # coordinate row p: column p of W, conjugated; a pair's two columns
        # are its two rows transposed
        nt = n.copy()
        nt[a, 1], nt[c, 0] = n[c, 0], n[a, 1]
        coords = (m * n_reps + mem[col],
                  (weight * cos[nt % (4 * N)]).astype(float)
                  - 1j * (weight * cos[(nt - N) % (4 * N)]).astype(float))
        keep = (local[src] >= 0) & (local[dst] >= 0)
        rows, cols = local[dst[keep]], local[src[keep]]
        amp = root[period[src[keep]], period[dst[keep]]]
        x = np.zeros((d, d), dtype=np.longdouble)
        for e, f in itertools.product(range(2), repeat=2):
            phase = (4 * m * t[keep] - n[rows, e] + n[cols, f]) % (4 * N)
            np.add.at(x, (col[rows, e], col[cols, f]),
                      weight[rows, e] * weight[cols, f] * amp * cos[phase])
        terms = (("Delta", slice(None), ((x + x.T) / 2).astype(float).ravel()),
                 ("gamma", np.concatenate([c * d + a, a * d + c]),
                  np.concatenate([s[mem][a], -s[mem][a]]).astype(float)),
                 ("J", np.arange(d) * (d + 1), -zz[mem]))
        for arr in (terms[0][2], *terms[1][1:], *terms[2][1:], *coords):
            arr.setflags(write=False)
        blocks.append((terms, coords))
    for arr in (orbits, root_period):
        arr.setflags(write=False)
    return tuple(blocks), orbits, root_period


def _real_blocks(spec: ModelSpec) -> tuple:
    """(terms, rows) of each block of hamiltonian_blocks(spec), in order."""
    ring = _momentum_ring(spec)
    return _ring_real_templates(spec.N)[0] if ring else (_pt_real_form(spec.kind, spec.N),)


def block_dims(spec: ModelSpec) -> list[int]:
    """The dimension of each block of hamiltonian_blocks(spec), in order."""
    return [len(rows[0]) for _, rows in _real_blocks(spec)]


def block_stack(specs: list[ModelSpec], b: int) -> np.ndarray:
    """Block b of hamiltonian_blocks for each of specs (one kind, N and
    boundary) as one real (k, d, d) stack, the same doubles as one node's:
    its terms in order, the first written and each later one added."""
    terms, rows = _real_blocks(specs[0])[b]
    d = len(rows[0])
    h = np.zeros((len(specs), d * d))
    for n, (name, index, values) in enumerate(terms):
        if name is not None:  # one value per spec, as (k, 1)
            values = np.array([getattr(s, name) for s in specs])[:, None] * values
        h[:, index] = h[:, index] + values if n else values
    return h.reshape(len(specs), d, d)


def hamiltonian_blocks(spec: ModelSpec) -> list[np.ndarray]:
    """Diagonal blocks of the Hamiltonian in an orthonormal basis of
    Theta-invariant symmetry states, all real: block_stack's one-node case.

    The periodic Ising ring, at every J, gives its momentum blocks
    k = 2 pi m / N for m = 0 .. N//2 (Sandvik, arXiv:1101.3281).  Site
    reflection R maps k onto -k, so block N-m acts on psi as block m acts on
    R psi and is never built (sector_blocks).  The other models are one
    block each (_pt_real_form).
    """
    return [block_stack([spec], b)[0] for b in range(len(block_dims(spec)))]


def sector_blocks(spec: ModelSpec) -> list[int]:
    """The block of hamiltonian_blocks(spec) that each sector of
    block_coordinates(spec, .) runs in: on the ring every block m = 0 .. N//2,
    then each block 0 < m < N/2 again for its mirror sector N-m; [0] for the
    other models.  The one place that fixes the order of the sectors."""
    if not _momentum_ring(spec):
        return [0]
    return list(range(spec.N // 2 + 1)) + list(range(1, (spec.N + 1) // 2))


def block_coordinates(spec: ModelSpec, amplitudes: np.ndarray) -> list[np.ndarray]:
    """Coordinates of a state in the orthonormal basis of each sector of
    sector_blocks(spec), in that order: on the ring, those of psi in each
    block, then those of R psi in each mirror sector N-m: a gather over the
    block's rows, on the ring from its flattened Bloch coordinates (one
    inverse FFT along the orbits), else from the amplitudes.
    """
    if not _momentum_ring(spec):
        ((_, (index, weight)),) = _real_blocks(spec)
        return [(weight * amplitudes[index]).sum(axis=1)]
    blocks, orbits, root_period = _ring_real_templates(spec.N)
    sectors = sector_blocks(spec)
    reflected = amplitudes.reshape((2,) * spec.N).T.ravel()  # bit order reversed
    out = []
    for psi, part in ((amplitudes, sectors[:len(blocks)]),
                      (reflected, sectors[len(blocks):])):
        coef = (np.fft.ifft(psi[orbits], axis=0) * root_period).ravel()
        for b in part:
            index, weight = blocks[b][1]
            out.append((weight * coef[index]).sum(axis=1))
    return out


def sector_amplitudes(spec: ModelSpec, sector: int,
                      coords: np.ndarray) -> np.ndarray:
    """block_coordinates inverted on one sector: the amplitudes in spec.basis
    of the (d, n) coordinate columns of that sector, as columns.  The rows
    are scattered back; on the ring one FFT along the orbits follows (a short
    orbit's repeats get equal values, to roundoff), then R in a mirror sector."""
    blocks = _real_blocks(spec)
    index, weight = blocks[sector_blocks(spec)[sector]][1]
    ring = _momentum_ring(spec)
    if ring:
        _, orbits, root_period = _ring_real_templates(spec.N)
    n = coords.shape[1]
    out = np.zeros((orbits.size if ring else spec.basis.dim, n), dtype=complex)
    for e in range(2):
        np.add.at(out, index[:, e], weight[:, e].conj()[:, None] * coords)
    if not ring:
        return out
    psi = np.empty((2 ** spec.N, n), dtype=complex)
    psi[orbits] = np.fft.fft(out.reshape(spec.N, -1, n), axis=0) / root_period[:, None]
    flip = np.arange(2 ** spec.N).reshape((2,) * spec.N).T.ravel()
    return psi if sector < len(blocks) else psi[flip]


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
