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
from dataclasses import dataclass, field

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


# Every model here commutes with an antiunitary PT operator Theta = P K whose
# square is 1 (Bender & Boettcher, PRL 80, 5243, 1998), P an involution of
# its basis.  In an orthonormal basis of Theta-invariant vectors its blocks are
# real, so real LAPACK returns each real eigenvalue with imaginary part
# exactly 0 and each complex pair as exact conjugates.  One table per model
# and N, _real_templates, holds every block's template (terms, rows): the sum
# of its terms (name, index, values), each the parameter name (1 if None)
# times values at the flat index; coordinate p of a vector x is
# sum_e weight[p, e] x[index[p, e]] over the rows (index, weight), x the
# amplitudes, or on the ring their flattened Bloch coordinates.

def _site_reflection(N: int) -> np.ndarray:
    """R on the spin-z indices: entry x is x with its N bits in reverse order,
    site l moved to site N+1-l."""
    return np.arange(2 ** N).reshape((2,) * N).T.ravel()


def _parent_terms(kind: ModelKind, ring: bool, N: int, idx: np.ndarray):
    """(P idx, terms): Theta's involution P on the basis indices idx, and the
    model's terms from idx at unit parameters, in the order block_stack sums
    them.  A term (name, src, dst, amp, n0) puts amp i^n0 from each src to
    its dst; name None is free of parameters.

    P reverses the magnon positions; it is site reflection R on the XY full
    space, global spin flip F (bit complement) on the open Ising chain and
    R F on the ring."""
    if kind is ModelKind.XY_MAGNON:  # idx: the N positions
        hop, ends = idx[:-1], np.array([0, N - 1])
        return N - 1 - idx, [(None, np.r_[hop, hop + 1], np.r_[hop + 1, hop], 1, 0),
                             ("V", ends, ends, 1, 0),
                             ("gamma", ends, ends, np.array([1, -1]), 1)]
    z = _spin_z(N)[1][idx]
    if kind is ModelKind.XY_FULL_SPACE:
        # s+_l s-_{l+1} + h.c. swaps the two spins where they differ
        hop = [idx[z[:, l] != z[:, l + 1]] for l in range(N - 1)]
        swapped = [h ^ (3 << (N - 2 - l)) for l, h in enumerate(hop)]
        n_1, n_N = (z[:, 0] + 1) // 2, (z[:, -1] + 1) // 2
        return _site_reflection(N)[idx], [
            (None, np.concatenate(hop), np.concatenate(swapped), 1, 0),
            ("V", idx, idx, n_1 + n_N, 0), ("gamma", idx, idx, n_1 - n_N, 1)]
    flip = idx ^ (2 ** N - 1)
    zz = z * np.roll(z, -1, axis=1)  # bond l couples sites l+1 and l+2 (mod N)
    return _site_reflection(N)[flip] if ring else flip, [
        ("Delta", np.repeat(idx, N), (idx[:, None] ^ (1 << np.arange(N))).ravel(), 1, 0),
        ("gamma", idx, idx, z.sum(axis=1), 1),
        ("J", idx, idx, -(zz if ring else zz[:, :-1]).sum(axis=1), 0)]


def _wide(x) -> np.longdouble:
    """An mpmath real as np.longdouble: the sum of its two leading doubles."""
    hi = float(x)
    return np.longdouble(hi) + np.longdouble(float(x - hi))


@functools.lru_cache(maxsize=None)  # N <= 12 under FULL_SPACE_CAP
def _real_templates(kind: ModelKind, ring: bool, N: int):
    """(blocks, orbits, root_period): the one symmetry table of a model of
    kind on N sites, the periodic Ising ring if ring.

    The basis is symmetrized over a group of L basis permutations: the
    rotations T^r on the ring (T rotates the bitstring left by one site,
    L = N), the identity elsewhere (L = 1), a block per momentum.  Each orbit
    has one representative a, its smallest index, with period p_a; orbits
    holds T^r a for r = 0 .. L-1 (as columns), and root_period sqrt(p_a).
    The Bloch state |a(k)> = p_a^-1/2 sum_{r < p_a} e^{-ikr} T^r |a> exists
    for k = 2 pi m / L when m p_a is a multiple of L, and these states form
    an orthonormal basis; <a(k)|psi> is entry (m, a) of
    ifft(psi[orbits]) * root_period, one inverse FFT along the orbits, and
    with L = 1 simply psi[a].  blocks holds the (terms, rows) of blocks
    m = 0 .. L//2 in a real basis, with rows over those flattened
    coordinates.

    If P a = T^q c for representatives a and c, then Theta |a(k)> =
    e^{ikq} |c(k)>, so the Theta-invariant orthonormal basis holds
    e^{ikq/2} |a(k)> where c = a, and u = (|a> + e^{ikq} |c>) / sqrt2 at the
    position of a and v = i (|a> - e^{ikq} |c>) / sqrt2 at that of c where
    a < c.  Each row of W, the block's change to this basis, holds at most
    two entries, a weight 1 or 1/sqrt2 times e^{i pi n / 2L} for an integer
    n, and a term (_parent_terms) that maps a to T^t b with amplitude
    amp i^n0 puts e^{ikt} sqrt(p_a / p_b) amp i^n0 into <b(k)| . |a(k)>.  So
    every contribution to an entry is weights times amp sqrt(p_a / p_b)
    times cos(pi n / 2L): 1/sqrt2 the correctly rounded np.longdouble root,
    the other constants exact with L = 1 and from mpmath at 128 bits
    (exact.precision) with L > 1.  Each term's contributions are
    summed in np.longdouble, with no 2^N array and no matrix product, and
    rounded once to double; entries that vanish are dropped.  Where
    longdouble is wider than double, every entry is its exact value
    correctly rounded, and an entry that vanishes is exactly 0.  The arrays
    are read-only: they are shared.
    """
    L = N if ring else 1
    idx = np.arange(N if kind is ModelKind.XY_MAGNON else 2 ** N)
    rots = np.array([((idx << r) | (idx >> (N - r))) & (2 ** N - 1)
                     for r in range(L)])  # rots[r] = T^r idx
    reps = np.flatnonzero(rots.min(axis=0) == idx)
    n_reps = reps.size
    orbits = rots[:, reps]
    # a comes back to itself at L / p_a of the L rotations
    period = L // np.sum(orbits == reps, axis=0)
    root_period = np.sqrt(period)
    # x = T^shift[x] reps[owner[x]] for every index x, shift the largest such
    # r < L (the last write wins), which fixes the sign of e^{ikq/2} below
    owner = np.empty(idx.size, dtype=int)
    shift = np.empty(idx.size, dtype=int)
    owner[orbits] = np.arange(n_reps)
    shift[orbits] = np.arange(L)[:, None]
    involuted, terms = _parent_terms(kind, ring, N, reps)
    partner, q = owner[involuted], shift[involuted]
    r = np.sqrt(np.longdouble(0.5))
    if L == 1:  # cos(pi n / 2) and sqrt(1 / 1) are exact: no mpmath
        cos = np.array([1, 0, -1, 0], dtype=np.longdouble)
        root = np.ones((2, 2), dtype=np.longdouble)
    else:
        # the sweep threads may build a table at once: each in its own context
        with precision(prec=128) as ctx:
            cos = np.array([_wide(ctx.cospi(ctx.mpf(n) / (2 * L))) for n in range(4 * L)])
            root = np.zeros((L + 1, L + 1), dtype=np.longdouble)
            for pa, pb in itertools.product(set(period.tolist()), repeat=2):
                root[pa, pb] = _wide(ctx.sqrt(ctx.mpf(pa) / pb))
    blocks = []
    for m in range(L // 2 + 1):
        mem = np.flatnonzero(m * period % L == 0)
        d = mem.size
        local = np.full(n_reps, -1)
        local[mem] = np.arange(d)
        i, j = np.arange(d), local[partner[mem]]
        a, c = i[i < j], j[i < j]
        qm = 4 * m * q[mem]  # e^{ikq} = e^{i pi qm / 2L}
        # row b of W: entries (col[b, e], weight[b, e] e^{i pi n[b, e] / 2L})
        col = np.stack([i, j], axis=1)
        weight = np.zeros((d, 2), dtype=np.longdouble)
        n = np.zeros((d, 2), dtype=int)
        fixed = i == j  # e^{ikq/2}; the second entry has weight 0
        weight[fixed, 0] = 1
        n[fixed, 0] = qm[fixed] // 2
        weight[a], weight[c] = r, r
        col[c] = col[a]
        n[a, 1] = L  # i
        n[c, 0], n[c, 1] = qm[a], qm[a] + 3 * L  # e^{ikq}, -i e^{ikq}
        # coordinate row p: column p of W, conjugated; a pair's two columns
        # are its two rows transposed
        nt = n.copy()
        nt[a, 1], nt[c, 0] = n[c, 0], n[a, 1]
        coords = (m * n_reps + mem[col],
                  (weight * cos[nt % (4 * L)]).astype(float)
                  - 1j * (weight * cos[(nt - L) % (4 * L)]).astype(float))
        block_terms = []
        for name, src, dst, amp, n0 in terms:
            a_src, b_dst = owner[src], owner[dst]  # dst = T^t reps[b_dst]
            keep = (local[a_src] >= 0) & (local[b_dst] >= 0)
            a_src, b_dst, t = a_src[keep], b_dst[keep], shift[dst[keep]]
            rows, cols = local[b_dst], local[a_src]
            amp = np.broadcast_to(amp, src.shape)[keep] * root[period[a_src], period[b_dst]]
            keys, sums = [], []
            for e, f in itertools.product(range(2), repeat=2):
                phase = (4 * m * t + n0 * L - n[rows, e] + n[cols, f]) % (4 * L)
                keys.append(col[rows, e] * d + col[cols, f])
                sums.append(weight[rows, e] * weight[cols, f] * amp * cos[phase])
            index, inverse = np.unique(np.concatenate(keys), return_inverse=True)
            total = np.zeros(index.size, dtype=np.longdouble)
            np.add.at(total, inverse, np.concatenate(sums))
            values = total.astype(float)
            block_terms.append((name, index[values != 0], values[values != 0]))
        for arr in (*coords, *(x for term in block_terms for x in term[1:])):
            arr.setflags(write=False)
        blocks.append((tuple(block_terms), coords))
    for arr in (orbits, root_period):
        arr.setflags(write=False)
    return tuple(blocks), orbits, root_period


def _templates(spec: ModelSpec) -> tuple:
    """spec's symmetry table, (blocks, orbits, root_period) of _real_templates."""
    return _real_templates(spec.kind, _momentum_ring(spec), spec.N)


def block_dims(spec: ModelSpec) -> list[int]:
    """The dimension of each block of hamiltonian_blocks(spec), in order."""
    return [len(rows[0]) for _, rows in _templates(spec)[0]]


def block_stack(template: ModelSpec, b: int,
                params: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """Block b of hamiltonian_blocks over k nodes as one real (k, d, d)
    stack: params maps parameter names to equal-length (k,) arrays, and a
    name not in params is read from template; with no params, the one node
    template.  The caller validates the values (sweep_grid does, per axis).
    Each entry is the same double as that node's own block: its terms in
    order, each its parameter times the term's values, added to a zero
    block, so no entry is -0.0."""
    cols = {name: np.asarray(v, dtype=float)[:, None] for name, v in (params or {}).items()}
    k = len(next(iter(cols.values()))) if cols else 1
    terms, rows = _templates(template)[0][b]
    d = len(rows[0])
    h = np.zeros((k, d * d))
    with np.errstate(over="ignore", invalid="ignore"):  # the kernels flag inf
        for name, index, values in terms:
            if name is not None:  # a (k, 1) column, or the template's one value
                values = cols.get(name, getattr(template, name)) * values
            h[:, index] += values
    return h.reshape(k, d, d)


def hamiltonian_blocks(spec: ModelSpec) -> list[np.ndarray]:
    """Diagonal blocks of the Hamiltonian in an orthonormal basis of
    Theta-invariant symmetry states, all real: block_stack(spec, b)[0], from
    the model's table (_real_templates).

    The periodic Ising ring, at every J, gives its momentum blocks
    k = 2 pi m / N for m = 0 .. N//2 (Sandvik, arXiv:1101.3281).  Site
    reflection R maps k onto -k, so block N-m acts on psi as block m acts on
    R psi and is never built (sector_blocks).  The other models are one
    block each.
    """
    return [block_stack(spec, b)[0] for b in range(len(block_dims(spec)))]


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
    sector_blocks(spec), in that order: those of psi in each block, then
    (on the ring) those of R psi in each mirror sector N-m: a gather over the
    block's rows from the flattened Bloch coordinates (one inverse FFT along
    the orbits; the amplitudes themselves with one block).
    """
    blocks, orbits, root_period = _templates(spec)
    sectors = sector_blocks(spec)
    parts = [(amplitudes, sectors[:len(blocks)])]
    if len(sectors) > len(blocks):
        parts.append((amplitudes[_site_reflection(spec.N)], sectors[len(blocks):]))
    out = []
    for psi, part in parts:
        if len(orbits) > 1:
            psi = (np.fft.ifft(psi[orbits], axis=0) * root_period).ravel()
        for b in part:
            index, weight = blocks[b][1]
            out.append((weight * psi[index]).sum(axis=1))
    return out


def sector_amplitudes(spec: ModelSpec, sector: int,
                      coords: np.ndarray) -> np.ndarray:
    """block_coordinates inverted on one sector: the amplitudes in spec.basis
    of the (d, n) coordinate columns of that sector, as columns.  The rows
    are scattered back; on the ring one FFT along the orbits follows (a short
    orbit's repeats get equal values, to roundoff), then R in a mirror sector."""
    blocks, orbits, root_period = _templates(spec)
    index, weight = blocks[sector_blocks(spec)[sector]][1]
    n = coords.shape[1]
    out = np.zeros((orbits.size, n), dtype=complex)
    for e in range(2):
        np.add.at(out, index[:, e], weight[:, e].conj()[:, None] * coords)
    if len(orbits) > 1:
        psi = np.empty((2 ** spec.N, n), dtype=complex)
        psi[orbits] = np.fft.fft(out.reshape(len(orbits), -1, n), axis=0) / root_period[:, None]
        out = psi
    return out if sector < len(blocks) else out[_site_reflection(spec.N)]


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
            perm = _site_reflection(N)
        elif parity == "spin_flip":
            perm = np.arange(n)[::-1]  # bit complement: i -> 2^N - 1 - i
        else:
            raise ValueError(f"unknown parity {parity!r}")
    else:
        raise ValueError(f"unknown basis {basis!r}")
    transformed = a.conj()[np.ix_(perm, perm)]
    scale = 1.0 + np.max(np.abs(a))
    return bool(np.max(np.abs(transformed - a)) <= 1e-12 * scale)
