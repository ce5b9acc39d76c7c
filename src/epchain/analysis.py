"""Phase-diagram sweeps, boundary extraction and the gamma optimizer.

max|Im eps| over parameter grids is the broken-phase indicator, taken over
the blocks of models.hamiltonian_blocks, the ones the dynamics propagate:
the momentum blocks k = 0 .. pi of the periodic Ising ring (block N-m
mirrors block m, so its spectrum is never computed), the whole matrix
otherwise.  The ring's blocks and the magnon chain are real matrices in a
PT-invariant basis, so real LAPACK gives an unbroken node max|Im eps| = 0
exactly; the open Ising chain and the full-space XY chain stay complex.  A
sweep diagonalizes a row's same-shape blocks as one stack
(linalg.eigvals_stack).  The numeric boundary has one
rule per model kind.  The XY chain, in either space, breaks
exactly where its one-magnon block does (free-fermion map), so it is bisected
in 53-bit mpmath gamma on an exact predicate: a Sturm count of the real roots
of the magnon chain's integer-scaled characteristic polynomial.  That holds
however far gamma_c falls below double precision (it decays as 1/V^(N-2)).
The Ising chain is bisected on the indicator above a floor that grows as
1 + Delta^2.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import mpmath as mp
import numpy as np

from . import bethe, linalg
from .dynamics import default_initial_state, final_fidelity
from .errors import ConfigError, EpchainError, NonConvergence, NoRoot, NoTransition
from .models import ModelKind, ModelSpec, StateVector, hamiltonian_blocks

BROKEN_THRESHOLD = 1e-10

_SWEEP_PARAMETERS = ("V", "Delta", "gamma")

# Matrix entries a sweep row holds before they go to the eigen kernel, and
# the most one kernel stack takes (one block at least).  The kernel's
# temporaries are complex whether a block is real or complex, so the budget
# counts entries, not bytes.  A row of chain or momentum blocks fits whole;
# the dense 2^N matrices of the open Ising chain and the full-space XY chain,
# and stacks of the N=10 ring's blocks, whose temporaries raise peak RSS, go
# one at a time.
_STACK_ENTRIES = 1 << 14

# relative accuracy of the numeric boundary scan
_REL_TOL = 1e-6
# relative gap between the exact and numeric boundaries that flags a
# boundary_table row as a validation mismatch
BOUNDARY_REL_TOL = 1e-3

# Full-space spectra develop exponentially ill-conditioned eigenvector bases
# near their exceptional points (condition ~ (scale/gap)^N), so eigensolver
# noise in Im(eps) can reach well above 1e-10 just below the true boundary.
# The Ising boundary scan therefore counts the spectrum as broken only above
# this floor times 1 + Delta^2; the square-root growth of the true signal
# above the boundary keeps the induced bias small (~(floor/signal_slope)^2).
_FULL_SPACE_SCAN_FLOOR = 3e-4


@dataclass(frozen=True)
class AxisSpec:
    """One sweep axis: parameter name, scale and sample values."""

    name: str  # "V" | "Delta" | "gamma"
    scale: str  # "log" | "lin"
    values: np.ndarray

    @classmethod
    def from_range(cls, name: str, lo: float, hi: float, scale: str,
                   count: int) -> "AxisSpec":
        if count < 1:
            raise ValueError("axis needs at least one sample")
        if scale == "log":
            if lo <= 0 or hi <= 0:
                raise ValueError(f"log axis {name} requires positive range")
            values = np.geomspace(lo, hi, count)
        elif scale == "lin":
            values = np.linspace(lo, hi, count)
        else:
            raise ValueError(f"unknown scale {scale!r}")
        return cls(name, scale, values)


@dataclass(frozen=True)
class PhaseGrid:
    """max|Im eps| over an (x, gamma) parameter grid, row-major in x."""

    template: ModelSpec
    x_axis: AxisSpec
    y_axis: AxisSpec
    values: np.ndarray

    @property
    def broken_mask(self) -> np.ndarray:
        return self.values > BROKEN_THRESHOLD


def _max_im_epsilons(nodes) -> np.ndarray:
    """max|Im eps| of each node, the largest over its symmetry blocks.

    nodes yields each node's list of blocks, or None where its build failed.
    Same-shape blocks go to linalg.eigvals_stack together, in stacks of up to
    _STACK_ENTRIES, once the pending blocks reach _STACK_ENTRIES or the nodes
    run out.  A node is NaN when its build failed or the kernel flags any of
    its blocks.
    """
    values: list[float] = []
    groups: dict[tuple, tuple[list[int], list[np.ndarray]]] = {}

    def flush() -> None:
        for owners, blocks in groups.values():
            step = max(1, _STACK_ENTRIES // blocks[0].size)
            for s in range(0, len(blocks), step):
                vals, ok = linalg.eigvals_stack(np.stack(blocks[s:s + step]))
                im = np.where(ok, np.max(np.abs(vals.imag), axis=-1), np.nan)
                for n, v in zip(owners[s:s + step], im):
                    values[n] = np.maximum(values[n], v)  # NaN propagates
        groups.clear()

    pending = 0
    for blocks in nodes:
        values.append(-np.inf if blocks is not None else np.nan)
        for h in blocks or ():
            owners, stack = groups.setdefault(h.shape, ([], []))
            owners.append(len(values) - 1)
            stack.append(h)
            pending += h.size
        if pending >= _STACK_ENTRIES:
            flush()
            pending = 0
    flush()
    return np.array(values, dtype=float)


def max_im_epsilon(spec: ModelSpec) -> float:
    """max|Im eps| of one model over models.hamiltonian_blocks(spec), the
    broken-phase indicator; the one-node case of _max_im_epsilons.

    The boundary scan needs an answer at every gamma it probes, so a block
    the eigen kernel flags raises NonConvergence here instead of giving NaN.
    """
    value = float(_max_im_epsilons([hamiltonian_blocks(spec)])[0])
    if math.isnan(value):
        raise NonConvergence(f"eigendecomposition failed at {spec}")
    return value


def _sweep_workers() -> int:
    env = os.environ.get("EPCHAIN_THREADS", "")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(
                f"EPCHAIN_THREADS must be an integer, got {env!r}") from None
    if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def sweep_grid(template: ModelSpec, x_axis: AxisSpec, y_axis: AxisSpec) -> PhaseGrid:
    """Evaluate max|Im eps| at every grid node, deterministic row-major order.

    The thread pool takes one row (one x value) at a time; a row's blocks go
    to the eigen kernel in stacks.  A node whose spec, build or eigensolve
    fails (EpchainError or ValueError, or a kernel flag) is recorded as NaN;
    the grid is still returned.
    """
    if y_axis.name != "gamma":
        raise ValueError("the sweep y-axis must be gamma")
    if x_axis.name not in _SWEEP_PARAMETERS:
        raise ValueError(f"unknown sweep parameter {x_axis.name!r}")

    def node_blocks(x: float, g: float) -> list[np.ndarray] | None:
        try:
            return hamiltonian_blocks(replace(
                template, **{x_axis.name: float(x), "gamma": float(g)}))
        except (EpchainError, ValueError):
            return None

    def row(x: float) -> np.ndarray:
        return _max_im_epsilons(node_blocks(x, g) for g in y_axis.values)

    values = np.empty((len(x_axis.values), len(y_axis.values)))
    with ThreadPoolExecutor(max_workers=_sweep_workers()) as pool:
        for i, row_values in enumerate(pool.map(row, x_axis.values)):
            values[i] = row_values
    return PhaseGrid(template=template, x_axis=x_axis, y_axis=y_axis, values=values)


# ---------------------------------------------------------------------------
# exact broken-phase predicate of the magnon chain (integer Sturm count)
#
# The PT-symmetric chain's characteristic polynomial has real coefficients, so
# the chain is broken exactly when det(E - H) has a non-real root.  V (a
# double) and gamma (an mpf) are dyadic rationals, so a power-of-two multiple
# of det(E - H) has integer coefficients and a Sturm sequence counts its real
# roots without rounding; this holds however far gamma_c sits below double
# precision.

def _padd(a: list[int], b: list[int], sign: int = 1) -> list[int]:
    """a + sign*b for integer coefficient lists, lowest degree first."""
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    return [x + sign * (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


def _pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _magnon_int_charpoly(N: int, V: float, g) -> list[int]:
    """2^u det(E - H) of the magnon chain, integer coefficients, leading first.

    det(E - H) = ((E-V)^2 + g^2) Q_{N-2} - 2(E-V) Q_{N-3} + Q_{N-4}, where
    Q_m = E Q_{m-1} - Q_{m-2} (Q_0 = 1, Q_{-1} = 0, Q_{-2} = -1) is the
    zero-diagonal interior chain.
    """
    a, den = float(V).as_integer_ratio()
    s = den.bit_length() - 1  # V = a / 2^s
    man, exp = g.man_exp
    t = max(0, -2 * exp)  # g^2 = c / 2^t
    c = int(man) ** 2 << (2 * exp + t)
    u = max(2 * s, t)
    two_v = a << (u - s + 1)  # 2^u * 2V
    quad = [(a * a << (u - 2 * s)) + (c << (u - t)), -two_v, 1 << u]
    lin = [-two_v, 1 << (u + 1)]
    q = [[-1], [0], [1]]  # Q_{m-2} sits at q[m]
    for _ in range(N - 2):
        q.append(_padd([0] + q[-1], q[-2], -1))
    det = _padd(_padd(_pmul(quad, q[N]), _pmul(lin, q[N - 1]), -1),
                [x << u for x in q[N - 2]])
    return det[::-1]


def _sturm_root_counts(p: list[int]) -> tuple[int, int]:
    """(distinct real roots, distinct roots) of an integer polynomial.

    p lists the coefficients leading first (p[0] != 0, degree n >= 1).  The
    Sturm chain is built from pseudo-remainders scaled by |lc|^k > 0, which
    keeps every sign, and each element is divided by its content to bound
    coefficient growth.  The chain ends at gcd(p, p'), of degree n minus the
    number of distinct roots.
    """
    n = len(p) - 1
    chain = [p, [c * (n - i) for i, c in enumerate(p[:-1])]]
    while len(chain[-1]) > 1:
        b = chain[-1]
        lc, sgn = abs(b[0]), (1 if b[0] > 0 else -1)
        r = chain[-2]
        while r and len(r) >= len(b):
            f = sgn * r[0]
            r = [lc * x - f * (b[i] if i < len(b) else 0)
                 for i, x in enumerate(r)][1:]
            while r and r[0] == 0:
                r = r[1:]
        if not r:
            break
        content = math.gcd(*r)
        chain.append([-x // content for x in r])

    def sign_changes(signs) -> int:
        return sum(1 for x, y in zip(signs, signs[1:]) if x != y)

    at_plus = [1 if c[0] > 0 else -1 for c in chain]
    at_minus = [s if (len(c) - 1) % 2 == 0 else -s
                for s, c in zip(at_plus, chain)]
    distinct = n - (len(chain[-1]) - 1)
    return sign_changes(at_minus) - sign_changes(at_plus), distinct


def _magnon_broken(N: int, V: float, g) -> bool:
    """True iff the magnon chain at (V, g) has a non-real eigenvalue.

    An exceptional point (a repeated real root) counts as unbroken.
    """
    real, distinct = _sturm_root_counts(_magnon_int_charpoly(N, V, g))
    return real < distinct


def _magnon_boundary(N: int, V: float, rel_tol: float) -> float:
    """Bisection in 53-bit mpf gamma on the exact predicate (XY chain).

    Every mpf is dyadic, so the Sturm count is exact at each midpoint, and mpf
    has no exponent limit, so 53 bits locate gamma_c to rel_tol however small
    it is.  gamma_c decays as V^-(N-2), so the lower bracket starts at 1e-45
    and steps down by 1e-10 until the chain is unbroken there.  That ends for
    every finite V: at gamma = 0 the chain is a real Jacobi matrix, whose
    eigenvalues are real and simple, so they stay real for small gamma.
    NoRoot where gamma_c underflows a double.
    """
    with mp.workprec(53):
        lo, hi = mp.mpf(10) ** -45, mp.mpf(10)
        if not _magnon_broken(N, V, hi):
            raise NoTransition(f"no transition in gamma for N={N}, V={V}")
        while _magnon_broken(N, V, lo):
            lo *= mp.mpf(10) ** -10
        gamma_c = bethe._bisect(lambda g: _magnon_broken(N, V, g), lo, hi, rel_tol)
    if gamma_c == 0.0:
        raise NoRoot(f"gamma_c underflows a double at N={N}, V={V}")
    return gamma_c


def numeric_boundary_gamma(template: ModelSpec, control_value: float) -> float:
    """Critical gamma, relative _REL_TOL; control_value sets the kind's
    control parameter.

    The XY chain, in either space, is bisected on the exact predicate of its
    one-magnon block (_magnon_boundary).  The Ising chain has gamma_c = 0 at
    Delta = 0, where Im eps = gamma sum sz; elsewhere it is bisected on
    max|Im eps| > _FULL_SPACE_SCAN_FLOOR * (1 + Delta^2) in [1e-12, 10].
    """
    name = template.kind.control
    base = replace(template, **{name: float(control_value)})
    if template.kind is not ModelKind.TRANSVERSE_ISING:
        return _magnon_boundary(base.N, base.V, _REL_TOL)
    if base.Delta == 0:
        return 0.0
    threshold = _FULL_SPACE_SCAN_FLOOR * (1 + control_value ** 2)

    def broken(g: float) -> bool:
        return max_im_epsilon(replace(base, gamma=g)) > threshold

    if not broken(10.0):
        raise NoTransition(f"spectrum stays real up to gamma=10 at "
                           f"{name}={control_value}")
    if broken(1e-12):
        raise NoTransition("the Ising chain is broken at gamma=1e-12")
    return bethe._bisect(broken, 1e-12, 10.0, _REL_TOL)


def boundary_table(template: ModelSpec, control_values) -> list[tuple]:
    """Critical gamma by every method that applies, one row per control value.

    Rows are (control, exact, perturbative, numeric, rel_gap, mismatch), the
    columns of serialize.boundary_table_csv, with None where a method does not
    apply.  The numeric scan applies everywhere.  On the magnon chain at
    |V| > 2 the exact exceptional-point condition applies, and a row whose
    exact and numeric values differ by more than BOUNDARY_REL_TOL relative
    is flagged as a mismatch; there, for even N >= 6, so does the large-V
    perturbative boundary.
    """
    rows = []
    for control in map(float, control_values):
        numeric = numeric_boundary_gamma(template, control)
        exact = pert = gap = None
        if template.kind is ModelKind.XY_MAGNON and abs(control) > 2:
            exact = bethe.exact_boundary_gamma(template.N, control)
            gap = abs(exact - numeric) / numeric
            if template.N >= 6 and template.N % 2 == 0:
                pert = bethe.perturbative_boundary(template.N, control)
        rows.append((control, exact, pert, numeric, gap,
                     gap is not None and gap > BOUNDARY_REL_TOL))
    return rows


def optimize_gamma(template: ModelSpec, target: StateVector,
                   t_max: float) -> tuple[float, float]:
    """Golden-section maximization of f(t_max) over gamma in (gamma_c, 10 gamma_c].

    Returns (best gamma, fidelity at t_max).  f(t_max) is read by
    dynamics.final_fidelity from one propagator over t_max, so it depends on
    no step count.  The broken region is located with the
    numeric boundary scan first; NoTransition propagates if there is none,
    or is raised where gamma_c = 0 leaves the bracket empty.
    """
    gamma_c = numeric_boundary_gamma(template,
                                     getattr(template, template.kind.control))
    if gamma_c == 0:
        raise NoTransition("gamma_c = 0 leaves the bracket empty")
    init = default_initial_state(template)

    def fidelity_at(g: float) -> float:
        return final_fidelity(replace(template, gamma=g), init, target, t_max)

    lo, hi = gamma_c * (1 + 1e-9), gamma_c * 10.0
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - (hi - lo) * invphi
    d = lo + (hi - lo) * invphi
    fc, fd = fidelity_at(c), fidelity_at(d)
    for _ in range(30):
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - (hi - lo) * invphi
            fc = fidelity_at(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + (hi - lo) * invphi
            fd = fidelity_at(d)
    best = c if fc > fd else d
    return float(best), float(max(fc, fd))
