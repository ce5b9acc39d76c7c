"""Phase-diagram sweeps, boundary extraction and the gamma optimizer.

max|Im eps| over the blocks of models.hamiltonian_blocks, the ones the
dynamics propagate, is the broken-phase indicator.  Every block is real in
a PT-invariant basis, so real LAPACK gives an unbroken node without
degenerate levels max|Im eps| = 0 exactly.  A sweep's unit of work is one
block over a chunk of valid nodes, taken row-major over the whole grid and
just large enough that numpy runs its values-only LAPACK without the GIL:
built by models.block_stack, sent to linalg.eigvals_stack in one call.  The
XY chain, in either space, breaks exactly where its
one-magnon block does (free-fermion map), so its boundary is bisected in
53-bit mpmath gamma on exact.magnon_broken, an exact Sturm count, however far
gamma_c falls below double precision.  Where |V| > 2, bethe's gamma_c seeds a
window of relative half-width 2^-30 that two counts certify; the bisection
counts only at midpoints inside it and returns the same double.  The Ising
chain is bisected on the indicator above a floor that grows as 1 + Delta^2,
above the roundoff pairs of levels that cross inside one real block.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import mpmath as mp  # kept as analysis.mp: bench/tracer.py wraps analysis.mp.polyroots
import numpy as np

from . import bethe, linalg
from .dynamics import default_initial_state, final_fidelity
from .errors import ConfigError, EpchainError, NonConvergence, NoRoot, NoTransition
from .exact import bisect, decay_floor, magnon_broken, precision
from .models import ModelKind, ModelSpec, StateVector, block_dims, block_stack

BROKEN_THRESHOLD = 1e-10

# numpy (2.4) keeps the GIL through np.linalg.eigvals unless the stack's
# count x dimension exceeds this, while np.linalg.eig releases it at every
# size: on two threads, one BLAS thread each, eigvals ran at CPU/wall 1.0
# for (5, 100) and (50, 10) stacks and 1.8-2.0 for (6, 100) and (51, 10).
# So a sweep sends a block of dimension d in chunks of
# _EIGVALS_GIL_SIZE // d + 1 nodes, the fewest that run in parallel; a
# chunk holds at most about 500 d + d^2 entries, and a block of d > 500
# goes one node at a time.
_EIGVALS_GIL_SIZE = 500

# relative accuracy of the numeric boundary scan
_REL_TOL = 1e-6
# relative gap between the exact and numeric boundaries that flags a
# boundary_table row as a validation mismatch
BOUNDARY_REL_TOL = 1e-3

# The Ising boundary scan counts the spectrum as broken only above this floor
# times 1 + Delta^2.  Below the true boundary, Im(eps) can reach well above
# 1e-10 from roundoff pairs where levels of opposite site-reflection parity
# cross inside one real block: the ring's m = 0 and N/2 blocks, or the open
# chain's one block, whose eigenvector basis is also ill-conditioned as
# (scale/gap)^N near its exceptional points.  The true signal grows as a
# square root, so the bias stays ~(floor/signal_slope)^2.
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


def _block_max_im(specs: list[ModelSpec], b: int) -> np.ndarray:
    """max|Im eps| of block b of hamiltonian_blocks(spec) for each of specs
    (one kind and N), NaN where the kernel flags it: the block's stack, sent
    to linalg.eigvals_stack in one call."""
    vals, ok = linalg.eigvals_stack(block_stack(specs, b))
    return np.where(ok, np.max(np.abs(vals.imag), axis=-1), np.nan)


def max_im_epsilon(spec: ModelSpec) -> float:
    """max|Im eps| of one model over models.hamiltonian_blocks(spec), the
    broken-phase indicator: the largest over its blocks, each from the
    sweep's per-block function (_block_max_im), run serially.

    The boundary scan needs an answer at every gamma it probes, so a block
    the eigen kernel flags raises NonConvergence here instead of giving NaN.
    """
    value = float(np.max([_block_max_im([spec], b)
                          for b in range(len(block_dims(spec)))]))
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

    The x-axis is the parameter the model reads, template.kind.control.
    Each node is one dataclasses.replace of the template; a node whose spec
    fails (EpchainError or ValueError) or whose block the kernel flags is
    NaN, and the grid is still returned.  The valid nodes are taken
    row-major, and the thread pool takes one task at a time: one block over
    a chunk of _EIGVALS_GIL_SIZE // d + 1 of them (_block_max_im), so the
    pool's LAPACK calls overlap and a node's blocks run on every worker; a
    node is the largest over its blocks at any thread count.
    """
    if y_axis.name != "gamma":
        raise ValueError("the sweep y-axis must be gamma")
    if x_axis.name != template.kind.control:
        raise ValueError(f"unknown sweep parameter {x_axis.name!r} for {template.kind}")

    def node(x: float, g: float) -> ModelSpec | None:
        try:
            return replace(template, **{x_axis.name: float(x), "gamma": float(g)})
        except (EpchainError, ValueError):
            return None

    specs = [node(x, g) for x in x_axis.values for g in y_axis.values]
    valid = [s for s in specs if s is not None]
    tasks = []  # (block b, start, stop): b over valid[start:stop]
    for b, d in enumerate(block_dims(template)):
        step = _EIGVALS_GIL_SIZE // d + 1
        tasks += [(b, s, s + step) for s in range(0, len(valid), step)]
    im = np.full(len(valid), -np.inf)
    with ThreadPoolExecutor(max_workers=_sweep_workers()) as pool:
        ims = pool.map(lambda t: _block_max_im(valid[t[1]:t[2]], t[0]), tasks)
        for (_, s, e), chunk in zip(tasks, ims):
            im[s:e] = np.maximum(im[s:e], chunk)  # NaN propagates
    values = np.full((len(x_axis.values), len(y_axis.values)), np.nan)
    values[np.array([s is not None for s in specs]).reshape(values.shape)] = im
    return PhaseGrid(template=template, x_axis=x_axis, y_axis=y_axis, values=values)


def _magnon_boundary(N: int, V: float, rel_tol: float,
                     seed: float | None) -> float:
    """Bisection in 53-bit mpf gamma on the exact predicate (XY chain).

    Every mpf is dyadic, so the Sturm count is exact at each midpoint, and mpf
    has no exponent limit, so 53 bits locate gamma_c to rel_tol however small
    it is.  The lower bracket starts at exact.decay_floor and steps down by
    1e-10 until the chain is unbroken there.  That ends for every finite V:
    at gamma = 0 the chain is a real Jacobi matrix, whose
    eigenvalues are real and simple, so they stay real for small gamma.
    A seed (bethe's gamma_c) gives a window [a, b] = seed*(1 -+ 2^-30), or
    seed -+ 2^-1074 where that is wider, kept only if two Sturm counts
    certify the chain unbroken at a and broken at b.
    The predicate is then known outside the window, so the bisection counts
    only at midpoints inside it, and exact.bisect, whose predicate changes
    sign once, makes the same decisions and returns the same double.  With
    no seed, or none certified, the window is (0, inf).
    NoRoot where gamma_c underflows a double.
    """
    with precision(prec=53) as ctx:
        lo, hi = decay_floor(ctx, N, V), ctx.mpf(10)
        if not magnon_broken(N, V, hi):
            raise NoTransition(f"no transition in gamma for N={N}, V={V}")
        while magnon_broken(N, V, lo):
            lo *= ctx.mpf(10) ** -10
        a, b = ctx.zero, ctx.inf
        if seed is not None:
            # a subnormal seed is only as close as its spacing, 2^-1074
            width = max(ctx.ldexp(seed, -30), ctx.ldexp(1, -1074))
            if (not magnon_broken(N, V, seed - width)
                    and magnon_broken(N, V, seed + width)):
                a, b = seed - width, seed + width
        gamma_c = bisect(lambda g: g >= b or (g > a and magnon_broken(N, V, g)),
                         lo, hi, rel_tol)
    if gamma_c == 0.0:
        raise NoRoot(f"gamma_c underflows a double at N={N}, V={V}")
    return gamma_c


def _bethe_seed(kind: ModelKind, N: int, V: float
                ) -> tuple[float | None, Exception | None]:
    """(bethe.exact_boundary_gamma(N, V), None), or (None, the EpchainError
    or ValueError it raised), for the XY chain at |V| > 2; (None, None)
    elsewhere."""
    if kind is ModelKind.TRANSVERSE_ISING or abs(V) <= 2:
        return None, None
    try:
        return bethe.exact_boundary_gamma(N, V), None
    except (EpchainError, ValueError) as err:
        return None, err


# numeric_boundary_gamma's default seed: ask bethe for it
_ASK_BETHE = object()


def numeric_boundary_gamma(template: ModelSpec, control_value: float, *,
                           seed=_ASK_BETHE) -> float:
    """Critical gamma, relative _REL_TOL; control_value sets the kind's
    control parameter.

    The XY chain, in either space, is bisected on the exact predicate of its
    one-magnon block (_magnon_boundary), counted only inside the window
    around seed that two counts certify: the same double as the plain
    bisection.  seed is bethe.exact_boundary_gamma at this point (asked for
    here by default, where |V| > 2), or None for no window.  The Ising chain
    has gamma_c = 0 at Delta = 0, where Im eps = gamma sum sz; elsewhere it
    is bisected on max|Im eps| > _FULL_SPACE_SCAN_FLOOR * (1 + Delta^2) in
    [1e-12, 10].
    """
    name = template.kind.control
    base = replace(template, **{name: float(control_value)})
    if template.kind is not ModelKind.TRANSVERSE_ISING:
        if seed is _ASK_BETHE:
            seed = _bethe_seed(base.kind, base.N, base.V)[0]
        return _magnon_boundary(base.N, base.V, _REL_TOL, seed)
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
    return bisect(broken, 1e-12, 10.0, _REL_TOL)


def boundary_table(template: ModelSpec, control_values) -> list[tuple]:
    """Critical gamma by every method that applies, one row per control value.

    Rows are (control, exact, perturbative, numeric, rel_gap, mismatch), the
    columns of serialize.boundary_table_csv, with None where a method does not
    apply.  The numeric scan applies everywhere.  On the magnon chain at
    |V| > 2 the exact exceptional-point condition applies, and a row whose
    exact and numeric values differ by more than BOUNDARY_REL_TOL relative
    is flagged as a mismatch; there, for even N >= 6, so does the large-V
    perturbative boundary.  bethe.exact_boundary_gamma runs once per row and
    seeds the numeric scan; where both fail, the numeric scan's error is
    raised, else the exact method's.
    """
    rows = []
    for control in map(float, control_values):
        seed, error = _bethe_seed(template.kind, template.N, control)
        numeric = numeric_boundary_gamma(template, control, seed=seed)
        exact = pert = gap = None
        if template.kind is ModelKind.XY_MAGNON and abs(control) > 2:
            if error is not None:
                raise error
            exact = seed
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
