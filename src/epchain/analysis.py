"""Phase-diagram sweeps, boundary extraction and the gamma optimizer.

max|Im eps| over the blocks of models.hamiltonian_blocks, the ones the
dynamics propagate, is the broken-phase indicator.  Every block is real in
a PT-invariant basis, so real LAPACK gives an unbroken node without
degenerate levels max|Im eps| = 0 exactly.  A sweep validates each axis
value once and takes its valid nodes row-major over the whole grid as two
parameter arrays; its unit of work is one block over a chunk of them: built
by models.block_stack from the arrays' slices, with no ModelSpec per node,
and sent to linalg.eigvals_stack in one call, whose LAPACK runs without the
GIL at any chunk size.  A chunk is just long enough to take numpy's batched
loop, so tasks stay fine-grained.  The XY chain, in
either space, breaks exactly where its one-magnon block does (free-fermion
map), so its boundary is bisected in 53-bit mpmath gamma on
exact.magnon_broken, an exact Sturm count, however far gamma_c falls below
double precision.  Where |V| > 2, bethe's gamma_c seeds a
window of relative half-width 2^-30 that two counts certify; the bisection
counts only at midpoints inside it and returns the same double.  The Ising
chain is bisected on the indicator above a floor that grows as 1 + Delta^2,
above the roundoff pairs of levels that cross inside one real block.
mpmath is not imported here: analysis.mp loads it on first read.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import bethe, linalg
from .dynamics import default_initial_state, final_fidelity
from .errors import ConfigError, EpchainError, NonConvergence, NoRoot, NoTransition
from .exact import bisect, decay_floor, magnon_broken, precision
from .models import ModelKind, ModelSpec, StateVector, block_dims, block_stack

BROKEN_THRESHOLD = 1e-10

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


def __getattr__(name: str):
    """analysis.mp: mpmath, imported on first read, for bench/tracer.py."""
    if name == "mp":
        import mpmath
        return mpmath
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _block_max_im(template: ModelSpec, b: int,
                  params: dict[str, np.ndarray] | None = None) -> np.ndarray:
    """max|Im eps| of block b of hamiltonian_blocks at each node of
    block_stack(template, b, params), NaN where the kernel flags it: the
    block's stack, sent to linalg.eigvals_stack in one call."""
    vals, ok = linalg.eigvals_stack(block_stack(template, b, params))
    return np.where(ok, np.max(np.abs(vals.imag), axis=-1), np.nan)


def max_im_epsilon(spec: ModelSpec) -> float:
    """max|Im eps| of one model over models.hamiltonian_blocks(spec), the
    broken-phase indicator: the largest over its blocks, each from the
    sweep's per-block function (_block_max_im), run serially.

    The boundary scan needs an answer at every gamma it probes, so a block
    the eigen kernel flags raises NonConvergence here instead of giving NaN.
    """
    value = float(np.max([_block_max_im(spec, b)
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
    Each axis value is validated once, as one dataclasses.replace of the
    template; ModelSpec checks each field on its own, so a node is valid
    exactly when both of its values are.  A node with an invalid value
    (EpchainError or ValueError) or whose block the kernel flags is NaN,
    and the grid is still returned.  The valid nodes are taken row-major as
    two parameter arrays, and the thread pool takes one task at a time: one
    block over a chunk of linalg.EIGVALS_GIL_SIZE // d + 1 of them, built by
    block_stack from the arrays' slices (_block_max_im).
    The kernel releases the GIL at any chunk size, so chunks overlap on the
    pool whatever their length; a full chunk is the fewest nodes that take
    numpy's batched loop, cheaper on tiny matrices than the ctypes loop of
    a shorter real stack, in tasks small enough that a node's blocks run on
    every worker.  A chunk holds at most about 500 d + d^2 entries, and a
    block of d > 500 goes one node at a time.  A node is the largest over
    its blocks at any thread count.
    """
    if y_axis.name != "gamma":
        raise ValueError("the sweep y-axis must be gamma")
    name = template.kind.control
    if x_axis.name != name:
        raise ValueError(f"unknown sweep parameter {x_axis.name!r} for {template.kind}")

    def checked(axis: AxisSpec, value: float) -> bool:
        try:
            replace(template, **{axis.name: value})
        except (EpchainError, ValueError):
            return False
        return True

    xs, gs = (np.asarray(a.values, dtype=float) for a in (x_axis, y_axis))
    mask = np.logical_and.outer([checked(x_axis, x) for x in xs.tolist()],
                                [checked(y_axis, g) for g in gs.tolist()])
    x_grid, g_grid = np.meshgrid(xs, gs, indexing="ij")
    params = {name: x_grid[mask], "gamma": g_grid[mask]}  # row-major
    nodes = len(params["gamma"])
    tasks = []  # (block b, start, stop): b over the valid nodes [start, stop)
    for b, d in enumerate(block_dims(template)):
        step = linalg.EIGVALS_GIL_SIZE // d + 1
        tasks += [(b, s, s + step) for s in range(0, nodes, step)]

    def task(t: tuple[int, int, int]) -> np.ndarray:
        b, s, e = t
        return _block_max_im(template, b, {k: v[s:e] for k, v in params.items()})

    im = np.full(nodes, -np.inf)
    with ThreadPoolExecutor(max_workers=_sweep_workers()) as pool:
        for (_, s, e), chunk in zip(tasks, pool.map(task, tasks)):
            im[s:e] = np.maximum(im[s:e], chunk)  # NaN propagates
    values = np.full(mask.shape, np.nan)
    values[mask] = im
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
