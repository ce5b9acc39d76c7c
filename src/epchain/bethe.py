"""Closed-form analytics of the open chain with imaginary boundary fields.

Scattering and bound-state quantization conditions, the double-root
equations locating exceptional points, the exact phase-boundary condition
for |V| > 2, and the large-V effective two-site model for the end sites.
The grid roots and the broken-pair kappa are found by exact.bisect, and the
exact boundary by exact.illinois on its smooth signed residual, in the
calling thread's own mpmath context (exact.precision).

Transcription notes (verified against exact diagonalization):

* The complex-pair equation at V=0, the scattering condition at
  k = pi/2 + i kappa, is gamma^2 cosh[(N-1) kappa] = cosh[(N+1) kappa] for
  even N.  The published sinh form gamma^2 sinh[(N-1) kappa] =
  sinh[(N+1) kappa] is the odd-N equation: it has a root only for
  gamma^2 > (N+1)/(N-1), so for even N it misses the pair for gamma
  slightly above 1.  Each parity is implemented in its own form.
* The closed-form large-V coefficient published for the effective end-to-end
  coupling vanishes identically for even N; the n-sum itself decays as
  1/V^(N-2) (it equals 1/U_{N-2}(V/2), a monic Chebyshev polynomial of the
  second kind), so the phase boundary falls with log-log slope -(N-2), not
  -2.  The coupling is computed as that reciprocal: the n-sum's terms
  cancel to 1/V^(N-2), so in doubles it is roundoff at large V.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateOmega,
    NoBracket,
    NoRoot,
    NonConvergence,
    NullSpaceRankError,
)
from .exact import bisect, decay_floor, illinois, precision
from .models import StateVector, build_h_w, magnon_basis

ROOT_RESIDUAL_TOL = 1e-10
SCAN_SAMPLES = 10_000


@dataclass(frozen=True)
class BetheRoot:
    """One accepted root of a quantization condition.

    momentum is the real wave number k for scattering roots, or the (possibly
    complex) decay rate kappa for bound roots.  energy is 2 cos k or
    2 cosh kappa.  residual is the absolute value of the defining function at
    the root.
    """

    kind: str  # "scattering" | "bound"
    momentum: complex
    energy: complex
    residual: float


@dataclass(frozen=True)
class EtaFactors:
    """Auxiliary combinations entering the exact phase-boundary condition."""

    eta_plus: float   # 1 + V^2 + gamma^2
    eta_minus: float  # 1 - V^2 - gamma^2
    c: complex        # cosh(kappa) at the bound-state exceptional point
    F_factor: float   # V (2N eta+ + eta-) / (4N (eta+ - 1))


@dataclass(frozen=True)
class EffectiveModel:
    """Large-V effective two-site model for the chain's end sites.

    lambda_eff is 1/U_{N-2}(V/2) and V_eff the n-sum.  Omega is the
    published closed-form large-V coefficient, kept for reference; it
    vanishes identically for even N.  The actual asymptotics are
    lambda_eff ~ asymptotic_coeff / V**asymptotic_power.
    """

    N: int
    V: float
    theta: float
    phi: np.ndarray
    Omega: float
    lambda_eff: float
    V_eff: float
    asymptotic_power: int
    asymptotic_coeff: float


# ---------------------------------------------------------------------------
# scattering branch (real k)

def scattering_F(k: float, N: int, gamma: float) -> float:
    """Quantization function sin[k(N+1)] + gamma^2 sin[k(N-1)] at V = 0."""
    return scattering_condition(k, N, 0.0, gamma)


def scattering_condition(k: float, N: int, V: float, gamma: float) -> float:
    """General real-k quantization function, reducing to scattering_F at V=0.

    sin[k(N+1)] - 2V sin[kN] + (V^2+gamma^2) sin[k(N-1)]; vanishes exactly on
    the real scattering momenta of the chain.
    """
    return (
        math.sin(k * (N + 1))
        - 2.0 * V * math.sin(k * N)
        + (V ** 2 + gamma ** 2) * math.sin(k * (N - 1))
    )


def _grid_roots(f, grid):
    """(root, |f(root)|) at each zero of f on an increasing positive grid and
    at each sign change between neighbours, bisected to double resolution."""
    vals = [f(k) for k in grid]
    for a, b, fa, fb in zip(grid, grid[1:], vals, vals[1:]):
        if fa == 0.0:
            yield float(a), 0.0
        elif fa * fb < 0:
            root = bisect(lambda k: f(k) * fa <= 0, float(a), float(b), 2.0 ** -52)
            yield root, abs(f(root))


def scattering_roots(N: int, gamma: float, V: float = 0.0) -> list[BetheRoot]:
    """All real scattering momenta in (0, pi), by grid bracketing + bisect."""
    eps = math.pi / (10 * SCAN_SAMPLES)
    grid = np.linspace(eps, math.pi - eps, SCAN_SAMPLES)
    roots = _grid_roots(lambda k: scattering_condition(k, N, V, gamma), grid)
    return [BetheRoot("scattering", k, 2.0 * math.cos(k), res)
            for k, res in roots if res < ROOT_RESIDUAL_TOL]


def scattering_ep(N: int) -> tuple[float, float]:
    """Exceptional point of the scattering branch: F = dF/dk = 0.

    Two-dimensional Newton iteration in (k, gamma) from (1.5, 0.9), at most
    100 steps; for even N the solution is (pi/2, 1).
    """
    if N % 2 != 0:
        raise ValueError("scattering_ep requires even N")

    def dF(k: float, g: float) -> float:
        return (N + 1) * math.cos(k * (N + 1)) + g ** 2 * (N - 1) * math.cos(k * (N - 1))

    k, g = 1.5, 0.9
    for _ in range(100):
        f1 = scattering_F(k, N, g)
        f2 = dF(k, g)
        j11 = f2
        j12 = 2 * g * math.sin(k * (N - 1))
        j21 = -(N + 1) ** 2 * math.sin(k * (N + 1)) - g ** 2 * (N - 1) ** 2 * math.sin(k * (N - 1))
        j22 = 2 * g * (N - 1) * math.cos(k * (N - 1))
        det = j11 * j22 - j12 * j21
        if det == 0.0:
            raise NonConvergence("singular Jacobian in scattering_ep")
        dk = (f1 * j22 - f2 * j12) / det
        dg = (f2 * j11 - f1 * j21) / det
        k, g = k - dk, g - dg
        if abs(dk) < 1e-14 and abs(dg) < 1e-14:
            break
    else:
        raise NonConvergence("scattering_ep Newton did not converge")
    if abs(scattering_F(k, N, g)) > 1e-12 or abs(dF(k, g)) > 1e-12:
        raise NonConvergence("scattering_ep residuals too large")
    return k, abs(g)


def _has_broken_pair(N: int, gamma: float) -> bool:
    """True where the V=0 chain has its complex pair: gamma > 1 for even N,
    gamma^2 > (N+1)/(N-1) for odd N."""
    return gamma ** 2 * (N - 1) > N + 1 if N % 2 else gamma > 1.0


def broken_pair_kappa(N: int, gamma: float) -> BetheRoot:
    """Decay rate of the complex-conjugate pair at V=0 (_has_broken_pair).

    Solves the quantization condition at momentum pi/2 + i k,
    gamma^2 cosh[(N-1)k] = cosh[(N+1)k] for even N and
    gamma^2 sinh[(N-1)k] = sinh[(N+1)k] for odd N; the pair energies are
    +-2i sinh(k).  The bisection starts at k = 1e-150, where g > 0: it is
    gamma^2 - 1 for even N, (gamma^2 (N-1) - (N+1)) k for odd N.  The root,
    about sqrt((gamma^2 - 1) / 2N) for even N, is far above 1e-150 for every
    double gamma past the onset.
    """
    if not _has_broken_pair(N, gamma):
        raise NoRoot(f"gamma={gamma} at N={N}: spectrum is real (unbroken phase)")
    f = math.sinh if N % 2 else math.cosh

    def g(k: float) -> float:
        return gamma ** 2 * f((N - 1) * k) - f((N + 1) * k)

    hi = math.log(gamma) + 1.0
    while g(hi) > 0:
        hi *= 2.0
    kappa = bisect(lambda k: g(k) <= 0, 1e-150, hi, 2.0 ** -52)
    return BetheRoot("bound", complex(math.pi / 2, kappa),
                     2j * math.sinh(kappa), abs(g(kappa)))


# ---------------------------------------------------------------------------
# bound-state branch (real or complex kappa)

def bound_digamma(kappa, N: int, V: float, gamma: float):
    """Bound-state quantization function
    sinh[(N+1)k] - 2V sinh[Nk] + (V^2+gamma^2) sinh[(N-1)k].

    Accepts real or complex kappa.
    """
    sinh = cmath.sinh if isinstance(kappa, complex) else math.sinh
    out = (
        sinh((N + 1) * kappa)
        - 2.0 * V * sinh(N * kappa)
        + (V ** 2 + gamma ** 2) * sinh((N - 1) * kappa)
    )
    return out


def _bound_digamma_deriv(kappa: complex, N: int, V: float, gamma: float) -> complex:
    return (
        (N + 1) * cmath.cosh((N + 1) * kappa)
        - 2.0 * V * N * cmath.cosh(N * kappa)
        + (V ** 2 + gamma ** 2) * (N - 1) * cmath.cosh((N - 1) * kappa)
    )


def real_bound_roots(N: int, V: float, gamma: float) -> list[BetheRoot]:
    """Real kappa > 0 roots of the bound-state condition (unbroken phase).

    The grid is split at every extremum of the condition (a sign change of
    its derivative), so two roots that share a grid cell are both bracketed.
    """
    kmax = math.acosh(max(abs(V), 2.0)) + 2.0
    grid = np.linspace(1e-9, kmax, SCAN_SAMPLES)
    extrema = _grid_roots(
        lambda k: _bound_digamma_deriv(k, N, V, gamma).real, grid)
    grid = np.union1d(grid, [k for k, _ in extrema])
    roots = _grid_roots(lambda k: bound_digamma(k, N, V, gamma), grid)
    return [BetheRoot("bound", k, 2.0 * math.cosh(k), res) for k, res in roots
            if res < ROOT_RESIDUAL_TOL * (1 + V ** 2) * math.cosh(N * k)]


def complex_bound_pair(N: int, V: float, gamma: float) -> list[BetheRoot]:
    """Complex-conjugate bound pair in the broken phase, |V| > 2.

    Newton iteration (at most 200 steps) on the bound-state condition in
    complex kappa, seeded from the effective two-site model (independently
    of any matrix diagonalization).
    """
    if abs(V) <= 2:
        raise NoRoot("complex bound pair requires |V| > 2")
    eff = effective_model(N, abs(V))
    lam = eff.lambda_eff
    im_seed = math.sqrt(max(gamma ** 2 - lam ** 2, 1e-30))
    eps_seed = complex(abs(V) + eff.V_eff, im_seed)
    kappa = cmath.acosh(eps_seed / 2.0)
    for _ in range(200):
        f = bound_digamma(kappa, N, abs(V), gamma)
        df = _bound_digamma_deriv(kappa, N, abs(V), gamma)
        if df == 0:
            raise NonConvergence("zero derivative in complex_bound_pair")
        step = f / df
        kappa -= step
        if abs(step) < 1e-15 * (1 + abs(kappa)):
            break
    else:
        raise NonConvergence("complex bound pair Newton did not converge")
    scale = (1 + V ** 2) * abs(cmath.cosh(N * kappa))
    res = abs(bound_digamma(kappa, N, abs(V), gamma))
    if res > 1e-8 * scale:
        raise NonConvergence(f"bound pair residual {res:.3e} too large")
    energy = 2.0 * cmath.cosh(kappa)
    sign = 1.0 if V >= 0 else -1.0
    pair = [
        BetheRoot("bound", kappa, sign * energy, res),
        BetheRoot("bound", kappa.conjugate(), sign * energy.conjugate(), res),
    ]
    return pair


def all_bethe_energies(N: int, V: float, gamma: float) -> list[complex]:
    """Combined scattering + bound energy multiset for the supported regimes.

    Supported: V = 0 (any gamma off the pair's onset) and |V| > 2, where the
    broken phase needs even N >= 6: its complex pair is seeded from
    effective_model, which raises ValueError otherwise.  The caller is
    expected to check completeness against the matrix dimension.
    """
    if V < 0:  # staggered gauge: the spectrum at -V is minus the one at V
        return [-e for e in all_bethe_energies(N, -V, gamma)]
    energies = [r.energy for r in scattering_roots(N, gamma, V=V)]
    if V == 0.0:
        if _has_broken_pair(N, gamma):
            root = broken_pair_kappa(N, gamma)
            energies += [root.energy, -root.energy]
    elif abs(V) > 2:
        real_roots = real_bound_roots(N, V, gamma)
        if len(energies) + len(real_roots) >= N:
            energies += [r.energy for r in real_roots[:N - len(energies)]]
        else:
            energies += [r.energy for r in complex_bound_pair(N, V, gamma)]
    return energies


# ---------------------------------------------------------------------------
# exact phase boundary, |V| > 2

def _eta(N: int, V, g):
    """(eta+, eta-, F, c) of the exact-boundary condition, in V's mpmath
    context when V is an mpf and in complex doubles otherwise (cmath.sqrt)."""
    sqrt = getattr(V, "context", cmath).sqrt
    ep = 1 + V ** 2 + g ** 2
    em = 1 - V ** 2 - g ** 2
    F = V * (2 * N * ep + em) / (4 * N * (ep - 1))
    disc = 1 - 4 * N * (ep - 1) * (N * em ** 2 + ep * em + 4 * N * V ** 2) / (
        V ** 2 * (2 * N * ep + em) ** 2
    )
    return ep, em, F, F * (1 + sqrt(disc))


def eta_factors(N: int, V: float, gamma: float) -> EtaFactors:
    """eta+-, the closed-form cosh(kappa) at the bound EP, and its prefactor."""
    ep, em, F, c = _eta(N, V, gamma)
    return EtaFactors(eta_plus=ep, eta_minus=em, c=c, F_factor=F)


def _boundary_log_residual(N: int, V, g):
    """log(LHS) - log(RHS) of the exact-boundary condition, in V's context.

    Returns an mpc when the closed-form cosh(kappa) leaves the real branch
    (no bound EP at this gamma).
    """
    ctx = V.context
    ep, em, _, c = _eta(N, V, g)
    s = ctx.sqrt(c ** 2 - 1)
    num = ep * c - 2 * V - em * s
    den = ep * c - 2 * V + em * s
    return 2 * N * ctx.log(c + s) - (ctx.log(abs(num)) - ctx.log(abs(den)))


def _working_dps(N: int, v: float) -> int:
    """Decimal digits that keep the exact-boundary residual good to a double.

    At the root, c + s = e^kappa ~ v, so num = eta+ c - 2v - eta- s ~ v^3
    and den = num / (c+s)^2N ~ v^(3-2N): den is a difference of terms of
    size v^3, and computing it cancels 2N log10 v digits.  30 digits are
    kept beyond that (17 to tell neighbouring doubles of gamma apart, 13
    spare), and never fewer than 60.
    """
    return max(60, math.ceil(2 * N * math.log10(v)) + 30)


def exact_boundary_gamma(N: int, V: float) -> float:
    """Critical gamma of the bound-state exceptional point, |V| > 2.

    Solves the closed-form boundary condition in this thread's mpmath
    context (exact.precision), by Illinois regula falsi in ln gamma
    (exact.illinois) on its signed log residual, until both bracket ends
    round to the same double, the double nearest its root.  The balance involves terms like
    (c+sqrt(c^2-1))^2N, and gamma_c ~ V^-(N-2) falls below double-precision
    resolution at large V, where g^2 must still register next to V^2.  The
    working precision (_working_dps, which covers the cancellation in the
    residual) and the lower bracket (exact.decay_floor) scale with (N, V).
    N = 2 has its root at gamma = 1 for every V, where the residual is
    roundoff of either sign, and returns 1.0 without a search.  Raises
    ValueError for |V| <= 2 or non-finite V, NoBracket where the residual has
    no sign change, and NoRoot where gamma_c underflows a double.
    """
    if not math.isfinite(V):
        raise ValueError(f"exact_boundary_gamma requires finite V, got {V}")
    if abs(V) <= 2:
        raise ValueError("exact_boundary_gamma requires |V| > 2")
    if N == 2:  # eigenvalues V +- sqrt(1 - gamma^2): the EP sits at gamma = 1
        return 1.0
    v = abs(V)  # gamma_c is even in V (staggered gauge flips the band sign)
    with precision(dps=_working_dps(N, v)) as ctx:
        vv = ctx.mpf(v)

        def f(g):
            return _boundary_log_residual(N, vv, g)

        lo, hi = decay_floor(ctx, N, v), ctx.mpf(1)
        fhi = f(hi)
        while isinstance(fhi, ctx.mpc) or not ctx.isfinite(fhi):
            hi = hi / 2
            if hi < lo:
                raise NoBracket("no real-branch gamma found below 1")
            fhi = f(hi)
        flo = f(lo)
        # halving can step past the root (N = 3 near V = 2): bisect towards
        # the real-branch edge until the sign changes or hi meets it in a double
        edge = 2 * hi
        while flo * fhi > 0 and hi < 1 and float(hi) != float(edge):
            mid = ctx.sqrt(hi * edge)
            fmid = f(mid)
            if isinstance(fmid, ctx.mpc) or not ctx.isfinite(fmid):
                edge = mid
            else:
                hi, fhi = mid, fmid
        if flo * fhi > 0:
            raise NoBracket(
                f"no sign change of the boundary condition in [{float(lo)}, {float(hi)}]"
            )
        # a fixed rel_tol far below double resolution: the float exit ends the
        # search, and the step cap (~1000) stays finite at any precision
        gamma_c = illinois(f, lo, hi, flo, fhi, 1e-300)
    if gamma_c == 0.0:
        raise NoRoot(f"gamma_c underflows a double at N={N}, V={V}")
    return gamma_c


# ---------------------------------------------------------------------------
# perturbative effective model, |V| >> 1

def effective_model(N: int, V: float) -> EffectiveModel:
    """Effective end-site potential (the n-sum) and end-to-end coupling
    1/U~_{N-2}(V), U~_m = V U~_{m-1} - U~_{m-2} with U~_0 = 1, U~_1 = V: the
    product of the ratios U~_{m-1}/U~_m, which neither cancels nor overflows.
    """
    if N % 2 != 0 or N < 6:
        raise ValueError("effective_model requires even N >= 6")
    if abs(V) <= 2:
        raise ValueError("effective_model requires |V| > 2")
    theta = math.pi / (2 * (N - 1))
    n = np.arange(2, N)
    phi = 2 * (n - 1) * theta
    den = V - 2 * np.cos(phi)
    if np.min(np.abs(den)) < 1e-12:
        raise DegenerateOmega("effective-model denominator (near) zero")
    v_eff = (2.0 / (N - 1)) * float(np.sum(np.sin(phi) ** 2 / den))
    lam, ratio = 1.0, math.inf  # ratio = U~_m / U~_{m-1}, U~_{-1} = 0
    for _ in range(N - 2):
        ratio = V - 1.0 / ratio
        lam /= ratio
    # Published closed-form large-V coefficient (identically 0 for even N).
    d1 = (N - 1) * math.sin((N - 4) * theta)
    d2 = (N - 1) * math.sin(N * theta)
    if abs(d1) < 1e-12 or abs(d2) < 1e-12:
        raise DegenerateOmega("closed-form coefficient denominator (near) zero")
    omega = (
        math.cos((N - 4) * math.pi / 2) * math.sin((N - 4) * (N - 2) * theta) / d1
        - (-1) ** (N // 2) * math.sin((N - 2) * N * theta) / d2
    )
    return EffectiveModel(
        N=N, V=V, theta=theta, phi=phi, Omega=omega,
        lambda_eff=lam, V_eff=v_eff,
        asymptotic_power=N - 2, asymptotic_coeff=1.0,
    )


def effective_spectrum(
    N: int, V: float, gamma: float
) -> tuple[np.ndarray, StateVector | None]:
    """Bound-pair eigenvalues of the effective two-site model.

    Returns (+-sqrt(lambda^2 - gamma^2) + V + V_eff) and, when gamma equals
    |lambda_eff| to relative 1e-9, the Dirac-normalized coalescent state
    i gamma |1> + lambda |N> (close to the two-site Bell target).
    """
    eff = effective_model(N, V)
    lam = eff.lambda_eff
    shift = V + eff.V_eff
    root = cmath.sqrt(complex(lam ** 2 - gamma ** 2))
    eigenvalues = np.array([shift + root, shift - root])
    coalescent = None
    if abs(gamma - abs(lam)) <= 1e-9 * max(abs(lam), 1e-300):
        amps = np.zeros(N, dtype=complex)
        amps[0] = 1j * gamma
        amps[N - 1] = lam
        amps /= np.linalg.norm(amps)
        coalescent = StateVector(magnon_basis(N), amps)
    return eigenvalues, coalescent


def perturbative_boundary(N: int, V: float) -> float:
    """Perturbative critical gamma: EP of the effective model at |lambda_eff|.

    The published large-V form |Omega|/V^2 is not usable (its coefficient
    vanishes identically for even N); the coupling 1/U~_{N-2}(V) itself is
    the perturbative boundary and decays as 1/V^(N-2).
    """
    return abs(effective_model(N, V).lambda_eff)


# ---------------------------------------------------------------------------
# scattering eigenstates, V = 0

def bethe_scattering_state(k: float, N: int, gamma: float) -> StateVector:
    """Assemble the V=0 scattering eigenstate A e^{ikj} + B e^{-ikj}.

    (A, B) is the null vector of the 2x2 boundary-matching matrix; the result
    is Dirac-normalized and satisfies ||H psi - 2cos(k) psi|| < 1e-8.
    """
    if abs(scattering_F(k, N, gamma)) > ROOT_RESIDUAL_TOL:
        raise ValueError(f"k={k} is not a root of the quantization condition")
    eps_k = 2.0 * math.cos(k)
    up = 1j * gamma - eps_k
    um = -1j * gamma - eps_k
    m = np.array(
        [
            [up * np.exp(1j * k) + np.exp(2j * k),
             up * np.exp(-1j * k) + np.exp(-2j * k)],
            [um * np.exp(1j * k * N) + np.exp(1j * k * (N - 1)),
             um * np.exp(-1j * k * N) + np.exp(-1j * k * (N - 1))],
        ]
    )
    _, svals, vh = np.linalg.svd(m)
    if svals[1] > 1e-8 * max(svals[0], 1.0):
        raise NullSpaceRankError(f"no null vector: singular values {svals}")
    if svals[0] < 1e-8:
        raise NullSpaceRankError("null space is not one-dimensional")
    a, b = vh[1].conj()
    j = np.arange(1, N + 1)
    amps = a * np.exp(1j * k * j) + b * np.exp(-1j * k * j)
    amps /= np.linalg.norm(amps)
    state = StateVector(magnon_basis(N), amps)
    h = build_h_w(N, gamma)
    residual = np.linalg.norm(h @ amps - eps_k * amps)
    if residual > 1e-8:
        raise NonConvergence(f"eigenstate residual {residual:.3e} exceeds 1e-8")
    return state
