"""Exact arithmetic: the one-dimensional searches, the magnon chain's exact
broken-phase predicate, and precision(), the package's one source of mpmath
contexts, which gives each thread its own: no module touches the shared
one, so boundary searches may run on several threads at once.  mpmath is
imported with the first context, so a run that needs no exact arithmetic
(a magnon-chain sweep, evolve, spectrum) never loads it.
"""

import contextlib
import math
import threading

_local = threading.local()


@contextlib.contextmanager
def precision(*, prec: int | None = None, dps: int | None = None):
    """This thread's own mpmath context, made once per thread (importing
    mpmath the first time), at prec bits or dps digits; its previous
    precision is restored on exit."""
    if not hasattr(_local, "ctx"):
        import mpmath
        _local.ctx = mpmath.MPContext()
    ctx = _local.ctx
    with ctx.workprec(prec) if dps is None else ctx.workdps(dps):
        yield ctx


def bisect(broken, lo, hi, rel_tol: float):
    """Geometric bisection of the onset of broken, relative rel_tol.

    broken is false at lo and true at hi (doubles, or mpmath reals of one
    context, at that context's precision) and changes sign once between
    them: false below its onset, true above.  Two predicates that agree at
    every midpoint give the same decisions and the same double, so a caller
    may answer without computing wherever the answer is already known, as
    analysis's XY boundary search does outside its certified window.
    Returns the geometric mean of the last bracket.
    The search also ends once lo and hi round to the same double: rounding is
    monotone, so every later mean rounds to that double as well.
    """
    ctx = getattr(lo, "context", math)  # math's log and sqrt for doubles
    iterations = int(math.ceil(math.log2(float(ctx.log(hi / lo)) / rel_tol))) + 2
    for _ in range(iterations):
        if float(lo) == float(hi):
            break
        mid = ctx.sqrt(lo * hi)
        if broken(mid):
            hi = mid
        else:
            lo = mid
    return float(ctx.sqrt(lo * hi))


def decay_floor(ctx, N: int, V: float):
    """The lower bracket of both magnon gamma_c searches, an mpf of ctx:
    gamma_c decays as |V|^-(N-2), so 1e-45, or |V|^-(N-2) * 1e-10 below it."""
    v = abs(ctx.mpf(V))  # v ** (N - 2) takes no negative power of V = 0
    if v ** (N - 2) <= ctx.mpf(10) ** 35:
        return ctx.mpf(10) ** -45
    return v ** -(N - 2) * ctx.mpf(10) ** -10


def illinois(f, lo, hi, flo, fhi, rel_tol: float) -> float:
    """Illinois regula falsi (Dowell & Jarratt, BIT 11, 168, 1971) in ln g
    for the sign change of f in [lo, hi]: mpmath reals of one context, with
    flo = f(lo) and fhi = f(hi) of opposite signs or zero.

    Each step takes the secant point of (ln lo, flo) and (ln hi, fhi), or the
    midpoint (the geometric mean in g) where that is not strictly inside; when
    the same end is replaced twice in a row, the other end's stored f is
    halved.  Step cap, exit and return are those of
    bisect(lambda g: f(g) * flo <= 0, lo, hi, rel_tol): both end on a
    bracket around the one sign change whose ends round to the same double,
    and rounding is monotone, so both return that double.
    """
    ctx = lo.context
    xlo, xhi = ctx.log(lo), ctx.log(hi)
    side = 0
    iterations = int(math.ceil(math.log2(float(xhi - xlo) / rel_tol))) + 2
    for _ in range(iterations):
        if float(lo) == float(hi):
            break
        x = xhi - fhi * (xhi - xlo) / (fhi - flo) if fhi != flo else xlo
        if not xlo < x < xhi:
            x = (xlo + xhi) / 2
        g = ctx.exp(x)
        fg = f(g)
        if fg * flo <= 0:  # halving keeps flo's sign
            hi, xhi, fhi = g, x, fg
            if side == 1:
                flo /= 2
            side = 1
        else:
            lo, xlo, flo = g, x, fg
            if side == -1:
                fhi /= 2
            side = -1
    return float(ctx.sqrt(lo * hi))


# ---------------------------------------------------------------------------
# exact broken-phase predicate of the magnon chain (integer Sturm count)
#
# The PT-symmetric chain's characteristic polynomial has real coefficients, so
# the chain is broken exactly when det(E - H) has a non-real root.  V (a
# double) and gamma (an mpf) are dyadic rationals, so a power-of-two multiple
# of det(E - H) has integer coefficients and a Sturm sequence counts its real
# roots without rounding; this holds however far gamma_c sits below double
# precision.

def padd(a: list[int], b: list[int], sign: int = 1) -> list[int]:
    """a + sign*b for integer coefficient lists, lowest degree first."""
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    return [x + sign * (b[i] if i < len(b) else 0) for i, x in enumerate(a)]


def pmul(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def magnon_int_charpoly(N: int, V: float, g) -> list[int]:
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
        q.append(padd([0] + q[-1], q[-2], -1))
    det = padd(padd(pmul(quad, q[N]), pmul(lin, q[N - 1]), -1),
               [x << u for x in q[N - 2]])
    return det[::-1]


def sturm_root_counts(p: list[int]) -> tuple[int, int]:
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


def magnon_broken(N: int, V: float, g) -> bool:
    """True iff the magnon chain at (V, g) has a non-real eigenvalue.

    An exceptional point (a repeated real root) counts as unbroken.
    """
    real, distinct = sturm_root_counts(magnon_int_charpoly(N, V, g))
    return real < distinct
