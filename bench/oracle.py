"""Independent oracles for the benchmark's outputs, run outside the timed region.

The Hamiltonians here are assembled directly -- the Ising ring from bit
operations on basis indices, the magnon chain as a tridiagonal matrix --
without ``epchain.models``, and their spectra come from
``numpy.linalg.eigvals``.  Trace end points are recomputed with one
``scipy.linalg.expm`` of the shifted generator instead of epchain's stepped
propagation.

Each check returns the problems it found, an empty list when the output is
right; the grid and boundary checks also count the operations concerned.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np
import scipy.linalg

# Dense eig noise near an exceptional point grows like sqrt(eps * ||H||) for
# a 2-fold EP and worse for the higher-order EPs of the 2^N space, where
# epchain's own boundary scan needs a 3e-4 * (1 + Delta^2) floor
# (analysis._FULL_SPACE_SCAN_FLOOR).  The oracles allow the same noise; the
# sampled broken nodes sit far above it, so a wrong sign, coupling or
# missing term still shows as an O(gamma) difference.
ISING_TOL = 3e-4
MAGNON_TOL = 1e-6
BROKEN_THRESHOLD = 1e-10
BOUNDARY_REL_TOL = 1e-3
ESCALATION_GAMMA = 1e-6
ENDPOINT_TOL = 1e-9
EXPM_TOL = 1e-6


# ---------------------------------------------------------------------------
# reference Hamiltonians and states

def magnon_h(n: int, v: float, gamma: float) -> np.ndarray:
    h = np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    h = h.astype(complex)
    h[0, 0] += v + 1j * gamma
    h[-1, -1] += v - 1j * gamma
    return h


def ising_h(n: int, delta: float, gamma: float, j: float = 1.0) -> np.ndarray:
    """Periodic ring -J sum zz + i gamma sum z + Delta sum x; site 1 is the
    most significant bit and bit 1 is spin up."""
    idx = np.arange(1 << n)
    z = 2 * ((idx[:, None] >> (n - 1 - np.arange(n))) & 1) - 1
    zz = sum(z[:, s] * z[:, (s + 1) % n] for s in range(n))
    h = np.diag(-j * zz + 1j * gamma * z.sum(axis=1))
    for s in range(n):
        h[idx ^ (1 << (n - 1 - s)), idx] += delta
    return h


def reference_h(model: str, n: int, control: float, gamma: float) -> np.ndarray:
    if model == "xy":
        return magnon_h(n, control, gamma)
    return ising_h(n, control, gamma)


def initial_state(model: str, n: int) -> np.ndarray:
    """|1> on the magnon chain; the single up-spin at site 1 on the ring."""
    psi = np.zeros(n if model == "xy" else 1 << n, dtype=complex)
    psi[0 if model == "xy" else 1 << (n - 1)] = 1.0
    return psi


def target_state(name: str, n: int) -> np.ndarray:
    if name == "w":
        return np.array([(-1j) ** s for s in range(1, n + 1)]) / math.sqrt(n)
    if name == "bell":
        out = np.zeros(n, dtype=complex)
        out[0], out[-1] = 1 / math.sqrt(2), -1j / math.sqrt(2)
        return out
    out = np.zeros(1 << n, dtype=complex)
    out[0] = out[-1] = 1 / math.sqrt(2)
    return out


def fidelity_at(model: str, n: int, control: float, gamma: float,
                target: str, t: float) -> float:
    """|<target|psi(t)>| from one propagation of H - i sigma, sigma = max Im eps
    (the shift keeps the exponential finite and cancels on normalization)."""
    h = reference_h(model, n, control, gamma)
    sigma = max(0.0, float(np.max(np.linalg.eigvals(h).imag)))
    psi = scipy.linalg.expm(-1j * t * (h - 1j * sigma * np.eye(len(h))))
    psi = psi @ initial_state(model, n)
    tgt = target_state(target, n)
    return float(abs(np.vdot(tgt, psi)) / np.linalg.norm(psi))


# ---------------------------------------------------------------------------
# output checks

def _axis(text: str) -> np.ndarray:
    lo, hi, scale, count = text.split(":")
    space = np.geomspace if scale == "log" else np.linspace
    return space(float(lo), float(hi), int(count))


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def check_grid(job: dict, text: str, rng, sample: int) -> tuple[list[str], int, int]:
    """Compare a phase-diagram CSV with reference spectra at sampled nodes.

    Returns (problems, nan nodes, nodes that disagree)."""
    argv, model, n = job["argv"], job["model"], job["N"]
    xs, gs = _axis(_flag(argv, "--x-range")), _axis(_flag(argv, "--gamma-range"))
    rows = _rows(text)
    x_key = "delta" if model == "ising" else "v"
    if len(rows) != len(xs) * len(gs):
        return [f"{job['out']}: {len(rows)} rows, expected {len(xs) * len(gs)}"], 0, job["ops"]
    problems, bad = [], 0
    nan_nodes = sum(1 for r in rows if math.isnan(float(r["max_im_eps"])))
    for k, r in enumerate(rows):
        x, g = xs[k // len(gs)], gs[k % len(gs)]
        if not (math.isclose(float(r[x_key]), x, rel_tol=1e-12)
                and math.isclose(float(r["gamma"]), g, rel_tol=1e-12)):
            problems.append(f"{job['out']} row {k}: axis value differs from the request")
            bad += 1
    picks = sorted(rng.sample(range(len(rows)), min(sample, len(rows))))
    informative = False
    for k in picks:
        r = rows[k]
        x, g, value = float(r[x_key]), float(r["gamma"]), float(r["max_im_eps"])
        if math.isnan(value):
            continue
        ref = float(np.max(np.abs(np.linalg.eigvals(reference_h(model, n, x, g)).imag)))
        tol = ISING_TOL * (1 + x * x) if model == "ising" else MAGNON_TOL * (1 + abs(x))
        informative = informative or ref > 100 * tol
        if abs(value - ref) > tol:
            problems.append(f"{job['out']} node ({x:.6g}, {g:.6g}): max|Im eps| "
                            f"{value:.12g}, reference {ref:.12g}")
            bad += 1
        elif int(r["broken"]) != int(value > BROKEN_THRESHOLD):
            problems.append(f"{job['out']} node ({x:.6g}, {g:.6g}): broken flag "
                            f"{r['broken']} disagrees with its value")
            bad += 1
    if not informative:
        # every grid reaches gamma ~ 1, deep in the broken phase
        problems.append(f"{job['out']}: no sampled node is clearly broken")
    return problems, nan_nodes, bad


def check_boundary(job: dict, text: str | None, rc: int) -> tuple[list[str], int, int]:
    """Numeric vs exact cross-validation of a boundary CSV.

    Returns (problems, failed points, escalated points)."""
    if rc != 0 or text is None:
        return [f"{job['out']}: boundary exited {rc}"], job["ops"], 0
    rows = _rows(text)
    vs = _axis(_flag(job["argv"], "--x-range"))
    if len(rows) != len(vs):
        return [f"{job['out']}: {len(rows)} rows, expected {len(vs)}"], job["ops"], 0
    problems, bad, escalated = [], 0, 0
    for v, r in zip(vs, rows):
        numeric, exact = float(r["gamma_numeric"]), r["gamma_exact"]
        escalated += numeric < ESCALATION_GAMMA
        ok = math.isclose(float(r["control_value"]), v, rel_tol=1e-12)
        ok = ok and exact != "" and abs(float(exact) - numeric) / numeric <= BOUNDARY_REL_TOL
        ok = ok and r["validation_mismatch"] == "0"
        ok = ok and (r["gamma_perturbative"] != "" or job["N"] % 2 or job["N"] < 6)
        if not ok:
            problems.append(f"{job['out']} V={v:.6g}: {dict(r)}")
            bad += 1
    if escalated != job["escalations"]:
        problems.append(f"{job['out']}: {escalated} escalated points, "
                        f"expected {job['escalations']}")
    return problems, bad, escalated


def check_trace(job: dict, text: str | None, rc: int,
                optimum: tuple[float, float, float] | None) -> list[str]:
    """An evolve CSV: row count and times, fidelities in [0, 1], the end point
    against the reference propagation and, after an optimize, against the
    optimizer's own f(t_max) and the scanned gamma_c.

    optimum is (gamma*, f(t_max) reported by the optimizer, gamma_c)."""
    name = job["out"]
    if rc != 0 or text is None:
        return [f"{name}: evolve exited {rc}"]
    rows = _rows(text)
    steps = int(_flag(job["argv"], "--steps"))
    t = np.array([float(r["t"]) for r in rows])
    f = np.array([float(r["fidelity"]) for r in rows])
    problems = []
    if len(rows) != steps or not np.allclose(
            t, job["t_max"] / steps * np.arange(1, steps + 1), rtol=1e-12, atol=0):
        problems.append(f"{name}: time grid differs from {steps} steps to {job['t_max']}")
    if np.any(f < 0) or np.any(f > 1):
        problems.append(f"{name}: fidelity outside [0, 1]")
    gamma = float(_flag(job["argv"], "--gamma"))
    ref = fidelity_at(job["model"], job["N"], job["control"], gamma,
                      job["target"], job["t_max"])
    if abs(f[-1] - ref) > EXPM_TOL:
        problems.append(f"{name}: f(t_max) {f[-1]!r}, reference {ref!r}")
    if optimum is not None:
        g_star, f_star, g_c = optimum
        if not g_star > g_c:
            problems.append(f"{name}: gamma* {g_star!r} not above gamma_c {g_c!r}")
        if abs(f_star - f[-1]) > ENDPOINT_TOL:
            problems.append(f"{name}: optimizer f(t_max) {f_star!r}, "
                            f"evolve {f[-1]!r}")
    return problems
