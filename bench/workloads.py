"""Seeded workload generator.

``generate(workload, seed)`` is a pure function: it returns the jobs of one
pass as plain data (CLI argv lists and optimizer specs), plus the facts the
oracles need to know about them.  The seed only jitters inputs inside fixed
bands, so every seed does the same amount of work of the same kind: the same
grid sizes, the same number of boundary points that escalate to the
arbitrary-precision path, the same number of traces.

Job kinds:

* ``{"kind": "cli", "argv": [...], "out": name, "ops": n, ...}`` -- one
  ``epchain.cli.main(argv)`` call writing ``out`` inside the work directory;
  ``ops`` counts the operations it performs (grid nodes, boundary points or
  traces).
* ``{"kind": "optimize", ...}`` -- one ``analysis.optimize_gamma`` call (the
  CLI has no seeded entry for it), followed in the same pass by the
  ``evolve`` job at the optimum that names it in ``after``.
"""

from __future__ import annotations

import random

WORKLOADS = ("ising-grid", "xy-grid", "xy-boundary", "state-prep")


def _jitter(rng: random.Random, value: float, rel: float = 0.05) -> float:
    """value scaled by a factor drawn uniformly from [1 - rel, 1 + rel]."""
    return value * (1.0 + rng.uniform(-rel, rel))


def _axis(lo: float, hi: float, scale: str, count: int) -> str:
    return f"{lo!r}:{hi!r}:{scale}:{count}"


def _phase_diagram(model: str, n: int, x: str, gamma: str, out: str,
                   ops: int) -> dict:
    return {"kind": "cli", "out": out, "ops": ops, "model": model, "N": n,
            "argv": ["phase-diagram", "--model", model, "--n", str(n),
                     "--x-range", x, "--gamma-range", gamma, "--out", out]}


def _ising_grid(rng: random.Random) -> dict:
    # fig4 ranges: Delta lin over [0.2, 2], gamma log over [1e-4, 1], J = 1
    d_lo, d_hi = _jitter(rng, 0.2), _jitter(rng, 2.0)
    g_lo, g_hi = _jitter(rng, 1e-4), _jitter(rng, 1.0)
    jobs = [
        _phase_diagram("ising", 8, _axis(d_lo, d_hi, "lin", 2),
                       _axis(g_lo, g_hi, "log", 4), "ising_N8.csv", 8),
        # one N=10 node: dim 1024, 16 MB per complex matrix
        _phase_diagram("ising", 10, _axis(d_hi, d_hi, "lin", 1),
                       _axis(g_hi, g_hi, "log", 1), "ising_N10.csv", 1),
    ]
    warmup = [_phase_diagram("ising", 8, _axis(1.0, 1.0, "lin", 1),
                             _axis(0.01, 0.1, "log", 2), "warm.csv", 2)]
    return {"jobs": jobs, "warmup": warmup}


def _xy_grid(rng: random.Random) -> dict:
    # fig2 ranges: V log over [2, 100], gamma log over [1e-8, 1]
    jobs = []
    for n in (6, 8, 10):
        v = _axis(_jitter(rng, 2.0), _jitter(rng, 100.0), "log", 24)
        g = _axis(_jitter(rng, 1e-8), _jitter(rng, 1.0), "log", 24)
        jobs.append(_phase_diagram("xy", n, v, g, f"xy_N{n}.csv", 576))
    warmup = [_phase_diagram("xy", 6, _axis(2.0, 100.0, "log", 4),
                             _axis(1e-8, 1.0, "log", 4), "warm.csv", 16)]
    return {"jobs": jobs, "warmup": warmup}


def _boundary(n: int, lo: float, hi: float, count: int, out: str,
              escalations: int) -> dict:
    return {"kind": "cli", "out": out, "ops": count, "N": n,
            "escalations": escalations,
            "argv": ["boundary", "--model", "xy", "--n", str(n),
                     "--x-range", _axis(lo, hi, "log", count), "--out", out]}


def _xy_boundary(rng: random.Random) -> dict:
    # numeric_boundary_gamma escalates to mpmath when gamma_c < 1e-6, i.e.
    # above V ~ 31 at N=6 and V ~ 10 at N=8.  The bands keep every point far
    # from those crossings, so the escalation count is the same for every seed.
    # N=6: V ~ 3, 17, 100 -- only V ~ 100 escalates (gamma_c ~ 1e-8).
    # N=8: V ~ 3, 100    -- only V ~ 100 escalates (gamma_c ~ 1e-12).
    lo6, hi6 = rng.uniform(3.0, 3.15), rng.uniform(95.0, 100.0)
    lo8, hi8 = rng.uniform(3.0, 3.15), rng.uniform(95.0, 100.0)
    jobs = [_boundary(6, lo6, hi6, 3, "boundary_N6.csv", 1),
            _boundary(8, lo8, hi8, 2, "boundary_N8.csv", 1)]
    warmup = [_boundary(6, 4.0, 4.0, 1, "warm.csv", 0)]
    return {"jobs": jobs, "warmup": warmup}


def _evolve(model: str, n: int, control: float, target: str, t_max: float,
            out: str, gamma: float | None = None, after: str | None = None) -> dict:
    flag = "--v" if model == "xy" else "--delta"
    argv = ["evolve", "--model", model, "--n", str(n), flag, repr(control),
            "--target", target, "--t-max", repr(t_max), "--steps", "2000",
            "--out", out]
    if gamma is not None:
        argv += ["--gamma", repr(gamma)]
    return {"kind": "cli", "out": out, "ops": 1, "model": model, "N": n,
            "control": control, "target": target, "t_max": t_max,
            "after": after, "argv": argv}


def _optimize(name: str, model: str, n: int, control: float, target: str,
              t_max: float) -> dict:
    return {"kind": "optimize", "name": name, "ops": 1, "model": model,
            "N": n, "control": control, "target": target, "t_max": t_max}


def _state_prep(rng: random.Random) -> dict:
    v = rng.uniform(5.0, 10.0)
    delta = rng.uniform(0.5, 1.0)
    jobs = [
        # Bell on the magnon chain (fig3), GHZ on the Ising ring (fig5)
        _optimize("bell", "xy", 6, v, "bell", 2e4),
        _evolve("xy", 6, v, "bell", 2e4, "bell.csv", after="bell"),
        _optimize("ghz", "ising", 6, delta, "ghz", 1e4),
        _evolve("ising", 6, delta, "ghz", 1e4, "ghz.csv", after="ghz"),
        # W traces (fig1): fixed gamma just above the gamma = 1 EP
        _evolve("xy", 6, 0.0, "w", 200.0, "w_a.csv",
                gamma=1.0 + rng.uniform(0.01, 0.25)),
        _evolve("xy", 6, 0.0, "w", 200.0, "w_b.csv",
                gamma=1.25 + rng.uniform(0.0, 0.25)),
    ]
    warmup = [_evolve("xy", 6, 0.0, "w", 200.0, "warm_w.csv", gamma=1.2),
              _evolve("ising", 6, 0.75, "ghz", 100.0, "warm_ghz.csv",
                      gamma=0.1)]
    return {"jobs": jobs, "warmup": warmup}


_GENERATORS = {"ising-grid": _ising_grid, "xy-grid": _xy_grid,
               "xy-boundary": _xy_boundary, "state-prep": _state_prep}


def generate(workload: str, seed: int) -> dict:
    """Jobs of one pass, and the untimed warm-up jobs, for (workload, seed)."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{workload}/{seed}")
    return _GENERATORS[workload](rng)
