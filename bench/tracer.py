"""Span tracer that wraps epchain's public functions from outside the package.

``Tracer.install()`` replaces every public module-level function of the
traced modules with a wrapper that records a span ``(id, name, start, end,
parent, thread id, info)``.  A name that another epchain module imported
(``build_hamiltonian`` in ``analysis`` and ``dynamics``) is replaced where it
is looked up, too.  ``mpmath.polyroots`` is wrapped as ``analysis.highprec``
because ``analysis`` calls it through the ``mp`` module attribute.

Spans are kept in memory; ``layer_metrics`` turns the spans of one pass into
the per-layer metrics.  Worker threads of ``sweep_grid`` start with an empty
span stack; their spans take the innermost open span of the installing thread
as parent, so grid nodes hang under their sweep.  Self time only subtracts
children that ran on the same thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time

import numpy as np

TRACED_MODULES = ("models", "linalg", "analysis", "bethe", "dynamics",
                  "serialize", "cli")

# Per-element helpers called once per CSV cell or per matrix argument; a span
# each would cost more than the work they do and swamp the trace.
UNTRACED = {"serialize.fmt", "linalg.as_matrix"}

# eig dimension buckets: magnon chains (N <= 10), 2^6, 2^8, 2^10
EIG_BUCKETS = (("small", 0, 64), ("d64", 64, 256), ("d256", 256, 1024),
               ("d1024", 1024, 1 << 30))


def _info(name: str, args, result) -> dict | None:
    """Per-span facts read from the arguments and the result."""
    if name in ("models.build_hamiltonian", "linalg.propagator"):
        return {"dim": int(np.shape(result)[0])}
    if name == "linalg.eig":
        a = np.asarray(args[0])
        scale = 1.0 + float(np.linalg.norm(a))
        return {"dim": a.shape[0], "rel_res": result.max_residual() / scale}
    if name == "dynamics.evolve_trace":
        return {"steps": len(result.times)}
    if name == "serialize.atomic_write":
        return {"bytes": len(args[1].encode())}
    if name == "cli.main":
        return {"rc": result}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._home_thread = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home_thread:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                home = tracer._home_stack
                parent = home[-1] if home else None
            sid = next(tracer._ids)
            stack.append(sid)
            info = None
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                info = {"error": type(exc).__name__}
                if isinstance(exc, SystemExit):
                    info["rc"] = exc.code
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if info is None:
                    info = _info(name, args, result)
                tracer.spans.append((sid, name, t0, t1, parent,
                                     threading.get_ident(), info))
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = {m: importlib.import_module(f"epchain.{m}")
                   for m in TRACED_MODULES}
        wrappers = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in UNTRACED
                        or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        # rebind each function wherever an epchain module looks it up
        for mod in list(modules.values()) + [importlib.import_module("epchain")]:
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        mp = modules["analysis"].mp
        self._patch(mp, "polyroots", self._wrap("analysis.highprec", mp.polyroots))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one pass

def _children(spans):
    kids: dict[int, list[tuple]] = {}
    for s in spans:
        if s[4] is not None:
            kids.setdefault(s[4], []).append(s)
    return kids


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _layer_self(span, kids) -> float:
    """Span time not covered by same-thread descendants of another layer."""

    def covered(s) -> float:
        total = 0.0
        for c in kids.get(s[0], ()):
            if c[5] != s[5]:
                continue
            if _layer(c[1]) == _layer(span[1]):
                total += covered(c)
            else:
                total += c[3] - c[2]
        return total

    return (span[3] - span[2]) - covered(span)


def _has_ancestor(span, by_id, names) -> bool:
    parent = span[4]
    while parent is not None:
        p = by_id.get(parent)
        if p is None:
            return False
        if p[1] in names:
            return True
        parent = p[4]
    return False


def layer_metrics(spans, pool_size: int) -> dict[str, float]:
    """Per-layer metrics of one pass (trace.overhead and serial_wall_s are
    added by the caller, which has the untraced and serial runs)."""
    by_id = {s[0]: s for s in spans}
    kids = _children(spans)
    named: dict[str, list[tuple]] = {}
    for s in spans:
        named.setdefault(s[1], []).append(s)

    def calls(name):
        return len(named.get(name, ()))

    def busy(name):
        return sum(s[3] - s[2] for s in named.get(name, ()))

    def mean_ms(group):
        return 1e3 * sum(s[3] - s[2] for s in group) / len(group) if group else 0.0

    m: dict[str, float] = {}
    builds = named.get("models.build_hamiltonian", [])
    m["models.build.calls"] = len(builds)
    m["models.build.busy_s"] = busy("models.build_hamiltonian")
    for dim in (256, 1024):
        m[f"models.build.d{dim}.mean_ms"] = mean_ms(
            [s for s in builds if s[6] and s[6].get("dim") == dim])

    eigs = named.get("linalg.eig", [])
    m["linalg.eig.calls"] = len(eigs)
    m["linalg.eig.busy_s"] = busy("linalg.eig")
    for label, lo, hi in EIG_BUCKETS:
        group = [s for s in eigs if s[6] and lo <= s[6]["dim"] < hi]
        m[f"linalg.eig.{label}.calls"] = len(group)
        m[f"linalg.eig.{label}.mean_ms"] = mean_ms(group)
    m["linalg.eig.max_rel_residual"] = max(
        (s[6]["rel_res"] for s in eigs if s[6] and "rel_res" in s[6]), default=0.0)

    sweeps = {s[0] for s in named.get("analysis.sweep_grid", [])}
    node_spans = [s for s in spans if s[4] in sweeps and s[1] in (
        "models.build_hamiltonian", "analysis.max_im_epsilon")]
    sweep_wall = busy("analysis.sweep_grid")
    node_busy = sum(s[3] - s[2] for s in node_spans)
    m["analysis.sweep_grid.wall_s"] = sweep_wall
    m["analysis.sweep_grid.nodes"] = sum(
        1 for s in node_spans if s[1] == "models.build_hamiltonian")
    m["analysis.sweep_grid.nan_nodes"] = sum(
        1 for s in node_spans if s[6] and "error" in s[6])
    m["analysis.sweep_grid.node_busy_s"] = node_busy
    m["analysis.sweep_grid.parallel_eff"] = (
        node_busy / (sweep_wall * pool_size) if sweep_wall > 0 else 0.0)

    nbg = {"analysis.numeric_boundary_gamma"}
    predicates = [s for s in spans
                  if s[1] in ("analysis.max_im_epsilon", "analysis.highprec")
                  and _has_ancestor(s, by_id, nbg)]
    escalated = set()
    for s in named.get("analysis.highprec", []):
        parent = s[4]
        while parent is not None and by_id[parent][1] not in nbg:
            parent = by_id[parent][4]
        if parent is not None:
            escalated.add(parent)
    m["analysis.numeric_boundary_gamma.calls"] = calls("analysis.numeric_boundary_gamma")
    m["analysis.numeric_boundary_gamma.busy_s"] = busy("analysis.numeric_boundary_gamma")
    m["analysis.numeric_boundary_gamma.predicate_calls"] = len(predicates)
    m["analysis.numeric_boundary_gamma.escalations"] = len(escalated)
    m["analysis.highprec.calls"] = calls("analysis.highprec")
    m["analysis.highprec.busy_s"] = busy("analysis.highprec")

    for fn in ("exact_boundary_gamma", "perturbative_boundary"):
        m[f"bethe.{fn}.calls"] = calls(f"bethe.{fn}")
        m[f"bethe.{fn}.busy_s"] = busy(f"bethe.{fn}")

    evolves = named.get("dynamics.evolve_trace", [])
    m["analysis.optimize_gamma.calls"] = calls("analysis.optimize_gamma")
    m["analysis.optimize_gamma.busy_s"] = busy("analysis.optimize_gamma")
    m["analysis.optimize_gamma.evals"] = sum(
        1 for s in evolves
        if _has_ancestor(s, by_id, {"analysis.optimize_gamma"}))

    m["dynamics.evolve_trace.calls"] = len(evolves)
    m["dynamics.evolve_trace.busy_s"] = busy("dynamics.evolve_trace")
    m["dynamics.evolve_trace.self_s"] = sum(_layer_self(s, kids) for s in evolves)
    m["dynamics.evolve_trace.steps"] = sum(
        s[6]["steps"] for s in evolves if s[6] and "steps" in s[6])
    m["linalg.propagator.calls"] = calls("linalg.propagator")
    m["linalg.propagator.busy_s"] = busy("linalg.propagator")
    m["dynamics.steady_fidelity.calls"] = calls("dynamics.steady_fidelity")
    m["dynamics.steady_fidelity.busy_s"] = busy("dynamics.steady_fidelity")

    # outermost serialize spans only: the CSV formatters and atomic_write
    m["serialize.busy_s"] = sum(
        s[3] - s[2] for s in spans if _layer(s[1]) == "serialize"
        and (s[4] is None or _layer(by_id[s[4]][1]) != "serialize"))
    m["serialize.bytes"] = sum(s[6]["bytes"] for s in named.get("serialize.atomic_write", [])
                               if s[6] and "bytes" in s[6])

    mains = named.get("cli.main", [])
    m["cli.main.calls"] = len(mains)
    m["cli.main.busy_s"] = busy("cli.main")
    m["cli.main.self_s"] = sum(_layer_self(s, kids) for s in mains)
    codes = [s[6].get("rc") for s in mains if s[6]]
    for rc in (2, 3, 4):
        m[f"cli.exit.{rc}"] = sum(1 for c in codes if c == rc)
    return m


# Deterministic counters: identical across passes of a run, across runs of a
# seed, and -- for escalations -- across seeds.
DETERMINISTIC = (
    "models.build.calls",
    "linalg.eig.calls",
    *(f"linalg.eig.{label}.calls" for label, _, _ in EIG_BUCKETS),
    "analysis.sweep_grid.nodes",
    "analysis.numeric_boundary_gamma.calls",
    "analysis.numeric_boundary_gamma.predicate_calls",
    "analysis.numeric_boundary_gamma.escalations",
    "analysis.highprec.calls",
    "analysis.optimize_gamma.evals",
    "dynamics.evolve_trace.steps",
    "serialize.bytes",
)
