"""Command-line surface.

Subcommands: spectrum, phase-diagram, evolve, boundary, reproduce.  Output
is CSV or JSON (plus optional static SVG plots); identical invocations
produce byte-identical files.  Exit codes: 0 success, 2 configuration
error or an unwritable output, 3 numeric failure, 4 validation mismatch
between the exact and numeric phase boundaries.  A command runs with numpy's
BLAS on one thread (linalg.one_blas_thread), so its output does not depend
on the BLAS thread count; the sweep's thread pool is its only parallelism.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import replace

import numpy as np

from . import analysis, bethe, dynamics, linalg, models, serialize
from .errors import ConfigError, EpchainError, ValidationMismatch


def _parse_axis(text: str, flag: str, spec: models.ModelSpec,
                name: str) -> analysis.AxisSpec:
    """spec's axis of name from min:max:{log|lin}:count; both ends must be valid."""
    parts = text.split(":")
    if len(parts) != 4 or parts[2] not in ("log", "lin"):
        raise ConfigError(f"{flag} must look like min:max:{{log|lin}}:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[3])
        for value in (lo, hi):
            replace(spec, **{name: value})
        return analysis.AxisSpec.from_range(name, lo, hi, parts[2], count)
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _model_spec(args, full_space: bool = False) -> models.ModelSpec:
    if args.model == "xy":
        kind = models.ModelKind.XY_FULL_SPACE if full_space else models.ModelKind.XY_MAGNON
    elif args.model == "ising":
        kind = models.ModelKind.TRANSVERSE_ISING
    else:
        raise ConfigError(f"--model must be xy or ising, got {args.model!r}")
    try:
        return models.ModelSpec(
            kind=kind,
            N=args.n,
            V=args.v,
            gamma=args.gamma,
            J=args.j,
            Delta=args.delta,
            ising_boundary=models.IsingBoundary(args.boundary),
        )
    except (ValueError, EpchainError) as exc:
        flag = _offending_flag(str(exc))
        raise ConfigError(f"{flag}: {exc}") from exc


def _offending_flag(message: str) -> str:
    for name, flag in (("gamma", "--gamma"), ("N ", "--n"), ("V", "--v"),
                       ("J", "--j"), ("Delta", "--delta"), ("2^", "--n")):
        if name in message:
            return flag
    return "--model"


def _parse_init(text: str, spec: models.ModelSpec) -> models.StateVector:
    if text.startswith("site:"):
        try:
            site = int(text[5:])
        except ValueError as exc:
            raise ConfigError(f"--init site index: {exc}") from exc
        if not 1 <= site <= spec.N:
            raise ConfigError(f"--init site index must be in 1..{spec.N}")
        return models.site_excitation(spec, site)
    if text.startswith("bits:"):
        return _model_state(spec, f"--init {text}", models.bitstring_state,
                            text[5:])
    raise ConfigError(f"--init must be site:<k> or bits:<string>, got {text!r}")


def _model_state(spec: models.ModelSpec, flag: str, make,
                 *args) -> models.StateVector:
    """make(*args) if it lives in spec's space, else ConfigError naming flag."""
    try:
        state = make(*args)
        models.check_basis(spec, state)
    except (ValueError, EpchainError) as exc:
        raise ConfigError(f"{flag}: {exc}") from exc
    return state


def _pyplot(enabled: bool):
    """matplotlib.pyplot (Agg backend) when --plot is set, else None."""
    if not enabled:
        return None
    try:
        import matplotlib
        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError as exc:
        raise ConfigError(f"--plot requires matplotlib: {exc}") from exc
    return plt


def _grid_panel(ax, grid: analysis.PhaseGrid, overlay=()) -> None:
    """max|Im eps| over the grid, with (control, gamma_c) overlay points."""
    x, y = np.meshgrid(grid.x_axis.values, grid.y_axis.values, indexing="ij")
    pcm = ax.pcolormesh(x, y, grid.values, shading="nearest", cmap="inferno")
    ax.figure.colorbar(pcm, ax=ax, label="max |Im eps|")
    if overlay:
        ax.plot([c for c, _ in overlay], [g for _, g in overlay], "w--", lw=1)
    if grid.x_axis.scale == "log":
        ax.set_xscale("log")
    if grid.y_axis.scale == "log":
        ax.set_yscale("log")
    ax.set_xlabel(grid.x_axis.name)
    ax.set_ylabel("gamma")


def _trace_panel(ax, curves) -> None:
    """Fidelity against log time, one line per (label, trace)."""
    for label, trace in curves:
        ax.plot(trace.times, trace.fidelities, label=label)
    ax.set_xscale("log")
    ax.set_ylim(0, 1.02)
    ax.set_xlabel("t")
    ax.set_ylabel("f(t)")
    ax.legend(fontsize=7)


def _save_plot(plt, path: str, panels) -> None:
    """One SVG, side by side, a panel per (title, draw, *data): draw(ax, *data)."""
    fig, axes = plt.subplots(1, len(panels), figsize=(4.5 * len(panels), 3.5),
                             squeeze=False)
    for ax, (title, draw, *data) in zip(axes[0], panels):
        draw(ax, *data)
        ax.set_title(title)
    fig.tight_layout()
    fig.savefig(path, format="svg")
    plt.close(fig)


# ---------------------------------------------------------------------------
# subcommands

def cmd_spectrum(args) -> int:
    spec = _model_spec(args, full_space=args.full_space)
    spectrum = dynamics.block_spectrum(spec)
    if args.format == "json":
        serialize.atomic_write(args.out, serialize.spectrum_to_json(spec, spectrum))
    else:
        serialize.atomic_write(args.out, serialize.spectrum_to_csv(spectrum))
    if args.vectors:
        serialize.atomic_write(args.out + ".vectors.csv",
                               serialize.eigenvectors_to_csv(spectrum))
    return 0


def cmd_phase_diagram(args) -> int:
    spec = _model_spec(args)
    plt = _pyplot(args.plot)
    x_axis = _parse_axis(args.x_range, "--x-range", spec, spec.kind.control)
    y_axis = _parse_axis(args.gamma_range, "--gamma-range", spec, "gamma")
    grid = analysis.sweep_grid(spec, x_axis, y_axis)
    write = serialize.grid_to_json if args.format == "json" else serialize.grid_to_csv
    serialize.atomic_write(args.out, write(grid))
    if plt:
        _save_plot(plt, os.path.splitext(args.out)[0] + ".svg",
                   [("", _grid_panel, grid)])
    failures = int(np.sum(np.isnan(grid.values)))
    if failures:
        print(f"warning: {failures} grid nodes failed (NaN)", file=sys.stderr)
        return 3
    return 0


def cmd_evolve(args) -> int:
    spec = _model_spec(args, full_space=False)
    target = _model_state(spec, f"--target {args.target}", models.target_state,
                          args.target, spec.N)
    init = (_parse_init(args.init, spec) if args.init
            else dynamics.default_initial_state(spec))
    if not 0 < args.t_max < np.inf:  # NaN too
        raise ConfigError("--t-max must be positive and finite")
    if args.steps < 2:
        raise ConfigError("--steps must be >= 2")
    if not args.tol > 0:
        raise ConfigError("--tol must be positive")
    plt = _pyplot(args.plot)
    trace = dynamics.evolve_trace(spec, init, target, args.t_max, args.steps,
                                  target_name=args.target)
    write = serialize.trace_to_json if args.format == "json" else serialize.trace_to_csv
    serialize.atomic_write(args.out, write(trace))
    t_conv = dynamics.convergence_time(trace, tol=args.tol)
    try:
        f_dom = dynamics.steady_fidelity(spec, target)
    except EpchainError:
        f_dom = float("nan")
    print(serialize.evolve_summary(t_conv, f_dom))
    if plt:
        _save_plot(plt, os.path.splitext(args.out)[0] + ".svg",
                   [("", _trace_panel, [(args.target, trace)])])
    return 0


def cmd_boundary(args) -> int:
    spec = _model_spec(args)
    axis = _parse_axis(args.x_range, "--x-range", spec, spec.kind.control)
    rows = analysis.boundary_table(spec, axis.values)
    serialize.atomic_write(args.out, serialize.boundary_table_csv(rows))
    if any(mismatch for *_, mismatch in rows):
        raise ValidationMismatch("exact boundary disagrees with numeric scan; "
                                 "the numeric value is authoritative")
    return 0


# ---------------------------------------------------------------------------
# figure reproduction: each figure is a parameter table (written verbatim to
# its manifest) run by _grid_figure or _trace_figure, which write the
# figure's CSVs and return the manifest parameters and the plot panels.

def _figure_spec(kind: models.ModelKind, params: dict, n: int,
                 **values) -> models.ModelSpec:
    return models.ModelSpec(kind, N=n, J=params.get("J", 1.0), **values)


def _grid_figure(prefix: str, params: dict, out_dir: str):
    """sweep_grid per N over "<control>_range" x "gamma_range", and the
    exact boundary at "exact_overlay_V" when listed."""
    kind = (models.ModelKind.TRANSVERSE_ISING if "Delta_range" in params
            else models.ModelKind.XY_MAGNON)
    control = kind.control
    panels = []
    for n in params["N"]:
        grid = analysis.sweep_grid(
            _figure_spec(kind, params, n),
            analysis.AxisSpec.from_range(control, *params[f"{control}_range"]),
            analysis.AxisSpec.from_range("gamma", *params["gamma_range"]),
        )
        serialize.atomic_write(os.path.join(out_dir, f"{prefix}_grid_N{n}.csv"),
                               serialize.grid_to_csv(grid))
        overlay = [(v, bethe.exact_boundary_gamma(n, v))
                   for v in params.get("exact_overlay_V", [])]
        if overlay:
            serialize.atomic_write(
                os.path.join(out_dir, f"{prefix}_exact_boundary_N{n}.csv"),
                serialize.exact_boundary_csv(overlay))
        panels.append((f"N={n}", _grid_panel, grid, overlay))
    return params, panels


def _trace_figure(prefix: str, params: dict, out_dir: str):
    """Fidelity traces of the "target" state: at each fixed gamma of
    "gammas" for every N, or at optimize_gamma's gamma* for every
    (N, control, t_max) of "runs", recorded as "optimized_gammas"."""
    target_name = params["target"]
    kind = (models.ModelKind.TRANSVERSE_ISING if target_name == "ghz"
            else models.ModelKind.XY_MAGNON)
    control = kind.control
    if "runs" in params:
        runs = [(r["N"], r[control], r["t_max"], None) for r in params["runs"]]
        params = dict(params, optimized_gammas={})
    else:
        runs = [(n, 0.0, params["t_max"], g)
                for n in params["N"] for g in params["gammas"]]
    curves = {}
    for n, c, t_max, gamma in runs:
        spec = _figure_spec(kind, params, n, **{control: c})
        target = models.target_state(target_name, n)
        if gamma is None:
            gamma, _ = analysis.optimize_gamma(spec, target, t_max)
            label = f"N{n}_{control}{c}"
            params["optimized_gammas"][label] = gamma
        else:
            label = f"N{n}_gamma{gamma}"
        spec = replace(spec, gamma=gamma)
        trace = dynamics.evolve_trace(spec, dynamics.default_initial_state(spec),
                                      target, t_max, params["steps"],
                                      target_name=target_name)
        serialize.atomic_write(
            os.path.join(out_dir, f"{prefix}_{target_name}_{label}.csv"),
            serialize.trace_to_csv(trace))
        curves.setdefault(n, []).append((label, trace))
    return params, [(f"N={n}", _trace_panel, c) for n, c in curves.items()]


FIGURES = {
    1: (_trace_figure, {"N": [6, 8], "gammas": [1.05, 1.1, 1.2, 1.5],
                        "t_max": 200.0, "steps": 2000, "target": "w",
                        "init": "site:1"}),
    2: (_grid_figure, {"N": [6, 8, 10], "V_range": [2.0, 100.0, "log", 40],
                       "gamma_range": [1e-8, 1.0, "log", 40],
                       "exact_overlay_V": [3, 5, 10, 20, 40, 70, 100]}),
    3: (_trace_figure, {"runs": [{"N": 6, "V": 5.0, "t_max": 2e4},
                                 {"N": 6, "V": 10.0, "t_max": 2e5},
                                 {"N": 8, "V": 5.0, "t_max": 2e6}],
                        "steps": 2000, "target": "bell", "gamma": "optimized"}),
    4: (_grid_figure, {"N": [6, 8], "J": 1.0,
                       "Delta_range": [0.2, 2.0, "lin", 25],
                       "gamma_range": [1e-4, 1.0, "log", 25]}),
    5: (_trace_figure, {"runs": [{"N": 6, "Delta": 0.5, "t_max": 2e4},
                                 {"N": 6, "Delta": 0.75, "t_max": 1e4},
                                 {"N": 6, "Delta": 1.0, "t_max": 5e3},
                                 {"N": 8, "Delta": 0.5, "t_max": 2e5}],
                        "J": 1.0, "steps": 2000, "target": "ghz",
                        "gamma": "optimized"}),
}


def cmd_reproduce(args) -> int:
    if args.figure not in FIGURES:
        raise ConfigError(f"--figure must be one of 1..5, got {args.figure}")
    plt = _pyplot(args.plot)
    os.makedirs(args.out_dir, exist_ok=True)
    prefix = f"fig{args.figure}"
    make, params = FIGURES[args.figure]
    params, panels = make(prefix, params, args.out_dir)
    serialize.atomic_write(os.path.join(args.out_dir, f"{prefix}_manifest.json"),
                           serialize.manifest_to_json(args.figure, params))
    if plt:
        _save_plot(plt, os.path.join(args.out_dir, f"{prefix}.svg"), panels)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, choices=["xy", "ising"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--v", type=float, default=0.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--j", type=float, default=1.0)
    p.add_argument("--delta", type=float, default=0.0)
    p.add_argument("--boundary", choices=["periodic", "open"], default="periodic")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The epchain argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="epchain",
        description="Exceptional-point spectra, phase diagrams and "
                    "entangled-state preparation dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalues of one model instance")
    _add_model_flags(p)
    p.add_argument("--full-space", action="store_true",
                   help="use the 2^N spin space for the XY chain")
    p.add_argument("--vectors", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("phase-diagram", help="max|Im eps| over a parameter grid")
    _add_model_flags(p)
    p.add_argument("--x-range", required=True, metavar="MIN:MAX:SCALE:COUNT")
    p.add_argument("--gamma-range", required=True, metavar="MIN:MAX:SCALE:COUNT")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_phase_diagram)

    p = sub.add_parser("evolve", help="fidelity trace of one evolution run")
    _add_model_flags(p)
    p.add_argument("--target", required=True, choices=["w", "bell", "ghz"])
    p.add_argument("--init", default="", metavar="site:<k>|bits:<string>")
    p.add_argument("--t-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("boundary", help="critical gamma by all applicable methods")
    _add_model_flags(p)
    p.add_argument("--x-range", required=True, metavar="MIN:MAX:SCALE:COUNT")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_boundary)

    p = sub.add_parser("reproduce", help="emit a scaled reproduction dataset")
    p.add_argument("--figure", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with linalg.one_blas_thread():
            return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output directory or file that cannot be written
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except ValidationMismatch as exc:
        print(f"validation mismatch: {exc}", file=sys.stderr)
        return 4
    except (EpchainError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
