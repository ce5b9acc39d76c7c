"""Every file and line epchain emits: CSV tables, JSON documents, the evolve
summary, and atomic_write.  Writers only.  All CSV goes through csv_text:
header row always present, cells printed by fmt with 17 significant digits,
row order fixed by construction.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import os

from .analysis import BROKEN_THRESHOLD, PhaseGrid
from .dynamics import EvolutionTrace
from .linalg import Spectrum
from .models import ModelSpec


def fmt(x: float) -> str:
    """17 significant digits: ints and bools print as 3, 1, 0; inf and nan as is."""
    return format(float(x), ".17g")


def csv_text(header, rows) -> str:
    """header's names, then one line per row: fmt(cell), or empty for None."""
    lines = [",".join(header)]
    lines += [",".join(["" if c is None else fmt(c) for c in row]) for row in rows]
    return "\n".join(lines) + "\n"


def atomic_write(path: str, text: str) -> None:
    """Write-then-rename so readers never observe a partial file; the new
    file's mode is 0o666 less the umask, as with open(path, "w").  A failed
    write leaves no temporary file and raises an OSError naming path."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".epchain-{os.urandom(8).hex()}")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc


def spec_to_dict(spec: ModelSpec) -> dict:
    """ModelSpec's fields in declaration order, enums as their values."""
    values = {f.name: getattr(spec, f.name) for f in dataclasses.fields(spec)}
    return {k: v.value if isinstance(v, enum.Enum) else v for k, v in values.items()}


# ---------------------------------------------------------------------------
# spectra

def spectrum_to_csv(spectrum: Spectrum) -> str:
    e = spectrum.eigenvalues
    return csv_text(("re", "im", "residual"),
                    zip(e.real.tolist(), e.imag.tolist(),
                        spectrum.residuals.tolist()))


def spectrum_to_json(spec: ModelSpec, spectrum: Spectrum) -> str:
    return json.dumps({
        "type": "spectrum",
        "spec": spec_to_dict(spec),
        "eigenvalues": [[z.real, z.imag] for z in spectrum.eigenvalues.tolist()],
        "max_residual": spectrum.max_residual(),
    }, indent=2)


def eigenvectors_to_csv(spectrum: Spectrum) -> str:
    """One row per component i of right eigenvector n: n, i, Re, Im."""
    return csv_text(
        ("eigenvalue_index", "component_index", "re", "im"),
        ((n, i, a.real, a.imag)
         for n, vec in enumerate(spectrum.right_vectors.T.tolist())
         for i, a in enumerate(vec)))


# ---------------------------------------------------------------------------
# evolution traces

def trace_to_csv(trace: EvolutionTrace) -> str:
    return csv_text(("t", "fidelity", "log_norm"),
                    zip(trace.times.tolist(), trace.fidelities.tolist(),
                        trace.log_norms.tolist()))


def trace_to_json(trace: EvolutionTrace) -> str:
    return json.dumps({
        "type": "evolution_trace",
        "spec": spec_to_dict(trace.spec),
        "target_name": trace.target_name,
        "gamma_used": trace.spec.gamma,
        "times": trace.times.tolist(),
        "fidelities": trace.fidelities.tolist(),
        "log_norms": trace.log_norms.tolist(),
    }, indent=2)


def evolve_summary(t_conv: float, f_dom: float) -> str:
    """The evolve command's stdout line; nan f_dom when no state dominates."""
    return f"convergence_time={fmt(t_conv)} dominant_fidelity={fmt(f_dom)}"


# ---------------------------------------------------------------------------
# phase grids

def grid_to_csv(grid: PhaseGrid) -> str:
    values, mask = grid.values.tolist(), grid.broken_mask.tolist()
    ys = grid.y_axis.values.tolist()
    return csv_text(
        (grid.x_axis.name.lower(), "gamma", "max_im_eps", "broken"),
        ((x, g, v, b) for x, vs, bs in zip(grid.x_axis.values.tolist(), values, mask)
         for g, v, b in zip(ys, vs, bs)))


def _axis_to_dict(axis) -> dict:
    return {"name": axis.name, "scale": axis.scale, "values": axis.values.tolist()}


def grid_to_json(grid: PhaseGrid) -> str:
    return json.dumps({
        "type": "phase_grid",
        "template": spec_to_dict(grid.template),
        "x_axis": _axis_to_dict(grid.x_axis),
        "y_axis": _axis_to_dict(grid.y_axis),
        "values": grid.values.tolist(),
        "broken_threshold": BROKEN_THRESHOLD,
    }, indent=2)


# ---------------------------------------------------------------------------
# boundary tables and figure files

def boundary_table_csv(rows) -> str:
    """rows: (control, exact, perturbative, numeric, rel_gap, mismatch), None
    where a method does not apply."""
    return csv_text(("control_value", "gamma_exact", "gamma_perturbative",
                     "gamma_numeric", "rel_gap_exact_numeric",
                     "validation_mismatch"), rows)


def exact_boundary_csv(overlay) -> str:
    """overlay: (v, exact gamma_c) pairs."""
    return csv_text(("v", "gamma_c_exact"), overlay)


def manifest_to_json(figure: int, params: dict) -> str:
    return json.dumps({
        "figure": figure,
        "note": "parameters chosen to match the qualitative claims; "
                "source publication prints no figure parameter values",
        "parameters": params,
    }, indent=2, default=str)
