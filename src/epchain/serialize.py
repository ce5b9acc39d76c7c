"""CSV / JSON serialization of traces, grids and boundary tables.

Writers only.  CSV output is deterministic: header row always present,
floats printed with 17 significant digits, row order fixed by construction.
"""

from __future__ import annotations

import io
import json
import os
import tempfile

from .analysis import BROKEN_THRESHOLD, PhaseGrid
from .dynamics import EvolutionTrace
from .models import ModelSpec


def fmt(x: float) -> str:
    return format(float(x), ".17g")


def atomic_write(path: str, text: str) -> None:
    """Write-then-rename so readers never observe a partial file."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".epchain-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def spec_to_dict(spec: ModelSpec) -> dict:
    return {
        "kind": spec.kind.value,
        "N": spec.N,
        "V": spec.V,
        "gamma": spec.gamma,
        "J": spec.J,
        "Delta": spec.Delta,
        "ising_boundary": spec.ising_boundary.value,
    }


# ---------------------------------------------------------------------------
# evolution traces

def trace_to_csv(trace: EvolutionTrace) -> str:
    out = io.StringIO()
    out.write("t,fidelity,log_norm\n")
    for t, f, n in zip(trace.times, trace.fidelities, trace.log_norms):
        out.write(f"{fmt(t)},{fmt(f)},{fmt(n)}\n")
    return out.getvalue()


def trace_to_json(trace: EvolutionTrace) -> str:
    return json.dumps(
        {
            "type": "evolution_trace",
            "spec": spec_to_dict(trace.spec),
            "target_name": trace.target_name,
            "gamma_used": trace.gamma_used,
            "times": [float(x) for x in trace.times],
            "fidelities": [float(x) for x in trace.fidelities],
            "log_norms": [float(x) for x in trace.log_norms],
        },
        indent=2,
    )


# ---------------------------------------------------------------------------
# phase grids

def grid_to_csv(grid: PhaseGrid) -> str:
    out = io.StringIO()
    out.write(f"{grid.x_axis.name.lower()},gamma,max_im_eps,broken\n")
    mask = grid.broken_mask
    for i, x in enumerate(grid.x_axis.values):
        for j, g in enumerate(grid.y_axis.values):
            out.write(
                f"{fmt(x)},{fmt(g)},{fmt(grid.values[i, j])},{int(mask[i, j])}\n"
            )
    return out.getvalue()


def grid_to_json(grid: PhaseGrid) -> str:
    return json.dumps(
        {
            "type": "phase_grid",
            "template": spec_to_dict(grid.template),
            "x_axis": {
                "name": grid.x_axis.name,
                "scale": grid.x_axis.scale,
                "values": [float(v) for v in grid.x_axis.values],
            },
            "y_axis": {
                "name": grid.y_axis.name,
                "scale": grid.y_axis.scale,
                "values": [float(v) for v in grid.y_axis.values],
            },
            "values": [[float(v) for v in row] for row in grid.values],
            "broken_threshold": BROKEN_THRESHOLD,
        },
        indent=2,
    )


# ---------------------------------------------------------------------------
# boundary tables

def boundary_table_csv(rows) -> str:
    """rows: iterables of (control, exact, perturbative, numeric, rel_gap, mismatch)."""
    out = io.StringIO()
    out.write(
        "control_value,gamma_exact,gamma_perturbative,gamma_numeric,"
        "rel_gap_exact_numeric,validation_mismatch\n"
    )
    for control, exact, pert, numeric, gap, mismatch in rows:
        cells = [fmt(control)]
        for val in (exact, pert, numeric, gap):
            cells.append("" if val is None else fmt(val))
        cells.append(str(int(mismatch)))
        out.write(",".join(cells) + "\n")
    return out.getvalue()
