"""In-process tests of the command-line surface."""

import csv
import json
import math
import sys
from unittest import mock

import numpy as np
import pytest

from epchain import analysis, cli, dynamics, models, serialize


def run(argv):
    return cli.main(argv)


# ---------------------------------------------------------------------------
# spectrum

def test_spectrum_csv(tmp_path):
    out = tmp_path / "spec.csv"
    rc = run(["spectrum", "--model", "xy", "--n", "6", "--v", "2",
              "--gamma", "0.5", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "re,im,residual"
    assert len(lines) == 7
    residuals = [float(l.split(",")[2]) for l in lines[1:]]
    assert max(residuals) < 1e-9


def test_spectrum_json_and_vectors(tmp_path):
    out = tmp_path / "spec.json"
    rc = run(["spectrum", "--model", "xy", "--n", "4", "--gamma", "1.2",
              "--vectors", "--format", "json", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["type"] == "spectrum"
    assert len(payload["eigenvalues"]) == 4
    vec_lines = (tmp_path / "spec.json.vectors.csv").read_text().splitlines()
    assert vec_lines[0] == "eigenvalue_index,component_index,re,im"
    assert len(vec_lines) == 1 + 4 * 4


def test_spectrum_full_space_dimension(tmp_path):
    out = tmp_path / "spec.csv"
    rc = run(["spectrum", "--model", "xy", "--n", "3", "--full-space",
              "--out", str(out)])
    assert rc == 0
    assert len(out.read_text().strip().splitlines()) == 1 + 8


def test_spectrum_bad_gamma_exit_code(tmp_path, capsys):
    rc = run(["spectrum", "--model", "xy", "--n", "6", "--gamma", "-1",
              "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "--gamma" in capsys.readouterr().err


def test_spectrum_determinism(tmp_path):
    argv = ["spectrum", "--model", "ising", "--n", "4", "--j", "1",
            "--delta", "0.7", "--gamma", "0.4", "--out", None]
    texts = []
    for name in ("a.csv", "b.csv"):
        argv[-1] = str(tmp_path / name)
        assert run(list(argv)) == 0
        texts.append((tmp_path / name).read_bytes())
    assert texts[0] == texts[1]


# ---------------------------------------------------------------------------
# phase-diagram

def test_phase_diagram_small_grid(tmp_path):
    out = tmp_path / "grid.csv"
    rc = run(["phase-diagram", "--model", "xy", "--n", "6",
              "--x-range", "2:8:lin:3", "--gamma-range", "0.1:1:lin:3",
              "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 1 + 9  # header + 3x3 nodes


def test_phase_diagram_single_node_json_roundtrip(tmp_path):
    out = tmp_path / "grid.json"
    rc = run(["phase-diagram", "--model", "xy", "--n", "6",
              "--x-range", "0:0:lin:1", "--gamma-range", "1.5:1.5:lin:1",
              "--format", "json", "--out", str(out)])
    assert rc == 0
    grid = json.loads(out.read_text())
    assert np.array(grid["values"]).shape == (1, 1)
    # V=0, gamma=1.5 sits in the broken phase: indicator is positive
    assert grid["values"][0][0] > 0.1
    assert grid["broken_threshold"] == 1e-10


def test_phase_diagram_bad_range_exit_code(tmp_path, capsys):
    rc = run(["phase-diagram", "--model", "xy", "--n", "6",
              "--x-range", "2:8:lin", "--gamma-range", "0.1:1:lin:3",
              "--out", str(tmp_path / "g.csv")])
    assert rc == 2
    assert "--x-range" in capsys.readouterr().err


def test_phase_diagram_log_axis_nonpositive_exit_code(tmp_path, capsys):
    rc = run(["phase-diagram", "--model", "xy", "--n", "4",
              "--x-range", "0:10:log:3", "--gamma-range", "0.1:1:lin:2",
              "--out", str(tmp_path / "g.csv")])
    assert rc == 2
    assert "--x-range: log axis V requires positive range" in capsys.readouterr().err
    rc = run(["boundary", "--model", "ising", "--n", "4",
              "--x-range", "0:2:log:2", "--out", str(tmp_path / "b.csv")])
    assert rc == 2
    assert "--x-range: log axis Delta" in capsys.readouterr().err


def test_phase_diagram_negative_gamma_range_exit_code(tmp_path, capsys):
    out = tmp_path / "g.csv"
    rc = run(["phase-diagram", "--model", "xy", "--n", "6",
              "--x-range", "2:8:lin:3", "--gamma-range=-1:1:lin:3",
              "--out", str(out)])
    assert rc == 2
    assert "--gamma-range" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# evolve

def test_evolve_prints_summary(tmp_path, capsys):
    out = tmp_path / "trace.csv"
    rc = run(["evolve", "--model", "xy", "--n", "6", "--gamma", "1.2",
              "--target", "w", "--t-max", "200", "--out", str(out)])
    assert rc == 0
    msg = capsys.readouterr().out
    assert "convergence_time=" in msg and "dominant_fidelity=" in msg
    f_dom = float(msg.split("dominant_fidelity=")[1].split()[0])
    assert 0.9 < f_dom <= 1.0


def test_evolve_unbroken_prints_nan_dominant_fidelity(tmp_path, capsys):
    # gamma below the W chain's boundary: real spectrum, no dominant state
    rc = run(["evolve", "--model", "xy", "--n", "6", "--gamma", "0.3",
              "--target", "w", "--t-max", "10", "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("convergence_time=")
    assert out.endswith(" dominant_fidelity=nan\n")


def test_evolve_gamma_zero_norm_constant(tmp_path):
    out = tmp_path / "trace.csv"
    rc = run(["evolve", "--model", "xy", "--n", "6", "--v", "1",
              "--target", "bell", "--t-max", "50", "--steps", "500",
              "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()[1:]
    log_norms = [float(r.split(",")[2]) for r in rows]
    assert max(abs(x) for x in log_norms) < 1e-8


def test_evolve_byte_identical(tmp_path):
    texts = []
    for name in ("a.json", "b.json"):
        rc = run(["evolve", "--model", "xy", "--n", "6", "--gamma", "1.3",
                  "--target", "w", "--t-max", "100", "--steps", "300",
                  "--format", "json", "--out", str(tmp_path / name)])
        assert rc == 0
        texts.append((tmp_path / name).read_bytes())
    assert texts[0] == texts[1]


def test_evolve_target_model_compatibility(tmp_path, capsys):
    rc = run(["evolve", "--model", "xy", "--n", "6", "--gamma", "1.2",
              "--target", "ghz", "--t-max", "10",
              "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    rc = run(["evolve", "--model", "ising", "--n", "4", "--delta", "0.5",
              "--gamma", "0.2", "--target", "w", "--t-max", "10",
              "--out", str(tmp_path / "t.csv")])
    assert rc == 2


def test_evolve_init_parsing(tmp_path, capsys):
    rc = run(["evolve", "--model", "xy", "--n", "6", "--gamma", "1.2",
              "--target", "w", "--t-max", "10", "--init", "site:9",
              "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "--init" in capsys.readouterr().err
    rc = run(["evolve", "--model", "ising", "--n", "3", "--delta", "0.5",
              "--gamma", "0.2", "--target", "ghz", "--t-max", "10",
              "--init", "bits:101", "--out", str(tmp_path / "t.csv")])
    assert rc == 0
    rc = run(["evolve", "--model", "ising", "--n", "3", "--delta", "0.5",
              "--gamma", "0.2", "--target", "ghz", "--t-max", "10",
              "--init", "bits:012", "--out", str(tmp_path / "u.csv")])
    assert rc == 2
    assert "--init" in capsys.readouterr().err
    assert not (tmp_path / "u.csv").exists()


def test_evolve_steps_below_two_exit_code(tmp_path, capsys):
    rc = run(["evolve", "--model", "xy", "--n", "6", "--gamma", "1.2",
              "--target", "w", "--t-max", "10", "--steps", "1",
              "--out", str(tmp_path / "t.csv")])
    assert rc == 2
    assert "--steps" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


XY6 = (["--model", "xy", "--n", "6", "--gamma", "1.2", "--target", "w"],
       models.ModelSpec(models.ModelKind.XY_MAGNON, N=6, gamma=1.2), "w")
RING4 = (["--model", "ising", "--n", "4", "--delta", "0.5", "--gamma", "0.3",
          "--target", "ghz"],
         models.ModelSpec(models.ModelKind.TRANSVERSE_ISING, N=4, Delta=0.5,
                          gamma=0.3), "ghz")
INIT_RUNS = {"xy-site3": (XY6, "site:3", models.site_state(6, 3)),
             "ring-site2": (RING4, "site:2", models.single_flip_state(4, 2)),
             "ring-bits0000": (RING4, "bits:0000", models.bitstring_state("0000"))}


@pytest.mark.parametrize("case", INIT_RUNS)
def test_evolve_init_evolves_the_named_state(tmp_path, case):
    (flags, spec, target), init, state = INIT_RUNS[case]
    out = tmp_path / "t.csv"
    rc = run(["evolve", *flags, "--t-max", "20", "--steps", "50",
              "--init", init, "--out", str(out)])
    assert rc == 0
    trace = dynamics.evolve_trace(spec, state, models.target_state(target, spec.N),
                                  20.0, 50, target_name=target)
    assert out.read_text() == serialize.trace_to_csv(trace)


@pytest.mark.parametrize("model, init", [
    (["--model", "ising", "--n", "4", "--delta", "0.5", "--target", "ghz"],
     "bits:101"),
    (["--model", "xy", "--n", "4", "--gamma", "1.2", "--target", "w"],
     "bits:0101"),
    (["--model", "xy", "--n", "4", "--gamma", "1.2", "--target", "w"], "sites:1"),
], ids=["bits-wrong-length", "bits-on-xy", "unknown-prefix"])
def test_evolve_bad_init_exits_before_evolving(tmp_path, capsys, model, init):
    out = tmp_path / "t.csv"
    rc = run(["evolve", *model, "--t-max", "10", "--init", init,
              "--out", str(out)])
    assert rc == 2
    assert "--init" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags, flag", [(["--init", "site:abc"], "--init"),
                                         (["--tol", "0"], "--tol"),
                                         (["--tol=-1e-3"], "--tol"),
                                         (["--tol", "nan"], "--tol"),
                                         (["--t-max", "nan"], "--t-max"),
                                         (["--t-max", "inf"], "--t-max")],
                         ids=["init-site-abc", "tol-zero", "tol-negative",
                              "tol-nan", "t-max-nan", "t-max-inf"])
def test_evolve_bad_flag_exits_before_evolving(tmp_path, capsys, flags, flag):
    out = tmp_path / "t.csv"
    rc = run(["evolve", "--model", "xy", "--n", "6", "--gamma", "1.2",
              "--target", "w", "--t-max", "10", *flags, "--out", str(out)])
    assert rc == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


def test_evolve_overflowing_step_exit_code(tmp_path, capsys):
    # gamma ~ 10 gamma_c, dt = 5e3: exp(-i H dt) is beyond double range, yet
    # the 2-step run succeeds and ends where the 2000-step run ends
    ends = []
    for steps in ("2", "2000"):
        out = tmp_path / f"t{steps}.csv"
        rc = run(["evolve", "--model", "ising", "--n", "6", "--delta", "0.75",
                  "--gamma", "0.0604", "--target", "ghz", "--t-max", "1e4",
                  "--steps", steps, "--out", str(out)])
        assert rc == 0
        ends.append(float(out.read_text().splitlines()[-1].split(",")[1]))
    assert capsys.readouterr().err == ""
    assert abs(ends[0] - ends[1]) < 1e-10


# ---------------------------------------------------------------------------
# boundary

def test_boundary_v_zero_numeric_only(tmp_path):
    out = tmp_path / "boundary.csv"
    rc = run(["boundary", "--model", "xy", "--n", "6",
              "--x-range", "0:0:lin:1", "--out", str(out)])
    assert rc == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    assert float(row[3]) == pytest.approx(1.0, abs=1e-6)
    assert row[1] == "" and row[2] == ""  # no exact/perturbative at V=0


def test_boundary_cross_validation_agrees(tmp_path):
    out = tmp_path / "boundary.csv"
    rc = run(["boundary", "--model", "xy", "--n", "6",
              "--x-range", "10:10:lin:1", "--out", str(out)])
    assert rc == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    exact, pert, numeric = float(row[1]), float(row[2]), float(row[3])
    assert abs(exact - numeric) / numeric < 1e-3
    assert abs(pert - exact) / exact < 0.1


def test_boundary_ising_delta_zero_row_is_zero(tmp_path):
    out = tmp_path / "boundary.csv"
    rc = run(["boundary", "--model", "ising", "--n", "4",
              "--x-range", "0:0.5:lin:2", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()[1:]
    assert rows[0] == "0,,,0,,0"
    scan = analysis.numeric_boundary_gamma(
        models.ModelSpec(models.ModelKind.TRANSVERSE_ISING, N=4), 0.5)
    assert rows[1] == f"0.5,,,{serialize.fmt(scan)},,0"


def test_boundary_exact_holds_where_its_residual_cancels(tmp_path):
    # at N=3, V=1e10 the residual's denominator cancels 60 digits
    out = tmp_path / "boundary.csv"
    rc = run(["boundary", "--model", "xy", "--n", "3",
              "--x-range", "1e10:1e10:log:1", "--out", str(out)])
    assert rc == 0
    row = out.read_text().strip().splitlines()[1].split(",")
    assert float(row[4]) < 1e-6


@pytest.mark.parametrize("n", ["2", "3"])
def test_boundary_exact_column_at_two_and_three_sites(tmp_path, n):
    out = tmp_path / "boundary.csv"
    rc = run(["boundary", "--model", "xy", "--n", n,
              "--x-range", "2.01:50:log:6", "--out", str(out)])
    assert rc == 0
    rows = [r.split(",") for r in out.read_text().strip().splitlines()[1:]]
    assert len(rows) == 6
    for row in rows:
        assert float(row[4]) <= analysis.BOUNDARY_REL_TOL and row[5] == "0"


def test_boundary_underflowing_gamma_exit_code(tmp_path, capsys):
    # gamma_c ~ V^-4 is subnormal at V=1e80 and rounds to 0.0 at V=1e81
    rc = run(["boundary", "--model", "xy", "--n", "6",
              "--x-range", "1e80:1e81:log:2", "--out", str(tmp_path / "b.csv")])
    assert rc == 3
    assert "underflows a double" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# reproduce

def test_reproduce_unknown_figure(tmp_path, capsys):
    rc = run(["reproduce", "--figure", "9", "--out-dir", str(tmp_path)])
    assert rc == 2
    assert "--figure" in capsys.readouterr().err


def test_reproduce_fig1_manifest(tmp_path):
    rc = run(["reproduce", "--figure", "1", "--out-dir", str(tmp_path)])
    assert rc == 0
    manifest = json.loads((tmp_path / "fig1_manifest.json").read_text())
    assert manifest["figure"] == 1
    assert (tmp_path / "fig1_w_N6_gamma1.05.csv").exists()
    assert (tmp_path / "fig1_w_N8_gamma1.5.csv").exists()
    # fidelity at large t is higher for the gamma closest to the boundary
    def final_f(path):
        return float(path.read_text().strip().splitlines()[-1].split(",")[1])
    assert final_f(tmp_path / "fig1_w_N6_gamma1.05.csv") > \
        final_f(tmp_path / "fig1_w_N6_gamma1.5.csv")


def test_reproduce_fig3_outputs(tmp_path):
    rc = run(["reproduce", "--figure", "3", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fig3_bell_N6_V10.0.csv", "fig3_bell_N6_V5.0.csv",
        "fig3_bell_N8_V5.0.csv", "fig3_manifest.json"]
    params = json.loads((tmp_path / "fig3_manifest.json").read_text())["parameters"]
    assert list(params["optimized_gammas"]) == ["N6_V5.0", "N6_V10.0", "N8_V5.0"]
    assert all(g > 0 for g in params["optimized_gammas"].values())
    # the figure table itself is left as it was
    assert "optimized_gammas" not in cli.FIGURES[3][1]


def test_every_csv_table_is_rectangular(tmp_path):
    # the six CSV tables: spectrum, eigenvectors, phase grid, trace,
    # boundary table and the exact-boundary overlay of a grid figure
    out = str(tmp_path / "x")
    model = ["--model", "xy", "--n", "4", "--v", "3", "--gamma", "0.5"]
    for argv in (["spectrum", *model, "--vectors", "--out", out + "_spec.csv"],
                 ["phase-diagram", *model, "--x-range", "2.5:10:log:3",
                  "--gamma-range", "1e-3:1:log:2", "--out", out + "_grid.csv"],
                 ["evolve", *model, "--target", "w", "--t-max", "5", "--steps", "4",
                  "--out", out + "_trace.csv"],
                 ["boundary", *model, "--x-range", "0:3:lin:2",
                  "--out", out + "_boundary.csv"]):
        assert run(argv) == 0
    cli._grid_figure("fig", {"N": [4], "V_range": [2.5, 10.0, "log", 2],
                             "gamma_range": [1e-3, 1.0, "log", 2],
                             "exact_overlay_V": [3, 10]}, str(tmp_path))
    headers = {
        "x_spec.csv": ["re", "im", "residual"],
        "x_spec.csv.vectors.csv": ["eigenvalue_index", "component_index", "re", "im"],
        "x_grid.csv": ["v", "gamma", "max_im_eps", "broken"],
        "x_trace.csv": ["t", "fidelity", "log_norm"],
        "x_boundary.csv": ["control_value", "gamma_exact", "gamma_perturbative",
                           "gamma_numeric", "rel_gap_exact_numeric",
                           "validation_mismatch"],
        "fig_exact_boundary_N4.csv": ["v", "gamma_c_exact"],
    }
    rows = {"x_spec.csv": 4, "x_spec.csv.vectors.csv": 16, "x_grid.csv": 6,
            "x_trace.csv": 4, "x_boundary.csv": 2, "fig_exact_boundary_N4.csv": 2}
    for name, header in headers.items():
        with open(tmp_path / name, newline="") as fh:
            table = list(csv.reader(fh))
        assert table[0] == header, name
        assert len(table) == 1 + rows[name], name
        assert {len(row) for row in table} == {len(header)}, name


# ---------------------------------------------------------------------------
# exit code 4 and --plot

def test_boundary_mismatch_exit_code(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli.bethe, "exact_boundary_gamma", lambda n, v: 1.0)
    out = tmp_path / "boundary.csv"
    rc = run(["boundary", "--model", "xy", "--n", "6",
              "--x-range", "10:10:lin:1", "--out", str(out)])
    assert rc == 4
    assert capsys.readouterr().err.startswith("validation mismatch:")
    row = out.read_text().strip().splitlines()[1].split(",")
    assert float(row[1]) == 1.0 and row[5] == "1"


@pytest.mark.parametrize("argv", [
    ["phase-diagram", "--model", "xy", "--n", "4", "--x-range", "2:8:lin:2",
     "--gamma-range", "0.1:1:lin:2", "--out", "grid.csv"],
    ["reproduce", "--figure", "1", "--out-dir", "figs"],
])
def test_plot_without_matplotlib_exit_code(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.setitem(sys.modules, "matplotlib", None)  # import fails
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--plot"]) == 2
    assert "--plot" in capsys.readouterr().err


def _recording_pyplot():
    """Stand-in for matplotlib.pyplot that records every call."""
    plt = mock.MagicMock()

    def subplots(nrows, ncols, **kwargs):
        axes = np.empty((nrows, ncols), dtype=object)
        for i in range(ncols):
            axes[0, i] = mock.MagicMock()
        return mock.MagicMock(), axes

    plt.subplots.side_effect = subplots
    return plt


@pytest.mark.parametrize("argv, svg, panels", [
    (["phase-diagram", "--model", "xy", "--n", "4", "--x-range", "2:8:lin:2",
      "--gamma-range", "0.1:1:log:2", "--out", "grid.csv"], "grid.svg", 1),
    (["evolve", "--model", "xy", "--n", "4", "--gamma", "1.2", "--target", "w",
      "--t-max", "10", "--steps", "20", "--out", "trace.csv"], "trace.svg", 1),
    (["reproduce", "--figure", "1", "--out-dir", "figs"], "figs/fig1.svg", 2),
])
def test_plot_panels(tmp_path, monkeypatch, argv, svg, panels):
    # matplotlib itself may be absent: this checks the plot plumbing only
    plt = _recording_pyplot()
    monkeypatch.setattr(cli, "_pyplot", lambda enabled: plt if enabled else None)
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--plot"]) == 0
    assert plt.subplots.call_args.args == (1, panels)
    fig = plt.close.call_args.args[0]
    assert fig.savefig.call_args.args == (svg,)
