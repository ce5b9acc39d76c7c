"""Unit tests of the writers in epchain.serialize."""

import math
import os

import pytest

from epchain import models, serialize


def test_csv_text_cells():
    text = serialize.csv_text(("a", "b", "c", "d", "e"),
                              [(None, 3, True, False, math.inf)])
    assert text == "a,b,c,d,e\n,3,1,0,inf\n"
    assert serialize.csv_text(("t", "f"), []) == "t,f\n"


@pytest.mark.parametrize("x", [1 / 3, 0.1, -2.5e17, 5e-324, 1.7976931348623157e308,
                               math.pi * 1e-9])
def test_csv_text_float_round_trips(x):
    header, row = serialize.csv_text(("x",), [(x,)]).splitlines()
    assert header == "x" and float(row) == x


def test_evolve_summary_prints_inf_and_nan():
    # convergence_time's +inf (a trace that never settles) and the nan of a
    # run with no dominant state print as the bare words inf and nan
    assert (serialize.evolve_summary(math.inf, math.nan)
            == "convergence_time=inf dominant_fidelity=nan")
    assert (serialize.evolve_summary(4.54, 0.5)
            == "convergence_time=4.54 dominant_fidelity=0.5")


def test_spec_to_dict_keeps_field_order():
    spec = models.ModelSpec(models.ModelKind.TRANSVERSE_ISING, N=4, Delta=0.5,
                            ising_boundary=models.IsingBoundary.OPEN)
    assert serialize.spec_to_dict(spec) == {
        "kind": spec.kind.value, "N": 4, "V": 0.0, "gamma": 0.0, "J": 1.0,
        "Delta": 0.5, "ising_boundary": "open"}
    assert list(serialize.spec_to_dict(spec)) == [
        "kind", "N", "V", "gamma", "J", "Delta", "ising_boundary"]


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600),
                                         (0o002, 0o664)])
def test_atomic_write_mode_follows_umask(tmp_path, umask, mode):
    # as open(path, "w") would: 0o666 less the umask, for a new file and
    # for one that replaces an existing file
    path = tmp_path / "out.csv"
    old = os.umask(umask)
    try:
        serialize.atomic_write(str(path), "a\n")
        first = path.stat().st_mode & 0o777
        serialize.atomic_write(str(path), "b\n")
        second = path.stat().st_mode & 0o777
    finally:
        os.umask(old)
    assert (first, second) == (mode, mode)
    assert path.read_text() == "b\n"
    assert os.listdir(tmp_path) == ["out.csv"]  # no temporary file left


def test_atomic_write_failure_leaves_no_file(tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(TypeError):
        serialize.atomic_write(str(path), b"not text")
    assert os.listdir(tmp_path) == []
