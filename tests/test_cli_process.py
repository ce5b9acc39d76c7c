"""Process-wide state around the command line: every command runs with
numpy's BLAS on one thread and restores the caller's thread count, its
output bytes do not depend on that count, and the parser is built once."""

import os
import subprocess
import sys

import pytest

import epchain
from epchain import bethe, cli, linalg
from epchain.errors import NonConvergence

SRC = os.path.dirname(os.path.dirname(epchain.__file__))


@pytest.fixture
def blas():
    """(get, set) of numpy's OpenBLAS thread count, set to 2 for the test so
    a restore that only ever writes 1 shows; the old count comes back after."""
    threads = linalg._blas_threads()
    if threads is None:
        pytest.skip("numpy's BLAS exposes no thread count")
    get, set_ = threads
    old = get()
    set_(2)
    assert get() == 2
    yield get, set_
    set_(old)


def _recording(fn, get, seen):
    def recorded(*args, **kwargs):
        seen.append(get())
        return fn(*args, **kwargs)
    return recorded


def _fail(*args, **kwargs):
    raise NonConvergence("injected failure")


SPECTRUM = ["spectrum", "--model", "xy", "--n", "6", "--v", "2", "--gamma", "0.5"]


@pytest.mark.parametrize("rc, argv, patch", [
    (0, SPECTRUM, None),
    (2, ["spectrum", "--model", "xy", "--n", "6", "--gamma", "-1"], None),
    (3, SPECTRUM, (linalg, "eig", _fail)),
    (4, ["boundary", "--model", "xy", "--n", "6", "--x-range", "10:10:lin:1"],
     (bethe, "exact_boundary_gamma", lambda n, v: 1.0)),
], ids=["exit-0", "exit-2", "exit-3", "exit-4"])
def test_main_restores_the_blas_thread_count(blas, monkeypatch, tmp_path,
                                             rc, argv, patch):
    get, _ = blas
    seen = []
    if patch:
        monkeypatch.setattr(*patch)
    monkeypatch.setattr(cli, "_model_spec", _recording(cli._model_spec, get, seen))
    assert cli.main(argv + ["--out", str(tmp_path / "out.csv")]) == rc
    assert seen == [1]  # the command ran on one thread
    assert get() == 2


def test_main_restores_the_blas_thread_count_on_any_exit(blas, monkeypatch,
                                                         tmp_path):
    get, _ = blas

    def interrupted(*args, **kwargs):
        assert get() == 1
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_model_spec", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(SPECTRUM + ["--out", str(tmp_path / "out.csv")])
    assert get() == 2
    with pytest.raises(SystemExit) as usage_error:
        cli.main(["spectrum", "--model", "tfim"])
    assert usage_error.value.code == 2
    assert get() == 2


def test_main_without_the_blas_handle_leaves_blas_alone(blas, monkeypatch,
                                                        tmp_path):
    get, _ = blas
    argv = SPECTRUM + ["--vectors", "--out"]
    assert cli.main(argv + [str(tmp_path / "pinned.csv")]) == 0
    seen = []
    monkeypatch.setattr(linalg, "_blas_threads", lambda: None)
    monkeypatch.setattr(cli, "_model_spec", _recording(cli._model_spec, get, seen))
    assert cli.main(argv + [str(tmp_path / "alone.csv")]) == 0
    assert seen == [2] and get() == 2
    for suffix in ("", ".vectors.csv"):
        assert ((tmp_path / f"alone.csv{suffix}").read_bytes()
                == (tmp_path / f"pinned.csv{suffix}").read_bytes())


def test_main_builds_the_parser_once(tmp_path):
    parser = cli.build_parser()
    before = cli.build_parser.cache_info().misses
    for name in ("a.csv", "b.csv"):
        assert cli.main(SPECTRUM + ["--out", str(tmp_path / name)]) == 0
    assert cli.build_parser() is parser
    assert cli.build_parser.cache_info().misses == before


# Commands whose dense eigendecompositions (d = 256 and the N = 10 ring's
# momentum blocks) printed different last bits at 1 and 2 BLAS threads
# before the pin.
THREAD_SENSITIVE = [
    ["spectrum", "--model", "ising", "--boundary", "open", "--n", "8",
     "--delta", "0.5", "--gamma", "0.01"],
    ["spectrum", "--model", "xy", "--full-space", "--n", "8", "--v", "3",
     "--gamma", "0.3"],
    ["evolve", "--model", "ising", "--boundary", "open", "--n", "8",
     "--delta", "0.5", "--gamma", "0.05", "--target", "ghz", "--t-max", "200"],
    ["evolve", "--model", "ising", "--n", "10", "--delta", "0.5",
     "--gamma", "0.05", "--target", "ghz", "--t-max", "200"],
]


def _run_commands(out_dir, blas_threads: str):
    """stdout and output files of THREAD_SENSITIVE, run by cli.main in one
    fresh interpreter whose OpenBLAS starts with blas_threads threads."""
    os.makedirs(out_dir)
    argvs = [argv + ["--out", os.path.join(out_dir, f"{i}.csv")]
             for i, argv in enumerate(THREAD_SENSITIVE)]
    code = ("from epchain import cli\n"
            f"for argv in {argvs!r}:\n"
            "    assert cli.main(argv) == 0, argv\n")
    paths = [SRC, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
               PYTHONPATH=os.pathsep.join(filter(None, paths)))
    stdout = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True).stdout
    files = {name: (out_dir / name).read_bytes()
             for name in sorted(os.listdir(out_dir))}
    return stdout, files


def test_output_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    one = _run_commands(tmp_path / "one", "1")
    two = _run_commands(tmp_path / "two", "2")
    assert len(one[1]) == len(THREAD_SENSITIVE)
    assert one[0].count(b"dominant_fidelity=") == 2
    assert one == two
