"""epchain benchmark: one workload, one seed, one measurement.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads, metrics and bounds are declared in
BENCHMARK.json; bench/README.md says why each exists and which layer metric
should move which end-to-end metric.

Load model: closed loop, one client.  A fresh worker process (worker.py)
imports epchain from ./src, runs an untimed warm-up job, then runs the
workload's pass -- one job at a time, each job one ``epchain.cli.main`` call
or one ``analysis.optimize_gamma`` call -- again and again until its share
of ``--seconds`` is spent, and at least once.
The only parallelism is the program's own (the sweep_grid thread pool and
BLAS); the thread variables are never set for measured runs.

``--trace 0`` splits the run over four fresh workers, one after another,
and reports the end-to-end metrics: set-up time, wall and CPU seconds per
pass, and peak RSS, each the median over the workers' samples.  Several
short-lived processes rather than one long one, because the speed of a
process stays fairly constant over its life while fresh processes differ.
``--trace 1`` runs one worker that alternates untraced and traced passes,
and reports the per-layer metrics, trace.overhead, and the wall time of one
pass in a single-threaded child (grid workloads).  Outputs are checked
against the oracles in oracle.py after the timed passes; the last stdout
line is the JSON result, and the exit code is 1 when a check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKERS = 4
WORKER_TIMEOUT_S = 170.0
SERIAL_ENV = {"EPCHAIN_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "OMP_NUM_THREADS": "1"}
GRID_WORKLOADS = ("ising-grid", "xy-grid")


class BenchError(RuntimeError):
    pass


def spawn(mode: str, args, work: str, seconds: float, check: bool,
          env: dict | None = None) -> tuple[float, dict]:
    """Run one worker; return (seconds until READY, its JSON result)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(args.trace),
           "--check", str(int(check)), "--work", work,
           "--trace-dir", os.path.join(ROOT, ".bench_out")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            env=None if env is None else {**os.environ, **env})
    timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        ready_line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        rest = proc.stdout.read()
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or ready_line.strip() != "READY" or not lines:
        raise BenchError(f"worker {mode} exited {proc.returncode}")
    return ready, json.loads(lines[-1])


def source_identity() -> dict:
    """The git commit when there is one, and a digest of src/ always."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "epchain")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"git_commit": commit, "src_sha256": digest.hexdigest()}


def end_to_end(args, work: str) -> tuple[dict, list[dict]]:
    """WORKERS fresh processes, each measuring seconds / WORKERS; the last
    one also runs the oracles.  Medians pool the passes of all of them."""
    setups, results = [], []
    for k in range(WORKERS):
        ready, res = spawn("measure", args, work, args.seconds / WORKERS,
                           check=k == WORKERS - 1)
        setups.append(ready)
        results.append(res)
    walls = [w for r in results for w in r["walls"]]
    cpus = [c for r in results for c in r["cpus"]]
    metrics = {"setup_s": statistics.median(setups),
               "wall_s": statistics.median(walls),
               "cpu_s": statistics.median(cpus),
               "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results)}
    results[-1]["setup_samples"] = setups
    return metrics, results


def per_layer(args, work: str) -> tuple[dict, list[dict]]:
    _, res = spawn("measure", args, work, args.seconds, check=True)
    metrics = dict(res["layer"])
    metrics["trace.overhead"] = (statistics.median(res["traced_walls"])
                                 / statistics.median(res["walls"]) - 1.0)
    serial = 0.0
    if args.workload in GRID_WORKLOADS:
        serial = spawn("serial", args, work, 0.0, check=False,
                       env=SERIAL_ENV)[1]["wall"]
    metrics["analysis.sweep_grid.serial_wall_s"] = serial
    return metrics, [res]


def failures(results: list[dict]) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over every pass of every worker.

    The oracles judged the first pass of the last worker; a pass with the
    same output digest has the same verdict, any other pass fails whole."""
    check = results[-1]["check"]
    ops = results[-1]["ops_per_pass"]
    reference = results[-1]["digests"][0]
    digests = [d for r in results for d in r["digests"]]
    problems = list(check["problems"])
    failed = 0
    for k, digest in enumerate(digests):
        if digest == reference:
            failed += check["failed"]
        else:
            failed += ops
            problems.append(f"pass {k} output differs from the checked pass")
    return ops * len(digests), failed, problems


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    if args.workload not in [w["name"] for w in declared["workloads"]]:
        p.error(f"unknown workload {args.workload!r}")
    if not os.path.isfile(os.path.join(ROOT, "src", "epchain", "__init__.py")):
        print("error: src/epchain not found; run from an epchain checkout",
              file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        metrics, results = (per_layer if args.trace else end_to_end)(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2

    attempted, failed, problems = failures(results)
    correct = not problems
    last = results[-1]
    counts = last["check"]["counts"]
    provenance = {**last["provenance"], **source_identity(), "seed": args.seed,
                  "workload": args.workload, "seconds": args.seconds,
                  "trace": args.trace}

    walls = [w for r in results for w in r["walls"]]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"workers {len(results)}  passes {len(walls)} untraced, "
          f"{sum(len(r['traced_walls']) for r in results)} traced")
    for name, value in metrics.items():
        print(f"  {name:52s} {value:14.6g} {units[name]}")
    if not args.trace:
        q1, q2, q3 = statistics.quantiles(walls, n=4)
        c1, c2, c3 = statistics.quantiles([c for r in results for c in r["cpus"]], n=4)
        print(f"  wall_s quartiles {q1:.4f} {q2:.4f} {q3:.4f} s; cpu_s quartiles "
              f"{c1:.4f} {c2:.4f} {c3:.4f} s; setup samples "
              f"{' '.join(f'{s:.3f}' for s in last['setup_samples'])} s")
        steals = [s for r in results for s in r["steals"] if s is not None]
        if steals:
            print(f"  host steal during passes: median {statistics.median(steals):.1%}, "
                  f"max {max(steals):.1%} of machine CPU time")
    print(f"  fail_ratio {failed / attempted:.6g} ratio  "
          f"(failed {failed} / attempted {attempted} operations; NaN nodes "
          f"{counts['nan_nodes']}, exit codes {counts['exit']}, "
          f"escalated points {counts['escalations']} per pass)")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    print(f"  provenance {json.dumps(provenance, sort_keys=True)}")

    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    record = {"metrics": metrics, "units": units, "attempted": attempted,
              "failed": failed, "correct": correct, "problems": problems,
              "provenance": provenance, "workers": results}
    with open(os.path.join(out_dir, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
