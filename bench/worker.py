"""One benchmark process: import epchain, warm up, run timed passes, check.

Started by ``run.py``; prints ``READY`` on stdout once warm and one JSON
line with its results when done.  Modes:

* ``measure`` -- timed passes until ``--seconds`` is used up, then, with
  ``--check 1``, the oracles on the first pass; with ``--trace 1`` untraced
  and traced passes alternate;
* ``serial``  -- exactly one untraced pass (the single-thread reference).

Everything the program prints goes into a buffer, so stdout carries only
the protocol lines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("EPCHAIN_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def host_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the machine so far, from /proc/stat.

    Steal is time the hypervisor ran something else while this machine's
    CPUs had work; it lengthens wall time but not the process's CPU time."""
    try:
        with open("/proc/stat") as fh:
            ticks = [int(x) for x in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    return ticks[7], sum(ticks)


def import_epchain():
    sys.path.insert(0, SRC)
    import epchain
    from epchain import analysis, cli, models

    if not os.path.abspath(epchain.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"epchain imported from {epchain.__file__}, not {SRC}")
    return analysis, cli, models


class Runner:
    def __init__(self, work: str):
        self.work = work
        self.analysis, self.cli, self.models = import_epchain()

    def spec(self, job: dict):
        m = self.models
        if job["model"] == "xy":
            return m.ModelSpec(m.ModelKind.XY_MAGNON, N=job["N"], V=job["control"])
        return m.ModelSpec(m.ModelKind.TRANSVERSE_ISING, N=job["N"],
                           Delta=job["control"])

    def run_job(self, job: dict, optima: dict) -> dict:
        """Run one job; never raises for a failure of the program."""
        if job["kind"] == "optimize":
            target = self.models.target_state(job["target"], job["N"])
            try:
                optima[job["name"]] = self.analysis.optimize_gamma(
                    self.spec(job), target, job["t_max"])
                return {"rc": 0}
            except Exception as exc:  # recorded as a failed operation
                return {"rc": f"exception:{type(exc).__name__}"}
        argv = list(job["argv"])
        argv[argv.index("--out") + 1] = os.path.join(self.work, job["out"])
        if job.get("after"):
            if job["after"] not in optima:
                return {"rc": "skipped", "argv": argv}
            argv += ["--gamma", repr(optima[job["after"]][0])]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                rc = self.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # recorded as a failed operation
                rc = f"exception:{type(exc).__name__}"
        return {"rc": rc, "argv": argv}

    def run_pass(self, jobs: list[dict]) -> dict:
        optima: dict = {}
        h0 = host_ticks()
        r0, t0 = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
        results = [self.run_job(job, optima) for job in jobs]
        t1, r1 = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
        h1 = host_ticks()
        steal = None
        if h0 and h1 and h1[1] > h0[1]:
            steal = (h1[0] - h0[0]) / (h1[1] - h0[1])
        outputs = {}
        for job in jobs:
            path = os.path.join(self.work, job.get("out", ""))
            if job["kind"] == "cli" and os.path.exists(path):
                with open(path) as fh:
                    outputs[job["out"]] = fh.read()
                os.remove(path)  # a later pass must write its own
        digest = hashlib.sha256(json.dumps(
            [outputs, [r["rc"] for r in results], sorted(optima.items())],
            sort_keys=True).encode()).hexdigest()
        return {"wall": t1 - t0,
                "cpu": (r1.ru_utime + r1.ru_stime) - (r0.ru_utime + r0.ru_stime),
                "steal": steal,
                "results": results, "outputs": outputs, "optima": optima,
                "digest": digest}

    # -- oracles -----------------------------------------------------------

    def check(self, jobs: list[dict], first: dict, seed: int) -> tuple[int, list[str], dict]:
        """Failed operations and oracle problems of one pass's outputs."""
        import oracle

        rng = random.Random(f"oracle/{seed}")
        failed, problems = 0, []
        counts = {"nan_nodes": 0, "escalations": 0, "exit": {}}
        for job, res in zip(jobs, first["results"]):
            rc, text = res["rc"], first["outputs"].get(job.get("out"))
            if rc != 0:
                key = str(rc)
                counts["exit"][key] = counts["exit"].get(key, 0) + 1
            if job["kind"] == "optimize":
                if rc != 0:
                    failed += 1
                    problems.append(f"optimize {job['name']}: {rc}")
                continue
            argv_job = dict(job, argv=res.get("argv", job["argv"]))
            if job["argv"][0] == "phase-diagram":
                if text is None:
                    failed += job["ops"]
                    problems.append(f"{job['out']}: no output (exit {rc})")
                    continue
                sample = job["ops"] if job["model"] == "ising" else 400
                p, nan_nodes, bad = oracle.check_grid(argv_job, text, rng, sample)
                counts["nan_nodes"] += nan_nodes
                failed += nan_nodes + bad
                problems += p
                if (rc == 3) != (nan_nodes > 0) or rc not in (0, 3):
                    problems.append(f"{job['out']}: exit {rc} with {nan_nodes} NaN nodes")
            elif job["argv"][0] == "boundary":
                p, bad, escalated = oracle.check_boundary(job, text, rc)
                counts["escalations"] += escalated
                failed += bad
                problems += p
            else:
                optimum = None
                if job.get("after"):
                    opt = first["optima"].get(job["after"])
                    if opt is None:
                        failed += 1
                        problems.append(f"{job['out']}: no optimum to evolve at")
                        continue
                    g_c = self.analysis.numeric_boundary_gamma(self.spec(job),
                                                               job["control"])
                    optimum = (opt[0], opt[1], g_c)
                p = oracle.check_trace(argv_job, text, rc, optimum)
                failed += bool(p)
                problems += p
        return failed, problems, counts


def provenance(runner: Runner) -> dict:
    import mpmath
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        # the pool size sweep_grid will use, by the program's own rule
        "sweep_pool": runner.analysis._sweep_workers(),
        "thread_vars": {k: os.environ.get(k) for k in THREAD_VARS},
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__, "python": sys.version.split()[0],
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def measure(runner: Runner, spec: dict, args) -> dict:
    """Passes until the time budget is spent (at least one; with --trace 1,
    untraced and traced passes alternate, at least two of each)."""
    jobs = spec["jobs"]
    deadline = time.perf_counter() + args.seconds
    untraced, traced, layer = [], [], []
    tracer = None
    if args.trace:
        from tracer import DETERMINISTIC, Tracer, layer_metrics
        tracer = Tracer()
    while True:
        done = untraced + traced
        if (len(done) >= (4 if args.trace else 1) and time.perf_counter()
                + statistics.median(p["wall"] for p in done) > deadline):
            break
        if tracer is not None and len(done) % 2 == 1:
            tracer.spans.clear()
            tracer.install()
            try:
                traced.append(runner.run_pass(jobs))
            finally:
                tracer.uninstall()
            layer.append(list(tracer.spans))
        else:
            untraced.append(runner.run_pass(jobs))
    out = {"walls": [p["wall"] for p in untraced],
           "cpus": [p["cpu"] for p in untraced],
           "steals": [p["steal"] for p in untraced],
           "traced_walls": [p["wall"] for p in traced],
           "digests": [p["digest"] for p in untraced + traced],
           "ops_per_pass": sum(j["ops"] for j in jobs),
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
           "provenance": provenance(runner), "check": None}
    if args.check:
        failed, problems, counts = runner.check(jobs, (untraced + traced)[0], args.seed)
        out["check"] = {"failed": failed, "problems": problems, "counts": counts}
    if tracer is not None:
        pool = out["provenance"]["sweep_pool"]
        per_pass = [layer_metrics(spans, pool) for spans in layer]
        out["layer"] = {}
        for name in per_pass[0]:
            values = [m[name] for m in per_pass]
            if name in DETERMINISTIC and len(set(values)) > 1:
                out["check"]["problems"].append(
                    f"{name} differs between traced passes: {values}")
            out["layer"][name] = statistics.median(values)
        os.makedirs(args.trace_dir, exist_ok=True)
        path = os.path.join(args.trace_dir, f"spans-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["id", "name", "start", "end", "parent",
                                  "thread", "info"],
                       "passes": layer}, fh)
        out["spans_file"] = os.path.relpath(path, ROOT)
    return out


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--mode", choices=["measure", "serial"], required=True)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--check", type=int, choices=[0, 1], default=0)
    p.add_argument("--work", required=True)
    p.add_argument("--trace-dir", default="")
    args = p.parse_args()

    protocol = sys.stdout
    runner = Runner(args.work)
    spec = workloads.generate(args.workload, args.seed)
    for job in spec["warmup"]:
        res = runner.run_job(job, {})
        if res["rc"] != 0:
            raise SystemExit(f"warm-up job {job['argv']} failed: {res}")
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(args.work, job["out"]))
    print("READY", file=protocol, flush=True)
    if args.mode == "serial":
        out = {"wall": runner.run_pass(spec["jobs"])["wall"]}
    else:
        out = measure(runner, spec, args)
    print(json.dumps(out), file=protocol, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
