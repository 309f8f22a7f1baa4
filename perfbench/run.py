"""Outside-in benchmark of sdepath: the two studies and the simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seconds S] [--trace 0|1]

Each iteration runs `sdepath.cli.main` once in a fresh interpreter, with
`--threads 1`; iterations follow one another (a closed loop with one
client) until the next would end after S seconds, and always at least one
runs (one untraced and one traced with --trace 1).  Every iteration's
outputs are checked.  The last line of standard output is one JSON object:
with --trace 0 it carries the end-to-end metrics (wall_s, setup_s,
peak_rss_mb; medians over the iterations), with --trace 1 the per-layer
metrics of the traced iterations.  `attempted`/`failed` count operations:
solves for the studies, simulated paths for `simulate`.

`--workload all` runs every workload at the given seed and prints a table
with the failure share of each; it is for people, not for comparisons.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import metrics
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_PROBES = 10         # import-only processes before and after the loop
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


@dataclass
class Iteration:
    mode: str
    setup_s: float
    wall_s: float
    peak_rss_mb: float
    check_ok: bool
    detail: str
    succeeded: int
    digest: str
    trace: dict = field(default=None, repr=False)


def _child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env["PERFBENCH_SRC"] = str(SRC.resolve())
    # one BLAS thread: the workloads are single-threaded by design and the
    # matrices are at most 2x2, so pool threads would only add noise
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(run_dir: Path, tag: str, mode: str, argv=()) -> dict:
    """Run child.py once and return its result; raise BenchError on a crash."""
    result = run_dir / (tag + ".json")
    log = run_dir / (tag + ".log")
    cmd = [sys.executable, str(BENCH / "child.py"), str(result), mode, *argv]
    with open(log, "w") as fh:
        try:
            proc = subprocess.run(cmd, cwd=str(ROOT), env=_child_env(),
                                  stdout=fh, stderr=subprocess.STDOUT,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError("%s: no result within %d s" % (tag, CHILD_TIMEOUT_S))
    if proc.returncode != 0 or not result.is_file():
        tail = log.read_text()[-2000:]
        raise BenchError("%s: child exited %d\n%s" % (tag, proc.returncode, tail))
    data = json.loads(result.read_text())
    result.unlink()
    return data


def _digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*.csv")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_iteration(w: workloads.Workload, seed: int, run_dir: Path,
                  config_path: Path, index: int, mode: str) -> Iteration:
    out = run_dir / ("out%d" % index)
    res = run_child(run_dir, "it%d" % index, mode,
                    w.argv(seed, config_path, out))
    check_ok, detail = True, ""
    try:
        if res["rc"] != 0:
            raise workloads.CheckFailed("sdepath exited %d" % res["rc"])
        w.check(out)
    except workloads.CheckFailed as exc:
        check_ok, detail = False, str(exc)
    if w.solves:
        succeeded = sum(s == "converged" for s in res["statuses"])
    else:
        succeeded = w.operations if res["rc"] == 0 else 0
    digest = _digest(out) if out.is_dir() else ""
    shutil.rmtree(out, ignore_errors=True)
    return Iteration(mode, res["setup_s"], res["wall_s"], res["peak_rss_mb"],
                     check_ok, detail, succeeded, digest, res.get("trace"))


def measure(w: workloads.Workload, seed: int, seconds: float,
            trace: bool) -> dict:
    """Run the closed loop for one workload and return the result object."""
    if not (SRC / "sdepath" / "cli.py").is_file():
        raise BenchError("no sdepath sources under %s" % SRC)
    run_dir = WORK / ("%s-%d-%d" % (w.name, seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return _measure(w, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _measure(w, seed, seconds, trace, run_dir) -> dict:
    config_path = run_dir / "config.json"
    config_path.write_text(json.dumps(w.config, indent=2))
    # untimed: compiles bytecode and warms the file cache, which a user
    # pays once, not on every run
    run_child(run_dir, "warmup", "setup")

    def probe_setup():
        return [run_child(run_dir, "setup", "setup")["setup_s"]
                for _ in range(SETUP_PROBES)]

    setups = probe_setup()
    modes = ("plain", "trace") if trace else ("plain",)
    iters, last = [], {}
    t_start = time.perf_counter()
    while True:
        mode = modes[len(iters) % len(modes)]
        t0 = time.perf_counter()
        iters.append(run_iteration(w, seed, run_dir, config_path, len(iters),
                                   mode))
        last[mode] = time.perf_counter() - t0
        if len(iters) < len(modes):
            continue
        upcoming = modes[len(iters) % len(modes)]
        if time.perf_counter() - t_start + last[upcoming] > seconds:
            break
    setups += probe_setup() + [it.setup_s for it in iters]

    plain = [it for it in iters if it.mode == "plain"]
    attempted = w.operations * len(iters)
    failed = sum(metrics.failed_ops(w.operations, it.succeeded, it.check_ok)
                 for it in iters)
    problems = ["iteration %d: %s" % (i, it.detail)
                for i, it in enumerate(iters) if not it.check_ok]
    if len({it.digest for it in iters}) != 1:
        problems.append("outputs differ between iterations of one seed")

    if trace:
        traced = [it for it in iters if it.mode == "trace"]
        layers = [metrics.layer_metrics(it.trace) for it in traced]
        values, unstable = metrics.combine_traced(
            layers, [it.wall_s for it in traced], [it.wall_s for it in plain])
        if unstable is not None:
            problems.append("count %s differs between traced iterations"
                            % unstable)
        units = metrics.per_layer_units()
        spans_file = WORK / ("spans-%s-%d.json" % (w.name, seed))
        spans_file.write_text(json.dumps(traced[-1].trace))
    else:
        values = {"wall_s": metrics.median([it.wall_s for it in plain]),
                  "setup_s": metrics.median(setups),
                  "peak_rss_mb": metrics.median([it.peak_rss_mb
                                                 for it in plain])}
        units = metrics.END_TO_END
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
        "problems": problems,
        "iterations": [{"mode": it.mode, "wall_s": it.wall_s,
                        "setup_s": it.setup_s, "peak_rss_mb": it.peak_rss_mb,
                        "succeeded": it.succeeded, "check_ok": it.check_ok}
                       for it in iters],
    }


# ---------------------------------------------------------------------------
# environment

def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seeds: dict) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = "%s %s" % (blas.get("name"), blas.get("version"))
    except (TypeError, KeyError):
        blas_name = "unknown"
    env = _child_env()
    return {"git_commit": _git_commit(), "nproc": os.cpu_count(),
            "cpu_model": _cpu_model(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas_name,
            "blas_threads": {v: env[v] for v in ("OPENBLAS_NUM_THREADS",
                                                  "OMP_NUM_THREADS",
                                                  "MKL_NUM_THREADS")},
            "seeds": seeds}


# ---------------------------------------------------------------------------

def _print_table(name: str, seed: int, result: dict) -> None:
    print("%s (seed %d): %d iterations, correct=%s"
          % (name, seed, len(result["iterations"]), result["correct"]))
    for metric, entry in result["metrics"].items():
        print("  %-44s %14.6g %s" % (metric, entry["value"], entry["unit"]))
    print("  %-44s %14.6g %s" % ("failed_frac",
                                  result["failed"] / result["attempted"],
                                  "ratio (%d of %d operations)"
                                  % (result["failed"], result["attempted"])))
    print("  per iteration: " + ", ".join(
        "%s %.3f s" % (it["mode"], it["wall_s"]) for it in result["iterations"]))
    for problem in result["problems"]:
        print("  CHECK FAILED: %s" % problem)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must lie in [0, 2^64)")
    names = (sorted(workloads.WORKLOADS) if args.workload == "all"
             else [args.workload])
    try:
        results = {name: measure(workloads.WORKLOADS[name], args.seed,
                                 args.seconds, bool(args.trace))
                   for name in names}
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 2
    for name, result in results.items():
        _print_table(name, args.seed, result)
    print("environment: " + json.dumps(environment(
        {name: args.seed for name in names}), sort_keys=True))
    keys = ("correct", "attempted", "failed", "metrics")
    if args.workload == "all":
        print(json.dumps({name: {k: r[k] for k in keys}
                          for name, r in results.items()}))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps({k: results[names[0]][k] for k in keys}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
