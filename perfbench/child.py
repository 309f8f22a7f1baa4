"""One workload iteration in a fresh interpreter.

    python3 child.py RESULT_JSON MODE [sdepath arguments...]

MODE is `setup` (import only), `plain` (untraced run) or `trace`.  The
import of sdepath.cli is timed before anything else of the package loads.
The result file holds setup_s and peak_rss_mb, and for a run also wall_s
(seconds inside cli.main), the exit code, the solve statuses and, when
traced, the spans and counters.
"""

import json
import os
import resource
import sys
import time


def main() -> int:
    result_path, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    from sdepath import cli
    setup_s = time.perf_counter() - t0
    src = os.environ["PERFBENCH_SRC"]
    if os.path.commonpath([os.path.realpath(cli.__file__), src]) != src:
        print("sdepath was imported from %s, not from %s" % (cli.__file__, src),
              file=sys.stderr)
        return 2
    result = {"setup_s": setup_s}
    if mode != "setup":
        import tracer
        statuses = []
        tracer.record_solves(statuses)
        if mode == "trace":
            trace = tracer.Tracer(run_id=os.path.basename(result_path))
            trace.install()
        t1 = time.perf_counter()
        rc = cli.main(argv)
        wall_s = time.perf_counter() - t1
        result.update(rc=rc, wall_s=wall_s, statuses=statuses)
        if mode == "trace":
            result["trace"] = trace.dump()
    result["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
