"""Metric names and units, and the arithmetic that turns iterations and
spans into metrics.  Pure functions of their arguments, so the self-tests
can check them without running a workload."""

from __future__ import annotations

import statistics

from workloads import KINDS, LADDER

# end-to-end metrics, measured with tracing off
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

MERITS = {"euler_merit": "euler", "trapezoidal_merit": "trapezoidal",
          "benes_exact_merit": "exact"}
FUNCTIONALS = ("euler_merit", "euler_energy", "trapezoidal_merit",
               "benes_exact_merit")
ROWS = ("f_rows", "jac_rows", "jdc_rows")


def per_layer_units() -> dict:
    """Every per-layer metric of a traced run, in report order, with its unit."""
    units = {
        "optimizer.solves": "count",
        "optimizer.iterations": "count",
        "optimizer.evals": "count",
        "optimizer.evals_per_iter": "ratio",
        "optimizer.converged_ratio": "ratio",
        "optimizer.self_s": "s",
    }
    for kind in KINDS:
        for n in LADDER:
            units["optimizer.iterations.%s.N%d" % (kind, n)] = "count"
        units["optimizer.iterations.%s.cold" % kind] = "count"
    for fn in FUNCTIONALS:
        units["functionals.%s.calls" % fn] = "count"
        units["functionals.%s.us_per_call" % fn] = "us"
    units["functionals.density_us_per_call"] = "us"
    units["functionals.busy_s"] = "s"
    units["model.drift_calls"] = "count"
    units["model.drift_s"] = "s"
    for rows in ROWS:
        units["model.%s.us_per_call" % rows] = "us"
    units.update({
        "simulate.steps": "count",
        "simulate.us_per_step": "us",
        "simulate.strong_order_15_s": "s",
        "simulate.sample_measurements_s": "s",
        "cli.self_s": "s",
        "cli.compute_ise_s": "s",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
    })
    return units


# per-layer metrics that are counts: identical in every traced iteration
# of one workload and seed
COUNTS = frozenset(name for name, unit in per_layer_units().items()
                   if unit == "count")


def self_times(spans) -> dict:
    """Span id -> its duration minus the durations of its direct children.

    Spans come from one thread and nest properly, so direct children never
    overlap and their durations can be summed.
    """
    own = {s[0]: s[4] - s[3] for s in spans}
    for s in spans:
        if s[1] in own:
            own[s[1]] -= s[4] - s[3]
    return own


def failed_ops(attempted: int, succeeded: int, check_ok: bool) -> int:
    """Operations that failed in one iteration.

    Every operation of an iteration whose output check fails counts as
    failed; otherwise those that did not succeed do, including any that
    never ran.
    """
    if not check_ok:
        return attempted
    return attempted - min(max(succeeded, 0), attempted)


def layer_metrics(dump: dict) -> dict:
    """Per-layer metrics (without the trace.* pair) of one traced iteration."""
    spans = dump["spans"]
    counters = dump["counters"]
    own = self_times(spans)
    by_id = {s[0]: s for s in spans}
    dur = {s[0]: s[4] - s[3] for s in spans}
    groups, children = {}, {}
    for s in spans:
        groups.setdefault(s[2], []).append(s)
        children.setdefault(s[1], []).append(s)

    def named(name):
        return groups.get(name, [])

    def total(name):
        return sum(dur[s[0]] for s in named(name))

    def per_call_us(name):
        calls = named(name)
        return 1e6 * total(name) / len(calls) if calls else 0.0

    out = {name: 0 for name in per_layer_units()}

    # optimizer: a solve's evaluations are its direct merit children
    solves = named("optimizer.maximize")
    iterations = sum(s[5]["iterations"] for s in solves if "iterations" in s[5])
    evals = sum(len(children.get(s[0], ())) for s in solves)
    out["optimizer.solves"] = len(solves)
    out["optimizer.iterations"] = iterations
    out["optimizer.evals"] = evals
    out["optimizer.evals_per_iter"] = evals / iterations if iterations else 0.0
    out["optimizer.converged_ratio"] = (
        sum(s[5].get("status") == "converged" for s in solves) / len(solves)
        if solves else 0.0)
    out["optimizer.self_s"] = sum(own[s[0]] for s in solves)
    for study in named("optimizer.convergence_study"):
        seen = set()
        for solve in (c for c in children.get(study[0], ())
                      if c[2] == "optimizer.maximize"):
            merits = [c[2].split(".", 1)[1] for c in children.get(solve[0], ())]
            kind = MERITS.get(merits[0]) if merits else None
            n = solve[5].get("n")
            if kind is None or "iterations" not in solve[5]:
                continue
            key = ("optimizer.iterations.%s.cold" % kind if n in seen
                   else "optimizer.iterations.%s.N%d" % (kind, n))
            seen.add(n)
            if key in out:
                out[key] = solve[5]["iterations"]

    # functionals
    for fn in FUNCTIONALS:
        out["functionals.%s.calls" % fn] = len(named("functionals." + fn))
        out["functionals.%s.us_per_call" % fn] = per_call_us("functionals." + fn)
    n_euler = len(named("functionals.euler_merit"))
    out["functionals.density_us_per_call"] = (
        1e6 * (total("functionals.euler_merit")
               - total("functionals.euler_energy")) / n_euler
        if n_euler else 0.0)
    out["functionals.busy_s"] = sum(
        dur[s[0]] for s in spans
        if s[2].startswith("functionals.")
        and not (s[1] in by_id and by_id[s[1]][2].startswith("functionals.")))

    # model: scalar callbacks are counters, row callbacks are spans
    rows = [s for name in ("model.f_rows", "model.jac_rows", "model.div_rows",
                           "model.jdc_rows") for s in named(name)]
    scalar = [v for k, v in counters.items() if k.startswith("model.drift.")]
    out["model.drift_calls"] = len(rows) + sum(v["calls"] for v in scalar)
    out["model.drift_s"] = (sum(dur[s[0]] for s in rows)
                            + sum(v["seconds"] for v in scalar))
    for name in ROWS:
        out["model.%s.us_per_call" % name] = per_call_us("model." + name)

    # simulate: steps are counted from the returned paths
    paths = named("simulate.strong_order_15") + named("simulate.euler_maruyama")
    steps = sum(s[5]["steps"] for s in paths if s[5] and "steps" in s[5])
    out["simulate.steps"] = steps
    out["simulate.us_per_step"] = (1e6 * sum(dur[s[0]] for s in paths) / steps
                                   if steps else 0.0)
    out["simulate.strong_order_15_s"] = total("simulate.strong_order_15")
    out["simulate.sample_measurements_s"] = total("simulate.sample_measurements")

    # cli: own time of every cli span except the ISE, which is its own metric
    out["cli.self_s"] = sum(own[s[0]] for s in spans
                            if s[2].startswith("cli.")
                            and s[2] != "cli.compute_ise")
    out["cli.compute_ise_s"] = total("cli.compute_ise")
    del out["trace.wall_s"], out["trace.overhead_s"]
    return out


def median(values):
    return statistics.median(values) if values else 0.0


def combine_traced(layer_runs, traced_walls, untraced_walls):
    """Per-layer metrics of a run from its traced iterations.

    Times are medians.  Counts are taken from the first iteration; the
    second value returned names the first count that differs in another
    iteration, or is None when all agree.
    """
    out, unstable = {}, None
    for name in per_layer_units():
        if name.startswith("trace."):
            continue
        values = [run[name] for run in layer_runs]
        if name in COUNTS:
            if unstable is None and len(set(values)) != 1:
                unstable = name
            out[name] = values[0]
        else:
            out[name] = median(values)
    out["trace.wall_s"] = median(traced_walls)
    out["trace.overhead_s"] = median(traced_walls) - median(untraced_walls)
    return out, unstable
