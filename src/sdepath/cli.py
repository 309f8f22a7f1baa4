"""Batch front-end for the estimation experiments.

Two studies and three utility commands, all driven by a JSON config with a
versioned schema.  A subcommand accepts exactly the keys of its defaults, so
a config file is a complete record of what ran, and one function per key
parses and checks its value when the config loads: a malformed value is a
config error before anything runs.

    benes-convergence   grid-refinement study of the scalar tanh-drift
                        smoothing problem, all three merit kinds
    vdp-robust          Monte Carlo ISE comparison of the Euler and
                        trapezoidal estimators on the Van der Pol oscillator
                        with contaminated measurements
    simulate            dump one simulated path (and measurements)
    gradcheck           analytic-vs-finite-difference gradient suite
    validate            model, gradient, smoother-equivalence and exact
                        transition-density checks

Every output file is written to a temporary name and atomically renamed, so
files are either complete or absent.  Floats are written with 17 significant
digits.  CSV outputs are pure functions of (config, seed); wall-clock
timings go only to summary.json.  Everything runs on one thread; the
`--threads` option is accepted and ignored.  Exit codes: 0 success, 1 a
validation check failed, 2 usage or config error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import sys
import tempfile
import time
from dataclasses import dataclass, fields as dataclass_fields
from itertools import islice
from pathlib import Path
from types import SimpleNamespace
from typing import Optional, Sequence

import numpy as np

from . import oracle
from .model import (builtin_model, uniform_steps, validate_model,
                    DiscretePath, GridError, Measurements, _snap_tol)
from .optimizer import (convergence_study, initial_path, maximize,
                        INIT_STRATEGIES, MERIT_KINDS, OptimizerOptions,
                        StudyProblem)
from .simulate import (euler_maruyama, sample_measurements, strong_order_15,
                       RngStream, SimulationError)

log = logging.getLogger("sdepath")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_RUNTIME = 3

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """The config file is malformed or inconsistent."""


# ---------------------------------------------------------------------------
# output helpers

def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write(path: Path, chunks) -> None:
    """Write the strings `chunks` in order so the file at `path` is either
    complete or absent."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent),
                               prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


# CSV lines formatted and written at once: a long path's whole text would
# take tens of MB
_CSV_BLOCK = 4096


def _write_csv(path: Path, header: Sequence[str], lines) -> None:
    """Write a CSV of the row strings `lines`, streamed in blocks."""
    lines = iter(lines)

    def chunks():
        yield ",".join(header) + "\n"
        while True:
            block = list(islice(lines, _CSV_BLOCK))
            if not block:
                return
            yield "\n".join(block) + "\n"

    _atomic_write(path, chunks())


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, [json.dumps(payload, indent=2, sort_keys=True)
                         + "\n"])


def _path_header(dim: int) -> list:
    if dim == 1:
        return ["t", "x"]
    return ["t"] + ["x%d" % (i + 1) for i in range(dim)]


def _path_rows(times: np.ndarray, states: np.ndarray):
    """CSV lines of a path: the time, then the state, each formatted as
    `_fmt` formats it."""
    fmt = ",".join(["%.17g"] * (1 + states.shape[1]))
    for first in range(0, times.size, _CSV_BLOCK):
        last = first + _CSV_BLOCK
        for row in np.column_stack((times[first:last],
                                    states[first:last])).tolist():
            yield fmt % tuple(row)


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class MeasurementProtocol:
    """Regular contaminated-Gaussian sampling of one state component."""

    step: float
    sigma_y: float
    sigma_outlier: float
    p_outlier: float
    component: int = 0


@dataclass(frozen=True)
class IseRecord:
    replicate: int
    kind: str
    ise: float
    runtime: float

    def __post_init__(self):
        if self.ise < 0.0:
            raise ValueError("ISE must be nonnegative")


# A subcommand's config accepts exactly the keys of its defaults; a key whose
# default is null may be set to null.
DEFAULT_CONFIGS = {
    "benes-convergence": {
        "schema": SCHEMA_VERSION,
        "experiment": "benes-convergence",
        "model": {"name": "benes", "params": {}},
        "seed": 20240501,
        "output_dir": "out-benes",
        "levels": [16, 32, 64, 128, 256, 512, 1024],
        "kinds": ["euler", "trapezoidal", "exact"],
        "horizon": 5.0,
        "measurement": {"time": 5.0, "value": 1.5, "variance": 0.16},
        "optimizer": {"grad_tol": 1e-6, "max_iter": 5000},
        "init_strategy": "meas_interp",
    },
    "vdp-robust": {
        "schema": SCHEMA_VERSION,
        "experiment": "vdp-robust",
        "model": {"name": "vdp", "params": {}},
        "seed": 20240501,
        "output_dir": "out-vdp",
        "horizon": 16.0,
        "protocol": {"step": 0.1, "sigma_y": 0.5,
                     "sigma_outlier": 3.0, "p_outlier": 0.25},
        "replicates": 50,
        "sim_step": 5e-4,
        "est_step": 1e-2,
        "optimizer": {"grad_tol": 1e-6, "max_iter": 6000},
        "init_strategy": "meas_interp",
    },
    "simulate": {
        "schema": SCHEMA_VERSION,
        "experiment": "simulate",
        "model": {"name": "benes", "params": {}},
        "seed": 20240501,
        "output_dir": "out-sim",
        "horizon": 5.0,
        "sim_step": 1e-3,
        "scheme": "order15",
        "protocol": None,
    },
    "gradcheck": {
        "schema": SCHEMA_VERSION,
        "experiment": "gradcheck",
        "seed": 20240501,
        "output_dir": "out-gradcheck",
        "cases": 100,
        "tolerance": 1e-6,
    },
    "validate": {
        "schema": SCHEMA_VERSION,
        "experiment": "validate",
        "seed": 20240501,
        "output_dir": "out-validate",
    },
}


def _require(ok: bool, message: str, *args) -> None:
    if not ok:
        raise ConfigError(message % args)


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


# A parser takes (value, name, cfg): the merged value of one key, the name
# to report it by, and the namespace of the keys parsed before it.

def _real(value, name: str) -> float:
    """A finite JSON number; booleans are not numbers."""
    _require(type(value) in (int, float)
             and abs(value) <= sys.float_info.max,
             "%s must be a finite number, got %r", name, value)
    return float(value)


def _positive(value, name: str, cfg=None) -> float:
    _require(_real(value, name) > 0.0, "%s must be positive, got %r",
             name, value)
    return float(value)


def _step(value, name: str, cfg) -> float:
    """A positive step that divides the horizon."""
    step = _positive(value, name)
    try:
        uniform_steps(cfg.horizon, step)
    except ValueError as exc:
        raise ConfigError("%s: %s" % (name, exc))
    return step


def _count(value, name: str, cfg=None) -> int:
    _require(type(value) is int and value >= 1,
             "%s must be a positive integer, got %r", name, value)
    return value


def _object(value, name: str, required, optional=()) -> dict:
    """A JSON object with every key of `required` and others only from
    `optional`."""
    _require(isinstance(value, dict), "%s must be an object", name)
    unknown = sorted(set(value) - set(required) - set(optional))
    _require(not unknown, "unknown key%s in %s: %s",
             "s" if len(unknown) > 1 else "", name, ", ".join(unknown))
    missing = [key for key in required if key not in value]
    _require(not missing, "%s lacks %s", name, ", ".join(missing))
    return value


def _one_of(*choices):
    def parse(value, name, cfg):
        _require(value in choices, "%s must be one of %s, got %r",
                 name, ", ".join(choices), value)
        return value
    return parse


def _fixed(value, name, cfg):
    """schema and experiment: the value of the subcommand's defaults."""
    expected = DEFAULT_CONFIGS[cfg.experiment][name]
    _require(value == expected and type(value) is type(expected),
             "config %s %r does not match subcommand %r, which needs %r",
             name, value, cfg.experiment, expected)
    return value


def _seed(value, name, cfg) -> int:
    _require(type(value) is int and 0 <= value < 2 ** 64,
             "seed must be an integer in [0, 2^64)")
    return value


def _output_dir(value, name, cfg) -> str:
    _require(isinstance(value, str) and value != "",
             "output_dir must be a nonempty string")
    return value


def _model(value, name, cfg) -> tuple:
    """The (drift, diffusion, initial density) of a builtin model."""
    model = _object(value, name, ("name",), ("params",))
    params = model.get("params", {})
    _require(isinstance(params, dict), "model params must be an object")
    try:
        return builtin_model(model["name"], **params)
    except (TypeError, ValueError) as exc:
        raise ConfigError("bad model section: %s" % exc)


def _levels(value, name, cfg) -> tuple:
    _require(isinstance(value, list) and value != []
             and all(type(n) is int and n >= 1 for n in value),
             "levels must be a nonempty list of integers >= 1")
    _require(all(b > a and b % a == 0 for a, b in zip(value, value[1:])),
             "levels must be strictly increasing and nested (each dividing "
             "the next); got %r", value)
    return tuple(value)


def _kinds(value, name, cfg) -> tuple:
    _require(isinstance(value, list) and value != []
             and all(kind in MERIT_KINDS for kind in value)
             and len(set(value)) == len(value),
             "kinds must be distinct values from %s", MERIT_KINDS)
    return tuple(value)


def _measurement(value, name, cfg) -> Measurements:
    """The one Gaussian record of benes-convergence."""
    meas = _object(value, name, ("time", "value", "variance"))
    t = _real(meas["time"], "measurement time")
    _require(0.0 <= t <= cfg.horizon,
             "measurement time %r outside [0, horizon]", t)
    return Measurements([t], [_real(meas["value"], "measurement value")],
                        "gaussian",
                        _positive(meas["variance"], "measurement variance"))


def _protocol(value, name, cfg) -> MeasurementProtocol:
    proto = _object(value, name,
                    ("step", "sigma_y", "sigma_outlier", "p_outlier"),
                    ("component",))
    p_out = _real(proto["p_outlier"], "p_outlier")
    _require(0.0 <= p_out <= 1.0, "p_outlier must lie in [0, 1], got %r",
             p_out)
    dim = cfg.model[0].dim
    comp = proto.get("component", 0)
    _require(type(comp) is int and 0 <= comp < dim,
             "protocol component must be an integer in [0, %d) for this "
             "model, got %r", dim, comp)
    return MeasurementProtocol(
        step=_step(proto["step"], "measurement step", cfg),
        sigma_y=_positive(proto["sigma_y"], "sigma_y"),
        sigma_outlier=_positive(proto["sigma_outlier"], "sigma_outlier"),
        p_outlier=p_out, component=comp)


def _optimizer(value, name, cfg) -> OptimizerOptions:
    """Integer options are positive integers, the others positive numbers."""
    fields = dataclass_fields(OptimizerOptions)
    given = _object(value, name, (), [f.name for f in fields])
    return OptimizerOptions(**{
        f.name: (_count if type(f.default) is int else _positive)(
            given[f.name], "optimizer " + f.name)
        for f in fields if f.name in given})


# every config key and its parser, in the order they run
_PARSERS = {
    "schema": _fixed, "experiment": _fixed, "seed": _seed,
    "output_dir": _output_dir, "model": _model, "horizon": _positive,
    "sim_step": _step, "est_step": _step, "levels": _levels,
    "kinds": _kinds, "measurement": _measurement, "protocol": _protocol,
    "replicates": _count, "scheme": _one_of("euler", "order15"),
    "optimizer": _optimizer, "init_strategy": _one_of(*INIT_STRATEGIES),
    "cases": _count, "tolerance": _positive,
}


def load_config(experiment: str, config_path: Optional[str] = None,
                seed: Optional[int] = None,
                output_dir: Optional[str] = None) -> SimpleNamespace:
    """Merge a user config over the subcommand defaults and parse it.

    Returns one attribute per key of the defaults, holding its parsed
    value: `model` is the (drift, diffusion, initial density) triple of
    `builtin_model`, `measurement` a `Measurements`, `protocol` a
    `MeasurementProtocol` or None, and `optimizer` an `OptimizerOptions`.
    """
    raw = {}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read config: %s" % exc)
        except json.JSONDecodeError as exc:
            raise ConfigError("config is not valid JSON: %s" % exc)
        _require(isinstance(raw, dict), "config must be a JSON object")
    defaults = DEFAULT_CONFIGS[experiment]
    merged = _merge(defaults, raw)
    for key, flag in (("seed", seed), ("output_dir", output_dir)):
        if flag is not None:
            merged[key] = flag
    _object(merged, "config", (), defaults)
    cfg = SimpleNamespace(experiment=experiment)     # read by _fixed
    for key, parse in _PARSERS.items():
        if key in defaults:
            value = merged[key]
            setattr(cfg, key, None if value is None and defaults[key] is None
                    else parse(value, key, cfg))
    return cfg


# ---------------------------------------------------------------------------
# shared computations

def compute_ise(times: np.ndarray, states: np.ndarray,
                estimate: DiscretePath) -> float:
    """Integrated squared error of an estimate against a finely sampled path.

    Trapezoid rule on the simulation grid, with the estimate interpolated
    piecewise-linearly; componentwise errors are summed.
    """
    times = np.asarray(times, dtype=float)
    tol = _snap_tol(float(times[-1]))
    gt = estimate.grid.times
    if gt[0] < times[0] - tol or gt[-1] > times[-1] + tol:
        raise ValueError("estimate grid extends outside the simulated span")
    est = estimate.interp(times)
    err = np.asarray(states, dtype=float) - est
    return float(np.trapezoid((err * err).sum(axis=1), times))


# ---------------------------------------------------------------------------
# benes-convergence

def run_benes_convergence(config: SimpleNamespace) -> int:
    """Grid-refinement study of the single-measurement smoothing problem."""
    drift, diffusion, init = config.model
    problem = StudyProblem(drift=drift, diffusion=diffusion, init=init,
                           measurements=config.measurement,
                           horizon=config.horizon)
    out = Path(config.output_dir)
    results = []
    for kind in config.kinds:
        t0 = time.perf_counter()
        study = convergence_study(problem, kind, config.levels,
                                  options=config.optimizer,
                                  init_strategy=config.init_strategy)
        results.append((kind, study, time.perf_counter() - t0))

    conv_rows = []
    summary = {"schema": SCHEMA_VERSION, "experiment": config.experiment,
               "seed": config.seed, "levels": list(config.levels),
               "kinds": {}}
    for kind, study, elapsed in results:
        for level, dist in zip(study.levels, study.distances):
            _write_csv(out / ("paths_%s_%d.csv" % (kind, level.n_segments)),
                       _path_header(drift.dim),
                       _path_rows(level.path.grid.times, level.path.states))
            conv_rows.append(",".join([kind, str(level.n_segments),
                                       "" if dist is None else _fmt(dist),
                                       _fmt(level.merit)]))
        cold = study.cold_check
        summary["kinds"][kind] = {
            "statuses": [lv.status for lv in study.levels],
            "iterations": [lv.iterations for lv in study.levels],
            "evaluations": [lv.evaluations for lv in study.levels],
            "runtime_s": elapsed,
            "cold_start": None if cold is None else {
                "status": cold.status,
                "iterations": cold.iterations,
                "evaluations": cold.evaluations,
                "merit_gap": cold.merit_gap,
                "sup_distance": cold.sup_distance,
            },
        }
    _write_csv(out / "convergence.csv",
               ["kind", "n_segments", "sup_distance", "merit"], conv_rows)
    _write_json(out / "summary.json", summary)
    log.info("wrote %s", out / "convergence.csv")
    return EXIT_OK


# ---------------------------------------------------------------------------
# vdp-robust

# replicates simulated together at most: their paths and noise buffers
# take about 1.5 MB each at 32 000 order-1.5 steps of the 2-D model
_SIM_BLOCK = 16


def _simulate_block(config: SimpleNamespace, reps: range) -> dict:
    """Simulate the replicates `reps` as one batch.

    Each replicate draws its initial state, its noise and later its
    measurements from its own stream, so a replicate's path does not depend
    on the block it is stepped in.  Returns, for each replicate, either
    (times, states, generator) or the exception that failed it.
    """
    drift, diffusion, init = config.model
    rngs = [RngStream(config.seed, rep).generator() for rep in reps]
    try:
        x0 = np.stack([init.sample(rng) for rng in rngs])
        times, states, failed = strong_order_15(
            drift, diffusion, x0, config.sim_step, config.horizon, rngs)
    except Exception as exc:
        return {rep: exc for rep in reps}
    return {rep: failed[i] if i in failed else (times, states[i], rngs[i])
            for i, rep in enumerate(reps)}


def _vdp_replicate(config: SimpleNamespace, replicate: int,
                   times: np.ndarray, states: np.ndarray,
                   rng: np.random.Generator):
    """Measure and estimate one simulated replicate."""
    drift, diffusion, init = config.model
    proto = config.protocol
    sample = sample_measurements(times, states, proto.step, proto.sigma_y,
                                 proto.sigma_outlier, proto.p_outlier, rng,
                                 component=proto.component)
    records = Measurements(sample.times, sample.values, "student_t",
                           proto.sigma_y, proto.component)
    problem = StudyProblem(drift=drift, diffusion=diffusion, init=init,
                           measurements=records, horizon=config.horizon)
    grid = problem.grid(uniform_steps(config.horizon, config.est_step))
    start = initial_path(grid, init, records, config.init_strategy,
                         drift.dim)
    out = {"outliers": int(sample.outlier.sum()),
           "n_meas": int(sample.outlier.size), "records": [], "solves": {}}
    # the trapezoidal solve is warm-started from the Euler maximizer; both
    # are reported at their own tolerance
    for kind in ("euler", "trapezoidal"):
        t0 = time.perf_counter()
        result = maximize(problem.objective(kind), start, config.optimizer)
        elapsed = time.perf_counter() - t0
        ise = compute_ise(times, states, result.path)
        out["records"].append(IseRecord(replicate, kind, ise, elapsed))
        out["solves"][kind] = (result.status, result.iterations,
                               result.evaluations)
        start = result.path
    return out


def run_vdp_robust(config: SimpleNamespace) -> int:
    """Monte Carlo ISE comparison of the two discrete merit estimators.

    Replicates are simulated in blocks of at most `_SIM_BLOCK`, stepped
    together, and then measured and solved one by one.
    """
    out = Path(config.output_dir)
    results = {}
    failures = {}
    for first in range(0, config.replicates, _SIM_BLOCK):
        block = _simulate_block(
            config, range(first, min(first + _SIM_BLOCK, config.replicates)))
        for rep, simulated in block.items():
            try:
                if isinstance(simulated, Exception):
                    raise simulated
                results[rep] = _vdp_replicate(config, rep, *simulated)
            except Exception as exc:      # logged, excluded from summaries
                log.warning("replicate %d failed: %s", rep, exc)
                failures[rep] = "%s: %s" % (type(exc).__name__, exc)
        del block                 # frees its paths before the next block

    if not results:
        log.error("all %d replicates failed", config.replicates)
        return EXIT_RUNTIME

    records = [rec for rep in sorted(results)
               for rec in results[rep]["records"]]
    _write_csv(out / "ise.csv", ["replicate", "kind", "ise"],
               ("%d,%s,%s" % (rec.replicate, rec.kind, _fmt(rec.ise))
                for rec in records))

    summary = {"schema": SCHEMA_VERSION, "experiment": config.experiment,
               "seed": config.seed, "replicates": config.replicates,
               "failed": len(failures),
               "failures": {str(k): v for k, v in sorted(failures.items())},
               "kinds": {}, "timings_s": {}}
    total_out = sum(r["outliers"] for r in results.values())
    total_meas = sum(r["n_meas"] for r in results.values())
    summary["outlier_fraction"] = total_out / total_meas
    for kind in ("euler", "trapezoidal"):
        ises = [rec.ise for rec in records if rec.kind == kind]
        p5, p50, p95 = np.percentile(ises, [5.0, 50.0, 95.0])
        solves = [results[rep]["solves"][kind] for rep in sorted(results)]
        summary["kinds"][kind] = {
            "count": len(ises), "median": float(p50),
            "p5": float(p5), "p95": float(p95),
            "statuses": sorted({status for status, _, _ in solves}),
            "iterations": [its for _, its, _ in solves],
            "evaluations": [evals for _, _, evals in solves],
        }
        summary["timings_s"][kind] = float(sum(
            rec.runtime for rec in records if rec.kind == kind))
    _write_json(out / "summary.json", summary)
    log.info("wrote %s (%d replicates, %d failed)", out / "ise.csv",
             config.replicates, len(failures))
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def run_simulate(config: SimpleNamespace) -> int:
    drift, diffusion, init = config.model
    rng = RngStream(config.seed, 0).generator()
    stepper = strong_order_15 if config.scheme == "order15" else euler_maruyama
    times, states, failed = stepper(drift, diffusion, init.sample(rng)[None],
                                    config.sim_step, config.horizon, [rng])
    if failed:
        raise failed[0]
    states = states[0]
    out = Path(config.output_dir)
    _write_csv(out / "path.csv", ["t"] + ["x%d" % (i + 1)
                                          for i in range(drift.dim)],
               _path_rows(times, states))
    if config.protocol is not None:
        proto = config.protocol
        sample = sample_measurements(times, states, proto.step, proto.sigma_y,
                                     proto.sigma_outlier, proto.p_outlier,
                                     rng, component=proto.component)
        _write_csv(out / "measurements.csv", ["t", "y", "outlier_flag"],
                   ("%s,%s,%d" % (_fmt(t), _fmt(y), flag)
                    for t, y, flag in zip(sample.times, sample.values,
                                          sample.outlier)))
    log.info("wrote %s (%d steps, %s scheme)", out / "path.csv",
             times.size - 1, config.scheme)
    return EXIT_OK


# ---------------------------------------------------------------------------
# gradient and validation suites

def run_gradcheck(config: SimpleNamespace) -> int:
    checks = oracle.gradient_suite(config.cases, config.seed, config.tolerance)
    ok = True
    for name, err, passed in checks:
        print("%s %-18s max rel err %.3e (tol %.0e)"
              % ("PASS" if passed else "FAIL", name, err, config.tolerance))
        ok = ok and passed
    return EXIT_OK if ok else EXIT_VALIDATION


def run_validate(config: SimpleNamespace) -> int:
    """All cross-checks of the pipeline against independent references."""
    checks = []

    for name in ("benes", "vdp", "ou"):
        drift, _, _ = builtin_model(name)
        report = validate_model(drift, seed=config.seed)
        checks.append(("model:%s" % name, report.passed,
                       "div err %.2e, jac rel err %.2e"
                       % (report.max_div_error, report.max_jac_rel_error)))

    for gname, err, passed in oracle.gradient_suite(25, config.seed):
        checks.append(("gradient:%s" % gname, passed,
                       "max rel err %.3e" % err))

    trap_err, euler_err = oracle.linear_gaussian_check()
    checks.append(("smoother:trapezoidal", trap_err <= 1e-3,
                   "sup err %.3e (tol 1e-3)" % trap_err))
    checks.append(("smoother:euler", euler_err <= 5e-3,
                   "sup err %.3e (tol 5e-3)" % euler_err))

    report = oracle.validate_benes_transition()
    checks.append(("benes_transition", report.passed,
                   "normalisation %.2e, KS %.4f"
                   % (report.max_normalisation_error, report.ks_statistic)))

    ok = True
    for name, passed, detail in checks:
        print("%s %-24s %s" % ("PASS" if passed else "FAIL", name, detail))
        ok = ok and passed
    return EXIT_OK if ok else EXIT_VALIDATION


# ---------------------------------------------------------------------------
# entry point

_CSV_DOC = """\
output files (all floats with 17 significant digits; every file is written
atomically):
  benes-convergence:
    paths_{kind}_{N}.csv   t,x            maximizing path per kind and level
    convergence.csv        kind,n_segments,sup_distance,merit
                           (sup_distance to the finest level; empty there.
                           The exact-kind merit includes the per-segment
                           -log(2 pi delta)/2 constants of its transition
                           densities, so it grows with N; that is not
                           divergence)
    summary.json           statuses, iterations and evaluations per solve,
                           cold-start check, timings
  vdp-robust:
    ise.csv                replicate,kind,ise
    summary.json           median/p5/p95 per kind, statuses, iterations
                           and evaluations per replicate, outlier fraction,
                           failure count, timings
  simulate:
    path.csv               t,x1,...,xn
    measurements.csv       t,y,outlier_flag
"""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdepath",
        description="State-path estimation experiments for diffusions "
                    "with additive noise.",
        epilog=_CSV_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "benes-convergence": "Grid-refinement study of the scalar "
                             "tanh-drift smoothing problem.",
        "vdp-robust": "Monte Carlo ISE study on the Van der Pol "
                      "oscillator with contaminated measurements.",
        "simulate": "Simulate one sample path and dump CSVs.",
        "gradcheck": "Analytic-vs-finite-difference gradient suite.",
        "validate": "Run all validation cross-checks.",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, description=desc, epilog=_CSV_DOC,
                           formatter_class=argparse.RawDescriptionHelpFormatter)
        p.add_argument("--config", metavar="PATH",
                       help="JSON config; merged over the defaults, "
                            "unknown keys rejected")
        p.add_argument("--seed", type=int, metavar="U64",
                       help="master seed override")
        p.add_argument("--out", metavar="DIR",
                       help="output directory override")
        p.add_argument("--threads", type=int, metavar="K",
                       help="accepted and ignored")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr,
                        format="%(levelname)s %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.seed is not None and not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must lie in [0, 2^64)")
    try:
        config = load_config(args.command, args.config, args.seed, args.out)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    runners = {"benes-convergence": run_benes_convergence,
               "vdp-robust": run_vdp_robust, "simulate": run_simulate,
               "gradcheck": run_gradcheck, "validate": run_validate}
    try:
        return runners[args.command](config)
    except (GridError, SimulationError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_RUNTIME
    except Exception:
        log.exception("unexpected failure")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
