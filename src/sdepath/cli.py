"""Batch front-end for the estimation experiments.

Two studies and three utility commands, all driven by a JSON config with a
versioned schema (unknown keys are rejected so a config file is a complete
record of what ran):

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
timings go only to summary.json.  Exit codes: 0 success, 1 a validation
check failed, 2 usage or config error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields as dataclass_fields
from itertools import islice
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import oracle
from .functionals import (euler_energy, euler_merit, trapezoidal_om,
                          trapezoidal_merit)
from .model import (builtin_model, make_uniform_grid, validate_model,
                    DiscretePath, GridError, InitialDensity, Measurements)
from .optimizer import (convergence_study, initial_path, maximize,
                        MERIT_KINDS, OptimizerOptions, StudyProblem)
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
        try:
            os.unlink(tmp)
        except OSError:
            pass
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


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated union of the per-subcommand config schemas."""

    experiment: str
    model_name: str
    model_params: dict
    seed: int
    output_dir: str
    levels: tuple = ()
    kinds: tuple = ()
    horizon: float = 0.0
    measurement: Optional[dict] = None       # single fixed observation
    protocol: Optional[MeasurementProtocol] = None
    replicates: int = 0
    sim_step: float = 0.0
    est_step: float = 0.0
    scheme: str = "order15"
    optimizer: OptimizerOptions = OptimizerOptions()
    init_strategy: str = "meas_interp"
    cases: int = 100
    tolerance: float = 1e-6


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

_ALLOWED_KEYS = {
    "benes-convergence": {"schema", "experiment", "model", "seed",
                          "output_dir", "levels", "kinds", "horizon",
                          "measurement", "optimizer", "init_strategy"},
    "vdp-robust": {"schema", "experiment", "model", "seed", "output_dir",
                   "horizon", "protocol", "replicates", "sim_step",
                   "est_step", "optimizer", "init_strategy"},
    "simulate": {"schema", "experiment", "model", "seed", "output_dir",
                 "horizon", "sim_step", "scheme", "protocol"},
    "gradcheck": {"schema", "experiment", "seed", "output_dir", "cases",
                  "tolerance"},
    "validate": {"schema", "experiment", "seed", "output_dir"},
}

_SECTION_KEYS = {
    "model": {"name", "params"},
    "measurement": {"time", "value", "variance"},
    "protocol": {"step", "sigma_y", "sigma_outlier", "p_outlier",
                 "component"},
    "optimizer": {f.name for f in dataclass_fields(OptimizerOptions)},
}


def _reject_unknown(section: str, given: dict, allowed: set) -> None:
    unknown = sorted(set(given) - allowed)
    if unknown:
        raise ConfigError("unknown key%s in %s: %s"
                          % ("s" if len(unknown) > 1 else "", section,
                             ", ".join(unknown)))


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


def _positive(section: dict, key: str, name: str) -> float:
    value = float(section[key])
    if not value > 0.0 or not math.isfinite(value):
        raise ConfigError("%s must be positive, got %r" % (name, section[key]))
    return value


def load_config(experiment: str, config_path: Optional[str] = None,
                seed: Optional[int] = None,
                output_dir: Optional[str] = None) -> ExperimentConfig:
    """Merge a user config over the subcommand defaults and validate it."""
    raw = {}
    if config_path is not None:
        try:
            with open(config_path) as fh:
                raw = json.load(fh)
        except OSError as exc:
            raise ConfigError("cannot read config: %s" % exc)
        except json.JSONDecodeError as exc:
            raise ConfigError("config is not valid JSON: %s" % exc)
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
    merged = _merge(DEFAULT_CONFIGS[experiment], raw)
    if seed is not None:
        merged["seed"] = seed
    if output_dir is not None:
        merged["output_dir"] = output_dir
    return _validate_config(experiment, merged, raw)


def _validate_config(experiment: str, cfg: dict,
                     raw: dict) -> ExperimentConfig:
    _reject_unknown("config", raw, _ALLOWED_KEYS[experiment])
    if cfg.get("schema") != SCHEMA_VERSION:
        raise ConfigError("schema must be %d, got %r"
                          % (SCHEMA_VERSION, cfg.get("schema")))
    if cfg.get("experiment") != experiment:
        raise ConfigError("config experiment %r does not match subcommand %r"
                          % (cfg.get("experiment"), experiment))
    for section in ("model", "measurement", "protocol", "optimizer"):
        if section in raw:
            if not isinstance(raw[section], dict):
                raise ConfigError("%s must be an object" % section)
            _reject_unknown(section, raw[section], _SECTION_KEYS[section])

    seed = cfg["seed"]
    if not isinstance(seed, int) or not 0 <= seed < 2 ** 64:
        raise ConfigError("seed must be an integer in [0, 2^64)")
    out_dir = cfg["output_dir"]
    if not isinstance(out_dir, str) or not out_dir:
        raise ConfigError("output_dir must be a nonempty string")

    model = cfg.get("model", {"name": "", "params": {}})
    kwargs = dict(experiment=experiment, model_name=model.get("name", ""),
                  model_params=dict(model.get("params", {})), seed=seed,
                  output_dir=out_dir)

    if "horizon" in cfg:
        kwargs["horizon"] = _positive(cfg, "horizon", "horizon")
    if "sim_step" in cfg:
        kwargs["sim_step"] = _positive(cfg, "sim_step", "sim_step")
    if "est_step" in cfg:
        kwargs["est_step"] = _positive(cfg, "est_step", "est_step")

    if "levels" in cfg:
        levels = cfg["levels"]
        if (not isinstance(levels, (list, tuple)) or not levels
                or not all(isinstance(n, int) and n >= 1 for n in levels)):
            raise ConfigError("levels must be a nonempty list of integers >= 1")
        for a, b in zip(levels, levels[1:]):
            if b <= a or b % a != 0:
                raise ConfigError(
                    "levels must be strictly increasing and nested "
                    "(each dividing the next); got %r" % (list(levels),))
        kwargs["levels"] = tuple(levels)

    if "kinds" in cfg:
        kinds = cfg["kinds"]
        if (not isinstance(kinds, (list, tuple)) or not kinds
                or len(set(kinds)) != len(kinds)
                or not set(kinds) <= set(MERIT_KINDS)):
            raise ConfigError("kinds must be distinct values from %s"
                              % (MERIT_KINDS,))
        kwargs["kinds"] = tuple(kinds)

    if "measurement" in cfg:
        meas = cfg["measurement"]
        t = float(meas["time"])
        if not 0.0 <= t <= kwargs["horizon"]:
            raise ConfigError("measurement time %r outside [0, horizon]" % t)
        _positive(meas, "variance", "measurement variance")
        kwargs["measurement"] = {"time": t, "value": float(meas["value"]),
                                 "variance": float(meas["variance"])}

    if "protocol" in cfg:
        proto = cfg["protocol"]
        p_out = float(proto["p_outlier"])
        if not 0.0 <= p_out <= 1.0:
            raise ConfigError("p_outlier must lie in [0, 1], got %r" % p_out)
        kwargs["protocol"] = MeasurementProtocol(
            step=_positive(proto, "step", "measurement step"),
            sigma_y=_positive(proto, "sigma_y", "sigma_y"),
            sigma_outlier=_positive(proto, "sigma_outlier", "sigma_outlier"),
            p_outlier=p_out,
            component=proto.get("component", 0))

    if "replicates" in cfg:
        reps = cfg["replicates"]
        if not isinstance(reps, int) or reps < 1:
            raise ConfigError("replicates must be a positive integer")
        kwargs["replicates"] = reps

    if "scheme" in cfg:
        if cfg["scheme"] not in ("euler", "order15"):
            raise ConfigError("scheme must be 'euler' or 'order15'")
        kwargs["scheme"] = cfg["scheme"]

    if "optimizer" in cfg:
        opts = cfg["optimizer"]
        try:
            kwargs["optimizer"] = OptimizerOptions(
                **{k: (int(v) if k in ("max_iter", "max_backtracks")
                       else float(v)) for k, v in opts.items()})
        except TypeError as exc:
            raise ConfigError("bad optimizer options: %s" % exc)

    if "init_strategy" in cfg:
        kwargs["init_strategy"] = str(cfg["init_strategy"])
    if "cases" in cfg:
        if not isinstance(cfg["cases"], int) or cfg["cases"] < 1:
            raise ConfigError("cases must be a positive integer")
        kwargs["cases"] = cfg["cases"]
    if "tolerance" in cfg:
        kwargs["tolerance"] = _positive(cfg, "tolerance", "tolerance")

    config = ExperimentConfig(**kwargs)
    if config.model_name:
        try:
            drift, _, _ = builtin_model(config.model_name,
                                        **config.model_params)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError("bad model section: %s" % exc)
        comp = None if config.protocol is None else config.protocol.component
        if comp is not None and (type(comp) is not int
                                 or not 0 <= comp < drift.dim):
            raise ConfigError("protocol component must be an integer in "
                              "[0, %d) for model %r, got %r"
                              % (drift.dim, config.model_name, comp))
    return config


# ---------------------------------------------------------------------------
# shared computations

def compute_ise(times: np.ndarray, states: np.ndarray,
                estimate: DiscretePath) -> float:
    """Integrated squared error of an estimate against a finely sampled path.

    Trapezoid rule on the simulation grid, with the estimate interpolated
    piecewise-linearly; componentwise errors are summed.
    """
    times = np.asarray(times, dtype=float)
    tol = 1e-9 * max(1.0, abs(float(times[-1])))
    gt = estimate.grid.times
    if gt[0] < times[0] - tol or gt[-1] > times[-1] + tol:
        raise ValueError("estimate grid extends outside the simulated span")
    est = estimate.interp(times)
    err = np.asarray(states, dtype=float) - est
    return float(np.trapezoid((err * err).sum(axis=1), times))


# ---------------------------------------------------------------------------
# benes-convergence

def run_benes_convergence(config: ExperimentConfig, threads: int = 1) -> int:
    """Grid-refinement study of the single-measurement smoothing problem."""
    drift, diffusion, init = builtin_model(config.model_name,
                                           **config.model_params)
    meas = config.measurement
    measurements = Measurements([meas["time"]], [meas["value"]], "gaussian",
                                meas["variance"])
    problem = StudyProblem(drift=drift, diffusion=diffusion, init=init,
                           measurements=measurements,
                           horizon=config.horizon)
    out = Path(config.output_dir)

    def one_kind(kind):
        t0 = time.perf_counter()
        study = convergence_study(problem, kind, config.levels,
                                  options=config.optimizer,
                                  init_strategy=config.init_strategy)
        return kind, study, time.perf_counter() - t0

    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        results = list(pool.map(one_kind, config.kinds))

    conv_rows = []
    summary = {"schema": SCHEMA_VERSION, "experiment": config.experiment,
               "seed": config.seed, "levels": list(config.levels),
               "kinds": {}}
    for kind, study, elapsed in results:
        for level, dist in zip(study.levels, study.distances):
            times = problem.grid(level.n_segments).times
            _write_csv(out / ("paths_%s_%d.csv" % (kind, level.n_segments)),
                       _path_header(drift.dim),
                       _path_rows(times, level.path.states))
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


def _simulate_block(config: ExperimentConfig, drift, diffusion, init,
                    reps: range) -> dict:
    """Simulate the replicates `reps` as one batch.

    Each replicate draws its initial state, its noise and later its
    measurements from its own stream, so a replicate's path does not depend
    on the block it is stepped in.  Returns, for each replicate, either
    (times, states, generator) or the exception that failed it.
    """
    rngs = [RngStream(config.seed, rep).generator() for rep in reps]
    try:
        x0 = np.stack([init.sample(rng) for rng in rngs])
        times, states, failed = strong_order_15(
            drift, diffusion, x0, config.sim_step, config.horizon, rngs)
    except Exception as exc:
        return {rep: exc for rep in reps}
    return {rep: failed[i] if i in failed else (times, states[i], rngs[i])
            for i, rep in enumerate(reps)}


def _vdp_replicate(config: ExperimentConfig, drift, diffusion, init,
                   replicate: int, times: np.ndarray, states: np.ndarray,
                   rng: np.random.Generator):
    """Measure and estimate one simulated replicate."""
    proto = config.protocol
    sample = sample_measurements(times, states, proto.step, proto.sigma_y,
                                 proto.sigma_outlier, proto.p_outlier, rng,
                                 component=proto.component)
    records = Measurements(sample.times, sample.values, "student_t",
                           proto.sigma_y, proto.component)
    n_segments = int(round(config.horizon / config.est_step))
    grid = make_uniform_grid(config.horizon, n_segments,
                             meas_times=sample.times)
    problem = StudyProblem(drift=drift, diffusion=diffusion, init=init,
                           measurements=records, horizon=config.horizon)
    start = initial_path(grid, init, records, config.init_strategy,
                         drift.dim)
    out = {"replicate": replicate, "outliers": int(sample.outlier.sum()),
           "n_meas": int(sample.outlier.size), "records": [],
           "solves": {}}
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


def run_vdp_robust(config: ExperimentConfig, threads: int = 1) -> int:
    """Monte Carlo ISE comparison of the two discrete merit estimators.

    Replicates are simulated in blocks of at most `_SIM_BLOCK`, stepped
    together; the measurement and solve phase of a block's replicates then
    runs on `threads` worker threads.
    """
    out = Path(config.output_dir)
    drift, diffusion, init = builtin_model(config.model_name,
                                           **config.model_params)
    results = {}
    failures = {}

    def one_replicate(item):
        rep, simulated = item
        if isinstance(simulated, Exception):
            return rep, None, simulated
        try:
            return rep, _vdp_replicate(config, drift, diffusion, init, rep,
                                       *simulated), None
        except Exception as exc:          # logged, excluded from summaries
            return rep, None, exc

    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        for first in range(0, config.replicates, _SIM_BLOCK):
            block = _simulate_block(
                config, drift, diffusion, init,
                range(first, min(first + _SIM_BLOCK, config.replicates)))
            for rep, payload, err in pool.map(one_replicate, block.items()):
                if err is not None:
                    log.warning("replicate %d failed: %s", rep, err)
                    failures[rep] = "%s: %s" % (type(err).__name__, err)
                else:
                    results[rep] = payload
            del block             # frees its paths before the next block

    if not results:
        log.error("all %d replicates failed", config.replicates)
        return EXIT_RUNTIME

    rows = []
    for rep in sorted(results):
        for rec in results[rep]["records"]:
            rows.append("%d,%s,%s" % (rec.replicate, rec.kind,
                                      _fmt(rec.ise)))
    _write_csv(out / "ise.csv", ["replicate", "kind", "ise"], rows)

    summary = {"schema": SCHEMA_VERSION, "experiment": config.experiment,
               "seed": config.seed, "replicates": config.replicates,
               "failed": len(failures),
               "failures": {str(k): v for k, v in sorted(failures.items())},
               "kinds": {}, "timings_s": {}}
    total_out = sum(r["outliers"] for r in results.values())
    total_meas = sum(r["n_meas"] for r in results.values())
    summary["outlier_fraction"] = total_out / total_meas
    for kind in ("euler", "trapezoidal"):
        ises = [rec.ise for rep in sorted(results)
                for rec in results[rep]["records"] if rec.kind == kind]
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
            rec.runtime for rep in sorted(results)
            for rec in results[rep]["records"] if rec.kind == kind))
    _write_json(out / "summary.json", summary)
    log.info("wrote %s (%d replicates, %d failed)", out / "ise.csv",
             config.replicates, len(failures))
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate

def run_simulate(config: ExperimentConfig) -> int:
    drift, diffusion, init = builtin_model(config.model_name,
                                           **config.model_params)
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

def gradient_suite(n_cases: int = 100, seed: int = 20240501,
                   tolerance: float = 1e-6):
    """Relative FD error of every analytic gradient over random cases.

    Returns a list of (name, max relative error, within tolerance) triples
    covering the four path merits on the builtin models plus the
    heavy-tailed measurement score.
    """
    rng = np.random.default_rng(seed)
    merit_funcs = (("euler_energy", euler_energy, False),
                   ("euler_merit", euler_merit, True),
                   ("trapezoidal_om", trapezoidal_om, False),
                   ("trapezoidal_merit", trapezoidal_merit, True))
    worst = {name: 0.0 for name, _, _ in merit_funcs}
    worst["student_t_loglik"] = 0.0
    # the Student-t score alone: one record at t=0 under a flat prior
    unit = make_uniform_grid(1.0, 1)
    no_prior = InitialDensity(log_nu=lambda z: 0.0, grad_log_nu=np.zeros_like)
    model_names = ("benes", "ou", "vdp")
    for case in range(n_cases):
        name = model_names[case % len(model_names)]
        drift, diffusion, init = builtin_model(name)
        n_seg = int(rng.integers(4, 51))
        horizon = float(rng.uniform(0.5, 3.0))
        meas_t = float(rng.uniform(0.0, 1.0)) * horizon
        grid = make_uniform_grid(horizon, n_seg, meas_times=(meas_t,))
        states = np.cumsum(rng.uniform(-0.4, 0.4,
                                       size=(grid.times.size, drift.dim)),
                           axis=0)
        path = DiscretePath(grid=grid, states=states)
        measurements = Measurements([meas_t], [float(rng.uniform(-1.5, 1.5))],
                                    "gaussian", float(rng.uniform(0.1, 1.0)))
        for fname, func, with_density in merit_funcs:
            if with_density:
                value = func(path, drift, diffusion, init, measurements)
            else:
                value = func(path, drift, diffusion)

            def scalar(flat, f=func, wd=with_density):
                p = DiscretePath(grid=grid,
                                 states=flat.reshape(states.shape))
                if wd:
                    return f(p, drift, diffusion, init, measurements).value
                return f(p, drift, diffusion).value

            fd = oracle.fd_gradient(scalar, states.reshape(-1))
            num = np.linalg.norm(fd - value.gradient.reshape(-1))
            den = max(1.0, np.linalg.norm(fd))
            worst[fname] = max(worst[fname], num / den)
        x = rng.uniform(-2.0, 2.0, size=drift.dim)
        score = Measurements([0.0], [float(rng.uniform(-2.0, 2.0))],
                             "student_t", float(rng.uniform(0.2, 1.0)))
        _, grad, _ = score.log_density(DiscretePath(unit, [x, x]), no_prior)
        fd = oracle.fd_gradient(
            lambda z: score.log_density(DiscretePath(unit, [z, x]),
                                        no_prior)[0], x)
        num = np.linalg.norm(fd - grad[0])
        worst["student_t_loglik"] = max(worst["student_t_loglik"],
                                        num / max(1.0, np.linalg.norm(fd)))
    return [(name, err, err <= tolerance) for name, err in worst.items()]


def run_gradcheck(config: ExperimentConfig) -> int:
    checks = gradient_suite(config.cases, config.seed, config.tolerance)
    ok = True
    for name, err, passed in checks:
        print("%s %-18s max rel err %.3e (tol %.0e)"
              % ("PASS" if passed else "FAIL", name, err, config.tolerance))
        ok = ok and passed
    return EXIT_OK if ok else EXIT_VALIDATION


LINEAR_CHECK_TIMES = (0.4, 0.8, 1.2, 1.6, 2.0)
LINEAR_CHECK_VALUES = (-0.908, 0.577, 1.062, 0.405, 1.362)
LINEAR_CHECK_VAR = 0.25


def linear_gaussian_check(n_segments: int = 256):
    """Maximize both merits on a linear problem and compare against the
    exact-discretization smoother.

    Returns (trapezoidal sup error, Euler sup error) at the grid points.
    The drift divergence is constant here, so both discretizations target
    the same limiting curve and only their rates differ.
    """
    drift, diffusion, init = builtin_model("ou")
    horizon = 2.0
    measurements = Measurements(LINEAR_CHECK_TIMES, LINEAR_CHECK_VALUES,
                                "gaussian", LINEAR_CHECK_VAR)
    grid = make_uniform_grid(horizon, n_segments,
                             meas_times=LINEAR_CHECK_TIMES)
    # the builtin ou drift is -a*x; the smoother spec takes the raw
    # coefficient of dX = A X dt
    spec = oracle.LinearGaussianSpec(a=-1.0, g=1.0, x0_mean=0.0, x0_cov=1.0)
    smoothed = oracle.rts_smoother(
        spec, grid, [(t, y, 1.0, LINEAR_CHECK_VAR)
                     for t, y in zip(LINEAR_CHECK_TIMES,
                                     LINEAR_CHECK_VALUES)])
    problem = StudyProblem(drift=drift, diffusion=diffusion, init=init,
                           measurements=measurements, horizon=horizon)
    options = OptimizerOptions(grad_tol=1e-10, max_iter=4000)
    start = initial_path(grid, init, measurements, "meas_interp", 1)
    errors = {}
    for kind in ("trapezoidal", "euler"):
        result = maximize(problem.objective(kind), start, options)
        errors[kind] = float(np.max(np.abs(
            result.path.states[:, 0] - smoothed.means[:, 0])))
    return errors["trapezoidal"], errors["euler"]


def run_validate(config: ExperimentConfig) -> int:
    """All cross-checks of the pipeline against independent references."""
    checks = []

    for name in ("benes", "vdp", "ou"):
        drift, _, _ = builtin_model(name)
        report = validate_model(drift, seed=config.seed)
        checks.append(("model:%s" % name, report.passed,
                       "div err %.2e, jac rel err %.2e"
                       % (report.max_div_error, report.max_jac_rel_error)))

    for gname, err, passed in gradient_suite(25, config.seed):
        checks.append(("gradient:%s" % gname, passed,
                       "max rel err %.3e" % err))

    trap_err, euler_err = linear_gaussian_check()
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
        p.add_argument("--threads", type=int, default=1, metavar="K",
                       help="worker threads for the solve phase; affects "
                            "scheduling only, never results")
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
    runners = {
        "benes-convergence": lambda: run_benes_convergence(config,
                                                           args.threads),
        "vdp-robust": lambda: run_vdp_robust(config, args.threads),
        "simulate": lambda: run_simulate(config),
        "gradcheck": lambda: run_gradcheck(config),
        "validate": lambda: run_validate(config),
    }
    try:
        return runners[args.command]()
    except (GridError, SimulationError, ValueError) as exc:
        log.error("%s", exc)
        return EXIT_RUNTIME
    except Exception:
        log.exception("unexpected failure")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
