"""The benchmark workloads: the config each one runs, the operations one
iteration attempts, and the checks its outputs must pass.

Configs are spelled out here rather than read from the package defaults, so
that a change to the shipped defaults cannot change what is measured.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 20240501          # the seed of the shipped configs

VDP_PROTOCOL = {"step": 0.1, "sigma_y": 0.5, "sigma_outlier": 3.0,
                "p_outlier": 0.25}
VDP_REPLICATES = 6
VDP_HORIZON = 16.0
SIM_HORIZON = 128.0
SIM_STEP = 5e-4
LADDER = [16, 32, 64, 128, 256, 512, 1024]
KINDS = ["euler", "trapezoidal", "exact"]


class CheckFailed(Exception):
    """An output of the program is missing or wrong."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _read_csv(path: Path):
    _require(path.is_file(), "missing %s" % path.name)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) >= 1, "%s is empty" % path.name)
    return rows[0], rows[1:]


def _floats(row, name):
    try:
        values = [float(v) for v in row]
    except ValueError:
        raise CheckFailed("non-numeric row in %s: %r" % (name, row))
    _require(all(math.isfinite(v) for v in values),
             "non-finite value in %s: %r" % (name, row))
    return values


def _column(path: Path, col: int):
    _, rows = _read_csv(path)
    return [_floats(r, path.name)[col] for r in rows]


# ---------------------------------------------------------------------------
# benes-ladder

# The measurement value stays at the shipped 1.5 for every seed: the solves
# are chaotic in it (values in 1.45-1.55 move the wall time by a third and
# flip the exact-kind cold start between max_iter and converged), so drawing
# it from the seed would measure the draw, not the code.  The study has no
# other random input.
BENES_CONFIG = {"schema": 1, "experiment": "benes-convergence",
                "model": {"name": "benes", "params": {}},
                "levels": LADDER, "kinds": KINDS, "horizon": 5.0,
                "measurement": {"time": 5.0, "value": 1.5, "variance": 0.16},
                "optimizer": {"grad_tol": 1e-6, "max_iter": 5000},
                "init_strategy": "meas_interp"}


def benes_check(out: Path) -> None:
    """Criterion-3 invariants at N = 1024."""
    finest = {k: _column(out / ("paths_%s_1024.csv" % k), 1) for k in KINDS}
    _require(len({len(v) for v in finest.values()}) == 1 and
             len(finest["exact"]) == 1025, "N=1024 paths need 1025 rows")
    trap_exact = max(abs(a - b) for a, b in zip(finest["trapezoidal"],
                                                 finest["exact"]))
    euler_trap = max(abs(a - b) for a, b in zip(finest["euler"],
                                                 finest["trapezoidal"]))
    _require(trap_exact <= 1e-2,
             "sup(trapezoidal, exact) = %.3g > 1e-2" % trap_exact)
    _require(euler_trap >= 0.05,
             "sup(euler, trapezoidal) = %.3g < 0.05" % euler_trap)
    _, rows = _read_csv(out / "convergence.csv")
    _require(len(rows) == len(KINDS) * len(LADDER),
             "convergence.csv has %d rows" % len(rows))
    euler = [float(r[2]) for r in rows if r[0] == "euler" and r[2] != ""]
    tail = euler[-3:]
    _require(len(tail) == 3 and tail[0] > tail[1] > tail[2],
             "euler sup-distances not decreasing over the last three levels: %r"
             % tail)


# ---------------------------------------------------------------------------
# vdp-replicates

VDP_CONFIG = {"schema": 1, "experiment": "vdp-robust",
              "model": {"name": "vdp", "params": {}},
              "horizon": VDP_HORIZON, "protocol": VDP_PROTOCOL,
              "replicates": VDP_REPLICATES, "sim_step": SIM_STEP,
              "est_step": 1e-2,
              "optimizer": {"grad_tol": 5e-2, "max_iter": 6000},
              "init_strategy": "meas_interp"}


def outlier_fraction_ok(fraction: float, n: int, p: float) -> bool:
    """Within four binomial standard deviations of the contamination rate."""
    return abs(fraction - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)


def vdp_check(out: Path) -> None:
    header, rows = _read_csv(out / "ise.csv")
    _require(header == ["replicate", "kind", "ise"], "ise.csv header %r" % header)
    _require(len(rows) == 2 * VDP_REPLICATES, "ise.csv has %d rows" % len(rows))
    _require(sorted((r[0], r[1]) for r in rows) ==
             sorted((str(i), k) for i in range(VDP_REPLICATES)
                    for k in ("euler", "trapezoidal")),
             "ise.csv rows do not cover every replicate and kind")
    for r in rows:
        _require(_floats(r[2:], "ise.csv")[0] >= 0.0, "negative ISE %r" % r)
    summary = json.loads((out / "summary.json").read_text())
    _require(summary["failed"] == 0, "%d replicates failed" % summary["failed"])
    n_meas = VDP_REPLICATES * (int(round(VDP_HORIZON / VDP_PROTOCOL["step"])) + 1)
    _require(outlier_fraction_ok(summary["outlier_fraction"], n_meas,
                                 VDP_PROTOCOL["p_outlier"]),
             "outlier fraction %.3f inconsistent with p_outlier %.2f"
             % (summary["outlier_fraction"], VDP_PROTOCOL["p_outlier"]))


# ---------------------------------------------------------------------------
# vdp-simulate

SIMULATE_CONFIG = {"schema": 1, "experiment": "simulate",
                   "model": {"name": "vdp", "params": {}},
                   "horizon": SIM_HORIZON, "sim_step": SIM_STEP, "scheme": "order15",
                   "protocol": VDP_PROTOCOL}


def simulate_check(out: Path) -> None:
    n_steps = int(round(SIM_HORIZON / SIM_STEP))
    header, rows = _read_csv(out / "path.csv")
    _require(header == ["t", "x1", "x2"], "path.csv header %r" % header)
    _require(len(rows) == n_steps + 1, "path.csv has %d rows" % len(rows))
    for r in rows:
        _floats(r, "path.csv")
    n_meas = int(round(SIM_HORIZON / VDP_PROTOCOL["step"])) + 1
    _, rows = _read_csv(out / "measurements.csv")
    _require(len(rows) == n_meas, "measurements.csv has %d rows" % len(rows))


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    command: str                  # sdepath subcommand
    operations: int               # attempted per iteration
    solves: bool                  # operations are optimizer solves
    config: dict                  # passed with --config; the seed goes in --seed
    check: Callable[[Path], None]

    def argv(self, seed: int, config_path: Path, out_dir: Path) -> list:
        return [self.command, "--config", str(config_path), "--seed", str(seed),
                "--out", str(out_dir), "--threads", "1"]


WORKLOADS = {w.name: w for w in (
    Workload("benes-ladder", "benes-convergence",
             operations=len(KINDS) * (len(LADDER) + 1), solves=True,
             config=BENES_CONFIG, check=benes_check),
    Workload("vdp-replicates", "vdp-robust",
             operations=2 * VDP_REPLICATES, solves=True,
             config=VDP_CONFIG, check=vdp_check),
    Workload("vdp-simulate", "simulate", operations=1, solves=False,
             config=SIMULATE_CONFIG, check=simulate_check),
)}
