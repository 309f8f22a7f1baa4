"""Acceptance gate: the shipped claims, re-verified end to end.

Each test prints exactly one line, "CRITERION n PASS: ..." or
"CRITERION n FAIL: ...".  Run with `pytest tests/test_acceptance.py -s` to
see the lines as they complete; without -s pytest still shows the line for
any failing criterion.  The two CLI studies (criteria 3 and 6) each run
twice with different --threads so criterion 8 can compare their outputs.
"""

import hashlib
import json
import time
from pathlib import Path

import numpy as np
import pytest

from sdepath import cli
from sdepath.cli import gradient_suite, linear_gaussian_check
from sdepath.functionals import (
    QuadratureRule,
    energy_merit,
    euler_merit,
    map_merit,
    trapezoidal_merit,
)
from sdepath.model import (
    DiscretePath,
    Measurements,
    builtin_model,
    make_uniform_grid,
)
from sdepath.simulate import RngStream, wiener_pair
from strong_order_helpers import (
    euler_reference_rmse,
    fitted_slope,
    self_coupled_rmse,
)


def report(number, ok, detail):
    line = "CRITERION %d %s: %s" % (number, "PASS" if ok else "FAIL", detail)
    print(line)
    assert ok, line


def read_path_csv(path):
    lines = Path(path).read_text().splitlines()
    body = np.array([[float(v) for v in line.split(",")]
                     for line in lines[1:]])
    return body[:, 0], body[:, 1:]


def read_convergence_csv(path):
    rows = []
    for line in Path(path).read_text().splitlines()[1:]:
        kind, n, dist, merit = line.split(",")
        rows.append((kind, int(n), float(dist) if dist else None,
                     float(merit)))
    return rows


@pytest.fixture(scope="session")
def benes_runs(tmp_path_factory):
    """Default single-measurement refinement study, run with 1 and 2 threads."""
    base = tmp_path_factory.mktemp("benes-study")
    dirs = (str(base / "threads1"), str(base / "threads2"))
    t0 = time.perf_counter()
    rc = cli.main(["benes-convergence", "--out", dirs[0], "--threads", "1"])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert cli.main(["benes-convergence", "--out", dirs[1],
                     "--threads", "2"]) == 0
    return dirs, elapsed


@pytest.fixture(scope="session")
def vdp_runs(tmp_path_factory):
    """Default contaminated-measurement replicate study, 1 and 2 threads."""
    base = tmp_path_factory.mktemp("vdp-study")
    dirs = (str(base / "threads1"), str(base / "threads2"))
    t0 = time.perf_counter()
    rc = cli.main(["vdp-robust", "--out", dirs[0], "--threads", "1"])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    assert cli.main(["vdp-robust", "--out", dirs[1], "--threads", "2"]) == 0
    return dirs, elapsed


def test_criterion_1_gradient_suite():
    t0 = time.perf_counter()
    results = gradient_suite(100, seed=20240501, tolerance=1e-6)
    elapsed = time.perf_counter() - t0
    worst = max(err for _, err, _ in results)
    ok = all(passed for _, _, passed in results) and elapsed <= 30.0
    report(1, ok, "5 gradients vs finite differences over 100 cases, "
           "max rel err %.3e (tol 1e-6), %.1fs (limit 30s)" % (worst, elapsed))


def test_criterion_2_linear_gaussian_oracle():
    t0 = time.perf_counter()
    trap_err, euler_err = linear_gaussian_check()
    elapsed = time.perf_counter() - t0
    ok = trap_err <= 1e-3 and euler_err <= 5e-3 and elapsed <= 10.0
    report(2, ok, "merit maximizers vs exact smoother, sup err "
           "trapezoidal %.3e (tol 1e-3), euler %.3e (tol 5e-3), "
           "%.1fs (limit 10s)" % (trap_err, euler_err, elapsed))


def test_criterion_3_benes_study(benes_runs):
    dirs, elapsed = benes_runs
    out = Path(dirs[0])

    finest = {}
    for kind in ("euler", "trapezoidal", "exact"):
        t, x = read_path_csv(out / ("paths_%s_1024.csv" % kind))
        finest[kind] = (t, x[:, 0])
    np.testing.assert_array_equal(finest["euler"][0], finest["exact"][0])
    d_trap_exact = float(np.max(np.abs(finest["trapezoidal"][1]
                                       - finest["exact"][1])))
    d_euler_trap = float(np.max(np.abs(finest["euler"][1]
                                       - finest["trapezoidal"][1])))

    euler_dists = [dist for kind, _, dist, _ in
                   read_convergence_csv(out / "convergence.csv")
                   if kind == "euler" and dist is not None]
    tail = euler_dists[-3:]
    monotone = len(tail) == 3 and tail[0] > tail[1] > tail[2]

    ok = (d_trap_exact <= 0.01 and d_euler_trap >= 0.05 and monotone
          and elapsed <= 120.0)
    report(3, ok, "at N=1024 sup(trapezoidal, exact)=%.3e (tol 1e-2), "
           "sup(euler, trapezoidal)=%.3f (needs >= 0.05), euler distances "
           "%s, %.1fs (limit 120s)"
           % (d_trap_exact, d_euler_trap,
              "decreasing" if monotone else "NOT decreasing", elapsed))


def test_criterion_4_discrete_merits_approach_continuous_limits():
    # fixed smooth candidate: restrictions of sin t fed to the discrete
    # merits must approach the quadrature values of the continuous ones
    t0 = time.perf_counter()
    drift, diffusion, init = builtin_model("benes")
    measurements = Measurements([5.0], [1.5], "gaussian", 0.16)

    def restriction(n_segments):
        grid = make_uniform_grid(5.0, n_segments, meas_times=(5.0,))
        return DiscretePath(grid, np.sin(grid.times))

    rule = QuadratureRule.gauss_legendre(7)
    reference = restriction(4096)
    h_energy = energy_merit(reference, drift, diffusion, init, measurements,
                            rule=rule)
    h_map = map_merit(reference, drift, diffusion, init, measurements,
                      rule=rule)

    levels = (64, 128, 256, 512, 1024)
    err_euler, err_trap = [], []
    for n in levels:
        path = restriction(n)
        s = euler_merit(path, drift, diffusion, init, measurements).value
        v = trapezoidal_merit(path, drift, diffusion, init,
                              measurements).value
        err_euler.append(abs(s - h_energy))
        err_trap.append(abs(v - h_map))
    elapsed = time.perf_counter() - t0

    decreasing = (all(a > b for a, b in zip(err_euler[-4:], err_euler[-3:]))
                  and all(a > b for a, b in zip(err_trap[-4:], err_trap[-3:])))
    ok = (err_euler[-1] <= 1e-3 and err_trap[-1] <= 1e-3 and decreasing
          and elapsed <= 10.0)
    report(4, ok, "at N=1024 |euler merit - energy limit|=%.3e and "
           "|trapezoidal merit - OM limit|=%.3e (tol 1e-3 each; the euler "
           "gap shrinks like 1/N and needs N>=4096 to pass), errors over "
           "last 4 levels %s, %.1fs (limit 10s)"
           % (err_euler[-1], err_trap[-1],
              "decreasing" if decreasing else "NOT decreasing", elapsed))


def test_criterion_5_exact_transition_validation(benes_validation_report):
    rep, elapsed = benes_validation_report
    ok = (rep.max_normalisation_error <= 1e-4 and rep.ks_statistic <= 0.01
          and elapsed <= 60.0)
    report(5, ok, "closed-form transition density: normalisation err %.2e "
           "(tol 1e-4), KS vs %d simulated samples %.4f (tol 0.01), "
           "%.1fs (limit 60s)"
           % (rep.max_normalisation_error, rep.n_samples, rep.ks_statistic,
              elapsed))


def test_criterion_6_vdp_replicate_study(vdp_runs):
    dirs, elapsed = vdp_runs
    out = Path(dirs[0])
    rows = [line.split(",") for line in
            (out / "ise.csv").read_text().splitlines()[1:]]
    summary = json.loads((out / "summary.json").read_text())

    counts = {k: summary["kinds"][k]["count"]
              for k in ("euler", "trapezoidal")}
    medians = {k: summary["kinds"][k]["median"]
               for k in ("euler", "trapezoidal")}
    ratio = max(medians.values()) / min(medians.values())
    frac = summary["outlier_fraction"]

    ok = (len(rows) == 100 and summary["failed"] == 0
          and counts == {"euler": 50, "trapezoidal": 50}
          and ratio <= 1.25 and 0.23 <= frac <= 0.27 and elapsed <= 900.0)
    report(6, ok, "50 contaminated replicates per kind, %d failed; median "
           "ISE euler %.3f vs trapezoidal %.3f, ratio %.3f (limit 1.25); "
           "outlier fraction %.3f (0.25 +- 0.02); %.0fs (limit 900s)"
           % (summary["failed"], medians["euler"], medians["trapezoidal"],
              ratio, frac, elapsed))


def test_criterion_7_strong_order():
    t0 = time.perf_counter()
    rng = RngStream(20240815, 0).generator()
    n = 200_000
    h = 0.05
    dw, dz = wiener_pair(rng, h, (n, 1))
    moment_errs = (abs(np.var(dw) / h - 1.0),
                   abs(np.var(dz) / (h ** 3 / 3.0) - 1.0),
                   abs(np.mean(dw * dz) / (h ** 2 / 2.0) - 1.0))
    moments_ok = max(moment_errs) <= 0.03

    drift, diffusion, _ = builtin_model("ou")
    x0 = np.array([1.0])
    steps = (1e-2, 5e-3, 2.5e-3)
    hs, self_rmse = self_coupled_rmse(drift, diffusion, x0, 1.0, steps,
                                      fine_ratio=8, n_paths=80, seed=20240815)
    slope_self = fitted_slope(hs, self_rmse)
    hs, ref_rmse = euler_reference_rmse(drift, diffusion, x0, 1.0, steps,
                                        refine=10, n_paths=80, seed=20240815)
    slope_ref = fitted_slope(hs, ref_rmse)
    elapsed = time.perf_counter() - t0

    ok = 1.2 <= slope_self <= 1.8 and moments_ok and elapsed <= 120.0
    report(7, ok, "linear model self-coupled strong-error slope %.3f "
           "(needs 1.5 +- 0.3; the scheme is superconvergent on linear "
           "drift, its generic 1.5 rate shows on nonlinear models), "
           "refined-euler-reference slope %.3f (reference error dominates), "
           "increment moment errs <= %.4f (tol 0.03), %.1fs (limit 120s)"
           % (slope_self, slope_ref, max(moment_errs), elapsed))


def test_criterion_8_thread_count_invariance(benes_runs, vdp_runs):
    def csv_hashes(directory):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(Path(directory).glob("*.csv"))}

    mismatches = []
    n_files = 0
    for dirs, _ in (benes_runs, vdp_runs):
        h1, h2 = csv_hashes(dirs[0]), csv_hashes(dirs[1])
        assert set(h1) == set(h2) and h1
        n_files += len(h1)
        mismatches += [name for name in h1 if h1[name] != h2[name]]

    ok = not mismatches
    report(8, ok, "%d CSV files from both studies, 1 vs 2 worker threads: %s"
           % (n_files, "all SHA256-identical" if ok
              else "MISMATCH in %s" % ", ".join(mismatches)))
