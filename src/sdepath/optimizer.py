"""Merit maximisation over discrete state paths and nested-grid studies.

The ascent method is damped Gauss-Newton.  Every merit couples only
neighbouring grid states, so the Gauss-Newton approximation H of minus its
Hessian (the `curvature` of a `MeritValue`) is block-tridiagonal with one
n x n block per grid point; each step solves H d = g for the gradient g by
block cyclic reduction in O(N) work, then backtracks along d until the
Armijo sufficient-increase test holds on the true merit.  This is the
iterated Kalman smoother read as Gauss-Newton; with Student-t records the
measurement blocks carry the iteratively reweighted least-squares weights,
so the iteration count stays flat as the grid is refined.  Where an
objective gives no curvature, a pivot of H is not positive definite or the
solved step is not an ascent direction, that iteration steps along the
gradient instead.

Merit evaluations are extended real: a trial step that lands on a -inf
merit, or violates the trapezoidal determinant condition, is treated as
insufficient increase and the line search backtracks, so the iterates never
leave the finite region when started inside it.

`convergence_study` solves the same estimation problem on a nested family
of uniform grids, warm-starting each level from the previous maximiser, and
reports the sup-distance of every level's maximiser to the finest one.  A
cold start at the finest level guards against the warm start tracking a
secondary mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import functionals
from .functionals import MeritValue, MeshTooCoarseError
from .model import (DiscretePath, Diffusion, DriftModel, InitialDensity,
                    Measurements, TimeGrid, make_uniform_grid, _snap_tol)

Objective = Callable[[DiscretePath], MeritValue]


@dataclass(frozen=True)
class OptimizerOptions:
    grad_tol: float = 1e-8
    max_iter: int = 500


_INIT_STEP = 1.0                  # first trial: the full Gauss-Newton step
_BACKTRACK = 0.5                  # step contraction factor
_MAX_BACKTRACKS = 60
_ARMIJO = 1e-4                    # sufficient-increase fraction


@dataclass(frozen=True)
class OptimizationResult:
    path: DiscretePath
    merit: MeritValue
    grad_norm: float
    iterations: int
    evaluations: int              # objective calls, line-search trials included
    status: str                   # converged | max_iter | line_search_failure
    merit_trace: np.ndarray


def maximize(objective: Objective, start: DiscretePath,
             options: OptimizerOptions = OptimizerOptions()) -> OptimizationResult:
    """Maximise an extended-real merit over path states.

    The start must have a finite merit; anything else raises.  The returned
    trace of accepted merit values is non-decreasing.  The status is
    "line_search_failure" when backtracking finds no sufficient increase,
    or finds it only at a step too small to change the merit.
    """
    grid = start.grid
    shape = start.states.shape
    evaluations = 0

    def evaluate(flat: np.ndarray) -> MeritValue:
        nonlocal evaluations
        evaluations += 1
        return objective(DiscretePath(grid, flat.reshape(shape)))

    def try_evaluate(flat: np.ndarray) -> MeritValue:
        try:
            return evaluate(flat)
        except MeshTooCoarseError:
            return MeritValue(value=-math.inf, gradient=None)

    current = evaluate(start.states.ravel())
    if not current.finite:
        raise ValueError("objective is not finite at the starting path")
    x = start.states.ravel().copy()
    grad = current.gradient.ravel()
    trace = [current.value]
    iterations = 0

    while True:
        if float(np.linalg.norm(grad)) <= options.grad_tol:
            status = "converged"
            break
        if iterations >= options.max_iter:
            status = "max_iter"
            break

        d = _ascent_direction(current, grad)
        slope = float(d @ grad)
        alpha = _INIT_STEP
        accepted = None
        for _ in range(_MAX_BACKTRACKS):
            trial_x = x + alpha * d
            trial = try_evaluate(trial_x)
            if trial.finite and trial.value >= current.value + _ARMIJO * alpha * slope:
                accepted = (trial_x, trial)
                break
            alpha *= _BACKTRACK
        # a backtracked trial that only ties the merit passed because the
        # demanded increase fell below the merit's round-off: the merit can
        # no longer tell steps apart, and further steps would shuffle the
        # last bits of the path without end.  (A full step may tie: near
        # the maximiser its increase is below round-off while |g| falls.)
        if accepted is None or (alpha < _INIT_STEP
                                and accepted[1].value <= current.value):
            status = "line_search_failure"
            break

        x, current = accepted
        grad = current.gradient.ravel()
        trace.append(current.value)
        iterations += 1

    return OptimizationResult(
        path=DiscretePath(grid, x.reshape(shape)),
        merit=current,
        grad_norm=float(np.linalg.norm(grad)),
        iterations=iterations,
        evaluations=evaluations,
        status=status,
        merit_trace=np.asarray(trace),
    )


def _ascent_direction(merit: MeritValue, grad: np.ndarray) -> np.ndarray:
    """The Gauss-Newton step H^{-1} g, or g itself when the merit has no
    curvature, H has a pivot that is not positive definite, or the step is
    not an ascent direction."""
    if merit.curvature is not None:
        diag, lower = merit.curvature
        try:
            d = _solve_block_tridiagonal(
                diag, lower, grad.reshape(diag.shape[:2])).ravel()
        except np.linalg.LinAlgError:
            return grad
        if np.all(np.isfinite(d)) and float(d @ grad) > 0.0:
            return d
    return grad


def _solve_block_tridiagonal(diag: np.ndarray, lower: np.ndarray,
                             rhs: np.ndarray) -> np.ndarray:
    """Solve H x = rhs for symmetric block-tridiagonal H by cyclic reduction.

    diag (m, n, n) holds the blocks H[k, k], lower (m-1, n, n) the blocks
    H[k+1, k], rhs is (m, n).  Each level eliminates the odd-numbered
    unknowns at once, which halves the system, so there are about log2(m)
    vectorised levels.  Raises numpy.linalg.LinAlgError when a pivot block
    is not positive definite.
    """
    if diag.shape[0] == 1:
        np.linalg.cholesky(diag[0])
        return np.linalg.solve(diag[0], rhs[0])[None]
    pivots = diag[1::2]
    np.linalg.cholesky(pivots)
    inv = np.linalg.inv(pivots)
    # odd unknown 2p+1 couples to 2p through a[p] = H[2p+1, 2p] and to
    # 2p+2, when that exists, through c[p] = H[2p+2, 2p+1]
    a = lower[0::2]
    c = lower[1::2]
    na, nc = a.shape[0], c.shape[0]
    a_t = np.swapaxes(a, 1, 2)
    y = (inv @ rhs[1::2, :, None])[..., 0]
    inv_a = inv @ a
    c_inv = c @ inv[:nc]
    diag_e = diag[0::2].copy()
    rhs_e = rhs[0::2].copy()
    diag_e[:na] -= a_t @ inv_a
    diag_e[1:1 + nc] -= c_inv @ np.swapaxes(c, 1, 2)
    rhs_e[:na] -= (a_t @ y[..., None])[..., 0]
    rhs_e[1:1 + nc] -= (c @ y[:nc, :, None])[..., 0]
    x_e = _solve_block_tridiagonal(diag_e, -(c_inv @ a[:nc]), rhs_e)
    x_o = y - (inv_a @ x_e[:na, :, None])[..., 0]
    x_o[:nc] -= (np.swapaxes(c_inv, 1, 2) @ x_e[1:1 + nc, :, None])[..., 0]
    x = np.empty_like(rhs)
    x[0::2] = x_e
    x[1::2] = x_o
    return x


INIT_STRATEGIES = ("zero", "prior_mean", "meas_interp")


def initial_path(grid: TimeGrid, init: InitialDensity,
                 measurements: Measurements = Measurements(),
                 strategy: str = "meas_interp", dim: int = 1) -> DiscretePath:
    """Build a starting path on a grid.

    Strategies:
        "zero": all states zero.
        "prior_mean": constant path at the mode of the initial density.
        "meas_interp": the observed component piecewise-linear through the
            measurement values, anchored at the initial-density mode at t=0
            when no measurement sits there, constant beyond the last
            anchor.  Unobserved components stay at the mode.
    """
    n_pts = grid.times.size
    if strategy == "zero":
        return DiscretePath(grid, np.zeros((n_pts, dim)))
    if init.mode is None:
        raise ValueError("strategy %r needs an initial density with a mode"
                         % strategy)
    mode = np.atleast_1d(np.asarray(init.mode, dtype=float))
    if mode.size != dim:
        raise ValueError("initial-density mode has dimension %d, expected %d"
                         % (mode.size, dim))
    if strategy == "prior_mean":
        return DiscretePath(grid, np.tile(mode, (n_pts, 1)))
    if strategy != "meas_interp":
        raise ValueError("unknown initial-path strategy %r; choose from %s"
                         % (strategy, ", ".join(INIT_STRATEGIES)))

    states = np.tile(mode, (n_pts, 1))
    if measurements.times.size:
        j = measurements.component
        order = np.lexsort((measurements.values, measurements.times))
        ts = measurements.times[order]
        ys = measurements.values[order]
        if ts[0] > _snap_tol(grid.horizon):
            ts = np.concatenate([[0.0], ts])
            ys = np.concatenate([[mode[j]], ys])
        states[:, j] = np.interp(grid.times, ts, ys)
    return DiscretePath(grid, states)


# ---------------------------------------------------------------------------
# Nested-grid convergence studies
# ---------------------------------------------------------------------------

MERIT_KINDS = ("euler", "trapezoidal", "exact")


@dataclass(frozen=True)
class StudyProblem:
    """Everything defining one estimation problem, grid left open."""

    drift: DriftModel
    diffusion: Diffusion
    init: InitialDensity
    measurements: Measurements
    horizon: float

    def grid(self, n_segments: int) -> TimeGrid:
        return make_uniform_grid(self.horizon, n_segments,
                                 meas_times=self.measurements.times)

    def objective(self, kind: str) -> Objective:
        if kind == "euler":
            return lambda p: functionals.euler_merit(
                p, self.drift, self.diffusion, self.init, self.measurements)
        if kind == "trapezoidal":
            return lambda p: functionals.trapezoidal_merit(
                p, self.drift, self.diffusion, self.init, self.measurements)
        if kind == "exact":
            return lambda p: functionals.benes_exact_merit(
                p, self.init, self.measurements)
        raise ValueError("unknown merit kind %r; choose from %s"
                         % (kind, ", ".join(MERIT_KINDS)))


@dataclass(frozen=True)
class StudyLevel:
    n_segments: int
    path: DiscretePath
    merit: float
    grad_norm: float
    iterations: int
    evaluations: int
    status: str


@dataclass(frozen=True)
class ColdStartCheck:
    """Cold-start solve at the finest level, for mode-switch detection."""

    merit: float
    merit_gap: float          # warm merit minus cold merit
    sup_distance: float       # between warm and cold maximisers
    status: str
    iterations: int
    evaluations: int


@dataclass(frozen=True)
class ConvergenceStudy:
    kind: str
    levels: tuple
    distances: tuple          # sup-distance to finest maximiser; None for finest
    cold_check: Optional[ColdStartCheck]


def sup_distance(path_a: DiscretePath, path_b: DiscretePath) -> float:
    """Largest state distance over the grid points of path_a, each of which
    must be a grid point of path_b (nested grids)."""
    idx_a_in_b = path_b.grid.index_of(path_a.grid.times)
    diff = path_a.states - path_b.states[idx_a_in_b]
    return float(np.sqrt((diff * diff).sum(axis=1)).max())


def _upsample(path: DiscretePath, grid: TimeGrid) -> DiscretePath:
    return DiscretePath(grid, path.interp(grid.times))


def convergence_study(problem: StudyProblem, kind: str,
                      n_levels: Sequence[int],
                      options: OptimizerOptions = OptimizerOptions(),
                      init_strategy: str = "meas_interp",
                      cold_check: bool = True) -> ConvergenceStudy:
    """Solve one problem on nested uniform grids of increasing resolution.

    n_levels must be increasing with each entry dividing the next, so the
    grids are nested.  Level 0 starts from `init_strategy`; later levels
    warm-start from the previous maximiser, linearly upsampled.
    """
    n_levels = [int(n) for n in n_levels]
    if not n_levels:
        raise ValueError("need at least one level")
    for a, b in zip(n_levels, n_levels[1:]):
        if b <= a or b % a != 0:
            raise ValueError(
                "levels must increase and divide each other, got %d -> %d"
                % (a, b))
    objective_for = problem.objective(kind)
    dim = problem.drift.dim
    levels = []
    start = None
    for n_seg in n_levels:
        grid = problem.grid(n_seg)
        if start is None:
            start_path = initial_path(grid, problem.init, problem.measurements,
                                      strategy=init_strategy, dim=dim)
        else:
            start_path = _upsample(start, grid)
        res = maximize(objective_for, start_path, options)
        levels.append(StudyLevel(n_segments=n_seg, path=res.path,
                                 merit=res.merit.value, grad_norm=res.grad_norm,
                                 iterations=res.iterations,
                                 evaluations=res.evaluations,
                                 status=res.status))
        start = res.path

    finest = levels[-1].path
    distances = tuple(sup_distance(lev.path, finest) for lev in levels[:-1]) + (None,)

    check = None
    if cold_check:
        grid = finest.grid
        cold_start = initial_path(grid, problem.init, problem.measurements,
                                  strategy=init_strategy, dim=dim)
        cold = maximize(objective_for, cold_start, options)
        check = ColdStartCheck(
            merit=cold.merit.value,
            merit_gap=levels[-1].merit - cold.merit.value,
            sup_distance=sup_distance(cold.path, finest),
            status=cold.status,
            iterations=cold.iterations,
            evaluations=cold.evaluations,
        )
    return ConvergenceStudy(kind=kind, levels=tuple(levels),
                            distances=distances, cold_check=check)
