"""Merit maximisation over discrete state paths and nested-grid studies.

The ascent method is a limited-memory quasi-Newton (two-loop recursion)
with a backtracking Armijo line search.  Merit evaluations are extended
real: a trial step that lands on a -inf merit, or violates the trapezoidal
determinant condition, is treated as insufficient increase and the line
search backtracks, so the iterates never leave the finite region when
started inside it.

`convergence_study` solves the same estimation problem on a nested family
of uniform grids, warm-starting each level from the previous maximiser, and
reports the sup-distance of every level's maximiser to the finest one.  A
cold start at the finest level guards against the warm start tracking a
secondary mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import functionals
from .functionals import MeritValue, MeshTooCoarseError
from .model import (DiscretePath, Diffusion, DriftModel, InitialDensity,
                    Measurements, TimeGrid, make_uniform_grid)

Objective = Callable[[DiscretePath], MeritValue]


@dataclass(frozen=True)
class OptimizerOptions:
    grad_tol: float = 1e-8
    max_iter: int = 500
    memory: int = 10
    armijo: float = 1e-4          # sufficient-increase fraction
    backtrack: float = 0.5        # step contraction factor
    max_backtracks: int = 60
    init_step: float = 1.0


@dataclass(frozen=True)
class OptimizationResult:
    path: DiscretePath
    merit: MeritValue
    grad_norm: float
    iterations: int
    status: str                   # converged | max_iter | line_search_failure
    merit_trace: np.ndarray


def maximize(objective: Objective, start: DiscretePath,
             options: OptimizerOptions = OptimizerOptions()) -> OptimizationResult:
    """Maximise an extended-real merit over path states.

    The start must have a finite merit; anything else raises.  The returned
    trace of accepted merit values is non-decreasing.
    """
    grid = start.grid
    shape = start.states.shape

    def evaluate(flat: np.ndarray) -> MeritValue:
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
    grad = current.gradient.ravel().copy()
    trace = [current.value]

    mem_s: list[np.ndarray] = []
    mem_y: list[np.ndarray] = []
    iterations = 0
    status = "max_iter"

    while True:
        gnorm = float(np.linalg.norm(grad))
        if gnorm <= options.grad_tol:
            status = "converged"
            break
        if iterations >= options.max_iter:
            status = "max_iter"
            break

        # Two-loop recursion on the negated problem (descent on -merit).
        g_desc = -grad
        d = _two_loop(g_desc, mem_s, mem_y)
        slope = float(d @ g_desc)
        if slope >= 0.0:
            mem_s.clear()
            mem_y.clear()
            d = -g_desc
            slope = float(d @ g_desc)

        alpha = options.init_step
        accepted = None
        for _ in range(options.max_backtracks):
            trial_x = x + alpha * d
            trial = try_evaluate(trial_x)
            # Armijo on the negated problem: -trial <= -current + c*alpha*slope.
            if trial.finite and -trial.value <= -current.value + options.armijo * alpha * slope:
                accepted = (trial_x, trial)
                break
            alpha *= options.backtrack
        if accepted is None:
            status = "line_search_failure"
            break

        new_x, new_val = accepted
        new_grad = new_val.gradient.ravel().copy()
        s = new_x - x
        y = -(new_grad - grad)    # gradient difference of the negated problem
        sty = float(s @ y)
        if sty > 1e-12 * float(np.linalg.norm(s)) * float(np.linalg.norm(y)):
            mem_s.append(s)
            mem_y.append(y)
            if len(mem_s) > options.memory:
                mem_s.pop(0)
                mem_y.pop(0)
        x = new_x
        grad = new_grad
        current = new_val
        trace.append(current.value)
        iterations += 1

    return OptimizationResult(
        path=DiscretePath(grid, x.reshape(shape)),
        merit=current,
        grad_norm=float(np.linalg.norm(grad)),
        iterations=iterations,
        status=status,
        merit_trace=np.asarray(trace),
    )


def _two_loop(g: np.ndarray, mem_s, mem_y) -> np.ndarray:
    """Approximate -H^{-1} g from stored curvature pairs (descent direction)."""
    q = g.copy()
    alphas = []
    for s, y in zip(reversed(mem_s), reversed(mem_y)):
        rho = 1.0 / float(s @ y)
        a = rho * float(s @ q)
        alphas.append((a, rho, s, y))
        q -= a * y
    if mem_s:
        s, y = mem_s[-1], mem_y[-1]
        q *= float(s @ y) / float(y @ y)
    for a, rho, s, y in reversed(alphas):
        b = rho * float(y @ q)
        q += (a - b) * s
    return -q


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
        raise ValueError("unknown initial-path strategy %r" % strategy)

    states = np.tile(mode, (n_pts, 1))
    if measurements.times.size:
        j = measurements.component
        order = np.lexsort((measurements.values, measurements.times))
        ts = measurements.times[order]
        ys = measurements.values[order]
        if ts[0] > 1e-9 * max(1.0, grid.horizon):
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
    status: str


@dataclass(frozen=True)
class ColdStartCheck:
    """Cold-start solve at the finest level, for mode-switch detection."""

    merit: float
    merit_gap: float          # warm merit minus cold merit
    sup_distance: float       # between warm and cold maximisers
    status: str


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
                                 iterations=res.iterations, status=res.status))
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
        )
    return ConvergenceStudy(kind=kind, levels=tuple(levels),
                            distances=distances, cold_check=check)
