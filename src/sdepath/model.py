"""Problem data for state-path estimation in diffusion models.

The estimation problems treated by this package are built from four pieces:
a drift function, a constant diffusion matrix, an initial-state density and
a bundle of measurement records.  Candidate state paths are discrete:
a vector of states attached to the points of a time grid, interpreted as
the piecewise-linear interpolant between those points.

This module defines the containers for all of these, the uniform grid
constructor, the one lookup that places an instant on a grid
(`TimeGrid.index_of`), the one count of the steps that make up a horizon
(`uniform_steps`), the built-in example models and a self-check routine
that compares the analytic Jacobian, divergence and Jacobian-derivative
contraction of a drift model against finite differences, and its point
drift against its row drift.  Nested grids are uniform grids at multiples
of one segment count, matched through `index_of`.  Measurements are one array
bundle, `Measurements`, with two noise laws: additive Gaussian noise and
the heavy-tailed Student-t score of the robustness experiment.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np


class GridError(ValueError):
    """Raised when a time grid violates a construction requirement."""


# Relative tolerance used to decide that a requested instant coincides with
# an existing grid point, and that a step divides a horizon.
_SNAP_RTOL = 1e-9

# Budget for the mesh-versus-count requirement N * max(delta) <= c3, as a
# multiple of the horizon T.  Uniform grids give N * max(delta) == T.
_MESH_BUDGET = 10.0


def _snap_tol(horizon: float) -> float:
    """Absolute snap tolerance for instants on [0, horizon]."""
    return _SNAP_RTOL * max(1.0, abs(horizon))


def uniform_steps(horizon: float, step: float) -> int:
    """Number of steps of length `step` that make up [0, horizon]; raises
    ValueError unless `step` divides `horizon` up to the snap tolerance."""
    if step <= 0.0 or horizon <= 0.0:
        raise ValueError("step and horizon must be positive")
    n_steps = int(round(horizon / step))
    if n_steps < 1 or abs(n_steps * step - horizon) > _snap_tol(horizon):
        raise ValueError("step %r does not divide horizon %r" % (step, horizon))
    return n_steps


def _nearest(times: np.ndarray, query: np.ndarray):
    """Index of the grid time nearest each query instant, and whether it lies
    within the snap tolerance of that instant."""
    j = np.clip(np.searchsorted(times, query), 1, times.size - 1)
    left_closer = query - times[j - 1] <= times[j] - query
    idx = np.where(left_closer, j - 1, j)
    tol = _snap_tol(float(times[-1]))
    return idx, np.abs(times[idx] - query) <= tol


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing time points on [0, T].

    `index_of` is the one way to place an instant on the grid.

    Attributes:
        times: array of shape (N+1,), with times[0] == 0.
    """

    times: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        object.__setattr__(self, "times", times)
        if times.ndim != 1 or times.size < 2:
            raise GridError("a time grid needs at least two points")
        if times[0] != 0.0:
            raise GridError("time grids start at t=0, got t0=%r" % times[0])
        deltas = np.diff(times)
        if not np.all(deltas > 0.0):
            raise GridError("grid times must be strictly increasing")
        n_seg = times.size - 1
        budget = _MESH_BUDGET * times[-1]
        if n_seg * deltas.max() > budget * (1.0 + 1e-12):
            raise GridError(
                "grid violates the mesh budget: N*max(delta)=%.6g exceeds "
                "c3=%.6g; use a more even partition" % (n_seg * deltas.max(), budget)
            )
        # query-times bytes -> grid indices; merits ask for the same records
        # on every evaluation
        object.__setattr__(self, "_index_memo", {})

    def index_of(self, t) -> np.ndarray:
        """Grid index of each instant in `t` (read-only integer array).

        Raises GridError when an instant is not a grid point.
        """
        t = np.asarray(t, dtype=float)
        key = t.tobytes()
        idx = self._index_memo.get(key)
        if idx is None:
            idx, on_grid = _nearest(self.times, t.ravel())
            if not np.all(on_grid):
                raise GridError("instant %r does not lie on the grid"
                                % float(t.ravel()[np.argmin(on_grid)]))
            idx.setflags(write=False)
            self._index_memo[key] = idx
        return idx

    @property
    def n_segments(self) -> int:
        return self.times.size - 1

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    @property
    def deltas(self) -> np.ndarray:
        return np.diff(self.times)


def make_uniform_grid(horizon: float, n_segments: int,
                      meas_times: Sequence[float] = ()) -> TimeGrid:
    """Build a uniform grid on [0, horizon] containing every measurement instant.

    Measurement instants that fall (up to rounding) on an existing grid point
    are snapped to it; others are inserted, making the grid locally
    non-uniform.  `index_of` then finds every instant.  Grids built at
    multiples of one N are nested up to rounding: `index_of` on the finer
    grid finds every point of the coarser one.

    Args:
        horizon: final time T > 0.
        n_segments: number of segments N >= 1 of the base uniform grid.
        meas_times: measurement instants, each inside [0, T].
    """
    if horizon <= 0.0:
        raise GridError("horizon must be positive")
    if n_segments < 1:
        raise GridError("need at least one segment")
    times = np.linspace(0.0, horizon, n_segments + 1)
    tol = _snap_tol(horizon)
    # Python sorting here: numpy's sort kernels add to the peak memory of
    # short runs
    wanted = np.array(sorted(set(float(t) for t in meas_times)))
    outside = wanted[(wanted < -tol) | (wanted > horizon + tol)]
    if outside.size:
        raise GridError("measurement instant %r outside [0, %r]"
                        % (float(outside[0]), horizon))
    if wanted.size:
        _, on_grid = _nearest(times, wanted)
        times = np.array(sorted(times.tolist() + wanted[~on_grid].tolist()))
    return TimeGrid(times)


@dataclass(frozen=True)
class DiscretePath:
    """States attached to the points of a time grid.

    The continuous-time reading of a discrete path is its piecewise-linear
    interpolant; `interp` evaluates it.
    """

    grid: TimeGrid
    states: np.ndarray

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim == 1:
            states = states[:, None]
        if states.shape[0] != self.grid.times.size:
            raise ValueError(
                "path has %d states for %d grid points"
                % (states.shape[0], self.grid.times.size)
            )
        object.__setattr__(self, "states", states)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def interp(self, t) -> np.ndarray:
        """Piecewise-linear evaluation at scalar or vector times inside [0, T]."""
        t = np.asarray(t, dtype=float)
        cols = [np.interp(t, self.grid.times, self.states[:, j])
                for j in range(self.dim)]
        return np.stack(cols, axis=-1)


@dataclass(frozen=True)
class Diffusion:
    """Constant, invertible diffusion matrix G and derived weights.

    `weight` is (G G^T)^{-1}, the matrix defining the quadratic form that
    all path merit functions use on drift residuals.
    """

    g: np.ndarray
    weight: np.ndarray

    @classmethod
    def from_matrix(cls, g) -> "Diffusion":
        g = np.atleast_2d(np.asarray(g, dtype=float))
        if g.shape[0] != g.shape[1]:
            raise ValueError("diffusion matrix must be square")
        cond = np.linalg.cond(g)
        if not np.isfinite(cond) or cond > 1e12:
            raise ValueError(
                "diffusion matrix is singular or near-singular (cond=%.3g)" % cond
            )
        weight = np.linalg.inv(g @ g.T)
        weight = 0.5 * (weight + weight.T)
        return cls(g=g, weight=weight)

    @property
    def dim(self) -> int:
        return self.g.shape[0]


@dataclass(frozen=True)
class InitialDensity:
    """Initial-state density through its log and the gradient of the log.

    log_nu may return -inf outside the support; grad_log_nu is only queried
    where log_nu is finite.  `mode` (when known) seeds initial paths,
    `sample(rng)` (when known) draws an initial state, and `precision`
    (when known) is minus the Hessian of log_nu, the curvature the path
    optimiser gives the initial state; without it that curvature is zero.
    """

    log_nu: Callable[[np.ndarray], float]
    grad_log_nu: Callable[[np.ndarray], np.ndarray]
    mode: Optional[np.ndarray] = None
    sample: Optional[Callable[[np.random.Generator], np.ndarray]] = None
    precision: Optional[np.ndarray] = None

    @classmethod
    def gaussian(cls, mean, cov) -> "InitialDensity":
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        cov = np.atleast_2d(np.asarray(cov, dtype=float))
        n = mean.size
        prec = np.linalg.inv(cov)
        prec = 0.5 * (prec + prec.T)
        sign, logdet = np.linalg.slogdet(cov)
        if sign <= 0:
            raise ValueError("covariance must be positive definite")
        lognorm = -0.5 * (n * math.log(2.0 * math.pi) + logdet)

        def log_nu(x, _m=mean, _p=prec, _c=lognorm):
            d = np.asarray(x, dtype=float) - _m
            return float(_c - 0.5 * d @ _p @ d)

        def grad_log_nu(x, _m=mean, _p=prec):
            return -_p @ (np.asarray(x, dtype=float) - _m)

        chol = np.linalg.cholesky(cov)

        def sample(rng, _m=mean, _l=chol):
            from .simulate import polar_normal  # simulate imports this module
            return _m + _l @ polar_normal(rng, _m.size)

        return cls(log_nu=log_nu, grad_log_nu=grad_log_nu, mode=mean.copy(),
                   sample=sample, precision=prec)


@dataclass(frozen=True)
class Measurements:
    """Measurement records of one state component under one noise law.

    Record i observes state component `component` at instant times[i] with
    value values[i]; its residual is r = x[component] - values[i].  Laws:

        "gaussian":  additive Gaussian noise of variance `scale`,
                     log-likelihood -log(2 pi scale)/2 - r^2 / (2 scale).
        "student_t": heavy-tailed score, Student-t with 4 degrees of freedom
                     and scale 2*sigma_y where sigma_y = `scale`, up to its
                     normalisation constant: -5/2 log(1 + r^2 / (4 sigma_y^2)).

    Records are kept in the given order, and several may share an instant.
    Every instant must be a point of the grid a path is evaluated on.
    """

    times: np.ndarray = ()
    values: np.ndarray = ()
    law: str = "gaussian"
    scale: float = 1.0
    component: int = 0

    def __post_init__(self):
        times = np.array(self.times, dtype=float)
        values = np.array(self.values, dtype=float)
        if times.ndim != 1 or times.shape != values.shape:
            raise ValueError("measurement times and values must be 1-D "
                             "arrays of equal length")
        if self.law not in ("gaussian", "student_t"):
            raise ValueError("unknown measurement law %r; choose from "
                             "gaussian, student_t" % (self.law,))
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError("measurement scale must be positive, got %r"
                             % self.scale)
        if not isinstance(self.component, int) or self.component < 0:
            raise ValueError("measurement component must be an integer >= 0")
        times.setflags(write=False)
        values.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def log_density(self, path: DiscretePath, init: InitialDensity):
        """Initial-density plus measurement log terms, with their gradient
        and curvature.

        The value is log_nu(x_0) followed by each record's log-likelihood,
        summed in record order.  The curvature, shape (N+1, n, n), holds
        one diagonal block per grid point of a positive semi-definite
        stand-in for minus the Hessian: the prior precision at x_0 (zero
        when `init` has none) and a weight per record on its component,
        1/scale for the Gaussian law and the iteratively reweighted
        least-squares weight 5/(4 sigma_y^2 + r^2) for the Student-t law.
        Returns (value, gradient of the path's shape, curvature), or
        (-inf, None, None) when a density vanishes.
        """
        x = path.states
        total = float(init.log_nu(x[0]))
        if total == -math.inf:
            return -math.inf, None, None
        grad = np.zeros_like(x)
        grad[0] = np.asarray(init.grad_log_nu(x[0]), dtype=float)
        curv = np.zeros(x.shape + x.shape[1:])
        if init.precision is not None:
            curv[0] = init.precision
        c = self.component
        idx = path.grid.index_of(self.times)
        r = x[idx, c] - self.values
        if self.law == "gaussian":
            terms = (-0.5 * math.log(2.0 * math.pi * self.scale)
                     - 0.5 * r * r / self.scale).tolist()
            score = -r / self.scale
            weight = 1.0 / self.scale
        else:
            s4 = 4.0 * self.scale * self.scale
            # scalar log1p: numpy's vectorised one differs in the last bit
            # on some inputs, and results must not depend on the build
            terms = [-2.5 * math.log1p(z) for z in (r * r / s4).tolist()]
            denom = s4 + r * r
            score = -5.0 * r / denom
            weight = 5.0 / denom
        for term in terms:
            total += term
        if total == -math.inf:
            return -math.inf, None, None
        # unbuffered, so records sharing an instant all count
        np.add.at(grad[:, c], idx, score)
        np.add.at(curv[:, c, c], idx, weight)
        return total, grad, curv


@dataclass(frozen=True)
class DriftModel:
    """Drift f(t, x) with its Jacobian and divergence.

    All callbacks take a scalar time and a state vector of length `dim`.
    `f(t, x)` takes any length-`dim` sequence of floats (the order-1.5
    simulator passes a tuple) and returns a length-`dim` sequence; for any
    row it must return exactly what `f_rows` returns, because the simulator
    steps through `f` and the merits evaluate `f_rows`.  The builtin models
    return tuples of Python floats, the fastest form for the simulator.
    `jac_deriv_contract(t, x, w)` returns the vector whose p-th entry is
    sum_ab w[a,b] * d(jac[a,b])/dx[p]; it feeds the gradient of log-det
    terms in the trapezoidal merit.  When absent, a central finite
    difference of `jac` (step 1e-6, scaled) stands in.

    The *_rows variants evaluate on row-stacked inputs and exist so merit
    evaluations and the Euler-Maruyama integrator, which steps many paths
    as rows, stay vectorised; the defaults just loop over the scalar
    callbacks.
    """

    dim: int
    f: Callable[[float, Sequence[float]], Sequence[float]]
    jac: Callable[[float, np.ndarray], np.ndarray]
    div: Callable[[float, np.ndarray], float]
    jac_deriv_contract: Optional[Callable] = None
    f_batch: Optional[Callable] = None
    jac_batch: Optional[Callable] = None
    div_batch: Optional[Callable] = None
    jac_deriv_contract_batch: Optional[Callable] = None

    def f_rows(self, ts: np.ndarray, xs: np.ndarray) -> np.ndarray:
        if self.f_batch is not None:
            return self.f_batch(ts, xs)
        return np.stack([np.asarray(self.f(t, x), dtype=float)
                         for t, x in zip(ts, xs)])

    def jac_rows(self, ts: np.ndarray, xs: np.ndarray) -> np.ndarray:
        if self.jac_batch is not None:
            return self.jac_batch(ts, xs)
        return np.stack([np.asarray(self.jac(t, x), dtype=float)
                         for t, x in zip(ts, xs)])

    def div_rows(self, ts: np.ndarray, xs: np.ndarray) -> np.ndarray:
        if self.div_batch is not None:
            return self.div_batch(ts, xs)
        return np.array([float(self.div(t, x)) for t, x in zip(ts, xs)])

    def jdc_rows(self, ts: np.ndarray, xs: np.ndarray, ws: np.ndarray) -> np.ndarray:
        """Row-stacked jac_deriv_contract; ws has shape (M, dim, dim)."""
        if self.jac_deriv_contract_batch is not None:
            return self.jac_deriv_contract_batch(ts, xs, ws)
        fn = self.jac_deriv_contract or self._jdc_fd
        return np.stack([np.asarray(fn(t, x, w), dtype=float)
                         for t, x, w in zip(ts, xs, ws)])

    def _jdc_fd(self, t: float, x: np.ndarray, w: np.ndarray) -> np.ndarray:
        # Fallback for user models without second-derivative information.
        out = np.empty(self.dim)
        for p in range(self.dim):
            h = 1e-6 * max(1.0, abs(float(x[p])))
            xp = np.array(x, dtype=float)
            xm = np.array(x, dtype=float)
            xp[p] += h
            xm[p] -= h
            dj = (np.asarray(self.jac(t, xp)) - np.asarray(self.jac(t, xm))) / (2.0 * h)
            out[p] = float(np.sum(w * dj))
        return out


def _benes_drift() -> DriftModel:
    def f(t, x):
        # np.tanh, not math.tanh: the two round differently, and f must
        # equal f_rows bit for bit
        return (float(np.tanh(x[0])),)

    def jac(t, x):
        th = np.tanh(float(x[0]))
        return np.array([[1.0 - th * th]])

    def div(t, x):
        th = np.tanh(float(x[0]))
        return 1.0 - th * th

    def jdc(t, x, w):
        th = np.tanh(float(x[0]))
        return np.array([float(w[0, 0]) * (-2.0 * th * (1.0 - th * th))])

    def f_batch(ts, xs):
        return np.tanh(xs)

    def jac_batch(ts, xs):
        th = np.tanh(xs[:, 0])
        return (1.0 - th * th)[:, None, None]

    def div_batch(ts, xs):
        th = np.tanh(xs[:, 0])
        return 1.0 - th * th

    def jdc_batch(ts, xs, ws):
        th = np.tanh(xs[:, 0])
        return (ws[:, 0, 0] * (-2.0 * th * (1.0 - th * th)))[:, None]

    return DriftModel(dim=1, f=f, jac=jac, div=div, jac_deriv_contract=jdc,
                      f_batch=f_batch, jac_batch=jac_batch, div_batch=div_batch,
                      jac_deriv_contract_batch=jdc_batch)


def _vdp_drift() -> DriftModel:
    # Oscillator with position u and velocity v: du = v dt,
    # dv = (-u + 2 (1 - u^2) v) dt + noise.
    def f(t, x):
        u, v = float(x[0]), float(x[1])
        return (v, -u + 2.0 * (1.0 - u * u) * v)

    def jac(t, x):
        u, v = float(x[0]), float(x[1])
        return np.array([[0.0, 1.0],
                         [-1.0 - 4.0 * u * v, 2.0 * (1.0 - u * u)]])

    def div(t, x):
        u = float(x[0])
        return 2.0 * (1.0 - u * u)

    def jdc(t, x, w):
        u, v = float(x[0]), float(x[1])
        # d(jac)/du has entries [[0,0],[-4v,-4u]], d(jac)/dv has [[0,0],[-4u,0]].
        return np.array([w[1, 0] * (-4.0 * v) + w[1, 1] * (-4.0 * u),
                         w[1, 0] * (-4.0 * u)])

    def f_batch(ts, xs):
        # filled by column: np.stack costs more than the arithmetic on the
        # few rows of a simulation step
        u, v = xs[:, 0], xs[:, 1]
        out = np.empty_like(xs)
        out[:, 0] = v
        out[:, 1] = -u + 2.0 * (1.0 - u * u) * v
        return out

    def jac_batch(ts, xs):
        u, v = xs[:, 0], xs[:, 1]
        m = np.empty((xs.shape[0], 2, 2))
        m[:, 0, 0] = 0.0
        m[:, 0, 1] = 1.0
        m[:, 1, 0] = -1.0 - 4.0 * u * v
        m[:, 1, 1] = 2.0 * (1.0 - u * u)
        return m

    def div_batch(ts, xs):
        u = xs[:, 0]
        return 2.0 * (1.0 - u * u)

    def jdc_batch(ts, xs, ws):
        u, v = xs[:, 0], xs[:, 1]
        return np.stack([ws[:, 1, 0] * (-4.0 * v) + ws[:, 1, 1] * (-4.0 * u),
                         ws[:, 1, 0] * (-4.0 * u)], axis=1)

    return DriftModel(dim=2, f=f, jac=jac, div=div, jac_deriv_contract=jdc,
                      f_batch=f_batch, jac_batch=jac_batch, div_batch=div_batch,
                      jac_deriv_contract_batch=jdc_batch)


def _ou_drift(a: float) -> DriftModel:
    def f(t, x):
        return (-a * float(x[0]),)

    def jac(t, x):
        return np.array([[-a]])

    def div(t, x):
        return -a

    def jdc(t, x, w):
        return np.zeros(1)

    return DriftModel(dim=1, f=f, jac=jac, div=div, jac_deriv_contract=jdc,
                      f_batch=lambda ts, xs: -a * xs,
                      jac_batch=lambda ts, xs: np.full((len(xs), 1, 1), -a),
                      div_batch=lambda ts, xs: np.full(len(xs), -a),
                      jac_deriv_contract_batch=lambda ts, xs, ws: np.zeros((len(xs), 1)))


def builtin_model(name: str, **params):
    """Return (drift, diffusion, initial density) for a named example model.

    Models:
        "benes": scalar dX = tanh(X) dt + dW, X0 ~ N(0, init_var).
            params: init_var (default 0.16).
        "vdp":   planar oscillator, G = g*I, X0 ~ N(0, init_var*I).
            params: g (default 0.1), init_var (default 0.01).
        "ou":    scalar dX = -a X dt + g dW, X0 ~ N(0, init_var).
            params: a > 0 (default 1.0), g (default 1.0), init_var (default 1.0).
    """
    if name == "benes":
        init_var = float(params.pop("init_var", 0.16))
        _reject_extra(name, params)
        return (_benes_drift(), Diffusion.from_matrix([[1.0]]),
                InitialDensity.gaussian([0.0], [[init_var]]))
    if name == "vdp":
        g = float(params.pop("g", 0.1))
        init_var = float(params.pop("init_var", 0.01))
        _reject_extra(name, params)
        return (_vdp_drift(), Diffusion.from_matrix(g * np.eye(2)),
                InitialDensity.gaussian(np.zeros(2), init_var * np.eye(2)))
    if name == "ou":
        a = float(params.pop("a", 1.0))
        g = float(params.pop("g", 1.0))
        init_var = float(params.pop("init_var", 1.0))
        _reject_extra(name, params)
        if a <= 0.0:
            raise ValueError("ou rate a must be positive")
        return (_ou_drift(a), Diffusion.from_matrix([[g]]),
                InitialDensity.gaussian([0.0], [[init_var]]))
    raise ValueError("unknown model %r; choose from benes, vdp, ou" % name)


def _reject_extra(name, params):
    if params:
        raise ValueError("unknown parameters for model %r: %s"
                         % (name, sorted(params)))


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a drift-model self-check; failures are reported, not thrown."""

    max_div_error: float
    max_jac_rel_error: float
    max_jdc_rel_error: float
    f_mismatches: int
    div_tol: float
    jac_tol: float
    n_samples: int

    @property
    def passed(self) -> bool:
        return (self.max_div_error <= self.div_tol
                and self.max_jac_rel_error <= self.jac_tol
                and self.max_jdc_rel_error <= self.jac_tol
                and self.f_mismatches == 0)


def validate_model(drift: DriftModel, n_samples: int = 100, seed: int = 0,
                   t_max: float = 10.0, x_scale: float = 2.0,
                   div_tol: float = 1e-10, jac_tol: float = 1e-5) -> ValidationReport:
    """Check a drift model's callbacks against each other over sampled
    (t, x) points.

    The divergence is checked against the Jacobian trace, the Jacobian
    against central finite differences of f, and the contraction `jdc_rows`
    with a sampled w against central differences of the Jacobian (both
    relative errors against `jac_tol`).  The checked callbacks are
    `div_rows`, `jac_rows`, `jdc_rows` and `f_rows`, called on one row at a
    time: those are what the merits call.  `f` must equal `f_rows` with ==
    at every point, because the simulator steps through `f`;
    `f_mismatches` counts the points where it does not.
    """
    rng = np.random.default_rng(seed)
    # w comes from its own stream, so the (t, x) draws are those of a check
    # without it
    w_rng = np.random.default_rng([seed, 1])
    max_div = 0.0
    max_jac = 0.0
    max_jdc = 0.0
    f_mismatches = 0
    for _ in range(n_samples):
        t = rng.uniform(0.0, t_max, size=1)
        x = rng.uniform(-x_scale, x_scale, size=(1, drift.dim))
        w = w_rng.uniform(-1.0, 1.0, size=(1, drift.dim, drift.dim))
        j = drift.jac_rows(t, x)[0]
        max_div = max(max_div, abs(float(drift.div_rows(t, x)[0])
                                   - float(np.trace(j))))
        j_fd = np.empty_like(j)
        c_fd = np.empty(drift.dim)
        for p in range(drift.dim):
            h = np.zeros_like(x)
            h[0, p] = 1e-6 * max(1.0, abs(float(x[0, p])))
            j_fd[:, p] = ((drift.f_rows(t, x + h) - drift.f_rows(t, x - h))[0]
                          / (2.0 * h[0, p]))
            dj = (drift.jac_rows(t, x + h) - drift.jac_rows(t, x - h))[0]
            c_fd[p] = float(np.sum(w[0] * dj)) / (2.0 * h[0, p])
        denom = max(1.0, float(np.abs(j_fd).max()))
        max_jac = max(max_jac, float(np.abs(j - j_fd).max()) / denom)
        c = drift.jdc_rows(t, x, w)[0]
        denom = max(1.0, float(np.abs(c_fd).max()))
        max_jdc = max(max_jdc, float(np.abs(c - c_fd).max()) / denom)
        f_point = drift.f(float(t[0]), tuple(x[0].tolist()))
        if not np.array_equal(np.asarray(f_point, dtype=float),
                              drift.f_rows(t, x)[0]):
            f_mismatches += 1
    return ValidationReport(max_div_error=max_div, max_jac_rel_error=max_jac,
                            max_jdc_rel_error=max_jdc,
                            f_mismatches=f_mismatches, div_tol=div_tol,
                            jac_tol=jac_tol, n_samples=n_samples)
