"""Independent reference computations, and the checks of the estimation code
against them.

The references share no evaluation machinery with the merit functions or
the optimiser: plain central differences for gradients, a Kalman/RTS
smoother with exact discretisation for linear Gaussian problems, the
closed-form transition density of the scalar tanh-drift model, and a finer
rule for the quadrature of the continuous functionals.  `gradient_suite`
and `linear_gaussian_check` run the merits and the optimiser against the
first two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import functionals
from .model import (builtin_model, make_uniform_grid, DiscretePath,
                    Diffusion, DriftModel, InitialDensity, Measurements,
                    TimeGrid)
from .optimizer import (initial_path, maximize, OptimizerOptions,
                        StudyProblem)
from .simulate import polar_normal

_LOG_2PI = math.log(2.0 * math.pi)


class OracleFailure(RuntimeError):
    """A reference computation broke down numerically."""


def fd_gradient(func: Callable[[np.ndarray], float], x: np.ndarray,
                rel_step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector.

    The step for component i is rel_step * max(1, |x[i]|).  A non-finite
    probe value raises, naming the offending component.
    """
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        h = rel_step * max(1.0, abs(float(x[i])))
        xp = np.array(x)
        xm = np.array(x)
        xp[i] += h
        xm[i] -= h
        fp = float(func(xp))
        fm = float(func(xm))
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise OracleFailure(
                "function value not finite at probe of component %d" % i)
        grad[i] = (fp - fm) / (2.0 * h)
    return grad


def gradient_suite(n_cases: int = 100, seed: int = 20240501,
                   tolerance: float = 1e-6):
    """Relative FD error of every analytic gradient over random cases.

    Returns a list of (name, max relative error, within tolerance) triples
    covering the four path merits on the builtin models plus the
    heavy-tailed measurement score.
    """
    rng = np.random.default_rng(seed)
    merit_funcs = (("euler_energy", functionals.euler_energy, False),
                   ("euler_merit", functionals.euler_merit, True),
                   ("trapezoidal_om", functionals.trapezoidal_om, False),
                   ("trapezoidal_merit", functionals.trapezoidal_merit,
                    True))
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
            args = ((drift, diffusion, init, measurements) if with_density
                    else (drift, diffusion))
            value = func(path, *args)
            fd = fd_gradient(lambda flat: func(
                DiscretePath(grid, flat.reshape(states.shape)), *args).value,
                states.reshape(-1))
            err = (np.linalg.norm(fd - value.gradient.reshape(-1))
                   / max(1.0, np.linalg.norm(fd)))
            worst[fname] = max(worst[fname], err)
        x = rng.uniform(-2.0, 2.0, size=drift.dim)
        score = Measurements([0.0], [float(rng.uniform(-2.0, 2.0))],
                             "student_t", float(rng.uniform(0.2, 1.0)))
        _, grad, _ = score.log_density(DiscretePath(unit, [x, x]), no_prior)
        fd = fd_gradient(
            lambda z: score.log_density(DiscretePath(unit, [z, x]),
                                        no_prior)[0], x)
        num = np.linalg.norm(fd - grad[0])
        worst["student_t_loglik"] = max(worst["student_t_loglik"],
                                        num / max(1.0, np.linalg.norm(fd)))
    return [(name, err, err <= tolerance) for name, err in worst.items()]


# ---------------------------------------------------------------------------
# Exact transition density of the scalar tanh-drift model
# ---------------------------------------------------------------------------
#
# For dX = tanh(X) dt + dW the transition density has the closed form
#
#     p(x1 | x0; d) = cosh(x1)/cosh(x0) * exp(-d/2) * N(x1; x0, d),
#
# equivalently the two-component normal mixture
#     w+ N(x1; x0 + d, d) + w- N(x1; x0 - d, d),  w+- = e^{+-x0}/(2 cosh x0),
# which gives the distribution function in closed form as well.

def _log_cosh(x):
    ax = np.abs(np.asarray(x, dtype=float))
    return ax + np.log1p(np.exp(-2.0 * ax)) - math.log(2.0)


def benes_exact_log_transition(x_from, x_to, delta: float):
    """Closed-form transition log-density of the scalar tanh-drift model."""
    if delta <= 0.0:
        raise ValueError("transition interval must be positive")
    x_from = np.asarray(x_from, dtype=float)
    x_to = np.asarray(x_to, dtype=float)
    d = x_to - x_from
    out = (_log_cosh(x_to) - _log_cosh(x_from) - 0.5 * delta
           - d * d / (2.0 * delta) - 0.5 * (_LOG_2PI + math.log(delta)))
    if out.ndim == 0:
        return float(out)
    return out


def _std_normal_cdf(z):
    return 0.5 * (1.0 + np.vectorize(math.erf)(np.asarray(z) / math.sqrt(2.0)))


def benes_exact_cdf(x_from: float, x, delta: float):
    """Distribution function of the closed-form transition density."""
    x = np.asarray(x, dtype=float)
    w_plus = 1.0 / (1.0 + math.exp(-2.0 * x_from))
    s = math.sqrt(delta)
    return (w_plus * _std_normal_cdf((x - x_from - delta) / s)
            + (1.0 - w_plus) * _std_normal_cdf((x - x_from + delta) / s))


@dataclass(frozen=True)
class BenesValidationReport:
    """Normalisation and Monte Carlo checks of the closed-form transition."""

    max_normalisation_error: float
    ks_statistic: float
    n_samples: int
    normalisation_tol: float = 1e-4
    ks_tol: float = 0.01

    @property
    def passed(self) -> bool:
        return (self.max_normalisation_error <= self.normalisation_tol
                and self.ks_statistic <= self.ks_tol)


def _benes_normalisation_error(starts=(-2.0, -0.5, 0.0, 1.0, 3.0),
                               deltas=(0.1, 0.5, 1.0, 2.0)) -> float:
    worst = 0.0
    for x0 in starts:
        for d in deltas:
            half = 10.0 * math.sqrt(d) + d + 2.0
            xs = np.linspace(x0 - half, x0 + half, 20001)
            dens = np.exp(benes_exact_log_transition(x0, xs, d))
            mass = float(np.trapezoid(dens, xs))
            worst = max(worst, abs(mass - 1.0))
    return worst


def _benes_euler_samples(n_samples: int, step: float, delta: float,
                         x_from: float, seed: int) -> np.ndarray:
    """Simulate the tanh-drift model over [0, delta] for many samples at once.

    Raises ValueError unless `step` divides `delta`."""
    n_steps = int(round(delta / step))
    if n_steps < 1 or abs(n_steps * step - delta) > 1e-9 * delta:
        raise ValueError("step %r does not divide delta %r" % (step, delta))
    gen = np.random.default_rng(np.random.SeedSequence(seed))
    x = np.full(n_samples, float(x_from))
    sqh = math.sqrt(step)
    for _ in range(n_steps):
        x += np.tanh(x) * step + sqh * polar_normal(gen, n_samples)
    return x


def validate_benes_transition(n_samples: int = 100_000, step: float = 1e-4,
                              delta: float = 1.0, x_from: float = 0.0,
                              seed: int = 20_240_501) -> BenesValidationReport:
    """Check the closed form against numeric normalisation and simulation.

    The Monte Carlo gate compares the closed-form distribution function with
    the empirical one of Euler-simulated samples (Kolmogorov-Smirnov sup
    distance)."""
    norm_err = _benes_normalisation_error()
    samples = np.sort(_benes_euler_samples(n_samples, step, delta, x_from, seed))
    cdf = benes_exact_cdf(x_from, samples, delta)
    i = np.arange(1, n_samples + 1)
    ks = float(np.max(np.maximum(np.abs(cdf - i / n_samples),
                                 np.abs(cdf - (i - 1) / n_samples))))
    return BenesValidationReport(max_normalisation_error=norm_err,
                                 ks_statistic=ks, n_samples=n_samples)


_BENES_GATE_PASSED = False


def ensure_benes_transition_validated() -> None:
    """Cheap once-per-process gate run before the exact-transition merit.

    Covers the normalisation check; the full Monte Carlo validation runs in
    the test suite and the `validate` command."""
    global _BENES_GATE_PASSED
    if _BENES_GATE_PASSED:
        return
    err = _benes_normalisation_error(starts=(-0.5, 0.0, 1.0), deltas=(0.25, 1.0))
    if err > 1e-4:
        raise OracleFailure(
            "closed-form transition density failed its normalisation gate "
            "(error %.3g)" % err)
    _BENES_GATE_PASSED = True


# ---------------------------------------------------------------------------
# Kalman/RTS smoother with exact discretisation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearGaussianSpec:
    """Linear SDE dX = A X dt + G dW with Gaussian initial state.

    Scalar observations y = c^T x + noise of variance r are attached per
    instant when smoothing.  A must be diagonalisable (all shipped cases are
    scalar or symmetric)."""

    a: np.ndarray
    g: np.ndarray
    x0_mean: np.ndarray
    x0_cov: np.ndarray


@dataclass(frozen=True)
class SmootherResult:
    times: np.ndarray
    means: np.ndarray
    covs: np.ndarray


def _exact_discretisation(a: np.ndarray, g: np.ndarray, delta: float):
    """Transition matrix and process noise covariance over one segment."""
    n = a.shape[0]
    if n == 1:
        lam = float(a[0, 0])
        phi = math.exp(lam * delta)
        gg = float(g[0, 0]) ** 2
        z = 2.0 * lam * delta
        if abs(z) < 1e-10:
            qd = gg * delta * (1.0 + 0.5 * z + z * z / 6.0)
        else:
            qd = gg * (math.exp(z) - 1.0) / (2.0 * lam)
        return np.array([[phi]]), np.array([[qd]])
    lam, v = np.linalg.eig(a)
    if np.linalg.cond(v) > 1e8:
        raise OracleFailure("drift matrix must be diagonalisable for the "
                            "exact discretisation")
    v_inv = np.linalg.inv(v)
    phi = (v @ np.diag(np.exp(lam * delta)) @ v_inv).real
    b = v_inv @ (g @ g.T) @ v_inv.T
    z = (lam[:, None] + lam[None, :]) * delta
    small = np.abs(z) < 1e-8
    ratio = np.where(small, 1.0 + z / 2.0 + z * z / 6.0,
                     np.expm1(np.where(small, 1.0, z)) / np.where(small, 1.0, z))
    m = b * delta * ratio
    qd = (v @ m @ v.T).real
    return phi, 0.5 * (qd + qd.T)


def rts_smoother(spec: LinearGaussianSpec, grid: TimeGrid,
                 measurements: Sequence[tuple]) -> SmootherResult:
    """Fixed-interval smoother for a linear Gaussian model on a time grid.

    measurements: sequence of (t, y, c, r) with scalar y, observation row c
    and noise variance r >= 0; each t must lie on a grid point.  Exact
    matrix-exponential discretisation is used per segment, so the smoothed
    means and covariances are those of the continuous-discrete posterior at
    the grid instants.
    """
    a = np.atleast_2d(np.asarray(spec.a, dtype=float))
    g = np.atleast_2d(np.asarray(spec.g, dtype=float))
    n = a.shape[0]
    times = grid.times
    n_pts = times.size
    by_index: dict[int, list] = {}
    indices = grid.index_of([t for t, _, _, _ in measurements])
    for j, (_, y, c, r) in zip(indices.tolist(), measurements):
        by_index.setdefault(j, []).append(
            (float(y), np.atleast_1d(np.asarray(c, dtype=float)), float(r)))

    phis = []
    qds = []
    for delta in grid.deltas:
        phi, qd = _exact_discretisation(a, g, float(delta))
        phis.append(phi)
        qds.append(qd)

    m_pred = np.empty((n_pts, n))
    p_pred = np.empty((n_pts, n, n))
    m_filt = np.empty((n_pts, n))
    p_filt = np.empty((n_pts, n, n))
    m = np.asarray(spec.x0_mean, dtype=float).reshape(n)
    p = np.atleast_2d(np.asarray(spec.x0_cov, dtype=float))
    eye = np.eye(n)
    for k in range(n_pts):
        m_pred[k] = m
        p_pred[k] = p
        for (y, c, r) in by_index.get(k, ()):
            s = float(c @ p @ c) + r
            if s <= 0.0:
                raise OracleFailure("measurement update with non-positive "
                                    "innovation variance")
            gain = (p @ c) / s
            m = m + gain * (y - float(c @ m))
            j = eye - np.outer(gain, c)
            p = j @ p @ j.T + r * np.outer(gain, gain)
            p = 0.5 * (p + p.T)
        if np.any(np.linalg.eigvalsh(p) < -1e-10 * max(1.0, float(np.trace(p)))):
            raise OracleFailure("filtered covariance lost positive "
                                "semidefiniteness at index %d" % k)
        m_filt[k] = m
        p_filt[k] = p
        if k < n_pts - 1:
            m = phis[k] @ m
            p = phis[k] @ p @ phis[k].T + qds[k]
            p = 0.5 * (p + p.T)

    means = np.empty((n_pts, n))
    covs = np.empty((n_pts, n, n))
    means[-1] = m_filt[-1]
    covs[-1] = p_filt[-1]
    for k in range(n_pts - 2, -1, -1):
        pp = p_pred[k + 1]
        cmat = p_filt[k] @ phis[k].T @ np.linalg.inv(pp)
        means[k] = m_filt[k] + cmat @ (means[k + 1] - m_pred[k + 1])
        covs[k] = p_filt[k] + cmat @ (covs[k + 1] - pp) @ cmat.T
        covs[k] = 0.5 * (covs[k] + covs[k].T)
    return SmootherResult(times=times.copy(), means=means, covs=covs)


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
    spec = LinearGaussianSpec(a=-1.0, g=1.0, x0_mean=0.0, x0_cov=1.0)
    smoothed = rts_smoother(
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


# ---------------------------------------------------------------------------
# Quadrature refinement check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadratureReport:
    energy_default: float
    energy_fine: float
    om_default: float
    om_fine: float

    @property
    def max_abs_diff(self) -> float:
        return max(abs(self.energy_default - self.energy_fine),
                   abs(self.om_default - self.om_fine))


def quadrature_refine_check(path: DiscretePath, drift: DriftModel,
                            diffusion: Diffusion) -> QuadratureReport:
    """Evaluate the continuous functionals with the default 3-point rule and
    a 7-point rule; large differences flag an inadequate default quadrature."""
    fine = functionals.QuadratureRule.gauss_legendre(7)
    return QuadratureReport(
        energy_default=functionals.continuous_energy(path, drift, diffusion),
        energy_fine=functionals.continuous_energy(path, drift, diffusion, fine),
        om_default=functionals.continuous_om(path, drift, diffusion),
        om_fine=functionals.continuous_om(path, drift, diffusion, fine),
    )

