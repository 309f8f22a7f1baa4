"""Sample-path simulation and measurement generation.

Integrators: the Euler-Maruyama step and an explicit strong order-1.5 step
for additive noise.  The order-1.5 step needs the correlated pair of a
Wiener increment and its time integral over each step; `wiener_pair` draws
them with the exact joint covariance
    Var dW = h,   Var dZ = h^3/3,   Cov(dW, dZ) = h^2/2.

Measurement generation follows the contaminated-Gaussian scheme used by the
robustness experiment: each sample is Gaussian around the observed state
component, with probability p_outlier of a larger standard deviation.
Estimation scores such data with the heavy-tailed "student_t" law of
`model.Measurements` instead of the nominal Gaussian one.

Randomness comes from numpy bit generators; `RngStream` derives independent,
reproducible generators from a master seed and a stream index.  All normal
draws go through `polar_normal` (Marsaglia's polar method over uniforms), so
results depend only on the bit stream, not on numpy's ziggurat tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import Diffusion, DriftModel


class SimulationError(RuntimeError):
    """A simulated state stopped being finite."""


@dataclass(frozen=True)
class RngStream:
    """Named random stream: a pure function of (seed, stream index)."""

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(self.stream,)))


def polar_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Standard normal deviates via the Marsaglia polar method.

    Accepted pairs are emitted in draw order; unused accepted values from a
    batch are discarded, so the output is a pure function of the generator
    state and the requested shape.
    """
    shape = (size,) if np.isscalar(size) else tuple(size)
    n = int(np.prod(shape)) if shape else 1
    out = np.empty(n)
    filled = 0
    while filled < n:
        # acceptance rate is pi/4; over-request a little to finish in one pass
        n_pairs = (n - filled + 1) // 2
        n_pairs = n_pairs + n_pairs // 2 + 8
        v = rng.uniform(-1.0, 1.0, size=(n_pairs, 2))
        s = v[:, 0] ** 2 + v[:, 1] ** 2
        # integer gather: faster than boolean masking of the 2-D array; the
        # batch is released at once so the index array adds no peak memory
        keep = np.flatnonzero((s > 0.0) & (s < 1.0))
        vk, sk = v.take(keep, axis=0), s.take(keep)
        del v, s, keep
        f = np.sqrt(-2.0 * np.log(sk) / sk)
        z = (vk * f[:, None]).reshape(-1)
        take = min(z.size, n - filled)
        out[filled:filled + take] = z[:take]
        filled += take
    return out.reshape(shape) if shape else out[0]


def _check_horizon(step: float, horizon: float) -> int:
    if step <= 0.0 or horizon <= 0.0:
        raise ValueError("step and horizon must be positive")
    n_steps = int(round(horizon / step))
    if n_steps < 1 or abs(n_steps * step - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError("step %r does not divide horizon %r" % (step, horizon))
    return n_steps


def euler_maruyama(drift: DriftModel, diffusion: Diffusion, x0,
                   step: float, horizon: float,
                   rng: np.random.Generator):
    """Euler-Maruyama sample path on a uniform grid.

    Returns (times, states) with states of shape (n_steps+1, dim)."""
    n_steps = _check_horizon(step, horizon)
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    n = x.size
    states = np.empty((n_steps + 1, n))
    states[0] = x
    g = diffusion.g
    # all Wiener increments drawn up front; one draw per step would thrash
    # the rejection sampler on tiny batches
    dw = math.sqrt(step) * polar_normal(rng, (n_steps, g.shape[1]))
    for k in range(n_steps):
        t = k * step
        x = x + np.asarray(drift.f(t, x), dtype=float) * step + g @ dw[k]
        if not np.all(np.isfinite(x)):
            raise SimulationError(
                "state became non-finite at step %d (t=%.6g)" % (k + 1, t + step))
        states[k + 1] = x
    times = np.linspace(0.0, horizon, n_steps + 1)
    return times, states


def wiener_pair(rng: np.random.Generator, step: float, size):
    """Draw (dW, dZ): Wiener increments and their time integrals over a step."""
    u1 = polar_normal(rng, size)
    u2 = polar_normal(rng, size)
    dw = math.sqrt(step) * u1
    dz = 0.5 * step ** 1.5 * (u1 + u2 / math.sqrt(3.0))
    return dw, dz


def order15_step(drift: DriftModel, diffusion: Diffusion, t: float,
                 x: np.ndarray, step: float, dw: np.ndarray,
                 dz: np.ndarray) -> np.ndarray:
    """One explicit strong order-1.5 step for additive noise.

    Derivative-free: the drift correction and the dZ response both come from
    supporting drift evaluations at x + f*h +- sqrt(m*h) * G[:, j].  With the
    noise switched off (dw = dz = 0) the step is a deterministic order-2
    Taylor step for x' = f(t, x).
    """
    g = diffusion.g
    m = g.shape[1]
    f0 = np.asarray(drift.f(t, x), dtype=float)
    base = x + f0 * step
    offset = math.sqrt(m * step)
    det_sum = np.zeros_like(f0)
    dz_term = np.zeros_like(f0)
    t_next = t + step
    for j in range(m):
        col = offset * g[:, j]
        f_plus = np.asarray(drift.f(t_next, base + col), dtype=float)
        f_minus = np.asarray(drift.f(t_next, base - col), dtype=float)
        det_sum += f_plus + f_minus
        dz_term += (f_plus - f_minus) * (dz[j] / (2.0 * offset))
    return (x + step * (0.5 * f0 + det_sum / (4.0 * m))
            + g @ dw + dz_term)


def strong_order_15(drift: DriftModel, diffusion: Diffusion, x0,
                    step: float, horizon: float,
                    rng: np.random.Generator):
    """Strong order-1.5 sample path for additive (constant G) noise.

    Returns (times, states) like `euler_maruyama`."""
    n_steps = _check_horizon(step, horizon)
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    n = x.size
    states = np.empty((n_steps + 1, n))
    states[0] = x
    dw, dz = wiener_pair(rng, step, (n_steps, diffusion.g.shape[1]))
    for k in range(n_steps):
        x = order15_step(drift, diffusion, k * step, x, step, dw[k], dz[k])
        if not np.all(np.isfinite(x)):
            raise SimulationError(
                "state became non-finite at step %d (t=%.6g)"
                % (k + 1, (k + 1) * step))
        states[k + 1] = x
    times = np.linspace(0.0, horizon, n_steps + 1)
    return times, states


@dataclass(frozen=True)
class MeasurementSample:
    """Draws of the contaminated-Gaussian measurement scheme."""

    times: np.ndarray
    values: np.ndarray
    outlier: np.ndarray       # boolean flags
    component: int


def sample_measurements(times: np.ndarray, states: np.ndarray,
                        meas_step: float, sigma_y: float,
                        sigma_outlier: float, p_outlier: float,
                        rng: np.random.Generator,
                        component: int = 0) -> MeasurementSample:
    """Sample noisy observations of one state component on a regular schedule.

    Observation instants are k*meas_step for k = 0..round(T/meas_step); each
    value is the path component there plus Gaussian noise whose standard
    deviation is sigma_outlier with probability p_outlier, else sigma_y.
    """
    if not 0.0 <= p_outlier <= 1.0:
        raise ValueError("outlier probability must lie in [0, 1]")
    horizon = float(times[-1])
    n_meas = int(round(horizon / meas_step)) + 1
    mt = np.arange(n_meas) * meas_step
    u = np.interp(mt, times, states[:, component])
    flags = rng.random(n_meas) < p_outlier
    sd = np.where(flags, sigma_outlier, sigma_y)
    values = u + sd * polar_normal(rng, n_meas)
    return MeasurementSample(times=mt, values=values, outlier=flags,
                             component=component)
