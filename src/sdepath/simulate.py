"""Sample-path simulation and measurement generation.

Integrators: the Euler-Maruyama step and an explicit strong order-1.5 step
for additive noise.  The order-1.5 step needs the correlated pair of a
Wiener increment and its time integral over each step; `wiener_pair` draws
them with the exact joint covariance
    Var dW = h,   Var dZ = h^3/3,   Cov(dW, dZ) = h^2/2.

Both integrators step R paths at once as the rows of an (R, n) state.
Row r draws all its increments from its own generator before the first
step, exactly as a lone path would, so its path is bit for bit the same
whatever rows share its batch.  The drift is evaluated through
`DriftModel.f_rows`: once per Euler step, twice per order-1.5 step (at the
rows, then at all their supporting points).  A lone order-1.5 path (one
row) is instead stepped as Python floats through the point drift
`DriftModel.f`, 1 + 2m calls per step, with the same operations in the
same order: on a few numbers, numpy's per-call dispatch costs more than
the arithmetic.  A row whose state stops being finite fails alone, and the
other rows carry on.  Buffers take about 1.5 MB per order-1.5 row at
32 000 steps of a 2-D model, so callers with many paths step them in
blocks.

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
from operator import add
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


def _check_rows(x0, rngs) -> np.ndarray:
    x = np.array(x0, dtype=float)
    if x.ndim != 2 or x.shape[0] != len(rngs) or x.shape[0] == 0:
        raise ValueError("initial states must have shape (R, n) with one "
                         "generator per row, got %r for %d generators"
                         % (x.shape, len(rngs)))
    return x


def _g_dw(g: np.ndarray, dw: np.ndarray) -> np.ndarray:
    """G dW for increments along the last axis of dw, summed column by
    column over the nonzero entries of G: a BLAS matmul may round
    differently, and a diagonal G costs one product per entry."""
    out = np.zeros(dw.shape[:-1] + g.shape[:1])
    for j in range(g.shape[1]):
        rows = np.flatnonzero(g[:, j])
        out[..., rows] += dw[..., j, None] * g[rows, j]
    return out


def _row_failures(states: np.ndarray, step: float) -> dict:
    """A SimulationError for each row whose path stops being finite; a
    non-finite state stays so under every later step (x + y is finite only
    when x is), so its first non-finite step is the failing one."""
    finite = np.isfinite(states[1:]).all(axis=2)
    failures = {}
    for r in np.flatnonzero(~finite.all(axis=0)):
        k = int(np.argmin(finite[:, r])) + 1
        failures[int(r)] = SimulationError(
            "state became non-finite at step %d (t=%.6g)" % (k, k * step))
    return failures


def euler_maruyama(drift: DriftModel, diffusion: Diffusion, x0,
                   step: float, horizon: float, rngs):
    """Euler-Maruyama sample paths on a uniform grid, one per row of x0.

    x0 has shape (R, n); row r draws its increments from rngs[r].  Returns
    (times, states, failures): states has shape (R, n_steps+1, n), and
    failures maps each row whose state became non-finite to its
    SimulationError (that row's states are then meaningless)."""
    n_steps = _check_horizon(step, horizon)
    x0 = _check_rows(x0, rngs)
    g = diffusion.g
    # all Wiener increments drawn up front; one draw per step would thrash
    # the rejection sampler on tiny batches
    gdw = np.empty((n_steps,) + x0.shape)
    for r, rng in enumerate(rngs):
        gdw[:, r] = _g_dw(g, math.sqrt(step)
                          * polar_normal(rng, (n_steps, g.shape[1])))
    states = np.empty((n_steps + 1,) + x0.shape)
    states[0] = x = x0
    ts = np.empty(x0.shape[0])
    f_rows = drift.f_rows
    # a row that overflows is reported below, not warned about
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            ts.fill(k * step)
            states[k + 1] = x = x + f_rows(ts, x) * step + gdw[k]
    times = np.linspace(0.0, horizon, n_steps + 1)
    return times, states.swapaxes(0, 1), _row_failures(states, step)


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
    """One explicit strong order-1.5 step for additive noise, on rows.

    x has shape (R, n), dw and dz shape (R, m); returns the (R, n) states
    after the step.  Derivative-free: the drift correction and the dZ
    response both come from supporting drift evaluations at
    x + f*h +- sqrt(m*h) * G[:, j].  With the noise switched off
    (dw = dz = 0) the step is a deterministic order-2 Taylor step for
    x' = f(t, x).
    """
    x = np.asarray(x, dtype=float)
    g = diffusion.g
    offset = math.sqrt(g.shape[1] * step)
    return _order15_advance(
        drift.f_rows, t, x, step, _support_shifts(g, offset),
        _g_dw(g, np.asarray(dw, dtype=float)),
        (np.asarray(dz, dtype=float) / (2.0 * offset)).T[..., None],
        np.empty(x.shape[0]), np.empty(2 * g.shape[1] * x.shape[0]))


def _support_shifts(g: np.ndarray, offset: float) -> np.ndarray:
    """(2m, 1, n) shifts of the supporting points: offset * G[:, j] for each
    column j, then their negatives (x + (-y) is x - y in floating point)."""
    shift = (offset * g.T)[:, None, :]
    return np.concatenate([shift, -shift])


def _order15_advance(f_rows, t: float, x: np.ndarray, step: float,
                     shifts: np.ndarray, gdw: np.ndarray, dzs: np.ndarray,
                     ts: np.ndarray, ts_support: np.ndarray) -> np.ndarray:
    """The order-1.5 step of the rows x from time t, with the parts that
    do not depend on the state precomputed: shifts from `_support_shifts`,
    gdw (R, n) = G dW and dzs (m, R, 1) = dZ / (2 sqrt(m*h)).  ts and
    ts_support are time buffers of R and 2mR entries."""
    m = dzs.shape[0]
    ts.fill(t)
    f0 = f_rows(ts, x)
    support = (x + f0 * step) + shifts
    ts_support.fill(t + step)
    fs = f_rows(ts_support,
                support.reshape(ts_support.size, -1)).reshape(support.shape)
    pair_sums = fs[:m] + fs[m:]
    dz_parts = (fs[:m] - fs[m:]) * dzs
    # summed in column order from the first column, not from zero: that
    # differs only in the sign of a sum that is zero in every column, which
    # can change the step only where a state entry is exactly -0.0
    det_sum = pair_sums[0]
    dz_term = dz_parts[0]
    for j in range(1, m):
        det_sum = det_sum + pair_sums[j]
        dz_term = dz_term + dz_parts[j]
    return x + step * (0.5 * f0 + det_sum / (4.0 * m)) + gdw + dz_term


# steps of a lone path whose noise is turned into Python floats at once:
# one conversion of all 256 000 steps of a long path would hold about
# 100 MB of float objects
_LONE_BLOCK = 4096


def _lone_order15_path(f, x, step: float, shifts: np.ndarray,
                       gdw: np.ndarray, dzs: np.ndarray,
                       out: np.ndarray) -> None:
    """The order-1.5 path of one row as Python floats, through the point
    drift f: the operations of `_order15_advance` in the same order, so the
    same states bit for bit.  x is the initial state as a list; shifts
    (2m, n), gdw (n_steps, n) and dzs (n_steps, m) hold the row's entries
    of the arrays `_order15_advance` takes; out (n_steps, n) receives the
    states after each step."""
    shifts = shifts.tolist()
    m = len(shifts) // 2
    m4 = 4.0 * m
    for first in range(0, out.shape[0], _LONE_BLOCK):
        last = min(first + _LONE_BLOCK, out.shape[0])
        block = []
        for k, (gdw_k, dzs_k) in enumerate(zip(gdw[first:last].tolist(),
                                               dzs[first:last].tolist()),
                                           first):
            t = k * step
            f0 = f(t, x)
            base = [xi + fi * step for xi, fi in zip(x, f0)]
            t = t + step
            # map(add, ...) costs less than a comprehension on a few entries
            fs = [f(t, list(map(add, base, sh))) for sh in shifts]
            fp, fm, dz = fs[0], fs[m], dzs_k[0]
            det_sum = list(map(add, fp, fm))
            dz_term = [(a - b) * dz for a, b in zip(fp, fm)]
            for j in range(1, m):
                fp, fm, dz = fs[j], fs[m + j], dzs_k[j]
                det_sum = [d + (a + b) for d, a, b in zip(det_sum, fp, fm)]
                dz_term = [d + (a - b) * dz
                           for d, a, b in zip(dz_term, fp, fm)]
            x = [xi + step * (0.5 * fi + di / m4) + gi + zi
                 for xi, fi, di, gi, zi in zip(x, f0, det_sum, gdw_k, dz_term)]
            block.append(x)
        out[first:last] = block


def strong_order_15(drift: DriftModel, diffusion: Diffusion, x0,
                    step: float, horizon: float, rngs):
    """Strong order-1.5 sample paths for additive (constant G) noise.

    Rows, generators and the return value are as in `euler_maruyama`.  Row
    r draws its whole (n_steps, m) `wiener_pair` from rngs[r] before any
    step, as a lone path would, and a row's path does not depend on the
    other rows.  A single row is stepped through `drift.f` (see the module
    docstring), more rows through `drift.f_rows`."""
    n_steps = _check_horizon(step, horizon)
    x0 = _check_rows(x0, rngs)
    g = diffusion.g
    m = g.shape[1]
    offset = math.sqrt(m * step)
    gdw = np.empty((n_steps,) + x0.shape)
    dzs = np.empty((n_steps, m, x0.shape[0], 1))
    for r, rng in enumerate(rngs):
        dw, dz = wiener_pair(rng, step, (n_steps, m))
        gdw[:, r] = _g_dw(g, dw)
        dzs[:, :, r, 0] = dz / (2.0 * offset)
        del dw, dz                # before the next row's draw
    shifts = _support_shifts(g, offset)
    states = np.empty((n_steps + 1,) + x0.shape)
    states[0] = x = x0
    with np.errstate(over="ignore", invalid="ignore"):
        if x0.shape[0] == 1:
            _lone_order15_path(drift.f, x0[0].tolist(), step, shifts[:, 0],
                               gdw[:, 0], dzs[:, :, 0, 0], states[1:, 0])
        else:
            f_rows = drift.f_rows
            ts = np.empty(x0.shape[0])
            ts_support = np.empty(2 * m * x0.shape[0])
            for k in range(n_steps):
                states[k + 1] = x = _order15_advance(
                    f_rows, k * step, x, step, shifts, gdw[k], dzs[k], ts,
                    ts_support)
    times = np.linspace(0.0, horizon, n_steps + 1)
    return times, states.swapaxes(0, 1), _row_failures(states, step)


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
