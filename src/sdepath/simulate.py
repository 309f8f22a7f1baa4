"""Sample-path simulation and measurement generation.

Integrators: the Euler-Maruyama step and an explicit strong order-1.5 step
for additive noise.  The order-1.5 step needs the correlated pair of a
Wiener increment and its time integral over each step; `wiener_pair` draws
them with the exact joint covariance
    Var dW = h,   Var dZ = h^3/3,   Cov(dW, dZ) = h^2/2.

Both integrators step R paths at once as the rows of an (R, n) state.
Row r draws all its increments from its own generator before the first
step, exactly as a lone path would, so its path is bit for bit the same
whatever rows share its batch.  Euler-Maruyama evaluates the drift through
`DriftModel.f_rows`, once per step for all rows.  The order-1.5 scheme
steps each row in turn as Python floats through the point drift
`DriftModel.f`, 1 + 2n calls per step, in straight-line code generated
once per state dimension n: on a few numbers, numpy's per-call dispatch
costs more than the arithmetic.  That code does the operations of the
numpy row step `order15_step` in the same order, so both give the same
states bit for bit.  A row whose state stops being finite, or whose drift
call raises an ArithmeticError such as OverflowError, fails alone, and the
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

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import Diffusion, DriftModel, uniform_steps


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
    n_steps = uniform_steps(horizon, step)
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


# steps of a row whose noise is turned into Python floats at once: one
# conversion of all 256 000 steps of a long path would hold about 100 MB of
# float objects, and blocks of 1 024 steps ran slower and left about 0.2 MB
# more peak memory on six vdp rows than blocks of 256
_KERNEL_BLOCK = 256


@functools.lru_cache(maxsize=None)
def _order15_kernel(n: int):
    """The order-1.5 steps of one row of an n-dimensional model with square
    G, as straight-line code on Python floats through the point drift f.

    It does the operations of `_order15_advance` in the same order, so it
    gives the same states bit for bit: b = x + f0*h, the support points
    b + shifts[j], det = (p0 + m0) + (p1 + m1) + ..., dz = (p0 - m0)*z0
    + ..., and x + h*(0.5*f0 + det/(4n)) + G dW + dz, where pj and mj are
    the drift at b + shifts[j] and b + shifts[n + j].  The returned
    function kernel(f, x, k, step, shifts, gdw, dzs, out) steps the state
    x (n floats) from step k over the rows of gdw (G dW) and dzs
    (dZ / (2 sqrt(n*h))), appends each new state to out as a tuple, and
    returns the last one; shifts holds the 2n x n entries of
    `_support_shifts` row by row."""
    idx = range(n)
    xs = ", ".join("x%d" % i for i in idx)
    lines = [
        "def kernel(f, x, k, step, shifts, gdw, dzs, out):",
        "    %s, = x" % xs,
        "    %s, = shifts" % ", ".join("s%d_%d" % (j, i)
                                        for j in range(2 * n) for i in idx),
        "    append = out.append",
        "    m4 = %r" % (4.0 * n),
        "    for (%s,), (%s,) in zip(gdw, dzs):" % (
            ", ".join("g%d" % i for i in idx),
            ", ".join("z%d" % j for j in idx)),
        "        t = k * step",
        "        %s, = f(t, x)" % ", ".join("a%d" % i for i in idx),
    ]
    lines += ["        b%d = x%d + a%d * step" % (i, i, i) for i in idx]
    lines.append("        t = t + step")
    for j in range(2 * n):
        name = "p%d" % j if j < n else "m%d" % (j - n)
        lines.append("        %s, = f(t, (%s,))" % (
            ", ".join("%s_%d" % (name, i) for i in idx),
            ", ".join("b%d + s%d_%d" % (i, j, i) for i in idx)))
    for i in idx:
        det = " + ".join("(p%d_%d + m%d_%d)" % (j, i, j, i) for j in idx)
        dz = " + ".join("(p%d_%d - m%d_%d) * z%d" % (j, i, j, i, j)
                        for j in idx)
        lines.append("        x%d = x%d + step * (0.5 * a%d + (%s) / m4) "
                     "+ g%d + (%s)" % (i, i, i, det, i, dz))
    lines += ["        x = (%s,)" % xs,
              "        append(x)",
              "        k += 1",
              "    return x"]
    namespace = {}
    exec("\n".join(lines), namespace)
    return namespace["kernel"]


def _order15_row(kernel, f, x: tuple, step: float, shifts: list,
                 gdw: np.ndarray, dzs: np.ndarray, out: np.ndarray) -> None:
    """Step one row from the state x through `kernel` in blocks of
    `_KERNEL_BLOCK` steps; out (n_steps, n) receives the states after each
    step.  A drift call that raises an ArithmeticError makes the row
    non-finite from that step on."""
    for first in range(0, out.shape[0], _KERNEL_BLOCK):
        last = first + _KERNEL_BLOCK
        block = []
        try:
            x = kernel(f, x, first, step, shifts, gdw[first:last].tolist(),
                       dzs[first:last].tolist(), block)
        except ArithmeticError:
            if block:
                out[first:first + len(block)] = block
            out[first + len(block):] = math.nan
            return
        out[first:last] = block


def strong_order_15(drift: DriftModel, diffusion: Diffusion, x0,
                    step: float, horizon: float, rngs):
    """Strong order-1.5 sample paths for additive (constant G) noise.

    Rows, generators and the return value are as in `euler_maruyama`.  Row
    r draws its whole (n_steps, m) `wiener_pair` from rngs[r] before any
    step, as a lone path would, and a row's path does not depend on the
    other rows.  Each row is stepped alone by `_order15_kernel`, through
    `drift.f` (see the module docstring); a drift call that raises an
    ArithmeticError makes the row non-finite from that step on."""
    n_steps = uniform_steps(horizon, step)
    x0 = _check_rows(x0, rngs)
    g = diffusion.g
    rows, n = x0.shape
    if g.shape[0] != n:
        raise ValueError("initial states have %d components for a %d x %d "
                         "diffusion matrix" % ((n,) + g.shape))
    offset = math.sqrt(n * step)
    gdw = np.empty((rows, n_steps, n))
    dzs = np.empty((rows, n_steps, n))
    for r, rng in enumerate(rngs):
        dw, dz = wiener_pair(rng, step, (n_steps, n))
        gdw[r] = _g_dw(g, dw)
        dzs[r] = dz / (2.0 * offset)
        del dw, dz                # before the next row's draw
    shifts = _support_shifts(g, offset).ravel().tolist()
    kernel = _order15_kernel(n)
    states = np.empty((rows, n_steps + 1, n))
    states[:, 0] = x0
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(rows):
            _order15_row(kernel, drift.f, tuple(x0[r].tolist()), step,
                         shifts, gdw[r], dzs[r], states[r, 1:])
    times = np.linspace(0.0, horizon, n_steps + 1)
    return times, states, _row_failures(states.swapaxes(0, 1), step)


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

    Observation instants are k*meas_step for k = 0..T/meas_step, where
    meas_step must divide T = times[-1]; each value is the path component
    there plus Gaussian noise whose standard deviation is sigma_outlier with
    probability p_outlier, else sigma_y.
    """
    if not 0.0 <= p_outlier <= 1.0:
        raise ValueError("outlier probability must lie in [0, 1]")
    horizon = float(times[-1])
    n_meas = uniform_steps(horizon, meas_step) + 1
    mt = np.arange(n_meas) * meas_step
    u = np.interp(mt, times, states[:, component])
    flags = rng.random(n_meas) < p_outlier
    sd = np.where(flags, sigma_outlier, sigma_y)
    values = u + sd * polar_normal(rng, n_meas)
    return MeasurementSample(times=mt, values=values, outlier=flags,
                             component=component)
