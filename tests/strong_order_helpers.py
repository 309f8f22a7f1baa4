"""Coupled-path protocols for measuring strong convergence order.

Two couplings are provided.  `self_coupled_rmse` compares each coarse run
against the same integrator on a nested fine grid driven by the aggregated
increments of the fine grid, so both runs see literally the same Wiener path
and the measured error is the scheme's own.  `euler_reference_rmse` follows
the cheaper recipe of comparing against a 10x finer Euler run on common
Wiener increments; the reference then carries its own order-1.0 error, which
dominates whenever the scheme under test is better than order 1.
"""

import numpy as np

from sdepath.model import Diffusion, DriftModel
from sdepath.simulate import RngStream, order15_step, polar_normal, wiener_pair


def aggregate_pair(dw_f, dz_f, ratio, h_f):
    """Exact (dW, dZ) of the coarse grid from fine-grid pairs.

    Over one coarse step made of `ratio` fine sub-steps, dW adds up, while
    the time integral splits into the sub-step integrals plus the rectangle
    contributions of the Wiener level reached before each sub-step.
    """
    n_f, m = dw_f.shape
    n_c = n_f // ratio
    dwb = dw_f.reshape(n_c, ratio, m)
    dzb = dz_f.reshape(n_c, ratio, m)
    level_before = np.cumsum(dwb, axis=1) - dwb
    dw_c = dwb.sum(axis=1)
    dz_c = dzb.sum(axis=1) + h_f * level_before.sum(axis=1)
    return dw_c, dz_c


def order15_terminal(drift: DriftModel, diffusion: Diffusion, x0,
                     step: float, dw: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Terminal states of the rows x0 (P, n) under increments (n_steps, P, m)."""
    x = np.array(x0, dtype=float)
    for k in range(dw.shape[0]):
        x = order15_step(drift, diffusion, k * step, x, step, dw[k], dz[k])
    return x


def euler_terminal(drift: DriftModel, diffusion: Diffusion, x0,
                   step: float, dw: np.ndarray) -> np.ndarray:
    """Euler counterpart of `order15_terminal`; G dW summed by column."""
    x = np.array(x0, dtype=float)
    g = diffusion.g
    for k in range(dw.shape[0]):
        noise = dw[k][:, 0, None] * g[:, 0]
        for j in range(1, g.shape[1]):
            noise += dw[k][:, j, None] * g[:, j]
        x = x + drift.f_rows(np.full(x.shape[0], k * step), x) * step + noise
    return x


def _rows(per_path):
    """Stack per-path (n_steps, m) arrays as (n_steps, P, m)."""
    return np.stack(per_path, axis=1)


def self_coupled_rmse(drift, diffusion, x0, horizon, steps, fine_ratio,
                      n_paths, seed):
    """Terminal-state RMSE of the order-1.5 scheme against itself on a
    `fine_ratio` times finer nested grid sharing the same Wiener path.

    All paths are stepped together as rows; path p draws from stream p."""
    steps = sorted(steps, reverse=True)
    h_f = min(steps) / fine_ratio
    n_f = int(round(horizon / h_f))
    m = diffusion.g.shape[1]
    x0 = np.tile(np.atleast_1d(np.asarray(x0, dtype=float)), (n_paths, 1))
    pairs = [wiener_pair(RngStream(seed, p).generator(), h_f, (n_f, m))
             for p in range(n_paths)]
    x_ref = order15_terminal(drift, diffusion, x0, h_f,
                             _rows([dw for dw, _ in pairs]),
                             _rows([dz for _, dz in pairs]))
    sq = {h: 0.0 for h in steps}
    for h in steps:
        ratio = int(round(h / h_f))
        coarse = [aggregate_pair(dw, dz, ratio, h_f) for dw, dz in pairs]
        x_c = order15_terminal(drift, diffusion, x0, h,
                               _rows([dw for dw, _ in coarse]),
                               _rows([dz for _, dz in coarse]))
        for p in range(n_paths):
            sq[h] += float(np.sum((x_c[p] - x_ref[p]) ** 2))
    hs = np.array(steps)
    rmse = np.sqrt(np.array([sq[h] / n_paths for h in steps]))
    return hs, rmse


def euler_reference_rmse(drift, diffusion, x0, horizon, steps, refine,
                         n_paths, seed):
    """Terminal-state RMSE of the order-1.5 scheme against a `refine` times
    finer Euler run on common Wiener increments.

    The coarse dZ is reconstructed from the fine increments by left-endpoint
    quadrature of the Wiener integral.  For each step all paths are stepped
    together as rows; path p at the i-th step draws from stream
    p * len(steps) + i."""
    steps = sorted(steps, reverse=True)
    m = diffusion.g.shape[1]
    x0 = np.tile(np.atleast_1d(np.asarray(x0, dtype=float)), (n_paths, 1))
    sq = {h: 0.0 for h in steps}
    for i, h in enumerate(steps):
        h_f = h / refine
        n_f = int(round(horizon / h_f))
        fine, dw_c, dz_c = [], [], []
        for p in range(n_paths):
            rng = RngStream(seed, p * len(steps) + i).generator()
            dw_f = np.sqrt(h_f) * polar_normal(rng, (n_f, m))
            # summed per path: numpy's summation order depends on the layout
            dwb = dw_f.reshape(-1, refine, m)
            level_before = np.cumsum(dwb, axis=1) - dwb
            fine.append(dw_f)
            dw_c.append(dwb.sum(axis=1))
            dz_c.append(h_f * level_before.sum(axis=1))
        x_ref = euler_terminal(drift, diffusion, x0, h_f, _rows(fine))
        x_c = order15_terminal(drift, diffusion, x0, h, _rows(dw_c),
                               _rows(dz_c))
        for p in range(n_paths):
            sq[h] += float(np.sum((x_c[p] - x_ref[p]) ** 2))
    hs = np.array(steps)
    rmse = np.sqrt(np.array([sq[h] / n_paths for h in steps]))
    return hs, rmse


def fitted_slope(steps, rmse):
    return float(np.polyfit(np.log(steps), np.log(rmse), 1)[0])
