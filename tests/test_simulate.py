"""Sample-path generation, the noise source, and measurement sampling."""

import math
import re

import numpy as np
import pytest

from sdepath.model import (
    DiscretePath,
    Diffusion,
    DriftModel,
    InitialDensity,
    Measurements,
    builtin_model,
    make_uniform_grid,
)
from sdepath.simulate import (
    RngStream,
    SimulationError,
    euler_maruyama,
    order15_step,
    polar_normal,
    sample_measurements,
    strong_order_15,
    wiener_pair,
)
import strong_order_helpers
from strong_order_helpers import (aggregate_pair, fitted_slope,
                                  self_coupled_rmse)


def block_drift(f_vec, dim):
    """Many independent copies of a scalar law as one vector model, so that
    distributional checks can batch through the integrators.  f takes any
    length-dim sequence and returns an ndarray."""
    return DriftModel(
        dim=dim,
        f=lambda t, x: f_vec(np.asarray(x)),
        jac=lambda t, x: np.zeros((dim, dim)),
        div=lambda t, x: 0.0,
        f_batch=lambda ts, xs: f_vec(xs),
    )


class TestRngStream:
    def test_reproducible(self):
        a = RngStream(2024, 3).generator().random(8)
        b = RngStream(2024, 3).generator().random(8)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = RngStream(2024, 0).generator().random(8)
        b = RngStream(2024, 1).generator().random(8)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = RngStream(1, 0).generator().random(8)
        b = RngStream(2, 0).generator().random(8)
        assert not np.array_equal(a, b)


def boolean_mask_polar_normal(rng, size):
    """polar_normal as first written, gathering the accepted pairs with a
    boolean mask; kept to pin the draws of the integer gather."""
    shape = (size,) if np.isscalar(size) else tuple(size)
    n = int(np.prod(shape)) if shape else 1
    out = np.empty(n)
    filled = 0
    while filled < n:
        n_pairs = (n - filled + 1) // 2
        n_pairs = n_pairs + n_pairs // 2 + 8
        v = rng.uniform(-1.0, 1.0, size=(n_pairs, 2))
        s = v[:, 0] ** 2 + v[:, 1] ** 2
        keep = (s > 0.0) & (s < 1.0)
        vk, sk = v[keep], s[keep]
        f = np.sqrt(-2.0 * np.log(sk) / sk)
        z = (vk * f[:, None]).reshape(-1)
        take = min(z.size, n - filled)
        out[filled:filled + take] = z[:take]
        filled += take
    return out.reshape(shape) if shape else out[0]


class TestPolarNormal:
    @pytest.mark.parametrize("size", [1, 2, (100, 3), (32000, 2)])
    def test_same_draws_as_boolean_mask(self, size):
        for seed in (5, 6):
            new = polar_normal(RngStream(seed).generator(), size)
            old = boolean_mask_polar_normal(RngStream(seed).generator(), size)
            assert new.shape == old.shape
            assert np.array_equal(new, old)

    def test_moments(self):
        z = polar_normal(RngStream(11).generator(), 200_000)
        assert abs(float(np.mean(z))) <= 0.01
        assert abs(float(np.var(z)) - 1.0) <= 0.015
        kurt = float(np.mean(z**4) / np.var(z) ** 2)
        assert abs(kurt - 3.0) <= 0.1

    def test_bitwise_reproducible(self):
        a = polar_normal(RngStream(5).generator(), (100, 3))
        b = polar_normal(RngStream(5).generator(), (100, 3))
        np.testing.assert_array_equal(a, b)
        assert a.shape == (100, 3)

    def test_scalar_request(self):
        z = polar_normal(RngStream(5).generator(), 1)
        assert z.shape == (1,)

    def test_pairs_uncorrelated(self):
        z = polar_normal(RngStream(13).generator(), 200_000)
        # the polar method emits deviates in pairs; the two halves of each
        # pair must still be independent
        corr = float(np.corrcoef(z[0::2], z[1::2])[0, 1])
        assert abs(corr) <= 0.01


class TestEulerMaruyama:
    def test_noiseless_recursion(self, monkeypatch):
        monkeypatch.setattr("sdepath.simulate.polar_normal",
                            lambda rng, size: np.zeros(size))
        drift = block_drift(lambda x: -x, 1)
        times, states, failed = euler_maruyama(
            drift, Diffusion.from_matrix([[1.0]]), [[1.0]], 0.1, 1.0,
            [RngStream(0).generator()])
        assert not failed
        np.testing.assert_allclose(states[0, :, 0], 0.9 ** np.arange(11),
                                   atol=1e-15)
        np.testing.assert_allclose(times, np.linspace(0.0, 1.0, 11))

    def test_pure_noise_increment_variance(self):
        drift = block_drift(lambda x: np.zeros_like(x), 1)
        h = 0.01
        _, states, _ = euler_maruyama(drift, Diffusion.from_matrix([[1.0]]),
                                      [[0.0]], h, 1000.0,
                                      [RngStream(21).generator()])
        inc = np.diff(states[0, :, 0])
        assert inc.size == 100_000
        assert abs(float(np.var(inc)) / h - 1.0) <= 0.03

    def test_stationary_variance(self):
        # 10^4 independent scalar runs batched as 50 rows of a 200-dim
        # block of independent copies; terminal variance of dX = -X dt + dW
        # from x0 = 0 at T = 5 is 0.5 up to e^{-10} transients.
        dim = 200
        drift = block_drift(lambda x: -x, dim)
        diffusion = Diffusion.from_matrix(np.eye(dim))
        _, states, _ = euler_maruyama(
            drift, diffusion, np.zeros((50, dim)), 1e-3, 5.0,
            [RngStream(777, rep).generator() for rep in range(50)])
        var = float(np.var(states[:, -1]))
        assert abs(var - 0.5) <= 0.025

    def test_reproducible(self):
        drift, diffusion, _ = builtin_model("benes")
        _, a, _ = euler_maruyama(drift, diffusion, [[0.0]], 0.01, 1.0,
                                 [RngStream(3, 1).generator()])
        _, b, _ = euler_maruyama(drift, diffusion, [[0.0]], 0.01, 1.0,
                                 [RngStream(3, 1).generator()])
        np.testing.assert_array_equal(a, b)

    def test_step_must_divide_horizon(self):
        drift, diffusion, _ = builtin_model("benes")
        rngs = [RngStream(0).generator()]
        with pytest.raises(ValueError):
            euler_maruyama(drift, diffusion, [[0.0]], 0.3, 1.0, rngs)
        with pytest.raises(ValueError):
            euler_maruyama(drift, diffusion, [[0.0]], -0.1, 1.0, rngs)
        with pytest.raises(ValueError):
            euler_maruyama(drift, diffusion, [[0.0]], 0.1, 0.0, rngs)

    def test_unstable_model_raises(self):
        # the integrator reports the failure of its one row; callers raise it
        drift = block_drift(lambda x: x**3, 1)
        diffusion = Diffusion.from_matrix([[1e-8]])
        _, _, failed = euler_maruyama(drift, diffusion, [[2.0]], 1.0, 10.0,
                                      [RngStream(0).generator()])
        assert list(failed) == [0]
        assert isinstance(failed[0], SimulationError)
        assert "non-finite" in str(failed[0])


def scalar_order15_step(drift, diffusion, t, x, step, dw, dz):
    """The order-1.5 step as first written: one path, one scalar drift call
    per point; kept to pin the arithmetic of the row stepper."""
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


def scalar_path(drift, diffusion, x0, step, horizon, rng, scheme):
    """One path by the integrators as first written; raises SimulationError
    at the first non-finite state."""
    n_steps = int(round(horizon / step))
    g = diffusion.g
    x = np.array(x0, dtype=float)
    states = [x]
    if scheme == "euler":
        dw = math.sqrt(step) * polar_normal(rng, (n_steps, g.shape[1]))
    else:
        dw, dz = wiener_pair(rng, step, (n_steps, g.shape[1]))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            if scheme == "euler":
                t = k * step
                x = (x + np.asarray(drift.f(t, x), dtype=float) * step
                     + g @ dw[k])
                t_fail = t + step
            else:
                x = scalar_order15_step(drift, diffusion, k * step, x, step,
                                        dw[k], dz[k])
                t_fail = (k + 1) * step
            if not np.all(np.isfinite(x)):
                raise SimulationError(
                    "state became non-finite at step %d (t=%.6g)"
                    % (k + 1, t_fail))
            states.append(x)
    return np.array(states)


INTEGRATORS = {"euler": euler_maruyama, "order15": strong_order_15}


class TestRowStepping:
    """Rows stepped together are the paths each row gives alone."""

    @pytest.mark.parametrize("scheme", sorted(INTEGRATORS))
    @pytest.mark.parametrize("model", ["benes", "ou", "vdp"])
    def test_rows_equal_lone_paths(self, model, scheme):
        drift, diffusion, init = builtin_model(model)
        step, horizon = 1e-3, 0.5

        def start(rows):
            rngs = [RngStream(11, r).generator() for r in range(rows)]
            return np.stack([init.sample(rng) for rng in rngs]), rngs

        x0, rngs = start(17)
        reference = [scalar_path(drift, diffusion, x, step, horizon, rng,
                                 scheme) for x, rng in zip(x0, rngs)]
        for rows in (1, 3, 17):
            x0, rngs = start(rows)
            times, states, failed = INTEGRATORS[scheme](
                drift, diffusion, x0, step, horizon, rngs)
            assert not failed
            assert states.shape == (rows, 501, drift.dim)
            for r in range(rows):
                assert np.array_equal(states[r], reference[r])
        assert np.array_equal(times, np.linspace(0.0, horizon, 501))

    @pytest.mark.parametrize("scheme", sorted(INTEGRATORS))
    def test_exploding_row_fails_alone(self, scheme):
        # x' = x^3 blows up in finite time 1/(2 x0^2): within the horizon
        # from x0 = 2, long after it from 0.1 and 0.2
        drift = block_drift(lambda x: x**3, 1)
        diffusion = Diffusion.from_matrix([[1e-8]])
        x0 = [[0.1], [2.0], [0.2]]
        rngs = [RngStream(5, r).generator() for r in range(3)]
        _, states, failed = INTEGRATORS[scheme](drift, diffusion, x0, 0.1,
                                                10.0, rngs)
        assert list(failed) == [1]
        assert isinstance(failed[1], SimulationError)
        with pytest.raises(SimulationError) as lone:
            scalar_path(drift, diffusion, x0[1], 0.1, 10.0,
                        RngStream(5, 1).generator(), scheme)
        assert str(failed[1]) == str(lone.value)
        for r in (0, 2):
            assert np.array_equal(states[r], scalar_path(
                drift, diffusion, x0[r], 0.1, 10.0,
                RngStream(5, r).generator(), scheme))

    def test_order15_step_rows_match_scalar_steps(self):
        # a general (non-diagonal) G: the row step sums G dW by column, the
        # scalar one by matmul, so compare to rounding only
        drift, _, _ = builtin_model("vdp")
        diffusion = Diffusion.from_matrix([[0.3, 0.1], [-0.2, 0.5]])
        rng = RngStream(8).generator()
        x = polar_normal(rng, (4, 2))
        dw, dz = wiener_pair(rng, 0.01, (4, 2))
        rows = order15_step(drift, diffusion, 0.3, x, 0.01, dw, dz)
        for r in range(4):
            np.testing.assert_allclose(
                rows[r], scalar_order15_step(drift, diffusion, 0.3, x[r],
                                             0.01, dw[r], dz[r]),
                rtol=1e-14, atol=1e-16)

    def test_rows_must_match_generators(self):
        drift, diffusion, _ = builtin_model("ou")
        rngs = [RngStream(0, r).generator() for r in range(2)]
        for scheme in INTEGRATORS.values():
            with pytest.raises(ValueError):
                scheme(drift, diffusion, [0.0, 0.0], 0.1, 1.0, rngs)
            with pytest.raises(ValueError):
                scheme(drift, diffusion, [[0.0]], 0.1, 1.0, rngs)


class TestLoneRow:
    """One order-1.5 row steps as floats through f, and gives the path it
    has as a row of a batch stepped through f_rows."""

    @staticmethod
    def paths(drift, diffusion, x0, seed, rows, step=1e-3, horizon=2.0):
        rngs = [RngStream(seed, r).generator() for r in range(rows)]
        return strong_order_15(drift, diffusion, np.repeat([x0], rows, 0),
                               step, horizon, rngs)

    @pytest.mark.parametrize("seed", [20240501, 90001])
    @pytest.mark.parametrize("model", ["benes", "ou", "vdp"])
    def test_lone_row_equals_batch_row(self, model, seed):
        drift, diffusion, init = builtin_model(model)
        x0 = init.sample(RngStream(seed, 99).generator())
        times, lone, failed = self.paths(drift, diffusion, x0, seed, 1)
        assert not failed
        _, batch, _ = self.paths(drift, diffusion, x0, seed, 3)
        assert lone.shape == (1, 2001, drift.dim)
        assert np.array_equal(lone[0], batch[0])
        assert np.array_equal(times, np.linspace(0.0, 2.0, 2001))

    @pytest.mark.parametrize("model", ["cubic", "vdp"])
    def test_lone_overflow_fails_as_in_batch(self, model):
        if model == "cubic":
            drift = block_drift(lambda x: x**3, 1)
            diffusion, x0 = Diffusion.from_matrix([[1e-8]]), [2.0]
        else:
            drift, diffusion, _ = builtin_model("vdp")
            x0 = [1e80, 1e80]
        _, _, lone = self.paths(drift, diffusion, x0, 5, 1, 0.1, 10.0)
        _, _, batch = self.paths(drift, diffusion, x0, 5, 3, 0.1, 10.0)
        assert list(lone) == [0] and sorted(batch) == [0, 1, 2]
        assert isinstance(lone[0], SimulationError)
        assert str(lone[0]) == str(batch[0])
        assert re.fullmatch(r"state became non-finite at step \d+ "
                            r"\(t=[0-9.e+-]+\)", str(lone[0]))

    def test_ndarray_drift_gives_same_path(self):
        base, diffusion, init = builtin_model("vdp")
        user = DriftModel(dim=2, f=lambda t, x: np.array(base.f(t, x)),
                          jac=base.jac, div=base.div)
        x0 = init.sample(RngStream(3).generator())
        _, ref, _ = self.paths(base, diffusion, x0, 3, 1)
        _, lone, _ = self.paths(user, diffusion, x0, 3, 1)
        assert np.array_equal(lone, ref)

    @pytest.mark.parametrize("rows, f_per_step, f_rows_per_step",
                             [(1, 5, 0), (3, 0, 2)])
    def test_drift_calls_per_step(self, monkeypatch, rows, f_per_step,
                                  f_rows_per_step):
        base, diffusion, init = builtin_model("vdp")
        calls = {"f": 0, "f_rows": 0}

        def f(t, x):
            calls["f"] += 1
            return base.f(t, x)

        real_f_rows = DriftModel.f_rows

        def f_rows(self, ts, xs):
            calls["f_rows"] += 1
            return real_f_rows(self, ts, xs)

        monkeypatch.setattr(DriftModel, "f_rows", f_rows)
        drift = DriftModel(dim=2, f=f, jac=base.jac, div=base.div,
                           f_batch=base.f_batch)
        self.paths(drift, diffusion, [0.1, 0.0], 1, rows, 0.01, 1.0)
        assert calls == {"f": 100 * f_per_step,
                         "f_rows": 100 * f_rows_per_step}


def scalar_self_coupled_rmse(drift, diffusion, x0, horizon, steps,
                             fine_ratio, n_paths, seed):
    """`self_coupled_rmse` as first written: a loop over paths."""
    steps = sorted(steps, reverse=True)
    h_f = min(steps) / fine_ratio
    n_f = int(round(horizon / h_f))
    m = diffusion.g.shape[1]

    def terminal(step, dw, dz):
        x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
        for k in range(dw.shape[0]):
            x = scalar_order15_step(drift, diffusion, k * step, x, step,
                                    dw[k], dz[k])
        return x

    sq = {h: 0.0 for h in steps}
    for p in range(n_paths):
        dw_f, dz_f = wiener_pair(RngStream(seed, p).generator(), h_f, (n_f, m))
        x_ref = terminal(h_f, dw_f, dz_f)
        for h in steps:
            dw_c, dz_c = aggregate_pair(dw_f, dz_f, int(round(h / h_f)), h_f)
            sq[h] += float(np.sum((terminal(h, dw_c, dz_c) - x_ref) ** 2))
    return np.array(steps), np.sqrt(np.array([sq[h] / n_paths for h in steps]))


def scalar_euler_reference_rmse(drift, diffusion, x0, horizon, steps, refine,
                                n_paths, seed):
    """`euler_reference_rmse` as first written: a loop over paths."""
    steps = sorted(steps, reverse=True)
    m = diffusion.g.shape[1]
    g = diffusion.g
    sq = {h: 0.0 for h in steps}
    for p in range(n_paths):
        for i, h in enumerate(steps):
            rng = RngStream(seed, p * len(steps) + i).generator()
            h_f = h / refine
            n_f = int(round(horizon / h_f))
            dw_f = np.sqrt(h_f) * polar_normal(rng, (n_f, m))
            x_ref = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
            for k in range(n_f):
                x_ref = (x_ref + np.asarray(drift.f(k * h_f, x_ref)) * h_f
                         + g @ dw_f[k])
            dwb = dw_f.reshape(-1, refine, m)
            dw_c = dwb.sum(axis=1)
            dz_c = h_f * (np.cumsum(dwb, axis=1) - dwb).sum(axis=1)
            x_c = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
            for k in range(dw_c.shape[0]):
                x_c = scalar_order15_step(drift, diffusion, k * h, x_c, h,
                                          dw_c[k], dz_c[k])
            sq[h] += float(np.sum((x_c - x_ref) ** 2))
    return np.array(steps), np.sqrt(np.array([sq[h] / n_paths for h in steps]))


class TestStrongOrderHelpers:
    """The row-batched helpers give the slopes of the per-path loops bit for
    bit, so the fitted orders of the strong-order checks do not move."""

    @pytest.mark.parametrize("model", ["benes", "ou"])
    def test_batched_helpers_match_scalar_loops(self, model):
        drift, diffusion, _ = builtin_model(model)
        args = (drift, diffusion, [0.3], 0.25, (1e-2, 5e-3))
        for batched, scalar, extra in (
                (strong_order_helpers.self_coupled_rmse,
                 scalar_self_coupled_rmse, 4),
                (strong_order_helpers.euler_reference_rmse,
                 scalar_euler_reference_rmse, 10)):
            hs, rmse = batched(*args, extra, 7, seed=99)
            hs_ref, rmse_ref = scalar(*args, extra, 7, seed=99)
            assert np.array_equal(hs, hs_ref)
            assert np.array_equal(rmse, rmse_ref)


class TestWienerPair:
    def test_joint_moments(self):
        h = 0.05
        dw, dz = wiener_pair(RngStream(31).generator(), h, 200_000)
        assert abs(float(np.var(dw)) / h - 1.0) <= 0.03
        assert abs(float(np.var(dz)) / (h**3 / 3.0) - 1.0) <= 0.03
        assert abs(float(np.mean(dw * dz)) / (h**2 / 2.0) - 1.0) <= 0.03
        assert abs(float(np.mean(dw))) <= 3.0 * math.sqrt(h / 200_000)

    def test_shape(self):
        dw, dz = wiener_pair(RngStream(0).generator(), 0.1, (7, 2))
        assert dw.shape == (7, 2)
        assert dz.shape == (7, 2)


class TestOrder15:
    def test_noiseless_step_is_second_order(self):
        # With dw = dz = 0 the step reduces to a deterministic two-stage
        # second-order step; for x' = -x, h = 0.1 it gives 0.905.
        drift = block_drift(lambda x: -x, 1)
        diffusion = Diffusion.from_matrix([[1.0]])
        x1 = order15_step(drift, diffusion, 0.0, np.array([[1.0]]), 0.1,
                          np.zeros((1, 1)), np.zeros((1, 1)))
        assert x1.shape == (1, 1)
        assert x1[0, 0] == pytest.approx(0.905, abs=1e-12)
        assert abs(x1[0, 0] - math.exp(-0.1)) <= 2e-4

    def test_path_reproducible(self):
        drift, diffusion, _ = builtin_model("vdp")
        _, a, _ = strong_order_15(drift, diffusion, [[1.0, 0.0]], 0.01, 2.0,
                                  [RngStream(9, 4).generator()])
        _, b, _ = strong_order_15(drift, diffusion, [[1.0, 0.0]], 0.01, 2.0,
                                  [RngStream(9, 4).generator()])
        np.testing.assert_array_equal(a, b)
        assert a.shape == (1, 201, 2)

    def test_unstable_model_raises(self):
        # the integrator reports the failure of its one row; callers raise it
        drift = block_drift(lambda x: x**3, 1)
        diffusion = Diffusion.from_matrix([[1e-8]])
        _, _, failed = strong_order_15(drift, diffusion, [[2.0]], 1.0, 10.0,
                                       [RngStream(0).generator()])
        assert list(failed) == [0]
        assert isinstance(failed[0], SimulationError)
        assert "non-finite" in str(failed[0])

    def test_strong_order_self_coupled(self):
        # Coarse runs against the same scheme on an 8x finer nested grid
        # driven by the aggregated increments of the same Wiener path.  The
        # fitted order on the tanh-drift model should sit near 1.5; an
        # Euler-coupled reference would cap it at 1 (see the decay of the
        # reference error orders in the acceptance study).
        drift, diffusion, _ = builtin_model("benes")
        hs, rmse = self_coupled_rmse(drift, diffusion, [0.0], 1.0,
                                     [1e-2, 5e-3, 2.5e-3], 8, 80,
                                     seed=20240815)
        assert np.all(np.diff(rmse) < 0.0)
        slope = fitted_slope(hs, rmse)
        assert 1.2 <= slope <= 1.8, "fitted strong order %.3f" % slope


class TestBenesSpread:
    def test_mean_abs_state_grows(self):
        # The tanh drift pushes mass away from the origin at unit speed, so
        # the mean absolute state must grow noticeably between t=1 and t=5.
        dim = 300
        drift = block_drift(np.tanh, dim)
        diffusion = Diffusion.from_matrix(np.eye(dim))
        times, states, _ = euler_maruyama(
            drift, diffusion, np.zeros((4, dim)), 0.01, 5.0,
            [RngStream(55, rep).generator() for rep in range(4)])
        k1 = int(np.searchsorted(times, 1.0))
        m1 = float(np.mean(np.abs(states[:, k1])))
        m5 = float(np.mean(np.abs(states[:, -1])))
        assert m5 > m1 + 2.0


class TestSampleMeasurements:
    def make_path(self, horizon=10.0, step=0.001):
        times = np.arange(int(round(horizon / step)) + 1) * step
        states = np.sin(times)[:, None]
        return times, states

    def test_clean_noise_statistics(self):
        times, states = self.make_path()
        sample = sample_measurements(times, states, 0.01, sigma_y=0.2,
                                     sigma_outlier=3.0, p_outlier=0.0,
                                     rng=RngStream(41).generator())
        assert sample.times[0] == 0.0
        assert sample.times[-1] == pytest.approx(10.0)
        assert not sample.outlier.any()
        resid = (sample.values - np.sin(sample.times)) / 0.2
        assert abs(float(np.mean(resid))) <= 3.0 / math.sqrt(resid.size)
        assert abs(float(np.std(resid)) - 1.0) <= 0.05

    def test_all_outliers(self):
        times, states = self.make_path(horizon=1.0)
        sample = sample_measurements(times, states, 0.1, sigma_y=0.1,
                                     sigma_outlier=2.0, p_outlier=1.0,
                                     rng=RngStream(42).generator())
        assert sample.outlier.all()

    def test_outlier_rate(self):
        times, states = self.make_path(horizon=100.0, step=0.01)
        sample = sample_measurements(times, states, 0.01, sigma_y=0.1,
                                     sigma_outlier=2.0, p_outlier=0.25,
                                     rng=RngStream(43).generator())
        assert sample.outlier.size == 10_001
        rate = float(np.mean(sample.outlier))
        assert abs(rate - 0.25) <= 0.013

    def test_component_selection(self):
        times = np.linspace(0.0, 1.0, 101)
        states = np.stack([np.zeros(101), np.full(101, 7.0)], axis=1)
        sample = sample_measurements(times, states, 0.5, sigma_y=1e-6,
                                     sigma_outlier=1.0, p_outlier=0.0,
                                     rng=RngStream(44).generator(),
                                     component=1)
        np.testing.assert_allclose(sample.values, 7.0, atol=1e-4)

    def test_bad_probability(self):
        times, states = self.make_path(horizon=1.0)
        with pytest.raises(ValueError):
            sample_measurements(times, states, 0.1, 0.1, 1.0, 1.5,
                                RngStream(0).generator())


def student_t_score(y, x, sigma_y, component=0):
    """(value, gradient) of the Student-t law of `Measurements` for one
    record at t=1 under a flat prior, the state x at both grid points."""
    x = np.asarray(x, dtype=float)
    path = DiscretePath(make_uniform_grid(1.0, 1), [x, x])
    flat = InitialDensity(log_nu=lambda z: 0.0,
                          grad_log_nu=lambda z: np.zeros(x.size))
    meas = Measurements([1.0], [y], "student_t", sigma_y, component)
    value, grad, _ = meas.log_density(path, flat)
    return value, grad[-1]


class TestStudentT:
    """The heavy-tailed score that the robustness experiment puts on the
    contaminated samples drawn here."""

    def test_known_value_and_gradient(self):
        # residual 1 at sigma_y = 0.5: scale^2 times dof is 1, so the score
        # is -2.5 ln 2 and the slope is -2.5.
        value, grad = student_t_score(0.0, [1.0], 0.5)
        assert value == pytest.approx(-2.5 * math.log(2.0), abs=1e-14)
        np.testing.assert_allclose(grad, [-2.5])

    def test_bounded_and_unimodal(self):
        xs = np.linspace(-8.0, 8.0, 401)
        vals = np.array([student_t_score(1.0, [x], 0.5)[0] for x in xs])
        assert np.all(vals <= 0.0)
        peak = int(np.argmax(vals))
        assert xs[peak] == pytest.approx(1.0, abs=0.05)
        assert np.all(np.diff(vals[:peak]) > 0.0)
        assert np.all(np.diff(vals[peak:]) < 0.0)

    def test_heavy_tails_beat_gaussian(self):
        # ten sigma out, the t score must dominate the Gaussian quadratic
        gauss = -0.5 * (10.0) ** 2
        t_val, _ = student_t_score(0.0, [10.0 * 0.5], 0.5)
        assert t_val > gauss

    def test_measurement_record(self):
        m = Measurements([2.0], [1.0], "student_t", 0.5, component=1)
        assert m.times.tolist() == [2.0]
        assert m.values.tolist() == [1.0]
        assert (m.law, m.scale, m.component) == ("student_t", 0.5, 1)
        value, grad = student_t_score(1.0, [7.0, 2.0], 0.5, component=1)
        assert value == pytest.approx(-2.5 * math.log(2.0))
        np.testing.assert_allclose(grad, [0.0, -2.5])

    def test_gradient_against_finite_differences(self):
        from sdepath.oracle import fd_gradient

        for x0 in (-2.0, 0.3, 4.0):
            x = np.array([x0])
            _, grad = student_t_score(0.7, x, 0.5)
            fd = fd_gradient(lambda v: student_t_score(0.7, v, 0.5)[0], x)
            np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-9)
