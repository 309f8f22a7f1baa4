"""Sample-path generation, the noise source, and measurement sampling."""

import math

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
from strong_order_helpers import fitted_slope, self_coupled_rmse


def block_drift(f_vec, dim):
    """Many independent copies of a scalar law as one vector model, so that
    distributional checks can batch through the integrators."""
    return DriftModel(
        dim=dim,
        f=lambda t, x: f_vec(x),
        jac=lambda t, x: np.zeros((dim, dim)),
        div=lambda t, x: 0.0,
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


class TestPolarNormal:
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
        times, states = euler_maruyama(drift, Diffusion.from_matrix([[1.0]]),
                                       [1.0], 0.1, 1.0,
                                       RngStream(0).generator())
        np.testing.assert_allclose(states[:, 0], 0.9 ** np.arange(11),
                                   atol=1e-15)
        np.testing.assert_allclose(times, np.linspace(0.0, 1.0, 11))

    def test_pure_noise_increment_variance(self):
        drift = block_drift(lambda x: np.zeros_like(x), 1)
        h = 0.01
        _, states = euler_maruyama(drift, Diffusion.from_matrix([[1.0]]),
                                   [0.0], h, 1000.0,
                                   RngStream(21).generator())
        inc = np.diff(states[:, 0])
        assert inc.size == 100_000
        assert abs(float(np.var(inc)) / h - 1.0) <= 0.03

    def test_stationary_variance(self):
        # 10^4 independent scalar runs batched as 50 runs of a 200-dim block
        # of independent copies; terminal variance of dX = -X dt + dW from
        # x0 = 0 at T = 5 is 0.5 up to e^{-10} transients.
        dim = 200
        drift = block_drift(lambda x: -x, dim)
        diffusion = Diffusion.from_matrix(np.eye(dim))
        terminal = []
        for rep in range(50):
            _, states = euler_maruyama(drift, diffusion, np.zeros(dim),
                                       1e-3, 5.0,
                                       RngStream(777, rep).generator())
            terminal.append(states[-1])
        var = float(np.var(np.concatenate(terminal)))
        assert abs(var - 0.5) <= 0.025

    def test_reproducible(self):
        drift, diffusion, _ = builtin_model("benes")
        _, a = euler_maruyama(drift, diffusion, [0.0], 0.01, 1.0,
                              RngStream(3, 1).generator())
        _, b = euler_maruyama(drift, diffusion, [0.0], 0.01, 1.0,
                              RngStream(3, 1).generator())
        np.testing.assert_array_equal(a, b)

    def test_step_must_divide_horizon(self):
        drift, diffusion, _ = builtin_model("benes")
        rng = RngStream(0).generator()
        with pytest.raises(ValueError):
            euler_maruyama(drift, diffusion, [0.0], 0.3, 1.0, rng)
        with pytest.raises(ValueError):
            euler_maruyama(drift, diffusion, [0.0], -0.1, 1.0, rng)
        with pytest.raises(ValueError):
            euler_maruyama(drift, diffusion, [0.0], 0.1, 0.0, rng)

    def test_unstable_model_raises(self):
        drift = block_drift(lambda x: x**3, 1)
        diffusion = Diffusion.from_matrix([[1e-8]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationError, match="non-finite"):
                euler_maruyama(drift, diffusion, [2.0], 1.0, 10.0,
                               RngStream(0).generator())


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
        x1 = order15_step(drift, diffusion, 0.0, np.array([1.0]), 0.1,
                          np.zeros(1), np.zeros(1))
        assert x1[0] == pytest.approx(0.905, abs=1e-12)
        assert abs(x1[0] - math.exp(-0.1)) <= 2e-4

    def test_path_reproducible(self):
        drift, diffusion, _ = builtin_model("vdp")
        _, a = strong_order_15(drift, diffusion, [1.0, 0.0], 0.01, 2.0,
                               RngStream(9, 4).generator())
        _, b = strong_order_15(drift, diffusion, [1.0, 0.0], 0.01, 2.0,
                               RngStream(9, 4).generator())
        np.testing.assert_array_equal(a, b)
        assert a.shape == (201, 2)

    def test_unstable_model_raises(self):
        drift = block_drift(lambda x: x**3, 1)
        diffusion = Diffusion.from_matrix([[1e-8]])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(SimulationError, match="non-finite"):
                strong_order_15(drift, diffusion, [2.0], 1.0, 10.0,
                                RngStream(0).generator())

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
        at1 = []
        at5 = []
        for rep in range(4):
            times, states = euler_maruyama(drift, diffusion, np.zeros(dim),
                                           0.01, 5.0,
                                           RngStream(55, rep).generator())
            k1 = int(np.searchsorted(times, 1.0))
            at1.append(np.abs(states[k1]))
            at5.append(np.abs(states[-1]))
        m1 = float(np.mean(np.concatenate(at1)))
        m5 = float(np.mean(np.concatenate(at5)))
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
    value, grad = meas.log_density(path, flat)
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
