"""Independent reference machinery: finite differences, exact linear
smoothing, the closed-form transition density, and quadrature checks."""

import math

import numpy as np
import pytest

from sdepath import functionals
from sdepath.model import DiscretePath, builtin_model, make_uniform_grid
from sdepath.oracle import (
    LinearGaussianSpec,
    OracleFailure,
    benes_exact_cdf,
    benes_exact_log_transition,
    fd_gradient,
    quadrature_refine_check,
    rts_smoother,
    validate_benes_transition,
)


class TestFdGradient:
    def test_quadratic(self):
        grad = fd_gradient(lambda x: float(x @ x), np.array([1.0, 2.0]))
        np.testing.assert_allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_linear_is_nearly_exact(self):
        c = np.array([3.0, -1.0, 0.5])
        grad = fd_gradient(lambda x: float(c @ x), np.zeros(3))
        np.testing.assert_allclose(grad, c, rtol=1e-9)

    def test_non_finite_probe_raises(self):
        def f(x):
            return math.inf if x[1] > 2.5 else float(np.sum(x))

        with pytest.raises(OracleFailure, match="component 1"):
            fd_gradient(f, np.array([0.0, 2.5]))


class TestRtsSmoother:
    def scalar_spec(self, a=-1.0, g=1.0, mean=0.0, var=1.0):
        return LinearGaussianSpec(a=np.array([[a]]), g=np.array([[g]]),
                                  x0_mean=np.array([mean]),
                                  x0_cov=np.array([[var]]))

    def test_no_measurements_propagates_prior_mean(self):
        spec = self.scalar_spec(mean=2.0)
        grid = make_uniform_grid(2.0, 8)
        res = rts_smoother(spec, grid, [])
        np.testing.assert_allclose(res.means[:, 0],
                                   2.0 * np.exp(-res.times), atol=1e-12)

    def test_static_limit_is_precision_weighted_average(self):
        # Nearly frozen state: posterior of N(1,1) prior with a y=2, r=1/2
        # observation is centred at 5/3 everywhere.
        spec = self.scalar_spec(a=0.0, g=1e-4, mean=1.0, var=1.0)
        grid = make_uniform_grid(1.0, 4)
        res = rts_smoother(spec, grid, [(1.0, 2.0, np.array([1.0]), 0.5)])
        np.testing.assert_allclose(res.means[:, 0], 5.0 / 3.0, atol=1e-3)

    def test_zero_noise_measurement_pins_the_mean(self):
        spec = self.scalar_spec()
        grid = make_uniform_grid(1.0, 4)
        res = rts_smoother(spec, grid, [(0.5, 1.7, np.array([1.0]), 0.0)])
        k = int(np.argmin(np.abs(grid.times - 0.5)))
        assert abs(res.means[k, 0] - 1.7) <= 1e-8
        assert res.covs[k, 0, 0] <= 1e-8

    def test_off_grid_measurement_rejected(self):
        spec = self.scalar_spec()
        grid = make_uniform_grid(1.0, 4)
        with pytest.raises(ValueError):
            rts_smoother(spec, grid, [(0.3, 0.0, np.array([1.0]), 1.0)])

    def test_matches_dense_posterior_solve(self):
        # Independent route: assemble the joint Gaussian over the grid
        # points from the exact segment transition (phi, q), add the
        # measurement precisions, and solve the dense normal equations.
        a, g, m0, p0 = -1.0, 1.0, 0.3, 0.8
        grid = make_uniform_grid(2.0, 8)
        meas = [(0.5, 1.1, np.array([1.0]), 0.25),
                (2.0, -0.4, np.array([1.0]), 0.5)]
        spec = self.scalar_spec(a=a, g=g, mean=m0, var=p0)
        res = rts_smoother(spec, grid, meas)

        n = grid.times.size
        prec = np.zeros((n, n))
        rhs = np.zeros(n)
        prec[0, 0] += 1.0 / p0
        rhs[0] += m0 / p0
        for k in range(n - 1):
            d = grid.times[k + 1] - grid.times[k]
            phi = math.exp(a * d)
            q = g * g * (math.exp(2.0 * a * d) - 1.0) / (2.0 * a)
            prec[k, k] += phi * phi / q
            prec[k, k + 1] -= phi / q
            prec[k + 1, k] -= phi / q
            prec[k + 1, k + 1] += 1.0 / q
        for (t, y, _, r) in meas:
            j = int(np.argmin(np.abs(grid.times - t)))
            prec[j, j] += 1.0 / r
            rhs[j] += y / r
        means = np.linalg.solve(prec, rhs)
        np.testing.assert_allclose(res.means[:, 0], means, atol=1e-10)
        covs = np.linalg.inv(prec)
        np.testing.assert_allclose(res.covs[:, 0, 0], np.diag(covs), atol=1e-10)

    def test_planar_symmetric_drift(self):
        # 2x2 symmetric drift goes through the eigendecomposition branch;
        # smoothing both components with tight observations recovers them.
        a = np.array([[-1.0, 0.3], [0.3, -0.5]])
        spec = LinearGaussianSpec(a=a, g=0.4 * np.eye(2),
                                  x0_mean=np.zeros(2), x0_cov=np.eye(2))
        grid = make_uniform_grid(1.0, 4)
        meas = [(1.0, 0.7, np.array([1.0, 0.0]), 1e-8),
                (1.0, -0.2, np.array([0.0, 1.0]), 1e-8)]
        res = rts_smoother(spec, grid, meas)
        np.testing.assert_allclose(res.means[-1], [0.7, -0.2], atol=1e-4)


class TestBenesTransition:
    def test_symmetry_from_origin(self):
        xs = np.linspace(0.1, 4.0, 17)
        for d in (0.5, 1.0):
            left = benes_exact_log_transition(0.0, -xs, d)
            right = benes_exact_log_transition(0.0, xs, d)
            np.testing.assert_allclose(left, right, atol=1e-13)

    @pytest.mark.parametrize("x0", [0.0, 1.0])
    @pytest.mark.parametrize("delta", [0.5, 1.0])
    def test_normalization(self, x0, delta):
        xs = np.linspace(-10.0, 10.0, 4001)
        dens = np.exp(benes_exact_log_transition(x0, xs, delta))
        mass = float(np.trapezoid(dens, xs))
        assert abs(mass - 1.0) <= 1e-4

    def test_cdf_matches_density(self):
        xs = np.linspace(-8.0, 8.0, 2001)
        dens = np.exp(benes_exact_log_transition(0.5, xs, 1.0))
        cdf_num = np.concatenate(
            [[0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(xs))])
        cdf = benes_exact_cdf(0.5, xs, 1.0)
        assert float(np.max(np.abs(cdf - (cdf[0] + cdf_num)))) <= 1e-4

    def test_single_unit_step_value(self):
        v = benes_exact_log_transition(0.0, 0.0, 1.0)
        assert v == pytest.approx(-0.5 - 0.5 * math.log(2.0 * math.pi),
                                  abs=1e-14)

    def test_bad_interval(self):
        with pytest.raises(ValueError):
            benes_exact_log_transition(0.0, 1.0, 0.0)

    def test_step_must_divide_interval(self):
        # 0.3 steps end at t = 0.9, not at the compared t = 1.0
        with pytest.raises(ValueError, match="does not divide"):
            validate_benes_transition(n_samples=100, step=0.3, delta=1.0)

    def test_sampled_distribution_agrees(self, benes_validation_report):
        report, _ = benes_validation_report
        assert report.n_samples == 100_000
        assert report.max_normalisation_error <= report.normalisation_tol
        assert report.ks_statistic <= report.ks_tol
        assert report.passed


class TestQuadratureRefineCheck:
    def test_linear_drift_is_quadrature_exact(self):
        # Piecewise-linear path and affine drift make every integrand a
        # polynomial well inside the 3-point rule's exactness degree.
        drift, diffusion, _ = builtin_model("ou")
        grid = make_uniform_grid(2.0, 16)
        rng = np.random.default_rng(1)
        path = DiscretePath(grid, np.cumsum(rng.uniform(-0.3, 0.3, 17)))
        report = quadrature_refine_check(path, drift, diffusion)
        assert report.max_abs_diff <= 1e-12

    def test_smooth_path_fine_grid(self):
        drift, diffusion, _ = builtin_model("benes")
        grid = make_uniform_grid(5.0, 512)
        path = DiscretePath(grid, np.sin(grid.times))
        report = quadrature_refine_check(path, drift, diffusion)
        assert report.max_abs_diff <= 1e-6

    def test_coarse_grid_reports_gap(self):
        drift, diffusion, _ = builtin_model("benes")
        grid = make_uniform_grid(5.0, 8)
        path = DiscretePath(grid, np.sin(grid.times))
        report = quadrature_refine_check(path, drift, diffusion)
        assert report.energy_default == pytest.approx(
            functionals.continuous_energy(path, drift, diffusion))
        assert report.max_abs_diff > 0.0
