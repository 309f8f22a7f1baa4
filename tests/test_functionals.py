"""Merit functions: discrete sums, continuous-limit quadratures, gradients."""

import math

import numpy as np
import pytest

from sdepath import functionals as fn
from sdepath.model import (
    DiscretePath,
    Diffusion,
    DriftModel,
    GridError,
    InitialDensity,
    Measurements,
    builtin_model,
    make_uniform_grid,
)
from sdepath.optimizer import (
    OptimizerOptions,
    StudyProblem,
    initial_path,
    maximize,
)
from sdepath.oracle import fd_gradient

LOG_2PI = math.log(2.0 * math.pi)


def zero_drift(dim=1):
    return DriftModel(
        dim=dim,
        f=lambda t, x: np.zeros(dim),
        jac=lambda t, x: np.zeros((dim, dim)),
        div=lambda t, x: 0.0,
        jac_deriv_contract=lambda t, x, w: np.zeros(dim),
    )


def constant_drift(c):
    c = np.atleast_1d(np.asarray(c, dtype=float))
    dim = c.size
    return DriftModel(
        dim=dim,
        f=lambda t, x: c,
        jac=lambda t, x: np.zeros((dim, dim)),
        div=lambda t, x: 0.0,
        jac_deriv_contract=lambda t, x, w: np.zeros(dim),
    )


def identity_drift():
    # Scalar f(x) = x.
    return DriftModel(
        dim=1,
        f=lambda t, x: np.array(x, dtype=float),
        jac=lambda t, x: np.eye(1),
        div=lambda t, x: 1.0,
        jac_deriv_contract=lambda t, x, w: np.zeros(1),
    )


def unit_diffusion(dim=1):
    return Diffusion.from_matrix(np.eye(dim))


def box_prior(half_width=1.0):
    # Uniform on [-w, w]; zero density outside.
    def log_nu(x):
        return 0.0 if abs(float(x[0])) <= half_width else -math.inf

    return InitialDensity(log_nu=log_nu,
                          grad_log_nu=lambda x: np.zeros(1),
                          mode=np.zeros(1))


def flat_prior(dim=1):
    # Improper constant density; isolates the transition terms of a merit.
    return InitialDensity(log_nu=lambda x: 0.0,
                          grad_log_nu=lambda x: np.zeros(dim),
                          mode=np.zeros(dim))


def random_path(grid, dim, seed):
    rng = np.random.default_rng(seed)
    states = np.cumsum(rng.uniform(-0.3, 0.3, size=(grid.times.size, dim)), axis=0)
    return DiscretePath(grid, states)


class TestEulerEnergy:
    def test_single_segment_zero_drift(self):
        grid = make_uniform_grid(1.0, 1)
        path = DiscretePath(grid, np.array([0.0, 2.0]))
        mv = fn.euler_energy(path, zero_drift(), unit_diffusion())
        assert mv.value == pytest.approx(-2.0, abs=1e-14)
        assert mv.finite

    def test_constant_path_zero_drift(self):
        grid = make_uniform_grid(3.0, 7)
        path = DiscretePath(grid, np.full(8, 0.4))
        mv = fn.euler_energy(path, zero_drift(), unit_diffusion())
        assert mv.value == 0.0

    def test_benes_half_segment(self):
        drift, diffusion, _ = builtin_model("benes")
        grid = make_uniform_grid(0.5, 1)
        path = DiscretePath(grid, np.array([0.0, 1.0]))
        mv = fn.euler_energy(path, drift, diffusion)
        assert mv.value == pytest.approx(-1.0, abs=1e-14)

    def test_gradient_shape(self):
        drift, diffusion, _ = builtin_model("vdp")
        grid = make_uniform_grid(1.0, 5)
        path = random_path(grid, 2, seed=0)
        mv = fn.euler_energy(path, drift, diffusion)
        assert mv.gradient.shape == (6, 2)


class TestEulerMerit:
    def test_prior_only(self):
        grid = make_uniform_grid(1.0, 2)
        path = DiscretePath(grid, np.zeros(3))
        init = InitialDensity.gaussian([0.0], [[1.0]])
        mv = fn.euler_merit(path, zero_drift(), unit_diffusion(), init)
        assert mv.value == pytest.approx(-0.5 * LOG_2PI, abs=1e-14)

    def test_prior_and_terminal_measurement(self):
        grid = make_uniform_grid(1.0, 2, meas_times=[1.0])
        path = DiscretePath(grid, np.zeros(3))
        init = InitialDensity.gaussian([0.0], [[1.0]])
        meas = Measurements([1.0], [0.0], "gaussian", 1.0)
        mv = fn.euler_merit(path, zero_drift(), unit_diffusion(), init, meas)
        assert mv.value == pytest.approx(-LOG_2PI, abs=1e-14)

    def test_off_grid_measurement_raises(self):
        path = DiscretePath(make_uniform_grid(1.0, 2), np.zeros(3))
        init = InitialDensity.gaussian([0.0], [[1.0]])
        meas = Measurements([0.3], [0.0], "student_t", 0.5)
        for merit in (fn.euler_merit, fn.trapezoidal_merit):
            with pytest.raises(GridError):
                merit(path, zero_drift(), unit_diffusion(), init, meas)
        with pytest.raises(GridError):
            fn.benes_exact_merit(path, init, meas)

    def test_maximizer_value_matches_plain_resummation(self):
        # Scalar tanh-drift smoothing problem on a coarse grid; the merit
        # reported from the optimized path must agree with a from-scratch
        # summation written without any shared code.
        drift, diffusion, init = builtin_model("benes")
        meas = Measurements([5.0], [1.5], "gaussian", 0.16)
        prob = StudyProblem(drift, diffusion, init, meas, horizon=5.0)
        grid = prob.grid(4)
        res = maximize(prob.objective("euler"),
                       initial_path(grid, init, meas),
                       OptimizerOptions(grad_tol=1e-10, max_iter=500))
        assert res.status == "converged"

        xs = res.path.states[:, 0]
        ts = grid.times
        total = 0.0
        for k in range(4):
            dt = ts[k + 1] - ts[k]
            resid = (xs[k + 1] - xs[k]) / dt - math.tanh(xs[k])
            total -= 0.5 * dt * resid * resid
        total += -0.5 * math.log(2.0 * math.pi * 0.16) - xs[0] ** 2 / (2.0 * 0.16)
        total += -0.5 * math.log(2.0 * math.pi * 0.16) - (1.5 - xs[4]) ** 2 / (2.0 * 0.16)
        assert res.merit.value == pytest.approx(total, abs=1e-10)

    def test_zero_prior_density_is_minus_inf(self):
        grid = make_uniform_grid(1.0, 2)
        path = DiscretePath(grid, np.array([2.0, 0.0, 0.0]))
        mv = fn.euler_merit(path, zero_drift(), unit_diffusion(), box_prior(1.0))
        assert mv.value == -math.inf
        assert mv.gradient is None
        assert not mv.finite


class TestTrapezoidalOm:
    def test_zero_drift_matches_euler_energy(self):
        grid = make_uniform_grid(2.0, 9)
        path = random_path(grid, 1, seed=1)
        drift = zero_drift()
        a = fn.euler_energy(path, drift, unit_diffusion())
        b = fn.trapezoidal_om(path, drift, unit_diffusion())
        assert b.value == a.value
        np.testing.assert_array_equal(b.gradient, a.gradient)

    def test_scalar_linear_drift_single_segment(self):
        # delta = 0.5, x: 0 -> 1, f(x) = x: log-det ln(1 - 0.25) plus
        # -0.5 * 0.5 * (2 - 0.5)^2.
        grid = make_uniform_grid(0.5, 1)
        path = DiscretePath(grid, np.array([0.0, 1.0]))
        mv = fn.trapezoidal_om(path, identity_drift(), unit_diffusion())
        expected = math.log(0.75) - 0.5625
        assert mv.value == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(-0.8501820724517809, abs=1e-15)

    def test_vdp_log_det_at_rest(self):
        drift, diffusion, _ = builtin_model("vdp")
        grid = make_uniform_grid(0.01, 1)
        path = DiscretePath(grid, np.zeros((2, 2)))
        mv = fn.trapezoidal_om(path, drift, diffusion)
        # det(I - delta/2 * [[0,1],[-1,2]]) = 0.99 + 0.005^2.
        assert mv.value == pytest.approx(math.log(0.990025), abs=1e-14)

    def test_coarse_mesh_rejected(self):
        drift, diffusion, _ = builtin_model("benes")
        grid = make_uniform_grid(2.5, 1)
        path = DiscretePath(grid, np.zeros(2))
        with pytest.raises(fn.MeshTooCoarseError, match="segment"):
            fn.trapezoidal_om(path, drift, diffusion)


class TestTrapezoidalMerit:
    def test_prior_only(self):
        grid = make_uniform_grid(1.0, 2)
        path = DiscretePath(grid, np.zeros(3))
        init = InitialDensity.gaussian([0.0], [[1.0]])
        mv = fn.trapezoidal_merit(path, zero_drift(), unit_diffusion(), init)
        assert mv.value == pytest.approx(-0.5 * LOG_2PI, abs=1e-14)

    def test_equals_euler_merit_for_constant_drift(self):
        # With a state-free drift the Jacobian vanishes, the log-det terms
        # drop, and the left-endpoint and averaged drifts coincide.
        drift = constant_drift([0.7])
        init = InitialDensity.gaussian([0.0], [[2.0]])
        meas = Measurements([0.75], [0.3], "gaussian", 0.5)
        grid = make_uniform_grid(1.0, 8, meas_times=[0.75])
        for seed in range(3):
            path = random_path(grid, 1, seed=seed)
            s = fn.euler_merit(path, drift, unit_diffusion(), init, meas)
            v = fn.trapezoidal_merit(path, drift, unit_diffusion(), init, meas)
            assert v.value == s.value
            np.testing.assert_array_equal(v.gradient, s.gradient)

    def test_zero_prior_density_is_minus_inf(self):
        grid = make_uniform_grid(1.0, 2)
        path = DiscretePath(grid, np.array([1.5, 0.0, 0.0]))
        mv = fn.trapezoidal_merit(path, zero_drift(), unit_diffusion(),
                                  box_prior(1.0))
        assert mv.value == -math.inf
        assert mv.gradient is None


@pytest.fixture(scope="module")
def maximizers():
    drift, diffusion, init = builtin_model("benes")
    meas = Measurements([5.0], [1.5], "gaussian", 0.16)
    prob = StudyProblem(drift, diffusion, init, meas, horizon=5.0)
    grid = prob.grid(64)
    start = initial_path(grid, init, meas)
    opts = OptimizerOptions(grad_tol=1e-6, max_iter=2500)
    res_s = maximize(prob.objective("euler"), start, opts)
    res_v = maximize(prob.objective("trapezoidal"), start, opts)
    assert res_s.status == "converged"
    assert res_v.status == "converged"
    return prob, res_s.path, res_v.path


class TestCrossEvaluation:
    """The two discrete maximizers are genuinely different paths, and each
    merit prefers its own: classic argmax dominance, plus the continuous
    analogue evaluated on the same pair."""

    def test_maximizers_differ(self, maximizers):
        _, path_s, path_v = maximizers
        assert np.max(np.abs(path_s.states - path_v.states)) > 0.05

    def test_trapezoidal_merit_prefers_its_maximizer(self, maximizers):
        prob, path_s, path_v = maximizers
        v = prob.objective("trapezoidal")
        assert v(path_v).value > v(path_s).value + 0.1

    def test_map_merit_prefers_trapezoidal_maximizer(self, maximizers):
        prob, path_s, path_v = maximizers
        h_v = fn.map_merit(path_v, prob.drift, prob.diffusion, prob.init,
                           prob.measurements)
        h_s = fn.map_merit(path_s, prob.drift, prob.diffusion, prob.init,
                           prob.measurements)
        assert h_v > h_s + 0.1


class TestContinuousEnergy:
    def test_unit_slope_zero_drift(self):
        grid = make_uniform_grid(1.0, 4)
        path = DiscretePath(grid, grid.times.copy())
        val = fn.continuous_energy(path, zero_drift(), unit_diffusion())
        assert val == pytest.approx(-0.5, abs=1e-14)

    def test_rest_point_of_drift(self):
        drift, diffusion, _ = builtin_model("benes")
        grid = make_uniform_grid(5.0, 16)
        path = DiscretePath(grid, np.zeros(17))
        assert fn.continuous_energy(path, drift, diffusion) == 0.0

    def test_default_rule_close_to_seven_point(self):
        drift, diffusion, _ = builtin_model("benes")
        grid = make_uniform_grid(5.0, 512)
        path = DiscretePath(grid, np.sin(grid.times))
        v3 = fn.continuous_energy(path, drift, diffusion)
        v7 = fn.continuous_energy(path, drift, diffusion,
                                  fn.QuadratureRule.gauss_legendre(7))
        assert abs(v3 - v7) <= 1e-6

    def test_rule_weights_sum_to_one(self):
        for n in (3, 7):
            rule = fn.QuadratureRule.gauss_legendre(n)
            assert np.all(rule.weights > 0)
            assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-14)


class TestContinuousOm:
    def test_constant_divergence_shift(self):
        # div f = -1 everywhere for the unit-rate linear model, so the
        # correction is exactly +T/2 regardless of the path.
        drift, diffusion, _ = builtin_model("ou")
        grid = make_uniform_grid(2.0, 16)
        for seed in range(3):
            path = random_path(grid, 1, seed=seed)
            je = fn.continuous_energy(path, drift, diffusion)
            j = fn.continuous_om(path, drift, diffusion)
            assert j - je == pytest.approx(1.0, abs=1e-12)

    def test_zero_drift_no_shift(self):
        grid = make_uniform_grid(1.0, 8)
        path = random_path(grid, 1, seed=4)
        drift = zero_drift()
        assert fn.continuous_om(path, drift, unit_diffusion()) == pytest.approx(
            fn.continuous_energy(path, drift, unit_diffusion()), abs=1e-14)

    def test_vdp_rest_path_shift(self):
        drift, diffusion, _ = builtin_model("vdp")
        grid = make_uniform_grid(16.0, 32)
        path = DiscretePath(grid, np.zeros((33, 2)))
        je = fn.continuous_energy(path, drift, diffusion)
        j = fn.continuous_om(path, drift, diffusion)
        assert j - je == pytest.approx(-16.0, abs=1e-9)


class TestContinuousMerits:
    def test_difference_reduces_to_divergence_integral(self):
        drift, diffusion, init = builtin_model("benes")
        meas = Measurements([5.0], [1.5], "gaussian", 0.16)
        grid = make_uniform_grid(5.0, 32, meas_times=[5.0])
        for seed in range(3):
            path = random_path(grid, 1, seed=seed)
            h = fn.map_merit(path, drift, diffusion, init, meas)
            he = fn.energy_merit(path, drift, diffusion, init, meas)
            j = fn.continuous_om(path, drift, diffusion)
            je = fn.continuous_energy(path, drift, diffusion)
            assert h - he == pytest.approx(j - je, abs=1e-12)

    def test_rest_path_values(self):
        grid = make_uniform_grid(1.0, 4)
        path = DiscretePath(grid, np.zeros(5))
        init = InitialDensity.gaussian([0.0], [[1.0]])
        drift = zero_drift()
        h = fn.map_merit(path, drift, unit_diffusion(), init)
        he = fn.energy_merit(path, drift, unit_diffusion(), init)
        assert h == pytest.approx(-0.5 * LOG_2PI, abs=1e-14)
        assert he == pytest.approx(-0.5 * LOG_2PI, abs=1e-14)

    def test_zero_density_is_minus_inf(self):
        grid = make_uniform_grid(1.0, 2)
        path = DiscretePath(grid, np.array([2.0, 0.0, 0.0]))
        drift = zero_drift()
        assert fn.map_merit(path, drift, unit_diffusion(), box_prior()) == -math.inf
        assert fn.energy_merit(path, drift, unit_diffusion(), box_prior()) == -math.inf


class TestExactTransitionMerit:
    def test_single_unit_step_at_origin(self):
        grid = make_uniform_grid(1.0, 1)
        path = DiscretePath(grid, np.zeros(2))
        mv = fn.benes_exact_merit(path, flat_prior())
        assert mv.value == pytest.approx(-0.5 - 0.5 * LOG_2PI, abs=1e-12)

    def test_gradient_matches_finite_differences(self):
        drift, diffusion, init = builtin_model("benes")
        meas = Measurements([2.0], [1.0], "gaussian", 0.16)
        grid = make_uniform_grid(2.0, 5, meas_times=[2.0])
        path = random_path(grid, 1, seed=9)

        def value_of(flat):
            p = DiscretePath(grid, flat.reshape(-1, 1))
            return fn.benes_exact_merit(p, init, meas).value

        mv = fn.benes_exact_merit(path, init, meas)
        fd = fd_gradient(value_of, path.states.ravel())
        np.testing.assert_allclose(mv.gradient.ravel(), fd, rtol=1e-6, atol=1e-8)

    def test_scalar_only(self):
        grid = make_uniform_grid(1.0, 1)
        path = DiscretePath(grid, np.zeros((2, 2)))
        with pytest.raises(ValueError):
            fn.benes_exact_merit(path, flat_prior(2))


class TestArgmaxAgreementUnderConstantDivergence:
    def test_maximizers_approach_each_other(self):
        # For the linear model the two continuous merits differ by a path
        # independent constant, so their maximizers coincide; the discrete
        # surrogates must therefore approach each other as the grid refines.
        drift, diffusion, init = builtin_model("ou")
        times = (0.4, 0.8, 1.2, 1.6, 2.0)
        values = (-0.908, 0.577, 1.062, 0.405, 1.362)
        meas = Measurements(times, values, "gaussian", 0.25)
        prob = StudyProblem(drift, diffusion, init, meas, horizon=2.0)
        opts = OptimizerOptions(grad_tol=1e-7, max_iter=6000)
        sups = {}
        for n in (512, 2048):
            grid = prob.grid(n)
            start = initial_path(grid, init, meas)
            res_s = maximize(prob.objective("euler"), start, opts)
            res_v = maximize(prob.objective("trapezoidal"), start, opts)
            sups[n] = float(np.max(np.abs(res_s.path.states - res_v.path.states)))
        assert sups[512] <= 1.5e-3
        assert sups[2048] <= 3e-4
        # First-order decay: quadrupling the resolution should cut the
        # distance by clearly more than half.
        assert sups[2048] <= 0.35 * sups[512]


class TestGradientSuite:
    def test_all_discrete_merits_pass(self):
        from sdepath.cli import gradient_suite

        rows = gradient_suite(25, seed=20240815, tolerance=1e-6)
        names = {name for name, _, _ in rows}
        assert {"euler_energy", "euler_merit", "trapezoidal_om",
                "trapezoidal_merit", "student_t_loglik"} <= names
        for name, err, ok in rows:
            assert ok, "%s gradient off by %g" % (name, err)
