"""Path merit maximisation and nested-grid convergence studies."""

import math

import numpy as np
import pytest

from sdepath import functionals as fn
from sdepath.functionals import MeritValue, MeshTooCoarseError
from sdepath.model import (
    DiscretePath,
    InitialDensity,
    Measurements,
    builtin_model,
    make_uniform_grid,
)
from sdepath.optimizer import (
    ColdStartCheck,
    OptimizerOptions,
    StudyProblem,
    convergence_study,
    initial_path,
    maximize,
    sup_distance,
)
from sdepath.oracle import LinearGaussianSpec, fd_gradient, rts_smoother


def bowl_objective(center):
    """Concave quadratic peaking at `center` (same shape as path states)."""

    def objective(path):
        d = path.states - center
        return MeritValue(value=-float(np.sum(d * d)), gradient=-2.0 * d)

    return objective


class TestMaximize:
    def test_quadratic_bowl(self):
        grid = make_uniform_grid(1.0, 3)
        center = np.linspace(-1.0, 2.0, 4)[:, None]
        res = maximize(bowl_objective(center),
                       DiscretePath(grid, np.zeros((4, 1))))
        assert res.status == "converged"
        np.testing.assert_allclose(res.path.states, center, atol=1e-7)
        assert res.merit.value == pytest.approx(0.0, abs=1e-12)

    def test_flat_topped_quartic(self):
        # Vanishing curvature at the peak; the gradient norm still drives
        # the iterates within 1e-3 of it.
        grid = make_uniform_grid(1.0, 1)

        def objective(path):
            d = path.states - 1.0
            return MeritValue(value=-float(np.sum(d**4)),
                              gradient=-4.0 * d**3)

        res = maximize(objective, DiscretePath(grid, np.zeros((2, 1))),
                       OptimizerOptions(grad_tol=1e-10, max_iter=2000))
        assert res.status == "converged"
        np.testing.assert_allclose(res.path.states, 1.0, atol=1e-3)

    def test_merit_trace_non_decreasing(self):
        drift, diffusion, init = builtin_model("benes")
        meas = Measurements([5.0], [1.5], "gaussian", 0.16)
        prob = StudyProblem(drift, diffusion, init, meas, horizon=5.0)
        grid = prob.grid(32)
        res = maximize(prob.objective("trapezoidal"),
                       initial_path(grid, init, meas),
                       OptimizerOptions(grad_tol=1e-6, max_iter=2000))
        assert res.status == "converged"
        assert np.all(np.diff(res.merit_trace) >= 0.0)
        assert res.merit_trace.size == res.iterations + 1

    def test_non_finite_start_rejected(self):
        grid = make_uniform_grid(1.0, 2)

        def objective(path):
            if np.any(np.abs(path.states) > 1.0):
                return MeritValue(value=-math.inf, gradient=None)
            return MeritValue(value=0.0, gradient=np.zeros_like(path.states))

        with pytest.raises(ValueError):
            maximize(objective, DiscretePath(grid, np.full((3, 1), 2.0)))

    def test_wrong_gradient_sign_fails_line_search(self):
        grid = make_uniform_grid(1.0, 2)

        def objective(path):
            # gradient points away from the maximiser; every trial step
            # decreases the merit and the search gives up.  The backtrack
            # budget is capped so the step cannot shrink to where the
            # sufficient-increase comparison falls below float resolution.
            x = path.states
            return MeritValue(value=-float(np.sum(x * x)), gradient=2.0 * x)

        res = maximize(objective, DiscretePath(grid, np.ones((3, 1))),
                       OptimizerOptions(max_backtracks=40))
        assert res.status == "line_search_failure"

    def test_mesh_error_treated_as_barrier(self):
        # objective raises where |x| is large; with a huge initial step the
        # first trials land there and the backtracking must recover
        grid = make_uniform_grid(1.0, 2)
        center = np.full((3, 1), 0.5)
        inner = bowl_objective(center)

        def objective(path):
            if np.any(np.abs(path.states) > 10.0):
                raise MeshTooCoarseError("out of the validated region")
            return inner(path)

        res = maximize(objective, DiscretePath(grid, np.zeros((3, 1))),
                       OptimizerOptions(init_step=1e6, max_iter=200))
        assert res.status == "converged"
        np.testing.assert_allclose(res.path.states, center, atol=1e-7)

    def test_deterministic(self):
        drift, diffusion, init = builtin_model("benes")
        meas = Measurements([5.0], [1.5], "gaussian", 0.16)
        prob = StudyProblem(drift, diffusion, init, meas, horizon=5.0)
        grid = prob.grid(64)
        opts = OptimizerOptions(grad_tol=1e-6, max_iter=2000)
        a = maximize(prob.objective("euler"), initial_path(grid, init, meas), opts)
        b = maximize(prob.objective("euler"), initial_path(grid, init, meas), opts)
        np.testing.assert_array_equal(a.path.states, b.path.states)
        assert a.iterations == b.iterations
        np.testing.assert_array_equal(a.merit_trace, b.merit_trace)


class TestAgainstExactPosterior:
    def test_gaussian_merit_maximizer_matches_smoother(self):
        # Quadratic merit assembled from the exact one-step transitions of
        # the unit-rate linear SDE; its maximiser must equal the posterior
        # mean returned by the smoothing oracle on the same grid.
        grid = make_uniform_grid(2.0, 16)
        meas = [(0.5, 1.1, 0.25), (1.5, -0.3, 0.5), (2.0, 0.8, 0.25)]
        m0, p0 = 0.0, 1.0
        deltas = np.diff(grid.times)
        phi = np.exp(-deltas)
        q = 0.5 * (1.0 - np.exp(-2.0 * deltas))
        meas_idx = [int(np.argmin(np.abs(grid.times - t))) for t, _, _ in meas]

        def objective(path):
            x = path.states[:, 0]
            resid = x[1:] - phi * x[:-1]
            value = (-0.5 * float(np.sum(resid * resid / q))
                     - 0.5 * (x[0] - m0) ** 2 / p0)
            grad = np.zeros_like(x)
            grad[1:] -= resid / q
            grad[:-1] += phi * resid / q
            grad[0] -= (x[0] - m0) / p0
            for j, (_, y, r) in zip(meas_idx, meas):
                value -= 0.5 * (y - x[j]) ** 2 / r
                grad[j] += (y - x[j]) / r
            return MeritValue(value=value, gradient=grad[:, None])

        res = maximize(objective, DiscretePath(grid, np.zeros((17, 1))),
                       OptimizerOptions(grad_tol=1e-10, max_iter=4000))
        assert res.status == "converged"

        spec = LinearGaussianSpec(a=np.array([[-1.0]]), g=np.array([[1.0]]),
                                  x0_mean=np.array([m0]),
                                  x0_cov=np.array([[p0]]))
        sm = rts_smoother(spec, grid,
                          [(t, y, np.array([1.0]), r) for t, y, r in meas])
        np.testing.assert_allclose(res.path.states[:, 0], sm.means[:, 0],
                                   atol=1e-6)


class TestInitialPath:
    def test_zero(self):
        grid = make_uniform_grid(1.0, 4)
        init = InitialDensity.gaussian([0.7], [[1.0]])
        path = initial_path(grid, init, strategy="zero")
        np.testing.assert_array_equal(path.states, np.zeros((5, 1)))

    def test_prior_mean(self):
        grid = make_uniform_grid(1.0, 4)
        init = InitialDensity.gaussian([0.7], [[1.0]])
        path = initial_path(grid, init, strategy="prior_mean")
        np.testing.assert_allclose(path.states, 0.7)

    def test_meas_interp_single_terminal_measurement(self):
        grid = make_uniform_grid(5.0, 10, meas_times=[5.0])
        init = InitialDensity.gaussian([0.0], [[0.16]])
        meas = Measurements([5.0], [1.5], "gaussian", 0.16)
        path = initial_path(grid, init, meas)
        np.testing.assert_allclose(path.states[:, 0], 0.3 * grid.times,
                                   atol=1e-12)

    def test_meas_interp_unobserved_component_stays_at_mode(self):
        grid = make_uniform_grid(16.0, 8, meas_times=[8.0])
        init = InitialDensity.gaussian(np.zeros(2), 0.01 * np.eye(2))
        meas = Measurements([8.0], [1.0], "gaussian", 0.25)
        path = initial_path(grid, init, meas, dim=2)
        assert np.all(path.states[:, 1] == 0.0)
        assert path.states[-1, 0] != 0.0

    def test_constant_beyond_last_anchor(self):
        grid = make_uniform_grid(4.0, 8, meas_times=[2.0])
        init = InitialDensity.gaussian([0.0], [[1.0]])
        meas = Measurements([2.0], [1.0], "gaussian", 0.25)
        path = initial_path(grid, init, meas)
        np.testing.assert_allclose(path.states[grid.times >= 2.0, 0], 1.0)

    def test_unknown_strategy(self):
        grid = make_uniform_grid(1.0, 2)
        init = InitialDensity.gaussian([0.0], [[1.0]])
        with pytest.raises(ValueError):
            initial_path(grid, init, strategy="spline")

    def test_mode_required(self):
        grid = make_uniform_grid(1.0, 2)
        init = InitialDensity(log_nu=lambda x: 0.0,
                              grad_log_nu=lambda x: np.zeros(1), mode=None)
        with pytest.raises(ValueError):
            initial_path(grid, init, strategy="prior_mean")


class TestSupDistance:
    def test_nested_grids(self):
        coarse = make_uniform_grid(1.0, 2)
        fine = make_uniform_grid(1.0, 4)
        a = DiscretePath(coarse, np.array([0.0, 1.0, 2.0]))
        b = DiscretePath(fine, np.array([0.0, 0.2, 0.7, 1.5, 2.0]))
        # only the shared instants 0, 0.5, 1 are compared
        assert sup_distance(a, b) == pytest.approx(0.3)

    def test_non_nested_rejected(self):
        a = DiscretePath(make_uniform_grid(1.0, 2), np.zeros(3))
        b = DiscretePath(make_uniform_grid(1.0, 3), np.zeros(4))
        with pytest.raises(ValueError):
            sup_distance(a, b)


class TestConvergenceStudy:
    def make_problem(self):
        drift, diffusion, init = builtin_model("ou")
        meas = Measurements([1.0, 2.0], [0.9, -0.4], "gaussian", 0.25)
        return StudyProblem(drift, diffusion, init, meas, horizon=2.0)

    def test_distances_decrease_toward_finest(self):
        prob = self.make_problem()
        study = convergence_study(prob, "euler", [8, 16, 32, 64],
                                  OptimizerOptions(grad_tol=1e-8,
                                                   max_iter=3000))
        assert [lv.n_segments for lv in study.levels] == [8, 16, 32, 64]
        assert all(lv.status == "converged" for lv in study.levels)
        ds = study.distances
        assert ds[-1] is None
        assert ds[0] > ds[1] > ds[2] > 0.0

    def test_cold_start_check(self):
        prob = self.make_problem()
        study = convergence_study(prob, "trapezoidal", [8, 32],
                                  OptimizerOptions(grad_tol=1e-8,
                                                   max_iter=3000))
        check = study.cold_check
        assert isinstance(check, ColdStartCheck)
        # warm starting must not lose merit against a cold solve
        assert check.merit_gap >= -1e-6
        assert check.sup_distance <= 1e-4
        study2 = convergence_study(prob, "trapezoidal", [8, 32],
                                   OptimizerOptions(grad_tol=1e-8,
                                                    max_iter=3000),
                                   cold_check=False)
        assert study2.cold_check is None

    def test_non_nested_levels_rejected(self):
        prob = self.make_problem()
        with pytest.raises(ValueError):
            convergence_study(prob, "euler", [8, 12])
        with pytest.raises(ValueError):
            convergence_study(prob, "euler", [16, 8])
        with pytest.raises(ValueError):
            convergence_study(prob, "euler", [])

    def test_unknown_kind_rejected(self):
        prob = self.make_problem()
        with pytest.raises(ValueError):
            convergence_study(prob, "midpoint", [8, 16])

    def test_deterministic(self):
        prob = self.make_problem()
        opts = OptimizerOptions(grad_tol=1e-8, max_iter=3000)
        a = convergence_study(prob, "euler", [8, 32], opts, cold_check=False)
        b = convergence_study(prob, "euler", [8, 32], opts, cold_check=False)
        for la, lb in zip(a.levels, b.levels):
            np.testing.assert_array_equal(la.path.states, lb.path.states)
            assert la.iterations == lb.iterations


class TestMinimumEnergyLimit:
    def test_euler_maximizers_approach_energy_path(self):
        # The energy merit is the trapezoidal merit with its log-det part
        # removed; refining Euler-merit maximizers must converge to its
        # maximizer, not to the trapezoidal one.
        drift, diffusion, init = builtin_model("benes")
        meas = Measurements([5.0], [1.5], "gaussian", 0.16)
        prob = StudyProblem(drift, diffusion, init, meas, horizon=5.0)
        opts = OptimizerOptions(grad_tol=1e-6, max_iter=5000)
        study = convergence_study(prob, "euler", [64, 256, 1024], opts,
                                  cold_check=False)
        assert all(lv.status == "converged" for lv in study.levels)
        assert study.distances[0] > study.distances[1] > 0.0

        finest = study.levels[-1].path
        delta = np.diff(finest.grid.times)

        def energy_objective(path):
            mv = fn.trapezoidal_merit(path, drift, diffusion, init, meas)
            x = path.states[:, 0]
            th = np.tanh(x[1:])
            sech2 = 1.0 - th * th
            det = 1.0 - 0.5 * delta * sech2
            grad = mv.gradient.copy()
            grad[1:, 0] -= delta * th * sech2 / det
            return MeritValue(value=mv.value - float(np.sum(np.log(det))),
                              gradient=grad)

        # hand-built gradient double-checked against finite differences on
        # a small independent instance
        g16 = prob.grid(16)
        d16 = np.diff(g16.times)
        rng = np.random.default_rng(0)
        p16 = DiscretePath(g16, np.cumsum(rng.uniform(-0.2, 0.2,
                                                      g16.times.size)))

        def small_energy(flat):
            path = DiscretePath(g16, flat.reshape(-1, 1))
            mv = fn.trapezoidal_merit(path, drift, diffusion, init, meas)
            x = flat
            th = np.tanh(x[1:])
            det = 1.0 - 0.5 * d16 * (1.0 - th * th)
            return mv.value - float(np.sum(np.log(det)))

        mv16 = fn.trapezoidal_merit(p16, drift, diffusion, init, meas)
        x16 = p16.states[:, 0]
        th16 = np.tanh(x16[1:])
        s16 = 1.0 - th16 * th16
        det16 = 1.0 - 0.5 * d16 * s16
        grad16 = mv16.gradient.copy()
        grad16[1:, 0] -= d16 * th16 * s16 / det16
        fd = fd_gradient(small_energy, x16)
        np.testing.assert_allclose(grad16.ravel(), fd, rtol=1e-6, atol=1e-8)

        res = maximize(energy_objective, finest, opts)
        assert res.status == "converged"
        assert sup_distance(res.path, finest) <= 0.01
