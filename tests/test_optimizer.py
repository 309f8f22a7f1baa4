"""Path merit maximisation and nested-grid convergence studies."""

import math

import numpy as np
import pytest

from sdepath import functionals as fn
from sdepath import optimizer
from sdepath.functionals import MeritValue, MeshTooCoarseError
from sdepath.model import (
    DiscretePath,
    InitialDensity,
    Measurements,
    builtin_model,
    make_uniform_grid,
)
from sdepath.optimizer import (
    OptimizationResult,
    OptimizerOptions,
    StudyProblem,
    _solve_block_tridiagonal,
    convergence_study,
    initial_path,
    maximize,
    sup_distance,
)
from sdepath.oracle import LinearGaussianSpec, fd_gradient, rts_smoother
from sdepath.simulate import RngStream, sample_measurements, strong_order_15


def diagonal_curvature(weights):
    """Curvature blocks of a merit whose minus-Hessian is diagonal; weights
    has the shape of the path states."""
    n_pts, dim = weights.shape
    diag = weights[:, :, None] * np.eye(dim)
    return diag, np.zeros((n_pts - 1, dim, dim))


def bowl_objective(center, curvature=2.0):
    """Concave quadratic peaking at `center` (same shape as path states),
    reporting `curvature` (its true minus-Hessian is 2) on the diagonal."""

    def objective(path):
        d = path.states - center
        return MeritValue(value=-float(np.sum(d * d)), gradient=-2.0 * d,
                          curvature=diagonal_curvature(
                              np.full(d.shape, curvature)))

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
                              gradient=-4.0 * d**3,
                              curvature=diagonal_curvature(12.0 * d**2))

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
        # finite only at the start, which the trials never return to (they
        # are alpha * g away from zero): no trial is accepted, and the
        # search gives up after its whole backtrack budget
        grid = make_uniform_grid(1.0, 2)

        def objective(path):
            if np.any(path.states != 0.0):
                return MeritValue(value=-math.inf, gradient=None)
            return MeritValue(value=0.0, gradient=np.ones_like(path.states))

        res = maximize(objective, DiscretePath(grid, np.zeros((3, 1))))
        assert res.status == "line_search_failure"
        assert res.iterations == 0
        assert res.evaluations == 1 + optimizer._MAX_BACKTRACKS

    def test_step_below_round_off_ends_line_search(self):
        # gradient points away from the maximiser: the step shrinks until
        # the trial path equals the start, where the sufficient-increase
        # comparison "passes" in round-off; the solve must stop there, not
        # repeat that to max_iter
        grid = make_uniform_grid(1.0, 2)

        def objective(path):
            x = path.states
            return MeritValue(value=-float(np.sum(x * x)), gradient=2.0 * x,
                              curvature=diagonal_curvature(
                                  np.full(x.shape, 2.0)))

        res = maximize(objective, DiscretePath(grid, np.ones((3, 1))))
        assert res.status == "line_search_failure"
        assert res.iterations == 0
        assert res.evaluations <= 1 + optimizer._MAX_BACKTRACKS
        np.testing.assert_array_equal(res.path.states, np.ones((3, 1)))

    def test_mesh_error_treated_as_barrier(self):
        # objective raises where |x| is large; a curvature 2^20 times below
        # the bowl's true 2 makes the first Gauss-Newton step 2^20 times too
        # long, so the first trials land there and the backtracking must
        # recover
        grid = make_uniform_grid(1.0, 2)
        center = np.full((3, 1), 0.5)
        inner = bowl_objective(center, curvature=2.0 ** -19)
        raised = []

        def objective(path):
            if np.any(np.abs(path.states) > 10.0):
                raised.append(1)
                raise MeshTooCoarseError("out of the validated region")
            return inner(path)

        res = maximize(objective, DiscretePath(grid, np.zeros((3, 1))),
                       OptimizerOptions(max_iter=200))
        assert raised
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


def dense_blocks(diag, lower):
    m, n, _ = diag.shape
    h = np.zeros((m * n, m * n))
    for k in range(m):
        h[k * n:(k + 1) * n, k * n:(k + 1) * n] = diag[k]
    for k in range(m - 1):
        h[(k + 1) * n:(k + 2) * n, k * n:(k + 1) * n] = lower[k]
        h[k * n:(k + 1) * n, (k + 1) * n:(k + 2) * n] = lower[k].T
    return h


def random_spd_blocks(m, n, seed):
    """Random block-tridiagonal system, positive definite by block
    diagonal dominance."""
    rng = np.random.default_rng(seed)
    lower = rng.normal(size=(m - 1, n, n))
    root = rng.normal(size=(m, n, n))
    diag = root @ np.swapaxes(root, 1, 2) + 0.1 * np.eye(n)
    size = np.abs(lower).sum(axis=(1, 2))[:, None, None] * np.eye(n)
    diag[:-1] += size
    diag[1:] += size
    return diag, lower, rng.normal(size=(m, n))


class TestBlockTridiagonalSolve:
    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 3, 17, 1601])
    def test_matches_dense_solve(self, m, n):
        diag, lower, rhs = random_spd_blocks(m, n, seed=10 * m + n)
        x = _solve_block_tridiagonal(diag, lower, rhs)
        assert x.shape == (m, n)
        ref = np.linalg.solve(dense_blocks(diag, lower), rhs.ravel())
        np.testing.assert_allclose(x.ravel(), ref, rtol=1e-10, atol=1e-12)

    def test_indefinite_pivot_raises(self):
        diag, lower, rhs = random_spd_blocks(5, 2, seed=3)
        diag[3] = -np.eye(2)
        with pytest.raises(np.linalg.LinAlgError):
            _solve_block_tridiagonal(diag, lower, rhs)


class TestGaussNewtonSteps:
    def benes_problem(self):
        drift, diffusion, init = builtin_model("benes")
        meas = Measurements([5.0], [1.5], "gaussian", 0.16)
        return StudyProblem(drift, diffusion, init, meas, horizon=5.0), init, meas

    @pytest.mark.parametrize("kind,tol", [("euler", 5e-3),
                                          ("trapezoidal", 1e-3)])
    def test_one_step_reproduces_smoother_on_linear_model(self, kind, tol):
        # with a linear drift and Gaussian records both merits are quadratic
        # and their Gauss-Newton matrix is exact: one step lands on the
        # maximiser, which is within the discretisation error of the
        # exact-transition smoother
        drift, diffusion, init = builtin_model("ou")
        times = (0.4, 0.8, 1.2, 1.6, 2.0)
        values = (-0.908, 0.577, 1.062, 0.405, 1.362)
        meas = Measurements(times, values, "gaussian", 0.25)
        prob = StudyProblem(drift, diffusion, init, meas, horizon=2.0)
        grid = prob.grid(256)
        res = maximize(prob.objective(kind), initial_path(grid, init, meas),
                       OptimizerOptions(grad_tol=1e-8, max_iter=1))
        assert res.status == "converged" and res.iterations == 1
        assert res.evaluations == 2
        spec = LinearGaussianSpec(a=-1.0, g=1.0, x0_mean=0.0, x0_cov=1.0)
        sm = rts_smoother(spec, grid,
                          [(t, y, 1.0, 0.25) for t, y in zip(times, values)])
        assert np.max(np.abs(res.path.states[:, 0] - sm.means[:, 0])) <= tol

    @pytest.mark.parametrize("kind", ["euler", "trapezoidal", "exact"])
    def test_iterations_flat_in_grid_size(self, kind):
        prob, init, meas = self.benes_problem()
        opts = OptimizerOptions(grad_tol=1e-6, max_iter=200)
        counts = {}
        for n in (64, 4096):
            grid = prob.grid(n)
            res = maximize(prob.objective(kind),
                           initial_path(grid, init, meas), opts)
            assert res.status == "converged"
            counts[n] = res.iterations
        assert counts[4096] <= counts[64]

    def test_exact_cold_start_converges_at_1024(self):
        prob, init, meas = self.benes_problem()
        grid = prob.grid(1024)
        res = maximize(prob.objective("exact"), initial_path(grid, init, meas),
                       OptimizerOptions(grad_tol=1e-6, max_iter=5000))
        assert res.status == "converged"
        assert res.grad_norm <= 1e-6

    @pytest.mark.parametrize("weight", [None, -1.0])
    def test_missing_or_indefinite_curvature_steps_along_gradient(self,
                                                                 weight):
        # on the unit bowl a unit gradient step lands on the peak, while
        # the solved step for curvature -1 would point away from it
        grid = make_uniform_grid(1.0, 3)
        center = np.linspace(-1.0, 2.0, 4)[:, None]

        def objective(path):
            d = path.states - center
            curvature = (None if weight is None
                         else diagonal_curvature(np.full(d.shape, weight)))
            return MeritValue(value=-0.5 * float(np.sum(d * d)), gradient=-d,
                              curvature=curvature)

        res = maximize(objective, DiscretePath(grid, np.zeros((4, 1))))
        assert res.status == "converged" and res.iterations == 1
        np.testing.assert_allclose(res.path.states, center, atol=1e-12)


class TestRoundOffFloor:
    def test_vdp_trapezoidal_solve_stops_at_round_off(self):
        # Replicate 0 of the default vdp-robust study.  Below |g| ~ 1e-7 the
        # merit (about -220) no longer resolves the Gauss-Newton steps; a
        # grad_tol past that floor must end in a line-search failure within
        # a few iterations, not in thousands of evaluations at max_iter.
        drift, diffusion, init = builtin_model("vdp")
        rng = RngStream(20240501, 0).generator()
        times, states, failed = strong_order_15(
            drift, diffusion, init.sample(rng)[None], 5e-4, 16.0, [rng])
        assert not failed
        sample = sample_measurements(times, states[0], 0.1, 0.5, 3.0, 0.25,
                                     rng)
        meas = Measurements(sample.times, sample.values, "student_t", 0.5)
        prob = StudyProblem(drift, diffusion, init, meas, horizon=16.0)
        grid = make_uniform_grid(16.0, 1600, meas_times=sample.times)
        euler = maximize(prob.objective("euler"),
                         initial_path(grid, init, meas, dim=2),
                         OptimizerOptions(grad_tol=1e-6, max_iter=300))
        assert euler.status == "converged"
        trap = maximize(prob.objective("trapezoidal"), euler.path,
                        OptimizerOptions(grad_tol=1e-7, max_iter=300))
        assert trap.status == "line_search_failure"
        assert trap.evaluations < 500
        assert trap.grad_norm < 1e-6


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
            diag = np.zeros(x.size)
            diag[:-1] += phi * phi / q
            diag[1:] += 1.0 / q
            diag[0] += 1.0 / p0
            for j, (_, y, r) in zip(meas_idx, meas):
                value -= 0.5 * (y - x[j]) ** 2 / r
                grad[j] += (y - x[j]) / r
                diag[j] += 1.0 / r
            lower = (-phi / q)[:, None, None]
            return MeritValue(value=value, gradient=grad[:, None],
                              curvature=(diag[:, None, None], lower))

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
        assert ([lv.path.grid.n_segments for lv in study.levels]
                == [8, 16, 32, 64])
        assert all(lv.status == "converged" for lv in study.levels)
        ds = study.distances
        assert ds[-1] is None
        assert ds[0] > ds[1] > ds[2] > 0.0

    def test_cold_start_check(self):
        prob = self.make_problem()
        study = convergence_study(prob, "trapezoidal", [8, 32],
                                  OptimizerOptions(grad_tol=1e-8,
                                                   max_iter=3000))
        assert isinstance(study.cold, OptimizationResult)
        assert study.cold.status == "converged"
        assert study.cold.path.grid.n_segments == 32
        # warm starting must not lose merit against a cold solve
        assert study.cold_merit_gap == (study.levels[-1].merit.value
                                        - study.cold.merit.value)
        assert study.cold_merit_gap >= -1e-6
        assert study.cold_sup_distance <= 1e-4

    def test_solve_order(self, monkeypatch):
        # levels coarse to fine, each warm-started from the last maximiser,
        # then the cold solve on the finest grid
        prob = self.make_problem()
        starts, results = [], []
        solve = optimizer.maximize

        def recorder(objective, start, options=OptimizerOptions()):
            starts.append(start)
            results.append(solve(objective, start, options))
            return results[-1]

        monkeypatch.setattr(optimizer, "maximize", recorder)
        study = convergence_study(prob, "euler", [8, 32],
                                  init_strategy="prior_mean")
        assert [s.grid.n_segments for s in starts] == [8, 32, 32]
        assert study.levels == tuple(results[:2])
        assert study.cold is results[2]
        for start in (starts[0], starts[2]):
            np.testing.assert_array_equal(
                start.states,
                initial_path(start.grid, prob.init, prob.measurements,
                             strategy="prior_mean").states)
        np.testing.assert_array_equal(
            starts[1].states, results[0].path.interp(starts[1].grid.times))

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
        a = convergence_study(prob, "euler", [8, 32], opts)
        b = convergence_study(prob, "euler", [8, 32], opts)
        for la, lb in zip(a.levels + (a.cold,), b.levels + (b.cold,)):
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
        study = convergence_study(prob, "euler", [64, 256, 1024], opts)
        assert all(lv.status == "converged"
                   for lv in study.levels + (study.cold,))
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
            # the trapezoidal Gauss-Newton matrix leaves out the log-det
            # terms, so it serves the energy merit as well
            return MeritValue(value=mv.value - float(np.sum(np.log(det))),
                              gradient=grad, curvature=mv.curvature)

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
