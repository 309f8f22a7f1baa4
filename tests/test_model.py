"""Grids, builtin models, diffusion weights, and the model self-check."""

import dataclasses
import math

import numpy as np
import pytest

from sdepath.model import (
    DiscretePath,
    Diffusion,
    DriftModel,
    GridError,
    InitialDensity,
    Measurements,
    TimeGrid,
    builtin_model,
    make_uniform_grid,
    uniform_steps,
    validate_model,
)


class TestUniformGrid:
    def test_plain_uniform(self):
        grid = make_uniform_grid(1.0, 2)
        np.testing.assert_array_equal(grid.times, [0.0, 0.5, 1.0])
        assert grid.n_segments == 2

    def test_measurement_on_existing_point_snaps(self):
        grid = make_uniform_grid(5.0, 5, meas_times=[5.0])
        np.testing.assert_array_equal(grid.times, [0.0, 1.0, 2.0, 3.0, 4.0, 5.0])
        np.testing.assert_array_equal(grid.index_of([5.0]), [5])

    def test_measurement_off_grid_is_inserted(self):
        grid = make_uniform_grid(1.0, 2, meas_times=[0.3])
        np.testing.assert_allclose(grid.times, [0.0, 0.3, 0.5, 1.0])
        np.testing.assert_array_equal(grid.index_of([0.3]), [1])
        # Insertion grows the grid; the base points survive bitwise.
        assert grid.times.size == 4
        assert 0.5 in grid.times

    def test_duplicate_measurement_times_collapse(self):
        grid = make_uniform_grid(1.0, 4, meas_times=[0.25, 0.25])
        np.testing.assert_array_equal(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])
        np.testing.assert_array_equal(grid.index_of([0.25, 0.25]), [1, 1])

    def test_deterministic_construction(self):
        meas = np.arange(0.1, 16.0, 0.1)
        a = make_uniform_grid(16.0, 1600, meas_times=meas)
        b = make_uniform_grid(16.0, 1600, meas_times=meas)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.index_of(meas), b.index_of(meas))

    def test_bad_inputs(self):
        with pytest.raises(GridError):
            make_uniform_grid(-1.0, 4)
        with pytest.raises(GridError):
            make_uniform_grid(1.0, 0)
        with pytest.raises(GridError):
            make_uniform_grid(1.0, 4, meas_times=[1.5])

    def test_uneven_partition_rejected(self):
        # 100 segments crammed into [0, 0.5] plus one long tail segment:
        # N * max(delta) = 101 * 0.5 > 10 * T.
        times = np.concatenate([np.linspace(0.0, 0.5, 101), [1.0]])
        with pytest.raises(GridError):
            TimeGrid(times)

    def test_decreasing_times_rejected(self):
        with pytest.raises(GridError):
            TimeGrid(np.array([0.0, 0.5, 0.4, 1.0]))


class TestIndexOf:
    def test_matches_nearest_point_search(self):
        grid = make_uniform_grid(16.0, 1600, meas_times=np.arange(161) * 0.1)
        query = np.arange(161) * 0.1
        expected = [int(np.argmin(np.abs(grid.times - t))) for t in query]
        np.testing.assert_array_equal(grid.index_of(query), expected)
        # the records of a uniform grid built with them sit every 10 points
        np.testing.assert_array_equal(grid.index_of(query),
                                      np.arange(161) * 10)

    def test_snaps_within_tolerance_and_repeats(self):
        grid = make_uniform_grid(1.0, 4)
        np.testing.assert_array_equal(
            grid.index_of([0.5 + 1e-12, 0.0, 1.0 - 1e-12, 0.5]), [2, 0, 4, 2])

    def test_off_grid_instant_raises(self):
        grid = make_uniform_grid(1.0, 4)
        for bad in ([0.3], [0.25, 0.3], [1.5], [-0.1]):
            with pytest.raises(GridError, match="does not lie on the grid"):
                grid.index_of(bad)

    def test_result_is_reused_and_read_only(self):
        grid = make_uniform_grid(1.0, 4)
        idx = grid.index_of([0.25, 0.75])
        assert grid.index_of(np.array([0.25, 0.75])) is idx
        with pytest.raises(ValueError):
            idx[0] = 3


class TestNestedGrids:
    """The benes ladder: uniform grids on T = 5 at N = 16..1024, each with
    the measurement at 5.0, as `StudyProblem.grid` builds them."""

    LADDER = [16, 32, 64, 128, 256, 512, 1024]

    def test_coarse_points_found_at_k_times_their_index(self):
        # each level warm-starts the next one of the ladder
        grids = [make_uniform_grid(5.0, n, meas_times=[5.0])
                 for n in self.LADDER]
        for coarse, fine in zip(grids, grids[1:]):
            k = fine.n_segments // coarse.n_segments
            np.testing.assert_array_equal(
                fine.index_of(coarse.times),
                np.arange(coarse.times.size) * k)
        for grid in grids:
            assert grid.index_of([5.0])[0] == grid.n_segments

    def test_every_level_nests_in_the_finest(self):
        # sup_distance compares every level with the finest
        finest = make_uniform_grid(5.0, self.LADDER[-1], meas_times=[5.0])
        for n in self.LADDER[:-1]:
            coarse = make_uniform_grid(5.0, n, meas_times=[5.0])
            np.testing.assert_array_equal(
                finest.index_of(coarse.times),
                np.arange(n + 1) * (self.LADDER[-1] // n))


class TestUniformSteps:
    def test_counts_dividing_steps(self):
        assert uniform_steps(16.0, 1e-2) == 1600
        assert uniform_steps(16.0, 5e-4) == 32000
        assert uniform_steps(1.0, 0.1) == 10
        assert uniform_steps(2.0, 2.0) == 1

    @pytest.mark.parametrize("horizon, step", [
        (16.0, 0.3), (1.0, 0.35), (2.0, 0.35), (1.0, 2.0)])
    def test_step_that_does_not_divide_raises(self, horizon, step):
        with pytest.raises(ValueError, match="does not divide horizon"):
            uniform_steps(horizon, step)

    @pytest.mark.parametrize("horizon, step", [
        (1.0, 0.0), (1.0, -0.1), (0.0, 0.1), (-1.0, 0.1)])
    def test_non_positive_raises(self, horizon, step):
        with pytest.raises(ValueError, match="must be positive"):
            uniform_steps(horizon, step)


class TestDiscretePath:
    def test_interp_matches_nodes_and_midpoints(self):
        grid = make_uniform_grid(1.0, 2)
        path = DiscretePath(grid, np.array([0.0, 1.0, 4.0]))
        np.testing.assert_allclose(path.interp(0.5), [1.0])
        np.testing.assert_allclose(path.interp(0.75), [2.5])
        np.testing.assert_allclose(path.interp([0.0, 1.0]), [[0.0], [4.0]])

    def test_shape_mismatch(self):
        grid = make_uniform_grid(1.0, 2)
        with pytest.raises(ValueError):
            DiscretePath(grid, np.zeros(2))

    def test_vector_states_kept_2d(self):
        grid = make_uniform_grid(1.0, 1)
        path = DiscretePath(grid, np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert path.dim == 2
        np.testing.assert_allclose(path.interp(0.5), [2.0, 3.0])


class TestDiffusion:
    def test_weight_is_inverse_of_ggt(self):
        g = np.array([[2.0, 0.0], [1.0, 1.0]])
        d = Diffusion.from_matrix(g)
        np.testing.assert_allclose(d.weight @ (g @ g.T), np.eye(2), atol=1e-12)

    def test_near_singular_rejected(self):
        with pytest.raises(ValueError):
            Diffusion.from_matrix(np.diag([1.0, 1e-13]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            Diffusion.from_matrix(np.ones((2, 3)))


class TestBuiltinModels:
    def test_benes_drift_values(self):
        drift, diffusion, init = builtin_model("benes")
        assert drift.dim == 1
        np.testing.assert_allclose(drift.f(0.0, np.array([0.0])), [0.0])
        x = np.array([0.3])
        th = math.tanh(0.3)
        np.testing.assert_allclose(drift.f(0.0, x), [th])
        np.testing.assert_allclose(drift.div(0.0, x), 1.0 - th * th)
        np.testing.assert_allclose(diffusion.g, [[1.0]])
        assert init.log_nu(np.array([0.0])) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi * 0.16))

    def test_vdp_drift_values(self):
        drift, diffusion, _ = builtin_model("vdp")
        assert drift.dim == 2
        x = np.array([0.5, -1.0])
        f = drift.f(0.0, x)
        np.testing.assert_allclose(f, [-1.0, -0.5 + 2.0 * 0.75 * (-1.0)])
        assert drift.div(0.0, np.zeros(2)) == pytest.approx(2.0)
        np.testing.assert_allclose(diffusion.g, 0.1 * np.eye(2))

    def test_ou_drift_values(self):
        drift, diffusion, init = builtin_model("ou", a=2.0, g=0.5, init_var=0.25)
        np.testing.assert_allclose(drift.f(0.0, np.array([1.5])), [-3.0])
        np.testing.assert_allclose(diffusion.weight, [[4.0]])
        np.testing.assert_allclose(init.mode, [0.0])

    def test_unknown_model_and_params(self):
        with pytest.raises(ValueError):
            builtin_model("heston")
        with pytest.raises(ValueError):
            builtin_model("benes", sigma=2.0)
        with pytest.raises(ValueError):
            builtin_model("ou", a=-1.0)

    @pytest.mark.parametrize("name", ["benes", "vdp", "ou"])
    def test_divergence_matches_jacobian_trace(self, name):
        drift, _, _ = builtin_model(name)
        rng = np.random.default_rng(7)
        for _ in range(50):
            t = float(rng.uniform(0.0, 10.0))
            x = rng.normal(size=drift.dim)
            j = np.asarray(drift.jac(t, x))
            assert abs(drift.div(t, x) - np.trace(j)) <= 1e-12

    @pytest.mark.parametrize("name", ["benes", "vdp", "ou"])
    def test_batch_rows_agree_with_scalar(self, name):
        drift, _, _ = builtin_model(name)
        rng = np.random.default_rng(3)
        ts = rng.uniform(0.0, 5.0, size=20)
        xs = rng.normal(size=(20, drift.dim))
        ws = rng.normal(size=(20, drift.dim, drift.dim))
        # exact: the simulator steps through f, the merits through f_rows
        f_loop = np.stack([drift.f(t, x) for t, x in zip(ts, xs)])
        assert np.array_equal(drift.f_rows(ts, xs), f_loop)
        # the simulator passes tuples of floats and gets floats back
        for t, x, fx in zip(ts.tolist(), xs.tolist(), f_loop):
            out = drift.f(t, tuple(x))
            assert all(type(v) is float for v in out)
            assert np.array_equal(out, fx)
        j_loop = np.stack([drift.jac(t, x) for t, x in zip(ts, xs)])
        np.testing.assert_allclose(drift.jac_rows(ts, xs), j_loop, atol=1e-13)
        d_loop = np.array([drift.div(t, x) for t, x in zip(ts, xs)])
        np.testing.assert_allclose(drift.div_rows(ts, xs), d_loop, atol=1e-13)
        c_loop = np.stack([drift.jac_deriv_contract(t, x, w)
                           for t, x, w in zip(ts, xs, ws)])
        np.testing.assert_allclose(drift.jdc_rows(ts, xs, ws), c_loop, atol=1e-13)


class TestValidateModel:
    @pytest.mark.parametrize("name", ["benes", "vdp", "ou"])
    def test_builtins_pass(self, name):
        drift, _, _ = builtin_model(name)
        report = validate_model(drift)
        assert report.passed
        assert report.max_div_error <= 1e-12
        assert report.max_jac_rel_error <= 1e-6
        assert report.max_jdc_rel_error <= 1e-6
        assert report.f_mismatches == 0

    def test_scaled_point_drift_is_caught(self):
        # the simulator steps through f, the merits through f_rows
        base, _, _ = builtin_model("vdp")
        broken = dataclasses.replace(
            base, f=lambda t, x: tuple(1.5 * v for v in base.f(t, x)))
        report = validate_model(broken)
        assert not report.passed
        assert report.f_mismatches == report.n_samples
        assert report.max_jac_rel_error <= 1e-6

    def test_wrong_batch_jdc_is_caught(self):
        # the trapezoidal gradient calls jdc_rows
        base, _, _ = builtin_model("vdp")
        broken = dataclasses.replace(
            base, jac_deriv_contract_batch=lambda ts, xs, ws:
            0.5 * base.jac_deriv_contract_batch(ts, xs, ws))
        report = validate_model(broken)
        assert not report.passed
        assert report.max_jdc_rel_error == pytest.approx(0.5, abs=1e-6)
        assert report.max_jac_rel_error <= 1e-6

    def test_jdc_fallback_passes(self):
        # without a jdc callback, a central difference of jac stands in
        base, _, _ = builtin_model("vdp")
        user = DriftModel(dim=2, f=base.f, jac=base.jac, div=base.div)
        report = validate_model(user)
        assert report.passed
        assert report.max_jdc_rel_error <= 1e-6

    def test_wrong_divergence_is_caught(self):
        base, _, _ = builtin_model("benes")
        broken = DriftModel(dim=1, f=base.f, jac=base.jac,
                            div=lambda t, x: base.div(t, x) + 1.0)
        report = validate_model(broken)
        assert not report.passed
        assert report.max_div_error == pytest.approx(1.0, abs=1e-10)

    def test_wrong_jacobian_is_caught(self):
        base, _, _ = builtin_model("benes")
        broken = DriftModel(dim=1, f=base.f,
                            jac=lambda t, x: np.array([[0.5]]),
                            div=base.div)
        report = validate_model(broken)
        assert not report.passed
        assert report.max_jac_rel_error > 1e-3

    def test_wrong_batch_jacobian_is_caught(self):
        # the merits call jac_rows, which uses jac_batch when it is given
        base, _, _ = builtin_model("vdp")
        broken = dataclasses.replace(
            base, jac_batch=lambda ts, xs: 0.5 * base.jac_batch(ts, xs))
        report = validate_model(broken)
        assert not report.passed
        assert report.max_jac_rel_error > 1e-3

    def test_wrong_batch_divergence_is_caught(self):
        base, _, _ = builtin_model("vdp")
        broken = dataclasses.replace(
            base, div_batch=lambda ts, xs: base.div_batch(ts, xs) + 1.0)
        report = validate_model(broken)
        assert not report.passed
        assert report.max_div_error == pytest.approx(1.0, abs=1e-10)


class TestDensitiesAndMeasurements:
    def test_gaussian_initial_density(self):
        init = InitialDensity.gaussian([1.0], [[4.0]])
        assert init.log_nu(np.array([1.0])) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi * 4.0))
        # log density drops by z^2/2 one standard deviation out.
        drop = init.log_nu(np.array([1.0])) - init.log_nu(np.array([3.0]))
        assert drop == pytest.approx(0.5)
        np.testing.assert_allclose(init.grad_log_nu(np.array([3.0])), [-0.5])
        np.testing.assert_allclose(init.mode, [1.0])
        np.testing.assert_allclose(init.precision, [[0.25]])

    def test_gaussian_initial_density_sample(self):
        init = InitialDensity.gaussian([1.0, -2.0], [[4.0, 1.0], [1.0, 0.5]])
        rng = np.random.default_rng(3)
        draws = np.array([init.sample(rng) for _ in range(20000)])
        np.testing.assert_allclose(draws.mean(axis=0), [1.0, -2.0], atol=0.05)
        np.testing.assert_allclose(np.cov(draws.T), [[4.0, 1.0], [1.0, 0.5]],
                                   rtol=0.05, atol=0.02)

    def test_gaussian_measurement_scalar(self):
        # record at t=2 on a flat-prior path: known value and slope
        m = Measurements([2.0], [1.0], "gaussian", 0.25)
        assert m.times.tolist() == [2.0] and m.values.tolist() == [1.0]
        value, _, _ = m.log_density(at_end([1.0], 2.0), flat_prior())
        assert value == pytest.approx(-0.5 * math.log(2.0 * math.pi * 0.25))
        _, grad, curv = m.log_density(at_end([1.5], 2.0), flat_prior())
        np.testing.assert_allclose(grad[-1], [-2.0])
        np.testing.assert_array_equal(curv[:, 0, 0], [0.0, 4.0])

    def test_gaussian_measurement_picks_component(self):
        m = Measurements([1.0], [0.0], "gaussian", 1.0, component=1)
        _, grad, _ = m.log_density(at_end([5.0, 1.0], 1.0), flat_prior(2))
        np.testing.assert_allclose(grad[-1], [0.0, -1.0])
        np.testing.assert_array_equal(grad[0], [0.0, 0.0])

    def test_nonpositive_variance_rejected(self):
        for law in ("gaussian", "student_t"):
            for scale in (0.0, -1.0, math.inf, math.nan):
                with pytest.raises(ValueError, match="scale"):
                    Measurements([0.0], [0.0], law, scale)


def flat_prior(dim=1):
    return InitialDensity(log_nu=lambda x: 0.0,
                          grad_log_nu=lambda x: np.zeros(dim))


def at_end(state, horizon):
    """Two-point path on [0, horizon] with `state` at both points."""
    return DiscretePath(make_uniform_grid(horizon, 1), [state, state])


def loop_log_density(meas, path, init):
    """Per-record reference: scalar arithmetic, one record at a time."""
    x = path.states
    total = float(init.log_nu(x[0]))
    grad = np.zeros_like(x)
    grad[0] = init.grad_log_nu(x[0])
    curv = np.zeros((x.shape[0], x.shape[1], x.shape[1]))
    if init.precision is not None:
        curv[0] = init.precision
    c = meas.component
    for t, y in zip(meas.times.tolist(), meas.values.tolist()):
        k = int(np.argmin(np.abs(path.grid.times - t)))
        r = float(x[k, c]) - y
        if meas.law == "gaussian":
            v = meas.scale
            total += -0.5 * math.log(2.0 * math.pi * v) - 0.5 * r * r / v
            grad[k, c] += -r / v
            curv[k, c, c] += 1.0 / v
        else:
            s4 = 4.0 * meas.scale * meas.scale
            total += -2.5 * math.log1p(r * r / s4)
            grad[k, c] += -5.0 * r / (s4 + r * r)
            curv[k, c, c] += 5.0 / (s4 + r * r)
    return total, grad, curv


class TestMeasurements:
    # instants 0 (where the prior gradient also lands), a repeated one, and
    # the horizon; listed out of time order on purpose
    TIMES = [1.5, 0.0, 0.75, 0.75, 3.0, 0.0]

    def problem(self, law, component, seed):
        rng = np.random.default_rng(seed)
        grid = make_uniform_grid(3.0, 12, meas_times=self.TIMES)
        init = InitialDensity.gaussian([0.1, -0.2], [[0.5, 0.1], [0.1, 0.3]])
        meas = Measurements(self.TIMES, rng.normal(0.0, 2.0, len(self.TIMES)),
                            law, float(rng.uniform(0.2, 1.0)), component)
        path = DiscretePath(grid, rng.normal(0.0, 3.0, (grid.times.size, 2)))
        return meas, path, init

    @pytest.mark.parametrize("law", ["gaussian", "student_t"])
    @pytest.mark.parametrize("component", [0, 1])
    def test_equals_per_record_loop(self, law, component):
        for seed in range(20):
            meas, path, init = self.problem(law, component, seed)
            value, grad, curv = meas.log_density(path, init)
            ref_value, ref_grad, ref_curv = loop_log_density(meas, path, init)
            assert value == ref_value
            np.testing.assert_array_equal(grad, ref_grad)
            np.testing.assert_array_equal(curv, ref_curv)

    @pytest.mark.parametrize("law", ["gaussian", "student_t"])
    def test_gradient_against_finite_differences(self, law):
        from sdepath.oracle import fd_gradient

        meas, path, init = self.problem(law, 1, seed=7)
        _, grad, _ = meas.log_density(path, init)
        fd = fd_gradient(
            lambda flat: meas.log_density(
                DiscretePath(path.grid, flat.reshape(-1, 2)), init)[0],
            path.states.ravel())
        np.testing.assert_allclose(grad.ravel(), fd, rtol=1e-6, atol=1e-8)

    def test_no_records_is_the_prior(self):
        _, path, init = self.problem("gaussian", 0, seed=1)
        value, grad, curv = Measurements().log_density(path, init)
        assert value == init.log_nu(path.states[0])
        np.testing.assert_array_equal(grad[0], init.grad_log_nu(path.states[0]))
        assert not grad[1:].any()
        np.testing.assert_array_equal(curv[0], init.precision)
        assert not curv[1:].any()

    def test_vanishing_prior_is_minus_inf(self):
        box = InitialDensity(log_nu=lambda x: -math.inf,
                             grad_log_nu=lambda x: np.zeros(2))
        meas, path, _ = self.problem("student_t", 0, seed=2)
        assert meas.log_density(path, box) == (-math.inf, None, None)

    def test_off_grid_instant_raises(self):
        meas = Measurements([0.3], [0.0])
        path = DiscretePath(make_uniform_grid(1.0, 4), np.zeros(5))
        with pytest.raises(GridError):
            meas.log_density(path, flat_prior())

    def test_bad_construction_rejected(self):
        with pytest.raises(ValueError, match="law"):
            Measurements([0.0], [0.0], "cauchy")
        with pytest.raises(ValueError, match="equal length"):
            Measurements([0.0, 1.0], [0.0])
        for bad in (-1, 0.5):
            with pytest.raises(ValueError, match="component"):
                Measurements([0.0], [0.0], component=bad)

    def test_arrays_are_read_only_copies(self):
        times = np.array([0.0, 1.0])
        meas = Measurements(times, [1.0, 2.0])
        times[0] = 5.0
        assert meas.times[0] == 0.0
        with pytest.raises(ValueError):
            meas.values[0] = 3.0
