"""Command-line driver: config handling, outputs, determinism, exit codes."""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from sdepath import cli
from sdepath.cli import (
    ConfigError,
    IseRecord,
    compute_ise,
    load_config,
)
from sdepath.model import DiscretePath, Measurements, make_uniform_grid
from sdepath.optimizer import OptimizerOptions
from sdepath.simulate import RngStream, polar_normal


def write_config(tmp_path, payload, name="config.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def assert_no_temp_residue(directory):
    assert list(Path(directory).rglob("*.tmp")) == []


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config("benes-convergence")
        assert cfg.levels == (16, 32, 64, 128, 256, 512, 1024)
        assert cfg.kinds == ("euler", "trapezoidal", "exact")
        assert cfg.seed == 20240501
        meas = cfg.measurement
        assert isinstance(meas, Measurements)
        assert (meas.times.tolist(), meas.values.tolist(), meas.law,
                meas.scale) == ([5.0], [1.5], "gaussian", 0.16)
        drift, _, _ = cfg.model
        assert drift.dim == 1

    def test_every_default_key_has_a_parser(self):
        for defaults in cli.DEFAULT_CONFIGS.values():
            assert set(defaults) <= set(cli._PARSERS)

    def test_null_only_where_the_default_is_null(self, tmp_path):
        path = write_config(tmp_path, {"protocol": None})
        assert load_config("simulate", path).protocol is None
        with pytest.raises(ConfigError, match="protocol"):
            load_config("vdp-robust", path)

    def test_partial_section_override_keeps_other_defaults(self, tmp_path):
        path = write_config(tmp_path, {"optimizer": {"grad_tol": 1e-4}})
        cfg = load_config("benes-convergence", path)
        assert cfg.optimizer.grad_tol == 1e-4
        assert cfg.optimizer.max_iter == 5000
        assert isinstance(cfg.optimizer, OptimizerOptions)

    def test_seed_and_out_flags_win_over_config(self, tmp_path):
        path = write_config(tmp_path, {"seed": 11, "output_dir": "from-file"})
        cfg = load_config("simulate", path, seed=99, output_dir="from-flag")
        assert cfg.seed == 99
        assert cfg.output_dir == "from-flag"

    def test_unknown_top_level_key(self, tmp_path):
        path = write_config(tmp_path, {"bogus": 3})
        with pytest.raises(ConfigError, match="bogus"):
            load_config("benes-convergence", path)

    def test_unknown_nested_key(self, tmp_path):
        path = write_config(tmp_path, {"optimizer": {"stepsize": 0.1}})
        with pytest.raises(ConfigError, match="stepsize"):
            load_config("benes-convergence", path)

    def test_schema_version_checked(self, tmp_path):
        path = write_config(tmp_path, {"schema": 2})
        with pytest.raises(ConfigError, match="schema"):
            load_config("simulate", path)

    def test_experiment_mismatch(self, tmp_path):
        path = write_config(tmp_path, {"experiment": "vdp-robust"})
        with pytest.raises(ConfigError, match="does not match"):
            load_config("benes-convergence", path)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("simulate", "/nonexistent/config.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="JSON"):
            load_config("simulate", str(p))

    def test_non_object_json(self, tmp_path):
        p = tmp_path / "list.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError, match="object"):
            load_config("simulate", str(p))

    def test_bad_seed(self, tmp_path):
        for bad in (-1, 2**64, 1.5):
            path = write_config(tmp_path, {"seed": bad})
            with pytest.raises(ConfigError, match="seed"):
                load_config("simulate", path)

    def test_non_nested_levels(self, tmp_path):
        path = write_config(tmp_path, {"levels": [16, 24]})
        with pytest.raises(ConfigError, match="nested"):
            load_config("benes-convergence", path)

    def test_bad_level_values(self, tmp_path):
        for bad in ([], [0], [8, 8], ["16"]):
            path = write_config(tmp_path, {"levels": bad})
            with pytest.raises(ConfigError):
                load_config("benes-convergence", path)

    def test_bad_kinds(self, tmp_path):
        for bad in (["heun"], ["euler", "euler"], []):
            path = write_config(tmp_path, {"kinds": bad})
            with pytest.raises(ConfigError):
                load_config("benes-convergence", path)

    def test_outlier_probability_bounds(self, tmp_path):
        path = write_config(tmp_path, {"protocol": {"p_outlier": 1.5}})
        with pytest.raises(ConfigError, match="p_outlier"):
            load_config("vdp-robust", path)

    def test_nonpositive_quantities(self, tmp_path):
        for patch in ({"horizon": -1.0}, {"sim_step": 0.0},
                      {"protocol": {"sigma_y": -0.5}},
                      {"measurement": {"variance": 0.0}}):
            section = "vdp-robust" if "protocol" in patch else "benes-convergence"
            path = write_config(tmp_path, patch)
            with pytest.raises(ConfigError):
                load_config(section, path)

    def test_bad_model_params(self, tmp_path):
        path = write_config(tmp_path,
                            {"model": {"params": {"sigma": 2.0}}})
        with pytest.raises(ConfigError, match="model"):
            load_config("benes-convergence", path)

    def test_bad_scheme(self, tmp_path):
        path = write_config(tmp_path, {"scheme": "milstein"})
        with pytest.raises(ConfigError, match="scheme"):
            load_config("simulate", path)


class TestComputeIse:
    def fine_times(self, horizon, n=2000):
        return np.linspace(0.0, horizon, n + 1)

    def test_identical_paths(self):
        times = self.fine_times(2.0)
        states = np.zeros((times.size, 1))
        est = DiscretePath(make_uniform_grid(2.0, 4), np.zeros(5))
        assert compute_ise(times, states, est) == 0.0

    def test_constant_offset(self):
        times = self.fine_times(2.0)
        states = np.zeros((times.size, 1))
        est = DiscretePath(make_uniform_grid(2.0, 4), np.full(5, 1.0))
        assert compute_ise(times, states, est) == pytest.approx(2.0, abs=1e-12)

    def test_larger_offset_longer_span(self):
        times = self.fine_times(4.0)
        states = np.zeros((times.size, 1))
        est = DiscretePath(make_uniform_grid(4.0, 8), np.full(9, 2.0))
        assert compute_ise(times, states, est) == pytest.approx(16.0,
                                                                abs=1e-12)

    def test_linear_error(self):
        times = self.fine_times(1.0)
        states = np.zeros((times.size, 1))
        est = DiscretePath(make_uniform_grid(1.0, 10),
                           np.linspace(0.0, 1.0, 11))
        assert compute_ise(times, states, est) == pytest.approx(1.0 / 3.0,
                                                                abs=1e-6)

    def test_componentwise_sum(self):
        times = self.fine_times(1.0)
        states = np.zeros((times.size, 2))
        est = DiscretePath(make_uniform_grid(1.0, 2),
                           np.full((3, 2), 1.0))
        assert compute_ise(times, states, est) == pytest.approx(2.0,
                                                                abs=1e-12)

    def test_span_mismatch_rejected(self):
        times = self.fine_times(2.0)
        states = np.zeros((times.size, 1))
        est = DiscretePath(make_uniform_grid(3.0, 3), np.zeros(4))
        with pytest.raises(ValueError):
            compute_ise(times, states, est)

    def test_negative_ise_record_rejected(self):
        with pytest.raises(ValueError):
            IseRecord(0, "euler", -1.0, 0.0)


class TestSimulateCommand:
    def simulate_config(self, tmp_path, **overrides):
        payload = {"horizon": 1.0, "sim_step": 1e-2}
        payload.update(overrides)
        return write_config(tmp_path, payload)

    def test_writes_path_csv(self, tmp_path):
        cfg = self.simulate_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "path.csv").read_text().splitlines()
        assert lines[0] == "t,x1"
        assert len(lines) == 102
        ts = np.array([float(l.split(",")[0]) for l in lines[1:]])
        np.testing.assert_allclose(ts, np.linspace(0.0, 1.0, 101),
                                   atol=1e-15)
        assert_no_temp_residue(out)

    def test_rerun_is_bitwise_identical(self, tmp_path):
        cfg = self.simulate_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out1)]) == 0
        assert cli.main(["simulate", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "path.csv").read_bytes() == (out2 / "path.csv").read_bytes()

    def test_seed_changes_output(self, tmp_path):
        cfg = self.simulate_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        cli.main(["simulate", "--config", cfg, "--out", str(out1),
                  "--seed", "1"])
        cli.main(["simulate", "--config", cfg, "--out", str(out2),
                  "--seed", "2"])
        assert (out1 / "path.csv").read_bytes() != (out2 / "path.csv").read_bytes()

    def test_measurement_dump(self, tmp_path):
        cfg = self.simulate_config(
            tmp_path,
            protocol={"step": 0.1, "sigma_y": 0.1, "sigma_outlier": 1.0,
                      "p_outlier": 0.5})
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        lines = (out / "measurements.csv").read_text().splitlines()
        assert lines[0] == "t,y,outlier_flag"
        assert len(lines) == 12
        flags = {l.split(",")[2] for l in lines[1:]}
        assert flags <= {"0", "1"}

    def test_euler_scheme(self, tmp_path):
        cfg = self.simulate_config(tmp_path, scheme="euler")
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0

    def test_vdp_path_has_two_columns(self, tmp_path):
        cfg = self.simulate_config(tmp_path,
                                   model={"name": "vdp", "params": {}})
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header = (out / "path.csv").read_text().splitlines()[0]
        assert header == "t,x1,x2"

    def test_vdp_order15_golden_bytes(self, tmp_path):
        # a lone path steps as floats through the point drift; these
        # digests were taken from the numpy row stepper
        cfg = self.simulate_config(
            tmp_path, model={"name": "vdp", "params": {}}, horizon=4.0,
            sim_step=5e-4, scheme="order15",
            protocol={"step": 0.1, "sigma_y": 0.5, "sigma_outlier": 3.0,
                      "p_outlier": 0.25})
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--seed", "20240501",
                         "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("path.csv", "measurements.csv")}
        assert digests == {
            "path.csv": "d018d8d3de2e9683b7b7c7337c6964498b57613ae84a2d462eb"
                        "832e0df898d5c",
            "measurements.csv": "9508c07f7d9fcfe1671bc806cff0f4e6a2f3dc4124c"
                                "2ce4b32580af2bd7d31fc",
        }

    def test_failed_stream_leaves_no_file(self, tmp_path):
        # rows are written in blocks, but the file appears only complete
        def lines():
            for k in range(3 * cli._CSV_BLOCK):
                yield str(k)
            raise RuntimeError("row source failed")

        with pytest.raises(RuntimeError):
            cli._write_csv(tmp_path / "x.csv", ["k"], lines())
        assert list(tmp_path.iterdir()) == []
        cli._write_csv(tmp_path / "x.csv", ["k"],
                       (str(k) for k in range(3 * cli._CSV_BLOCK)))
        assert (tmp_path / "x.csv").read_text() == "".join(
            "%s\n" % k for k in ["k"] + list(range(3 * cli._CSV_BLOCK)))

    def test_floats_written_at_full_precision(self, tmp_path):
        cfg = self.simulate_config(tmp_path)
        out = tmp_path / "out"
        cli.main(["simulate", "--config", cfg, "--out", str(out)])
        lines = (out / "path.csv").read_text().splitlines()[1:]
        xs = np.array([float(l.split(",")[1]) for l in lines])
        # writing the parsed values back through the same format reproduces
        # the file exactly, so no precision was lost in the dump
        redump = [format(v, ".17g") for v in xs]
        assert redump == [l.split(",")[1] for l in lines]


class TestBenesConvergenceCommand:
    def test_single_degenerate_level(self, tmp_path):
        cfg = write_config(tmp_path, {"levels": [4], "kinds": ["euler"]})
        out = tmp_path / "out"
        rc = cli.main(["benes-convergence", "--config", cfg,
                       "--out", str(out)])
        assert rc == 0
        lines = (out / "convergence.csv").read_text().splitlines()
        assert lines[0] == "kind,n_segments,sup_distance,merit"
        assert len(lines) == 2
        kind, n, dist, merit = lines[1].split(",")
        assert (kind, n, dist) == ("euler", "4", "")
        float(merit)
        assert (out / "paths_euler_4.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        euler = summary["kinds"]["euler"]
        assert euler["statuses"] == ["converged"]
        assert len(euler["iterations"]) == len(euler["evaluations"]) == 1
        assert euler["evaluations"][0] >= euler["iterations"][0] + 1
        cold = euler["cold_start"]
        assert cold["status"] == "converged"
        assert cold["evaluations"] >= cold["iterations"] + 1
        assert_no_temp_residue(out)

    def test_two_kinds_two_levels_bitwise_rerun(self, tmp_path):
        cfg = write_config(tmp_path, {"levels": [8, 16],
                                      "kinds": ["euler", "trapezoidal"]})
        out1, out2 = tmp_path / "t1", tmp_path / "t2"
        assert cli.main(["benes-convergence", "--config", cfg,
                         "--out", str(out1)]) == 0
        assert cli.main(["benes-convergence", "--config", cfg,
                         "--out", str(out2)]) == 0
        assert ((out1 / "convergence.csv").read_bytes()
                == (out2 / "convergence.csv").read_bytes())
        for name in ("paths_euler_8.csv", "paths_euler_16.csv",
                     "paths_trapezoidal_8.csv", "paths_trapezoidal_16.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestVdpRobustCommand:
    def tiny_config(self, tmp_path, **overrides):
        payload = {
            "horizon": 2.0,
            "protocol": {"step": 0.5, "sigma_y": 0.5,
                         "sigma_outlier": 3.0, "p_outlier": 0.25},
            "replicates": 1,
            "sim_step": 1e-3,
            "est_step": 0.1,
            "optimizer": {"grad_tol": 1e-3, "max_iter": 4000},
        }
        payload.update(overrides)
        return write_config(tmp_path, payload)

    def test_outputs_and_bitwise_rerun(self, tmp_path):
        cfg = self.tiny_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["vdp-robust", "--config", cfg,
                         "--out", str(out1)]) == 0
        assert cli.main(["vdp-robust", "--config", cfg,
                         "--out", str(out2)]) == 0
        body = (out1 / "ise.csv").read_text().splitlines()
        assert body[0] == "replicate,kind,ise"
        assert [l.split(",")[1] for l in body[1:]] == ["euler", "trapezoidal"]
        assert (out1 / "ise.csv").read_bytes() == (out2 / "ise.csv").read_bytes()
        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["failed"] == 0
        assert summary["kinds"]["euler"]["count"] == 1
        for kind in ("euler", "trapezoidal"):
            solves = summary["kinds"][kind]
            assert len(solves["iterations"]) == len(solves["evaluations"]) == 1
            assert solves["evaluations"][0] >= solves["iterations"][0] + 1
        assert 0.0 <= summary["outlier_fraction"] <= 1.0
        assert_no_temp_residue(out1)

    def test_summary_recomputable_from_ise_csv(self, tmp_path):
        cfg = self.tiny_config(tmp_path, replicates=3)
        out = tmp_path / "out"
        assert cli.main(["vdp-robust", "--config", cfg,
                         "--out", str(out)]) == 0
        rows = [l.split(",") for l in
                (out / "ise.csv").read_text().splitlines()[1:]]
        summary = json.loads((out / "summary.json").read_text())
        for kind in ("euler", "trapezoidal"):
            ises = [float(r[2]) for r in rows if r[1] == kind]
            assert len(ises) == summary["kinds"][kind]["count"]
            assert summary["kinds"][kind]["median"] == pytest.approx(
                float(np.median(ises)), rel=1e-12)

    def test_noiseless_recovery(self, tmp_path):
        # with clean dense measurements both estimators track the truth;
        # their ISE must be far below the scale of the oscillation itself
        cfg = self.tiny_config(
            tmp_path,
            protocol={"step": 0.1, "sigma_y": 1e-3, "sigma_outlier": 1e-3,
                      "p_outlier": 0.0},
            est_step=0.02)
        out = tmp_path / "out"
        assert cli.main(["vdp-robust", "--config", cfg,
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        for kind in ("euler", "trapezoidal"):
            assert summary["kinds"][kind]["median"] <= 0.05

    def test_initial_state_drawn_from_the_model_prior(self, tmp_path,
                                                      monkeypatch):
        # the ou prior has variance 1.0; the draw must use it, not the vdp
        # default of 0.01
        starts = []
        real = cli.strong_order_15

        def spy(drift, diffusion, x0, *args):
            starts.append(np.array(x0))
            return real(drift, diffusion, x0, *args)

        monkeypatch.setattr(cli, "strong_order_15", spy)
        cfg = self.tiny_config(tmp_path, model={"name": "ou", "params": {}},
                               replicates=2)
        assert cli.main(["vdp-robust", "--config", cfg, "--seed", "7",
                         "--out", str(tmp_path / "out")]) == 0
        # one batch, one row per replicate, each drawn from its own stream
        expected = [polar_normal(RngStream(7, rep).generator(), 1)
                    for rep in range(2)]
        assert len(starts) == 1
        np.testing.assert_array_equal(starts[0], expected)

    def test_replicate_rows_independent_of_batch_size(self, tmp_path):
        # 20 replicates cross a simulation block boundary; the rows of the
        # first three must not depend on the replicates stepped beside them
        rows = {}
        for n in (3, 20):
            cfg = self.tiny_config(tmp_path, replicates=n)
            out = tmp_path / ("out%d" % n)
            assert cli.main(["vdp-robust", "--config", cfg,
                             "--out", str(out)]) == 0
            rows[n] = (out / "ise.csv").read_text().splitlines()
        assert cli._SIM_BLOCK < 20
        assert len(rows[20]) == 1 + 2 * 20
        assert rows[3] == rows[20][:1 + 2 * 3]

    def test_lone_last_block_row_matches_wider_block(self, tmp_path):
        # with one replicate past a full block, the last block is a lone
        # row stepped through the point drift; its ise rows must be those
        # it has as one of several rows
        n = cli._SIM_BLOCK + 1
        rows = {}
        for reps in (n, 20):
            cfg = self.tiny_config(tmp_path, replicates=reps)
            out = tmp_path / ("out%d" % reps)
            assert cli.main(["vdp-robust", "--config", cfg,
                             "--out", str(out)]) == 0
            rows[reps] = (out / "ise.csv").read_text().splitlines()
        assert 20 > n
        assert len(rows[n]) == 1 + 2 * n
        assert rows[n] == rows[20][:1 + 2 * n]

    def test_exploding_replicate_fails_alone(self, tmp_path, monkeypatch):
        # replicate 1 starts where the vdp drift overflows within a few
        # steps; it is listed as a failure and the others are summarised
        real = cli.strong_order_15

        def blow_up_row_1(drift, diffusion, x0, *args):
            x0 = np.array(x0)
            x0[1] = 1e80
            return real(drift, diffusion, x0, *args)

        monkeypatch.setattr(cli, "strong_order_15", blow_up_row_1)
        cfg = self.tiny_config(tmp_path, replicates=3)
        out = tmp_path / "out"
        assert cli.main(["vdp-robust", "--config", cfg,
                         "--out", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["failed"] == 1
        assert list(summary["failures"]) == ["1"]
        assert re.fullmatch(r"SimulationError: state became non-finite at "
                            r"step \d+ \(t=[0-9.e+-]+\)",
                            summary["failures"]["1"])
        ise = [l.split(",")[0] for l in
               (out / "ise.csv").read_text().splitlines()[1:]]
        assert ise == ["0", "0", "2", "2"]

    def test_all_replicates_failing_is_runtime_error(self, tmp_path,
                                                    monkeypatch):
        # every replicate starts where the vdp drift overflows: each fails,
        # and nothing can be summarised
        real = cli.strong_order_15

        def blow_up_every_row(drift, diffusion, x0, *args):
            return real(drift, diffusion, np.full(np.shape(x0), 1e80), *args)

        monkeypatch.setattr(cli, "strong_order_15", blow_up_every_row)
        cfg = self.tiny_config(tmp_path, replicates=2)
        out = tmp_path / "out"
        rc = cli.main(["vdp-robust", "--config", cfg, "--out", str(out)])
        assert rc == 3
        assert not (out / "ise.csv").exists()


# values that must fail at load: wrong types and nulls, bools as integers,
# a fractional max_iter, a non-positive option (a negative grad_tol would
# make every solve end max_iter), an unknown start strategy (otherwise
# found only after simulating), a removed line-search option, and a step
# that does not divide the horizon (otherwise a silently rounded grid, a
# measurement past the end of the path, or a failure after simulating)
MALFORMED = {
    "horizon-string": ("benes-convergence", {"horizon": "x"}),
    "horizon-null": ("benes-convergence", {"horizon": None}),
    "measurement-time-string": ("benes-convergence",
                                {"measurement": {"time": "abc"}}),
    "grad-tol-string": ("benes-convergence",
                        {"optimizer": {"grad_tol": "x"}}),
    "model-params-list": ("benes-convergence", {"model": {"params": [1]}}),
    "protocol-incomplete": ("simulate", {"protocol": {"step": 0.1}}),
    "seed-bool": ("simulate", {"seed": True}),
    "levels-bool": ("benes-convergence", {"levels": [True, 2]}),
    "max-iter-float": ("benes-convergence", {"optimizer": {"max_iter": 2.9}}),
    "grad-tol-negative": ("benes-convergence",
                          {"optimizer": {"grad_tol": -1.0}}),
    "backtrack-zero": ("vdp-robust", {"optimizer": {"backtrack": 0.0},
                                      "replicates": 1}),
    "init-strategy-benes": ("benes-convergence", {"init_strategy": "bogus"}),
    "init-strategy-vdp": ("vdp-robust", {"init_strategy": "bogus",
                                         "replicates": 1}),
    "armijo-removed": ("benes-convergence", {"optimizer": {"armijo": 1e-4}}),
    "max-backtracks-removed": ("benes-convergence",
                               {"optimizer": {"max_backtracks": 60}}),
    "init-step-removed": ("vdp-robust", {"optimizer": {"init_step": 1.0},
                                         "replicates": 1}),
    "est-step-not-dividing": ("vdp-robust", {"est_step": 0.3,
                                             "replicates": 1}),
    "sim-step-not-dividing": ("simulate", {"sim_step": 0.3, "horizon": 1.0}),
    "protocol-step-simulate": ("simulate", {
        "horizon": 1.0, "sim_step": 1e-2,
        "protocol": {"step": 0.35, "sigma_y": 0.5, "sigma_outlier": 3.0,
                     "p_outlier": 0.25}}),
    "protocol-step-vdp": ("vdp-robust", {"horizon": 2.0, "replicates": 1,
                                         "protocol": {"step": 0.35}}),
}


class TestExitCodes:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_value_is_config_error(self, tmp_path, capsys, case):
        experiment, payload = MALFORMED[case]
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "out"
        assert cli.main([experiment, "--config", cfg, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment, payload", [
        ("simulate", {"horizon": 1.0, "sim_step": 1e-2}),
        ("benes-convergence", {"levels": [8, 16], "kinds": ["euler"]}),
        ("vdp-robust", {"horizon": 2.0, "replicates": 2, "sim_step": 1e-3,
                        "est_step": 0.1,
                        "optimizer": {"grad_tol": 1e-3, "max_iter": 4000}}),
    ])
    def test_threads_flag_accepted_and_ignored(self, tmp_path, experiment,
                                               payload):
        # the benchmark passes --threads 1; the flag must not change a byte
        cfg = write_config(tmp_path, payload)
        outputs = []
        for flag in ([], ["--threads", "1"], ["--threads", "4"]):
            out = tmp_path / ("out%d" % len(outputs))
            assert cli.main([experiment, "--config", cfg,
                             "--out", str(out)] + flag) == 0
            outputs.append({p.name: p.read_bytes()
                            for p in sorted(out.glob("*.csv"))})
        assert outputs[0] and outputs[0] == outputs[1] == outputs[2]

    def test_config_errors_exit_2(self, tmp_path):
        cfg = write_config(tmp_path, {"bogus": 1})
        assert cli.main(["simulate", "--config", cfg,
                         "--out", str(tmp_path)]) == 2
        assert cli.main(["simulate", "--config", "/missing.json",
                         "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("component", [5, -1, 2, 0.5, True])
    def test_protocol_component_outside_model_exits_2(self, tmp_path, capsys,
                                                      component):
        protocol = {"step": 0.1, "sigma_y": 0.1, "sigma_outlier": 1.0,
                    "p_outlier": 0.5, "component": component}
        cfg = write_config(tmp_path, {"model": {"name": "vdp", "params": {}},
                                      "horizon": 1.0, "sim_step": 1e-2,
                                      "protocol": protocol})
        out = tmp_path / "out"
        assert cli.main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()
        vdp_cfg = write_config(tmp_path, {"protocol": protocol},
                               name="vdp.json")
        with pytest.raises(ConfigError, match="component"):
            load_config("vdp-robust", vdp_cfg)

    def test_removed_optimizer_memory_key_exits_2(self, tmp_path, capsys):
        # the quasi-Newton history length went with the quasi-Newton solver
        for experiment in ("benes-convergence", "vdp-robust"):
            cfg = write_config(tmp_path, {"optimizer": {"memory": 10}})
            out = tmp_path / "out"
            assert cli.main([experiment, "--config", cfg,
                             "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert "config error" in err and "memory" in err
            assert not out.exists()

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_out_of_range_seed_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--seed", "-3", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_gradcheck_pass_and_fail(self, tmp_path, capsys):
        ok_cfg = write_config(tmp_path, {"cases": 5}, name="ok.json")
        assert cli.main(["gradcheck", "--config", ok_cfg,
                         "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "PASS euler_energy" in out
        assert "FAIL" not in out

        bad_cfg = write_config(tmp_path, {"cases": 5, "tolerance": 1e-18},
                               name="bad.json")
        assert cli.main(["gradcheck", "--config", bad_cfg,
                         "--out", str(tmp_path)]) == 1
        assert "FAIL" in capsys.readouterr().out
