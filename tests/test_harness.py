"""Harness: config schema, trace files, orchestration, analysis, and the CLI."""

import dataclasses
import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from ssqpbench import (
    BenchConfig,
    ConfigError,
    DivergenceError,
    NonFiniteEvaluationError,
    PrimalDualSchedule,
    RunConfig,
    SkipSchedule,
    SsqpConvexSchedule,
    SsqpStronglyConvexSchedule,
    TraceRow,
    TunedConstantSchedule,
    VarasSchedule,
    calls_to_threshold,
    read_trace,
    run_experiment,
    slope_fit,
    varas_run,
    write_trace,
)
from ssqpbench.cli import main as cli_main
from ssqpbench.harness import OUTPUT_DIR_ENV, build_problem, build_schedule
from ssqpbench.problems import generate_regression_problem, random_quadratic_problem


def quadratic_config(**overrides):
    doc = {
        "problem": {"kind": "quadratic", "seed": 3, "dim": 3, "n": 8, "m": 2},
        "algorithm": "ssqp",
        "schedule": {"kind": "tuned_constant", "eta": 0.05},
        "gamma": 20.0,
        "seeds": [0],
        "horizon": 50,
        "checkpoint_stride": 5,
    }
    doc.update(overrides)
    return doc


def synthetic_rows(n=20, metric=lambda t: 4.0 / t):
    rows = []
    for t in range(1, n + 1):
        v = metric(t)
        rows.append(TraceRow(iteration=t, sfo=t, qmo=t // 2, gap=v, rel_gap=v,
                             max_viol=0.0, sum_viol=0.0, dist_sq=v, wall=float(t)))
    return rows


class TestBenchConfig:
    def test_round_trip(self):
        cfg = BenchConfig.from_dict(quadratic_config())
        again = BenchConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            BenchConfig.from_dict(quadratic_config(bogus=1))

    def test_missing_required_field(self):
        doc = quadratic_config()
        del doc["gamma"]
        with pytest.raises(ConfigError):
            BenchConfig.from_dict(doc)

    def test_cost_model_m_below_one_rejected(self):
        with pytest.raises(ConfigError, match="cost_model_m"):
            BenchConfig.from_dict(quadratic_config(cost_model_m=0.5))

    def test_bad_algorithm(self):
        with pytest.raises(ConfigError):
            BenchConfig.from_dict(quadratic_config(algorithm="adam"))

    def test_certified_gamma_floor_enforced(self):
        doc = quadratic_config(gamma_provenance="certified",
                               slater={"margin": 1.0, "gap": 30.0})
        with pytest.raises(ConfigError):
            BenchConfig.from_dict(doc)  # gamma 20 < 30/1
        doc["gamma"] = 30.0
        BenchConfig.from_dict(doc)

    def test_build_problem_and_schedule(self):
        cfg = BenchConfig.from_dict(quadratic_config())
        problem, x0 = build_problem(cfg)
        assert problem.dim == 3 and x0.shape == (3,)
        sched = build_schedule(cfg, problem)
        assert sched.stepsize(0) == 0.05


# one config per algorithm on the quadratic instance, with the run function
# that harness calls for it
ALGORITHM_CASES = [
    ("ssqp_run", {}),
    ("ssqp_skip_run", {"algorithm": "ssqp-skip", "schedule": {"kind": "skip", "mu": 0.4, "smoothness": 4.0}}),
    ("varas_run", {"algorithm": "varas", "horizon": 0, "epochs": 3,
                   "schedule": {"kind": "varas", "mu": 0.4, "smoothness_gamma": 10.0}}),
    ("primal_dual_run", {"algorithm": "primal-dual",
                         "schedule": {"kind": "primal_dual", "eta_x": 0.01, "eta_lambda": 0.01}}),
]


class TestRunTables:
    """The algorithm and schedule-kind tables that assemble a run."""

    @pytest.mark.parametrize("run_name, overrides", ALGORITHM_CASES, ids=[c[0] for c in ALGORITHM_CASES])
    def test_run_function_is_looked_up_by_name_per_seed(self, tmp_path, monkeypatch, run_name, overrides):
        # the bench wraps these harness globals, so a run must read them at call time
        import ssqpbench.harness

        run = getattr(ssqpbench.harness, run_name)
        seeds = []

        def counting(problem, config):
            seeds.append(config.seed)
            return run(problem, config)

        monkeypatch.setattr(ssqpbench.harness, run_name, counting)
        meta = run_experiment(BenchConfig.from_dict(quadratic_config(seeds=[0, 4], **overrides)), output_dir=tmp_path)
        assert seeds == [0, 4]
        assert meta["seed_status"] == {"0": "ok", "4": "ok"}

    @pytest.mark.parametrize(
        "algorithm, schedule",
        [
            ("ssqp", SsqpConvexSchedule(horizon=50, delta0=2.0, sigma=0.3, smoothness=3.0, diminishing=True)),
            ("ssqp", SsqpStronglyConvexSchedule(mu=0.7, smoothness=5.3)),
            ("ssqp", TunedConstantSchedule(eta=0.05)),
            ("ssqp-skip", SkipSchedule(mu=0.7, smoothness=5.3, kickstart=2)),
            ("varas", VarasSchedule(n=8, mu=0.4, smoothness_gamma=10.0)),
            ("primal-dual", PrimalDualSchedule(eta_x=0.01, eta_lambda=0.02, clip=3.0)),
        ],
        ids=["ssqp_convex", "ssqp_strongly_convex", "tuned_constant", "skip", "varas", "primal_dual"],
    )
    def test_every_schedule_kind_round_trips(self, algorithm, schedule):
        cfg = BenchConfig.from_dict(quadratic_config(algorithm=algorithm, epochs=2, schedule=schedule.as_dict()))
        problem, _ = build_problem(cfg)
        assert build_schedule(cfg, problem) == schedule

    @pytest.mark.parametrize("kind", [["skip"], 3, None])
    def test_kind_that_is_not_a_name_is_a_config_error(self, kind):
        schedule = {"eta": 0.05} if kind is None else {"kind": kind, "eta": 0.05}
        cfg = BenchConfig.from_dict(quadratic_config(schedule=schedule))
        problem, _ = build_problem(cfg)
        with pytest.raises(ConfigError, match="unknown schedule kind"):
            build_schedule(cfg, problem)

    def test_run_config_gets_every_field_from_the_harness(self, tmp_path, monkeypatch):
        # a RunConfig field that only tests set would be missing from what the harness passes
        import ssqpbench.harness

        passed = set()

        def recording(**kwargs):
            passed.update(kwargs)
            return RunConfig(**kwargs)

        monkeypatch.setattr(ssqpbench.harness, "RunConfig", recording)
        run_experiment(BenchConfig.from_dict(quadratic_config()), output_dir=tmp_path / "horizon")
        run_experiment(BenchConfig.from_dict(varas_quadratic_config()), output_dir=tmp_path / "epochs")
        assert passed == {f.name for f in dataclasses.fields(RunConfig)}

    def test_schedule_the_algorithm_cannot_run_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        doc = {"problem": {"kind": "quadratic", "seed": 0}, "algorithm": "ssqp",
               "schedule": {"kind": "skip", "mu": 0.5, "smoothness": 4.0}, "gamma": 5.0,
               "seeds": [0, 1], "horizon": 20, "output_dir": str(out)}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert cli_main(["run", str(path)]) == 2
        assert "algorithm 'ssqp' cannot run a 'skip' schedule" in capsys.readouterr().err
        assert not out.exists()


class TestTraceFiles:
    def test_round_trip_exact(self, tmp_path):
        rows = synthetic_rows()
        path = tmp_path / "t.csv"
        write_trace(path, rows)
        assert read_trace(path) == rows

    def test_round_trip_with_nan_metrics(self, tmp_path):
        rows = [TraceRow(iteration=1, sfo=1, qmo=0, gap=math.nan, rel_gap=math.nan,
                         max_viol=0.0, sum_viol=0.0, dist_sq=0.5, wall=1.0)]
        path = tmp_path / "t.csv"
        write_trace(path, rows)
        back = read_trace(path)[0]
        assert math.isnan(back.gap) and math.isnan(back.rel_gap)
        assert back.dist_sq == 0.5

    def test_header_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_trace(path)


class TestRunExperiment:
    def test_writes_trace_per_seed_and_metadata(self, tmp_path):
        cfg = BenchConfig.from_dict(quadratic_config(seeds=[0, 1, 2]))
        meta = run_experiment(cfg, output_dir=tmp_path)
        assert len(meta["trace_files"]) == 3
        for fname in meta["trace_files"].values():
            assert (tmp_path / fname).exists()
        saved = json.loads((tmp_path / "metadata.json").read_text())
        assert saved["config"]["gamma"] == 20.0
        assert saved["checkpoint_stride_resolved"] == 5

    def test_manifest_is_compact_json(self, tmp_path):
        # one line from the C encoder: the indenting encoder is pure Python
        run_experiment(BenchConfig.from_dict(quadratic_config(seeds=[0, 1])), output_dir=tmp_path)
        text = (tmp_path / "metadata.json").read_text()
        assert text == json.dumps(json.loads(text)) + "\n"

    def test_determinism_byte_identical(self, tmp_path):
        cfg = BenchConfig.from_dict(quadratic_config())
        run_experiment(cfg, output_dir=tmp_path / "a")
        run_experiment(cfg, output_dir=tmp_path / "b")
        a = (tmp_path / "a" / "ssqp_seed0.csv").read_bytes()
        b = (tmp_path / "b" / "ssqp_seed0.csv").read_bytes()
        assert a == b

    def test_metadata_reruns_byte_identical(self, tmp_path):
        cfg = BenchConfig.from_dict(quadratic_config())
        meta = run_experiment(cfg, output_dir=tmp_path / "a")
        cfg2 = BenchConfig.from_dict(meta["config"])
        run_experiment(cfg2, output_dir=tmp_path / "b")
        assert (tmp_path / "a" / "ssqp_seed0.csv").read_bytes() == (
            tmp_path / "b" / "ssqp_seed0.csv"
        ).read_bytes()

    def test_degenerate_horizon_gives_empty_trace(self, tmp_path):
        cfg = BenchConfig.from_dict(quadratic_config(horizon=0))
        meta = run_experiment(cfg, output_dir=tmp_path)
        rows = read_trace(tmp_path / meta["trace_files"]["0"])
        assert rows == []
        assert (tmp_path / "metadata.json").exists()

    def test_env_var_overrides_output_dir(self, tmp_path, monkeypatch):
        target = tmp_path / "redirected"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
        cfg = BenchConfig.from_dict(quadratic_config())
        run_experiment(cfg)
        assert (target / "ssqp_seed0.csv").exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"algorithm": "ssqp-skip", "schedule": {"kind": "skip", "mu": 0.4, "smoothness": 4.0}},
            {"algorithm": "varas", "horizon": 0, "epochs": 4,
             "schedule": {"kind": "varas", "mu": 0.4, "smoothness_gamma": 10.0}},
        ],
        ids=["ssqp", "ssqp-skip", "varas"],
    )
    def test_counts_nonconverged_qps(self, tmp_path, monkeypatch, overrides):
        # every third QMO answer is reported as not certified; the solution
        # itself is unchanged, so the traces must be too
        import dataclasses

        import ssqpbench.algorithms

        cfg = BenchConfig.from_dict(quadratic_config(seeds=[0, 1], **overrides))
        run_experiment(cfg, output_dir=tmp_path / "plain")
        solve = ssqpbench.algorithms.solve_canonical_qp
        calls = []

        def flaky_solve(*args, **kwargs):
            calls.append(1)
            sol = solve(*args, **kwargs)
            return dataclasses.replace(sol, converged=len(calls) % 3 != 0)

        monkeypatch.setattr(ssqpbench.algorithms, "solve_canonical_qp", flaky_solve)
        meta = run_experiment(cfg, output_dir=tmp_path / "flaky")
        counts = meta["qp_nonconverged"]
        assert set(counts) == {"0", "1"}
        assert sum(counts.values()) == len(calls) // 3 > 0
        saved = json.loads((tmp_path / "flaky" / "metadata.json").read_text())
        assert saved["qp_nonconverged"] == counts
        for fname in meta["trace_files"].values():
            assert (tmp_path / "flaky" / fname).read_bytes() == (tmp_path / "plain" / fname).read_bytes()
        plain = json.loads((tmp_path / "plain" / "metadata.json").read_text())
        assert plain["qp_nonconverged"] == {"0": 0, "1": 0}

    def test_per_seed_oracle_counts(self, tmp_path):
        # a completed seed's counts are those of its final trace row
        cfg = BenchConfig.from_dict(quadratic_config(seeds=[0, 1]))
        meta = run_experiment(cfg, output_dir=tmp_path / "ok")
        saved = json.loads((tmp_path / "ok" / "metadata.json").read_text())
        for seed, fname in meta["trace_files"].items():
            last = read_trace(tmp_path / "ok" / fname)[-1]
            assert last.iteration == 50
            assert saved["sfo_calls"][seed] == last.sfo
            assert saved["qmo_calls"][seed] == last.qmo
        # a diverged seed has no row for the step that tripped the guard; with a
        # row every step, its counts are the final row's plus that one step
        cfg = BenchConfig.from_dict(quadratic_config(
            schedule={"kind": "tuned_constant", "eta": 1e6}, horizon=2000, checkpoint_stride=1))
        with pytest.raises(DivergenceError):
            run_experiment(cfg, output_dir=tmp_path / "div")
        saved = json.loads((tmp_path / "div" / "metadata.json").read_text())
        assert saved["seed_status"] == {"0": "diverged"}
        last = read_trace(tmp_path / "div" / "ssqp_seed0.csv")[-1]
        assert last.iteration < 2000
        assert saved["sfo_calls"] == {"0": last.sfo + 1}
        assert saved["qmo_calls"] == {"0": last.qmo + 1}

    def test_wall_column_is_the_cost_model(self, tmp_path):
        cfg = BenchConfig.from_dict(quadratic_config(cost_model_m=10))
        run_experiment(cfg, output_dir=tmp_path)
        rows = read_trace(tmp_path / "ssqp_seed0.csv")
        assert rows and any(r.qmo for r in rows)
        for r in rows:
            assert r.wall == r.sfo + 10 * r.qmo

    def test_counters_monotone_across_rows(self, tmp_path):
        cfg = BenchConfig.from_dict(quadratic_config(algorithm="varas", horizon=0,
                                                     epochs=6,
                                                     schedule={"kind": "varas", "mu": 0.4,
                                                               "smoothness_gamma": 10.0}))
        meta = run_experiment(cfg, output_dir=tmp_path)
        rows = read_trace(tmp_path / meta["trace_files"]["0"])
        sfo = [r.sfo for r in rows]
        qmo = [r.qmo for r in rows]
        assert sfo == sorted(sfo) and qmo == sorted(qmo)


class TestCallsToThreshold:
    def test_first_crossing_row(self):
        rows = synthetic_rows(20)  # dist_sq = 4/t crosses 0.5 at t=8
        out = calls_to_threshold([rows], "dist_sq", 0.5)
        assert out["censored"] == 0
        assert out["mean_sfo"] == 8.0
        assert out["mean_qmo"] == 4.0

    def test_censoring(self):
        rows = synthetic_rows(5)  # min dist_sq = 0.8 > 0.5
        out = calls_to_threshold([rows, synthetic_rows(20)], "dist_sq", 0.5)
        assert out["censored"] == 1
        assert out["seeds"] == 2
        assert out["mean_sfo"] == 8.0

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            calls_to_threshold([synthetic_rows()], "iteration", 1.0)


class TestSlopeFit:
    def test_power_law(self):
        rows = synthetic_rows(200, metric=lambda t: 4.0 / t)
        slope, r2 = slope_fit(rows, "gap", mode="loglog")
        assert slope == pytest.approx(-1.0, abs=1e-9)
        assert r2 == pytest.approx(1.0)

    def test_geometric_decay(self):
        rows = synthetic_rows(120, metric=lambda t: 3.0 * 0.8**t)
        slope, r2 = slope_fit(rows, "gap", mode="loglinear")
        assert slope == pytest.approx(math.log(0.8), abs=1e-9)
        assert r2 == pytest.approx(1.0)

    def test_requires_enough_rows(self):
        with pytest.raises(ValueError):
            slope_fit(synthetic_rows(9), "gap")
        # a header-only trace, as a horizon-0 run writes
        with pytest.raises(ValueError, match="need at least 10 checkpoint rows"):
            slope_fit([], "gap")

    def test_rejects_nonpositive_values(self):
        rows = synthetic_rows(50, metric=lambda t: 1.0 - t / 25.0)
        with pytest.raises(ValueError):
            slope_fit(rows, "gap")

    def test_final_decade_window(self):
        # slope -1 in the tail even though early rows follow a different law
        rows = synthetic_rows(200, metric=lambda t: (7.0 if t <= 20 else 4.0 / t))
        slope, _ = slope_fit(rows, "gap", mode="loglog")
        assert slope == pytest.approx(-1.0, abs=1e-9)


class TestCli:
    def write_config(self, tmp_path, **overrides):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(quadratic_config(**overrides)))
        return path

    def test_run_subcommand(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert cli_main(["run", str(cfg)]) == 0
        assert (tmp_path / "out" / "ssqp_seed0.csv").exists()

    def test_run_reports_env_output_dir(self, tmp_path, capsys, monkeypatch):
        cfg = self.write_config(tmp_path, output_dir=str(tmp_path / "config_out"))
        monkeypatch.setenv("SSQPBENCH_OUTPUT_DIR", str(tmp_path / "env_out"))
        assert cli_main(["run", str(cfg)]) == 0
        assert (tmp_path / "env_out" / "ssqp_seed0.csv").exists()
        assert not (tmp_path / "config_out").exists()
        assert capsys.readouterr().out.strip().endswith(str(tmp_path / "env_out"))

    def test_run_warns_on_nonconverged_qps(self, tmp_path, capsys, monkeypatch):
        # the run's first QMO answer, one of seed 0's, is reported as not certified
        import dataclasses

        import ssqpbench.algorithms

        cfg = self.write_config(tmp_path, seeds=[0, 1], output_dir=str(tmp_path / "plain"))
        assert cli_main(["run", str(cfg)]) == 0
        assert "warning" not in capsys.readouterr().err
        solve = ssqpbench.algorithms.solve_canonical_qp
        calls = []

        def flaky_solve(*args, **kwargs):
            calls.append(1)
            return dataclasses.replace(solve(*args, **kwargs), converged=len(calls) > 1)

        monkeypatch.setattr(ssqpbench.algorithms, "solve_canonical_qp", flaky_solve)
        cfg = self.write_config(tmp_path, seeds=[0, 1], output_dir=str(tmp_path / "flaky"))
        assert cli_main(["run", str(cfg)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if "warning" in line] == [
            "warning: QP answers that did not certify were used (seed 0: 1)"
        ]
        meta = json.loads((tmp_path / "flaky" / "metadata.json").read_text())
        assert meta["qp_nonconverged"] == {"0": 1, "1": 0}

    def test_run_with_seed_override(self, tmp_path):
        cfg = self.write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert cli_main(["run", str(cfg), "--seed", "5", "7"]) == 0
        assert (tmp_path / "out" / "ssqp_seed5.csv").exists()
        assert (tmp_path / "out" / "ssqp_seed7.csv").exists()

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"algorithm": "nope"}))
        assert cli_main(["run", str(path)]) == 2

    @pytest.mark.parametrize("command", ["run", "reference"])
    def test_unknown_problem_key_is_a_config_error(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        doc = {"problem": {"kind": "quadratic", "seed": 0, "bogus": 1}, "algorithm": "ssqp",
               "schedule": {"kind": "tuned_constant", "eta": 0.05}, "gamma": 5.0, "seeds": [0],
               "horizon": 20, "output_dir": str(out)}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert cli_main([command, str(path)]) == 2
        assert not out.exists()
        # an older run's manifest is neither touched nor named
        out.mkdir()
        (out / "metadata.json").write_text("{}\n")
        assert cli_main([command, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("config error: unknown quadratic problem keys: ['bogus']") == 2
        assert "run failed part-way" not in err
        assert [p.name for p in out.iterdir()] == ["metadata.json"]
        assert (out / "metadata.json").read_text() == "{}\n"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"horizon": 10.0},
            {"horizon": "10"},
            {"batch_size": 2.0},
            {"checkpoint_stride": 2.5},
            {"seeds": [True]},
            {"seeds": [0, 0]},
            {"gamma": True},
            {"horizon": -5},
            {"checkpoint_stride": -1},
            {"reference": {"x_star": [0.0, 0.0], "f_star": 1.0}},
            {"reference": {"f_star": "1.0"}},
            {"reference": {"xstar": [0.0, 0.0, 0.0]}},
            {"reference": {"x_star": [0.0, float("nan"), 0.0]}},
            {"reference": [1, 2]},
            {"gamma_provenance": "certified", "slater": {"margin": "1", "gap": 1.0}},
            {"problem": {"kind": "quadratic", "seed": 1.5, "dim": 3, "n": 8, "m": 2}},
        ],
        ids=lambda o: json.dumps(o),
    )
    def test_malformed_config_fails_before_writing(self, tmp_path, capsys, overrides):
        out = tmp_path / "out"
        cfg = self.write_config(tmp_path, output_dir=str(out), **overrides)
        assert cli_main(["run", str(cfg)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_config_exit_code(self, tmp_path):
        assert cli_main(["run", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_data_file_exit_code(self, tmp_path, capsys, bad):
        rng = np.random.default_rng(8)
        matrix = np.column_stack([rng.standard_normal((40, 3)), rng.standard_normal(40)])
        matrix[17, -1] = bad
        data = tmp_path / "data.csv"
        np.savetxt(data, matrix, delimiter=",", header="a,b,c,label", comments="")
        problem = {"kind": "regression-file", "path": str(data), "n": 30, "critical": 5,
                   "tolerance": 50.0}
        cfg = self.write_config(tmp_path, problem=problem, output_dir=str(tmp_path / "out"))
        for seed in ("0", "2", "3", "5"):
            assert cli_main(["run", str(cfg), "--seed", seed]) == 2
            assert str(data) in capsys.readouterr().err

    @pytest.mark.parametrize("sizes", [{"n": 30, "critical": 0}, {"n": 0, "critical": 5},
                                       {"n": -3, "critical": 5}])
    def test_data_file_sample_counts_validated(self, tmp_path, capsys, sizes):
        rng = np.random.default_rng(8)
        data = tmp_path / "data.csv"
        np.savetxt(data, rng.standard_normal((40, 4)), delimiter=",", header="a,b,c,label",
                   comments="")
        problem = {"kind": "regression-file", "path": str(data), "tolerance": 50.0, **sizes}
        cfg = self.write_config(tmp_path, problem=problem, output_dir=str(tmp_path / "out"))
        assert cli_main(["run", str(cfg)]) == 2
        assert "need n >= 1, critical >= 1" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_evaluation_exit_code(self, tmp_path, capsys):
        # currents of size 1e200 overflow the cubic energy's gradient at the first query
        problem = {"kind": "usv", "seed": 0, "n": 3, "horizon": 5, "z_scale": 1e200}
        cfg = self.write_config(tmp_path, problem=problem, output_dir=str(tmp_path / "out"))
        assert cli_main(["run", str(cfg)]) == 5
        assert "non-finite" in capsys.readouterr().err

    def test_linear_algebra_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError, but a failed kernel is not a config error
        import ssqpbench.algorithms

        def failing_solve(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")

        monkeypatch.setattr(ssqpbench.algorithms, "solve_canonical_qp", failing_solve)
        cfg = self.write_config(tmp_path, output_dir=str(tmp_path / "out"))
        assert cli_main(["run", str(cfg)]) == 6
        err = capsys.readouterr().err
        assert "linear algebra failure: SVD did not converge" in err and "config error" not in err

    def test_report_subcommand(self, tmp_path, capsys):
        out = tmp_path / "traces"
        out.mkdir()
        write_trace(out / "x.csv", synthetic_rows(20))
        assert cli_main(["report", str(out), "--threshold", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean_sfo"] == 8.0

    def test_report_reads_only_the_traces_the_manifest_names(self, tmp_path, capsys):
        # a shorter rerun of seed 0 leaves seeds 1 and 2 of the older run in the directory
        out = tmp_path / "out"
        cfg = self.write_config(tmp_path, seeds=[0, 1, 2], horizon=200, output_dir=str(out))
        assert cli_main(["run", str(cfg)]) == 0
        assert cli_main(["run", str(cfg), "--seed", "0", "--horizon", "20"]) == 0
        assert sorted(p.name for p in out.glob("*.csv")) == [f"ssqp_seed{s}.csv" for s in (0, 1, 2)]
        capsys.readouterr()
        assert cli_main(["report", str(out), "--metric", "dist_sq", "--threshold", "1e9"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["seeds"] == 1
        assert payload["seed_status"] == {"ok": 1}
        # a trace the manifest names but the directory lacks is a config error, not a crash
        (out / "ssqp_seed0.csv").unlink()
        assert cli_main(["report", str(out), "--threshold", "1e9"]) == 2
        assert "names traces that are missing: ['ssqp_seed0.csv']" in capsys.readouterr().err

    def test_slope_subcommand(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        write_trace(path, synthetic_rows(100))
        assert cli_main(["slope", str(path), "--metric", "gap"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["slope"] == pytest.approx(-1.0, abs=1e-9)

    def test_slope_unknown_metric_exit_code(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        write_trace(path, synthetic_rows(100))
        assert cli_main(["slope", str(path), "--metric", "foo"]) == 2
        assert "unsupported metric 'foo'" in capsys.readouterr().err

    def test_reference_subcommand(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        assert cli_main(["reference", str(cfg), "--tol", "1e-8"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "f_star" in payload["reference"]
        assert len(payload["reference"]["x_star"]) == 3

    def test_reference_update_writes_back(self, tmp_path):
        cfg = self.write_config(tmp_path)
        assert cli_main(["reference", str(cfg), "--tol", "1e-8", "--update"]) == 0
        doc = json.loads(cfg.read_text())
        assert "reference" in doc and "f_star" in doc["reference"]
        # updated config is still valid and now reports gap columns
        assert cli_main(["run", str(cfg), "--output-dir", str(tmp_path / "out")]) == 0
        rows = read_trace(tmp_path / "out" / "ssqp_seed0.csv")
        assert all(math.isfinite(r.gap) for r in rows)

    def test_divergence_exit_code(self, tmp_path):
        # a huge constant stepsize on the quadratic diverges
        cfg = self.write_config(
            tmp_path, schedule={"kind": "tuned_constant", "eta": 1e6},
            horizon=2000, output_dir=str(tmp_path / "out"),
        )
        assert cli_main(["run", str(cfg)]) == 3

    def test_partial_run_leaves_consistent_manifest(self, tmp_path, capsys):
        # both seeds diverge: each still writes its partial trace, and the
        # metadata records both even though the run exits with code 3
        out = tmp_path / "out"
        cfg = self.write_config(
            tmp_path, schedule={"kind": "tuned_constant", "eta": 1e6},
            horizon=2000, seeds=[0, 1], output_dir=str(out),
        )
        assert cli_main(["run", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert "divergence:" in err
        assert f"metadata.json and the partial traces are in {out}" in err
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["seed_status"] == {"0": "diverged", "1": "diverged"}
        # a diverged seed still reports its count (here iterates near the guard
        # can leave a QP uncertified)
        assert set(meta["qp_nonconverged"]) == {"0", "1"}
        assert all(isinstance(n, int) and n >= 0 for n in meta["qp_nonconverged"].values())
        # the warning line names exactly the seeds that used an uncertified answer
        named = {seed for seed, n in meta["qp_nonconverged"].items() if n}
        warnings = [line for line in err.splitlines() if line.startswith("warning:")]
        assert len(warnings) == (1 if named else 0)
        assert all(f"seed {seed}: " in warnings[0] for seed in named)
        assert meta["trace_files"] == {"0": "ssqp_seed0.csv", "1": "ssqp_seed1.csv"}
        for fname in meta["trace_files"].values():
            rows = read_trace(out / fname)
            assert rows[0].iteration == 0
            assert rows[-1].iteration < 2000

    def test_linear_algebra_failure_leaves_manifest(self, tmp_path, capsys, monkeypatch):
        # the 4th QP solve, in seed 0, fails: seed 0 is an error, seed 1 never ran
        import ssqpbench.algorithms

        solve = ssqpbench.algorithms.solve_canonical_qp
        calls = []

        def failing_fourth(*args, **kwargs):
            calls.append(1)
            if len(calls) == 4:
                raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")
            return solve(*args, **kwargs)

        monkeypatch.setattr(ssqpbench.algorithms, "solve_canonical_qp", failing_fourth)
        out = tmp_path / "out"
        cfg = self.write_config(tmp_path, seeds=[0, 1], output_dir=str(out))
        assert cli_main(["run", str(cfg)]) == 6
        assert f"metadata.json and the partial traces are in {out}" in capsys.readouterr().err
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["seed_status"] == {"0": "error", "1": "pending"}
        assert meta["trace_files"] == {}
        for key in ("qp_nonconverged", "sfo_calls", "qmo_calls"):
            assert meta[key] == {"0": None, "1": None}
        assert sorted(p.name for p in out.iterdir()) == ["metadata.json"]

    def test_interrupted_rerun_leaves_no_stale_manifest(self, tmp_path, capsys, monkeypatch):
        # a horizon-80 rerun into a horizon-50 run's directory is interrupted at seed 1
        import ssqpbench.harness

        out = tmp_path / "out"
        cfg = self.write_config(tmp_path, seeds=[0, 1], output_dir=str(out))
        assert cli_main(["run", str(cfg)]) == 0
        run = ssqpbench.harness.ssqp_run

        def interrupted_at_seed_1(problem, config):
            if config.seed == 1:
                raise KeyboardInterrupt
            return run(problem, config)

        monkeypatch.setattr(ssqpbench.harness, "ssqp_run", interrupted_at_seed_1)
        capsys.readouterr()
        with pytest.raises(KeyboardInterrupt):
            cli_main(["run", str(cfg), "--horizon", "80"])
        assert str(out) in capsys.readouterr().err
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["config"]["horizon"] == 80
        assert meta["seed_status"] == {"0": "ok", "1": "error"}
        assert meta["trace_files"] == {"0": "ssqp_seed0.csv"}
        assert meta["sfo_calls"] == {"0": 80, "1": None}
        assert read_trace(out / "ssqp_seed0.csv")[-1].iteration == 80
        assert not (out / "ssqp_seed1.csv").exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_seed_leaves_no_trace(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        (out / "ssqp_seed0.csv").write_text("stale\n")
        problem = {"kind": "usv", "seed": 0, "n": 3, "horizon": 5, "z_scale": 1e200}
        cfg = self.write_config(tmp_path, problem=problem, output_dir=str(out))
        assert cli_main(["run", str(cfg)]) == 5
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["seed_status"] == {"0": "non-finite"}
        assert meta["qp_nonconverged"] == {"0": None}
        assert meta["sfo_calls"] == meta["qmo_calls"] == {"0": None}
        assert meta["trace_files"] == {}
        assert not list(out.glob("*.csv"))

    def test_failed_feasibility_lp_exit_code(self, tmp_path, capsys, monkeypatch):
        import scipy.optimize

        def failing_linprog(*args, **kwargs):
            return SimpleNamespace(success=False, message="solver gave up")

        # the LP's import runs inside minimal_feasible_tolerance, so it sees the patch
        monkeypatch.setattr(scipy.optimize, "linprog", failing_linprog)
        problem = {"kind": "regression", "seed": 4, "d": 3, "n": 20, "critical": 4,
                   "tolerance": 5.0}
        cfg = self.write_config(tmp_path, problem=problem, output_dir=str(tmp_path / "out"))
        assert cli_main(["run", str(cfg)]) == 2
        assert "feasibility LP failed" in capsys.readouterr().err
        # the reference subcommand builds the same instance, so it is the same config error
        assert cli_main(["reference", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "feasibility LP failed" in err and "reference solve failed" not in err

    def test_failed_reference_solve_exit_code(self, tmp_path, capsys, monkeypatch):
        import scipy.optimize

        import ssqpbench.cli

        built = []
        linprog = scipy.optimize.linprog

        def recording_linprog(*args, **kwargs):
            built.append(1)
            return linprog(*args, **kwargs)

        def failing_solve(*args, **kwargs):
            raise RuntimeError("reference solve did not reach tol")

        monkeypatch.setattr(scipy.optimize, "linprog", recording_linprog)
        monkeypatch.setattr(ssqpbench.cli, "brute_force_optimum", failing_solve)
        problem = {"kind": "regression", "seed": 4, "d": 3, "n": 20, "critical": 4,
                   "tolerance": 5.0}
        cfg = self.write_config(tmp_path, problem=problem)
        assert cli_main(["reference", str(cfg)]) == 4
        assert built  # the instance was built before the solve failed
        assert "reference solve failed" in capsys.readouterr().err

    def test_reference_budget_exhaustion_exit_code(self, tmp_path, capsys, monkeypatch):
        # the real solver with a one-iteration budget raises ReferenceSolveError
        import functools

        import ssqpbench.cli
        from ssqpbench.problems import brute_force_optimum

        monkeypatch.setattr(ssqpbench.cli, "brute_force_optimum",
                            functools.partial(brute_force_optimum, max_iters=1))
        cfg = self.write_config(tmp_path)
        assert cli_main(["reference", str(cfg)]) == 4
        assert "reference solve failed: reference solve did not reach tol" in capsys.readouterr().err


def varas_quadratic_config(**overrides):
    doc = quadratic_config(
        algorithm="varas", schedule={"kind": "varas", "mu": 0.5, "smoothness_gamma": 25.0},
        horizon=0, epochs=6, checkpoint_stride=1,
    )
    doc.update(overrides)
    return doc


def nan_once_quadratic(seed, dim, n, m):
    """The quadratic factory's instance, except that its first one-index block
    call returns a NaN gradient (n-index full passes stay finite)."""
    problem = random_quadratic_problem(seed=seed, dim=dim, n=n, m=m)
    block = problem.component_block
    pending = [True]

    def component_block(x, idx):
        vals, grads = block(x, idx)
        if len(idx) == 1 and pending[0]:
            pending[0] = False
            grads = np.full_like(grads, np.nan)
        return vals, grads

    return dataclasses.replace(problem, component_block=component_block)


class TestNonFiniteVarasStep:
    """A non-finite inner evaluation is a typed error at every level."""

    def test_varas_run_raises_non_finite_error(self):
        problem = nan_once_quadratic(seed=3, dim=3, n=8, m=2)
        sched = VarasSchedule(n=8, mu=0.5, smoothness_gamma=25.0)
        config = RunConfig(gamma=20.0, schedule=sched, x0=np.zeros(3), epochs=3)
        with pytest.raises(NonFiniteEvaluationError, match="stochastic gradient"):
            varas_run(problem, config)

    def test_run_experiment_records_seed_and_runs_the_others(self, tmp_path, monkeypatch):
        import ssqpbench.harness

        monkeypatch.setattr(ssqpbench.harness, "random_quadratic_problem", nan_once_quadratic)
        cfg = BenchConfig.from_dict(varas_quadratic_config(seeds=[0, 1]))
        with pytest.raises(NonFiniteEvaluationError):
            run_experiment(cfg, output_dir=tmp_path)
        meta = json.loads((tmp_path / "metadata.json").read_text())
        assert meta["seed_status"] == {"0": "non-finite", "1": "ok"}
        assert meta["trace_files"] == {"1": "varas_seed1.csv"}
        assert read_trace(tmp_path / "varas_seed1.csv")[-1].iteration == 6

    def test_cli_exit_code(self, tmp_path, capsys, monkeypatch):
        import ssqpbench.harness

        monkeypatch.setattr(ssqpbench.harness, "random_quadratic_problem", nan_once_quadratic)
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(varas_quadratic_config(output_dir=str(tmp_path / "out"))))
        assert cli_main(["run", str(cfg)]) == 5
        assert "non-finite evaluation" in capsys.readouterr().err


# sha256 of varas_seed0.csv for each config below, recorded before VARAS read
# its snapshot gradients from the full pass's table; the rewrite kept every
# byte.  A VARAS, USV or quadratic-factory change that moves one is a trace
# change and must say so.  The reference block is arbitrary: it only makes the
# gap and dist_sq columns depend on every bit of the iterates.
VARAS_TRACE_PINS = [
    (
        "usv-bench-3-epochs",
        {
            "problem": {"kind": "usv", "seed": 7, "n": 100, "horizon": 40},
            "schedule": {"kind": "varas", "mu": 0.0, "smoothness_gamma": 350.0},
            "gamma": 1e6, "epochs": 3,
            "reference": {"x_star": [0.0] * 76, "f_star": 1.0},
        },
        "42036d4d3869b6ae3b19e9c06196956b0b3329777584de3d483aff46d7e37324",
    ),
    (
        "quadratic-affine",
        {"reference": {"x_star": [0.0] * 3, "f_star": 1.0}, "epochs": 10},
        "da4f494407592bc65628827d924645f680e70ab6043591c7873eb1f1a76f921d",
    ),
    (
        "quadratic-balls",
        {
            "problem": {"kind": "quadratic", "seed": 4, "dim": 3, "n": 8, "m": 2,
                        "affine_constraints": False},
            "reference": {"x_star": [0.0] * 3, "f_star": 1.0}, "epochs": 10,
        },
        "5d8b37962ffdadde44bba906afcc26212f4b1dbb947d1e7cc9fc8d9ee9c83cd0",
    ),
]


@pytest.mark.parametrize("overrides, digest", [p[1:] for p in VARAS_TRACE_PINS],
                         ids=[p[0] for p in VARAS_TRACE_PINS])
def test_varas_trace_bytes_pinned(tmp_path, overrides, digest):
    cfg = BenchConfig.from_dict(varas_quadratic_config(**overrides))
    run_experiment(cfg, output_dir=tmp_path)
    assert hashlib.sha256((tmp_path / "varas_seed0.csv").read_bytes()).hexdigest() == digest


# sha256 of ssqp_seed0.csv: one SSQP seed on the shipped regression instance
# (criteria 3 and 4, the bench's reg-* workloads), recorded before the minimal
# residual cap got its closed form.  It pins the regression build path: a
# change to the features, the split, the smoothness constants or the
# feasibility check that moves this trace must say so.  The reference block is
# arbitrary, as above.
REG_TRACE_PIN = "60eec1c8d06b84b6117ab099a8515a70a7369734f4aaa7666861316a6a38f5a5"
# sha256 of ssqp-skip_seed0.csv: one SSQP-Skip seed, 400 steps, on the same
# instance, recorded before the QP solver chose its starting working set from
# the prox point.  Skip warm-starts each QP from the answer of one solved about
# 14 steps earlier, so its answers must not depend on where the loop starts.
SKIP_TRACE_PIN = "2034bf4e50f8c10c8e18ef7d8d0f781989f3dfdd5cdee6f22f4b6bd63705c75b"
# sha256 of primal-dual_seed0.csv: one primal-dual seed, 2,000 steps, with
# criterion 4's stepsizes, and of ssqp-skip_seed0.csv for a Skip seed drawing
# four indices per query (the only batch-mean path a solver loop runs).  Both
# recorded before one-index SFO queries stopped reducing over the batch.
PRIMAL_DUAL_TRACE_PIN = "678b44e28060cbd24900516c8cc83336a00b977a06c0db475fb821c5f37936aa"
SKIP_BATCH4_TRACE_PIN = "644266cb2615b9b23ba61759591c863e22c0cefa56fa544fa6346fda30dcaa20"


def shipped_regression_config(algorithm, schedule_kind, horizon, stride, **overrides):
    spec = {"seed": 11, "d": 14, "n": 450, "critical": 10, "tolerance": 1.3}
    problem, _ = generate_regression_problem(**spec)
    if schedule_kind == "primal_dual":
        schedule = {"kind": "primal_dual", "eta_x": 0.005, "eta_lambda": 0.002}
    else:
        schedule = {"kind": schedule_kind, "mu": problem.strong_convexity, "smoothness": problem.smoothness}
    return BenchConfig.from_dict(quadratic_config(
        problem={"kind": "regression", **spec}, algorithm=algorithm, gamma=100.0,
        horizon=horizon, checkpoint_stride=stride, schedule=schedule,
        reference={"x_star": [0.0] * 14, "f_star": 1.0}, **overrides,
    ))


def test_regression_trace_bytes_pinned(tmp_path):
    run_experiment(shipped_regression_config("ssqp", "ssqp_strongly_convex", 60, 5), output_dir=tmp_path)
    assert hashlib.sha256((tmp_path / "ssqp_seed0.csv").read_bytes()).hexdigest() == REG_TRACE_PIN


def test_skip_trace_bytes_pinned(tmp_path):
    run_experiment(shipped_regression_config("ssqp-skip", "skip", 400, 20), output_dir=tmp_path)
    assert hashlib.sha256((tmp_path / "ssqp-skip_seed0.csv").read_bytes()).hexdigest() == SKIP_TRACE_PIN


def test_primal_dual_trace_bytes_pinned(tmp_path):
    run_experiment(shipped_regression_config("primal-dual", "primal_dual", 2000, 100), output_dir=tmp_path)
    assert hashlib.sha256((tmp_path / "primal-dual_seed0.csv").read_bytes()).hexdigest() == PRIMAL_DUAL_TRACE_PIN


def test_skip_batch_trace_bytes_pinned(tmp_path):
    run_experiment(shipped_regression_config("ssqp-skip", "skip", 400, 20, batch_size=4), output_dir=tmp_path)
    assert hashlib.sha256((tmp_path / "ssqp-skip_seed0.csv").read_bytes()).hexdigest() == SKIP_BATCH4_TRACE_PIN


def test_ssqp_seed_pattern_solve_count_pinned(tmp_path, pattern_solves):
    # pattern solves of one 300-step SSQP seed on the shipped instance: 499
    # when every loop started from the warm set, 312 with the prox-point start
    run_experiment(shipped_regression_config("ssqp", "ssqp_strongly_convex", 300, 10), output_dir=tmp_path)
    assert len(pattern_solves) == 312
