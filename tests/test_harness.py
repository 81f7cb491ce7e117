"""Harness: config schema, trace files, orchestration, analysis, and the CLI."""

import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from ssqpbench import (
    BenchConfig,
    ConfigError,
    TraceRow,
    calls_to_threshold,
    read_trace,
    run_experiment,
    slope_fit,
    write_trace,
)
from ssqpbench.cli import main as cli_main
from ssqpbench.harness import OUTPUT_DIR_ENV, build_problem, build_schedule


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_evaluation_exit_code(self, tmp_path, capsys):
        # currents of size 1e200 overflow the cubic energy's gradient at the first query
        problem = {"kind": "usv", "seed": 0, "n": 3, "horizon": 5, "z_scale": 1e200}
        cfg = self.write_config(tmp_path, problem=problem, output_dir=str(tmp_path / "out"))
        assert cli_main(["run", str(cfg)]) == 5
        assert "non-finite" in capsys.readouterr().err

    def test_report_subcommand(self, tmp_path, capsys):
        out = tmp_path / "traces"
        out.mkdir()
        write_trace(out / "x.csv", synthetic_rows(20))
        assert cli_main(["report", str(out), "--threshold", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mean_sfo"] == 8.0

    def test_slope_subcommand(self, tmp_path, capsys):
        path = tmp_path / "t.csv"
        write_trace(path, synthetic_rows(100))
        assert cli_main(["slope", str(path), "--metric", "gap"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["slope"] == pytest.approx(-1.0, abs=1e-9)

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
        assert meta["trace_files"] == {}
        assert not list(out.glob("*.csv"))

    def test_failed_feasibility_lp_exit_code(self, tmp_path, capsys, monkeypatch):
        import ssqpbench.problems

        def failing_linprog(*args, **kwargs):
            return SimpleNamespace(success=False, message="solver gave up")

        monkeypatch.setattr(ssqpbench.problems, "linprog", failing_linprog)
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
        import ssqpbench.cli
        import ssqpbench.problems

        built = []
        linprog = ssqpbench.problems.linprog

        def recording_linprog(*args, **kwargs):
            built.append(1)
            return linprog(*args, **kwargs)

        def failing_solve(*args, **kwargs):
            raise RuntimeError("reference solve did not reach tol")

        monkeypatch.setattr(ssqpbench.problems, "linprog", recording_linprog)
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
