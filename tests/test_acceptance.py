"""End-to-end acceptance checks.

Each test prints a single summary line (criterion k: PASS/FAIL) before its
assertions so a full run doubles as a readable report.
"""

import time

import numpy as np
import pytest
from scipy.optimize import linprog

from ssqpbench import (
    BoxIndicator,
    CanonicalQp,
    ConstrainedProblem,
    L1,
    RunConfig,
    SkipSchedule,
    SsqpConvexSchedule,
    SsqpStronglyConvexSchedule,
    SsqpState,
    TunedConstantSchedule,
    VarasSchedule,
    Zero,
    dense_oracle_qp,
    full_gradient,
    kkt_residual,
    sfo_query,
    solve_canonical_qp,
    ssqp_run,
    ssqp_skip_run,
    ssqp_step,
    varas_run,
)
from ssqpbench.baselines import PrimalDualSchedule, primal_dual_run
from ssqpbench.harness import (
    BenchConfig,
    calls_to_threshold,
    read_trace,
    run_experiment,
    write_trace,
)
from ssqpbench.penalty import gamma_from_slater, penalty_objective, violation_report
from ssqpbench.problems import (
    brute_force_optimum,
    generate_regression_problem,
    make_usv_problem,
    path_from_decision,
    random_quadratic_problem,
    straight_line_path,
)

from kkt_oracle import solve_kkt_quadratic
from three_point_audit import three_point_audit


def _report(k, ok, details):
    print(f"criterion {k}: {'PASS' if ok else 'FAIL'} — {details}")


def _component_grad(problem, i, x):
    """Gradient of the single component i, read off a one-index block."""
    return problem.component_values_grads(x, np.array([i]))[1][0]


def _quadratic_data(problem):
    """Recover (Q, c, A, b) of a random_quadratic_problem from its block evaluators."""
    d = problem.dim
    n = problem.n_components
    grad0 = np.mean([_component_grad(problem, i, np.zeros(d)) for i in range(n)], axis=0)
    q = np.column_stack(
        [
            np.mean([_component_grad(problem, i, e) for i in range(n)], axis=0) - grad0
            for e in np.eye(d)
        ]
    )
    cvals, a = problem.constraint_values_grads(np.zeros(d))
    return q, grad0, a, -cvals


# shared desk-scale regression instance (criteria 3 and 4)
REG_GAMMA = 100.0


@pytest.fixture(scope="module")
def regression_reference():
    problem, _ = generate_regression_problem(
        seed=11, d=14, n=450, critical=10, tolerance=1.3
    )
    x_star, f_star = brute_force_optimum(problem, REG_GAMMA, tol=1e-10)
    return problem, x_star, f_star


class TestAcceptance:
    def test_criterion_1_qp_oracle_equivalence(self):
        rng = np.random.default_rng(2024)
        started = time.perf_counter()
        max_du = max_dobj = max_kkt = 0.0
        for _ in range(1000):
            d = int(rng.integers(1, 7))
            m = int(rng.integers(0, 6))
            kind = rng.integers(3)
            if kind == 0:
                reg = Zero()
            elif kind == 1:
                lo = rng.uniform(-2.0, 0.0, size=d)
                reg = BoxIndicator(lower=lo, upper=lo + rng.uniform(0.5, 3.0, size=d))
            else:
                reg = L1(weight=float(rng.uniform(0.0, 2.0)))
            qp = CanonicalQp(
                rho=float(rng.uniform(0.2, 5.0)),
                anchor=rng.standard_normal(d),
                linear=rng.standard_normal(d),
                regularizer=reg,
                hinge_weight=float(rng.uniform(0.0, 10.0)),
                offsets=rng.standard_normal(m),
                slopes=rng.standard_normal((m, d)),
            )
            sol = solve_canonical_qp(qp)
            ref = dense_oracle_qp(qp)
            max_du = max(max_du, float(np.max(np.abs(sol.u - ref.u))))
            max_dobj = max(max_dobj, abs(sol.objective - ref.objective))
            max_kkt = max(max_kkt, kkt_residual(qp, sol))
        elapsed = time.perf_counter() - started
        ok = max_du <= 1e-6 and max_dobj <= 1e-8 and max_kkt <= 1e-9 and elapsed < 30.0
        _report(
            1,
            ok,
            f"1000 instances, max |du|={max_du:.2e}, max |dobj|={max_dobj:.2e}, "
            f"max kkt={max_kkt:.2e}, {elapsed:.1f}s",
        )
        assert max_du <= 1e-6
        assert max_dobj <= 1e-8
        assert max_kkt <= 1e-9
        assert elapsed < 30.0

    def test_criterion_2_exact_penalty_equivalence(self):
        started = time.perf_counter()
        infeasible = 0
        max_err = 0.0
        for seed in range(20):
            problem = random_quadratic_problem(seed=seed, dim=3, n=6, m=2)
            q, c, a, b = _quadratic_data(problem)
            x_star, _ = solve_kkt_quadratic(q, c, a, b)
            # strictly interior point from the Chebyshev center of the
            # (box-bounded) feasible polytope, pulled toward x_star so the
            # certified penalty weight stays close to its necessary level
            norms = np.linalg.norm(a, axis=1)
            lp = linprog(
                np.concatenate([np.zeros(3), [-1.0]]),
                A_ub=np.column_stack([a, norms]),
                b_ub=b,
                bounds=[(-50, 50)] * 3 + [(0, 50)],
            )
            x_slater = x_star + 0.05 * (lp.x[:3] - x_star)
            margin = -float(problem.constraint_values_grads(x_slater)[0].max())
            assert margin > 0
            gap = max(
                problem.objective_value(x_slater) - problem.objective_value(x_star), 0.0
            )
            gamma = gamma_from_slater(gap, margin)
            assert gamma > 0
            x_pen, _ = brute_force_optimum(problem, gamma, tol=1e-10)
            max_err = max(max_err, float(np.max(np.abs(x_pen - x_star))))
            x_half, _ = brute_force_optimum(problem, gamma / 2.0, tol=1e-10)
            if violation_report(problem, x_half).max_violation > 1e-6:
                infeasible += 1
        elapsed = time.perf_counter() - started
        ok = max_err <= 1e-4 and infeasible >= 1 and elapsed < 60.0
        _report(
            2,
            ok,
            f"20 instances, max recovery err={max_err:.2e}, "
            f"{infeasible} infeasible at gamma/2, {elapsed:.1f}s",
        )
        assert max_err <= 1e-4
        assert infeasible >= 1
        assert elapsed < 60.0

    def _mean_metric(self, problem, schedule, x_star, f_star, horizon, seeds, metric):
        traces = []
        for seed in range(seeds):
            config = RunConfig(
                gamma=REG_GAMMA,
                schedule=schedule,
                x0=np.zeros(problem.dim),
                horizon=horizon,
                seed=seed,
                checkpoint_stride=10,
                x_star=x_star,
                f_star=f_star,
            )
            _, _, trace, _ = ssqp_run(problem, config)
            traces.append(trace)
        iters = traces[0].column("iteration")
        mean = np.mean([t.column(metric) for t in traces], axis=0)
        return iters, mean

    @staticmethod
    def _final_decade_slope(iters, values):
        mask = (iters > iters.max() / 10.0) & (values > 0)
        slope, _ = np.polyfit(np.log(iters[mask]), np.log(values[mask]), 1)
        return float(slope)

    def test_criterion_3_ssqp_rates(self, regression_reference):
        problem, x_star, f_star = regression_reference
        horizon, seeds = 4000, 20

        started = time.perf_counter()
        convex = SsqpConvexSchedule(
            horizon=horizon, delta0=1.0, sigma=3.0,
            smoothness=problem.smoothness, diminishing=True,
        )
        iters, gaps = self._mean_metric(
            problem, convex, x_star, f_star, horizon, seeds, "gap"
        )
        convex_slope = self._final_decade_slope(iters, gaps)
        convex_elapsed = time.perf_counter() - started

        started = time.perf_counter()
        strong = SsqpStronglyConvexSchedule(
            mu=problem.strong_convexity, smoothness=problem.smoothness
        )
        iters, dists = self._mean_metric(
            problem, strong, x_star, f_star, horizon, seeds, "dist_sq"
        )
        strong_slope = self._final_decade_slope(iters, dists)
        strong_elapsed = time.perf_counter() - started

        ok = (
            -0.65 <= convex_slope <= -0.35
            and -1.3 <= strong_slope <= -0.7
            and convex_elapsed < 300.0
            and strong_elapsed < 300.0
        )
        _report(
            3,
            ok,
            f"convex gap slope={convex_slope:.3f} ({convex_elapsed:.0f}s), "
            f"strongly convex dist_sq slope={strong_slope:.3f} ({strong_elapsed:.0f}s)",
        )
        assert -0.65 <= convex_slope <= -0.35
        assert -1.3 <= strong_slope <= -0.7
        assert convex_elapsed < 300.0
        assert strong_elapsed < 300.0

    def test_criterion_4_skip_qmo_parsimony(self, regression_reference):
        problem, x_star, _ = regression_reference
        horizon, seeds = 100_000, 20
        started = time.perf_counter()

        schedule = SkipSchedule(
            mu=problem.strong_convexity, smoothness=problem.smoothness
        )
        skip_rows, qmo_counts = [], []
        for seed in range(seeds):
            config = RunConfig(
                gamma=REG_GAMMA, schedule=schedule, x0=np.zeros(problem.dim),
                horizon=horizon, seed=seed, checkpoint_stride=200, x_star=x_star,
            )
            _, trace, counters = ssqp_skip_run(problem, config)
            skip_rows.append(trace.rows)
            qmo_counts.append(counters.qmo_calls)

        baseline_sched = PrimalDualSchedule(eta_x=0.005, eta_lambda=0.002)
        base_rows = []
        for seed in range(seeds):
            config = RunConfig(
                gamma=REG_GAMMA, schedule=baseline_sched, x0=np.zeros(problem.dim),
                horizon=horizon, seed=seed, checkpoint_stride=200, x_star=x_star,
            )
            _, trace, _ = primal_dual_run(problem, config)
            base_rows.append(trace.rows)

        bound = np.sqrt(horizon + schedule.omega)
        mean_qmo = float(np.mean(qmo_counts))
        qmo_ok = 0.25 * bound <= mean_qmo <= 4.0 * bound

        ordering_ok = True
        ratios = []
        detail = []
        for threshold in (0.02, 0.01, 0.008):
            skip_hit = calls_to_threshold(skip_rows, "dist_sq", threshold)
            base_hit = calls_to_threshold(base_rows, "dist_sq", threshold)
            assert "mean_sfo" in skip_hit, f"skip never reached {threshold}"
            if base_hit["censored"] == seeds:
                win = True  # baseline never gets there at all
                detail.append(f"{threshold}: skip {skip_hit['mean_sfo']:.0f} vs censored")
            else:
                win = skip_hit["mean_sfo"] < base_hit["mean_sfo"]
                detail.append(
                    f"{threshold}: skip {skip_hit['mean_sfo']:.0f} "
                    f"vs baseline {base_hit['mean_sfo']:.0f}"
                )
            ordering_ok = ordering_ok and win
            ratios.append(skip_hit["mean_qmo"] / skip_hit["mean_sfo"])
        ratio_ok = all(b <= a + 1e-12 for a, b in zip(ratios, ratios[1:]))
        ratio_ok = ratio_ok and ratios[-1] < ratios[0]

        elapsed = time.perf_counter() - started
        ok = qmo_ok and ordering_ok and ratio_ok and elapsed < 600.0
        _report(
            4,
            ok,
            f"mean QMO={mean_qmo:.0f} in [{0.25 * bound:.0f}, {4 * bound:.0f}]; "
            + "; ".join(detail)
            + f"; QMO/SFO ratios {['%.3f' % r for r in ratios]}; {elapsed:.0f}s",
        )
        assert qmo_ok
        assert ordering_ok
        assert ratio_ok
        assert elapsed < 600.0

    def test_criterion_5_varas_rates(self):
        started = time.perf_counter()
        epochs = 60

        # strongly convex mode: geometric decay of the mean objective gap
        problem = random_quadratic_problem(seed=21, dim=6, n=64, m=2, mu=0.5, smoothness=10.0)
        gamma = 50.0
        x_star, f_star = brute_force_optimum(problem, gamma, tol=1e-12)
        schedule = VarasSchedule(
            n=64, mu=problem.strong_convexity, smoothness_gamma=10.0
        )
        gap_runs = []
        for seed in range(5):
            config = RunConfig(
                gamma=gamma, schedule=schedule, x0=np.zeros(6), epochs=epochs,
                seed=seed, checkpoint_stride=1, x_star=x_star, f_star=f_star,
            )
            _, trace, _ = varas_run(problem, config)
            gap_runs.append(trace.column("gap")[1:])
        gaps = np.mean(gap_runs, axis=0)
        s = np.arange(1, epochs + 1)
        # fit above the floating floor of the reference value
        mask = (s > schedule.s0) & (gaps > 1e-12)
        ys = np.log(gaps[mask])
        slope, intercept = np.polyfit(s[mask], ys, 1)
        pred = slope * s[mask] + intercept
        r2 = 1.0 - np.sum((ys - pred) ** 2) / np.sum((ys - ys.mean()) ** 2)
        min_gap = float(gaps.min())

        # convex mode: a flat (degree-12) valley makes the polynomial-rate
        # term observable instead of the geometric tail
        rng = np.random.default_rng(5)
        offsets = rng.standard_normal(64) * 0.5

        def component_block(x, idx):
            r = x[1] - offsets[idx]
            values = abs(x[0]) ** 12 / 12.0 + 0.5 * r**2
            grads = np.column_stack([np.full(len(idx), np.sign(x[0]) * abs(x[0]) ** 11), r])
            return values, grads

        flat = ConstrainedProblem(
            dim=2, n_components=64, component_block=component_block,
            smoothness=11.0, constraint_smoothness=0.0,
            m=1, constraint_block=lambda x: (np.array([1.0 - x[1]]), np.array([[0.0, -1.0]])),
        )
        flat_gamma = 10.0
        fx_star, ff_star = brute_force_optimum(
            flat, flat_gamma, x0=np.array([1.0, 0.0]), tol=1e-12
        )
        flat_sched = VarasSchedule(n=64, mu=0.0, smoothness_gamma=11.0)
        flat_runs = []
        for seed in range(10):
            config = RunConfig(
                gamma=flat_gamma, schedule=flat_sched, x0=np.array([1.0, 0.0]),
                epochs=epochs, seed=seed, checkpoint_stride=1,
                x_star=fx_star, f_star=ff_star,
            )
            _, trace, _ = varas_run(flat, config)
            flat_runs.append(trace.column("gap")[1:])
        flat_gaps = np.mean(flat_runs, axis=0)
        fmask = s > flat_sched.s0
        exponent, _ = np.polyfit(
            np.log(s[fmask] - flat_sched.s0 + 4.0), np.log(flat_gaps[fmask]), 1
        )

        elapsed = time.perf_counter() - started
        ok = (
            slope < 0
            and r2 >= 0.9
            and min_gap <= 1e-8
            and -2.6 <= exponent <= -1.4
            and elapsed < 300.0
        )
        _report(
            5,
            ok,
            f"strongly convex slope={slope:.2f}/epoch R2={r2:.3f} min gap={min_gap:.1e}; "
            f"convex exponent={exponent:.2f}; {elapsed:.0f}s",
        )
        assert slope < 0
        assert r2 >= 0.9
        assert min_gap <= 1e-8
        assert -2.6 <= exponent <= -1.4
        assert elapsed < 300.0

    def test_criterion_6_varas_unbiasedness_and_identity(self, recorded_steps):
        problem = random_quadratic_problem(seed=9, dim=4, n=16)
        schedule = VarasSchedule(
            n=16, mu=problem.strong_convexity, smoothness_gamma=problem.smoothness
        )
        config = RunConfig(gamma=2.0, schedule=schedule, x0=np.zeros(4), epochs=10, seed=5)
        varas_run(problem, config)
        steps = recorded_steps["varas"]

        # at t = 1 the recorded x_prev is the epoch snapshot, so the
        # variance-reduced estimate can be reconstructed exactly and its
        # exhaustive-index mean collapses to the full gradient at y
        first_steps = [rec for rec in steps if rec["t"] == 1]
        assert first_steps
        max_bias = 0.0
        for rec in first_steps:
            y, snap = rec["y"], rec["x_prev"]
            snap_grad = full_gradient(problem, snap)[0]
            expected = (
                _component_grad(problem, rec["index"], y)
                - _component_grad(problem, rec["index"], snap)
                + snap_grad
            )
            np.testing.assert_allclose(rec["n_tilde"], expected, atol=1e-12)
            mean = np.mean(
                [
                    _component_grad(problem, j, y) - _component_grad(problem, j, snap) + snap_grad
                    for j in range(16)
                ],
                axis=0,
            )
            max_bias = max(
                max_bias, float(np.max(np.abs(mean - full_gradient(problem, y)[0])))
            )

        max_gap = 0.0
        for rec in steps:
            lhs = rec["x"] - rec["y"]
            rhs = rec["alpha"] * (rec["z"] - rec["z_plus"])
            max_gap = max(max_gap, float(np.max(np.abs(lhs - rhs))))

        ok = max_bias <= 1e-12 and max_gap <= 1e-10
        _report(
            6,
            ok,
            f"max unbiasedness defect={max_bias:.1e}, "
            f"max state-identity defect={max_gap:.1e} over {len(steps)} steps",
        )
        assert max_bias <= 1e-12
        assert max_gap <= 1e-10

    def test_criterion_7_one_step_inequality_audit(self, recorded_steps):
        total_steps = 0
        violations = 0
        for seed in range(5):
            problem = random_quadratic_problem(seed=seed, dim=3, n=6, m=2)
            q, c, a, b = _quadratic_data(problem)
            x_star, _ = solve_kkt_quadratic(q, c, a, b)
            config = RunConfig(
                gamma=30.0, schedule=TunedConstantSchedule(eta=0.05),
                x0=np.zeros(3), horizon=100, seed=seed,
            )
            ssqp_run(problem, config)
            steps = recorded_steps["ssqp"]
            total_steps += len(steps)
            violations += three_point_audit(problem, 30.0, x_star, steps, slack=1e-8)
            steps.clear()
        ok = violations == 0 and total_steps == 500
        _report(7, ok, f"{violations} violations across {total_steps} recorded steps")
        assert total_steps == 500
        assert violations == 0

    def test_criterion_8_usv_energy(self):
        started = time.perf_counter()
        problem, usv = make_usv_problem(seed=7, n=100, horizon=40)
        x0 = straight_line_path(usv)
        straight_energy = problem.objective_value(x0)
        schedule = VarasSchedule(n=100, mu=0.0, smoothness_gamma=350.0)
        config = RunConfig(
            gamma=1e6, schedule=schedule, x0=x0, epochs=25, seed=0,
            checkpoint_stride=5,
        )
        x_opt, _, _ = varas_run(problem, config)
        energy = problem.objective_value(x_opt)
        ratio = energy / straight_energy
        report = violation_report(problem, x_opt)
        path = path_from_decision(usv, x_opt)
        endpoints_exact = np.array_equal(path[0], usv.p_start) and np.array_equal(
            path[-1], usv.p_dest
        )
        elapsed = time.perf_counter() - started
        ok = (
            ratio <= 0.5
            and report.max_violation <= 1e-3
            and endpoints_exact
            and elapsed < 600.0
        )
        _report(
            8,
            ok,
            f"energy ratio={ratio:.3f}, max violation={report.max_violation:.1e}, "
            f"endpoints exact={endpoints_exact}, {elapsed:.0f}s",
        )
        assert ratio <= 0.5
        assert report.max_violation <= 1e-3
        assert endpoints_exact
        assert elapsed < 600.0

    def test_criterion_9_determinism_round_trip(self, tmp_path):
        doc = {
            "problem": {"kind": "quadratic", "seed": 3, "dim": 3, "n": 8, "m": 2},
            "algorithm": "ssqp",
            "schedule": {"kind": "tuned_constant", "eta": 0.05},
            "gamma": 2.0,
            "seeds": [0, 1],
            "horizon": 200,
            "checkpoint_stride": 20,
        }
        config = BenchConfig.from_dict(doc)
        meta = run_experiment(config, output_dir=tmp_path / "a")
        run_experiment(BenchConfig.from_dict(doc), output_dir=tmp_path / "b")
        files = sorted(meta["trace_files"].values())
        identical = all(
            (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()
            for f in files
        )

        # metadata round trip: the stored config reproduces the traces
        run_experiment(BenchConfig.from_dict(meta["config"]), output_dir=tmp_path / "c")
        meta_identical = all(
            (tmp_path / "a" / f).read_bytes() == (tmp_path / "c" / f).read_bytes()
            for f in files
        )

        # trace file parse/write round trip
        rows = read_trace(tmp_path / "a" / files[0])
        write_trace(tmp_path / "copy.csv", rows)
        round_trip = (
            (tmp_path / "copy.csv").read_bytes()
            == (tmp_path / "a" / files[0]).read_bytes()
        )

        ok = identical and meta_identical and round_trip
        _report(
            9,
            ok,
            f"byte-identical={identical}, metadata re-run={meta_identical}, "
            f"round-trip={round_trip}",
        )
        assert identical
        assert meta_identical
        assert round_trip

    def test_criterion_10_reductions(self, refreshed_y, recorded_steps):
        # (a) m = 0: SSQP is seeded SGD step for step
        problem = random_quadratic_problem(seed=4, dim=4, n=10, m=0)
        horizon = 200
        config = RunConfig(
            gamma=1.0, schedule=TunedConstantSchedule(eta=0.05),
            x0=np.zeros(4), horizon=horizon, seed=7,
        )
        _, x_ssqp, _, _ = ssqp_run(problem, config)
        # the run's batch stream is child 0 of SeedSequence(seed).spawn(2)
        rng = np.random.default_rng(np.random.SeedSequence(7).spawn(2)[0])
        x = np.zeros(4)
        sgd_defect = 0.0
        for rec in recorded_steps["ssqp"]:
            batch = rng.integers(0, problem.n_components, size=1)
            grad = sfo_query(problem, x, batch).stochastic_gradient
            x = x - 0.05 * grad
            sgd_defect = max(sgd_defect, float(np.max(np.abs(rec["x_next"] - x))))
        sgd_defect = max(sgd_defect, float(np.max(np.abs(x_ssqp - x))))

        # (b) p = 1 with gradient-refreshed y (the refreshed_y fixture wraps
        # every Skip step): SSQP-Skip equals SSQP on the same batch stream
        # (shifted by the y0 initialization draw)
        problem_b = random_quadratic_problem(seed=6, dim=3, n=8)
        horizon = 100
        schedule = SkipSchedule(
            mu=problem_b.strong_convexity, smoothness=problem_b.smoothness,
            kickstart=horizon,
        )
        skip_cfg = RunConfig(
            gamma=2.0, schedule=schedule, x0=np.zeros(3), horizon=horizon, seed=11,
        )
        x_skip, _, _ = ssqp_skip_run(problem_b, skip_cfg)
        rng = np.random.default_rng(np.random.SeedSequence(11).spawn(2)[0])
        rng.integers(0, problem_b.n_components, size=1)  # consumed by the y0 initialization
        state = SsqpState(x=np.zeros(3))
        for t in range(horizon):
            batch = rng.integers(0, problem_b.n_components, size=1)
            sample = sfo_query(problem_b, state.x, batch)
            eta, _ = schedule.parameters(t)
            state = ssqp_step(state, sample, eta, 2.0, problem_b.regularizer)
        skip_defect = float(np.max(np.abs(x_skip - state.x)))

        # (c) n = 1: every VARAS inner gradient estimate is the exact gradient
        problem_c = random_quadratic_problem(seed=5, dim=3, n=1, m=1)
        sched_c = VarasSchedule(
            n=1, mu=problem_c.strong_convexity, smoothness_gamma=problem_c.smoothness
        )
        cfg_c = RunConfig(gamma=1.0, schedule=sched_c, x0=np.zeros(3), epochs=6, seed=2)
        varas_run(problem_c, cfg_c)
        varas_defect = max(
            float(np.max(np.abs(rec["n_tilde"] - full_gradient(problem_c, rec["y"])[0])))
            for rec in recorded_steps["varas"]
        )

        ok = sgd_defect <= 1e-10 and skip_defect <= 1e-10 and varas_defect <= 1e-12
        _report(
            10,
            ok,
            f"SSQP-vs-SGD defect={sgd_defect:.1e}, Skip-vs-SSQP defect={skip_defect:.1e}, "
            f"VARAS exact-gradient defect={varas_defect:.1e}",
        )
        assert sgd_defect <= 1e-10
        assert skip_defect <= 1e-10
        assert varas_defect <= 1e-12
