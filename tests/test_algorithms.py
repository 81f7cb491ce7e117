"""Solver loop behavior: reductions, identities, instrumentation, and audits."""

import dataclasses

import numpy as np
import pytest

from ssqpbench import (
    CanonicalQp,
    ConstrainedProblem,
    DivergenceError,
    OracleCounters,
    PrimalDualSchedule,
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
    primal_dual_run,
    sfo_query,
    ssqp_run,
    ssqp_skip_run,
    ssqp_step,
    varas_run,
    varas_step,
)
from ssqpbench.algorithms import _CHUNK, SSQP_SCHEDULES, _Run
from ssqpbench.problems import random_quadratic_problem

from kkt_oracle import solve_kkt_quadratic
from three_point_audit import three_point_audit


def batch_stream(seed):
    """The run's batch stream: child 0 of SeedSequence(seed).spawn(2)."""
    return np.random.default_rng(np.random.SeedSequence(seed).spawn(2)[0])


def toy_problem(center=3.0, mu=1.0):
    """1-d f(x) = (mu/2)(x - center)^2, unconstrained."""

    def component_block(x, idx):
        r = x[0] - center
        return np.full(len(idx), 0.5 * mu * r**2), np.full((len(idx), 1), mu * r)

    return ConstrainedProblem(
        dim=1, n_components=1, component_block=component_block,
        smoothness=mu, constraint_smoothness=0.0, strong_convexity=mu,
    )


def two_d_constrained_problem():
    """f(x) = ||x||^2 with g(x) = 1 - x_1 <= 0 (forces x_1 >= 1)."""

    def component_block(x, idx):
        return np.full(len(idx), x @ x), np.tile(2.0 * x, (len(idx), 1))

    def constraint_block(x):
        return np.array([1.0 - x[0]]), np.array([[-1.0, 0.0]])

    return ConstrainedProblem(
        dim=2, n_components=1, component_block=component_block,
        smoothness=2.0, constraint_smoothness=0.0, strong_convexity=2.0,
        m=1, constraint_block=constraint_block,
    )


class TestSsqpStep:
    def test_unconstrained_is_sgd(self):
        problem = toy_problem()
        x = np.array([0.0])
        sample = sfo_query(problem, x, [0])
        state = ssqp_step(SsqpState(x=x), sample, eta=0.25, gamma=1.0, regularizer=Zero())
        np.testing.assert_allclose(state.x, x - 0.25 * sample.stochastic_gradient, atol=1e-12)

    def test_slack_hinge_is_prox_gradient(self):
        # feasible iterate whose unconstrained prox point stays feasible
        problem = two_d_constrained_problem()
        x = np.array([2.0, 0.0])
        sample = sfo_query(problem, x, [0])
        state = ssqp_step(SsqpState(x=x), sample, eta=0.1, gamma=10.0, regularizer=Zero())
        np.testing.assert_allclose(state.x, x - 0.1 * sample.stochastic_gradient, atol=1e-9)
        assert state.last_qp.v == pytest.approx(0.0, abs=1e-9)

    def test_matches_dense_oracle(self):
        problem = two_d_constrained_problem()
        x = np.array([0.0, 0.0])
        sample = sfo_query(problem, x, [0])
        eta, gamma = 0.25, 10.0
        state = ssqp_step(SsqpState(x=x), sample, eta, gamma, Zero())
        qp = CanonicalQp(
            rho=1.0 / eta, anchor=x, linear=sample.stochastic_gradient,
            regularizer=Zero(), hinge_weight=gamma,
            offsets=sample.constraint_values - sample.constraint_gradients @ x,
            slopes=sample.constraint_gradients,
        )
        np.testing.assert_allclose(state.x, dense_oracle_qp(qp).u, atol=1e-8)

    def test_running_average_weights(self):
        problem = toy_problem()
        state = SsqpState(x=np.array([0.0]))
        etas = [0.5, 0.25]
        xs = []
        for eta in etas:
            sample = sfo_query(problem, state.x, [0])
            state = ssqp_step(state, sample, eta, gamma=1.0, regularizer=Zero())
            xs.append(state.x.copy())
        expected = (etas[0] * xs[0] + etas[1] * xs[1]) / sum(etas)
        np.testing.assert_allclose(state.averaged, expected, atol=1e-14)


class TestSsqpRun:
    def test_deterministic_contraction(self):
        # single-component 1-d problem: exact gradients drive x_T to the center
        problem = toy_problem(center=3.0)
        config = RunConfig(
            gamma=1.0, schedule=TunedConstantSchedule(eta=0.5),
            x0=np.zeros(1), horizon=1000, checkpoint_stride=100,
        )
        _, last, _, counters = ssqp_run(problem, config)
        assert abs(last[0] - 3.0) <= 1e-6
        assert counters.sfo_calls == 1000
        assert counters.qmo_calls == 1000

    def test_unconstrained_reduction_to_sgd(self):
        problem = random_quadratic_problem(seed=1, dim=3, n=8, m=0)
        config = RunConfig(
            gamma=1.0, schedule=TunedConstantSchedule(eta=0.05),
            x0=np.zeros(3), horizon=200, seed=7,
        )
        _, last, _, _ = ssqp_run(problem, config)

        # reference SGD with the identical batch stream
        rng = batch_stream(7)
        x = np.zeros(3)
        for _ in range(200):
            batch = rng.integers(0, problem.n_components, size=1)
            g = sfo_query(problem, x, batch).stochastic_gradient
            x = x - 0.05 * g
        np.testing.assert_allclose(last, x, atol=1e-10)

    def test_trace_counters_monotone(self):
        problem = random_quadratic_problem(seed=2, dim=3, n=6)
        config = RunConfig(
            gamma=5.0, schedule=SsqpStronglyConvexSchedule(mu=problem.strong_convexity,
                                                           smoothness=problem.smoothness),
            x0=np.zeros(3), horizon=60, checkpoint_stride=10,
        )
        _, _, trace, _ = ssqp_run(problem, config)
        sfo = trace.column("sfo")
        qmo = trace.column("qmo")
        assert np.all(np.diff(sfo) >= 0) and np.all(np.diff(qmo) >= 0)

    def test_divergence_guard(self):
        # gradient pushing away from the origin with a huge stepsize blows up
        def component_block(x, idx):
            return np.full(len(idx), -0.5 * x @ x), np.tile(-x, (len(idx), 1))

        problem = ConstrainedProblem(
            dim=1, n_components=1, component_block=component_block,
            smoothness=1.0, constraint_smoothness=0.0,
        )
        config = RunConfig(
            gamma=1.0, schedule=TunedConstantSchedule(eta=10.0),
            x0=np.ones(1), horizon=1000,
        )
        with pytest.raises(DivergenceError) as err:
            ssqp_run(problem, config)
        assert str(err.value) == "iterate norm exceeded 1e+12 during ssqp iteration 11"

    def test_guard_formats_its_message_only_when_it_raises(self):
        formatted = []

        class Where(str):
            def format(self, *args):
                formatted.append(args)
                return super().format(*args)

        config = RunConfig(gamma=1.0, schedule=TunedConstantSchedule(eta=0.1), x0=np.zeros(1), horizon=1)
        run = _Run(toy_problem(), config, SSQP_SCHEDULES)
        for t in range(100):
            run.guard(np.ones(1), Where("step {} of {}"), t, 100)
        assert formatted == []
        with pytest.raises(DivergenceError, match="^iterate norm exceeded 1e\\+12 during step 7 of 100$"):
            run.guard(np.full(1, 2e12), Where("step {} of {}"), 7, 100)
        assert formatted == [(7, 100)]

    def test_convex_schedule_reports_averaged_iterate(self):
        problem = toy_problem()
        sched = SsqpConvexSchedule(horizon=50, delta0=1.0, sigma=0.0, smoothness=1.0)
        config = RunConfig(
            gamma=1.0, schedule=sched, x0=np.zeros(1), horizon=50,
            x_star=np.array([3.0]), checkpoint_stride=50,
        )
        averaged, last, trace, _ = ssqp_run(problem, config)
        assert trace.rows[-1].dist_sq == pytest.approx(float((averaged[0] - 3.0) ** 2))
        assert trace.rows[-1].dist_sq != pytest.approx(float((last[0] - 3.0) ** 2))

    def test_requires_exactly_one_stopping_rule(self):
        with pytest.raises(ValueError):
            RunConfig(gamma=1.0, schedule=TunedConstantSchedule(0.1), x0=np.zeros(1))
        with pytest.raises(ValueError):
            RunConfig(gamma=1.0, schedule=TunedConstantSchedule(0.1), x0=np.zeros(1),
                      horizon=5, epochs=5)


class TestSsqpSkip:
    def test_rejects_convex_problems(self):
        problem = ConstrainedProblem(
            dim=1, n_components=1,
            component_block=lambda x, idx: (
                np.full(len(idx), x[0] ** 2), np.full((len(idx), 1), 2.0 * x[0])
            ),
            smoothness=2.0, constraint_smoothness=0.0,
        )
        config = RunConfig(
            gamma=1.0, schedule=SkipSchedule(mu=1.0, smoothness=2.0),
            x0=np.zeros(1), horizon=10,
        )
        with pytest.raises(ValueError):
            ssqp_skip_run(problem, config)

    def test_initial_gradient_charged(self):
        problem = random_quadratic_problem(seed=3, dim=3, n=8)
        sched = SkipSchedule(mu=problem.strong_convexity, smoothness=problem.smoothness)
        config = RunConfig(gamma=1.0, schedule=sched, x0=np.zeros(3), horizon=50)
        _, _, counters = ssqp_skip_run(problem, config)
        assert counters.sfo_calls == 51  # one batch for y0 plus one per step

    def test_qmo_tracks_skip_probabilities(self):
        problem = random_quadratic_problem(seed=4, dim=3, n=8)
        sched = SkipSchedule(mu=problem.strong_convexity, smoothness=problem.smoothness)
        horizon = 3000
        config = RunConfig(gamma=1.0, schedule=sched, x0=np.zeros(3), horizon=horizon, seed=0)
        _, _, counters = ssqp_skip_run(problem, config)
        expected = sched.expected_qp_solves(horizon)
        assert 0.5 * expected <= counters.qmo_calls <= 1.5 * expected

    def test_kickstart_forces_every_qp(self):
        problem = random_quadratic_problem(seed=5, dim=2, n=6)
        horizon = 40
        sched = SkipSchedule(mu=problem.strong_convexity, smoothness=problem.smoothness,
                             kickstart=horizon)
        config = RunConfig(gamma=1.0, schedule=sched, x0=np.zeros(2), horizon=horizon)
        _, _, counters = ssqp_skip_run(problem, config)
        assert counters.qmo_calls == horizon

    def test_no_skip_with_refreshed_y_reduces_to_ssqp(self, refreshed_y):
        problem = random_quadratic_problem(seed=6, dim=3, n=8)
        mu = problem.strong_convexity
        horizon = 100
        skip_sched = SkipSchedule(mu=mu, smoothness=problem.smoothness, kickstart=horizon)
        skip_cfg = RunConfig(gamma=2.0, schedule=skip_sched, x0=np.zeros(3),
                             horizon=horizon, seed=11)
        x_skip, _, _ = ssqp_skip_run(problem, skip_cfg)

        # with p = 1 and y refreshed each step, the drift cancels and the QP
        # weight p/eta equals SSQP's 1/eta: run SSQP on the same batch stream
        # shifted by the initial y0 draw
        rng = batch_stream(11)
        rng.integers(0, problem.n_components, size=1)  # consumed by the y0 initialization
        state = SsqpState(x=np.zeros(3))
        for t in range(horizon):
            batch = rng.integers(0, problem.n_components, size=1)
            sample = sfo_query(problem, state.x, batch)
            eta, _ = skip_sched.parameters(t)
            state = ssqp_step(state, sample, eta, 2.0, problem.regularizer)
        np.testing.assert_allclose(x_skip, state.x, atol=1e-9)

    def test_skip_branch_keeps_y(self):
        # probabilities are tiny with a large omega, so skips dominate; y must
        # change only on QP iterations
        problem = random_quadratic_problem(seed=7, dim=2, n=5)
        sched = SkipSchedule(mu=problem.strong_convexity, smoothness=problem.smoothness)
        config = RunConfig(gamma=1.0, schedule=sched, x0=np.zeros(2), horizon=30, seed=1)
        _, trace, counters = ssqp_skip_run(problem, config)
        assert counters.qmo_calls <= 30


class TestVaras:
    def test_converges_on_constrained_toy(self):
        # min ||x - (2, 3)||^2 s.t. x_1 <= 1: optimum (1, 3)
        center = np.array([2.0, 3.0])

        def component_block(x, idx):
            r = x - center
            return np.full(len(idx), r @ r), np.tile(2.0 * r, (len(idx), 1))

        def constraint_block(x):
            return np.array([x[0] - 1.0]), np.array([[1.0, 0.0]])

        problem = ConstrainedProblem(
            dim=2, n_components=1, component_block=component_block,
            smoothness=2.0, constraint_smoothness=0.0, strong_convexity=2.0,
            m=1, constraint_block=constraint_block,
        )
        sched = VarasSchedule(n=1, mu=2.0, smoothness_gamma=2.0 + 10.0 * 0.0 + 1.0)
        config = RunConfig(gamma=10.0, schedule=sched, x0=np.zeros(2), epochs=120)
        snapshot, _, _ = varas_run(problem, config)
        np.testing.assert_allclose(snapshot, [1.0, 3.0], atol=1e-6)

    def test_single_component_gradient_is_exact(self, recorded_steps):
        # n = 1: the variance-reduced estimate collapses to the full gradient
        def component_block(x, idx):
            return np.full(len(idx), 0.5 * x @ x), np.tile(x, (len(idx), 1))

        problem = ConstrainedProblem(
            dim=2, n_components=1, component_block=component_block,
            smoothness=1.0, constraint_smoothness=0.0, strong_convexity=1.0,
        )
        sched = VarasSchedule(n=1, mu=1.0, smoothness_gamma=1.0)
        config = RunConfig(gamma=1.0, schedule=sched, x0=np.ones(2), epochs=5)
        varas_run(problem, config)
        for rec in recorded_steps["varas"]:
            np.testing.assert_allclose(rec["n_tilde"], rec["y"], atol=1e-14)

    def test_exhaustive_index_unbiasedness(self, recorded_steps):
        from ssqpbench import full_gradient

        problem = random_quadratic_problem(seed=8, dim=3, n=12)
        sched = VarasSchedule(n=12, mu=problem.strong_convexity,
                              smoothness_gamma=problem.smoothness)
        config = RunConfig(gamma=1.0, schedule=sched, x0=np.zeros(3), epochs=4, seed=3)
        varas_run(problem, config)
        first_steps = [rec for rec in recorded_steps["varas"] if rec["t"] == 1]
        assert first_steps
        for rec in first_steps:
            # at t = 1 the recorded x_prev is the epoch snapshot, so the
            # variance-reduced estimate can be reconstructed exactly
            y, snap, i = rec["y"], rec["x_prev"], rec["index"]
            snap_grad = full_gradient(problem, snap)[0]
            expected = _component_grad(problem, i, y) - _component_grad(problem, i, snap) + snap_grad
            np.testing.assert_allclose(rec["n_tilde"], expected, atol=1e-12)
            # exhaustive-index mean collapses to the full gradient at y
            mean = np.mean(
                [
                    _component_grad(problem, j, y) - _component_grad(problem, j, snap) + snap_grad
                    for j in range(12)
                ],
                axis=0,
            )
            np.testing.assert_allclose(mean, full_gradient(problem, y)[0], rtol=1e-12, atol=1e-12)

    def test_state_identity_x_minus_y(self, recorded_steps):
        # x_t - y_t = alpha (z_t - z_plus) at every inner step
        problem = random_quadratic_problem(seed=9, dim=4, n=16)
        sched = VarasSchedule(n=16, mu=problem.strong_convexity,
                              smoothness_gamma=problem.smoothness)
        config = RunConfig(gamma=2.0, schedule=sched, x0=np.zeros(4), epochs=8, seed=5)
        varas_run(problem, config)
        for rec in recorded_steps["varas"]:
            lhs = rec["x"] - rec["y"]
            rhs = rec["alpha"] * (rec["z"] - rec["z_plus"])
            np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_sfo_accounting(self):
        problem = random_quadratic_problem(seed=10, dim=3, n=10)
        sched = VarasSchedule(n=10, mu=problem.strong_convexity,
                              smoothness_gamma=problem.smoothness)
        epochs = 6
        config = RunConfig(gamma=1.0, schedule=sched, x0=np.zeros(3), epochs=epochs)
        _, _, counters = varas_run(problem, config)
        inner = sum(sched.epoch_length(s) for s in range(1, epochs + 1))
        assert counters.sfo_calls == epochs * 10 + inner
        assert counters.qmo_calls == inner
        assert counters.full_gradient_passes == epochs

    def test_step_alone(self):
        # one inner step built by hand from an epoch-1 schedule and random states
        problem = random_quadratic_problem(seed=9, dim=4, n=16)
        mu, gamma = problem.strong_convexity, 2.0
        sched = VarasSchedule(n=16, mu=mu, smoothness_gamma=problem.smoothness)
        alpha, beta, omega, _ = sched.epoch_params(1)
        snapshot, x_prev, z_prev = np.random.default_rng(3).standard_normal((3, 4))
        mb, ab = mu * beta, alpha * beta
        y = ((1 + mb) * (1 - alpha - omega) * x_prev + alpha * z_prev
             + (1 + mb) * omega * snapshot) / (1 + mb * (1 - alpha))
        snap_grad, snap_table = full_gradient(problem, snapshot)
        sample = sfo_query(problem, y, np.array([5]))
        n_tilde = sample.stochastic_gradient - snap_table[5] + snap_grad
        constants = (alpha, mb, 1 + mb, ab, ab * mu, ab * mu + alpha, problem.regularizer.scaled(ab),
                     gamma * beta, 1 - alpha - omega, omega * snapshot)
        counters = OracleCounters()
        x, answer = varas_step(x_prev, z_prev, y, n_tilde, sample, None, counters, constants)
        # x_t - y_t = alpha (z_t - z_plus)
        z_plus = (z_prev + mb * y) / (1 + mb)
        np.testing.assert_allclose(x - y, alpha * (answer.u - z_plus), atol=1e-10)
        # one QMO charge, and a certified answer leaves qmo_nonconverged alone
        assert answer.converged
        assert counters == OracleCounters(qmo_calls=1)

    def test_one_component_evaluation_per_inner_step(self):
        # each epoch makes one n-index call (the full pass), then one one-index
        # call per inner step: the snapshot half comes from the pass's table
        problem = random_quadratic_problem(seed=10, dim=3, n=10)
        block = problem.component_block
        sizes = []

        def counting_block(x, idx):
            sizes.append(len(idx))
            return block(x, idx)

        problem = dataclasses.replace(problem, component_block=counting_block)
        sched = VarasSchedule(n=10, mu=problem.strong_convexity,
                              smoothness_gamma=problem.smoothness)
        epochs = 6
        config = RunConfig(gamma=1.0, schedule=sched, x0=np.zeros(3), epochs=epochs)
        _, _, counters = varas_run(problem, config)
        lengths = [sched.epoch_length(s) for s in range(1, epochs + 1)]
        assert sizes == [k for t_s in lengths for k in [10] + [1] * t_s]
        # the oracle counts are those of test_sfo_accounting
        assert counters.sfo_calls == epochs * 10 + sum(lengths)
        assert counters.qmo_calls == sum(lengths)
        assert counters.full_gradient_passes == epochs


def checkpoint_case(algorithm, problem):
    """(run function, config, expected iteration column) for one loop."""
    mu, smooth = problem.strong_convexity, problem.smoothness
    x0 = np.zeros(problem.dim)
    if algorithm == "varas":
        schedule = VarasSchedule(n=problem.n_components, mu=mu, smoothness_gamma=smooth)
        config = RunConfig(gamma=1.0, schedule=schedule, x0=x0, epochs=7, checkpoint_stride=3)
        return varas_run, config, [0, 3, 6, 7]
    run, schedule = {
        "ssqp": (ssqp_run, TunedConstantSchedule(eta=0.05)),
        "ssqp-skip": (ssqp_skip_run, SkipSchedule(mu=mu, smoothness=smooth)),
        "primal-dual": (primal_dual_run, PrimalDualSchedule(eta_x=0.05, eta_lambda=0.05)),
    }[algorithm]
    config = RunConfig(gamma=1.0, schedule=schedule, x0=x0, horizon=23, checkpoint_stride=5)
    return run, config, [0, 5, 10, 15, 20, 23]


class TestCheckpointRule:
    @pytest.mark.parametrize("algorithm", ["ssqp", "ssqp-skip", "varas", "primal-dual"])
    def test_rows_at_start_every_stride_and_last_step(self, algorithm):
        problem = random_quadratic_problem(seed=2, dim=3, n=6)
        run, config, expected = checkpoint_case(algorithm, problem)
        out = run(problem, config)
        trace, counters = out[-2], out[-1]
        assert trace.column("iteration").tolist() == expected
        # only Skip pays before row 0: one batch for its control variate y0
        assert trace.rows[0].sfo == (1 if algorithm == "ssqp-skip" else 0)
        assert trace.rows[0].qmo == 0
        assert (trace.rows[-1].sfo, trace.rows[-1].qmo) == (counters.sfo_calls, counters.qmo_calls)


def repelling_problem(k):
    """1-d f(x) = -(k/2) x^2 on two components: every loop's iterate runs off to infinity."""

    def component_block(x, idx):
        return np.full(len(idx), -0.5 * k * x @ x), np.tile(-k * x, (len(idx), 1))

    return ConstrainedProblem(
        dim=1, n_components=2, component_block=component_block,
        smoothness=1.0, constraint_smoothness=0.0, strong_convexity=1.0,
    )


class TestEveryLoopGuard:
    """Each loop's divergence message, and the partial trace it carries: no row for the failing step."""

    @pytest.mark.parametrize(
        "run, k, schedule, length, where, rows",
        [
            (ssqp_run, 1.0, TunedConstantSchedule(eta=10.0), {"horizon": 1000},
             "ssqp iteration 11", [0, 3, 6, 9]),
            (ssqp_skip_run, 100.0, SkipSchedule(mu=1.0, smoothness=1.0), {"horizon": 1000},
             "ssqp-skip iteration 8", [0, 3, 6]),
            (varas_run, 100.0, VarasSchedule(n=2, mu=1.0, smoothness_gamma=1.0), {"epochs": 50},
             "varas epoch 6 inner 1", [0, 3]),
            (primal_dual_run, 1.0, PrimalDualSchedule(eta_x=10.0, eta_lambda=1.0), {"horizon": 1000},
             "primal-dual iteration 11", [0, 3, 6, 9]),
        ],
        ids=["ssqp", "ssqp-skip", "varas", "primal-dual"],
    )
    def test_message_and_partial_trace(self, run, k, schedule, length, where, rows):
        config = RunConfig(gamma=1.0, schedule=schedule, x0=np.ones(1), checkpoint_stride=3, **length)
        with pytest.raises(DivergenceError) as err:
            run(repelling_problem(k), config)
        assert str(err.value) == f"iterate norm exceeded 1e+12 during {where}"
        assert err.value.trace.column("iteration").tolist() == rows

    @pytest.mark.parametrize(
        "run, length",
        [(ssqp_run, {"horizon": 5}), (ssqp_skip_run, {"horizon": 5}), (varas_run, {"epochs": 2})],
        ids=["ssqp", "ssqp-skip", "varas"],
    )
    def test_foreign_schedule_is_a_type_error(self, run, length):
        config = RunConfig(gamma=1.0, schedule=PrimalDualSchedule(eta_x=0.1, eta_lambda=0.1),
                           x0=np.zeros(1), **length)
        with pytest.raises(TypeError):
            run(toy_problem(), config)


class TestRunStreams:
    """``_Run`` serves pre-drawn chunks; each draw must equal the per-call draw it replaces."""

    @staticmethod
    def run_and_streams(problem, seed=5, batch_size=1):
        config = RunConfig(gamma=1.0, schedule=TunedConstantSchedule(eta=0.1), x0=np.zeros(problem.dim),
                           horizon=1, batch_size=batch_size, seed=seed)
        batch_seed, coin_seed = np.random.SeedSequence(seed).spawn(2)
        run = _Run(problem, config, SSQP_SCHEDULES)
        return run, np.random.default_rng(batch_seed), np.random.default_rng(coin_seed)

    @pytest.mark.parametrize(
        "sizes",
        [
            [1] * (_CHUNK + 7),
            [4] * (_CHUNK // 4 + 9),
            [1, 4, 3, 7, 2] * (_CHUNK // 8),
            [3, _CHUNK + 5, 1, 6],
        ],
        ids=["size1", "size4", "mixed", "over-chunk"],
    )
    def test_batch_matches_per_call_draws(self, sizes):
        assert sum(sizes) > _CHUNK
        problem = random_quadratic_problem(seed=2, dim=3, n=450)
        run, batch_rng, _ = self.run_and_streams(problem)
        for size in sizes:
            np.testing.assert_array_equal(run.batch(size), batch_rng.integers(0, 450, size=size))

    def test_default_size_is_config_batch_size(self):
        problem = random_quadratic_problem(seed=2, dim=3, n=100)
        run, batch_rng, _ = self.run_and_streams(problem, batch_size=4)
        for _ in range(_CHUNK // 4 + 3):
            np.testing.assert_array_equal(run.batch(), batch_rng.integers(0, 100, size=4))

    def test_coin_matches_per_call_draws(self):
        problem = random_quadratic_problem(seed=2, dim=3, n=10)
        run, _, coin_rng = self.run_and_streams(problem)
        ps = np.random.default_rng(1).random(2 * _CHUNK + 11)
        flips = [run.coin(p) for p in ps]
        assert flips == [bool(coin_rng.random() < p) for p in ps]
        assert 0 < sum(flips) < len(flips)

    def test_streams_are_independent(self):
        # the coin stream never shifts the batch stream, whatever the interleaving
        problem = random_quadratic_problem(seed=2, dim=3, n=450)
        run, batch_rng, _ = self.run_and_streams(problem)
        for t in range(_CHUNK + 50):
            if t % 3 == 0:
                run.coin(0.5)
            np.testing.assert_array_equal(run.batch(1), batch_rng.integers(0, 450, size=1))

    def test_served_batches_are_read_only(self):
        problem = random_quadratic_problem(seed=2, dim=3, n=10)
        run, _, _ = self.run_and_streams(problem)
        with pytest.raises(ValueError):
            run.batch(2)[0] = 0


class TestRecordedSteps:
    def test_fixture_sees_every_step(self, recorded_steps):
        # a loop that bound its step function locally would leave the audits
        # that read these records empty instead of failing
        problem = random_quadratic_problem(seed=10, dim=3, n=10)
        sched = VarasSchedule(n=10, mu=problem.strong_convexity, smoothness_gamma=problem.smoothness)
        varas_run(problem, RunConfig(gamma=1.0, schedule=sched, x0=np.zeros(3), epochs=6))
        ssqp_run(problem, RunConfig(gamma=1.0, schedule=TunedConstantSchedule(eta=0.05),
                                    x0=np.zeros(3), horizon=40))
        lengths = [sched.epoch_length(s) for s in range(1, 7)]
        assert len(recorded_steps["varas"]) == sum(lengths)
        assert [rec["t"] for rec in recorded_steps["varas"]] == [t for t_s in lengths for t in range(1, t_s + 1)]
        assert len(recorded_steps["ssqp"]) == 40


class TestThreePointAudit:
    def run_recorded(self, recorded_steps, problem, gamma, horizon=100, eta=0.05, seed=0):
        config = RunConfig(
            gamma=gamma, schedule=TunedConstantSchedule(eta=eta), x0=np.zeros(problem.dim),
            horizon=horizon, seed=seed,
        )
        ssqp_run(problem, config)
        return recorded_steps["ssqp"]

    def test_unconstrained_run_clean(self, recorded_steps):
        problem = random_quadratic_problem(seed=11, dim=3, n=8, m=0)
        x_star, _ = _mean_quadratic_optimum(problem)
        steps = self.run_recorded(recorded_steps, problem, gamma=1.0)
        assert three_point_audit(problem, 1.0, x_star, steps) == 0

    def test_constrained_toy_clean(self, recorded_steps):
        problem = random_quadratic_problem(seed=12, dim=3, n=8, m=2)
        q, c, a, b = _quadratic_data(problem)
        x_star, _ = solve_kkt_quadratic(q, c, a, b)
        steps = self.run_recorded(recorded_steps, problem, gamma=20.0)
        assert three_point_audit(problem, 20.0, x_star, steps) == 0

    def test_corrupted_step_detected(self, recorded_steps):
        problem = random_quadratic_problem(seed=12, dim=3, n=8, m=2)
        q, c, a, b = _quadratic_data(problem)
        x_star, _ = solve_kkt_quadratic(q, c, a, b)
        steps = self.run_recorded(recorded_steps, problem, gamma=20.0)
        steps[10]["x_next"] = steps[10]["x_next"] + 0.1
        assert three_point_audit(problem, 20.0, x_star, steps) > 0

    def test_requires_recorded_steps(self):
        # a run outside the recorded_steps fixture leaves no records
        problem = random_quadratic_problem(seed=13, dim=2, n=4, m=0)
        with pytest.raises(ValueError):
            three_point_audit(problem, 1.0, np.zeros(2), [])


def _component_grad(problem, i, x):
    """Gradient of the single component i, read off a one-index block."""
    return problem.component_values_grads(x, np.array([i]))[1][0]


def _quadratic_data(problem):
    """Recover (Q, c, A, b) of a random_quadratic_problem from its block evaluators."""
    d = problem.dim
    grad0 = np.mean([_component_grad(problem, i, np.zeros(d)) for i in range(problem.n_components)], axis=0)
    q = np.column_stack(
        [
            np.mean([_component_grad(problem, i, e) for i in range(problem.n_components)], axis=0) - grad0
            for e in np.eye(d)
        ]
    )
    cvals, a = problem.constraint_values_grads(np.zeros(d))
    return q, grad0, a, -cvals


def _mean_quadratic_optimum(problem):
    q, c, _, _ = _quadratic_data(problem)
    x = np.linalg.solve(q, -c)
    return x, None
