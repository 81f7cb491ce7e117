"""Primal-dual stochastic subgradient baseline behavior."""

import numpy as np
import pytest

from ssqpbench import (
    ConstrainedProblem,
    L1,
    RunConfig,
    Zero,
    primal_dual_run,
    primal_dual_step,
    sfo_query,
)
from ssqpbench.baselines import PrimalDualSchedule, PrimalDualState
from ssqpbench.problems import random_quadratic_problem


def one_d_constrained():
    """f(x) = x^2/2 with g(x) = 1 - x <= 0; KKT optimum x* = 1, lambda* = 1."""

    def component_block(x, idx):
        return np.full(len(idx), 0.5 * x[0] ** 2), np.full((len(idx), 1), x[0])

    def constraint_block(x):
        return np.array([1.0 - x[0]]), np.array([[-1.0]])

    return ConstrainedProblem(
        dim=1, n_components=1, component_block=component_block,
        smoothness=1.0, constraint_smoothness=0.0, strong_convexity=1.0,
        m=1, constraint_block=constraint_block,
    )


class TestPrimalDualStep:
    def test_unconstrained_is_prox_sgd(self):
        problem = random_quadratic_problem(seed=0, dim=3, n=6, m=0)
        x = np.ones(3)
        sample = sfo_query(problem, x, [2])
        state = primal_dual_step(
            PrimalDualState(x=x, duals=np.zeros(0)), sample, 0.1, 0.1, Zero(),
        )
        np.testing.assert_allclose(state.x, x - 0.1 * sample.stochastic_gradient, atol=1e-14)

    def test_l1_prox_applied(self):
        problem = random_quadratic_problem(seed=0, dim=3, n=6, m=0)
        x = np.zeros(3)
        sample = sfo_query(problem, x, [0])
        reg = L1(weight=100.0)  # threshold large enough to zero the step
        state = primal_dual_step(PrimalDualState(x=x, duals=np.zeros(0)), sample, 0.1, 0.1, reg)
        np.testing.assert_allclose(state.x, np.zeros(3), atol=1e-14)

    def test_inactive_duals_stay_zero(self):
        problem = one_d_constrained()
        x = np.array([2.0])  # feasible: g = -1
        sample = sfo_query(problem, x, [0])
        state = primal_dual_step(PrimalDualState(x=x, duals=np.zeros(1)), sample, 0.1, 0.1, Zero())
        assert state.duals[0] == 0.0

    def test_duals_nonnegative(self):
        problem = one_d_constrained()
        state = PrimalDualState(x=np.array([0.0]), duals=np.array([0.05]))
        for _ in range(20):
            sample = sfo_query(problem, state.x, [0])
            state = primal_dual_step(state, sample, 0.05, 0.5, Zero())
            assert np.all(state.duals >= 0.0)

    def test_clipping_bounds_the_step(self):
        problem = one_d_constrained()
        x = np.array([100.0])
        sample = sfo_query(problem, x, [0])
        clip = 1.0
        state = primal_dual_step(
            PrimalDualState(x=x, duals=np.zeros(1)), sample, 0.1, 0.1, Zero(), clip=clip,
        )
        assert abs(state.x[0] - x[0]) <= 0.1 * clip + 1e-12


class TestPrimalDualRun:
    def test_schedule_type_enforced(self):
        problem = one_d_constrained()
        from ssqpbench import TunedConstantSchedule

        config = RunConfig(gamma=1.0, schedule=TunedConstantSchedule(0.1),
                           x0=np.zeros(1), horizon=5)
        with pytest.raises(TypeError):
            primal_dual_run(problem, config)

    def test_converges_to_toy_saddle_point(self):
        problem = one_d_constrained()
        config = RunConfig(
            gamma=1.0, schedule=PrimalDualSchedule(eta_x=0.05, eta_lambda=0.05),
            x0=np.zeros(1), horizon=5000, checkpoint_stride=500,
        )
        x, trace, counters = primal_dual_run(problem, config)
        assert x[0] == pytest.approx(1.0, abs=1e-2)
        assert counters.qmo_calls == 0
        assert counters.sfo_calls == 5000

    def test_qmo_column_always_zero(self):
        problem = random_quadratic_problem(seed=1, dim=3, n=8, m=2)
        config = RunConfig(
            gamma=1.0, schedule=PrimalDualSchedule(eta_x=0.01, eta_lambda=0.01),
            x0=np.zeros(3), horizon=100, checkpoint_stride=10,
        )
        _, trace, _ = primal_dual_run(problem, config)
        assert np.all(trace.column("qmo") == 0)

    def test_m0_coupled_seed_matches_prox_sgd(self):
        problem = random_quadratic_problem(seed=2, dim=4, n=10, m=0)
        config = RunConfig(
            gamma=1.0, schedule=PrimalDualSchedule(eta_x=0.03, eta_lambda=0.1),
            x0=np.zeros(4), horizon=150, seed=9,
        )
        x_run, _, _ = primal_dual_run(problem, config)

        # the run's batch stream is child 0 of SeedSequence(seed).spawn(2)
        rng = np.random.default_rng(np.random.SeedSequence(9).spawn(2)[0])
        x = np.zeros(4)
        for _ in range(150):
            batch = rng.integers(0, problem.n_components, size=1)
            g = sfo_query(problem, x, batch).stochastic_gradient
            x = problem.regularizer.prox(x - 0.03 * g, 1.0 / 0.03)
        np.testing.assert_allclose(x_run, x, atol=1e-12)

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            PrimalDualSchedule(eta_x=0.0, eta_lambda=0.1)
        with pytest.raises(ValueError):
            PrimalDualSchedule(eta_x=0.1, eta_lambda=0.1, clip=-1.0)
