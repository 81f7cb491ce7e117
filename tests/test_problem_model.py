"""Oracle plumbing tests: sampling, counting, and the convexity helpers."""

import numpy as np
import pytest

from ssqpbench import (
    L1,
    BoxIndicator,
    ConstrainedProblem,
    NonFiniteEvaluationError,
    OracleCounters,
    RunConfig,
    SkipSchedule,
    Zero,
    full_gradient,
    sfo_query,
    ssqp_skip_run,
)
from ssqpbench.problems import generate_regression_problem, random_quadratic_problem


def two_component_problem():
    """d=1, f_1(x) = x^2, f_2(x) = (x-1)^2, no constraints."""

    centers = np.array([0.0, 1.0])

    def component_block(x, idx):
        r = x[0] - centers[idx]
        return r**2, (2.0 * r)[:, None]

    return ConstrainedProblem(
        dim=1, n_components=2, component_block=component_block,
        smoothness=2.0, constraint_smoothness=0.0,
    )


def _component_grad(problem, i, x):
    """Gradient of the single component i, read off a one-index block."""
    return problem.component_values_grads(x, np.array([i]))[1][0]


class TestRegularizers:
    def test_zero_is_identity_prox(self):
        y = np.array([3.0, -1.0])
        h = Zero()
        assert h.value(y) == 0.0
        assert np.array_equal(h.prox(y, 5.0), y)
        assert h.in_domain(y)

    def test_box_prox_clamps(self):
        h = BoxIndicator(lower=np.array([0.0, 0.0]), upper=np.array([1.0, 1.0]))
        np.testing.assert_allclose(h.prox(np.array([-2.0, 0.5]), 1.0), [0.0, 0.5])
        assert h.value(np.array([0.5, 0.5])) == 0.0
        assert h.value(np.array([2.0, 0.5])) == np.inf
        assert not h.in_domain(np.array([2.0, 0.5]))

    def test_box_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            BoxIndicator(lower=np.array([1.0]), upper=np.array([0.0]))

    def test_l1_prox_soft_thresholds(self):
        h = L1(weight=1.0)
        # prox_{h/rho}(y) = sign(y) max(|y| - w/rho, 0)
        np.testing.assert_allclose(h.prox(np.array([2.0, -0.3, 0.7]), 2.0), [1.5, 0.0, 0.2])
        assert h.value(np.array([1.0, -2.0])) == 3.0

    def test_l1_scaling(self):
        assert L1(2.0).scaled(3.0) == L1(6.0)
        with pytest.raises(ValueError):
            L1(-1.0)


class TestBlockContract:
    @staticmethod
    def build(**overrides):
        kwargs = dict(
            dim=2, n_components=3,
            component_block=lambda x, idx: (np.zeros(len(idx)), np.zeros((len(idx), 2))),
            smoothness=1.0, constraint_smoothness=0.0,
        )
        kwargs.update(overrides)
        return ConstrainedProblem(**kwargs)

    def test_constraint_block_shapes(self):
        block = lambda x: (np.array([x[0], -1.0, 2.0]), np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]]))
        problem = self.build(m=3, constraint_block=block)
        vals, grads = problem.constraint_values_grads(np.array([0.5, 0.0]))
        np.testing.assert_array_equal(vals, [0.5, -1.0, 2.0])
        assert grads.shape == (3, 2)

    def test_rejects_missing_component_block(self):
        with pytest.raises(ValueError):
            self.build(component_block=None)

    def test_rejects_constraints_without_block(self):
        with pytest.raises(ValueError):
            self.build(m=2)

    def test_rejects_block_without_constraints(self):
        with pytest.raises(ValueError):
            self.build(constraint_block=lambda x: (np.zeros(1), np.zeros((1, 2))))

    def test_rejects_negative_m(self):
        with pytest.raises(ValueError):
            self.build(m=-1)


class TestSfoQuery:
    def test_two_component_batch_mean(self):
        # batch {1,2} at x=0: gradients 0 and -2, mean -1
        problem = two_component_problem()
        counters = OracleCounters()
        sample = sfo_query(problem, np.array([0.0]), [0, 1], counters)
        np.testing.assert_allclose(sample.stochastic_gradient, [-1.0])
        assert counters.sfo_calls == 2

    def test_empty_constraint_bundle(self):
        problem = two_component_problem()
        counters = OracleCounters()
        sample = sfo_query(problem, np.array([0.3]), [0], counters)
        assert sample.constraint_values.shape == (0,)
        assert sample.constraint_gradients.shape == (0, 1)
        assert counters.sfo_calls == 1

    def test_full_batch_equals_full_gradient(self):
        problem = random_quadratic_problem(seed=3, dim=5, n=12)
        x = np.linspace(-1, 1, 5)
        sample = sfo_query(problem, x, np.arange(12))
        np.testing.assert_allclose(sample.stochastic_gradient, full_gradient(problem, x)[0], rtol=1e-14)

    def test_counter_increment_is_batch_size(self):
        problem = two_component_problem()
        counters = OracleCounters()
        sfo_query(problem, np.array([0.0]), [0, 1, 0], counters)
        assert counters.sfo_calls == 3

    def test_index_out_of_range(self):
        problem = two_component_problem()
        with pytest.raises(IndexError):
            sfo_query(problem, np.array([0.0]), [5])

    def test_non_finite_gradient_aborts(self):
        problem = ConstrainedProblem(
            dim=1, n_components=1,
            component_block=lambda x, idx: (np.zeros(len(idx)), np.full((len(idx), 1), np.nan)),
            smoothness=1.0, constraint_smoothness=0.0,
        )
        with pytest.raises(NonFiniteEvaluationError):
            sfo_query(problem, np.array([0.0]), [0])


class TestLeanSfoQuery:
    """The cheaper checks in ``sfo_query`` keep every exception and the exact mean."""

    @staticmethod
    def constrained_problem(cval=0.0, cgrad=1.0):
        return ConstrainedProblem(
            dim=1, n_components=2,
            component_block=lambda x, idx: (np.zeros(len(idx)), np.full((len(idx), 1), x[0])),
            smoothness=1.0, constraint_smoothness=0.0,
            m=1, constraint_block=lambda x: (np.array([cval]), np.array([[cgrad]])),
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_point(self, bad):
        with pytest.raises(NonFiniteEvaluationError, match="query point"):
            sfo_query(self.constrained_problem(), np.array([bad]), [0])

    def test_non_finite_constraint_value(self):
        with pytest.raises(NonFiniteEvaluationError, match="constraint value"):
            sfo_query(self.constrained_problem(cval=np.nan), np.array([0.0]), [0])

    def test_non_finite_constraint_gradient(self):
        with pytest.raises(NonFiniteEvaluationError, match="constraint gradient"):
            sfo_query(self.constrained_problem(cgrad=np.inf), np.array([0.0]), [0])

    def test_negative_index(self):
        with pytest.raises(IndexError):
            sfo_query(two_component_problem(), np.array([0.0]), [0, -1])

    @staticmethod
    def bundle_problem(grads=None, cvals=None, cgrads=None):
        """d = 4, m = 3; every block finite unless given."""
        grads = np.zeros((2, 4)) if grads is None else grads
        cvals = np.zeros(3) if cvals is None else cvals
        cgrads = np.ones((3, 4)) if cgrads is None else cgrads
        return ConstrainedProblem(
            dim=4, n_components=2,
            component_block=lambda x, idx: (np.zeros(len(idx)), grads[idx]),
            smoothness=1.0, constraint_smoothness=0.0,
            m=3, constraint_block=lambda x: (cvals, cgrads),
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("what", ["query point", "stochastic gradient", "constraint value", "constraint gradient"])
    def test_non_finite_entry_past_the_first(self, what, bad):
        x, grads, cvals, cgrads = np.zeros(4), np.zeros((2, 4)), np.zeros(3), np.ones((3, 4))
        {"query point": x, "stochastic gradient": grads[1], "constraint value": cvals,
         "constraint gradient": cgrads[1]}[what][2] = bad
        with pytest.raises(NonFiniteEvaluationError, match=what):
            sfo_query(self.bundle_problem(grads, cvals, cgrads), x, [0, 1])

    def test_huge_finite_bundle_passes(self):
        # a dot product over these entries overflows; the checks must not
        big = np.full((3, 4), 1e200)
        problem = self.bundle_problem(grads=np.full((2, 4), -1e200), cvals=big[:, 0], cgrads=big)
        sample = sfo_query(problem, np.full(4, 1e200), [0, 1])
        np.testing.assert_array_equal(sample.stochastic_gradient, np.full(4, -1e200))
        np.testing.assert_array_equal(sample.constraint_gradients, big)

    def test_gradient_only_query_skips_the_bundle(self):
        calls = []

        def constraint_block(x):
            calls.append(x)
            return np.array([np.nan]), np.array([[np.nan]])

        problem = ConstrainedProblem(
            dim=1, n_components=2,
            component_block=lambda x, idx: (np.zeros(len(idx)), np.full((len(idx), 1), 2.0)),
            smoothness=1.0, constraint_smoothness=0.0, m=1, constraint_block=constraint_block,
        )
        counters = OracleCounters()
        sample = sfo_query(problem, np.array([0.0]), [0, 1], counters, constraints=False)
        assert calls == []
        assert sample.constraint_values is None and sample.constraint_gradients is None
        np.testing.assert_array_equal(sample.stochastic_gradient, [2.0])
        assert counters.sfo_calls == 2

    @pytest.mark.parametrize("b", [1, 3, 8])
    def test_mean_is_bitwise_ndarray_mean(self, b):
        problem = random_quadratic_problem(seed=4, dim=6, n=20)
        rng = np.random.default_rng(b)
        for _ in range(20):
            x = rng.standard_normal(6)
            idx = rng.integers(0, 20, size=b)
            _, grads = problem.component_values_grads(x, idx)
            got = sfo_query(problem, x, idx).stochastic_gradient
            assert got.tobytes() == grads.mean(axis=0).tobytes()

    def test_skip_run_evaluates_the_bundle_only_for_qps_and_rows(self):
        problem = random_quadratic_problem(seed=4, dim=3, n=8, m=2)
        calls = []
        block = problem.constraint_block

        def counted(x):
            calls.append(1)
            return block(x)

        problem.constraint_block = counted
        sched = SkipSchedule(mu=problem.strong_convexity, smoothness=problem.smoothness)
        config = RunConfig(gamma=5.0, schedule=sched, x0=np.zeros(3), horizon=400,
                           checkpoint_stride=7, seed=2)
        _, trace, counters = ssqp_skip_run(problem, config)
        assert 0 < counters.qmo_calls < config.horizon
        # no f_star: each row evaluates the bundle once, for its violation columns
        assert len(calls) == counters.qmo_calls + len(trace)


class TestOneIndexQuery:
    """A one-index query skips the batch reductions but keeps every check."""

    @staticmethod
    def row_problem(row):
        calls = []

        def component_block(x, idx):
            calls.append(idx)
            return np.zeros(len(idx)), np.tile(row, (len(idx), 1))

        problem = ConstrainedProblem(
            dim=len(row), n_components=3, component_block=component_block,
            smoothness=1.0, constraint_smoothness=0.0,
        )
        return problem, calls

    def test_gradient_is_bitwise_the_row_mean(self):
        row = np.array([-0.0, 5e-324, 1e308, -1e308, 0.0, 2.5])
        problem, _ = self.row_problem(row)
        got = sfo_query(problem, np.zeros(6), [1]).stochastic_gradient
        assert got.tobytes() == row[None].mean(axis=0).tobytes()
        # the mean reads -0.0 as +0.0 and keeps every other entry
        assert not np.signbit(got[0]) and got[1:].tobytes() == row[1:].tobytes()

    @pytest.mark.parametrize("index", [3, -1])
    def test_index_out_of_range(self, index):
        problem, calls = self.row_problem(np.ones(2))
        with pytest.raises(IndexError, match="out of range"):
            sfo_query(problem, np.zeros(2), [index])
        assert calls == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_row_aborts(self, bad):
        problem, _ = self.row_problem(np.array([0.0, bad, 1.0]))
        with pytest.raises(NonFiniteEvaluationError, match="stochastic gradient"):
            sfo_query(problem, np.zeros(3), [0])

    def test_one_block_call_per_query(self):
        problem, calls = self.row_problem(np.ones(2))
        sfo_query(problem, np.zeros(2), np.array([2]))
        assert [list(c) for c in calls] == [[2]]

    @pytest.mark.parametrize("batch", [[1.7], [True], [449.5], np.array([0, 1], dtype=float)])
    def test_non_integer_indices_rejected(self, batch):
        # np.asarray(batch, dtype=int) used to truncate these to a valid index
        problem, _ = generate_regression_problem(seed=11, d=14, n=450, critical=10, tolerance=1.3)
        assert problem.n_components == 450
        with pytest.raises(IndexError, match="1-D integer array"):
            sfo_query(problem, np.zeros(14), batch)

    @pytest.mark.parametrize("batch", [3, [[1, 2]]])
    def test_non_vector_batch_rejected(self, batch):
        # a 2-D batch used to return a 2-D "gradient" charged as two SFO calls
        problem = random_quadratic_problem(seed=1, dim=3, n=4)
        counters = OracleCounters()
        with pytest.raises(IndexError, match="1-D integer array"):
            sfo_query(problem, np.zeros(3), batch, counters)
        assert counters.sfo_calls == 0

    def test_empty_batch_is_still_a_value_error(self):
        problem, _ = self.row_problem(np.ones(2))
        with pytest.raises(ValueError, match="nonempty"):
            sfo_query(problem, np.zeros(2), [])


class TestFullGradient:
    def test_two_quadratics(self):
        # f_1 = x^2, f_2 = 2x^2 at x=1: (2 + 4)/2 = 3
        coeffs = np.array([1.0, 2.0])

        def component_block(x, idx):
            c = coeffs[idx]
            return c * x[0] ** 2, (2.0 * c * x[0])[:, None]

        problem = ConstrainedProblem(
            dim=1, n_components=2, component_block=component_block,
            smoothness=4.0, constraint_smoothness=0.0,
        )
        np.testing.assert_allclose(full_gradient(problem, np.array([1.0]))[0], [3.0])

    def test_symmetric_components_cancel(self):
        centers = np.array([-2.0, -1.0, 1.0, 2.0])

        def component_block(x, idx):
            r = x[0] - centers[idx]
            return r**2, (2.0 * r)[:, None]

        problem = ConstrainedProblem(
            dim=1, n_components=4, component_block=component_block,
            smoothness=2.0, constraint_smoothness=0.0,
        )
        np.testing.assert_allclose(full_gradient(problem, np.array([0.0]))[0], [0.0], atol=1e-15)

    def test_matches_reversed_summation(self):
        problem = random_quadratic_problem(seed=7, dim=4, n=50)
        x = np.array([0.4, -1.2, 0.1, 2.0])
        expected = np.zeros(4)
        for i in reversed(range(50)):
            expected += _component_grad(problem, i, x)
        expected /= 50
        np.testing.assert_allclose(full_gradient(problem, x)[0], expected, rtol=1e-12)

    def test_charges_n_sfo_and_one_pass(self):
        problem = random_quadratic_problem(seed=0, dim=3, n=9)
        counters = OracleCounters()
        full_gradient(problem, np.zeros(3), counters)
        assert counters.sfo_calls == 9
        assert counters.full_gradient_passes == 1


class TestProblemValidation:
    @pytest.mark.parametrize("n", [0, -1])
    def test_needs_at_least_one_component(self, n):
        with pytest.raises(ValueError, match="component count"):
            ConstrainedProblem(
                dim=1, n_components=n,
                component_block=lambda x, idx: (np.zeros(len(idx)), np.zeros((len(idx), 1))),
                smoothness=1.0, constraint_smoothness=0.0,
            )


class TestShippedProblemInvariants:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_convexity_spot_check(self, seed):
        problem = random_quadratic_problem(seed=seed, dim=4, n=8)
        rng = np.random.default_rng(seed + 100)
        for _ in range(100):
            u, v = rng.standard_normal(4), rng.standard_normal(4)
            # the Bregman divergence f(u) - f(v) - <grad f(v), u - v> of a convex f is >= 0
            divergence = problem.objective_value(u) - problem.objective_value(v) - full_gradient(problem, v)[0] @ (u - v)
            assert divergence >= -1e-10

    def test_unbiasedness_over_singletons(self):
        problem = random_quadratic_problem(seed=2, dim=3, n=11)
        x = np.array([0.5, -0.5, 1.0])
        mean = np.zeros(3)
        for i in range(11):
            mean += sfo_query(problem, x, [i]).stochastic_gradient
        mean /= 11
        np.testing.assert_allclose(mean, full_gradient(problem, x)[0], rtol=1e-12)

    def test_component_smoothness_bound(self):
        problem = random_quadratic_problem(seed=4, dim=5, n=7)
        rng = np.random.default_rng(9)
        for _ in range(50):
            u, v = rng.standard_normal(5), rng.standard_normal(5)
            i = int(rng.integers(7))
            gu = _component_grad(problem, i, u)
            gv = _component_grad(problem, i, v)
            assert np.linalg.norm(gu - gv) <= problem.smoothness * np.linalg.norm(u - v) + 1e-8

    def test_counter_conservation(self):
        problem = random_quadratic_problem(seed=6, dim=3, n=10)
        counters = OracleCounters()
        batch_sizes = [1, 4, 2]
        for b in batch_sizes:
            sfo_query(problem, np.zeros(3), list(range(b)), counters)
        full_gradient(problem, np.zeros(3), counters)
        full_gradient(problem, np.ones(3), counters)
        assert counters.sfo_calls == sum(batch_sizes) + 10 * counters.full_gradient_passes
        assert counters.full_gradient_passes == 2
