"""Benchmark problem generators, reference solvers, and gradient self-checks."""

import numpy as np
import pytest

from ssqpbench import (
    brute_force_optimum,
    generate_current_ensemble,
    generate_regression_problem,
    make_usv_problem,
    minimal_feasible_tolerance,
    path_from_decision,
    random_quadratic_problem,
    solve_kkt_quadratic,
    straight_line_path,
    usv_component_block,
)
from ssqpbench.problems import InfeasibleToleranceError, load_regression_csv


def finite_difference_jacobian(fn, x, h=1e-5):
    """Central differences of every row of a block's values: (rows, d)."""
    cols = []
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((fn(x + e) - fn(x - e)) / (2.0 * h))
    return np.column_stack(cols)


def assert_block_matches_finite_differences(block, x, rows, rtol=1e-4, atol=1e-6):
    """block(x) -> (vals (rows,), grads (rows, d)); every gradient row against central differences."""
    vals, grads = block(x)
    assert vals.shape == (rows,) and grads.shape == (rows, len(x))
    fd = finite_difference_jacobian(lambda p: block(p)[0], x)
    np.testing.assert_allclose(grads, fd, rtol=rtol, atol=atol)


def _quadratic_data(problem):
    """Recover (Q, c, A, b) of a random_quadratic_problem from its block evaluators."""
    d = problem.dim
    idx = np.arange(problem.n_components)
    grad0 = problem.component_values_grads(np.zeros(d), idx)[1].mean(axis=0)
    q = np.column_stack(
        [problem.component_values_grads(e, idx)[1].mean(axis=0) - grad0 for e in np.eye(d)]
    )
    cvals, a = problem.constraint_values_grads(np.zeros(d))
    return q, grad0, a, -cvals


class TestCurrentEnsemble:
    def test_plug_back_residual(self):
        # every estimate must reproduce its own noisy observations exactly
        w_list, z_list, w_true, z_true = generate_current_ensemble(seed=0, n=20)
        rng = np.random.default_rng(0)
        rng.standard_normal((2, 2))
        rng.standard_normal(2)
        positions = np.array([[0.0, 0.0], [200.0, 0.0], [100.0, 100.0]])
        for i in range(20):
            xi = rng.standard_normal(2)
            for y in positions:
                observed = (1.0 + xi) * (w_true @ y + z_true)
                np.testing.assert_allclose(w_list[i] @ y + z_list[i], observed, atol=1e-9)

    def test_noiseless_recovery(self):
        # statistically: the ensemble mean should hover near the ground truth,
        # and each member solves a consistent 6x6 system (checked above); here
        # verify determinism and shape contract
        w_list, z_list, _, _ = generate_current_ensemble(seed=5, n=7)
        w_again, z_again, _, _ = generate_current_ensemble(seed=5, n=7)
        np.testing.assert_array_equal(w_list, w_again)
        np.testing.assert_array_equal(z_list, z_again)
        assert w_list.shape == (7, 2, 2) and z_list.shape == (7, 2)

    def test_requires_positive_n(self):
        with pytest.raises(ValueError):
            generate_current_ensemble(seed=0, n=0)


class TestUsvProblem:
    def test_endpoint_elimination(self):
        problem, usv = make_usv_problem(seed=1, n=5, horizon=12)
        rng = np.random.default_rng(3)
        x = rng.uniform(0.0, 200.0, size=problem.dim)
        path = path_from_decision(usv, x)
        np.testing.assert_array_equal(path[0], usv.p_start)
        np.testing.assert_array_equal(path[-1], usv.p_dest)
        assert problem.m == usv.horizon - 1

    def test_straight_line_zero_current_energy(self):
        # zero currents and equispaced waypoints of step s give (T-1) s^3
        _, usv = make_usv_problem(seed=1, n=3, horizon=10)
        usv.currents_w[:] = 0.0
        usv.currents_z[:] = 0.0
        x = straight_line_path(usv)
        step = np.linalg.norm((usv.p_dest - usv.p_start) / (usv.horizon - 1))
        values, _ = usv_component_block(usv, x, np.array([0, 2]))
        np.testing.assert_allclose(values, (usv.horizon - 1) * step**3, rtol=1e-12)

    def test_component_block_values_match_direct_energy(self):
        problem, usv = make_usv_problem(seed=2, n=4, horizon=8)
        rng = np.random.default_rng(6)
        idx = np.array([3, 0, 2, 3, 1])
        for _ in range(10):
            x = rng.uniform(20.0, 180.0, size=problem.dim)
            path = path_from_decision(usv, x)
            vals, _ = problem.component_values_grads(x, idx)
            for j, i in enumerate(idx):
                w, z = usv.currents_w[i], usv.currents_z[i]
                energy = sum(
                    np.linalg.norm(path[t] - w @ path[t] - path[t + 1] - z) ** 3
                    for t in range(usv.horizon - 1)
                )
                assert vals[j] == pytest.approx(energy, rel=1e-12)

    def test_component_gradient_matches_finite_differences(self):
        problem, _ = make_usv_problem(seed=2, n=4, horizon=8)
        rng = np.random.default_rng(1)
        idx = np.array([0, 1, 2, 3, 1])
        for _ in range(20):
            x = rng.uniform(20.0, 180.0, size=problem.dim)
            assert_block_matches_finite_differences(
                lambda p: problem.component_values_grads(p, idx), x, len(idx), atol=1e-3
            )

    def test_constraint_gradient_matches_finite_differences(self):
        problem, usv = make_usv_problem(seed=2, n=4, horizon=8)
        rng = np.random.default_rng(2)
        for _ in range(5):
            x = rng.uniform(20.0, 180.0, size=problem.dim)
            assert_block_matches_finite_differences(problem.constraint_values_grads, x, usv.m)
            path = path_from_decision(usv, x)
            seg = np.sum((path[:-1] - path[1:]) ** 2, axis=1)
            np.testing.assert_allclose(
                problem.constraint_values_grads(x)[0], seg - usv.v_max**2, rtol=1e-12
            )

    def test_constraint_smoothness_is_four(self):
        # numerically bound the constraint Hessian: gradient map is 4-Lipschitz
        problem, _ = make_usv_problem(seed=3, n=3, horizon=9)
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(200):
            u = rng.uniform(0.0, 200.0, size=problem.dim)
            v = rng.uniform(0.0, 200.0, size=problem.dim)
            diff = problem.constraint_values_grads(u)[1] - problem.constraint_values_grads(v)[1]
            worst = max(worst, float(np.max(np.linalg.norm(diff, axis=1))) / np.linalg.norm(u - v))
        assert worst <= 4.0 + 1e-9
        assert problem.constraint_smoothness == 4.0

    def test_default_benchmark_configuration(self):
        problem, usv = make_usv_problem(seed=7)
        assert usv.n == 100 and usv.horizon == 40 and usv.v_max == 10.0
        assert problem.dim == 76 and problem.m == 39


class TestRegressionProblem:
    def test_noiseless_generative_feasibility(self):
        # with zero label noise the generating coefficients fit exactly, so
        # any positive tolerance is feasible
        problem, data = generate_regression_problem(
            seed=4, d=8, n=60, critical=10, tolerance=0.5, noise=0.0,
        )
        assert minimal_feasible_tolerance(
            data.features[data.critical_idx], data.labels[data.critical_idx]
        ) <= 1e-18

    def test_infeasible_tolerance_reports_minimum(self):
        with pytest.raises(InfeasibleToleranceError) as err:
            generate_regression_problem(seed=11, d=14, n=450, critical=56, tolerance=1.3)
        assert err.value.minimal > 1.3

    def test_split_is_disjoint(self):
        problem, data = generate_regression_problem(seed=4, d=8, n=60, critical=10, tolerance=5.0)
        assert not set(data.objective_idx) & set(data.critical_idx)
        assert problem.n_components == 60 and problem.m == 10

    def test_smoothness_matches_power_iteration(self):
        problem, data = generate_regression_problem(seed=4, d=8, n=60, critical=10, tolerance=5.0)
        x = data.features[data.objective_idx]
        cov = x.T @ x / len(data.objective_idx)
        v = np.ones(8) / np.sqrt(8)
        for _ in range(500):
            v = cov @ v
            v /= np.linalg.norm(v)
        assert problem.smoothness == pytest.approx(float(v @ cov @ v), rel=1e-6)

    def test_constraint_smoothness_bound(self):
        problem, data = generate_regression_problem(seed=4, d=8, n=60, critical=10, tolerance=5.0)
        x_crit = data.features[data.critical_idx]
        assert problem.constraint_smoothness == pytest.approx(
            2.0 * float(np.max(np.sum(x_crit**2, axis=1)))
        )

    def test_gradients_match_finite_differences(self):
        problem, _ = generate_regression_problem(seed=4, d=8, n=60, critical=10, tolerance=5.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            theta = rng.standard_normal(8)
            idx = rng.integers(60, size=4)
            assert_block_matches_finite_differences(
                lambda p: problem.component_values_grads(p, idx), theta, len(idx)
            )
            assert_block_matches_finite_differences(problem.constraint_values_grads, theta, 10)

    def test_block_values_match_residuals(self):
        problem, data = generate_regression_problem(seed=4, d=8, n=60, critical=10, tolerance=5.0)
        theta = np.linspace(-1, 1, 8)
        idx = np.array([0, 5, 17, 5])
        vals, _ = problem.component_values_grads(theta, idx)
        for j, i in enumerate(idx):
            row = data.objective_idx[i]
            resid = float(data.features[row] @ theta) - data.labels[row]
            assert vals[j] == pytest.approx(0.5 * resid * resid, rel=1e-12)
        cvals, _ = problem.constraint_values_grads(theta)
        for k, row in enumerate(data.critical_idx):
            resid = data.labels[row] - float(data.features[row] @ theta)
            assert cvals[k] == pytest.approx(resid * resid - data.tolerance, rel=1e-12)

    def test_csv_loader_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        matrix = np.column_stack([rng.standard_normal((40, 3)), rng.standard_normal(40)])
        path = tmp_path / "data.csv"
        header = "a,b,c,label"
        np.savetxt(path, matrix, delimiter=",", header=header, comments="")
        problem, data = load_regression_csv(str(path), seed=0, n=30, critical=5, tolerance=50.0)
        assert problem.dim == 4  # three features plus the bias column
        assert problem.n_components == 30 and problem.m == 5
        np.testing.assert_allclose(data.features[:, :-1].mean(axis=0), 0.0, atol=1e-12)


class TestChebyshevFeasibility:
    def test_interpolation_gives_zero(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 6))  # fewer rows than columns: exact fit
        y = rng.standard_normal(4)
        assert minimal_feasible_tolerance(x, y) <= 1e-16

    def test_known_one_d_minimax(self):
        # rows (1), labels {0, 2}: best theta = 1, worst |residual| = 1 -> r = 1
        x = np.array([[1.0], [1.0]])
        y = np.array([0.0, 2.0])
        assert minimal_feasible_tolerance(x, y) == pytest.approx(1.0, abs=1e-9)


class TestReferenceSolvers:
    def test_active_constraint_toy(self):
        # min (x-3)^2/2 s.t. x <= 1
        x, duals = solve_kkt_quadratic(
            q=np.array([[1.0]]), c=np.array([-3.0]), a=np.array([[1.0]]), b=np.array([1.0]),
        )
        assert x[0] == pytest.approx(1.0)
        assert duals[0] == pytest.approx(2.0)

    def test_projection_closed_form(self):
        # min ||x - p||^2/2 s.t. a'x <= b equals the halfspace projection
        p = np.array([2.0, 1.0])
        a = np.array([[1.0, 1.0]])
        b = np.array([1.0])
        x, _ = solve_kkt_quadratic(np.eye(2), -p, a, b)
        expected = p - (a[0] @ p - b[0]) / (a[0] @ a[0]) * a[0]
        np.testing.assert_allclose(x, expected, atol=1e-12)

    def test_brute_force_matches_kkt_on_quadratic(self):
        problem = random_quadratic_problem(seed=14, dim=3, n=8, m=2)
        q, grad0, a, b = _quadratic_data(problem)
        x_kkt, _ = solve_kkt_quadratic(q, grad0, a, b)
        x_bf, f_bf = brute_force_optimum(problem, gamma=50.0, tol=1e-10)
        np.testing.assert_allclose(x_bf, x_kkt, atol=1e-6)

    def test_brute_force_one_d_active_constraint(self):
        from ssqpbench import ConstrainedProblem

        def component_block(x, idx):
            r = x[0] - 3.0
            return np.full(len(idx), 0.5 * r**2), np.full((len(idx), 1), r)

        problem = ConstrainedProblem(
            dim=1, n_components=1, component_block=component_block,
            smoothness=1.0, constraint_smoothness=0.0, strong_convexity=1.0,
            m=1, constraint_block=lambda x: (np.array([x[0] - 1.0]), np.array([[1.0]])),
        )
        x, _ = brute_force_optimum(problem, gamma=10.0, tol=1e-10)
        assert x[0] == pytest.approx(1.0, abs=1e-8)


class TestRandomQuadratic:
    def test_unconstrained_optimum_is_infeasible(self):
        problem = random_quadratic_problem(seed=15, dim=4, n=10, m=3)
        q, grad0, _, _ = _quadratic_data(problem)
        x_unc = np.linalg.solve(q, -grad0)
        cvals, _ = problem.constraint_values_grads(x_unc)
        assert np.any(cvals > 0.0)

    @pytest.mark.parametrize("shape", [{}, {"affine_constraints": False}], ids=["affine", "ball"])
    def test_blocks_match_finite_differences(self, shape):
        problem = random_quadratic_problem(seed=17, dim=4, n=9, m=3, **shape)
        rng = np.random.default_rng(7)
        idx = np.array([8, 0, 4, 4, 2])
        for _ in range(10):
            x = 2.0 * rng.standard_normal(4)
            assert_block_matches_finite_differences(
                lambda p: problem.component_values_grads(p, idx), x, len(idx)
            )
            assert_block_matches_finite_differences(problem.constraint_values_grads, x, 3)

    def test_component_values_match_recovered_quadratic(self):
        # f_i(x) - f_i(0) = 0.5 x'Q_i x + b_i'x with Q_i, b_i read off the gradients
        problem = random_quadratic_problem(seed=18, dim=3, n=5, m=0)
        rng = np.random.default_rng(8)
        idx = np.arange(5)
        f0, g0 = problem.component_values_grads(np.zeros(3), idx)
        hess = np.stack([problem.component_values_grads(e, idx)[1] - g0 for e in np.eye(3)], axis=2)
        for _ in range(5):
            x = rng.standard_normal(3)
            vals, _ = problem.component_values_grads(x, idx)
            expected = f0 + 0.5 * np.einsum("j,ijk,k->i", x, hess, x) + g0 @ x
            np.testing.assert_allclose(vals, expected, rtol=1e-12, atol=1e-12)

    def test_strong_convexity_bounds(self):
        problem = random_quadratic_problem(seed=16, dim=5, n=12, mu=0.5, smoothness=4.0)
        assert 0.0 < problem.strong_convexity <= problem.smoothness
