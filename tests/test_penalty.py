"""Exact-penalty merit function and violation reporting."""

import math

import numpy as np
import pytest

from ssqpbench import (
    BoxIndicator,
    ConstrainedProblem,
    gamma_from_slater,
    penalty_objective,
    violation_report,
)


def one_d_problem(rows, regularizer=None, f=lambda x: (x**2, 2 * x)):
    """1-d problem with constraints g_k(x) = slope_k * x + offset_k, one (slope, offset) per row."""

    def component_block(x, idx):
        v, g = f(float(x[0]))
        return np.full(len(idx), v, dtype=float), np.full((len(idx), 1), g, dtype=float)

    slopes = np.array([slope for slope, _ in rows], dtype=float)
    offsets = np.array([offset for _, offset in rows], dtype=float)

    def constraint_block(x):
        return slopes * x[0] + offsets, slopes[:, None].copy()

    kwargs = {} if regularizer is None else {"regularizer": regularizer}
    return ConstrainedProblem(
        dim=1, n_components=1, component_block=component_block,
        smoothness=2.0, constraint_smoothness=0.0,
        m=len(rows), constraint_block=constraint_block if rows else None, **kwargs,
    )


def affine_constraint(slope, offset):
    """Row of g(x) = slope*x + offset for ``one_d_problem``."""
    return (slope, offset)


def constant_constraint(value):
    return (0.0, value)


class TestGammaFromSlater:
    def test_direct_quotient(self):
        assert gamma_from_slater(6.0, 2.0) == 3.0

    def test_zero_gap(self):
        assert gamma_from_slater(0.0, 1.0) == 0.0

    def test_rejects_bad_margin(self):
        with pytest.raises(ValueError):
            gamma_from_slater(1.0, 0.0)
        with pytest.raises(ValueError):
            gamma_from_slater(-1.0, 1.0)

    def test_certified_gamma_recovers_constrained_optimum(self):
        # min x^2 s.t. x >= 1; Slater point 2 has margin nu = 1 and gap
        # beta_bar = f(2) - f(1) = 3, so gamma = 3 is certified
        problem = one_d_problem([affine_constraint(-1.0, 1.0)])
        gamma = gamma_from_slater(3.0, 1.0)
        grid = np.linspace(-2.0, 3.0, 50001)
        values = [penalty_objective(problem, gamma, np.array([x])) for x in grid]
        assert grid[int(np.argmin(values))] == pytest.approx(1.0, abs=1e-4)


class TestPenaltyObjective:
    def test_active_hinge(self):
        # f(x)=x^2, g(x)=x-1, gamma=2 at x=2: 4 + 2*1 = 6
        problem = one_d_problem([affine_constraint(1.0, -1.0)])
        assert penalty_objective(problem, 2.0, np.array([2.0])) == pytest.approx(6.0)

    def test_inactive_hinge(self):
        problem = one_d_problem([affine_constraint(1.0, -1.0)])
        assert penalty_objective(problem, 2.0, np.array([0.0])) == pytest.approx(0.0)

    def test_max_of_hinges(self):
        # g values (-1, 0.5, 2) with f + h = 1 and gamma = 10 -> 1 + 10*2 = 21
        problem = one_d_problem(
            [constant_constraint(-1.0), constant_constraint(0.5), constant_constraint(2.0)],
            f=lambda x: (1.0, 0.0),
        )
        assert penalty_objective(problem, 10.0, np.array([0.0])) == pytest.approx(21.0)

    def test_domain_violation_is_inf_sentinel(self):
        problem = one_d_problem([], regularizer=BoxIndicator(np.array([0.0]), np.array([1.0])))
        assert math.isinf(penalty_objective(problem, 1.0, np.array([2.0])))

    def test_monotone_in_gamma_when_infeasible(self):
        problem = one_d_problem([affine_constraint(1.0, -1.0)])
        x_bad, x_ok = np.array([2.0]), np.array([0.5])
        vals_bad = [penalty_objective(problem, g, x_bad) for g in (1.0, 2.0, 5.0)]
        vals_ok = [penalty_objective(problem, g, x_ok) for g in (1.0, 2.0, 5.0)]
        assert vals_bad == sorted(vals_bad) and vals_bad[0] < vals_bad[-1]
        assert vals_ok[0] == vals_ok[1] == vals_ok[2]


class TestViolationReport:
    def test_mixed_signs(self):
        problem = one_d_problem(
            [constant_constraint(-1.0), constant_constraint(0.5), constant_constraint(2.0)]
        )
        report = violation_report(problem, np.array([0.0]))
        assert report.max_violation == pytest.approx(2.0)
        assert report.sum_violation == pytest.approx(2.5)
        assert report.worst_index == 2  # 0-based position of the worst constraint

    def test_feasible_point(self):
        problem = one_d_problem([constant_constraint(-1.0), constant_constraint(-0.2)])
        report = violation_report(problem, np.array([0.0]))
        assert report.max_violation == 0.0
        assert report.sum_violation == 0.0
        assert report.worst_index is None

    def test_tie_breaks_to_smallest_index(self):
        problem = one_d_problem([constant_constraint(2.0), constant_constraint(2.0)])
        assert violation_report(problem, np.array([0.0])).worst_index == 0

    def test_usv_sum_matches_direct_recomputation(self):
        from ssqpbench import make_usv_problem, path_from_decision

        problem, usv = make_usv_problem(seed=3, n=5, horizon=10)
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 200.0, size=problem.dim)
        path = path_from_decision(usv, x)
        seg = np.sum((path[:-1] - path[1:]) ** 2, axis=1)
        expected = np.maximum(seg - usv.v_max**2, 0.0).sum()
        assert violation_report(problem, x).sum_violation == pytest.approx(expected, rel=1e-12)

    def test_sum_dominates_max(self):
        problem = one_d_problem([constant_constraint(0.5), constant_constraint(1.5)])
        report = violation_report(problem, np.array([0.0]))
        assert report.sum_violation >= report.max_violation >= 0.0
