"""Canonical QP solver: closed-form cases, KKT certification, oracle agreement."""

import dataclasses
import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ssqpbench import (
    L1,
    BoxIndicator,
    CanonicalQp,
    QpSolution,
    Zero,
    dense_oracle_qp,
    kkt_residual,
    qp_objective,
    solve_canonical_qp,
)
import ssqpbench.qp_subproblem as qp_subproblem
from ssqpbench.qp_subproblem import (
    _faces,
    _least_squares,
    _solve_pattern_system,
)


def make_qp(rho=1.0, anchor=(0.0,), linear=(0.0,), regularizer=None, gamma=0.0,
            offsets=(), slopes=()):
    anchor = np.asarray(anchor, dtype=float)
    return CanonicalQp(
        rho=rho,
        anchor=anchor,
        linear=np.asarray(linear, dtype=float),
        regularizer=regularizer if regularizer is not None else Zero(),
        hinge_weight=gamma,
        offsets=np.asarray(offsets, dtype=float),
        slopes=np.asarray(slopes, dtype=float).reshape(len(offsets), len(anchor)),
    )


def random_instance(rng, d, m, regularizer):
    return CanonicalQp(
        rho=float(rng.uniform(0.2, 5.0)),
        anchor=rng.standard_normal(d),
        linear=rng.standard_normal(d),
        regularizer=regularizer,
        hinge_weight=float(rng.uniform(0.0, 10.0)),
        offsets=rng.standard_normal(m),
        slopes=rng.standard_normal((m, d)),
    )


def random_regularizer(rng, d):
    kind = rng.integers(3)
    if kind == 0:
        return Zero()
    if kind == 1:
        lo = rng.uniform(-2.0, 0.0, size=d)
        return BoxIndicator(lower=lo, upper=lo + rng.uniform(0.5, 3.0, size=d))
    return L1(weight=float(rng.uniform(0.0, 2.0)))


def zero_dual_prox_point(qp):
    """The minimizer without the hinge: w - (l + A^T 0) / rho through the regularizer's prox."""
    return qp.regularizer.prox(qp.anchor - (qp.linear + qp.slopes.T @ np.zeros(qp.m)) / qp.rho, qp.rho)


def duality_gap(qp, u, mu):
    """P(u) - D(mu) for the canonical QP, an error bound that shares no kernel with the solver.

    mu is first scaled into the capped simplex {mu >= 0, sum mu <= Gamma}.
    There the dual function of the epigraph QP has the closed form
    D(mu) = mu.b + (rho/2)||u(mu) - w||^2 + <l + A^T mu, u(mu)> + h(u(mu)) with
    u(mu) = prox_h(w - (l + A^T mu) / rho).  By weak duality the gap is >= 0,
    and by strong convexity ||u - u*||^2 <= 2 * gap / rho.
    """
    mu = np.maximum(np.asarray(mu, dtype=float), 0.0)
    total = mu.sum()
    if total > qp.hinge_weight:
        mu = mu * (qp.hinge_weight / total)
    shift = qp.linear + qp.slopes.T @ mu
    u_mu = qp.regularizer.prox(qp.anchor - shift / qp.rho, qp.rho)
    diff = u_mu - qp.anchor
    dual = float(mu @ qp.offsets) + 0.5 * qp.rho * float(diff @ diff) + float(shift @ u_mu)
    return qp_objective(qp, u) - (dual + qp.regularizer.value(u_mu))


def tied_box_instance():
    """Box instance (d=2, m=3) with several candidates tied at the optimal objective.

    Instance 841 of the criterion-1 stream ``default_rng(2024)``.
    """
    return CanonicalQp(
        rho=1.567624652148318,
        anchor=np.array([0.5700608730889348, -0.009223467452067223]),
        linear=np.array([0.46724190254656967, 1.3409657794633796]),
        regularizer=BoxIndicator(
            lower=np.array([-1.751707370828901, -1.655017923693593]),
            upper=np.array([-0.2734671161478188, -0.2432429864161485]),
        ),
        hinge_weight=4.428282227022528,
        offsets=np.array([0.4437212586291999, 0.2235060712166254, 0.34756332882494423]),
        slopes=np.array([
            [-0.42598646575435406, -0.020782482267192964],
            [1.5015345516045322, -0.39908906130098803],
            [-1.6326484738069948, -0.663233185336123],
        ]),
    )


class TestClosedFormCases:
    def test_unconstrained_prox_gradient(self):
        # d=1, m=0, rho=2, w=0, l=2 -> u = w - l/rho = -1
        sol = solve_canonical_qp(make_qp(rho=2.0, linear=[2.0]))
        assert sol.u[0] == pytest.approx(-1.0, abs=1e-12)
        assert sol.v == 0.0

    def test_enforced_hinge(self):
        # Gamma=10, hinge b=1, A=-1 encodes u >= 1; optimum pinned at u=1
        qp = make_qp(gamma=10.0, offsets=[1.0], slopes=[-1.0])
        sol = solve_canonical_qp(qp)
        assert sol.u[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.v == pytest.approx(0.0, abs=1e-9)
        assert 1.0 - 1e-6 <= sol.mu[0] <= 10.0 + 1e-6
        assert kkt_residual(qp, sol) <= 1e-9

    def test_paid_hinge(self):
        # same but Gamma=0.5: cheaper to pay the hinge, u=0.5 and v=0.5
        sol = solve_canonical_qp(make_qp(gamma=0.5, offsets=[1.0], slopes=[-1.0]))
        assert sol.u[0] == pytest.approx(0.5, abs=1e-9)
        assert sol.v == pytest.approx(0.5, abs=1e-9)

    def test_grid_search_agrees_on_enforced_hinge(self):
        qp = make_qp(gamma=10.0, offsets=[1.0], slopes=[-1.0])
        grid = np.linspace(-2.0, 3.0, 5_000_001)
        vals = 0.5 * grid**2 + 10.0 * np.maximum(1.0 - grid, 0.0)
        best = grid[int(np.argmin(vals))]
        assert solve_canonical_qp(qp).u[0] == pytest.approx(best, abs=1e-6)

    def test_prox_shortcut_reports_its_residual(self):
        # u = w - l/rho rounds to a stationarity defect of 6.1e-5 here, far
        # above tol: the prox-point answer must not claim to be certified
        sol = solve_canonical_qp(make_qp(rho=1e6, anchor=[1e6], linear=[1.234567891e11]))
        assert sol.kkt_residual > 1e-5
        assert sol.converged is False

    def test_l1_weight_zero_leaves_the_zero_face(self):
        # with weight 0 the zero face's dual interval is [-0.0, 0.0], and the
        # ratio test must still see it: the loop once kept u = 0 (residual 1.0)
        # where the Zero regularizer gives the optimum u = -1, v = 1
        qp = make_qp(regularizer=L1(weight=0.0), gamma=1.0, offsets=[2.0], slopes=[[1.0]])
        sol = solve_canonical_qp(qp)
        assert sol.converged is True
        np.testing.assert_allclose(sol.u, [-1.0], rtol=0, atol=1e-12)
        assert sol.v == pytest.approx(1.0, abs=1e-12)

    def test_slack_hinge_equals_prox(self):
        # hinge strictly inactive at the unconstrained point
        qp = make_qp(rho=2.0, linear=[2.0], gamma=5.0, offsets=[-10.0], slopes=[1.0])
        sol = solve_canonical_qp(qp)
        assert sol.u[0] == pytest.approx(-1.0, abs=1e-12)
        assert np.all(sol.mu == 0.0)


class TestKktResidual:
    def test_exact_solution_near_zero(self):
        qp = make_qp(rho=2.0, linear=[2.0])
        assert kkt_residual(qp, solve_canonical_qp(qp)) <= 1e-12

    def test_perturbation_sensitivity(self):
        qp = make_qp(rho=2.0, linear=[2.0])
        sol = solve_canonical_qp(qp)
        perturbed = type(sol)(
            u=sol.u + 1e-3, v=sol.v, mu=sol.mu, dual_v=sol.dual_v,
            kkt_residual=sol.kkt_residual, active_set=sol.active_set,
            objective=sol.objective, converged=sol.converged, sweeps=sol.sweeps,
        )
        assert kkt_residual(qp, perturbed) >= 1e-4

    def test_unconstrained_residual_is_gradient_norm(self):
        qp = make_qp(rho=3.0, anchor=[1.0], linear=[0.5])
        sol = solve_canonical_qp(qp)
        u_off = sol.u + 0.01
        shifted = type(sol)(
            u=u_off, v=0.0, mu=sol.mu, dual_v=sol.dual_v, kkt_residual=0.0,
            active_set=sol.active_set, objective=sol.objective,
            converged=True, sweeps=0,
        )
        expected = np.linalg.norm(qp.rho * (u_off - qp.anchor) + qp.linear)
        assert kkt_residual(qp, shifted) == pytest.approx(expected, rel=1e-9)

    def test_coinciding_box_faces(self):
        # u[0] is pinned by lower == upper, so any stationarity defect there
        # lies in its normal cone (all of R); optimum u = (0, 0.2), mu = 0.3
        qp = make_qp(
            anchor=[1.0, 0.5], linear=[0.0, 0.0],
            regularizer=BoxIndicator(lower=np.array([0.0, -1.0]), upper=np.array([0.0, 1.0])),
            gamma=5.0, offsets=[-0.2], slopes=[[0.0, 1.0]],
        )
        sol = solve_canonical_qp(qp)
        assert sol.converged
        assert sol.kkt_residual <= 1e-9
        np.testing.assert_allclose(sol.u, [0.0, 0.2], atol=1e-12)
        assert sol.mu[0] == pytest.approx(0.3, abs=1e-12)


class TestZeroSlopes:
    @pytest.mark.parametrize("offsets", [[2.28], [2.28, 0.9]], ids=["one_row", "two_rows"])
    def test_constant_hinge_certifies(self, offsets):
        # every slope is zero: the hinge is the constant max(b) > 0, so u is the
        # unconstrained prox point, v = max(b) and the whole weight sits on row 0
        qp = make_qp(
            rho=0.0065, anchor=[0.4, -1.1], linear=[0.002, -0.003], gamma=1.48,
            offsets=offsets, slopes=np.zeros((len(offsets), 2)),
        )
        sol = solve_canonical_qp(qp)
        assert sol.converged
        assert sol.kkt_residual <= 1e-9
        assert kkt_residual(qp, sol) <= 1e-9
        np.testing.assert_allclose(sol.u, qp.anchor - qp.linear / qp.rho, rtol=1e-12)
        assert sol.v == pytest.approx(2.28, rel=1e-12)
        assert sol.mu[0] == pytest.approx(1.48, rel=1e-12)


class TestDenseOracle:
    def test_unconstrained_closed_form(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            qp = random_instance(rng, d=3, m=0, regularizer=Zero())
            sol = dense_oracle_qp(qp)
            np.testing.assert_allclose(sol.u, qp.anchor - qp.linear / qp.rho, atol=1e-12)

    def test_enforced_hinge_instance(self):
        sol = dense_oracle_qp(make_qp(gamma=10.0, offsets=[1.0], slopes=[-1.0]))
        assert sol.u[0] == pytest.approx(1.0, abs=1e-9)

    def test_coinciding_box_faces_agree_with_solver(self):
        # the second coordinate is pinned by lower == upper whatever its
        # pattern says, so the oracle may not free it when its dual turns
        # negative; it once returned u = (-1, -1.5), objective -2.063875
        qp = make_qp(
            rho=0.025, anchor=[-0.3, -1.5], linear=[0.6, 1.3],
            regularizer=BoxIndicator(lower=np.array([-1.0, -1.5]), upper=np.array([0.7, -1.5])),
            gamma=2.4, offsets=[-0.8], slopes=[[-1.3, 0.2]],
        )
        sol = solve_canonical_qp(qp)
        oracle = dense_oracle_qp(qp)
        assert sol.converged and oracle.kkt_residual <= 1e-9
        np.testing.assert_allclose(sol.u, [-11.0 / 13.0, -1.5], rtol=0, atol=1e-12)
        np.testing.assert_allclose(oracle.u, sol.u, rtol=0, atol=1e-9)
        for ans in (sol, oracle):
            assert abs(duality_gap(qp, ans.u, ans.mu)) <= 1e-12

    def test_duals_certify_among_tied_candidates(self):
        qp = tied_box_instance()
        sol = dense_oracle_qp(qp)
        assert sol.kkt_residual <= 1e-9
        assert sol.objective == pytest.approx(solve_canonical_qp(qp).objective, abs=1e-12)


def pattern_solve(qp, active, v_positive, pattern):
    """The active-set loop's pattern solve: the reduced kernel on the face table of ``pattern``."""
    ulo, uhi, ylo, _ = _faces(qp, pattern)
    free = None if isinstance(qp.regularizer, Zero) else ulo < uhi
    r = qp.rho * qp.anchor - qp.linear + ylo
    return _solve_pattern_system(qp, active, v_positive, free, ulo, r, qp.offsets, qp.hinge_weight)


def full_kkt_solve(qp, active, v_positive, pattern):
    """Least squares on the unreduced equality KKT system in (u, mu, v).

    All d coordinates are unknowns: pinned ones get the row u_i = x_i, free
    ones their stationarity row.  Reference for the reduced kernel.
    """
    reg = qp.regularizer
    d, na = qp.dim, len(active)
    if isinstance(reg, BoxIndicator):
        pinned = pattern != 0
        values = np.where(pattern < 0, reg.lower, reg.upper)
    elif isinstance(reg, L1):
        pinned = pattern == 0
        values = np.zeros(d)
    else:
        pinned = np.zeros(d, dtype=bool)
        values = np.zeros(d)
    nv = int(v_positive)
    n = d + na + nv
    M = np.zeros((n, n))
    rhs = np.zeros(n)
    for i in range(d):
        if pinned[i]:
            M[i, i] = 1.0
            rhs[i] = values[i]
        else:
            M[i, i] = qp.rho
            M[i, d:d + na] = qp.slopes[active, i]
            rhs[i] = qp.rho * qp.anchor[i] - qp.linear[i]
            if isinstance(reg, L1):
                rhs[i] -= reg.weight * pattern[i]
    for j, k in enumerate(active):
        M[d + j, :d] = qp.slopes[k]
        if v_positive:
            M[d + j, d + na] = -1.0
        rhs[d + j] = -qp.offsets[k]
    if v_positive:
        M[d + na, d:d + na] = 1.0
        rhs[d + na] = qp.hinge_weight
    sol = np.linalg.lstsq(M, rhs, rcond=None)[0]
    mu = np.zeros(qp.m)
    mu[active] = sol[d:d + na]
    return sol[:d], mu, float(sol[d + na]) if v_positive else 0.0


class TestReducedKernel:
    @pytest.mark.parametrize("kind", ["zero", "box", "l1"])
    @pytest.mark.parametrize("v_positive", [False, True])
    def test_matches_full_kkt_system(self, kind, v_positive):
        rng = np.random.default_rng(31)
        d, m = 6, 4
        for _ in range(20):
            if kind == "zero":
                reg = Zero()
            elif kind == "box":
                lo = rng.uniform(-2.0, 0.0, size=d)
                reg = BoxIndicator(lower=lo, upper=lo + rng.uniform(0.5, 3.0, size=d))
            else:
                reg = L1(weight=float(rng.uniform(0.1, 2.0)))
            qp = random_instance(rng, d, m, reg)
            active = np.sort(rng.choice(m, size=int(rng.integers(1, 4)), replace=False))
            # at least three free coordinates, so the active rows stay independent
            pattern = rng.integers(-1, 2, size=d)
            if kind == "zero":
                pattern[:] = 0
            elif kind == "box":
                pattern[:3] = 0
            else:
                pattern[:3] = rng.choice([-1, 1], size=3)
            u, mu, v = pattern_solve(qp, active, v_positive, pattern)
            u_ref, mu_ref, v_ref = full_kkt_solve(qp, active, v_positive, pattern)
            np.testing.assert_allclose(u, u_ref, rtol=0, atol=1e-10)
            np.testing.assert_allclose(mu, mu_ref, rtol=0, atol=1e-10)
            assert v == pytest.approx(v_ref, abs=1e-10)

    @pytest.mark.parametrize("v_positive", [False, True])
    def test_duplicate_hinge_row(self, v_positive):
        # rows 0 and 2 coincide: mu is not unique, u and v are
        rng = np.random.default_rng(32)
        qp = random_instance(rng, d=4, m=3, regularizer=Zero())
        slopes = qp.slopes.copy()
        offsets = qp.offsets.copy()
        slopes[2], offsets[2] = slopes[0], offsets[0]
        qp = CanonicalQp(rho=qp.rho, anchor=qp.anchor, linear=qp.linear, regularizer=Zero(),
                         hinge_weight=qp.hinge_weight, offsets=offsets, slopes=slopes)
        active = np.array([0, 1, 2])
        pattern = np.zeros(4, dtype=int)
        u, mu, v = pattern_solve(qp, active, v_positive, pattern)
        u_ref, mu_ref, v_ref = full_kkt_solve(qp, active, v_positive, pattern)
        np.testing.assert_allclose(u, u_ref, rtol=0, atol=1e-10)
        np.testing.assert_allclose(qp.slopes.T @ mu, qp.slopes.T @ mu_ref, rtol=0, atol=1e-10)
        assert v == pytest.approx(v_ref, abs=1e-10)


class TestPolishOrder:
    @pytest.mark.parametrize("kind", ["zero", "box", "l1"])
    def test_warm_resolve_takes_one_pattern_solve(self, kind, monkeypatch):
        rng = np.random.default_rng(41)
        d = 5
        reg = {
            "zero": Zero(),
            "box": BoxIndicator(lower=-0.3 * np.ones(d), upper=0.3 * np.ones(d)),
            "l1": L1(weight=0.5),
        }[kind]
        qp = random_instance(rng, d, 4, reg)
        cold = solve_canonical_qp(qp)
        assert cold.active_set and cold.kkt_residual <= 1e-9

        calls = []
        kernel = qp_subproblem._solve_pattern_system

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(qp_subproblem, "_solve_pattern_system", counting)
        warmed = solve_canonical_qp(qp, warm=cold)
        assert len(calls) == 1
        assert warmed.sweeps == 0
        np.testing.assert_array_equal(warmed.u, cold.u)


def coupled_hinges_qp(anchor):
    """Two hinges coupled as neighbouring speed limits are (Zero, rho = 1, Gamma = 10).

    Near anchor 0 only u_0 >= 1 is violated at the prox point u = w; meeting it
    violates u_0 - u_1 <= 0.5, so both hinges hold at the optimum u = (1, 0.5).
    """
    return make_qp(anchor=anchor, linear=(0.0, 0.0), gamma=10.0, offsets=[1.0, -0.5],
                   slopes=[[-1.0, 0.0], [1.0, -1.0]])


def start_answer(u, active_set=(), v=0.0, mu=()):
    """A solver answer read only for its structure: u, v, the working set and (for a drop) mu."""
    return QpSolution(u=np.asarray(u, dtype=float), v=v, mu=np.asarray(mu, dtype=float), dual_v=0.0,
                      kkt_residual=np.inf, active_set=tuple(active_set), objective=np.nan, converged=False)


UNIT_BOX = BoxIndicator(lower=np.array([-1.0]), upper=np.array([1.0]))


class TestExactOracleMoves:
    """Each kind of move the exact oracle makes, from a wrong answer patched in as the solver's."""

    @staticmethod
    def oracle(monkeypatch, qp, start):
        """dense_oracle_qp(qp) started from ``start``; returns the answer and its number of moves."""
        solves = []
        gauss_jordan = qp_subproblem._gauss_jordan

        def counting(rows, n):
            solves.append(n)
            return gauss_jordan(rows, n)

        monkeypatch.setattr(qp_subproblem, "solve_canonical_qp", lambda qp: start)
        monkeypatch.setattr(qp_subproblem, "_gauss_jordan", counting)
        sol = dense_oracle_qp(qp)
        assert sol.kkt_residual <= 1e-15
        return sol, len(solves) - 1

    def test_leave(self, monkeypatch):
        # hinge u <= 1 is slack at the optimum u = 0; held at u = 1 it needs mu = -1
        qp = make_qp(gamma=10.0, offsets=[-1.0], slopes=[1.0])
        sol, moves = self.oracle(monkeypatch, qp, start_answer([1.0], active_set=(0,), mu=[1.0]))
        assert moves == 1 and sol.active_set == () and sol.u.tolist() == [0.0] and sol.v == 0.0

    @pytest.mark.parametrize(
        "qp, start, u, active_set",
        [
            # hinge 1 is above v = 0 once hinge 0 holds alone
            (coupled_hinges_qp((0.0, 0.0)), start_answer([1.0, 0.0], active_set=(0,), mu=[1.0, 0.0]),
             [1.0, 0.5], (0, 1)),
            # with no working hinge v = 1 > 0 is paid at Gamma = 10
            (make_qp(gamma=10.0, offsets=[1.0], slopes=[-1.0]), start_answer([0.0], v=1.0, mu=[0.0]), [1.0], (0,)),
        ],
        ids=["above_v", "unpaid"],
    )
    def test_join(self, monkeypatch, qp, start, u, active_set):
        sol, moves = self.oracle(monkeypatch, qp, start)
        assert moves == 1 and sol.active_set == active_set and sol.u.tolist() == u and sol.v == 0.0

    @pytest.mark.parametrize(
        "gamma, start_v, u, v",
        # sum mu = 1 > Gamma = 0.5 caps the duals; at Gamma = 10 the cap gives v = -9 and is released
        [(0.5, 0.0, 0.5, 0.5), (10.0, 0.5, 1.0, 0.0)],
        ids=["sum_mu_above_gamma", "v_negative"],
    )
    def test_cap(self, monkeypatch, gamma, start_v, u, v):
        qp = make_qp(gamma=gamma, offsets=[1.0], slopes=[-1.0])
        sol, moves = self.oracle(monkeypatch, qp, start_answer([1.0 - start_v], active_set=(0,), v=start_v, mu=[1.0]))
        assert moves == 1 and sol.u.tolist() == [u] and sol.v == v and sol.mu.tolist() == [min(gamma, 1.0)]

    @pytest.mark.parametrize(
        "reg, anchor, start, u",
        # pinned at the upper bound with y = 0.5 > 0; pinned at 0 with |y| = 2 > the weight 0.5
        [(UNIT_BOX, 0.5, 1.0, 0.5), (L1(0.5), 2.0, 0.0, 1.5)],
        ids=["box", "l1"],
    )
    def test_free(self, monkeypatch, reg, anchor, start, u):
        sol, moves = self.oracle(monkeypatch, make_qp(anchor=[anchor], regularizer=reg), start_answer([start]))
        assert moves == 1 and sol.u.tolist() == [u]

    @pytest.mark.parametrize(
        "reg, anchor, start, u",
        # free, the Box coordinate solves to 2 > 1; the L1 one to -0.5, against its sign
        [(UNIT_BOX, 2.0, 0.5, 1.0), (L1(1.0), 0.5, 0.3, 0.0)],
        ids=["box", "l1"],
    )
    def test_pin(self, monkeypatch, reg, anchor, start, u):
        sol, moves = self.oracle(monkeypatch, make_qp(anchor=[anchor], regularizer=reg), start_answer([start]))
        assert moves == 1 and sol.u.tolist() == [u]


    def test_free_at_the_l1_kink(self, monkeypatch):
        # rho*w - l exceeds the weight by |l| = 2.3e-208, which rounds away in the
        # solver's prox point u = 0; the exact optimum is u = -l
        qp = make_qp(anchor=[1.0], linear=[-2.26676693e-208], regularizer=L1(1.0), offsets=[0.0], slopes=[[0.0]])
        start = solve_canonical_qp(qp)
        assert start.u.tolist() == [0.0]
        sol, moves = self.oracle(monkeypatch, qp, start)
        assert moves == 1 and sol.u.tolist() == [2.26676693e-208]

    def test_drop_from_near_concurrent_hinges(self, monkeypatch):
        # hinges 0, 2 and 3 meet at u = 1, v = 1.5 in decimals but not in the
        # floats' exact values, so the three cannot all hold with d = 1
        qp = make_qp(rho=0.6404909309854694, anchor=[1.4], linear=[0.7], regularizer=L1(1.7), gamma=5.0,
                     offsets=[2.2, 0.2, 1.1, 1.0], slopes=[[-0.7], [-0.7], [0.4], [0.5]])
        start = solve_canonical_qp(qp)
        assert start.converged and start.active_set == (0, 2, 3)
        sol, moves = self.oracle(monkeypatch, qp, start)
        assert moves == 1 and sol.active_set == (0, 2)
        np.testing.assert_allclose(sol.u, start.u, rtol=0, atol=1e-12)

    def test_release_v_for_each_working_set(self, monkeypatch):
        # a tiny-rho QP (d = 1) whose solver answer holds hinges 1 and 2 at v = 0, which
        # no u satisfies; the optimum holds hinges 0 and 1 where they cross, at v > 0, so
        # v must be released again for {0, 1} after it was released once for {1, 2}
        qp = make_qp(rho=2.6341708612051623e-10, anchor=[-1.5938475619010517], linear=[2.1140064665887066],
                     gamma=6.483467139783446, offsets=[1.1715730473168446, 0.8124516754058155, -0.9235657101584799],
                     slopes=[[0.7981505678124544], [-2.3685029302561342], [-0.5858829732566452]])
        start = solve_canonical_qp(qp)
        assert start.active_set == (1, 2) and start.v == 0.0 and start.converged is False
        sol, moves = self.oracle(monkeypatch, qp, start)
        assert moves == 7 and sol.active_set == (0, 1) and sol.v > 1.0
        np.testing.assert_allclose(sol.u, [(qp.offsets[1] - qp.offsets[0]) / (qp.slopes[0, 0] - qp.slopes[1, 0])],
                                   rtol=1e-15)


class TestStartRule:
    def test_cold_solve_ending_on_the_prox_set_takes_one_pattern_solve(self, pattern_solves):
        # hinge 0 is violated at the prox point u = 0 and held at the optimum
        # u = (1, 0); hinge 1 is slack at both
        qp = make_qp(anchor=(0.0, 0.0), linear=(0.0, 0.0), gamma=10.0, offsets=[1.0, -2.0],
                     slopes=[[-1.0, 0.0], [0.0, 1.0]])
        sol = solve_canonical_qp(qp)
        assert len(pattern_solves) == 1
        assert sol.active_set == (0,) and sol.prox_hit is True and sol.converged is True
        np.testing.assert_allclose(sol.u, [1.0, 0.0], rtol=0, atol=1e-12)

    def test_coupled_hinges_restart_from_the_warm_set(self, pattern_solves):
        cold = solve_canonical_qp(coupled_hinges_qp((0.0, 0.0)))
        assert cold.active_set == (0, 1) and cold.prox_hit is False
        np.testing.assert_allclose(cold.u, [1.0, 0.5], rtol=0, atol=1e-12)
        nxt = coupled_hinges_qp((0.02, -0.01))
        pattern_solves.clear()
        warmed = solve_canonical_qp(nxt, warm=cold)
        assert len(pattern_solves) == 1
        assert warmed.active_set == (0, 1) and warmed.converged is True
        # from its prox set alone the same QP takes two, and ends on the same bytes
        pattern_solves.clear()
        assert solve_canonical_qp(nxt).u.tobytes() == warmed.u.tobytes()
        assert len(pattern_solves) == 2


def rounding_floor_instance():
    """The first reference QP of criterion 2's instance 14 (at the full gamma).

    Asked for 1e-12, the exact pattern solve leaves |mu * (b + A u - v)| at
    2.5e-12 (mu ~ 144); one refinement step brings it under the tolerance.
    """
    return make_qp(
        rho=4.199999999999905,
        anchor=[0.0, 0.0, 0.0],
        linear=[-0.3767083998943366, -0.11282916298244457, 0.21807107125443417],
        gamma=287.1706275560655,
        offsets=[1.8148519607280698, 0.12581449581657583],
        slopes=[[-0.07213099306616272, -1.0070801464447374, 1.0127317556552342],
                [-0.028598261237269624, 0.8530917156785938, -1.1150560668236298]],
    )


class TestTightTolerance:
    def test_refinement_certifies_at_the_rounding_floor(self):
        sol = assert_loop_certifies(rounding_floor_instance(), tol=1e-12)
        assert sol.active_set == (0, 1) and sol.v > 0.0


class TestTinyRho:
    # one hinge with a nonzero free row is never a ray; at tiny rho the
    # rounding of u = (r - A^T mu) / rho grows like |r| / rho, and the ray
    # test must not read it as a residual.  The first QP is one of criterion
    # 5's flat reference solves (step grown to 1 / rho).
    @pytest.mark.parametrize(
        "rho, anchor, linear, expected",
        [
            (2.800924467459918e-09, [0.09530263856582473, 1.0], [5.890527289912e-12, 1.092823429405998],
             [0.09319957318211092, 1.0]),
            (2.8e-9, [0.1, 1.0], [0.0, 1.1], [0.1, 1.0]),
        ],
    )
    def test_single_hinge_certifies(self, rho, anchor, linear, expected):
        qp = make_qp(rho=rho, anchor=anchor, linear=linear, gamma=10.0, offsets=[1.0], slopes=[[0.0, -1.0]])
        cold = assert_loop_certifies(qp)
        np.testing.assert_allclose(cold.u, expected, atol=1e-8)
        assert assert_loop_certifies(qp, warm=cold).u.tobytes() == cold.u.tobytes()


class TestWarmEpigraphCase:
    def test_paid_to_enforced_hinge_releases_v(self):
        # warm from the paid hinge (v = 0.5 > 0, sum mu = Gamma held); with
        # Gamma = 10 the cap gives v = -9 < 0, so v >= 0 must join the working set
        paid = solve_canonical_qp(make_qp(gamma=0.5, offsets=[1.0], slopes=[-1.0]))
        assert paid.v == pytest.approx(0.5)
        sol = assert_loop_certifies(make_qp(gamma=10.0, offsets=[1.0], slopes=[-1.0]), warm=paid)
        assert sol.u[0] == pytest.approx(1.0, abs=1e-12)
        assert sol.v == 0.0 and sol.mu[0] == pytest.approx(1.0, abs=1e-12)

    def test_enforced_to_paid_hinge_caps_the_duals(self):
        enforced = solve_canonical_qp(make_qp(gamma=10.0, offsets=[1.0], slopes=[-1.0]))
        assert enforced.v == 0.0
        sol = assert_loop_certifies(make_qp(gamma=0.5, offsets=[1.0], slopes=[-1.0]), warm=enforced)
        assert sol.u[0] == pytest.approx(0.5, abs=1e-12)
        assert sol.v == pytest.approx(0.5, abs=1e-12)


class TestConstruction:
    @staticmethod
    def data():
        return {"anchor": np.zeros(3), "linear": np.ones(3), "offsets": np.zeros(2), "slopes": np.ones((2, 3))}

    @pytest.mark.parametrize("field", ["anchor", "linear", "offsets", "slopes"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_data(self, field, bad):
        data = self.data()
        data[field].flat[-1] = bad
        with pytest.raises(ValueError, match="subproblem data must be finite"):
            CanonicalQp(rho=1.0, regularizer=Zero(), hinge_weight=1.0, **data)

    @pytest.mark.parametrize(
        "field, bad",
        [("rho", -1.0), ("rho", np.inf), ("rho", np.nan),
         ("hinge_weight", -1.0), ("hinge_weight", np.inf), ("hinge_weight", np.nan)],
    )
    def test_rejects_bad_scalars(self, field, bad):
        scalars = {"rho": 1.0, "hinge_weight": 1.0, field: bad}
        with pytest.raises(ValueError, match=field.replace("_", " ")):
            CanonicalQp(regularizer=Zero(), **scalars, **self.data())

    def test_rejects_a_box_of_another_dimension(self):
        # a one-element box used to be broadcast to every coordinate, and the
        # QP solved for a box the caller never gave (u = [-0.1, -0.1, -0.1])
        box = BoxIndicator(lower=np.array([-0.1]), upper=np.array([0.1]))
        with pytest.raises(ValueError, match="regularizer box bounds"):
            CanonicalQp(rho=1.0, regularizer=box, hinge_weight=1.0, **self.data())

    def test_rejects_a_linear_term_of_another_shape(self):
        # it used to fail only inside the objective, with a bare matmul error
        data = dict(self.data(), linear=np.ones(1))
        with pytest.raises(ValueError, match="linear"):
            CanonicalQp(rho=1.0, regularizer=Zero(), hinge_weight=1.0, **data)

    @pytest.mark.parametrize("anchor", [np.zeros((1, 3)), np.float64(0.0)], ids=["2-D", "0-d"])
    def test_rejects_an_anchor_that_is_not_a_vector(self, anchor):
        data = dict(self.data(), anchor=anchor, linear=np.ones(np.shape(anchor)))
        with pytest.raises(ValueError, match="anchor"):
            CanonicalQp(rho=1.0, regularizer=Zero(), hinge_weight=1.0, **data)

    def test_accepts_huge_finite_data(self):
        # a sum or a dot product over these entries overflows; the check must not
        data = {key: np.full_like(arr, 1.7e308) for key, arr in self.data().items()}
        qp = CanonicalQp(rho=1.0, regularizer=Zero(), hinge_weight=1.0, **data)
        assert (qp.m, qp.dim) == (2, 3)


class TestSharedHingeValues:
    """An answer's certificate and objective are bit for bit the from-scratch ones."""

    @staticmethod
    def assert_recomputed_bitwise(qp, sol):
        assert sol.kkt_residual == kkt_residual(qp, sol)
        assert sol.objective == qp_objective(qp, sol.u)

    def test_mixed_cold_and_warm_stream(self):
        rng = np.random.default_rng(77)
        kinds = set()
        for _ in range(150):
            d, m = int(rng.integers(1, 7)), int(rng.integers(0, 6))
            qp = random_instance(rng, d, m, random_regularizer(rng, d))
            kinds.add(type(qp.regularizer))
            cold = solve_canonical_qp(qp)
            self.assert_recomputed_bitwise(qp, cold)
            near = dataclasses.replace(qp, anchor=qp.anchor + 0.01 * rng.standard_normal(d))
            self.assert_recomputed_bitwise(near, solve_canonical_qp(near, warm=cold))
        assert kinds == {Zero, BoxIndicator, L1}

    def test_clipped_box_answer(self):
        # the hinge holds at u = 1 + 5e-11, a free u outside the box by less
        # than the face tolerance; the answer is clipped to u = 1, where the
        # hinge is 5e-11 short, and its certificate must be taken there
        box = BoxIndicator(lower=np.array([-1.0]), upper=np.array([1.0]))
        qp = make_qp(anchor=[0.5], regularizer=box, gamma=10.0, offsets=[1.0 + 5e-11], slopes=[-1.0])
        sol = solve_canonical_qp(qp)
        assert sol.u[0] == 1.0 and sol.converged is True
        assert sol.kkt_residual == pytest.approx(5e-11, rel=1e-3)
        self.assert_recomputed_bitwise(qp, sol)

    def test_refined_answer(self):
        qp = rounding_floor_instance()
        self.assert_recomputed_bitwise(qp, solve_canonical_qp(qp, tol=1e-12))

    @pytest.mark.parametrize("loop", ["ssqp", "varas"])
    def test_shipped_instance_traffic(self, qmo_stream, loop):
        # the QPs an SSQP run on the regression instance and a VARAS run on the
        # USV instance pass the solver, with their warm starts
        shortcut = held = 0
        for qp, tol, warm in qmo_stream[loop]:
            sol = solve_canonical_qp(qp, tol=tol, warm=warm)
            self.assert_recomputed_bitwise(qp, sol)
            shortcut += not sol.active_set
            held += bool(sol.active_set)
        assert shortcut and held

    @pytest.mark.parametrize("loop", ["ssqp", "varas"])
    def test_ratio_tests_enter_no_errstate_off_a_ray(self, qmo_stream, loop, monkeypatch):
        # an overflowing ratio needs a ray step (or a cap slack that rounding
        # left negative), and the shipped instances' traffic takes neither, so
        # no solve of it enters np.errstate
        entries = []
        errstate = np.errstate

        class Counting(errstate):
            def __init__(self, **kwargs):
                entries.append(kwargs)
                super().__init__(**kwargs)

        monkeypatch.setattr(np, "errstate", Counting)
        for qp, tol, warm in qmo_stream[loop]:
            solve_canonical_qp(qp, tol=tol, warm=warm)
        assert entries == []

    @pytest.mark.parametrize(
        "qp",
        [
            make_qp(rho=2.0, anchor=[0.5, -0.0], linear=[1.0, -0.0]),
            make_qp(rho=2.0, anchor=[0.5, 1.0], linear=[1.0, -0.5], offsets=[1.0, 2.0],
                    slopes=[[1.0, -1.0], [2.0, 0.5]]),
            make_qp(rho=2.0, anchor=[0.5, 1.0], linear=[1.0, -0.5], gamma=5.0, offsets=[-10.0, -3.0],
                    slopes=[[1.0, -1.0], [2.0, 0.5]]),
        ],
        ids=["no_hinge", "zero_hinge_weight", "slack_hinges"],
    )
    def test_prox_point_shortcut(self, qp, pattern_solves):
        sol = solve_canonical_qp(qp)
        assert not pattern_solves and sol.converged and not sol.mu.any()
        self.assert_recomputed_bitwise(qp, sol)


class TestZeroDualProxPoint:
    @pytest.mark.parametrize("reg", [Zero(), BoxIndicator(-np.ones(2), np.ones(2)), L1(0.0)],
                             ids=["zero", "box", "l1"])
    def test_signed_zeros_match_the_zero_dual_product(self, reg):
        # w = l = -0.0 in coordinate 1, whose slope column is all negative:
        # the prox point is w - (l + A^T 0) / rho, and it keeps -0.0 only if
        # A^T 0 is +0.0 in every entry, as l + 0.0 is
        qp = make_qp(rho=2.0, anchor=[0.5, -0.0], linear=[1.0, -0.0], regularizer=reg, gamma=5.0,
                     offsets=[-10.0, -3.0], slopes=[[1.0, -1.0], [2.0, -0.5]])
        sol = solve_canonical_qp(qp)
        assert sol.active_set == () and sol.converged
        assert sol.u.tobytes() == zero_dual_prox_point(qp).tobytes()
        if isinstance(reg, Zero):
            assert np.signbit(sol.u[1])


class TestOneRowSchurSolve:
    """A 1x1 system inside the band is answered as b * (1/k), what lstsq returns."""

    lstsq = staticmethod(np.linalg.lstsq)  # the reference, taken before any test patches it

    @pytest.fixture
    def lstsq_shapes(self, monkeypatch):
        """The shapes of the systems that reach ``np.linalg.lstsq`` during the test."""
        shapes = []

        def recording(K, rhs, rcond=None):
            shapes.append(K.shape)
            return self.lstsq(K, rhs, rcond=rcond)

        monkeypatch.setattr(np.linalg, "lstsq", recording)
        return shapes

    def assert_scalar_path_matches_lstsq(self, lstsq_shapes, systems):
        for k, b in systems:
            K, rhs = np.array([[k]]), np.array([b])
            got = _least_squares(K, rhs)
            assert not lstsq_shapes, f"k={k!r}, b={b!r} took lstsq"
            assert got.tobytes() == self.lstsq(K, rhs, rcond=None)[0].tobytes(), (k, b)

    def test_log_uniform_draws_across_the_band(self, lstsq_shapes):
        rng = np.random.default_rng(19)
        draws = rng.choice([-1.0, 1.0], (2000, 2)) * 10.0 ** rng.uniform(-280.0, 280.0, (2000, 2))
        self.assert_scalar_path_matches_lstsq(lstsq_shapes, draws.tolist())

    def test_band_edges_signed_zeros_and_negative_k(self, lstsq_shapes):
        ks = [1e-280, 1e280, -1e-280, -1e280, 1.0, -3.0, 7.3e-140]
        bs = [0.0, -0.0, 1e-280, -1e-280, 1e280, -1e280, 2.5, -2.5]
        self.assert_scalar_path_matches_lstsq(lstsq_shapes, itertools.product(ks, bs))

    def test_outside_the_band_goes_to_lstsq(self, lstsq_shapes):
        systems = [(0.0, 1.0), (-0.0, 1.0), (1e-281, 1.0), (1e281, 1.0), (-1e300, -0.0),
                   (1.0, 1e-281), (1.0, -1e281), (1.0, np.inf), (1.0, np.nan)]
        for k, b in systems:
            K, rhs = np.array([[k]]), np.array([b])
            np.testing.assert_array_equal(_least_squares(K, rhs), self.lstsq(K, rhs, rcond=None)[0])
        assert lstsq_shapes == [(1, 1)] * len(systems)

    def test_larger_systems_keep_lstsq(self):
        rng = np.random.default_rng(20)
        for n in (2, 3, 5):
            K, rhs = rng.standard_normal((n, n)), rng.standard_normal(n)
            assert _least_squares(K, rhs).tobytes() == np.linalg.lstsq(K, rhs, rcond=None)[0].tobytes()

    def test_solver_falls_back_below_the_band(self, lstsq_shapes):
        # one hinge with slope 1e-150: its Schur system is k = 1e-300 < 1e-280
        sol = solve_canonical_qp(make_qp(gamma=10.0, offsets=[1.0], slopes=[1e-150]))
        assert (1, 1) in lstsq_shapes and sol.converged
        lstsq_shapes.clear()
        # slope -1: k = 1 takes the scalar path
        assert solve_canonical_qp(make_qp(gamma=10.0, offsets=[1.0], slopes=[-1.0])).converged
        assert (1, 1) not in lstsq_shapes


def criterion_1_stream():
    """Criterion 1's QPs: ``default_rng(2024)``, d <= 6, m <= 5, Zero/Box/L1 in thirds."""
    rng = np.random.default_rng(2024)
    for _ in range(1000):
        d, m = int(rng.integers(1, 7)), int(rng.integers(0, 6))
        yield random_instance(rng, d, m, random_regularizer(rng, d))


def answer_bytes(sol):
    """Every QpSolution field as bytes (floats as float64, the active set as int64)."""
    floats = (sol.v, sol.dual_v, sol.kkt_residual, sol.objective)
    return b"".join((
        sol.u.tobytes(), sol.mu.tobytes(), np.array(floats, dtype=np.float64).tobytes(),
        np.array(sol.active_set, dtype=np.int64).tobytes(), b"|",
        np.array((sol.converged, sol.prox_hit, sol.sweeps), dtype=np.int64).tobytes(),
    ))


# sha256 of answer_bytes over criterion 1's 1,000 QPs, each solved cold and then
# warm from its own answer; recorded before the certificate became one pass and
# one-row Schur systems stopped calling lstsq.  The bench's trace pins all run
# the Zero regularizer: this is the one that pins Box and L1 answers.
CRITERION_1_ANSWERS_PIN = "f79ea19ffa7a866d052020ea7c4da7ca71079d72c2867a5269e2516b6947aaa8"


def test_criterion_1_answers_pinned():
    h = hashlib.sha256()
    kinds = set()
    for qp in criterion_1_stream():
        kinds.add(type(qp.regularizer))
        cold = solve_canonical_qp(qp)
        h.update(answer_bytes(cold))
        h.update(answer_bytes(solve_canonical_qp(qp, warm=cold)))
    assert kinds == {Zero, BoxIndicator, L1}
    assert h.hexdigest() == CRITERION_1_ANSWERS_PIN


class TestSolverProperties:
    @pytest.mark.parametrize("seed", range(30))
    def test_oracle_agreement_sample(self, seed):
        rng = np.random.default_rng(seed)
        d, m = int(rng.integers(1, 7)), int(rng.integers(0, 6))
        qp = random_instance(rng, d, m, random_regularizer(rng, d))
        sol = solve_canonical_qp(qp)
        oracle = dense_oracle_qp(qp)
        assert np.max(np.abs(sol.u - oracle.u)) <= 1e-6
        assert abs(sol.objective - oracle.objective) <= 1e-8
        assert kkt_residual(qp, sol) <= 1e-9

    def test_dual_budget(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            d, m = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            qp = random_instance(rng, d, m, random_regularizer(rng, d))
            sol = solve_canonical_qp(qp)
            assert sol.mu.sum() <= qp.hinge_weight + 1e-8
            assert np.all(sol.mu >= -1e-12)

    def test_descent_from_anchor(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d, m = int(rng.integers(1, 7)), int(rng.integers(0, 6))
            reg = random_regularizer(rng, d)
            qp = random_instance(rng, d, m, reg)
            if isinstance(reg, BoxIndicator):
                # anchor must be admissible for the comparison to make sense
                qp = CanonicalQp(
                    rho=qp.rho, anchor=reg.prox(qp.anchor, 1.0), linear=qp.linear,
                    regularizer=reg, hinge_weight=qp.hinge_weight,
                    offsets=qp.offsets, slopes=qp.slopes,
                )
            sol = solve_canonical_qp(qp)
            assert qp_objective(qp, sol.u) <= qp_objective(qp, qp.anchor) + 1e-10

    def test_scaling_invariance(self):
        # multiplying (rho, l, Gamma) and any L1 weight by c rescales the
        # objective but not the minimizer
        rng = np.random.default_rng(11)
        for reg in (Zero(), L1(0.7), BoxIndicator(-np.ones(3), np.ones(3))):
            qp = random_instance(rng, d=3, m=2, regularizer=reg)
            c = 3.7
            scaled = CanonicalQp(
                rho=c * qp.rho, anchor=qp.anchor, linear=c * qp.linear,
                regularizer=reg.scaled(c), hinge_weight=c * qp.hinge_weight,
                offsets=qp.offsets, slopes=qp.slopes,
            )
            u1 = solve_canonical_qp(qp).u
            u2 = solve_canonical_qp(scaled).u
            np.testing.assert_allclose(u1, u2, atol=1e-8)

    def test_epigraph_consistency(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            d, m = int(rng.integers(1, 7)), int(rng.integers(1, 6))
            qp = random_instance(rng, d, m, random_regularizer(rng, d))
            sol = solve_canonical_qp(qp)
            hinge = max(0.0, float(np.max(qp.offsets + qp.slopes @ sol.u)))
            assert sol.v == pytest.approx(hinge, abs=1e-7)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            make_qp(rho=0.0)

    def test_warm_start_matches_cold(self):
        rng = np.random.default_rng(5)
        qp1 = random_instance(rng, d=4, m=3, regularizer=Zero())
        warm = solve_canonical_qp(qp1)
        qp2 = CanonicalQp(
            rho=qp1.rho, anchor=qp1.anchor + 0.01, linear=qp1.linear,
            regularizer=Zero(), hinge_weight=qp1.hinge_weight,
            offsets=qp1.offsets, slopes=qp1.slopes,
        )
        cold = solve_canonical_qp(qp2)
        warmed = solve_canonical_qp(qp2, warm=warm)
        np.testing.assert_allclose(warmed.u, cold.u, atol=1e-7)


# ---------------------------------------------------------------------------
# Property tests of the dual active-set loop on degenerate QPs

# derandomized, so that every run draws the same examples
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40, database=None)
coefficients = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False, allow_infinity=False)


@st.composite
def canonical_qps(draw, regularizer=st.sampled_from(["zero", "box", "l1"]), rho=st.floats(0.2, 5.0),
                  gamma=st.floats(0.0, 10.0)):
    """Random canonical QPs with d, m <= 5; ``regularizer``, ``rho`` and ``gamma`` are strategies."""
    d = draw(st.integers(1, 5))
    m = draw(st.integers(1, 5))
    kind = draw(regularizer)
    if kind == "zero":
        reg = Zero()
    elif kind == "box":
        lower = draw(arrays(np.float64, d, elements=st.floats(-2.0, 0.0)))
        reg = BoxIndicator(lower=lower, upper=lower + draw(arrays(np.float64, d, elements=st.floats(0.0, 3.0))))
    else:
        reg = L1(weight=draw(st.floats(0.0, 2.0)))
    return CanonicalQp(
        rho=draw(rho),
        anchor=draw(arrays(np.float64, d, elements=coefficients)),
        linear=draw(arrays(np.float64, d, elements=coefficients)),
        regularizer=reg,
        hinge_weight=draw(gamma),
        offsets=draw(arrays(np.float64, m, elements=coefficients)),
        slopes=draw(arrays(np.float64, (m, d), elements=st.floats(-2.0, 2.0))),
    )


def assert_loop_certifies(qp, tol=1e-9, warm=None):
    """The solver certifies qp to tol, its duality gap closes and it is no worse than the dense oracle."""
    sol = solve_canonical_qp(qp, tol=tol, warm=warm)
    assert sol.converged is True and sol.sweeps == 0
    assert kkt_residual(qp, sol) <= tol
    # |gap| is rounding-level (below 1e-13 on every drawn QP); rounding can make it slightly negative
    assert abs(duality_gap(qp, sol.u, sol.mu)) <= tol * (1.0 + abs(sol.objective))
    if qp.dim <= 6 and qp.m <= 6:
        # the oracle's optimum is exact, so only rounding may put the solver's objective below it
        ref = dense_oracle_qp(qp)
        assert sol.objective <= ref.objective + 1e-9 * (1.0 + abs(ref.objective))
    return sol


class TestActiveSetProperties:
    @PROPERTY_SETTINGS
    @given(qp=canonical_qps(), data=st.data())
    def test_duplicate_and_zero_rows(self, qp, data):
        slopes, offsets = qp.slopes.copy(), qp.offsets.copy()
        for k in range(qp.m):
            action = data.draw(st.sampled_from(["keep", "duplicate", "shifted", "zero"]))
            if action == "zero":
                slopes[k] = 0.0
            elif action != "keep" and k:
                j = data.draw(st.integers(0, k - 1))
                slopes[k] = slopes[j]
                offsets[k] = offsets[j] + (data.draw(coefficients) if action == "shifted" else 0.0)
        assert_loop_certifies(dataclasses.replace(qp, slopes=slopes, offsets=offsets))

    @PROPERTY_SETTINGS
    @given(qp=canonical_qps(gamma=st.just(0.0)))
    def test_zero_hinge_weight(self, qp):
        sol = assert_loop_certifies(qp)
        assert not sol.mu.any()

    @PROPERTY_SETTINGS
    @given(qp=canonical_qps(rho=st.floats(-3.0, 3.0).map(lambda e: 10.0**e)))
    def test_rho_over_six_decades(self, qp):
        assert_loop_certifies(qp)

    @PROPERTY_SETTINGS
    @given(qp=canonical_qps(regularizer=st.just("box")), data=st.data())
    def test_coinciding_box_faces(self, qp, data):
        upper = qp.regularizer.upper.copy()
        pinned = data.draw(arrays(np.bool_, qp.dim))
        upper[pinned] = qp.regularizer.lower[pinned]
        sol = assert_loop_certifies(dataclasses.replace(qp, regularizer=BoxIndicator(qp.regularizer.lower, upper)))
        np.testing.assert_array_equal(sol.u[pinned], qp.regularizer.lower[pinned])

    @PROPERTY_SETTINGS
    @given(qp=canonical_qps(gamma=st.floats(1e-3, 1.0)))
    def test_small_gamma_forces_positive_epigraph(self, qp):
        # shift the offsets so that the hinge stays >= 1 wherever the duals in
        # the capped simplex can move u (||u - u0|| <= Gamma ||A|| / rho)
        u0 = zero_dual_prox_point(qp)
        norm_sq = float(np.sum(qp.slopes**2))
        shift = 1.0 + qp.hinge_weight * norm_sq / qp.rho - float((qp.offsets + qp.slopes @ u0).max())
        sol = assert_loop_certifies(dataclasses.replace(qp, offsets=qp.offsets + max(shift, 0.0)))
        assert sol.v >= 1.0 - 1e-9

    @PROPERTY_SETTINGS
    @given(qp=canonical_qps(regularizer=st.just("l1")), data=st.data())
    def test_l1_weight_at_the_kink(self, qp, data):
        # the L1 weight equals |rho*w_i - l_i| (up to a relative 1e-12) for one
        # coordinate, which then sits on the soft-threshold kink of the prox point
        i = data.draw(st.integers(0, qp.dim - 1))
        scale = data.draw(st.sampled_from([1.0 - 1e-12, 1.0, 1.0 + 1e-12]))
        weight = abs(qp.rho * qp.anchor[i] - qp.linear[i]) * scale
        assert_loop_certifies(dataclasses.replace(qp, regularizer=L1(weight=weight)))

    @PROPERTY_SETTINGS
    @given(qp=canonical_qps(), data=st.data())
    def test_warm_start_from_a_neighbouring_qp(self, qp, data):
        # the previous QP's active set, epigraph case and duals may all be
        # wrong for the next one: offsets, anchor and Gamma move
        warm = assert_loop_certifies(qp)
        nxt = dataclasses.replace(
            qp,
            offsets=qp.offsets + data.draw(arrays(np.float64, qp.m, elements=coefficients)),
            anchor=qp.anchor + data.draw(arrays(np.float64, qp.dim, elements=st.floats(-0.5, 0.5))),
            hinge_weight=qp.hinge_weight * data.draw(st.floats(0.0, 2.0)),
        )
        assert_loop_certifies(nxt, warm=warm)
