"""Canonical QP solver: closed-form cases, KKT certification, oracle agreement."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ssqpbench import (
    L1,
    BoxIndicator,
    CanonicalQp,
    Zero,
    dense_oracle_qp,
    kkt_residual,
    qp_objective,
    solve_canonical_qp,
)
import ssqpbench.qp_subproblem as qp_subproblem
from ssqpbench.qp_subproblem import (
    _coordinate_pattern,
    _faces,
    _pattern_iteration,
    _primal_from_dual,
    _refine_pattern,
    _solve_full_pattern_system,
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


def cycling_box_instance():
    """Box instance (d=6, m=3) whose coordinate-pattern iteration cycles.

    Instance 4 of the criterion-1 stream ``default_rng(2024)``.
    """
    return CanonicalQp(
        rho=2.1535938104579806,
        anchor=np.array([1.9735553403293085, 0.09906791154843822, 0.5382077472406755,
                         0.6630316327280554, 1.0556415438104036, -0.23751636353283292]),
        linear=np.array([-0.6101975720154739, -0.059613974391862584, -0.26081938409702304,
                         0.7906767161489346, 0.1896104030769387, 0.2392704544306721]),
        regularizer=BoxIndicator(
            lower=np.array([-1.159399678204241, -1.193106267809812, -0.11211436661249774,
                            -1.9035752427081445, -1.3478524189708998, -0.9621373388617145]),
            upper=np.array([0.8367357170058454, -0.5873685022498789, 0.9910276182988074,
                            -1.267934383956834, -0.8285255205842058, 0.343107127340718]),
        ),
        hinge_weight=1.3481885876743138,
        offsets=np.array([1.2283676805724408, -0.5426271806747859, -0.4783561223374009]),
        slopes=np.array([
            [0.885130796232711, -0.10641011004975655, 0.36087808534664895,
             -0.7289883307524213, 0.023331107517175056, 0.4318338284071015],
            [-1.3274366057127434, -0.6949340684151928, 0.4230625681693494,
             2.248808075105902, 0.4622860020006555, -0.058919583651991944],
            [-0.8452112239256144, 0.3916259358397935, -2.5014067590171156,
             -0.049529303003866015, -0.33014465543930227, -0.5194129145674927],
        ]),
    )


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

    def test_size_limit(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            dense_oracle_qp(random_instance(rng, d=9, m=2, regularizer=Zero()))

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


class TestPatternIteration:
    @staticmethod
    def capped_loop(qp, active, v_positive, pattern, max_rounds):
        """Refine/solve for max_rounds rounds or until a fixed point.

        Also reports whether a pattern other than a fixed point came round again.
        """
        u, mu, v = _solve_full_pattern_system(qp, active, v_positive, pattern)
        visited = [pattern.tobytes()]
        for _ in range(max_rounds):
            new = _refine_pattern(qp, u, mu, pattern)
            if np.array_equal(new, pattern):
                break
            pattern = new
            visited.append(pattern.tobytes())
            u, mu, v = _solve_full_pattern_system(qp, active, v_positive, pattern)
        u = np.clip(u, qp.regularizer.lower, qp.regularizer.upper)
        return (u, mu, v), len(set(visited)) < len(visited)

    @pytest.mark.parametrize("max_rounds", [30, 31, 7])
    def test_cycle_shortcut_matches_capped_loop(self, max_rounds):
        qp = cycling_box_instance()
        u0 = _primal_from_dual(qp, np.zeros(qp.m))
        seeds = [_coordinate_pattern(qp, u0, 1e-12), np.zeros(qp.dim, dtype=int)]
        cycling_runs = 0
        for size in range(qp.m + 1):
            for subset in itertools.combinations(range(qp.m), size):
                active = np.asarray(subset, dtype=int)
                for v_positive in ([False] if size == 0 else [False, True]):
                    for seed in seeds:
                        got = _pattern_iteration(qp, active, v_positive, seed, max_rounds)
                        want, cycled = self.capped_loop(qp, active, v_positive, seed, max_rounds)
                        cycling_runs += cycled
                        assert got[0].tobytes() == want[0].tobytes()
                        assert got[1].tobytes() == want[1].tobytes()
                        assert got[2] == want[2]
        assert cycling_runs > 0


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
        # objectives, not u: the oracle's u is wrong on some small-rho degenerate QPs
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
        u0 = _primal_from_dual(qp, np.zeros(qp.m))
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
