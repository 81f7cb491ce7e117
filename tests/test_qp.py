"""Canonical QP solver: closed-form cases, KKT certification, oracle agreement."""

import itertools

import numpy as np
import pytest

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
    _pattern_iteration,
    _primal_from_dual,
    _refine_pattern,
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
        u, mu, v = _solve_pattern_system(qp, active, v_positive, pattern)
        visited = [pattern.tobytes()]
        for _ in range(max_rounds):
            new = _refine_pattern(qp, u, mu, pattern)
            if np.array_equal(new, pattern):
                break
            pattern = new
            visited.append(pattern.tobytes())
            u, mu, v = _solve_pattern_system(qp, active, v_positive, pattern)
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
            u, mu, v = _solve_pattern_system(qp, active, v_positive, pattern)
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
        u, mu, v = _solve_pattern_system(qp, active, v_positive, pattern)
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
