"""Theorem-prescribed stepsize, probability, and epoch-parameter sequences."""

import math

import numpy as np
import pytest

from ssqpbench import (
    PrimalDualSchedule,
    SkipSchedule,
    SsqpConvexSchedule,
    SsqpStronglyConvexSchedule,
    TunedConstantSchedule,
    VarasSchedule,
)


class TestSsqpConvex:
    def test_fixed_horizon_constant(self):
        # delta0 = sigma = L = 1: eta0 = min{1/2, 1/4} = 1/4, eta = 1/4/sqrt(100)
        sched = SsqpConvexSchedule(horizon=100, delta0=1.0, sigma=1.0, smoothness=1.0)
        assert sched.eta0 == pytest.approx(0.25)
        assert sched.stepsize(0) == pytest.approx(0.025)
        assert sched.stepsize(99) == pytest.approx(0.025)

    def test_noiseless_branch(self):
        sched = SsqpConvexSchedule(horizon=16, delta0=1.0, sigma=0.0, smoothness=2.0)
        assert sched.eta0 == pytest.approx(1.0 / 8.0)

    def test_diminishing_mode(self):
        sched = SsqpConvexSchedule(horizon=100, delta0=1.0, sigma=1.0, smoothness=1.0, diminishing=True)
        assert sched.stepsize(0) == pytest.approx(0.25)
        assert sched.stepsize(3) == pytest.approx(0.125)

    def test_validation(self):
        with pytest.raises(ValueError):
            SsqpConvexSchedule(horizon=0, delta0=1.0, sigma=1.0, smoothness=1.0)
        with pytest.raises(ValueError):
            SsqpConvexSchedule(horizon=10, delta0=-1.0, sigma=1.0, smoothness=1.0)


class TestSsqpStronglyConvex:
    def test_first_step(self):
        # mu=1, L=10: offset floor(160), eta_0 = 2/161
        sched = SsqpStronglyConvexSchedule(mu=1.0, smoothness=10.0)
        assert sched.offset == 160
        assert sched.stepsize(0) == pytest.approx(2.0 / 161.0)

    def test_strictly_decreasing(self):
        sched = SsqpStronglyConvexSchedule(mu=0.5, smoothness=4.0)
        steps = [sched.stepsize(t) for t in range(50)]
        assert all(a > b for a, b in zip(steps, steps[1:]))

    def test_proof_stepsize_cap(self):
        # analysis needs eta_t <= 1/(8L) throughout
        sched = SsqpStronglyConvexSchedule(mu=1.0, smoothness=10.0)
        assert all(sched.stepsize(t) <= 1.0 / (8.0 * 10.0) + 1e-15 for t in range(1000))

    def test_rejects_mu_zero(self):
        with pytest.raises(ValueError):
            SsqpStronglyConvexSchedule(mu=0.0, smoothness=1.0)


class TestTunedConstant:
    def test_constant(self):
        sched = TunedConstantSchedule(eta=0.009)
        assert sched.stepsize(0) == sched.stepsize(1000) == 0.009

    def test_positive_required(self):
        with pytest.raises(ValueError):
            TunedConstantSchedule(eta=0.0)


class TestSkipSchedule:
    def test_omega_and_first_probability(self):
        # mu=1, L=10: omega = floor(4*100) = 400, p0 = sqrt(4/401)
        sched = SkipSchedule(mu=1.0, smoothness=10.0)
        assert sched.omega == 400
        eta0, p0 = sched.parameters(0)
        assert eta0 == pytest.approx(2.0 / 401.0)
        assert p0 == pytest.approx(math.sqrt(4.0 / 401.0))
        assert p0 == pytest.approx(0.09988, abs=1e-5)

    def test_kickstart_override(self):
        sched = SkipSchedule(mu=1.0, smoothness=10.0, kickstart=100)
        assert sched.parameters(50)[1] == 1.0
        assert sched.parameters(100)[1] < 1.0

    def test_probability_in_unit_interval(self):
        for mu, L in [(1.0, 1.0), (0.5, 5.0), (2.0, 40.0)]:
            sched = SkipSchedule(mu=mu, smoothness=L)
            for t in range(2000):
                eta, p = sched.parameters(t)
                assert 0.0 < p <= 1.0
                assert eta > 0.0

    def test_lemma_precondition_eta_le_p_over_2l(self):
        sched = SkipSchedule(mu=1.0, smoothness=10.0)
        for t in range(5000):
            eta, p = sched.parameters(t)
            assert eta <= p / (2.0 * sched.smoothness) + 1e-15

    def test_expected_qp_solves_bound(self):
        # proof bound: sum of p_t over a horizon is at most 4 sqrt(T + omega)
        sched = SkipSchedule(mu=1.0, smoothness=10.0)
        for horizon in (100, 1000, 10000):
            total = sched.expected_qp_solves(horizon)
            assert total <= 4.0 * math.sqrt(horizon + sched.omega)
            assert total >= 0.25 * math.sqrt(horizon + sched.omega)


class TestVarasSchedule:
    def test_epoch_lengths_double_then_saturate(self):
        sched = VarasSchedule(n=8, mu=0.0, smoothness_gamma=1.0)
        assert sched.s0 == 4
        assert [sched.epoch_length(s) for s in range(1, 6)] == [1, 2, 4, 8, 8]

    def test_convex_alpha_saturates_early(self):
        sched = VarasSchedule(n=8, mu=0.0, smoothness_gamma=2.0)
        for s in range(1, sched.s0 + 1):
            alpha, beta, omega, _ = sched.epoch_params(s)
            assert alpha == 0.5
            assert beta == pytest.approx(2.0 / (3.0 * 2.0))
            assert omega == 0.5

    def test_convex_alpha_decays_after_s0(self):
        L = 5.0
        sched = VarasSchedule(n=8, mu=0.0, smoothness_gamma=L)
        alpha, beta, _, _ = sched.epoch_params(sched.s0 + 2)
        assert alpha == pytest.approx(1.0 / 3.0)
        assert beta == pytest.approx(1.0 / L)

    def test_strongly_convex_alpha_uses_condition_number(self):
        # n and kappa chosen so sqrt(n/(3 kappa)) < 1/2 kicks in after decay fades
        sched = VarasSchedule(n=16, mu=1.0, smoothness_gamma=100.0)
        floor = min(math.sqrt(16.0 / 300.0), 0.5)
        alpha_late, _, _, _ = sched.epoch_params(sched.s0 + 50)
        assert alpha_late == pytest.approx(max(2.0 / (sched.s0 + 50 - sched.s0 + 4), floor))

    def test_theta_uniform_when_alpha_plus_omega_is_one(self):
        # s <= s0: alpha = omega = 1/2, so both weighting branches coincide at
        # theta = beta/alpha = 4/(3 L)
        L = 3.0
        sched = VarasSchedule(n=8, mu=0.0, smoothness_gamma=L)
        s = 3
        _, beta, _, T_s = sched.epoch_params(s)
        for t in range(1, T_s + 1):
            if t < T_s:
                assert sched.theta(s, t) == pytest.approx((beta / 0.5) * 1.0)
            else:
                assert sched.theta(s, t) == pytest.approx(beta / 0.5)

    def test_geometric_form_with_full_mixing(self):
        # alpha + omega = 1 makes the geometric weights pure Gamma_{t-1}
        sched = VarasSchedule(n=4, mu=2.0, smoothness_gamma=4.0)
        s = sched.s0 + 1
        if sched.theta_form(s) == "geometric":
            alpha, beta, omega, T_s = sched.epoch_params(s)
            if abs(alpha + omega - 1.0) < 1e-12:
                for t in range(1, T_s + 1):
                    assert sched.theta(s, t) == pytest.approx((1.0 + 2.0 * beta) ** (t - 1))

    def test_weights_positive_over_twenty_epochs(self):
        for sched in (
            VarasSchedule(n=8, mu=0.0, smoothness_gamma=2.0),
            VarasSchedule(n=64, mu=1.0, smoothness_gamma=20.0),
            VarasSchedule(n=8, mu=1.0, smoothness_gamma=100.0),
        ):
            for s in range(1, 21):
                w = sched.normalized_theta(s)
                assert np.all(w > 0.0) and np.all(np.isfinite(w))
                assert w.sum() == pytest.approx(1.0)

    def test_normalized_theta_matches_direct_ratios(self):
        sched = VarasSchedule(n=64, mu=1.0, smoothness_gamma=20.0)
        for s in (2, sched.s0 + 1, sched.s0 + 3):
            _, _, _, T_s = sched.epoch_params(s)
            raw = np.array([sched.theta(s, t) for t in range(1, T_s + 1)])
            np.testing.assert_allclose(sched.normalized_theta(s), raw / raw.sum(), rtol=1e-10)

    def test_lemma_conditions_hold(self):
        for sched in (
            VarasSchedule(n=8, mu=0.0, smoothness_gamma=2.0),
            VarasSchedule(n=64, mu=1.0, smoothness_gamma=20.0),
        ):
            assert all(sched.lemma_conditions_hold(s) for s in range(1, 31))

    def test_kappa_undefined_for_convex(self):
        with pytest.raises(ValueError):
            _ = VarasSchedule(n=8, mu=0.0, smoothness_gamma=1.0).kappa

    def test_epoch_index_starts_at_one(self):
        sched = VarasSchedule(n=8, mu=0.0, smoothness_gamma=1.0)
        with pytest.raises(ValueError):
            sched.epoch_length(0)
        with pytest.raises(ValueError):
            sched.theta(1, 0)


class TestDerivedConstantsComputedOnce:
    """eta0, offset and omega are cached per object; values and as_dict() are the formulas'."""

    @pytest.mark.parametrize("sigma", [0.0, 0.3, 7.0])
    def test_convex_eta0(self, sigma):
        sched = SsqpConvexSchedule(horizon=50, delta0=2.0, sigma=sigma, smoothness=3.0, diminishing=True)
        cap = 1.0 / 12.0
        expected = cap if sigma == 0.0 else min(math.sqrt(2.0) / (2.0 * sigma), cap)
        assert sched.eta0 == expected and sched.eta0 is sched.eta0
        assert [sched.stepsize(t) for t in range(3)] == [expected / math.sqrt(t + 1) for t in range(3)]
        assert sched.as_dict() == {"kind": "ssqp_convex", "horizon": 50, "delta0": 2.0, "sigma": sigma,
                                   "smoothness": 3.0, "diminishing": True, "eta0": expected}

    def test_strongly_convex_offset(self):
        sched = SsqpStronglyConvexSchedule(mu=0.7, smoothness=5.3)
        expected = int(math.floor(16.0 * (5.3 / 0.7)))
        assert sched.offset == expected and type(sched.offset) is int
        assert [sched.stepsize(t) for t in range(3)] == [2.0 / (0.7 * (t + expected + 1)) for t in range(3)]
        assert sched.as_dict() == {"kind": "ssqp_strongly_convex", "mu": 0.7, "smoothness": 5.3, "offset": expected}

    def test_skip_omega(self):
        sched = SkipSchedule(mu=0.7, smoothness=5.3, kickstart=2)
        kappa = 5.3 / 0.7
        expected = int(math.floor(4.0 * kappa * kappa))
        assert sched.omega == expected and type(sched.omega) is int
        for t in range(4):
            eta = 2.0 / (0.7 * (t + 1 + expected))
            p = 1.0 if t < 2 else min(math.sqrt(2.0 * 0.7 * eta), 1.0)
            assert sched.parameters(t) == (eta, p)
        assert sched.as_dict() == {"kind": "skip", "mu": 0.7, "smoothness": 5.3, "omega": expected, "kickstart": 2}

    def test_config_form_of_the_other_kinds(self):
        # the kind, the fields in order, then VARAS's derived s0 = floor(log2 n) + 1
        assert TunedConstantSchedule(eta=0.3).as_dict() == {"kind": "tuned_constant", "eta": 0.3}
        assert VarasSchedule(n=12, mu=0.5, smoothness_gamma=7.0).as_dict() == {
            "kind": "varas", "n": 12, "mu": 0.5, "smoothness_gamma": 7.0, "s0": 4}
        assert PrimalDualSchedule(eta_x=0.01, eta_lambda=0.02).as_dict() == {
            "kind": "primal_dual", "eta_x": 0.01, "eta_lambda": 0.02, "clip": None}

    def test_cache_keeps_equality_and_hash(self):
        used, fresh = SkipSchedule(mu=0.5, smoothness=2.0), SkipSchedule(mu=0.5, smoothness=2.0)
        used.parameters(0)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
