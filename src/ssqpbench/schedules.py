"""Stepsize, skip-probability, and epoch-parameter schedules for the three solvers.

Every sequence here is the theorem-prescribed one: the SSQP stepsizes for the
convex (fixed-horizon or diminishing) and strongly convex regimes, the
SSQP-Skip stepsize/probability pair with the optional kickstart override, and
the VARAS per-epoch (alpha, beta, omega, T) parameters with the two iterate
weighting forms.  The constants a schedule derives from its fields (eta0,
the strongly convex offset, Skip's omega) are computed once per object.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "SsqpConvexSchedule",
    "SsqpStronglyConvexSchedule",
    "TunedConstantSchedule",
    "SkipSchedule",
    "VarasSchedule",
]


class _Schedule:
    """Shared config form of the frozen schedule dataclasses.

    Each schedule names its config ``kind`` and the constants ``derived`` from
    its fields; ``as_dict`` lists the kind, the fields, then those constants,
    and the harness checks the derived keys when it builds a schedule back.
    """

    kind: str
    derived: tuple[str, ...] = ()

    def as_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self), **{name: getattr(self, name) for name in self.derived}}


@dataclass(frozen=True)
class TunedConstantSchedule(_Schedule):
    """A hand-tuned constant SSQP stepsize (the benchmark experiments tune eta)."""

    kind = "tuned_constant"
    eta: float

    def __post_init__(self):
        if not self.eta > 0:
            raise ValueError("stepsize must be positive")

    def stepsize(self, t: int) -> float:
        if t < 0:
            raise ValueError("iteration must be >= 0")
        return self.eta


@dataclass(frozen=True)
class SsqpConvexSchedule(_Schedule):
    """SSQP stepsizes for merely convex problems.

    eta0 = min{sqrt(delta0)/(2 sigma), 1/(4L)} where delta0 bounds the initial
    merit gap, sigma the gradient noise, and L = max{gamma*L_g, L_f}; the
    noiseless sigma = 0 branch takes 1/(4L).  The fixed-horizon mode emits the
    constant eta0/sqrt(T); the diminishing mode emits eta0/sqrt(t+1).
    """

    kind = "ssqp_convex"
    derived = ("eta0",)
    horizon: int
    delta0: float
    sigma: float
    smoothness: float  # L = max{gamma*L_g, L_f}
    diminishing: bool = False

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon T must be >= 1")
        if self.delta0 <= 0 or self.smoothness <= 0 or self.sigma < 0:
            raise ValueError("need delta0 > 0, L > 0, sigma >= 0")

    @cached_property
    def eta0(self) -> float:
        cap = 1.0 / (4.0 * self.smoothness)
        if self.sigma == 0.0:
            return cap
        return min(math.sqrt(self.delta0) / (2.0 * self.sigma), cap)

    def stepsize(self, t: int) -> float:
        if t < 0:
            raise ValueError("iteration must be >= 0")
        if self.diminishing:
            return self.eta0 / math.sqrt(t + 1)
        return self.eta0 / math.sqrt(self.horizon)


@dataclass(frozen=True)
class SsqpStronglyConvexSchedule(_Schedule):
    """SSQP stepsizes eta_t = 2 / (mu (t + floor(16 kappa) + 1)), kappa = L/mu."""

    kind = "ssqp_strongly_convex"
    derived = ("offset",)
    mu: float
    smoothness: float

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("strongly convex schedule requires mu > 0")
        if self.smoothness < self.mu:
            raise ValueError("need L >= mu")

    @property
    def kappa(self) -> float:
        return self.smoothness / self.mu

    @cached_property
    def offset(self) -> int:
        return int(math.floor(16.0 * self.kappa))

    def stepsize(self, t: int) -> float:
        if t < 0:
            raise ValueError("iteration must be >= 0")
        return 2.0 / (self.mu * (t + self.offset + 1))


@dataclass(frozen=True)
class SkipSchedule(_Schedule):
    """SSQP-Skip parameters: omega = floor(4 kappa^2), eta_t = 2/(mu(t+1+omega)),
    p_t = sqrt(2 mu eta_t), overridden to p = 1 for the first ``kickstart`` steps."""

    kind = "skip"
    derived = ("omega",)
    mu: float
    smoothness: float
    kickstart: int = 0

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("SSQP-Skip requires mu > 0")
        if self.smoothness < self.mu:
            raise ValueError("need L >= mu")
        if self.kickstart < 0:
            raise ValueError("kickstart length must be >= 0")

    @property
    def kappa(self) -> float:
        return self.smoothness / self.mu

    @cached_property
    def omega(self) -> int:
        return int(math.floor(4.0 * self.kappa * self.kappa))

    def parameters(self, t: int) -> tuple[float, float]:
        """(eta_t, p_t) with the kickstart override applied."""
        if t < 0:
            raise ValueError("iteration must be >= 0")
        eta = 2.0 / (self.mu * (t + 1 + self.omega))
        p = math.sqrt(2.0 * self.mu * eta)
        if t < self.kickstart:
            p = 1.0
        return eta, min(p, 1.0)

    def expected_qp_solves(self, horizon: int) -> float:
        """Sum of p_t over t = 0..horizon-1 (mean QMO count)."""
        return sum(self.parameters(t)[1] for t in range(horizon))


@dataclass(frozen=True)
class VarasSchedule(_Schedule):
    """Per-epoch VARAS parameters.

    With L_gamma = L_f + gamma*L_g and s0 = floor(log2 n) + 1: epoch lengths
    double up to s0 then stay constant, omega_s = 1/2, beta_s = 1/(3 alpha_s
    L_gamma), and alpha_s follows the convex or strongly convex rule.  The
    iterate weights theta_t come in two forms: the uniform-tail form
    (beta/alpha)(alpha+omega) and the geometric form built from
    Gamma_t = (1+mu beta_s)^t; ``theta_form`` holds the selection rule.
    """

    kind = "varas"
    derived = ("s0",)
    n: int
    mu: float  # 0 selects the convex regime
    smoothness_gamma: float  # L_gamma

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("VARAS requires a finite sum (n >= 1)")
        if self.mu < 0:
            raise ValueError("mu must be >= 0")
        if self.smoothness_gamma <= 0:
            raise ValueError("L_gamma must be positive")

    @property
    def strongly_convex(self) -> bool:
        return self.mu > 0

    @property
    def s0(self) -> int:
        return int(math.floor(math.log2(self.n))) + 1

    @property
    def kappa(self) -> float:
        if not self.strongly_convex:
            raise ValueError("kappa undefined for mu = 0")
        return self.smoothness_gamma / self.mu

    def epoch_length(self, s: int) -> int:
        if s < 1:
            raise ValueError("epoch index starts at 1")
        return 2 ** (min(s, self.s0) - 1)

    def epoch_params(self, s: int) -> tuple[float, float, float, int]:
        """(alpha_s, beta_s, omega_s, T_s) for epoch s >= 1."""
        if s < 1:
            raise ValueError("epoch index starts at 1")
        # min{1/2, 2/(s - s0 + 4)} saturates at 1/2 whenever s <= s0
        denom = s - self.s0 + 4
        decay = 0.5 if denom <= 4 else min(0.5, 2.0 / denom)
        if not self.strongly_convex:
            alpha = decay
        else:
            alpha = min(0.5, max(decay, min(math.sqrt(self.n / (3.0 * self.kappa)), 0.5)))
        beta = 1.0 / (3.0 * alpha * self.smoothness_gamma)
        omega = 0.5
        return alpha, beta, omega, self.epoch_length(s)

    def theta_form(self, s: int) -> str:
        """Which weighting form epoch s uses: 'uniform' or 'geometric'."""
        if not self.strongly_convex or s <= self.s0:
            return "uniform"
        if self.n < 3.0 * self.kappa / 4.0 and s <= self.s0 + math.sqrt(12.0 * self.kappa / self.n) - 4.0:
            return "uniform"
        return "geometric"

    def theta(self, s: int, t: int) -> float:
        """Weight of the inner iterate x_t in the epoch output x~_s, 1 <= t <= T_s."""
        alpha, beta, omega, T_s = self.epoch_params(s)
        if not 1 <= t <= T_s:
            raise ValueError("inner iteration out of range")
        if self.theta_form(s) == "uniform":
            return beta / alpha * (alpha + omega) if t <= T_s - 1 else beta / alpha
        growth = 1.0 + self.mu * beta
        if t == T_s:
            return growth ** (T_s - 1)
        return growth ** (t - 1) - (1.0 - alpha - omega) * growth**t

    def normalized_theta(self, s: int) -> np.ndarray:
        """theta_1..theta_T normalized to sum 1, computed in log space.

        The geometric form grows like (1+mu beta)^t; working with exponents
        relative to the largest keeps long epochs from overflowing.
        """
        alpha, beta, omega, T_s = self.epoch_params(s)
        t_idx = np.arange(1, T_s + 1)
        if self.theta_form(s) == "uniform":
            w = np.full(T_s, beta / alpha * (alpha + omega))
            w[-1] = beta / alpha
        else:
            log_growth = math.log1p(self.mu * beta)
            expo = (t_idx - 1) * log_growth
            expo -= expo.max()
            # theta_t = Gamma_{t-1} (1 - (1-alpha-omega)(1+mu beta)) for t < T_s
            tail_coeff = 1.0 - (1.0 - alpha - omega) * (1.0 + self.mu * beta)
            w = np.exp(expo) * tail_coeff
            w[-1] = math.exp(expo[-1])
        return w / w.sum()

    def lemma_conditions_hold(self, s: int) -> bool:
        """Parameter conditions required by the convergence analysis."""
        alpha, beta, omega, _ = self.epoch_params(s)
        lf_term = 1.0 + self.mu * beta - alpha * beta * self.smoothness_gamma
        return (
            alpha + omega <= 1.0 + 1e-12
            and lf_term > 0.0
            and omega + 1e-12 >= alpha * beta * self.smoothness_gamma / lf_term
        )
