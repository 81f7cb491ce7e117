"""The three solver loops: SSQP, SSQP-Skip, and VARAS, plus the run instrumentation.

Each loop consumes a ConstrainedProblem through the oracle helpers, builds a
CanonicalQp per prox-linear step, and emits RunTrace checkpoints with SFO/QMO
counts and optimality metrics.  Every loop, the primal-dual baseline included,
runs on one ``_Run``: it owns the counters, the random streams, the divergence
guard and the checkpoint rule.  Checkpoint metric evaluation is pure
instrumentation and is never charged to the counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .penalty import penalty_objective, violation_report
from .problem_model import (
    ConstrainedProblem,
    OracleCounters,
    SfoSample,
    StreamingUnsupportedError,
    full_gradient,
    sfo_query,
)
from .qp_subproblem import CanonicalQp, QpSolution, solve_canonical_qp
from .schedules import (
    SkipSchedule,
    SsqpConvexSchedule,
    SsqpStronglyConvexSchedule,
    TunedConstantSchedule,
    VarasSchedule,
)

__all__ = [
    "RunConfig",
    "TraceRow",
    "RunTrace",
    "SsqpState",
    "SkipState",
    "DivergenceError",
    "ssqp_step",
    "ssqp_run",
    "ssqp_skip_step",
    "ssqp_skip_run",
    "varas_run",
    "three_point_audit",
]

DIVERGENCE_NORM = 1e12


class DivergenceError(RuntimeError):
    """Iterates exceeded the divergence guard; carries the partial trace."""

    def __init__(self, message: str, trace: "RunTrace"):
        super().__init__(message)
        self.trace = trace


@dataclass
class TraceRow:
    """One checkpoint: counters, optimality metrics, and model wall time.

    ``wall`` is deterministic model time sfo + M*qmo so traces are
    byte-reproducible; measured seconds live in run metadata only.
    """

    iteration: int
    sfo: int
    qmo: int
    gap: float
    rel_gap: float
    max_viol: float
    sum_viol: float
    dist_sq: float
    wall: float


@dataclass
class RunTrace:
    rows: list[TraceRow] = field(default_factory=list)
    steps: list[dict] = field(default_factory=list)  # populated when record_steps
    diverged: bool = False

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


@dataclass
class RunConfig:
    """Shared run options for all solver loops.

    Exactly one stopping rule applies: ``horizon`` iterations for SSQP,
    SSQP-Skip and primal-dual, ``epochs`` for VARAS.  A trace row is recorded
    at step 0, every ``checkpoint_stride`` steps (epochs for VARAS) and after
    the last step.  ``f_star``/``x_star`` enable the gap and dist_sq trace
    columns; unknown metrics are recorded as NaN.  Checkpoint metrics are
    never charged to the counters.
    """

    gamma: float
    schedule: object
    x0: np.ndarray
    horizon: int = 0
    epochs: int = 0
    batch_size: int = 1
    seed: int = 0
    checkpoint_stride: int = 1
    x_star: Optional[np.ndarray] = None
    f_star: Optional[float] = None
    cost_model_m: float = 1.0
    qp_tol: float = 1e-9
    record_steps: bool = False
    # SSQP-Skip test hook: refresh y to the fresh stochastic gradient each
    # step, which with p = 1 collapses the method to SSQP.
    refresh_y: bool = False

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if (self.horizon > 0) == (self.epochs > 0):
            raise ValueError("set exactly one of horizon or epochs")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.checkpoint_stride < 1:
            raise ValueError("checkpoint stride must be >= 1")
        if self.x_star is not None:
            self.x_star = np.asarray(self.x_star, dtype=float)


class _Run:
    """One solver run: counters, random streams, divergence guard and checkpoints.

    ``length`` is the number of steps (iterations, or epochs for VARAS).  Batch
    indices come from child 0 of ``SeedSequence(config.seed).spawn(2)`` and
    coin flips from child 1.  Checkpoint metrics are instrumentation only and
    never touch the counters.
    """

    def __init__(self, problem: ConstrainedProblem, config: RunConfig, length: int):
        self.problem = problem
        self.config = config
        self.length = length
        self.counters = OracleCounters()
        self.trace = RunTrace()
        batch_seed, coin_seed = np.random.SeedSequence(config.seed).spawn(2)
        self._batch_rng = np.random.default_rng(batch_seed)
        self._coin_rng = np.random.default_rng(coin_seed)

    def batch(self, size: Optional[int] = None) -> np.ndarray:
        """Draw ``size`` component indices (default ``config.batch_size``)."""
        size = self.config.batch_size if size is None else size
        high = np.iinfo(np.int64).max if self.problem.is_streaming else self.problem.n_components
        return self._batch_rng.integers(0, high, size=size)

    def coin(self, p: float) -> bool:
        """One Bernoulli(p) draw from the coin stream."""
        return bool(self._coin_rng.random() < p)

    def guard(self, x: np.ndarray, where: str) -> None:
        if float(np.linalg.norm(x)) > DIVERGENCE_NORM:
            self.trace.diverged = True
            raise DivergenceError(f"iterate norm exceeded {DIVERGENCE_NORM:g} during {where}", self.trace)

    def checkpoint(self, step: int, x: np.ndarray) -> None:
        """Record a row at step 0, every ``checkpoint_stride`` steps and after the last step."""
        if step % self.config.checkpoint_stride and step != self.length:
            return
        cfg = self.config
        gap = rel_gap = dist_sq = math.nan
        if not self.problem.is_streaming and cfg.f_star is not None:
            gap = penalty_objective(self.problem, cfg.gamma, x) - cfg.f_star
            if abs(cfg.f_star) >= 1e-12:
                rel_gap = gap / cfg.f_star
        if cfg.x_star is not None:
            diff = x - cfg.x_star
            dist_sq = float(diff @ diff)
        report = violation_report(self.problem, x)
        counters = self.counters
        self.trace.rows.append(
            TraceRow(
                iteration=step,
                sfo=counters.sfo_calls,
                qmo=counters.qmo_calls,
                gap=gap,
                rel_gap=rel_gap,
                max_viol=report.max_violation,
                sum_viol=report.sum_violation,
                dist_sq=dist_sq,
                wall=counters.sfo_calls + cfg.cost_model_m * counters.qmo_calls,
            )
        )


# ---------------------------------------------------------------------------
# SSQP


@dataclass
class SsqpState:
    """Current iterate plus the running stepsize-weighted average."""

    x: np.ndarray
    weighted_sum: np.ndarray = None
    weight_total: float = 0.0
    last_qp: Optional[QpSolution] = None

    def __post_init__(self):
        if self.weighted_sum is None:
            self.weighted_sum = np.zeros_like(self.x)

    @property
    def averaged(self) -> np.ndarray:
        if self.weight_total == 0.0:
            return self.x
        return self.weighted_sum / self.weight_total


def _linearized_qp(
    x: np.ndarray,
    rho: float,
    linear: np.ndarray,
    gamma: float,
    sample: SfoSample,
    regularizer,
) -> CanonicalQp:
    """Canonical subproblem with constraints linearized at x."""
    offsets = sample.constraint_values - sample.constraint_gradients @ x
    return CanonicalQp(
        rho=rho,
        anchor=x,
        linear=linear,
        regularizer=regularizer,
        hinge_weight=gamma,
        offsets=offsets,
        slopes=sample.constraint_gradients,
    )


def ssqp_step(
    state: SsqpState,
    sample: SfoSample,
    eta: float,
    gamma: float,
    regularizer,
    counters: Optional[OracleCounters] = None,
    qp_tol: float = 1e-9,
) -> SsqpState:
    """One prox-linear step from state.x using the sampled gradient.

    Minimizes <grad, u> + h(u) + (1/2 eta)||u - x||^2 + gamma * max-hinge of
    the constraint linearizations; the new iterate joins the running average
    with weight eta.
    """
    qp = _linearized_qp(state.x, 1.0 / eta, sample.stochastic_gradient, gamma, sample, regularizer)
    sol = solve_canonical_qp(qp, tol=qp_tol, warm=state.last_qp)
    if counters is not None:
        counters.qmo_calls += 1
    return SsqpState(
        x=sol.u,
        weighted_sum=state.weighted_sum + eta * sol.u,
        weight_total=state.weight_total + eta,
        last_qp=sol,
    )


def ssqp_run(
    problem: ConstrainedProblem, config: RunConfig
) -> tuple[np.ndarray, np.ndarray, RunTrace, OracleCounters]:
    """Run SSQP for config.horizon steps; returns (averaged, last, trace, counters)."""
    schedule = config.schedule
    if not isinstance(schedule, (SsqpConvexSchedule, SsqpStronglyConvexSchedule, TunedConstantSchedule)):
        raise TypeError("ssqp_run needs an SSQP schedule")
    run = _Run(problem, config, config.horizon)
    state = SsqpState(x=config.x0.copy())
    # the trace follows the averaged iterate under the convex schedule
    use_avg = isinstance(schedule, SsqpConvexSchedule)
    run.checkpoint(0, state.x)
    for t in range(config.horizon):
        sample = sfo_query(problem, state.x, run.batch(), run.counters)
        eta = schedule.stepsize(t)
        prev_x = state.x
        state = ssqp_step(state, sample, eta, config.gamma, problem.regularizer, run.counters, config.qp_tol)
        run.guard(state.x, f"ssqp iteration {t}")
        if config.record_steps:
            run.trace.steps.append(
                {"t": t, "x_t": prev_x, "x_next": state.x.copy(), "eta": eta, "sample": sample}
            )
        run.checkpoint(t + 1, state.averaged if use_avg else state.x)
    return state.averaged, state.x, run.trace, run.counters


# ---------------------------------------------------------------------------
# SSQP-Skip


@dataclass
class SkipState:
    """Iterate and gradient control variate for SSQP-Skip."""

    x: np.ndarray
    y: np.ndarray
    last_qp: Optional[QpSolution] = None


def ssqp_skip_step(
    state: SkipState,
    sample: SfoSample,
    eta: float,
    p: float,
    gamma: float,
    regularizer,
    solve_qp: bool,
    counters: Optional[OracleCounters] = None,
    qp_tol: float = 1e-9,
) -> SkipState:
    """One SSQP-Skip step; ``solve_qp`` is the realized Bernoulli(p) draw.

    Drift x~ = x - eta*(grad - y); with the QP branch the next iterate solves
    the canonical subproblem with quadratic weight p/(2 eta) anchored at x~ and
    linear term y, otherwise the drift is kept.  The control variate update
    y += p/(2 eta)*(x_next - x~) vanishes in the skip branch.
    """
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    drift = state.x - eta * (sample.stochastic_gradient - state.y)
    last_qp = state.last_qp
    if solve_qp:
        qp = _linearized_qp(drift, p / eta, state.y, gamma, sample, regularizer)
        sol = solve_canonical_qp(qp, tol=qp_tol, warm=state.last_qp)
        if counters is not None:
            counters.qmo_calls += 1
        x_next = sol.u
        last_qp = sol
    else:
        x_next = drift
    y_next = state.y + p / (2.0 * eta) * (x_next - drift)
    return SkipState(x=x_next, y=y_next, last_qp=last_qp)


def ssqp_skip_run(
    problem: ConstrainedProblem, config: RunConfig
) -> tuple[np.ndarray, RunTrace, OracleCounters]:
    """Run SSQP-Skip for config.horizon steps; returns (last iterate, trace, counters)."""
    schedule = config.schedule
    if not isinstance(schedule, SkipSchedule):
        raise TypeError("ssqp_skip_run needs a SkipSchedule")
    if problem.strong_convexity <= 0:
        raise ValueError("SSQP-Skip requires a strongly convex problem (mu > 0)")
    run = _Run(problem, config, config.horizon)
    x0 = config.x0.copy()
    # y0 costs one SFO batch, drawn before row 0
    init_sample = sfo_query(problem, x0, run.batch(), run.counters)
    state = SkipState(x=x0, y=init_sample.stochastic_gradient.copy())
    run.checkpoint(0, state.x)
    for t in range(config.horizon):
        sample = sfo_query(problem, state.x, run.batch(), run.counters)
        if config.refresh_y:
            state = replace(state, y=sample.stochastic_gradient.copy())
        eta, p = schedule.parameters(t)
        state = ssqp_skip_step(
            state, sample, eta, p, config.gamma, problem.regularizer,
            run.coin(p), run.counters, config.qp_tol,
        )
        run.guard(state.x, f"ssqp-skip iteration {t}")
        run.checkpoint(t + 1, state.x)
    return state.x, run.trace, run.counters


# ---------------------------------------------------------------------------
# VARAS


def _varas_zqp(
    y: np.ndarray,
    z_prev: np.ndarray,
    z_plus: np.ndarray,
    n_tilde: np.ndarray,
    cvals: np.ndarray,
    cgrads: np.ndarray,
    alpha: float,
    beta: float,
    mu: float,
    gamma: float,
    regularizer,
) -> CanonicalQp:
    """Reduce the z-update to canonical form.

    The z-update objective is alpha*beta*(<n~, u> + (mu/2)||y - u||^2 + h(u))
    + (alpha/2)||z_prev - u||^2 + gamma*beta*max-hinge of the constraint
    linearizations evaluated against z_plus with slope alpha*grad g_k.
    """
    rho = alpha * beta * mu + alpha
    anchor = (alpha * beta * mu * y + alpha * z_prev) / rho
    offsets = cvals - alpha * (cgrads @ z_plus)
    return CanonicalQp(
        rho=rho,
        anchor=anchor,
        linear=alpha * beta * n_tilde,
        regularizer=regularizer.scaled(alpha * beta),
        hinge_weight=gamma * beta,
        offsets=offsets,
        slopes=alpha * cgrads,
    )


def varas_run(
    problem: ConstrainedProblem, config: RunConfig
) -> tuple[np.ndarray, RunTrace, OracleCounters]:
    """Run VARAS for config.epochs epochs; returns (final snapshot, trace, counters).

    Each epoch takes one full gradient pass (n SFO) plus one SFO per inner
    iteration (the variance-reduced gradient pairs two component evaluations
    at the shared index).  A trace row is emitted per epoch at the new
    snapshot.
    """
    schedule = config.schedule
    if not isinstance(schedule, VarasSchedule):
        raise TypeError("varas_run needs a VarasSchedule")
    if problem.is_streaming:
        raise StreamingUnsupportedError("VARAS needs a finite-sum problem")
    run = _Run(problem, config, config.epochs)
    counters = run.counters
    mu = schedule.mu
    gamma = config.gamma

    snapshot = config.x0.copy()
    z = config.x0.copy()
    run.checkpoint(0, snapshot)
    last_qp: Optional[QpSolution] = None
    for s in range(1, config.epochs + 1):
        snap_grad = full_gradient(problem, snapshot, counters)
        alpha, beta, omega, t_s = schedule.epoch_params(s)
        weights = schedule.normalized_theta(s)
        x_prev = snapshot.copy()
        x_mix = np.zeros_like(x_prev)
        for t in range(1, t_s + 1):
            y = (
                (1 + mu * beta) * (1 - alpha - omega) * x_prev
                + alpha * z
                + (1 + mu * beta) * omega * snapshot
            ) / (1 + mu * beta * (1 - alpha))
            z_plus = (z + mu * beta * y) / (1 + mu * beta)
            idx = run.batch(1)
            _, ggrads = problem.component_values_grads(y, idx)
            _, snap_ggrads = problem.component_values_grads(snapshot, idx)
            counters.sfo_calls += 1
            n_tilde = ggrads[0] - snap_ggrads[0] + snap_grad
            cvals, cgrads = problem.constraint_values_grads(y)
            qp = _varas_zqp(
                y, z, z_plus, n_tilde, cvals, cgrads,
                alpha, beta, mu, gamma, problem.regularizer,
            )
            sol = solve_canonical_qp(qp, tol=config.qp_tol, warm=last_qp)
            counters.qmo_calls += 1
            last_qp = sol
            z_new = sol.u
            x_new = (1 - alpha - omega) * x_prev + alpha * z_new + omega * snapshot
            x_mix = x_mix + weights[t - 1] * x_new
            if config.record_steps:
                run.trace.steps.append(
                    {
                        "s": s, "t": t, "index": int(idx[0]), "y": y,
                        "z_prev": z.copy(), "z_plus": z_plus, "z": z_new.copy(),
                        "x_prev": x_prev.copy(), "x": x_new.copy(),
                        "n_tilde": n_tilde, "alpha": alpha, "beta": beta, "omega": omega,
                    }
                )
            x_prev = x_new
            z = z_new
            run.guard(x_new, f"varas epoch {s} inner {t}")
        snapshot = x_mix
        run.checkpoint(s, snapshot)
    return snapshot, run.trace, counters


# ---------------------------------------------------------------------------
# Audits


def three_point_audit(
    problem: ConstrainedProblem,
    gamma: float,
    x_star: np.ndarray,
    trace: RunTrace,
    slack: float = 1e-8,
) -> int:
    """Count violations of the prox-linear one-step inequality along a run.

    For each recorded SSQP step (x_t -> x_{t+1}) with stepsize eta and sampled
    gradient ghat, checks

        <ghat, x_{t+1} - x_star> + h(x_{t+1}) + gamma*max_k [g_k(x_{t+1})]_+
        <= h(x_star) + (1/2 eta)||x_t - x_star||^2
           - (1/2 eta)||x_{t+1} - x_star||^2
           - (1/(2 eta) - gamma*L_g/2) ||x_{t+1} - x_t||^2

    which holds whenever x_star is feasible and x_{t+1} solves the subproblem.
    Requires a trace produced with record_steps=True.
    """
    if not trace.steps:
        raise ValueError("trace has no recorded steps; run with record_steps=True")
    x_star = np.asarray(x_star, dtype=float)
    h = problem.regularizer.value
    violations = 0
    for rec in trace.steps:
        x_t, x_next, eta = rec["x_t"], rec["x_next"], rec["eta"]
        ghat = rec["sample"].stochastic_gradient
        cvals, _ = problem.constraint_values_grads(x_next)
        hinge_next = float(np.maximum(cvals, 0.0).max(initial=0.0))
        lhs = float(ghat @ (x_next - x_star)) + h(x_next) + gamma * hinge_next
        rhs = (
            h(x_star)
            + float((x_t - x_star) @ (x_t - x_star)) / (2 * eta)
            - float((x_next - x_star) @ (x_next - x_star)) / (2 * eta)
            - (1 / (2 * eta) - gamma * problem.constraint_smoothness / 2)
            * float((x_next - x_t) @ (x_next - x_t))
        )
        if lhs > rhs + slack:
            violations += 1
    return violations
