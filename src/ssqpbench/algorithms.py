"""The three solver loops: SSQP, SSQP-Skip, and VARAS, plus the run instrumentation.

Each loop consumes a ConstrainedProblem through the oracle helpers, builds a
CanonicalQp per prox-linear step, and emits RunTrace checkpoints with SFO/QMO
counts and optimality metrics.  Every loop, the primal-dual baseline included,
runs on one ``_Run``: it owns the counters, the random streams, the divergence
guard, the schedule check, the run's length and the checkpoint rule, and its
``steps`` generator is the loop.  Checkpoint metric evaluation is pure
instrumentation and is never charged to the counters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .penalty import penalty_objective, violation_report
from .problem_model import (
    ConstrainedProblem,
    OracleCounters,
    SfoSample,
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
    "varas_step",
    "varas_run",
]

DIVERGENCE_NORM = 1e12
# the KKT residual every QMO solve certifies to; an answer above it counts as qmo_nonconverged
QP_TOL = 1e-9
# the schedule classes each loop accepts (the harness rejects any other)
SSQP_SCHEDULES = (SsqpConvexSchedule, SsqpStronglyConvexSchedule, TunedConstantSchedule)
SKIP_SCHEDULES = (SkipSchedule,)
VARAS_SCHEDULES = (VarasSchedule,)
# values drawn at a time from each random stream of a run
_CHUNK = 4096


class DivergenceError(RuntimeError):
    """Iterates exceeded the divergence guard; carries the partial trace and the run's counters."""

    def __init__(self, message: str, trace: "RunTrace", counters: OracleCounters):
        super().__init__(message)
        self.trace = trace
        self.counters = counters


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
    """One solver run: counters, random streams, divergence guard, schedule check and checkpoints.

    ``config.schedule`` must be an instance of one of ``schedules``, else
    ``TypeError``.  The run takes ``config.horizon`` steps, or ``config.epochs``
    for VARAS (one step per epoch).  Batch indices come from child 0 of
    ``SeedSequence(config.seed).spawn(2)`` and coin flips from child 1.  Both
    streams are drawn ``_CHUNK`` values at a time and served in order: a bulk
    draw yields the same values as the per-call draws it replaces.  Checkpoint
    metrics are instrumentation only and never touch the counters.
    """

    def __init__(self, problem: ConstrainedProblem, config: RunConfig, schedules: tuple):
        if not isinstance(config.schedule, schedules):
            raise TypeError(f"this loop needs one of {[cls.__name__ for cls in schedules]}")
        self.problem = problem
        self.config = config
        self.counters = OracleCounters()
        self.trace = RunTrace()
        batch_seed, coin_seed = np.random.SeedSequence(config.seed).spawn(2)
        self._batch_rng = np.random.default_rng(batch_seed)
        self._coin_rng = np.random.default_rng(coin_seed)
        self._indices = np.empty(0, dtype=np.int64)
        self._index_pos = 0
        self._coins: list[float] = []
        self._coin_pos = 0

    def batch(self, size: Optional[int] = None) -> np.ndarray:
        """Next ``size`` component indices (default ``config.batch_size``), as a read-only view."""
        size = self.config.batch_size if size is None else size
        pos = self._index_pos
        if pos + size > len(self._indices):
            fresh = self._batch_rng.integers(0, self.problem.n_components, size=max(_CHUNK, size))
            self._indices = np.concatenate((self._indices[pos:], fresh))
            self._indices.flags.writeable = False
            pos = 0
        self._index_pos = pos + size
        return self._indices[pos : pos + size]

    def coin(self, p: float) -> bool:
        """One Bernoulli(p) draw from the coin stream."""
        if self._coin_pos == len(self._coins):
            self._coins = self._coin_rng.random(_CHUNK).tolist()
            self._coin_pos = 0
        u = self._coins[self._coin_pos]
        self._coin_pos += 1
        return bool(u < p)

    def guard(self, x: np.ndarray, where: str, *args) -> None:
        # the 2-norm of a 1-D array, computed as np.linalg.norm does; the
        # message fills ``where`` with ``args`` only when it raises
        if math.sqrt(float(x @ x)) > DIVERGENCE_NORM:
            where = where.format(*args)
            raise DivergenceError(
                f"iterate norm exceeded {DIVERGENCE_NORM:g} during {where}", self.trace, self.counters
            )

    def steps(self, point: Callable[[], np.ndarray]) -> Iterator[int]:
        """The loop: yields each step t = 0, 1, ...; records ``point()`` at step 0, each stride and the last step.

        A guard that raises in the loop body leaves the generator at its ``yield``: that step adds no row.
        """
        stride, length = self.config.checkpoint_stride, self.config.horizon or self.config.epochs
        self._checkpoint(0, point())
        for step in range(1, length + 1):
            yield step - 1
            if step % stride == 0 or step == length:
                self._checkpoint(step, point())

    def _checkpoint(self, step: int, x: np.ndarray) -> None:
        cfg = self.config
        gap = rel_gap = dist_sq = math.nan
        if cfg.f_star is not None:
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


def _solve_qmo(qp: CanonicalQp, warm: Optional[QpSolution], counters: Optional[OracleCounters]) -> QpSolution:
    """One QMO call: solve the subproblem to ``QP_TOL`` and, when counters are given, charge it."""
    sol = solve_canonical_qp(qp, tol=QP_TOL, warm=warm)
    if counters is not None:
        counters.qmo_calls += 1
        if not sol.converged:
            counters.qmo_nonconverged += 1
    return sol


def ssqp_step(
    state: SsqpState,
    sample: SfoSample,
    eta: float,
    gamma: float,
    regularizer,
    counters: Optional[OracleCounters] = None,
) -> SsqpState:
    """One prox-linear step from state.x using the sampled gradient.

    Minimizes <grad, u> + h(u) + (1/2 eta)||u - x||^2 + gamma * max-hinge of
    the constraint linearizations; the new iterate joins the running average
    with weight eta.
    """
    qp = _linearized_qp(state.x, 1.0 / eta, sample.stochastic_gradient, gamma, sample, regularizer)
    sol = _solve_qmo(qp, state.last_qp, counters)
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
    run = _Run(problem, config, SSQP_SCHEDULES)
    schedule = config.schedule
    state = SsqpState(x=config.x0.copy())
    # the trace follows the averaged iterate under the convex schedule
    use_avg = isinstance(config.schedule, SsqpConvexSchedule)
    for t in run.steps(lambda: state.averaged if use_avg else state.x):
        sample = sfo_query(problem, state.x, run.batch(), run.counters)
        state = ssqp_step(state, sample, schedule.stepsize(t), config.gamma, problem.regularizer, run.counters)
        run.guard(state.x, "ssqp iteration {}", t)
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
) -> SkipState:
    """One SSQP-Skip step; ``solve_qp`` is the realized Bernoulli(p) draw.

    Drift x~ = x - eta*(grad - y); with the QP branch the next iterate solves
    the canonical subproblem with quadratic weight p/(2 eta) anchored at x~ and
    linear term y, otherwise the drift is kept.  The control variate update
    y += p/(2 eta)*(x_next - x~) vanishes in the skip branch.  Only the QP
    branch reads the sample's constraint bundle, so a skipped step may pass a
    gradient-only sample.
    """
    if not 0 < p <= 1:
        raise ValueError("p must be in (0, 1]")
    drift = state.x - eta * (sample.stochastic_gradient - state.y)
    last_qp = state.last_qp
    if solve_qp:
        qp = _linearized_qp(drift, p / eta, state.y, gamma, sample, regularizer)
        last_qp = _solve_qmo(qp, state.last_qp, counters)
        x_next = last_qp.u
    else:
        x_next = drift
    y_next = state.y + p / (2.0 * eta) * (x_next - drift)
    return SkipState(x=x_next, y=y_next, last_qp=last_qp)


def ssqp_skip_run(
    problem: ConstrainedProblem, config: RunConfig
) -> tuple[np.ndarray, RunTrace, OracleCounters]:
    """Run SSQP-Skip for config.horizon steps; returns (last iterate, trace, counters).

    Each step draws its coin before its oracle call (the coin and batch
    streams are separate, so no draw moves).  The constraint bundle is
    evaluated only on steps whose coin solves the QP; the initial sample for
    y0 and the skipped steps evaluate the gradient alone.
    """
    run = _Run(problem, config, SKIP_SCHEDULES)
    schedule = config.schedule
    if problem.strong_convexity <= 0:
        raise ValueError("SSQP-Skip requires a strongly convex problem (mu > 0)")
    x0 = config.x0.copy()
    # y0 costs one SFO batch, drawn before row 0
    init_sample = sfo_query(problem, x0, run.batch(), run.counters, constraints=False)
    state = SkipState(x=x0, y=init_sample.stochastic_gradient.copy())
    for t in run.steps(lambda: state.x):
        eta, p = schedule.parameters(t)
        solve_qp = run.coin(p)
        sample = sfo_query(problem, state.x, run.batch(), run.counters, constraints=solve_qp)
        state = ssqp_skip_step(state, sample, eta, p, config.gamma, problem.regularizer, solve_qp, run.counters)
        run.guard(state.x, "ssqp-skip iteration {}", t)
    return state.x, run.trace, run.counters


# ---------------------------------------------------------------------------
# VARAS


def varas_step(
    x_prev: np.ndarray,
    z_prev: np.ndarray,
    y: np.ndarray,
    n_tilde: np.ndarray,
    sample: SfoSample,
    warm: Optional[QpSolution],
    counters: Optional[OracleCounters],
    constants: tuple,
) -> tuple[np.ndarray, QpSolution]:
    """One VARAS inner update from (x_{t-1}, z_{t-1}) at y_t; returns (x_t, QMO answer).

    z_t, the answer's ``u``, minimizes alpha*beta*(<n~, u> + (mu/2)||y - u||^2
    + h(u)) + (alpha/2)||z_prev - u||^2 + gamma*beta*max-hinge of the
    constraint linearizations evaluated against z_plus = (z_prev + mu*beta*y)
    / (1 + mu*beta) with slope alpha*grad g_k; it is solved in canonical form
    with one QMO call.  Then x_t = (1 - alpha - omega)*x_prev + alpha*z_t
    + omega*snapshot.  ``constants`` are the epoch's (alpha, mu*beta,
    1 + mu*beta, alpha*beta, alpha*beta*mu, the QP weight alpha*beta*mu + alpha,
    h scaled by alpha*beta, gamma*beta, 1 - alpha - omega, omega*snapshot).
    """
    alpha, mb, one_mb, ab, abm, rho, regularizer, hinge_weight, x_prev_coef, x_snap_term = constants
    z_plus = (z_prev + mb * y) / one_mb
    cgrads = sample.constraint_gradients
    qp = CanonicalQp(
        rho=rho,
        anchor=(abm * y + alpha * z_prev) / rho,
        linear=ab * n_tilde,
        regularizer=regularizer,
        hinge_weight=hinge_weight,
        offsets=sample.constraint_values - alpha * (cgrads @ z_plus),
        slopes=alpha * cgrads,
    )
    answer = _solve_qmo(qp, warm, counters)
    return x_prev_coef * x_prev + alpha * answer.u + x_snap_term, answer


def varas_run(
    problem: ConstrainedProblem, config: RunConfig
) -> tuple[np.ndarray, RunTrace, OracleCounters]:
    """Run VARAS for config.epochs epochs; returns (final snapshot, trace, counters).

    Each epoch takes one full gradient pass (n SFO) and keeps its per-component
    table.  Each inner iteration makes one SFO query at y for the drawn index
    i; the variance-reduced gradient n~ = grad f_i(y) - grad f_i(x~) + grad f(x~)
    reads grad f_i(x~) from the table, so an inner step evaluates one
    component.  ``varas_step`` then makes the update.  A trace row is emitted
    per epoch at the new snapshot.
    """
    run = _Run(problem, config, VARAS_SCHEDULES)
    schedule = config.schedule
    counters = run.counters
    mu = schedule.mu

    snapshot = config.x0.copy()
    z = config.x0.copy()
    answer: Optional[QpSolution] = None
    for done in run.steps(lambda: snapshot):
        s = done + 1
        snap_grad, snap_table = full_gradient(problem, snapshot, counters)
        alpha, beta, omega, t_s = schedule.epoch_params(s)
        weights = schedule.normalized_theta(s)
        # per-epoch constants, each formed in the order the step formulas use
        mb = mu * beta
        one_mb = 1 + mb
        y_prev_coef = one_mb * (1 - alpha - omega)
        y_snap_term = one_mb * omega * snapshot
        y_denom = 1 + mb * (1 - alpha)
        ab = alpha * beta
        abm = ab * mu
        constants = (
            alpha, mb, one_mb, ab, abm, abm + alpha, problem.regularizer.scaled(ab),
            config.gamma * beta, 1 - alpha - omega, omega * snapshot,
        )
        x = snapshot.copy()
        x_mix = np.zeros_like(x)
        for t in range(1, t_s + 1):
            y = (y_prev_coef * x + alpha * z + y_snap_term) / y_denom
            idx = run.batch(1)
            sample = sfo_query(problem, y, idx, counters)
            n_tilde = sample.stochastic_gradient - snap_table[idx[0]] + snap_grad
            x, answer = varas_step(x, z, y, n_tilde, sample, answer, counters, constants)
            z = answer.u
            x_mix = x_mix + weights[t - 1] * x
            run.guard(x, "varas epoch {} inner {}", s, t)
        snapshot = x_mix
    return snapshot, run.trace, counters
