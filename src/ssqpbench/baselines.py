"""Primal-dual stochastic subgradient baseline.

A generic saddle-point method for the same constrained problems: a proximal
stochastic gradient step on the Lagrangian in x, a projected ascent step in
the multipliers.  No QP is solved, so its trace has qmo = 0 throughout and
serves as the comparison curve for the SFO/QMO accounting experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problem_model import ConstrainedProblem, OracleCounters, SfoSample, sfo_query
from .algorithms import RunConfig, TraceRow, _Run
from .schedules import _Schedule

__all__ = ["PrimalDualState", "PrimalDualSchedule", "primal_dual_step", "primal_dual_run"]


@dataclass(frozen=True)
class PrimalDualSchedule(_Schedule):
    """Constant primal/dual stepsizes with optional Lagrangian-gradient clipping."""

    kind = "primal_dual"
    eta_x: float
    eta_lambda: float
    clip: Optional[float] = None

    def __post_init__(self):
        if self.eta_x <= 0 or self.eta_lambda <= 0:
            raise ValueError("stepsizes must be positive")
        if self.clip is not None and self.clip <= 0:
            raise ValueError("clip bound must be positive")


# the schedule classes primal_dual_run accepts (the harness rejects any other)
PRIMAL_DUAL_SCHEDULES = (PrimalDualSchedule,)


@dataclass
class PrimalDualState:
    x: np.ndarray
    duals: np.ndarray  # lambda >= 0 componentwise


def primal_dual_step(
    state: PrimalDualState,
    sample: SfoSample,
    eta_x: float,
    eta_lambda: float,
    regularizer,
    clip: Optional[float] = None,
) -> PrimalDualState:
    """One saddle-point update.

    x <- prox_{eta_x h}(x - eta_x (ghat + sum_k lambda_k grad g_k(x))),
    lambda_k <- [lambda_k + eta_lambda g_k(x)]_+.  When ``clip`` is set, the
    Lagrangian gradient is norm-clipped before the primal step.
    """
    lag_grad = sample.stochastic_gradient
    if sample.constraint_gradients.size:
        lag_grad = lag_grad + sample.constraint_gradients.T @ state.duals
    if clip is not None:
        norm = float(np.linalg.norm(lag_grad))
        if norm > clip:
            lag_grad = lag_grad * (clip / norm)
    x_next = regularizer.prox(state.x - eta_x * lag_grad, 1.0 / eta_x)
    duals_next = np.maximum(state.duals + eta_lambda * sample.constraint_values, 0.0)
    return PrimalDualState(x=x_next, duals=duals_next)


def primal_dual_run(
    problem: ConstrainedProblem, config: RunConfig
) -> tuple[np.ndarray, list[TraceRow], OracleCounters]:
    """Run the baseline for config.horizon steps; returns (last iterate, trace, counters)."""
    run = _Run(problem, config, PRIMAL_DUAL_SCHEDULES)
    schedule = config.schedule
    state = PrimalDualState(x=config.x0.copy(), duals=np.zeros(problem.m))
    for t in run.steps(lambda: state.x):
        sample = sfo_query(problem, state.x, run.batch(), run.counters)
        state = primal_dual_step(
            state, sample, schedule.eta_x, schedule.eta_lambda,
            problem.regularizer, schedule.clip,
        )
        run.guard(state.x, "primal-dual iteration {}", t)
    return state.x, run.trace, run.counters
