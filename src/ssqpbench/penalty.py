"""Exact-penalty reformulation: penalty parameter selection and violation metrics.

The constrained problem min f + h s.t. g_k <= 0 is replaced by the merit
function F(x) = f(x) + h(x) + gamma * max{0, g_1(x), ..., g_m(x)}.  With a
strictly feasible point of margin nu and optimality gap at most beta_bar, any
gamma >= beta_bar / nu makes the two minimizers coincide.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem_model import ConstrainedProblem

__all__ = [
    "ViolationReport",
    "gamma_from_slater",
    "penalty_objective",
    "violation_report",
]


@dataclass(frozen=True)
class ViolationReport:
    """Hinge statistics of the constraint values at a point."""

    max_violation: float
    sum_violation: float


def gamma_from_slater(slater_gap: float, slater_margin: float) -> float:
    """Minimal certified penalty weight beta_bar / nu."""
    if not slater_margin > 0:
        raise ValueError("Slater margin nu must be positive")
    if slater_gap < 0:
        raise ValueError("Slater gap must be nonnegative")
    return slater_gap / slater_margin


def penalty_objective(problem: ConstrainedProblem, gamma: float, x: np.ndarray) -> float:
    """Merit value F(x) = f(x) + h(x) + gamma * max-hinge of the constraints.

    Returns +inf when x is outside the regularizer's domain (the sentinel is
    detectable via ``math.isinf``; no silent large numbers).  It is a reporting
    helper: the full objective pass is never charged to any oracle counter.
    """
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    x = np.asarray(x, dtype=float)
    if not problem.regularizer.in_domain(x):
        return math.inf
    f = problem.objective_value(x)
    h = problem.regularizer.value(x)
    cvals, _ = problem.constraint_values_grads(x)
    hinge = float(max(0.0, cvals.max())) if cvals.size else 0.0
    return float(f + h + gamma * hinge)


def violation_report(problem: ConstrainedProblem, x: np.ndarray) -> ViolationReport:
    """Max-hinge and sum-hinge constraint violation at x."""
    cvals, _ = problem.constraint_values_grads(np.asarray(x, dtype=float))
    if cvals.size == 0:
        return ViolationReport(0.0, 0.0)
    pos = np.maximum(cvals, 0.0)
    max_v = float(pos.max())
    if max_v == 0.0:
        return ViolationReport(0.0, 0.0)
    return ViolationReport(max_v, float(pos.sum()))
