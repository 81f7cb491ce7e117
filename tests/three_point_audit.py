"""The prox-linear one-step inequality along an SSQP run (tests only)."""

import numpy as np

from ssqpbench import ConstrainedProblem


def three_point_audit(
    problem: ConstrainedProblem,
    gamma: float,
    x_star: np.ndarray,
    steps: list[dict],
    slack: float = 1e-8,
) -> int:
    """Count violations of the prox-linear one-step inequality along a run.

    For each SSQP step record (x_t -> x_{t+1}), from the ``recorded_steps``
    fixture's ``"ssqp"`` list, with stepsize eta and sampled gradient ghat,
    checks

        <ghat, x_{t+1} - x_star> + h(x_{t+1}) + gamma*max_k [g_k(x_{t+1})]_+
        <= h(x_star) + (1/2 eta)||x_t - x_star||^2
           - (1/2 eta)||x_{t+1} - x_star||^2
           - (1/(2 eta) - gamma*L_g/2) ||x_{t+1} - x_t||^2

    which holds whenever x_star is feasible and x_{t+1} solves the subproblem.
    Raises ValueError when there are no records.
    """
    if not steps:
        raise ValueError("no recorded steps; run under the recorded_steps fixture")
    x_star = np.asarray(x_star, dtype=float)
    h = problem.regularizer.value
    violations = 0
    for rec in steps:
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
