"""Constrained problem definitions, the stochastic first-order oracle, and call accounting.

A problem is a finite-sum smooth convex objective over n >= 1 components, m smooth
convex inequality constraints, and a simple regularizer.  It is evaluated
only through two block evaluators: ``component_block(x, idx)`` gives the
values (b,) and gradients (b, d) of the components in the index array ``idx``,
and ``constraint_block(x)`` gives the values (m,) and gradients (m, d) of all
constraints (none when m = 0).  All function and gradient evaluations flow
through the oracle helpers in this module so the SFO/QMO accounting used by
the benchmark harness stays consistent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "Zero",
    "BoxIndicator",
    "L1",
    "Regularizer",
    "ConstrainedProblem",
    "SfoSample",
    "OracleCounters",
    "NonFiniteEvaluationError",
    "sfo_query",
    "full_gradient",
]


class NonFiniteEvaluationError(RuntimeError):
    """An oracle evaluation produced NaN or infinity; the run must abort."""


# ---------------------------------------------------------------------------
# Regularizers


@dataclass(frozen=True)
class Zero:
    """No regularization: h(u) = 0."""

    def value(self, u: np.ndarray) -> float:
        return 0.0

    def prox(self, y: np.ndarray, rho: float) -> np.ndarray:
        return np.asarray(y, dtype=float)

    def in_domain(self, u: np.ndarray) -> bool:
        return True

    def scaled(self, c: float) -> "Zero":
        return self


@dataclass(frozen=True)
class BoxIndicator:
    """Indicator of the box [lower, upper]; entries may be +-inf."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.atleast_1d(np.asarray(self.lower, dtype=float))
        hi = np.atleast_1d(np.asarray(self.upper, dtype=float))
        if lo.shape != hi.shape:
            raise ValueError("box bounds must have matching shapes")
        if np.any(lo > hi):
            raise ValueError("box requires lower <= upper componentwise")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    def value(self, u: np.ndarray) -> float:
        return 0.0 if self.in_domain(u) else float("inf")

    def prox(self, y: np.ndarray, rho: float) -> np.ndarray:
        return np.clip(y, self.lower, self.upper)

    def in_domain(self, u: np.ndarray, tol: float = 1e-12) -> bool:
        u = np.asarray(u)
        return bool(np.all(u >= self.lower - tol) and np.all(u <= self.upper + tol))

    def scaled(self, c: float) -> "BoxIndicator":
        return self


@dataclass(frozen=True)
class L1:
    """Weighted l1 penalty h(u) = weight * ||u||_1."""

    weight: float

    def __post_init__(self):
        if self.weight < 0:
            raise ValueError("l1 weight must be nonnegative")

    def value(self, u: np.ndarray) -> float:
        return float(self.weight * np.sum(np.abs(u)))

    def prox(self, y: np.ndarray, rho: float) -> np.ndarray:
        thr = self.weight / rho
        return np.sign(y) * np.maximum(np.abs(y) - thr, 0.0)

    def in_domain(self, u: np.ndarray) -> bool:
        return True

    def scaled(self, c: float) -> "L1":
        return L1(self.weight * c)


Regularizer = Zero | BoxIndicator | L1


# ---------------------------------------------------------------------------
# Oracle records


@dataclass
class OracleCounters:
    """Monotone SFO/QMO call counts; a full gradient pass adds n SFO calls.

    ``qmo_nonconverged`` counts the QMO answers whose KKT residual did not
    certify to the requested tolerance (``QpSolution.converged`` false); the
    run still uses them.
    """

    sfo_calls: int = 0
    qmo_calls: int = 0
    full_gradient_passes: int = 0
    qmo_nonconverged: int = 0


@dataclass
class SfoSample:
    """One oracle response: a batch-mean stochastic gradient plus the full constraint bundle.

    The bundle fields are None when the query asked for the gradient only.
    """

    stochastic_gradient: np.ndarray
    constraint_values: Optional[np.ndarray]
    constraint_gradients: Optional[np.ndarray]


ComponentBlock = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
ConstraintBlock = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass
class ConstrainedProblem:
    """A finite-sum convex objective f = mean_i f_i, n >= 1, with m smooth constraints g_k <= 0.

    Evaluation goes through two block evaluators only:

    - ``component_block(x, idx)`` takes an integer index array of length b and
      returns ``(vals (b,), grads (b, dim))``, row j holding ``f_idx[j](x)``
      and its gradient, for indices in [0, n_components).  The returned arrays
      must not be written by later calls: VARAS reads a full pass's gradient
      rows for a whole epoch.
    - ``constraint_block(x)`` returns ``(vals (m,), grads (m, dim))``, row k
      holding ``g_k(x)`` and its gradient.  It is required exactly when
      ``m > 0``.
    """

    dim: int
    n_components: int
    component_block: ComponentBlock
    smoothness: float
    constraint_smoothness: float
    m: int = 0
    constraint_block: Optional[ConstraintBlock] = None
    regularizer: Regularizer = field(default_factory=Zero)
    strong_convexity: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if self.n_components < 1:
            raise ValueError("component count must be >= 1")
        if self.component_block is None:
            raise ValueError("a component block evaluator is required")
        if self.m < 0:
            raise ValueError("constraint count m must be >= 0")
        if (self.constraint_block is None) != (self.m == 0):
            raise ValueError("a constraint block evaluator is required exactly when m > 0")
        if not self.smoothness > 0:
            raise ValueError("objective smoothness L_f must be positive")
        if self.constraint_smoothness < 0:
            raise ValueError("constraint smoothness L_g must be nonnegative")
        if self.strong_convexity < 0 or self.strong_convexity > self.smoothness + 1e-12:
            raise ValueError("need 0 <= mu <= L_f")

    # -- raw evaluation helpers (no counting) --

    def component_values_grads(self, x: np.ndarray, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        vals, grads = self.component_block(x, indices)
        return np.asarray(vals, dtype=float), np.asarray(grads, dtype=float)

    def constraint_values_grads(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.m == 0:
            return np.empty(0), np.empty((0, self.dim))
        vals, grads = self.constraint_block(x)
        return np.asarray(vals, dtype=float), np.asarray(grads, dtype=float)

    def objective_value(self, x: np.ndarray) -> float:
        """Exact f(x) = mean_i f_i(x), not counted."""
        vals, _ = self.component_values_grads(x, np.arange(self.n_components))
        return float(np.mean(vals))


# ---------------------------------------------------------------------------
# Oracle operations


# +0.0 as a read-only 0-d array: adding it to a row skips the conversion of a Python float
_ZERO = np.zeros(())
_ZERO.flags.writeable = False


def _check_finite(arr: np.ndarray, what: str):
    # exact, and count_nonzero skips the Python-level wrapper that ndarray.all goes through
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise NonFiniteEvaluationError(f"non-finite {what}; problem ill-posed or run diverged")


def sfo_query(
    problem: ConstrainedProblem,
    x: np.ndarray,
    batch: Sequence[int],
    counters: Optional[OracleCounters] = None,
    constraints: bool = True,
) -> SfoSample:
    """One SFO call: batch-mean gradient of f plus all constraint values/gradients at x.

    The batch is a 1-D array of integer component indices; another shape or
    dtype (float, bool) raises IndexError instead of being truncated.  A
    one-index query's gradient is the block's row, with no batch reduction.
    Costs ``len(batch)`` SFO units; the constraint bundle is free under the
    oracle model used throughout.  With ``constraints=False`` the bundle is
    not evaluated and the sample's constraint fields are None: SSQP-Skip asks
    for that on the steps whose coin skips the QP, which never read it.
    """
    x = np.asarray(x, dtype=float)
    _check_finite(x, "query point")
    batch = np.asarray(batch)
    b = batch.size
    if b == 0:
        raise ValueError("batch must be nonempty")
    if batch.ndim != 1 or batch.dtype.kind not in "iu":
        raise IndexError("component indices must be a 1-D integer array")
    n = problem.n_components
    if not (0 <= batch.item(0) < n if b == 1 else 0 <= batch.min() and batch.max() < n):
        raise IndexError("component index out of range")
    _, grads = problem.component_values_grads(x, batch)
    # bit for bit what grads.mean(axis=0) computes.  The reduction starts from
    # +0.0, so one row's mean is the row plus 0.0: -0.0 turns into +0.0 and
    # every other value is kept.
    grad = grads[0] + _ZERO if b == 1 else np.add.reduce(grads, axis=0) / b
    _check_finite(grad, "stochastic gradient")
    cvals = cgrads = None
    if constraints:
        cvals, cgrads = problem.constraint_values_grads(x)
        _check_finite(cvals, "constraint value")
        _check_finite(cgrads, "constraint gradient")
    if counters is not None:
        counters.sfo_calls += b
    return SfoSample(grad, cvals, cgrads)


def full_gradient(
    problem: ConstrainedProblem,
    x: np.ndarray,
    counters: Optional[OracleCounters] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact mean gradient over all n components, and the (n, dim) table it averages.

    Costs n SFO calls and one full pass.  Row i of the table is the gradient of
    f_i at x, as the pass's one block evaluation computed it; VARAS reads its
    snapshot gradients from there instead of evaluating f_i again.  The table
    is finite whenever the mean is.
    """
    x = np.asarray(x, dtype=float)
    _check_finite(x, "query point")
    _, grads = problem.component_values_grads(x, np.arange(problem.n_components))
    grad = grads.mean(axis=0)
    _check_finite(grad, "full gradient")
    if counters is not None:
        counters.sfo_calls += problem.n_components
        counters.full_gradient_passes += 1
    return grad, grads
