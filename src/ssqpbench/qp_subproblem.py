"""Solver for the shared per-iteration subproblem (the QMO).

Canonical form:

    min_u  (rho/2) ||u - w||^2 + <l, u> + h(u)
           + Gamma * max{0, max_k (b_k + <A_k, u>)}

equivalently a QP over (u, v >= 0) with the m epigraph constraints
b_k + <A_k, u> <= v.  The quadratic is diagonal and h is separable, so the
primal is available in closed form from the duals; the solver runs accelerated
projected gradient ascent on the dual simplex {mu >= 0, sum mu <= Gamma} with
an active-set polish step, and certifies the answer by its KKT residual.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

import numpy as np

from .problem_model import L1, BoxIndicator, Regularizer, Zero

__all__ = [
    "CanonicalQp",
    "QpSolution",
    "solve_canonical_qp",
    "dense_oracle_qp",
    "kkt_residual",
    "qp_objective",
]

_DENSE_LIMIT = 8


@dataclass
class CanonicalQp:
    """Diagonal quadratic + linear + simple regularizer + weighted max-of-affine hinge."""

    rho: float
    anchor: np.ndarray  # w
    linear: np.ndarray  # l
    regularizer: Regularizer
    hinge_weight: float  # Gamma
    offsets: np.ndarray  # b, shape (m,)
    slopes: np.ndarray  # A, shape (m, d)

    def __post_init__(self):
        self.anchor = np.asarray(self.anchor, dtype=float)
        self.linear = np.asarray(self.linear, dtype=float)
        self.offsets = np.asarray(self.offsets, dtype=float).reshape(-1)
        self.slopes = np.asarray(self.slopes, dtype=float).reshape(len(self.offsets), self.anchor.shape[0])
        if not self.rho > 0:
            raise ValueError("rho must be positive (subproblem must be strongly convex)")
        if self.hinge_weight < 0:
            raise ValueError("hinge weight must be nonnegative")
        for arr in (self.anchor, self.linear, self.offsets, self.slopes):
            if not np.all(np.isfinite(arr)):
                raise ValueError("subproblem data must be finite")
        if self.slopes.shape != (self.m, self.dim):
            raise ValueError("slope matrix shape mismatch")

    @property
    def dim(self) -> int:
        return self.anchor.shape[0]

    @property
    def m(self) -> int:
        return self.offsets.shape[0]


@dataclass
class QpSolution:
    """Certified minimizer of a CanonicalQp, with epigraph value and duals."""

    u: np.ndarray
    v: float
    mu: np.ndarray
    dual_v: float
    kkt_residual: float
    active_set: tuple[int, ...]
    objective: float
    converged: bool = True
    sweeps: int = 0


def _hinge_values(qp: CanonicalQp, u: np.ndarray) -> np.ndarray:
    if qp.m == 0:
        return np.empty(0)
    return qp.offsets + qp.slopes @ u


def qp_objective(qp: CanonicalQp, u: np.ndarray) -> float:
    """Objective of the canonical subproblem at u (hinge kept exact)."""
    diff = u - qp.anchor
    val = 0.5 * qp.rho * float(diff @ diff) + float(qp.linear @ u) + qp.regularizer.value(u)
    if qp.m:
        val += qp.hinge_weight * max(0.0, float(_hinge_values(qp, u).max()))
    return val


def _primal_from_dual(qp: CanonicalQp, mu: np.ndarray) -> np.ndarray:
    shift = qp.linear if qp.m == 0 else qp.linear + qp.slopes.T @ mu
    return qp.regularizer.prox(qp.anchor - shift / qp.rho, qp.rho)


def _project_dual(mu: np.ndarray, cap: float) -> np.ndarray:
    """Euclidean projection onto {mu >= 0, sum mu <= cap}."""
    clipped = np.maximum(mu, 0.0)
    if clipped.sum() <= cap:
        return clipped
    # project onto the simplex {mu >= 0, sum mu = cap}
    srt = np.sort(mu)[::-1]
    css = np.cumsum(srt) - cap
    idx = np.arange(1, len(mu) + 1)
    cond = srt - css / idx > 0
    k = idx[cond][-1]
    tau = css[k - 1] / k
    return np.maximum(mu - tau, 0.0)


# ---------------------------------------------------------------------------
# KKT residual


def kkt_residual(qp: CanonicalQp, sol: QpSolution, activity_tol: float = 1e-9) -> float:
    """Worst violation of the epigraph-QP KKT system at (u, v, mu, dual_v)."""
    u, v, mu, dual_v = sol.u, sol.v, sol.mu, sol.dual_v
    s = qp.rho * (u - qp.anchor) + qp.linear
    if qp.m:
        s = s + qp.slopes.T @ mu

    reg = qp.regularizer
    if isinstance(reg, Zero):
        stat_u = float(np.linalg.norm(s))
    elif isinstance(reg, BoxIndicator):
        scale = 1.0 + np.abs(u)
        at_lo = u <= reg.lower + activity_tol * scale
        at_hi = u >= reg.upper - activity_tol * scale
        res = np.abs(s)
        res = np.where(at_lo, np.maximum(0.0, -s), res)
        res = np.where(at_hi & ~at_lo, np.maximum(0.0, s), res)
        res = np.where(at_lo & at_hi, 0.0, res)  # lower == upper: the normal cone is all of R
        dom = np.maximum(reg.lower - u, 0.0) + np.maximum(u - reg.upper, 0.0)
        stat_u = float(np.linalg.norm(res) + dom.max(initial=0.0))
    elif isinstance(reg, L1):
        lam = reg.weight
        at_zero = np.abs(u) <= activity_tol
        res = np.abs(s + lam * np.sign(u))
        res = np.where(at_zero, np.maximum(np.abs(s) - lam, 0.0), res)
        stat_u = float(np.linalg.norm(res))
    else:  # pragma: no cover - exhaustive over Regularizer
        raise TypeError(f"unknown regularizer {type(reg)!r}")

    stat_v = abs(qp.hinge_weight - mu.sum() - dual_v)
    neg_duals = max(float(np.maximum(-mu, 0.0).max(initial=0.0)), max(0.0, -dual_v))
    r = _hinge_values(qp, u)
    primal = max(float(np.maximum(r - v, 0.0).max(initial=0.0)), max(0.0, -v))
    comp = abs(dual_v * v)
    if qp.m:
        comp = max(comp, float(np.abs(mu * (r - v)).max()))
    return max(stat_u, stat_v, neg_duals, primal, comp)


# ---------------------------------------------------------------------------
# Active-set polish


def _coordinate_pattern(qp: CanonicalQp, u: np.ndarray, tol: float) -> np.ndarray:
    """Guess the regularizer activity pattern at u.

    Box: -1 at lower bound, +1 at upper, 0 free.  L1: 0 for zero coordinates,
    otherwise the sign of u.  Zero regularizer: all free.
    """
    reg = qp.regularizer
    pat = np.zeros(qp.dim, dtype=int)
    if isinstance(reg, BoxIndicator):
        scale = 1.0 + np.abs(u)
        pat[u <= reg.lower + tol * scale] = -1
        pat[u >= reg.upper - tol * scale] = 1
    elif isinstance(reg, L1):
        pat = np.sign(u).astype(int)
        pat[np.abs(u) <= tol] = 0
    return pat


def _pattern_split(qp: CanonicalQp, pattern: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates the pattern pins (Box faces, L1 zeros) and the values they are pinned at."""
    reg = qp.regularizer
    d = qp.dim
    if isinstance(reg, BoxIndicator):
        fixed = pattern != 0
        fixed_vals = np.where(pattern < 0, reg.lower * np.ones(d), reg.upper * np.ones(d))
    elif isinstance(reg, L1):
        fixed = pattern == 0
        fixed_vals = np.zeros(d)
    else:
        fixed = np.zeros(d, dtype=bool)
        fixed_vals = np.zeros(d)
    return fixed, fixed_vals


def _solve_pattern_system(
    qp: CanonicalQp,
    active: np.ndarray,
    v_positive: bool,
    pattern: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Solve the equality KKT system for a fixed active set and coordinate pattern.

    The quadratic is ``rho*I``, so stationarity in the free coordinates F gives
    ``u_F = (r_F - A_F^T mu) / rho`` with ``r = rho*w - l`` (minus
    ``weight*pattern`` for L1).  Substituting it into the active hinges leaves
    the Schur-complement system in the duals (range-space active-set step,
    Nocedal & Wright ch. 16):

        [A_F A_F^T / rho  1] [mu]   [A_F r_F / rho + b_act + A_X x_X]
        [1^T              0] [v ] = [Gamma                          ]

    where X are the pinned coordinates, and the last row and column exist only
    when v > 0.  It is solved by least squares so that duplicate and zero hinge
    rows stay well handled: in a consistent system u is unique even when mu is
    not.
    """
    fixed, fixed_vals = _pattern_split(qp, pattern)
    free = ~fixed
    r = qp.rho * qp.anchor - qp.linear
    if isinstance(qp.regularizer, L1):
        r = r - qp.regularizer.weight * pattern
    r_free = r[free]
    na = len(active)
    mu = np.zeros(qp.m)
    v = 0.0
    if na:
        A_act = qp.slopes[active]
        A_free = A_act[:, free]
        n = na + 1 if v_positive else na
        K = np.zeros((n, n))
        K[:na, :na] = A_free @ A_free.T / qp.rho
        rhs = np.empty(n)
        rhs[:na] = A_free @ r_free / qp.rho + qp.offsets[active]
        if fixed.any():
            rhs[:na] += A_act[:, fixed] @ fixed_vals[fixed]
        if v_positive:
            K[:na, na] = 1.0
            K[na, :na] = 1.0
            rhs[na] = qp.hinge_weight
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
        mu[active] = sol[:na]
        if v_positive:
            v = float(sol[na])
        r_free = r_free - A_free.T @ sol[:na]
    u = fixed_vals
    u[free] = r_free / qp.rho
    return u, mu, v


def _refine_pattern(qp: CanonicalQp, u: np.ndarray, mu: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    reg = qp.regularizer
    s = qp.rho * (u - qp.anchor) + qp.linear
    if qp.m:
        s = s + qp.slopes.T @ mu
    new = pattern.copy()
    if isinstance(reg, BoxIndicator):
        free = pattern == 0
        new[free & (u < reg.lower)] = -1
        new[free & (u > reg.upper)] = 1
        new[(pattern == -1) & (s < 0)] = 0
        new[(pattern == 1) & (s > 0)] = 0
    elif isinstance(reg, L1):
        lam = reg.weight
        clamped = pattern == 0
        new[clamped & (s > lam)] = -1
        new[clamped & (s < -lam)] = 1
        nz = pattern != 0
        new[nz & (np.sign(u) != pattern) & (u != 0.0)] = 0
    return new


def _pattern_iteration(
    qp: CanonicalQp,
    active: np.ndarray,
    v_positive: bool,
    pattern0: np.ndarray,
    max_rounds: int = 30,
    solve: Optional[Callable] = None,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Alternate exact pattern solves and pattern refinement for ``max_rounds`` rounds.

    ``solve`` is the pattern-system kernel, ``_solve_pattern_system`` unless
    given (the dense oracle passes its own).

    Returns the solution of the last pattern visited.  The solve-then-refine
    map is deterministic, so once a pattern repeats the remaining rounds only
    go round a cycle (a fixed point is a cycle of length 1).  The loop then
    stops and returns the already solved pattern that the full ``max_rounds``
    loop would end on: visit index ``first + (max_rounds - first) % length``,
    where the cycle starts at visit ``first``.  The result is bit-for-bit that
    of the full loop.
    """
    solve = solve or _solve_pattern_system
    solved = [solve(qp, active, v_positive, pattern0)]
    seen = {pattern0.tobytes(): 0}
    pattern = pattern0
    for _ in range(max_rounds):
        u, mu, _ = solved[-1]
        pattern = _refine_pattern(qp, u, mu, pattern)
        first = seen.setdefault(pattern.tobytes(), len(solved))
        if first < len(solved):
            u, mu, v = solved[first + (max_rounds - first) % (len(solved) - first)]
            break
        solved.append(solve(qp, active, v_positive, pattern))
    else:
        u, mu, v = solved[-1]
    if isinstance(qp.regularizer, BoxIndicator):
        u = np.clip(u, qp.regularizer.lower, qp.regularizer.upper)
    return u, mu, v


def _assemble(qp: CanonicalQp, u, mu, v, active, converged=True, sweeps=0) -> QpSolution:
    mu = np.maximum(mu, 0.0) if mu.size else mu
    r = _hinge_values(qp, u)
    if v <= 0.0:
        v = 0.0
    dual_v = 0.0 if v > 0 else max(qp.hinge_weight - mu.sum(), 0.0)
    sol = QpSolution(
        u=u,
        v=float(v),
        mu=mu,
        dual_v=float(dual_v),
        kkt_residual=np.inf,
        active_set=tuple(int(k) for k in active),
        objective=qp_objective(qp, u),
        converged=converged,
        sweeps=sweeps,
    )
    sol.kkt_residual = kkt_residual(qp, sol)
    return sol


def _polish_candidates(
    qp: CanonicalQp, u: np.ndarray, sweeps: int, seen: Optional[set[tuple]] = None
) -> Iterator[QpSolution]:
    """Guess active sets around u at several thresholds and solve each exactly.

    Lazy: a candidate is solved only when the caller asks for it, so a caller
    that stops at the first certifying candidate solves no more.  Candidates
    whose key (active set, epigraph case, coordinate pattern) is in ``seen``
    are skipped.
    """
    r = _hinge_values(qp, u)
    v_est = max(0.0, float(r.max())) if qp.m else 0.0
    scale = 1.0 + abs(v_est)
    seen = set() if seen is None else seen
    for thr in (1e-10, 1e-7, 1e-5, 1e-3):
        act = np.flatnonzero(r >= v_est - thr * scale) if qp.m else np.empty(0, dtype=int)
        pattern = _coordinate_pattern(qp, u, thr)
        v_cases = [False] if (len(act) == 0 or qp.hinge_weight == 0) else [True, False]
        if v_est <= thr * scale and True in v_cases:
            v_cases = [False, True]
        for v_pos in v_cases:
            key = (tuple(act), v_pos, tuple(pattern))
            if key in seen:
                continue
            seen.add(key)
            uu, mm, vv = _pattern_iteration(qp, act, v_pos, pattern)
            yield _assemble(qp, uu, mm, vv, act, sweeps=sweeps)


# ---------------------------------------------------------------------------
# Main solver


def solve_canonical_qp(
    qp: CanonicalQp,
    tol: float = 1e-9,
    max_sweeps: int = 10_000,
    warm: Optional[QpSolution] = None,
) -> QpSolution:
    """Solve the canonical subproblem to a KKT residual of at most tol.

    ``warm`` may carry the previous iteration's solution; its duals and active
    set seed the solve.  Its active set is polished first, so the solve takes
    a single pattern solve when the active set is unchanged.  On budget
    exhaustion the dense test oracle is used as a fallback for small
    instances; otherwise the best iterate is returned with ``converged=False``.
    """
    if not (0 < tol <= 1e-4):
        raise ValueError("tol must lie in (0, 1e-4]")
    d, m = qp.dim, qp.m

    u0 = _primal_from_dual(qp, np.zeros(m))
    if m == 0 or qp.hinge_weight == 0.0:
        v0 = max(0.0, float(_hinge_values(qp, u0).max())) if m else 0.0
        return _assemble(qp, u0, np.zeros(m), v0, np.empty(0, dtype=int))

    best: Optional[QpSolution] = None

    def consider(sol: QpSolution) -> bool:
        nonlocal best
        if best is None or sol.kkt_residual < best.kkt_residual:
            best = sol
        return sol.kkt_residual <= tol

    # feasible shortcut: hinge slack at the unconstrained prox point
    if float(_hinge_values(qp, u0).max()) <= 0.0:
        if consider(_assemble(qp, u0, np.zeros(m), 0.0, np.empty(0, dtype=int))):
            return best

    if warm is not None:
        # the warm solution's own active set first: unchanged in most steps
        act = np.asarray(warm.active_set, dtype=int)
        v_pos = warm.v > 0 and len(act) > 0
        pattern = _coordinate_pattern(qp, warm.u, 1e-10)
        if consider(_assemble(qp, *_pattern_iteration(qp, act, v_pos, pattern), act)):
            return best
        seen = {(warm.active_set, v_pos, tuple(pattern))}
        for sol in _polish_candidates(qp, warm.u, sweeps=0, seen=seen):
            if consider(sol):
                return best

    # accelerated projected gradient ascent on the dual
    lip = float(np.linalg.norm(qp.slopes, 2)) ** 2 / qp.rho
    # all-zero slopes leave u independent of mu, so any finite step serves; a
    # near-infinite one would cancel the cap away in the simplex projection
    step = 1.0 / lip if lip > 0.0 else qp.rho
    mu = _project_dual(warm.mu.copy(), qp.hinge_weight) if warm is not None else np.zeros(m)
    mom = mu.copy()
    t_acc = 1.0
    poll = 8
    for sweep in range(1, max_sweeps + 1):
        u = _primal_from_dual(qp, mom)
        grad = qp.offsets + qp.slopes @ u
        mu_new = _project_dual(mom + step * grad, qp.hinge_weight)
        if (mom - mu_new) @ (mu_new - mu) > 0:  # adaptive restart
            t_acc = 1.0
            mom = mu_new.copy()
        else:
            t_next = 0.5 * (1 + np.sqrt(1 + 4 * t_acc * t_acc))
            mom = mu_new + ((t_acc - 1) / t_next) * (mu_new - mu)
            t_acc = t_next
        mu = mu_new
        if sweep % poll == 0 or sweep == max_sweeps:
            u_cur = _primal_from_dual(qp, mu)
            for sol in _polish_candidates(qp, u_cur, sweeps=sweep):
                if consider(sol):
                    return best
            poll = min(poll * 2, 256)

    if m <= _DENSE_LIMIT and d <= _DENSE_LIMIT:
        oracle = dense_oracle_qp(qp)
        if consider(oracle):
            return best
    assert best is not None
    best.converged = False
    return best


# ---------------------------------------------------------------------------
# Dense enumeration oracle (tests only)


def _solve_full_pattern_system(
    qp: CanonicalQp,
    active: np.ndarray,
    v_positive: bool,
    pattern: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Unreduced counterpart of ``_solve_pattern_system``, the oracle's kernel.

    Least squares on the full (free + active + [v > 0])-square KKT system in
    (u_F, mu, v), without eliminating u_F; slower, but it shares no algebra
    with the solver's kernel.
    """
    reg = qp.regularizer
    d = qp.dim
    na = len(active)
    fixed, fixed_vals = _pattern_split(qp, pattern)
    free = ~fixed
    nf = int(free.sum())
    nv = 1 if v_positive else 0
    n_unknown = nf + na + nv

    M = np.zeros((n_unknown, n_unknown))
    rhs = np.zeros(n_unknown)
    A_act = qp.slopes[active] if na else np.empty((0, d))

    # stationarity in the free coordinates
    M[:nf, :nf] = qp.rho * np.eye(nf)
    if na:
        M[:nf, nf : nf + na] = A_act[:, free].T
    rhs[:nf] = qp.rho * qp.anchor[free] - qp.linear[free]
    if isinstance(reg, L1):
        rhs[:nf] -= reg.weight * pattern[free]

    # active hinges hold with equality: A_k u - v = -b_k
    if na:
        M[nf : nf + na, :nf] = A_act[:, free]
        if v_positive:
            M[nf : nf + na, nf + na] = -1.0
        rhs[nf : nf + na] = -qp.offsets[active]
        if fixed.any():
            rhs[nf : nf + na] -= A_act[:, fixed] @ fixed_vals[fixed]

    # stationarity in v when v > 0: sum of hinge duals equals Gamma
    if v_positive:
        M[nf + na, nf : nf + na] = 1.0
        rhs[nf + na] = qp.hinge_weight

    sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    u = np.empty(d)
    u[free] = sol[:nf]
    u[fixed] = fixed_vals[fixed]
    mu = np.zeros(qp.m)
    if na:
        mu[active] = sol[nf : nf + na]
    v = float(sol[nf + na]) if v_positive else 0.0
    return u, mu, v


def _restricted_dual_seed(
    qp: CanonicalQp, active: np.ndarray, v_positive: bool, iters: int = 300
) -> Optional[np.ndarray]:
    """Near-minimizer of the problem restricted to hinge set ``active``.

    The restricted problem keeps only the equality-held hinges; the epigraph
    variable is eliminated through the first active row when v > 0.  Gradient
    ascent on the (free-sign) equality multipliers is provably convergent and
    supplies a coordinate-pattern seed for the exact polish step.
    """
    extra = np.zeros(qp.dim)
    if v_positive:
        k0 = active[0]
        extra = qp.hinge_weight * qp.slopes[k0]
        rows = active[1:]
        E = qp.slopes[rows] - qp.slopes[k0]
        dvec = qp.offsets[k0] - qp.offsets[rows]
    else:
        E = qp.slopes[active]
        dvec = -qp.offsets[active]
    if len(E) == 0:
        return qp.regularizer.prox(qp.anchor - (qp.linear + extra) / qp.rho, qp.rho)
    lip = float(np.linalg.norm(E, 2)) ** 2 / qp.rho
    if lip == 0.0:
        return None
    step = 1.0 / lip
    lam = np.zeros(len(E))
    prev = lam
    t_acc = 1.0
    u = qp.anchor
    for _ in range(iters):
        mom = lam + ((t_acc - 1.0) / (0.5 * (1 + np.sqrt(1 + 4 * t_acc * t_acc)))) * (lam - prev)
        t_acc = 0.5 * (1 + np.sqrt(1 + 4 * t_acc * t_acc))
        u = qp.regularizer.prox(qp.anchor - (qp.linear + extra + E.T @ mom) / qp.rho, qp.rho)
        prev = lam
        lam = mom + step * (E @ u - dvec)
    return u


def dense_oracle_qp(qp: CanonicalQp) -> QpSolution:
    """Globally optimal solution by exhaustive active-set enumeration.

    Enumerates every hinge subset and epigraph case, solving each restricted
    problem exactly (an inner fixed-point on the box/l1 coordinate pattern).
    It keeps the candidate with the smallest canonical objective; among
    candidates whose objectives agree to rounding (relative 1e-12) it keeps
    the one with the smallest KKT residual, so that the returned (mu, v) are
    the duals of a candidate that certifies when any tied candidate does.  If
    the winner fails to certify (KKT residual above 1e-9), the enumeration is
    repeated with dual-ascent pattern seeds for every subset, which handles
    the coordinate patterns the fixed-point seeds can miss; restricted
    problems already solved in the first pass are not solved again.  The
    optimal u does not depend on this; the duals do, and on rare instances
    neither pass finds a candidate that certifies, so check ``kkt_residual``
    before relying on (mu, v).  Exponential in m; restricted to m <= 8 and
    d <= 8.
    """
    if qp.m > _DENSE_LIMIT or qp.dim > _DENSE_LIMIT:
        raise ValueError(f"dense oracle limited to m, d <= {_DENSE_LIMIT}")
    u0 = _primal_from_dual(qp, np.zeros(qp.m))
    if qp.m == 0 or qp.hinge_weight == 0.0:
        v0 = max(0.0, float(_hinge_values(qp, u0).max())) if qp.m else 0.0
        return _assemble(qp, u0, np.zeros(qp.m), v0, np.empty(0, dtype=int))

    # (subset, v_pos, seed bytes) -> (objective, u, mu, v, act), None if not finite
    solved: dict[tuple, Optional[tuple]] = {}

    def enumerate_candidates(seed_fn) -> QpSolution:
        keys: dict[tuple, None] = {}  # this pass's restricted problems, in order
        for size in range(qp.m + 1):
            for subset in itertools.combinations(range(qp.m), size):
                act = np.asarray(subset, dtype=int)
                v_cases = [False] if size == 0 else [False, True]
                for v_pos in v_cases:
                    for seed in seed_fn(act, v_pos):
                        key = (subset, v_pos, seed.tobytes())
                        if key not in solved:
                            u, mu, v = _pattern_iteration(qp, act, v_pos, seed, solve=_solve_full_pattern_system)
                            finite = np.all(np.isfinite(u))
                            solved[key] = (qp_objective(qp, u), u, mu, v, act) if finite else None
                        keys[key] = None
        found = [solved[key] for key in keys if solved[key] is not None]
        best_obj = min(cand[0] for cand in found)
        cutoff = best_obj + 1e-12 * max(1.0, abs(best_obj))
        tied = [_assemble(qp, *cand[1:]) for cand in found if cand[0] <= cutoff]
        return min(tied, key=lambda sol: sol.kkt_residual)

    fixed_seeds = [_coordinate_pattern(qp, u0, 1e-12), np.zeros(qp.dim, dtype=int)]
    sol = enumerate_candidates(lambda act, v_pos: fixed_seeds)
    if sol.kkt_residual <= 1e-9:
        return sol

    def dual_seeds(act, v_pos):
        u_near = _restricted_dual_seed(qp, act, v_pos)
        if u_near is None:
            return fixed_seeds
        return fixed_seeds + [_coordinate_pattern(qp, u_near, 1e-7)]

    refined_sol = enumerate_candidates(dual_seeds)
    return refined_sol if refined_sol.objective <= sol.objective else sol
