"""Solver for the shared per-iteration subproblem (the QMO).

Canonical form:

    min_u  (rho/2) ||u - w||^2 + <l, u> + h(u)
           + Gamma * max{0, max_k (b_k + <A_k, u>)}

equivalently a QP over (u, v >= 0) with the m epigraph constraints
b_k + <A_k, u> <= v.  The quadratic is diagonal and h is separable, so the
primal is available in closed form from the duals.  The solver is a finite
dual active-set method (Goldfarb--Idnani) on the hinge duals in the capped
simplex {mu >= 0, sum mu <= Gamma} and the regularizer's coordinate duals,
started from the hinges violated at the prox point (or from the previous
solution's active set where that guess fell short).  What a Box or L1
regularizer does to a coordinate is read from one face table (``_faces``).
Each step solves one reduced (Schur-complement) KKT system; a one-row system
is answered by the scalar that LAPACK would return.  The answer is certified
once, by its KKT residual, in one pass that shares the hinge values b + A u
at the answer's u (after the Box clip) with the objective.  That pass skips
the terms that are structurally zero: the answer's duals are clamped
nonnegative, so the dual-sign term is 0, and when mu is all zero (the
prox-point shortcut) A^T mu and the hinges' complementarity add only zeros.
The public ``kkt_residual`` computes every term from scratch; it is the
reference the certificate equals bit for bit.  An answer that does not
certify is returned with ``converged=False``; the dense enumeration oracle is
a reference for tests and the benchmark, not a fallback.
"""

from __future__ import annotations

import itertools
import math
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .problem_model import _ZERO, L1, BoxIndicator, Regularizer, Zero

__all__ = [
    "CanonicalQp",
    "QpSolution",
    "solve_canonical_qp",
    "dense_oracle_qp",
    "kkt_residual",
    "qp_objective",
]

_DENSE_LIMIT = 8
# a one-row Schur system k*mu = b with |k| and |b| (or b = +-0) in this band is
# one that LAPACK's dgelsd scales neither side of; its answer is then b * (1/k)
_ONE_ROW_LO, _ONE_ROW_HI = 1e-280, 1e280
_EPS = np.finfo(float).eps
# what a ratio test enters instead of np.errstate where no ratio can overflow
_NO_ERRSTATE = nullcontext()


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
        shape = self.anchor.shape
        if len(shape) != 1:
            raise ValueError(f"anchor must be a 1-D array, got shape {shape}")
        # nothing is broadcast: a wrong shape would solve another QP or fail deep in the solver
        if self.linear.shape != shape:
            raise ValueError(f"linear must have the anchor's shape {shape}, got {self.linear.shape}")
        if isinstance(self.regularizer, BoxIndicator) and self.regularizer.lower.shape != shape:
            raise ValueError(
                f"regularizer box bounds must have the anchor's shape {shape}, got {self.regularizer.lower.shape}"
            )
        self.slopes = np.asarray(self.slopes, dtype=float).reshape(len(self.offsets), shape[0])
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite (subproblem must be strongly convex)")
        if not 0 <= self.hinge_weight < math.inf:
            raise ValueError("hinge weight must be nonnegative and finite")
        # one exact pass over all four arrays (a sum or a dot product could overflow on finite data)
        data = np.concatenate((self.anchor, self.linear, self.offsets, self.slopes), axis=None)
        if np.count_nonzero(np.isfinite(data)) != data.size:
            raise ValueError("subproblem data must be finite")

    @property
    def dim(self) -> int:
        return self.anchor.shape[0]

    @property
    def m(self) -> int:
        return self.offsets.shape[0]


@dataclass
class QpSolution:
    """Solver answer for a CanonicalQp with epigraph value and duals; certified only when ``converged``."""

    u: np.ndarray
    v: float
    mu: np.ndarray
    dual_v: float
    kkt_residual: float
    active_set: tuple[int, ...]
    objective: float
    converged: bool = True
    sweeps: int = 0  # first-order dual sweeps spent; the active-set solver takes none
    prox_hit: bool = False  # the final working set is the hinges violated at the prox point


def qp_objective(qp: CanonicalQp, u: np.ndarray) -> float:
    """Objective of the canonical subproblem at u (hinge kept exact)."""
    r = qp.offsets + qp.slopes @ u
    return _objective(qp, u, u - qp.anchor, float(np.maximum.reduce(r)) if r.size else None)


def _objective(qp: CanonicalQp, u: np.ndarray, diff: np.ndarray, r_max: Optional[float]) -> float:
    """Objective from ``diff = u - w`` and ``r_max = max(b + A u)`` (None when m = 0)."""
    val = 0.5 * qp.rho * float(diff @ diff) + float(qp.linear @ u) + qp.regularizer.value(u)
    if r_max is not None:
        val += qp.hinge_weight * max(0.0, r_max)
    return val


def _primal_from_dual(qp: CanonicalQp, mu: np.ndarray) -> np.ndarray:
    shift = qp.linear if qp.m == 0 else qp.linear + qp.slopes.T @ mu
    return qp.regularizer.prox(qp.anchor - shift / qp.rho, qp.rho)


# ---------------------------------------------------------------------------
# KKT residual


def kkt_residual(qp: CanonicalQp, sol: QpSolution) -> float:
    """Worst violation of the epigraph-QP KKT system at (u, v, mu, dual_v).

    Every term is computed from scratch, whatever the solver knows about the
    answer: this is the reference that the solver's own certificate
    (``_assemble``) must equal bit for bit.
    """
    u, v, mu, dual_v = sol.u, sol.v, sol.mu, sol.dual_v
    r = qp.offsets + qp.slopes @ u
    s = qp.rho * (u - qp.anchor) + qp.linear
    if r.size:
        s = s + qp.slopes.T @ mu
    stat_u = _stationarity(qp, u, s)
    stat_v = abs(qp.hinge_weight - np.add.reduce(mu) - dual_v)
    neg_duals = max(float(np.maximum.reduce(np.maximum(-mu, 0.0), initial=0.0)), max(0.0, -dual_v))
    slack = r - v
    primal = max(float(np.maximum.reduce(np.maximum(slack, 0.0), initial=0.0)), max(0.0, -v))
    comp = abs(dual_v * v)
    if r.size:
        comp = max(comp, float(np.maximum.reduce(np.abs(mu * slack))))
    return max(stat_u, stat_v, neg_duals, primal, comp)


def _stationarity(qp: CanonicalQp, u: np.ndarray, s: np.ndarray) -> float:
    """Stationarity term of the KKT residual: how far s = rho*(u - w) + l + A^T mu
    is from -(the regularizer's subdifferential at u), plus, for a Box, how far u
    is outside it.  A coordinate within 1e-9 of a face (scaled by 1 + |u| for a
    Box) counts as on it."""
    reg = qp.regularizer
    if isinstance(reg, Zero):
        return math.sqrt(s @ s)  # np.linalg.norm(s), bit for bit
    if isinstance(reg, BoxIndicator):
        scale = 1.0 + np.abs(u)
        at_lo = u <= reg.lower + 1e-9 * scale
        at_hi = u >= reg.upper - 1e-9 * scale
        res = np.abs(s)
        res = np.where(at_lo, np.maximum(0.0, -s), res)
        res = np.where(at_hi & ~at_lo, np.maximum(0.0, s), res)
        res = np.where(at_lo & at_hi, 0.0, res)  # lower == upper: the normal cone is all of R
        dom = np.maximum(reg.lower - u, 0.0) + np.maximum(u - reg.upper, 0.0)
        return float(np.linalg.norm(res) + np.maximum.reduce(dom, initial=0.0))
    if isinstance(reg, L1):
        lam = reg.weight
        at_zero = np.abs(u) <= 1e-9
        res = np.abs(s + lam * np.sign(u))
        res = np.where(at_zero, np.maximum(np.abs(s) - lam, 0.0), res)
        return float(np.linalg.norm(res))
    raise TypeError(f"unknown regularizer {type(reg)!r}")  # pragma: no cover - exhaustive over Regularizer


# ---------------------------------------------------------------------------
# Pattern systems


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


def _faces(qp: CanonicalQp, pattern: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Face table ``(ulo, uhi, ylo, yhi)`` of a coordinate pattern.

    Faces are numbered in order along u: Box -1 at the lower bound, 0 inside,
    +1 at the upper bound; L1 -1 on the negative half-line, 0 at zero, +1 on
    the positive half-line.  ``[ulo, uhi]`` is the interval a face allows u and
    ``[ylo, yhi]`` the one it allows the coordinate dual
    y = rho*(u - w) + l + A^T mu.  A face with ``ulo == uhi`` pins u there and
    y ranges over its interval (all of R where a Box has lower == upper); on a
    free face y is fixed at ``ylo``.  Under the Zero regularizer every face is free.
    """
    reg = qp.regularizer
    if isinstance(reg, BoxIndicator):
        point = reg.lower == reg.upper
        return (
            np.where(pattern > 0, reg.upper, reg.lower),
            np.where(pattern < 0, reg.lower, reg.upper),
            np.where((pattern > 0) | point, -np.inf, 0.0),
            np.where((pattern < 0) | point, np.inf, 0.0),
        )
    if isinstance(reg, L1):
        y = -reg.weight * pattern
        return (
            np.where(pattern < 0, -np.inf, 0.0),
            np.where(pattern > 0, np.inf, 0.0),
            np.where(pattern == 0, -reg.weight, y),
            np.where(pattern == 0, reg.weight, y),
        )
    zero = np.zeros(qp.dim)
    return zero - np.inf, zero + np.inf, zero, zero


def _solve_pattern_system(
    qp: CanonicalQp,
    active: np.ndarray,
    v_positive: bool,
    free: Optional[np.ndarray],
    x: Optional[np.ndarray],
    r: np.ndarray,
    offsets: np.ndarray,
    gamma: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Solve the equality KKT system for a fixed active set and face table.

    ``free`` marks the coordinates on free faces (None: all of them, the Zero
    regularizer), ``x`` holds the values of the pinned ones and
    ``r = rho*w - l + y`` the free faces' stationarity, with y their fixed
    coordinate dual.  The quadratic is ``rho*I``, so stationarity in the free
    coordinates F gives ``u_F = (r_F - A_F^T mu) / rho``.  Substituting it into
    the active hinges leaves the Schur-complement system in the duals
    (range-space active-set step, Nocedal & Wright ch. 16):

        [A_F A_F^T / rho  1] [mu]   [A_F r_F / rho + b_act + A_X x_X]
        [1^T              0] [v ] = [Gamma                          ]

    where X are the pinned coordinates, and the last row and column exist only
    when v > 0.  ``offsets`` and ``gamma`` are b and Gamma, or the residuals
    of a refinement step.  It is solved by least squares so that duplicate and
    zero hinge rows stay well handled: in a consistent system u is unique even
    when mu is not.  A one-row system k*mu = b (one hinge, v = 0) with k != 0
    and |k|, |b| in [1e-280, 1e280] (or b = +-0) skips LAPACK's driver: its
    least-squares answer there is exactly b * (1/k) (``_least_squares``).
    """
    if free is not None:
        pinned = ~free
        r = r[free]
    na = len(active)
    mu = np.zeros(qp.m)
    v = 0.0
    if na:
        A_act = qp.slopes[active]
        # the F-ordered copy A_act[:, free] makes: BLAS rounds C and F products differently
        A_free = A_act.copy(order="F") if free is None else A_act[:, free]
        K = A_free @ A_free.T / qp.rho
        rhs = A_free @ r / qp.rho + offsets[active]
        if free is not None and pinned.any():
            rhs += A_act[:, pinned] @ x[pinned]
        if v_positive:  # border K with the cap's row and column
            bordered = np.ones((na + 1, na + 1))
            bordered[:na, :na] = K
            bordered[na, na] = 0.0
            K, rhs = bordered, np.concatenate((rhs, (gamma,)))
        sol = _least_squares(K, rhs)
        mu[active] = sol[:na]
        if v_positive:
            v = float(sol[na])
        r = r - A_free.T @ sol[:na]
    if free is None:
        return r / qp.rho, mu, v
    u = x.copy()  # x may be the caller's face table
    u[free] = r / qp.rho
    return u, mu, v


def _least_squares(K: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq(K, rhs, rcond=None)[0]`` for a square K, bit for bit.

    A 1x1 system k*mu = b inside the band is answered as ``b * (1/k)``: the
    n = 1 branch of dgelsd's ``dlalsd`` scales b by 1/k through ``dlascl``, and
    in the band dgelsd scales neither k nor b first.  k = 0, a side outside the
    band and larger systems go to ``lstsq``, with the rcond that None resolves to.
    """
    if len(rhs) == 1:
        k, b = K.item(), rhs.item()
        if k and _ONE_ROW_LO <= abs(k) <= _ONE_ROW_HI and (not b or _ONE_ROW_LO <= abs(b) <= _ONE_ROW_HI):
            return np.array((b * (1.0 / k),))
    return np.linalg.lstsq(K, rhs, rcond=_EPS * len(rhs))[0]


def _refine_pattern(qp: CanonicalQp, u: np.ndarray, mu: np.ndarray, pattern: np.ndarray) -> np.ndarray:
    """One pattern move per coordinate: a pinned coordinate whose dual leaves its
    interval moves towards the dual's side, a free one whose u leaves its face
    moves towards u (the moves of ``_dual_active_set``, in vector form)."""
    ulo, uhi, ylo, yhi = _faces(qp, pattern)
    s = qp.rho * (u - qp.anchor) + qp.linear
    if qp.m:
        s = s + qp.slopes.T @ mu
    free = ulo < uhi
    up = np.where(free, u > uhi, s < ylo)
    down = np.where(free, u < ulo, s > yhi)
    return pattern + up - down


def _pattern_iteration(
    qp: CanonicalQp,
    active: np.ndarray,
    v_positive: bool,
    pattern0: np.ndarray,
    max_rounds: int = 30,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Alternate exact pattern solves (``_solve_full_pattern_system``) and pattern
    refinement for ``max_rounds`` rounds.

    Returns the solution of the last pattern visited.  The solve-then-refine
    map is deterministic, so once a pattern repeats the remaining rounds only
    go round a cycle (a fixed point is a cycle of length 1).  The loop then
    stops and returns the already solved pattern that the full ``max_rounds``
    loop would end on: visit index ``first + (max_rounds - first) % length``,
    where the cycle starts at visit ``first``.  The result is bit-for-bit that
    of the full loop.
    """
    solved = [_solve_full_pattern_system(qp, active, v_positive, pattern0)]
    seen = {pattern0.tobytes(): 0}
    pattern = pattern0
    for _ in range(max_rounds):
        u, mu, _ = solved[-1]
        pattern = _refine_pattern(qp, u, mu, pattern)
        first = seen.setdefault(pattern.tobytes(), len(solved))
        if first < len(solved):
            u, mu, v = solved[first + (max_rounds - first) % (len(solved) - first)]
            break
        solved.append(_solve_full_pattern_system(qp, active, v_positive, pattern))
    else:
        u, mu, v = solved[-1]
    if isinstance(qp.regularizer, BoxIndicator):
        u = np.clip(u, qp.regularizer.lower, qp.regularizer.upper)
    return u, mu, v


def _assemble(qp: CanonicalQp, u, mu, v, active, r: Optional[np.ndarray] = None) -> QpSolution:
    """Candidate solution, certified in one pass over the hinge values r at u.

    The residual is ``kkt_residual``'s, bit for bit, less the work that is
    structurally zero here.  This function clamps mu >= 0 and v >= 0 and sets
    dual_v >= 0, so the dual-sign term is exactly 0 and is not formed, and the
    primal term's max(0, -v) is 0.  The rest of the primal term is
    max(max(r) - v, 0), from the max(r) that the objective reads: rounding is
    monotone, so max_k fl(r_k - v) = fl(max(r) - v).  When
    mu is all zero (the prox-point shortcut, a loop answer with no hinge
    held), A^T mu and mu * (r - v) would only add zeros, and they are skipped:
    the stationarity term reads s through its absolute values, so the sign of
    a zero in s does not matter.  ``sum(mu)`` is formed once, for dual_v and
    the v-stationarity term.
    """
    mu = np.maximum(mu, 0.0) if mu.size else mu
    v = 0.0 if v <= 0.0 else float(v)
    total = np.add.reduce(mu)
    dual_v = 0.0 if v > 0 else float(max(qp.hinge_weight - total, 0.0))
    r = qp.offsets + qp.slopes @ u if r is None else r
    r_max = float(np.maximum.reduce(r)) if r.size else None
    diff = u - qp.anchor
    s = qp.rho * diff + qp.linear
    comp = abs(dual_v * v)
    if np.count_nonzero(mu):  # one C call; a NaN counts as nonzero
        s = s + qp.slopes.T @ mu
        comp = max(comp, float(np.maximum.reduce(np.abs(mu * (r - v)))))
    residual = max(
        _stationarity(qp, u, s),
        abs(qp.hinge_weight - total - dual_v),
        0.0 if r_max is None else max(r_max - v, 0.0),
        comp,
    )
    return QpSolution(
        u=u,
        v=v,
        mu=mu,
        dual_v=dual_v,
        kkt_residual=residual,
        active_set=tuple(active.tolist()),
        objective=_objective(qp, u, diff, r_max),
    )


# ---------------------------------------------------------------------------
# Main solver


def solve_canonical_qp(
    qp: CanonicalQp,
    tol: float = 1e-9,
    warm: Optional[QpSolution] = None,
) -> QpSolution:
    """Solve the canonical subproblem to a KKT residual of at most tol.

    The dual active-set loop starts from the hinges violated at the prox
    point (b + A u0 > 0, u0 the minimizer without the hinge), the final set of
    most QPs of an SSQP run.  Where coupled hinges make that guess fall short,
    the answer records it (``prox_hit`` false) and a solve warm-started from
    that answer starts from its active set instead.  ``warm`` (the previous
    iteration's solution) also lends its duals, epigraph case and coordinate
    pattern, so re-solving a QP from its own answer takes one pattern solve.
    The start changes only how many pattern solves the loop takes: the answer
    is the pattern solution of the working set the loop ends on, so any start
    that ends on the same set gives the same bytes.  An answer whose KKT
    residual is above tol, from the prox-point shortcut or from the loop, is
    returned with ``converged=False``.
    """
    if not (0 < tol <= 1e-4):
        raise ValueError("tol must lie in (0, 1e-4]")
    m = qp.m
    # _primal_from_dual(qp, np.zeros(m)) bit for bit: A^T 0 is +0.0 in every entry
    u0 = qp.regularizer.prox(qp.anchor - (qp.linear + _ZERO if m else qp.linear) / qp.rho, qp.rho)
    r0 = qp.offsets + qp.slopes @ u0
    hinge0 = max(0.0, float(np.maximum.reduce(r0))) if m else 0.0
    sol = None
    # the prox point solves the QP when the hinge costs nothing or is slack there
    if m == 0 or qp.hinge_weight == 0.0 or hinge0 == 0.0:
        sol = _assemble(qp, u0, np.zeros(m), hinge0, np.empty(0, dtype=int), r0)
    prox = r0 > 0.0
    if sol is None or (m and qp.hinge_weight and sol.kkt_residual > tol):
        sol = _dual_active_set(qp, tol, warm, u0, prox)
    sol.prox_hit = sol.active_set == tuple(prox.nonzero()[0].tolist())
    sol.converged = bool(sol.kkt_residual <= tol)
    return sol


def _min_ratio(c: np.ndarray, dc: np.ndarray, labels: np.ndarray, ray: bool, eps: float) -> tuple[float, int]:
    """Smallest ratio c / -dc over the blocking duals and its label (the first on ties), or (inf, -1)."""
    blocking = ((dc < 0.0 if ray else c + dc < -eps) & (c < np.inf)).nonzero()[0]
    if not blocking.size:
        return np.inf, -1
    # c >= 0 here, so off a ray -dc > c + eps and every ratio is below 1; only
    # a ray's ratio can overflow (to inf, on a tiny rate)
    with np.errstate(over="ignore") if ray else _NO_ERRSTATE:
        ratios = c[blocking] / -dc[blocking]
    j = int(ratios.argmin())
    return float(ratios[j]), int(labels[blocking[j]])


def _dual_active_set(
    qp: CanonicalQp, tol: float, warm: Optional[QpSolution], u0: np.ndarray, prox: np.ndarray
) -> QpSolution:
    """Goldfarb--Idnani dual active-set loop on the epigraph QP; returns the assembled solution.

    A primal active-set method (Nocedal & Wright alg. 16.3) on the dual: a
    concave quadratic in the hinge duals mu, on {mu >= 0, sum mu <= Gamma},
    and the coordinate duals y in the intervals of the face table
    (``_faces``).  The working set is the hinges held at equality, ``capped``
    (sum mu = Gamma held, i.e. v >= 0 released; v is the cap's multiplier) and
    the coordinate pattern.  Each step moves the duals towards the working
    set's pattern-system solution until one reaches its bound and leaves, or
    the cap joins (ratio test); at a full step the most violated hinge, v >= 0
    or free face joins, until none is violated by more than tol / 10.  Every
    pattern move is +-1: a pinned coordinate whose dual leaves its interval
    moves against the dual's rate, a free one whose u leaves its face moves
    towards u.  A system with no solution (dependent hinge rows) leaves a
    working-hinge residual in the null space of the dual Hessian, an ascent
    ray that the ratio test alone steps along.  The dual objective never
    decreases, so the loop is finite; a step cap guards against rounding.

    The loop starts from the hinges in ``prox`` (violated at the prox point),
    or from ``warm.active_set`` when ``warm`` did not end on its own prox set;
    a start only needs a feasible dual point, and zero duals on the starting
    hinges are one.  u, mu and v come from the last pattern solve alone and
    the answer's hinge values from that u, so the answer depends on the
    final working set, not on the path to it.
    """
    m, gamma, reg = qp.m, qp.hinge_weight, qp.regularizer
    eps = 0.1 * tol
    work = prox.copy()
    mu = np.zeros(m)
    capped, u = False, u0
    if warm is not None:
        if not warm.prox_hit:
            work[:] = False
            work[list(warm.active_set)] = True
        capped, u = warm.v > 0 and bool(work.any()), warm.u
        mu[work] = np.maximum(warm.mu[work], 0.0)
        total = np.add.reduce(mu)
        if capped or total > gamma:  # start from a feasible dual point
            mu[work] = mu[work] * (gamma / total) if total > 0.0 else gamma / work.sum()
    r = qp.rho * qp.anchor - qp.linear
    coords = not isinstance(reg, Zero)
    free = ulo = None  # the Zero regularizer: every coordinate free, no coordinate duals
    r_free = r
    if coords:
        pattern = _coordinate_pattern(qp, u, 1e-12 if warm is None else 1e-10)
        ulo, uhi, ylo, yhi = _faces(qp, pattern)
        y = np.clip(qp.rho * (u - qp.anchor) + qp.linear + qp.slopes.T @ mu, ylo, yhi)
    for _ in range(10 * (m + qp.dim + 1)):  # finite in exact arithmetic; the cap guards rounding
        act = work.nonzero()[0]
        if coords:
            free, r_free = ulo < uhi, r + ylo
        u, mu_t, v = _solve_pattern_system(qp, act, capped, free, ulo, r_free, qp.offsets, gamma)
        hinge = qp.offsets + qp.slopes @ u
        slack = hinge - v
        # a working-hinge residual above rounding (relative 1e-8 of the terms
        # of b + A u - v, with u's rounding |r| / rho) means the system has no solution
        dev = np.maximum.reduce(np.abs(slack[act]), initial=0.0)
        ray = False
        if dev > eps:
            terms = np.abs(qp.offsets[act]) + np.abs(qp.slopes[act]) @ (np.abs(u) + np.abs(r) / qp.rho)
            ray = dev > 1e-8 * (1.0 + abs(v) + float(np.maximum.reduce(terms)))
        step = np.where(work, slack, 0.0) if ray else mu_t - mu
        # ratio test over each bounded dual's slack c >= 0 and its rate dc along
        # the step, labelled: the working hinges k < m, the cap m, the
        # coordinates m + 1 + i; a tie goes to the smallest label
        alpha, leaving = _min_ratio(mu[act], step[act], act, ray, eps)
        if not capped:
            c, dc = gamma - np.add.reduce(mu), -np.add.reduce(step)
            if dc < 0.0 if ray else c + dc < -eps:
                # as in _min_ratio, unless rounding left c = gamma - sum mu below 0
                with np.errstate(over="ignore") if ray or c < 0.0 else _NO_ERRSTATE:
                    alpha, leaving = min((alpha, leaving), (float(c / -dc), m))
        if coords:
            dy = qp.slopes.T @ step if ray else qp.rho * (u - qp.anchor) + qp.linear + qp.slopes.T @ mu_t - y
            bounded = (ylo < yhi).nonzero()[0]
            cy, dcy = np.where(dy > 0.0, yhi - y, y - ylo)[bounded], -np.abs(dy[bounded])
            alpha, leaving = min((alpha, leaving), _min_ratio(cy, dcy, m + 1 + bounded, ray, eps))
        if alpha < np.inf:
            mu = np.maximum(mu + alpha * step, 0.0)
            if leaving == m:
                capped = True
            elif leaving < m:
                work[leaving] = False
                mu[leaving] = 0.0
            else:
                i = leaving - m - 1
                pattern[i] -= int(np.sign(dy[i]))
                ulo, uhi, ylo, yhi = _faces(qp, pattern)
            if coords:
                y = np.clip(y + alpha * dy, ylo, yhi)
            continue
        if ray:  # unbounded: only rounding gets here
            break
        # full step to the working set's solution: add the most violated
        # hinge, v >= 0 or free face (a tie goes to the first of these)
        mu = np.maximum(mu_t, 0.0)
        slack[act] = -np.inf
        j = int(slack.argmax())
        worst = slack[j]
        if capped and -v > worst:
            j, worst = m, -v
        if coords:
            y = np.clip(y + dy, ylo, yhi)
            outside = np.where(free, np.maximum(ulo - u, u - uhi), -np.inf)
            i = int(outside.argmax())
            if outside[i] > worst:
                j, worst = m + 1 + i, outside[i]
        if worst <= eps:
            break
        if j == m:
            capped = False
        elif j < m:
            work[j] = True
        else:
            i = j - m - 1
            pattern[i] += 1 if u[i] > uhi[i] else -1
            ulo, uhi, ylo, yhi = _faces(qp, pattern)
            y = np.clip(y, ylo, yhi)
    act = work.nonzero()[0]
    box = isinstance(reg, BoxIndicator)
    # a clipped Box answer needs its own hinge values; the others keep the loop's
    sol = _assemble(qp, np.clip(u, reg.lower, reg.upper) if box else u, mu, v, act, None if box else hinge)
    if sol.kkt_residual > tol:
        # a tight tol can sit below the rounding of u = (r_F - A_F^T mu) / rho:
        # one step of iterative refinement solves the same system (the current
        # face table) with the working hinges' residual as offsets and nothing
        # else, which keeps stationarity and sum mu
        free = ulo < uhi if coords else None
        du, dmu, dv = _solve_pattern_system(qp, act, capped, free, 0.0 * u, np.zeros(qp.dim), hinge - v, 0.0)
        u = u + du
        refined = _assemble(qp, np.clip(u, reg.lower, reg.upper) if box else u, mu + dmu, v + dv, act)
        sol = min(sol, refined, key=lambda s: s.kkt_residual)
    return sol


# ---------------------------------------------------------------------------
# Dense enumeration oracle (a reference for the tests and the benchmark)


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
    d = qp.dim
    na = len(active)
    ulo, uhi, ylo, _ = _faces(qp, pattern)
    free = ulo < uhi
    fixed = ~free
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
    rhs[:nf] = qp.rho * qp.anchor[free] - qp.linear[free] + ylo[free]

    # active hinges hold with equality: A_k u - v = -b_k
    if na:
        M[nf : nf + na, :nf] = A_act[:, free]
        if v_positive:
            M[nf : nf + na, nf + na] = -1.0
        rhs[nf : nf + na] = -qp.offsets[active]
        if fixed.any():
            rhs[nf : nf + na] -= A_act[:, fixed] @ ulo[fixed]

    # stationarity in v when v > 0: sum of hinge duals equals Gamma
    if v_positive:
        M[nf + na, nf : nf + na] = 1.0
        rhs[nf + na] = qp.hinge_weight

    sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    u = ulo.copy()
    u[free] = sol[:nf]
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
        v0 = max(0.0, float((qp.offsets + qp.slopes @ u0).max())) if qp.m else 0.0
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
                            u, mu, v = _pattern_iteration(qp, act, v_pos, seed)
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
