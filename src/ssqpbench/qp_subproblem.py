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
certify is returned with ``converged=False``.  ``dense_oracle_qp`` proves the
optimum in exact rational arithmetic; it is a reference for tests and the
benchmark, not a fallback.
"""

from __future__ import annotations

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
    # the prox point w - (l + A^T 0) / rho, bit for bit: A^T 0 is +0.0 in every entry
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
            # the pinned faces; an L1 zero face of weight 0 has y in [-0.0, 0.0]
            bounded = (ulo == uhi).nonzero()[0]
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
# Exact oracle (a reference for the tests and the benchmark)


def _gauss_jordan(rows: list, n: int) -> Optional[list]:
    """Solve the augmented rows ``[M | rhs]`` of Fractions in place; an unknown
    whose column has no pivot is 0.  None when the rows have no solution."""
    pivots = []
    for c in range(n):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        scale = rows[r][c]
        pivot = rows[r] = [a / scale for a in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                f = row[c]
                rows[i] = [a - f * q if q else a for a, q in zip(row, pivot)]
        pivots.append(c)
    # the rows below the pivots have zero coefficients, so a nonzero rhs there reads 0 = rhs
    if any(row[n] for row in rows[len(pivots):]):
        return None
    solved = {c: row[n] for c, row in zip(pivots, rows)}
    return [solved.get(c, 0) for c in range(n)]


def dense_oracle_qp(qp: CanonicalQp) -> QpSolution:
    """The exact optimum, proved in rational arithmetic.

    The QP is strongly convex (rho > 0), so its KKT conditions are sufficient
    and the optimum is unique (Nocedal & Wright ch. 16); every float is an
    exact rational.  The oracle reads a structure from ``solve_canonical_qp``'s
    answer: the working set S, the cap sum mu = Gamma (held when v > 0 and S is
    not empty) and each coordinate's face (pinned at a Box bound or at an L1
    zero, else free with the sign of u).  It solves that structure's KKT
    equations, u_F = w_F - (l_F + weight * sign_F + A_{S,F}^T mu) / rho,
    b_k + a_k . u = v on S, and sum mu = Gamma if capped or else v = 0, by
    Gauss--Jordan elimination over Fractions (v = max(0, max hinge) when S is
    empty).  Every KKT inequality is then checked exactly; the first that fails
    becomes one move (a hinge leaves or joins, the cap flips, a coordinate is
    pinned or freed) and the structure is solved again.  A system with no
    solution (dependent hinges) first releases v, then drops a working hinge.
    The answer holds the floats of the exact optimum; ``ValueError`` names the
    condition still failing after 4 (m + d + 1) moves.  No solver kernel is
    shared: the solver's answer is only the first guess.
    """
    from fractions import Fraction  # here, so that importing the package loads only NumPy

    start = solve_canonical_qp(qp)
    m, d, reg = qp.m, qp.dim, qp.regularizer
    rho, gamma, zero, one = Fraction(qp.rho), Fraction(qp.hinge_weight), Fraction(0), Fraction(1)
    w, l, b = ([Fraction(x) for x in a.tolist()] for a in (qp.anchor, qp.linear, qp.offsets))
    A = [[Fraction(x) for x in row] for row in qp.slopes.tolist()]
    box, l1 = isinstance(reg, BoxIndicator), isinstance(reg, L1)
    weight = Fraction(reg.weight) if l1 else zero
    lower, upper = (reg.lower.tolist(), reg.upper.tolist()) if box else ((), ())
    # each coordinate is pinned at a value, or free (None) with the sign its L1 term takes;
    # an L1 coordinate counts as 0 within the residual's face tolerance
    pin, sign = [None] * d, [0] * d
    for i, x in enumerate(start.u.tolist()):
        if box and x in (lower[i], upper[i]):  # the solver clips, so lower == upper lands here
            pin[i] = Fraction(x)
        elif l1:
            pin[i], sign[i] = (zero, 0) if abs(x) <= 1e-9 else (None, 1 if x > 0.0 else -1)
    work, capped, released, joined = list(start.active_set), start.v > 0 and bool(start.active_set), None, None
    limit = 4 * (m + d + 1)
    for _ in range(limit + 1):
        capped = capped and bool(work)
        free = [i for i in range(d) if pin[i] is None]
        nf, ns = len(free), len(work)
        n = nf + ns + capped
        rows = []  # unknowns (u_F, mu_S, v if capped)
        for p, i in enumerate(free):
            row = [zero] * p + [rho] + [zero] * (nf - p - 1) + [A[k][i] for k in work] + [zero] * capped
            rows.append(row + [rho * w[i] - l[i] - weight * sign[i]])
        for k in work:
            held = sum(A[k][i] * pin[i] for i in range(d) if pin[i] is not None)
            rows.append([A[k][i] for i in free] + [zero] * ns + [-one] * capped + [-b[k] - held])
        if capped:
            rows.append([zero] * nf + [one] * ns + [zero, gamma])
        x = _gauss_jordan(rows, n)
        if x is None:
            failure = f"the equations of working hinges {work} have no solution"
            if capped or released == work:  # the hinge that joined last stays, or the two would swap for ever
                work.remove(min([k for k in work if k != joined] or work, key=lambda k: start.mu[k]))
            else:  # once per working set, or v < 0 would flip the cap back for ever
                capped, released = True, list(work)
            continue
        values = iter(x)  # u_F in coordinate order, then mu_S in working-set order
        u = [next(values) if p is None else p for p in pin]
        mu_work = dict(zip(work, values))
        mu = [mu_work.get(k, zero) for k in range(m)]
        hinge = [b[k] + sum(a * ui for a, ui in zip(A[k], u)) for k in range(m)]
        v = x[-1] if capped else zero if work else max([zero, *hinge])
        dual_v = gamma - sum(mu)
        top = max(range(m), key=hinge.__getitem__, default=None)
        negative = [k for k in work if mu[k] < 0]
        if negative:
            failure = f"hinge {negative[0]} has dual {float(mu[negative[0]])!r} < 0"
            work.remove(negative[0])
            continue
        if v < 0 or dual_v < 0:
            failure = f"v = {float(v)!r} < 0" if v < 0 else f"Gamma - sum mu = {float(dual_v)!r} < 0"
            capped = not capped
            continue
        if top is not None and (hinge[top] > v or (not work and v > 0 and dual_v > 0)):
            failure = f"hinge {top} = {float(hinge[top])!r} is above v = {float(v)!r} or unpaid"
            work, joined = sorted(work + [top]), top
            continue
        y = [rho * (u[i] - w[i]) + l[i] + sum(A[k][i] * mu[k] for k in work) for i in range(d)]
        failure = None
        for i in range(d):
            if box and pin[i] is None and not lower[i] <= u[i] <= upper[i]:
                failure = f"coordinate {i} = {float(u[i])!r} is outside its box"
                pin[i] = Fraction(lower[i] if u[i] < lower[i] else upper[i])
            elif box and pin[i] is not None and lower[i] < upper[i] and (y[i] > 0 if pin[i] == upper[i] else y[i] < 0):
                failure = f"coordinate {i}'s dual {float(y[i])!r} has the wrong sign at its bound"
                pin[i] = None
            elif l1 and pin[i] is not None and abs(y[i]) > weight:
                failure = f"coordinate {i}'s dual {float(y[i])!r} exceeds the L1 weight at 0"
                pin[i], sign[i] = None, -1 if y[i] > 0 else 1
            elif l1 and pin[i] is None and u[i] * y[i] > 0:
                failure = f"coordinate {i} = {float(u[i])!r} has the wrong sign"
                pin[i], sign[i] = zero, 0
            if failure:
                break
        if failure is None:
            # v = max(0, max hinge) here, so Gamma * v is the hinge term
            obj = rho / 2 * sum((ui - wi) ** 2 for ui, wi in zip(u, w)) + sum(li * ui for li, ui in zip(l, u))
            obj += weight * sum(map(abs, u)) + gamma * v
            sol = QpSolution(u=np.array(u, dtype=float), v=float(v), mu=np.array(mu, dtype=float),
                             dual_v=float(dual_v), kkt_residual=0.0, active_set=tuple(work), objective=float(obj))
            sol.kkt_residual = kkt_residual(qp, sol)
            return sol
    raise ValueError(f"exact oracle: no structure certifies after {limit} moves; last failure: {failure}")
