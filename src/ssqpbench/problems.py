"""Benchmark problem instances and reference-solution helpers.

Two shipped benchmarks: an unmanned-surface-vehicle (USV) trajectory problem
minimizing expected propulsion energy against an ensemble of estimated ocean
currents under speed-limit constraints, and a least-squares regression with
hard residual constraints on a held-out critical sample set.  Both come with
seeded generators, plus small factories and a deterministic reference solver
used as the instrumentation oracle in tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.optimize import linprog

from .penalty import penalty_objective
from .problem_model import ConstrainedProblem, full_gradient
from .qp_subproblem import CanonicalQp, solve_canonical_qp

__all__ = [
    "UsvProblem",
    "generate_current_ensemble",
    "usv_component_block",
    "make_usv_problem",
    "straight_line_path",
    "path_from_decision",
    "ResidualRegressionProblem",
    "generate_regression_problem",
    "load_regression_csv",
    "minimal_feasible_tolerance",
    "random_quadratic_problem",
    "brute_force_optimum",
    "solve_kkt_quadratic",
]


# ---------------------------------------------------------------------------
# USV trajectory problem


@dataclass
class UsvProblem:
    """USV instance data: current ensemble, endpoints, and speed limit.

    The decision vector stacks the T-2 interior waypoints; the fixed endpoints
    are substituted during evaluation, leaving m = T-1 squared-speed
    constraints ||p(t) - p(t+1)||^2 <= v_max^2.
    """

    horizon: int  # waypoint count T
    currents_w: np.ndarray  # (n, 2, 2)
    currents_z: np.ndarray  # (n, 2)
    v_max: float
    p_start: np.ndarray
    p_dest: np.ndarray
    region: float  # half-width, informational

    @property
    def n(self) -> int:
        return self.currents_w.shape[0]

    @property
    def dim(self) -> int:
        return 2 * (self.horizon - 2)

    @property
    def m(self) -> int:
        return self.horizon - 1


def generate_current_ensemble(
    seed: int,
    n: int,
    region: float = 200.0,
    w_scale: float = 0.05,
    z_scale: float = 2.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw a ground-truth current field and its n noisy estimates.

    The ground truth is an affine field v(y) = W y + z.  Estimate i observes
    (I + diag(xi_i)) (W y_j + z) with one xi_i ~ N(0, I_2) shared across three
    fixed non-collinear sample positions, then solves the resulting 6x6 linear
    system for (W_i, z_i).  Returns (W_list, z_list, W_true, z_true).
    """
    if n < 1:
        raise ValueError("ensemble needs n >= 1")
    rng = np.random.default_rng(seed)
    w_true = w_scale * rng.standard_normal((2, 2))
    z_true = z_scale * rng.standard_normal(2)
    positions = np.array([[0.0, 0.0], [region, 0.0], [region / 2.0, region / 2.0]])

    # rows of the 6x6 system: v(y_j) = W y_j + z stacked over j and axes
    system = np.zeros((6, 6))
    for j, y in enumerate(positions):
        system[2 * j, 0:2] = y
        system[2 * j, 4] = 1.0
        system[2 * j + 1, 2:4] = y
        system[2 * j + 1, 5] = 1.0
    if abs(np.linalg.det(system)) < 1e-9:
        raise ValueError("sample positions give a singular recovery system")

    w_list = np.empty((n, 2, 2))
    z_list = np.empty((n, 2))
    for i in range(n):
        xi = rng.standard_normal(2)
        rhs = np.empty(6)
        for j, y in enumerate(positions):
            rhs[2 * j : 2 * j + 2] = (1.0 + xi) * (w_true @ y + z_true)
        sol = np.linalg.solve(system, rhs)
        w_list[i] = sol[:4].reshape(2, 2)
        z_list[i] = sol[4:]
    return w_list, z_list, w_true, z_true


def path_from_decision(usv: UsvProblem, x: np.ndarray) -> np.ndarray:
    """Full (T, 2) waypoint path with the fixed endpoints substituted."""
    path = np.empty((usv.horizon, 2))
    path[0] = usv.p_start
    path[-1] = usv.p_dest
    path[1:-1] = np.asarray(x, dtype=float).reshape(-1, 2)
    return path


def straight_line_path(usv: UsvProblem) -> np.ndarray:
    """Decision vector of the equispaced straight line between the endpoints."""
    frac = np.linspace(0.0, 1.0, usv.horizon)[1:-1, None]
    interior = usv.p_start + frac * (usv.p_dest - usv.p_start)
    return interior.ravel()


def usv_component_block(usv: UsvProblem, x: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Energies under the current estimates ``idx``: per estimate, the sum over
    segments of ||r||^3.

    r_t = (I - W_i) p(t) - p(t+1) - z_i is the required through-water velocity
    of segment t; d||r||^3/dr = 3 ||r|| r flows to the waypoints by the chain
    rule, with the endpoint contributions dropped.  Returns values (b,) and
    gradients (b, dim) for the b indices.
    """
    path = path_from_decision(usv, x)
    w = usv.currents_w[idx]  # (b, 2, 2)
    eff = path[:-1] - path[:-1] @ w.transpose(0, 2, 1)  # (I - W_i) p(t) rows
    resid = eff - path[1:] - usv.currents_z[idx][:, None, :]  # (b, T-1, 2)
    norms = np.linalg.norm(resid, axis=-1)
    values = np.sum(norms**3, axis=-1)

    grad_path = np.zeros((len(w), usv.horizon, 2))
    weighted = 3.0 * norms[..., None] * resid
    grad_path[:, :-1] += weighted @ (np.eye(2) - w)
    grad_path[:, 1:] -= weighted
    return values, grad_path[:, 1:-1].reshape(len(w), usv.dim)


def _usv_constraint_bundle(usv: UsvProblem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    path = path_from_decision(usv, x)
    diffs = path[:-1] - path[1:]  # (T-1, 2)
    vals = np.einsum("ij,ij->i", diffs, diffs) - usv.v_max**2
    grads = np.zeros((usv.m, usv.horizon, 2))
    rows = np.arange(usv.m)
    grads[rows, rows] += 2.0 * diffs
    grads[rows, rows + 1] -= 2.0 * diffs
    return vals, grads[:, 1:-1, :].reshape(usv.m, usv.dim)


def make_usv_problem(
    seed: int,
    n: int = 100,
    horizon: int = 40,
    region: float = 200.0,
    p_start: tuple[float, float] = (20.0, 20.0),
    p_dest: tuple[float, float] = (180.0, 180.0),
    v_max: float = 10.0,
    smoothness: float = 350.0,
    w_scale: float = 0.05,
    z_scale: float = 2.0,
) -> tuple[ConstrainedProblem, UsvProblem]:
    """Seeded USV benchmark instance.

    The cubic energy is not globally smooth, so ``smoothness`` is the tuned
    surrogate constant recorded in run metadata.  The squared-speed
    constraints have Hessian eigenvalues at most 4 in the stacked coordinates.
    """
    if horizon < 3:
        raise ValueError("need at least one interior waypoint (T >= 3)")
    w_list, z_list, _, _ = generate_current_ensemble(seed, n, region, w_scale, z_scale)
    usv = UsvProblem(
        horizon=horizon,
        currents_w=w_list,
        currents_z=z_list,
        v_max=v_max,
        p_start=np.asarray(p_start, dtype=float),
        p_dest=np.asarray(p_dest, dtype=float),
        region=region,
    )

    problem = ConstrainedProblem(
        dim=usv.dim,
        n_components=n,
        component_block=lambda x, idx: usv_component_block(usv, x, idx),
        smoothness=smoothness,
        constraint_smoothness=4.0,
        m=usv.m,
        constraint_block=lambda x: _usv_constraint_bundle(usv, x),
    )
    return problem, usv


# ---------------------------------------------------------------------------
# Residual-constrained regression


@dataclass
class ResidualRegressionProblem:
    """Regression with squared-residual cap r on a disjoint critical sample set."""

    features: np.ndarray  # (n_total, d) including the bias column
    labels: np.ndarray
    objective_idx: np.ndarray
    critical_idx: np.ndarray
    tolerance: float  # r

    @property
    def dim(self) -> int:
        return self.features.shape[1]


class InfeasibleToleranceError(ValueError):
    """Requested residual cap r is below the minimal feasible value."""

    def __init__(self, requested: float, minimal: float):
        super().__init__(
            f"residual cap r={requested:g} infeasible on the critical set; "
            f"minimal feasible r is {minimal:.6g}"
        )
        self.minimal = minimal


class FeasibilityLpError(ValueError):
    """The Chebyshev feasibility LP behind the minimal residual cap did not solve."""


def minimal_feasible_tolerance(features: np.ndarray, labels: np.ndarray) -> float:
    """Smallest r for which some theta satisfies (y_k - x_k theta)^2 <= r for all k.

    Solved as the Chebyshev (minimax absolute residual) linear program; the
    minimal cap is the squared minimax residual.
    """
    n, d = features.shape
    # variables (theta, t): minimize t s.t. -t <= y - X theta <= t
    c = np.zeros(d + 1)
    c[-1] = 1.0
    a_ub = np.zeros((2 * n, d + 1))
    a_ub[:n, :d] = -features
    a_ub[:n, -1] = -1.0
    a_ub[n:, :d] = features
    a_ub[n:, -1] = -1.0
    b_ub = np.concatenate([-labels, labels])
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * d + [(0, None)])
    if not res.success:
        raise FeasibilityLpError(f"feasibility LP failed: {res.message}")
    return float(res.x[-1] ** 2)


def _build_regression(
    features: np.ndarray,
    labels: np.ndarray,
    objective_idx: np.ndarray,
    critical_idx: np.ndarray,
    tolerance: float,
) -> tuple[ConstrainedProblem, ResidualRegressionProblem]:
    minimal = minimal_feasible_tolerance(features[critical_idx], labels[critical_idx])
    if tolerance < minimal:
        raise InfeasibleToleranceError(tolerance, minimal)
    data = ResidualRegressionProblem(features, labels, objective_idx, critical_idx, tolerance)

    x_obj = features[objective_idx]
    y_obj = labels[objective_idx]
    n = len(objective_idx)
    cov = x_obj.T @ x_obj / n
    eigs = np.linalg.eigvalsh(cov)
    x_crit = features[critical_idx]
    y_crit = labels[critical_idx]

    def component_block(theta: np.ndarray, idx: np.ndarray):
        resid = x_obj[idx] @ theta - y_obj[idx]
        return 0.5 * resid * resid, resid[:, None] * x_obj[idx]

    def constraint_block(theta: np.ndarray):
        resid = y_crit - x_crit @ theta
        return resid * resid - tolerance, (-2.0 * resid)[:, None] * x_crit

    problem = ConstrainedProblem(
        dim=features.shape[1],
        n_components=n,
        component_block=component_block,
        smoothness=float(eigs[-1]),
        constraint_smoothness=2.0 * float(np.max(np.sum(x_crit**2, axis=1))),
        m=len(critical_idx),
        constraint_block=constraint_block,
        strong_convexity=float(max(eigs[0], 0.0)),
    )
    return problem, data


def generate_regression_problem(
    seed: int,
    d: int = 14,
    n: int = 450,
    critical: int = 56,
    tolerance: float = 1.3,
    noise: float = 1.0,
) -> tuple[ConstrainedProblem, ResidualRegressionProblem]:
    """Synthetic residual-constrained regression instance.

    d counts the bias column; features are z-scored standard normals with an
    all-ones column appended, labels follow y = X theta0 + noise with
    theta0 ~ N(0, (1/sqrt d)^2 I).  The n objective samples and ``critical``
    constraint samples are a random disjoint split.  Raises
    InfeasibleToleranceError (reporting the minimal feasible cap) when the
    critical set cannot meet ``tolerance``.
    """
    if d < 2 or n < 1 or critical < 1:
        raise ValueError("need d >= 2, n >= 1, critical >= 1")
    rng = np.random.default_rng(seed)
    n_total = n + critical
    raw = rng.standard_normal((n_total, d - 1))
    raw = (raw - raw.mean(axis=0)) / raw.std(axis=0)
    features = np.hstack([raw, np.ones((n_total, 1))])
    theta0 = rng.standard_normal(d) / math.sqrt(d)
    labels = features @ theta0 + noise * rng.standard_normal(n_total)
    perm = rng.permutation(n_total)
    return _build_regression(features, labels, perm[:n], perm[n:], tolerance)


def load_regression_csv(
    path: str, seed: int, n: int, critical: int, tolerance: float
) -> tuple[ConstrainedProblem, ResidualRegressionProblem]:
    """Dataset loader: comma-separated numeric matrix with one header row,
    last column the label; features are z-scored and a bias column appended.
    Raises ValueError naming the file when an entry is NaN or infinite."""
    raw = np.loadtxt(path, delimiter=",", skiprows=1)
    if raw.ndim != 2 or raw.shape[1] < 2:
        raise ValueError("expected a 2-d numeric matrix with features plus a label column")
    if not np.all(np.isfinite(raw)):
        rows = np.flatnonzero(~np.isfinite(raw).all(axis=1)) + 1
        raise ValueError(f"{path}: non-finite entries in data row(s) {rows[:5].tolist()}")
    if raw.shape[0] < n + critical:
        raise ValueError("file has fewer rows than n + critical")
    x_raw = raw[:, :-1]
    labels = raw[:, -1]
    std = x_raw.std(axis=0)
    std[std == 0.0] = 1.0
    x_norm = (x_raw - x_raw.mean(axis=0)) / std
    features = np.hstack([x_norm, np.ones((raw.shape[0], 1))])
    perm = np.random.default_rng(seed).permutation(raw.shape[0])
    return _build_regression(features, labels, perm[:n], perm[n : n + critical], tolerance)


# ---------------------------------------------------------------------------
# Small factories and reference solvers


def random_quadratic_problem(
    seed: int,
    dim: int = 4,
    n: int = 10,
    m: int = 2,
    mu: float = 0.5,
    smoothness: float = 4.0,
    affine_constraints: bool = True,
) -> ConstrainedProblem:
    """Random strongly convex quadratic finite sum with affine (or convex
    quadratic) constraints, for tests and toy reference solves."""
    rng = np.random.default_rng(seed)
    spectrum = np.linspace(mu, smoothness, dim)
    basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    q_mean = basis @ np.diag(spectrum) @ basis.T
    # per-component curvature perturbations averaging to q_mean
    shifts = rng.standard_normal(n)
    shifts -= shifts.mean()
    scale = 0.4 * mu / (np.abs(shifts).max() + 1e-12)
    q_stack = q_mean + (scale * shifts)[:, None, None] * np.eye(dim)  # (n, d, d)
    b_stack = rng.standard_normal((n, dim))
    b_mean = b_stack.mean(axis=0)

    a_con = rng.standard_normal((m, dim)) if m else np.empty((0, dim))
    # offsets chosen so the unconstrained optimum violates some constraints
    x_unc = np.linalg.solve(q_mean, -b_mean)
    c_con = a_con @ x_unc - np.abs(rng.standard_normal(m)) if m else np.empty(0)

    def component_block(x: np.ndarray, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        q, b = q_stack[idx], b_stack[idx]
        return _row_dots((0.5 * x) @ q, x) + _row_dots(b, x), q @ x + b

    if affine_constraints:
        l_g = 0.0

        def constraint_block(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return _row_dots(a_con, x) - c_con, a_con.copy()

    else:
        l_g = 2.0 if m else 0.0
        centers = np.empty((m, dim))
        radii2 = np.empty(m)
        for k in range(m):
            centers[k] = x_unc + rng.standard_normal(dim)
            radii2[k] = rng.uniform(0.1, 0.5)

        def constraint_block(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            diff = x - centers
            return _row_dots(diff, diff) - radii2, 2.0 * diff

    eigs = [np.linalg.eigvalsh(q) for q in q_stack]
    return ConstrainedProblem(
        dim=dim,
        n_components=n,
        component_block=component_block,
        smoothness=max(float(e[-1]) for e in eigs),
        constraint_smoothness=l_g,
        m=m,
        constraint_block=constraint_block if m else None,
        strong_convexity=max(min(float(e[0]) for e in eigs), 0.0),
    )


def _row_dots(rows: np.ndarray, y: np.ndarray) -> np.ndarray:
    """rows[k] @ y[k] for every k (a 1-d y is shared by all rows).

    Written as a stack of (1, d) @ (d, 1) products so that each entry is
    computed like the 1-d ``dot`` of one row; ``rows @ y`` and ``einsum`` may
    round differently in the last bit.
    """
    return (rows[:, None, :] @ y[..., None])[:, 0, 0]


def brute_force_optimum(
    problem: ConstrainedProblem,
    gamma: float,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    max_iters: int = 200_000,
    eta: Optional[float] = None,
) -> tuple[np.ndarray, float]:
    """High-accuracy reference minimizer of the exact-penalty objective.

    Deterministic full-gradient prox-linear iteration with warm-started QP
    duals and a monotone backtracking stepsize (a fixed point of the
    prox-linear map minimizes the penalty objective for any stepsize, so the
    stopping rule move/eta <= tol is valid without the theorem's conservative
    stepsize bound).  Returns (x_star, F_star).  Counters are untouched
    (instrumentation).
    """
    x = np.zeros(problem.dim) if x0 is None else np.asarray(x0, dtype=float).copy()
    step = eta if eta is not None else 1.0 / problem.smoothness
    f_cur = penalty_objective(problem, gamma, x)
    warm = None

    def prox_linear(point, gradient, offsets, slopes, stepsize, warm_sol):
        # at large 1/stepsize the stationarity residual floor is set by
        # rho * eps-level cancellation in u - w, so relax the target with rho
        qp_tol = min(1e-4, max(min(1e-11, tol * 1e-2), 1e-14 / stepsize))
        qp = CanonicalQp(
            rho=1.0 / stepsize,
            anchor=point,
            linear=gradient,
            regularizer=problem.regularizer,
            hinge_weight=gamma,
            offsets=offsets,
            slopes=slopes,
        )
        return solve_canonical_qp(qp, tol=qp_tol, warm=warm_sol)

    converged = False
    stalls = 0
    for it in range(max_iters):
        grad = full_gradient(problem, x)
        cvals, cgrads = problem.constraint_values_grads(x)
        offsets = cvals - cgrads @ x if len(cvals) else cvals
        sol = prox_linear(x, grad, offsets, cgrads, step, warm)
        warm = sol
        # the prox-linear fixed-point residual certifies optimality before any
        # descent test, which would stall on floating noise at the optimum
        if float(np.linalg.norm(sol.u - x)) / step <= tol:
            f_new = penalty_objective(problem, gamma, sol.u)
            if f_new <= f_cur:
                x, f_cur = sol.u, f_new
            converged = True
            break
        f_new = penalty_objective(problem, gamma, sol.u)
        while f_new > f_cur + 1e-12 * (1.0 + abs(f_cur)):
            if step <= 1e-14:
                # descent stalled at floating precision: numerically optimal
                converged = True
                break
            step *= 0.5
            sol = prox_linear(x, grad, offsets, cgrads, step, warm)
            warm = sol
            if float(np.linalg.norm(sol.u - x)) / step <= tol:
                converged = True
            f_new = penalty_objective(problem, gamma, sol.u)
            if converged:
                break
        if abs(f_new - f_cur) <= 1e-12 * (1.0 + abs(f_cur)):
            # objective changes below floating resolution; after repeated
            # stalls the iterate is numerically optimal even if the
            # fixed-point residual floor sits above tol
            stalls += 1
            if stalls >= 30:
                converged = True
        else:
            stalls = 0
        if f_new <= f_cur:
            x, f_cur = sol.u, f_new
        if converged:
            break
        step *= 1.25  # probe a larger step; backtracking undoes overshoots
    if not converged:
        raise RuntimeError(f"reference solve did not reach tol={tol:g} in {max_iters} iterations")
    return x, penalty_objective(problem, gamma, x)


def solve_kkt_quadratic(
    q: np.ndarray, c: np.ndarray, a: np.ndarray, b: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact minimizer of min 0.5 x'Qx + c'x s.t. Ax <= b by active-set enumeration.

    Test oracle for small toys (Q positive definite).  Returns (x, duals).
    """
    q = np.asarray(q, dtype=float)
    c = np.asarray(c, dtype=float)
    a = np.asarray(a, dtype=float).reshape(-1, q.shape[0])
    b = np.asarray(b, dtype=float).reshape(-1)
    m = len(b)
    best = None
    best_val = np.inf
    for size in range(m + 1):
        for subset in itertools.combinations(range(m), size):
            s = list(subset)
            k = len(s)
            kkt = np.zeros((q.shape[0] + k, q.shape[0] + k))
            kkt[: q.shape[0], : q.shape[0]] = q
            if k:
                kkt[: q.shape[0], q.shape[0] :] = a[s].T
                kkt[q.shape[0] :, : q.shape[0]] = a[s]
            rhs = np.concatenate([-c, b[s]])
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                continue
            x = sol[: q.shape[0]]
            lam = sol[q.shape[0] :]
            if np.any(lam < -1e-9):
                continue
            if m and np.any(a @ x - b > 1e-9):
                continue
            val = float(0.5 * x @ q @ x + c @ x)
            if val < best_val:
                best_val = val
                duals = np.zeros(m)
                duals[s] = np.maximum(lam, 0.0)
                best = (x, duals)
    if best is None:
        raise RuntimeError("no KKT point found (infeasible or degenerate toy)")
    return best
