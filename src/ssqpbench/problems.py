"""Benchmark problem instances and reference-solution helpers.

Two shipped benchmarks: an unmanned-surface-vehicle (USV) trajectory problem
minimizing expected propulsion energy against an ensemble of estimated ocean
currents under speed-limit constraints, and a least-squares regression with
hard residual constraints on a held-out critical sample set.  Both come with
seeded generators, plus small factories and a deterministic reference solver
used as the instrumentation oracle in tests: one outer loop around one
backtracking loop, whose QPs are the ones ``algorithms._linearized_qp`` builds
for the solver loops (the exits are listed in ``brute_force_optimum``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .penalty import penalty_objective
from .algorithms import _linearized_qp
from .problem_model import ConstrainedProblem, SfoSample, full_gradient
from .qp_subproblem import solve_canonical_qp

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
    "ReferenceSolveError",
]


# ---------------------------------------------------------------------------
# USV trajectory problem


@dataclass
class UsvProblem:
    """USV instance data: current ensemble, endpoints, and speed limit.

    The decision vector stacks the T-2 interior waypoints; the fixed endpoints
    are substituted during evaluation, leaving m = T-1 squared-speed
    constraints ||p(t) - p(t+1)||^2 <= v_max^2, whose Jacobian is a band of at
    most 4 nonzeros per row.  The current ensemble is fixed once built: the
    arrays become read-only, and W_i^T and I - W_i are formed here once for
    every evaluation.
    """

    horizon: int  # waypoint count T
    currents_w: np.ndarray  # (n, 2, 2)
    currents_z: np.ndarray  # (n, 2)
    v_max: float
    p_start: np.ndarray
    p_dest: np.ndarray
    w_transposed: np.ndarray = field(init=False, repr=False)  # (n, 2, 2), contiguous
    i_minus_w: np.ndarray = field(init=False, repr=False)  # (n, 2, 2)

    def __post_init__(self):
        self.currents_w.flags.writeable = False
        self.currents_z.flags.writeable = False
        # a contiguous copy: matmul takes its fast path, with the same rounding
        self.w_transposed = np.ascontiguousarray(self.currents_w.transpose(0, 2, 1))
        self.i_minus_w = np.eye(2) - self.currents_w

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
    system for (W_i, z_i), all n in one batched solve.  Returns (W_list,
    z_list, W_true, z_true).
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

    xi = rng.standard_normal((n, 2))
    clean = np.concatenate([w_true @ y + z_true for y in positions])  # v(y_j), stacked
    rhs = np.tile(1.0 + xi, 3) * clean  # (n, 6)
    sol = np.linalg.solve(system, rhs[..., None])[..., 0]
    return sol[:, :4].reshape(n, 2, 2), sol[:, 4:], w_true, z_true


def path_from_decision(usv: UsvProblem, x: np.ndarray) -> np.ndarray:
    """Full (T, 2) waypoint path with the fixed endpoints substituted."""
    return np.concatenate((usv.p_start, x, usv.p_dest), dtype=float).reshape(usv.horizon, 2)


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
    gradients (b, dim) for the b indices; row j depends on ``idx[j]`` alone.
    One index is taken by basic indexing, with 2-D matmuls that round as the
    rows of a batch do.
    """
    key = idx[0] if len(idx) == 1 else idx
    path = path_from_decision(usv, x)
    head = path[:-1]
    eff = head - head @ usv.w_transposed[key]  # (I - W_i) p(t) rows
    resid = eff - path[1:] - usv.currents_z[key][..., None, :]  # ([b,] T-1, 2)
    # the 2-norm of each row, computed as np.linalg.norm does (its reduce
    # over two entries is one addition)
    sq = resid * resid
    norms = np.sqrt(sq[..., 0] + sq[..., 1])
    values = np.add.reduce(norms**3, -1)

    weighted = 3.0 * norms[..., None] * resid
    # interior waypoint t gets segment t through (I - W_i) and segment t-1 negated
    grads = (weighted @ usv.i_minus_w[key])[..., 1:, :] - weighted[..., :-1, :]
    return values.reshape(len(idx)), grads.reshape(len(idx), usv.dim)


def _usv_constraint_bundle(usv: UsvProblem, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    path = path_from_decision(usv, x)
    diffs = path[:-1] - path[1:]  # (T-1, 2)
    sq = diffs * diffs
    vals = sq[:, 0] + sq[:, 1] - usv.v_max**2
    # segment k moves interior waypoints k-1 (by +2 diffs) and k (by -2 diffs).
    # The m * dim = (T-2) (dim+2) Jacobian entries, viewed as (T-2, dim+2),
    # hold waypoint k's two bands in row k: columns :2 (segment k) and dim:
    # (segment k+1), so each band is one strided slice
    grads = np.zeros((usv.horizon - 2, usv.dim + 2))
    np.multiply(diffs[1:], 2.0, out=grads[:, usv.dim :])
    np.multiply(diffs[:-1], -2.0, out=grads[:, :2])
    return vals, grads.reshape(usv.m, usv.dim)


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

    When the rows of ``features`` are linearly independent (full row rank, so
    at most d rows), X theta = y has a solution and the answer is exactly 0.
    Otherwise (more rows than columns, or dependent rows) it is solved as the
    Chebyshev (minimax absolute residual) linear program; the minimal cap is
    the squared minimax residual.  SciPy's optimizer is imported only on that
    path, so a build whose critical rows can be interpolated never loads it.
    """
    if np.linalg.matrix_rank(features) == len(features):
        return 0.0
    from scipy.optimize import linprog

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
        rows = x_obj[idx]
        resid = rows @ theta - y_obj[idx]
        return 0.5 * resid * resid, resid[:, None] * rows

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
    critical: int = 10,
    tolerance: float = 1.3,
    noise: float = 1.0,
) -> tuple[ConstrainedProblem, ResidualRegressionProblem]:
    """Synthetic residual-constrained regression instance.

    The defaults are the shipped instance of criteria 3 and 4 (with seed 11).
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
    if n < 1 or critical < 1:
        raise ValueError("need n >= 1, critical >= 1")
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


class ReferenceSolveError(RuntimeError):
    """``brute_force_optimum`` did not reach its tolerance within its iteration budget."""


def brute_force_optimum(
    problem: ConstrainedProblem,
    gamma: float,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-10,
    max_iters: int = 200_000,
) -> tuple[np.ndarray, float]:
    """High-accuracy reference minimizer of the exact-penalty objective.

    Deterministic full-gradient prox-linear iteration on the QP that
    ``_linearized_qp`` builds for the loops, with warm-started QP duals and a
    monotone backtracking stepsize.  Every solve takes the fixed-point test
    move/eta <= tol (a fixed point of the prox-linear map minimizes the
    penalty objective for any stepsize, so the test is valid without the
    theorem's conservative stepsize bound); backtracking ends when it passes
    or F rises by at most 1e-12 (1 + |F|), and a step at or below 1e-14
    counts as converged.  The solve stops when the test passes or after 30
    iterations in a row whose F moved below that resolution.  Returns
    (x_star, F_star).  Counters are untouched (instrumentation).  Raises
    ``ReferenceSolveError`` when the iteration budget runs out first.
    """
    x = np.zeros(problem.dim) if x0 is None else np.asarray(x0, dtype=float).copy()
    step = 1.0 / problem.smoothness
    f_cur = penalty_objective(problem, gamma, x)
    sol = None
    stalls = 0
    for _ in range(max_iters):
        sample = SfoSample(full_gradient(problem, x)[0], *problem.constraint_values_grads(x))
        resolution = 1e-12 * (1.0 + abs(f_cur))
        while True:
            # at large 1/step the stationarity residual floor is set by
            # rho * eps-level cancellation in u - w, so relax the target with rho
            solve_tol = min(1e-4, max(min(1e-11, tol * 1e-2), 1e-14 / step))
            qp = _linearized_qp(x, 1.0 / step, sample.stochastic_gradient, gamma, sample, problem.regularizer)
            sol = solve_canonical_qp(qp, tol=solve_tol, warm=sol)
            # the fixed-point residual certifies optimality ahead of the
            # descent test, which would stall on floating noise at the optimum
            converged = float(np.linalg.norm(sol.u - x)) / step <= tol
            f_new = penalty_objective(problem, gamma, sol.u)
            if converged or f_new <= f_cur + resolution:
                break
            if step <= 1e-14:
                converged = True  # descent stalled at floating precision
                break
            step *= 0.5
        # repeated changes below floating resolution: numerically optimal
        # even if the fixed-point residual floor sits above tol
        stalls = stalls + 1 if abs(f_new - f_cur) <= resolution else 0
        if f_new <= f_cur:
            x, f_cur = sol.u, f_new
        if converged or stalls >= 30:
            return x, f_cur
        step *= 1.25  # probe a larger step; backtracking undoes overshoots
    raise ReferenceSolveError(f"reference solve did not reach tol={tol:g} in {max_iters} iterations")
