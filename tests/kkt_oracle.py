"""Exact KKT oracle for small inequality-constrained quadratics (tests only)."""

import itertools

import numpy as np


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
