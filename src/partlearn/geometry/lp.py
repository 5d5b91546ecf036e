"""Linear programs through scipy's HiGHS solver: Chebyshev centers and l1
distances to hulls.

Every non-optimal HiGHS status raises an ``LPError``: ``LPInfeasible`` and
``LPUnbounded`` for the two definite verdicts, the base class for iteration
limits, numerical trouble and "infeasible or unbounded".
"""

from __future__ import annotations

import numpy as np

from ..predicates import ETA
from .polytope import HPolytope


class LPError(Exception):
    pass


class LPInfeasible(LPError):
    pass


class LPUnbounded(LPError):
    pass


def _highs(c, A_ub, b_ub, A_eq, b_eq, bounds):
    """Minimize c @ x under the constraints and variable bounds; returns
    (value, x) or raises the LPError matching the solver status."""
    # imported here: scipy.optimize adds about 15% to the package's import
    # time, and solves, learns and benchmarks mostly solve no LP at all
    from scipy.optimize import linprog

    res = linprog(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    if res.status == 2:
        raise LPInfeasible(res.message)
    if res.status == 3:
        raise LPUnbounded(res.message)
    if res.status != 0:
        raise LPError(res.message)
    return float(res.fun), res.x


def solve_lp(c, A_ub=None, b_ub=None, A_eq=None, b_eq=None):
    """Minimize c @ x with A_ub x <= b_ub, A_eq x = b_eq, x free.

    Returns (value, x); raises LPInfeasible / LPUnbounded / LPError.
    """
    return _highs(c, A_ub, b_ub, A_eq, b_eq, (None, None))


def chebyshev(p: HPolytope):
    """Thickness and a deepest point of an H-polytope.

    Maximizes r subject to ``normal . x >= offset + r`` over all rows (the
    largest inscribed l2 ball).  Lower-dimensional or empty sets report
    radius 0; a set whose inscribed radius is unbounded raises ValueError.
    """
    m = p.dim
    # variables (x, r); maximize r  ->  minimize -r
    c = np.zeros(m + 1)
    c[-1] = -1.0
    A_ub = np.hstack([-p.normals, np.ones((p.nrows, 1))])
    try:
        _, sol = solve_lp(c, A_ub=A_ub, b_ub=-p.offsets)
    except LPUnbounded:
        raise ValueError("unbounded region")
    except LPInfeasible:
        return 0.0, None
    r = float(sol[-1])
    if r < 0:
        # infeasible within tolerance: empty set
        return 0.0, None
    return r, sol[:m]


def l1_distance_to_hull(x: np.ndarray, vertices: np.ndarray):
    """l1 distance from x to conv(vertices), via a small LP.

    Minimizes ||x - V^T lam||_1 over convex weights lam.  Returns
    (distance, witness point).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    v, m = V.shape
    if v == 0:
        return np.inf, None
    if m == 0:
        return 0.0, x.copy()
    # variables: lam (v) >= 0, t (m) >= 0
    # constraints:  V^T lam - t <= x ;  -V^T lam - t <= -x ;  sum lam = 1
    n = v + m
    c = np.concatenate([np.zeros(v), np.ones(m)])
    A_ub = np.zeros((2 * m, n))
    A_ub[:m, :v] = V.T
    A_ub[:m, v:] = -np.eye(m)
    A_ub[m:, :v] = -V.T
    A_ub[m:, v:] = -np.eye(m)
    A_eq = np.zeros((1, n))
    A_eq[0, :v] = 1.0
    val, sol = _highs(c, A_ub, np.concatenate([x, -x]), A_eq, np.array([1.0]), (0, None))
    lam = np.clip(sol[:v], 0.0, None)
    s = lam.sum()
    lam = lam / s if s > ETA else np.full(v, 1.0 / v)
    witness = V.T @ lam
    return max(val, 0.0), witness
