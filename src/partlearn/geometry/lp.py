"""Linear programs through scipy's HiGHS solver: Chebyshev centers.

Every non-optimal HiGHS status raises an ``LPError``: ``LPInfeasible`` and
``LPUnbounded`` for the two definite verdicts, the base class for iteration
limits, numerical trouble and "infeasible or unbounded".
"""

from __future__ import annotations

import numpy as np

from .polytope import HPolytope


class LPError(Exception):
    pass


class LPInfeasible(LPError):
    pass


class LPUnbounded(LPError):
    pass


def solve_lp(c, A_ub=None, b_ub=None):
    """Minimize c @ x with A_ub x <= b_ub, x free.

    Returns (value, x); raises LPInfeasible / LPUnbounded / LPError.
    """
    # imported here: scipy.optimize adds about 15% to the package's import
    # time, and solves, learns and benchmarks mostly solve no LP at all
    from scipy.optimize import linprog

    res = linprog(c, A_ub=A_ub, b_ub=b_ub, bounds=(None, None), method="highs")
    if res.status == 2:
        raise LPInfeasible(res.message)
    if res.status == 3:
        raise LPUnbounded(res.message)
    if res.status != 0:
        raise LPError(res.message)
    return float(res.fun), res.x


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
