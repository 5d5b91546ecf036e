import itertools

import numpy as np
import pytest

from partlearn.geometry.lp import LPInfeasible, LPUnbounded, solve_lp


def vertex_enumeration_min(c, A, b):
    """Brute-force optimum of min c @ x over a bounded {A x <= b}: the best
    feasible intersection point of n constraint hyperplanes."""
    n = c.size
    best = np.inf
    for rows in itertools.combinations(range(A.shape[0]), n):
        M = A[list(rows)]
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        x = np.linalg.solve(M, b[list(rows)])
        if np.all(A @ x <= b + 1e-9):
            best = min(best, float(c @ x))
    return best


@pytest.mark.parametrize("seed", range(12))
def test_solve_lp_matches_vertex_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 5))
    rows = int(rng.integers(2, 7))
    A = rng.normal(size=(rows, n))
    b = rng.uniform(0.5, 2.0, size=rows)
    c = rng.normal(size=n)
    # box the variables so the instance is bounded
    A_all = np.vstack([A, np.eye(n), -np.eye(n)])
    b_all = np.concatenate([b, np.full(2 * n, 5.0)])
    val, x = solve_lp(c, A_ub=A_all, b_ub=b_all)
    assert val == pytest.approx(vertex_enumeration_min(c, A_all, b_all), abs=1e-6)
    assert np.all(A_all @ x <= b_all + 1e-7)


def test_solve_lp_infeasible():
    with pytest.raises(LPInfeasible):
        solve_lp(np.array([1.0]), A_ub=np.array([[1.0], [-1.0]]), b_ub=np.array([-2.0, 1.0]))


def test_solve_lp_unbounded():
    with pytest.raises(LPUnbounded):
        solve_lp(np.array([-1.0]), A_ub=np.array([[-1.0]]), b_ub=np.array([0.0]))
