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


def test_solve_lp_with_equalities():
    # min x + y  s.t. x + y = 1, x, y >= 0
    val, x = solve_lp(np.array([1.0, 1.0]),
                      A_ub=-np.eye(2), b_ub=np.zeros(2),
                      A_eq=np.array([[1.0, 1.0]]), b_eq=np.array([1.0]))
    assert val == pytest.approx(1.0, abs=1e-9)


def test_solve_lp_infeasible():
    with pytest.raises(LPInfeasible):
        solve_lp(np.array([1.0]), A_ub=np.array([[1.0], [-1.0]]), b_ub=np.array([-2.0, 1.0]))


def test_solve_lp_unbounded():
    with pytest.raises(LPUnbounded):
        solve_lp(np.array([-1.0]), A_ub=np.array([[-1.0]]), b_ub=np.array([0.0]))


@pytest.mark.parametrize("seed", range(6))
def test_l1_distance_matches_scipy(seed):
    # the l1 distance from x to conv(V) as an LP with an equality row:
    # min sum t, |x - V^T lam| <= t, lam on the simplex, t >= 0.  The
    # reference is brute-force vertex enumeration, with the equality as two
    # inequalities: a pointed polyhedron with an objective bounded below,
    # so a vertex is optimal
    rng = np.random.default_rng(seed)
    V = rng.random((5, 3))
    x = rng.random(3) * 1.5
    v, m = V.shape
    c = np.concatenate([np.zeros(v), np.ones(m)])
    A = np.zeros((2 * m, v + m))
    A[:m, :v], A[:m, v:] = V.T, -np.eye(m)
    A[m:, :v], A[m:, v:] = -V.T, -np.eye(m)
    A_ub = np.vstack([A, -np.eye(v + m)])
    b_ub = np.concatenate([x, -x, np.zeros(v + m)])
    A_eq = np.concatenate([np.ones(v), np.zeros(m)])[None, :]
    d, sol = solve_lp(c, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=np.array([1.0]))
    A_all = np.vstack([A_ub, A_eq, -A_eq])
    b_all = np.concatenate([b_ub, [1.0, -1.0]])
    assert d == pytest.approx(vertex_enumeration_min(c, A_all, b_all), abs=1e-7)
    assert np.abs(x - V.T @ sol[:v]).sum() == pytest.approx(d, abs=1e-6)
