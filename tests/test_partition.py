import math

import numpy as np
import pytest

from partlearn import partition
from partlearn.bimatrix import BimatrixGame, make_br_oracles, solve_wsne
from partlearn.cdgbs import GbsConfig, cd_gbs
from partlearn.geometry import PointHull, cross_section, face_lift
from partlearn.geometry.polytope import all_faces
from partlearn.partition import (
    AnswerMemo, Oracle, QueryBudgetError, UEPP, alpha_critical, cell_hpolytope, critical_coordinates,
    make_oracle, random_uepp, uepp_cells,
)
from partlearn.predicates import ETA, row_sum


def three_cell_uepp():
    return UEPP(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]), np.zeros(3))


# -- label sets ----------------------------------------------------------------

def test_label_set_strict_argmax():
    assert three_cell_uepp().label_set([0.8, 0.1]) == {1}


def test_label_set_tie_on_diagonal():
    assert three_cell_uepp().label_set([0.5, 0.5]) == {1, 2}


def test_label_set_duplicate_rows_everywhere():
    u = UEPP(np.array([[0.5, -0.2], [0.5, -0.2]]), np.array([0.1, 0.1]))
    rng = np.random.default_rng(0)
    for _ in range(50):
        y = rng.dirichlet(np.ones(3))[:2]
        assert u.label_set(y) == {1, 2}


def test_label_set_refuses_outside_points():
    with pytest.raises(ValueError):
        three_cell_uepp().label_set([0.9, 0.9])


def test_row_sum_is_numpys_sum_bit_for_bit():
    # left to right below 8 terms, numpy's pairwise sum from 8 on: lists
    # whose sums depend on the order of addition
    rng = np.random.default_rng(3)
    for size in range(20):
        for _ in range(200):
            vals = rng.choice([1.0, 1e-16, -3e-17, 0.1, 0.7], size=size) * rng.random(size) ** 4
            assert row_sum(vals.tolist()) == np.sum(vals)
            assert row_sum(vals.tolist()) == np.atleast_2d(vals).sum(axis=-1)[0]


@pytest.mark.parametrize("m", [1, 2, 3, 8, 9])
def test_label_set_refuses_exactly_the_points_outside_the_band(m):
    # against numpy's bounds on the array: min >= -band and sum <= 1 + band
    u = random_uepp(m, 3, seed=m)
    rng = np.random.default_rng(m)
    for tol in (0.0, ETA, 1e-7):
        band = max(tol, ETA)
        for _ in range(300):
            y = rng.dirichlet(np.ones(m + 1))[1:]
            y = y / y.sum() * (1.0 + rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0]) * band)
            y[rng.integers(m)] = rng.choice([y[0], 0.0, -band, -band * (1 + 1e-9), -2 * band])
            inside = y.min() >= -band and float(y.sum()) <= 1.0 + band
            try:
                u.label_set(y, tol=tol)
            except ValueError as err:
                assert not inside and "outside the simplex" in str(err)
            else:
                assert inside


def _count_point_checks(monkeypatch) -> list:
    """Every `as_point` check of the membership path, in a list."""
    checks = []
    as_point = partition.as_point

    def counted(x):
        checks.append(x)
        return as_point(x)

    monkeypatch.setattr(partition, "as_point", counted)
    return checks


def test_a_search_checks_each_charged_point_once(monkeypatch):
    # the run's memo keys a point by its bytes and the oracle checks it, so
    # a charged query pays one check and a memo hit none
    checks = _count_point_checks(monkeypatch)
    o = make_oracle(random_uepp(3, 4, seed=1))
    cd_gbs(GbsConfig(3, 4, 0.05), o)
    assert o.log.count > 0 and len(checks) == o.log.count


def test_a_bimatrix_solve_checks_each_charged_point_once(monkeypatch):
    # each search asks through its player's memo of `make_br_oracles`, not
    # through a second memo of it, and the oracle behind checks the point
    checks = _count_point_checks(monkeypatch)
    memos = []
    init = AnswerMemo.__init__

    def counted_init(self, oracle):
        memos.append(oracle)
        init(self, oracle)

    monkeypatch.setattr(AnswerMemo, "__init__", counted_init)
    rng = np.random.default_rng(5)
    oracles = make_br_oracles(BimatrixGame(rng.random((4, 3)), rng.random((4, 3))), seed=0)
    cert = solve_wsne(oracles, 0.1)
    queries = oracles.row.log.count + oracles.column.log.count
    assert cert.queries_row + cert.queries_col == queries > 0
    assert len(checks) == queries
    assert memos == [oracles.row.oracle, oracles.column.oracle]


# -- oracles --------------------------------------------------------------------

def test_lexicographic_tie_gives_smaller_label():
    o = make_oracle(three_cell_uepp(), kind="lexicographic")
    assert o([0.5, 0.5]) == 1


def test_maxindex_tie_gives_larger_label():
    o = make_oracle(three_cell_uepp(), kind="adversarial", policy="maxindex")
    assert o([0.5, 0.5]) == 2


def test_oracle_answers_are_sound():
    u = random_uepp(2, 4, seed=1)
    o = make_oracle(u, kind="adversarial", policy="seeded", seed=5)
    rng = np.random.default_rng(2)
    for _ in range(1000):
        y = rng.dirichlet(np.ones(3))[:2]
        assert o(y) in u.label_set(y)
    assert o.log.count == 1000


def test_oracle_budget_error_is_distinct():
    o = make_oracle(three_cell_uepp(), budget=1)
    o([0.2, 0.2])
    with pytest.raises(QueryBudgetError):
        o([0.2, 0.2])
    # geometric refusals stay ValueError
    o2 = make_oracle(three_cell_uepp())
    with pytest.raises(ValueError):
        o2([2.0, 2.0])


def test_refused_query_is_not_charged():
    o = make_oracle(three_cell_uepp(), budget=1)
    with pytest.raises(ValueError):
        o([2.0, 0.0])
    assert o.log.count == 0 and o.log.transcript == []
    # the refusal used up no budget: the one allowed query is still answered
    assert o([0.8, 0.1]) == 1
    assert o.log.count == 1 and o.log.transcript == [((0.8, 0.1), 1)]


def test_repeated_queries_consistent():
    o = make_oracle(three_cell_uepp(), kind="adversarial", policy="seeded", seed=9)
    answers = {o([0.5, 0.5]) for _ in range(10)}
    assert len(answers) == 1


# -- explicit cells ---------------------------------------------------------------

def test_uepp_cells_single_label_is_simplex():
    u = UEPP(np.array([[0.3, -0.1]]), np.array([0.0]))
    gt = uepp_cells(u)
    verts = {tuple(np.round(v, 9)) for v in gt.cells[0][1].vertices}
    assert verts == {(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)}


def test_uepp_cells_1d_crossing_point():
    # rows y and constant 0.4 cross at y = 0.4 (analytic oracle)
    u = UEPP(np.array([[1.0], [0.0]]), np.array([0.0, 0.4]))
    gt = uepp_cells(u)
    cells = dict(gt.cells)
    assert sorted(np.round(cells[1].vertices.ravel(), 9)) == [0.4, 1.0]
    assert sorted(np.round(cells[2].vertices.ravel(), 9)) == [0.0, 0.4]


@pytest.mark.parametrize("seed", range(3))
def test_uepp_cells_agree_with_label_set(seed):
    u = random_uepp(2, 4, seed=seed)
    gt = uepp_cells(u)
    rng = np.random.default_rng(seed + 10)
    pts = rng.dirichlet(np.ones(3), size=2000)[:, :2]
    hulls = {lbl: PointHull(cell.vertices) for lbl, cell in gt.cells if not cell.is_empty}
    for y in pts:
        labels = u.label_set(y)
        member = {lbl for lbl, hull in hulls.items() if hull.distances(y)[0] <= 1e-6}
        assert labels <= member
        assert member & labels
    assert gt.n == 4


@pytest.mark.parametrize("m,n", [(1, 3), (2, 4), (3, 4), (4, 5)])
def test_ground_truth_label_sets_match_the_uepp(monkeypatch, m, n):
    # at points whose envelope leads by 1e-3, one hull per cell built on the
    # first query answers every query, as the UEPP does
    u = random_uepp(m, n, seed=m + n)
    gt = uepp_cells(u)
    rng = np.random.default_rng(m)
    pts = rng.dirichlet(np.ones(m + 1), size=400)[:, 1:]
    vals = np.sort(pts @ u.A.T + u.b, axis=1)
    pts = pts[vals[:, -1] - vals[:, -2] > 1e-3]
    gt.label_set(pts[0])
    builds = []
    monkeypatch.setattr(partition, "PointHull", lambda *a: builds.append(a))
    for y in pts:
        assert gt.label_set(y) == u.label_set(y)
    assert len(pts) > 100 and builds == []


def test_uepp_cells_cap():
    with pytest.raises(ValueError):
        uepp_cells(random_uepp(5, 2, seed=0))


# -- critical coordinates ----------------------------------------------------------

def test_critical_coordinates_single_cell():
    u = UEPP(np.array([[0.2, 0.1]]), np.array([0.0]))
    coords = critical_coordinates(u, alpha=0.05)
    assert coords[0] == pytest.approx(0.0, abs=1e-6)
    assert coords[-1] == pytest.approx(1.0, abs=1e-6)
    lr = alpha_critical(u, 1, 0.05)
    assert lr is not None and 0.0 <= lr[0] < lr[1] <= 1.0


def test_cell_under_a_dominating_coinciding_row_is_empty():
    # label 1's row equals label 2's row shifted up by 1: label 2 never wins
    u = UEPP(np.array([[1.0, 0.5], [1.0, 0.5]]), np.array([0.0, -1.0]))
    grid = [np.array([a, b]) / 20 for a in range(21) for b in range(21 - a)]
    assert all(u.label_set(y) == {1} for y in grid)
    h, boundary = cell_hpolytope(u, 2)
    assert boundary == {0, 1, 2}
    assert not any(h.contains(y) for y in grid)
    assert alpha_critical(u, 2, 0.01) is None
    assert alpha_critical(u, 1, 0.01) == pytest.approx((0.0, 0.98), abs=1e-6)
    cells = dict(uepp_cells(u).cells)
    assert cells[2].is_empty and not cells[1].is_empty


@pytest.mark.parametrize("seed", range(10))
def test_critical_coordinate_cardinality(seed):
    n = 2 + seed % 3
    u = random_uepp(2, n, seed=seed)
    coords = critical_coordinates(u, alpha=0.02)
    assert len(coords) <= math.comb(n + 2, 2) + 2 * n


def test_cross_sections_nondegenerate_between_criticals():
    u = random_uepp(2, 3, seed=4)
    coords = critical_coordinates(u, alpha=0.02)
    gt = uepp_cells(u)
    for a, b in zip(coords[:-1], coords[1:]):
        x = 0.5 * (a + b)
        if x >= 1.0 - 1e-9:
            continue
        # pairwise relative interiors of section intervals overlap only if equal
        ivs = {}
        for lbl, cell in gt.cells:
            sec = cross_section(cell, x)
            if not sec.is_empty:
                ys = sec.vertices[:, 1]
                ivs[lbl] = (ys.min(), ys.max())
        for i in ivs:
            for j in ivs:
                if i >= j:
                    continue
                lo = max(ivs[i][0], ivs[j][0])
                hi = min(ivs[i][1], ivs[j][1])
                if hi - lo > 1e-6:   # interiors overlap
                    assert abs(ivs[i][0] - ivs[j][0]) <= 1e-6
                    assert abs(ivs[i][1] - ivs[j][1]) <= 1e-6


# -- generator ---------------------------------------------------------------------

def test_random_uepp_deterministic():
    a = random_uepp(3, 4, seed=11)
    b = random_uepp(3, 4, seed=11)
    assert np.array_equal(a.A, b.A) and np.array_equal(a.b, b.b)


def test_random_uepp_duplicate_rows():
    u = random_uepp(2, 4, seed=2, duplicate_rows=1)
    found = any(np.allclose(u.A[i], u.A[j]) and abs(u.b[i] - u.b[j]) < 1e-12
                for i in range(4) for j in range(i + 1, 4))
    assert found


def test_random_uepp_empty_cells():
    u = random_uepp(2, 4, seed=3, empty_cells=1)
    gt = uepp_cells(u)
    assert any(cell.is_empty for _, cell in gt.cells)


def test_random_uepp_covers_simplex():
    u = random_uepp(2, 3, seed=5)
    rng = np.random.default_rng(0)
    pts = rng.dirichlet(np.ones(3), size=10_000)[:, :2]
    for y in pts[:200]:
        assert u.label_set(y)
    # vectorized coverage of the rest
    vals = pts @ u.A.T + u.b
    assert np.all(np.isfinite(vals))


# -- structure invariants --------------------------------------------------------------

def test_cross_section_structure_is_uepp():
    u = random_uepp(3, 3, seed=6)
    rng = np.random.default_rng(1)
    for x in (0.15, 0.45, 0.8):
        sec = u.section(x)
        for _ in range(300):
            z = rng.dirichlet(np.ones(3))[:2] if u.m - 1 == 2 else rng.random(u.m - 1)
            y = np.concatenate([[x], (1 - x) * z])
            assert sec.label_set(z) == u.label_set(y)


def test_face_restriction_structure():
    u = random_uepp(3, 3, seed=7)
    rng = np.random.default_rng(2)
    for face in all_faces(3, 1):
        lift = face_lift(face)
        sub = u.restrict(lift, face.dim)
        for _ in range(100):
            z = rng.random(1)
            y = lift(z)
            assert sub.label_set(z) == u.label_set(np.clip(y, 0, None))


def test_uepp_json_roundtrip():
    u = random_uepp(2, 3, seed=8)
    u2 = UEPP.from_json(u.to_json())
    assert np.array_equal(u.A, u2.A) and np.array_equal(u.b, u2.b)
