import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from partlearn import bimatrix, coverage
from partlearn.bimatrix import voronoi_label_masks
from partlearn.coverage import SimplexSlab, lattice_count, simplex_lattice, verify_eps_net
from partlearn.geometry import PointHull, VPolytope, convex_hull, corner_simplex_vertices
from partlearn.labelling import (
    CONFLICT_MARGIN, EmpiricalLabelling, SlabRecord, interior_conflict, is_eps_close,
    voronoi_labels,
)
from partlearn.partition import make_oracle, random_uepp, uepp_cells
from partlearn.predicates import ETA


def grid_labelling(m, n, eps, label=1):
    """Labelling holding every lattice point of mesh eps/2 under one label."""
    lab = EmpiricalLabelling(m, n)
    spacing = eps / (2 * m * math.sqrt(2))
    lab.add_block(simplex_lattice(m, spacing), label)
    return lab


# -- bookkeeping -----------------------------------------------------------------

def test_add_query_segment_hull():
    lab = EmpiricalLabelling(2, 2)
    lab.add_query([0.1, 0.1], 1)
    lab.add_query([0.4, 0.2], 1)
    hull = lab.hull(1)
    assert len(hull) == 2


def test_add_duplicate_point_keeps_hull():
    lab = EmpiricalLabelling(2, 2)
    lab.add_query([0.1, 0.1], 1)
    before = lab.hull(1).vertices.copy()
    lab.add_query([0.1, 0.1], 1)
    assert np.array_equal(lab.hull(1).vertices, before)


def test_add_query_validates():
    lab = EmpiricalLabelling(2, 2)
    with pytest.raises(ValueError):
        lab.add_query([0.1, 0.1], 5)
    with pytest.raises(ValueError):
        lab.add_query([0.9, 0.9], 1)


def test_add_block_validates_like_add_query():
    lab = EmpiricalLabelling(2, 2)
    for bad in ([[np.nan, 0.1]], [[0.1, 0.1], [np.inf, 0.0]], [[0.6, 0.6]], [[-1e-6, 0.5]]):
        with pytest.raises(ValueError):
            lab.add_block(np.array(bad), 1)
    # the same 1e-7 band as add_query
    lab.add_block(np.array([[-5e-8, 0.5], [0.5, 0.5 + 5e-8]]), 1)
    lab.add_query([0.5, 0.5 + 5e-8], 2)
    assert len(lab.points_of(1)) == 2 and len(lab.points_of(2)) == 1


def test_from_json_rejects_bad_points_and_merges():
    good = {"m": 2, "n": 2, "points": {"1": [[0.1, 0.1]], "2": [[0.5, 0.2]]}, "merges": []}
    EmpiricalLabelling.from_json(json.dumps(good))
    with pytest.raises(ValueError):
        EmpiricalLabelling.from_json(json.dumps({**good, "points": {"1": [[float("nan"), 0.1]]}}))
    with pytest.raises(ValueError):
        EmpiricalLabelling.from_json(json.dumps({**good, "merges": [[1, 7]]}))
    lab = EmpiricalLabelling(2, 2)
    for i, j in ((0, 1), (1, 3)):
        with pytest.raises(ValueError):
            lab.merge_labels(i, j)


def test_one_hull_build_per_class_per_change(monkeypatch):
    builds = []
    init = PointHull.__init__

    def counting(self, points):
        builds.append(1)
        init(self, points)

    monkeypatch.setattr(PointHull, "__init__", counting)
    o = make_oracle(random_uepp(2, 3, seed=3), record=False)
    lab = EmpiricalLabelling(2, 3)
    rng = np.random.default_rng(5)
    for x in rng.dirichlet(np.ones(3), size=60)[:, :2]:
        lab.add_query(x, o(x))
    assert all(len(lab.points_of(r)) for r in lab.class_roots())

    def builds_for(change):
        change()
        builds.clear()
        for r in lab.class_roots():
            lab.hull(r)
            lab.point_hull(r)
        interior_conflict(lab)
        is_eps_close(lab, None, 0.3)
        n = len(builds)
        for r in lab.class_roots():
            assert np.array_equal(lab.hull(r).vertices, convex_hull(lab.points_of(r)).vertices)
        return n

    assert builds_for(lambda: None) == 3
    assert builds_for(lambda: None) == 0                # all cached
    assert builds_for(lambda: lab.add_query([0.2, 0.3], o([0.2, 0.3]))) == 1
    assert builds_for(lambda: lab.merge_labels(1, 3)) == 2


def test_hulls_stay_inside_true_cells():
    u = random_uepp(2, 3, seed=3)
    gt = uepp_cells(u)
    o = make_oracle(u)
    lab = EmpiricalLabelling(2, 3)
    rng = np.random.default_rng(0)
    for _ in range(120):
        y = rng.dirichlet(np.ones(3))[:2]
        lab.add_query(y, o(y))
    cells = dict(gt.cells)
    for root in lab.class_roots():
        hull = lab.hull(root)
        if hull.is_empty:
            continue
        W = rng.dirichlet(np.ones(len(hull)), size=100) @ hull.vertices
        assert (PointHull(cells[root].vertices).distances(W) <= 1e-6).all()


def test_labelling_json_roundtrip():
    lab = EmpiricalLabelling(2, 3)
    lab.add_query([0.1, 0.2], 2)
    lab.add_query([0.3, 0.3], 3)
    lab.merge_labels(2, 3)
    lab2 = EmpiricalLabelling.from_json(lab.to_json())
    assert lab2.find(3) == 2
    assert lab2.points_of(2).shape == (2, 2)


# -- eps-closeness ------------------------------------------------------------------

def test_grid_labelling_is_close():
    lab = grid_labelling(2, 3, eps=0.2)
    assert is_eps_close(lab, None, 0.2).is_close


def test_report_counts_the_cells_it_refined():
    rep = is_eps_close(grid_labelling(2, 3, eps=0.2), None, 0.2)
    assert rep.is_close and rep.cells_touched > 0
    assert json.loads(rep.to_json())["cells_touched"] == rep.cells_touched
    assert verify_eps_net(SimplexSlab(2, 0.8, 0.2), [], 0.1).cells_touched == 0


@pytest.mark.parametrize("slabs, gaps", [
    (((0.0, 0.5), (0.5, 1.0)), []),
    ((), [(0.0, 1.0)]),
    (((0.25, 0.5), (0.625, 0.75)), [(0.0, 0.25), (0.5, 0.625), (0.75, 1.0)]),
    (((0.0, 0.25), (0.25, 0.375), (0.5, 1.0)), [(0.375, 0.5)]),
])
def test_slab_record_gaps_are_what_its_slabs_leave_of_the_unit_interval(slabs, gaps):
    assert SlabRecord(0.1, slabs).gaps() == gaps


def test_empty_labelling_not_close_with_witness():
    lab = EmpiricalLabelling(2, 3)
    rep = is_eps_close(lab, None, 0.1)
    assert not rep.is_close and rep.witness is not None


def test_closeness_monotone_under_adding():
    lab = grid_labelling(2, 2, eps=0.25)
    assert is_eps_close(lab, None, 0.25).is_close
    lab.add_query([0.3, 0.3], 2)
    assert is_eps_close(lab, None, 0.25).is_close


def test_region_argument_rejects_vpolytope_before_any_work(monkeypatch):
    def no_work(*_args, **_kw):
        raise AssertionError("the refinement ran")
    monkeypatch.setattr(coverage, "_branch_and_bound", no_work)
    lab = EmpiricalLabelling(2, 1)
    lab.add_block(corner_simplex_vertices(2), 1)
    region = VPolytope(np.array([[0.0, 0.0], [0.3, 0.0], [0.0, 0.3]]))
    with pytest.raises(TypeError, match="region must be a SimplexSlab"):
        is_eps_close(lab, region, 0.05)


def test_empty_region_trivially_close():
    lab = EmpiricalLabelling(2, 1)
    rep = verify_eps_net(SimplexSlab(2, 0.8, 0.2), [], 0.1)
    assert rep.is_close


@pytest.mark.parametrize("d", range(6))
@pytest.mark.parametrize("K", [1, 2, 5])
def test_simplex_lattice_matches_product_reference(d, K):
    # lex-ordered product of 0..K per coordinate, kept where the sum <= K
    spacing = 1 / K
    rows = [c for c in itertools.product(range(K + 1), repeat=d) if sum(c) <= K]
    want = np.array(rows, dtype=float).reshape(len(rows), d) * spacing
    got = simplex_lattice(d, spacing)
    assert got.shape == want.shape == (lattice_count(d, spacing), d)
    np.testing.assert_array_equal(got, want)


# -- slab coverage from two sections ---------------------------------------------------

def test_slice_covered_by_common_label():
    lab = EmpiricalLabelling(2, 2)
    for x in (0.2, 0.4):
        width = 1 - x
        ys = np.linspace(0.0, width, 40)
        lab.add_block(np.column_stack([np.full_like(ys, x), ys]), 1)
    assert is_eps_close(lab, SimplexSlab(2, 0.2, 0.4), 0.12).is_close


def test_slice_uncovered_with_gap():
    lab = EmpiricalLabelling(2, 2)
    lab.add_query([0.2, 0.0], 1)
    lab.add_query([0.4, 0.0], 2)
    assert not is_eps_close(lab, SimplexSlab(2, 0.2, 0.4), 0.1).is_close


def test_crux_instance_covered():
    # beta-close endpoint labellings over a critical-free interval cover the
    # slab at eps (the pairing the search relies on)
    eps = 0.3
    m, n = 2, 3
    beta = eps * eps / (85.0 * n * m ** 2.5)
    u = random_uepp(2, 3, seed=12)
    from partlearn.partition import critical_coordinates
    crit = critical_coordinates(u, alpha=eps / (20 * n * m ** 2.5))
    gaps = [(a, b) for a, b in zip(crit[:-1], crit[1:]) if b - a > 0.05 and b <= 1 - eps / 3]
    if not gaps:
        pytest.skip("instance lacks a wide critical-free interval")
    a, b = max(gaps, key=lambda g: g[1] - g[0])
    x, y = a + 0.25 * (b - a), a + 0.75 * (b - a)
    o = make_oracle(u)
    lab = EmpiricalLabelling(2, 3)
    for t in (x, y):
        width = 1 - t
        k = max(2, int(np.ceil(width / max(beta, 1e-4))))
        ys = np.linspace(0.0, width, k + 1)
        for yy in ys:
            pt = np.array([t, yy])
            lab.add_query(pt, o(pt))
    assert is_eps_close(lab, SimplexSlab(2, x, y), eps).is_close


def random_labelling(m, n, rng):
    """Labelling whose classes are full-dimensional, flat (one shared first
    coordinate) or single points; about a third of the draws leave one label
    empty, and up to two random merges follow."""
    lab = EmpiricalLabelling(m, n)
    empty = int(rng.integers(1, n + 1)) if rng.random() < 0.35 else None
    for label in range(1, n + 1):
        if label == empty:
            continue
        shape = rng.integers(3)
        count = 1 if shape == 2 else int(rng.integers(m + 1, m + 6))
        pts = rng.dirichlet(np.ones(m + 1), size=count)[:, :m]
        if shape == 1:
            t = rng.uniform(0.0, 0.9)
            pts = np.hstack([np.full((count, 1), t),
                             (1 - t) * rng.dirichlet(np.ones(m), size=count)[:, :m - 1]])
        lab.add_block(pts, label)
    for _ in range(rng.integers(0, 3)):
        i, j = rng.choice(n, size=2, replace=False) + 1
        lab.merge_labels(int(i), int(j))
    return lab


def class_bits(lab, roots):
    """Bit (label - 1) of every raw label in the given classes."""
    return sum(1 << (l - 1) for l in range(1, lab.n + 1) if lab.find(l) in roots)


labellings = st.tuples(st.integers(1, 3), st.integers(2, 4), st.integers(0, 2 ** 32 - 1))


# -- voronoi ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(labellings, st.sampled_from([0.02, 0.1, 0.3]))
def test_voronoi_label_masks_match_scalar_reference(drawn, sigma):
    m, n, seed = drawn
    rng = np.random.default_rng(seed)
    lab = random_labelling(m, n, rng)
    pts = rng.dirichlet(np.ones(m + 1), size=40)[:, :m]
    masks = voronoi_label_masks(lab, pts, sigma)
    roots = [r for r in lab.class_roots() if not lab.hull(r).is_empty]
    for x, mask in zip(pts, masks):
        d = np.array([PointHull(lab.hull(r).vertices).distances(x)[0] for r in roots])
        if np.any(np.abs(d - (d.min() + sigma + ETA)) <= 1e-9):
            continue    # on the band edge rounding decides
        assert mask == class_bits(lab, voronoi_labels(x, lab, slack=sigma))

@settings(max_examples=40, deadline=None)
@given(labellings, st.sampled_from([1, 7, 32]))
def test_voronoi_label_masks_in_row_blocks_match_scalar_reference(drawn, block):
    # lattice points (vertices and shared edges of the labelled cells) and
    # random points, masked in blocks that leave a partial last block
    m, n, seed = drawn
    rng = np.random.default_rng(seed)
    lab = random_labelling(m, n, rng)
    pts = np.vstack([simplex_lattice(m, 1 / 3), rng.dirichlet(np.ones(m + 1), size=30)[:, :m]])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bimatrix, "VORONOI_BLOCK", block)
        masks = voronoi_label_masks(lab, pts, 0.1)
    roots = [r for r in lab.class_roots() if not lab.hull(r).is_empty]
    checked = 0
    for x, mask in zip(pts, masks):
        d = np.array([PointHull(lab.hull(r).vertices).distances(x)[0] for r in roots])
        if np.any(np.abs(d - (d.min() + 0.1 + ETA)) <= 1e-9):
            continue    # on the band edge rounding decides
        assert mask == class_bits(lab, voronoi_labels(x, lab, slack=0.1))
        checked += 1
    assert checked >= len(pts) // 2


def test_voronoi_inside_hull():
    lab = EmpiricalLabelling(2, 3)
    lab.add_block(np.array([[0.1, 0.1], [0.5, 0.1], [0.1, 0.5]]), 2)
    lab.add_query([0.9, 0.05], 1)
    assert voronoi_labels([0.2, 0.2], lab) == {2}


def test_voronoi_tie_between_point_hulls():
    lab = EmpiricalLabelling(1, 2)
    lab.add_query([0.0], 1)
    lab.add_query([1.0], 2)
    assert voronoi_labels([0.5], lab) == {1, 2}


def test_voronoi_requires_some_hull():
    lab = EmpiricalLabelling(2, 2)
    with pytest.raises(ValueError):
        voronoi_labels([0.2, 0.2], lab)


def test_voronoi_total_over_simplex():
    u = random_uepp(2, 3, seed=9)
    o = make_oracle(u)
    lab = EmpiricalLabelling(2, 3)
    rng = np.random.default_rng(3)
    for _ in range(60):
        y = rng.dirichlet(np.ones(3))[:2]
        lab.add_query(y, o(y))
    for _ in range(500):
        y = rng.dirichlet(np.ones(3))[:2]
        assert voronoi_labels(y, lab)


# -- merging and conflicts ----------------------------------------------------------------

def test_merge_spans_segments():
    lab = EmpiricalLabelling(1, 2)
    lab.add_block(np.array([[0.0], [0.2]]), 1)
    lab.add_block(np.array([[0.7], [1.0]]), 2)
    lab.merge_labels(1, 2)
    hull = lab.hull(1)
    assert sorted(hull.vertices.ravel()) == [0.0, 1.0]


def test_merge_idempotent_commutative():
    lab = EmpiricalLabelling(1, 3)
    lab.add_query([0.1], 1)
    lab.add_query([0.9], 2)
    lab.merge_labels(1, 2)
    lab.merge_labels(2, 1)     # no-op
    assert lab.find(2) == 1
    with pytest.raises(ValueError):
        lab.merge_labels(1, 1)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 7), st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), max_size=8))
def test_class_members_match_a_walk_over_the_union_find(n, merges):
    lab = EmpiricalLabelling(1, n)
    for lbl in range(1, n + 1):
        lab.add_query([lbl / (n + 1)], lbl)
    for i, j in merges:
        if i <= n and j <= n and i != j:
            lab.merge_labels(i, j)
    for current in (lab, EmpiricalLabelling.from_json(lab.to_json())):
        groups = {}
        for lbl in range(1, n + 1):
            groups.setdefault(current.find(lbl), []).append(lbl)
        assert current.merge_classes() == [groups[r] for r in sorted(groups)]
        assert current.class_roots() == sorted(groups)
        for lbl in range(1, n + 1):
            want = sorted(l / (n + 1) for l in groups[current.find(lbl)])
            assert sorted(current.points_of(lbl).ravel()) == want


def test_interior_conflict_none_for_disjoint():
    lab = EmpiricalLabelling(2, 2)
    lab.add_block(np.array([[0.0, 0.0], [0.2, 0.0], [0.0, 0.2]]), 1)
    lab.add_block(np.array([[0.6, 0.0], [0.8, 0.0], [0.6, 0.2]]), 2)
    assert interior_conflict(lab) is None


def test_interior_conflict_point_inside():
    lab = EmpiricalLabelling(2, 2)
    lab.add_block(np.array([[0.0, 0.0], [0.8, 0.0], [0.0, 0.8]]), 1)
    lab.add_query([0.2, 0.2], 2)
    got = interior_conflict(lab)
    assert got is not None
    i, j, z = got
    assert (i, j) == (1, 2)
    assert np.allclose(z, [0.2, 0.2])


def test_conflict_cleared_by_merge():
    lab = EmpiricalLabelling(2, 2)
    lab.add_block(np.array([[0.0, 0.0], [0.8, 0.0], [0.0, 0.8]]), 1)
    lab.add_query([0.2, 0.2], 2)
    i, j, _ = interior_conflict(lab)
    lab.merge_labels(i, j)
    assert interior_conflict(lab) is None


def reference_interior_conflict(l, tol=CONFLICT_MARGIN):
    """interior_conflict with each facet form taken from a fresh Qhull of
    the class's hull vertices (in 1-D, from the hull's two endpoints)."""
    roots = l.class_roots()
    forms = {}
    for i in roots:
        hull = l.hull(i)
        if hull.affine_dim() < l.m or l.m == 0:
            continue
        if l.m == 1:
            v = hull.vertices[:, 0]
            forms[i] = (np.array([[1.0], [-1.0]]), np.array([v.max(), -v.min()]))
            continue
        try:
            eq = ConvexHull(hull.vertices).equations
        except (QhullError, ValueError):
            continue
        forms[i] = (eq[:, :-1], -eq[:, -1])
    for i, (A, b) in forms.items():
        for j in roots:
            vj = l.hull(j).vertices
            if j == i or not len(vj):
                continue
            cand = vj
            if 1 < len(vj) <= 40:
                ii, jj = np.triu_indices(len(vj), k=1)
                cand = np.vstack([vj, 0.5 * (vj[ii] + vj[jj])])
            inside = (cand @ A.T - b).max(axis=1) <= -tol
            if inside.any():
                return i, j, cand[int(np.argmax(inside))]
    return None


@settings(max_examples=150, deadline=None)
@given(labellings)
def test_interior_conflict_matches_fresh_qhull_facets(drawn):
    m, n, seed = drawn
    lab = random_labelling(m, n, np.random.default_rng(seed))
    got, want = interior_conflict(lab), reference_interior_conflict(lab)
    if want is None:
        assert got is None
    else:
        assert got is not None and got[:2] == want[:2] and np.array_equal(got[2], want[2])


# -- thickness-to-distance ------------------------------------------------------------------

def test_thin_complement_implies_close():
    # if the unlabelled region is thinner than eps, the labelling is
    # (4 m eps)-close
    m, eps = 2, 0.05
    lab = EmpiricalLabelling(m, 2)
    band = 0.04    # vertical gap between the two hulls tiles to a thin band
    cut = 0.5 - band
    lab.add_block(np.array([[0.0, 0.0], [cut, 0.0], [cut, 1 - cut], [0.0, 1.0]]), 1)
    lab.add_block(np.array([[0.5, 0.0], [1.0, 0.0], [0.5, 0.5]]), 2)
    # grid-estimate the complement thickness
    from partlearn.geometry import grid_thickness
    hulls = [PointHull(lab.hull(r).vertices) for r in lab.class_roots()]

    def unlabeled(pts):
        in_simplex = (pts >= -1e-12).all(axis=1) & (pts.sum(axis=1) <= 1 + 1e-12)
        dmin = np.minimum(hulls[0].distances(pts), hulls[1].distances(pts))
        return in_simplex & (dmin > 1e-9)

    tau, spacing = grid_thickness(unlabeled, np.zeros(2), np.ones(2), 0.01)
    assert tau <= eps
    assert is_eps_close(lab, None, 4 * m * eps).is_close
