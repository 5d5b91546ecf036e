import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from partlearn.coverage import SimplexSlab, verify_eps_net
from partlearn.geometry import (
    HPolytope, VPolytope, chebyshev, convex_hull, corner_simplex_hpolytope,
    corner_simplex_vertices, cross_section, diameter, enumerate_k_faces, gamma_interior,
    section_lift, slice_polytope,
)
from partlearn.geometry.hull import PointHull
from partlearn.geometry.polytope import all_faces
from partlearn.predicates import ETA


def _weight_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weight_compositions(total - first, parts - 1):
            yield (first,) + rest


def barycentric_grid(vertices, k):
    """Brute-force grid over the hull of `vertices` (independent oracle)."""
    v = len(vertices)
    weights = np.array(list(_weight_compositions(k, v)), dtype=float) / k
    return weights @ vertices


# -- chebyshev ---------------------------------------------------------------

def test_chebyshev_corner_2simplex_matches_inradius():
    # independent oracle: inradius of the right triangle = area / semiperimeter
    area, semi = 0.5, (1.0 + 1.0 + math.sqrt(2.0)) / 2.0
    inradius = area / semi
    assert abs(inradius - 0.2928932188134524) < 1e-15
    r, center = chebyshev(corner_simplex_hpolytope(2))
    assert r == pytest.approx(inradius, abs=1e-9)
    assert center == pytest.approx([inradius, inradius], abs=1e-7)


@pytest.mark.parametrize("m", range(1, 7))
def test_chebyshev_simplex_lower_bound(m):
    r, _ = chebyshev(corner_simplex_hpolytope(m))
    assert r >= 1.0 / (m + math.sqrt(m)) - 1e-6


def test_chebyshev_lower_dimensional_set_is_flat():
    seg = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([0.3, -0.3]))
    r, _ = chebyshev(seg)
    assert r == pytest.approx(0.0, abs=1e-9)


def test_chebyshev_unbounded_region_errors():
    h = HPolytope(np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="unbounded"):
        chebyshev(h)


@pytest.mark.parametrize("seed", range(5))
def test_chebyshev_matches_grid_oracle(seed):
    # random bounded H-polytope: simplex rows plus random cuts
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 4))
    base = corner_simplex_hpolytope(m)
    extra = rng.normal(size=(3, m))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    offs = rng.uniform(-0.6, 0.05, size=3)
    h = HPolytope(np.vstack([base.normals, extra]), np.concatenate([base.offsets, offs]))
    r, _ = chebyshev(h)
    # dense-grid max-min-residual oracle
    spacing = 0.02
    axes = [np.arange(0.0, 1.0 + spacing, spacing)] * m
    grid = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(m, -1).T
    resid = h.residuals(grid)
    grid_r = max(resid.min(axis=1).max(), 0.0)
    assert abs(r - grid_r) <= 2 * spacing


# -- diameter ----------------------------------------------------------------

@pytest.mark.parametrize("m", range(2, 7))
def test_diameter_simplex(m):
    assert diameter(VPolytope(corner_simplex_vertices(m))) == pytest.approx(math.sqrt(2), abs=1e-9)


def test_diameter_degenerate_cases():
    assert diameter(VPolytope(np.array([[0.3, 0.4]]))) == 0.0
    assert diameter(VPolytope(np.array([[0.0, 0.0], [1.0, 0.0]]))) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        diameter(VPolytope(np.zeros((0, 2))))


# -- distance to hull ----------------------------------------------------------

def test_distance_projection_onto_facet():
    d = PointHull(corner_simplex_vertices(2)).distances(np.array([1.0, 1.0]))
    assert d == pytest.approx([math.sqrt(2) / 2], abs=1e-9)


def test_distance_zero_inside():
    assert PointHull(corner_simplex_vertices(3)).distances(np.array([0.2, 0.2, 0.2]))[0] <= 1e-9


def test_distance_empty_hull():
    assert PointHull(np.zeros((0, 2))).distances(np.array([0.0, 0.0]))[0] == np.inf


@pytest.mark.parametrize("seed", range(4))
def test_distance_matches_barycentric_oracle(seed):
    rng = np.random.default_rng(seed)
    verts = rng.random((int(rng.integers(4, 7)), 3))
    p = VPolytope(verts)
    x = rng.random(3) * 1.5
    d = PointHull(verts).distances(x)[0]
    k = 24
    grid = barycentric_grid(verts, k)
    oracle = np.linalg.norm(grid - x, axis=1).min()
    resolution = diameter(p) * len(verts) / k
    assert d <= oracle + 1e-9
    assert oracle - d <= resolution


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_distance_is_one_lipschitz_in_point(seed):
    rng = np.random.default_rng(seed)
    h = PointHull(rng.random((5, 2)))
    x, y = rng.random(2) * 2 - 0.5, rng.random(2) * 2 - 0.5
    dx, dy = h.distances(np.array([x, y]))
    assert abs(dx - dy) <= np.linalg.norm(x - y) + 1e-7


# -- PointHull kernels against brute force -------------------------------------

SHAPES = ["general", "flat", "flat2", "section", "coplanar", "collinear", "single", "grid"]


@st.composite
def hull_cases(draw):
    """(points, queries) for a hull of dimension m = 0..4 and a given shape."""
    m = draw(st.integers(0, 4))
    shape = draw(st.sampled_from(SHAPES))
    n = draw(st.integers(1, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "single":
        P = rng.random((1, m))
    elif shape == "grid":                  # repeated and coplanar lattice points
        P = rng.integers(0, 3, size=(n, m)) / 2.0
    elif shape in ("coplanar", "collinear"):
        dirs = rng.standard_normal((2 if shape == "coplanar" else 1, m))
        P = rng.random(m) + rng.random((n, len(dirs))) @ dirs
    elif shape == "section":               # a cross-section net on a tilted face
        dirs = rng.standard_normal((rng.integers(1, 3), m))
        P = rng.random(m) + rng.random((n, len(dirs))) @ dirs
        if m:
            P[:, rng.integers(m)] = rng.random()
    else:
        P = rng.random((n, m))
        if shape == "flat" and m:
            P[:, rng.integers(m)] = rng.random()
        elif shape == "flat2":             # flat on two coordinate axes
            axes = rng.choice(m, min(m, 2), replace=False)
            P[:, axes] = rng.random(axes.size)
    far = rng.random((40, m)) * 2.0 - 0.5
    inside = rng.dirichlet(np.ones(len(P)), size=10) @ P
    return P, far, inside


def _enumerated_distances(P, X):
    """Distances from the rows of X to conv(P), by enumerating vertex
    subsets: each subset's affine-hull projection counts where its
    barycentric coordinates are >= 0 (an independent exact reference).

    A feasible projection is a convex combination of the subset, so it
    never under-reports; the affinely independent subsets include the one
    whose relative interior holds the nearest point.  Two steps of
    iterative refinement keep ill-conditioned subsets accurate.
    """
    n, m = P.shape
    best = np.sqrt(((X[:, None, :] - P[None]) ** 2).sum(axis=2)).min(axis=1)
    for s in range(2, min(n, m + 1) + 1):
        idx = np.array(list(itertools.combinations(range(n), s)))
        v0 = P[idx[:, 0]]
        E = P[idx[:, 1:]] - v0[:, None, :]
        G_inv = np.linalg.pinv(E @ E.transpose(0, 2, 1))
        lam = np.zeros((len(X), len(idx), s - 1))
        for _ in range(3):
            resid = X[:, None, :] - v0[None] - np.einsum("xcj,cjk->xck", lam, E)
            lam = lam + np.einsum("cij,cjk,xck->xci", G_inv, E, resid)
        feasible = (lam >= 0).all(axis=2) & (lam.sum(axis=2) <= 1)
        d = np.linalg.norm(X[:, None, :] - v0[None] - np.einsum("xcj,cjk->xck", lam, E), axis=2)
        best = np.minimum(best, np.where(feasible, d, np.inf).min(axis=1))
    return best


def _all_surface_distances(h, X):
    """Distances with every outside point measured against *all* boundary
    facets, each by the vertex-subset enumeration (the scan the
    visible-facet rule replaced); inside points of a flat set are at their
    distance to its span."""
    d = np.min([_enumerated_distances(h.points[f], X) for f in h._simplices], axis=0)
    outside = h.facet_offsets(X).max(axis=1) > ETA
    return np.where(outside, d, h._off_span(X))


@settings(max_examples=400, deadline=None)
@given(hull_cases())
def test_point_hull_kernels_match_brute_force(case):
    P, far, inside = case
    h = PointHull(P)
    X = np.vstack([far, inside, P])
    # nearest sample: KD-tree against the N x P scan
    U = h.samples
    brute = np.sqrt(((X[:, None, :] - U[None]) ** 2).sum(axis=2).min(axis=1))
    ub = h.upper_bounds(X)
    assert np.array_equal(ub, brute)
    d = h.distances(X)
    lb = h.lower_bounds(X)
    assert (lb <= d + 1e-12).all()
    assert (d <= ub + 1e-12).all()
    # the shared-offset form is the same computation
    off = h.facet_offsets(X)
    assert np.array_equal(h.lower_bounds(X, offsets=off), lb)
    assert np.array_equal(h.distances(X, offsets=off), d)
    # every hull is exact: the enumeration of vertex subsets agrees, hull
    # points are at 0, and the visible facets give the all-simplex minimum
    np.testing.assert_allclose(d, _enumerated_distances(P, X), rtol=0, atol=1e-12)
    assert (d[len(far):] <= 1e-12).all()
    if h._facets is not None:
        np.testing.assert_allclose(d, _all_surface_distances(h, X), rtol=0, atol=1e-12)


def test_frank_wolfe_never_exceeds_the_nearest_sample_on_a_thin_tilted_set():
    # the first falsifying case of the kernel test at --hypothesis-seed 10:
    # 14 coplanar points tilted in R^3 (singular values ~3.5, ~0.49 and
    # ~7e-16); the affine reduction gives it a facet form in its own plane
    rng = np.random.default_rng(23031769)
    dirs = rng.standard_normal((2, 3))
    P = rng.random(3) + rng.random((14, 2)) @ dirs
    X = np.vstack([rng.random((40, 3)) * 2.0 - 0.5,
                   rng.dirichlet(np.ones(14), size=10) @ P, P])
    h = PointHull(P)
    assert h._facets is not None and h._tilt is not None and h.k == 2
    d, ub = h.distances(X), h.upper_bounds(X)
    assert (d <= ub).all()
    assert (h.lower_bounds(X) <= d + 1e-12).all()
    # an exact reference: the hull of the points' 2-D coordinates in their
    # own plane, plus the distance of X to that plane
    c = P.mean(axis=0)
    basis = np.linalg.svd(P - c)[2][:2]
    flat = PointHull((P - c) @ basis.T)
    assert flat._facets is not None
    Y = (X - c) @ basis.T
    off = np.linalg.norm((X - c) - Y @ basis, axis=1)
    exact = np.sqrt(flat.distances(Y) ** 2 + off ** 2)
    assert (np.abs(d - exact) <= 1e-12).all()


@st.composite
def tilted_cases(draw):
    """(points, queries) in R^4 or R^5: full-dimensional, or tilted coplanar
    or collinear sets."""
    m = draw(st.integers(4, 5))
    shape = draw(st.sampled_from(["general", "coplanar", "collinear"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "general":
        P = rng.random((draw(st.integers(m + 1, 12 if m == 4 else 10)), m))
    else:
        dirs = rng.standard_normal((2 if shape == "coplanar" else 1, m))
        P = rng.random(m) + rng.random((draw(st.integers(len(dirs) + 1, 12)), len(dirs))) @ dirs
    X = np.vstack([rng.random((30, m)) * 2.0 - 0.5,
                   rng.dirichlet(np.ones(len(P)), size=8) @ P, P])
    return P, X, {"general": m, "coplanar": 2, "collinear": 1}[shape]


@settings(max_examples=100, deadline=None)
@given(tilted_cases())
def test_point_hull_distances_match_face_enumeration(case):
    P, X, k = case
    h = PointHull(P)
    assert h.k == k and h._facets is not None
    d = h.distances(X)
    np.testing.assert_allclose(d, _enumerated_distances(P, X), rtol=0, atol=1e-12)
    np.testing.assert_allclose(d, _all_surface_distances(h, X), rtol=0, atol=1e-12)
    # one row at a time: blocks whose points all settle on a facet
    single = np.concatenate([h.distances(x[None, :]) for x in X])
    np.testing.assert_allclose(single, d, rtol=0, atol=1e-12)


# -- the coverage verifier's "not close" path ----------------------------------

def _simplex_part(m, lo, hi):
    """Vertices of the part of the corner m-simplex with first coordinate
    in [lo, hi]: the two sections' vertices."""
    out = []
    for c in (lo, hi):
        out.append(np.eye(m)[0] * c)
        out.extend(np.eye(m)[0] * c + np.eye(m)[i] * (1.0 - c) for i in range(1, m))
    return np.array(out)


@pytest.mark.parametrize("m, gap, eps, slab", [
    (2, (0.3, 0.7), 0.1, (0.25, 0.75)),
    (2, (0.45, 0.7), 0.1, (0.0, 1.0)),
    (3, (0.3, 0.6), 0.1, (0.3, 0.6)),
    (3, (0.2, 0.5), 0.05, (0.0, 1.0)),
])
def test_verifier_reports_a_gap_between_two_hulls_from_its_boxes(m, gap, eps, slab):
    # two class hulls with a gap of width > 2 eps between them: the seam
    # case, settled by the refinement
    a, b = gap
    parts = [_simplex_part(m, 0.0, a), _simplex_part(m, b, 1.0)]
    rep = verify_eps_net(SimplexSlab(m, *slab), [PointHull(P) for P in parts], eps)
    assert not rep.is_close and rep.cells_touched > 0
    w = rep.witness
    assert (w >= -ETA).all() and w.sum() <= 1.0 + ETA
    assert slab[0] - ETA <= w[0] <= slab[1] + ETA
    assert rep.witness_distance > eps / 2
    want = min(_enumerated_distances(P, w[None, :])[0] for P in parts)
    assert abs(rep.witness_distance - want) <= 1e-12


# -- convex hull ---------------------------------------------------------------

def test_hull_removes_collinear_point():
    hull = convex_hull(np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 0.0]]))
    got = {tuple(v) for v in hull.vertices}
    assert got == {(0.0, 0.0), (1.0, 0.0)}


def test_hull_removes_centroid():
    pts = np.vstack([corner_simplex_vertices(2), [[1 / 3, 1 / 3]]])
    hull = convex_hull(pts)
    assert len(hull) == 3


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10_000))
def test_hull_idempotent_and_order_invariant(seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((12, 2))
    h1 = convex_hull(pts)
    h2 = convex_hull(h1.vertices)
    assert sorted(map(tuple, h1.vertices)) == sorted(map(tuple, h2.vertices))
    perm = rng.permutation(len(pts))
    h3 = convex_hull(pts[perm])
    assert sorted(map(tuple, h1.vertices)) == sorted(map(tuple, h3.vertices))


def _linprog_vertices(P):
    """Distinct points of P that are no convex combination of the others
    within ETA (per coordinate), by scipy's LP."""
    P = np.unique(P, axis=0)
    keep = []
    for i in range(len(P)):
        others = np.delete(P, i, axis=0)
        if not len(others):
            keep.append(i)
            continue
        res = linprog(np.zeros(len(others)),
                      A_ub=np.vstack([others.T, -others.T]),
                      b_ub=np.concatenate([P[i] + ETA, ETA - P[i]]),
                      A_eq=np.ones((1, len(others))), b_eq=[1.0], bounds=(0, None),
                      method="highs")
        assert res.status in (0, 2)
        if res.status == 2:         # infeasible: a vertex
            keep.append(i)
    return P[keep]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5), st.sampled_from(["grid", "tilted", "duplicate"]),
       st.integers(1, 13), st.integers(0, 2**32 - 1))
def test_hull_vertices_match_linprog_reference(m, shape, n, seed):
    # dyadic coordinates are exact, so every point is either a vertex by far
    # more than ETA or in the hull of the others to rounding
    rng = np.random.default_rng(seed)
    if shape == "grid":                 # repeated, collinear and coplanar points
        P = rng.integers(0, 3, size=(n, m)) / 2.0
    elif shape == "tilted":             # a tilted line or plane
        k = int(rng.integers(1, 3))
        dirs = rng.integers(-4, 5, size=(k, m)) / 8.0
        P = rng.integers(0, 8, size=m) / 8.0 + rng.integers(-3, 4, size=(n, k)) @ dirs
    else:
        P = rng.integers(0, 9, size=(n, m)) / 8.0
        P = np.vstack([P, P[rng.integers(0, n, size=3)]])
    got = convex_hull(P).vertices
    want = _linprog_vertices(P)
    assert len(got) == len(want)
    assert all(np.abs(want - v).max(axis=1).min() <= ETA for v in got)


def test_hull_contains_all_inputs():
    rng = np.random.default_rng(3)
    pts = rng.dirichlet(np.ones(3), size=20)[:, :2]
    assert (PointHull(convex_hull(pts).vertices).distances(pts) <= 1e-7).all()


# -- sections -----------------------------------------------------------------

def test_cross_section_of_triangle():
    p = VPolytope(corner_simplex_vertices(2))
    cs = cross_section(p, 0.5)
    got = sorted(map(tuple, np.round(cs.vertices, 9)))
    assert got == [(0.5, 0.0), (0.5, 0.5)]


def test_cross_section_misses_polytope():
    p = VPolytope(np.array([[0.0, 0.0], [0.2, 0.1]]))
    assert cross_section(p, 0.8).is_empty


def test_slice_rejects_reversed_interval():
    with pytest.raises(ValueError):
        slice_polytope(VPolytope(corner_simplex_vertices(2)), 0.6, 0.4)


@pytest.mark.parametrize("seed", range(6))
def test_perfect_fleshing_sampled(seed):
    # Conv(P^x, P^y) == P^{x,y} when no vertex projects into [x, y]
    rng = np.random.default_rng(seed)
    p = convex_hull(rng.random((7, 3)))
    proj = np.sort(p.vertices[:, 0])
    gaps = np.diff(proj)
    j = int(np.argmax(gaps))
    if gaps[j] < 1e-3:
        pytest.skip("no usable vertex-free interval")
    x = proj[j] + 0.25 * gaps[j]
    y = proj[j] + 0.75 * gaps[j]
    sx, sy = cross_section(p, x), cross_section(p, y)
    combo = convex_hull(np.vstack([sx.vertices, sy.vertices]))
    slab = slice_polytope(p, x, y)
    rng2 = np.random.default_rng(seed + 1)
    for hull_a, hull_b in ((combo, slab), (slab, combo)):
        W = rng2.dirichlet(np.ones(len(hull_a)), size=200) @ hull_a.vertices
        assert (PointHull(hull_b.vertices).distances(W) <= 1e-7).all()


def test_section_lift_domain():
    with pytest.raises(ValueError):
        section_lift(1.0, 2)


# -- faces ---------------------------------------------------------------------

def test_face_count_m4_k1():
    # face-lattice oracle: all 2-subsets of the 5 simplex vertices
    oracle = len(list(itertools.combinations(range(5), 2)))
    assert oracle == 10
    assert len(enumerate_k_faces(4, 1)) == oracle


def test_top_face_is_identity():
    faces = enumerate_k_faces(2, 2)
    assert len(faces) == 1
    face, lift = faces[0]
    pts = np.array([[0.2, 0.3], [0.0, 0.0], [0.5, 0.5]])
    assert lift(pts).tobytes() == pts.tobytes()


@pytest.mark.parametrize("m", range(1, 7))
def test_lifts_match_their_barycentric_definitions(m):
    # a face lift is the barycentric combination of the face's vertices with
    # weights (1 - sum z, z); a section lift is (x, (1 - x) z).  The points:
    # the corner k-simplex's vertices and random points of it
    rng = np.random.default_rng(m)
    for k in range(m + 1):
        Z = np.vstack([corner_simplex_vertices(k), rng.dirichlet(np.ones(k + 1), size=20)[:, :k]])
        W = np.hstack([1.0 - Z.sum(axis=1, keepdims=True), Z])
        for face, lift in enumerate_k_faces(m, k):
            np.testing.assert_allclose(lift(Z), W @ face.vertex_coords(), rtol=0, atol=1e-14)
    Z = rng.dirichlet(np.ones(m), size=20)[:, :m - 1]
    for x in (0.0, 0.3, 0.999):
        want = np.hstack([np.full((len(Z), 1), x), (1.0 - x) * Z])
        assert section_lift(x, m)(Z).tobytes() == want.tobytes()


def test_lifting_a_block_maps_each_row_as_it_maps_the_row_alone():
    # a search stores a block lifted at once and asks its rows one at a time;
    # a face of dimension >= 3 sums three or more terms per coordinate
    rng = np.random.default_rng(0)
    lifts = [(k, lift) for m, k in ((4, 3), (6, 4)) for _f, lift in enumerate_k_faces(m, k)]
    lifts += [(3, section_lift(t, 4)) for t in rng.random(5)]
    for k, lift in lifts:
        Z = rng.dirichlet(np.ones(k + 1), size=50)[:, :k]
        assert all(lift(z).tobytes() == row.tobytes() for z, row in zip(Z, lift(Z)))
    assert section_lift(0.5, 4)(np.zeros((0, 3))).shape == (0, 4)


def test_a_rows_facet_offsets_do_not_depend_on_its_block():
    # the coverage verifier judges a box in blocks of any size; a hull of
    # several hundred facets, and blocks from one row to all of them
    rng = np.random.default_rng(0)
    P = rng.standard_normal((200, 3))
    h = PointHull(P / np.linalg.norm(P, axis=1, keepdims=True))
    assert h._facets[0].shape[0] > 256
    X = rng.standard_normal((300, 3))
    full = h.facet_offsets(X)
    A, b = h._facets
    assert np.abs(full - (X @ A.T - b)).max() <= 1e-12
    for n in (2, 3, 17, 64, 299):
        for s in (0, 1):
            assert h.facet_offsets(X[s:s + n]).tobytes() == full[s:s + n].tobytes()
    assert all(h.facet_offsets(x).tobytes() == row.tobytes() for x, row in zip(X, full))


def test_faces_reject_bad_k():
    with pytest.raises(ValueError):
        enumerate_k_faces(2, 3)
    assert len(list(all_faces(3, 0))) == 4


# -- gamma interior -------------------------------------------------------------

def test_gamma_interior_zero_is_identity():
    h = corner_simplex_hpolytope(2)
    g = gamma_interior(h, boundary_rows=range(h.nrows), gamma=0.0)
    assert np.allclose(g.offsets, h.offsets)


def test_gamma_interior_shrinks_square():
    sq = HPolytope(np.array([[1.0, 0], [-1.0, 0], [0, 1.0], [0, -1.0]]),
                   np.array([0.0, -1.0, 0.0, -1.0]))
    g = gamma_interior(sq, boundary_rows=(), gamma=0.25)
    r, c = chebyshev(g)
    assert r == pytest.approx(0.25, abs=1e-9)
    assert c == pytest.approx([0.5, 0.5], abs=1e-7)


def test_gamma_interior_vertices_on_low_faces():
    # cells of a (3,2)-envelope: non-boundary rows number at most C(2,2)=1,
    # so gamma-interior vertices must lie on edges of the simplex
    from partlearn.partition import cell_hpolytope, random_uepp
    from partlearn.partition import _enumerate_vertices
    u = random_uepp(3, 2, seed=2)
    h, boundary = cell_hpolytope(u, 1)
    g = gamma_interior(h, boundary, gamma=0.05)
    verts = _enumerate_vertices(g.normals, g.offsets, 3)
    assert len(verts)
    edges = [f.vertex_coords() for f in all_faces(3, 1)]
    for v in verts:
        assert any(PointHull(e).distances(v)[0] <= 1e-6 for e in edges)


def test_gamma_interior_trivial_for_square_systems():
    # stated desk-scale case: every point of the 3-simplex lies on a face of
    # dimension <= 3, so the claim is vacuous there; checked for shape only
    from partlearn.partition import cell_hpolytope, random_uepp
    u = random_uepp(3, 3, seed=0)
    h, boundary = cell_hpolytope(u, 1)
    g = gamma_interior(h, boundary, gamma=0.1)
    assert g.nrows == h.nrows
