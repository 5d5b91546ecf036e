"""Convex hulls of point sets and exact l2 distances to them.

Every point set is first reduced to its own affine hull.  Coordinate axes
on which the set spans at most ETA are split off, and a query's squared
distance along them is added to the rest (``axial2``), so cross-section
nets, flat in their section coordinate, keep their plain coordinates.  If
the set is still flat in some direction (every point within ETA of the
centroid along it, found by an SVD of the centred points), Qhull runs on
the set's coordinates in its span and the facet form is lifted back.  So
the set is full-dimensional in its span, of effective dimension k; Qhull's
facets are simplices of the set's own points, with unit normals ``a`` and
offsets ``b``, and the hull lies in every ``a.x <= b``.

A point inside the facet form is at its distance to the span, less the
largest such distance of the set's own points (at most ETA per flat
direction): distances are exact up to ETA along flat directions, and exact
otherwise.  A point x outside the facet form (``a.x - b > ETA`` for some
facet) is measured on the facets that see it (``a.x - b > -ETA``):

* The nearest hull point p lies on such a facet: the residual ``x - p`` is
  in the normal cone at p, so some facet through p has ``a.(x - p) > 0``.
* If x projects into a facet that sees it, that projection is the nearest
  point, because the hull lies in the facet's halfspace (for x in the span,
  x is exactly ``a.x - b`` away).  Each facet's barycentric map is
  computed once per hull.
* Otherwise the nearest point lies on a lower face of a visible facet.  At
  each face, the projection of x onto the face's affine hull is the face's
  nearest point when its barycentric coordinates are >= 0; otherwise the
  face's own faces are searched, down to triangles (Johnson's distance
  sub-algorithm; Gilbert, Johnson & Keerthi, IEEE J. Robotics & Automation
  4(2), 1988).  For k <= 3 the facets are segments or triangles, measured
  directly.

Every face measured lies in the hull, so the minimum never falls below the
true distance, and the face holding the nearest point is always among those
measured; results equal the minimum over all faces up to rounding.

The segment and triangle kernels work row by row on broadcastable arrays:
one form serves a point against a fixed simplex, (point, simplex) pairs,
and all-pairs tables.  The cheap upper bound is the distance to the
nearest sampled hull point, found by a KD-tree over the samples (built once
per hull, on first use).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull as _QHull
from scipy.spatial import cKDTree as _KDTree

from ..predicates import ETA, as_point
from .polytope import VPolytope, empty_polytope

_PAIR_CHUNK = 1 << 16   # (point, simplex) pairs per distance block
_FLAT_GRAM = 1e-12      # faces with det(Gram) <= this * prod(diag) are flat


def _segment_points(X: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Nearest point of segment [A, B] to X, row by row.

    All arguments broadcast against each other over their leading axes; the
    last axis is the coordinate axis.
    """
    D = B - A
    dd = (D * D).sum(axis=-1)
    dd = np.where(dd < 1e-30, 1.0, dd)
    t = np.clip(((X - A) * D).sum(axis=-1) / dd, 0.0, 1.0)
    return np.where((t < 1.0)[..., None], A + t[..., None] * D, B)


def _triangle_points(X: np.ndarray, A: np.ndarray, B: np.ndarray,
                     C: np.ndarray) -> np.ndarray:
    """Nearest point of triangle ABC to X, row by row (any ambient dim).

    Voronoi-region point/triangle classification; arguments broadcast as in
    `_segment_points`.  The region formulas cannot resolve a flat triangle
    (sin^2 of its angle at A at most 1e-12: repeated or collinear vertices up
    to rounding).  Such a triangle lies within 1e-6 of its longest edge's
    length of that edge, so it takes the nearest point of that edge, a point
    of the triangle: the distance is never under-reported.
    """
    ab, ac, bc = B - A, C - A, C - B
    AP, BP, CP = X - A, X - B, X - C
    d1 = (AP * ab).sum(-1)
    d2 = (AP * ac).sum(-1)
    d3 = (BP * ab).sum(-1)
    d4 = (BP * ac).sum(-1)
    d5 = (CP * ab).sum(-1)
    d6 = (CP * ac).sum(-1)
    vc = d1 * d4 - d3 * d2
    vb = d5 * d2 - d1 * d6
    va = d3 * d6 - d5 * d4

    with np.errstate(divide="ignore", invalid="ignore"):
        t_ab = np.clip(d1 / np.where(np.abs(d1 - d3) < 1e-30, 1.0, d1 - d3), 0.0, 1.0)
        t_ac = np.clip(d2 / np.where(np.abs(d2 - d6) < 1e-30, 1.0, d2 - d6), 0.0, 1.0)
        den_bc = (d4 - d3) + (d5 - d6)
        t_bc = np.clip((d4 - d3) / np.where(np.abs(den_bc) < 1e-30, 1.0, den_bc), 0.0, 1.0)
        den = va + vb + vc
        den = np.where(np.abs(den) < 1e-30, 1.0, den)
        v_in = vb / den
        w_in = vc / den

    on_ab = A + t_ab[..., None] * ab
    on_ac = A + t_ac[..., None] * ac
    on_bc = B + t_bc[..., None] * bc
    P = A + v_in[..., None] * ab + w_in[..., None] * ac
    r6 = (va <= 0) & ((d4 - d3) >= 0) & ((d5 - d6) >= 0)
    P = np.where(r6[..., None], on_bc, P)
    r5 = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    P = np.where(r5[..., None], on_ac, P)
    r4 = (d6 >= 0) & (d5 <= d6)
    P = np.where(r4[..., None], C, P)
    r3 = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    P = np.where(r3[..., None], on_ab, P)
    r2 = (d3 >= 0) & (d4 <= d3)
    P = np.where(r2[..., None], B, P)
    r1 = (d1 <= 0) & (d2 <= 0)
    P = np.where(r1[..., None], A, P)
    # a flat triangle lies within its longest edge: project onto that edge
    ab2, ac2 = (ab * ab).sum(-1), (ac * ac).sum(-1)
    flat = ab2 * ac2 - (ab * ac).sum(-1) ** 2 <= 1e-12 * ab2 * ac2
    if flat.any():
        bc2 = (bc * bc).sum(-1)
        edge = np.where(((ab2 >= ac2) & (ab2 >= bc2))[..., None], on_ab,
                        np.where((ac2 >= bc2)[..., None], on_ac, on_bc))
        P = np.where(flat[..., None], edge, P)
    return P


def _simplex_points(X: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Nearest point to X of each segment or triangle S[..., j, :], row by row."""
    if S.shape[-2] == 2:
        return _segment_points(X, S[..., 0, :], S[..., 1, :])
    return _triangle_points(X, S[..., 0, :], S[..., 1, :], S[..., 2, :])


def distance_to_hull(x, p, norm: str = "l2"):
    """Distance from a point to conv(vertices of p) with a witness point.

    Returns (dist, witness); the empty polytope gives (inf, None).
    """
    if isinstance(p, VPolytope):
        V = p.vertices
    else:
        V = np.atleast_2d(np.asarray(p, dtype=float))
    x = as_point(x)
    if V.shape[0] == 0:
        return np.inf, None
    if V.shape[1] != x.size:
        raise ValueError("dimension mismatch")
    if x.size == 0:
        return 0.0, x.copy()
    if norm == "l1":
        from .lp import l1_distance_to_hull
        return l1_distance_to_hull(x, V)
    if norm != "l2":
        raise ValueError("norm must be 'l2' or 'l1'")
    d, W = PointHull(V).project(x[None, :])
    return float(d[0]), W[0]


def convex_hull(points) -> VPolytope:
    """Canonical vertex list of the hull of a point set; idempotent.

    Points are snapped to an ETA grid and duplicates dropped.  The vertices
    are Qhull's in the set's own span (`PointHull`'s reduction), in input
    order: a point in the hull of the others to Qhull's rounding is dropped,
    one farther out is kept.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if pts.size else pts.reshape(0, 0)
    if pts.shape[0] == 0:
        return empty_polytope(pts.shape[1] if pts.ndim == 2 else 0)
    # drop exact duplicates early
    pts = np.unique(np.round(pts / ETA) * ETA, axis=0) if pts.shape[0] > 1 else pts
    return VPolytope(pts[PointHull(pts).vertex_indices])


def _flat_frame(P: np.ndarray):
    """Flat directions of a point set beyond its coordinate axes, or None.

    A direction is flat when every point lies within ETA of the centroid
    along it.  Returns ``(centre, basis, normal)``: the centroid and
    orthonormal rows (an SVD of the centred points) spanning the other
    directions and the flat ones; None when no direction is flat.
    """
    centre = P.mean(axis=0)
    Y = P - centre
    pad = np.zeros((max(0, P.shape[1] - P.shape[0]), P.shape[1]))   # a square SVD
    Vt = np.linalg.svd(np.vstack([Y, pad]), full_matrices=False)[2]
    flat = np.abs(Y @ Vt.T).max(axis=0) <= ETA
    if not flat.any():
        return None
    return centre, Vt[~flat], Vt[flat]


def _face_levels(verts: np.ndarray, facets: np.ndarray):
    """The face lattice of a simplicial boundary, from the facets down to
    triangles.

    ``facets`` holds vertex indices into ``verts`` (k per facet, k >= 4).
    Returns ``(levels, triangles)``: one level per face size j = k, ..., 4,
    each ``(v0, E, M, flat, children)`` with a face's first vertex, its edge
    vectors from it, the barycentric map ``M = (E E^T)^-1 E``, whether it is
    too flat for one, and the indices of its j faces in the next level; and
    the triangles' vertex coordinates.
    """
    levels = []
    faces = np.sort(facets, axis=1)
    while faces.shape[1] > 3:
        j = faces.shape[1]
        subs = np.stack([np.delete(faces, d, axis=1) for d in range(j)], axis=1)
        below, children = np.unique(subs.reshape(-1, j - 1), axis=0, return_inverse=True)
        v0 = verts[faces[:, 0]]
        E = verts[faces[:, 1:]] - v0[:, None, :]
        G = E @ E.transpose(0, 2, 1)
        diag = np.prod(np.diagonal(G, axis1=1, axis2=2), axis=1)
        flat = np.linalg.det(G) <= _FLAT_GRAM * diag
        G[flat] = np.eye(j - 1)
        M = np.linalg.solve(G, E)
        levels.append((v0, E, M, flat, children.reshape(-1, j)))
        faces = below
    return levels, verts[faces]


def _record(dist, near, rows, d, P):
    """Fold candidate distances ``d`` (nearest points ``P``) of the points
    ``rows`` into the running minima ``dist`` and ``near``."""
    np.minimum.at(dist, rows, d)
    hit = d <= dist[rows]
    near[rows[hit]] = P[hit]


class PointHull:
    """Exact l2 distance queries against the hull of a point set, with
    cheap bounds.

    The set is reduced to its own affine hull (see the module docstring), of
    effective dimension ``k``; ``vertex_indices`` are its vertices' rows in
    the point set.  Queries work on the axes along which the set varies,
    and the constant axes add ``axial2``.  The facet form (Qhull's, for
    k >= 2) is kept on those axes, lifted back from the set's span when the
    set is flat in a direction that is no axis.

    * `lower_bounds`: the largest facet violation, with the distance to the
      set's span (sound: each facet's halfspace contains the hull).
    * `upper_bounds`: the distance to the nearest of the points and, for at
      most 40 points, their pair midpoints, answered by a KD-tree (sound:
      each sample lies in the hull).
    * `distances` and `project`: inside the facet form, the distance to the
      span; outside, exact in every dimension, measured only on the facets
      that see a point and, where its projection misses them, on their
      lower faces (the module docstring gives why that subset holds the
      nearest point).
    """

    def __init__(self, points: np.ndarray):
        P = np.atleast_2d(np.asarray(points, dtype=float))
        if P.ndim != 2:
            P = P.reshape(len(P), -1)
        self.points = P
        self.m = P.shape[1]
        self.is_empty = P.shape[0] == 0
        self.k = 0                # effective dimension: that of the span
        self._const_axes = np.zeros(0, dtype=int)
        self._const_vals = np.zeros(0)
        self._var_axes = np.arange(self.m)
        self._tilt = None         # (centre, normal, band) of a flat set's span
        self._facets = None       # (A, b) with A x <= b on the varying axes
        self._surface = None      # boundary simplices on the varying axes (k <= 3)
        self._levels = None       # face lattice (k >= 4), built on first use
        if self.is_empty:
            return
        span = P.max(axis=0) - P.min(axis=0)
        const = span <= ETA
        if const.any() and self.m > 0:
            self._const_axes = np.where(const)[0]
            self._const_vals = P[0, self._const_axes]
            self._var_axes = np.where(~const)[0]
        Pv = P[:, self._var_axes]
        Q = Pv
        frame = _flat_frame(Pv) if Pv.shape[1] else None
        if frame is not None:
            centre, basis, normal = frame
            Q = (Pv - centre) @ basis.T
            self._tilt = (centre, normal, 0.0)     # the band: the points' own offsets
            self._tilt = (centre, normal, self._off_span(Pv)[0].max())
        self.k = k = Q.shape[1]
        if k == 0:
            self.vertex_indices = np.zeros(1, dtype=int)
        elif k == 1:
            lo, hi = int(Q[:, 0].argmin()), int(Q[:, 0].argmax())
            self.vertex_indices = np.array(sorted((lo, hi)))
            A, b = np.array([[1.0], [-1.0]]), np.array([Q[hi, 0], -Q[lo, 0]])
            simplices = np.array([[lo, hi], [lo, hi]])     # both ends: the segment
        else:
            hull = _QHull(Q)
            eq = hull.equations  # A x + b <= 0 with unit A rows
            A, b = eq[:, :-1], -eq[:, -1]
            simplices = hull.simplices
            self.vertex_indices = np.sort(hull.vertices)
        if k:
            if frame is not None:
                # a.(basis (x - centre)) <= b, as a facet on the varying axes
                A = A @ basis
                b = b + A @ centre
            self._facets = (A, b)
            if k <= 3:
                self._surface = Pv[simplices]
            else:
                self._verts, self._simplices = Pv, simplices

    @cached_property
    def _upper_pts(self) -> np.ndarray:
        """The upper-bound sample: the points and, for at most 40 of them,
        their pair midpoints, so cells deep inside the hull prune without
        exact projections."""
        v = self.points.shape[0]
        if not 1 < v <= 40 or not self.m:
            return self.points
        ii, jj = np.triu_indices(v, k=1)
        return np.vstack([self.points, 0.5 * (self.points[ii] + self.points[jj])])

    @cached_property
    def _tree(self):
        return _KDTree(self._upper_pts)

    def _split(self, X: np.ndarray):
        """(coordinates on the varying axes, squared distance on the constant axes)."""
        if not self._const_axes.size:
            return X, np.zeros(X.shape[0])
        axial2 = ((X[:, self._const_axes] - self._const_vals) ** 2).sum(axis=1)
        return X[:, self._var_axes], axial2

    def _off_span(self, Xv: np.ndarray):
        """(distance to the band of a flat set's span, the step back to it).

        The set's own points lie within ``band`` of its span, so they
        measure 0.
        """
        if self._tilt is None:
            return np.zeros(Xv.shape[0]), np.zeros_like(Xv)
        centre, normal, band = self._tilt
        # summed elementwise, so a row's value does not depend on its block
        coef = ((Xv - centre)[:, None, :] * normal).sum(axis=2)
        r = np.sqrt((coef * coef).sum(axis=1))
        out = np.clip(r - band, 0.0, None)
        return out, (coef * (out / np.where(r > 0.0, r, 1.0))[:, None]) @ normal

    def upper_bounds(self, X: np.ndarray) -> np.ndarray:
        """Distance to the nearest sampled hull point (>= true hull distance)."""
        if self.is_empty:
            return np.full(X.shape[0], np.inf)
        X = np.atleast_2d(X)
        if self.m == 0:
            return np.zeros(X.shape[0])
        return self._tree.query(X)[0]

    def contains_boxes(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Mask of axis-aligned boxes wholly inside the hull.

        Uses the facet form on the varying axes; boxes must be flat to
        within tolerance on the hull's constant axes to qualify.  Returns
        all-False for a hull of effective dimension 0, or flat in a
        direction that is no axis (a sound under-report).
        """
        n = los.shape[0]
        out = np.zeros(n, dtype=bool)
        if self.is_empty or self._facets is None or self._tilt is not None:
            return out
        ok = np.ones(n, dtype=bool)
        if self._const_axes.size:
            flat = (np.abs(los[:, self._const_axes] - self._const_vals) <= ETA) & \
                   (np.abs(his[:, self._const_axes] - self._const_vals) <= ETA)
            ok &= flat.all(axis=1)
            if not ok.any():
                return out
        A, b = self._facets
        Ap = np.clip(A, 0.0, None)
        Am = np.clip(A, None, 0.0)
        worst = los[:, self._var_axes] @ Am.T + his[:, self._var_axes] @ Ap.T - b
        out = ok & (worst <= ETA).all(axis=1)
        return out

    def facet_offsets(self, X: np.ndarray):
        """Facet offsets ``A x - b`` of a query block on the varying axes,
        positive where a facet sees the point; None for a hull of effective
        dimension 0, which has no facets.

        Callers that need both `lower_bounds` and `distances` of one block
        compute these once and pass their rows to both.
        """
        return self._offsets(self._split(np.atleast_2d(X))[0])

    def _offsets(self, Xv: np.ndarray):
        if self._facets is None:
            return None
        A, b = self._facets
        return Xv @ A.T - b

    def lower_bounds(self, X: np.ndarray, offsets=None) -> np.ndarray:
        """Sound lower bound on hull distance (0 when inside)."""
        if self.is_empty:
            return np.full(X.shape[0], np.inf)
        X = np.atleast_2d(X)
        Xv, axial2 = self._split(X)
        viol = self._offsets(Xv) if offsets is None else offsets
        if viol is not None:
            trans = np.clip(viol.max(axis=1), 0.0, None)
        else:
            trans = np.zeros(X.shape[0])
        if self._tilt is not None:
            axial2 = axial2 + self._off_span(Xv)[0] ** 2
        return np.sqrt(trans ** 2 + axial2)

    def _surface_nearest(self, Xv: np.ndarray, viol: np.ndarray):
        """(distances, nearest points) of the boundary for outside points.

        Each point is measured only on the facets that see it
        (``viol > -ETA``) and, for k >= 4, on the lower faces `_descend`
        leaves, as (point, simplex) pairs in bounded chunks.
        """
        rows, simp = np.nonzero(viol > -ETA)
        dist = np.full(Xv.shape[0], np.inf)
        near = np.empty_like(Xv)
        surface = self._surface
        if self.k >= 4:
            rows, simp, surface = self._descend(Xv, viol, rows, simp, dist, near)
        for s in range(0, rows.size, _PAIR_CHUNK):
            i, f = rows[s:s + _PAIR_CHUNK], simp[s:s + _PAIR_CHUNK]
            P = _simplex_points(Xv[i], surface[f])
            d = np.linalg.norm(Xv[i] - P, axis=1)
            _record(dist, near, i, d, P)
        return dist, near

    def _descend(self, Xv, viol, rows, face, dist, near):
        """Johnson's face recursion from the visible facets down to triangles.

        A point that projects into a facet that sees it is settled there.
        At every lower face, a projection with barycentric coordinates >= 0
        is a candidate and the face's own faces are not searched; the other
        faces hand their faces to the next level.  Folds the candidates into
        ``dist``/``near`` and returns the (point, triangle) pairs left, with
        the triangles' coordinates.
        """
        if self._levels is None:
            self._levels = _face_levels(self._verts, self._simplices)
        levels, triangles = self._levels
        for depth, (v0, E, M, flat, children) in enumerate(levels):
            feasible = np.zeros(rows.size, dtype=bool)
            for s in range(0, rows.size, _PAIR_CHUNK):
                i, f = rows[s:s + _PAIR_CHUNK], face[s:s + _PAIR_CHUNK]
                lam = np.einsum("pjk,pk->pj", M[f], Xv[i] - v0[f])
                ok = ~flat[f] & (lam >= 0.0).all(axis=1) & (lam.sum(axis=1) <= 1.0)
                if depth == 0:
                    ok &= viol[i, f] > 0.0
                i, f = i[ok], f[ok]
                P = v0[f] + np.einsum("pj,pjk->pk", lam[ok], E[f])
                _record(dist, near, i, np.linalg.norm(Xv[i] - P, axis=1), P)
                feasible[s:s + _PAIR_CHUNK] = ok
            # settled points stop at the facets; below them a feasible face
            # stops only its own descent
            keep = ~np.isfinite(dist[rows]) if depth == 0 else ~feasible
            n_below = int(children.max()) + 1
            pairs = np.sort((rows[keep][:, None] * n_below + children[face[keep]]).ravel())
            pairs = pairs[np.diff(pairs, prepend=-1) != 0]
            rows, face = pairs // n_below, pairs % n_below
        return rows, face, triangles

    def _nearest(self, Xv: np.ndarray, offsets):
        """(distances, nearest points) on the varying axes."""
        t, step = self._off_span(Xv)
        W = Xv - step
        viol = self._offsets(Xv) if offsets is None else offsets
        if viol is not None:
            todo = viol.max(axis=1) > ETA
            if todo.any():
                t[todo], W[todo] = self._surface_nearest(Xv[todo], viol[todo])
        return t, W

    def project(self, X: np.ndarray):
        """(distances, nearest points) for a query block; the distances
        are those of `distances`."""
        X = np.atleast_2d(X)
        if self.is_empty:
            return np.full(X.shape[0], np.inf), None
        Xv, axial2 = self._split(X)
        t, Wv = self._nearest(Xv, None)
        W = np.empty(X.shape)
        W[:, self._var_axes] = Wv
        W[:, self._const_axes] = self._const_vals
        return np.sqrt(t * t + axial2), W

    def distances(self, X: np.ndarray, offsets=None) -> np.ndarray:
        """Exact hull distances (within ETA along the set's flat directions).

        ``offsets``, when given, are `facet_offsets` of X.
        """
        if self.is_empty:
            return np.full(np.atleast_2d(X).shape[0], np.inf)
        X = np.atleast_2d(X)
        Xv, axial2 = self._split(X)
        t = self._nearest(Xv, offsets)[0]
        return np.sqrt(t * t + axial2)
