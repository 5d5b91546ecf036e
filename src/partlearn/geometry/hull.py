"""Convex hulls of point sets and exact l2 distances to them.

Every point set is first reduced to its own affine hull.  Coordinate axes
on which the set spans at most ETA are split off, and a query's squared
distance along them is added to the rest (``axial2``), so cross-section
nets, flat in their section coordinate, keep their plain coordinates.  If
the set is still flat in some direction (every point within ETA of the
centroid along it, found by an SVD of the centred points), the facet form
is found in the set's coordinates in its span and lifted back.  So the set
is full-dimensional in its span, of effective dimension k; its facets are
simplices of the set's own points (Qhull's for k >= 2; for k = 1 the
segment's two end points), with unit normals ``a`` and offsets ``b``, and
the hull lies in every ``a.x <= b``.

A point inside the facet form is at its distance to the span, less the
largest such distance of the set's own points (at most ETA per flat
direction): distances are exact up to ETA along flat directions, and exact
otherwise.  A point x outside the facet form (``a.x - b > ETA`` for some
facet) is measured by Johnson's distance sub-algorithm (Gilbert, Johnson &
Keerthi, IEEE J. Robotics & Automation 4(2), 1988), the same way for every
k, on the faces of the facets that see it (``a.x - b > -ETA``):

* The nearest hull point p lies on such a facet: the residual ``x - p`` is
  in the normal cone at p, so some facet through p has ``a.(x - p) > 0``.
* If x projects into a facet that sees it, that projection is the nearest
  point, because the hull lies in the facet's halfspace (for x in the span,
  x is exactly ``a.x - b`` away).
* Otherwise the faces are searched level by level, from the facets down to
  the edges and then the vertices.  At each face the projection of x onto
  the face's affine hull is a candidate when its barycentric coordinates
  are >= 0, and that face's own faces are not searched; the other faces
  hand theirs to the next level.  If p lies in the relative interior of a
  face G, it is x's projection onto G's affine hull, and every face above
  G whose projection is feasible has p as that projection; so p is always
  among the candidates.  Each face's barycentric map is computed once per
  hull, on first use.

Every candidate lies in the hull, so the minimum never falls below the true
distance; results equal the minimum over all faces up to rounding.  The
cheap upper bound is the distance to the nearest sampled hull point, found
by a KD-tree over the samples (built once per hull, on first use).
"""
from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull as _QHull
from scipy.spatial import cKDTree as _KDTree

from ..predicates import ETA, as_point
from .lp import l1_distance_to_hull
from .polytope import VPolytope

_PAIR_CHUNK = 1 << 16   # (point, face) pairs per distance block
_FLAT_GRAM = 1e-12      # faces with det(Gram) <= this * prod(diag) are flat


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
        return l1_distance_to_hull(x, V)
    if norm != "l2":
        raise ValueError("norm must be 'l2' or 'l1'")
    d, W = PointHull(V).project(x[None, :])
    return float(d[0]), W[0]


def snap_points(pts: np.ndarray) -> np.ndarray:
    """A (v, m) point set snapped to the ETA grid, duplicates dropped (rows
    sorted); a single point is kept as given."""
    return np.unique(np.round(pts / ETA) * ETA, axis=0) if pts.shape[0] > 1 else pts


def convex_hull(points) -> VPolytope:
    """Canonical vertex list of the hull of a point set; idempotent.

    Points go through `snap_points` first.  The vertices are Qhull's in the
    set's own span (`PointHull`'s reduction), in snapped-row order: a point
    in the hull of the others to Qhull's rounding is dropped, one farther
    out is kept.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if pts.size else pts.reshape(0, 0)
    h = PointHull(snap_points(pts))
    return VPolytope(h.points[h.vertex_indices])


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
    the edges.

    ``facets`` holds vertex indices into ``verts``, k per facet.  Returns
    ``(levels, ends)``: one level per face size j = k, ..., 2, each
    ``(v0, E, M, flat, children)`` with a face's first vertex, its edge
    vectors from it, the barycentric map ``M = (E E^T)^-1 E``, whether it is
    too flat for one, and the indices of its j faces in the next level (an
    edge's children are its two vertex rows); and ``ends``, the points the
    last level's indices name (the vertices; for k = 1, the facets).
    """
    levels = []
    faces = np.sort(facets, axis=1)
    while faces.shape[1] > 1:
        j = faces.shape[1]
        v0 = verts[faces[:, 0]]
        E = verts[faces[:, 1:]] - v0[:, None, :]
        G = E @ E.transpose(0, 2, 1)
        diag = np.prod(np.diagonal(G, axis1=1, axis2=2), axis=1)
        flat = np.linalg.det(G) <= _FLAT_GRAM * diag
        G[flat] = np.eye(j - 1)
        M = np.linalg.solve(G, E)
        if j == 2:
            children, faces = faces, np.arange(verts.shape[0])[:, None]
        else:
            drop = np.nonzero(~np.eye(j, dtype=bool))[1].reshape(j, j - 1)  # row d: all but d
            subs = faces[:, drop].reshape(-1, j - 1)
            # one bytes key per row: np.unique's axis=0 path is ~2x slower
            keys = subs.view(np.dtype((np.void, subs.itemsize * (j - 1)))).ravel()
            _, first, children = np.unique(keys, return_index=True, return_inverse=True)
            faces = subs[first]
        levels.append((v0, E, M, flat, children.reshape(-1, j)))
    return levels, verts[faces[:, 0]]


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
    and the constant axes add ``axial2``.  For k >= 1 the facet form
    ``(A, b)`` and the boundary facets (rows of the point set, k each) are
    kept on those axes, lifted back from the set's span when the set is
    flat in a direction that is no axis.

    * `lower_bounds`: the largest facet violation, with the distance to the
      set's span (sound: each facet's halfspace contains the hull).
    * `upper_bounds`: the distance to the nearest of the vertices and, for
      at most 40 vertices, their pair midpoints, answered by a KD-tree
      (sound: each sample lies in the hull).
    * `distances` and `project`: inside the facet form, the distance to the
      span; outside, exact, by one face recursion for every k: the facets
      that see a point and, where its projection misses them, their faces
      down to the vertices (the module docstring gives why that subset
      holds the nearest point).
    """

    def __init__(self, points: np.ndarray):
        P = np.atleast_2d(np.asarray(points, dtype=float))
        if P.ndim != 2:
            P = P.reshape(len(P), -1)
        self.points = P
        self.m = P.shape[1]
        self.is_empty = P.shape[0] == 0
        self.vertex_indices = np.zeros(0, dtype=int)
        self.k = 0                # effective dimension: that of the span
        self._const_axes = np.zeros(0, dtype=int)
        self._const_vals = np.zeros(0)
        self._var_axes = np.arange(self.m)
        self._tilt = None         # (centre, normal, band) of a flat set's span
        self._facets = None       # (A, b) with A x <= b on the varying axes
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
            simplices = np.array([[hi], [lo]])     # each facet: one end point
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
            self._verts, self._simplices = Pv, simplices

    @cached_property
    def _upper_pts(self) -> np.ndarray:
        """The upper-bound sample: the vertices and, for at most 40 of them,
        their pair midpoints, so cells deep inside the hull prune without
        exact projections."""
        V = self.points[self.vertex_indices]
        v = V.shape[0]
        if not 1 < v <= 40 or not self.m:
            return V
        ii, jj = np.triu_indices(v, k=1)
        return np.vstack([V, 0.5 * (V[ii] + V[jj])])

    @cached_property
    def _tree(self):
        return _KDTree(self._upper_pts)

    @cached_property
    def _levels(self):
        return _face_levels(self._verts, self._simplices)

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

        Johnson's face recursion, as (point, face) pairs in bounded chunks,
        from the facets that see a point (``viol > -ETA``) down to the
        vertices.  A point that projects into a facet that sees it is
        settled there.  At every lower face, a projection with barycentric
        coordinates >= 0 is a candidate and the face's own faces are not
        searched; the other faces hand their faces to the next level.  The
        pairs left after the edges are measured against their vertices.
        """
        levels, ends = self._levels
        rows, face = np.nonzero(viol > -ETA)
        dist = np.full(Xv.shape[0], np.inf)
        near = np.empty_like(Xv)
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
            # distinct pairs by hand: np.unique hashes integers, ~10x slower here
            first = np.ones(pairs.size, dtype=bool)
            first[1:] = pairs[1:] != pairs[:-1]
            rows, face = np.divmod(pairs[first], n_below)
        for s in range(0, rows.size, _PAIR_CHUNK):
            i, P = rows[s:s + _PAIR_CHUNK], ends[face[s:s + _PAIR_CHUNK]]
            _record(dist, near, i, np.linalg.norm(Xv[i] - P, axis=1), P)
        return dist, near

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
