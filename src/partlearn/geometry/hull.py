"""Convex hulls of point sets and exact l2 distances to them.

Every point set is first reduced to its own affine hull.  A direction is
flat when every point lies within ETA of the centroid along it; an SVD of
the centred points finds the flat directions, axis-aligned or tilted alike
(a cross-section net, flat in its section coordinate, is one case).  If the
set is flat in some direction, the facet form is found in the set's
coordinates in its span and lifted back to ambient coordinates.  So the set
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

Only distances are kept: each candidate's distance to x, never the
candidate itself.  Every candidate lies in the hull, so the minimum never
falls below the true distance; results equal the minimum over all faces up
to rounding.  The cheap upper bound is the distance to the nearest sampled
hull point, found by a KD-tree over the samples (built once per hull, on
first use).
"""
from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.spatial import ConvexHull as _QHull
from scipy.spatial import cKDTree as _KDTree

from ..predicates import ETA
from .polytope import VPolytope

_PAIR_CHUNK = 1 << 16   # (point, face) or (box, facet) pairs per block
_FLAT_GRAM = 1e-12      # faces with det(Gram) <= this * prod(diag) are flat


def convex_hull(points) -> VPolytope:
    """The vertices of the hull of a point set, as given; idempotent.

    The vertices are Qhull's in the set's own span (`PointHull`'s
    reduction), in input-row order: a point in the hull of the others to
    Qhull's rounding is dropped, one farther out is kept, and of repeated
    rows one is kept.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if pts.size else pts.reshape(0, 0)
    h = PointHull(pts)
    return VPolytope(h.points[h.vertex_indices])


def _flat_frame(P: np.ndarray):
    """Flat directions of a point set, or None.

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


class PointHull:
    """Exact l2 distances from query points to the hull of a point set, with
    cheap bounds and a box-containment test; no nearest points.

    The set is reduced to its own affine hull (see the module docstring), of
    effective dimension ``k``; ``vertex_indices`` are its vertices' rows in
    the point set.  For k >= 1 the facet form ``(A, b)`` and the boundary
    facets (rows of the point set, k each) are kept in ambient coordinates,
    lifted back from the set's span when the set is flat in some direction.

    * `lower_bounds`: the largest facet violation, with the distance to the
      set's span (sound: each facet's halfspace contains the hull).
    * `upper_bounds`: the distance to the nearest of `samples` (the
      vertices and, for at most 40 vertices, their pair midpoints),
      answered by a KD-tree (sound: each sample lies in the hull).
    * `distances`: inside the facet form, the distance to the span;
      outside, exact, by one face recursion for every k: the facets
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
        self._tilt = None         # (centre, normal, band) of a flat set's span
        self._facets = None       # (A, b) with A x <= b
        if self.is_empty:
            return
        Q = P
        frame = _flat_frame(P) if self.m else None
        if frame is not None:
            centre, basis, normal = frame
            Q = (P - centre) @ basis.T
            self._tilt = (centre, normal, 0.0)     # the band: the points' own offsets
            self._tilt = (centre, normal, self._off_span(P).max())
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
                # a.(basis (x - centre)) <= b, as a facet in ambient coordinates
                A = A @ basis
                b = b + A @ centre
            self._facets = (A, b)
            self._simplices = simplices

    @cached_property
    def samples(self) -> np.ndarray:
        """The upper-bound sample, read-only: the vertices and, for at most
        40 of them, their pair midpoints, so cells deep inside the hull
        prune without exact projections.  Every sample lies in the hull."""
        V = self.points[self.vertex_indices]
        v = V.shape[0]
        if 1 < v <= 40 and self.m:
            ii, jj = np.triu_indices(v, k=1)
            V = np.vstack([V, 0.5 * (V[ii] + V[jj])])
        V.setflags(write=False)
        return V

    @cached_property
    def _tree(self):
        return _KDTree(self.samples)

    @cached_property
    def _levels(self):
        return _face_levels(self.points, self._simplices)

    def _off_span(self, X: np.ndarray) -> np.ndarray:
        """Distance to the band of a flat set's span.

        The set's own points lie within ``band`` of its span, so they
        measure 0.
        """
        if self._tilt is None:
            return np.zeros(X.shape[0])
        centre, normal, band = self._tilt
        # summed elementwise, so a row's value does not depend on its block
        coef = ((X - centre)[:, None, :] * normal).sum(axis=2)
        return np.clip(np.sqrt((coef * coef).sum(axis=1)) - band, 0.0, None)

    def upper_bounds(self, X: np.ndarray) -> np.ndarray:
        """Distance to the nearest sampled hull point (>= true hull distance)."""
        if self.is_empty:
            return np.full(X.shape[0], np.inf)
        X = np.atleast_2d(X)
        if self.m == 0:
            return np.zeros(X.shape[0])
        return self._tree.query(X)[0]

    @cached_property
    def _facet_gains(self):
        """Each facet's axes by decreasing normal entry, and the steps
        ``g_k - g_{k+1}`` between those entries clipped at 0 (``g_k``, with
        ``g_{m+1} = 0``): the order and the weights of `_box_maxima`."""
        A = self._facets[0]
        order = np.argsort(-A, axis=1, kind="stable")
        gains = np.clip(np.take_along_axis(A, order, axis=1), 0.0, None)
        return order, gains - np.concatenate([gains[:, 1:], np.zeros((A.shape[0], 1))], axis=1)

    def _box_maxima(self, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """The maximum of ``a.x`` over ``[lo, hi] ∩ {sum x <= 1}``, for each
        box row and facet normal ``a``.

        The maximum is a fractional knapsack, solved exactly by the greedy:
        from ``lo``, the budget ``max(1 - sum lo, 0)`` is spent on the
        positive entries ``g_1 >= g_2 >= ...`` of ``a``, largest first, each
        up to its box width.  The greedy spends ``min(reach_k, budget)`` on
        the first k axes, where ``reach_k`` is their summed width, so it
        gains ``sum_k (g_k - g_{k+1}) min(reach_k, budget)`` over ``a.lo``.
        Summed by einsum's own loops, so a row's value does not depend on
        its block.
        """
        order, steps = self._facet_gains
        reach = np.cumsum((hi - lo)[:, order], axis=2)    # (box, facet, axis), spending order
        budget = np.clip(1.0 - lo.sum(axis=1), 0.0, None)
        spent = np.minimum(reach, budget[:, None, None])
        return np.einsum("bk,fk->bf", lo, self._facets[0]) + np.einsum("bfk,fk->bf", spent, steps)

    def contains_boxes(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Mask of axis-aligned boxes whose part in the corner simplex lies
        wholly inside the hull.

        A box [lo, hi] counts when, for every facet ``a.x <= b``, the
        maximum of ``a.x`` over ``[lo, hi] ∩ {sum x <= 1}`` (`_box_maxima`)
        is at most ``b + ETA``.  Boxes whose low corner passes every facet
        are taken in blocks of at most `_PAIR_CHUNK` (box, facet) pairs.
        Returns all-False for a hull below full dimension (flat in some
        direction, or of effective dimension 0), a sound under-report.
        """
        if self.is_empty or self._facets is None or self._tilt is not None:
            return np.zeros(los.shape[0], dtype=bool)
        A, b = self._facets
        out = np.zeros(los.shape[0], dtype=bool)
        # a maximum is at least its value at lo: most boxes fail there
        todo = np.nonzero((self.facet_offsets(los) <= ETA).all(axis=1))[0]
        step = max(1, _PAIR_CHUNK // b.size)
        for s in range(0, todo.size, step):
            i = todo[s:s + step]
            out[i] = (self._box_maxima(los[i], his[i]) - b <= ETA).all(axis=1)
        return out

    def facet_offsets(self, X: np.ndarray):
        """Facet offsets ``A x - b`` of a query block, positive where a
        facet sees the point; None for a hull of effective dimension 0,
        which has no facets.

        Callers that need both `lower_bounds` and `distances` of one block
        compute these once and pass their rows to both.  Summed by einsum's
        own loops, so a row's offsets do not depend on its block: a BLAS
        product takes one row by gemv and many by gemm, and gemm switches
        kernels with the block's shape, and their sums differ in the last
        bit.
        """
        if self._facets is None:
            return None
        A, b = self._facets
        return np.einsum("bk,fk->bf", np.atleast_2d(X), A) - b

    def lower_bounds(self, X: np.ndarray, offsets=None) -> np.ndarray:
        """Sound lower bound on hull distance (0 when inside)."""
        if self.is_empty:
            return np.full(X.shape[0], np.inf)
        X = np.atleast_2d(X)
        viol = self.facet_offsets(X) if offsets is None else offsets
        trans = np.zeros(X.shape[0]) if viol is None else np.clip(viol.max(axis=1), 0.0, None)
        if self._tilt is None:
            return trans
        return np.sqrt(trans ** 2 + self._off_span(X) ** 2)

    def _surface_distances(self, X: np.ndarray, viol: np.ndarray) -> np.ndarray:
        """Distances of outside points to the boundary.

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
        dist = np.full(X.shape[0], np.inf)
        for depth, (v0, E, M, flat, children) in enumerate(levels):
            feasible = np.zeros(rows.size, dtype=bool)
            for s in range(0, rows.size, _PAIR_CHUNK):
                i, f = rows[s:s + _PAIR_CHUNK], face[s:s + _PAIR_CHUNK]
                lam = np.einsum("pjk,pk->pj", M[f], X[i] - v0[f])
                ok = ~flat[f] & (lam >= 0.0).all(axis=1) & (lam.sum(axis=1) <= 1.0)
                if depth == 0:
                    ok &= viol[i, f] > 0.0
                i, f = i[ok], f[ok]
                P = v0[f] + np.einsum("pj,pjk->pk", lam[ok], E[f])
                np.minimum.at(dist, i, np.linalg.norm(X[i] - P, axis=1))
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
            np.minimum.at(dist, i, np.linalg.norm(X[i] - P, axis=1))
        return dist

    def distances(self, X: np.ndarray, offsets=None) -> np.ndarray:
        """Exact hull distances (within ETA along the set's flat directions).

        ``offsets``, when given, are `facet_offsets` of X.
        """
        X = np.atleast_2d(X)
        if self.is_empty:
            return np.full(X.shape[0], np.inf)
        dist = self._off_span(X)
        viol = self.facet_offsets(X) if offsets is None else offsets
        if viol is not None:
            todo = viol.max(axis=1) > ETA
            if todo.any():
                dist[todo] = self._surface_distances(X[todo], viol[todo])
        return dist
