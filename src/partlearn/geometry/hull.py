"""Convex hulls and nearest-point computations on V-polytopes.

Projection onto a vertex hull uses pairwise (away-step) conditional-gradient
descent, which is dimension agnostic and converges linearly; hulls of at
most three vertices use exact point/segment/triangle formulas instead.
Canonicalization keeps a vertex iff its distance to the hull of the others
exceeds the predicate tolerance; full-dimensional point sets take a Qhull
fast path that yields the same vertex set.

The segment and triangle kernels work row by row on broadcastable arrays:
one form serves a point against a fixed simplex, (point, simplex) pairs,
and all-pairs tables.  Two rules keep `PointHull`'s answers to the
coverage verifier's distance queries cheap:

* the upper bound is the distance to the nearest sampled hull point, found
  by a KD-tree over the samples (built once per hull, on first use);
* the exact distance of a point outside a hull of effective dimension 2 or
  3 is the minimum over the boundary simplices of the facets that see it
  (``a.x - b > -ETA``).  Every boundary simplex lies in the hull, so a
  minimum over any subset never falls below the true distance; and the
  nearest boundary point lies on a facet that sees the point (the residual
  ``x - p`` is in the normal cone at ``p``, so some facet through ``p`` has
  ``a.(x - p) > 0``), so a visible simplex contains it.  Results equal the
  all-simplex minimum up to rounding: where the nearest point lies on an
  edge shared with a facet that does not see the point, the two triangles
  compute it with different roundings.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import ConvexHull as _QHull
from scipy.spatial import QhullError as _QhullError
from scipy.spatial import cKDTree as _KDTree

from ..predicates import ETA, as_point
from .polytope import VPolytope, empty_polytope

_FW_MAX_ITER = 400
_PAIR_CHUNK = 1 << 16   # (point, simplex) pairs per distance block


def project_onto_hull_batch(V: np.ndarray, X: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Nearest points in conv(V) to each row of X via pairwise Frank-Wolfe.

    Vectorized over query points; stops per point when the duality gap
    certifies the distance estimate (always an upper bound) is within the
    absolute tolerance tol of the true distance.
    """
    V = np.atleast_2d(np.asarray(V, dtype=float))
    X = np.atleast_2d(np.asarray(X, dtype=float))
    v, m = V.shape
    n = X.shape[0]
    if v == 0:
        raise ValueError("empty hull")
    if m == 0 or v == 1:
        return np.repeat(V[:1], n, axis=0)
    if v <= 3:
        return _simplex_points(X, V)

    # start from the nearest vertex per query
    d2 = ((X[:, None, :] - V[None, :, :]) ** 2).sum(axis=2) if v * n * m <= 4e7 else None
    if d2 is None:
        start = np.empty(n, dtype=int)
        for i in range(n):
            start[i] = int(np.argmin(((X[i] - V) ** 2).sum(axis=1)))
    else:
        start = np.argmin(d2, axis=1)
    lam = np.zeros((n, v))
    lam[np.arange(n), start] = 1.0
    Z = V[start].copy()
    active = np.arange(n)
    # dist error <= sqrt(2 * gap); the floor keeps the target reachable in
    # double precision (stalled points return sound upper estimates)
    gap_stop = max(0.5 * tol * tol, 1e-17)
    for _ in range(_FW_MAX_ITER):
        if active.size == 0:
            break
        G = Z[active] - X[active]                     # gradient/2
        scores = G @ V.T                              # (na, v)
        s_idx = np.argmin(scores, axis=1)
        gap = (G * Z[active]).sum(axis=1) - scores[np.arange(active.size), s_idx]
        done = gap <= gap_stop
        if np.any(done):
            keep = ~done
            active = active[keep]
            if active.size == 0:
                break
            G = G[keep]
            scores = scores[keep]
            s_idx = s_idx[keep]
        masked = np.where(lam[active] > 1e-14, scores, -np.inf)
        a_idx = np.argmax(masked, axis=1)
        D = V[s_idx] - V[a_idx]
        dd = (D * D).sum(axis=1)
        stalled = dd <= 1e-30
        if stalled.any():
            # toward-vertex and away-vertex coincide: already optimal here
            active = active[~stalled]
            if active.size == 0:
                break
            D, dd = D[~stalled], dd[~stalled]
            G, s_idx, a_idx = G[~stalled], s_idx[~stalled], a_idx[~stalled]
        step = -(G * D).sum(axis=1) / dd
        amax = lam[active, a_idx]
        step = np.clip(step, 0.0, amax)
        lam[active, s_idx] += step
        lam[active, a_idx] -= step
        Z[active] += step[:, None] * D
    return Z


def _segment_points(X: np.ndarray, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Nearest point of segment [A, B] to X, row by row.

    All arguments broadcast against each other over their leading axes; the
    last axis is the coordinate axis.
    """
    D = B - A
    dd = (D * D).sum(axis=-1)
    dd = np.where(dd < 1e-30, 1.0, dd)
    t = np.clip(((X - A) * D).sum(axis=-1) / dd, 0.0, 1.0)
    return A + t[..., None] * D


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
    if V.shape[0] <= 3:
        z = project_onto_hull_batch(V, x[None, :])[0]
        return float(np.linalg.norm(x - z)), z
    d, W = PointHull(V).project(x[None, :])
    return float(d[0]), W[0]


def _canonical_by_distance(pts: np.ndarray) -> np.ndarray:
    """Keep each point iff it is > ETA from the hull of the others."""
    keep = list(range(pts.shape[0]))
    i = 0
    while i < len(keep) and len(keep) > 1:
        idx = keep[i]
        others = pts[[j for j in keep if j != idx]]
        d, _ = distance_to_hull(pts[idx], VPolytope(others))
        if d <= ETA:
            keep.pop(i)
        else:
            i += 1
    return pts[keep]


def convex_hull(points) -> VPolytope:
    """Canonical vertex list of the hull of a point set; idempotent.

    Interior and duplicate points are removed.  Full-dimensional sets in
    dimension >= 2 go through Qhull; degenerate sets fall back to the
    distance rule.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1) if pts.size else pts.reshape(0, 0)
    if pts.shape[0] == 0:
        return empty_polytope(pts.shape[1] if pts.ndim == 2 else 0)
    m = pts.shape[1]
    # drop exact duplicates early
    pts = np.unique(np.round(pts / ETA) * ETA, axis=0) if pts.shape[0] > 1 else pts
    if m == 0 or pts.shape[0] == 1:
        return VPolytope(pts[:1])
    if m == 1:
        lo, hi = float(pts.min()), float(pts.max())
        if hi - lo <= ETA:
            return VPolytope(np.array([[lo]]))
        return VPolytope(np.array([[lo], [hi]]))
    if pts.shape[0] > m + 1:
        try:
            hull = _QHull(pts)
            return VPolytope(pts[np.sort(hull.vertices)])
        except (_QhullError, ValueError):
            pass  # degenerate: fall through to the distance rule
    return VPolytope(_canonical_by_distance(pts))


class PointHull:
    """Distance queries against the hull of a point set, with cheap bounds.

    Precomputes a facet form via Qhull when the set is full-dimensional, and
    factors out coordinates that are constant across the set (cross-section
    nets are flat in their section coordinate).  Distances are l2.

    * `lower_bounds`: the largest facet violation (sound: each facet's
      halfspace contains the hull).
    * `upper_bounds`: the distance to the nearest of the points and, for at
      most 40 points, their pair midpoints, answered by a KD-tree (sound:
      each sample lies in the hull).
    * `distances`: 0 inside the facet form; outside, exact for hulls of
      effective dimension 1 to 3, where only the boundary simplices of the
      facets that see a point are measured (see the module docstring for
      why that subset holds the nearest point); otherwise Frank-Wolfe upper
      estimates, capped at `upper_bounds` (both are distances to hull
      points, so the smaller one is still an upper estimate).
    """

    def __init__(self, points: np.ndarray):
        P = np.atleast_2d(np.asarray(points, dtype=float))
        if P.ndim != 2:
            P = P.reshape(len(P), -1)
        self.points = P
        self.m = P.shape[1]
        self.is_empty = P.shape[0] == 0
        self._const_axes = np.zeros(0, dtype=int)
        self._const_vals = np.zeros(0)
        self._var_axes = np.arange(self.m)
        self._sub = None          # reduced point set on varying axes
        self._facets = None       # (A, b) with A x <= b on varying axes
        self._tree = None         # KD-tree over _upper_pts, built on first use
        if self.is_empty:
            return
        span = P.max(axis=0) - P.min(axis=0)
        const = span <= ETA
        if const.any() and self.m > 0:
            self._const_axes = np.where(const)[0]
            self._const_vals = P[0, self._const_axes]
            self._var_axes = np.where(~const)[0]
        self._sub = P[:, self._var_axes]
        self._upper_pts = P
        k = self._sub.shape[1]
        self._surface = None      # boundary simplices on varying axes
        if k >= 2 and P.shape[0] >= k + 1:
            try:
                hull = _QHull(self._sub)
                eq = hull.equations  # A x + b <= 0 with unit A rows
                self._facets = (eq[:, :-1], -eq[:, -1])
                if k <= 3:
                    self._surface = self._sub[hull.simplices]
                self._sub = self._sub[np.sort(hull.vertices)]
            except (_QhullError, ValueError):
                self._facets = None
        elif k == 1:
            lo, hi = float(self._sub.min()), float(self._sub.max())
            self._facets = (np.array([[1.0], [-1.0]]), np.array([hi, -lo]))
            self._sub = np.array([[lo], [hi]])
        # densify the upper-bound sample with pair midpoints so cells deep
        # inside the hull prune without exact projections
        v = self.points.shape[0]
        if 1 < v <= 40 and self.m:
            ii, jj = np.triu_indices(v, k=1)
            mids = 0.5 * (self.points[ii] + self.points[jj])
            self._upper_pts = np.vstack([self.points, mids])

    def _split(self, X: np.ndarray):
        """(coordinates on the varying axes, squared distance on the constant axes)."""
        if not self._const_axes.size:
            return X, np.zeros(X.shape[0])
        axial2 = ((X[:, self._const_axes] - self._const_vals) ** 2).sum(axis=1)
        return X[:, self._var_axes], axial2

    def upper_bounds(self, X: np.ndarray) -> np.ndarray:
        """Distance to the nearest sampled hull point (>= true hull distance)."""
        if self.is_empty:
            return np.full(X.shape[0], np.inf)
        X = np.atleast_2d(X)
        if self.m == 0:
            return np.zeros(X.shape[0])
        return self._nearest_sample(X)[0]

    def _nearest_sample(self, X: np.ndarray):
        """(distances, indices into ``_upper_pts``) of the nearest samples."""
        if self._tree is None:
            self._tree = _KDTree(self._upper_pts)
        return self._tree.query(X)

    def contains_boxes(self, los: np.ndarray, his: np.ndarray) -> np.ndarray:
        """Mask of axis-aligned boxes wholly inside the hull.

        Uses the facet form on the varying axes; boxes must be flat to
        within tolerance on the hull's constant axes to qualify.  Returns
        all-False when no facet form is available (a sound under-report).
        """
        n = los.shape[0]
        out = np.zeros(n, dtype=bool)
        if self.is_empty or self._facets is None:
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
        positive where a facet sees the point; None without a facet form.

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
        """Sound lower bound on hull distance (0 when inside or unknown)."""
        if self.is_empty:
            return np.full(X.shape[0], np.inf)
        X = np.atleast_2d(X)
        Xv, axial2 = self._split(X)
        viol = self._offsets(Xv) if offsets is None else offsets
        if viol is not None:
            trans = np.clip(viol.max(axis=1), 0.0, None)
        else:
            trans = np.zeros(X.shape[0])
        return np.sqrt(trans ** 2 + axial2)

    def _outside(self, Xv: np.ndarray, offsets):
        """Mask of points outside the facet form, and their facet offsets
        (without a facet form every point counts as outside)."""
        viol = self._offsets(Xv) if offsets is None else offsets
        if viol is None:
            return np.ones(Xv.shape[0], dtype=bool), None
        out = viol.max(axis=1) > ETA
        return out, viol[out]

    def _surface_nearest(self, Xv: np.ndarray, viol: np.ndarray):
        """(distances, nearest points) of the boundary for outside points.

        Each point is measured only against the simplices of the facets that
        see it (``viol > -ETA``), as (point, simplex) pairs in bounded chunks.
        """
        rows, simp = np.nonzero(viol > -ETA)
        dist = np.full(Xv.shape[0], np.inf)
        near = np.empty_like(Xv)
        for s in range(0, rows.size, _PAIR_CHUNK):
            i, f = rows[s:s + _PAIR_CHUNK], simp[s:s + _PAIR_CHUNK]
            P = _simplex_points(Xv[i], self._surface[f])
            d = np.linalg.norm(Xv[i] - P, axis=1)
            np.minimum.at(dist, i, d)
            hit = d <= dist[i]
            near[i[hit]] = P[hit]
        return dist, near

    def project(self, X: np.ndarray, tol: float = 1e-9):
        """(distances, nearest points) for a query block; where Frank-Wolfe
        runs, a nearer sample point replaces its iterate."""
        X = np.atleast_2d(X)
        n, m = X.shape
        if self.is_empty:
            return np.full(n, np.inf), None
        Xv, axial2 = self._split(X)
        W = np.tile(self.points[0], (n, 1))
        if Xv.shape[1] == 0:
            return np.sqrt(axial2), W
        todo, viol = self._outside(Xv, None)
        Wv = Xv.copy()
        if todo.any():
            if self._surface is not None:
                Wv[todo] = self._surface_nearest(Xv[todo], viol)[1]
            else:
                Wv[todo] = project_onto_hull_batch(self._sub, Xv[todo], tol=tol)
        trans2 = ((Xv - Wv) ** 2).sum(axis=1)
        W[:, self._var_axes] = Wv
        if self._const_axes.size:
            W[:, self._const_axes] = self._const_vals
        d = np.sqrt(trans2 + axial2)
        if todo.any() and self._surface is None:
            # a Frank-Wolfe iterate farther than the nearest sample gives way to it
            ub, idx = self._nearest_sample(X[todo])
            closer = ub < d[todo]
            rows = np.where(todo)[0][closer]
            d[rows] = ub[closer]
            W[rows] = self._upper_pts[idx[closer]]
        return d, W

    def distances(self, X: np.ndarray, tol: float = 1e-9, offsets=None) -> np.ndarray:
        """Hull distances to absolute tolerance tol (upper estimates).

        Exact (to rounding) whenever a boundary decomposition is available,
        which covers every hull of effective dimension at most three; the
        Frank-Wolfe answers elsewhere never exceed `upper_bounds`.
        ``offsets``, when given, are `facet_offsets` of X.
        """
        if self.is_empty:
            return np.full(np.atleast_2d(X).shape[0], np.inf)
        X = np.atleast_2d(X)
        Xv, axial2 = self._split(X)
        if Xv.shape[1] == 0:
            return np.sqrt(axial2)
        if Xv.shape[1] == 1:
            lo, hi = float(self._sub.min()), float(self._sub.max())
            t = np.clip(np.maximum(lo - Xv[:, 0], Xv[:, 0] - hi), 0.0, None)
            return np.sqrt(t * t + axial2)
        todo, viol = self._outside(Xv, offsets)
        trans2 = np.zeros(X.shape[0])
        if todo.any():
            if self._surface is not None:
                d = self._surface_nearest(Xv[todo], viol)[0]
                trans2[todo] = d * d
            else:
                Z = project_onto_hull_batch(self._sub, Xv[todo], tol=tol)
                trans2[todo] = ((Xv[todo] - Z) ** 2).sum(axis=1)
        d = np.sqrt(trans2 + axial2)
        if todo.any() and self._surface is None:
            d[todo] = np.minimum(d[todo], self.upper_bounds(X[todo]))
        return d
