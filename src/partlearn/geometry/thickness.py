"""Diameter and grid-estimated thickness of (possibly non-convex) sets.

Exact thickness of a convex H-polytope is the Chebyshev radius (see lp.py);
for unions and complements we estimate on a dense grid and report the value
together with the grid spacing, as a resolution-qualified lower bound.
"""

from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from .polytope import VPolytope


def diameter(p: VPolytope) -> float:
    """Max pairwise distance between points of p.

    The distance function is convex, so the maximum is attained at vertices.
    """
    if p.is_empty:
        raise ValueError("diameter of the empty polytope")
    V = p.vertices
    if V.shape[0] == 1 or V.shape[1] == 0:
        return 0.0
    d2 = ((V[:, None, :] - V[None, :, :]) ** 2).sum(axis=2)
    return float(np.sqrt(d2.max()))


def vpolytope_thickness(p: VPolytope) -> float:
    """Exact thickness of a convex hull via its facet form.

    Degenerate hulls (affine dimension below ambient) have thickness 0.
    """
    from .hull import PointHull
    from .lp import chebyshev
    from .polytope import HPolytope

    if p.is_empty or p.dim == 0:
        return 0.0
    hull = PointHull(p.vertices)
    if hull.k < p.dim:
        return 0.0
    A, b = hull._facets          # A x <= b on all axes
    r, _ = chebyshev(HPolytope(-A, -b))
    return r


def grid_thickness(membership, lo, hi, spacing: float):
    """Grid estimate of the thickness (largest inscribed-ball radius).

    ``membership`` maps an (N, m) block to a boolean mask.  Returns
    (estimate, spacing); the true thickness lies within about one spacing of
    the estimate.  Points outside the bounding box count as outside the set.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    m = lo.size
    axes = [np.arange(lo[i] - spacing, hi[i] + spacing * 1.5, spacing) for i in range(m)]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    inside = np.asarray(membership(pts), dtype=bool)
    if not inside.any():
        return 0.0, spacing
    if inside.all():
        # no outside sample in the padded box; radius at least the box radius
        return float(np.linalg.norm(hi - lo) / 2), spacing
    dmin, _ = cKDTree(pts[~inside]).query(pts[inside])
    return float(dmin.max()), spacing
