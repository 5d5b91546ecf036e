"""Cross-sections, slices, and the lifts from lower simplices into sections
and faces.

Cross-sections of a V-polytope are built from vertex-pair segment crossings,
which always contain the true section vertices; canonicalization then strips
the interior candidates.  The lifts here pull points of the next lower
corner simplex into the x-section of the corner simplex, and points of the
corner k-simplex onto a k-face, as the searches that learn along sections
and faces do.  A lift acts elementwise on the last axis, so a row of a
block lifts bit for bit as the row alone.
"""

from __future__ import annotations

import numpy as np

from ..predicates import ETA
from .hull import convex_hull
from .polytope import Face, HPolytope, VPolytope, all_faces, empty_polytope


def cross_section(p: VPolytope, x: float, tol: float = ETA) -> VPolytope:
    """Intersection of p with the hyperplane {first coordinate == x}."""
    return slice_polytope(p, x, x, tol=tol)


def slice_polytope(p: VPolytope, x: float, y: float, tol: float = ETA) -> VPolytope:
    """Intersection of p with the slab {x <= first coordinate <= y}."""
    if y < x:
        raise ValueError("slice needs x <= y")
    if p.is_empty:
        return empty_polytope(p.dim)
    V = p.vertices
    t = V[:, 0]
    cand = [V[(t >= x - tol) & (t <= y + tol)]]
    for plane in ({x, y} if y > x else {x}):
        below = V[t < plane - tol]
        above = V[t > plane + tol]
        if len(below) and len(above):
            # all pairwise segment crossings; a superset of the true vertices
            tb = below[:, 0][:, None]
            ta = above[:, 0][None, :]
            lam = (plane - tb) / (ta - tb)          # in (0, 1)
            pts = below[:, None, :] + lam[:, :, None] * (above[None, :, :] - below[:, None, :])
            cand.append(pts.reshape(-1, V.shape[1]))
    pts = np.vstack([c for c in cand if len(c)]) if any(len(c) for c in cand) else None
    if pts is None or len(pts) == 0:
        return empty_polytope(p.dim)
    return convex_hull(pts)


def section_lift(x: float, m: int):
    """The lift z -> (x, (1 - x) z) of the corner (m-1)-simplex onto the
    x-section of the corner m-simplex, for points or blocks of rows.
    Requires 0 <= x < 1."""
    if not 0.0 <= x < 1.0:
        raise ValueError("section coordinate must satisfy 0 <= x < 1")
    if m < 1:
        raise ValueError("m >= 1 required")
    s = 1.0 - x

    def lift(z):
        z = np.asarray(z, dtype=float)
        out = np.empty(z.shape[:-1] + (z.shape[-1] + 1,))
        out[..., 0] = x
        np.multiply(z, s, out=out[..., 1:])
        return out

    return lift


def face_lift(face: Face):
    """The lift of the corner k-simplex onto a k-face of the corner
    m-simplex, for points or blocks of rows.

    z goes onto the axes of the face's vertices after its first.  A face
    holding the origin (index 0) is axis-aligned and needs nothing more; on
    any other face the first vertex's axis gets ``1 - z_1 - ... - z_k``,
    summed left to right.
    """
    first, *rest = face.vertex_subset
    axes = [i - 1 for i in rest]                   # e_i has coordinate i-1

    def lift(z):
        z = np.asarray(z, dtype=float)
        out = np.zeros(z.shape[:-1] + (face.m,))
        out[..., axes] = z
        if first:
            top = 1.0
            for j in range(len(axes)):
                top = top - z[..., j]
            out[..., first - 1] = top
        return out

    return lift


def enumerate_k_faces(m: int, k: int):
    """All k-faces of the corner m-simplex with their lifts from the corner
    k-simplex; C(m+1, k+1) entries."""
    if k > m:
        raise ValueError("k > m")
    return [(f, face_lift(f)) for f in all_faces(m, k)]


def gamma_interior(p: HPolytope, boundary_rows, gamma: float) -> HPolytope:
    """Shrink a cell by gamma relative to the simplex interior.

    Rows inherited from the ambient simplex's facets (``boundary_rows``)
    stay put; every other offset moves inward by gamma.
    """
    if gamma < 0:
        raise ValueError("gamma must be >= 0")
    boundary = set(int(i) for i in boundary_rows)
    offsets = p.offsets.copy()
    for i in range(p.nrows):
        if i not in boundary:
            offsets[i] += gamma
    return HPolytope(p.normals.copy(), offsets)
