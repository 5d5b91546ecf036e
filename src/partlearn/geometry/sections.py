"""Cross-sections, slices, and the affine maps between simplices and faces.

Cross-sections of a V-polytope are built from vertex-pair segment crossings,
which always contain the true section vertices; canonicalization then strips
the interior candidates.  The maps here are the section map f_x (section of
the corner simplex onto the next lower corner simplex) and the per-face
isomorphisms used when learning along faces.
"""

from __future__ import annotations

import numpy as np

from ..predicates import ETA
from .hull import convex_hull
from .polytope import AffineMap, Face, HPolytope, VPolytope, all_faces, empty_polytope


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


def section_map(x: float, m: int) -> AffineMap:
    """The bijection f_x from the x-section of the m-simplex onto the
    (m-1)-simplex: (v1,...,vm) -> (v2,...,vm) / (1 - x).  Requires x < 1."""
    if not 0.0 <= x < 1.0:
        raise ValueError("section coordinate must satisfy 0 <= x < 1")
    if m < 1:
        raise ValueError("m >= 1 required")
    s = 1.0 - x
    fwd = np.zeros((m - 1, m))
    if m > 1:
        fwd[:, 1:] = np.eye(m - 1) / s
    inv_mat = np.zeros((m, m - 1))
    if m > 1:
        inv_mat[1:, :] = np.eye(m - 1) * s
    inv_shift = np.zeros(m)
    inv_shift[0] = x
    inverse = AffineMap(inv_mat, inv_shift)
    fx = AffineMap(fwd, np.zeros(m - 1), inverse)
    object.__setattr__(inverse, "inverse", fx)
    return fx


def face_map(face: Face) -> AffineMap:
    """Canonical isomorphism from a k-face of the corner simplex onto the
    corner k-simplex.

    Faces containing the origin are axis-aligned and get the isometric
    coordinate-selection map; the remaining faces get the probability-style
    map that drops their first vertex coordinate.
    """
    m, k = face.m, face.dim
    vs = face.vertex_subset
    if k == 0:
        v = face.vertex_coords()[0]
        fwd = AffineMap(np.zeros((0, m)), np.zeros(0))
        inv = AffineMap(np.zeros((m, 0)), v)
        object.__setattr__(fwd, "inverse", inv)
        object.__setattr__(inv, "inverse", fwd)
        return fwd
    if vs[0] == 0:
        axes = [i - 1 for i in vs[1:]]             # e_i has coordinate i-1
        fwd_mat = np.zeros((k, m))
        for r, a in enumerate(axes):
            fwd_mat[r, a] = 1.0
        inv_mat = fwd_mat.T.copy()
        inv = AffineMap(inv_mat, np.zeros(m))
        fwd = AffineMap(fwd_mat, np.zeros(k), inv)
    else:
        axes = [i - 1 for i in vs]                 # k+1 coordinate axes, sum = 1
        fwd_mat = np.zeros((k, m))
        for r, a in enumerate(axes[1:]):
            fwd_mat[r, a] = 1.0
        inv_mat = np.zeros((m, k))
        inv_shift = np.zeros(m)
        inv_shift[axes[0]] = 1.0
        inv_mat[axes[0], :] = -1.0
        for r, a in enumerate(axes[1:]):
            inv_mat[a, r] = 1.0
        inv = AffineMap(inv_mat, inv_shift)
        fwd = AffineMap(fwd_mat, np.zeros(k), inv)
    object.__setattr__(inv, "inverse", fwd)
    return fwd


def enumerate_k_faces(m: int, k: int):
    """All k-faces of the corner m-simplex with their maps onto the corner
    k-simplex; C(m+1, k+1) entries."""
    if k > m:
        raise ValueError("k > m")
    return [(f, face_map(f)) for f in all_faces(m, k)]


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
