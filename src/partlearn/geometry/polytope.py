"""Core geometric value types: V-polytopes, H-polytopes, faces.

Everything is a plain immutable-by-convention dataclass over numpy arrays.
Points are 1-d float arrays; a 0-length array is the single point of the
zero-dimensional simplex.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from ..predicates import ETA, as_point


@dataclass(frozen=True, eq=False)
class VPolytope:
    """Convex polytope given as the hull of a vertex list.

    ``vertices`` is a (v, m) array.  The empty polytope has v == 0.  After
    canonicalization (see :func:`partlearn.geometry.hull.convex_hull`) no
    vertex lies in the hull of the others.
    """

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2:
            v = v.reshape(len(v), -1) if len(v) else v.reshape(0, 0)
        object.__setattr__(self, "vertices", v)

    @property
    def dim(self) -> int:
        """Ambient dimension m."""
        return self.vertices.shape[1]

    @property
    def is_empty(self) -> bool:
        return self.vertices.shape[0] == 0

    def affine_dim(self, tol: float = 1e-7) -> int:
        """Dimension of the affine hull of the vertices."""
        if self.is_empty:
            return -1
        d = self.vertices - self.vertices[0]
        if d.shape[0] == 1:
            return 0
        s = np.linalg.svd(d, compute_uv=False)
        scale = max(1.0, float(s[0]) if s.size else 1.0)
        return int(np.sum(s > tol * scale))

    def __len__(self) -> int:
        return self.vertices.shape[0]


def empty_polytope(m: int) -> VPolytope:
    return VPolytope(np.zeros((0, m)))


@dataclass(frozen=True, eq=False)
class HPolytope:
    """Intersection of halfspaces ``normals @ x >= offsets``.

    Normals are stored with unit l2 norm; rows with (near-)zero normal are
    rejected.
    """

    normals: np.ndarray
    offsets: np.ndarray

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.normals, dtype=float))
        b = np.atleast_1d(np.asarray(self.offsets, dtype=float))
        if a.shape[0] != b.shape[0]:
            raise ValueError("row count mismatch between normals and offsets")
        norms = np.linalg.norm(a, axis=1)
        if np.any(norms < ETA):
            raise ValueError("halfspace with zero normal")
        a = a / norms[:, None]
        b = b / norms
        object.__setattr__(self, "normals", a)
        object.__setattr__(self, "offsets", b)

    @property
    def dim(self) -> int:
        return self.normals.shape[1]

    @property
    def nrows(self) -> int:
        return self.normals.shape[0]

    def contains(self, x, tol: float = ETA) -> bool:
        x = as_point(x)
        return bool(np.all(self.normals @ x >= self.offsets - tol))

    def residuals(self, pts: np.ndarray) -> np.ndarray:
        """Signed slack ``normals @ x - offsets`` for a (N, m) point block."""
        return np.asarray(pts, dtype=float) @ self.normals.T - self.offsets


def corner_simplex_hpolytope(m: int) -> HPolytope:
    """The corner simplex {x >= 0, sum(x) <= 1} as an H-polytope."""
    if m < 1:
        raise ValueError("m >= 1 required for an H-representation")
    normals = np.vstack([np.eye(m), -np.ones((1, m))])
    offsets = np.concatenate([np.zeros(m), [-1.0]])
    return HPolytope(normals, offsets)


def corner_simplex_vertices(m: int) -> np.ndarray:
    """Vertices of the corner simplex: the origin and the unit basis points."""
    if m == 0:
        return np.zeros((1, 0))
    return np.vstack([np.zeros((1, m)), np.eye(m)])


@dataclass(frozen=True)
class Face:
    """A k-face of the corner simplex, named by simplex-vertex indices.

    Index 0 is the origin; index i in 1..m is the basis vertex e_i.
    """

    vertex_subset: tuple
    m: int

    def __post_init__(self):
        vs = tuple(sorted(int(i) for i in self.vertex_subset))
        if len(set(vs)) != len(vs):
            raise ValueError("repeated vertex index")
        if vs and (vs[0] < 0 or vs[-1] > self.m):
            raise ValueError("vertex index out of range")
        object.__setattr__(self, "vertex_subset", vs)

    @property
    def dim(self) -> int:
        return len(self.vertex_subset) - 1

    def vertex_coords(self) -> np.ndarray:
        """Coordinates of the face's vertices inside the ambient simplex."""
        verts = corner_simplex_vertices(self.m)
        return verts[list(self.vertex_subset)]


def all_faces(m: int, k: int):
    """All k-dimensional faces of the corner simplex, C(m+1, k+1) of them."""
    if k > m or k < 0:
        raise ValueError("need 0 <= k <= m")
    for subset in itertools.combinations(range(m + 1), k + 1):
        yield Face(subset, m)
