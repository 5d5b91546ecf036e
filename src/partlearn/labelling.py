"""Empirical labellings: the learner's point sets, hulls, and verifiers.

An empirical labelling stores every oracle-labelled point under its raw
label, a union-find over labels (labels merged when the ground truth forces
cells to coincide), and cached hulls per merged class.  Closeness checks
delegate to the coverage verifier; slice checks use only the points at the
two endpoint coordinates of the slice, which is the quantity the learning
algorithms reason about.
"""

from __future__ import annotations

import json

import numpy as np

from .coverage import CoverageReport, SimplexSlab, verify_eps_net
from .geometry import PointHull, VPolytope, convex_hull, distance_to_hull, empty_polytope
from .predicates import ETA, as_point, in_corner_simplex


class EmpiricalLabelling:
    """Per-label queried points with merge bookkeeping and hull caches."""

    def __init__(self, m: int, n: int):
        if n < 1 or m < 0:
            raise ValueError("need n >= 1, m >= 0")
        self.m = m
        self.n = n
        self._points = {lbl: [] for lbl in range(1, n + 1)}   # label -> list of (k, m) blocks
        self._parent = list(range(n + 1))                      # union-find over 1..n
        self._members = {lbl: [lbl] for lbl in range(1, n + 1)}  # root -> sorted raw labels
        self._hull_cache = {}
        self._pointhull_cache = {}

    # -- union-find ---------------------------------------------------------
    def find(self, label: int) -> int:
        r = label
        while self._parent[r] != r:
            r = self._parent[r]
        while self._parent[label] != r:
            self._parent[label], label = r, self._parent[label]
        return r

    def merge_labels(self, i: int, j: int) -> None:
        """Merge the classes of labels i and j (kept root is the smaller)."""
        if i == j:
            raise ValueError("cannot merge a label with itself")
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return
        lo, hi = min(ri, rj), max(ri, rj)
        self._parent[hi] = lo
        self._members[lo] = sorted(self._members[lo] + self._members.pop(hi))
        self._hull_cache.clear()
        self._pointhull_cache.clear()

    def merge_classes(self) -> list:
        """Current classes as sorted lists of raw labels, one per root."""
        return [list(v) for _, v in sorted(self._members.items())]

    # -- point bookkeeping --------------------------------------------------
    def add_query(self, x, label: int) -> None:
        """Record one oracle-labelled point."""
        if not 1 <= label <= self.n:
            raise ValueError("label out of range")
        x = as_point(x)
        if x.size != self.m:
            raise ValueError("dimension mismatch")
        if not in_corner_simplex(x, tol=1e-7):
            raise ValueError("point outside the simplex")
        self._points[label].append(x.reshape(1, -1))
        self._invalidate(label)

    def add_block(self, pts, label: int) -> None:
        """Record a block of points that all received the same label."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[0] == 0:
            return
        if pts.shape[1] != self.m:
            raise ValueError("dimension mismatch")
        if not 1 <= label <= self.n:
            raise ValueError("label out of range")
        self._points[label].append(pts)
        self._invalidate(label)

    def _invalidate(self, label: int) -> None:
        root = self.find(label)
        self._hull_cache.pop(root, None)
        self._pointhull_cache.pop(root, None)

    def points_of(self, label: int, merged: bool = True) -> np.ndarray:
        """All points of a label (or of its merged class)."""
        members = self._members[self.find(label)] if merged else [label]
        blocks = [b for l in members for b in self._points[l]]
        if not blocks:
            return np.zeros((0, self.m))
        return np.vstack(blocks)

    def total_points(self) -> int:
        return sum(b.shape[0] for blocks in self._points.values() for b in blocks)

    def class_roots(self) -> list:
        return sorted(self._members)

    def hull(self, label: int) -> VPolytope:
        root = self.find(label)
        if root not in self._hull_cache:
            pts = self.points_of(root)
            self._hull_cache[root] = convex_hull(pts) if len(pts) else empty_polytope(self.m)
        return self._hull_cache[root]

    def hulls(self) -> dict:
        return {root: self.hull(root) for root in self.class_roots()}

    def point_hull(self, label: int) -> PointHull:
        root = self.find(label)
        if root not in self._pointhull_cache:
            self._pointhull_cache[root] = PointHull(self.hull(root).vertices)
        return self._pointhull_cache[root]

    def compress(self) -> None:
        """Replace each class's point blocks by its hull vertices.

        The hulls (and hence every verdict derived from them) are unchanged;
        interior points are dropped to bound memory on long runs.
        """
        for members in self.merge_classes():
            hull = self.hull(members[0])
            for l in members:
                self._points[l] = []
            if not hull.is_empty:
                self._points[members[0]] = [hull.vertices.copy()]

    # -- serialization ------------------------------------------------------
    def to_json(self) -> str:
        merges = []
        for lbl in range(1, self.n + 1):
            r = self.find(lbl)
            if r != lbl:
                merges.append([r, lbl])
        return json.dumps({
            "m": self.m,
            "n": self.n,
            "points": {str(l): np.vstack(self._points[l]).tolist() if self._points[l] else []
                       for l in range(1, self.n + 1)},
            "merges": merges,
        })

    @classmethod
    def from_json(cls, text: str) -> "EmpiricalLabelling":
        d = json.loads(text)
        lab = cls(d["m"], d["n"])
        for l_str, pts in d["points"].items():
            if pts:
                lab.add_block(np.array(pts, dtype=float), int(l_str))
        for i, j in d.get("merges", []):
            lab.merge_labels(int(i), int(j))
        return lab


def add_query(l: EmpiricalLabelling, x, label: int) -> EmpiricalLabelling:
    l.add_query(x, label)
    return l


def merge_labels(l: EmpiricalLabelling, i: int, j: int) -> EmpiricalLabelling:
    l.merge_labels(i, j)
    return l


def is_eps_close(l: EmpiricalLabelling, region, eps: float) -> CoverageReport:
    """Sound check that the union of class hulls is an eps-net of region.

    ``region`` may be a SimplexSlab, a VPolytope, or None for the whole
    simplex.
    """
    if region is None:
        region = SimplexSlab(l.m, 0.0, 1.0)
    hulls = [l.point_hull(root) for root in l.class_roots()]
    return verify_eps_net(region, hulls, eps)


def section_points(l: EmpiricalLabelling, coords, tol: float = ETA) -> dict:
    """Per-class points whose first coordinate matches one of ``coords``."""
    out = {}
    for root in l.class_roots():
        pts = l.points_of(root)
        if not len(pts):
            continue
        if l.m == 0:
            out[root] = pts
            continue
        mask = np.zeros(len(pts), dtype=bool)
        for c in coords:
            mask |= np.abs(pts[:, 0] - c) <= tol
        if mask.any():
            out[root] = pts[mask]
    return out


def is_slice_covered(l: EmpiricalLabelling, interval, eps: float) -> bool:
    """Slice-coverage test from endpoint cross-section points only.

    Builds per-class hulls of the points at the two endpoint coordinates of
    ``interval`` and checks that their union is an eps-net of the slab.
    """
    x, y = float(interval[0]), float(interval[1])
    if not 0.0 <= x <= y <= 1.0 + ETA:
        raise ValueError("need 0 <= x <= y <= 1")
    nets = section_points(l, (x, y))
    hulls = [PointHull(p) for p in nets.values()]
    report = verify_eps_net(SimplexSlab(l.m, x, y), hulls, eps)
    return report.is_close


def voronoi_labels(x, l: EmpiricalLabelling, slack: float = 0.0) -> set:
    """Classes within ``slack`` of x's nearest hull; `voronoi_band_masks`' scalar reference."""
    x = as_point(x)
    dists = {}
    for root in l.class_roots():
        hull = l.hull(root)
        if hull.is_empty:
            continue
        d, _ = distance_to_hull(x, hull)
        dists[root] = d
    if not dists:
        raise ValueError("all hulls empty")
    best = min(dists.values())
    return {root for root, d in dists.items() if d <= best + slack + ETA}


def voronoi_band_masks(dists: np.ndarray, bits, sigma: float) -> np.ndarray:
    """Bitmask per point of the classes within sigma of its nearest class.

    ``dists`` is a (classes, points) distance table and ``bits`` holds one
    bit pattern per class; a point's mask is the union of the patterns of
    the classes whose distance is at most the point's minimum + sigma + ETA.
    """
    near = dists <= dists.min(axis=0) + sigma + ETA
    bits = np.asarray(bits, dtype=np.int64)[:, None]
    return np.bitwise_or.reduce(np.where(near, bits, 0), axis=0)


CONFLICT_MARGIN = 1e-6


def interior_conflict(l: EmpiricalLabelling, tol: float = CONFLICT_MARGIN):
    """A pair of classes whose hulls overlap beyond a shared boundary.

    Searches for classes i != j and a stored vertex z of class j strictly
    inside the full-dimensional hull of class i (its facet offsets shrunk by
    tol).  Returns (i, j, z) or None.

    The margin sits well above the geometric overshoot of tie-band answers
    (points whose envelope values tie within the predicate tolerance can
    land a few 1e-9 past the true boundary) and well below the cell-scale
    overlap of genuinely coinciding regions.
    """
    roots = l.class_roots()
    for i in roots:
        if l.hull(i).affine_dim() < l.m:
            continue
        hull_i = l.point_hull(i)
        for j in roots:
            if j == i:
                continue
            vj = l.hull(j).vertices
            if not len(vj):
                continue
            cand = vj
            if 1 < len(vj) <= 40:
                # pair midpoints are still points of the hull; they catch
                # overlaps whose witnesses are not vertices
                ii, jj = np.triu_indices(len(vj), k=1)
                cand = np.vstack([vj, 0.5 * (vj[ii] + vj[jj])])
            offsets = hull_i.facet_offsets(cand)
            if offsets is None:     # no facet form: m == 0
                break
            inside = offsets.max(axis=1) <= -tol
            if inside.any():
                z = cand[int(np.argmax(inside))]
                return i, j, z
    return None
