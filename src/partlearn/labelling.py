"""Empirical labellings: the learner's point sets, hulls, and verifiers.

An empirical labelling stores every oracle-labelled point under its raw
label, a union-find over labels (labels merged when the ground truth forces
cells to coincide), and one cached `PointHull` per merged class.  Closeness
checks delegate to the coverage verifier; slice checks use only the points
at the two endpoint coordinates of the slice, which is the quantity the
learning algorithms reason about.
"""

from __future__ import annotations

import json

import numpy as np

from .coverage import CoverageReport, SimplexSlab, verify_eps_net
from .geometry import PointHull, VPolytope, snap_points
from .predicates import ETA, as_point


class EmpiricalLabelling:
    """Per-label queried points with merge bookkeeping and a hull cache."""

    def __init__(self, m: int, n: int):
        if n < 1 or m < 0:
            raise ValueError("need n >= 1, m >= 0")
        self.m = m
        self.n = n
        self._points = {lbl: [] for lbl in range(1, n + 1)}   # label -> list of (k, m) blocks
        self._parent = list(range(n + 1))                      # union-find over 1..n
        self._members = {lbl: [lbl] for lbl in range(1, n + 1)}  # root -> sorted raw labels
        self._hulls = {}                                        # root -> PointHull

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
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError("label out of range")
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return
        lo, hi = min(ri, rj), max(ri, rj)
        self._parent[hi] = lo
        self._members[lo] = sorted(self._members[lo] + self._members.pop(hi))
        self._hulls.clear()

    def merge_classes(self) -> list:
        """Current classes as sorted lists of raw labels, one per root."""
        return [list(v) for _, v in sorted(self._members.items())]

    # -- point bookkeeping --------------------------------------------------
    def add_query(self, x, label: int) -> None:
        """Record one oracle-labelled point."""
        self.add_block(as_point(x)[None, :], label)

    def add_block(self, pts, label: int) -> None:
        """Record a block of points that all received the same label.

        Every point must be finite and in the corner simplex to within 1e-7.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if pts.shape[0] == 0:
            return
        if pts.shape[1] != self.m:
            raise ValueError("dimension mismatch")
        if not 1 <= label <= self.n:
            raise ValueError("label out of range")
        if not np.isfinite(pts).all():
            raise ValueError("point has non-finite entries")
        if (pts < -1e-7).any() or (pts.sum(axis=1) > 1.0 + 1e-7).any():
            raise ValueError("point outside the simplex")
        self._points[label].append(pts)
        self._hulls.pop(self.find(label), None)

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

    def point_hull(self, label: int) -> PointHull:
        """The hull of a label's class, built once per change to the class."""
        root = self.find(label)
        if root not in self._hulls:
            self._hulls[root] = PointHull(snap_points(self.points_of(root)))
        return self._hulls[root]

    def hull(self, label: int) -> VPolytope:
        """The vertices of `point_hull`: exactly ``convex_hull(points_of(label))``."""
        h = self.point_hull(label)
        return VPolytope(h.points[h.vertex_indices])

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
    hulls = [PointHull(p) for p in section_points(l, (x, y)).values()]
    return verify_eps_net(SimplexSlab(l.m, x, y), hulls, eps).is_close


def voronoi_labels(x, l: EmpiricalLabelling, slack: float = 0.0) -> set:
    """Classes within ``slack`` of x's nearest hull; `voronoi_band_masks`' scalar reference."""
    x = as_point(x)[None, :]
    if x.shape[1] != l.m:
        raise ValueError("dimension mismatch")
    dists = {}
    for root in l.class_roots():
        h = l.point_hull(root)
        if not h.is_empty:
            dists[root] = float(h.distances(x)[0])
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

    Searches for classes i != j and a point z of class j's upper-bound
    sample (its hull's vertices and, for at most 40 of them, their pair
    midpoints, which catch overlaps not witnessed at a vertex) strictly
    inside the full-dimensional hull of class i (its facet offsets shrunk by
    tol).  Returns (i, j, z) or None.

    The margin sits well above the geometric overshoot of tie-band answers
    (points whose envelope values tie within the predicate tolerance can
    land a few 1e-9 past the true boundary) and well below the cell-scale
    overlap of genuinely coinciding regions.
    """
    roots = l.class_roots()
    for i in roots:
        hull_i = l.point_hull(i)
        if hull_i.k < l.m:
            continue
        for j in roots:
            if j == i or l.point_hull(j).is_empty:
                continue
            cand = l.point_hull(j)._upper_pts
            offsets = hull_i.facet_offsets(cand)
            if offsets is None:     # no facet form: m == 0
                break
            inside = offsets.max(axis=1) <= -tol
            if inside.any():
                z = cand[int(np.argmax(inside))]
                return i, j, z
    return None
