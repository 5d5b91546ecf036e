"""Sound one-sided verification that hull unions form an eps-net of a region.

The verifier refines axis-aligned boxes over the region, pruning boxes whose
every point is provably within eps of some hull (distances to hulls are
1-Lipschitz) and descending to a resolution floor of eps/4 box radius, where
an exact distance at a region point of at most eps/2 certifies the box.
This is equivalent in guarantees to checking a deterministic grid of mesh
eps/2: a "close" verdict holds for the continuum by the triangle inequality,
while a "not close" verdict is conservative and carries a witness point.
The refinement is the only path to a verdict.  It stops at the first box
that lies wholly beyond eps of every hull, or at the first floor box whose
low corner lies beyond eps/2; that low corner, a region point, is the
witness.  A box holding a point beyond eps of every hull is never pruned,
so it ends in one of those two ways.

Regions are slabs of the corner simplex (the whole simplex being the [0, 1]
slab) or, as a desk-scale fallback, arbitrary V-polytopes checked on a
barycentric lattice.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .geometry import VPolytope, diameter
from .predicates import ETA

MAX_CELLS = 2_000_000     # boxes one verify_eps_net call may refine


class CellCapError(RuntimeError):
    """Raised when a coverage refinement would examine more than MAX_CELLS boxes."""


@dataclass(frozen=True)
class SimplexSlab:
    """The part of the corner m-simplex with first coordinate in [lo, hi]."""

    m: int
    lo: float = 0.0
    hi: float = 1.0

    @property
    def is_empty(self) -> bool:
        if self.m == 0:
            return False
        return self.lo > min(self.hi, 1.0) + ETA or self.hi < -ETA


@dataclass
class CoverageReport:
    """Verdict of `verify_eps_net`.

    ``cells_touched`` counts the boxes the refinement examined (lattice
    points on the V-polytope path); it is 0 only when no box was examined:
    an empty or 0-dimensional region, or no hulls.
    """

    eps: float
    is_close: bool
    witness: np.ndarray | None
    checked_resolution: float
    witness_distance: float | None = None
    cells_touched: int = 0

    def to_json(self) -> str:
        return json.dumps({
            "eps": self.eps,
            "is_close": self.is_close,
            "witness": None if self.witness is None else list(map(float, self.witness)),
            "checked_resolution": self.checked_resolution,
            "witness_distance": self.witness_distance,
            "cells_touched": self.cells_touched,
        })


def _min_upper_bounds(hulls, pts):
    """Pointwise min over (non-empty) hulls of the sampled-point distance
    upper bounds."""
    out = np.full(pts.shape[0], np.inf)
    for h in hulls:
        np.minimum(out, h.upper_bounds(pts), out=out)
    return out


def _min_dist_exact(hulls, pts, cap=None):
    """Min distance over (non-empty) hulls; hulls whose lower bound already
    exceeds the running minimum (or cap) are skipped."""
    out = np.full(pts.shape[0], np.inf)
    for h in hulls:
        off = h.facet_offsets(pts)
        lb = h.lower_bounds(pts, offsets=off)
        todo = lb < out if cap is None else (lb < np.minimum(out, cap))
        if todo.any():
            d = h.distances(pts[todo], offsets=None if off is None else off[todo])
            out[todo] = np.minimum(out[todo], d)
    return out


def verify_eps_net(region, hulls, eps: float) -> CoverageReport:
    """Check that every region point is within eps of the union of
    ``hulls``, a list of `PointHull`s."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    hulls = [h for h in hulls if not h.is_empty]
    if isinstance(region, VPolytope):
        return _verify_on_lattice(region, hulls, eps)
    if not isinstance(region, SimplexSlab):
        raise TypeError("region must be a SimplexSlab or VPolytope")
    if region.is_empty:
        return CoverageReport(eps, True, None, eps / 2)
    m = region.m
    if m == 0:
        ok = bool(hulls)
        return CoverageReport(eps, ok, None if ok else np.zeros(0), eps / 2, None if ok else np.inf)
    if not hulls:
        w = np.zeros(m)
        w[0] = max(0.0, region.lo)
        return CoverageReport(eps, False, w, eps / 2, np.inf)

    lo0 = np.zeros(m)
    hi0 = np.ones(m)
    lo0[0] = min(max(region.lo, 0.0), 1.0)
    hi0[0] = min(max(region.hi, 0.0), 1.0)
    los = lo0[None, :]
    his = hi0[None, :]
    floor_r = eps / 4.0
    cells_touched = 0

    while los.shape[0]:
        cells_touched += los.shape[0]
        if cells_touched > MAX_CELLS:
            raise CellCapError(f"coverage refinement exceeded the cap of {MAX_CELLS} boxes")
        # feasible boxes: the low corner is the canonical region point
        feas = los.sum(axis=1) <= 1.0 + ETA
        los, his = los[feas], his[feas]
        if not los.shape[0]:
            break
        centers = 0.5 * (los + his)
        radii = 0.5 * np.linalg.norm(his - los, axis=1)
        up = _min_upper_bounds(hulls, centers)
        alive = up + radii > eps
        if alive.any():
            # boxes wholly inside a hull are covered at any scale
            for h in hulls:
                idx = np.where(alive)[0]
                if idx.size == 0:
                    break
                alive[idx[h.contains_boxes(los[idx], his[idx])]] = False
        los, his, centers, radii = los[alive], his[alive], centers[alive], radii[alive]
        if not los.shape[0]:
            break
        # once cells reach eps scale, exact center distances settle them
        small = radii <= 4.0 * eps
        if small.any():
            d = _min_dist_exact(hulls, centers[small], cap=eps + float(radii[small].max()))
            covered = d + radii[small] <= eps
            definitely_far = d - radii[small] > eps
            if definitely_far.any():
                sub = np.where(small)[0][definitely_far]
                w = los[sub[0]]
                dw = float(_min_dist_exact(hulls, w[None, :])[0])
                return CoverageReport(eps, False, w.copy(), eps / 2, dw, cells_touched)
            at_floor = radii[small] <= floor_r
            undecided = at_floor & ~covered
            if undecided.any():
                # grid floor rule: a region point within eps/2 certifies the box
                sub = np.where(small)[0][undecided]
                dw = _min_dist_exact(hulls, los[sub])
                if (dw > eps / 2).any():
                    j = int(np.argmax(dw))
                    return CoverageReport(eps, False, los[sub[j]].copy(), eps / 2,
                                          float(dw[j]), cells_touched)
            drop = np.where(small)[0][covered | at_floor]
            alive = np.ones(los.shape[0], dtype=bool)
            alive[drop] = False
            los, his = los[alive], his[alive]
        if not los.shape[0]:
            break
        axis = np.argmax(his - los, axis=1)
        mid = 0.5 * (los[np.arange(len(los)), axis] + his[np.arange(len(his)), axis])
        left_hi = his.copy()
        left_hi[np.arange(len(his)), axis] = mid
        right_lo = los.copy()
        right_lo[np.arange(len(los)), axis] = mid
        los = np.vstack([los, right_lo])
        his = np.vstack([left_hi, his])
    return CoverageReport(eps, True, None, eps / 2, cells_touched=cells_touched)


def _section_hole_radius(ys: np.ndarray, top: float) -> float:
    """Largest distance from a point of [0, top] to a sorted sample set."""
    if top <= 0:
        return 0.0 if ys.size else top
    if ys.size == 0:
        return top
    ys = np.sort(ys)
    holes = [max(ys[0], 0.0), max(top - ys[-1], 0.0)]
    if ys.size > 1:
        holes.append(float(np.diff(ys).max()) / 2.0)
    return max(holes)


def slab_certificate_2d(nets_l: dict, nets_r: dict, t_l: float, t_r: float,
                        a: float, b: float, eps: float) -> bool:
    """Sound coverage certificate for a slab of the corner 2-simplex.

    The per-label hulls are quadrilaterals spanned by the label's points at
    the two bracketing sections t_l <= a and t_r >= b (columns (t, y)).
    Certifies either through the spanning-interval chain (labels present at
    both sections, stacked in a consistent transverse order, with small
    section gaps: gaps interpolate linearly so the endpoint values bound the
    interior) or through nearness of every slab point to one fully covered
    section.  A False verdict is conservative.
    """
    def intervals(net):
        return {lbl: (float(p[:, 1].min()), float(p[:, 1].max()))
                for lbl, p in net.items() if len(p)}

    iv_l, iv_r = intervals(nets_l), intervals(nets_r)

    # certificate A: spanning chain
    spanning = sorted(set(iv_l) & set(iv_r), key=lambda lbl: iv_l[lbl][0])
    if spanning:
        ls_l = [iv_l[lbl][0] for lbl in spanning]
        rs_l = [iv_l[lbl][1] for lbl in spanning]
        ls_r = [iv_r[lbl][0] for lbl in spanning]
        rs_r = [iv_r[lbl][1] for lbl in spanning]
        ordered = all(ls_r[i] <= ls_r[i + 1] + ETA for i in range(len(spanning) - 1)) and \
            all(rs_l[i] <= rs_l[i + 1] + ETA for i in range(len(spanning) - 1)) and \
            all(rs_r[i] <= rs_r[i + 1] + ETA for i in range(len(spanning) - 1))
        if ordered:
            ok = ls_l[0] <= eps and ls_r[0] <= eps \
                and (1.0 - t_l) - rs_l[-1] <= eps and (1.0 - t_r) - rs_r[-1] <= eps
            for i in range(len(spanning) - 1):
                if ls_l[i + 1] - rs_l[i] > 2 * eps or ls_r[i + 1] - rs_r[i] > 2 * eps:
                    ok = False
                    break
            if ok:
                return True

    # certificate B: every slab point close to a fully covered section
    hole_l = _section_hole_radius(np.concatenate([p[:, 1] for p in nets_l.values()])
                                  if nets_l else np.zeros(0), 1.0 - t_l)
    hole_r = _section_hole_radius(np.concatenate([p[:, 1] for p in nets_r.values()])
                                  if nets_r else np.zeros(0), 1.0 - t_r)
    mid = 0.5 * (t_l + t_r)
    cand = [w for w in (a, b, mid) if a <= w <= b]
    W = max(min(t - t_l, t_r - t) for t in cand)
    return float(np.hypot(W, max(hole_l, hole_r) + W)) <= eps


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of length `parts` summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def unit_step(spacing: float) -> float:
    """The largest step 1/K (K a positive integer) not above ``spacing``,
    so that the lattice reaches the simplex's far facets."""
    return 1.0 / math.ceil(1.0 / spacing - 1e-9)


def _lattice_steps(spacing: float) -> int:
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    return int(np.floor(1.0 / spacing + 1e-12))


def lattice_count(d: int, spacing: float) -> int:
    """Points of simplex_lattice(d, spacing), without building it.

    Stars-and-bars: with K = floor(1/spacing) steps there are C(K+d, d).
    """
    return math.comb(_lattice_steps(spacing) + d, d)


def simplex_lattice(d: int, spacing: float, max_points: int = 20_000_000) -> np.ndarray:
    """Points of (spacing Z)^d inside the corner d-simplex, lex ordered."""
    if d == 0:
        return np.zeros((1, 0))
    K = _lattice_steps(spacing)
    count = math.comb(K + d, d)
    if count > max_points:
        raise ValueError(f"lattice of {count} points exceeds the cap")
    if d <= 3:
        axes = [np.arange(K + 1)] * d
        grid = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(d, -1).T
        grid = grid[grid.sum(axis=1) <= K]
        return grid.astype(float) * spacing
    out = np.empty((count, d))
    row = 0
    for combo in _compositions(K, d + 1):
        out[row] = np.array(combo[:d], dtype=float) * spacing
        row += 1
    return out


def barycentric_lattice(p: VPolytope, mesh: float, max_points: int = 500_000) -> np.ndarray:
    """Deterministic grid of p with l2 mesh at most `mesh`."""
    v = len(p)
    if v == 0:
        return np.zeros((0, p.dim))
    if v == 1:
        return p.vertices.copy()
    diam = diameter(p)
    if diam <= mesh:
        return p.vertices.copy()
    K = int(np.ceil(v * diam / mesh))
    from math import comb
    if comb(K + v - 1, v - 1) > max_points:
        raise ValueError("barycentric lattice beyond the point cap")
    weights = np.array(list(_compositions(K, v)), dtype=float) / K
    return weights @ p.vertices


def _verify_on_lattice(region: VPolytope, hulls, eps: float) -> CoverageReport:
    if region.is_empty:
        return CoverageReport(eps, True, None, eps / 2)
    pts = barycentric_lattice(region, eps / 2)
    if not hulls:
        return CoverageReport(eps, False, pts[0], eps / 2, np.inf)
    up = _min_upper_bounds(hulls, pts)
    todo = up > eps / 2
    d = up.copy()
    if todo.any():
        d[todo] = _min_dist_exact(hulls, pts[todo], cap=eps)
    worst = int(np.argmax(d))
    if d[worst] <= eps / 2:
        return CoverageReport(eps, True, None, eps / 2, cells_touched=len(pts))
    return CoverageReport(eps, False, pts[worst].copy(), eps / 2, float(d[worst]), len(pts))
