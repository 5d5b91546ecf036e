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

Every box stands for its part in the simplex.  A box whose low corner lies
outside the simplex is dropped; every other box is clipped to the bounding
box of its part in the simplex, ``hi_i <= lo_i + max(1 - sum lo, 0)``,
since a point x of the box with ``sum x <= 1`` has
``x_i <= 1 - sum_{j != i} lo_j``.  The low corner stays the canonical
region point, so the covered, far and floor rules and the witnesses hold
for the clipped box as they did for the whole one, and splits act on it.
A box is inside a hull when its part in the simplex is
(`PointHull.contains_boxes`), so a box that sticks out across the
simplex's slanted facet ``sum x = 1`` can still be covered whole.

The tree is refined in passes.  A pass takes the frontier, one level of
boxes, and grows the subtree below it by the split rule alone (drop
infeasible boxes, clip, bisect the longest axis; a floor box has no
children) while the pass holds at most PASS_BOXES boxes; a larger frontier
is a pass of one level.  Every box of the pass is judged at once, and the
verdicts are then read level by level, breadth first: a box exists only
when its parent split, so a box judged before its parent's verdict counts,
and can stop the refinement, only when its parent splits.  A box's fate
depends only on the box and the hulls (the KD-tree, `PointHull`'s facet,
containment and distance kernels compute a row the same in any block), so
every report equals that of refining one level at a time, whatever the
pass holds.  Judging several levels at once pays numpy's fixed cost per
call once per pass and hull rather than once per level and hull.

Each pass bounds every box of radius at most 4 eps from above once: one
KD-tree over the sampled points of all hulls gives ``up``, the distance
from the box centre to the nearest sample.  Every sample lies in its hull,
so the union lies within ``up`` of the centre, and a box of radius r with
``up - r <= eps`` can never be far; a larger box has ``up + r > eps``
whatever ``up`` is, and is never tested far.  Exact centre distances are
then taken only at the (box, hull) pairs that can decide a box: hull h,
with facet lower bound ``lb``,
is measured when ``lb`` is below the box's running minimum and either h
could cover the box (``lb + r <= eps``) or the box may be far and h is not
beyond eps of the whole box (``lb - r <= eps``); a covered box is measured
against no further hull.  A skipped pair could not have changed the box's
covered, far or floor decision, so the same boxes split and every report
equals that of measuring every pair.

Regions are slabs of the corner simplex, the whole simplex being the
[0, 1] slab.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np
from scipy.spatial import cKDTree

from .predicates import ETA

MAX_CELLS = 2_000_000     # boxes one verify_eps_net call may refine
PASS_BOXES = 128          # boxes one refinement pass grows and evaluates at most


class CellCapError(RuntimeError):
    """Raised when a coverage refinement would examine more than MAX_CELLS boxes."""


@dataclass(frozen=True)
class SimplexSlab:
    """The part of the corner m-simplex with first coordinate in [lo, hi];
    ``lo > hi`` is the empty slab, a non-finite bound is an error."""

    m: int
    lo: float = 0.0
    hi: float = 1.0

    def __post_init__(self):
        for name in ("lo", "hi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"slab bound {name} must be finite, not {getattr(self, name)}")

    @property
    def is_empty(self) -> bool:
        if self.m == 0:
            return False
        return self.lo > min(self.hi, 1.0) + ETA or self.hi < -ETA


@dataclass
class CoverageReport:
    """Verdict of `verify_eps_net`.

    ``cells_touched`` counts the boxes of the refinement tree down to the
    level where it stopped; a box a pass judged before its parent's verdict
    counts only when the parent split.  It is 0 only when no box was
    examined: an empty or 0-dimensional region, or no hulls.
    """

    eps: float
    is_close: bool
    witness: np.ndarray | None
    checked_resolution: float
    witness_distance: float | None = None
    cells_touched: int = 0

    def to_json(self) -> str:
        return dataclass_json(self)


def _plain(value):
    """numpy arrays and scalars as the lists and numbers json writes."""
    if isinstance(value, (np.ndarray, np.generic)):
        return value.tolist()
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def dataclass_json(cert) -> str:
    """A certificate or report dataclass as one JSON object, its fields in
    declaration order."""
    return json.dumps(asdict(cert), default=_plain)


def _sample_tree(hulls):
    """One KD-tree over the upper-bound samples of all (non-empty) hulls.

    Every sample lies in its hull, so the distance from a point to its
    nearest sample bounds its distance to the hulls' union from above; it
    equals the minimum of the hulls' own `PointHull.upper_bounds`.
    """
    return cKDTree(np.vstack([h.samples for h in hulls]))


def _min_dist_exact(hulls, pts):
    """Min distance over (non-empty) hulls; hulls whose lower bound already
    exceeds the running minimum are skipped."""
    out = np.full(pts.shape[0], np.inf)
    for h in hulls:
        off = h.facet_offsets(pts)
        lb = h.lower_bounds(pts, offsets=off)
        todo = lb < out
        if todo.any():
            d = h.distances(pts[todo], offsets=None if off is None else off[todo])
            out[todo] = np.minimum(out[todo], d)
    return out


def _deciding_distances(hulls, centers, radii, far_ok, eps):
    """Centre distances to the hulls' union, measured only at the (box,
    hull) pairs that can decide a box (the module docstring gives which).

    ``d + r <= eps`` holds exactly when some hull covers the box, and
    ``d - r > eps`` on a ``far_ok`` box exactly when every hull is beyond
    eps of it; other values are only bounds.
    """
    d = np.full(centers.shape[0], np.inf)
    for h in hulls:
        open_ = d + radii > eps
        if not open_.any():
            break
        off = h.facet_offsets(centers)
        lb = h.lower_bounds(centers, offsets=off)
        todo = open_ & (lb < d) & ((lb + radii <= eps) | (far_ok & (lb - radii <= eps)))
        if todo.any():
            dh = h.distances(centers[todo], offsets=None if off is None else off[todo])
            d[todo] = np.minimum(d[todo], dh)
    return d


def _count_boxes(cells_touched: int, new: int) -> int:
    """``cells_touched + new``, checked against MAX_CELLS before the new
    boxes are made."""
    cells_touched += new
    if cells_touched > MAX_CELLS:
        raise CellCapError(f"coverage refinement exceeded the cap of {MAX_CELLS} boxes")
    return cells_touched


def _bisect(los, his):
    """Each box split across its longest axis: every low half in box
    order, then every high half."""
    n = los.shape[0]
    rows = np.arange(n)
    axis = np.argmax(his - los, axis=1)
    mid = 0.5 * (los[rows, axis] + his[rows, axis])
    los, his = np.concatenate([los, los]), np.concatenate([his, his])
    his[rows, axis] = mid
    los[rows + n, axis] = mid
    return los, his


def _grow_pass(los, his, floor_r):
    """The boxes of one pass: the frontier and the levels of its subtree
    below, grown while the pass holds at most PASS_BOXES boxes (a larger
    frontier is a pass of one level).

    Every box is clipped to the bounding box of its part in the simplex
    (a point x of the box there has ``x_i <= 1 - sum_{j != i} lo_j``);
    a box whose low corner, the canonical region point, lies outside the
    simplex is infeasible and has no children, and neither has a box at
    the floor radius.  The others are bisected, whatever their fate.
    Returns the boxes of all levels in one block with their feasibility,
    radii and parent rows (-1 in the frontier), and the level starts.
    """
    blocks, parent, starts = [], [np.full(los.shape[0], -1)], [0]
    while True:
        sums = los.sum(axis=1)
        feasible = sums <= 1.0 + ETA
        his = np.minimum(his, los + np.clip(1.0 - sums, 0.0, None)[:, None])
        widths = his - los
        radii = 0.5 * np.sqrt((widths * widths).sum(axis=1))
        blocks.append((los, his, feasible, radii))
        starts.append(starts[-1] + los.shape[0])
        grow = np.flatnonzero(feasible & (radii > floor_r))
        if not grow.size or starts[-1] + 2 * grow.size > PASS_BOXES:
            break
        parent.append(starts[-2] + np.concatenate([grow, grow]))
        los, his = _bisect(los[grow], his[grow])
    return (*(np.concatenate(col) for col in zip(*blocks)), np.concatenate(parent),
            np.array(starts))


def _box_fates(hulls, tree, los, his, feasible, radii, eps):
    """Masks of the boxes of a pass, each box judged on its own: ``far``,
    wholly beyond eps of every hull, and ``open_``, feasible and not
    covered (by the sample bound, a hull holding it or a centre distance).
    """
    centers = 0.5 * (los + his)
    open_ = feasible.copy()
    # a box of radius r > 4 eps has up + r > eps, whatever up is
    small = np.flatnonzero(feasible & (radii <= 4.0 * eps))
    up = tree.query(centers[small])[0]
    open_[small[up + radii[small] <= eps]] = False
    # boxes whose part in the simplex lies inside a hull are covered
    for h in hulls:
        idx = np.flatnonzero(open_)
        if idx.size == 0:
            break
        open_[idx[h.contains_boxes(los[idx], his[idx])]] = False
    far = np.zeros(los.shape[0], dtype=bool)
    keep = open_[small]
    small, up = small[keep], up[keep]
    if small.size:
        # once cells reach eps scale, exact center distances settle them
        r = radii[small]
        # the union lies within ``up`` of a centre, so no other box is far
        far_ok = up - r > eps
        d = _deciding_distances(hulls, centers[small], r, far_ok, eps)
        open_[small[d + r <= eps]] = False
        far[small] = far_ok & (d - r > eps)
    return far, open_


def verify_eps_net(region, hulls, eps: float) -> CoverageReport:
    """Check that every region point is within eps of the union of
    ``hulls``, a list of `PointHull`s."""
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if not isinstance(region, SimplexSlab):
        raise TypeError("region must be a SimplexSlab")
    hulls = [h for h in hulls if not h.is_empty]
    m = region.m
    for h in hulls:
        if h.m != m:
            raise ValueError(f"a hull lies in R^{h.m} but the region in R^{m}")
    if region.is_empty:
        return CoverageReport(eps, True, None, eps / 2)
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
    los, his = lo0[None, :], hi0[None, :]
    floor_r = eps / 4.0
    cells_touched = _count_boxes(0, 1)
    tree = _sample_tree(hulls)

    while True:
        los, his, feasible, radii, parent, starts = _grow_pass(los, his, floor_r)
        far, open_ = _box_fates(hulls, tree, los, his, feasible, radii, eps)
        at_floor = radii <= floor_r
        # resolved level by level: a box exists only when its parent split
        split = np.zeros(los.shape[0], dtype=bool)
        for s, e in zip(starts[:-1], starts[1:]):
            here = split[parent[s:e]] if s else np.ones(e - s, dtype=bool)
            hit = np.flatnonzero(here & far[s:e])
            if hit.size:
                w = los[s + hit[0]]
                dw = float(_min_dist_exact(hulls, w[None, :])[0])
                return CoverageReport(eps, False, w.copy(), eps / 2, dw, cells_touched)
            here &= open_[s:e]
            sub = s + np.flatnonzero(here & at_floor[s:e])
            if sub.size:
                # grid floor rule: a region point within eps/2 certifies the box
                dw = _min_dist_exact(hulls, los[sub])
                if (dw > eps / 2).any():
                    j = int(np.argmax(dw))
                    return CoverageReport(eps, False, los[sub[j]].copy(), eps / 2,
                                          float(dw[j]), cells_touched)
            split[s:e] = here & ~at_floor[s:e]
            n_split = int(split[s:e].sum())
            if not n_split:
                return CoverageReport(eps, True, None, eps / 2, cells_touched=cells_touched)
            cells_touched = _count_boxes(cells_touched, 2 * n_split)
        los, his = _bisect(los[s:e][split[s:e]], his[s:e][split[s:e]])


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


def _lattice_table(total: int, parts: int):
    """All nonnegative integer vectors of length ``parts`` with sum at most
    ``total``, as the rows of a table in lex order, and each row's
    remaining budget ``total - sum``.

    Built one coordinate at a time: each row so far is repeated once per
    value 0..left of the next coordinate, where left is its remaining budget.
    """
    table = np.zeros((1, 0), dtype=np.int64)
    left = np.array([total], dtype=np.int64)
    for _ in range(parts):
        rows = np.repeat(np.arange(left.size), left + 1)
        value = np.arange(rows.size) - np.repeat(np.cumsum(left + 1) - (left + 1), left + 1)
        table = np.column_stack([table[rows], value])
        left = left[rows] - value
    return table, left


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
    K = _lattice_steps(spacing)
    count = math.comb(K + d, d)
    if count > max_points:
        raise ValueError(f"lattice of {count} points exceeds the cap")
    return _lattice_table(K, d)[0] * spacing
