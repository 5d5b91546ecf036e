"""Sound one-sided verification that hull unions form an eps-net of a region.

The verifier refines axis-aligned boxes over the region, pruning boxes whose
every point is provably within eps of some hull (distances to hulls are
1-Lipschitz) and descending to a resolution floor of eps/4 box radius, where
an exact distance at a region point of at most eps/2 certifies the box.
This is equivalent in guarantees to checking a deterministic grid of mesh
eps/2: a "close" verdict holds for the continuum by the triangle inequality,
while a "not close" verdict is conservative and carries a witness point.
The refinement stops at the first box that lies wholly beyond eps of every
hull, or at the first floor box whose low corner lies beyond eps/2; that
low corner, a region point, is the witness.  A box holding a point beyond
eps of every hull is never pruned, so it ends in one of those two ways.

A cell stage runs before the refinement and decides a call from polytope
vertices alone.  The distance to a hull is convex, so its maximum over a
polytope lies at a vertex.  A slab is a prism with 2m vertices, its two
sections joined by m edges.  The slab is close when one hull lies within
eps/2 - ETA of every slab vertex, and not close, with that vertex as the
witness, when some slab vertex lies beyond eps + ETA of every hull.  With
exactly two hulls it is also close when both cells of one facet cut lie
within eps/2 - ETA of their own hulls.  Each cell's vertices are its slab
vertices and the plane's crossings of the slab edges.  Hulls are measured
by facet lower bounds first and exactly only where a bound cannot decide.
Any other call goes to the refinement.  The stage proves "close" at
eps/2, the refinement's floor radius, and not at eps, so that it decides
only calls the refinement decides the same way.  A region within eps/2 of
the union meets neither the floor rule nor the far rule.  A region point
beyond eps lies in a box that is never pruned.  So search paths, query
counts and certificates are those of the refinement alone; only the
witness and ``cells_touched`` of a cell-stage verdict differ.  Proving
"close" at eps instead decides more calls, but it turns some "not close"
verdicts of the refinement into "close", and a search then takes another
path.

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

    ``cells_touched`` counts the polytopes examined.  For a verdict of the
    cell stage that is the slab alone (1) or the slab and the two cells of
    its cut (3).  For a verdict of the box refinement it is the boxes of
    the tree down to the level where it stopped; a box a pass judged
    before its parent's verdict counts only when the parent split.  It is
    0 only when nothing was examined: an empty or 0-dimensional region, or
    no hulls.  The cell stage proves "close" at eps/2, the refinement's
    floor radius, so every verdict is the one the refinement alone gives.
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


def _slab_vertices(m: int, lo: float, hi: float) -> np.ndarray:
    """The 2m vertices of the slab with first coordinate in [lo, hi]: the
    section at lo, then the one at hi.  The section at t has the vertices
    ``t e_1`` and ``t e_1 + (1 - t) e_j`` for j >= 2."""
    V = np.zeros((2, m, m))
    V[:, :, 0] = np.array([[lo], [hi]])
    j = np.arange(1, m)
    V[0, j, j] = 1.0 - lo
    V[1, j, j] = 1.0 - hi
    return V.reshape(2 * m, m)


def _slab_edges(m: int) -> np.ndarray:
    """The m^2 edges of `_slab_vertices` as pairs of vertex rows: the edges
    of the two sections and the m edges joining them."""
    a, b = np.triu_indices(m, k=1)
    k = np.arange(m)
    return np.concatenate([np.stack([a, b], axis=1), np.stack([a + m, b + m], axis=1),
                           np.stack([k, k + m], axis=1)])


class _VertexDistances:
    """Distances from the slab vertices V to each hull: facet lower bounds
    ``lb`` for all, exact distances measured on demand and kept."""

    def __init__(self, hulls, V):
        self.hulls, self.V = hulls, V
        self.offsets = [h.facet_offsets(V) for h in hulls]
        self.lb = np.column_stack([h.lower_bounds(V, offsets=off)
                                   for h, off in zip(hulls, self.offsets)])
        self._exact = np.full(self.lb.shape, np.nan)

    def exact(self, k: int, rows: np.ndarray) -> np.ndarray:
        """Exact distances from the vertices of mask ``rows`` to hull k."""
        todo = rows & np.isnan(self._exact[:, k])
        if todo.any():
            off = self.offsets[k]
            self._exact[todo, k] = self.hulls[k].distances(
                self.V[todo], offsets=None if off is None else off[todo])
        return self._exact[rows, k]

    def within(self, k: int, rows: np.ndarray, r: float) -> bool:
        """Whether hull k lies within r of every vertex of mask ``rows``;
        measured only when no lower bound exceeds r."""
        return not (self.lb[rows, k] > r).any() and bool((self.exact(k, rows) <= r).all())

    def nearest(self, rows: np.ndarray, cap: float = np.inf) -> np.ndarray:
        """Distances from the vertices of mask ``rows`` to the nearest
        hull, exact where at most ``cap`` and elsewhere only known to
        exceed it; a hull is measured only at vertices where its bound is
        at most ``cap`` and below the nearest distance found so far."""
        best = np.full(self.V.shape[0], np.inf)
        for k in range(len(self.hulls)):
            todo = rows & (self.lb[:, k] <= cap) & (self.lb[:, k] < best)
            if todo.any():
                best[todo] = np.minimum(best[todo], self.exact(k, todo))
        return best[rows]


def _split_covers(vd: _VertexDistances, near: float) -> bool:
    """Whether, for two hulls, the two cells of one facet cut each lie
    within ``near`` of their own hull.

    The cut is the facet plane ``a.x = b`` of either hull whose margin, the
    least ``a.v - b`` over the other hull's vertices v, is largest.  The
    cut hull's cell is the slab's part with ``a.x <= b``, the other hull's
    cell the part with ``a.x >= b``; each cell's vertices are its slab
    vertices and the plane's crossings of the slab edges.
    """
    hulls, best = vd.hulls, None
    for i, h in enumerate(hulls):
        if vd.offsets[i] is None:
            continue
        other = hulls[1 - i]
        margin = h.facet_offsets(other.points[other.vertex_indices]).min(axis=0)
        f = int(np.argmax(margin))
        if best is None or margin[f] > best[0]:
            best = (margin[f], i, f)
    if best is None:
        return False
    _, i, f = best
    s = vd.offsets[i][:, f]
    if not (vd.within(i, s <= 0.0, near) and vd.within(1 - i, s >= 0.0, near)):
        return False
    edges = _slab_edges(vd.V.shape[1])
    u, v = edges[np.sign(s[edges[:, 0]]) * np.sign(s[edges[:, 1]]) < 0].T
    if not u.size:
        return True
    V = vd.V
    cross = V[u] + (s[u] / (s[u] - s[v]))[:, None] * (V[v] - V[u])
    every = np.ones(cross.shape[0], dtype=bool)
    return all(_VertexDistances([hulls[k]], cross).within(0, every, near) for k in (i, 1 - i))


def _cell_verdict(region, hulls, eps: float):
    """The cell stage: a verdict proven from the vertices of the slab or of
    the two cells of its cut, with ``cells_touched`` 1 or 3, or None to
    leave the call to the box refinement.  The module docstring gives its
    rules and why its verdicts are the refinement's."""
    m = region.m
    lo = min(max(region.lo, 0.0), 1.0)
    # a slab reversed by at most ETA is not empty: it is its section at lo
    hi = max(min(max(region.hi, 0.0), 1.0), lo)
    vd = _VertexDistances(hulls, _slab_vertices(m, lo, hi))
    near, far = eps / 2 - ETA, eps + ETA
    every = np.ones(2 * m, dtype=bool)
    if any(vd.within(k, every, near) for k in range(len(hulls))):
        return CoverageReport(eps, True, None, eps / 2, cells_touched=1)
    beyond = np.flatnonzero(vd.nearest(every, far) > far)
    if beyond.size:
        row = np.arange(2 * m) == beyond[0]
        dw = float(vd.nearest(row)[0])
        return CoverageReport(eps, False, vd.V[beyond[0]].copy(), eps / 2, dw, 1)
    if len(hulls) == 2 and _split_covers(vd, near):
        return CoverageReport(eps, True, None, eps / 2, cells_touched=3)
    return None


def verify_eps_net(region, hulls, eps: float) -> CoverageReport:
    """Check that every region point is within eps of the union of
    ``hulls``, a list of `PointHull`s: by the cell stage where it decides,
    else by the box refinement."""
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
    report = _cell_verdict(region, hulls, eps)
    return _refine_boxes(region, hulls, eps) if report is None else report


def _refine_boxes(region, hulls, eps: float) -> CoverageReport:
    """The box refinement of a non-empty slab of dimension m >= 1 against
    `PointHull`s of that dimension, at least one of them non-empty."""
    m = region.m
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
