"""Sound one-sided verification that hull unions form an eps-net of a region.

Regions are slabs of the corner simplex, the whole simplex being the
[0, 1] slab.  The distance to a convex hull is convex and 1-Lipschitz, so
over a simplex its maximum lies at a vertex, and its values at two points
differ by at most their distance.

The verifier is a simplicial branch and bound.  A slab is a frustum of the
simplex: its sections at lo and hi are simplices with vertices a_0..a_{m-1}
and b_0..b_{m-1} (`_slab_vertices`), and the staircase triangulation splits
it into the m simplices a_0..a_k, b_k..b_{m-1} (`_staircase`).  They tile
the slab: the projective map ``x -> x / (1 - x_1)`` takes the slab to a
prism over the section simplex, a_j and b_j to its vertices over the j-th
corner, and simplices to simplices, and these are the cells of the prism's
staircase triangulation.  At hi = 1 the top section is the apex e_1, and
the one cell without a repeated vertex, the pyramid over the bottom
section, is the slab.

Each vertex's distances to the hulls are bounded once, and shared by every
cell that meets there (an edge's midpoint is made once): facet lower bounds
first, then, where a bound is at most eps + ETA, the distance to the hull's
nearest sample as an upper bound; exact distances are measured only where
the bounds cannot settle a cell's verdict (`_Distances.judge`).  The cells
are judged level by level, breadth first:

* a cell is close when one hull lies within eps - ETA of all its vertices,
  for then it lies within eps of every point of the cell;
* a vertex beyond eps + ETA of every hull ends the call "not close", with
  that vertex, a region point, as the witness;
* every other cell is bisected at the midpoint of its longest edge, unless
  its diameter, its longest edge, is at most the floor δ = FLOOR * eps.
  Such a cell ends the call "not close": every hull lies beyond eps - ETA
  of some vertex of the cell, so beyond eps - ETA - δ of all of them, and
  the witness, the floor cell vertex farthest from the union, shows a
  "not close" that is conservative by at most δ.

So "close" is proven at eps for the continuum.  Before the triangulation,
a call with exactly two hulls tries one facet cut (`_split_covers`): when
each of its two cells lies within eps - ETA of its own hull, the slab is
close.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .predicates import ETA

MAX_CELLS = 2_000_000     # simplices one verify_eps_net call may examine
FLOOR = 0.125             # δ / eps: a cell this small, neither close nor far, ends a call


class CellCapError(RuntimeError):
    """Raised when a coverage refinement would examine more than MAX_CELLS cells."""


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

    ``checked_resolution`` is the floor diameter δ = FLOOR * eps: a "close"
    is proven at eps, and a "not close" from the floor has a witness beyond
    eps - δ - ETA of every hull.  ``cells_touched`` counts the simplices
    examined: the staircase cells of the slab and the two halves of every
    cell bisected, down to the level where the call stopped, or 3 (the slab
    and the two cells of its cut) for a verdict of the two-hull facet cut.
    It is 0 only when nothing was examined: an empty or 0-dimensional
    region, or no hulls.
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


class _Distances:
    """Bounds on the distances from the refinement's vertices (the rows of
    V) to each hull, ``lb <= d <= ub``, tightened to the exact distance
    where a cell's verdict needs it.

    A vertex gets its facet lower bounds at once, and, where a bound is at
    most ``far``, the distance to the hull's nearest sample as its upper
    bound (`PointHull.upper_bounds`).  A vertex in a hull's facet form (no
    facet offset above 0) is at its lower bound, so that distance is exact.
    """

    def __init__(self, hulls, V, far: float):
        self.hulls, self.far = hulls, far
        self.V = np.zeros((0, V.shape[1]))
        self.lb = self.ub = np.zeros((0, len(hulls)))
        self.add(V)

    def add(self, W: np.ndarray) -> None:
        lb = np.empty((W.shape[0], len(self.hulls)))
        ub = np.full(lb.shape, np.inf)
        for k, h in enumerate(self.hulls):
            off = h.facet_offsets(W)
            lb[:, k] = h.lower_bounds(W, offsets=off)
            inside = np.ones(W.shape[0], dtype=bool) if off is None else (off <= 0.0).all(axis=1)
            ub[inside, k] = lb[inside, k]
            todo = ~inside & (lb[:, k] <= self.far)
            if todo.any():
                ub[todo, k] = h.upper_bounds(W[todo])
        self.V = np.vstack([self.V, W])
        self.lb = np.vstack([self.lb, lb])
        self.ub = np.vstack([self.ub, ub])

    def measure(self, rows: np.ndarray, k: int) -> None:
        """Exact distances from the vertices ``rows`` to hull k."""
        self.lb[rows, k] = self.ub[rows, k] = self.hulls[k].distances(self.V[rows])

    def within(self, rows: np.ndarray, k: int, r: float) -> bool:
        """Whether hull k lies within r of every vertex of ``rows``;
        measured only where the bounds cannot tell."""
        if (self.lb[rows, k] > r).any():
            return False
        todo = rows[self.ub[rows, k] > r]
        if todo.size:
            self.measure(todo, k)
        return bool((self.ub[rows, k] <= r).all())

    def judge(self, cells: np.ndarray, near: float):
        """Masks of ``cells`` (rows of vertex rows) that one hull holds
        within ``near`` of all their vertices, and of the vertices of the
        other cells beyond ``far`` of every hull.

        Measured first, in the cells not yet shown close: every hull that
        the bounds do not rule out of holding the cell, and at each vertex
        within ``far`` of no hull so far, every hull whose bounds cannot
        tell whether it is."""
        far = self.far
        close = (self.ub[cells] <= near).all(axis=1).any(axis=1)
        beyond = np.zeros(cells.shape, dtype=bool)
        open_ = np.flatnonzero(~close)
        if open_.size:
            c = cells[open_]
            lb, ub = self.lb[c], self.ub[c]                  # (cell, vertex, hull)
            need = (lb <= near).all(axis=1, keepdims=True) & (ub > near)
            need |= (lb <= far) & ~(ub <= far).any(axis=2, keepdims=True)
            for k in np.flatnonzero(need.any(axis=(0, 1))):
                self.measure(np.unique(c[need[:, :, k]]), k)
            close[open_] = (self.ub[c] <= near).all(axis=1).any(axis=1)
            beyond[open_] = (self.lb[c] > far).all(axis=2) & ~close[open_, None]
        return close, beyond


def _count_cells(cells_touched: int, new: int) -> int:
    """``cells_touched + new``, checked against MAX_CELLS before the new
    cells are made."""
    cells_touched += new
    if cells_touched > MAX_CELLS:
        raise CellCapError(f"coverage refinement exceeded the cap of {MAX_CELLS} cells")
    return cells_touched


def _slab_vertices(m: int, lo: float, hi: float) -> np.ndarray:
    """The 2m vertices of the slab with first coordinate in [lo, hi]: the
    section at lo (a_0..a_{m-1}), then the one at hi (b_0..b_{m-1}).  The
    section at t has the vertices ``t e_1`` and ``t e_1 + (1 - t) e_j`` for
    j >= 2."""
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


def _staircase(V: np.ndarray) -> np.ndarray:
    """The cells of the staircase triangulation of the slab with vertices
    V (`_slab_vertices`), as rows of V: cell k is a_0..a_k, b_k..b_{m-1}.

    Equal vertices (all of b at hi = 1, a_j and b_j at lo = hi) are one
    row, and a cell with a repeated vertex lies in the others and is
    dropped; when every cell has one, the slab is its section at lo, and
    cell 0 alone spans it.
    """
    m = V.shape[1]
    k, j = np.ogrid[:m, :m + 1]
    first = {}
    rows = np.array([first.setdefault(tuple(v), i) for i, v in enumerate(V.tolist())])
    cells = rows[np.where(j <= k, j, j - 1 + m)]
    distinct = (np.diff(np.sort(cells, axis=1), axis=1) > 0).all(axis=1)
    return cells[distinct] if distinct.any() else cells[:1]


def _split_covers(dist: _Distances, near: float) -> bool:
    """Whether, for two hulls, the two cells of one facet cut of the slab
    with vertices ``dist.V`` each lie within ``near`` of their own hull.

    The cut is the facet plane ``a.x = b`` of either hull whose margin, the
    least ``a.v - b`` over the other hull's vertices v, is largest.  The
    cut hull's cell is the slab's part with ``a.x <= b``, the other hull's
    cell the part with ``a.x >= b``; each cell's vertices are its slab
    vertices and the plane's crossings of the slab edges.
    """
    hulls, V, best = dist.hulls, dist.V, None
    for i, h in enumerate(hulls):
        if h.k == 0:
            continue
        other = hulls[1 - i]
        margin = h.facet_offsets(other.points[other.vertex_indices]).min(axis=0)
        f = int(np.argmax(margin))
        if best is None or margin[f] > best[0]:
            best = (margin[f], i, f)
    if best is None:
        return False
    _, i, f = best
    s = hulls[i].facet_offsets(V)[:, f]
    if not (dist.within(np.flatnonzero(s <= 0.0), i, near)
            and dist.within(np.flatnonzero(s >= 0.0), 1 - i, near)):
        return False
    edges = _slab_edges(V.shape[1])
    u, v = edges[np.sign(s[edges[:, 0]]) * np.sign(s[edges[:, 1]]) < 0].T
    if not u.size:
        return True
    cross = _Distances(hulls, V[u] + (s[u] / (s[u] - s[v]))[:, None] * (V[v] - V[u]), near)
    return all(cross.within(np.arange(u.size), k, near) for k in (i, 1 - i))


def verify_eps_net(region, hulls, eps: float) -> CoverageReport:
    """Check that every region point is within eps of the union of
    ``hulls``, a list of `PointHull`s, by the simplicial branch and bound
    of the module docstring."""
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    if not isinstance(region, SimplexSlab):
        raise TypeError("region must be a SimplexSlab")
    hulls = [h for h in hulls if not h.is_empty]
    m = region.m
    for h in hulls:
        if h.m != m:
            raise ValueError(f"a hull lies in R^{h.m} but the region in R^{m}")
    floor = FLOOR * eps
    if region.is_empty:
        return CoverageReport(eps, True, None, floor)
    if m == 0:
        ok = bool(hulls)
        return CoverageReport(eps, ok, None if ok else np.zeros(0), floor, None if ok else np.inf)
    if not hulls:
        w = np.zeros(m)
        w[0] = max(0.0, region.lo)
        return CoverageReport(eps, False, w, floor, np.inf)
    return _branch_and_bound(region, hulls, eps)


def _branch_and_bound(region, hulls, eps: float) -> CoverageReport:
    """The refinement of a non-empty slab of dimension m >= 1 against
    non-empty `PointHull`s of that dimension."""
    m = region.m
    lo = min(max(region.lo, 0.0), 1.0)
    # a slab reversed by at most ETA is not empty: it is its section at lo
    hi = max(min(max(region.hi, 0.0), 1.0), lo)
    near, far, floor = eps - ETA, eps + ETA, FLOOR * eps
    V = _slab_vertices(m, lo, hi)
    dist = _Distances(hulls, V, far)
    if len(hulls) == 2 and _split_covers(dist, near):
        return CoverageReport(eps, True, None, floor, cells_touched=3)
    cells = _staircase(V)
    touched = _count_cells(0, cells.shape[0])
    ends = np.triu_indices(m + 1, k=1)
    mids = {}                          # (row, row) of a bisected edge -> its midpoint's row
    while True:
        close, beyond = dist.judge(cells, near)
        hit = np.flatnonzero(beyond.any(axis=1))
        if hit.size:
            w = dist.V[cells[hit[0], np.argmax(beyond[hit[0]])]]
            dw = float(_min_dist_exact(hulls, w[None, :])[0])
            return CoverageReport(eps, False, w.copy(), floor, dw, touched)
        if close.all():
            return CoverageReport(eps, True, None, floor, cells_touched=touched)
        cells = cells[~close]
        P = dist.V[cells]
        lengths = np.linalg.norm(P[:, ends[0]] - P[:, ends[1]], axis=2)
        edge = np.argmax(lengths, axis=1)
        rows = np.arange(cells.shape[0])
        at_floor = lengths[rows, edge] <= floor
        if at_floor.any():
            ids = np.unique(cells[at_floor])
            d = _min_dist_exact(hulls, dist.V[ids])
            j = int(np.argmax(d))
            return CoverageReport(eps, False, dist.V[ids[j]].copy(), floor, float(d[j]), touched)
        touched = _count_cells(touched, 2 * cells.shape[0])
        i, j = ends[0][edge], ends[1][edge]
        p, q = cells[rows, i], cells[rows, j]
        keys = list(zip(np.minimum(p, q).tolist(), np.maximum(p, q).tolist()))
        new = {key: None for key in keys if key not in mids}
        if new:
            pairs = np.array(list(new))
            n = dist.V.shape[0]
            mids.update(zip(new, range(n, n + pairs.shape[0])))
            dist.add(0.5 * (dist.V[pairs[:, 0]] + dist.V[pairs[:, 1]]))
        mid = np.array([mids[key] for key in keys])
        low, high = cells.copy(), cells.copy()
        low[rows, i] = mid
        high[rows, j] = mid
        cells = np.concatenate([low, high])


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
