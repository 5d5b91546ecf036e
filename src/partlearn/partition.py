"""Ground-truth polytope partitions and membership oracles with accounting.

An upper-envelope partition is a matrix/vector pair (A, b); the cell of
label i is where row i attains the maximum of A y + b over the corner
simplex.  Oracles answer membership queries, log every call, and enforce an
optional budget.  Explicit cell geometry (vertex enumeration) is available
at desk scale for verification.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import (PointHull, VPolytope, chebyshev, convex_hull, corner_simplex_hpolytope,
                       empty_polytope)
from .geometry.polytope import HPolytope
from .predicates import ETA, as_point, row_sum


class QueryBudgetError(RuntimeError):
    """Raised when an oracle call would exceed its query budget."""


@dataclass
class UEPP:
    """Upper-envelope polytope partition of the corner m-simplex.

    ``A`` is (n, m), ``b`` is (n,).  Label i owns the region where
    (A y + b)_i is maximal.
    """

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.atleast_1d(np.asarray(self.b, dtype=float))
        if self.A.shape[0] != self.b.shape[0]:
            raise ValueError("A rows and b length differ")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))):
            raise ValueError("non-finite entries")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.A.shape[1]

    def label_set(self, y, tol: float = ETA) -> set:
        """All labels attaining the envelope max at y (within tol), 1-based.
        A point outside the corner simplex {y >= 0, sum(y) <= 1}, beyond
        max(tol, ETA), is refused."""
        y = as_point(y)
        if y.size != self.m:
            raise ValueError("dimension mismatch")
        coords = y.tolist()
        band = max(tol, ETA)
        if coords and (min(coords) < -band or row_sum(coords) > 1.0 + band):
            raise ValueError("query point outside the simplex")
        vals = (self.A @ y + self.b).tolist()
        top = max(vals)
        return {i + 1 for i, v in enumerate(vals) if v >= top - tol}

    def section(self, x: float) -> "UEPP":
        """The induced partition of the x-section, mapped to the lower simplex."""
        return UEPP((1.0 - x) * self.A[:, 1:], self.A[:, 0] * x + self.b)

    def restrict(self, lift, k: int) -> "UEPP":
        """The induced partition on a k-face, through the face's lift: its
        matrix and shift are read off the lift's values at 0 and at the
        unit vectors."""
        Y = lift(np.vstack([np.zeros(k), np.eye(k)]))
        return UEPP(self.A @ (Y[1:] - Y[0]).T, self.A @ Y[0] + self.b)

    def to_json(self) -> str:
        return json.dumps({"m": self.m, "n": self.n, "A": self.A.tolist(), "b": self.b.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "UEPP":
        d = json.loads(text)
        u = cls(np.array(d["A"], dtype=float), np.array(d["b"], dtype=float))
        if u.m != d["m"] or u.n != d["n"]:
            raise ValueError("inconsistent UEPP JSON")
        return u


@dataclass
class PartitionGroundTruth:
    """Explicit cells of a partition: list of (label, VPolytope), fixed
    once the first query is answered (each cell's `PointHull` is cached)."""

    m: int
    cells: list  # [(label, VPolytope)]
    source: UEPP | None = None

    @property
    def n(self) -> int:
        return max(lbl for lbl, _ in self.cells)

    @cached_property
    def _hulls(self) -> list:
        """(label, PointHull) of every nonempty cell, built on first use."""
        return [(lbl, PointHull(cell.vertices)) for lbl, cell in self.cells if not cell.is_empty]

    def label_set(self, y, tol: float = 1e-7) -> set:
        y = as_point(y)
        if y.size != self.m:
            raise ValueError("dimension mismatch")
        y = y[None, :]
        # the facet bound is a lower bound: cells it puts beyond tol are skipped
        out = {lbl for lbl, h in self._hulls
               if h.lower_bounds(y)[0] <= tol and h.distances(y)[0] <= tol}
        if not out:
            raise ValueError("point not covered by any cell")
        return out


def uepp_cells(u: UEPP, max_m: int = 4, max_n: int = 8) -> PartitionGroundTruth:
    """Explicit cell polytopes of a UEPP via vertex enumeration.

    Each cell is the intersection of its envelope-dominance halfspaces with
    the simplex; vertices come from m-subsets of the rows.  Exponential in
    m, capped for desk scale.
    """
    if u.m > max_m or u.n > max_n:
        raise ValueError("instance beyond the vertex-enumeration cap")
    if u.m == 0:
        return PartitionGroundTruth(0, [(lbl, VPolytope(np.zeros((1, 0)))) for lbl in u.label_set(np.zeros(0))], u)
    cells = []
    for i in range(1, u.n + 1):
        verts = _enumerate_vertices(*_cell_rows(u, i), u.m)
        cells.append((i, convex_hull(verts) if len(verts) else empty_polytope(u.m)))
    return PartitionGroundTruth(u.m, cells, u)


def _enumerate_vertices(A: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    out = []
    nr = A.shape[0]
    for combo in itertools.combinations(range(nr), m):
        M = A[list(combo)]
        if abs(np.linalg.det(M)) < 1e-12:
            continue
        x = np.linalg.solve(M, b[list(combo)])
        if np.all(A @ x >= b - 1e-7):
            out.append(x)
    if not out:
        return np.zeros((0, m))
    pts = np.array(out)
    # dedupe within tolerance
    keep = []
    for p in pts:
        if not any(np.linalg.norm(p - q) <= 1e-7 for q in keep):
            keep.append(p)
    return np.array(keep)


def cell_hpolytope(u: UEPP, i: int):
    """H-form of cell i (1-based) with simplex rows marked as boundary.

    Returns (HPolytope, boundary_row_indices).
    """
    return HPolytope(*_cell_rows(u, i)), set(range(u.m + 1))


def _cell_rows(u: UEPP, i: int):
    """Rows (normals, offsets) of ``normal . x >= offset`` cutting cell i
    (1-based) out of the corner simplex: the m + 1 simplex rows first, then
    one dominance row per other label."""
    simplex = corner_simplex_hpolytope(u.m)
    rows_a = [simplex.normals]
    rows_b = [simplex.offsets]
    for j in range(u.n):
        if j == i - 1:
            continue
        diff = u.A[i - 1] - u.A[j]
        off = u.b[j] - u.b[i - 1]
        nrm = np.linalg.norm(diff)
        if nrm < ETA:
            if off > ETA:
                # row j strictly dominates row i everywhere: the cell is
                # empty, which the row sum(x) >= 2 says inside the simplex
                rows_a.append(np.ones((1, u.m)))
                rows_b.append(np.array([2.0]))
            continue
        rows_a.append((diff / nrm)[None, :])
        rows_b.append(np.array([off / nrm]))
    return np.vstack(rows_a), np.concatenate(rows_b)


@dataclass
class QueryLog:
    """Monotone query counter with optional transcript and budget."""

    budget: int | None = None
    record: bool = True
    count: int = 0
    transcript: list = field(default_factory=list)

    def charge(self, point, label=None) -> None:
        if self.budget is not None and self.count >= self.budget:
            raise QueryBudgetError("query budget exhausted")
        self.count += 1
        if self.record:
            self.transcript.append((tuple(np.asarray(point, dtype=float).ravel()), label))

    def amend_last_label(self, label) -> None:
        if self.record and self.transcript:
            pt, _ = self.transcript[-1]
            self.transcript[-1] = (pt, label)


POLICIES = ("seeded", "roundrobin", "maxindex", "antilearner")
KINDS = ("lexicographic", "adversarial")


class TieBreak:
    """How an oracle picks its answer from the labels tied at a point.

    kind 'lexicographic' answers the minimum label; kind 'adversarial'
    picks among tied labels by ``policy``: 'maxindex' the largest,
    'roundrobin' the next in turn, 'seeded' one seeded pick per tie set,
    'antilearner' the label whose answered points lie nearest the query.
    """

    def __init__(self, kind: str, policy: str, seed: int):
        if kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}")
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}")
        self.kind = kind
        self.policy = policy
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        self._memo = {}
        self._rr = 0
        self._answered = {}  # label -> points answered with it (antilearner only)

    def __call__(self, y: np.ndarray, labels: set) -> int:
        ordered = sorted(labels)
        if self.kind == "lexicographic" or len(ordered) == 1:
            ans = ordered[0]
        elif self.policy == "maxindex":
            ans = ordered[-1]
        elif self.policy == "roundrobin":
            self._rr += 1
            ans = ordered[self._rr % len(ordered)]
        elif self.policy == "seeded":
            key = frozenset(ordered)
            if key not in self._memo:
                self._memo[key] = ordered[int(self._rng.integers(len(ordered)))]
            ans = self._memo[key]
        else:
            ans = self._least_growth(y, ordered)
        if self.policy == "antilearner":
            self._answered.setdefault(ans, []).append(y)
        return ans

    def _least_growth(self, y: np.ndarray, ordered: list) -> int:
        # the label whose revealed hull grows least, i.e. whose answer set is
        # nearest the query; unseen labels grow a fresh zero-volume hull and
        # are preferred (largest index first)
        best, best_d = None, None
        for lbl in reversed(ordered):
            pts = self._answered.get(lbl)
            d = 0.0 if not pts else float(min(np.linalg.norm(y - p) for p in pts))
            if best_d is None or d < best_d - ETA:
                best, best_d = lbl, d
        return best


class Oracle:
    """Membership oracle over a partition, with tie policy and accounting.

    Ties are broken by a :class:`TieBreak` of the given kind and policy.
    Points outside the simplex (beyond tolerance) are refused.
    """

    def __init__(self, ground_truth, kind: str = "lexicographic", policy: str = "seeded",
                 seed: int = 0, budget: int | None = None, record: bool = True):
        self.tie_break = TieBreak(kind, policy, seed)
        self.ground_truth = ground_truth
        self.log = QueryLog(budget=budget, record=record)

    def label_set(self, y) -> set:
        return self.ground_truth.label_set(y)

    def __call__(self, y) -> int:
        # the ground truth's label_set checks the point (`as_point`), the
        # one check a query gets, so an outside point is refused before it
        # is charged
        labels = self.label_set(y)
        y = np.asarray(y, dtype=float).ravel()
        self.log.charge(y)
        ans = self.tie_break(y, labels)
        self.log.amend_last_label(ans)
        return ans


class AnswerMemo:
    """An oracle with its answers kept by query point: the one answer cache.

    A point asked again is answered from memory: it neither reaches the
    oracle nor is charged, and a tie point keeps its first answer.  ``log``
    is the oracle's own, so it counts distinct points.  Every search run
    asks through one memo (`cdgbs._learn`): a fresh one, or the memo it is
    given.  `make_br_oracles` keeps one per player across `solve_wsne`'s
    rounds, and their searches ask through it.

    The memo keys a point by the bytes of its float coordinates and hands
    the oracle that flat float array; the oracle checks it (finite, in its
    domain) as it answers, so a charged point is checked once and a memo
    hit not at all.  A refused point is never stored.
    """

    def __init__(self, oracle):
        self.oracle = oracle
        self.log = oracle.log
        self._answers = {}

    def __call__(self, y):
        y = np.asarray(y, dtype=float).ravel()
        key = y.tobytes()
        if key not in self._answers:
            self._answers[key] = self.oracle(y)
        return self._answers[key]


def make_oracle(gt, kind: str = "lexicographic", policy: str = "seeded", seed: int = 0,
                budget: int | None = None, record: bool = True) -> Oracle:
    return Oracle(gt, kind=kind, policy=policy, seed=seed, budget=budget, record=record)


def random_uepp(m: int, n: int, seed: int = 0, duplicate_rows: int = 0,
                empty_cells: int = 0, scale: float = 1.0) -> UEPP:
    """Reproducible random instance; options inject degeneracies.

    ``duplicate_rows`` copies that many rows onto fresh labels (coinciding
    cells); ``empty_cells`` appends rows that never attain the maximum.
    """
    if m < 1 or n < 1:
        raise ValueError("m, n >= 1")
    rng = np.random.default_rng(seed)
    base = n - duplicate_rows - empty_cells
    if base < 1:
        raise ValueError("too many degenerate rows requested")
    A = rng.normal(size=(base, m)) * scale
    b = rng.normal(size=base) * 0.3 * scale
    rows = [(A, b)]
    for _ in range(duplicate_rows):
        src = int(rng.integers(base))
        rows.append((A[src:src + 1].copy(), b[src:src + 1].copy()))
    for _ in range(empty_cells):
        src = int(rng.integers(base))
        rows.append((A[src:src + 1].copy(), b[src:src + 1] - 3.0 * scale - 1.0))
    Afull = np.vstack([r[0] for r in rows])
    bfull = np.concatenate([np.atleast_1d(r[1]) for r in rows])
    perm = rng.permutation(n)
    return UEPP(Afull[perm], bfull[perm])


def _section_thickness(h: HPolytope, x: float) -> float:
    """Thickness of the x-section of an H-polytope, in its own hyperplane."""
    a_trans = h.normals[:, 1:]
    resid = h.offsets - h.normals[:, 0] * x
    norms = np.linalg.norm(a_trans, axis=1)
    fixed = norms < ETA
    if np.any(resid[fixed] > ETA):
        return 0.0
    keep = ~fixed
    if h.dim == 1:
        return 0.0
    sub = HPolytope(a_trans[keep], resid[keep])
    try:
        r, _ = chebyshev(sub)
    except ValueError:
        return 0.0
    return r


def alpha_critical(u: UEPP, i: int, alpha: float, tol: float = 1e-9):
    """The first coordinates where cell i's section thickness crosses alpha.

    Section thickness is concave along the axis, so the super-level set is
    an interval and any point of it splits the two crossings apart.  A
    ternary search climbs towards the peak until a probe reaches alpha; the
    endpoints are then found by bisection on either side of that probe.
    Returns None when the search bracket shrinks to tol without a probe
    reaching alpha.
    """
    h, _ = cell_hpolytope(u, i)

    def tau(x):
        return _section_thickness(h, x)

    lo, hi = 0.0, 1.0
    split = None
    while hi - lo > tol:
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        t1 = tau(m1)
        if t1 >= alpha:
            split = m1
            break
        t2 = tau(m2)
        if t2 >= alpha:
            split = m2
            break
        if t1 < t2:
            lo = m1
        else:
            hi = m2
    if split is None:
        return None

    def bisect(a, b, want_left):
        # invariant: tau crosses alpha between a and b
        for _ in range(60):
            mid = 0.5 * (a + b)
            if (tau(mid) >= alpha) == want_left:
                b = mid
            else:
                a = mid
            if b - a <= tol:
                break
        return 0.5 * (a + b)

    l = bisect(0.0, split, want_left=True) if tau(0.0) < alpha else 0.0
    r = bisect(split, 1.0, want_left=False) if tau(1.0) < alpha else 1.0
    return l, r


def critical_coordinates(u: UEPP, alpha: float, tol: float = 1e-9) -> list:
    """Sorted first coordinates of all cell vertices plus alpha-crossings.

    Cardinality is at most C(n+m, m) + 2n.
    """
    if alpha <= 0:
        raise ValueError("alpha > 0 required")
    gt = uepp_cells(u)
    coords = []
    for _, cell in gt.cells:
        if not cell.is_empty:
            coords.extend(float(v) for v in cell.vertices[:, 0])
    for i in range(1, u.n + 1):
        lr = alpha_critical(u, i, alpha, tol)
        if lr is not None:
            coords.extend(lr)
    coords.sort()
    out = []
    for c in coords:
        if not out or c - out[-1] > tol:
            out.append(c)
    return out
