"""Constant-dimension generalised binary search over dyadic levels.

The lexicographic variant descends dyadic intervals, recursing into a
cross-section at the midpoint of every interval whose slab is not yet
covered, and finally repairs the neighbourhoods of recursion coordinates
whose sub-runs were flagged (the degenerate-section escape hatch).  The
adversarial variant is the same search plus a merge loop driven by interior
conflicts between class hulls; on upper-envelope partitions every
cross-section is non-degenerate, which is what makes that safe.

Interval coverage inside the search is judged against the nearest labelled
cross-sections bracketing the interval (the quantity the covered-interval
counting argument is about).  Every cross-section is learned once, at its
search's eps rather than the paper's eps^2 / (85 (1 - t) n m^2.5): the slab
certificates, not the section accuracy, carry every verdict.  The top-level
search hands the slabs it certified to the labelling it returns
(`SlabRecord`), and the end check verifies only the slabs they leave.  A
planar search seeds each section's 1-D base search with the span ends its
two bracketing sections predict (`_Search._predictions`).

This module is the search core shared with the face-by-face search of
``crgbs``: every level of a public search shares one `_Run`, every
lower-dimensional run (a cross-section or a face) is pulled back through its
lift (`_Run.lift`), and every public entry finishes in one body that
asks through the run's one `AnswerMemo` and merges (adversarial) or checks
(lexicographic) interior conflicts.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

import numpy as np

from .coverage import SimplexSlab, slab_certificate_2d, verify_eps_net
from .geometry import PointHull, section_lift
from .labelling import EmpiricalLabelling, SlabRecord, interior_conflict
from .partition import KINDS, AnswerMemo
from .predicates import ETA

LOW, HIGH = 0, 1        # which end of a label's span a base-search prediction guesses


def uncovered_cap(m: int, n: int) -> int:
    return 2 * (math.comb(n + m, m) + 2 * n)


def cdgbs_query_bound(m: int, n: int, eps: float) -> float:
    """Closed-form worst-case query bound of the search (log base 2)."""
    if m <= 0:
        return 1.0
    prod = 1.0
    for i in range(1, m + 1):
        prod *= math.comb(n + i, i) + 2 * n
    return prod * 2.0 ** (2 * m * m) * math.log2(170.0 * n * m ** 2.5 / eps) ** m


@dataclass
class GbsConfig:
    """``oracle_kind`` must name the search run; ``seed`` only drives the
    repair offsets of every lexicographic search, nested ones included."""

    m: int
    n: int
    eps: float
    oracle_kind: str = "lexicographic"
    seed: int = 0

    def __post_init__(self):
        if self.m < 0 or self.n < 1:
            raise ValueError("need m >= 0 and n >= 1")
        if not 0 < self.eps < math.inf:
            raise ValueError("eps must be positive and finite")
        if self.oracle_kind not in KINDS:
            raise ValueError(f"oracle_kind must be one of {KINDS}")


@dataclass
class RunStats:
    """Counters of one cd_gbs, cd_gbs_adversarial or cr_gbs run.

    ``per_level_uncovered`` and ``suspects`` describe the top-level dyadic
    search; ``face_queries`` maps each face's vertex subset to its queries
    and ``fallback`` says cr_gbs ran the dimension recursion directly.
    ``depth_queries[d]`` holds the queries charged by runs at lift depth d:
    0 is the top-level search, its cross-sections or cr_gbs faces are 1,
    their cross-sections 2, and so on; a memo hit counts nowhere, and the
    list sums to ``queries``.  ``seeded`` counts the base-search pivots
    taken from a breakpoint predicted by two bracketing sections.
    """

    queries: int = 0
    depth_queries: list = field(default_factory=lambda: [0])
    recursions: int = 0
    seeded: int = 0
    fixes: int = 0
    per_level_uncovered: list = field(default_factory=list)
    merges: list = field(default_factory=list)
    halted_cap: bool = False
    conflict_flag: bool = False
    suspects: list = field(default_factory=list)
    face_queries: dict = field(default_factory=dict)
    fallback: bool = False


class _RunOutput:
    """Points (``{raw label: (k, m) array}``, local frame) plus flags from one
    search level.  Every point is one the level's query was asked.
    ``certified`` lists a `_Search`'s certified slabs ``(a, b)``, sorted;
    other runs have None.  ``seeded`` counts a 1-D search's pivots taken
    from its predictions."""

    __slots__ = ("points", "flagged", "certified", "seeded")

    def __init__(self, points: dict, flagged: bool, certified=None, seeded=0):
        self.points = points
        self.flagged = flagged
        self.certified = certified
        self.seeded = seeded


def _binary_search_1d(eps: float, query, predictions=()) -> _RunOutput:
    """Base case: learn a partition of the unit interval.

    Bisects every gap whose endpoint labels differ until gaps are at most
    eps wide; every point then sits within eps/2 of a labelled point.  The
    labelling never carries a verdict: the slab certificates
    (`slab_certificate_2d`, `verify_eps_net`) and `is_eps_close` do.

    ``predictions`` are ``(z, label, end)`` guesses of where a label's span
    ends (`LOW` or `HIGH`).  In a gap (a, b) with end labels la != lb, the
    first unused prediction strictly inside it that is la's high end or
    lb's low end is the pivot, in place of the midpoint; so a prediction is
    asked only where bisection would ask a point, and a one-label interval
    still costs its two ends.  The output's ``seeded`` counts those pivots.
    """
    pts = {}
    pending = list(predictions)

    def ask(x: float) -> int:
        lbl = query(np.array([x]))
        pts.setdefault(lbl, []).append(x)
        return lbl

    def pivot(a: float, b: float, la: int, lb: int):
        for i, (z, lbl, end) in enumerate(pending):
            if a < z < b and (lbl, end) in ((la, HIGH), (lb, LOW)):
                del pending[i]
                return z
        return 0.5 * (a + b)

    la, lb = ask(0.0), ask(1.0)
    gaps = [(0.0, 1.0, la, lb)] if la != lb else []
    while gaps:
        a, b, la, lb = gaps.pop()
        if b - a <= eps:
            continue
        mid = pivot(a, b, la, lb)
        if mid <= a or mid >= b:  # float resolution floor
            continue
        lm = ask(mid)
        if lm != la:
            gaps.append((a, mid, la, lm))
        if lm != lb:
            gaps.append((mid, b, lm, lb))

    out = {}
    flagged = False
    spans = {lbl: (min(v), max(v)) for lbl, v in pts.items()}
    for lbl, (lo, hi) in spans.items():
        out[lbl] = np.array([[lo]]) if hi - lo <= ETA else np.array([[lo], [hi]])
        # interleaved labels mean the section was degenerate or ties abound
        for other, xs in pts.items():
            if other != lbl and any(lo + ETA < x < hi - ETA for x in xs):
                flagged = True
    return _RunOutput(out, flagged, seeded=len(predictions) - len(pending))


def _by_label(nets) -> dict:
    """Several nets ({label: array}) stacked into one array per label."""
    out = {}
    for net in nets:
        for lbl, pts in net.items():
            out.setdefault(lbl, []).append(pts)
    return {lbl: np.vstack(blocks) for lbl, blocks in out.items()}


class _Search:
    """One CD-GBS invocation on a local corner simplex, in ``run``.

    Every cross-section, a repair's included, is learned once, at the
    search's eps.  A slab left uncovered is recursed into at its
    midpoint; the halves of the last level's are not checked again.
    ``certified`` keeps every slab whose certificate passed, with the
    coordinates that bracketed it; they tile [0, 1] but for the slabs left
    uncovered at the last level or at a cap halt, which the end check
    verifies (`labelling.is_eps_close`).  ``query`` answers from the run's
    `AnswerMemo`.
    """

    def __init__(self, run: _Run, m: int, eps: float, query, depth: int):
        self.run = run
        self.m = m
        self.eps = eps
        self.query = query
        self.cap = uncovered_cap(m, run.n)
        self.depth = depth
        self.nets = {}          # t -> {label: (k, m) array}
        self.coords = []        # sorted labelled coordinates
        self.flagged = False
        self.suspects = []      # local recursion coords with flagged sub-runs
        self.certified = {}     # (a, b) -> (t_l, t_r) of each slab whose certificate passed
        self._bracket_hulls = {}

    def _add_net(self, t: float, net: dict) -> None:
        # a repair landing on a learned coordinate learns that section again,
        # at the same accuracy and through the memo; its net replaces the
        # first, whose points the slabs it bracketed were certified against
        if t in self.nets:
            self.certified = {iv: br for iv, br in self.certified.items() if t not in br}
        else:
            insort(self.coords, t)
        self.nets[t] = net
        self._bracket_hulls.clear()

    def recurse(self, t: float) -> None:
        """Learn the cross-section at t at the search's eps and pull its
        points back; a planar search seeds the section's base search with
        `_predictions`."""
        self.run.stats.recursions += 1
        res = self.run.lift(section_lift(t, self.m), self.m - 1, self.eps, self.query,
                            self.depth + 1, self._predictions(t) if self.m == 2 else ())
        self._add_net(t, res.points)
        if res.flagged and t not in self.suspects:
            self.suspects.append(t)
            if self.depth == 0:
                self.run.stats.suspects.append(t)

    def _predictions(self, t: float) -> list:
        """Where the labels' spans end in the planar section at t, guessed
        from the nearest labelled sections t_l < t < t_r.

        A cell boundary in the plane is a line, so a breakpoint's raw
        coordinate y is affine in t while the cells met do not change.  For
        each label in both sections, each end of its span at t is the linear
        interpolation in t of that end's y at t_l and t_r, a convex
        combination of two points of the label's cell; it is handed to
        `_binary_search_1d` as ``(y / (1 - t), label, end)``.
        """
        lo_i = bisect_left(self.coords, t) - 1
        hi_i = bisect_right(self.coords, t)
        if lo_i < 0 or hi_i == len(self.coords):
            return []
        t_l, t_r = self.coords[lo_i], self.coords[hi_i]
        w = (t - t_l) / (t_r - t_l)
        s = 1.0 - t
        left, right = self.nets[t_l], self.nets[t_r]
        out = []
        for lbl, pts in left.items():
            if lbl not in right:
                continue
            # plain floats: a span has one or two points, too few for numpy
            y_l, y_r = pts[:, 1].tolist(), right[lbl][:, 1].tolist()
            out.append((((1.0 - w) * min(y_l) + w * min(y_r)) / s, lbl, LOW))
            out.append((((1.0 - w) * max(y_l) + w * max(y_r)) / s, lbl, HIGH))
        return out

    def bracket(self, a: float, b: float):
        """Nearest labelled coordinates enclosing [a, b]."""
        lo_i = bisect_right(self.coords, a + ETA) - 1
        hi_i = bisect_left(self.coords, b - ETA)
        t_l = self.coords[max(lo_i, 0)]
        t_r = self.coords[min(hi_i, len(self.coords) - 1)]
        return t_l, t_r

    def slab_covered(self, a: float, b: float) -> bool:
        t_l, t_r = self.bracket(a, b)
        if self.m == 2:
            # exact interval certificate; stays cheap at any eps
            return slab_certificate_2d(self.nets[t_l], self.nets[t_r], t_l, t_r, a, b, self.eps)
        key = (t_l, t_r)
        hulls = self._bracket_hulls.get(key)
        if hulls is None:
            nets = [self.nets[t] for t in ((t_l, t_r) if t_r > t_l else (t_l,))]
            hulls = [PointHull(v) for v in _by_label(nets).values()]
            self._bracket_hulls[key] = hulls
        report = verify_eps_net(SimplexSlab(self.m, a, b), hulls, self.eps)
        return report.is_close

    def search(self) -> _RunOutput:
        self.recurse(0.0)
        apex = np.zeros(self.m)
        apex[0] = 1.0
        lbl = self.query(apex)
        self._add_net(1.0, {lbl: apex[None, :]})

        levels = max(0, math.ceil(math.log2(2.0 / self.eps)))
        frontier = [(0.0, 1.0)]
        for _k in range(1, levels + 1):
            children = []
            for a, b in frontier:
                mid = 0.5 * (a + b)
                if mid <= a or mid >= b:
                    continue
                children.extend([(a, mid), (mid, b)])
            if not children:
                break
            uncovered = []
            for iv in children:
                if self.slab_covered(*iv):
                    self.certified[iv] = self.bracket(*iv)
                else:
                    uncovered.append(iv)
            if self.depth == 0:
                self.run.stats.per_level_uncovered.append(len(uncovered))
            if not self.run.adversarial and len(uncovered) > self.cap:
                self.run.stats.halted_cap = True
                self.flagged = True
                break
            for a, b in uncovered:
                self.recurse(0.5 * (a + b))
            frontier = uncovered

        if not self.run.adversarial and not self.run.stats.halted_cap:
            self._fix_suspects()

        return _RunOutput(_by_label(self.nets.values()), self.flagged, sorted(self.certified))

    def _hulls(self) -> list:
        return [PointHull(v) for v in _by_label(self.nets.values()).values()]

    def _fix_suspects(self) -> None:
        """Repair the neighbourhood of each recursion coordinate x whose
        sub-run was flagged (the degenerate-section escape hatch), in this
        run's frame.

        While the class hulls of this run's nets do not cover the eps/2 ball
        slab around x, recurse at a fresh coordinate inside the ball from a
        low-discrepancy sequence whose starting side the seed picks; raises
        after 2 * cap attempts (an inconsistent oracle).
        """
        half = self.eps / 2
        for x in list(self.suspects):
            region = SimplexSlab(self.m, max(0.0, x - half), min(1.0, x + half))
            offsets = _vdc_offsets(self.run.seed)
            tried = {x}
            while not verify_eps_net(region, self._hulls(), self.eps).is_close:
                if len(tried) > 2 * self.cap:
                    raise RuntimeError("degenerate neighborhood exhausted")
                z = x
                while not 0.0 <= z < 1.0 or z in tried:
                    z = x + next(offsets) * half
                tried.add(z)
                self.run.stats.fixes += 1
                self.recurse(z)


@dataclass(frozen=True)
class _Run:
    """What every search level of one public search run shares: the label
    count ``n``, the oracle kind, the ``stats`` and the repair ``seed``."""

    n: int
    adversarial: bool
    stats: RunStats
    seed: int

    def search(self, m: int, eps: float, query, depth: int, predictions=()) -> _RunOutput:
        """Search the corner m-simplex; ``predictions`` seed a 1-D search."""
        if m == 0:
            lbl = query(np.zeros(0))
            return _RunOutput({lbl: np.zeros((1, 0))}, False)
        if m == 1:
            res = _binary_search_1d(eps, query, predictions)
            self.stats.seeded += res.seeded
            return res
        return _Search(self, m, eps, query, depth).search()

    def lift(self, lift, dim: int, eps: float, query, depth: int, predictions=()) -> _RunOutput:
        """Search the corner dim-simplex through ``lift`` (a cross-section's
        or a face's) at lift depth ``depth`` and pull every labelled point
        back with it.

        ``query`` is the run's `AnswerMemo` or an enclosing lift's query,
        with the memo's ``log``.  The log's growth during the search counts
        at ``depth_queries[depth]`` and comes off the enclosing run's depth,
        so a query counts once, at the depth of the innermost run that asked
        it, and a memo hit counts nowhere.
        """
        def lifted(z):
            return query(lift(z))

        lifted.log = log = query.log
        counts = self.stats.depth_queries
        counts.extend([0] * (depth + 1 - len(counts)))
        before = log.count
        res = self.search(dim, eps, lifted, depth, predictions)
        asked = log.count - before
        counts[depth] += asked
        counts[depth - 1] -= asked
        return _RunOutput({lbl: lift(pts) for lbl, pts in res.points.items()}, res.flagged)


def _vdc_offsets(seed: int):
    """Deterministic low-discrepancy offsets in (0, 1), alternating sides."""
    sign = 1 if seed % 2 == 0 else -1
    k = 1
    while True:
        # van der Corput base 2
        i, f, v = k, 0.5, 0.0
        while i:
            if i & 1:
                v += f
            i >>= 1
            f *= 0.5
        yield sign * v
        sign = -sign
        k += 1


def _add_points(lab: EmpiricalLabelling, points: dict) -> None:
    for lbl, pts in points.items():
        lab.add_block(pts, lbl)


def _learn(cfg: GbsConfig, oracle, adversarial: bool, fill) -> EmpiricalLabelling:
    """The body of every public search: ``fill(lab, run, query)`` asks the
    run's `AnswerMemo` and stores the points, then interior conflicts are
    merged away (adversarial oracle) or flagged (lexicographic oracle, where
    the assembly argument says none can occur).  The labelling carries the
    run's ``stats``; depth 0 gets the queries no lift booked.

    The run's memo is ``oracle`` itself when that is an `AnswerMemo` (the
    per-player memos of `make_br_oracles`), else a fresh memo of it: a query
    passes through one memo either way, and answers and counts are the same
    as through a fresh memo in front of a given one."""
    stats = RunStats()
    query = oracle if isinstance(oracle, AnswerMemo) else AnswerMemo(oracle)
    before = query.log.count
    lab = EmpiricalLabelling(cfg.m, cfg.n)
    fill(lab, _Run(cfg.n, adversarial, stats, cfg.seed), query)
    if adversarial:
        while (conflict := interior_conflict(lab)) is not None:
            i, j, _ = conflict
            lab.merge_labels(i, j)
            stats.merges.append((min(i, j), max(i, j)))
    else:
        stats.conflict_flag = interior_conflict(lab) is not None
    stats.queries = query.log.count - before
    stats.depth_queries[0] += stats.queries
    lab.stats = stats
    return lab


def _dyadic(cfg: GbsConfig, oracle, adversarial: bool) -> EmpiricalLabelling:
    kind = "adversarial" if adversarial else "lexicographic"
    if cfg.oracle_kind != kind:
        raise ValueError(f"this search needs oracle_kind {kind!r}, not {cfg.oracle_kind!r}")

    def fill(lab, run, query):
        res = run.search(cfg.m, cfg.eps, query, 0)
        _add_points(lab, res.points)
        if res.certified is not None:
            lab.certified_slabs = SlabRecord(cfg.eps, tuple(res.certified))

    return _learn(cfg, oracle, adversarial, fill)


def cd_gbs(cfg: GbsConfig, oracle) -> EmpiricalLabelling:
    """Lexicographic search; returns a labelling with a ``stats`` attribute
    and, from m = 2 on, the search's ``certified_slabs``."""
    return _dyadic(cfg, oracle, adversarial=False)


def cd_gbs_adversarial(cfg: GbsConfig, oracle) -> EmpiricalLabelling:
    """Adversarial search on an upper-envelope partition, with merging."""
    return _dyadic(cfg, oracle, adversarial=True)
