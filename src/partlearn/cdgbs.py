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
counting argument is about); the public slice test on a labelling keeps the
plain endpoint semantics.

This module is the search core shared with the face-by-face search of
``crgbs``: every lower-dimensional run (a cross-section or a face) is pulled
back through one lift, suspect neighbourhoods are repaired by one routine,
and every public entry finishes in one body that asks through the run's
one `AnswerMemo` and merges (adversarial) or checks (lexicographic)
interior conflicts.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field

import numpy as np

from .coverage import SimplexSlab, slab_certificate_2d, verify_eps_net
from .geometry import PointHull, convex_hull, section_map
from .labelling import EmpiricalLabelling, interior_conflict, is_slice_covered
from .partition import KINDS, AnswerMemo
from .predicates import ETA


def sub_eps(eps: float, m: int, n: int, t: float) -> float:
    """Accuracy handed to the cross-section recursion at coordinate t.

    The paper's value ``eps^2 / (85 (1 - t) n m^2.5)``, floored at the
    predicate band ETA.  The paper's value compounds with depth (to ~1e-17
    two levels down), but nothing finer than ETA reaches a verdict:

    * every lift is affine with Lipschitz constant at most 1 - t <= 1
      (sections) or a small constant (faces), so a boundary located to ETA
      in a section sits within a small multiple of ETA of where the paper's
      accuracy would put it;
    * the hull code quantises finer detail away: `snap_points` snaps points
      to an ETA grid, `_binary_search_1d` collapses a label's span of at
      most ETA to one point, and `_Search.bracket` treats coordinates within
      ETA as one.

    Soundness never rested on this value: "close" verdicts come from
    `verify_eps_net`, `slab_certificate_2d`, `is_eps_close` and the
    full-information WSNE verifier, none of which read it.  A section's
    first pass runs coarser still (`_first_pass_eps`).
    """
    return max(eps * eps / (85.0 * (1.0 - t) * n * m ** 2.5), ETA)


FIRST_PASS_DIVISOR = 4    # a section's first pass is learned at eps / 4; see _first_pass_eps


def _first_pass_eps(eps: float, m: int, n: int, t: float) -> float:
    """Accuracy of a cross-section's first pass: ``max(sub_eps, eps / 4)``.

    A section that is an eps/4-net leaves about 3/4 of eps for the slab's
    own width.  Certificate B of `slab_certificate_2d` (``hypot(W, h + W)
    <= eps``) passes at hole radius ``h = eps/4`` for any distance
    ``W <= 0.57 eps`` to a bracketing section, and the halves of the last
    dyadic level's slabs have ``W <= eps/8``.  Where a certificate still
    fails, `_Search` re-learns the coarse sections bracketing the slab at
    `sub_eps`; soundness rests on the certificates, not on this value.
    """
    return max(sub_eps(eps, m, n, t), eps / FIRST_PASS_DIVISOR)


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
    repair offsets of `fix_uncovered_critical`."""

    m: int
    n: int
    eps: float
    oracle_kind: str = "lexicographic"
    seed: int = 0

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.oracle_kind not in KINDS:
            raise ValueError(f"oracle_kind must be one of {KINDS}")


@dataclass(frozen=True)
class DyadicInterval:
    """I^k_x = [x - 2^-k, x] for x = i / 2^k."""

    k: int
    i: int

    def __post_init__(self):
        if not 1 <= self.i <= 2 ** self.k:
            raise ValueError("need 1 <= i <= 2^k")

    @property
    def right(self) -> float:
        return self.i / 2.0 ** self.k

    @property
    def left(self) -> float:
        return (self.i - 1) / 2.0 ** self.k

    @property
    def midpoint(self) -> float:
        return (self.i - 0.5) / 2.0 ** self.k


@dataclass
class RunStats:
    """Counters of one cd_gbs, cd_gbs_adversarial or cr_gbs run.

    ``per_level_uncovered`` and ``suspects`` describe the top-level dyadic
    search; ``face_queries`` maps each face's vertex subset to its queries
    and ``fallback`` says cr_gbs ran the dimension recursion directly.
    ``depth_queries[d]`` holds the queries charged by runs at lift depth d:
    0 is the top-level search, its cross-sections or cr_gbs faces are 1,
    their cross-sections 2, and so on; a memo hit counts nowhere, and the
    list sums to ``queries``.
    ``refinements`` counts the cross-sections re-learned at `sub_eps` after
    a coarse first pass (each is also one of the ``recursions``).
    """

    queries: int = 0
    depth_queries: list = field(default_factory=lambda: [0])
    recursions: int = 0
    refinements: int = 0
    fixes: int = 0
    per_level_uncovered: list = field(default_factory=list)
    merges: list = field(default_factory=list)
    halted_cap: bool = False
    conflict_flag: bool = False
    suspects: list = field(default_factory=list)
    face_queries: dict = field(default_factory=dict)
    fallback: bool = False


class _RunOutput:
    """Points (per raw label, local frame) plus flags from one search level."""

    __slots__ = ("points", "flagged")

    def __init__(self, points: dict, flagged: bool):
        self.points = points
        self.flagged = flagged


def _binary_search_1d(eps: float, query) -> _RunOutput:
    """Base case: learn a partition of the unit interval.

    Bisects every gap whose endpoint labels differ until gaps are at most
    eps wide; every point then sits within eps/2 of a labelled point, which
    is what the conservative grid verifier certifies at eps.
    """
    pts = {}

    def ask(x: float) -> int:
        lbl = query(np.array([x]))
        pts.setdefault(lbl, []).append(x)
        return lbl

    la, lb = ask(0.0), ask(1.0)
    gaps = [(0.0, 1.0, la, lb)] if la != lb else []
    while gaps:
        a, b, la, lb = gaps.pop()
        if b - a <= eps:
            continue
        mid = 0.5 * (a + b)
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
        out[lbl] = [np.array([[lo]])] if hi - lo <= ETA else [np.array([[lo], [hi]])]
        # interleaved labels mean the section was degenerate or ties abound
        for other, xs in pts.items():
            if other != lbl and any(lo + ETA < x < hi - ETA for x in xs):
                flagged = True
    return _RunOutput(out, flagged)


def _by_label(nets) -> dict:
    """Point arrays of several nets ({label: array}), grouped by label."""
    out = {}
    for net in nets:
        for lbl, pts in net.items():
            out.setdefault(lbl, []).append(pts)
    return out


def _compress_labelwise(points: dict, m: int) -> dict:
    """Shrink each label's point set to its hull vertices (hulls unchanged)."""
    out = {}
    for lbl, blocks in points.items():
        pts = np.vstack(blocks)
        if pts.shape[0] > max(4, m + 1):
            pts = convex_hull(pts).vertices
        out[lbl] = [pts]
    return out


class _Search:
    """One CD-GBS invocation on a local corner simplex.

    Cross-sections are learned coarse first (`_first_pass_eps`) and
    re-learned at `sub_eps` only where a slab they bracket fails its
    certificate: each half of a last-level uncovered slab, and, before a
    lexicographic search halts on ``cap``, each uncovered slab.  A half that
    still fails is left to the end verifiers.  Repairs learn at `sub_eps`.
    ``query`` answers from the run's `AnswerMemo`, so re-learning a section
    pays only for the points its coarse pass did not ask.
    """

    def __init__(self, m: int, n: int, eps: float, query, adversarial: bool,
                 cap: int, stats: RunStats, depth: int):
        self.m = m
        self.n = n
        self.eps = eps
        self.query = query
        self.adversarial = adversarial
        self.cap = cap
        self.stats = stats
        self.depth = depth
        self.nets = {}          # t -> {label: (k, m) array}
        self.coords = []        # sorted labelled coordinates
        self.flagged = False
        self.suspects = []      # local recursion coords with flagged sub-runs
        self.coarse = set()     # coords whose section has had only its first pass
        self._bracket_hulls = {}

    def _add_net(self, t: float, net: dict) -> None:
        old = self.nets.get(t)
        if old is None:
            insort(self.coords, t)
        else:   # a re-learned section keeps its points, so hulls only grow
            net = {**old, **{lbl: np.vstack([old[lbl], pts]) if lbl in old else pts
                             for lbl, pts in net.items()}}
        self.nets[t] = net
        self._bracket_hulls.clear()

    def recurse(self, t: float, fine: bool = False) -> None:
        """Learn the cross-section at t, at `_first_pass_eps` or, if
        ``fine``, at `sub_eps`, and pull its points back."""
        paper = sub_eps(self.eps, self.m, self.n, t)
        acc = paper if fine else _first_pass_eps(self.eps, self.m, self.n, t)
        if acc > paper:
            self.coarse.add(t)
        else:
            self.coarse.discard(t)
        res = _section(self.m, self.n, acc, t, self.query, self.adversarial, self.stats,
                       self.depth + 1)
        self._add_net(t, {lbl: blocks[0] for lbl, blocks in res.points.items()})
        if res.flagged and t not in self.suspects:
            self.suspects.append(t)
            if self.depth == 0:
                self.stats.suspects.append(t)

    def refine(self, t: float) -> None:
        """Re-learn the coarse section at t at `sub_eps`."""
        self.stats.refinements += 1
        self.recurse(t, fine=True)

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
            hulls = [PointHull(np.vstack(v)) for v in _by_label(nets).values()]
            self._bracket_hulls[key] = hulls
        report = verify_eps_net(SimplexSlab(self.m, a, b), hulls, self.eps)
        return report.is_close

    def run(self) -> _RunOutput:
        self.recurse(0.0)
        apex = np.zeros(self.m)
        apex[0] = 1.0
        lbl = self.query(apex)
        self._add_net(1.0, {lbl: apex[None, :]})

        levels = max(0, math.ceil(math.log2(2.0 / self.eps)))
        frontier, last = [(0.0, 1.0)], []   # last: slabs recursed at the last level
        for _k in range(1, levels + 1):
            children = []
            for a, b in frontier:
                mid = 0.5 * (a + b)
                if mid <= a or mid >= b:
                    continue
                children.extend([(a, mid), (mid, b)])
            if not children:
                last = []
                break
            uncovered = [iv for iv in children if not self.slab_covered(*iv)]
            halt = not self.adversarial and len(uncovered) > self.cap
            if halt and (coarse := self._coarse_brackets(uncovered)):
                for t in coarse:
                    self.refine(t)
                uncovered = [iv for iv in uncovered if not self.slab_covered(*iv)]
                halt = len(uncovered) > self.cap
            if self.depth == 0:
                self.stats.per_level_uncovered.append(len(uncovered))
            if halt:
                self.stats.halted_cap = True
                self.flagged = True
                break
            for a, b in uncovered:
                self.recurse(0.5 * (a + b))
            frontier = last = uncovered

        if not self.flagged:
            for a, b in last:
                mid = 0.5 * (a + b)
                self._refine_slab(a, mid)
                self._refine_slab(mid, b)

        if not self.adversarial and self.suspects and not self.stats.halted_cap:
            self._fix_suspects()

        points = _by_label(self.nets.values())
        return _RunOutput(_compress_labelwise(points, self.m), self.flagged)

    def _coarse_brackets(self, slabs) -> list:
        return sorted({t for iv in slabs for t in self.bracket(*iv)} & self.coarse)

    def _refine_slab(self, a: float, b: float) -> None:
        """Re-learn the coarse sections bracketing [a, b], one at a time,
        while the slab fails its certificate."""
        while (coarse := self._coarse_brackets([(a, b)])) and not self.slab_covered(a, b):
            self.refine(coarse[0])

    def _hulls(self) -> list:
        return [PointHull(np.vstack(v)) for v in _by_label(self.nets.values()).values()]

    def _fix_suspects(self) -> None:
        """Repair neighbourhoods of recursion coordinates whose sub-run was
        flagged (the degenerate-section escape hatch), in this run's frame."""
        for x in list(self.suspects):
            _repair(x, self.eps, self.m, self.cap, 0, self._hulls,
                    lambda z: self.recurse(z, fine=True), self.stats)


def _run(m: int, n: int, eps: float, query, adversarial: bool, stats: RunStats,
         depth: int) -> _RunOutput:
    if m == 0:
        lbl = query(np.zeros(0))
        return _RunOutput({lbl: [np.zeros((1, 0))]}, False)
    if m == 1:
        return _binary_search_1d(eps, query)
    cap = uncovered_cap(m, n)
    return _Search(m, n, eps, query, adversarial, cap, stats, depth).run()


def _lift(inv, dim: int, n: int, eps: float, query, adversarial: bool,
          stats: RunStats, depth: int) -> _RunOutput:
    """Search the corner dim-simplex through ``inv`` (the inverse map of a
    cross-section or a face) at lift depth ``depth`` and pull every
    labelled point back with it.

    ``query`` is the run's `AnswerMemo` or an enclosing lift's query, with
    the memo's ``log``.  The log's growth during the search counts at
    ``depth_queries[depth]`` and comes off the enclosing run's depth, so a
    query counts once, at the depth of the innermost run that asked it, and
    a memo hit counts nowhere.
    """
    def lifted(z):
        return query(inv(z))

    lifted.log = log = query.log
    counts = stats.depth_queries
    counts.extend([0] * (depth + 1 - len(counts)))
    before = log.count
    res = _run(dim, n, eps, lifted, adversarial, stats, depth)
    asked = log.count - before
    counts[depth] += asked
    counts[depth - 1] -= asked
    return _RunOutput({lbl: [inv(np.vstack(blocks))] for lbl, blocks in res.points.items()},
                      res.flagged)


def _section(m: int, n: int, acc: float, t: float, query, adversarial: bool,
             stats: RunStats, depth: int) -> _RunOutput:
    """One cross-section recursion at coordinate t and accuracy ``acc``, in
    the run's frame."""
    stats.recursions += 1
    return _lift(section_map(t, m).inverse, m - 1, n, acc, query, adversarial, stats, depth)


def _ball_slab(x: float, eps: float, m: int) -> SimplexSlab:
    return SimplexSlab(m, max(0.0, x - eps / 2), min(1.0, x + eps / 2))


def _global_hulls(lab: EmpiricalLabelling) -> list:
    return [lab.point_hull(root) for root in lab.class_roots()]


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


def _repair(x: float, eps: float, m: int, cap: int, seed: int, hulls, recurse,
            stats: RunStats) -> None:
    """Cover the eps/2 ball slab around a recursion coordinate x.

    While ``hulls()`` do not cover the slab, ``recurse`` at a fresh
    coordinate from a seeded low-discrepancy sequence inside the ball;
    raises after 2 * cap attempts (an inconsistent oracle).
    """
    region = _ball_slab(x, eps, m)
    offsets = _vdc_offsets(seed)
    tried = {x}
    for _ in range(2 * cap):
        if verify_eps_net(region, hulls(), eps).is_close:
            return
        z = None
        while z is None:
            cand = x + next(offsets) * eps / 2
            if 0.0 <= cand < 1.0 and cand not in tried:
                z = cand
        tried.add(z)
        stats.fixes += 1
        recurse(z)
    if not verify_eps_net(region, hulls(), eps).is_close:
        raise RuntimeError("degenerate neighborhood exhausted")


def _add_points(lab: EmpiricalLabelling, points: dict) -> None:
    for lbl, blocks in points.items():
        for b in blocks:
            lab.add_block(b, lbl)


def fix_uncovered_critical(lab: EmpiricalLabelling, x: float, cfg: GbsConfig, oracle,
                           stats: RunStats | None = None) -> EmpiricalLabelling:
    """Repair the neighbourhood of a recursion coordinate x.

    Recurses at fresh coordinates from a seeded low-discrepancy sequence
    inside the eps/2 ball around x until the ball slab is covered by the
    class hulls; raises after the attempt cap (an inconsistent oracle).
    Asks through an `AnswerMemo` and counts in ``stats`` as a search would.
    """
    stats = stats or RunStats()
    adversarial = cfg.oracle_kind == "adversarial"
    memo = AnswerMemo(oracle)
    before = memo.log.count

    def recurse(z: float) -> None:
        _add_points(lab, _section(cfg.m, cfg.n, sub_eps(cfg.eps, cfg.m, cfg.n, z), z, memo,
                                  adversarial, stats, 1).points)

    _repair(x, cfg.eps, cfg.m, uncovered_cap(cfg.m, cfg.n), cfg.seed, lambda: _global_hulls(lab),
            recurse, stats)
    stats.depth_queries[0] += memo.log.count - before
    return lab


def _learn(m: int, n: int, oracle, adversarial: bool, fill) -> EmpiricalLabelling:
    """The body of every public search: ``fill(lab, stats, query)`` asks the
    run's `AnswerMemo` of ``oracle`` and stores the points, then interior
    conflicts are merged away (adversarial oracle) or flagged (lexicographic
    oracle, where the assembly argument says none can occur).  The labelling
    carries the run's ``stats``; depth 0 gets the queries no lift booked."""
    stats = RunStats()
    query = AnswerMemo(oracle)
    before = query.log.count
    lab = EmpiricalLabelling(m, n)
    fill(lab, stats, query)
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

    def fill(lab, stats, query):
        _add_points(lab, _run(cfg.m, cfg.n, cfg.eps, query, adversarial, stats, 0).points)

    return _learn(cfg.m, cfg.n, oracle, adversarial, fill)


def cd_gbs(cfg: GbsConfig, oracle) -> EmpiricalLabelling:
    """Lexicographic search; returns a labelling with a ``stats`` attribute."""
    return _dyadic(cfg, oracle, adversarial=False)


def cd_gbs_adversarial(cfg: GbsConfig, oracle) -> EmpiricalLabelling:
    """Adversarial search on an upper-envelope partition, with merging."""
    return _dyadic(cfg, oracle, adversarial=True)


def uncovered_intervals(lab: EmpiricalLabelling, k: int, eps: float) -> list:
    """Dyadic level-k intervals whose endpoint-hull slices fail at eps."""
    out = []
    for i in range(1, 2 ** k + 1):
        iv = DyadicInterval(k, i)
        if not is_slice_covered(lab, (iv.left, iv.right), eps):
            out.append(iv)
    return out
