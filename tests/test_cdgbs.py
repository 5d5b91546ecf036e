import math

import numpy as np
import pytest

from partlearn import cdgbs
from partlearn.cdgbs import (
    DyadicInterval, GbsConfig, cd_gbs, cd_gbs_adversarial, cdgbs_query_bound,
    fix_uncovered_critical, sub_eps, uncovered_cap, uncovered_intervals,
)
from partlearn.geometry import VPolytope, distance_to_hull
from partlearn.labelling import EmpiricalLabelling, is_eps_close
from partlearn.partition import (
    PartitionGroundTruth, QueryBudgetError, UEPP, make_oracle, random_uepp, uepp_cells,
)
from partlearn.predicates import ETA


def interval_uepp(boundaries):
    """1-d partition with cells split exactly at the given sorted boundaries.

    Uses tangents to y^2: tangents at t_i and t_{i+1} cross at their average,
    so consecutive tangency points are reflected through each boundary.
    """
    t = [boundaries[0] - 0.25]
    for c in boundaries:
        t.append(2.0 * c - t[-1])
    rows = np.array([[2.0 * ti] for ti in t])
    offs = np.array([-ti * ti for ti in t])
    return UEPP(rows, offs)


def test_dyadic_interval_fields():
    iv = DyadicInterval(3, 5)
    assert iv.left == pytest.approx(0.5)
    assert iv.right == pytest.approx(0.625)
    assert iv.midpoint == pytest.approx(0.5625)
    with pytest.raises(ValueError):
        DyadicInterval(2, 5)


def test_m0_single_query():
    u = UEPP(np.zeros((2, 0)), np.array([0.3, 0.9]))
    o = make_oracle(u)
    lab = cd_gbs(GbsConfig(0, 2, 0.5), o)
    assert o.log.count == 1
    assert lab.points_of(2).shape == (1, 0)


def test_1d_brackets_boundary_within_eps():
    # cells [0, 0.37] and [0.37, 1]
    u = UEPP(np.array([[-1.0], [1.0]]), np.array([0.37, -0.37]))
    eps = 2.0 ** -10
    o = make_oracle(u)
    lab = cd_gbs(GbsConfig(1, 2, eps), o)
    left, right = lab.points_of(1), lab.points_of(2)
    assert left.max() <= 0.37 <= right.min()
    assert right.min() - left.max() <= 2 * eps
    n = 2
    assert o.log.count <= n * math.ceil(math.log2(2 / eps)) + 2
    assert is_eps_close(lab, None, eps).is_close


@pytest.mark.parametrize("seed", range(4))
def test_2d_runs_close_and_within_bound(seed):
    n = 3
    u = random_uepp(2, n, seed=seed)
    o = make_oracle(u, record=False)
    eps = 0.1
    lab = cd_gbs(GbsConfig(2, n, eps), o)
    assert is_eps_close(lab, None, eps).is_close
    assert o.log.count <= cdgbs_query_bound(2, n, eps)
    assert max(lab.stats.per_level_uncovered, default=0) <= uncovered_cap(2, n)


def test_soundness_of_learned_hulls():
    u = random_uepp(2, 3, seed=2)
    gt = dict(uepp_cells(u).cells)
    o = make_oracle(u)
    lab = cd_gbs(GbsConfig(2, 3, 0.1), o)
    rng = np.random.default_rng(0)
    for root in lab.class_roots():
        hull = lab.hull(root)
        if hull.is_empty:
            continue
        W = rng.dirichlet(np.ones(len(hull)), size=150) @ hull.vertices
        for w in W:
            assert distance_to_hull(w, gt[root])[0] <= 1e-6


def test_config_and_search_reject_an_oracle_kind_they_do_not_run():
    with pytest.raises(ValueError):
        GbsConfig(2, 3, 0.1, oracle_kind="adv")
    u = random_uepp(2, 3, seed=5)
    with pytest.raises(ValueError):
        cd_gbs(GbsConfig(2, 3, 0.1, oracle_kind="adversarial"), make_oracle(u, kind="adversarial"))
    with pytest.raises(ValueError):
        cd_gbs_adversarial(GbsConfig(2, 3, 0.1), make_oracle(u))


def test_determinism_of_transcripts():
    u = random_uepp(2, 3, seed=5)
    logs = []
    for _ in range(2):
        o = make_oracle(u, kind="adversarial", policy="seeded", seed=4)
        cd_gbs_adversarial(GbsConfig(2, 3, 0.1, oracle_kind="adversarial", seed=4), o)
        logs.append(o.log.transcript)
    assert logs[0] == logs[1]


def test_query_monotone_in_eps():
    u = random_uepp(2, 3, seed=6)
    counts = []
    for eps in (0.2, 0.1, 0.05):
        o = make_oracle(u, record=False)
        cd_gbs(GbsConfig(2, 3, eps), o)
        counts.append(o.log.count)
    assert counts[0] <= counts[1] <= counts[2]


def test_1d_log_growth_affine():
    u = interval_uepp([0.37])
    n = 2
    counts = {}
    for k in (6, 8, 10, 12):
        o = make_oracle(u, record=False)
        cd_gbs(GbsConfig(1, n, 2.0 ** -k), o)
        counts[k] = o.log.count
    slopes = [(counts[k + 2] - counts[k]) / 2.0 for k in (6, 8, 10)]
    assert all(0 <= s <= n for s in slopes)


def test_budget_propagates():
    u = random_uepp(2, 3, seed=7)
    o = make_oracle(u, budget=10, record=False)
    with pytest.raises(QueryBudgetError):
        cd_gbs(GbsConfig(2, 3, 0.05), o)


# -- adversarial runs ---------------------------------------------------------------

def test_adversarial_duplicates_merge_roundrobin():
    u = random_uepp(2, 3, seed=1000, duplicate_rows=1)
    o = make_oracle(u, kind="adversarial", policy="roundrobin", seed=7)
    lab = cd_gbs_adversarial(GbsConfig(2, 3, 0.1, oracle_kind="adversarial"), o)
    assert lab.stats.merges
    assert is_eps_close(lab, None, 0.1).is_close
    # merged hull still inside the (shared) true cell
    gt = dict(uepp_cells(u).cells)
    i, j = lab.stats.merges[0]
    rng = np.random.default_rng(1)
    hull = lab.hull(i)
    W = rng.dirichlet(np.ones(len(hull)), size=100) @ hull.vertices
    for w in W:
        assert min(distance_to_hull(w, gt[i])[0], distance_to_hull(w, gt[j])[0]) <= 1e-6


def test_adversarial_maxindex_is_close_but_quiet():
    # a consistent max-index adversary is a reversed-order lexicographic
    # oracle: duplicates stay hidden behind their larger label and no merge
    # evidence can arise, but the labelling must still be close
    u = random_uepp(2, 3, seed=1001, duplicate_rows=1)
    o = make_oracle(u, kind="adversarial", policy="maxindex")
    lab = cd_gbs_adversarial(GbsConfig(2, 3, 0.1, oracle_kind="adversarial"), o)
    assert is_eps_close(lab, None, 0.1).is_close


def test_adversarial_equals_lexicographic_without_ties():
    u = random_uepp(2, 3, seed=8)

    tie_sizes = []
    o1 = make_oracle(u, kind="lexicographic")
    orig = o1.label_set
    o1.label_set = lambda y: (tie_sizes.append(len(orig(y))) or orig(y))
    cd_gbs(GbsConfig(2, 3, 0.2), o1)
    if max(tie_sizes) > 1:
        pytest.skip("instance produced a tie on the query path")
    o2 = make_oracle(u, kind="adversarial", policy="roundrobin")
    cd_gbs_adversarial(GbsConfig(2, 3, 0.2, oracle_kind="adversarial"), o2)
    assert o1.log.transcript == o2.log.transcript


def test_adversarial_query_bound():
    for seed in range(3):
        u = random_uepp(2, 3, seed=seed + 50)
        o = make_oracle(u, kind="adversarial", policy="seeded", record=False)
        cd_gbs_adversarial(GbsConfig(2, 3, 0.1, oracle_kind="adversarial"), o)
        assert o.log.count <= cdgbs_query_bound(2, 3, 0.1)


# -- interval bookkeeping --------------------------------------------------------------

def test_uncovered_intervals_fine_grid_none():
    lab = EmpiricalLabelling(2, 1)
    eps = 0.4
    for i in range(5):
        t = i / 4
        width = 1 - t
        ys = np.linspace(0.0, max(width, 0.0), 8)
        lab.add_block(np.column_stack([np.full_like(ys, t), ys]), 1)
    assert uncovered_intervals(lab, 2, eps) == []


def test_uncovered_intervals_endpoints_only():
    lab = EmpiricalLabelling(2, 3)
    ys = np.linspace(0.0, 1.0, 12)
    lab.add_block(np.column_stack([np.zeros_like(ys), ys]), 1)
    lab.add_query([1.0, 0.0], 2)
    got = uncovered_intervals(lab, 1, 0.1)
    assert len(got) == 2


# -- degenerate sections and fixing ------------------------------------------------------

def degenerate_partition():
    """Vertical facet at the dyadic coordinate 1/2; the section there is
    degenerate (left cell's section strictly contains the right cells')."""
    left = VPolytope(np.array([[0.0, 0.0], [0.5, 0.0], [0.5, 0.5], [0.0, 1.0]]))
    r_bot = VPolytope(np.array([[0.5, 0.0], [1.0, 0.0], [0.5, 0.2]]))
    r_top = VPolytope(np.array([[0.5, 0.2], [1.0, 0.0], [0.5, 0.5]]))
    return PartitionGroundTruth(2, [(1, r_bot), (2, r_top), (3, left)])


def test_run_on_degenerate_dyadic_section():
    gt = degenerate_partition()
    o = make_oracle(gt)
    lab = cd_gbs(GbsConfig(2, 3, 0.15), o)
    assert is_eps_close(lab, None, 0.15).is_close


def test_fix_uncovered_critical_noop_when_covered():
    u = random_uepp(2, 2, seed=9)
    o = make_oracle(u)
    lab = cd_gbs(GbsConfig(2, 2, 0.15), o)
    cfg = GbsConfig(2, 2, 0.15)
    before = o.log.count
    fix_uncovered_critical(lab, 0.5, cfg, o)
    assert o.log.count == before


def test_fix_uncovered_critical_repairs_sparse_neighborhood():
    u = random_uepp(2, 2, seed=10)
    o = make_oracle(u)
    cfg = GbsConfig(2, 2, 0.3)
    lab = EmpiricalLabelling(2, 2)
    # a deliberately sparse labelling: single points far from x = 0.5
    lab.add_query([0.0, 0.0], o([0.0, 0.0]))
    lab.add_query([1.0, 0.0], o([1.0, 0.0]))
    fixed = fix_uncovered_critical(lab, 0.5, cfg, o)
    from partlearn.cdgbs import _ball_slab, _global_hulls
    from partlearn.coverage import verify_eps_net
    rep = verify_eps_net(_ball_slab(0.5, cfg.eps, 2), _global_hulls(fixed), cfg.eps)
    assert rep.is_close


def test_1d_interleaving_sets_flag():
    from partlearn.cdgbs import _binary_search_1d

    def degenerate_query(x):
        # what a lexicographic oracle composed onto a degenerate section
        # can look like: label 1 reappears beyond label 2's strip
        y = float(x[0])
        if y < 0.3:
            return 1
        if y < 0.6:
            return 2
        if y < 0.85:
            return 1
        return 3

    out = _binary_search_1d(2.0 ** -6, degenerate_query)
    assert out.flagged
    assert 1 in out.points and 2 in out.points


def test_flagged_subrun_triggers_in_frame_repair():
    # top-level run over a stack whose section at the first dyadic
    # coordinate answers like a degenerate composition; the suspect loop
    # must leave the neighbourhood covered
    from partlearn.partition import QueryLog

    class StackOracle:
        def __init__(self):
            self.log = QueryLog(record=False)

        def __call__(self, x):
            self.log.charge(x)
            t, y = float(x[0]), float(x[1])
            if abs(t - 0.25) <= 1e-12:
                # level-1 midpoint: answer like a degenerate composition
                frac = min(y / 0.75, 1.0)
                if frac < 0.3:
                    return 1
                if frac < 0.6:
                    return 2
                if frac < 0.85:
                    return 1
                return 3
            return 1 if t < 0.25 else 2

    o = StackOracle()
    cfg = GbsConfig(2, 3, 0.2)
    lab = cd_gbs(cfg, o)
    assert 0.25 in lab.stats.suspects
    # the repair loop's postcondition: the suspect's neighbourhood is covered
    # (here the flagged section's own points already suffice, so no retries)
    from partlearn.cdgbs import _ball_slab, _global_hulls
    from partlearn.coverage import verify_eps_net
    rep = verify_eps_net(_ball_slab(0.25, cfg.eps, 2), _global_hulls(lab), cfg.eps)
    assert rep.is_close


def test_fix_attempts_stay_bounded_on_random_instances():
    total = 0
    for seed in range(8):
        u = random_uepp(2, 3, seed=seed + 80)
        o = make_oracle(u, record=False)
        lab = cd_gbs(GbsConfig(2, 3, 0.1), o)
        total += lab.stats.fixes
        assert lab.stats.fixes <= uncovered_cap(2, 3)
    assert total <= 8 * uncovered_cap(2, 3)


def _paper_sub_eps(eps, m, n, t):
    return eps * eps / (85.0 * (1.0 - t) * n * m ** 2.5)


@pytest.mark.parametrize("kind", ["lexicographic", "adversarial"])
@pytest.mark.parametrize("n, eps, seed", [(3, 0.2, 40), (3, 0.1, 41), (4, 0.15, 42)])
def test_eta_floor_against_the_paper_accuracy(kind, n, eps, seed):
    # two levels down the paper's accuracy is far below ETA, so the floor binds
    assert _paper_sub_eps(_paper_sub_eps(eps, 3, n, 0.5), 2, n, 0.5) < ETA
    u = random_uepp(3, n, seed=seed)
    search = cd_gbs if kind == "lexicographic" else cd_gbs_adversarial
    floored = search(GbsConfig(3, n, eps, oracle_kind=kind), make_oracle(u, kind=kind))
    with pytest.MonkeyPatch.context() as mp:
        # the reference is the single-pass schedule at the paper's accuracy
        mp.setattr(cdgbs, "sub_eps", _paper_sub_eps)
        mp.setattr(cdgbs, "_first_pass_eps", _paper_sub_eps)
        paper = search(GbsConfig(3, n, eps, oracle_kind=kind), make_oracle(u, kind=kind))
    for lab in (floored, paper):
        assert is_eps_close(lab, None, eps).is_close
        assert sum(lab.stats.depth_queries) == lab.stats.queries
        assert len(lab.stats.depth_queries) == 3
    assert floored.stats.queries <= paper.stats.queries
    # the top-level search reads eps itself, so only the deeper counts move
    assert floored.stats.depth_queries[2] < paper.stats.depth_queries[2]


def test_sub_eps_never_below_eta():
    for m in range(1, 9):
        for n in range(1, 9):
            for eps in (1.0, 0.1, 1e-3, 1e-6):
                for t in (0.0, 0.5, 0.999):
                    want = max(_paper_sub_eps(eps, m, n, t), ETA)
                    assert sub_eps(eps, m, n, t) == want >= ETA


def test_depth_queries_split_the_queries_by_lift_depth():
    o = make_oracle(random_uepp(1, 3, seed=5))
    lab = cd_gbs(GbsConfig(1, 3, 0.05), o)
    assert lab.stats.depth_queries == [o.log.count]
    o = make_oracle(random_uepp(3, 3, seed=5))
    lab = cd_gbs(GbsConfig(3, 3, 0.1), o)
    d = lab.stats.depth_queries
    assert sum(d) == lab.stats.queries == o.log.count
    # the top-level search asks only its apex, each of its 2-D sections
    # (one at t = 0, one per uncovered slab) only its own apex, and every
    # other query comes from the 1-D searches below them
    assert lab.stats.fixes == 0
    assert d[0] == 1
    assert d[1] == 1 + sum(lab.stats.per_level_uncovered)
    assert d[2] == o.log.count - d[0] - d[1]


@pytest.mark.parametrize("m, n, eps, seed, coarsen, depth", [
    (2, 3, 0.1, 17, None, 1),   # a 1-D section of the top-level search
    (3, 3, 0.15, 1, None, 2),   # a 1-D section of a 2-D section
    # a 2-D section: a first pass at 4 eps leaves the top level's halves open
    (3, 3, 0.3, 3, 4.0, 1),
])
def test_refined_sections_are_paid_once_and_counted_at_their_depth(m, n, eps, seed, coarsen,
                                                                   depth):
    refined = []
    refine = cdgbs._Search.refine

    def spy(search, t):
        refined.append(search.depth + 1)
        refine(search, t)

    o = make_oracle(random_uepp(m, n, seed=seed))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cdgbs._Search, "refine", spy)
        if coarsen:
            mp.setattr(cdgbs, "_first_pass_eps", lambda e, *_: coarsen * e)
        lab = cd_gbs(GbsConfig(m, n, eps), o)
    st = lab.stats
    assert depth in refined
    assert st.refinements == len(refined)
    assert is_eps_close(lab, None, eps).is_close
    d = st.depth_queries
    assert sum(d) == st.queries == o.log.count
    assert min(d) >= 0
    # a refined section re-asks its coarse points from the answer cache, so
    # the oracle never sees a point twice
    points = [pt for pt, _ in o.log.transcript]
    assert len(set(points)) == len(points)
    # only apexes are asked above the 1-D searches, and a refined section's
    # apex is a cache hit: a query counted at a depth the oracle never saw
    # would break these equalities
    assert st.fixes == 0
    assert d[0] == 1
    if m == 3:
        assert d[1] == 1 + sum(st.per_level_uncovered)
