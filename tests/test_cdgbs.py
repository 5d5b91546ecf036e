import math
from bisect import bisect_right

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partlearn import cdgbs, labelling
from partlearn.cdgbs import (
    HIGH, LOW, GbsConfig, RunStats, _binary_search_1d, cd_gbs, cd_gbs_adversarial,
    cdgbs_query_bound, uncovered_cap,
)
from partlearn.coverage import SimplexSlab, simplex_lattice, verify_eps_net
from partlearn.crgbs import CrConfig, cr_gbs
from partlearn.geometry import PointHull, VPolytope
from partlearn.labelling import EmpiricalLabelling, is_eps_close
from partlearn.partition import (
    AnswerMemo, PartitionGroundTruth, QueryBudgetError, UEPP, make_oracle, random_uepp,
    uepp_cells,
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
        assert (PointHull(gt[root].vertices).distances(W) <= 1e-6).all()


def test_config_and_search_reject_an_oracle_kind_they_do_not_run():
    with pytest.raises(ValueError):
        GbsConfig(2, 3, 0.1, oracle_kind="adv")
    u = random_uepp(2, 3, seed=5)
    with pytest.raises(ValueError):
        cd_gbs(GbsConfig(2, 3, 0.1, oracle_kind="adversarial"), make_oracle(u, kind="adversarial"))
    with pytest.raises(ValueError):
        cd_gbs_adversarial(GbsConfig(2, 3, 0.1), make_oracle(u))


@pytest.mark.parametrize("config", [GbsConfig, CrConfig])
@pytest.mark.parametrize("m, n", [(3, 0), (-1, 3)])
def test_config_rejects_a_bad_dimension_or_label_count(config, m, n):
    with pytest.raises(ValueError):
        config(m, n, 0.1)


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
    d = np.minimum(PointHull(gt[i].vertices).distances(W), PointHull(gt[j].vertices).distances(W))
    assert (d <= 1e-6).all()


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


def _search(o, m, n, eps, seed=0):
    """A lexicographic top-level `_Search` asking ``o`` through a memo."""
    return cdgbs._Search(cdgbs._Run(n, False, RunStats(), seed), m, eps, AnswerMemo(o), 0)


def _sparse_search(o, m, n, eps, points, seed=0):
    """A `_Search` whose nets hold only ``points``, each on the section of
    its first coordinate, and which suspects the section at 0.5."""
    s = _search(o, m, n, eps, seed)
    nets = {}
    for v in np.asarray(points, dtype=float):
        nets.setdefault(float(v[0]), {}).setdefault(s.query(v), []).append(v)
    for t, net in nets.items():
        s._add_net(t, {lbl: np.array(pts) for lbl, pts in net.items()})
    s.suspects.append(0.5)
    return s


def _ball_covered(s, x) -> bool:
    """Whether the class hulls of a search's nets cover the eps/2 ball slab
    around x, the postcondition of its repair."""
    half = s.eps / 2
    return verify_eps_net(SimplexSlab(s.m, x - half, x + half), s._hulls(), s.eps).is_close


def test_repair_asks_nothing_when_the_ball_slab_is_covered():
    o = make_oracle(random_uepp(2, 2, seed=9))
    s = _search(o, 2, 2, 0.15)
    s.search()
    before = o.log.count
    s.suspects.append(0.5)
    s._fix_suspects()
    assert o.log.count == before and s.run.stats.fixes == 0


def test_repair_covers_a_sparse_two_label_neighbourhood():
    # single points far from x = 0.5
    o = make_oracle(random_uepp(2, 2, seed=10))
    s = _sparse_search(o, 2, 2, 0.3, [[0.0, 0.0], [1.0, 0.0]])
    s._fix_suspects()
    assert _ball_covered(s, 0.5)


@pytest.mark.parametrize("eps", [0.3, 0.1, 0.05])
@pytest.mark.parametrize("seed", range(10, 20))
def test_repair_retries_at_the_section_accuracy(seed, eps):
    # the sparse start of the test above on three-label partitions at three
    # accuracies: the retry loop runs, and covers the ball slab within its
    # attempt cap
    o = make_oracle(random_uepp(2, 3, seed=seed))
    s = _sparse_search(o, 2, 3, eps, [[0.0, 0.0], [1.0, 0.0]])
    s._fix_suspects()
    assert 0 < s.run.stats.fixes <= 2 * uncovered_cap(2, 3)
    assert _ball_covered(s, 0.5)


@pytest.mark.parametrize("seed", range(4))
def test_the_seed_parity_picks_the_side_a_repair_starts_on(seed):
    o = make_oracle(random_uepp(2, 3, seed=10))
    s = _sparse_search(o, 2, 3, 0.1, [[0.0, 0.0], [1.0, 0.0]], seed=seed)
    asked = []
    recurse = s.recurse
    s.recurse = lambda t: (asked.append(t), recurse(t))
    s._fix_suspects()
    assert asked and (asked[0] > 0.5) == (seed % 2 == 0)


def test_every_search_of_a_run_repairs_with_the_config_seed(monkeypatch):
    seeds = []
    init = cdgbs._Search.__init__

    def spy(self, *args):
        init(self, *args)
        seeds.append(self.run.seed)

    monkeypatch.setattr(cdgbs._Search, "__init__", spy)
    cd_gbs(GbsConfig(3, 3, 0.2, seed=7), make_oracle(random_uepp(3, 3, seed=1)))
    assert len(seeds) > 1 and set(seeds) == {7}


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
    hulls = [lab.point_hull(r) for r in lab.class_roots()]
    assert verify_eps_net(SimplexSlab(2, 0.25 - cfg.eps / 2, 0.25 + cfg.eps / 2), hulls,
                          cfg.eps).is_close


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
    # sections at the search's eps against the paper's accuracy, which two
    # levels down is far below the predicate band ETA
    assert _paper_sub_eps(_paper_sub_eps(eps, 3, n, 0.5), 2, n, 0.5) < ETA
    u = random_uepp(3, n, seed=seed)
    search = cd_gbs if kind == "lexicographic" else cd_gbs_adversarial
    at_eps = search(GbsConfig(3, n, eps, oracle_kind=kind), make_oracle(u, kind=kind))
    lift = cdgbs._Run.lift

    def paper_lift(self, section, dim, acc, *rest):
        # the reference learns the section at t at the paper's accuracy
        t = float(section(np.zeros(dim))[0])
        return lift(self, section, dim, _paper_sub_eps(acc, dim + 1, self.n, t), *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cdgbs._Run, "lift", paper_lift)
        paper = search(GbsConfig(3, n, eps, oracle_kind=kind), make_oracle(u, kind=kind))
    for lab in (at_eps, paper):
        assert is_eps_close(lab, None, eps).is_close
        assert sum(lab.stats.depth_queries) == lab.stats.queries
        assert len(lab.stats.depth_queries) == 3
    assert at_eps.stats.queries <= paper.stats.queries
    # the top-level search reads eps itself, so only the deeper counts move
    assert at_eps.stats.depth_queries[2] < paper.stats.depth_queries[2]


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


def test_depth_queries_of_runs_sharing_an_answer_memo():
    o = make_oracle(random_uepp(3, 3, seed=1), kind="adversarial")
    memo = AnswerMemo(o)
    for eps in (0.2, 0.1):
        before = o.log.count
        lab = cd_gbs_adversarial(GbsConfig(3, 3, eps, oracle_kind="adversarial"), memo)
        d = lab.stats.depth_queries
        assert min(d) >= 0
        assert sum(d) == lab.stats.queries == o.log.count - before


@pytest.mark.parametrize("m, n, eps, seed, depth", [
    (2, 3, 0.1, 17, 1),   # 1-D sections of the top-level search
    (3, 3, 0.15, 1, 2),   # 1-D sections of 2-D sections
])
def test_sections_are_learned_once_and_counted_at_their_depth(m, n, eps, seed, depth):
    o = make_oracle(random_uepp(m, n, seed=seed))
    lab = cd_gbs(GbsConfig(m, n, eps), o)
    st = lab.stats
    assert is_eps_close(lab, None, eps).is_close
    d = st.depth_queries
    assert len(d) == depth + 1
    assert sum(d) == st.queries == o.log.count
    assert min(d) >= 0
    # every section asks through the run's answer memo, so the oracle never
    # sees a point twice
    points = [pt for pt, _ in o.log.transcript]
    assert len(set(points)) == len(points)
    # only apexes are asked above the 1-D searches: a query counted at a
    # depth the oracle never saw would break these equalities
    assert st.fixes == 0
    assert d[0] == 1
    if m == 3:
        assert d[1] == 1 + sum(st.per_level_uncovered)


@pytest.mark.parametrize("kind", ["lexicographic", "adversarial"])
def test_first_passes_run_at_the_search_eps_in_every_dimension(kind):
    eps, n = 0.1, 3
    calls = []          # (section dim + 1, enclosing search's eps, acc)
    searches = [eps]    # eps of the enclosing searches, innermost last
    lift = cdgbs._Run.lift

    def spy_lift(self, section, dim, acc, *rest):
        calls.append((dim + 1, searches[-1], acc))
        searches.append(acc)
        try:
            return lift(self, section, dim, acc, *rest)
        finally:
            searches.pop()

    search = cd_gbs if kind == "lexicographic" else cd_gbs_adversarial
    cfg = GbsConfig(3, n, eps, oracle_kind=kind)
    o = make_oracle(random_uepp(3, n, seed=100), kind=kind)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cdgbs._Run, "lift", spy_lift)
        lab = search(cfg, o)
        searched = len(calls)
        # a repair learns its sections as a search does
        _sparse_search(o, 3, n, eps, np.vstack([np.zeros(3), np.eye(3)]))._fix_suspects()
    assert is_eps_close(lab, None, eps).is_close
    assert len(calls) > searched
    for _m, e, acc in calls:
        assert acc == e
    # the 3-D search's sections and the repair's are learned at eps ...
    assert {acc for m, _e, acc in calls if m == 3} == {eps}
    # ... and so are those of the planar searches below them
    assert {acc for m, _e, acc in calls if m == 2} == {eps}


def test_a_section_next_to_the_apex_is_learned_at_the_search_eps(monkeypatch):
    # the one place the paper's accuracy eps^2 / (85 (1 - t) n m^2.5) exceeds
    # eps: 1 - t below eps / (85 n m^2.5)
    eps, n, t = 0.1, 3, 1.0 - 2.0 ** -20
    assert eps * eps / (85.0 * (1.0 - t) * n * 2 ** 2.5) > eps
    o = make_oracle(random_uepp(2, n, seed=7))
    s = _search(o, 2, n, eps)
    s.search()
    calls = []
    lift = cdgbs._Run.lift

    def spy(self, section, dim, acc, *rest):
        res = lift(self, section, dim, acc, *rest)
        calls.append((acc, res))
        return res

    monkeypatch.setattr(cdgbs._Run, "lift", spy)
    s.recurse(t)
    [(acc, res)] = calls
    assert acc == eps
    pts = np.vstack(list(res.points.values()))
    assert np.all(pts[:, 0] == t)
    asked = {pt for pt, _ in o.log.transcript}
    assert all(tuple(p) in asked for p in pts)


@pytest.mark.parametrize("kind", ["lexicographic", "adversarial"])
@pytest.mark.parametrize("n, seed", [(2, 100), (3, 100), (3, 104), (4, 103), (5, 106)])
def test_3d_searches_stay_eps_close(kind, n, seed):
    # independent of the schedule test above: the end verifier on the whole simplex
    search = cd_gbs if kind == "lexicographic" else cd_gbs_adversarial
    o = make_oracle(random_uepp(3, n, seed=seed), kind=kind)
    lab = search(GbsConfig(3, n, 0.1, oracle_kind=kind), o)
    assert is_eps_close(lab, None, 0.1).is_close


@pytest.mark.parametrize("kind", ["lexicographic", "adversarial"])
def test_a_planar_labelling_close_on_a_dense_grid_is_verified_close(kind):
    # the unclipped box verifier rejected this labelling by its floor rule at
    # (0.4375, 0.5625), a point on the facet x + y = 1 that lies 0.0625 from
    # the hulls, within eps
    eps = 0.1
    search = cd_gbs if kind == "lexicographic" else cd_gbs_adversarial
    o = make_oracle(random_uepp(2, 3, seed=105), kind=kind)
    lab = search(GbsConfig(2, 3, eps, oracle_kind=kind, seed=5), o)
    assert is_eps_close(lab, None, eps).is_close
    g = np.arange(0.0, 1.0 + 1e-12, 0.002)
    X = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    X = X[X.sum(axis=1) <= 1.0 + 1e-12]
    d = np.min([lab.label_hull(r).distances(X) for r in lab.class_roots()], axis=0)
    assert d.max() <= eps


@pytest.mark.parametrize("kind", ["lexicographic", "adversarial"])
@pytest.mark.parametrize("m, n, seed, eps, spacing", [
    (3, 4, 101, 0.1, 1 / 100), (3, 2, 101, 0.05, 1 / 100), (2, 3, 105, 0.05, 1 / 400),
])
def test_planar_first_passes_at_eps_stay_close_on_a_dense_lattice(kind, m, n, seed, eps, spacing):
    # the planar-sweep runs that ask more queries with planar first passes at
    # eps than at eps/4, checked against exact hull distances on a lattice
    search = cd_gbs if kind == "lexicographic" else cd_gbs_adversarial
    o = make_oracle(random_uepp(m, n, seed=seed), kind=kind)
    lab = search(GbsConfig(m, n, eps, oracle_kind=kind, seed=seed - 100), o)
    assert is_eps_close(lab, None, eps).is_close
    X = simplex_lattice(m, spacing)
    roots = lab.class_roots()
    d = np.min([lab.point_hull(r).distances(X) for r in roots], axis=0)
    far = X[np.argmax(d)]
    assert min(PointHull(lab.hull(r).vertices).distances(far)[0] for r in roots) == \
        pytest.approx(d.max())
    assert d.max() <= eps


@pytest.mark.parametrize("search, m, n, seed, eps, kind", [
    (cd_gbs, 3, 3, 100, 0.05, "lexicographic"),
    (cd_gbs, 4, 3, 300, 0.15, "lexicographic"),
    (cd_gbs_adversarial, 3, 3, 7, 0.1, "adversarial"),
    (cr_gbs, 4, 2, 1, 0.15, "adversarial"),
])
def test_stored_points_are_the_oracles_answers(search, m, n, seed, eps, kind):
    # each label's hull is the hull of the points the oracle answered with it:
    # no stored row is moved or invented on its way up the lifts
    o = make_oracle(random_uepp(m, n, seed=seed), kind=kind, record=True)
    cfg = (CrConfig if search is cr_gbs else GbsConfig)(m, n, eps, oracle_kind=kind)
    lab = search(cfg, o)
    answered = {(np.array(pt).tobytes(), lbl) for pt, lbl in o.log.transcript}
    stored = []
    for lbl in range(1, n + 1):
        pts = lab.points_of(lbl, merged=False)
        assert all((row.tobytes(), lbl) in answered for row in pts)
        stored.append(pts)
    assert len(np.unique(np.vstack(stored), axis=0)) <= lab.stats.queries


# -- the end check composes the search's own slab certificates ----------------------

def _class_hulls(lab):
    return [lab.point_hull(r) for r in lab.class_roots()]


def _spy_end_check(monkeypatch) -> list:
    """The regions `is_eps_close` hands to `verify_eps_net` from now on."""
    regions = []
    verify = labelling.verify_eps_net

    def spy(region, hulls, eps):
        regions.append(region)
        return verify(region, hulls, eps)

    monkeypatch.setattr(labelling, "verify_eps_net", spy)
    return regions


@pytest.mark.parametrize("search, m, n, seed, eps", [
    (cd_gbs, 2, 2, 100, 0.1), (cd_gbs, 2, 3, 105, 0.05), (cd_gbs, 2, 4, 103, 0.1),
    (cd_gbs, 2, 5, 106, 0.05), (cd_gbs, 3, 2, 100, 0.1), (cd_gbs, 3, 3, 104, 0.1),
    (cd_gbs, 3, 4, 1, 0.05),
    (cd_gbs_adversarial, 2, 2, 100, 0.1), (cd_gbs_adversarial, 2, 3, 105, 0.05),
    (cd_gbs_adversarial, 2, 4, 103, 0.1), (cd_gbs_adversarial, 2, 5, 106, 0.05),
    (cd_gbs_adversarial, 3, 2, 100, 0.1), (cd_gbs_adversarial, 3, 3, 104, 0.1),
    (cd_gbs_adversarial, 3, 4, 1, 0.05),
    (cr_gbs, 3, 3, 7, 0.1),          # m <= C(n, 2): cr_gbs runs cd_gbs_adversarial
])
def test_the_composed_verdict_equals_the_whole_simplex_verifier(search, m, n, seed, eps):
    kind = "lexicographic" if search is cd_gbs else "adversarial"
    cfg = (CrConfig if search is cr_gbs else GbsConfig)(m, n, eps, oracle_kind=kind, seed=seed % 5)
    lab = search(cfg, make_oracle(random_uepp(m, n, seed=seed), kind=kind))
    assert lab.certified_slabs is not None and lab.certified_slabs.eps == eps
    composed = is_eps_close(lab, None, eps)
    full = verify_eps_net(SimplexSlab(m, 0.0, 1.0), _class_hulls(lab), eps)
    if composed.is_close != full.is_close:
        # only the box verifier's conservative floor rule may differ, in the
        # plane, where exact distances on a dense grid decide
        assert m == 2 and composed.is_close
        X = simplex_lattice(2, 1 / 800)
        assert np.min([h.distances(X) for h in _class_hulls(lab)], axis=0).max() <= eps


@pytest.mark.parametrize("m", [2, 3])
def test_a_slab_left_uncovered_is_the_only_one_verified(monkeypatch, m):
    eps = 0.1
    w = 2.0 ** -math.ceil(math.log2(2 / eps))      # the last level's slab width
    target = (13 * w, 14 * w)
    covered = cdgbs._Search.slab_covered

    def fail_target(self, a, b):
        # every top-level slab holding the target fails, so the search
        # descends to it and leaves it uncovered at the last level
        if self.depth == 0 and a <= target[0] and target[1] <= b:
            return False
        return covered(self, a, b)

    monkeypatch.setattr(cdgbs._Search, "slab_covered", fail_target)
    lab = cd_gbs(GbsConfig(m, 3, eps), make_oracle(random_uepp(m, 3, seed=1)))
    assert lab.certified_slabs.gaps() == [target]
    regions = _spy_end_check(monkeypatch)
    report = is_eps_close(lab, None, eps)
    assert regions == [SimplexSlab(m, *target)]
    alone = verify_eps_net(SimplexSlab(m, *target), _class_hulls(lab), eps)
    assert (report.is_close, report.cells_touched) == (alone.is_close, alone.cells_touched)
    assert report.cells_touched > 0


def _tiled_labelling(eps=0.1):
    """A cd_gbs labelling whose certified slabs tile [0, 1]."""
    lab = cd_gbs(GbsConfig(3, 3, eps), make_oracle(random_uepp(3, 3, seed=1)))
    assert lab.certified_slabs.eps == eps and lab.certified_slabs.gaps() == []
    return lab


def test_a_tiled_record_leaves_nothing_to_verify_at_its_eps_or_coarser(monkeypatch):
    lab = _tiled_labelling()
    regions = _spy_end_check(monkeypatch)
    for eps in (0.1, 0.2):
        report = is_eps_close(lab, None, eps)
        assert report.is_close and report.cells_touched == 0
        assert report.checked_resolution == eps / 8
    assert regions == []


@pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, math.inf])
def test_a_bad_eps_is_rejected_even_with_nothing_to_verify(eps):
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        is_eps_close(_tiled_labelling(), None, eps)


@pytest.mark.parametrize("case", ["reloaded", "finer eps", "region", "m = 1"])
def test_the_record_is_ignored_where_it_cannot_apply(monkeypatch, case):
    eps = 0.1
    lab, region, expected = _tiled_labelling(eps), None, SimplexSlab(3, 0.0, 1.0)
    if case == "reloaded":
        lab = EmpiricalLabelling.from_json(lab.to_json())
        assert lab.certified_slabs is None
    elif case == "finer eps":
        eps = 0.05
    elif case == "region":
        region = expected = SimplexSlab(3, 0.2, 0.6)
    else:
        lab = cd_gbs(GbsConfig(1, 3, eps), make_oracle(random_uepp(1, 3, seed=1)))
        expected = SimplexSlab(1, 0.0, 1.0)
        assert lab.certified_slabs is None
    regions = _spy_end_check(monkeypatch)
    report = is_eps_close(lab, region, eps)
    assert regions == [expected]
    assert report.cells_touched > 0


def test_slabs_bracketed_by_a_replaced_net_are_verified_again(monkeypatch):
    eps = 0.1
    before, relearned = {}, []

    def relearn(self):
        # a repair landing on a learned coordinate: the top-level search
        # learns the section at its last bracketing coordinate below 1 again
        if self.depth == 0:
            before.update(self.certified)
            relearned.append(max(t for br in before.values() for t in br if t < 1.0))
            self.recurse(relearned[0])

    monkeypatch.setattr(cdgbs._Search, "_fix_suspects", relearn)
    lab = cd_gbs(GbsConfig(3, 3, eps), make_oracle(random_uepp(3, 3, seed=1)))
    dropped = sorted(iv for iv, br in before.items() if relearned[0] in br)
    assert dropped and lab.certified_slabs.slabs == tuple(sorted(set(before) - set(dropped)))
    joined = []
    for a, b in dropped:
        if joined and joined[-1][1] == a:
            joined[-1] = (joined[-1][0], b)
        else:
            joined.append((a, b))
    regions = _spy_end_check(monkeypatch)
    assert is_eps_close(lab, None, eps).is_close
    assert [(r.lo, r.hi) for r in regions] == joined


# --- the seeded 1-D base search -------------------------------------------

def _interval_query(cuts, labels, asked):
    """Label x by the interval of sorted ``cuts`` it falls in ([c_i, c_i+1)),
    recording every point asked."""
    def query(x):
        asked.append(float(x[0]))
        return labels[bisect_right(cuts, float(x[0]))]
    return query


@st.composite
def seeded_intervals(draw):
    cuts = sorted(draw(st.lists(st.floats(0.0, 1.0), max_size=6)))
    labels = draw(st.lists(st.integers(1, 4), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    eps = draw(st.floats(1e-3, 0.5))
    # wrong guesses, guesses outside [0, 1], and guesses on points the
    # search asks anyway (the ends, dyadic midpoints, the cuts themselves)
    z = st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0] + cuts))
    preds = draw(st.lists(st.tuples(z, st.integers(1, 5), st.sampled_from([LOW, HIGH])),
                          max_size=12))
    return cuts, labels, eps, preds


@settings(max_examples=300, deadline=None)
@given(seeded_intervals())
def test_seeded_base_search_keeps_the_bisection_invariants(case):
    cuts, labels, eps, preds = case
    asked = []
    out = _binary_search_1d(eps, _interval_query(cuts, labels, asked), preds)
    assert asked[:2] == [0.0, 1.0]
    assert len(set(asked)) == len(asked)
    # relabel the asked set by brute force: neighbours that differ are eps-close
    xs = sorted(asked)
    ref = [labels[bisect_right(cuts, x)] for x in xs]
    for x, y, lx, ly in zip(xs, xs[1:], ref, ref[1:]):
        assert lx == ly or y - x <= eps
    for lbl in set(ref):
        span = [x for x, r in zip(xs, ref) if r == lbl]
        assert out.points[lbl][[0, -1], 0].tolist() in ([min(span)] * 2, [min(span), max(span)])
    # every pivot taken from a prediction is one asked point inside [0, 1]
    assert out.seeded <= min(len(preds), len(set(asked[2:]) & {z for z, _, _ in preds}))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(0.0, 1.0), max_size=4),
       st.lists(st.tuples(st.floats(-0.5, 1.5), st.integers(1, 3), st.sampled_from([LOW, HIGH])),
                max_size=8))
def test_a_one_label_interval_asks_its_two_ends_whatever_the_predictions(cuts, preds):
    asked = []
    labels = [2] * (len(cuts) + 1)
    preds = preds + [(0.5, 2, LOW), (0.5, 2, HIGH)]
    out = _binary_search_1d(0.01, _interval_query(sorted(cuts), labels, asked), preds)
    assert asked == [0.0, 1.0]
    assert out.points[2][:, 0].tolist() == [0.0, 1.0]


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_exact_predictions_cost_two_points_a_breakpoint(k):
    # labels 0..k in order, breakpoints more than eps apart, and each
    # predicted end eps/3 inside its label's span.  Beyond the two ends the
    # search asks predictions and midpoints.  A midpoint is taken only in a
    # gap whose two eligible predictions are used, so it lands in an
    # interior label no asked point has yet: so at most k - 1 midpoints,
    # and k = 1 asks at most 2 + 2k points
    eps = 0.01
    rng = np.random.default_rng(k)
    cuts = sorted(0.05 + 0.9 * (np.arange(k) + rng.uniform(0.2, 0.8, k)) / k)
    preds = [p for i, c in enumerate(cuts)
             for p in ((c - eps / 3, i, HIGH), (c + eps / 3, i + 1, LOW))]
    rng.shuffle(preds)
    preds = [tuple(p) for p in preds]
    asked = []
    out = _binary_search_1d(eps, _interval_query(cuts, list(range(k + 1)), asked), preds)
    predicted = {z for z, _, _ in preds}
    midpoints = [x for x in asked[2:] if x not in predicted]
    assert out.seeded + len(midpoints) == len(asked) - 2
    found = [bisect_right(cuts, x) for x in midpoints]
    assert len(set(found)) == len(found) and set(found) <= set(range(1, k))
    assert len(asked) <= 2 + 2 * k + (k - 1)
    plain = []
    _binary_search_1d(eps, _interval_query(cuts, list(range(k + 1)), plain))
    assert len(asked) < len(plain)


def test_planar_predictions_lie_in_their_labels_cells():
    # each predicted end is a convex combination of two asked points of its
    # label's cell, so on a consistent oracle it lies in that cell
    u, eps = random_uepp(2, 4, seed=3), 0.02
    seen = []
    lift = cdgbs._Run.lift

    def spy(self, section, dim, acc, query, depth, predictions=()):
        seen.extend((section(np.array([z])), lbl) for z, lbl, _ in predictions)
        return lift(self, section, dim, acc, query, depth, predictions)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cdgbs._Run, "lift", spy)
        lab = cd_gbs(GbsConfig(2, 4, eps), make_oracle(u))
    assert seen and lab.stats.seeded > 0
    assert all(lbl in u.label_set(x, tol=1e-7) for x, lbl in seen)
    assert is_eps_close(lab, None, eps).is_close


def test_predictions_interpolate_the_span_ends_of_the_bracketing_sections():
    s = _search(make_oracle(random_uepp(2, 3, seed=1)), 2, 3, 0.1)
    s._add_net(0.2, {1: np.array([[0.2, 0.0], [0.2, 0.3]]), 2: np.array([[0.2, 0.32], [0.2, 0.8]])})
    s._add_net(0.6, {2: np.array([[0.6, 0.4], [0.6, 0.12]]), 1: np.array([[0.6, 0.0], [0.6, 0.1]]),
                     3: np.array([[0.6, 0.3]])})
    s._add_net(1.0, {3: np.array([[1.0, 0.0]])})
    # at t = 0.4, halfway: y is the mean of the two sections' ends, z = y / 0.6;
    # label 3 is in one section only
    got = sorted(s._predictions(0.4), key=lambda p: (p[1], p[2]))
    want = [(0.0, 1, LOW), (0.2 / 0.6, 1, HIGH), (0.22 / 0.6, 2, LOW), (0.6 / 0.6, 2, HIGH)]
    assert [p[1:] for p in got] == [p[1:] for p in want]
    assert [p[0] for p in got] == pytest.approx([p[0] for p in want], abs=1e-12)
    # a learned coordinate is bracketed by its neighbours, not by itself:
    # at 0.6, between 0.2 and the apex, no label is in both
    assert s._predictions(0.6) == []
    # at 0.7, a quarter of the way from 0.6 to the apex, label 3 spans one
    # point: y = 0.75 * 0.3
    got = s._predictions(0.7)
    assert [p[1:] for p in got] == [(3, LOW), (3, HIGH)]
    assert [p[0] for p in got] == pytest.approx([0.225 / 0.3] * 2, abs=1e-12)
    assert s._predictions(0.1) == []
