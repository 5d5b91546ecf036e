import math
import time
from functools import lru_cache
from types import SimpleNamespace

import numpy as np
import pytest

from partlearn import crgbs
from partlearn.cdgbs import GbsConfig, cd_gbs, cd_gbs_adversarial, cdgbs_query_bound
from partlearn.crgbs import CrConfig, cr_gbs, cr_sub_eps, gamma_capture
from partlearn.coverage import simplex_lattice
from partlearn.geometry import PointHull, corner_simplex_vertices, gamma_interior
from partlearn.labelling import EmpiricalLabelling, is_eps_close, voronoi_labels
from partlearn.partition import cell_hpolytope, make_oracle, random_uepp
from partlearn.partition import _enumerate_vertices


@pytest.mark.parametrize("m", (3, 4))
def test_crgbs_close_with_face_budget(m):
    n, eps = 2, 0.15
    u = random_uepp(m, n, seed=m)
    o = make_oracle(u, kind="adversarial", policy="seeded", record=False)
    lab = cr_gbs(CrConfig(m, n, eps, oracle_kind="adversarial"), o)
    assert is_eps_close(lab, None, eps).is_close
    assert len(lab.stats.face_queries) == math.comb(m + 1, 2)
    per_face_cap = cdgbs_query_bound(1, n, cr_sub_eps(m, n, eps)) + 2
    assert o.log.count <= math.comb(m + 1, 2) * per_face_cap
    # the face-vertex queries are the top level's, each simplex vertex charged
    # once; the face searches are depth 1
    assert lab.stats.depth_queries == [m + 1, o.log.count - (m + 1)]


# cr_gbs with n = 3 is checked in test_n3_face_runs_match_a_lattice_reference
@pytest.mark.parametrize("search, m, n, eps, kind", [
    ("cd_gbs", 3, 3, 0.1, "lexicographic"),
    ("cd_gbs_adversarial", 3, 3, 0.1, "adversarial"),
    *[("cr_gbs", m, 2, 0.15, kind) for m in (3, 4, 5)
      for kind in ("lexicographic", "adversarial")],
    ("cr_gbs", 2, 3, 0.15, "lexicographic"),    # the fallback to cd_gbs
])
def test_no_search_asks_a_point_twice(search, m, n, eps, kind):
    o = make_oracle(random_uepp(m, n, seed=1), kind=kind)
    if search == "cr_gbs":
        lab = cr_gbs(CrConfig(m, n, eps, oracle_kind=kind), o)
    else:
        cfg = GbsConfig(m, n, eps, oracle_kind=kind)
        lab = (cd_gbs if search == "cd_gbs" else cd_gbs_adversarial)(cfg, o)
    points = [pt for pt, _ in o.log.transcript]
    assert len(set(points)) == len(points) == lab.stats.queries
    assert sum(lab.stats.depth_queries) == lab.stats.queries


def test_config_rejects_an_unknown_oracle_kind():
    o = make_oracle(random_uepp(4, 2, seed=1), kind="adversarial", record=False)
    with pytest.raises(ValueError):
        cr_gbs(CrConfig(4, 2, 0.15, oracle_kind="adv"), o)
    assert o.log.count == 0


@pytest.mark.parametrize("m", [40, 100])
def test_the_face_cap_is_checked_before_any_face_is_built(monkeypatch, m):
    # n = 3 learns along 3-faces: C(41, 4) = 101,270 faces at m = 40 and
    # 4,082,925 at m = 100, both beyond MAX_FACES
    assert math.comb(m + 1, 4) > crgbs.MAX_FACES

    def no_faces(*_args, **_kw):
        raise AssertionError("the faces were enumerated")
    monkeypatch.setattr(crgbs, "enumerate_k_faces", no_faces)
    o = make_oracle(random_uepp(m, 3, seed=0), record=False)
    with pytest.raises(ValueError, match="face count beyond the configured cap"):
        cr_gbs(CrConfig(m, 3, 0.5), o)
    assert o.log.count == 0


def test_crgbs_single_label_trivial():
    u = random_uepp(3, 1, seed=0)
    o = make_oracle(u, record=False)
    lab = cr_gbs(CrConfig(3, 1, 0.2), o)
    assert is_eps_close(lab, None, 0.2).is_close
    # one query per face vertex plus the zero-dimensional face runs
    assert o.log.count <= 2 * sum(1 for _ in lab.stats.face_queries) * 1 + 8


def test_crgbs_falls_back_when_dimension_small():
    u = random_uepp(2, 3, seed=1)   # k = 3 >= m = 2
    o = make_oracle(u, record=False)
    lab = cr_gbs(CrConfig(2, 3, 0.1), o)
    assert lab.stats.fallback
    assert is_eps_close(lab, None, 0.1).is_close


def test_face_vertices_queried_and_correct():
    u = random_uepp(3, 2, seed=5)
    o = make_oracle(u)
    lab = cr_gbs(CrConfig(3, 2, 0.15), o)
    simplex_verts = corner_simplex_vertices(3)
    queried = {tuple(np.round(p, 9)) for p, _ in o.log.transcript}
    for v in simplex_verts:
        assert tuple(np.round(v, 9)) in queried
    # each vertex's stored label is among its true labels
    for pt, lbl in o.log.transcript:
        assert lbl in u.label_set(np.clip(np.array(pt), 0, None), tol=1e-7)


def test_lexicographic_hulls_stay_sound():
    u = random_uepp(3, 2, seed=6)
    from partlearn.partition import uepp_cells
    gt = dict(uepp_cells(u).cells)
    o = make_oracle(u)
    lab = cr_gbs(CrConfig(3, 2, 0.15), o)
    assert not lab.stats.conflict_flag
    rng = np.random.default_rng(0)
    for root in lab.class_roots():
        hull = lab.hull(root)
        if hull.is_empty:
            continue
        W = rng.dirichlet(np.ones(len(hull)), size=120) @ hull.vertices
        assert (PointHull(gt[root].vertices).distances(W) <= 1e-6).all()


def _force_last_round(monkeypatch) -> list:
    """Make every first-round end check fail, so cr_gbs returns its
    `cr_sub_eps` round; the list returned collects the checks' eps."""
    checks = []

    def fails(lab, region, eps):
        checks.append(eps)
        return SimpleNamespace(is_close=False)
    monkeypatch.setattr(crgbs, "is_eps_close", fails)
    return checks


def test_gamma_interior_points_receive_their_label(monkeypatch):
    # the capture lemma is the claim of the paper's face accuracy, which
    # only the last round learns at
    _force_last_round(monkeypatch)
    m, n, eps = 3, 2, 0.15
    u = random_uepp(m, n, seed=7)
    o = make_oracle(u, record=False)
    lab = cr_gbs(CrConfig(m, n, eps), o)
    gamma = gamma_capture(m, n, eps)
    rng = np.random.default_rng(3)
    for i in range(1, n + 1):
        h, boundary = cell_hpolytope(u, i)
        g = gamma_interior(h, boundary, gamma)
        verts = _enumerate_vertices(g.normals, g.offsets, m)
        if len(verts) < m + 1:
            continue
        W = rng.dirichlet(np.ones(len(verts)), size=60) @ verts
        for w in W:
            assert i in voronoi_labels(w, lab, slack=1e-9)


def test_adversarial_merges_terminate():
    u = random_uepp(4, 2, seed=8, duplicate_rows=1)
    o = make_oracle(u, kind="adversarial", policy="roundrobin", record=False)
    lab = cr_gbs(CrConfig(4, 2, 0.15, oracle_kind="adversarial"), o)
    assert len(lab.stats.merges) <= 1   # n - 1
    assert is_eps_close(lab, None, 0.15).is_close


@lru_cache(maxsize=None)
def _lattice_max_distance(text: str, spacing: float) -> float:
    """Largest distance from a point of the spacing lattice of the simplex
    to the nearest class hull of the labelling ``text``, exactly: a point
    inside a hull (facet bound 0) is at 0, every other one is measured."""
    lab = EmpiricalLabelling.from_json(text)
    X = simplex_lattice(lab.m, spacing)
    hulls = [lab.point_hull(root) for root in lab.class_roots()]
    outside = np.ones(len(X), dtype=bool)
    for h in hulls:
        outside &= h.lower_bounds(X) > 0
    X = X[outside]
    return float(np.min([h.distances(X) for h in hulls], axis=0).max()) if len(X) else 0.0


def _mislabelled(lab, u, tol=1e-7) -> int:
    """Stored points whose class holds none of the UEPP's labels there."""
    bad = 0
    for lbl in range(1, lab.n + 1):
        pts = lab.points_of(lbl, merged=False)
        if len(pts):
            vals = pts @ u.A.T + u.b
            members = [k - 1 for k in range(1, lab.n + 1) if lab.find(k) == lab.find(lbl)]
            bad += int(np.sum(vals[:, members].max(axis=1) < vals.max(axis=1) - tol))
    return bad


@pytest.mark.parametrize("kind", ("lexicographic", "adversarial"))
@pytest.mark.parametrize("seed", range(300, 306))
def test_n3_face_runs_match_a_lattice_reference(seed, kind):
    # the 3-faces at cr_sub_eps(4, 3, 0.15) = 4.5e-6 overran the verifier's
    # cell cap on all twelve runs; the first round at eps/2 settles them
    m, n, eps = 4, 3, 0.15
    u = random_uepp(m, n, seed=seed)
    o = make_oracle(u, kind=kind)
    lab = cr_gbs(CrConfig(m, n, eps, oracle_kind=kind), o)
    assert is_eps_close(lab, None, eps).is_close
    assert _lattice_max_distance(lab.to_json(), 1 / 40) <= eps
    assert _mislabelled(lab, u) == 0
    points = [pt for pt, _ in o.log.transcript]
    assert len(set(points)) == len(points) == lab.stats.queries == sum(lab.stats.depth_queries)
    assert len(lab.stats.face_queries) == math.comb(m + 1, 4)


@pytest.mark.parametrize("m, seed", [(5, 300), (5, 301), (6, 300)])
def test_n3_face_route_finishes_in_seconds(m, seed):
    eps = 0.15
    o = make_oracle(random_uepp(m, 3, seed=seed), record=False)
    t0 = time.process_time()
    lab = cr_gbs(CrConfig(m, 3, eps), o)
    assert is_eps_close(lab, None, eps).is_close
    assert time.process_time() - t0 < 30.0
    assert lab.stats.queries == o.log.count


@pytest.mark.parametrize("m, n, seed, kind", [
    (4, 2, 1, "adversarial"), (3, 2, 5, "lexicographic"), (5, 2, 2, "adversarial")])
def test_a_forced_fallback_returns_the_one_round_labelling(monkeypatch, m, n, seed, kind):
    # a one-round run: the first round at (a float's width from) cr_sub_eps,
    # accepted unchecked
    eps = 0.15
    cfg = CrConfig(m, n, eps, oracle_kind=kind)
    u = random_uepp(m, n, seed=seed)
    with monkeypatch.context() as mp:
        mp.setattr(crgbs, "FIRST_ROUND", cr_sub_eps(m, n, eps) / eps)
        mp.setattr(crgbs, "is_eps_close", lambda lab, region, eps: SimpleNamespace(is_close=True))
        one = cr_gbs(cfg, make_oracle(u, kind=kind, record=False))
    assert one.stats.face_eps == pytest.approx(cfg.sub_eps)
    checks = _force_last_round(monkeypatch)
    o = make_oracle(u, kind=kind, record=False)
    lab = cr_gbs(cfg, o)
    assert checks == [eps] and lab.stats.face_eps == cfg.sub_eps
    assert lab.to_json() == one.to_json()
    # 1-D faces: the first round's bisection points are the last round's
    assert lab.stats.queries == one.stats.queries == o.log.count
    assert sum(lab.stats.depth_queries) == lab.stats.queries
    assert sum(lab.stats.face_queries.values()) == sum(one.stats.face_queries.values())


@pytest.mark.parametrize("m, n, seed", [(4, 2, 1), (6, 2, 1), (4, 3, 302)])
def test_an_accepted_first_round_counts_every_charged_query(m, n, seed):
    eps = 0.15
    o = make_oracle(random_uepp(m, n, seed=seed), kind="adversarial", record=False)
    lab = cr_gbs(CrConfig(m, n, eps, oracle_kind="adversarial"), o)
    assert lab.stats.face_eps == eps / 2
    assert sum(lab.stats.depth_queries) == lab.stats.queries == o.log.count
    # every query, a simplex vertex's included, is asked within a face
    assert sum(lab.stats.face_queries.values()) == o.log.count
