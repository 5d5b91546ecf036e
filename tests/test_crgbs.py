import math

import numpy as np
import pytest

from partlearn.cdgbs import cdgbs_query_bound
from partlearn.crgbs import CrConfig, assemble_from_faces, cr_gbs, cr_sub_eps, gamma_capture
from partlearn.geometry import Face, corner_simplex_vertices, distance_to_hull, gamma_interior
from partlearn.labelling import EmpiricalLabelling, is_eps_close, voronoi_labels
from partlearn.partition import cell_hpolytope, make_oracle, random_uepp, uepp_label_set
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
    # the face-vertex queries are the top level's; the face searches are depth 1
    assert lab.stats.depth_queries == [2 * math.comb(m + 1, 2),
                                       o.log.count - 2 * math.comb(m + 1, 2)]


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
        assert lbl in uepp_label_set(u, np.clip(np.array(pt), 0, None), tol=1e-7)


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
        for w in W:
            assert distance_to_hull(w, gt[root])[0] <= 1e-6


def test_gamma_interior_points_receive_their_label():
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


# -- assembly -------------------------------------------------------------------------

def test_assemble_identity_for_top_face():
    lab_k = EmpiricalLabelling(2, 2)
    lab_k.add_query([0.2, 0.3], 1)
    out = assemble_from_faces({Face((0, 1, 2), 2): lab_k})
    assert np.allclose(out.points_of(1), [[0.2, 0.3]])


def test_assemble_two_edges_spans_quadrilateral():
    bottom = EmpiricalLabelling(1, 1)
    bottom.add_block(np.array([[0.0], [1.0]]), 1)        # edge {0, e1}
    diag = EmpiricalLabelling(1, 1)
    diag.add_block(np.array([[0.0], [1.0]]), 1)          # edge {e1, e2}
    out = assemble_from_faces({Face((0, 1), 2): bottom, Face((1, 2), 2): diag})
    hull = out.hull(1)
    got = sorted(map(tuple, np.round(hull.vertices, 9)))
    assert got == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0)]


def test_assemble_rejects_mismatched_dimensions():
    lab_wrong = EmpiricalLabelling(2, 1)
    lab_wrong.add_query([0.1, 0.1], 1)
    with pytest.raises(ValueError):
        assemble_from_faces({Face((0, 1), 2): lab_wrong})
