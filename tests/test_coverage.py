"""The coverage verifier against recorded reports and an independent
brute-force reference."""

import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, QhullError, cKDTree

from partlearn import coverage
from partlearn.coverage import SimplexSlab, verify_eps_net
from partlearn.crgbs import CrConfig, cr_gbs
from partlearn.geometry import VPolytope, hull
from partlearn.geometry.hull import PointHull
from partlearn.labelling import is_eps_close
from partlearn.partition import make_oracle, random_uepp
from partlearn.predicates import ETA
from test_geometry import _enumerated_distances

GOLDEN = json.loads((Path(__file__).parent / "data" / "coverage_golden.json").read_text())


def _hulls(case):
    return [PointHull(np.array(P, dtype=float).reshape(-1, case["m"])) for P in case["hulls"]]


# -- golden reports -------------------------------------------------------------

@pytest.mark.parametrize("case", GOLDEN, ids=[f"{k}-{c['why']}" for k, c in enumerate(GOLDEN)])
def test_verifier_reports_equal_the_recorded_ones(case):
    # verifier calls recorded from cd_gbs, cr_gbs and solve_wsne runs of the
    # benchmark panels, with the verdicts of the eps/2 box refinement they
    # were recorded with; the verifier may only prove more of them close
    eps, m, lo, hi = case["eps"], case["m"], case["lo"], case["hi"]
    rep = verify_eps_net(SimplexSlab(m, lo, hi), _hulls(case), eps)
    assert rep.checked_resolution == coverage.FLOOR * eps
    assert rep.is_close or not case["report"]["is_close"]
    parts = [np.array(P, dtype=float).reshape(-1, m) for P in case["hulls"] if P]
    if rep.is_close:
        X = _slab_grid(m, lo, hi, eps / (2.0 * np.sqrt(m)))
        assert (_union_distances(parts, X, eps) <= eps + 1e-12).all()
    else:
        _assert_witness(rep, parts, lo, hi)


def test_golden_witnesses_are_region_points_beyond_half_eps():
    # every recorded "not close" holds: its witness, measured by vertex-subset
    # enumeration, is a slab point farther than eps/2 from every hull
    for c in GOLDEN:
        if c["report"]["is_close"]:
            continue
        w = np.array(c["report"]["witness"])
        assert (w >= -ETA).all() and w.sum() <= 1.0 + ETA and c["lo"] - ETA <= w[0] <= c["hi"] + ETA
        d = min(_enumerated_distances(np.array(P, dtype=float).reshape(-1, c["m"]), w[None, :])[0]
                for P in c["hulls"] if P)
        assert abs(d - c["report"]["witness_distance"]) <= 1e-12
        assert d > c["eps"] / 2


def test_golden_cases_cover_both_verdicts_and_flat_hulls():
    verdicts = {c["report"]["is_close"] for c in GOLDEN}
    assert verdicts == {True, False}
    whole = [(c["m"], sum(1 for P in c["hulls"] if P)) for c in GOLDEN
             if c["report"]["is_close"] and (c["lo"], c["hi"]) == (0.0, 1.0)]
    assert (3, 4) in whole and (4, 2) in whole
    flat0 = [c for c in GOLDEN if (c["lo"], c["hi"]) != (0.0, 1.0)
             and any(np.ptp(h.points[:, 0]) <= ETA for h in _hulls(c) if not h.is_empty)]
    assert {c["report"]["is_close"] for c in flat0} == {True, False}


# -- an independent reference ---------------------------------------------------

def _slab_grid(m, lo, hi, step):
    """Points of the slab of the corner m-simplex with first coordinate in
    [lo, hi], on a grid of per-axis step at most ``step``: every slab point
    rounds down to one within step * sqrt(m)."""
    x0 = np.linspace(lo, hi, int(np.ceil((hi - lo) / step)) + 1)
    rest = np.arange(0.0, 1.0 + 1e-12, step)
    axes = np.meshgrid(x0, *([rest] * (m - 1)), indexing="ij")
    X = np.stack([a.ravel() for a in axes], axis=1)
    return X[X.sum(axis=1) <= 1.0 + 1e-12]


def _span_vertices(P):
    """The vertices of a point set flat in some direction, found by Qhull
    in the coordinates of its affine span (the SVD's leading axes)."""
    Q = P - P.mean(axis=0)
    _, sv, Vt = np.linalg.svd(Q, full_matrices=False)
    Q = Q @ Vt[:int((sv > 1e-9 * max(sv[0], 1e-300)).sum())].T
    if Q.shape[1] >= 2:
        return P[ConvexHull(Q).vertices]
    return P[[int(Q.argmin()), int(Q.argmax())]] if Q.shape[1] else P[:1]


def _union_distances(parts, X, eps):
    """Brute-force distances to the union of conv(P) over ``parts``, where
    they can exceed eps, else 0.

    A point inside some full-dimensional part (by its Qhull facets), or
    within eps of a vertex or of such an inside point, reads 0.  The others
    are measured against every facet simplex of every full-dimensional
    part, since a point outside a part has its nearest hull point on the
    part's boundary, and against the vertex set of every flat part."""
    out = np.zeros(X.shape[0])
    inside = np.zeros(X.shape[0], dtype=bool)
    facets = []
    for P in parts:
        try:
            hull = ConvexHull(P)
        except QhullError:
            facets.append(_span_vertices(P))
            continue
        inside |= (X @ hull.equations[:, :-1].T + hull.equations[:, -1]).max(axis=1) <= 1e-12
        facets.extend(P[f] for f in hull.simplices)
    near = cKDTree(np.vstack([X[inside]] + parts)).query(X)[0]
    idx = np.where(near > eps)[0]
    for s in range(0, idx.size, 256):
        rows = idx[s:s + 256]
        out[rows] = np.min([_enumerated_distances(F, X[rows]) for F in facets], axis=0)
    return out


def _random_parts(rng, m, n_hulls, shrink):
    """A random partition of the corner m-simplex into ``n_hulls`` convex
    pieces, each cut from the largest one by a hyperplane through its
    centroid, then shrunk toward its centroid by ``shrink``.

    A piece's part on one side of a hyperplane is the hull of its vertices
    on that side and of the hyperplane's crossings of their segments."""
    pieces = [np.vstack([np.zeros(m), np.eye(m)])]
    while len(pieces) < n_hulls:
        V = pieces.pop(int(np.argmax([len(P) for P in pieces])))
        c = V.mean(axis=0)
        side = (V - c) @ rng.standard_normal(m)
        a, b = np.where(side >= 0)[0], np.where(side < 0)[0]
        t = (side[a][:, None] / (side[a][:, None] - side[b][None, :]))[..., None]
        cross = (V[a][:, None] + t * (V[b][None, :] - V[a][:, None])).reshape(-1, m)
        for keep in (a, b):
            P = np.vstack([V[keep], cross])
            pieces.append(P[ConvexHull(P).vertices])
    return [P.mean(axis=0) + (1.0 - shrink) * (P - P.mean(axis=0)) for P in pieces]


def _assert_witness(rep, parts, lo, hi):
    """A "not close" witness is a slab point whose reported distance, that
    of vertex-subset enumeration, exceeds eps - δ - ETA: every hull lies
    beyond it."""
    w, eps = rep.witness, rep.eps
    assert (w >= -ETA).all() and w.sum() <= 1.0 + ETA and lo - ETA <= w[0] <= hi + ETA
    want = min(_enumerated_distances(P, w[None, :])[0] for P in parts)
    assert abs(rep.witness_distance - want) <= 1e-12
    assert want > eps - rep.checked_resolution - ETA


EPS = {2: 0.08, 3: 0.15, 4: 0.3}
SHRINK = (0.0, 0.1, 0.25, 0.5)
SLABS = ("whole", "thin", "apex")
CASES = [(m, slab, seed) for m in (2, 3, 4) for slab in SLABS for seed in range(4)]


def _case(m, slab, seed):
    rng = np.random.default_rng([m, seed, SLABS.index(slab)])
    parts = _random_parts(rng, m, 1 + seed, SHRINK[seed])
    if slab == "whole":
        return parts, 0.0, 1.0
    if slab == "apex":
        # a slab near the vertex e_1, most of them reaching past it, where
        # every box the refinement starts from sticks out of the simplex
        lo = 1.0 - float(rng.uniform(0.5, 2.0)) * EPS[m]
        return parts, lo, lo + 1.5 * EPS[m]
    lo = float(rng.uniform(0.0, 0.8))
    return parts, lo, lo + 0.6 * EPS[m]


@pytest.mark.parametrize("m, slab, seed", CASES)
def test_verdicts_agree_with_a_brute_force_grid(m, slab, seed):
    parts, lo, hi = _case(m, slab, seed)
    eps = EPS[m]
    rep = verify_eps_net(SimplexSlab(m, lo, hi), [PointHull(P) for P in parts], eps)
    assert rep.checked_resolution == coverage.FLOOR * eps
    if rep.is_close:
        X = _slab_grid(m, lo, hi, eps / (4.0 * np.sqrt(m)))
        assert (_union_distances(parts, X, eps) <= eps + 1e-12).all()
    else:
        _assert_witness(rep, parts, lo, hi)


def test_reference_cases_reach_both_verdicts():
    verdicts = [verify_eps_net(SimplexSlab(m, lo, hi), [PointHull(P) for P in parts],
                               EPS[m]).is_close
                for m, slab, seed in CASES for parts, lo, hi in [_case(m, slab, seed)]]
    assert set(verdicts) == {True, False}


# -- the cell stage ----------------------------------------------------------------

def _stage_calls():
    """Every golden and reference call, with its hulls' point sets."""
    for c in GOLDEN:
        yield SimplexSlab(c["m"], c["lo"], c["hi"]), [np.array(P, dtype=float).reshape(-1, c["m"])
                                                      for P in c["hulls"] if P], c["eps"]
    for m, slab, seed in CASES:
        parts, lo, hi = _case(m, slab, seed)
        yield SimplexSlab(m, lo, hi), parts, EPS[m]
    # the cut x = 0.6 meets the slab only on its joining edges, at (0.6, 0)
    # and (0.6, 0.4), which lies 0.27 from the near triangle: the cells are
    # not close, though their slab vertices lie inside their hulls
    yield SimplexSlab(2), [np.array([[0.0, 0.0], [0.0, 1.0], [0.5, 0.0]]),
                           np.array([[1.0, 0.0], [0.6, 0.0], [0.6, 0.05]])], 0.3


def _root_cells(region):
    lo = min(max(region.lo, 0.0), 1.0)
    hi = max(min(max(region.hi, 0.0), 1.0), lo)
    return coverage._staircase(coverage._slab_vertices(region.m, lo, hi))


def test_cell_stage_verdicts_equal_the_refinement_and_hold_on_a_grid(monkeypatch):
    # a verdict from the slab's own vertices (its staircase cells, or the
    # two cells of a two-hull facet cut) holds on a grid at eps, and the
    # refinement without the cut reaches it as well
    decided, cut = {True: 0, False: 0}, coverage._split_covers
    for region, parts, eps in _stage_calls():
        hulls = [PointHull(P) for P in parts]
        rep = verify_eps_net(region, hulls, eps)
        monkeypatch.setattr(coverage, "_split_covers", lambda *_args: False)
        assert verify_eps_net(region, hulls, eps).is_close == rep.is_close
        monkeypatch.setattr(coverage, "_split_covers", cut)
        if rep.cells_touched > max(3, len(_root_cells(region))):
            continue
        decided[rep.is_close] += 1
        m, lo, hi = region.m, region.lo, min(region.hi, 1.0)
        if rep.is_close:
            X = _slab_grid(m, lo, hi, eps / (4.0 * np.sqrt(m)))
            assert (_union_distances(parts, X, eps) <= eps + 1e-12).all()
        else:
            _assert_witness(rep, parts, lo, hi)
            assert rep.witness_distance > eps
    assert min(decided.values()) >= 5


def _volume(P):
    return abs(np.linalg.det(P[1:] - P[0])) / math.factorial(P.shape[1])


def _in_cell(P, x):
    """Whether x is a convex combination of the rows of P (a linear
    program, so a cell with a repeated vertex is handled too)."""
    A = np.vstack([P.T, np.ones(len(P))])
    res = linprog(np.zeros(len(P)), A_eq=A, b_eq=np.append(x, 1.0), bounds=(0, None),
                  method="highs")
    return res.status == 0


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("lo, hi", [(0.0, 1.0), (0.2, 0.45), (0.7, 1.0), (0.3, 0.3 - ETA / 2)],
                         ids=["whole", "inner", "apex", "reversed"])
def test_the_staircase_cells_tile_the_slab(m, lo, hi):
    # the cells' volumes sum to the slab's, ((1 - lo)^m - (1 - hi)^m) / m!,
    # and random slab points each lie in some cell; a slab reversed within
    # ETA is its section at lo, of volume 0
    top = max(hi, lo)
    V = coverage._slab_vertices(m, lo, top)
    cells = coverage._staircase(V)
    assert 1 <= len(cells) <= m
    want = ((1.0 - lo) ** m - (1.0 - top) ** m) / math.factorial(m)
    assert abs(sum(_volume(V[c]) for c in cells) - want) <= 1e-12
    rng = np.random.default_rng(m)
    for _ in range(10):
        t = rng.uniform(lo, top)
        x = np.concatenate([[t], (1.0 - t) * rng.dirichlet(np.ones(m))[:m - 1]])
        assert any(_in_cell(V[c], x) for c in cells)


def test_a_floor_not_close_is_conservative_by_at_most_the_floor():
    # two boxes leave a gap of width 2c across x_1 = s, so the union misses
    # the simplex by exactly c, between eps - δ and eps: the far rule never
    # fires, no cell across the gap is close, and the floor ends the call
    eps = 0.1
    delta = coverage.FLOOR * eps
    c, s = eps - delta / 16, 0.41234
    for m in (2, 3):
        corners = np.array(list(itertools.product((0.0, 1.0), repeat=m)))
        boxes = []
        for a, b in ((-1.0, s - c), (s + c, 2.0)):
            P = corners * 3.0 - 1.0
            P[:, 0] = np.where(corners[:, 0] == 0.0, a, b)
            boxes.append(P)
        rep = verify_eps_net(SimplexSlab(m), [PointHull(P) for P in boxes], eps)
        assert rep.checked_resolution == delta
        assert not rep.is_close
        want = min(_enumerated_distances(P, rep.witness[None, :])[0] for P in boxes)
        assert abs(rep.witness_distance - want) <= 1e-12
        assert eps - delta < rep.witness_distance <= c + 1e-12


# -- boxes clipped to the simplex ---------------------------------------------------

@pytest.mark.parametrize("m", [2, 3, 4])
def test_clipped_box_maxima_equal_a_linear_program(m):
    # the greedy maximum of a.x over [lo, hi] ∩ {sum x <= 1}, against HiGHS,
    # on the facets of a random hull and boxes that mostly cross sum x = 1
    rng = np.random.default_rng(m)
    h = PointHull(rng.uniform(0.0, 1.0, (3 * m, m)))
    lo = rng.dirichlet(np.ones(m + 1), 12)[:, :m]
    hi = lo + rng.uniform(0.0, 0.8, lo.shape)
    assert (hi.sum(axis=1) > 1.0).sum() >= 8
    got = h._box_maxima(lo, hi)
    for i in range(len(lo)):
        for f, a in enumerate(h._facets[0]):
            res = linprog(-a, A_ub=np.ones((1, m)), b_ub=[1.0],
                          bounds=list(zip(lo[i], hi[i])), method="highs")
            assert res.status == 0
            assert abs(got[i, f] + res.fun) <= 1e-12


def test_a_box_counts_as_inside_when_its_part_in_the_simplex_is():
    # the box's far corner (0.8, 0.8) lies outside the simplex; its part in
    # the simplex, the triangle below x + y = 1, lies inside the simplex's
    # hull but not inside the hull of the simplex shrunk to x + y <= 0.9
    los, his = np.array([[0.4, 0.4], [-0.1, 0.4]]), np.array([[0.8, 0.8], [0.2, 0.8]])
    simplex = PointHull(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    assert simplex.contains_boxes(los, his).tolist() == [True, False]
    shrunk = PointHull(np.array([[0.0, 0.0], [0.9, 0.0], [0.0, 0.9]]))
    assert shrunk.contains_boxes(los, his).tolist() == [False, False]


def test_reports_do_not_depend_on_the_block_size(monkeypatch):
    cases = [(SimplexSlab(c["m"], c["lo"], c["hi"]), _hulls(c), c["eps"]) for c in GOLDEN]
    cases += [(SimplexSlab(m, lo, hi), [PointHull(P) for P in parts], EPS[m])
              for m, slab, seed in CASES if slab == "apex" for parts, lo, hi in [_case(m, slab, seed)]]
    want = [verify_eps_net(*c).to_json() for c in cases]
    monkeypatch.setattr(hull, "_PAIR_CHUNK", 3)
    assert [verify_eps_net(*c).to_json() for c in cases] == want


def _strip(ya, yb, xa, xb):
    """The part of the corner triangle with y in [ya, yb] and x in [xa, xb]."""
    return PointHull(np.array([(xa, ya), (min(xb, 1 - ya), ya), (xa, yb), (min(xb, 1 - yb), yb)]))


def _holes(small=True, big=True):
    """The corner triangle cut in strips around square holes: a big one,
    x in [0.35, 0.65] and y in [0.05, 0.35], 0.15 deep, and a small one
    near the origin, x and y in [0.05, 0.2], 0.075 deep."""
    def row(ya, yb, cuts):
        x = [0.0] + cuts + [1.0]
        return [_strip(ya, yb, a, b) for a, b in zip(x[::2], x[1::2])]
    wide = [0.35, 0.65] if big else []
    return (row(0.0, 0.05, []) + row(0.05, 0.2, ([0.05, 0.2] if small else []) + wide)
            + row(0.2, 0.35, wide) + row(0.35, 1.0, []))


def test_the_first_hole_reached_breadth_first_gives_the_witness():
    # both holes fail at eps 0.06: the big one at a shallow level, the
    # small one only in deeper cells; breadth-first order reports the big one
    rep = verify_eps_net(SimplexSlab(2), _holes(), 0.06)
    assert not rep.is_close and 0.35 <= rep.witness[0] <= 0.65
    small_alone = verify_eps_net(SimplexSlab(2), _holes(big=False), 0.06)
    assert not small_alone.is_close and small_alone.witness.max() <= 0.2
    assert small_alone.cells_touched > rep.cells_touched


@pytest.mark.parametrize("case", GOLDEN, ids=[f"{k}-{c['why']}" for k, c in enumerate(GOLDEN)])
def test_the_box_cap_is_checked_before_a_level_is_made(case, monkeypatch):
    # with the facet cut off, so that every call refines: a cap of exactly
    # the cells a call examines changes nothing; with one cell fewer, the
    # level that would make the last cells raises before it is made
    monkeypatch.setattr(coverage, "_split_covers", lambda *_args: False)
    judged, judge = [], coverage._Distances.judge

    def counting(self, cells, near):
        judged.append(len(cells))
        return judge(self, cells, near)
    monkeypatch.setattr(coverage._Distances, "judge", counting)
    region = SimplexSlab(case["m"], case["lo"], case["hi"])
    want = verify_eps_net(region, _hulls(case), case["eps"]).to_json()
    count, levels = json.loads(want)["cells_touched"], list(judged)
    assert count == sum(levels) >= 1
    monkeypatch.setattr(coverage, "MAX_CELLS", count)
    assert verify_eps_net(region, _hulls(case), case["eps"]).to_json() == want
    monkeypatch.setattr(coverage, "MAX_CELLS", count - 1)
    judged.clear()
    with pytest.raises(coverage.CellCapError, match=f"cap of {count - 1} cells"):
        verify_eps_net(region, _hulls(case), case["eps"])
    assert judged == levels[:-1]


def test_a_five_dimensional_labelling_is_checked_in_few_boxes():
    # unclipped boxes along the simplex's slanted facet took 23,697 here
    u = random_uepp(5, 2, seed=1)
    lab = cr_gbs(CrConfig(5, 2, 0.15), make_oracle(u))
    rep = is_eps_close(lab, None, 0.15)
    assert rep.is_close
    assert rep.cells_touched <= 2_500


@pytest.mark.parametrize("m", [6, 7])
def test_two_class_labellings_are_proven_from_cell_vertices(m):
    # the box refinement took 13,035 boxes at m = 6 and 28,595 at m = 7
    lab = cr_gbs(CrConfig(m, 2, 0.15), make_oracle(random_uepp(m, 2, seed=1)))
    rep = is_eps_close(lab, None, 0.15)
    assert rep.is_close
    assert rep.cells_touched <= 3


# -- malformed input --------------------------------------------------------------

TETRA = np.array([[0.9, 0.0, 0.0], [0.9, 0.05, 0.0], [0.9, 0.0, 0.05], [0.95, 0.0, 0.0]])


@pytest.mark.parametrize("lo, hi, bad", [(np.nan, 1.0, "lo"), (0.0, np.nan, "hi"),
                                         (-np.inf, 1.0, "lo"), (0.0, np.inf, "hi")])
def test_a_non_finite_slab_bound_is_rejected(lo, hi, bad):
    # a NaN bound would let the refinement judge a slab it never built
    with pytest.raises(ValueError, match=f"slab bound {bad} must be finite"):
        SimplexSlab(3, lo, hi)


@pytest.mark.parametrize("region, error, message", [
    (SimplexSlab(2, 0.0, 1.0), ValueError, r"R\^3 but the region in R\^2"),
    (VPolytope(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])), TypeError,
     "region must be a SimplexSlab"),
], ids=["slab", "vpolytope"])
def test_a_hull_of_another_dimension_is_rejected_before_any_work(monkeypatch, region, error,
                                                                 message):
    def no_work(*_args, **_kw):
        raise AssertionError("the refinement ran")
    monkeypatch.setattr(coverage, "_branch_and_bound", no_work)
    with pytest.raises(error, match=message):
        verify_eps_net(region, [PointHull(np.array([[0.1, 0.1]])), PointHull(TETRA)], 0.01)
