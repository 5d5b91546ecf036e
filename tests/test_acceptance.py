"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line with its runtime.  Run with ``pytest -s`` to stream the lines;
a session that runs all 11 criteria writes a copy to acceptance_report.txt
at the repository root when a line differs from the file's other than in
its timing.
"""

import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

from partlearn.bimatrix import (BimatrixGame, lower_bound_game, make_br_oracles, solve_wsne,
                                verify_wsne)
from partlearn.cdgbs import GbsConfig, cd_gbs, cd_gbs_adversarial, cdgbs_query_bound
from partlearn.crgbs import CrConfig, cr_gbs, cr_sub_eps
from partlearn.geometry import (PointHull, VPolytope, chebyshev, convex_hull,
                                corner_simplex_hpolytope, corner_simplex_vertices,
                                cross_section, diameter, grid_thickness, slice_polytope,
                                vpolytope_thickness)
from partlearn.labelling import is_eps_close
from partlearn.multiplayer import (learn_multiplayer_labellings, make_multi_oracles,
                                   pure_values, random_game, simplex_net,
                                   solve_wsne_multiplayer, verify_wsne_multiplayer)
from partlearn.partition import make_oracle, random_uepp, uepp_cells

_LINES = []
_REPORT = Path(__file__).resolve().parents[1] / "acceptance_report.txt"
_CRITERIA = 11


def _report(num, ok, detail, t0):
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail} ({time.perf_counter() - t0:.1f}s)"
    _LINES.append(line)
    print(line)
    assert ok, line


def _untimed(lines):
    return [re.sub(r" \([0-9.]+s\)$", "", line) for line in lines]


@pytest.fixture(scope="session", autouse=True)
def _write_report():
    yield
    # a partial run (``-k criterion_10``) leaves the full report as it is,
    # and so does a run whose lines moved only in their timings
    old = _REPORT.read_text().splitlines() if _REPORT.exists() else []
    if len(_LINES) == _CRITERIA and _untimed(_LINES) != _untimed(old):
        _REPORT.write_text("\n".join(_LINES) + "\n")


def test_criterion_1_geometry_constants():
    t0 = time.perf_counter()
    ok = True
    for m in range(1, 7):
        r, _ = chebyshev(corner_simplex_hpolytope(m))
        ok &= r >= 1.0 / (m + math.sqrt(m)) - 1e-6
    # the diameter sqrt(2) holds from dimension 2 up (the 1-simplex is the
    # unit interval, diameter exactly 1)
    ok &= abs(diameter(VPolytope(corner_simplex_vertices(1))) - 1.0) <= 1e-9
    for m in range(2, 7):
        d = diameter(VPolytope(corner_simplex_vertices(m)))
        ok &= abs(d - math.sqrt(2)) <= 1e-9
    _report(1, ok, "simplex thickness/diameter constants, m=1..6", t0)


def test_criterion_2_subadditivity():
    t0 = time.perf_counter()
    bad = 0
    trials = 0
    seed = 0
    while trials < 200:
        seed += 1
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        u = random_uepp(m, n, seed=seed)
        try:
            gt = uepp_cells(u)
        except ValueError:
            continue
        cells = [c for _, c in gt.cells if not c.is_empty and len(c) > m]
        if not cells:
            continue
        trials += 1
        taus = [vpolytope_thickness(c) for c in cells]
        hulls = [PointHull(c.vertices) for c in cells]
        spacing = {1: 0.005, 2: 0.02, 3: 0.05}[m]

        def member(pts):
            inside = np.zeros(len(pts), dtype=bool)
            for hp in hulls:
                inside |= hp.distances(pts) <= 1e-9
            return inside

        tau_union, _ = grid_thickness(member, np.zeros(m), np.ones(m), spacing)
        bound = (10.0 / 3.0) * sum(taus) * (m + 1) ** 1.5
        if not tau_union < bound:
            bad += 1
    _report(2, bad == 0, f"union-thickness subadditivity on 200 families, {bad} violations", t0)


def test_criterion_3_cdgbs_1d():
    t0 = time.perf_counter()
    eps = 2.0 ** -12
    bad = 0
    for seed in range(100):
        n = 2 + seed % 7
        u = random_uepp(1, n, seed=seed)
        o = make_oracle(u, record=False)
        lab = cd_gbs(GbsConfig(1, n, eps), o)
        ok = is_eps_close(lab, None, eps).is_close
        ok &= o.log.count <= n * math.ceil(math.log2(2 / eps)) + 2 * n
        bad += not ok
    _report(3, bad == 0, f"100 interval partitions at eps=2^-12, {bad} failures", t0)


def test_criterion_4_cdgbs_2d():
    t0 = time.perf_counter()
    eps = 0.1
    bad = 0
    for seed in range(30):
        n = 2 + seed % 4
        u = random_uepp(2, n, seed=200 + seed)
        o = make_oracle(u, record=False)
        lab = cd_gbs(GbsConfig(2, n, eps), o)
        ok = is_eps_close(lab, None, eps).is_close
        ok &= o.log.count <= cdgbs_query_bound(2, n, eps)
        bad += not ok
    _report(4, bad == 0, f"30 planar envelope partitions at eps=0.1, {bad} failures", t0)


def _duplicate_instances(count):
    out = []
    seed = 999
    while len(out) < count:
        seed += 1
        u = random_uepp(2, 3, seed=seed, duplicate_rows=1)
        pair = None
        for i in range(3):
            for j in range(i + 1, 3):
                if np.allclose(u.A[i], u.A[j]) and abs(u.b[i] - u.b[j]) < 1e-12:
                    pair = (i + 1, j + 1)
        cell = dict(uepp_cells(u).cells)[pair[0]]
        if not cell.is_empty and cell.affine_dim() == 2:
            out.append((u, pair))
    return out


def test_criterion_5_adversarial_merge():
    # A consistent max-index adversary is a reversed-order lexicographic
    # oracle, so it never co-reveals duplicate labels and no merge evidence
    # can exist; closeness is asserted for it as stated, and the merge
    # behaviour is exercised with the tie-splitting round-robin adversary.
    t0 = time.perf_counter()
    instances = _duplicate_instances(20)
    close_max = merges_rr = close_rr = 0
    for u, pair in instances:
        o = make_oracle(u, kind="adversarial", policy="maxindex", record=False)
        lab = cd_gbs_adversarial(GbsConfig(2, 3, 0.1, oracle_kind="adversarial"), o)
        close_max += is_eps_close(lab, None, 0.1).is_close
        o2 = make_oracle(u, kind="adversarial", policy="roundrobin", seed=7, record=False)
        lab2 = cd_gbs_adversarial(GbsConfig(2, 3, 0.1, oracle_kind="adversarial"), o2)
        close_rr += is_eps_close(lab2, None, 0.1).is_close
        merges_rr += (min(pair), max(pair)) in {tuple(m) for m in lab2.stats.merges}
    ok = close_max == 20 and close_rr == 20 and merges_rr >= 15
    _report(5, ok, f"duplicate-cell runs close 20/20 (max-index) and 20/20 "
                   f"(round-robin, {merges_rr}/20 merged the duplicate pair)", t0)


def test_criterion_6_crgbs():
    t0 = time.perf_counter()
    eps = 0.15
    bad = 0
    for trial in range(10):
        m = 3 if trial % 2 == 0 else 4
        u = random_uepp(m, 2, seed=300 + trial)
        o = make_oracle(u, kind="adversarial", policy="seeded", record=False)
        lab = cr_gbs(CrConfig(m, 2, eps, oracle_kind="adversarial"), o)
        ok = is_eps_close(lab, None, eps).is_close
        ok &= len(lab.stats.face_queries) == math.comb(m + 1, 2)
        per_face = cdgbs_query_bound(1, 2, cr_sub_eps(m, 2, eps)) + 2
        ok &= o.log.count <= math.comb(m + 1, 2) * per_face
        bad += not ok
    _report(6, bad == 0, f"10 face-route runs (m=3,4; n=2) at eps=0.15, {bad} failures", t0)


def test_criterion_7_lipschitz_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    trials = 100_000
    # bimatrix side, vectorized over all pairs
    A = rng.random((4, 3))
    V = rng.dirichlet(np.ones(3), size=trials)
    W = rng.dirichlet(np.ones(3), size=trials)
    lhs = np.abs(V @ A.T - W @ A.T).max(axis=1)
    l1 = np.abs(V[:, 1:] - W[:, 1:]).sum(axis=1)
    ok = bool(np.all(lhs <= l1 + 1e-9))
    # multiplayer side: 3 players, 2 actions, utility of player 1 action 1
    T = rng.random((2, 2))           # payoff vs (a2, a3)
    X2, X3 = rng.random(trials), rng.random(trials)
    Y2, Y3 = rng.random(trials), rng.random(trials)

    def val(p2, p3):
        return (T[0, 0] * (1 - p2) * (1 - p3) + T[0, 1] * (1 - p2) * p3
                + T[1, 0] * p2 * (1 - p3) + T[1, 1] * p2 * p3)

    lhs2 = np.abs(val(X2, X3) - val(Y2, Y3))
    l12 = np.abs(X2 - Y2) + np.abs(X3 - Y3)
    ok &= bool(np.all(lhs2 <= l12 + 1e-9))
    _report(7, ok, "1-Lipschitz utility bounds on 2x100k random pairs", t0)


def test_criterion_8_bimatrix_solver():
    t0 = time.perf_counter()
    eps = 0.1
    bad = 0
    audits = True
    rng = np.random.default_rng(1)
    for trial in range(50):
        g = BimatrixGame(rng.random((4, 3)), rng.random((4, 3)))
        oracles = make_br_oracles(g, seed=trial)
        cert = solve_wsne(oracles, eps)
        check = verify_wsne(g, cert.u, cert.v, eps)
        bad += not check.valid
        audits &= oracles.audit.clean and set(oracles.audit.purposes) <= {"oracle"}
    for trial in range(20):
        g = lower_bound_game(float(rng.uniform(0.1, 0.9)), float(rng.uniform(0.1, 0.9)))
        oracles = make_br_oracles(g, seed=trial)
        cert = solve_wsne(oracles, eps)
        check = verify_wsne(g, cert.u, cert.v, eps)
        bad += not check.valid
        audits &= oracles.audit.clean
    _report(8, bad == 0 and audits,
            f"50 random 4x3 + 20 lower-bound games verified, {bad} failures, audit clean={audits}", t0)


def test_criterion_9_lower_bound_scaling():
    t0 = time.perf_counter()
    eps_list = [1e-1, 1e-2, 1e-3, 1e-4]
    rng = np.random.default_rng(2)
    xs = rng.uniform(0.05, 0.95, size=10)
    ys = rng.uniform(0.05, 0.95, size=10)
    means = []
    for eps in eps_list:
        counts = []
        for x, y in zip(xs, ys):
            g = lower_bound_game(float(x), float(y))
            oracles = make_br_oracles(g, seed=0)
            cert = solve_wsne(oracles, eps)
            counts.append(cert.queries_row + cert.queries_col)
        means.append(float(np.mean(counts)))
    increasing = all(a < b for a, b in zip(means[:-1], means[1:]))
    # at most linear in log(1/eps): consecutive increments stay bounded by
    # the binary-search cost of one decade for both players
    decade = math.log2(10.0)
    linear = all(b - a <= 2 * 2 * decade + 8 for a, b in zip(means[:-1], means[1:]))
    _report(9, increasing and linear,
            f"query means {np.round(means, 1).tolist()} strictly increase, growth linear in log(1/eps)", t0)


def test_criterion_10_multiplayer():
    t0 = time.perf_counter()
    ok = simplex_net(2, 0.25).shape[0] == math.comb(6, 2)   # 15, stars and bars
    n, k, eps = 3, 2, 0.25
    bad = 0
    for seed in range(20):
        g = random_game(n, k, seed=400 + seed)
        oracles, audit = make_multi_oracles(g, seed=seed)
        labs, _net = learn_multiplayer_labellings(oracles, eps)
        q = sum(o.log.count for o in oracles)
        ok &= q <= n * (n * k / eps) ** (n * k)
        cert = solve_wsne_multiplayer(labs, g, eps, queries=q)
        bad += not verify_wsne_multiplayer(g, cert.profile, eps).valid
    _report(10, ok and bad == 0,
            f"net cardinality exact; 20 three-player games verified, {bad} failures", t0)


def test_criterion_11_perfect_fleshing():
    t0 = time.perf_counter()
    bad = 0
    done = 0
    seed = 0
    rng_mem = np.random.default_rng(100)
    while done < 100:
        seed += 1
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 4))
        p = convex_hull(rng.random((int(rng.integers(5, 9)), m)))
        proj = np.sort(p.vertices[:, 0])
        gaps = np.diff(proj)
        j = int(np.argmax(gaps))
        if gaps[j] < 1e-2:
            continue
        done += 1
        x = proj[j] + 0.3 * gaps[j]
        y = proj[j] + 0.7 * gaps[j]
        combo = convex_hull(np.vstack([cross_section(p, x).vertices,
                                       cross_section(p, y).vertices]))
        slab = slice_polytope(p, x, y)
        ok = True
        for ha, hb in ((combo, slab), (slab, combo)):
            W = rng_mem.dirichlet(np.ones(len(ha)), size=1000) @ ha.vertices
            d = PointHull(hb.vertices).distances(W)
            ok &= bool(np.all(d <= 1e-9))
        bad += not ok
    _report(11, bad == 0, f"100 slice/hull equality checks at tolerance 1e-9, {bad} failures", t0)
