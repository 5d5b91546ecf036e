import hashlib
import json
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partlearn import multiplayer
from partlearn.bimatrix import BimatrixGame, verify_wsne
from partlearn.coverage import CellCapError
from partlearn.multiplayer import (
    MultiBrOracle, NormalFormGame, PointLabelling, build_net, dominant_game, expected_utility,
    is_l1_close, jordan_game, learn_multiplayer_labellings, make_multi_oracles, pure_values,
    random_game, simplex_net, solve_wsne_multiplayer, verify_wsne_multiplayer,
)
from partlearn.partition import POLICIES, UEPP, make_oracle
from partlearn.predicates import ETA


# -- utilities ------------------------------------------------------------------------

def test_pure_opponents_give_tensor_entry():
    g = random_game(3, 2, seed=0)
    # others both play their second action: reduced coordinate 1.0
    val = expected_utility(g, 1, 2, [np.array([1.0]), np.array([1.0])])
    assert val == pytest.approx(g.utilities[0, 1, 1, 1])


def test_constant_player_expectation():
    u = np.full((2, 2, 2), 0.4)
    g = NormalFormGame(2, 2, u)
    assert expected_utility(g, 1, 1, [np.array([0.3])]) == pytest.approx(0.4)


def test_expected_utility_validates_indices():
    g = random_game(3, 2, seed=1)
    with pytest.raises(IndexError):
        expected_utility(g, 4, 1, [np.array([0.5]), np.array([0.5])])
    with pytest.raises(IndexError):
        expected_utility(g, 1, 3, [np.array([0.5]), np.array([0.5])])


def test_multiplayer_utility_l1_lipschitz():
    g = random_game(3, 2, seed=2)
    rng = np.random.default_rng(3)
    for _ in range(1000):
        x = [rng.dirichlet(np.ones(2))[:1] for _ in range(2)]
        y = [rng.dirichlet(np.ones(2))[:1] for _ in range(2)]
        lhs = abs(expected_utility(g, 1, 1, x) - expected_utility(g, 1, 1, y))
        l1 = sum(float(np.abs(a - b).sum()) for a, b in zip(x, y))
        assert lhs <= l1 + 1e-9


# -- nets ------------------------------------------------------------------------------

def test_single_simplex_net_count_stars_and_bars():
    # spacing 0.25 on the corner 2-simplex: kappa = 4 steps, C(6, 2) = 15
    pts = simplex_net(2, 0.25)
    assert pts.shape[0] == math.comb(4 + 2, 2) == 15


def test_net_is_l1_cover():
    net = build_net(3, 3, 0.4)
    rng = np.random.default_rng(4)
    d = net.points.shape[1]
    samples = np.empty((4000, d))
    for b in range(2):
        w = rng.dirichlet(np.ones(3), size=4000)
        samples[:, 2 * b:2 * b + 2] = w[:, :2]
    dist = np.abs(samples[:, None, :] - net.points[None, :, :]).sum(axis=2).min(axis=1)
    assert dist.max() <= 0.4 + 1e-9


def test_huge_eps_collapses_net():
    net = build_net(3, 2, 2.0)
    assert net.single_count == 2 or net.single_count == 1


def test_net_cap_enforced():
    with pytest.raises(ValueError):
        build_net(4, 4, 0.01, max_points=1000)


# -- labelling -------------------------------------------------------------------------

def test_learned_labels_match_strong_argmax():
    g = random_game(3, 2, seed=5)
    oracles, _ = make_multi_oracles(g, seed=0)
    labs, net = learn_multiplayer_labellings(oracles, 0.3)
    for i, lab in enumerate(labs, start=1):
        arrays = lab.arrays()
        for r, pts in arrays.items():
            for x in pts:
                parts = oracles[i - 1].split(x)
                vals = pure_values(g, i, parts)
                assert vals.max() - vals[r - 1] <= 1e-9


def test_labelling_query_budget_formula():
    n, k, eps = 3, 2, 0.25
    g = random_game(n, k, seed=6)
    oracles, _ = make_multi_oracles(g, seed=1)
    labs, net = learn_multiplayer_labellings(oracles, eps)
    total = sum(o.log.count for o in oracles)
    # corner agreement asks each net point at most once and leaves some of
    # this game's net points unasked
    assert total < n * net.count
    assert total <= n * (n * k / eps) ** (n * k)
    for lab in labs:
        assert is_l1_close(lab, eps / 2).is_close


def _every_net_point(g, eps, seed):
    """Labellings from fresh oracles asked at every (eps/2)-net point."""
    oracles, _ = make_multi_oracles(g, seed=seed)
    labs = []
    for orc in oracles:
        lab = PointLabelling((g.k - 1) * (g.n - 1), g.k)
        for x in build_net(g.n, g.k, eps / 2).points:
            lab.add(x, orc(x))
        labs.append(lab)
    return labs, sum(o.log.count for o in oracles)


@pytest.mark.parametrize("n, k, eps", [(2, 2, 0.1), (2, 2, 0.02), (2, 3, 0.1), (2, 3, 0.25),
                                       (2, 4, 0.3), (2, 4, 0.5), (3, 2, 0.1), (3, 2, 0.25),
                                       (3, 3, 0.5), (3, 3, 0.8), (4, 2, 0.4), (4, 2, 0.6)])
@pytest.mark.parametrize("seed", range(3))
def test_corner_agreement_equals_asking_every_net_point(n, k, eps, seed):
    g = random_game(n, k, seed=100 + seed)
    oracles, _ = make_multi_oracles(g, seed=seed)
    labs, _ = learn_multiplayer_labellings(oracles, eps)
    want, brute = _every_net_point(g, eps, seed)
    assert [lab.to_json() for lab in labs] == [lab.to_json() for lab in want]
    assert sum(o.log.count for o in oracles) < brute


@pytest.mark.parametrize("n, k", [(2, 2), (2, 4), (3, 2), (3, 3), (4, 2)])
def test_dominant_game_asks_only_the_pure_profiles(n, k):
    # the root cell's vertices are the opponents' pure profiles, all
    # answering the dominant first action
    oracles, _ = make_multi_oracles(dominant_game(n, k), seed=0)
    labs, net = learn_multiplayer_labellings(oracles, 0.25)
    assert sum(o.log.count for o in oracles) == n * k ** (n - 1)
    for lab in labs:
        assert len(lab.arrays()[1]) == net.count


def _twin_action_game(n, k, seed):
    """A random game whose first two actions pay every player the same."""
    g = random_game(n, k, seed=seed)
    for i in range(n):
        own = np.moveaxis(g.utilities[i], i, 0)     # a view, own action first
        own[1] = own[0]
    return g


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("n, k, eps", [(2, 3, 0.2), (3, 2, 0.25), (3, 3, 0.8)])
def test_tied_actions_get_legal_labels(n, k, eps, policy):
    g = _twin_action_game(n, k, seed=7)
    oracles, _ = make_multi_oracles(g, policy=policy, seed=2)
    labs, net = learn_multiplayer_labellings(oracles, eps)
    assert sum(o.log.count for o in oracles) <= n * net.count
    for i, lab in enumerate(labs, start=1):
        labelled = 0
        for r, pts in lab.arrays().items():
            labelled += len(pts)
            for x in pts:
                vals = pure_values(g, i, oracles[i - 1].split(x))
                assert vals.max() - vals[r - 1] <= 1e-9
        assert labelled == net.count


@pytest.mark.parametrize("g", [random_game(3, 2, seed=8), random_game(2, 4, seed=8),
                               random_game(4, 2, seed=8), _twin_action_game(3, 3, seed=8)],
                         ids=["3x2", "2x4", "4x2", "3x3-twins"])
def test_each_net_point_is_asked_at_most_once(g):
    eps = 0.8 if g.k == 3 else 0.3
    oracles, _ = make_multi_oracles(g, policy="roundrobin", seed=4, record=True)
    _, net = learn_multiplayer_labellings(oracles, eps)
    points = set(map(tuple, net.points.tolist()))
    for orc in oracles:
        asked = [pt for pt, _ in orc.log.transcript]
        assert len(asked) == orc.log.count == len(set(asked))
        assert set(asked) <= points


@pytest.mark.parametrize("K, d", [(1, 1), (7, 1), (5, 2), (9, 3), (4, 4)])
def test_box_members_match_a_scan_of_the_whole_lattice(K, d):
    index = multiplayer._BoxIndex(K, d)
    table = index.table
    rng = np.random.default_rng(10 * K + d)
    for _ in range(80):
        lo = table[rng.integers(len(table))]
        hi = np.minimum(lo + rng.integers(1, K + 1, size=d), K)
        if (lo == hi).any():
            continue
        want = np.flatnonzero(((table >= lo) & (table <= hi)).all(axis=1))
        assert np.array_equal(index.members((tuple(lo.tolist()), tuple(hi.tolist()))), want)


# Each oracle's count and a digest of its transcript (the points asked, in
# order, with their answers) under the corner-agreement walk: which points
# are asked, and in what order, is part of the walk's contract.
_WALK_TRANSCRIPTS = [
    ("3x2", "seeded", [(28, "2f2f893dfe31"), (22, "f2209d2d9e79"), (20, "ea2c10e3c89e")]),
    ("3x2", "roundrobin", [(28, "2f2f893dfe31"), (22, "f2209d2d9e79"), (20, "ea2c10e3c89e")]),
    ("3x2", "maxindex", [(28, "2f2f893dfe31"), (22, "f2209d2d9e79"), (20, "ea2c10e3c89e")]),
    ("3x2", "antilearner", [(28, "2f2f893dfe31"), (22, "f2209d2d9e79"), (20, "ea2c10e3c89e")]),
    ("2x4", "seeded", [(191, "261dee2b694a"), (191, "4965d2606001")]),
    ("2x4", "roundrobin", [(191, "261dee2b694a"), (191, "4965d2606001")]),
    ("2x4", "maxindex", [(191, "261dee2b694a"), (191, "4965d2606001")]),
    ("2x4", "antilearner", [(191, "261dee2b694a"), (191, "4965d2606001")]),
    ("4x2", "seeded", [(219, "dcc5b41aca80"), (469, "236bd9630c57"),
                       (466, "d60112f852c6"), (488, "58f467e43e97")]),
    ("4x2", "roundrobin", [(219, "dcc5b41aca80"), (469, "236bd9630c57"),
                           (466, "d60112f852c6"), (488, "58f467e43e97")]),
    ("4x2", "maxindex", [(219, "dcc5b41aca80"), (469, "236bd9630c57"),
                         (466, "d60112f852c6"), (488, "58f467e43e97")]),
    ("4x2", "antilearner", [(219, "dcc5b41aca80"), (469, "236bd9630c57"),
                            (466, "d60112f852c6"), (488, "58f467e43e97")]),
    ("3x3-twins", "seeded", [(332, "2ed09a49b516"), (331, "89db0e7a077e"), (175, "5f0ced53f347")]),
    ("3x3-twins", "roundrobin", [(415, "8c57f35dae7b"), (436, "fd6575eb623c"),
                                 (441, "f552f72fe653")]),
    ("3x3-twins", "maxindex", [(332, "2ed09a49b516"), (331, "3c8758eb5f99"),
                               (175, "5f0ced53f347")]),
    ("3x3-twins", "antilearner", [(353, "b620d98aad3e"), (436, "96c8fafc13bf"),
                                  (229, "37aa82074652")]),
]


@pytest.mark.parametrize("gid, policy, want", _WALK_TRANSCRIPTS,
                         ids=[f"{gid}-{policy}" for gid, policy, _ in _WALK_TRANSCRIPTS])
def test_the_walk_asks_the_recorded_points_in_order(gid, policy, want):
    g = {"3x2": lambda: random_game(3, 2, seed=8), "2x4": lambda: random_game(2, 4, seed=8),
         "4x2": lambda: random_game(4, 2, seed=8),
         "3x3-twins": lambda: _twin_action_game(3, 3, seed=8)}[gid]()
    oracles, _ = make_multi_oracles(g, policy=policy, seed=4, record=True)
    learn_multiplayer_labellings(oracles, 0.8 if g.k == 3 else 0.3)
    got = [(o.log.count, hashlib.sha256(json.dumps(o.log.transcript).encode()).hexdigest()[:12])
           for o in oracles]
    assert got == want


def test_learning_needs_the_oracles_of_players_one_to_n_in_order():
    o1, o2, o3 = make_multi_oracles(random_game(3, 2, seed=8), seed=0)[0]
    p1, p2 = make_multi_oracles(random_game(2, 3, seed=8), seed=0)[0]
    for oracles in ([o2, o1, o3], [o1, p2, o3], [o1, o2], [o1, o2, o3, o3]):
        with pytest.raises(ValueError, match="players 1..3 of one 3-player 2-action game"):
            learn_multiplayer_labellings(oracles, 0.3)
    assert [o.log.count for o in (o1, o2, o3, p1, p2)] == [0] * 5


def test_oracles_read_the_utilities_once_at_construction():
    g = random_game(3, 2, seed=10)
    oracles, audit = make_multi_oracles(g, seed=0)
    assert audit.purposes == ["oracle"] * 3
    learn_multiplayer_labellings(oracles, 0.25)
    assert audit.purposes == ["oracle"] * 3 and audit.clean


@pytest.mark.parametrize("n, k", [(2, 3), (3, 2), (3, 3)])
def test_oracle_answers_ignore_later_utility_writes(n, k):
    rng = np.random.default_rng(11)
    g = random_game(n, k, seed=12)
    reference, _ = make_multi_oracles(random_game(n, k, seed=12), seed=3)
    oracles, _ = make_multi_oracles(g, seed=3)
    g.utilities[...] = 1.0 - g.utilities     # in place: the oracles hold copies
    g.utilities = rng.random(g.utilities.shape)
    for _ in range(40):
        joint = np.concatenate([rng.dirichlet(np.ones(k))[1:] for _ in range(n - 1)])
        assert [o(joint) for o in oracles] == [o(joint) for o in reference]


def test_oracle_rejects_malformed_joint_mixes():
    orc = MultiBrOracle(random_game(3, 3, seed=13), 2)
    for bad, why in (([0.2, 0.2, 0.2], "joint mix has wrong dimension"),
                     ([0.2, 0.2, np.nan, 0.1], "non-finite"),
                     ([0.7, 0.6, 0.1, 0.1], "not a distribution"),
                     ([0.1, -0.2, 0.1, 0.1], "not a distribution")):
        with pytest.raises(ValueError, match=why):
            orc(np.array(bad))
    assert orc.log.count == 0
    # an implied first coordinate in (-1e-7, 0) is rounding and is clamped
    # to 0: player 2's first two actions tie under the clamped mix of
    # player 1 and not under the raw one
    u = np.zeros((3, 3, 3, 3))
    u[1, :, :2, :] = 0.5
    u[1, 0, 0, :] = 1.0
    orc = MultiBrOracle(NormalFormGame(3, 3, u), 2, kind="lexicographic")
    joint = np.array([0.5, 0.5 + 5e-8, 0.3, 0.2])
    table = np.moveaxis(u[1], 1, -1)
    clamped = np.einsum("a,b,abr->r", [0.0, 0.5, 0.5 + 5e-8], [0.5, 0.3, 0.2], table)
    raw = np.einsum("a,b,abr->r", [-5e-8, 0.5, 0.5 + 5e-8], [0.5, 0.3, 0.2], table)
    assert abs(clamped[0] - clamped[1]) <= ETA < raw[1] - raw[0]
    assert orc(joint) == 1 and orc.log.count == 1
    with pytest.raises(IndexError):
        MultiBrOracle(random_game(3, 3, seed=13), 0)


def test_two_player_reduction_matches_bimatrix_oracle():
    rng = np.random.default_rng(7)
    A, B = rng.random((2, 2)), rng.random((2, 2))
    u = np.stack([A, B])
    g = NormalFormGame(2, 2, u)
    bim = BimatrixGame(A, B)
    orc = MultiBrOracle(g, 1, kind="lexicographic")
    from partlearn.bimatrix import br_oracle
    row = br_oracle(bim, "row", kind="lexicographic")
    for v in np.linspace(0, 1, 21):
        assert orc(np.array([v])) == row(np.array([v]))


# -- tie-break policies ---------------------------------------------------------------

def test_antilearner_policy_applies_to_multiplayer_oracle():
    # every action ties everywhere; antilearner answers unseen labels
    # first, largest index first, on both oracle types
    g = NormalFormGame(3, 3, np.full((3, 3, 3, 3), 0.5))
    multi = MultiBrOracle(g, 1, kind="adversarial", policy="antilearner")
    member = make_oracle(UEPP(np.zeros((3, 4)), np.zeros(3)), kind="adversarial",
                         policy="antilearner")
    pts = [np.array([0.1, 0.2, 0.3, 0.1]), np.array([0.4, 0.1, 0.2, 0.2]),
           np.array([0.0, 0.5, 0.5, 0.0])]
    assert [multi(x) for x in pts] == [3, 2, 1]
    assert [member(x) for x in pts] == [3, 2, 1]


@pytest.mark.parametrize("option", [{"kind": "strong"}, {"policy": "nearest"}])
def test_multiplayer_oracle_rejects_unknown_kind_and_policy(option):
    with pytest.raises(ValueError):
        MultiBrOracle(random_game(3, 2), 1, **option)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(POLICIES),
       st.sampled_from(["lexicographic", "adversarial"]))
def test_answers_lie_in_strong_argmax_set(seed, policy, kind):
    # coarse payoffs on a coarse lattice make ties common; the reference is
    # a brute-force argmax over the pure actions
    rng = np.random.default_rng(seed)
    u = UEPP(rng.integers(0, 3, size=(4, 3)) / 2.0, np.zeros(4))
    member = make_oracle(u, kind=kind, policy=policy, seed=seed)
    g = NormalFormGame(3, 3, rng.integers(0, 3, size=(3, 3, 3, 3)) / 2.0)
    multi = MultiBrOracle(g, 2, kind=kind, policy=policy, seed=seed)
    for _ in range(30):
        y = rng.integers(0, 3, size=3) / 6.0
        vals = u.A @ y + u.b
        assert member(y) in {i + 1 for i in range(4) if vals[i] >= vals.max() - 1e-9}
        joint = rng.integers(0, 2, size=4) / 2.0
        vals = np.array([expected_utility(g, 2, r, multi.split(joint)) for r in (1, 2, 3)])
        assert multi(joint) in {r + 1 for r in range(3) if vals[r] >= vals.max() - 1e-9}


# -- solving ----------------------------------------------------------------------------

def test_jordan_game_equilibrium_near_uniform():
    g = jordan_game()
    # analytic fixture: at the uniform profile every action pays 1/2, and
    # sweeping the WSNE conditions confines 0.25-WSNE to gaps <= 0.25
    vals = pure_values(g, 1, [np.array([0.5]), np.array([0.5])])
    assert np.allclose(vals, 0.5)
    oracles, audit = make_multi_oracles(g, seed=0)
    labs, _ = learn_multiplayer_labellings(oracles, 0.25)
    q = sum(o.log.count for o in oracles)
    cert = solve_wsne_multiplayer(labs, g, 0.25, queries=q)
    assert verify_wsne_multiplayer(g, cert.profile, 0.25).valid
    for x in cert.profile:
        assert 0.375 - 0.07 <= x[0] <= 0.625 + 0.07
    assert audit.purposes and set(audit.purposes) == {"oracle"}


def test_solver_reads_only_the_games_sizes():
    g = random_game(3, 2, seed=4)
    oracles, _ = make_multi_oracles(g, seed=0)
    labs, _ = learn_multiplayer_labellings(oracles, 0.2)
    cert = solve_wsne_multiplayer(labs, g, 0.2, queries=7)
    sizes = solve_wsne_multiplayer(labs, types.SimpleNamespace(n=g.n, k=g.k), 0.2, queries=7)
    assert sizes.to_json() == cert.to_json()
    assert cert.regrets is None and cert.valid is None


@pytest.mark.parametrize("eps", [0.0, -0.1, math.nan, math.inf])
def test_solver_rejects_eps_outside_the_open_half_line(eps):
    g = random_game(3, 2, seed=1)
    labs, _ = learn_multiplayer_labellings(make_multi_oracles(g, seed=0)[0], 0.2)
    with pytest.raises(ValueError, match="eps must be positive and finite"):
        solve_wsne_multiplayer(labs, g, eps)


@pytest.mark.parametrize("extra", [-1, 1], ids=["fewer", "more"])
def test_solver_needs_one_labelling_per_player(extra):
    g = random_game(3, 2, seed=4)
    labs, _ = learn_multiplayer_labellings(make_multi_oracles(g, seed=0)[0], 0.2)
    labs = labs[:-1] if extra < 0 else labs + labs[:1]
    with pytest.raises(ValueError, match=f"{3 + extra} labellings for 3 players"):
        solve_wsne_multiplayer(labs, g, 0.2)


def test_dominant_actions_solve_to_pure_profile():
    g = dominant_game()
    oracles, _ = make_multi_oracles(g, seed=1)
    labs, _ = learn_multiplayer_labellings(oracles, 0.25)
    cert = solve_wsne_multiplayer(labs, g, 0.25)
    assert cert.supports == [[1], [1], [1]]
    check = verify_wsne_multiplayer(g, cert.profile, 0.25)
    assert check.valid
    assert all(r <= 1e-9 for regs in check.regrets for r in regs.values())


@pytest.mark.parametrize("seed", range(5))
def test_random_games_verify(seed):
    g = random_game(3, 2, seed=20 + seed)
    oracles, _ = make_multi_oracles(g, seed=seed)
    labs, _ = learn_multiplayer_labellings(oracles, 0.25)
    q = sum(o.log.count for o in oracles)
    cert = solve_wsne_multiplayer(labs, g, 0.25, queries=q)
    assert verify_wsne_multiplayer(g, cert.profile, 0.25).valid


@pytest.mark.parametrize("seed", [0, 11, 29])
def test_two_player_three_action_games_solve_within_the_profile_cap(seed):
    # the 1/40 lattice of these games holds 861^2 profiles, beyond PROFILE_CAP
    g = random_game(2, 3, seed=seed)
    oracles, audit = make_multi_oracles(g, seed=seed)
    labs, _ = learn_multiplayer_labellings(oracles, 0.2)
    cert = solve_wsne_multiplayer(labs, g, 0.2)
    assert cert.grid_resolution > 1 / 40
    assert verify_wsne_multiplayer(g, cert.profile, 0.2).valid
    assert audit.clean


def _missing_scan(monkeypatch, g, eps):
    """Lattice sizes the scan tried on g's labellings, every lattice
    missing, and the scan's error."""
    seen = []

    def first_fixed_point(supports, voronoi):
        seen.append(len(supports[0]))

    monkeypatch.setattr(multiplayer, "_first_fixed_point", first_fixed_point)
    labs, _ = learn_multiplayer_labellings(make_multi_oracles(g, seed=0)[0], eps)
    with pytest.raises(RuntimeError) as err:
        solve_wsne_multiplayer(labs, g, eps)
    return seen, str(err.value)


def test_scan_failure_names_the_last_resolution_scanned(monkeypatch):
    # spacings 1/10 .. 1/160; the last has l1 resolution 1/320
    seen, msg = _missing_scan(monkeypatch, random_game(2, 2, seed=3), 0.1)
    assert seen == [11, 21, 41, 81, 161]
    assert msg.endswith("not found at resolution 0.003125")


def test_profile_cap_stop_names_the_cap_and_the_spacing(monkeypatch):
    # 11^2 profiles at spacing 1/10 are scanned; 21^2 at 1/20 exceed the cap
    monkeypatch.setattr(multiplayer, "PROFILE_CAP", 200)
    seen, msg = _missing_scan(monkeypatch, random_game(2, 2, seed=3), 0.1)
    assert seen == [11]
    assert "lattice at spacing 0.05 exceeded the cap of 200 profiles" in msg


class _FirstRound(Exception):
    pass


def _recording(lab, seen):
    """lab's l1_distances, also recording each query block in seen."""
    def l1_distances(X):
        seen.append(X)
        return PointLabelling.l1_distances(lab, X)
    return l1_distances


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)]), st.integers(0, 2 ** 32 - 1))
def test_voronoi_masks_match_plain_loop(shape, seed):
    # random point sets per action (some left empty); the scan's first-round
    # masks must equal a plain loop over the same l1 distance tables
    n, k = shape
    rng = np.random.default_rng(seed)
    dim = (k - 1) * (n - 1)
    labs, queried = [], []
    for _ in range(n):
        lab = PointLabelling(dim, k)
        for r in rng.permutation(k)[:int(rng.integers(1, k + 1))]:
            for _ in range(int(rng.integers(1, 6))):
                x = np.concatenate([rng.dirichlet(np.ones(k))[:k - 1] for _ in range(n - 1)])
                lab.add(x, int(r) + 1)
        seen = []
        lab.l1_distances = _recording(lab, seen)
        labs.append(lab)
        queried.append(seen)
    scanned = []

    def first_round(supports, voronoi):
        scanned.append(voronoi)
        raise _FirstRound

    eps = 1.0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiplayer, "_first_fixed_point", first_round)
        with pytest.raises(_FirstRound):
            solve_wsne_multiplayer(labs, random_game(n, k, seed=0), eps)
    sigma = eps / 8
    assert len(scanned[0]) == n
    for lab, seen, masks in zip(labs, queried, scanned[0]):
        dists = PointLabelling.l1_distances(lab, seen[0])
        for p in range(dists.shape[1]):
            col = [float(d) for d in dists[:, p]]
            edge = min(col) + sigma + ETA
            if any(abs(d - edge) <= 1e-9 for d in col):
                continue
            want = 0
            for r, d in enumerate(col):
                if d <= edge:
                    want |= 1 << r
            assert masks[p] == want


def test_supported_dominated_action_fails_verifier():
    g = dominant_game()
    # support on the dominated second action of player 1
    profile = [np.array([1.0]), np.array([0.0]), np.array([0.0])]
    check = verify_wsne_multiplayer(g, profile, 0.2)
    assert not check.valid


def test_verifier_agrees_with_bimatrix_for_two_players():
    rng = np.random.default_rng(8)
    A, B = rng.random((2, 2)), rng.random((2, 2))
    g2 = NormalFormGame(2, 2, np.stack([A, B]))
    bim = BimatrixGame(A, B)
    for _ in range(40):
        u = rng.dirichlet(np.ones(2))[:1]
        v = rng.dirichlet(np.ones(2))[:1]
        for eps in (0.05, 0.2):
            a = verify_wsne_multiplayer(g2, [u, v], eps).valid
            b = verify_wsne(bim, u, v, eps).valid
            assert a == b


def test_game_rejects_empty_sizes():
    with pytest.raises(ValueError, match="k = 0"):
        NormalFormGame(3, 0, np.zeros((3, 0, 0, 0)))
    with pytest.raises(ValueError, match="n = 0"):
        NormalFormGame(0, 2, np.zeros((0,)))


def _brute_l1(lab, X):
    """Reference: (k, N) l1 distances by comparing every query row with
    every stored point of each action."""
    X = np.atleast_2d(X)
    out = np.full((lab.k, X.shape[0]), np.inf)
    for r, pts in lab.arrays().items():
        if len(pts):
            out[r - 1] = np.abs(X[:, None, :] - pts[None, :, :]).sum(axis=2).min(axis=1)
    return out


def _random_joint(rng, n, k, size):
    return np.hstack([rng.dirichlet(np.ones(k), size=size)[:, 1:] for _ in range(n - 1)])


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 2), (3, 2), (3, 3)]), st.integers(0, 2 ** 32 - 1))
def test_l1_distances_match_brute_force(shape, seed):
    # some actions stay empty, points repeat, and points added after a
    # query must reach the next query
    n, k = shape
    rng = np.random.default_rng(seed)
    lab = PointLabelling((k - 1) * (n - 1), k)
    X = _random_joint(rng, n, k, 50)
    for _round in range(3):
        for r in rng.permutation(k)[:int(rng.integers(0, k + 1))]:
            pts = _random_joint(rng, n, k, int(rng.integers(1, 8)))
            for x in np.vstack([pts, pts[:int(rng.integers(0, 3))]]):
                lab.add(x, int(r) + 1)
        got = lab.l1_distances(X)
        want = _brute_l1(lab, X)
        assert np.array_equal(np.isinf(got), np.isinf(want))
        fin = np.isfinite(want)
        assert np.allclose(got[fin], want[fin], rtol=0.0, atol=1e-12)


def _lattice_labelling(n, k, spacing, rng, drop=None):
    net = build_net(n, k, spacing * (k - 1) * (n - 1) / 2.0)
    lab = PointLabelling((k - 1) * (n - 1), k)
    for j, x in enumerate(net.points):
        if j != drop:
            lab.add(x, int(rng.integers(1, k + 1)))
    return lab, net.points


@pytest.mark.parametrize("spacing", [1 / 8, 0.1])
def test_is_l1_close_finds_every_single_hole(spacing):
    # on [0, 1] a lattice of step s covers at s/2, and without one of its
    # points only at s: every hole must give "not close" with a witness
    rng = np.random.default_rng(14)
    full, pts = _lattice_labelling(2, 2, spacing, rng)
    for eps in (0.75 * spacing, spacing * (1 - 1e-5)):
        assert is_l1_close(full, eps).is_close
        for drop in range(len(pts)):
            lab, _ = _lattice_labelling(2, 2, spacing, rng, drop)
            rep = is_l1_close(lab, eps)
            assert not rep.is_close
            w = rep.witness
            assert w.shape == (1,) and 0.0 <= w[0] <= 1.0
            assert _brute_l1(lab, w).min() > eps
            assert rep.witness_distance == pytest.approx(_brute_l1(lab, w).min())


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.8, 1.25))
def test_is_l1_close_agrees_with_a_dense_lattice(seed, scale):
    # k = 2, n = 3: the joint space is the unit square; a lattice of step h
    # covers it at l1 radius h, so its maximum decides all but a band of
    # width h above it
    rng = np.random.default_rng(seed)
    lab = PointLabelling(2, 2)
    for _ in range(int(rng.integers(1, 13))):
        lab.add(rng.random(2), int(rng.integers(1, 3)))
    h = 1.0 / 256
    axis = np.arange(257) * h
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    top = float(_brute_l1(lab, grid).min(axis=0).max())
    eps = top * scale
    rep = is_l1_close(lab, eps)
    if top > eps:
        assert not rep.is_close
    if top + h <= eps:
        assert rep.is_close
    if not rep.is_close:
        assert np.all(rep.witness >= 0.0) and np.all(rep.witness <= 1.0)
        assert _brute_l1(lab, rep.witness).min() > eps


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.8, 1.25))
def test_is_l1_close_agrees_with_a_dense_lattice_on_the_simplex(seed, scale):
    # k = 3, n = 2: the joint space is the corner 2-simplex, where the
    # low-corner rule clips boxes at the far facet; rounding a point of the
    # simplex down to a lattice of step h stays in it and moves it by < 2h
    # in l1, so the lattice maximum decides all but a band of width 2h
    rng = np.random.default_rng(seed)
    lab = PointLabelling(2, 3)
    for _ in range(int(rng.integers(1, 13))):
        lab.add(rng.dirichlet(np.ones(3))[1:], int(rng.integers(1, 4)))
    h = 1.0 / 256
    axis = np.arange(257) * h
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    grid = grid[grid.sum(axis=1) <= 1.0]
    top = float(_brute_l1(lab, grid).min(axis=0).max())
    eps = top * scale
    rep = is_l1_close(lab, eps)
    if top > eps:
        assert not rep.is_close
    if top + 2 * h <= eps:
        assert rep.is_close
    if not rep.is_close:
        assert np.all(rep.witness >= 0.0) and rep.witness.sum() <= 1.0
        assert _brute_l1(lab, rep.witness).min() > eps


@pytest.mark.parametrize("n, k, eps, cap", [(2, 3, 0.2, 2_100), (3, 3, 0.5, 30_000)])
def test_is_l1_close_drops_boxes_by_their_low_corner(n, k, eps, cap):
    # a full net checked at its own covering radius refines to ETA around
    # every point at distance eps; with only the centre rule these take
    # 2,844 and 66,671 boxes, the low-corner rule leaves 2,071 and 29,193
    rng = np.random.default_rng(3)
    net = build_net(n, k, eps)
    lab = PointLabelling((k - 1) * (n - 1), k)
    for x in net.points:
        lab.add(x, int(rng.integers(1, k + 1)))
    rep = is_l1_close(lab, eps)
    assert rep.is_close
    assert rep.cells_touched <= cap


def test_is_l1_close_handles_the_simplex_boundary_and_the_cap():
    # k = 3: each block is a corner 2-simplex, so boxes leave the space
    rng = np.random.default_rng(15)
    lab, pts = _lattice_labelling(2, 3, 0.25, rng)
    assert is_l1_close(lab, 0.3).is_close
    far = is_l1_close(lab, 0.2)
    assert not far.is_close and far.witness.sum() <= 1.0 and np.all(far.witness >= 0.0)
    assert _brute_l1(lab, far.witness).min() > 0.2
    empty = is_l1_close(PointLabelling(2, 3), 0.5)
    assert not empty.is_close and empty.witness_distance == np.inf
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(multiplayer, "MAX_CELLS", 8)
        with pytest.raises(CellCapError, match="cap of 8 boxes"):
            is_l1_close(lab, 0.3)


def test_tensor_json_roundtrip():
    g = random_game(3, 2, seed=9)
    g2 = NormalFormGame.from_json(g.to_json())
    assert np.array_equal(g.utilities, g2.utilities)
