import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from partlearn import bimatrix
from partlearn.bimatrix import (
    BimatrixGame, GuardedGame, PayoffAudit, PayoffAuditError, _first_fixed_point, _learn_partition,
    _scan, _scan_steps, _support_masks, best_value, br_oracle, br_partition, expand,
    lower_bound_game, make_br_oracles, pure_utilities, solve_wsne, utilities, verify_wsne,
    voronoi_label_masks, witness_distances, witness_radius,
)
from partlearn.coverage import simplex_lattice, unit_step


def random_game(m, n, seed):
    rng = np.random.default_rng(seed)
    return BimatrixGame(rng.random((m, n)), rng.random((m, n)))


# -- utilities ---------------------------------------------------------------------

def test_uniform_identity_utility():
    g = BimatrixGame(np.eye(2), np.eye(2))
    ur, uc = utilities(g, [0.5], [0.5])
    assert ur == pytest.approx(0.5)
    assert uc == pytest.approx(0.5)


def test_pure_column_gives_matrix_column():
    g = random_game(3, 2, seed=0)
    vals = pure_utilities(g, "row", np.array([1.0]))   # pure second column
    assert vals == pytest.approx(g.A[:, 1])
    assert best_value(g, "row", np.array([1.0])) == pytest.approx(g.A[:, 1].max())


def test_payoff_bounds_enforced():
    with pytest.raises(ValueError):
        BimatrixGame(np.array([[1.5]]), np.array([[0.2]]))


def test_utilities_l1_lipschitz():
    g = random_game(4, 3, seed=1)
    rng = np.random.default_rng(2)
    for _ in range(1000):
        v = rng.dirichlet(np.ones(3))[:2]
        w = rng.dirichlet(np.ones(3))[:2]
        lhs = np.abs(pure_utilities(g, "row", v) - pure_utilities(g, "row", w)).max()
        assert lhs <= np.abs(v - w).sum() + 1e-9


def test_best_value_l2_lipschitz():
    g = random_game(3, 4, seed=3)
    rng = np.random.default_rng(4)
    bound = math.sqrt(4 - 1)
    for _ in range(500):
        v = rng.dirichlet(np.ones(4))[:3]
        w = rng.dirichlet(np.ones(4))[:3]
        lhs = abs(best_value(g, "row", v) - best_value(g, "row", w))
        assert lhs <= bound * np.linalg.norm(v - w) + 1e-9


# -- oracles -----------------------------------------------------------------------

def test_br_oracle_rejects_unknown_kind():
    # a kind the oracle does not have is refused, never read as another
    g = BimatrixGame(np.array([[0.5, 0.5], [0.2, 0.8]]), np.eye(2) * 0.5)
    with pytest.raises(ValueError):
        br_oracle(g, "row", kind="strong")


def test_lexicographic_oracle_min_index():
    g = BimatrixGame(np.array([[0.5, 0.5], [0.2, 0.8]]), np.eye(2) * 0.5)
    o = br_oracle(g, "row", kind="lexicographic")
    assert o(np.array([0.5])) == 1


def test_adversarial_answers_inside_strong_set():
    g = random_game(4, 3, seed=5)
    part = br_partition(g, "column")
    adv = br_oracle(g, "column", kind="adversarial", policy="seeded", seed=2, record=False)
    rng = np.random.default_rng(6)
    for _ in range(1000):
        u = rng.dirichlet(np.ones(4))[:3]
        assert adv(u) in part.label_set(u)


def test_br_partition_matches_strong_argmax():
    g = random_game(4, 3, seed=7)
    part = br_partition(g, "column")
    rng = np.random.default_rng(8)
    for _ in range(10_000):
        u = rng.dirichlet(np.ones(4))[:3]
        vals = pure_utilities(g, "column", u)
        argmax = {j + 1 for j in range(3) if vals[j] >= vals.max() - 1e-9}
        assert part.label_set(u) == argmax


def test_one_row_game_has_single_region():
    g = random_game(1, 3, seed=9)
    part = br_partition(g, "row")
    assert part.n == 1 and part.m == 2


# -- lower bound family --------------------------------------------------------------

def test_lower_bound_game_matrices():
    g = lower_bound_game(0.5, 0.5)
    assert np.allclose(g.A, [[0.5, 0.5], [0.0, 1.0]])
    assert np.allclose(g.B, [[0.0, 0.5], [1.0, 0.5]])
    with pytest.raises(ValueError):
        lower_bound_game(0.0, 0.5)


def test_lower_bound_game_has_no_pure_equilibrium():
    g = lower_bound_game(0.4, 0.7)
    for i, j in itertools.product(range(2), range(2)):
        row_best = g.A[:, j].max() <= g.A[i, j] + 1e-12
        col_best = g.B[i, :].max() <= g.B[i, j] + 1e-12
        assert not (row_best and col_best)


def test_lower_bound_row_switch_at_x():
    g = lower_bound_game(0.3, 0.6)
    part = br_partition(g, "row")
    assert part.label_set([0.25]) == {1}
    assert part.label_set([0.35]) == {2}
    assert part.label_set([0.3]) == {1, 2}


# -- verification ----------------------------------------------------------------------

def test_exact_pure_equilibrium_verifies_at_zero():
    A = np.array([[1.0, 0.0], [0.0, 0.5]])
    g = BimatrixGame(A, A)
    cert = verify_wsne(g, np.array([0.0]), np.array([0.0]), 0.0)
    assert cert.valid
    assert cert.row_support == [1] and cert.col_support == [1]


def test_unique_mixed_equilibrium_verifies_at_zero():
    x, y = 0.35, 0.65
    g = lower_bound_game(x, y)
    cert = verify_wsne(g, np.array([y]), np.array([x]), 0.0)
    assert cert.valid


def test_shifted_profile_fails_verification():
    x = y = 0.5
    g = lower_bound_game(x, y)
    shift = 0.2
    cert = verify_wsne(g, np.array([y + shift]), np.array([x + shift]), 0.05)
    assert not cert.valid


def test_verify_rejects_bad_distribution():
    g = lower_bound_game(0.5, 0.5)
    with pytest.raises(ValueError):
        verify_wsne(g, np.array([1.4]), np.array([0.5]), 0.1)


# -- solver -----------------------------------------------------------------------------

def test_solver_lands_in_eps_box_of_unique_equilibrium():
    g = lower_bound_game(0.5, 0.5)
    oracles = make_br_oracles(g, seed=0)
    eps = 0.05
    cert = solve_wsne(oracles, eps)
    assert abs(cert.u[0] - 0.5) <= eps and abs(cert.v[0] - 0.5) <= eps
    assert verify_wsne(g, cert.u, cert.v, eps).valid
    assert oracles.audit.clean


def test_solver_finds_dominant_pure_profile():
    A = np.array([[0.9, 0.9], [0.1, 0.2]])
    B = np.array([[0.8, 0.1], [0.9, 0.2]])
    g = BimatrixGame(A, B)
    oracles = make_br_oracles(g, seed=1)
    cert = solve_wsne(oracles, 0.1)
    assert cert.row_support == [1] and cert.col_support == [1]
    check = verify_wsne(g, cert.u, cert.v, 0.1)
    assert check.valid
    assert all(r <= 1e-9 for r in check.row_regrets.values())


@pytest.mark.parametrize("seed", range(4))
def test_solver_on_random_games(seed):
    g = random_game(4, 3, seed=100 + seed)
    oracles = make_br_oracles(g, seed=seed)
    cert = solve_wsne(oracles, 0.1)
    assert verify_wsne(g, cert.u, cert.v, 0.1).valid
    assert oracles.audit.clean


@pytest.mark.parametrize("eps", [0.3, 0.35, 0.45])
def test_pure_equilibrium_stays_on_the_lattice(eps):
    # eps / 8 does not divide 1 here; the lattice must still reach the
    # pure equilibrium (row 2, column 3)
    g = BimatrixGame([[0.9, 0.1, 0.4], [0.2, 0.8, 0.5]], [[0.3, 0.7, 0.2], [0.6, 0.4, 0.9]])
    cert = solve_wsne(make_br_oracles(g, seed=0), eps)
    assert verify_wsne(g, cert.u, cert.v, eps).valid
    assert 1.0 / cert.grid_resolution == pytest.approx(round(1.0 / cert.grid_resolution))


@pytest.mark.parametrize("m, n", [(1, 3), (3, 1), (1, 1)], ids=["1x3", "3x1", "1x1"])
def test_degenerate_single_strategy_side(m, n):
    # 3x1 learns the row side over the 0-dimensional simplex of column
    # mixes, and 1x1 scans a 0-dimensional lattice on both sides
    g = random_game(m, n, seed=11)
    oracles = make_br_oracles(g, seed=2)
    cert = solve_wsne(oracles, 0.1)
    assert cert.queries_row == oracles.row.log.count
    assert cert.queries_col == oracles.column.log.count
    assert verify_wsne(g, cert.u, cert.v, 0.1).valid
    # a side with one strategy needs no learning at all: single-label partition
    assert (m > 1 or cert.queries_row == 0) and (n > 1 or cert.queries_col == 0)


def test_voronoi_labels_are_eps_best_responses():
    # the module's central property: slack-Voronoi labels at sampled points
    # are eps-best responses by true utilities
    eps = 0.1
    g = random_game(3, 3, seed=12)
    oracles = make_br_oracles(g, seed=3)
    eps_r = eps / (2 * math.sqrt(max(g.n - 1, 1)))
    row_lab = _learn_partition(oracles.row, g.n - 1, g.m, eps_r / 2)
    rng = np.random.default_rng(13)
    pts = rng.dirichlet(np.ones(g.n), size=800)[:, :g.n - 1]
    masks = voronoi_label_masks(row_lab, pts, sigma=eps / 8)
    for v, mask in zip(pts, masks):
        vals = pure_utilities(g, "row", v)
        for i in range(g.m):
            if mask & (1 << i):
                assert vals.max() - vals[i] <= eps + 1e-9


# -- the fixed-point scan ----------------------------------------------------------

def brute_first_fixed_point(supports, voronoi):
    """Lexicographically first profile over the full product, by plain loops."""
    n = len(supports)
    sizes = [len(s) for s in supports]
    for prof in itertools.product(*(range(s) for s in sizes)):
        fits = True
        for i in range(n):
            flat = 0
            for j in range(n):
                if j != i:
                    flat = flat * sizes[j] + prof[j]
            fits = fits and int(supports[i][prof[i]]) & ~int(voronoi[i][flat]) == 0
        if fits:
            return prof
    return None


@st.composite
def scan_inputs(draw):
    n = draw(st.sampled_from([2, 3]))
    sizes = [draw(st.integers(1, 5)) for _ in range(n)]

    def masks(count, lo):
        return np.array(draw(st.lists(st.integers(lo, 3), min_size=count, max_size=count)),
                        dtype=np.int64)

    supports = [masks(size, 1) for size in sizes]
    voronoi = [masks(math.prod(sizes) // sizes[i], 0) for i in range(n)]
    return supports, voronoi


@settings(max_examples=300, deadline=None)
@given(scan_inputs())
def test_first_fixed_point_matches_brute_force(inputs):
    supports, voronoi = inputs
    assert _first_fixed_point(supports, voronoi) == brute_first_fixed_point(supports, voronoi)


@pytest.mark.parametrize("n", [2, 3])
def test_first_fixed_point_reports_none(n):
    supports = [np.array([1, 2, 3], dtype=np.int64)] * n
    voronoi = [np.zeros(3 ** (n - 1), dtype=np.int64)] * n
    assert _first_fixed_point(supports, voronoi) is None
    assert brute_first_fixed_point(supports, voronoi) is None


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-4, max_value=1.0, exclude_max=True))
def test_scan_steps_go_coarse_to_fine_and_end_on_the_fixed_rounds(eps):
    # the first steps of the bimatrix scan and of the multiplayer scan for
    # k - 1 = 1..3; both scans end on the three rounds they always ran
    firsts = [unit_step(eps / 8)] + [unit_step(min(2 * (eps / 8) / d, 1.0)) for d in (1, 2, 3)]
    for first in firsts:
        steps = _scan_steps(first)
        assert len(steps) == 5
        assert all(1.0 / s == pytest.approx(round(1.0 / s), abs=1e-6) for s in steps)
        assert all(a > b for a, b in zip(steps, steps[1:]))
        assert steps[-3:] == [first, first / 2, first / 4]


def _missing(sizes, misses=math.inf):
    """A `_first_fixed_point` that expects lattices of the given sizes, in
    order (it fails at once on another, before a larger lattice is masked),
    and misses on the first ``misses`` of them; and the sizes it saw."""
    seen = []

    def first_fixed_point(supports, voronoi):
        seen.append(len(supports[1]))
        assert seen == sizes[:len(seen)]
        return None if len(seen) <= misses else _first_fixed_point(supports, voronoi)
    return first_fixed_point, seen


def test_scan_failure_names_the_last_step_scanned(monkeypatch):
    # 2-D lattices at steps 1/20, 1/40, 1/80, 1/160, 1/320, scanned in full
    # by every learning round
    sizes = [math.comb(K + 2, 2) for K in (20, 40, 80, 160, 320)] * len(bimatrix.LEARN_ROUNDS)
    missing, seen = _missing(sizes)
    monkeypatch.setattr(bimatrix, "_first_fixed_point", missing)
    with pytest.raises(RuntimeError, match=r"not found at resolution 0\.003125$"):
        solve_wsne(make_br_oracles(random_game(3, 3, seed=20), seed=0), 0.1)
    assert seen == sizes


def test_scan_lattice_cap_stop_names_the_cap_and_the_step(monkeypatch):
    # 21 points at step 1/20 are scanned; 41 at step 1/40 exceed the cap, so
    # each coarse round scans the 1/20 lattice alone and moves on, and the
    # final round raises
    missing, seen = _missing([21] * len(bimatrix.LEARN_ROUNDS))
    monkeypatch.setattr(bimatrix, "_first_fixed_point", missing)
    monkeypatch.setattr(bimatrix, "LATTICE_CAP", 30)
    with pytest.raises(RuntimeError, match=r"lattice at step 0\.025 exceeded the cap of 30 points"):
        solve_wsne(make_br_oracles(random_game(2, 2, seed=21), seed=0), 0.1)
    assert seen == [21] * len(bimatrix.LEARN_ROUNDS)


def test_a_coarse_round_with_no_fixed_point_under_the_lattice_cap_moves_on():
    # the last of this draw is a 5x3 game whose first-round labellings have
    # no fixed point on the 1/20, 1/40 and 1/80 lattices; the 1/160 lattice
    # of its 4-D side, C(164, 4) points, exceeds the cap
    rng = np.random.default_rng(0)
    for shape in [(4, 3)] * 50 + [(3, 4)] * 10 + [(5, 3)] * 6:
        g = BimatrixGame(rng.random(shape), rng.random(shape))
        seed = int(rng.integers(1000))
    assert seed == 527
    assert math.comb(164, 4) > bimatrix.LATTICE_CAP
    cert = solve_wsne(make_br_oracles(g, seed=seed), 0.1)
    assert cert.grid_resolution == 1 / 80
    assert verify_wsne(g, cert.u, cert.v, 0.1).valid


def test_scan_past_the_coarse_lattices_returns_the_fine_lattice_certificate(monkeypatch):
    # missing on the 1/20 and 1/40 lattices, the scan must return the first
    # fixed point of the 1/80 lattice, computed here from the labellings the
    # scan is handed
    eps, g = 0.1, random_game(4, 3, seed=100)
    oracles = make_br_oracles(g, seed=0)
    row_lab = _learn_partition(oracles.row, 2, 4, eps / (2 * math.sqrt(2)) / 2)
    col_lab = _learn_partition(oracles.column, 3, 3, eps / (2 * math.sqrt(3)) / 2)
    learned = {oracles.row: row_lab, oracles.column: col_lab}
    monkeypatch.setattr(bimatrix, "_learn_partition", lambda oracle, *args: learned[oracle])
    u_grid, v_grid = simplex_lattice(3, 1 / 80), simplex_lattice(2, 1 / 80)
    j, i = _first_fixed_point(
        [_support_masks(v_grid), _support_masks(u_grid)],
        [voronoi_label_masks(col_lab, u_grid, eps / 8), voronoi_label_masks(row_lab, v_grid, eps / 8)])

    sizes = [math.comb(K + 3, 3) for K in (20, 40, 80)]
    missing, seen = _missing(sizes, misses=2)
    monkeypatch.setattr(bimatrix, "_first_fixed_point", missing)
    cert = solve_wsne(oracles, eps)
    assert seen == sizes
    assert cert.grid_resolution == 1 / 80
    assert np.array_equal(cert.u, u_grid[i]) and np.array_equal(cert.v, v_grid[j])
    assert verify_wsne(g, cert.u, cert.v, eps).valid


@pytest.mark.parametrize("m,n,seed", [(4, 3, 101), (4, 3, 119), (3, 4, 5), (3, 3, 6)])
@pytest.mark.parametrize("slack", [1.0, 8.0])
def test_scan_matches_the_fully_masked_scan(m, n, seed, slack):
    # the scan masks the larger lattice only where a support fits a mask of
    # the smaller one; the first fixed point must be the full masks' one
    eps = 0.1
    oracles = make_br_oracles(random_game(m, n, seed), seed=0)
    row_lab = _learn_partition(oracles.row, n - 1, m, 4 * eps / (4 * math.sqrt(n - 1)))
    col_lab = _learn_partition(oracles.column, m - 1, n, 4 * eps / (4 * math.sqrt(m - 1)))
    sigma = slack * eps / 8
    expected = None
    for delta in _scan_steps(unit_step(eps / 8)):
        u_grid, v_grid = simplex_lattice(m - 1, delta), simplex_lattice(n - 1, delta)
        hit = _first_fixed_point(
            [_support_masks(v_grid), _support_masks(u_grid)],
            [voronoi_label_masks(col_lab, u_grid, sigma), voronoi_label_masks(row_lab, v_grid, sigma)])
        if hit is not None:
            expected = (u_grid[hit[1]].tolist(), v_grid[hit[0]].tolist(), delta)
            break
    got = _scan(row_lab, col_lab, m - 1, n - 1, _scan_steps(unit_step(eps / 8)), sigma)
    assert expected is not None and got is not None
    assert (got[0].tolist(), got[1].tolist(), got[4]) == expected


def test_fitting_masks_measure_exactly_the_points_that_fit():
    eps = 0.1
    oracles = make_br_oracles(random_game(4, 3, seed=101), seed=0)
    col_lab = _learn_partition(oracles.column, 3, 3, eps / (4 * math.sqrt(3)))
    grid = simplex_lattice(3, 1 / 20)
    supports = _support_masks(grid)
    full = voronoi_label_masks(col_lab, grid, eps / 8)
    for other in ([1, 2, 4, 8], [3, 12], [7], [5, 2], [15]):
        other = np.array(other, dtype=np.int64)
        fits = np.array([any(int(s) & ~int(o) == 0 for o in other) for s in supports])
        got = bimatrix._fitting_masks(col_lab, grid, supports, other, eps / 8)
        assert np.array_equal(got, np.where(fits, full, 0))


def test_certificate_json_fields():
    g = lower_bound_game(0.5, 0.5)
    oracles = make_br_oracles(g, seed=4)
    cert = solve_wsne(oracles, 0.1)
    import json
    payload = json.loads(cert.to_json())
    for key in ("u", "v", "eps", "row_support", "col_support", "queries_row", "queries_col",
                "grid_resolution", "accuracy_row", "accuracy_col", "row_witness", "col_witness",
                "row_witness_radius", "col_witness_radius"):
        assert key in payload
    # accepted by the first round's witnesses: every supported hull lies
    # within its side's radius
    assert payload["accuracy_row"] == payload["accuracy_col"] == bimatrix.LEARN_ROUNDS[0] * 0.1 / 4
    assert sorted(map(int, payload["row_witness"])) == payload["row_support"]
    assert sorted(map(int, payload["col_witness"])) == payload["col_support"]
    assert max(payload["row_witness"].values()) <= payload["row_witness_radius"]
    assert max(payload["col_witness"].values()) <= payload["col_witness_radius"]
    assert payload["row_witness_radius"] == witness_radius(0.1, 1)


# -- learning rounds and the witness rule ------------------------------------------------

@st.composite
def witness_cases(draw):
    """A random 3x3 or 4x3 game, labellings learned at a coarse accuracy,
    and a Voronoi slack up to 8 times the solver's, so that scan
    candidates fail the rule as well as pass it."""
    m = draw(st.sampled_from([3, 4]))
    return (m, draw(st.integers(0, 2 ** 20)), draw(st.sampled_from([4.0, 8.0, 16.0, 32.0])),
            draw(st.sampled_from([1.0, 4.0, 8.0])))


@settings(max_examples=40, deadline=None)
@given(witness_cases())
def test_witness_rule_accepts_only_wsne(case):
    m, seed, factor, slack = case
    n, eps = 3, 0.1
    g = random_game(m, n, seed)
    oracles = make_br_oracles(g, seed=seed)
    row_lab = _learn_partition(oracles.row, n - 1, m, factor * eps / (4 * math.sqrt(n - 1)))
    col_lab = _learn_partition(oracles.column, m - 1, n, factor * eps / (4 * math.sqrt(m - 1)))
    # the bound behind the rule, at random mixes: a strategy's regret is at
    # most 2 sqrt(dim) times the distance to the hull of its answers, and at
    # most eps' within witness_radius(eps', dim) of it
    rng = np.random.default_rng(seed)
    for side, lab, dim in (("row", row_lab, n - 1), ("column", col_lab, m - 1)):
        mixes = rng.dirichlet(np.ones(dim + 1), size=100)[:, 1:]
        labels = list(range(1, lab.n + 1))
        for x in mixes:
            vals = pure_utilities(g, side, x)
            for j, d in witness_distances(lab, x, labels).items():
                regret = vals.max() - vals[j - 1]
                assert regret <= 2 * math.sqrt(dim) * d + 1e-9
                for radius_eps in (0.02, 0.05, 0.1, 0.2):
                    assert d > witness_radius(radius_eps, dim) or regret <= radius_eps
    hit = _scan(row_lab, col_lab, m - 1, n - 1, _scan_steps(unit_step(eps / 8)), slack * eps / 8)
    if hit is None:
        return
    u, v, row_support, col_support, _delta = hit
    rows = witness_distances(row_lab, v, row_support)
    cols = witness_distances(col_lab, u, col_support)
    if max(rows.values()) <= witness_radius(eps, n - 1) and \
            max(cols.values()) <= witness_radius(eps, m - 1):
        assert verify_wsne(g, u, v, eps).valid


# Certificates and query counts of a solve that learns once, at the final
# accuracy (eps_r / 2, eps_c / 2): (game, eps, u, v, row support, column
# support, grid resolution, row queries, column queries).
ONE_ROUND = [
    (random_game(4, 3, seed=101), 0.1, [0.0, 0.7375, 0.0], [0.0, 0.2875], [1, 3], [1, 3],
     0.0125, 80, 176),
    (lower_bound_game(0.3, 0.7), 0.05, [0.7], [0.3], [1, 2], [1, 2], 0.025, 9, 9),
]


@pytest.mark.parametrize("case", ONE_ROUND, ids=["4x3", "lower-bound"])
def test_final_round_asks_the_one_round_points_and_returns_its_certificate(monkeypatch, case):
    # with the coarse rounds made to miss, the final round asks exactly the
    # points a one-round solve asks (each once) and returns its certificate
    g, eps, u, v, row_support, col_support, grid, queries_row, queries_col = case
    monkeypatch.setattr(bimatrix, "witness_radius", lambda eps, dim: -1.0)
    learn, asked = bimatrix._learn_partition, []

    def counted(oracle, dim, labels, acc):
        keys = []

        def ask(y):
            keys.append(np.asarray(y, dtype=float).tobytes())
            return oracle(y)
        ask.log = oracle.log
        lab = learn(ask, dim, labels, acc)
        asked.append((len(keys), len(set(keys))))
        return lab
    monkeypatch.setattr(bimatrix, "_learn_partition", counted)
    oracles = make_br_oracles(g, seed=0)
    cert = solve_wsne(oracles, eps)
    assert len(asked) == 2 * len(bimatrix.LEARN_ROUNDS)
    assert asked[-2:] == [(queries_row, queries_row), (queries_col, queries_col)]
    assert cert.accuracy_row == eps / (4 * math.sqrt(max(g.n - 1, 1)))
    assert cert.accuracy_col == eps / (4 * math.sqrt(max(g.m - 1, 1)))
    assert cert.u.tolist() == pytest.approx(u, abs=1e-12)
    assert cert.v.tolist() == pytest.approx(v, abs=1e-12)
    assert (cert.row_support, cert.col_support, cert.grid_resolution) == \
        (row_support, col_support, grid)
    # the coarse rounds' points the final round asks again are free
    assert (cert.queries_row, cert.queries_col) == \
        (oracles.row.log.count, oracles.column.log.count)
    assert cert.queries_row >= queries_row and cert.queries_col >= queries_col
    assert verify_wsne(g, cert.u, cert.v, eps).valid


@pytest.mark.parametrize("game,rounds", [
    (random_game(4, 3, seed=114), 1), (random_game(4, 3, seed=119), 2),
    (lower_bound_game(0.3, 0.7), 1), (lower_bound_game(0.62, 0.18), 1)])
def test_learning_rounds_never_ask_more_than_one_round(monkeypatch, game, rounds):
    factor = bimatrix.LEARN_ROUNDS[rounds - 1]
    cert = solve_wsne(make_br_oracles(game, seed=0), 0.1)
    monkeypatch.setattr(bimatrix, "LEARN_ROUNDS", (1.0,))
    single = solve_wsne(make_br_oracles(game, seed=0), 0.1)
    assert cert.queries_row + cert.queries_col <= single.queries_row + single.queries_col
    # accepted by the witness rule in the expected round
    assert cert.accuracy_col == factor * single.accuracy_col
    assert verify_wsne(game, cert.u, cert.v, 0.1).valid


def test_answer_memo_charges_each_point_once():
    oracles = make_br_oracles(random_game(4, 3, seed=7), seed=0)
    memo = oracles.column
    pts = np.random.default_rng(8).dirichlet(np.ones(4), size=20)[:, 1:]
    answers = [memo(p) for p in pts]
    assert memo.log is memo.oracle.log and memo.log.count == 20
    assert [memo(p) for p in pts] == answers
    assert memo.log.count == 20


# -- payoff audit ---------------------------------------------------------------------

def test_payoff_access_outside_context_raises():
    g = GuardedGame(random_game(2, 2, seed=14))
    with pytest.raises(PayoffAuditError):
        g.payoffs()
    assert not g.audit.clean
    with g.audit.allowed("verify"):
        A, B = g.payoffs()
    assert A.shape == (2, 2)


def test_solver_path_never_touches_payoffs():
    g = random_game(2, 2, seed=15)
    oracles = make_br_oracles(g, seed=5)
    solve_wsne(oracles, 0.1)
    assert oracles.audit.clean
    assert set(oracles.audit.purposes) == {"oracle"}


def test_game_json_roundtrip():
    rng = np.random.default_rng(41)
    g = BimatrixGame(rng.random((4, 3)), rng.random((4, 3)))
    g2 = BimatrixGame.from_json(g.to_json())
    assert np.array_equal(g.A, g2.A) and np.array_equal(g.B, g2.B)


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_game_rejects_empty_payoff_matrices(shape):
    with pytest.raises(ValueError, match="m, n >= 1"):
        BimatrixGame(np.zeros(shape), np.zeros(shape))


def test_expand_rows_match_single_mixes():
    rng = np.random.default_rng(42)
    rows = rng.dirichlet(np.ones(4), size=6)[:, 1:]
    # a first coordinate in (-1e-7, 0) is rounding and is clipped to 0
    rows[0, :] = [0.5, 0.25, 0.25 + 5e-8]
    assert np.array_equal(expand(rows, 4), np.vstack([expand(r, 4) for r in rows]))

    def reference(mix):
        full = np.concatenate([1.0 - mix.sum(axis=-1, keepdims=True), mix], axis=-1)
        np.maximum(full[..., 0], 0.0, out=full[..., 0])
        return full
    assert expand(rows, 4)[0, 0] == 0.0
    assert np.array_equal(expand(rows, 4), reference(rows))
    for r in rows:
        assert np.array_equal(expand(r, 4), reference(r))
        assert np.array_equal(expand(r.tolist(), 4), reference(r))
    for bad, why in (([[0.5, 0.6, 0.1]], "not a distribution"),
                     ([[0.2, -0.1, 0.1]], "not a distribution"),
                     ([0.5, 0.5, 2e-7], "not a distribution"),
                     ([[0.2, np.inf, 0.1]], "non-finite"), ([0.2, np.nan, 0.1], "non-finite"),
                     ([[0.2, 0.1]], "dimension mismatch"), ([0.2, 0.1], "dimension mismatch")):
        with pytest.raises(ValueError, match=why):
            expand(np.array(bad), 4)


def test_expand_vertices():
    # the corner simplex's origin and basis points go to the pure strategies
    assert expand(np.zeros(2), 3) == pytest.approx([1.0, 0.0, 0.0])
    assert expand(np.array([1.0, 0.0]), 3) == pytest.approx([0.0, 1.0, 0.0])


def test_expand_l2_lipschitz_constant():
    # reduced coordinates to full distributions: l2 Lipschitz sqrt(size)
    rng = np.random.default_rng(1)
    bound = math.sqrt(4)
    for _ in range(1000):
        x, y = rng.dirichlet(np.ones(4))[:3], rng.dirichlet(np.ones(4))[:3]
        lhs = np.linalg.norm(expand(x, 4) - expand(y, 4))
        assert lhs <= bound * np.linalg.norm(x - y) + 1e-12
