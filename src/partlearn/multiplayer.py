"""n-player k-action games: l1 net lattices, brute-force labelling through
best-response queries, and Voronoi equilibrium search.

Beyond two players best-response regions stop being convex, so empirical
regions are kept as raw point sets with l1 nearest-point distances instead
of hulls; querying every point of an l1 net of each opponent profile space
still yields close labellings, and the same Voronoi fixed-point search as
the bimatrix case produces approximate well-supported equilibria.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .bimatrix import (SLACK_DIVISOR, STEP_DIVISOR, PayoffAudit, _first_fixed_point, _mask_to_list,
                       _scan_steps, _support_masks, expand, supported_regrets)
from .coverage import (MAX_CELLS, CellCapError, CoverageReport, lattice_count, simplex_lattice,
                       unit_step)
from .labelling import voronoi_band_masks
from .partition import QueryLog, TieBreak
from .predicates import ETA, as_point

PROFILE_CAP = 400_000     # lattice profiles the scan may cover in one round


@dataclass
class NormalFormGame:
    """Utilities indexed by (player, pure profile), values in [0, 1]."""

    n: int
    k: int
    utilities: np.ndarray   # shape (n,) + (k,) * n

    def __post_init__(self):
        if self.n < 1 or self.k < 1:
            raise ValueError(f"need n, k >= 1 (players, actions), got n = {self.n}, k = {self.k}")
        self.utilities = np.asarray(self.utilities, dtype=float)
        want = (self.n,) + (self.k,) * self.n
        if self.utilities.shape != want:
            raise ValueError(f"utility tensor must have shape {want}")
        if self.utilities.min() < -ETA or self.utilities.max() > 1.0 + ETA:
            raise ValueError("utilities must lie in [0, 1]")

    def to_json(self) -> str:
        return json.dumps({"n": self.n, "k": self.k,
                           "u": self.utilities.ravel().tolist()})

    @classmethod
    def from_json(cls, text: str) -> "NormalFormGame":
        d = json.loads(text)
        u = np.array(d["u"], dtype=float).reshape((d["n"],) + (d["k"],) * d["n"])
        return cls(d["n"], d["k"], u)


def random_game(n: int, k: int, seed: int = 0) -> NormalFormGame:
    rng = np.random.default_rng(seed)
    return NormalFormGame(n, k, rng.random((n,) + (k,) * n))


def jordan_game() -> NormalFormGame:
    """Three-player cyclic matching game whose unique equilibrium is the
    uniform profile: player 1 matches player 2, 2 matches 3, 3 mismatches 1."""
    u = np.zeros((3, 2, 2, 2))
    for a1, a2, a3 in itertools.product(range(2), repeat=3):
        u[0, a1, a2, a3] = 1.0 if a1 == a2 else 0.0
        u[1, a1, a2, a3] = 1.0 if a2 == a3 else 0.0
        u[2, a1, a2, a3] = 1.0 if a3 != a1 else 0.0
    return NormalFormGame(3, 2, u)


def dominant_game(n: int = 3, k: int = 2) -> NormalFormGame:
    """Every player's first action strictly dominates."""
    u = np.zeros((n,) + (k,) * n)
    for idx in itertools.product(range(k), repeat=n):
        for i in range(n):
            u[(i,) + idx] = 1.0 if idx[i] == 0 else 0.25
    return NormalFormGame(n, k, u)


def expected_utility(g: NormalFormGame, i: int, r: int, x_minus_i) -> float:
    """Player i's expected utility for pure action r (1-based) against the
    reduced mixed profiles of the other players."""
    if not 1 <= i <= g.n or not 1 <= r <= g.k:
        raise IndexError("player or action out of range")
    others = list(x_minus_i)
    if len(others) != g.n - 1:
        raise ValueError("need one mixed strategy per other player")
    tensor = np.take(g.utilities[i - 1], r - 1, axis=i - 1)
    for j, mix in enumerate(others):
        tensor = np.tensordot(expand(mix, g.k), tensor, axes=(0, 0))
    return float(tensor)


def pure_values(g: NormalFormGame, i: int, x_minus_i) -> np.ndarray:
    return np.array([expected_utility(g, i, r, x_minus_i) for r in range(1, g.k + 1)])


class MultiBrOracle:
    """Best-response oracle of one player over the others' joint mixes.

    The joint mix is the concatenation of the other players' reduced
    strategies in player order.  Ties are broken by a :class:`TieBreak`.
    Construction reads player i's utilities once, inside the audit's
    "oracle" context; queries never touch the game again.
    """

    def __init__(self, g: NormalFormGame, i: int, kind: str = "adversarial",
                 policy: str = "seeded", seed: int = 0, budget=None,
                 record: bool = True, audit: PayoffAudit | None = None):
        if not 1 <= i <= g.n:
            raise IndexError("player out of range")
        self.tie_break = TieBreak(kind, policy, seed)
        self.n, self.k, self.i = g.n, g.k, i
        self.log = QueryLog(budget=budget, record=record)
        audit = audit or PayoffAudit()
        with audit.allowed("oracle"):
            audit.require()
            # rows: the other players' pure profiles in player order, the
            # first most significant; columns: player i's own actions
            self._table = np.moveaxis(g.utilities[i - 1], i - 1, -1).reshape(-1, g.k).copy()

    def split(self, joint) -> np.ndarray:
        """The other players' reduced mixes, one row each, in player order
        (`expand` checks that they are finite distributions)."""
        joint = np.ravel(np.asarray(joint, dtype=float))
        if joint.size != (self.k - 1) * (self.n - 1):
            raise ValueError("joint mix has wrong dimension")
        return joint.reshape(self.n - 1, self.k - 1)

    def __call__(self, joint) -> int:
        # a malformed joint mix raises before it is charged; the product
        # weights of the opponents' pure profiles start from 1.0, so a
        # one-player game (no opponents) weighs its single row by 1
        parts = self.split(joint)
        weights = functools.reduce(np.multiply.outer, expand(parts, self.k), 1.0)
        vals = (np.ravel(weights) @ self._table).tolist()
        top = max(vals)
        joint = parts.ravel()
        self.log.charge(joint)
        ans = self.tie_break(joint, {r + 1 for r, v in enumerate(vals) if v >= top - ETA})
        self.log.amend_last_label(ans)
        return ans


def make_multi_oracles(g: NormalFormGame, kind: str = "adversarial", policy: str = "seeded",
                       seed: int = 0, budget=None, record: bool = False):
    audit = PayoffAudit()
    return [MultiBrOracle(g, i, kind, policy, seed + i, budget, record, audit)
            for i in range(1, g.n + 1)], audit


@dataclass
class NetSpec:
    """Product l1 net over the joint mixed strategies of n-1 players."""

    n: int
    k: int
    eps: float
    eps_prime: float
    spacing: float
    single: np.ndarray          # lattice of one (k-1)-simplex
    points: np.ndarray          # product lattice, concatenated coordinates

    @property
    def single_count(self) -> int:
        return self.single.shape[0]

    @property
    def count(self) -> int:
        return self.points.shape[0]


def simplex_net(d: int, eps: float) -> np.ndarray:
    """The l1 eps-net lattice (2 eps / d) Z^d intersected with the corner
    d-simplex; stars and bars gives C(floor(d / (2 eps)) + d, d) points."""
    if d == 0:
        return np.zeros((1, 0))
    spacing = 2.0 * eps / d
    if spacing >= 1.0:
        spacing = 1.0
    return simplex_lattice(d, spacing)


def build_net(n: int, k: int, eps: float, max_points: int = 2_000_000) -> NetSpec:
    """l1 eps-net of the joint mixed strategies of n-1 players with k actions."""
    if n < 2 or k < 2 or eps <= 0:
        raise ValueError("need n >= 2, k >= 2, eps > 0")
    d = k - 1
    eps_prime = eps / (n - 1)
    spacing = min(2.0 * eps_prime / d, 1.0)
    if lattice_count(d, spacing) ** (n - 1) > max_points:
        raise ValueError("net size beyond the configured cap")
    single = simplex_net(d, eps_prime)
    return NetSpec(n, k, eps, eps_prime, spacing, single, _product([single] * (n - 1)))


def _product(blocks: list) -> np.ndarray:
    """Rows of the product of point blocks, coordinates concatenated, the
    first block most significant."""
    prod = np.zeros((1, 0))
    for b in blocks:
        prod = np.hstack([np.repeat(prod, b.shape[0], axis=0), np.tile(b, (prod.shape[0], 1))])
    return prod


class PointLabelling:
    """Per-action point sets over a joint-mix space, with l1 distances from
    one k-d tree per action, built at the first query after a change."""

    def __init__(self, dim: int, k: int):
        if dim < 1:
            raise ValueError("a joint-mix space has dimension >= 1")
        self.dim = dim
        self.k = k
        self.points = {r: [] for r in range(1, k + 1)}
        self._trees = {}

    def add(self, x, r: int) -> None:
        self.points[r].append(np.asarray(x, dtype=float))
        self._trees.pop(r, None)

    def arrays(self) -> dict:
        return {r: (np.vstack(v) if v else np.zeros((0, self.dim)))
                for r, v in self.points.items()}

    def l1_distances(self, X: np.ndarray) -> np.ndarray:
        """(k, N) l1 distance from each query row to each action's set."""
        X = np.atleast_2d(X)
        out = np.full((self.k, X.shape[0]), np.inf)
        for r, blocks in self.points.items():
            if not blocks:
                continue
            if r not in self._trees:
                self._trees[r] = cKDTree(np.vstack(blocks))
            out[r - 1] = self._trees[r].query(X, p=1)[0]
        return out

    def to_json(self) -> str:
        return json.dumps({"dim": self.dim, "k": self.k,
                           "points": {str(r): np.vstack(v).tolist() if v else []
                                      for r, v in self.points.items()}})


def learn_multiplayer_labellings(oracles, eps: float):
    """Query every point of an (eps/2)-net of each player's opponent space."""
    if not oracles:
        raise ValueError("no oracles")
    n, k = oracles[0].n, oracles[0].k
    net = build_net(n, k, eps / 2.0)
    labs = []
    for orc in oracles:
        lab = PointLabelling((k - 1) * (n - 1), k)
        for x in net.points:
            lab.add(x, orc(x))
        labs.append(lab)
    return labs, net


def is_l1_close(lab: PointLabelling, eps: float) -> CoverageReport:
    """Sound one-sided check that the labelled points form an l1 eps-net of
    the joint space, a product of corner (k-1)-simplices.

    Boxes of [0, 1]^dim are bisected along their longest side.  The l1
    distance D to the stored points is 1-Lipschitz in l1, so a box is
    covered when D at its centre plus its l1 half-diameter is at most
    eps + ETA, or when D at its low corner ``lo`` plus
    ``sum_b min(l1 width of block b, 1 - sum lo_b)`` is: every point x of
    the space in the box has ``x_b >= lo_b`` and ``sum x_b <= 1`` in each
    block b.  A box's low corner is a point of the space, and one with
    D > eps + ETA is the witness of a "not close" verdict.  Bisecting
    [0, 1] keeps every coordinate dyadic, so the sums that drop boxes
    outside the space are exact.  A level that would hold more than
    coverage.MAX_CELLS boxes raises CellCapError.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    d, bs = lab.dim, lab.k - 1
    if bs < 1 or d % bs:
        raise ValueError("labelling dimension is not a multiple of k - 1")
    blocks = (-1, d // bs, bs)
    los, his = np.zeros((1, d)), np.ones((1, d))
    touched = 0
    while los.shape[0]:
        touched += los.shape[0]
        at_lo = lab.l1_distances(los).min(axis=0)
        worst = int(np.argmax(at_lo))
        if at_lo[worst] > eps + ETA:
            return CoverageReport(eps, False, los[worst].copy(), ETA, float(at_lo[worst]), touched)
        lo_sums = los.reshape(blocks).sum(axis=2)
        widths = (his - los).reshape(blocks).sum(axis=2)
        alive = at_lo + np.minimum(widths, 1.0 - lo_sums).sum(axis=1) > eps + ETA
        los, his = los[alive], his[alive]
        radii = 0.5 * (his - los).sum(axis=1)
        alive = lab.l1_distances(0.5 * (los + his)).min(axis=0) + radii > eps + ETA
        los, his = los[alive], his[alive]
        if 2 * los.shape[0] > MAX_CELLS:
            raise CellCapError(f"l1 coverage refinement would exceed the cap of {MAX_CELLS} boxes")
        rows = np.arange(los.shape[0])
        axis = np.argmax(his - los, axis=1)
        mid = 0.5 * (los[rows, axis] + his[rows, axis])
        left_hi, right_lo = his.copy(), los.copy()
        left_hi[rows, axis] = mid
        right_lo[rows, axis] = mid
        los, his = np.vstack([los, right_lo]), np.vstack([left_hi, his])
        inside = (los.reshape(blocks).sum(axis=2) <= 1.0).all(axis=1)
        los, his = los[inside], his[inside]
    return CoverageReport(eps, True, None, ETA, cells_touched=touched)


@dataclass
class MultiWsneCertificate:
    profile: list               # reduced mixes per player
    eps: float
    supports: list              # 1-based actions per player
    regrets: list | None = None
    valid: bool | None = None
    queries: int = 0
    grid_resolution: float | None = None

    def to_json(self) -> str:
        return json.dumps({
            "profile": [list(map(float, x)) for x in self.profile],
            "eps": self.eps,
            "supports": self.supports,
            "regrets": self.regrets,
            "valid": self.valid,
            "queries": self.queries,
            "grid_resolution": self.grid_resolution,
        })


def verify_wsne_multiplayer(g: NormalFormGame, profile, eps: float) -> MultiWsneCertificate:
    """Supported regrets of every player at a reduced-coordinate profile."""
    profile = [as_point(x) for x in profile]
    if len(profile) != g.n:
        raise ValueError("profile must list one mix per player")
    regrets = []
    for i in range(1, g.n + 1):
        others = [profile[j - 1] for j in range(1, g.n + 1) if j != i]
        regrets.append(supported_regrets(expand(profile[i - 1], g.k), pure_values(g, i, others)))
    ok = all(r <= eps + ETA for regs in regrets for r in regs.values())
    return MultiWsneCertificate(profile, eps, [list(regs) for regs in regrets], regrets, ok)


def solve_wsne_multiplayer(labellings, g_for_verification: NormalFormGame, eps: float,
                           queries: int = 0) -> MultiWsneCertificate:
    """Grid search for a profile supported by slack l1-Voronoi best responses.

    ``labellings`` must be (eps/2)-close in l1 (as produced by
    learn_multiplayer_labellings); the verification game is consulted only
    to fill the certificate's regrets afterwards.  The lattices are those
    of `bimatrix._scan_steps`, coarsest first, from the spacing of l1
    resolution eps / STEP_DIVISOR; the certificate is the lexicographically
    first fixed point of the coarsest lattice that has one, and
    ``grid_resolution`` is that lattice's l1 resolution.  Raises
    RuntimeError naming the last resolution scanned when no lattice has a
    fixed point, and naming the cap and the spacing when a lattice would
    exceed PROFILE_CAP profiles.
    """
    g = g_for_verification
    n, k = g.n, g.k
    d = k - 1
    delta = eps / STEP_DIVISOR
    sigma = eps / SLACK_DIVISOR
    # l1 resolution delta needs lattice spacing 2 delta / d; a spacing of
    # 1/K keeps the pure profiles on the lattice
    for spacing in _scan_steps(unit_step(min(2.0 * delta / max(d, 1), 1.0))):
        resolution = spacing * max(d, 1) / 2.0
        if lattice_count(d, spacing) ** n > PROFILE_CAP:
            raise RuntimeError(f"fixed point not found before the profile lattice at spacing "
                               f"{spacing:g} exceeded the cap of {PROFILE_CAP} profiles")
        grid = simplex_lattice(d, spacing)
        # Voronoi masks per player over the joint grids of the others
        joints = _product([grid] * (n - 1))
        voronoi = [voronoi_band_masks(lab.l1_distances(joints), 1 << np.arange(k), sigma)
                   for lab in labellings[:n]]
        supp = _support_masks(grid)
        hit = _first_fixed_point([supp] * n, voronoi)
        if hit is not None:
            return MultiWsneCertificate(
                [grid[p].copy() for p in hit], eps, [_mask_to_list(int(supp[p])) for p in hit],
                queries=queries, grid_resolution=resolution)
    raise RuntimeError(f"fixed point not found at resolution {resolution:g}")
