"""n-player k-action games: l1 net lattices, net labellings learned from
best-response queries by corner agreement, and Voronoi equilibrium search.

Beyond two players best-response regions stop being convex, so empirical
regions are kept as raw point sets with l1 nearest-point distances instead
of hulls.  A labelling of every point of an l1 net of each opponent profile
space is still close, and the same Voronoi fixed-point search as the
bimatrix case produces approximate well-supported equilibria.  The net
labelling need not ask every net point: each utility difference is affine
in each opponent's mix, so an action the oracle answers at every vertex of
a product of lattice boxes is a legal answer (within ETA of the best) at
every net point inside it (`learn_multiplayer_labellings`).
"""

from __future__ import annotations

import itertools
import json
import math
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.spatial import cKDTree

from .bimatrix import (SLACK_DIVISOR, STEP_DIVISOR, PayoffAudit, _first_fixed_point, _mask_to_list,
                       _scan_steps, _support_masks, expand, full_mixes, supported_regrets)
from .coverage import (MAX_CELLS, CellCapError, CoverageReport, _lattice_steps, _lattice_table,
                       dataclass_json, lattice_count, simplex_lattice, unit_step)
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
        for key in ("n", "k"):
            if type(d[key]) is not int:
                raise ValueError(f"multiplayer key {key!r} must be an integer, not {d[key]!r}")
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
    "oracle" context; queries never touch the game again.  A query checks
    its joint mix once (`split`, then `full_mixes`) and works on the mix's
    Python floats; its one array operation is the product of the profile
    weights with the utility table.
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
        (`full_mixes` checks that they are finite distributions)."""
        joint = np.asarray(joint, dtype=float)
        if joint.size != (self.k - 1) * (self.n - 1):
            raise ValueError("joint mix has wrong dimension")
        return joint.reshape(self.n - 1, self.k - 1)

    def __call__(self, joint) -> int:
        # a malformed joint mix raises before it is charged; the weight of
        # a pure profile of the opponents is the product of their full
        # mixes' entries, the first opponent most significant, and a
        # one-player game (no opponents) weighs its single row by 1
        parts = self.split(joint)
        weights = [1.0]
        for mix in full_mixes(parts.tolist(), self.k - 1, self.k):
            weights = [w * p for w in weights for p in mix]
        vals = (np.array(weights) @ self._table).tolist()
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
    """Product l1 net over the joint mixed strategies of n-1 players, with
    its lattice index `boxes` for the players' label walks."""

    n: int
    k: int
    eps: float
    eps_prime: float
    spacing: float
    single: np.ndarray          # lattice of one (k-1)-simplex
    points: np.ndarray          # product lattice, concatenated coordinates

    @cached_property
    def boxes(self) -> "_BoxIndex":
        """The net's lattice index, built at first use and shared by every
        player's `_label_net` walk: each box of the single-simplex lattice
        the walks visit, with its vertex and member ranks (`_BoxIndex`)."""
        return _BoxIndex(_lattice_steps(self.spacing), self.k - 1)

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
    if n < 2 or k < 2 or not 0 < eps < math.inf:
        raise ValueError("need n >= 2, k >= 2, finite eps > 0")
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
        """Give action r to one point, or to every row of a block of points."""
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
    """Label every point of an (eps/2)-net of each player's opponent space.

    The net points are the lattice points ``i * net.spacing``, i integer,
    of a product of n - 1 corner (k-1)-simplices.  A cell is a product of
    one integer box ``lo..hi`` per opponent block, clipped to ``sum <= K``
    (K = floor(1 / spacing), the net's lattice steps); the root cell is the
    whole net.  The cell's vertices are labelled first, each asked unless
    it already has a label.  When they all carry the same action a, a
    labels every unlabelled net point of the cell unasked; otherwise the
    cell's longest side is halved at its integer midpoint, a half whose low
    corner leaves the simplex is dropped, and a cell of side 1 stops: its
    net points are all vertices.

    This is sound for every (n, k).  Each utility difference u_a - u_b is
    affine in each opponent's mix, so on a product of polytopes it is a
    convex combination of its values at the product's vertices.  The
    oracle answering a at a point means ``u_a >= max_b u_b - ETA`` there;
    if that holds at every vertex it holds on the whole cell, so a is a
    legal oracle answer at every point it fills, and a filled label may
    stand for a vertex's answer in a later cell.  A clipped lattice box has
    lattice vertices (its bounds plus one all-ones row are totally
    unimodular): the box corners inside the simplex and each box edge's
    crossing of ``sum = K``.  So only net points are asked, none twice,
    and the worst case is the brute-force cost ``n * net.count``.  An asked
    point keeps the oracle's answer and each action's points are stored in
    net order, so a labelling differs from asking every net point only at
    a tie point, where another answer is as legal.

    The players' walks share one net and its lattice index
    (`NetSpec.boxes`), which holds the vertex and member ranks of every box
    they visit.  ``oracles`` must be those of players 1..n of one n-player
    k-action game, in player order; any other list raises ValueError
    before a query is asked.
    """
    if not oracles:
        raise ValueError("no oracles")
    n, k = oracles[0].n, oracles[0].k
    got = [(o.n, o.k, o.i) for o in oracles]
    if got != [(n, k, i) for i in range(1, n + 1)]:
        raise ValueError(f"need the oracles of players 1..{n} of one {n}-player {k}-action "
                         f"game, in player order; got (n, k, player) = {got}")
    net = build_net(n, k, eps / 2.0)
    labs = []
    for orc in oracles:
        labels = _label_net(net, orc)
        lab = PointLabelling((k - 1) * (n - 1), k)
        for r in range(1, k + 1):
            block = net.points[labels == r]
            if len(block):
                lab.add(block, r)
        labs.append(lab)
    return labs, net


def _label_net(net: NetSpec, ask) -> np.ndarray:
    """Labels (1-based actions) of the net's rows by the box recursion of
    `learn_multiplayer_labellings`; ``ask`` answers a net point.

    A cell is a tuple of per-block boxes ``(lo, hi)`` of integer tuples,
    each read from the net's lattice index `NetSpec.boxes`.  A net row is
    the mixed-radix number of its blocks' ranks in the single-simplex
    lattice, the first block most significant, as in `_product`.  The one
    label array is also the answer cache: a row is asked only while its
    label is 0.  It is a Python ``array`` so that corner checks read plain
    ints, and a numpy view of the same memory takes the block fills.
    """
    boxes, radix, m = net.boxes, net.single_count, net.n - 1
    labels = array("q", bytes(8 * net.count))
    view = np.frombuffer(labels, dtype=np.int64)
    stack = [(boxes.root,) * m]
    while stack:
        cell = stack.pop()
        entries = [boxes[box] for box in cell]
        corners = [0]
        for e in entries:
            corners = [row * radix + v for row in corners for v in e.vertices]
        answers = set()
        for row in corners:
            if not labels[row]:
                labels[row] = ask(net.points[row])
            answers.add(labels[row])
        if len(answers) == 1:
            filled = boxes.members(cell[0])
            for box in cell[1:]:
                filled = np.add.outer(filled * radix, boxes.members(box)).ravel()
            view[filled[view[filled] == 0]] = answers.pop()
            continue
        b = max(range(m), key=lambda c: entries[c].side)    # the first longest
        e = entries[b]
        if e.side <= 1:
            continue
        if e.upper is not None:
            stack.append(cell[:b] + (e.upper,) + cell[b + 1:])
        stack.append(cell[:b] + (e.lower,) + cell[b + 1:])
    return view


class _Box(NamedTuple):
    """One box of a `_BoxIndex`: the lex ranks of its vertices (in
    `_box_vertices` order), its longest side (the first axis of that
    length), and the halves that side's integer midpoint cuts it into when
    it is 2 or more; ``upper`` is None when its low corner leaves the
    simplex."""

    vertices: list
    side: int
    lower: tuple
    upper: tuple | None


class _BoxIndex(dict):
    """The boxes ``(lo, hi)`` of the lattice of one corner d-simplex with K
    steps, each made into its `_Box` at first use and kept, and the lex
    ranks of each box's lattice points, made at its first fill and kept
    (`members`): a box that is only split never scans the lattice."""

    def __init__(self, K: int, d: int):
        super().__init__()
        self.K = K
        self.table = _lattice_table(K, d)[0]
        self.rank = {v: r for r, v in enumerate(map(tuple, self.table.tolist()))}
        self.root = ((0,) * d, (K,) * d)
        self._members = {}

    def __missing__(self, box: tuple) -> _Box:
        lo, hi = box
        widths = [h - l for l, h in zip(lo, hi)]
        side = max(widths)
        j = widths.index(side)
        mid = (lo[j] + hi[j]) // 2
        upper = lo[:j] + (mid,) + lo[j + 1:]
        entry = self[box] = _Box([self.rank[v] for v in _box_vertices(lo, hi, self.K)], side,
                                 (lo, hi[:j] + (mid,) + hi[j + 1:]),
                                 (upper, hi) if sum(upper) <= self.K else None)
        return entry

    def members(self, box: tuple) -> np.ndarray:
        rows = self._members.get(box)
        if rows is None:
            # in lex order the box's points lie between lo and its last
            # point, which raises each coordinate in turn as far as hi and
            # the simplex allow, the later ones still at lo: only that
            # window of the table is scanned
            lo, hi = box
            last, left = [], self.K - sum(lo)
            for l, h in zip(lo, hi):
                last.append(min(h, l + left))
                left -= last[-1] - l
            start, stop = self.rank[lo], self.rank[tuple(last)] + 1
            window = self.table[start:stop]
            rows = self._members[box] = start + np.flatnonzero(
                ((window >= lo) & (window <= hi)).all(axis=1))
        return rows


def _box_vertices(lo: tuple, hi: tuple, K: int) -> list:
    """Vertices of the integer box ``lo..hi`` (``lo < hi``, ``sum(lo) <= K``)
    clipped to ``sum <= K``: the box corners inside, and each box edge's
    crossing of ``sum = K`` strictly between its ends."""
    out = []
    for c in itertools.product(*zip(lo, hi)):
        if sum(c) <= K:
            out.append(c)
        for j in range(len(c)):
            x = K - sum(c) + c[j]       # coordinate j that puts the edge on sum = K
            if c[j] == lo[j] and lo[j] < x < hi[j]:
                out.append(c[:j] + (x,) + c[j + 1:])
    return out


def _bisect(los, his):
    """Each box split across its longest axis: every low half in box
    order, then every high half."""
    n = los.shape[0]
    rows = np.arange(n)
    axis = np.argmax(his - los, axis=1)
    mid = 0.5 * (los[rows, axis] + his[rows, axis])
    los, his = np.concatenate([los, los]), np.concatenate([his, his])
    his[rows, axis] = mid
    los[rows + n, axis] = mid
    return los, his


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
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
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
        los, his = _bisect(los, his)
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
        return dataclass_json(self)


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
    learn_multiplayer_labellings).  Of the game only ``n`` and ``k`` are
    read: the certificate's ``regrets`` and ``valid`` stay None, for
    `verify_wsne_multiplayer` to fill (as ``partlearn solve`` does).  The
    lattices are those of `bimatrix._scan_steps`, coarsest first, from the
    spacing of l1 resolution eps / STEP_DIVISOR; the certificate is the
    lexicographically first fixed point of the coarsest lattice that has
    one, and ``grid_resolution`` is that lattice's l1 resolution.  Raises
    ValueError unless ``0 < eps < inf``, and RuntimeError naming the last
    resolution scanned when no lattice has a fixed point, and naming the cap
    and the spacing when a lattice would exceed PROFILE_CAP profiles.
    """
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    g = g_for_verification
    n, k = g.n, g.k
    if len(labellings) != n:
        raise ValueError(f"need one labelling per player: {len(labellings)} labellings "
                         f"for {n} players")
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
                   for lab in labellings]
        supp = _support_masks(grid)
        hit = _first_fixed_point([supp] * n, voronoi)
        if hit is not None:
            return MultiWsneCertificate(
                [grid[p].copy() for p in hit], eps, [_mask_to_list(int(supp[p])) for p in hit],
                queries=queries, grid_resolution=resolution)
    raise RuntimeError(f"fixed point not found at resolution {resolution:g}")
