"""Bimatrix games: best-response oracles, the reduction to labellings, and
approximate well-supported equilibria.

Best-response regions of each player form upper-envelope partitions of the
opponent's mixed-strategy simplex, so learning them is a labelling problem
over reduced coordinates (first strategy's probability implicit).  The
solver learns both partitions through adversarial best-response queries
only, then grid-searches for a profile whose supports sit inside slack
Voronoi best-response sets; payoff access is gated by an audit so the query
path provably never touches utilities.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .cdgbs import GbsConfig, cd_gbs_adversarial
from .coverage import lattice_count, simplex_lattice, unit_step
from .crgbs import CrConfig, cr_gbs
from .geometry import corner_simplex_vertices
from .labelling import EmpiricalLabelling, voronoi_band_masks
from .partition import UEPP, Oracle, QueryLog
from .predicates import ETA, as_point

# The scan's fixed settings.  The scan tries its lattices coarsest first
# (`_scan_steps`): COARSE_ROUNDS steps of about 2^c times the base step, c =
# COARSE_ROUNDS..1, then the base step eps / STEP_DIVISOR (rounded down to a
# step 1/K) halved REFINE_ROUNDS - 1 times.  The step only makes a lattice
# fixed point exist; an accepted profile's regret bound rests on the learned
# accuracy and the Voronoi slack eps / SLACK_DIVISOR alone, so the first
# lattice with a fixed point serves.  Masking runs in blocks of VORONOI_BLOCK
# lattice rows, which bounds its facet-offset arrays whatever the lattice.
SUPPORT_MASS = 1e-9          # a strategy is in the support above this mass
STEP_DIVISOR = 8.0
SLACK_DIVISOR = 8.0
COARSE_ROUNDS = 2
REFINE_ROUNDS = 3
LATTICE_CAP = 8_000_000      # points of one player's scan lattice
VORONOI_BLOCK = 2048


class PayoffAuditError(RuntimeError):
    """Payoff entries were read outside an allowed context."""


class PayoffAudit:
    """Gate for payoff access: open it for oracle construction or
    verification, and count any read attempted while closed."""

    def __init__(self):
        self._open = []
        self.purposes = []
        self.violations = 0

    @contextmanager
    def allowed(self, purpose: str):
        self._open.append(purpose)
        self.purposes.append(purpose)
        try:
            yield
        finally:
            self._open.pop()

    def require(self):
        if not self._open:
            self.violations += 1
            raise PayoffAuditError("payoff access outside oracle construction or verification")

    @property
    def clean(self) -> bool:
        return self.violations == 0


@dataclass
class BimatrixGame:
    """Row/column payoff matrices with entries in [0, 1]."""

    A: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.atleast_2d(np.asarray(self.B, dtype=float))
        if self.A.shape != self.B.shape:
            raise ValueError("payoff matrices must have equal shape")
        if self.A.ndim != 2 or min(self.A.shape) < 1:
            raise ValueError(f"payoff matrices must be m x n with m, n >= 1, "
                             f"got shape {self.A.shape}")
        for M in (self.A, self.B):
            if M.min() < -ETA or M.max() > 1.0 + ETA:
                raise ValueError("payoffs must lie in [0, 1]")

    @property
    def m(self) -> int:
        return self.A.shape[0]

    @property
    def n(self) -> int:
        return self.A.shape[1]

    def to_json(self) -> str:
        return json.dumps({"A": self.A.tolist(), "B": self.B.tolist()})

    @classmethod
    def from_json(cls, text: str) -> "BimatrixGame":
        d = json.loads(text)
        return cls(np.array(d["A"], dtype=float), np.array(d["B"], dtype=float))


class GuardedGame:
    """A game whose payoff matrices can only be read through an audit."""

    def __init__(self, game: BimatrixGame, audit: PayoffAudit | None = None):
        self._game = game
        self.audit = audit or PayoffAudit()
        self.m = game.m
        self.n = game.n

    def payoffs(self):
        self.audit.require()
        return self._game.A, self._game.B


def expand(mix, size: int) -> np.ndarray:
    """Reduced coordinates -> full distribution (first strategy implicit).
    A 2-D array holds one reduced mix per row and expands row by row."""
    mix = as_point(mix).reshape(np.shape(mix) if np.ndim(mix) == 2 else -1)
    if mix.shape[-1] != size - 1:
        raise ValueError("dimension mismatch")
    full = np.concatenate([1.0 - mix.sum(axis=-1, keepdims=True), mix], axis=-1)
    if full.min(initial=0.0) < -1e-7:
        raise ValueError("not a distribution")
    np.maximum(full[..., 0], 0.0, out=full[..., 0])
    return full


def utilities(g: BimatrixGame, u, v):
    """(row, column) expected utilities at the reduced-coordinate profile."""
    ue = expand(u, g.m)
    ve = expand(v, g.n)
    return float(ue @ g.A @ ve), float(ue @ g.B @ ve)


def pure_utilities(g: BimatrixGame, side: str, opponent_mix) -> np.ndarray:
    """Expected utility of each pure strategy against the opponent's mix."""
    if side == "row":
        return g.A @ expand(opponent_mix, g.n)
    if side == "column":
        return g.B.T @ expand(opponent_mix, g.m)
    raise ValueError("side must be 'row' or 'column'")


def best_value(g: BimatrixGame, side: str, opponent_mix) -> float:
    return float(pure_utilities(g, side, opponent_mix).max())


def br_partition(g: BimatrixGame, side: str) -> UEPP:
    """Best-response regions of one player as an upper-envelope partition
    of the opponent's reduced mixed-strategy simplex (labels = strategies)."""
    if side == "row":
        # m labels over column mixes in the (n-1)-simplex
        base = g.A[:, 0]
        return UEPP(g.A[:, 1:] - base[:, None], base)
    if side == "column":
        base = g.B[0, :]
        return UEPP(g.B[1:, :].T - base[:, None], base)
    raise ValueError("side must be 'row' or 'column'")


class StrongBrOracle:
    """Returns the full argmax set of pure best responses; one query each."""

    def __init__(self, uepp: UEPP, budget=None, record: bool = True):
        self.uepp = uepp
        self.log = QueryLog(budget=budget, record=record)

    def __call__(self, mix) -> set:
        mix = as_point(mix)
        self.log.charge(mix)
        labels = self.uepp.label_set(mix)
        self.log.amend_last_label(tuple(sorted(labels)))
        return labels


def br_oracle(game, side: str, kind: str = "adversarial", policy: str = "seeded",
              seed: int = 0, budget=None, record: bool = True):
    """Best-response query oracle for one player.

    ``game`` may be a BimatrixGame or a GuardedGame; construction reads the
    payoffs once (inside an allowed audit context) and the returned oracle
    never touches them again.
    """
    if isinstance(game, GuardedGame):
        with game.audit.allowed("oracle"):
            A, B = game.payoffs()
            raw = BimatrixGame(A, B)
    else:
        raw = game
    part = br_partition(raw, side)
    if kind == "strong":
        return StrongBrOracle(part, budget=budget, record=record)
    return Oracle(part, kind=kind, policy=policy, seed=seed, budget=budget, record=record)


def lower_bound_game(x: float, y: float) -> BimatrixGame:
    """The binary-action family whose unique equilibrium is (y, x)."""
    if not (0.0 < x < 1.0 and 0.0 < y < 1.0):
        raise ValueError("x, y must lie strictly inside (0, 1)")
    A = np.array([[x, x], [0.0, 1.0]])
    B = np.array([[0.0, y], [1.0, y]])
    return BimatrixGame(A, B)


@dataclass
class WsneCertificate:
    u: np.ndarray                 # reduced row mix
    v: np.ndarray                 # reduced column mix
    eps: float
    row_support: list
    col_support: list
    row_regrets: dict | None = None
    col_regrets: dict | None = None
    valid: bool | None = None
    queries_row: int = 0
    queries_col: int = 0
    grid_resolution: float | None = None

    def to_json(self) -> str:
        return json.dumps({
            "u": list(map(float, self.u)),
            "v": list(map(float, self.v)),
            "eps": self.eps,
            "row_support": self.row_support,
            "col_support": self.col_support,
            "row_regrets": self.row_regrets,
            "col_regrets": self.col_regrets,
            "valid": self.valid,
            "queries_row": self.queries_row,
            "queries_col": self.queries_col,
            "grid_resolution": self.grid_resolution,
        })


def _support_bits(dists: np.ndarray) -> np.ndarray:
    """Support bitmask of each row of full distributions: bit j is set when
    strategy j + 1 has mass above SUPPORT_MASS."""
    return ((dists > SUPPORT_MASS) << np.arange(dists.shape[1])).sum(axis=1)


def _mask_to_list(mask: int) -> list:
    """1-based positions of the set bits of a support mask."""
    return [i + 1 for i in range(mask.bit_length()) if mask >> i & 1]


def support_of(dist: np.ndarray) -> list:
    """1-based indices of strategies with mass above SUPPORT_MASS."""
    return _mask_to_list(int(_support_bits(np.reshape(dist, (1, -1)))[0]))


def supported_regrets(dist: np.ndarray, paying: np.ndarray) -> dict:
    """Regret of each supported strategy (1-based) against the best paying one."""
    best = paying.max()
    return {i: float(best - paying[i - 1]) for i in support_of(dist)}


def verify_wsne(g: BimatrixGame, u, v, eps: float) -> WsneCertificate:
    """Check the well-supported condition with full payoff knowledge."""
    ue = expand(u, g.m)
    ve = expand(v, g.n)
    if abs(ue.sum() - 1.0) > 1e-6 or abs(ve.sum() - 1.0) > 1e-6:
        raise ValueError("profile entries do not sum to one")
    row_regrets = supported_regrets(ue, g.A @ ve)
    col_regrets = supported_regrets(ve, g.B.T @ ue)
    ok = all(r <= eps + ETA for r in row_regrets.values()) and \
        all(r <= eps + ETA for r in col_regrets.values())
    return WsneCertificate(as_point(u), as_point(v), eps, list(row_regrets),
                           list(col_regrets), row_regrets, col_regrets, bool(ok))


@dataclass
class BrOracles:
    """Best-response oracles plus the dimensions the solver may know."""

    row: object
    column: object
    m: int
    n: int
    audit: PayoffAudit | None = None


def make_br_oracles(game: BimatrixGame, kind: str = "adversarial", policy: str = "seeded",
                    seed: int = 0, budget=None, record: bool = False) -> BrOracles:
    guarded = GuardedGame(game)
    row = br_oracle(guarded, "row", kind=kind, policy=policy, seed=seed,
                    budget=budget, record=record)
    col = br_oracle(guarded, "column", kind=kind, policy=policy, seed=seed + 1,
                    budget=budget, record=record)
    return BrOracles(row, col, game.m, game.n, guarded.audit)


def _single_label_labelling(dim: int, n_labels: int) -> EmpiricalLabelling:
    lab = EmpiricalLabelling(dim, n_labels)
    lab.add_block(corner_simplex_vertices(dim), 1)
    return lab


def _learn_partition(oracle, dim: int, labels: int, eps: float) -> EmpiricalLabelling:
    """Adversarial labelling of a best-response partition at accuracy eps.

    The face route pays off when faces are low-dimensional and its
    sub-accuracy stays desk scale; otherwise the dimension recursion is the
    workable path.
    """
    if labels == 1:
        return _single_label_labelling(dim, labels)
    k = math.comb(labels, 2)
    from .crgbs import cr_sub_eps
    if dim > k and (k == 1 or cr_sub_eps(dim, labels, eps) >= 1e-3):
        return cr_gbs(CrConfig(dim, labels, eps, oracle_kind="adversarial"), oracle)
    return cd_gbs_adversarial(GbsConfig(dim, labels, eps, oracle_kind="adversarial"), oracle)


def voronoi_label_masks(lab: EmpiricalLabelling, pts: np.ndarray, sigma: float) -> np.ndarray:
    """Bitmask per point of classes whose hull distance is within sigma of
    the minimum.  Bit (label-1) is set for every raw label in the class.

    Exact distances are only computed inside the band where they can affect
    the verdict; everywhere else cheap facet/sample bounds decide.  Points
    go in blocks of VORONOI_BLOCK rows, and each hull's facet offsets of a
    block serve both its lower bounds and its exact distances.
    """
    classes = [c for c in lab.merge_classes() if not lab.point_hull(c[0]).is_empty]
    hulls = [lab.point_hull(c[0]) for c in classes]
    bits = [sum(1 << (l - 1) for l in c) for c in classes]
    masks = np.empty(pts.shape[0], dtype=np.int64)
    for start in range(0, pts.shape[0], VORONOI_BLOCK):
        block = pts[start:start + VORONOI_BLOCK]
        offsets = [h.facet_offsets(block) for h in hulls]
        lbs = np.stack([h.lower_bounds(block, off) for h, off in zip(hulls, offsets)])
        dmin_ub = np.where((lbs <= 0.0).any(axis=0), 0.0, np.inf)
        loose = dmin_ub > 0.0
        if loose.any():
            sub = block[loose]
            best = dmin_ub[loose]
            for h in hulls:
                best = np.minimum(best, h.upper_bounds(sub))
            dmin_ub[loose] = best
        dists = np.full(lbs.shape, np.inf)
        for idx, (h, off) in enumerate(zip(hulls, offsets)):
            cand = lbs[idx] <= dmin_ub + sigma + ETA
            if cand.any():
                dists[idx, cand] = h.distances(block[cand], None if off is None else off[cand])
        masks[start:start + VORONOI_BLOCK] = voronoi_band_masks(dists, bits, sigma)
    return masks


def _support_masks(lattice: np.ndarray) -> np.ndarray:
    """Support bitmask of each lattice point's expanded distribution."""
    return _support_bits(np.hstack([1.0 - lattice.sum(axis=1, keepdims=True), lattice]))


def _group_firsts(keys: np.ndarray) -> np.ndarray:
    """Least row index of each group of equal rows of ``keys``, ascending."""
    order = np.lexsort(keys.T)    # stable: equal rows keep their index order
    ranked = keys[order]
    first = np.ones(order.size, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return np.sort(order[first])


def _first_fixed_point(supports: list, voronoi: list):
    """The lexicographically first profile, player 0 most significant, in
    which every player's support mask lies inside that player's Voronoi
    mask; None if there is none.

    ``supports[i]`` holds the support mask of each point of player i's
    lattice.  ``voronoi[i]`` holds player i's best-response mask at each
    point of the product of the other players' lattices, in player order
    with the first most significant.  Points of one player that share their
    support and their slices of the other players' tables are
    interchangeable, so a boolean tensor over each group's least index
    decides, and it picks the same profile as a scan of the full product.
    """
    n = len(supports)
    sizes = [len(s) for s in supports]
    tables = [np.reshape(voronoi[i], [sizes[j] for j in range(n) if j != i])
              for i in range(n)]
    firsts = []
    for i in range(n):
        keys = [supports[i][:, None]]
        for j in range(n):
            if j != i:
                axis = i if i < j else i - 1
                keys.append(np.moveaxis(tables[j], axis, 0).reshape(sizes[i], -1))
        firsts.append(_group_firsts(np.hstack(keys)))
    ok = np.ones([f.size for f in firsts], dtype=bool)
    for i in range(n):
        own = supports[i][firsts[i]].reshape((-1,) + (1,) * (n - 1))
        vor = tables[i][np.ix_(*[firsts[j] for j in range(n) if j != i])]
        ok &= np.moveaxis((own & ~vor) == 0, 0, i)
    hits = np.flatnonzero(ok)
    if not hits.size:
        return None
    return tuple(int(f[k]) for f, k in zip(firsts, np.unravel_index(hits[0], ok.shape)))


def _scan_steps(first: float) -> list:
    """The scan's lattice steps, coarsest first, each a step 1/K: about
    2^c times ``first`` for c = COARSE_ROUNDS..1, then ``first`` (itself a
    step 1/K) halved REFINE_ROUNDS - 1 times.  A step that rounds to one
    already listed (steps near 1) is scanned once."""
    steps = [unit_step(first * 2.0 ** c) for c in range(COARSE_ROUNDS, 0, -1)]
    steps += [first / 2.0 ** r for r in range(REFINE_ROUNDS)]
    return sorted(set(steps), reverse=True)


def solve_wsne(oracles: BrOracles, eps: float) -> WsneCertificate:
    """Compute an eps-WSNE from best-response queries alone.

    Learns both best-response partitions adversarially, then scans
    deterministic product lattices, coarsest first (`_scan_steps` of
    eps / STEP_DIVISOR rounded down to a step 1/K), for a profile whose
    supports lie inside slack Voronoi best-response sets.  The certificate
    is the lexicographically first such profile of the coarsest lattice
    that has one; ``grid_resolution`` is that lattice's step.  Raises
    RuntimeError naming the last step scanned when no lattice has one, and
    naming the cap and the step when a lattice would exceed LATTICE_CAP
    points.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    m, n = oracles.m, oracles.n
    dim_u, dim_v = m - 1, n - 1
    eps_r = eps / (2.0 * math.sqrt(max(n - 1, 1)))
    eps_c = eps / (2.0 * math.sqrt(max(m - 1, 1)))
    q0r, q0c = oracles.row.log.count, oracles.column.log.count
    # row best-response partition lives over column mixes, and vice versa
    row_lab = _learn_partition(oracles.row, dim_v, m, eps_r / 2.0)
    col_lab = _learn_partition(oracles.column, dim_u, n, eps_c / 2.0)

    sigma = eps / SLACK_DIVISOR
    # a step of 1/K keeps the pure profiles on the lattice
    for delta in _scan_steps(unit_step(eps / STEP_DIVISOR)):
        if max(lattice_count(dim_u, delta), lattice_count(dim_v, delta)) > LATTICE_CAP:
            raise RuntimeError(f"fixed point not found before the scan lattice at step "
                               f"{delta:g} exceeded the cap of {LATTICE_CAP} points")
        u_grid, v_grid = simplex_lattice(dim_u, delta), simplex_lattice(dim_v, delta)
        supp_u, supp_v = _support_masks(u_grid), _support_masks(v_grid)
        vor_col = voronoi_label_masks(col_lab, u_grid, sigma)   # column BRs to u
        vor_row = voronoi_label_masks(row_lab, v_grid, sigma)   # row BRs to v
        # the column player first: the first v, then the first u that fits it
        hit = _first_fixed_point([supp_v, supp_u], [vor_col, vor_row])
        if hit is not None:
            j, i = hit
            return WsneCertificate(
                u_grid[i].copy(), v_grid[j].copy(), eps,
                _mask_to_list(int(supp_u[i])), _mask_to_list(int(supp_v[j])),
                queries_row=oracles.row.log.count - q0r,
                queries_col=oracles.column.log.count - q0c,
                grid_resolution=delta)
    raise RuntimeError(f"fixed point not found at resolution {delta:g}")
