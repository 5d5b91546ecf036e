"""Bimatrix games: best-response oracles, the reduction to labellings, and
approximate well-supported equilibria.

Best-response regions of each player form upper-envelope partitions of the
opponent's mixed-strategy simplex, so learning them is a labelling problem
over reduced coordinates (first strategy's probability implicit).  The
solver learns both partitions through adversarial best-response queries
only, coarse first, and grid-searches each round's labellings for a profile
whose supports sit inside slack Voronoi best-response sets; a coarse round's
profile is accepted only when the learned hulls witness it (`witness_radius`).
Payoff access is gated by an audit so the query path provably never touches
utilities.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .cdgbs import GbsConfig, cd_gbs_adversarial
from .coverage import dataclass_json, lattice_count, simplex_lattice, unit_step
from .crgbs import CrConfig, cr_gbs
from .geometry import corner_simplex_vertices
from .labelling import EmpiricalLabelling, voronoi_band_masks
from .partition import UEPP, AnswerMemo, Oracle
from .predicates import ETA, as_point, row_sum

# The scan's fixed settings.  The scan tries its lattices coarsest first
# (`_scan_steps`): COARSE_ROUNDS steps of about 2^c times the base step, c =
# COARSE_ROUNDS..1, then the base step eps / STEP_DIVISOR (rounded down to a
# step 1/K) halved REFINE_ROUNDS - 1 times.  The step only makes a lattice
# fixed point exist; an accepted profile's regret bound rests on the learned
# accuracy and the Voronoi slack eps / SLACK_DIVISOR alone, so the first
# lattice with a fixed point serves.  Masking runs in blocks of VORONOI_BLOCK
# lattice rows, which bounds its facet-offset arrays whatever the lattice.
# `solve_wsne` learns the partitions in rounds, at LEARN_ROUNDS times the
# final accuracy, coarsest first; a coarse round's profile must pass the
# witness rule, whose radius WITNESS_MARGIN shrinks (`witness_radius`).
SUPPORT_MASS = 1e-9          # a strategy is in the support above this mass
STEP_DIVISOR = 8.0
SLACK_DIVISOR = 8.0
COARSE_ROUNDS = 2
REFINE_ROUNDS = 3
LEARN_ROUNDS = (4.0, 2.0, 1.0)
WITNESS_MARGIN = 1e3 * ETA
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


def full_mixes(rows: list, width: int, size: int) -> list:
    """Reduced mixes -> full distributions (first strategy implicit), in
    plain floats: the one definition of the mix checks.

    ``rows`` are lists of ``width`` floats each.  Raises ValueError, in this
    order, on a non-finite entry, on ``width != size - 1`` ("dimension
    mismatch"), and on any full entry below -1e-7 ("not a distribution").
    The first coordinate, ``1 - sum(row)`` with numpy's summation
    (`row_sum`), is clamped at 0: what lies within 1e-7 below is rounding.
    """
    if not all(math.isfinite(v) for row in rows for v in row):
        raise ValueError("point has non-finite entries")
    if width != size - 1:
        raise ValueError("dimension mismatch")
    full = [[1.0 - row_sum(row)] + row for row in rows]
    if any(v < -1e-7 for f in full for v in f):
        raise ValueError("not a distribution")
    for f in full:
        if f[0] < 0.0:
            f[0] = 0.0
    return full


def expand(mix, size: int) -> np.ndarray:
    """Reduced coordinates -> full distribution (first strategy implicit),
    with the checks of `full_mixes`.  A 2-D array holds one reduced mix per
    row and expands row by row; any other shape is read as one point, as
    `as_point` reads it."""
    mix = np.asarray(mix, dtype=float)
    if mix.ndim not in (1, 2):
        mix = mix.reshape(-1)
    rows = mix.tolist() if mix.ndim == 2 else [mix.tolist()]
    return np.array(full_mixes(rows, mix.shape[-1], size)).reshape(mix.shape[:-1] + (size,))


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
    return Oracle(br_partition(raw, side), kind=kind, policy=policy, seed=seed, budget=budget,
                  record=record)


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
    # the accepting round's learning accuracies, and each supported
    # strategy's hull distance (`witness_distances`) against its side's
    # `witness_radius`
    accuracy_row: float | None = None
    accuracy_col: float | None = None
    row_witness: dict | None = None
    col_witness: dict | None = None
    row_witness_radius: float | None = None
    col_witness_radius: float | None = None

    def to_json(self) -> str:
        return dataclass_json(self)


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
    """Best-response oracles (each in its `AnswerMemo`) plus the dimensions
    the solver may know."""

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
    return BrOracles(AnswerMemo(row), AnswerMemo(col), game.m, game.n, guarded.audit)


def _single_label_labelling(dim: int, n_labels: int) -> EmpiricalLabelling:
    lab = EmpiricalLabelling(dim, n_labels)
    lab.add_block(corner_simplex_vertices(dim), 1)
    return lab


def _learn_partition(oracle, dim: int, labels: int, eps: float) -> EmpiricalLabelling:
    """Adversarial labelling of a best-response partition at accuracy eps.

    Two labels take the face route, whose faces are 1-D binary searches.
    More labels take the dimension recursion: their faces would have
    dimension 2 or more (the route needs dim > C(labels, 2)), and no game
    panel has measured the face route there yet.
    """
    if labels == 1:
        return _single_label_labelling(dim, labels)
    if labels == 2 and dim > 1:
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


def witness_radius(eps: float, dim: int) -> float:
    """How near the opponent's mix every supported strategy's hull must lie
    for the witness rule to prove a profile an eps-WSNE.

    Let H_j be the hull of the points the oracle answered j, over the
    opponent's reduced mixes in ``dim`` coordinates.  Each such point lies
    in j's best-response cell widened by the oracle's tie band ETA, an
    intersection of halfspaces and so convex; so j's regret is at most ETA
    on all of H_j, however coarse the labelling.  Every strategy's utility
    is 1-Lipschitz in the l1 norm of reduced coordinates (criterion 7), so
    a regret (the best utility minus j's) is 2-Lipschitz in l1 and
    2 sqrt(dim)-Lipschitz in l2.  So j's regret at a mix x is at most
    ETA + 2 sqrt(dim) dist(x, H_j), which is at most eps once
    dist(x, H_j) <= eps / (2 sqrt(dim)) less a margin.  The stored points
    are the asked points as given, so H_j is their hull; WITNESS_MARGIN
    (1e3 ETA) covers, with room to spare, the tie band and the ETA to which
    `PointHull` distances are exact.
    """
    return eps / (2.0 * math.sqrt(max(dim, 1))) - WITNESS_MARGIN


def witness_distances(lab: EmpiricalLabelling, mix, support: list) -> dict:
    """Distance from the opponent's ``mix`` to the hull of the points
    answered j (`EmpiricalLabelling.label_hull`, merges aside: a merged
    class's hull may reach beyond j's cell), for each strategy j of
    ``support``; inf for a strategy never answered."""
    x = as_point(mix)[None, :]
    return {j: float(lab.label_hull(j).distances(x)[0]) for j in support}


def _fitting_masks(lab: EmpiricalLabelling, grid: np.ndarray, supports: np.ndarray,
                   other: np.ndarray, sigma: float) -> np.ndarray:
    """`voronoi_label_masks` of the lattice points whose support lies
    inside some mask of ``other`` (the opponent's masks over its lattice),
    and 0 elsewhere.  A point whose support fits no opponent mask is in no
    fixed point whatever its own mask, so the scan's first fixed point is
    the one the full masks give."""
    fits = np.zeros(len(grid), dtype=bool)
    for mask in np.unique(other):
        fits |= (supports & ~mask) == 0
    masks = np.zeros(len(grid), dtype=np.int64)
    masks[fits] = voronoi_label_masks(lab, grid[fits], sigma)
    return masks


def _scan(row_lab: EmpiricalLabelling, col_lab: EmpiricalLabelling, dim_u: int, dim_v: int,
          steps: list, sigma: float):
    """The scan's candidate: (u, v, u's support, v's support, step) of the
    lexicographically first fixed point of the first lattice of ``steps``
    that has one, or None.  Raises RuntimeError naming the cap and the step
    when a lattice would exceed LATTICE_CAP points."""
    for delta in steps:
        if max(lattice_count(dim_u, delta), lattice_count(dim_v, delta)) > LATTICE_CAP:
            raise RuntimeError(f"fixed point not found before the scan lattice at step "
                               f"{delta:g} exceeded the cap of {LATTICE_CAP} points")
        u_grid, v_grid = simplex_lattice(dim_u, delta), simplex_lattice(dim_v, delta)
        supp_u, supp_v = _support_masks(u_grid), _support_masks(v_grid)
        # column BRs to u and row BRs to v; the larger lattice is masked
        # only where its support fits some mask of the smaller one
        if len(u_grid) >= len(v_grid):
            vor_row = voronoi_label_masks(row_lab, v_grid, sigma)
            vor_col = _fitting_masks(col_lab, u_grid, supp_u, vor_row, sigma)
        else:
            vor_col = voronoi_label_masks(col_lab, u_grid, sigma)
            vor_row = _fitting_masks(row_lab, v_grid, supp_v, vor_col, sigma)
        # the column player first: the first v, then the first u that fits it
        hit = _first_fixed_point([supp_v, supp_u], [vor_col, vor_row])
        if hit is not None:
            j, i = hit
            return (u_grid[i].copy(), v_grid[j].copy(), _mask_to_list(int(supp_u[i])),
                    _mask_to_list(int(supp_v[j])), delta)
    return None


def solve_wsne(oracles: BrOracles, eps: float) -> WsneCertificate:
    """Compute an eps-WSNE from best-response queries alone.

    Learns both best-response partitions adversarially in rounds, at
    LEARN_ROUNDS times the final accuracies ``eps_r / 2`` and ``eps_c / 2``
    (``eps_r = eps / (2 sqrt(n - 1))``, ``eps_c = eps / (2 sqrt(m - 1))``),
    coarsest first.  Each round scans deterministic product lattices,
    coarsest first (`_scan_steps` of eps / STEP_DIVISOR rounded down to a
    step 1/K), for a profile whose supports lie inside slack Voronoi
    best-response sets, and takes the lexicographically first such profile
    of the coarsest lattice that has one.

    A coarse round returns its profile only when the witness rule accepts
    it: every supported strategy's hull (`witness_distances`) lies within
    `witness_radius` of the opponent's mix, which proves the profile an
    eps-WSNE whatever the labellings' accuracy.  A coarse round scans only
    the lattices within LATTICE_CAP points; one with no fixed point there,
    or whose profile fails the rule, moves on.  The final round
    returns its profile with no witness requirement, so it asks the points
    and returns the certificate of a single round at the final accuracy
    (the oracle may answer a tie point as it did in an earlier round).
    Every answer is kept across rounds (`AnswerMemo`), so a later round
    pays only for points no earlier round asked.

    The certificate records the accepting round's accuracies and the
    supported hulls' distances against the witness radii;
    ``grid_resolution`` is the step of the lattice the profile lies on.
    Raises RuntimeError naming the last step scanned when the final round
    finds no fixed point, and naming the cap and the step when the final
    round reaches a lattice that would exceed LATTICE_CAP points.
    """
    if not 0 < eps < math.inf:
        raise ValueError("eps must be positive and finite")
    m, n = oracles.m, oracles.n
    dim_u, dim_v = m - 1, n - 1
    eps_r = eps / (2.0 * math.sqrt(max(n - 1, 1)))
    eps_c = eps / (2.0 * math.sqrt(max(m - 1, 1)))
    radius_row, radius_col = witness_radius(eps, dim_v), witness_radius(eps, dim_u)
    q0r, q0c = oracles.row.log.count, oracles.column.log.count
    # a step of 1/K keeps the pure profiles on the lattice
    steps = _scan_steps(unit_step(eps / STEP_DIVISOR))
    # a coarse round skips the lattices past the cap, where `_scan` raises: a
    # later round's labellings may have a fixed point on a coarser lattice
    under_cap = [delta for delta in steps
                 if max(lattice_count(dim_u, delta), lattice_count(dim_v, delta)) <= LATTICE_CAP]
    for factor in LEARN_ROUNDS:
        acc_r, acc_c = factor * eps_r / 2.0, factor * eps_c / 2.0
        # row best-response partition lives over column mixes, and vice versa
        row_lab = _learn_partition(oracles.row, dim_v, m, acc_r)
        col_lab = _learn_partition(oracles.column, dim_u, n, acc_c)
        final = factor == LEARN_ROUNDS[-1]
        hit = _scan(row_lab, col_lab, dim_u, dim_v, steps if final else under_cap,
                    eps / SLACK_DIVISOR)
        if hit is None:
            continue
        u, v, row_support, col_support, delta = hit
        row_witness = witness_distances(row_lab, v, row_support)
        col_witness = witness_distances(col_lab, u, col_support)
        witnessed = max(row_witness.values()) <= radius_row and \
            max(col_witness.values()) <= radius_col
        if witnessed or final:
            return WsneCertificate(
                u, v, eps, row_support, col_support,
                queries_row=oracles.row.log.count - q0r,
                queries_col=oracles.column.log.count - q0c,
                grid_resolution=delta, accuracy_row=acc_r, accuracy_col=acc_c,
                row_witness=row_witness, col_witness=col_witness,
                row_witness_radius=radius_row, col_witness_radius=radius_col)
    raise RuntimeError(f"fixed point not found at resolution {steps[-1]:g}")
