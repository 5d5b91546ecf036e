"""Constant-region generalised binary search: learn along low-dimensional
faces of the simplex and assemble by convex hulls.

With n regions, every cell vertex lies on a face of dimension C(n, 2), so
learning all such faces with the constant-dimension search and pulling the
points back recovers the partition.  Each face run is prefixed with direct
queries at the face's vertices, which the assembly argument needs and the
plain recursive search does not guarantee; the run's answer memo charges
each simplex vertex once.  When the ambient dimension does not exceed
C(n, 2) the face route buys nothing and the constant-dimension search runs
directly.

The faces are learned in two rounds through that one memo.  The first
learns them at FIRST_ROUND * eps and returns its labelling when
`is_eps_close` proves it eps-close; this departs from the paper, whose
a-priori assembly argument needs the faces at `cr_sub_eps`.  Otherwise the
last round learns them at `cr_sub_eps` and returns its labelling as the
paper does, with no end check.  A round pays only for the points the memo
has not answered, so with 1-D faces, whose coarse bisection points are a
subset of the fine ones, a fallback asks what one round at `cr_sub_eps`
asks.
"""

from __future__ import annotations

import math

from .cdgbs import GbsConfig, RunStats, _add_points, _learn, cd_gbs, cd_gbs_adversarial
from .geometry import enumerate_k_faces
# interior_conflict stays bound here though the merge loop is cdgbs._learn's:
# perfbench's tracer test reads crgbs.interior_conflict by name
from .labelling import EmpiricalLabelling, interior_conflict, is_eps_close  # noqa: F401
from .partition import AnswerMemo

MAX_FACES = 100_000       # faces one run may enumerate
# The first face round's accuracy, in units of the run's eps.  Measured on
# learn-uepp's n = 2 instances: at 1 the hulls lose the margin the two-hull
# facet cut of the end check needs, and each check takes 6-9x longer; at
# 1/4 the faces ask 2% more queries in the same time.
FIRST_ROUND = 0.5


def cr_sub_eps(m: int, n: int, eps: float) -> float:
    k = math.comb(n, 2)
    return 3.0 * eps / (100.0 * n * n * math.sqrt(k + 1.0) * (m + 1.0) ** 2.5)


def gamma_capture(m: int, n: int, eps: float) -> float:
    """Margin at which cell interiors are provably labelled after assembly."""
    return 3.0 * eps / (40.0 * n * n * (m + 1.0) ** 2.5)


class CrConfig(GbsConfig):
    """A `GbsConfig` with the face dimension ``k`` and the faces' accuracy
    ``sub_eps``; the fallback runs the constant-dimension search on it."""

    def __post_init__(self):
        super().__post_init__()
        self.k = math.comb(self.n, 2)
        self.sub_eps = cr_sub_eps(self.m, self.n, self.eps)


def cr_gbs(cfg: CrConfig, oracle) -> EmpiricalLabelling:
    """Learn an eps-close labelling face by face; ``stats`` rides along."""
    adversarial = cfg.oracle_kind == "adversarial"
    if cfg.m <= cfg.k:
        lab = cd_gbs_adversarial(cfg, oracle) if adversarial else cd_gbs(cfg, oracle)
        lab.stats.fallback = True
        return lab

    if math.comb(cfg.m + 1, cfg.k + 1) > MAX_FACES:
        raise ValueError("face count beyond the configured cap")
    faces = enumerate_k_faces(cfg.m, cfg.k)
    memo = oracle if isinstance(oracle, AnswerMemo) else AnswerMemo(oracle)

    def faces_at(face_eps):
        def fill(lab, run, query):
            for face, lift in faces:
                before = query.log.count
                for v in face.vertex_coords():
                    lab.add_query(v, query(v))
                if cfg.k >= 1:
                    _add_points(lab, run.lift(lift, cfg.k, face_eps, query, 1).points)
                run.stats.face_queries[face.vertex_subset] = query.log.count - before
        return fill

    earlier = RunStats()
    for face_eps in (FIRST_ROUND * cfg.eps, cfg.sub_eps):
        lab = _learn(cfg, memo, adversarial, faces_at(face_eps))
        lab.stats.add_work(earlier)
        if face_eps == cfg.sub_eps or is_eps_close(lab, None, cfg.eps).is_close:
            break
        earlier = lab.stats
    lab.stats.face_eps = face_eps
    return lab
