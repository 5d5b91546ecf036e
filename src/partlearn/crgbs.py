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
"""

from __future__ import annotations

import math

from .cdgbs import GbsConfig, _add_points, _learn, _lift, cd_gbs, cd_gbs_adversarial
from .geometry import enumerate_k_faces
# interior_conflict stays bound here (the merge loop is cdgbs._learn's):
# perfbench's outside-in tracer patches every module binding of it
from .labelling import EmpiricalLabelling, interior_conflict  # noqa: F401

MAX_FACES = 100_000       # faces one run may enumerate


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

    def fill(lab, stats, query):
        for face, lift in faces:
            before = query.log.count
            for v in face.vertex_coords():
                lab.add_query(v, query(v))
            if cfg.k >= 1:
                _add_points(lab, _lift(lift, cfg.k, cfg.n, cfg.sub_eps, query, adversarial,
                                       stats, 1, cfg.seed).points)
            stats.face_queries[face.vertex_subset] = query.log.count - before

    return _learn(cfg.m, cfg.n, oracle, adversarial, fill)
