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
from dataclasses import dataclass

from .cdgbs import GbsConfig, _add_points, _learn, _lift, cd_gbs, cd_gbs_adversarial
from .geometry import enumerate_k_faces, face_map
from .partition import KINDS
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


@dataclass
class CrConfig:
    """``seed`` is passed to the fallback's `GbsConfig`; as there, only
    `fix_uncovered_critical`'s repair offsets read it."""

    m: int
    n: int
    eps: float
    oracle_kind: str = "lexicographic"
    seed: int = 0

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        if self.oracle_kind not in KINDS:
            raise ValueError(f"oracle_kind must be one of {KINDS}")
        self.k = math.comb(self.n, 2)
        self.sub_eps = cr_sub_eps(self.m, self.n, self.eps)


def cr_gbs(cfg: CrConfig, oracle) -> EmpiricalLabelling:
    """Learn an eps-close labelling face by face; ``stats`` rides along."""
    adversarial = cfg.oracle_kind == "adversarial"
    if cfg.m <= cfg.k:
        sub = GbsConfig(cfg.m, cfg.n, cfg.eps, oracle_kind=cfg.oracle_kind, seed=cfg.seed)
        lab = cd_gbs_adversarial(sub, oracle) if adversarial else cd_gbs(sub, oracle)
        lab.stats.fallback = True
        return lab

    faces = enumerate_k_faces(cfg.m, cfg.k)
    if len(faces) > MAX_FACES:
        raise ValueError("face count beyond the configured cap")

    def fill(lab, stats, query):
        for face, fmap in faces:
            before = query.log.count
            for v in face.vertex_coords():
                lab.add_query(v, query(v))
            if cfg.k >= 1:
                _add_points(lab, _lift(fmap.inverse, cfg.k, cfg.n, cfg.sub_eps, query,
                                       adversarial, stats, 1).points)
            stats.face_queries[face.vertex_subset] = query.log.count - before

    return _learn(cfg.m, cfg.n, oracle, adversarial, fill)


def assemble_from_faces(face_labellings: dict) -> EmpiricalLabelling:
    """Union of per-face labellings pulled back into the ambient simplex.

    Keys are Face objects, values labellings over the corner k-simplex.
    """
    if not face_labellings:
        raise ValueError("no face labellings")
    faces = list(face_labellings)
    m = faces[0].m
    n = max(l.n for l in face_labellings.values())
    out = EmpiricalLabelling(m, n)
    for face, lab_k in face_labellings.items():
        if face.m != m:
            raise ValueError("mixed ambient dimensions")
        if lab_k.m != face.dim:
            raise ValueError("labelling dimension does not match its face")
        inv = face_map(face).inverse
        blocks = {lbl: lab_k.points_of(lbl, merged=False) for lbl in range(1, lab_k.n + 1)}
        _add_points(out, {lbl: [inv(pts)] for lbl, pts in blocks.items() if len(pts)})
    return out
