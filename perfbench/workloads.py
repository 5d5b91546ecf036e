"""Workload panels and the per-instance runner of the partlearn benchmark.

A workload is a family of instances.  Each run works through a *panel* of
instances in whole passes, so every pass has the same mix and the spread
from run to run reflects the program, not which instances a run drew.

Every panel is committed: the first instances of the family's generator
at a fixed ``base_seed``.  A fresh draw per seed would move the end-to-end
metrics by more than any useful bound.  ``bimatrix-4x3`` and
``learn-uepp`` costs are heavy-tailed (a 4x3 game takes 0.6 to 7 s and 2k
to 45k queries) and a run holds only a handful; even a jitter of 0.2% on
the payoffs moved ``queries.max`` by several percent.  ``multiplayer-3p``
games take either about 0.28 s or about 0.38 s, and the tail percentile
of a 24-game draw sits where the two groups meet, so it followed the share
of slow games in the draw.

The seed fixes the visit order and every oracle's tie-break seed.  An
instance is timed from oracle construction to the end of its independent
verification; games and partitions are built before the timer starts.

Library functions are always called through their module attribute
(``bimatrix.solve_wsne``), so the outside-in tracer reaches them.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from dataclasses import dataclass

import numpy as np

from partlearn import bimatrix, cdgbs, crgbs, labelling, multiplayer, partition


@dataclass(frozen=True)
class Workload:
    name: str
    panel_size: int      # instances per pass
    pass_s: float        # nominal pass time on the reference box (2-core Xeon)


# Why each workload exists, and its traced baseline: perfbench/README.md.
WORKLOADS = {
    w.name: w for w in (
        Workload("bimatrix-4x3", 4, 11.5),
        Workload("learn-uepp", 16, 9.0),
        Workload("multiplayer-3p", 24, 8.0),
    )
}

BASE_SEED = 1            # committed panels; the criterion-8 generator for bimatrix-4x3

BIMATRIX_EPS = 0.1
CD_EPS = 0.05
CR_EPS = 0.15
MULTI_EPS = 0.1


@dataclass(frozen=True)
class Instance:
    index: int           # position in the panel's base order
    kind: str            # bimatrix | cdgbs | crgbs | multiplayer
    data: object         # BimatrixGame, UEPP or NormalFormGame
    eps: float
    oracle_seed: int


@dataclass
class Outcome:
    instance: int
    kind: str
    queries: int
    seconds: float
    cpu_seconds: float
    ok: bool
    certificate: str     # digest of the verified output
    error: str | None = None
    ref_seconds: float = 0.0   # ``seconds`` at the reference speed (run.py)

    def record(self) -> dict:
        return {"instance": self.instance, "kind": self.kind, "queries": self.queries,
                "seconds": self.seconds, "ref_seconds": self.ref_seconds,
                "cpu_seconds": self.cpu_seconds, "ok": self.ok,
                "certificate": self.certificate, "error": self.error}


def passes_for(name: str, seconds: float) -> int:
    """Whole passes that fill about ``seconds`` at the nominal pass time,
    and at least three, so an instance's median time shrugs off one slow
    pass.

    Fixed by the arguments alone, so a faster program does the same work
    in less time and every run has the same instance mix."""
    return max(3, round(seconds / WORKLOADS[name].pass_s))


def make_panel(name: str, seed: int, base_seed: int = BASE_SEED) -> list:
    """The instances one pass visits, in visit order."""
    size = WORKLOADS[name].panel_size
    rng = np.random.default_rng([seed, 7])
    base = np.random.default_rng(base_seed)
    out = []
    for k in range(size):
        oracle_seed = int(rng.integers(2 ** 31))
        if name == "bimatrix-4x3":
            game = bimatrix.BimatrixGame(base.random((4, 3)), base.random((4, 3)))
            out.append(Instance(k, "bimatrix", game, BIMATRIX_EPS, oracle_seed))
        elif name == "learn-uepp":
            cd = k % 2 == 0
            u = partition.random_uepp(3 if cd else 4, 4 if cd else 2,
                                      seed=int(base.integers(2 ** 31)))
            out.append(Instance(k, "cdgbs" if cd else "crgbs", u,
                                CD_EPS if cd else CR_EPS, oracle_seed))
        elif name == "multiplayer-3p":
            game = multiplayer.NormalFormGame(3, 2, base.random((3, 2, 2, 2)))
            out.append(Instance(k, "multiplayer", game, MULTI_EPS, oracle_seed))
        else:
            raise KeyError(name)
    order = rng.permutation(size)
    return [out[i] for i in order]


def warm_up() -> None:
    """First-call lazy set-up: one tiny instance of every kind, so module
    caches, Qhull and the BLAS are loaded before anything is timed."""
    game = bimatrix.lower_bound_game(0.3, 0.7)
    for inst in (Instance(0, "bimatrix", game, 0.1, 0),
                 Instance(0, "cdgbs", partition.random_uepp(2, 2, seed=0), 0.3, 0),
                 Instance(0, "crgbs", partition.random_uepp(3, 2, seed=0), 0.5, 0),
                 Instance(0, "multiplayer", multiplayer.random_game(3, 2, seed=0), 0.5, 0)):
        out = run_instance(inst)
        if not out.ok:
            raise RuntimeError(f"warm-up {inst.kind} instance failed: {out.error}")


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _solve_bimatrix(inst: Instance):
    g = inst.data
    oracles = bimatrix.make_br_oracles(g, seed=inst.oracle_seed)
    cert = bimatrix.solve_wsne(oracles, inst.eps)
    check = bimatrix.verify_wsne(g, cert.u, cert.v, inst.eps)
    audit = oracles.audit
    audit_ok = audit.clean and set(audit.purposes) <= {"oracle"}
    queries = oracles.row.log.count + oracles.column.log.count
    digest = _digest({"u": cert.u.tolist(), "v": cert.v.tolist(), "rs": cert.row_support,
                      "cs": cert.col_support, "grid": cert.grid_resolution})
    why = None if check.valid else f"regrets {check.row_regrets} {check.col_regrets}"
    if not audit_ok:
        why = f"payoff audit: {audit.violations} violations, purposes {sorted(set(audit.purposes))}"
    return queries, check.valid and audit_ok, digest, why


def _learn(inst: Instance):
    u = inst.data
    if inst.kind == "cdgbs":
        oracle = partition.make_oracle(u, kind="lexicographic", seed=inst.oracle_seed,
                                       record=False)
        lab = cdgbs.cd_gbs(cdgbs.GbsConfig(u.m, u.n, inst.eps, seed=inst.oracle_seed), oracle)
    else:
        oracle = partition.make_oracle(u, kind="adversarial", policy="seeded",
                                       seed=inst.oracle_seed, record=False)
        lab = crgbs.cr_gbs(crgbs.CrConfig(u.m, u.n, inst.eps, oracle_kind="adversarial",
                                          seed=inst.oracle_seed), oracle)
    report = labelling.is_eps_close(lab, None, inst.eps)
    mislabelled = _mislabelled(lab, u)
    digest = _digest({"lab": lab.to_json(), "close": report.is_close})
    why = None
    if not report.is_close:
        why = f"not eps-close, witness {report.witness}"
    elif mislabelled:
        why = f"{mislabelled} stored points disagree with the ground truth"
    return oracle.log.count, report.is_close and not mislabelled, digest, why


def _mislabelled(lab, u, tol: float = 1e-7) -> int:
    """Stored points whose merged class holds none of the labels the UEPP
    gives them (``is_eps_close`` checks coverage only, not the labels)."""
    bad = 0
    for lbl in range(1, lab.n + 1):
        pts = lab.points_of(lbl, merged=False)
        if not len(pts):
            continue
        vals = pts @ u.A.T + u.b
        members = [k - 1 for k in range(1, lab.n + 1) if lab.find(k) == lab.find(lbl)]
        bad += int(np.sum(vals[:, members].max(axis=1) < vals.max(axis=1) - tol))
    return bad


def _solve_multiplayer(inst: Instance):
    g = inst.data
    oracles, audit = multiplayer.make_multi_oracles(g, seed=inst.oracle_seed)
    labs, _net = multiplayer.learn_multiplayer_labellings(oracles, inst.eps)
    queries = sum(o.log.count for o in oracles)
    cert = multiplayer.solve_wsne_multiplayer(labs, g, inst.eps, queries=queries)
    check = multiplayer.verify_wsne_multiplayer(g, cert.profile, inst.eps)
    digest = _digest({"profile": [x.tolist() for x in cert.profile],
                      "supports": cert.supports, "grid": cert.grid_resolution})
    why = None if check.valid else f"regrets {check.regrets}"
    if not audit.clean:
        why = f"payoff audit: {audit.violations} violations"
    return queries, check.valid and audit.clean, digest, why


_RUNNERS = {"bimatrix": _solve_bimatrix, "cdgbs": _learn, "crgbs": _learn,
            "multiplayer": _solve_multiplayer}


def run_instance(inst: Instance) -> Outcome:
    """Solve or learn one instance and check it with the full-information
    verifier.  Any exception is a failed instance that keeps its cause."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        queries, ok, digest, why = _RUNNERS[inst.kind](inst)
    except Exception as exc:   # the benchmark must keep running and report the cause
        tb = traceback.extract_tb(exc.__traceback__)
        where = f" at {tb[-1].name}:{tb[-1].lineno}" if tb else ""
        return Outcome(inst.index, inst.kind, -1, time.perf_counter() - t0,
                       time.process_time() - c0, False, "",
                       f"{type(exc).__name__}: {exc}{where}")
    return Outcome(inst.index, inst.kind, queries, time.perf_counter() - t0,
                   time.process_time() - c0, bool(ok), digest, why)
