"""Batch driver: instance generation, learning runs, solving, benchmarks.

Exit codes: 0 success, 2 invalid input, 3 query budget exhausted, 4 search
failure, 5 the coverage verifier's cell cap exceeded.  Every command is
deterministic given its inputs and seed; wall times are the only
nondeterministic outputs.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time

import numpy as np

from . import __version__
from .bimatrix import BimatrixGame, lower_bound_game, make_br_oracles, solve_wsne, verify_wsne
from .cdgbs import GbsConfig, cd_gbs, cd_gbs_adversarial
from .coverage import CellCapError
from .crgbs import CrConfig, cr_gbs
from .labelling import is_eps_close, slabs_to_verify
from .multiplayer import (NormalFormGame, learn_multiplayer_labellings, make_multi_oracles,
                          random_game, solve_wsne_multiplayer, verify_wsne_multiplayer)
from .partition import POLICIES, QueryBudgetError, UEPP, make_oracle, random_uepp

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_SEARCH = 4
EXIT_CELL_CAP = 5

ORACLE_KINDS = {"lex": "lexicographic", "adv": "adversarial"}


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _load_instance(path: str):
    """(kind, instance) of an instance file; its keys pick the format's parser."""
    with open(path) as fh:
        text = fh.read()
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("unrecognised instance file")
    if "A" in data and "b" in data:
        kind, parse = "uepp", UEPP.from_json
    elif "A" in data and "B" in data:
        kind, parse = "bimatrix", BimatrixGame.from_json
    elif "u" in data and "k" in data:
        kind, parse = "multiplayer", NormalFormGame.from_json
    else:
        raise ValueError("unrecognised instance file")
    try:
        return kind, parse(text)
    except KeyError as exc:
        raise ValueError(f"{kind} instance file lacks the key {exc}") from None


def cmd_gen(args) -> int:
    if args.kind == "uepp":
        inst = random_uepp(args.m, args.n, seed=args.seed,
                           duplicate_rows=args.duplicate_rows, empty_cells=args.empty_cells)
        text = inst.to_json()
    elif args.kind == "bimatrix":
        rng = np.random.default_rng(args.seed)
        game = BimatrixGame(rng.random((args.m, args.n)), rng.random((args.m, args.n)))
        text = game.to_json()
    elif args.kind == "lbgame":
        game = lower_bound_game(args.x, args.y)
        text = game.to_json()
    elif args.kind == "multiplayer":
        game = random_game(args.players, args.k, seed=args.seed)
        text = game.to_json()
    else:
        raise ValueError("unknown kind")
    _write(args.out, text)
    print(f"wrote {args.out} sha256:{_digest(args.out)}")
    return EXIT_OK


def _learn_uepp(inst: UEPP, eps: float, algo: str = "cdgbs", oracle_kind: str = "lexicographic",
                policy: str = "seeded", seed: int = 0, budget=None):
    """Learn a UEPP with cd_gbs or cr_gbs and certify the labelling on the
    whole simplex: (labelling, queries, `is_eps_close` report)."""
    oracle = make_oracle(inst, kind=oracle_kind, policy=policy, seed=seed, budget=budget,
                         record=False)
    if algo == "cdgbs":
        cfg = GbsConfig(inst.m, inst.n, eps, oracle_kind=oracle_kind, seed=seed)
        lab = cd_gbs_adversarial(cfg, oracle) if oracle_kind == "adversarial" else cd_gbs(cfg, oracle)
    else:
        lab = cr_gbs(CrConfig(inst.m, inst.n, eps, oracle_kind=oracle_kind, seed=seed), oracle)
    return lab, oracle.log.count, is_eps_close(lab, None, eps)


def _solve_game(kind: str, game, eps: float, oracle_kind: str = "adversarial",
                policy: str = "seeded", seed: int = 0, budget=None):
    """Solve a bimatrix or multiplayer game from best-response queries and
    fill the certificate's regrets and verdict: (certificate, queries,
    whether the payoff audit stayed clean)."""
    if kind == "bimatrix":
        oracles = make_br_oracles(game, kind=oracle_kind, policy=policy, seed=seed, budget=budget)
        cert = solve_wsne(oracles, eps)
        check = verify_wsne(game, cert.u, cert.v, eps)
        cert.row_regrets, cert.col_regrets = check.row_regrets, check.col_regrets
        queries, audit = cert.queries_row + cert.queries_col, oracles.audit
    else:
        oracles, audit = make_multi_oracles(game, kind=oracle_kind, policy=policy, seed=seed,
                                            budget=budget)
        labs, _net = learn_multiplayer_labellings(oracles, eps)
        queries = sum(o.log.count for o in oracles)
        cert = solve_wsne_multiplayer(labs, game, eps, queries=queries)
        check = verify_wsne_multiplayer(game, cert.profile, eps)
        cert.regrets = check.regrets
    cert.valid = check.valid
    return cert, queries, audit.clean


def cmd_learn(args) -> int:
    kind, inst = _load_instance(args.instance)
    if kind != "uepp":
        raise ValueError("learn expects a UEPP instance; use solve for games")
    t0 = time.perf_counter()
    lab, queries, report = _learn_uepp(inst, args.eps, args.algo, ORACLE_KINDS[args.oracle],
                                       args.policy, args.seed, args.budget)
    manifest = {
        "version": __version__,
        "command": "learn",
        "algo": args.algo,
        "oracle": args.oracle,
        "policy": args.policy,
        "eps": args.eps,
        "seed": args.seed,
        "instance": _digest(args.instance),
        "queries": queries,
        "depth_queries": lab.stats.depth_queries,
        "seeded_queries": lab.stats.seeded,
        "inferred_answers": lab.stats.inferred,
        "face_eps": lab.stats.face_eps,
        "per_level_uncovered": lab.stats.per_level_uncovered if args.algo == "cdgbs" else [],
        "merges": [list(m) for m in lab.stats.merges],
        "eps_close": bool(report.is_close),
        "certified_slabs": len(lab.certified_slabs.slabs) if lab.certified_slabs else 0,
        "verified_slabs": len(slabs_to_verify(lab, None, args.eps)),
        "wall_ms": (time.perf_counter() - t0) * 1e3,
    }
    if args.out:
        _write(args.out, lab.to_json())
        _write(args.out + ".manifest.json", json.dumps(manifest, indent=1))
    print(json.dumps({k: manifest[k] for k in
                      ("queries", "eps_close", "merges", "per_level_uncovered")}))
    return EXIT_OK if report.is_close else EXIT_SEARCH


def cmd_solve(args) -> int:
    kind, inst = _load_instance(args.instance)
    if kind == "uepp":
        raise ValueError("solve expects a game instance")
    t0 = time.perf_counter()
    cert, queries, audit_clean = _solve_game(kind, inst, args.eps, ORACLE_KINDS[args.oracle],
                                             args.policy, args.seed, args.budget)
    payload = json.loads(cert.to_json())
    payload.update({"version": __version__, "seed": args.seed, "queries": queries,
                    "audit_clean": audit_clean, "wall_ms": (time.perf_counter() - t0) * 1e3})
    if args.out:
        _write(args.out, json.dumps(payload, indent=1))
    print(json.dumps({"valid": cert.valid, "queries": queries, "audit_clean": audit_clean}))
    if not audit_clean:
        return EXIT_INVALID
    return EXIT_OK if cert.valid else EXIT_SEARCH


def _bench_instance(family: str, seed: int, args):
    """(kind, instance) of the family's generator at this seed."""
    rng = np.random.default_rng(seed)
    if family == "lbgame":
        x, y = rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95)
        return "bimatrix", lower_bound_game(float(x), float(y))
    if family == "bimatrix":
        return "bimatrix", BimatrixGame(rng.random((args.m, args.n)), rng.random((args.m, args.n)))
    if family == "uepp":
        return "uepp", random_uepp(args.m, args.n, seed=seed)
    return "multiplayer", random_game(args.players, args.k, seed=seed)


def cmd_bench(args) -> int:
    eps_list = [float(e) for e in args.eps_list.split(",")] if args.eps_list else []
    seeds = [int(s) for s in args.seeds.split(",")] if args.seeds else []
    # an instance that cannot be generated is invalid input, not a failed row
    instances = {seed: _bench_instance(args.family, seed, args) for seed in seeds}
    rows = []
    any_ok = False
    for eps in eps_list:
        for seed in seeds:
            kind, inst = instances[seed]
            m, n = (inst.n, inst.k) if kind == "multiplayer" else (inst.m, inst.n)
            row = {"family": args.family, "m": m, "n": n, "eps": eps, "seed": seed}
            t0 = time.perf_counter()
            try:
                if kind == "uepp":
                    _lab, queries, report = _learn_uepp(inst, eps, seed=seed)
                    ok = report.is_close
                else:
                    cert, queries, _audit_clean = _solve_game(kind, inst, eps, seed=seed)
                    ok = cert.valid
                row.update(queries=queries, wall_ms=(time.perf_counter() - t0) * 1e3,
                           verified=bool(ok))
                any_ok = True
            except Exception as exc:   # per-row failures are recorded, not fatal
                row.update(queries=-1, wall_ms=-1.0, verified=False,
                           error=f"{type(exc).__name__}: {exc}")
            rows.append(row)
    header = ["family", "m", "n", "eps", "seed", "queries", "wall_ms", "verified", "error"]
    out = args.out or "bench.csv"
    with open(out, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=header)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    print(f"wrote {out} ({len(rows)} rows)")
    if rows and not any_ok:
        return EXIT_SEARCH
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="partlearn",
                                description="learn polytope partitions; compute approximate equilibria")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate an instance file")
    g.add_argument("--kind", required=True, choices=["uepp", "bimatrix", "lbgame", "multiplayer"])
    g.add_argument("--m", type=int, default=2)
    g.add_argument("--n", type=int, default=3)
    g.add_argument("--players", type=int, default=3)
    g.add_argument("--k", type=int, default=2)
    g.add_argument("--x", type=float, default=0.5)
    g.add_argument("--y", type=float, default=0.5)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--duplicate-rows", type=int, default=0)
    g.add_argument("--empty-cells", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen)

    l = sub.add_parser("learn", help="learn a labelling of a UEPP instance")
    l.add_argument("--instance", required=True)
    l.add_argument("--algo", default="cdgbs", choices=["cdgbs", "crgbs"])
    l.add_argument("--oracle", default="lex", choices=["lex", "adv"])
    l.add_argument("--policy", default="seeded", choices=POLICIES)
    l.add_argument("--eps", type=float, required=True)
    l.add_argument("--seed", type=int, default=0)
    l.add_argument("--budget", type=int, default=None)
    l.add_argument("--out", default=None)
    l.set_defaults(func=cmd_learn)

    s = sub.add_parser("solve", help="compute a verified eps-WSNE from best-response queries")
    s.add_argument("--instance", required=True)
    s.add_argument("--oracle", default="adv", choices=["lex", "adv"])
    s.add_argument("--policy", default="seeded", choices=POLICIES)
    s.add_argument("--eps", type=float, required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--budget", type=int, default=None)
    s.add_argument("--out", default=None)
    s.set_defaults(func=cmd_solve)

    b = sub.add_parser("bench", help="sweep instances and write a CSV of query counts")
    b.add_argument("--family", required=True, choices=["lbgame", "uepp", "bimatrix", "multiplayer"])
    b.add_argument("--eps-list", default="")
    b.add_argument("--seeds", default="")
    b.add_argument("--m", type=int, default=2)
    b.add_argument("--n", type=int, default=3)
    b.add_argument("--players", type=int, default=3)
    b.add_argument("--k", type=int, default=2)
    b.add_argument("--out", default=None)
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except QueryBudgetError:
        print("error: query budget exhausted", file=sys.stderr)
        return EXIT_BUDGET
    except CellCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CELL_CAP
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
