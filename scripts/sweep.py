"""Query/closeness sweeps of cd_gbs / cd_gbs_adversarial / cr_gbs, and a
panel of bimatrix games solved by solve_wsne.

    python3 sweep.py SRC planar|faces|games|queries OUT.json

``planar`` and ``faces`` learn random UEPPs and check each labelling twice:
``close`` with is_eps_close, which verifies only the slabs a cd_gbs search
left uncertified, and ``close_full`` with verify_eps_net on the whole
simplex.  A row where the two differ is listed under ``mismatch`` with
``grid_max``, the largest exact hull distance on a lattice of the simplex
(spacing 1/800 in the plane, 1/100 above), which settles which verdict is
conservative.  ``games`` solves bimatrix games at eps 0.1 and checks each
profile with verify_wsne.  ``queries`` is the query baseline of the 1-D
base searches: cd_gbs and cd_gbs_adversarial on random_uepp(m, n, seed)
for seeds 100-105 at six (m, n, eps), and criterion 5's 20 duplicate-cell
instances under the max-index and round-robin adversaries; it prints the
queries and the base-search answers inferred with no query
(``RunStats.inferred``) per (m, n, eps), the queries per policy, the
round-robin runs that merged the duplicate pair, and every run that ends
not close.  A missing argument
or an unknown mode prints the usage line and exits 2.
"""
import itertools
import json
import sys
import time

import numpy as np

MODES = ("planar", "faces", "games", "queries")
if len(sys.argv) != 4 or sys.argv[2] not in MODES:
    print(f"usage: python3 sweep.py SRC {'|'.join(MODES)} OUT.json", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, sys.argv[1])
from partlearn.bimatrix import BimatrixGame, make_br_oracles, solve_wsne, verify_wsne  # noqa: E402
from partlearn.cdgbs import GbsConfig, cd_gbs, cd_gbs_adversarial  # noqa: E402
from partlearn.coverage import SimplexSlab, simplex_lattice, verify_eps_net  # noqa: E402
from partlearn.crgbs import CrConfig, cr_gbs  # noqa: E402
from partlearn.labelling import is_eps_close  # noqa: E402
from partlearn.partition import make_oracle, random_uepp, uepp_cells  # noqa: E402

QUERY_CASES = ((2, 3, 0.05), (2, 5, 0.01), (2, 4, 0.002), (3, 4, 0.05), (3, 3, 0.02),
               (3, 4, 0.0125))


def one(algo, m, n, seed, s, kind, eps):
    u = random_uepp(m, n, seed=seed)
    o = make_oracle(u, kind=kind)
    row = dict(algo=algo, m=m, n=n, uepp_seed=seed, cfg_seed=s, kind=kind, eps=eps)
    t0 = time.process_time()
    try:
        if algo == "cd":
            f = cd_gbs if kind == "lexicographic" else cd_gbs_adversarial
            lab = f(GbsConfig(m, n, eps, oracle_kind=kind, seed=s), o)
        else:
            lab = cr_gbs(CrConfig(m, n, eps, oracle_kind=kind, seed=s), o)
        row["queries"] = lab.stats.queries
        row["inferred"] = lab.stats.inferred
        row["close"] = bool(is_eps_close(lab, None, eps).is_close)
    except Exception as exc:
        row["queries"] = o.log.count
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["cpu_s"] = round(time.process_time() - t0, 3)
    if "close" in row:
        hulls = [lab.point_hull(r) for r in lab.class_roots()]
        row["close_full"] = bool(verify_eps_net(SimplexSlab(m, 0.0, 1.0), hulls, eps).is_close)
        if row["close_full"] != row["close"]:
            X = simplex_lattice(m, 1 / 800 if m == 2 else 1 / 100)
            row["grid_max"] = float(np.min([h.distances(X) for h in hulls], axis=0).max())
    return row


def duplicates(count=20):
    """Criterion 5's instances: random_uepp(2, 3, duplicate_rows=1) from
    seed 1000 on whose duplicated cell is 2-dimensional, with that pair."""
    seed = 999
    while count:
        seed += 1
        u = random_uepp(2, 3, seed=seed, duplicate_rows=1)
        pair = next((i + 1, j + 1) for i, j in itertools.combinations(range(3), 2)
                    if np.allclose(u.A[i], u.A[j]) and abs(u.b[i] - u.b[j]) < 1e-12)
        cell = dict(uepp_cells(u).cells)[pair[0]]
        if not cell.is_empty and cell.affine_dim() == 2:
            count -= 1
            yield seed, u, pair


def duplicate_run(seed, u, pair, policy, eps=0.1):
    o = make_oracle(u, kind="adversarial", policy=policy, seed=7, record=False)
    lab = cd_gbs_adversarial(GbsConfig(2, 3, eps, oracle_kind="adversarial"), o)
    return dict(algo="cd", m=2, n=3, uepp_seed=seed, kind="adversarial", policy=policy, eps=eps,
                queries=lab.stats.queries, close=bool(is_eps_close(lab, None, eps).is_close),
                merged=pair in {tuple(p) for p in lab.stats.merges})


def queries_summary(rows):
    by_case, inferred_by_case, by_policy = {}, {}, {}
    for r in rows:
        if "policy" in r:
            by_policy[r["policy"]] = by_policy.get(r["policy"], 0) + r["queries"]
        else:
            key = f"m={r['m']} n={r['n']} eps={r['eps']}"
            by_case[key] = by_case.get(key, 0) + r["queries"]
            inferred_by_case[key] = inferred_by_case.get(key, 0) + r.get("inferred", 0)
    return dict(by_case=by_case, inferred_by_case=inferred_by_case, by_policy=by_policy,
                roundrobin_merges=sum(r.get("merged", False) for r in rows))


def game(shape, g, seed, eps=0.1):
    oracles = make_br_oracles(g, seed=seed)
    row = dict(shape=list(shape), oracle_seed=seed, eps=eps)
    t0 = time.process_time()
    try:
        cert = solve_wsne(oracles, eps)
        row["grid_resolution"] = cert.grid_resolution
        row["valid"] = bool(verify_wsne(g, cert.u, cert.v, eps).valid)
    except Exception as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["queries"] = oracles.row.log.count + oracles.column.log.count
    row["cpu_s"] = round(time.process_time() - t0, 3)
    return row


def games():
    """Random games of the shapes below, each followed by its oracle seed:
    the 4x3 / 3x4 / 5x3 draw of generator 0, then 2xk and kx2 games for k =
    2..5, three of each, from generator 1."""
    for rng_seed, shapes in ((0, [(4, 3)] * 50 + [(3, 4)] * 10 + [(5, 3)] * 6),
                             (1, [s for k in range(2, 6) for s in ((2, k), (k, 2))] * 3)):
        rng = np.random.default_rng(rng_seed)
        for shape in shapes:
            g = BimatrixGame(rng.random(shape), rng.random(shape))
            yield shape, g, int(rng.integers(1000))


which, out = sys.argv[2], sys.argv[3]
rows = []
if which == "games":
    rows = [game(*args) for args in games()]
elif which == "planar":
    for m, n, s, kind, eps in itertools.product((2, 3), (2, 3, 4, 5), range(8),
                                                ("lexicographic", "adversarial"), (0.1, 0.05)):
        rows.append(one("cd", m, n, 100 + s, s, kind, eps))
elif which == "queries":
    for (m, n, eps), seed, kind in itertools.product(QUERY_CASES, range(100, 106),
                                                     ("lexicographic", "adversarial")):
        rows.append(one("cd", m, n, seed, 0, kind, eps))
    for case in duplicates():
        rows += [duplicate_run(*case, policy) for policy in ("maxindex", "roundrobin")]
elif which == "faces":
    for m, n, s, kind, algo in itertools.product((3, 4), (2, 3), range(6),
                                                 ("lexicographic", "adversarial"), ("cd", "cr")):
        rows.append(one(algo, m, n, 300 + s, s, kind, 0.15))
summary = dict(runs=len(rows), queries=sum(r["queries"] for r in rows),
               not_close=[r for r in rows if r.get("close") is False],
               mismatch=[r for r in rows if "close_full" in r and r["close"] != r["close_full"]],
               invalid=[r for r in rows if r.get("valid") is False],
               errors=[r for r in rows if "error" in r])
if which == "queries":
    summary.update(queries_summary(rows))
json.dump(dict(summary=summary, rows=rows), open(out, "w"), indent=1)
print(json.dumps({k: (v if isinstance(v, (int, dict)) else len(v)) for k, v in summary.items()}))
