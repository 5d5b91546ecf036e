"""Query/closeness sweeps of cd_gbs / cd_gbs_adversarial / cr_gbs, and a
panel of bimatrix games solved by solve_wsne.

    python3 sweep.py SRC planar|faces|games OUT.json

``planar`` and ``faces`` learn random UEPPs and check each labelling twice:
``close`` with is_eps_close, which verifies only the slabs a cd_gbs search
left uncertified, and ``close_full`` with verify_eps_net on the whole
simplex.  A row where the two differ is listed under ``mismatch`` with
``grid_max``, the largest exact hull distance on a lattice of the simplex
(spacing 1/800 in the plane, 1/100 above), which settles which verdict is
conservative.  ``games`` solves bimatrix games at eps 0.1 and checks each
profile with verify_wsne.
"""
import itertools
import json
import sys
import time

import numpy as np

sys.path.insert(0, sys.argv[1])
from partlearn.bimatrix import BimatrixGame, make_br_oracles, solve_wsne, verify_wsne  # noqa: E402
from partlearn.cdgbs import GbsConfig, cd_gbs, cd_gbs_adversarial  # noqa: E402
from partlearn.coverage import SimplexSlab, simplex_lattice, verify_eps_net  # noqa: E402
from partlearn.crgbs import CrConfig, cr_gbs  # noqa: E402
from partlearn.labelling import is_eps_close  # noqa: E402
from partlearn.partition import make_oracle, random_uepp  # noqa: E402


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
else:
    for m, n, s, kind, algo in itertools.product((3, 4), (2, 3), range(6),
                                                 ("lexicographic", "adversarial"), ("cd", "cr")):
        rows.append(one(algo, m, n, 300 + s, s, kind, 0.15))
summary = dict(runs=len(rows), queries=sum(r["queries"] for r in rows),
               not_close=[r for r in rows if r.get("close") is False],
               mismatch=[r for r in rows if r.get("close") != r.get("close_full")],
               invalid=[r for r in rows if r.get("valid") is False],
               errors=[r for r in rows if "error" in r])
json.dump(dict(summary=summary, rows=rows), open(out, "w"), indent=1)
print(json.dumps({k: (v if k in ("runs", "queries") else len(v)) for k, v in summary.items()}))
