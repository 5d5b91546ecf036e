"""Query/closeness sweeps of cd_gbs / cd_gbs_adversarial / cr_gbs.

    python3 sweep.py SRC planar|faces OUT.json
"""
import itertools
import json
import sys
import time

sys.path.insert(0, sys.argv[1])
from partlearn.cdgbs import GbsConfig, cd_gbs, cd_gbs_adversarial  # noqa: E402
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
    return row


which, out = sys.argv[2], sys.argv[3]
rows = []
if which == "planar":
    for m, n, s, kind, eps in itertools.product((2, 3), (2, 3, 4, 5), range(8),
                                                ("lexicographic", "adversarial"), (0.1, 0.05)):
        rows.append(one("cd", m, n, 100 + s, s, kind, eps))
else:
    for m, n, s, kind, algo in itertools.product((3, 4), (2, 3), range(6),
                                                 ("lexicographic", "adversarial"), ("cd", "cr")):
        rows.append(one(algo, m, n, 300 + s, s, kind, 0.15))
summary = dict(runs=len(rows), queries=sum(r["queries"] for r in rows),
               not_close=[r for r in rows if r.get("close") is False],
               errors=[r for r in rows if "error" in r])
json.dump(dict(summary=summary, rows=rows), open(out, "w"), indent=1)
print(json.dumps({k: (v if k in ("runs", "queries") else len(v)) for k, v in summary.items()}))
