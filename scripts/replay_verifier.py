"""Record the coverage-verifier calls of a benchmark panel and replay them.

    python3 scripts/replay_verifier.py record calls.json --workload learn-uepp --seed 1 --base-seed 1
    python3 scripts/replay_verifier.py replay calls.json --repeat 5

``record`` runs one pass of a ``perfbench`` panel and writes every
`verify_eps_net` call it makes as JSON: the slab, eps, the points of each
hull passed and the report.  ``replay`` re-runs the recorded calls on the
``partlearn`` next to this script and prints the best and the median process
CPU of ``--repeat`` replays, with counts from the first: the reports that
differ from the recorded ones in any field, those whose verdict differs
(and of them, those now "close" where the recording said "not close"), the
calls the verifier's two-hull facet cut decided, and the cells touched.
Only a differing verdict makes ``replay`` exit 1.  Recording on one tree
and replaying on two compares their verifiers call for call; the panels
come from ``perfbench/workloads.py``, which this script only imports.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from partlearn import coverage  # noqa: E402
from partlearn.geometry.hull import PointHull  # noqa: E402


def record(args) -> int:
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    original = coverage.verify_eps_net
    calls = []

    def recording(region, hulls, eps):
        hulls = list(hulls)
        report = original(region, hulls, eps)
        calls.append({"region": {"m": region.m, "lo": region.lo, "hi": region.hi}, "eps": eps,
                      "hulls": [h.points.tolist() for h in hulls],
                      "report": json.loads(report.to_json())})
        return report

    # every module that bound the function by name gets the recorder, and
    # the function back afterwards
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "partlearn"]
    bound = [(mod, key) for mod in modules for key, value in vars(mod).items() if value is original]
    for mod, key in bound:
        setattr(mod, key, recording)
    try:
        panel = workloads.make_panel(args.workload, args.seed, base_seed=args.base_seed)
        failed = [out.error for out in map(workloads.run_instance, panel) if not out.ok]
    finally:
        for mod, key in bound:
            setattr(mod, key, original)
    Path(args.path).write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                           "base_seed": args.base_seed, "calls": calls}))
    print(f"{len(calls)} calls from {len(panel)} instances written to {args.path}"
          + (f"; {len(failed)} instances failed: {failed}" if failed else ""))
    return 1 if failed else 0


def replay(args) -> int:
    data = json.loads(Path(args.path).read_text())
    calls = [(coverage.SimplexSlab(**c["region"]), c["eps"], c["hulls"], c["report"])
             for c in data["calls"]]
    differ = verdicts = closer = cells = 0
    cut, decided = coverage._split_covers, []

    def counting(*args):
        covers = cut(*args)
        decided.append(covers)
        return covers

    cpu = []
    for rep in range(args.repeat):
        # hulls are built afresh each time: their caches are part of a call's cost
        jobs = [(region, eps, [PointHull(np.array(P, dtype=float).reshape(-1, region.m))
                               for P in hulls], want)
                for region, eps, hulls, want in calls]
        coverage._split_covers = counting if rep == 0 else cut
        t0 = time.process_time()
        got = [coverage.verify_eps_net(region, hulls, eps) for region, eps, hulls, _ in jobs]
        cpu.append(time.process_time() - t0)
        if rep == 0:
            for report, (*_, want) in zip(got, jobs):
                differ += json.loads(report.to_json()) != want
                verdicts += report.is_close != want["is_close"]
                closer += report.is_close and not want["is_close"]
                cells += report.cells_touched
    coverage._split_covers = cut
    print(json.dumps({"calls": len(calls), "reports_differing": differ,
                      "verdicts_differing": verdicts, "now_close": closer,
                      "cut_decided": sum(decided), "cells_touched": cells,
                      "cpu_s_best": round(min(cpu), 4),
                      "cpu_s_median": round(statistics.median(cpu), 4)}))
    return 1 if verdicts else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("record", help="write a panel's verifier calls to PATH")
    r.add_argument("path")
    r.add_argument("--workload", required=True)
    r.add_argument("--seed", type=int, default=1)
    r.add_argument("--base-seed", type=int, default=1)
    r.set_defaults(run=record)
    q = sub.add_parser("replay", help="re-run the calls of PATH and compare the reports")
    q.add_argument("path")
    q.add_argument("--repeat", type=int, default=5)
    q.set_defaults(run=replay)
    args = p.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
