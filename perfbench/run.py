"""The partlearn benchmark: one workload per process, or all of them in turn.

    python3 perfbench/run.py --workload bimatrix-4x3 --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 1

With ``--trace 0`` a run reports the end-to-end metrics, measured with no
tracing and taken to the reference speed (``speed_kernel``); with
``--trace 1`` it runs one pass of the panel untraced and the same pass
traced, checks that both give identical queries and certificates, and
reports the per-layer metrics.  Every instance is checked
by the full-information verifier.  Report lines name each metric with its
unit; the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  Per-instance records
(queries, time, verdict, cause of failure) go to ``perfbench/out/``.

The exit code is 0 only when every instance verified; 1 when any failed;
2 when the library sources are not next to the benchmark.
"""

from __future__ import annotations

import argparse
import ctypes
import ctypes.util
import functools
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("bimatrix-4x3", "learn-uepp", "multiplayer-3p")
SETUP_SAMPLES = 8        # fresh-process set-up probes per --trace 0 run
REF_KERNEL_S = 0.032     # the speed kernel's typical time on the reference box

END_TO_END = (
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("instance_s.p50", "s"),
    ("instance_s.tail", "s"),
    ("queries.mean", "count"),
    ("queries.max", "count"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("partition.oracle.calls", "count"),
    ("partition.oracle.self_s", "s"),
    ("partition.oracle.us_per_call", "us"),
    ("cdgbs.search.calls", "count"),
    ("cdgbs.search.self_s", "s"),
    ("cdgbs.recursions", "count"),
    ("cdgbs.fixes", "count"),
    ("cdgbs.merges", "count"),
    ("crgbs.search.calls", "count"),
    ("crgbs.search.self_s", "s"),
    ("crgbs.faces", "count"),
    ("coverage.verify_eps_net.calls", "count"),
    ("coverage.verify_eps_net.s", "s"),
    ("coverage.verify_eps_net.self_s", "s"),
    ("coverage.verify_eps_net.close_ratio", "ratio"),
    ("coverage.slab_certificate_2d.calls", "count"),
    ("coverage.slab_certificate_2d.s", "s"),
    ("coverage.slab_certificate_2d.pass_ratio", "ratio"),
    ("coverage.simplex_lattice.points", "count"),
    ("coverage.simplex_lattice.s", "s"),
    ("geometry.PointHull.distances.points", "count"),
    ("geometry.PointHull.distances.s", "s"),
    ("geometry.PointHull.upper_bounds.points", "count"),
    ("geometry.PointHull.upper_bounds.s", "s"),
    ("geometry.PointHull.lower_bounds.points", "count"),
    ("geometry.PointHull.lower_bounds.s", "s"),
    ("geometry.PointHull.contains_boxes.boxes", "count"),
    ("geometry.PointHull.contains_boxes.s", "s"),
    ("geometry.convex_hull.calls", "count"),
    ("geometry.convex_hull.s", "s"),
    ("labelling.interior_conflict.calls", "count"),
    ("labelling.interior_conflict.s", "s"),
    ("labelling.is_eps_close.calls", "count"),
    ("labelling.is_eps_close.s", "s"),
    ("bimatrix.learn_row.queries", "count"),
    ("bimatrix.learn_row.s", "s"),
    ("bimatrix.learn_col.queries", "count"),
    ("bimatrix.learn_col.s", "s"),
    ("bimatrix.voronoi_label_masks.points", "count"),
    ("bimatrix.voronoi_label_masks.s", "s"),
    ("bimatrix.voronoi_label_masks.self_s", "s"),
    ("bimatrix.scan.self_s", "s"),
    ("bimatrix.scan.rounds", "count"),
    ("bimatrix.verify_wsne.s", "s"),
    ("multiplayer.learn.s", "s"),
    ("multiplayer.oracle.calls", "count"),
    ("multiplayer.oracle.self_s", "s"),
    ("multiplayer.oracle.us_per_call", "us"),
    ("multiplayer.l1_distances.points", "count"),
    ("multiplayer.l1_distances.s", "s"),
    ("multiplayer.scan.self_s", "s"),
    ("multiplayer.verify.s", "s"),
    ("trace.overhead_s", "s"),
)


def tail_percentile(samples) -> tuple:
    """(value, percentile, n): the highest order statistic with at least ten
    samples above it.  Below 21 samples that rank is at or under the median,
    so the maximum is reported instead, as percentile 100."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("no samples")
    if n <= 20:
        return xs[-1], 100.0, n
    rank = n - 10
    return xs[rank - 1], 100.0 * rank / n, n


@functools.cache
def _kernel_arrays():
    import numpy as np
    rng = np.random.default_rng(0)
    return rng.random((60000, 3)), rng.random((3, 8))


def speed_kernel() -> float:
    """Seconds taken by a fixed piece of work that calls nothing of
    partlearn: an interpreter loop, many small-array numpy calls and a few
    large-array ones, the kinds of work the instances do.  The box this
    runs on is shared and its speed drifts by a quarter for minutes at a
    time; this kernel's time over REF_KERNEL_S is how much slower than the
    reference speed the box runs at the moment."""
    import numpy as np
    x, w = _kernel_arrays()
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += (i * 7) % 13
    a = np.arange(40, dtype=float)
    for _ in range(2000):
        a = np.abs(a - 1.5) * 0.99
    for _ in range(3):
        (x @ w).max(axis=1).min()
    return time.perf_counter() - t0


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def _setup(workload: str, seed: int, base_seed: int):
    """Import the library, build the panel and finish lazy set-up; the
    caller times this from before the first import."""
    import workloads
    panel = workloads.make_panel(workload, seed, base_seed=base_seed)
    workloads.warm_up()
    return workloads, panel


def _probe_setup(args, samples: int) -> list:
    """Set-up times of ``samples`` fresh processes, at the reference speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--base-seed", str(args.base_seed)]
    out = []
    for _ in range(samples):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        setup_s, kernel_s = map(float, proc.stdout.split()[-2:])
        out.append(setup_s * REF_KERNEL_S / kernel_s)
    return out


def _probed_passes(workloads, panel, passes: int, args) -> tuple:
    """Run the panel ``passes`` times with the SETUP_SAMPLES set-up probes
    spread over the gaps before, between and after the passes, outside the
    timed region, so setup_s samples the machine over the whole run rather
    than one moment of it.  Returns (outcomes, wall seconds, set-up times)."""
    gaps = passes + 1
    outcomes, wall, setup = [], 0.0, []
    for gap in range(gaps):
        setup += _probe_setup(args, sum(k * gaps // SETUP_SAMPLES == gap
                                        for k in range(SETUP_SAMPLES)))
        if gap < passes:
            done, seconds = _one_pass(panel, workloads.run_instance)
            outcomes += done
            wall += seconds
    return outcomes, wall, setup


def _one_pass(panel, run) -> tuple:
    """Run every instance of the panel once; returns (outcomes, wall seconds).

    The speed kernel runs before the first instance and after each one,
    outside the timed region, and an instance's ``ref_seconds`` is its wall
    time scaled by the reference kernel time over the mean of the kernel
    times on either side of it."""
    outcomes = []
    wall = 0.0
    before = speed_kernel()
    for inst in panel:
        t0 = time.perf_counter()
        out = run(inst)
        wall += time.perf_counter() - t0
        _release_memory()
        after = speed_kernel()
        out.ref_seconds = out.seconds * 2 * REF_KERNEL_S / (before + after)
        outcomes.append(out)
        before = after
    return outcomes, wall


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, or None on another C library."""
    try:
        trim = ctypes.CDLL(ctypes.util.find_library("c")).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def _release_memory() -> None:
    """Hand freed heap back to the OS between instances, so the peak RSS
    is the largest instance's working set, not an artefact of visit order."""
    gc.collect()
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def end_to_end(outcomes, wall: float, setup_s: float) -> tuple:
    """(metrics, extra report fields).  Times are at the reference speed.
    Every pass visits each instance once; an instance's time is its median
    over the passes, and the percentiles are taken over instances."""
    runs = {}
    for o in outcomes:
        runs.setdefault(o.instance, []).append(o.ref_seconds)
    times = [statistics.median(v) for v in runs.values()]
    queries = [o.queries for o in outcomes if o.ok]
    ok = sum(o.ok for o in outcomes)
    tail, pct, n = tail_percentile(times)
    return {
        "setup_s": setup_s,
        "instances_per_s": ok / sum(o.ref_seconds for o in outcomes),
        "instance_s.p50": statistics.median(times),
        "instance_s.tail": tail,
        "queries.mean": statistics.fmean(queries) if queries else 0.0,
        "queries.max": max(queries) if queries else 0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, {"fail_rate": 1.0 - ok / len(outcomes), "tail_percentile": pct, "instances": n,
        "wall_instances_per_s": ok / wall}


def per_layer(agg: dict, counts: dict, traced_ref: float, untraced_ref: float) -> dict:
    """Per-layer metrics from aggregated spans and the tracer's counts."""
    def span(name, key):
        return agg.get(name, {}).get(key, 0.0 if key in ("s", "self_s") else 0)

    def per_call(name):
        calls = span(name, "calls")
        return 1e6 * span(name, "self_s") / calls if calls else 0.0

    def ratio(count_key, name):
        calls = span(name, "calls")
        return counts[count_key] / calls if calls else 0.0

    m = {
        "partition.oracle.calls": span("partition.oracle", "calls"),
        "partition.oracle.self_s": span("partition.oracle", "self_s"),
        "partition.oracle.us_per_call": per_call("partition.oracle"),
        "cdgbs.search.calls": span("cdgbs.search", "calls"),
        "cdgbs.search.self_s": span("cdgbs.search", "self_s"),
        "cdgbs.recursions": counts["cdgbs.recursions"],
        "cdgbs.fixes": counts["cdgbs.fixes"],
        "cdgbs.merges": counts["cdgbs.merges"],
        "crgbs.search.calls": span("crgbs.search", "calls"),
        "crgbs.search.self_s": span("crgbs.search", "self_s"),
        "crgbs.faces": counts["crgbs.faces"],
        "coverage.verify_eps_net.close_ratio": ratio("coverage.verify_eps_net.close",
                                                     "coverage.verify_eps_net"),
        "coverage.slab_certificate_2d.pass_ratio": ratio("coverage.slab_certificate_2d.pass",
                                                         "coverage.slab_certificate_2d"),
        "multiplayer.oracle.us_per_call": per_call("multiplayer.oracle"),
        "trace.overhead_s": traced_ref - untraced_ref,
    }
    for name, _unit in PER_LAYER:
        if name not in m:
            base, _, key = name.rpartition(".")
            m[name] = counts[name] if name in counts else span(base, key)
    return m


def _emit(result: dict, lines: list) -> None:
    for line in lines:
        print(line)
    print(json.dumps(result), flush=True)


def _write_records(name: str, header: dict, rows: list) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def run_workload(args, t_start: float) -> tuple:
    """One workload in this process: (result dict, report lines)."""
    workloads, panel = _setup(args.workload, args.seed, args.base_seed)
    own_setup_s = time.perf_counter() - t_start
    env = environment()
    header = {"workload": args.workload, "seed": args.seed, "base_seed": args.base_seed,
              "seconds": args.seconds, "trace": args.trace, "panel": len(panel),
              "own_setup_s": own_setup_s, "env": env}
    lines = [f"# {args.workload} seed={args.seed} base_seed={args.base_seed} "
             f"trace={args.trace} panel={len(panel)}",
             "# env " + json.dumps(env)]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if not args.trace:
        passes = workloads.passes_for(args.workload, args.seconds)
        outcomes, wall, setup_samples = _probed_passes(workloads, panel, passes, args)
        metrics, extra = end_to_end(outcomes, wall, statistics.median(setup_samples))
        header.update(passes=passes, wall_s=wall, setup_samples=setup_samples, **extra)
        path = _write_records(tag + ".jsonl", header, [o.record() for o in outcomes])
        units = dict(END_TO_END)
        lines += [f"{k} = {v!r} {units[k]}" for k, v in metrics.items()]
        lines += [f"fail_rate = {extra['fail_rate']!r} ratio",
                  f"# times are at the reference speed; by the wall clock "
                  f"instances_per_s was {extra['wall_instances_per_s']:.4f}",
                  f"# instance_s.tail is p{extra['tail_percentile']:.1f} of "
                  f"{extra['instances']} instances; {passes} passes, {wall:.2f} s timed",
                  f"# records: {path}"]
        problems = _failures(outcomes)
        correct = not problems
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        from tracing import Tracer, aggregate
        plain, plain_wall = _one_pass(panel, workloads.run_instance)
        tracer = Tracer()
        tracer.install(extra_modules=[workloads])
        try:
            missed = tracer.unpatched_bindings(extra_modules=[workloads])
            traced_run = tracer.wrap("instance", workloads.run_instance)

            def run(inst):
                tracer.instance = inst.index
                return traced_run(inst)
            traced, traced_wall = _one_pass(panel, run)
        finally:
            tracer.uninstall()
        agg = aggregate(tracer.spans)
        metrics = per_layer(agg, tracer.counts, sum(o.ref_seconds for o in traced),
                            sum(o.ref_seconds for o in plain))
        problems = _failures(plain) + _failures(traced)
        problems += [f"binding left unpatched: {mod}.{key}" for mod, key in missed]
        for a, b in zip(plain, traced):
            if (a.queries, a.certificate) != (b.queries, b.certificate):
                problems.append(f"instance {a.instance}: traced run differs "
                                f"({a.queries} vs {b.queries} queries)")
        calls = metrics["partition.oracle.calls"] + metrics["multiplayer.oracle.calls"]
        queries = sum(o.queries for o in traced)
        if calls != queries:
            problems.append(f"oracle calls {calls} != summed queries {queries}")
        header.update(untraced_wall_s=plain_wall, traced_wall_s=traced_wall)
        rows = [dict(o.record(), traced=False) for o in plain] + \
            [dict(o.record(), traced=True) for o in traced]
        path = _write_records(tag + ".jsonl", header, rows)
        _write_records(tag + "-spans.jsonl", {"fields": ["name", "start", "end", "parent",
                                                         "instance"]}, tracer.spans)
        units = dict(PER_LAYER)
        lines += [f"{k} = {metrics[k]!r} {u}" for k, u in PER_LAYER]
        lines += ["# self-time shares of the traced pass:"]
        lines += _shares(agg, traced_wall)
        lines += [f"# records: {path}"]
        outcomes = plain + traced
        correct = not problems
        result_metrics = {k: {"value": metrics[k], "unit": u} for k, u in PER_LAYER}
    lines += [f"# FAIL {p}" for p in problems]
    result = {"correct": correct, "attempted": len(outcomes),
              "failed": sum(not o.ok for o in outcomes), "metrics": result_metrics}
    return result, lines


def _failures(outcomes) -> list:
    return [f"instance {o.instance} ({o.kind}): {o.error or 'not verified'}"
            for o in outcomes if not o.ok]


def _shares(agg: dict, wall: float) -> list:
    rows = sorted(agg.items(), key=lambda kv: -kv[1]["self_s"])
    return [f"#   {name:38s} self {v['self_s']:9.4f} s  {100 * v['self_s'] / wall:5.1f}%  "
            f"total {v['s']:9.4f} s  calls {v['calls']}" for name, v in rows]


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--base-seed", str(args.base_seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        out = proc.stdout.strip().splitlines()
        for line in out[:-1]:
            print(line)
        sys.stderr.write(proc.stderr)
        code = code or proc.returncode
        if proc.returncode not in (0, 1) or not out:
            combined["correct"] = False
            continue
        res = json.loads(out[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    print(json.dumps(combined), flush=True)
    return code


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--base-seed", type=int, default=1,
                   help="draw of the committed panels; claims are confirmed on "
                        "--seed 9001 --base-seed 2")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (ROOT / "src" / "partlearn" / "__init__.py").is_file():
        print(f"partlearn sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (str(Path(__file__).resolve().parent), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        _setup(args.workload, args.seed, args.base_seed)
        setup_s = time.perf_counter() - t_start
        print(setup_s, statistics.median(speed_kernel() for _ in range(3)))
        return 0
    result, lines = run_workload(args, t_start)
    _emit(result, lines)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
