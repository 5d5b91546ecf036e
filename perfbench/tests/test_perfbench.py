"""Tests of the benchmark itself: the tail rule, self time, the tracer's
patching, and a tiny smoke run of every workload in both modes.

    python3 -m pytest -q perfbench/tests
"""

import contextlib
import dataclasses
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def test_tail_takes_highest_rank_with_ten_above():
    value, pct, n = run.tail_percentile(range(1, 101))
    assert (value, pct, n) == (90, 90.0, 100)
    value, pct, n = run.tail_percentile(reversed(range(1, 31)))
    assert (value, n) == (20, 30) and pct == pytest.approx(200 / 3)
    assert sum(1 for x in range(1, 31) if x > value) == 10


def test_tail_of_small_samples_is_the_maximum():
    assert run.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert run.tail_percentile(range(20)) == (19, 100.0, 20)
    assert run.tail_percentile(range(21))[:2] == (10, 100 * 11 / 21)
    with pytest.raises(ValueError):
        run.tail_percentile([])


def test_self_time_on_nested_spans():
    #  root [0, 10] -> a [1, 4] -> a1 [2, 3]
    #               -> b [5, 9]
    spans = [["root", 0.0, 10.0, -1, 0], ["a", 1.0, 4.0, 0, 0],
             ["a1", 2.0, 3.0, 1, 0], ["b", 5.0, 9.0, 0, 0], ["a", 11.0, 12.5, -1, 1]]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.5]
    agg = tracing.aggregate(spans)
    assert agg["a"] == {"calls": 2, "s": 4.5, "self_s": 3.5}
    assert agg["root"] == {"calls": 1, "s": 10.0, "self_s": 3.0}


def test_tracer_patches_every_binding_and_restores_them():
    from partlearn import bimatrix, cdgbs, coverage, crgbs, labelling, partition
    originals = (coverage.verify_eps_net, coverage.simplex_lattice, cdgbs.cd_gbs_adversarial,
                 labelling.interior_conflict, partition.Oracle.__call__)
    tracer = tracing.Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        assert tracer.unpatched_bindings(extra_modules=[workloads]) == []
        assert cdgbs.verify_eps_net is labelling.verify_eps_net is coverage.verify_eps_net
        assert cdgbs.verify_eps_net is not originals[0]
        assert bimatrix.simplex_lattice is not originals[1]
        assert crgbs.cd_gbs_adversarial is bimatrix.cd_gbs_adversarial is not originals[2]
        assert crgbs.interior_conflict is cdgbs.interior_conflict is not originals[3]
    finally:
        tracer.uninstall()
    assert (cdgbs.verify_eps_net, bimatrix.simplex_lattice, crgbs.cd_gbs_adversarial,
            crgbs.interior_conflict, partition.Oracle.__call__) == \
        (originals[0], originals[1], originals[2], originals[3], originals[4])


def test_instance_times_are_scaled_by_the_kernel_times_around_them(monkeypatch):
    kernel = iter([1.0, 3.0, 2.0])
    monkeypatch.setattr(run, "speed_kernel", lambda: run.REF_KERNEL_S * next(kernel))

    def fake(inst):
        return workloads.Outcome(inst, "fake", 1, 6.0, 6.0, True, "")
    outcomes, _wall = run._one_pass([0, 1], fake)
    # kernel 2x slower on average around the first instance, 2.5x around the second
    assert [o.ref_seconds for o in outcomes] == [3.0, pytest.approx(2.4)]


def _games(workload, seed, base_seed=1):
    def data(inst):
        d = inst.data
        return str(d.utilities.tolist() if workload == "multiplayer-3p" else
                   d.A.tolist())
    return [(i.index, data(i), i.oracle_seed)
            for i in workloads.make_panel(workload, seed, base_seed=base_seed)]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_panels_are_committed_and_the_seed_sets_order_and_tie_breaks(workload):
    a, b = _games(workload, 5), _games(workload, 6)
    assert a == _games(workload, 5)
    assert sorted(g[:2] for g in a) == sorted(g[:2] for g in b)
    assert a != b
    other = _games(workload, 5, base_seed=2)
    assert not {g[1] for g in a} & {g[1] for g in other}


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == \
        list(workloads.WORKLOADS)


def _smoke(monkeypatch, workload: str, trace: int, panel: int) -> dict:
    """One tiny run in this process: a panel of ``panel`` instances and one
    set-up probe."""
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setitem(workloads.WORKLOADS, workload,
                        dataclasses.replace(workloads.WORKLOADS[workload], panel_size=panel))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", str(trace)])
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"], "\n".join(lines)
    assert result["failed"] == 0 and result["attempted"] >= 1
    for name, unit in (run.PER_LAYER if trace else run.END_TO_END):
        assert result["metrics"][name]["unit"] == unit
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines), name
    return result["metrics"]


@pytest.mark.parametrize("workload,panel", [("bimatrix-4x3", 1), ("learn-uepp", 2),
                                            ("multiplayer-3p", 2)])
def test_smoke_run_emits_every_metric(monkeypatch, workload, panel):
    e2e = _smoke(monkeypatch, workload, 0, panel)
    assert e2e["setup_s"]["value"] > 0 and e2e["instances_per_s"]["value"] > 0
    layers = _smoke(monkeypatch, workload, 1, panel)
    oracle_calls = layers["partition.oracle.calls"]["value"] + \
        layers["multiplayer.oracle.calls"]["value"]
    assert oracle_calls > 0
    if workload == "multiplayer-3p":
        assert layers["coverage.verify_eps_net.calls"]["value"] == 0
        assert layers["partition.oracle.calls"]["value"] == 0
    if workload == "learn-uepp":
        assert layers["crgbs.search.calls"]["value"] > 0


def test_learned_labels_are_checked_against_the_ground_truth():
    inst = next(i for i in workloads.make_panel("learn-uepp", 3) if i.kind == "crgbs")
    lab = workloads.crgbs.cr_gbs(
        workloads.crgbs.CrConfig(inst.data.m, inst.data.n, inst.eps),
        workloads.partition.make_oracle(inst.data, record=False))
    assert workloads._mislabelled(lab, inst.data) == 0
    # Swap the two labels' points: the hulls still cover the simplex.
    a, b = lab.class_roots()[:2]
    lab._points[a], lab._points[b] = lab._points[b], lab._points[a]
    assert workloads._mislabelled(lab, inst.data) > 0
