import csv
import json

import numpy as np
import pytest

from partlearn import cdgbs, coverage, labelling
from partlearn.cli import EXIT_BUDGET, EXIT_CELL_CAP, EXIT_INVALID, EXIT_OK, EXIT_SEARCH, main


def run(*argv):
    return main(list(argv))


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("gen", "--kind", "uepp", "--m", "2", "--n", "3", "--seed", "7",
               "--out", str(a)) == EXIT_OK
    assert run("gen", "--kind", "uepp", "--m", "2", "--n", "3", "--seed", "7",
               "--out", str(b)) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_gen_lbgame_matches_family(tmp_path):
    out = tmp_path / "lb.json"
    assert run("gen", "--kind", "lbgame", "--x", "0.5", "--y", "0.5", "--out", str(out)) == EXIT_OK
    data = json.loads(out.read_text())
    assert data["A"] == [[0.5, 0.5], [0.0, 1.0]]
    assert data["B"] == [[0.0, 0.5], [1.0, 0.5]]


def test_gen_rejects_bad_lbgame(tmp_path):
    assert run("gen", "--kind", "lbgame", "--x", "1.5", "--y", "0.5",
               "--out", str(tmp_path / "x.json")) == EXIT_INVALID


def test_learn_uepp_roundtrip(tmp_path):
    inst = tmp_path / "u.json"
    run("gen", "--kind", "uepp", "--m", "1", "--n", "2", "--seed", "3", "--out", str(inst))
    out = tmp_path / "lab.json"
    code = run("learn", "--instance", str(inst), "--eps", "0.001", "--out", str(out))
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "lab.json.manifest.json").read_text())
    assert manifest["eps_close"] is True
    import math
    assert manifest["queries"] <= 2 * math.ceil(math.log2(2 / 0.001)) + 2


@pytest.mark.parametrize("algo, m, n", [("cdgbs", 3, 3), ("crgbs", 3, 2)])
def test_learn_manifest_splits_queries_by_depth(tmp_path, algo, m, n):
    inst = tmp_path / "u.json"
    run("gen", "--kind", "uepp", "--m", str(m), "--n", str(n), "--seed", "4", "--out", str(inst))
    out = tmp_path / "lab.json"
    assert run("learn", "--instance", str(inst), "--algo", algo, "--eps", "0.2",
               "--out", str(out)) == EXIT_OK
    manifest = json.loads((tmp_path / "lab.json.manifest.json").read_text())
    depth = manifest["depth_queries"]
    assert len(depth) == (3 if algo == "cdgbs" else 2)
    assert sum(depth) == manifest["queries"]


@pytest.mark.parametrize("algo, m, n, face_eps", [
    ("cdgbs", 3, 3, None),      # no faces
    ("crgbs", 2, 3, None),      # m <= C(n, 2): the dimension recursion
    ("crgbs", 3, 2, 0.1),       # the first face round, at eps / 2, verified
])
def test_learn_manifest_reports_the_face_accuracy(tmp_path, algo, m, n, face_eps):
    inst = tmp_path / "u.json"
    run("gen", "--kind", "uepp", "--m", str(m), "--n", str(n), "--seed", "4", "--out", str(inst))
    out = tmp_path / "lab.json"
    assert run("learn", "--instance", str(inst), "--algo", algo, "--eps", "0.2",
               "--out", str(out)) == EXIT_OK
    manifest = json.loads((tmp_path / "lab.json.manifest.json").read_text())
    assert manifest["face_eps"] == face_eps


@pytest.mark.parametrize("m, seeded", [(1, False), (2, True), (3, True)])
def test_learn_manifest_counts_the_seeded_base_search_points(tmp_path, m, seeded):
    # every planar search, top-level or a 3-D search's section, seeds its
    # base searches; a 1-D search has no bracketing sections
    inst = tmp_path / "u.json"
    run("gen", "--kind", "uepp", "--m", str(m), "--n", "4", "--seed", "1", "--out", str(inst))
    out = tmp_path / "lab.json"
    assert run("learn", "--instance", str(inst), "--eps", "0.05", "--out", str(out)) == EXIT_OK
    manifest = json.loads((tmp_path / "lab.json.manifest.json").read_text())
    assert (manifest["seeded_queries"] > 0) == seeded
    assert manifest["seeded_queries"] < manifest["queries"]


@pytest.mark.parametrize("algo, m, n, certified, verified", [
    ("cdgbs", 3, 3, 5, 0),      # the search's slabs tile [0, 1]
    ("crgbs", 3, 2, 0, 1),      # the face route: the whole simplex
])
def test_learn_manifest_says_how_the_verdict_was_reached(tmp_path, algo, m, n, certified,
                                                         verified):
    inst = tmp_path / "u.json"
    run("gen", "--kind", "uepp", "--m", str(m), "--n", str(n), "--seed", "1", "--out", str(inst))
    out = tmp_path / "lab.json"
    assert run("learn", "--instance", str(inst), "--algo", algo, "--eps", "0.1",
               "--out", str(out)) == EXIT_OK
    manifest = json.loads((tmp_path / "lab.json.manifest.json").read_text())
    assert manifest["eps_close"] is True
    assert (manifest["certified_slabs"], manifest["verified_slabs"]) == (certified, verified)


def test_learn_exits_on_a_failing_composed_verdict(tmp_path, monkeypatch):
    # the search leaves the last-level slab [13/32, 14/32] uncovered, and the
    # end check finds it not close
    covered = cdgbs._Search.slab_covered
    monkeypatch.setattr(cdgbs._Search, "slab_covered", lambda self, a, b: not (
        self.depth == 0 and a <= 13 / 32 and 14 / 32 <= b) and covered(self, a, b))
    verified = []

    def not_close(region, hulls, eps):
        verified.append(region)
        return coverage.CoverageReport(eps, False, np.array([region.lo, 0.0, 0.0]), eps / 2,
                                       1.0, 1)

    monkeypatch.setattr(labelling, "verify_eps_net", not_close)
    inst = tmp_path / "u.json"
    run("gen", "--kind", "uepp", "--m", "3", "--n", "3", "--seed", "1", "--out", str(inst))
    out = tmp_path / "lab.json"
    assert run("learn", "--instance", str(inst), "--eps", "0.1", "--out", str(out)) == EXIT_SEARCH
    manifest = json.loads((tmp_path / "lab.json.manifest.json").read_text())
    assert manifest["eps_close"] is False
    assert manifest["verified_slabs"] == len(verified) == 1
    assert manifest["certified_slabs"] > 0


def test_learn_cell_cap_overrun_has_its_own_exit_code(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "u.json"
    run("gen", "--kind", "uepp", "--m", "3", "--n", "3", "--seed", "1", "--out", str(inst))
    capsys.readouterr()
    monkeypatch.setattr(coverage, "MAX_CELLS", 4)
    out = tmp_path / "lab.json"
    assert run("learn", "--instance", str(inst), "--eps", "0.2", "--out", str(out)) == EXIT_CELL_CAP
    assert "cap of 4 cells" in capsys.readouterr().err
    assert not out.exists()


def test_learn_budget_exhaustion_leaves_no_files(tmp_path):
    inst = tmp_path / "u.json"
    run("gen", "--kind", "uepp", "--m", "2", "--n", "3", "--seed", "1", "--out", str(inst))
    out = tmp_path / "lab.json"
    code = run("learn", "--instance", str(inst), "--eps", "0.05", "--budget", "0",
               "--out", str(out))
    assert code == EXIT_BUDGET
    assert not out.exists()


def test_learn_adversarial_duplicates_records_merge(tmp_path):
    inst = tmp_path / "dup.json"
    run("gen", "--kind", "uepp", "--m", "2", "--n", "3", "--seed", "1000",
        "--duplicate-rows", "1", "--out", str(inst))
    out = tmp_path / "lab.json"
    code = run("learn", "--instance", str(inst), "--eps", "0.1", "--oracle", "adv",
               "--policy", "antilearner", "--seed", "7", "--out", str(out))
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "lab.json.manifest.json").read_text())
    assert manifest["eps_close"]


def test_learn_accepts_roundrobin_policy(tmp_path):
    inst = tmp_path / "dup.json"
    run("gen", "--kind", "uepp", "--m", "2", "--n", "3", "--seed", "1000",
        "--duplicate-rows", "1", "--out", str(inst))
    out = tmp_path / "lab.json"
    code = run("learn", "--instance", str(inst), "--eps", "0.1", "--oracle", "adv",
               "--policy", "roundrobin", "--out", str(out))
    assert code == EXIT_OK
    manifest = json.loads((tmp_path / "lab.json.manifest.json").read_text())
    assert manifest["policy"] == "roundrobin" and manifest["eps_close"]


def test_learn_rejects_a_game_instance(tmp_path, capsys):
    inst = tmp_path / "mp.json"
    run("gen", "--kind", "multiplayer", "--players", "3", "--k", "2", "--seed", "2",
        "--out", str(inst))
    assert run("learn", "--instance", str(inst), "--eps", "0.2") == EXIT_INVALID
    assert "learn expects a UEPP instance" in capsys.readouterr().err


def test_solve_bimatrix_and_exit_codes(tmp_path):
    inst = tmp_path / "lb.json"
    run("gen", "--kind", "lbgame", "--x", "0.5", "--y", "0.5", "--out", str(inst))
    out = tmp_path / "cert.json"
    assert run("solve", "--instance", str(inst), "--eps", "0.05", "--out", str(out)) == EXIT_OK
    cert = json.loads(out.read_text())
    assert cert["valid"] is True and cert["audit_clean"] is True
    assert abs(cert["u"][0] - 0.5) <= 0.05 and abs(cert["v"][0] - 0.5) <= 0.05


def test_solve_multiplayer(tmp_path):
    inst = tmp_path / "mp.json"
    run("gen", "--kind", "multiplayer", "--players", "3", "--k", "2", "--seed", "2",
        "--out", str(inst))
    assert run("solve", "--instance", str(inst), "--eps", "0.25") == EXIT_OK


@pytest.mark.parametrize("eps", ["nan", "inf"])
@pytest.mark.parametrize("command, gen", [
    ("learn", ["--kind", "uepp", "--m", "2", "--n", "3"]),
    ("solve", ["--kind", "bimatrix", "--m", "3", "--n", "3"]),
    ("solve", ["--kind", "multiplayer", "--players", "3", "--k", "2"]),
], ids=["learn", "solve-bimatrix", "solve-multiplayer"])
def test_a_non_finite_eps_is_rejected(tmp_path, capsys, command, gen, eps):
    inst = tmp_path / "inst.json"
    run("gen", *gen, "--seed", "1", "--out", str(inst))
    capsys.readouterr()
    assert run(command, "--instance", str(inst), "--eps", eps) == EXIT_INVALID
    assert "eps" in capsys.readouterr().err


def test_solve_rejects_uepp_instance(tmp_path):
    inst = tmp_path / "u.json"
    run("gen", "--kind", "uepp", "--m", "2", "--n", "2", "--seed", "0", "--out", str(inst))
    assert run("solve", "--instance", str(inst), "--eps", "0.1") == EXIT_INVALID


def test_bench_csv_contract(tmp_path):
    out = tmp_path / "b.csv"
    code = run("bench", "--family", "lbgame", "--eps-list", "0.1,0.05",
               "--seeds", "1,2", "--out", str(out))
    assert code == EXIT_OK
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert list(rows[0]) == ["family", "m", "n", "eps", "seed", "queries", "wall_ms", "verified",
                             "error"]
    assert all(r["verified"] == "True" and r["error"] == "" for r in rows)


def test_bench_failed_row_records_its_cause(tmp_path):
    out = tmp_path / "b.csv"
    code = run("bench", "--family", "lbgame", "--eps-list", "0.2,0", "--seeds", "1",
               "--out", str(out))
    assert code == EXIT_OK
    with open(out) as fh:
        ok, failed = list(csv.DictReader(fh))
    assert ok["verified"] == "True" and ok["error"] == ""
    assert failed["verified"] == "False" and failed["queries"] == "-1"
    assert failed["error"] == "ValueError: eps must be positive and finite"


@pytest.mark.parametrize("family, sizes", [("lbgame", ("2", "2")), ("multiplayer", ("3", "2"))])
def test_bench_failed_row_carries_the_instance_sizes(tmp_path, family, sizes):
    # the multiplayer family records (players, actions); --m/--n keep their defaults 2, 3
    out = tmp_path / "b.csv"
    assert run("bench", "--family", family, "--eps-list", "0.2,0", "--seeds", "1",
               "--out", str(out)) == EXIT_OK
    with open(out) as fh:
        ok, failed = list(csv.DictReader(fh))
    assert ok["verified"] == "True" and failed["verified"] == "False"
    assert (ok["m"], ok["n"]) == (failed["m"], failed["n"]) == sizes


def test_bench_rejects_an_instance_it_cannot_generate(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert run("bench", "--family", "uepp", "--m", "0", "--eps-list", "0.1", "--seeds", "1",
               "--out", str(out)) == EXIT_INVALID
    assert "m, n >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_bench_rejects_an_empty_game_naming_its_size(tmp_path, capsys):
    out = tmp_path / "b.csv"
    assert run("bench", "--family", "bimatrix", "--m", "0", "--eps-list", "0.1", "--seeds", "1",
               "--out", str(out)) == EXIT_INVALID
    assert "m, n >= 1, got shape (0, 3)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text, key", [
    ('{"n": 2, "A": [[0.5, 0.2]], "b": [0.1]}', "'m'"),
    ('{"k": 2, "u": [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]}', "'n'"),
])
def test_instance_file_with_a_missing_key(tmp_path, capsys, text, key):
    inst = tmp_path / "bad.json"
    inst.write_text(text)
    assert run("solve", "--instance", str(inst), "--eps", "0.1") == EXIT_INVALID
    assert f"lacks the key {key}" in capsys.readouterr().err


@pytest.mark.parametrize("text, key", [
    ('{"n": "3", "k": 2, "u": [0.5]}', "'n'"),
    ('{"n": 2.0, "k": 2, "u": [0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5]}', "'n'"),
    ('{"n": 2, "k": null, "u": [0.5]}', "'k'"),
    ('{"n": true, "k": 2, "u": [0.5, 0.5]}', "'n'"),
], ids=["string", "float", "null", "bool"])
def test_multiplayer_sizes_must_be_integers(tmp_path, capsys, text, key):
    inst = tmp_path / "bad.json"
    inst.write_text(text)
    assert run("solve", "--instance", str(inst), "--eps", "0.1") == EXIT_INVALID
    assert f"key {key} must be an integer" in capsys.readouterr().err


def test_bench_empty_sweep_writes_header_only(tmp_path):
    out = tmp_path / "b.csv"
    assert run("bench", "--family", "lbgame", "--out", str(out)) == EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines == ["family,m,n,eps,seed,queries,wall_ms,verified,error"]


def test_unknown_instance_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"what": 1}')
    assert run("solve", "--instance", str(bad), "--eps", "0.1") == EXIT_INVALID


@pytest.mark.parametrize("m, inferred", [(1, False), (2, True), (3, True)])
def test_learn_manifest_counts_the_answers_inferred_without_a_query(tmp_path, m, inferred):
    # only a planar search has two bracketing sections to prove a span from
    inst = tmp_path / "u.json"
    run("gen", "--kind", "uepp", "--m", str(m), "--n", "4", "--seed", "1", "--out", str(inst))
    out = tmp_path / "lab.json"
    assert run("learn", "--instance", str(inst), "--eps", "0.05", "--out", str(out)) == EXIT_OK
    manifest = json.loads((tmp_path / "lab.json.manifest.json").read_text())
    assert (manifest["inferred_answers"] > 0) == inferred
    assert sum(manifest["depth_queries"]) == manifest["queries"]
