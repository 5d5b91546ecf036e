"""scripts/replay_verifier.py end to end: a small panel's verifier calls are
recorded and replayed on the same tree with equal reports."""

import importlib.util
import json
from pathlib import Path

from partlearn import cdgbs, coverage, labelling

ROOT = Path(__file__).resolve().parent.parent


def _script():
    spec = importlib.util.spec_from_file_location("replay_verifier",
                                                  ROOT / "scripts" / "replay_verifier.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_recorded_learn_panel_replays_with_equal_reports(tmp_path, monkeypatch, capsys):
    replay = _script()
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads
    panel = workloads.make_panel
    monkeypatch.setattr(workloads, "make_panel", lambda *a, **kw: panel(*a, **kw)[:2])
    path = tmp_path / "calls.json"
    assert replay.main(["record", str(path), "--workload", "learn-uepp"]) == 0
    assert cdgbs.verify_eps_net is labelling.verify_eps_net is coverage.verify_eps_net
    calls = json.loads(path.read_text())["calls"]
    assert calls
    capsys.readouterr()
    assert replay.main(["replay", str(path), "--repeat", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["calls"] == len(calls)
    assert out["reports_differing"] == out["verdicts_differing"] == 0
