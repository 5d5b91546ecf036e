"""scripts/sweep.py rejects what it cannot run before it sweeps anything."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("args", [["SRC", "game", "OUT"], [], ["SRC", "games"]])
def test_a_bad_mode_or_a_missing_argument_exits_2_without_a_sweep(tmp_path, args):
    out = tmp_path / "out.json"
    argv = [{"SRC": str(ROOT / "src"), "OUT": str(out)}.get(a, a) for a in args]
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "sweep.py"), *argv],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: python3 sweep.py SRC planar|faces|games|queries")
    assert proc.stdout == "" and not out.exists()
