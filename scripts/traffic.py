"""List the functions of ``partlearn`` that the benchmark and the CLI never enter.

    python3 scripts/traffic.py

Runs one pass of every ``perfbench`` panel at ``--seed 1`` and at
``--seed 9001 --base-seed 2``, then the CLI examples of the README's "CLI"
section (in a temporary directory), with a profile hook that records every
Python function entered.  Prints each function defined under
``src/partlearn`` that none of these enters, with its non-blank line count,
and the totals.  A function nested in one that is never entered is counted
with its parent.  The panels come from ``perfbench/workloads.py``, which this
script only imports.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import re
import shlex
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "partlearn"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

PANEL_SEEDS = ((1, 1), (9001, 2))   # (seed, base seed) of each pass


def readme_cli_examples() -> list:
    """The argument lists of the ``partlearn`` commands in the README's CLI block."""
    text = (ROOT / "README.md").read_text()
    block = re.search(r"^## CLI\n+```\n(.*?)```", text, re.S | re.M).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("partlearn ")]


def functions(path: Path) -> list:
    """(first line, qualified name, non-blank lines) of every def in a file,
    outermost first; the first line is the code object's (decorators included)."""
    source = path.read_text()
    lines = source.splitlines()
    out = []

    def walk(node, prefix, parent):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                size = sum(1 for s in lines[first - 1:child.end_lineno] if s.strip())
                key = (first, f"{prefix}{child.name}", size, parent)
                out.append(key)
                walk(child, f"{prefix}{child.name}.", key)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.", parent)
            else:
                walk(child, prefix, parent)

    walk(ast.parse(source), "", None)
    return out


def run_traffic() -> set:
    """(file, first line) of every function entered by the panels and the CLI."""
    import workloads
    from partlearn import cli

    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno))

    sys.setprofile(hook)
    try:
        for seed, base_seed in PANEL_SEEDS:
            for name in workloads.WORKLOADS:
                for inst in workloads.make_panel(name, seed, base_seed=base_seed):
                    workloads.run_instance(inst)
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
            os.chdir(tmp)
            try:
                for argv in readme_cli_examples():
                    cli.main(argv)
            finally:
                os.chdir(cwd)
    finally:
        sys.setprofile(None)
    return entered


def main() -> int:
    entered = run_traffic()
    total = idle = idle_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        defs = functions(path)
        total += len(defs)
        missed = {d for d in defs if (str(path), d[0]) not in entered}
        for d in defs:
            first, name, size, parent = d
            if d in missed and parent not in missed:
                idle += 1
                idle_lines += size
                print(f"{path.relative_to(ROOT / 'src')}:{first}  {name}  {size}")
    print(f"{idle} of {total} functions never entered, {idle_lines} non-blank lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
