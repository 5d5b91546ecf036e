"""The benchmark's tracer (perfbench/tracing.py) wraps partlearn's layer
functions wherever a module binds them; a rename or a new binding in the
library must not slip past it."""

import importlib.util
from pathlib import Path

from partlearn import geometry, multiplayer, partition

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
PATCHED_CLASSES = (geometry.PointHull, partition.Oracle, multiplayer.MultiBrOracle,
                   multiplayer.PointLabelling)


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings(tracing):
    out = {(m.__name__, k): v for m in tracing._partlearn_modules() for k, v in vars(m).items()}
    out.update({(c.__qualname__, k): v for c in PATCHED_CLASSES for k, v in vars(c).items()})
    return out


def test_tracer_patches_every_binding_and_restores_them():
    tracing = load_tracing()
    before = bindings(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.unpatched_bindings() == []
        changed = [key for key, value in bindings(tracing).items() if value is not before[key]]
        assert ("partlearn.bimatrix", "solve_wsne") in changed
        assert ("partlearn.multiplayer", "solve_wsne_multiplayer") in changed
        assert ("Oracle", "__call__") in changed and ("MultiBrOracle", "__call__") in changed
    finally:
        tracer.uninstall()
    after = bindings(tracing)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
