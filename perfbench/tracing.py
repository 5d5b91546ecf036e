"""Outside-in tracing of partlearn's layers.

The tracer wraps public functions and methods of the library from the
benchmark's side: every module that binds a wrapped function gets the
wrapper (``verify_eps_net`` is imported by name into ``cdgbs`` and
``labelling``, for example), and methods are patched on their class.  Each
call records a span ``[name, start, end, parent, instance]`` in memory;
hooks add counts (points, boxes, queries) at the same boundary.  Nothing
under ``src/`` changes, so the traced run must reproduce the untraced run's
queries and certificates exactly.

A span's self time is its duration minus the time covered by its child
spans.  What cannot be seen from outside is listed in perfbench/README.md.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import defaultdict
from time import perf_counter

from partlearn import bimatrix, cdgbs, coverage, crgbs, geometry, labelling, multiplayer, partition

NAME = 0
START = 1
END = 2
PARENT = 3


class Tracer:
    """Span recorder plus counters; ``install`` patches the library."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.instance = None
        self._stack = []
        self._search_depth = 0
        self._oracles = None      # BrOracles of the bimatrix solve in progress
        self._restore = []
        self._originals = []

    # -- spans ---------------------------------------------------------------
    def wrap(self, name: str, fn, after=None):
        """Wrapper of fn that records a span; ``after(args, result)`` adds
        counts once the call returned."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
            spans.append(span)
            stack.append(idx)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _search(self, name: str, fn, count_stats):
        """Wrapper of a search entry point (``fn(cfg, oracle)``): spans, the
        run's stats, and row/column attribution inside a bimatrix solve."""
        inner = self.wrap(name, fn)

        @functools.wraps(fn)
        def traced(cfg, oracle, *args, **kwargs):
            outermost = self._search_depth == 0
            before = oracle.log.count
            self._search_depth += 1
            t0 = perf_counter()
            try:
                lab = inner(cfg, oracle, *args, **kwargs)
            finally:
                self._search_depth -= 1
            seconds = perf_counter() - t0
            count_stats(lab.stats)
            if outermost and self._oracles is not None:
                side = "learn_row" if oracle is self._oracles.row else \
                    "learn_col" if oracle is self._oracles.column else None
                if side:
                    self.counts[f"bimatrix.{side}.queries"] += oracle.log.count - before
                    self.counts[f"bimatrix.{side}.s"] += seconds
            return lab

        return traced

    def _solve(self, fn):
        """solve_wsne: remember which oracle is which, count scan rounds."""
        inner = self.wrap("bimatrix.scan", fn)

        @functools.wraps(fn)
        def traced(oracles, eps, *args, **kwargs):
            self._oracles = oracles
            try:
                cert = inner(oracles, eps, *args, **kwargs)
            finally:
                self._oracles = None
            # the lattice starts at eps/8 and halves once per refine round
            self.counts["bimatrix.scan.rounds"] += \
                1 + round(math.log2((eps / 8.0) / cert.grid_resolution))
            return cert

        return traced

    # -- patching ------------------------------------------------------------
    def _count(self, key: str, value_of):
        counts = self.counts

        def after(args, result):
            counts[key] += value_of(args, result)
        return after

    def _patch_function(self, module, attr: str, wrapper, extra_modules=()) -> None:
        original = getattr(module, attr)
        self._originals.append(original)
        for mod in _partlearn_modules() + list(extra_modules):
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, wrapper) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self, extra_modules=()) -> None:
        """Patch every wrapped function wherever partlearn (or one of
        ``extra_modules``) binds it, and the traced methods on their class."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        c = self._count
        fn = functools.partial(self._patch_function, extra_modules=extra_modules)

        def rows(i):
            return lambda args, result: len(args[i])

        def truthy(args, result):
            return 1 if result else 0

        def cd_stats(stats):
            self.counts["cdgbs.recursions"] += stats.recursions
            self.counts["cdgbs.fixes"] += stats.fixes
            self.counts["cdgbs.merges"] += len(stats.merges)

        def cr_stats(stats):
            self.counts["crgbs.faces"] += len(stats.face_queries)

        fn(cdgbs, "cd_gbs", self._search("cdgbs.search", cdgbs.cd_gbs, cd_stats))
        fn(cdgbs, "cd_gbs_adversarial",
           self._search("cdgbs.search", cdgbs.cd_gbs_adversarial, cd_stats))
        fn(crgbs, "cr_gbs", self._search("crgbs.search", crgbs.cr_gbs, cr_stats))
        fn(coverage, "verify_eps_net", self.wrap(
            "coverage.verify_eps_net", coverage.verify_eps_net,
            c("coverage.verify_eps_net.close", lambda a, r: 1 if r.is_close else 0)))
        fn(coverage, "slab_certificate_2d", self.wrap(
            "coverage.slab_certificate_2d", coverage.slab_certificate_2d,
            c("coverage.slab_certificate_2d.pass", truthy)))
        fn(coverage, "simplex_lattice", self.wrap(
            "coverage.simplex_lattice", coverage.simplex_lattice,
            c("coverage.simplex_lattice.points", lambda a, r: r.shape[0])))
        fn(geometry.hull, "convex_hull", self.wrap("geometry.convex_hull", geometry.convex_hull))
        fn(labelling, "interior_conflict",
           self.wrap("labelling.interior_conflict", labelling.interior_conflict))
        fn(labelling, "is_eps_close", self.wrap("labelling.is_eps_close", labelling.is_eps_close))
        fn(bimatrix, "solve_wsne", self._solve(bimatrix.solve_wsne))
        fn(bimatrix, "voronoi_label_masks", self.wrap(
            "bimatrix.voronoi_label_masks", bimatrix.voronoi_label_masks,
            c("bimatrix.voronoi_label_masks.points", rows(1))))
        fn(bimatrix, "verify_wsne", self.wrap("bimatrix.verify_wsne", bimatrix.verify_wsne))
        fn(multiplayer, "learn_multiplayer_labellings",
           self.wrap("multiplayer.learn", multiplayer.learn_multiplayer_labellings))
        fn(multiplayer, "solve_wsne_multiplayer",
           self.wrap("multiplayer.scan", multiplayer.solve_wsne_multiplayer))
        fn(multiplayer, "verify_wsne_multiplayer",
           self.wrap("multiplayer.verify", multiplayer.verify_wsne_multiplayer))

        hull = geometry.PointHull
        for meth, unit in (("distances", "points"), ("upper_bounds", "points"),
                           ("lower_bounds", "points"), ("contains_boxes", "boxes")):
            key = f"geometry.PointHull.{meth}"
            self._patch_method(hull, meth, self.wrap(
                key, hull.__dict__[meth], c(f"{key}.{unit}", rows(1))))
        self._patch_method(partition.Oracle, "__call__", self.wrap(
            "partition.oracle", partition.Oracle.__call__))
        self._patch_method(multiplayer.MultiBrOracle, "__call__", self.wrap(
            "multiplayer.oracle", multiplayer.MultiBrOracle.__call__))
        self._patch_method(multiplayer.PointLabelling, "l1_distances", self.wrap(
            "multiplayer.l1_distances", multiplayer.PointLabelling.l1_distances,
            c("multiplayer.l1_distances.points", lambda a, r: r.shape[1])))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()
        self._originals.clear()

    def unpatched_bindings(self, extra_modules=()) -> list:
        """(module, name) pairs that still bind an original wrapped function."""
        return [(mod.__name__, key)
                for mod in _partlearn_modules() + list(extra_modules)
                for key, value in vars(mod).items()
                if any(value is orig for orig in self._originals)]


def _partlearn_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "partlearn" or name.startswith("partlearn."))]


def self_times(spans) -> list:
    """Self time of every span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - child[i] for i, s in enumerate(spans)]


def aggregate(spans) -> dict:
    """Per span name: call count, total (inclusive) seconds, self seconds."""
    selfs = self_times(spans)
    out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s, own in zip(spans, selfs):
        agg = out[s[NAME]]
        agg["calls"] += 1
        agg["s"] += s[END] - s[START]
        agg["self_s"] += own
    return dict(out)
