"""Span tracer for the benchmark's traced runs.

It replaces public mwb functions by timing wrappers from outside the
package: every module-level name (and the catalog class attribute) that is
bound to a wrapped function is rebound to its wrapper, so calls between
layers that look the name up at call time are timed too.  No line of
``src/`` is involved.  Spans (name, start, end, parent) stay in memory and
are written out when the run ends.
"""
from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter


def _count_reduce(counters, args, kwargs, result):
    stats = result[2]
    counters["flips.reduce_moves"] += stats["moves"]
    counters["flips.heating_phases"] += stats["heating_phases"]
    counters["flips.reverts"] += stats["reverts"]


def _count_walk(counters, args, kwargs, result):
    counters["flips.walk_steps"] += len(result[1])


def _count_replay(counters, args, kwargs, result):
    trace = args[1] if len(args) > 1 else kwargs["trace"]
    counters["flips.replay_moves"] += len(trace)


def _count_census(counters, args, kwargs, result):
    counters["census.classes"] += result if isinstance(result, int) else result.total()


# (owner, attribute, span name, result hook): the layer boundaries.  An
# owner is a module, or "module:Class" for a method.
LAYERS = (
    ("mwb.flips", "reduce", "flips.reduce", _count_reduce),
    ("mwb.flips", "random_walk", "flips.random_walk", _count_walk),
    ("mwb.flips", "replay", "flips.replay", _count_replay),
    ("mwb.census", "enumerate_surfaces", "census.enumerate", _count_census),
    ("mwb.census", "enumerate_spheres", "census.enumerate", _count_census),
    ("mwb.iso", "canonical_form", "iso.canonical_form", None),
    ("mwb.iso", "automorphism_group", "iso.automorphism_group", None),
    ("mwb.iso", "are_isomorphic", "iso.are_isomorphic", None),
    ("mwb.iso", "as_determinant", "iso.as_determinant", None),
    ("mwb.homology", "homology", "homology.homology", None),
    ("mwb.homology", "betti", "homology.betti", None),
    ("mwb.homology", "orientability", "homology.orientability", None),
    ("mwb.core", "is_combinatorial_manifold", "core.is_combinatorial_manifold", None),
    ("mwb.cli", "main", "cli.main", None),
    ("mwb.bounds", "bound_report", "bounds.bound_report", None),
    ("mwb.tri_io", "write_trace", "tri_io.write_trace", None),
    ("mwb.tri_io", "parse_trace", "tri_io.parse_trace", None),
    ("mwb.catalog:CatalogEntry", "load", "catalog.load", None),
    ("mwb.constructions", "boundary_simplex", "constructions.build", None),
    ("mwb.constructions", "product", "constructions.build", None),
    ("mwb.constructions", "twisted_bundle", "constructions.build", None),
)

SETUP = "bench.setup"
OP = "bench.op:"


def _resolve(path):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.counters = Counter()
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        self.spans[idx][1] = perf_counter()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result
        return traced

    def install(self):
        for path, attr, name, hook in LAYERS:
            owner = _resolve(path)
            original = getattr(owner, attr)
            traced = self._wrap(original, name, hook)
            holders = [owner] + [m for key, m in list(sys.modules.items())
                                 if key == "mwb" or key.startswith("mwb.")]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, traced)
                        self._undo.append((holder, key, original))

    def uninstall(self):
        for holder, key, original in reversed(self._undo):
            setattr(holder, key, original)
        self._undo.clear()

    def summary(self):
        """For every span: the time covered by its direct children, the
        name of its root span, and whether it is the outermost span of its
        name (inclusive totals add only those, so a layer that calls itself
        through a wrapper is not counted twice)."""
        spans = self.spans
        child = [0.0] * len(spans)
        root = [None] * len(spans)
        outer = [True] * len(spans)
        for i, (name, start, end, parent) in enumerate(spans):
            if parent is not None:
                child[parent] += end - start
            p = parent
            r = name
            while p is not None:
                if spans[p][0] == name:
                    outer[i] = False
                r = spans[p][0]
                p = spans[p][3]
            root[i] = r
        return child, root, outer

    def metrics(self, homology_cache_hits):
        """The per-layer metrics of the timed part (spans under a bench.op
        root), plus the set-up share of catalog loads and constructions."""
        child, root, outer = self.summary()
        total = Counter()
        calls = Counter()
        longest = Counter()
        setup_total = Counter()
        census_self = 0.0
        leaves = 0
        for i, (name, start, end, parent) in enumerate(self.spans):
            dur = end - start
            if root[i] == SETUP:
                if outer[i]:
                    setup_total[name] += dur
                continue
            if not root[i].startswith(OP):
                continue
            calls[name] += 1
            longest[name] = max(longest[name], dur)
            if outer[i]:
                total[name] += dur
            if name == "census.enumerate":
                census_self += dur - child[i]
            if (name == "iso.canonical_form" and parent is not None
                    and self.spans[parent][0] == "census.enumerate"):
                leaves += 1
        c = self.counters

        def rate(count, seconds):
            return count / seconds if seconds else 0.0

        cf_calls = calls["iso.canonical_form"]
        return {
            "flips.reduce_s": total["flips.reduce"],
            "flips.reduce_moves_per_s": rate(c["flips.reduce_moves"], total["flips.reduce"]),
            "flips.walk_s": total["flips.random_walk"],
            "flips.walk_steps_per_s": rate(c["flips.walk_steps"], total["flips.random_walk"]),
            "flips.replay_s": total["flips.replay"],
            "flips.replay_moves_per_s": rate(c["flips.replay_moves"], total["flips.replay"]),
            "flips.reduce_moves": c["flips.reduce_moves"],
            "flips.heating_phases": c["flips.heating_phases"],
            "flips.reverts": c["flips.reverts"],
            "census.enumerate_s": total["census.enumerate"],
            "census.self_s": census_self,
            "census.leaves": leaves,
            "census.classes": c["census.classes"],
            "census.class_yield": rate(c["census.classes"], leaves),
            "iso.canonical_form_s": total["iso.canonical_form"],
            "iso.canonical_form_calls": cf_calls,
            "iso.canonical_form_mean_ms": 1000 * rate(total["iso.canonical_form"], cf_calls),
            "iso.canonical_form_max_s": longest["iso.canonical_form"],
            "iso.automorphism_group_s": total["iso.automorphism_group"],
            "iso.are_isomorphic_s": total["iso.are_isomorphic"],
            "iso.as_determinant_s": total["iso.as_determinant"],
            "homology.homology_s": total["homology.homology"],
            "homology.homology_calls": calls["homology.homology"],
            "homology.cache_hits": homology_cache_hits,
            "homology.betti_s": total["homology.betti"],
            "homology.orientability_s": total["homology.orientability"],
            "core.is_combinatorial_manifold_s": total["core.is_combinatorial_manifold"],
            "cli.verify_catalog_s": total["cli.main"],
            "bounds.bound_report_s": total["bounds.bound_report"],
            "tri_io.trace_write_s": total["tri_io.write_trace"],
            "tri_io.trace_parse_s": total["tri_io.parse_trace"],
            "catalog.load_s": setup_total["catalog.load"],
            "constructions.build_s": setup_total["constructions.build"],
        }

    def by_name(self):
        """Calls, inclusive and self seconds for every span name."""
        child, root, outer = self.summary()
        out = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            if outer[i]:
                row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out
