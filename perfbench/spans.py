"""Spans around rainbowlab's public functions, recorded from outside the package.

``instrument`` wraps every public module-level function of the six modules
and the public methods of ``Cache``, and rebinds every reference to them in
the package, so calls made through ``from .core import x`` are seen too.
Each call appends one span ``[name, start, end, parent, extra]`` to an
in-memory list; a generator function gets one span per resumption.  ``extra``
holds what the per-layer metrics count at that boundary (search nodes, copies
returned, cache hits, a digest of the hypergraph given to canonical_form).

``layer_metrics`` turns the spans of one round into the per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import statistics
import sys
import time

MODULES = ("core", "constructions", "turan", "antiramsey", "cache", "cli")


def _digest(H):
    return hashlib.sha1(repr((H.r, H.n, H.edges)).encode()).hexdigest()[:12]


#: what to record, from (args, result), at the boundaries the metrics count
OBSERVE = {
    "turan.ex_exact": lambda args, res: res.nodes,
    "antiramsey.ar_exact": lambda args, res: res.nodes,
    "turan.subgraph_copies": lambda args, res: len(res),
    "core.canonical_form": lambda args, res: _digest(args[0]),
    "cache.Cache.load_turan": lambda args, res: int(res is not None),
    "cache.Cache.load_ar": lambda args, res: int(res is not None),
}


class Recorder:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _enter(self, name):
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _exit(self, span):
        span[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn):
        observe = OBSERVE.get(name)
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        span = self._enter(name)
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            self._exit(span)
                        yield item
                finally:
                    gen.close()

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if observe is not None:
                span[4] = observe(args, result)
            return result

        return traced


def instrument(recorder):
    """Wrap rainbowlab's public functions with spans; import the package first."""
    mods = {m: importlib.import_module(f"rainbowlab.{m}") for m in MODULES}
    wrapped = {}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and not attr.startswith("_") and obj.__module__ == mod.__name__:
                wrapped[obj] = recorder.wrap(f"{short}.{attr}", obj)
    cache_cls = mods["cache"].Cache
    for attr, obj in list(vars(cache_cls).items()):
        if inspect.isfunction(obj) and not attr.startswith("_"):
            setattr(cache_cls, attr, recorder.wrap(f"cache.Cache.{attr}", obj))
    for name, mod in list(sys.modules.items()):
        if name == "rainbowlab" or name.startswith("rainbowlab."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])


# -- aggregation ---------------------------------------------------------------------


def _analyse(spans):
    """Per span: self time, and whether an ancestor span has the same name."""
    self_time = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            self_time[s[3]] -= s[2] - s[1]
    nested = []
    for s in spans:
        p = s[3]
        while p >= 0 and spans[p][0] != s[0]:
            p = spans[p][3]
        nested.append(p >= 0)
    return self_time, nested


def layer_metrics(procs, wall_s, untraced_wall_s):
    """Per-layer metrics of one traced round.

    ``procs`` holds one dict per process of the round: ``spans``, and for a
    `lab` command ``startup_s`` (spawn until ``import rainbowlab.cli``
    returned).  ``wall_s`` is the traced round's wall time and
    ``untraced_wall_s`` that of an untraced round of the same run.
    """
    incl, calls, extras = {}, {}, {}
    self_by_module = dict.fromkeys(MODULES, 0.0)
    parse = []
    for proc in procs:
        spans = proc["spans"]
        self_time, nested = _analyse(spans)
        for s, st, inner in zip(spans, self_time, nested):
            name = s[0]
            self_by_module[name.split(".", 1)[0]] += st
            calls[name] = calls.get(name, 0) + 1
            if s[4] is not None:
                extras.setdefault(name, []).append(s[4])
            if not inner:
                incl[name] = incl.get(name, 0.0) + s[2] - s[1]
            if name == "cli.build_parser":
                parse.append(s[2] - s[1])

    def t(*names):
        return sum(incl.get(n, 0.0) for n in names)

    def c(*names):
        return sum(calls.get(n, 0) for n in names)

    def total(name):
        return sum(extras.get(name, []))

    loads = ("cache.Cache.load_turan", "cache.Cache.load_ar")
    stores = ("cache.Cache.store_turan", "cache.Cache.store_ar", "cache.Cache.store_coloring")
    ex_s, ar_s = t("turan.ex_exact"), t("antiramsey.ar_exact")
    ex_nodes, ar_nodes = total("turan.ex_exact"), total("antiramsey.ar_exact")
    hits = sum(total(n) for n in loads)
    startups = [p["startup_s"] for p in procs if "startup_s" in p]
    module_self = sum(self_by_module.values())
    m = {
        "search_nodes": (ex_nodes + ar_nodes, "count"),
        "turan.ex_s": (ex_s, "s"),
        "turan.ex_calls": (c("turan.ex_exact"), "count"),
        "turan.ex_nodes": (ex_nodes, "count"),
        "turan.ex_nodes_per_s": (ex_nodes / ex_s if ex_s else 0.0, "1/s"),
        "antiramsey.ar_s": (ar_s, "s"),
        "antiramsey.ar_calls": (c("antiramsey.ar_exact"), "count"),
        "antiramsey.ar_nodes": (ar_nodes, "count"),
        "antiramsey.ar_nodes_per_s": (ar_nodes / ar_s if ar_s else 0.0, "1/s"),
        "turan.copies_s": (t("turan.subgraph_copies"), "s"),
        "turan.copies": (total("turan.subgraph_copies"), "count"),
        "cli.startup_ms": (1000 * statistics.median(startups) if startups else 0.0, "ms"),
        "cli.parse_ms": (1000 * statistics.median(parse) if parse else 0.0, "ms"),
        "core.canonical_s": (t("core.canonical_form"), "s"),
        "core.canonical_calls": (c("core.canonical_form"), "count"),
        "core.canonical_distinct": (len(set(extras.get("core.canonical_form", []))), "count"),
        "core.containment_s": (t("core.contains_member"), "s"),
        "cache.load_s": (t(*loads), "s"),
        "cache.loads": (c(*loads), "count"),
        "cache.hit_ratio": (hits / c(*loads) if c(*loads) else 0.0, "ratio"),
        "cache.store_s": (t(*stores), "s"),
        "cache.stores": (c(*stores), "count"),
        "cache.manifest_s": (t("cache.Cache.write_manifest"), "s"),
        "antiramsey.cert_s": (t("antiramsey.find_rainbow_copy"), "s"),
        "antiramsey.cert_calls": (c("antiramsey.find_rainbow_copy"), "count"),
        "constructions.edge_sum_s": (t("constructions.edge_sum_family"), "s"),
        "trace.wall_s": (wall_s, "s"),
        "trace.overhead": (wall_s / untraced_wall_s - 1, "ratio"),
        "trace.unaccounted_s": (wall_s - sum(startups) - module_self, "s"),
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = (self_by_module[mod], "s")
    return m
