"""Span tracing of cayleyx, installed from outside the package.

``Tracer.install`` wraps every public function and every public method of
the modules in ``MODULES``.  Names are patched where they are looked up:
a function imported into another module (``constructions.spectrum_by_characters``
next to ``spectral.spectrum_by_characters``) is replaced in every namespace
that binds it, by one shared wrapper, and methods are replaced on their
class.  ``ConnectionSet.__post_init__`` is wrapped too, because connection-set
validation lives there.

A span records (name, start, end, parent).  Spans stay in memory until the
caller reads them; a span's self time is its duration minus the durations
of its direct children.  A generator is timed over its full iteration, one
span per resumption, so time the consumer spends between items is not
charged to it.

The group operations in ``TUPLE_OPS`` run in the innermost loops (one per
BFS edge), so they are counted but get no span: their time stays in the
caller's self time.

A wrapped name that a later version of cayleyx no longer has is skipped, and
``layer_metrics`` reports the layers that depended only on missing names in
``absent`` instead of failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import weakref
from collections import Counter
from time import perf_counter

MODULES = ("groups", "gf2", "constructions", "graphs", "spectral", "groupring",
           "search", "cli")

TUPLE_OPS = tuple(f"groups.AbelianGroup.{m}"
                  for m in ("add", "sub", "neg", "element", "index_of"))
SCALAR_OPS = tuple(f"gf2.Gf2Field.{m}"
                   for m in ("mul", "inv", "trace", "frobenius", "subfield_trace"))
CONNECTION_SET = "graphs.ConnectionSet.__post_init__"
ADJACENCY = "graphs.CayleyGraph.adjacency_matrix"
SERIALIZE = tuple(f"graphs.CayleyGraph.{m}"
                  for m in ("to_json", "from_json", "to_json_str", "to_dot"))
# search generator -> the call that certifies one of its survivors
CERTIFIERS = {
    "search.search_ramanujan_circulant": "spectral.ramanujan_check",
    "groupring.search_gds": "groupring.verify_gds",
}

# (metric, unit, better, kind, span names); kind "self" sums self time,
# "calls" sums call counts, "module" sums self time over a whole module.
LAYER_METRICS = [
    ("groups.character_sum_table.s", "s", "lower", "self",
     ["groups.AbelianGroup.character_sum_table"]),
    ("groups.tuple_ops", "count", "lower", "calls", list(TUPLE_OPS)),
    ("groups.self_s", "s", "lower", "module", ["groups"]),
    ("gf2.s", "s", "lower", "module", ["gf2"]),
    ("gf2.scalar_ops", "count", "lower", "calls", list(SCALAR_OPS)),
    ("constructions.self_s", "s", "lower", "module", ["constructions"]),
    ("graphs.connection_set.s", "s", "lower", "self", [CONNECTION_SET]),
    ("graphs.stats.s", "s", "lower", "self", ["graphs.CayleyGraph.stats"]),
    ("graphs.stats.calls", "count", "lower", "calls", ["graphs.CayleyGraph.stats"]),
    # the matrix is filled row by row from neighbor_indices, which no
    # workload calls otherwise (it also serves --format dot)
    ("graphs.adjacency_matrix.s", "s", "lower", "self",
     [ADJACENCY, "graphs.CayleyGraph.neighbor_indices"]),
    ("graphs.adjacency_bytes", "bytes", "lower", "adjacency_bytes", [ADJACENCY]),
    ("graphs.srg_check.s", "s", "lower", "self", ["graphs.CayleyGraph.srg_check"]),
    ("graphs.serialize.s", "s", "lower", "self", list(SERIALIZE)),
    ("graphs.self_s", "s", "lower", "module", ["graphs"]),
    ("spectral.spectrum_by_characters.s", "s", "lower", "self",
     ["spectral.spectrum_by_characters"]),
    ("spectral.spectrum_by_characters.calls", "count", "lower", "calls",
     ["spectral.spectrum_by_characters"]),
    ("spectral.ramanujan_check.s", "s", "lower", "self", ["spectral.ramanujan_check"]),
    ("spectral.spectrum_oracle.s", "s", "lower", "self", ["spectral.spectrum_oracle"]),
    ("spectral.crossing_counts_batch.s", "s", "lower", "self",
     ["spectral.crossing_counts_batch"]),
    ("spectral.self_s", "s", "lower", "module", ["spectral"]),
    ("groupring.verify_gds.s", "s", "lower", "self", ["groupring.verify_gds"]),
    ("groupring.verify_gds.calls", "count", "lower", "calls", ["groupring.verify_gds"]),
    ("groupring.difference_counts.s", "s", "lower", "self",
     ["groupring.difference_counts"]),
    ("groupring.self_s", "s", "lower", "module", ["groupring"]),
    ("search.certified", "count", "lower", "certified", list(CERTIFIERS)),
    ("search.hits", "count", "higher", "hits", list(CERTIFIERS)),
    ("search.self_s", "s", "lower", "module", ["search"]),
    ("cli.construct.s", "s", "lower", "self", ["cli.cmd_construct"]),
    ("cli.analyze.s", "s", "lower", "self", ["cli.cmd_analyze"]),
    ("cli.search.s", "s", "lower", "self", ["cli.cmd_search"]),
    ("cli.self_s", "s", "lower", "module", ["cli"]),
]


class Tracer:
    """Spans and counts for one traced pass at a time (see module doc)."""

    def __init__(self):
        self._patches = []
        self._wrappers = {}
        self.present = set()
        self.spans = []
        self._stack = []
        self.calls = Counter()
        self.yields = Counter()
        self.adjacency_bytes = 0
        self._adjacency_built = weakref.WeakSet()

    def reset(self):
        """Forget the spans and counts of the previous pass (the wrappers
        hold references to these containers, so they are cleared in place)."""
        self.spans.clear()
        self._stack.clear()
        self.calls.clear()
        self.yields.clear()
        self.adjacency_bytes = 0
        self._adjacency_built.clear()

    # -- installing -------------------------------------------------------

    def install(self):
        """Wrap the public names of every module in MODULES, as imported now."""
        self.present.clear()
        modules = [importlib.import_module(f"cayleyx.{m}") for m in MODULES]
        for mod in modules:
            short = mod.__name__.split(".", 1)[1]
            for cls in vars(mod).values():
                if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                    self._install_class(short, cls)
        for ns in [importlib.import_module("cayleyx")] + modules:
            for attr, obj in list(vars(ns).items()):
                name = _function_name(obj)
                if name and not attr.startswith("_"):
                    self._patch(ns, attr, self._wrap(obj, name))

    def _install_class(self, short, cls):
        for attr, raw in list(vars(cls).items()):
            name = f"{short}.{cls.__qualname__}.{attr}"
            if attr.startswith("_") and name != CONNECTION_SET:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(raw.__func__, name)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap(raw, name))

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)
        self._wrappers.clear()

    def _wrap(self, fn, name):
        if id(fn) in self._wrappers:
            return self._wrappers[id(fn)]
        self.present.add(name)
        calls = self.calls
        if name in TUPLE_OPS:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
        elif inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx, start = self._enter()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            self._exit(idx, name, start)
                        self.yields[name] += 1
                        yield item
                finally:
                    it.close()
        else:
            counts_matrix = name == ADJACENCY

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                calls[name] += 1
                idx, start = self._enter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._exit(idx, name, start)
                if counts_matrix and args[0] not in self._adjacency_built:
                    # computed, not measured: one n x n int64 matrix per graph
                    self._adjacency_built.add(args[0])
                    self.adjacency_bytes += args[0].n ** 2 * 8
                return result
        self._wrappers[id(fn)] = wrapper
        return wrapper

    def _enter(self):
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, perf_counter()

    def _exit(self, idx, name, start):
        end = perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, self._stack[-1] if self._stack else -1)

    # -- reading ----------------------------------------------------------

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for i, (name, start, end, parent) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def certified(self):
        """Certifier calls made directly by a search generator."""
        return sum(1 for name, _, _, parent in self.spans
                   if parent >= 0 and CERTIFIERS.get(self.spans[parent][0]) == name)

    def layer_metrics(self, scanned):
        """(metrics, absent): every LAYER_METRICS value for the pass just
        traced, plus search.scanned and search.hit_ratio; ``absent`` lists
        the metrics none of whose names exist in the installed cayleyx."""
        selfs = self.self_times()
        values = {}
        absent = []
        for metric, _unit, _better, kind, names in LAYER_METRICS:
            if kind != "module" and not self.present.intersection(names):
                absent.append(metric)
                values[metric] = 0
            elif kind == "self":
                values[metric] = sum(selfs[n] for n in names)
            elif kind == "calls":
                values[metric] = sum(self.calls[n] for n in names)
            elif kind == "module":
                values[metric] = sum(t for n, t in selfs.items()
                                     if n.startswith(names[0] + "."))
            elif kind == "adjacency_bytes":
                values[metric] = self.adjacency_bytes
            elif kind == "certified":
                values[metric] = self.certified()
            elif kind == "hits":
                values[metric] = sum(self.yields[n] for n in names)
        values["search.scanned"] = scanned
        values["search.hit_ratio"] = values["search.hits"] / scanned if scanned else 0.0
        return values, absent


def _function_name(obj):
    """Span name of a cayleyx module-level function (plain or lru-cached)."""
    if inspect.isclass(obj) or not callable(obj):
        return None
    module = getattr(obj, "__module__", None) or ""
    short = module.split(".", 1)[1] if module.startswith("cayleyx.") else None
    if short not in MODULES or not hasattr(obj, "__qualname__"):
        return None
    return f"{short}.{obj.__qualname__}"


def median_metrics(per_pass):
    """Median of each metric over a list of per-pass metric dicts; a count
    takes the lower middle value, so it stays a whole number."""
    out = {}
    for m in per_pass[0]:
        values = [p[m] for p in per_pass]
        exact = all(isinstance(v, int) for v in values)
        out[m] = statistics.median_low(values) if exact else statistics.median(values)
    return out
