"""Per-layer spans, recorded from outside naphopf with ``sys.setprofile``.

The profile hook keeps only calls whose code object belongs to one of the
layer functions below, so a call is caught however its name was imported.
Each span has an id, its parent span, a name, a start and an end; a
layer's self time is its spans' durations minus their child spans.  For a
function behind ``lru_cache`` only misses enter the Python function, so
its calls are misses and its hits come from ``cache_info()``.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time

# functions whose spans are recorded, by module; a span is named
# "<module>.<function>"
TRACED = {
    "trees": ("compose_shapes", "nap_compose", "canonical_representative",
              "slot_compositions", "parse_tree"),
    "series": ("series_multiply", "series_inverse", "lie_bracket"),
    "posets": ("interval_of", "mobius"),
    "hopf": ("hnap_coproduct", "antipode", "antipode_monomial",
             "g_structure_constants", "qgnap_coproduct", "ck_coproduct",
             "_ck_tree_coproduct"),
    "cli": ("main",),
}
SUITES = ("poset", "mobius", "hopf", "main-theorem", "ck-iso", "series", "projections")

# caches: metric stem -> (module, attribute, traced span whose calls front
# the cache or None for lru_cache)
CACHES = {
    "trees.compose_shapes": ("trees", "_COMPOSE_CACHE", "trees.compose_shapes"),
    "trees.slot_compositions": ("trees", "_SLOT_CACHE", "trees.slot_compositions"),
    "trees.aut_order": ("trees", "aut_order", None),
    "trees.enumerate_trees": ("trees", "enumerate_trees", None),
    "posets.interval_of": ("posets", "interval_of", None),
    "posets.mobius": ("posets", "mobius", None),
    "hopf.hnap_coproduct": ("hopf", "hnap_coproduct", None),
    "hopf.g_structure_constants": ("hopf", "g_structure_constants", None),
    "hopf.qgnap_coproduct": ("hopf", "qgnap_coproduct", None),
    "hopf.ck_tree_coproduct": ("hopf", "_ck_tree_coproduct", None),
    "hopf.antipode_monomial": ("hopf", "_ANTIPODE_CACHE", "hopf.antipode_monomial"),
}

# per-layer metrics: name -> unit
LAYER_METRICS = {
    "trees.compose_shapes.calls": "count",
    "trees.compose_shapes.self_s": "s",
    "trees.nap_compose.calls": "count",
    "trees.nap_compose.self_s": "s",
    "trees.canonical_representative.self_s": "s",
    "trees.slot_compositions.calls": "count",
    "trees.parse_tree.self_s": "s",
    "series.series_multiply.self_s": "s",
    "series.series_inverse.self_s": "s",
    "series.lie_bracket.calls": "count",
    "series.lie_bracket.self_s": "s",
    "posets.interval_of.calls": "count",
    "posets.interval_of.self_s": "s",
    "posets.ideals": "count",
    "posets.mobius.self_s": "s",
    "hopf.hnap_coproduct.self_s": "s",
    "hopf.hnap_coproduct.terms": "count",
    "hopf.antipode.self_s": "s",
    "hopf.g_structure_constants.self_s": "s",
    "hopf.ck_coproduct.self_s": "s",
    **{f"verify.{s}.s": "s" for s in SUITES},
    "cli.import_s": "s",
    "cli.main.self_s": "s",
    **{f"{c}.{k}": u for c in CACHES
       for k, u in (("hits", "count"), ("entries", "count"), ("hit_ratio", "ratio"))},
    "trace.slowdown": "ratio",
    "trace.spans": "count",
}

# span names whose self time is reported under another name
SELF_GROUPS = {"hopf.antipode_monomial": "hopf.antipode",
               "hopf._ck_tree_coproduct": "hopf.ck_coproduct"}


def _unwrapped_code(fn):
    fn = inspect.unwrap(fn)
    code = getattr(fn, "__code__", None)
    if code is None or code.co_flags & inspect.CO_GENERATOR:
        return None
    return code


class Tracer:
    """Records spans of the layer functions of an imported naphopf."""

    def __init__(self, modules: dict) -> None:
        self.modules = modules
        self.names = {}
        for mod, fns in TRACED.items():
            for fn in fns:
                code = _unwrapped_code(getattr(modules[mod], fn, None))
                if code is not None:
                    self.names[code] = f"{mod}.{fn}"
        registry = getattr(modules["verify"], "_REGISTRY", None)
        if registry is None:
            print("tracer: naphopf.verify has no check registry; "
                  "verify.<suite>.s reads 0", file=sys.stderr)
        for suite, _, fn in registry or ():
            code = _unwrapped_code(fn)
            if code is not None:
                self.names[code] = f"verify.{suite}"
        self.compose_code = next((c for c, n in self.names.items()
                                  if n == "trees.compose_shapes"), None)
        self.spans: list = []
        self.calls: dict = {}
        self.self_s: dict = {}
        self.total_s: dict = {}
        self.counts = {"hopf.hnap_coproduct.terms": 0, "posets.ideals": 0,
                       "trees.compose_shapes.uncached": 0}
        self._stack: list = []
        self._next_id = 0
        self._cache_before: dict = {}

    # -- the hook --------------------------------------------------------

    def _hook(self, frame, event, arg) -> None:
        if event == "call":
            code = frame.f_code
            name = self.names.get(code)
            if name is None:
                return
            if code is self.compose_code and frame.f_locals.get("representative") is not None:
                self.counts["trees.compose_shapes.uncached"] += 1
            self._next_id += 1
            parent = self._stack[-1][1] if self._stack else 0
            self._stack.append([frame, self._next_id, parent, name, time.perf_counter(), 0.0])
        elif event == "return" and self._stack and self._stack[-1][0] is frame:
            end = time.perf_counter()
            _, sid, parent, name, start, child = self._stack.pop()
            dur = end - start
            if self._stack:
                self._stack[-1][5] += dur
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
            self.spans.append((sid, parent, name, start, end))
            if name == "hopf.hnap_coproduct" and arg is not None:
                self.counts["hopf.hnap_coproduct.terms"] += len(arg.terms)
            elif name == "posets.interval_of" and arg is not None:
                self.counts["posets.ideals"] += len(arg)

    def __enter__(self) -> "Tracer":
        self._cache_before = self._cache_state()
        sys.setprofile(self._hook)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        self._stack.clear()

    # -- caches ------------------------------------------------------------

    def _cache_state(self) -> dict:
        out = {}
        for stem, (mod, attr, _) in CACHES.items():
            obj = getattr(self.modules[mod], attr, None)
            if hasattr(obj, "cache_info"):
                info = obj.cache_info()
                out[stem] = (info.hits, info.misses, info.currsize)
            elif isinstance(obj, dict):
                out[stem] = (None, None, len(obj))
            else:
                out[stem] = (0, 0, 0)
        return out

    def cache_metrics(self) -> dict:
        after = self._cache_state()
        out = {}
        for stem, (h1, m1, size1) in after.items():
            h0, m0, size0 = self._cache_before.get(stem, (0, 0, 0))
            if h1 is None:
                # a dict cache grows by one entry per miss; calls that bypass
                # it (compose_shapes with an explicit representative) are misses
                front = CACHES[stem][2]
                misses = size1 - size0
                if front == "trees.compose_shapes":
                    misses += self.counts["trees.compose_shapes.uncached"]
                hits = max(self.calls.get(front, 0) - misses, 0)
            else:
                hits, misses = h1 - h0, m1 - m0
            out[f"{stem}.hits"] = hits
            out[f"{stem}.entries"] = size1
            out[f"{stem}.misses"] = misses
        return out

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> dict:
        """Summable per-layer figures of this tracer (see ``merge``)."""
        out = {}
        for name, s in self.self_s.items():
            group = SELF_GROUPS.get(name, name)
            out[f"{group}.self_s"] = out.get(f"{group}.self_s", 0.0) + s
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n
        for suite in SUITES:
            out[f"verify.{suite}.s"] = self.total_s.get(f"verify.{suite}", 0.0)
        out["posets.ideals"] = self.counts["posets.ideals"]
        out["hopf.hnap_coproduct.terms"] = self.counts["hopf.hnap_coproduct.terms"]
        out["trace.spans"] = len(self.spans)
        out.update(self.cache_metrics())
        return out

    def write_spans(self, path: str, label: str) -> None:
        """Append the spans to a gzipped file, one JSON list per line:
        [label, id, parent id (0 for none), name, start s, end s]."""
        with gzip.open(path, "at", encoding="utf-8", compresslevel=1) as fh:
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([label, sid, parent, name,
                                     round(start, 7), round(end, 7)]) + "\n")


def merge(parts: list[dict], rounds: int, import_s: float, slowdown: float) -> dict:
    """Per-round per-layer metrics from the totals of several tracers.

    Counts and times are summed and divided by the number of traced rounds;
    cache entries are the largest any process held; hit ratios come from the
    summed hits and misses.
    """
    total: dict = {}
    for part in parts:
        for k, v in part.items():
            if k.endswith(".entries"):
                total[k] = max(total.get(k, 0), v)
            else:
                total[k] = total.get(k, 0) + v
    out = {}
    for name, unit in LAYER_METRICS.items():
        if name.endswith(".entries"):
            value = total.get(name, 0)
        elif name.endswith(".hit_ratio"):
            stem = name[: -len(".hit_ratio")]
            hits, misses = total.get(f"{stem}.hits", 0), total.get(f"{stem}.misses", 0)
            value = hits / (hits + misses) if hits + misses else 0.0
        elif name == "cli.import_s":
            value = import_s
        elif name == "trace.slowdown":
            value = slowdown
        else:
            value = total.get(name, 0) / rounds
        out[name] = {"value": value, "unit": unit}
    return out
