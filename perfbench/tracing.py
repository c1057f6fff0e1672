"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions of every `powg` module, plus
the few methods named in `METHODS`, and rebinds each wrapper wherever powg
imported the original, so calls between modules are traced too; nothing
under `src/` is edited.  Each wrapper accumulates a call count, inclusive
time and self time (inclusive time minus the time of nested traced calls)
per function instead of keeping one span per call, because functions such
as `bfs_distances` and `complete_graph_matchings` run per vertex or per term.
Counters are taken from public return values and `MatchingEngine.stats`.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("groups", "graphs", "distance", "matching", "formulas", "report", "cli")

# complete_graph_matchings is defined in powg.matching, but it is the
# closed-form K_n table factor and only the closed-form evaluators call it,
# so its time belongs to the formulas layer.
LAYER_OVERRIDES = {"matching.complete_graph_matchings": "formulas.complete_graph_matchings"}

# (module, class, method) -> traced name
METHODS = {
    ("matching", "MatchingEngine", "run"): "matching.engine",
    ("report", "ResultCache", "get"): "report.cache.get",
    ("report", "ResultCache", "put"): "report.cache.put",
}


def _engine_counts(args, result):
    stats = args[0].stats
    return {"matching.engine_runs": 1, "matching.memo_entries": stats["memo_entries"],
            "matching.subproblems": stats["subproblems"]}


def _table_entries(args, result):
    return {"groups.table_entries": result.order ** 2}


# traced name -> counters derived from (args, return value)
COUNTERS = {
    "groups.build_family": _table_entries,
    "groups.build_cyclic": _table_entries,
    "groups.load_cayley_table": _table_entries,
    "graphs.build_power_graph": lambda a, r: {"graphs.edges": r.edge_count},
    "distance.hosoya_polynomial":
        lambda a, r: {"distance.vertex_pairs": sum(r.counts) + r.unreachable_pairs},
    "matching.engine": _engine_counts,
    "formulas.paper_hosoya_index": lambda a, r: {"formulas.family_terms": len(r[1])},
    "report.render_report": lambda a, r: {"report.report_bytes": len(r.encode("utf-8"))},
    "report.cache.get": lambda a, r: {"report.cache.hits": int(r is not None)},
    "report.cache.put": lambda a, r: {"report.cache.puts": 1},
    "cli.main": lambda a, r: {"cli.ops": 1},
}

SELF_TIMES = (
    "groups.load_cayley_table", "groups.build_family", "groups.element_order",
    "graphs.build_power_graph", "graphs.classify_edges", "graphs.verify_structure_theorem",
    "distance.hosoya_polynomial", "distance.rs_hosoya_polynomial",
    "matching.engine",
    "formulas.paper_hosoya_index", "formulas.paper_rs_hosoya",
    "formulas.complete_graph_matchings",
    "report.compare", "report.render_report", "report.cache.put",
    "cli.main",
)
CALL_COUNTS = ("groups.element_order", "distance.bfs_distances",
               "formulas.complete_graph_matchings")
COUNTS = ("groups.table_entries", "graphs.edges", "distance.vertex_pairs",
          "matching.engine_runs", "matching.memo_entries", "matching.subproblems",
          "formulas.family_terms", "report.report_bytes", "report.cache.puts",
          "report.cache.hits", "cli.ops")


class Tracer:
    """Wraps powg while installed and accumulates per-function statistics."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self._child_time: list[float] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def _wrap(self, name: str, fn):
        calls, self_s, counts = self.calls, self.self_s, self.counts
        child_time = self._child_time
        derive = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child_time.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                self_s[name] += elapsed - child_time.pop()
                calls[name] += 1
                if child_time:
                    child_time[-1] += elapsed
            if derive is not None:
                counts.update(derive(args, result))
            return result

        return traced

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"powg.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    name = f"{layer}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(LAYER_OVERRIDES.get(name, name), obj))
        # rebind in every powg namespace that imported an original
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "powg" and not mod_name.startswith("powg."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        for (layer, cls_name, attr), name in METHODS.items():
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, attr, self._wrap(name, vars(cls)[attr]))

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, seconds in self.self_s.items():
            out[name.split(".", 1)[0]] += seconds
        return out

    def pass_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the calls traced since the last reset."""
        metrics = {f"{name}.self_s": self.self_s[name] for name in SELF_TIMES}
        metrics.update({f"{name}.calls": self.calls[name] for name in CALL_COUNTS})
        metrics.update({name: self.counts[name] for name in COUNTS})
        return metrics
