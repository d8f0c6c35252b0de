"""Outside-in tracing of mugci's layers.

``Tracer.install`` wraps, at run time, each public function and method that
the per-layer metrics name.  A wrapped module-level function is replaced in
every ``mugci`` module that binds it (``closure`` lives in ``graphoid`` and
is also bound in ``cli`` and the package), so every lookup the program makes
goes through the wrapper.  Methods are replaced on their class.

Each call records a span: layer name, start, end, the enclosing span and the
current job id.  Spans stay in memory, in flat arrays, until the run ends;
``layer_metrics`` then turns them into ``<module>.<function>.<stat>``
metrics.  A span's self time is its duration minus the time its child spans
cover.  ``Tracer.remove`` puts every original object back.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from typing import Callable


def _count_if(stat: str, test: Callable) -> Callable:
    def count(add, args, result, exc):
        if exc is None and test(result):
            add(stat, 1)
    return count


def _out_len(stat: str, of: Callable = lambda r: r) -> Callable:
    def count(add, args, result, exc):
        if exc is None:
            add(stat, len(of(result)))
    return count


def _closure_counts(add, args, result, exc):
    if hasattr(args[0], "__len__"):
        add("statements_in", len(args[0]))
    if exc is None:
        add("statements_out", len(result))


def _search_counts(add, args, result, exc):
    if exc is not None:
        return
    if hasattr(result, "states_explored"):
        add("exhausted_ratio", 1)
        add("states_explored", result.states_explored)
    else:
        add("moves_out", len(result.moves))


def _failed_counts(add, args, result, exc):
    if exc is not None:
        add("failed_ratio", 1)


def _pruned_counts(add, args, result, exc):
    if exc is None:
        add("elements_out", len(result.universe))
        add("arcs_out", len(result.arcs))


# Layer name, module, attribute ("Class.method" for methods), counter and
# the stats it reports besides calls and self_s.  A counter adds to named
# totals from a call's arguments, result or exception; a ``*_ratio`` stat
# is its total over the layer's calls.
LAYERS: tuple[tuple[str, str, str, Callable | None, tuple[str, ...]], ...] = (
    ("cli.main", "cli", "main", None, ()),
    ("modelfile.parse_model", "modelfile", "parse_model",
     lambda add, args, result, exc: add("bytes", len(args[0].encode("utf-8"))), ("bytes",)),
    ("model.enumerate_canonical", "model", "enumerate_canonical",
     _out_len("yielded"), ("yielded",)),
    ("mug.enumerate_satisfied", "mug", "Mug.enumerate_satisfied",
     _out_len("statements_out"), ("statements_out",)),
    ("graphoid.closure", "graphoid", "closure",
     _closure_counts, ("statements_in", "statements_out")),
    ("graphoid.chain", "graphoid", "Closure.chain", _out_len("steps"), ("steps",)),
    ("graphoid.verify_chain", "graphoid", "verify_chain", None, ()),
    ("ugraph.separates", "ugraph", "UGraph.separates",
     _count_if("true_ratio", bool), ("true_ratio",)),
    ("ugraph.expand", "ugraph", "UGraph.expand", None, ()),
    ("ugraph.key", "ugraph", "UGraph.key", None, ()),
    ("mug.witness", "mug", "Mug.witness",
     _count_if("hit_ratio", lambda r: r is not None), ("hit_ratio",)),
    ("mug.Mug", "mug", "Mug.__init__", None, ()),
    ("mug.append_transformed", "mug", "append_transformed",
     _failed_counts, ("failed_ratio",)),
    ("derivation.search", "derivation", "search",
     _search_counts, ("exhausted_ratio", "states_explored", "moves_out")),
    ("derivation.replay_chain", "derivation", "replay_chain",
     _out_len("moves_out", lambda r: r.moves), ("moves_out",)),
    ("derivation.verify_script", "derivation", "verify_script", None, ()),
    ("derivation.initial_mug", "derivation", "initial_mug", None, ()),
    ("dsep.DiGraph", "dsep", "DiGraph.__init__", None, ()),
    ("dsep.d_separated", "dsep", "DiGraph.d_separated",
     _count_if("separated_ratio", bool), ("separated_ratio",)),
    ("dsep.ancestral_prune", "dsep", "DiGraph.ancestral_prune",
     _pruned_counts, ("elements_out", "arcs_out")),
    ("dsep.det_propagate", "dsep", "DiGraph.det_propagate",
     _out_len("arcs_out", lambda r: r.arcs), ("arcs_out",)),
    ("dsep.moralize", "dsep", "DiGraph.moralize",
     _out_len("edges_out", lambda r: r.edges), ("edges_out",)),
    ("dsep.build_join_tree", "dsep", "build_join_tree",
     _out_len("clusters_out", lambda r: r[1].clusters), ("clusters_out",)),
    ("prob.sample_dag_joint", "prob", "sample_dag_joint", None, ()),
    ("prob.ci_holds", "prob", "ci_holds", _count_if("true_ratio", bool), ("true_ratio",)),
)


def _unit(stat: str) -> str:
    if stat.endswith("_ratio"):
        return "ratio"
    return "bytes" if stat == "bytes" else "count"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for layer, _, _, _, stats in LAYERS:
        out.append((f"{layer}.calls", "count"))
        out.append((f"{layer}.self_s", "s"))
        out.extend((f"{layer}.{stat}", _unit(stat)) for stat in stats)
    out.append(("trace.overhead_ratio", "ratio"))
    return out


class Tracer:
    """Records spans around mugci's layers while installed."""

    def __init__(self):
        self.layer = array("i")     # index into LAYERS
        self.parent = array("i")    # enclosing span, -1 at top level
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[tuple[str, str], float] = {}
        self.current_job = -1
        self._open = -1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mugci" or name.startswith("mugci."))]
        for index, (layer, module, attr, count, _) in enumerate(LAYERS):
            home = sys.modules[f"mugci.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original,
                            self._wrap(index, layer, original, count, method=True))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(index, layer, original, count, method=False)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, name, original, wrapper)

    def _patch(self, owner, name, original, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._patched.append((owner, name, original))

    def remove(self) -> None:
        """Restore every patched binding, most recent first."""
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)

    def restored(self) -> bool:
        """Whether every binding ever patched holds its original again."""
        return all(vars(owner).get(name) is original
                   for owner, name, original in self._patched)

    # -- spans ------------------------------------------------------------

    def _wrap(self, index: int, layer: str, fn, count, method: bool):
        tracer = self
        clock = time.perf_counter
        materialize = inspect.isgeneratorfunction(fn)

        def add(stat, value):
            key = (layer, stat)
            tracer.counters[key] = tracer.counters.get(key, 0) + value

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = len(tracer.start)
            tracer.layer.append(index)
            tracer.parent.append(tracer._open)
            tracer.job.append(tracer.current_job)
            tracer.end.append(0.0)
            outer = tracer._open
            tracer._open = span
            tracer.start.append(clock())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    # A generator does its work when iterated; run it inside
                    # the span so its time is counted here.
                    result = list(result)
                return iter(result) if materialize else result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                tracer.end[span] = clock()
                tracer._open = outer
                if count is not None:
                    count(add, args[1:] if method else args, result, exc)

        return wrapper

    def span_count(self) -> int:
        return len(self.start)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def layer_metrics(self, overhead_ratio: float) -> dict[str, dict]:
        calls = [0] * len(LAYERS)
        busy = [0.0] * len(LAYERS)
        for layer, own in zip(self.layer, self.self_times()):
            calls[layer] += 1
            busy[layer] += own
        out: dict[str, dict] = {}
        for i, (layer, _, _, _, stats) in enumerate(LAYERS):
            out[f"{layer}.calls"] = {"value": calls[i], "unit": "count"}
            out[f"{layer}.self_s"] = {"value": busy[i], "unit": "s"}
            for stat in stats:
                total = self.counters.get((layer, stat), 0)
                if _unit(stat) == "ratio":
                    total = total / calls[i] if calls[i] else 0.0
                out[f"{layer}.{stat}"] = {"value": total, "unit": _unit(stat)}
        out["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "ratio"}
        return out

