"""Span arithmetic, wrapper installation and removal, metric names."""

import io
import json
import sys
from pathlib import Path

import pytest

import jobs
import tracing
from tracing import LAYERS, Tracer

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _span(tracer, layer, parent, start, end):
    tracer.layer.append(layer)
    tracer.parent.append(parent)
    tracer.job.append(0)
    tracer.start.append(start)
    tracer.end.append(end)


def test_self_time_subtracts_direct_children_only():
    t = Tracer()
    _span(t, 0, -1, 0.0, 10.0)   # root
    _span(t, 1, 0, 1.0, 4.0)     # child of root
    _span(t, 2, 1, 2.0, 3.0)     # grandchild
    _span(t, 1, 0, 5.0, 9.0)     # second child of root
    assert t.self_times() == pytest.approx([3.0, 2.0, 1.0, 4.0])
    metrics = t.layer_metrics(overhead_ratio=1.5)
    assert metrics[f"{LAYERS[1][0]}.calls"]["value"] == 2
    assert metrics[f"{LAYERS[1][0]}.self_s"]["value"] == pytest.approx(6.0)
    assert metrics["trace.overhead_ratio"]["value"] == 1.5


def _bindings(mugci):
    """Every module binding and class attribute of the program, by identity."""
    out = {}
    for name, module in sys.modules.items():
        if name == "mugci" or name.startswith("mugci."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__.startswith("mugci"):
                    for meth, member in vars(value).items():
                        out[(name, attr, meth)] = member
    return out


def test_install_wraps_every_binding_and_remove_restores_them(tmp_path):
    mugci = jobs.import_program()
    before = _bindings(mugci)
    tracer = Tracer()
    tracer.install()
    assert mugci.cli.closure is not before[("mugci.cli", "closure")]
    assert mugci.graphoid.closure is mugci.cli.closure is mugci.closure
    model = tmp_path / "m.mug"
    model.write_text("universe a b c\ngraph G { node 0 = {a}; node 1 = {b}; "
                     "node 2 = {c}; edge 0 1; edge 1 2; }\n")
    out = io.StringIO()
    assert mugci.cli.main(["closure", str(model)], out=out) == 0
    metrics = tracer.layer_metrics(1.0)
    assert metrics["cli.main.calls"]["value"] == 1
    assert metrics["graphoid.closure.calls"]["value"] == 1
    assert metrics["graphoid.closure.statements_out"]["value"] == 1
    assert metrics["modelfile.parse_model.calls"]["value"] == 1
    assert metrics["ugraph.separates.calls"]["value"] > 0
    tracer.remove()
    assert tracer.restored()
    assert _bindings(mugci) == before
    assert all(_bindings(mugci)[k] is v for k, v in before.items())


def test_per_layer_names_match_the_benchmark_definition():
    spec = json.loads(BENCHMARK.read_text())
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert declared == tracing.metric_names()
    t = Tracer()
    assert list(t.layer_metrics(1.0)) == [name for name, _ in declared]
