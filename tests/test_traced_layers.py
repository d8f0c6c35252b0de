"""Every layer the benchmark traces names something that exists.

``perfbench/tracing.py`` wraps the functions and methods its ``LAYERS``
table names, and ``Tracer.install`` raises on a name that is gone.  So a
change that deletes or moves one of them must update that table too, or
the benchmark's traced run crashes.  The file is standard-library only and
is loaded here without being run as a benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def traced_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.LAYERS


def test_every_traced_layer_resolves_in_mugci():
    layers = traced_layers()
    assert len(layers) > 10
    missing = []
    for layer, module, attr, _, _ in layers:
        home = importlib.import_module(f"mugci.{module}")
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(home, cls_name, None)
            found = cls is not None and method in vars(cls)
        else:
            found = callable(getattr(home, attr, None))
        if not found:
            missing.append(f"{layer}: mugci.{module}.{attr}")
    assert missing == []
