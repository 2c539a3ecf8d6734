"""The layer tracer in bench/spans.py wraps qkron functions and methods by
name; a refactor that renames or drops one must fail here, not go untraced."""

import importlib
import importlib.util
import os

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench", "spans.py")


def test_every_traced_layer_resolves():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for home, attr, name in spans.FUNCTIONS:
        assert callable(getattr(importlib.import_module(home), attr, None)), name
    for home, cls_name, attr, name in spans.METHODS:
        assert attr in vars(getattr(importlib.import_module(home), cls_name)), name
    for mod in spans.MODULES:
        importlib.import_module(mod)
