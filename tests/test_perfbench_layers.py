"""The traced benchmark wraps program functions by module attribute, so a
deleted or renamed function breaks every traced run. This checks that
each wrapped name still resolves, without running a workload."""

import importlib.util
from pathlib import Path

from gaitrerank import ranking, reranker

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_function_resolves_and_is_restored():
    layers, spans = _load("layers"), _load("spans")
    tracer = spans.Tracer()
    try:
        layers.install(tracer)
        patched = list(tracer._patches)
        assert patched
        for module, attr, original in patched:
            assert callable(original)
            assert getattr(module, attr).__wrapped__ is original
    finally:
        tracer.restore()
    for module, attr, original in patched:
        assert getattr(module, attr) is original
    # the references the workloads' correctness checks call
    assert callable(reranker.rerank_distance)
    assert callable(ranking.strip_distance)
