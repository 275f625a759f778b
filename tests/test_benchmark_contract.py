"""The benchmark's traced run wraps fhl names listed in benchmarks/spans.py;
each must still resolve, so removing or renaming one fails here and not
only when the benchmark runs."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS_PATH = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("_benchmark_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve their annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


def test_every_traced_entry_point_resolves(spans):
    assert spans.ENTRY_POINTS
    missing = [f"{mod}.{attr}" for mod, attr, _ in spans.ENTRY_POINTS
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert missing == []
