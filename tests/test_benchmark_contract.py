"""The benchmark's traced run wraps fhl names listed in benchmarks/spans.py
and reads fields of the Riesz weights; each name must still resolve and
each field still be readable, so removing or renaming one, or setting a
field to None, fails here and not only when the benchmark runs."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from fhl import riesz
from fhl.grids import interval, rectangle

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


def test_weight_byte_counts_accept_every_layout(spans, tmp_path):
    """`apply_bytes` and `_array_bytes` read 1-D weights, 2-D weights and a
    2-D cache load; a 2-D apply reads the offset table alone."""
    square = rectangle(0.0, 1.4, 0.0, 0.9, 16)
    built = riesz.build_weights(square, 1.1)
    riesz.load_or_build_weights(square, 1.1, directory=str(tmp_path))
    loaded = riesz.load_or_build_weights(square, 1.1, directory=str(tmp_path))
    line = riesz.build_weights(interval(0.0, 1.0, 64), 0.4)
    for w in (built, loaded, line):
        # the spectrum is derived at the first non-even field: derive it
        # before counting, so the count holds it
        spectrum = w.spectrum
        assert spans._array_bytes(w) >= w.offsets.nbytes + spectrum.nbytes
    for w in (built, loaded):
        assert spans.apply_bytes(w) == w.offsets.nbytes
    assert spans.apply_bytes(line) == (line.offsets.nbytes + 2 * line.edge_x.nbytes
                                       + 2 * line.edge_y.nbytes)
