"""The benchmark's traced run wraps fhl names listed in benchmarks/spans.py
and reads fields of the Riesz weights; each name must still resolve and
each field still be readable, so removing or renaming one, or setting a
field to None, fails here and not only when the benchmark runs."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
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


def test_cache_names_build_and_write_nothing(tmp_path):
    """`load_or_build_weights` and `cache_dir` stay for the traced run's
    cache span: the first builds the weights and writes nothing."""
    square = rectangle(0.0, 1.4, 0.0, 0.9, 16)
    loaded = riesz.load_or_build_weights(square, 1.1, directory=str(tmp_path))
    assert np.array_equal(loaded.offsets, riesz.build_weights(square, 1.1).offsets)
    assert list(tmp_path.iterdir()) == []
    assert callable(riesz.cache_dir)


def test_weight_byte_counts_accept_every_layout(spans):
    """`apply_bytes` and `_array_bytes` read 1-D and 2-D weights; a 2-D
    apply reads the offset table alone."""
    square = riesz.build_weights(rectangle(0.0, 1.4, 0.0, 0.9, 16), 1.1)
    line = riesz.build_weights(interval(0.0, 1.0, 64), 0.4)
    for w in (square, line):
        # the spectrum is derived at the first non-even field: derive it
        # before counting, so the count holds it
        spectrum = w.spectrum
        assert spans._array_bytes(w) >= w.offsets.nbytes + spectrum.nbytes
    assert spans.apply_bytes(square) == square.offsets.nbytes
    assert spans.apply_bytes(line) == (line.offsets.nbytes + 2 * line.edge_x.nbytes
                                       + 2 * line.edge_y.nbytes)
