"""Trace consistency: spans nest, self times are not negative, and the layer
self times add up to the traced wall time.  Also checks that the per-layer
metrics, BENCHMARK.json and layers.json name the same metrics.

    python3 -m pytest benchmarks/test_spans.py
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from fhl import cli, riesz, solver  # noqa: E402
from spans import (ROOT, Span, Tracer, check_spans, layer_metrics,  # noqa: E402
                   layer_self_times, self_times)

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

SMALL_CONFIG = ("regime=subcritical\nn=1\ns=0.3\nmu=0.4\neps=0.5\n"
                "domain.kind=interval\ngrid=256\nmodes=64\ntheta=1.0\n"
                "max_iter=3000\n")


def _span(name, start, end, parent):
    return Span(name, start, end, parent, "test")


def test_self_times_subtract_children():
    spans = [_span(ROOT, 0.0, 10.0, None),
             _span("solver.solve", 1.0, 9.0, 0),
             _span("riesz.apply", 2.0, 5.0, 1),
             _span("spectral.analysis", 5.0, 6.0, 1)]
    assert self_times(spans) == pytest.approx([2.0, 4.0, 3.0, 1.0])
    layers = layer_self_times(spans)
    assert layers["solver"] == pytest.approx(4.0)
    assert sum(layers.values()) == pytest.approx(10.0)
    assert check_spans(spans, 10.0, 0.0) == []


def test_check_spans_flags_inconsistencies():
    outside = [_span(ROOT, 0.0, 1.0, None), _span("riesz.apply", 0.5, 1.5, 0)]
    assert any("not inside" in p for p in check_spans(outside, 1.0, 1.0))
    overlap = [_span(ROOT, 0.0, 1.0, None), _span("riesz.apply", 0.0, 0.8, 0),
               _span("riesz.apply", 0.2, 0.9, 0)]
    assert any("negative self time" in p for p in check_spans(overlap, 1.0, 1.0))
    short = [_span(ROOT, 0.0, 1.0, None)]
    assert any("sum to" in p for p in check_spans(short, 1.5, 0.1))


def test_traced_cli_run(tmp_path, monkeypatch):
    """A small `fhl continuation` under the tracer: consistent spans, a cache
    miss then a hit, every per-layer metric, and the entry points restored."""
    monkeypatch.setenv("FHL_CACHE_DIR", str(tmp_path / "cache"))
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CONFIG)
    original = solver._nonlinear_rhs
    tracer = Tracer("test")
    with tracer.installed(), tracer.span(ROOT):
        for out in ("r1", "r2"):
            assert cli.run_command(["continuation", "--config", str(cfg), "--eps",
                                    "0.5,0.45", "--out", str(tmp_path / out)]) == 0
    assert solver._nonlinear_rhs is original
    assert riesz.convolve.__module__ == "fhl.riesz"

    spans = tracer.spans
    wall = spans[0].end - spans[0].start
    assert check_spans(spans, wall, 0.0) == []
    names = {s.name for s in spans}
    assert {"cli.run_command", "diagnostics.continuation", "solver.solve",
            "riesz.apply", "spectral.analysis", "spectral.synthesis",
            "riesz.cache_load", "riesz.build", "bubbles.rescale"} <= names
    assert (tracer.cache_misses, tracer.cache_hits) == (1, 1)

    metrics = layer_metrics(tracer, [10, 10, 10, 10], 1 << 20, wall, 0.0)
    assert sorted(metrics) == sorted(PER_LAYER)
    assert metrics["solver.solves"] == 4
    assert metrics["riesz.apply_calls"] > 0
    # two weights objects served applies: the built one, then the cached one
    assert metrics["riesz.weights_mb"] == pytest.approx(2 * 256 * 256 * 8 / 2 ** 20)
    assert metrics["cli.setup_s"] > 0.0 and metrics["cli.write_s"] > 0.0
    selfs = sum(metrics[k] for k in ("riesz.self_s", "spectral.self_s",
                                     "solver.self_s", "diagnostics.self_s",
                                     "bubbles.s", "cli.self_s", "bench.self_s"))
    assert selfs == pytest.approx(wall, rel=1e-9)


def test_layer_map_names_every_per_layer_metric():
    groups = json.loads((BENCH / "layers.json").read_text())["groups"]
    mapped = [m for g in groups for m in g["metrics"]]
    assert sorted(mapped) == sorted(PER_LAYER)
    workloads = {w["name"] for w in SPEC["workloads"]}
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    for g in groups:
        assert set(g["workloads"]) <= workloads
        assert set(g["moves"]) <= end_to_end
