"""Span tracing around the calls into fhl's modules, installed from outside.

The benchmark replaces module attributes of fhl with thin wrappers for the
duration of one traced repetition.  Each wrapper records a span (name,
start, end, parent) in memory; nothing is written until the run ends.
fhl resolves these names through module globals at call time, so a
wrapper also sees the calls fhl makes internally (``robin`` -> ``green``,
``load_or_build_weights`` -> ``build_weights``).
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass

MB = float(1 << 20)

# (module, attribute, span name).  The span name's first part is the layer.
# model, constants and grids were each below 1% of every workload when this
# list was drawn up, so their time stays in the self time of their callers.
ENTRY_POINTS = (
    ("fhl.cli", "run_command", "cli.run_command"),
    ("fhl.diagnostics", "continuation", "diagnostics.continuation"),
    ("fhl.diagnostics", "pohozaev_balance", "diagnostics.pohozaev_balance"),
    ("fhl.diagnostics", "symmetrization_check", "diagnostics.symmetrization_check"),
    ("fhl.solver", "solve_subcritical", "solver.solve"),
    ("fhl.solver", "solve_bn", "solver.solve"),
    ("fhl.solver", "energy_quotient", "solver.quotient"),
    # the Riesz apply of the Picard loop; it lives in solver but is riesz work
    ("fhl.solver", "_nonlinear_rhs", "riesz.apply"),
    # the transform names bound in fhl.solver, i.e. the solver's transforms
    ("fhl.solver", "analysis", "spectral.analysis"),
    ("fhl.solver", "synthesis", "spectral.synthesis"),
    ("fhl.riesz", "convolve", "riesz.convolve"),
    ("fhl.riesz", "build_weights", "riesz.build"),
    ("fhl.riesz", "load_or_build_weights", "riesz.cache_load"),
    ("fhl.riesz", "moment_weights_1d", "riesz.moment_weights"),
    ("fhl.spectral", "build_basis", "spectral.basis"),
    ("fhl.spectral", "green", "spectral.green"),
    ("fhl.spectral", "robin", "spectral.robin"),
    ("fhl.bubbles", "rescale", "bubbles.rescale"),
    ("fhl.bubbles", "profile_distance", "bubbles.profile_distance"),
)

ROOT = "bench.workload"
LAYERS = ("bench", "cli", "diagnostics", "solver", "riesz", "spectral", "bubbles")


@contextmanager
def patched(replacements):
    """Set module attributes for the duration of the block, then restore them.

    replacements: iterable of (module name, attribute, wrap) where wrap maps
    the current attribute to its replacement.
    """
    saved = []
    try:
        for mod_name, attr, wrap in replacements:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, wrap(original))
        yield
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


def _array_bytes(obj):
    """Bytes of every ndarray held by obj's fields, tuples and dicts."""
    total = 0
    stack = list(vars(obj).values())
    while stack:
        v = stack.pop()
        if hasattr(v, "nbytes") and hasattr(v, "dtype"):
            total += int(v.nbytes)
        elif isinstance(v, (tuple, list)):
            stack.extend(v)
        elif isinstance(v, dict):
            stack.extend(v.values())
    return total


def apply_bytes(weights):
    """Weight bytes one Riesz apply reads, from the array sizes.

    1-D: the dense matrix, once per matvec.  2-D: the offset table and the
    corner fields once, each strip table twice (it serves two opposite
    edges).
    """
    if weights.matrix is not None:
        return int(weights.matrix.nbytes)
    return int(weights.offsets.nbytes + 2 * weights.edge_x.nbytes
               + 2 * weights.edge_y.nbytes
               + sum(f.nbytes for f in weights.corners.values()))


def _dir_files(path):
    try:
        with os.scandir(path) as it:
            return {e.name: e.stat().st_size for e in it if e.is_file()}
    except FileNotFoundError:
        return {}


class Tracer:
    """In-memory spans of one traced repetition, plus boundary counts."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_bytes = 0
        self.weights = {}     # id -> weights used by riesz.apply
        self.bases = []       # every basis build_basis returned

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.run_id))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def _wrapper(self, name):
        def wrap(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if name == "riesz.cache_load":
                    return self._cache_load(fn, args, kwargs)
                with self.span(name):
                    out = fn(*args, **kwargs)
                if name == "riesz.apply":
                    self.weights.setdefault(id(args[0]), args[0])
                elif name == "spectral.basis":
                    self.bases.append(out)
                return out
            return traced
        return wrap

    def _cache_load(self, fn, args, kwargs):
        # a hit leaves the cache directory as it was; a miss writes a file
        from fhl import riesz
        directory = (kwargs.get("directory") or (args[2] if len(args) > 2 else None)
                     or riesz.cache_dir())
        before = _dir_files(directory)
        with self.span("riesz.cache_load"):
            out = fn(*args, **kwargs)
        after = _dir_files(directory)
        if set(after) - set(before):
            self.cache_misses += 1
        else:
            self.cache_hits += 1
        self.cache_bytes = max(self.cache_bytes, sum(after.values()))
        return out

    def installed(self):
        """Context manager that routes every entry point through a span."""
        return patched((mod, attr, self._wrapper(name))
                       for mod, attr, name in ENTRY_POINTS)


# --------------------------------------------------------------------------
# derived quantities
# --------------------------------------------------------------------------

def self_times(spans):
    """Per span: its duration minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.end - sp.start
    return [sp.end - sp.start - c for sp, c in zip(spans, child)]


def layer_self_times(spans):
    out = dict.fromkeys(LAYERS, 0.0)
    for sp, t in zip(spans, self_times(spans)):
        out[sp.name.split(".", 1)[0]] += t
    return out


def check_spans(spans, wall_s, overhead_s):
    """Problems with a traced repetition's spans; empty when consistent.

    Children nest inside their parents, self times are not negative, and
    the layer self times add up to the traced wall time within the tracing
    overhead.
    """
    problems = []
    for i, sp in enumerate(spans):
        if sp.end < sp.start:
            problems.append(f"span {i} {sp.name} ends before it starts")
        if sp.parent is not None:
            par = spans[sp.parent]
            if sp.parent >= i or sp.start < par.start or sp.end > par.end:
                problems.append(f"span {i} {sp.name} not inside its parent {par.name}")
    if any(t < 0.0 for t in self_times(spans)):
        problems.append("negative self time")
    total = sum(layer_self_times(spans).values())
    if abs(total - wall_s) > abs(overhead_s) + 1e-9:
        problems.append(f"layer self times sum to {total:.6f} s, traced wall "
                        f"{wall_s:.6f} s, overhead {overhead_s:.6f} s")
    return problems


def _total(spans, *names):
    sel = [sp for sp in spans if sp.name in names]
    return sum(sp.end - sp.start for sp in sel), len(sel)


def _per_call_ms(seconds, calls):
    return 1e3 * seconds / calls if calls else 0.0


def layer_metrics(tracer: Tracer, iterations, output_bytes, wall_s, overhead_s):
    """Per-layer metrics of one traced repetition.

    iterations: Picard iteration count of every solve, in order.
    output_bytes: bytes the workload's CLI call wrote (0 without the CLI).
    """
    spans = tracer.spans
    layer_self = layer_self_times(spans)
    m = {}

    apply_s, apply_n = _total(spans, "riesz.apply")
    m["riesz.apply_s"] = apply_s
    m["riesz.apply_calls"] = apply_n
    m["riesz.apply_ms"] = _per_call_ms(apply_s, apply_n)
    m["riesz.convolve_s"], m["riesz.convolve_calls"] = _total(spans, "riesz.convolve")
    weights = list(tracer.weights.values())
    m["riesz.weights_mb"] = sum(_array_bytes(w) for w in weights) / MB
    m["riesz.apply_mb"] = sum(apply_bytes(w) for w in weights) / MB
    m["riesz.apply_gbps"] = (m["riesz.apply_mb"] * MB / 1e9
                             / (apply_s / apply_n) if apply_n else 0.0)
    m["riesz.build_s"] = _total(spans, "riesz.build")[0]
    m["riesz.cache_load_s"] = _total(spans, "riesz.cache_load")[0]
    m["riesz.cache_hits"] = tracer.cache_hits
    m["riesz.cache_misses"] = tracer.cache_misses
    m["riesz.cache_mb"] = tracer.cache_bytes / MB
    (m["riesz.moment_weights_s"],
     m["riesz.moment_weights_calls"]) = _total(spans, "riesz.moment_weights")
    m["riesz.self_s"] = layer_self["riesz"]

    for kind in ("analysis", "synthesis"):
        sec, n = _total(spans, f"spectral.{kind}")
        m[f"spectral.{kind}_calls"] = n
        m[f"spectral.{kind}_s"] = sec
        m[f"spectral.{kind}_ms"] = _per_call_ms(sec, n)
    m["spectral.table_mb"] = sum(_array_bytes(b) for b in tracer.bases) / MB
    m["spectral.basis_s"] = _total(spans, "spectral.basis")[0]
    m["spectral.green_s"], m["spectral.green_calls"] = _total(spans, "spectral.green")
    m["spectral.robin_s"], m["spectral.robin_calls"] = _total(spans, "spectral.robin")
    m["spectral.self_s"] = layer_self["spectral"]

    solve_s, solves = _total(spans, "solver.solve")
    total_it = sum(iterations)
    m["solver.solves"] = solves
    m["solver.iterations"] = total_it
    m["solver.iterations_per_solve"] = total_it / solves if solves else 0.0
    m["solver.solve_s"] = solve_s
    m["solver.iter_ms"] = _per_call_ms(solve_s, total_it)
    m["solver.self_s"] = layer_self["solver"]
    m["solver.quotient_s"] = _total(spans, "solver.quotient")[0]

    m["diagnostics.continuation_s"] = _total(spans, "diagnostics.continuation")[0]
    m["diagnostics.self_s"] = layer_self["diagnostics"]
    m["diagnostics.moments_s"] = _total(spans, "diagnostics.pohozaev_balance",
                                        "diagnostics.symmetrization_check")[0]

    m["bubbles.s"] = _total(spans, "bubbles.rescale", "bubbles.profile_distance")[0]

    setup = write = 0.0
    for i, sp in enumerate(spans):
        if sp.name != "cli.run_command":
            continue
        kids = [c for c in spans if c.parent == i and c.name == "diagnostics.continuation"]
        if kids:
            setup += kids[0].start - sp.start
            write += sp.end - kids[-1].end
    m["cli.setup_s"] = setup
    m["cli.write_s"] = write
    m["cli.output_mb"] = output_bytes / MB
    m["cli.self_s"] = layer_self["cli"]

    m["bench.self_s"] = layer_self["bench"]
    m["trace.spans"] = len(spans)
    m["trace.wall_s"] = wall_s
    m["trace.overhead_s"] = overhead_s
    return m
