"""Runs one workload: untraced measurement or one traced repetition."""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
import uuid
from pathlib import Path

import numpy as np
import scipy

from spans import ROOT as ROOT_SPAN, Tracer, check_spans, layer_metrics
from workloads import WORKLOADS, SetupDone, SolveTap, reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 3        # repetitions stopped at the first solve, before and after


def _repetition(wl, inp, work, tap, tracer=None):
    """One repetition in a fresh directory: (wall seconds, outputs)."""
    rep = work / "rep"
    shutil.rmtree(rep, ignore_errors=True)
    rep.mkdir()
    with tap.installed():
        if tracer is None:
            tap.started = time.perf_counter()
            out = wl.run(inp, rep, tap)
            return time.perf_counter() - tap.started, out
        with tracer.installed(), tracer.span(ROOT_SPAN):
            tap.started = tracer.spans[0].start
            out = wl.run(inp, rep, tap)
        return tracer.spans[0].end - tap.started, out


def _setup_probe(wl, inp, work):
    """Seconds from a repetition's start to its first solve."""
    tap = SolveTap(stop_at_first_solve=True)
    try:
        _repetition(wl, inp, work, tap)
    except SetupDone:
        return tap.setup_s()
    raise RuntimeError("the workload ended without starting a solve")


def _dir_bytes(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


class Run:
    """Samples, op counts and failures of one benchmark invocation."""

    def __init__(self, name, seed):
        self.wl = WORKLOADS[name]
        self.ref = reference(name, seed)
        self.ops = 0
        self.failures = []      # one message per failed op
        self.problems = []      # trace inconsistencies
        self.walls = []
        self.setups = []
        self.iterations = []    # Picard iterations of each solve, per repetition

    def timed(self, inp, work, tracer=None):
        tap = SolveTap()
        wall, out = _repetition(self.wl, inp, work, tap, tracer)
        self.walls.append(wall)
        self.iterations.append([r.iterations for r in tap.records])
        if tap.first_solve is not None:
            self.setups.append(tap.setup_s())
        n, bad = self.wl.check(inp, out, tap, self.ref)
        self.ops += n
        self.failures += bad
        return wall, out, tap

    def measure(self, inp, work, seconds):
        """Setup probes, timed repetitions, setup probes again.

        Repetitions continue while the next one and the closing probes are
        expected to end within `seconds` of the first probe; at least one
        runs.  Probing at both ends spreads the set-up samples over the run,
        since the speed of a shared host can drift within a run.
        """
        _setup_probe(self.wl, inp, work)           # warm-up, not timed
        start = time.perf_counter()
        self.setups += [_setup_probe(self.wl, inp, work) for _ in range(SETUP_PROBES)]
        probing = time.perf_counter() - start
        while True:
            self.timed(inp, work)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(self.walls) + probing > seconds:
                break
        self.setups += [_setup_probe(self.wl, inp, work) for _ in range(SETUP_PROBES)]
        return {
            "wall_s": statistics.median(self.walls),
            "setup_s": statistics.median(self.setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def traced(self, inp, work, run_id):
        """One untraced and one traced repetition: per-layer metrics, spans."""
        _setup_probe(self.wl, inp, work)           # warm-up, not timed
        wall_plain, _, _ = self.timed(inp, work)
        tracer = Tracer(run_id)
        wall, out, tap = self.timed(inp, work, tracer)
        overhead = wall - wall_plain
        self.problems += check_spans(tracer.spans, wall, overhead)
        output_bytes = _dir_bytes(out["out_dir"]) if "out_dir" in out else 0
        metrics = layer_metrics(tracer, [r.iterations for r in tap.records],
                                output_bytes, wall, overhead)
        t0 = tracer.spans[0].start
        spans = [[s.name, s.start - t0, s.end - t0, s.parent] for s in tracer.spans]
        return metrics, spans


def metadata(threads):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "src_fhl_lines": sum(len(p.read_text().splitlines())
                             for p in sorted((ROOT / "src" / "fhl").glob("*.py"))),
    }


def _git_sha():
    """HEAD's commit, read from .git inside the checkout; "unknown" without."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_one(workload, seed, seconds, trace, threads):
    """Runs one workload; returns the result object the last line prints."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    work_root = BENCH / ".work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work_root))
    # a private weights cache: ~/.cache/fhl is never read or written
    os.environ["FHL_CACHE_DIR"] = str(work / "cache")
    run_id = f"{workload}-seed{seed}-trace{trace}-{uuid.uuid4().hex[:8]}"
    run = Run(workload, seed)
    try:
        inp = run.wl.inputs(seed, work)
        if trace:
            values, spans = run.traced(inp, work, run_id)
        else:
            values, spans = run.measure(inp, work, seconds), None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": not (run.failures or run.problems), "attempted": run.ops,
              "failed": len(run.failures),
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()}}
    record = {"run_id": run_id, "workload": workload, "seed": seed,
              "seconds": seconds, "trace": trace, "meta": metadata(threads),
              "walls_s": run.walls, "setups_s": run.setups,
              "iterations": run.iterations,
              "failures": run.failures, "problems": run.problems,
              "result": result, "spans": spans}
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{run_id}.json").write_text(json.dumps(record) + "\n")
    for msg in run.failures + run.problems:
        print(f"FAILED {workload}: {msg}")
    print(f"# {workload} seed {seed}: "
          + ", ".join(f"{k} {v:.6g}" for k, v in values.items())
          + f", ops {run.ops}, ops_failed {len(run.failures)}")
    print("# meta " + json.dumps(record["meta"], sort_keys=True))
    return result
