"""fhl benchmark: end-to-end and per-layer metrics of the pinned workloads.

    python3 benchmarks/run.py --workload sweep1d --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; fhl is imported from its ``src``.  With
``--trace 0`` the run repeats the workload while the next repetition is
expected to end within ``--seconds`` (at least once) and reports wall_s,
setup_s and peak_rss_mb.  With ``--trace 1`` it runs the workload once
untraced and once with a span around every call into fhl's modules, and
reports the per-layer metrics.
``--workload all`` runs every workload in a process of its own and prints
one table.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; attempted and failed count ops
(one solve, one Robin landscape point or one moment diagnostic).  A
record with the samples, run metadata and, when traced, every span goes
to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOAD_NAMES = ("sweep1d", "bn_sweep", "rect_robin")

# One BLAS/FFT thread, set before numpy loads: the 1-D sweep is a
# bandwidth-bound dense matvec whose time spreads by 30% between runs with
# two threads on a shared host, and is steady with one.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)


def run_all(args):
    """Every workload in a process of its own, so peak_rss_mb is its own."""
    results = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    keys = sorted({k for r in results.values() for k in r["metrics"]})
    print(f"{'metric':30s}" + "".join(f"{n:>14s}" for n in WORKLOAD_NAMES))
    for key in keys:
        row = [results[n]["metrics"][key]["value"] for n in WORKLOAD_NAMES]
        unit = results[WORKLOAD_NAMES[0]]["metrics"][key]["unit"]
        print(f"{key + ' (' + unit + ')':30s}" + "".join(f"{v:14.6g}" for v in row))
    for label, key in (("ops", "attempted"), ("ops_failed", "failed")):
        print(f"{label:30s}" + "".join(f"{results[n][key]:14d}" for n in WORKLOAD_NAMES))
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fhl" / "__init__.py").is_file():
        print(f"fhl sources not found under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.path.insert(0, str(SRC))
        from harness import run_one
        result = run_one(args.workload, args.seed, args.seconds, args.trace, THREADS)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
