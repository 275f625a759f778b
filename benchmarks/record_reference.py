"""Record reference.json: the seed-0 values of every workload, from the code
as it stands.  Run again only when a change to the discretization is meant
to move the acceptance numbers.

    python3 benchmarks/record_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run  # pins the BLAS threads before numpy loads

sys.path.insert(0, str(run.SRC))

from harness import BENCH, _repetition  # noqa: E402
from workloads import REFERENCE, WORKLOADS, SolveTap  # noqa: E402


def main():
    (BENCH / ".work").mkdir(exist_ok=True)
    values = {}
    for name, wl in WORKLOADS.items():
        work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BENCH / ".work"))
        os.environ["FHL_CACHE_DIR"] = str(work / "cache")
        try:
            inp = wl.inputs(0, work)
            tap = SolveTap()
            _, out = _repetition(wl, inp, work, tap)
            _, bad = wl.check(inp, out, tap, None)
            if bad:
                raise SystemExit(f"{name}: {bad}")
            values[name] = wl.observe(out, tap)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        print(name, json.dumps(values[name]))
    REFERENCE.write_text(json.dumps(values, indent=1) + "\n")


if __name__ == "__main__":
    main()
