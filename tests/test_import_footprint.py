"""The scipy subpackages a process loads, checked in a fresh interpreter:
the test session itself has `scipy.integrate` loaded already, because the
`filterwarnings` setting in pyproject.toml names its IntegrationWarning.

`scipy.signal` and `scipy.interpolate` are never loaded by fhl, and
`scipy.integrate` only by the first quadrature (a 2-D weight build or a
radial free-space integral), so a 1-D continuation never loads it.
"""

import json
import os
import subprocess
import sys

import fhl

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(fhl.__file__)))
_UNUSED = ("scipy.signal", "scipy.interpolate", "scipy.integrate")

_REPORT = f"""
import json, sys
print(json.dumps([m for m in {_UNUSED!r} if m in sys.modules]))
"""

CONFIG = """regime=subcritical
n=1
s=0.3
mu=0.4
domain.kind=interval
grid=256
modes=64
theta=1.0
max_iter=3000
"""


def _loaded(code, tmp_path):
    env = dict(os.environ, FHL_CACHE_DIR=str(tmp_path / "cache"),
               PYTHONPATH=os.pathsep.join([_SRC, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code + _REPORT], env=env,
                         cwd=tmp_path, capture_output=True, text=True, timeout=300,
                         check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_import_cli_loads_no_unused_scipy(tmp_path):
    assert _loaded("import fhl.cli", tmp_path) == []


def test_1d_continuation_loads_no_unused_scipy(tmp_path):
    (tmp_path / "sweep.cfg").write_text(CONFIG)
    code = ("from fhl import cli\n"
            "assert cli.run_command(['continuation', '--config', 'sweep.cfg',"
            " '--eps', '0.5,0.4', '--out', 'run']) == 0\n")
    assert _loaded(code, tmp_path) == []
    assert (tmp_path / "run" / "report.json").exists()
