"""The SciPy modules a process loads, checked in a fresh interpreter: the
test session itself has `scipy.integrate` loaded already, because the
`filterwarnings` setting in pyproject.toml names its IntegrationWarning.

No solve loads SciPy: the sine transforms, the FFT sizes and the singular
quarter cell of a 2-D weight build are numpy.  `scipy.integrate` loads at
the first radial free-space quadrature, which runs `quad`.
"""

import json
import os
import subprocess
import sys

import fhl

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(fhl.__file__)))

_REPORT = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
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

RECT_CONFIG = """regime=subcritical
n=2
s=0.45
mu=1.1
eps=0.2
domain.kind=rectangle
domain.bx=1.4
domain.by=0.9
grid=32
modes=64
theta=1.0
max_iter=2000
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


def test_2d_solve_loads_no_scipy(tmp_path):
    """A rectangle solve builds and caches its 2-D weights."""
    (tmp_path / "rect.cfg").write_text(RECT_CONFIG)
    code = ("from fhl import cli\n"
            "assert cli.run_command(['solve', '--config', 'rect.cfg',"
            " '--out', 'run']) == 0\n")
    assert _loaded(code, tmp_path) == []
    assert (tmp_path / "run" / "solution.csv").exists()
    assert os.listdir(tmp_path / "cache")


def test_first_quadrature_loads_integrate(tmp_path):
    code = ("from fhl import riesz\n"
            "from fhl.model import Regime, make_params\n"
            "p = make_params(2, 0.5, 1.0, 0.0, Regime.FREE_SPACE)\n"
            "assert riesz.riesz_at_center(lambda r: (1.0 + r * r) ** -3, p) > 0\n")
    assert "scipy.integrate" in _loaded(code, tmp_path)
