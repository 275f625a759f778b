"""The benchmark's workloads: inputs made from a seed, one repetition, checks.

Seed 0 reproduces the pinned acceptance configurations exactly and is
compared with ``reference.json``.  Other seeds move the eps schedule by at
most EPS_JITTER (relative) and the Robin sample grid by at most
GRID_JITTER of its step; every solve in that band converges.

A repetition runs from the workload's first call into fhl to its last
output.  Its set-up ends where the first solve starts, which SolveTap
notes; a setup probe is a repetition that SolveTap stops right there.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fhl import cli, diagnostics, grids, riesz, solver, spectral
from fhl.errors import FHLError
from fhl.grids import GridField
from fhl.model import Regime, exponents, make_params
from fhl.solver import SolveOptions

from spans import patched

EPS_JITTER = 0.01      # relative half-width of the eps band, seeds != 0
GRID_JITTER = 0.25     # half-width of the Robin grid offset, in sample steps
REL_TOL = 1e-8         # ROADMAP tolerance on acceptance numbers
SYMMETRIZATION_MAX = 1e-2

REFERENCE = Path(__file__).with_name("reference.json")


class SetupDone(Exception):
    """Ends a setup probe at the start of its first solve."""


class SolveTap:
    """Notes when the first solve starts and keeps every solve's outcome."""

    def __init__(self, stop_at_first_solve=False):
        self.stop = stop_at_first_solve
        self.started = None       # set by the caller where its clock starts
        self.first_solve = None
        self.records = []     # SolutionRecord of each solve that returned
        self.errors = []      # FHLError of each solve that raised

    def _wrap(self, fn):
        @functools.wraps(fn)
        def tapped(*args, **kwargs):
            if self.first_solve is None:
                self.first_solve = time.perf_counter()
                if self.stop:
                    raise SetupDone
            try:
                rec = fn(*args, **kwargs)
            except FHLError as exc:
                self.errors.append(exc)
                raise
            self.records.append(rec)
            return rec
        return tapped

    def setup_s(self):
        """Seconds from the repetition's start to its first solve."""
        return None if self.first_solve is None else self.first_solve - self.started

    def installed(self):
        return patched(("fhl.solver", name, self._wrap)
                       for name in ("solve_subcritical", "solve_bn"))


def _attempt(fn, *args):
    """fn(*args), or the FHLError it raised: a failed op, not a crash."""
    try:
        return fn(*args)
    except FHLError as exc:
        return exc


def _jittered(rng, values, half_width):
    if rng is None:
        return [float(v) for v in values]
    return [float(v) * (1.0 + half_width * rng.uniform(-1.0, 1.0)) for v in values]


def _rng(seed):
    return None if seed == 0 else np.random.default_rng(seed)


# --------------------------------------------------------------------------
# checks shared by the workloads
# --------------------------------------------------------------------------

def _observe_solve(rec):
    return {"eps": rec.eps, "sup_norm": rec.sup_norm, "mu_eps": rec.mu_eps,
            "quotient": rec.quotient, "argmax": list(rec.argmax),
            "iterations": rec.iterations}


def _compare_solve(rec, ref):
    """Differences from a seed-0 reference solve beyond REL_TOL or a node."""
    why = []
    for key in ("sup_norm", "mu_eps", "quotient"):
        rel = abs(getattr(rec, key) / ref[key] - 1.0)
        if not rel <= REL_TOL:
            why.append(f"{key} off the reference by {rel:.2e} relative")
    # symmetric grids tie their top nodes to the last bit, so the argmax
    # matches when the reference node still attains the sup
    node = tuple(int(np.argmin(np.abs(ax - r)))
                 for ax, r in zip(rec.grid.domain.axes(), ref["argmax"]))
    if not abs(rec.grid.values[node] - rec.sup_norm) <= REL_TOL * rec.sup_norm:
        why.append(f"argmax {rec.argmax}: the reference node {ref['argmax']} "
                   "is not a maximum")
    return why


def _check_sweep(tap, n_expected, weights, tol, ref, written=None):
    """One message per failed solve of a warm-started sweep.

    written: the sup norms the run wrote out, when it wrote any.
    """
    bad = []
    prev_sup = -math.inf
    for k in range(n_expected):
        if k >= len(tap.records):
            bad.append(f"solve {k}: did not return ({tap.errors[:1]!r})")
            continue
        rec = tap.records[k]
        why = []
        if not rec.converged:
            why.append("not converged")
        res = solver.residual(rec.grid, rec.params, rec.field.basis, weights)
        if not res < tol:
            why.append(f"recomputed residual {res:.2e} not below {tol:g}")
        if not rec.sup_norm > prev_sup:
            why.append("sup norm does not increase along the sweep")
        prev_sup = rec.sup_norm
        if written is not None and (k >= len(written) or written[k] != rec.sup_norm):
            why.append("report.json holds another sup norm")
        if ref is not None:
            why += _compare_solve(rec, ref["solves"][k])
        if why:
            bad.append(f"solve {k} (eps {rec.eps:.6g}): " + "; ".join(why))
    return bad


def _observe_sweep(out, tap):
    return {"solves": [_observe_solve(r) for r in tap.records]}


def _finite(*values):
    return all(math.isfinite(v) for v in values)


# --------------------------------------------------------------------------
# sweep1d: `fhl continuation` on the README config, then the moments
# --------------------------------------------------------------------------

SWEEP1D_CONFIG = """\
regime=subcritical
n=1
s=0.18
mu=0.64
eps=0.4
domain.kind=interval
grid=4096
modes=1024
theta=1.0
tol=1e-9
max_iter=4000
"""
SWEEP1D_EPS = (0.4, 0.2, 0.1, 0.05)
SWEEP1D_TOL = 1e-9
POHOZAEV_R = 0.2


def sweep1d_inputs(seed, work):
    config = work / "sweep1d.cfg"
    config.write_text(SWEEP1D_CONFIG)
    return {"config": config, "eps": _jittered(_rng(seed), SWEEP1D_EPS, EPS_JITTER)}


def sweep1d_run(inp, rep, tap):
    out_dir = rep / "out"
    rc = cli.run_command(["continuation", "--config", str(inp["config"]),
                          "--eps", ",".join(repr(e) for e in inp["eps"]),
                          "--out", str(out_dir)])
    out = {"rc": rc, "out_dir": out_dir}
    if rc != 0 or len(tap.records) != len(inp["eps"]):
        return out
    rec = tap.records[-1]
    # reads the weights the CLI cached: the sweep's kernel is |x|^-(n-2s)
    weights = riesz.load_or_build_weights(rec.grid.domain,
                                          rec.params.n - 2.0 * rec.params.s)
    up = np.maximum(rec.grid.values, 0.0) ** exponents(rec.params).p_sub
    out["weights"] = weights
    out["symmetrization"] = _attempt(diagnostics.symmetrization_check,
                                     GridField(rec.grid.domain, up), weights.mu,
                                     weights)
    out["pohozaev"] = _attempt(diagnostics.pohozaev_balance, rec, rec.params,
                               None, weights, POHOZAEV_R)
    return out


def sweep1d_check(inp, out, tap, ref):
    n = len(inp["eps"])
    if "weights" not in out:
        # a failed solve stops the CLI before it writes anything
        return n + 2, [f"fhl continuation exited {out['rc']} after "
                       f"{len(tap.records)} of {n} solves"] * (n + 2)
    written = json.loads((out["out_dir"] / "report.json").read_text())
    bad = _check_sweep(tap, n, out["weights"], SWEEP1D_TOL, ref,
                       [r["sup_norm"] for r in written["report"]["records"]])
    sym = out["symmetrization"]
    if isinstance(sym, FHLError) or not (_finite(*sym) and sym[2] < SYMMETRIZATION_MAX):
        bad.append(f"symmetrization check: {sym!r}")
    poh = out["pohozaev"]
    if isinstance(poh, FHLError) or not (_finite(poh[0], *poh[1], poh[2]) and poh[2] > 0.0):
        bad.append(f"pohozaev balance: {poh!r}")
    return n + 2, bad


# --------------------------------------------------------------------------
# bn_sweep: Brezis-Nirenberg continuation on the unit square, cold cache
# --------------------------------------------------------------------------

BN_EPS_FACTORS = (0.30, 0.27, 0.243)    # times lambda_1^s
BN_TOL = 1e-9


def bn_inputs(seed, work):
    return {"eps_factors": _jittered(_rng(seed), BN_EPS_FACTORS, EPS_JITTER)}


def bn_run(inp, rep, tap):
    dom = grids.rectangle(0.0, 1.0, 0.0, 1.0, 160)
    basis = spectral.build_basis(dom, 4096)
    lam1s = float(basis.lambdas[0] ** 0.45)
    eps_list = [c * lam1s for c in inp["eps_factors"]]
    params = make_params(2, 0.45, 1.2, eps_list[0], Regime.BREZIS_NIRENBERG)
    # an empty cache directory on every repetition: the weights are built
    # and written each time
    weights = riesz.load_or_build_weights(dom, 1.2, directory=str(rep / "cache"))
    opts = SolveOptions(theta=1.0, max_iter=4000, residual_tol=BN_TOL)
    _attempt(diagnostics.continuation, params, dom, eps_list, opts,
             basis, weights, 3.0, 10)
    return {"weights": weights}


def bn_check(inp, out, tap, ref):
    n = len(inp["eps_factors"])
    return n, _check_sweep(tap, n, out["weights"], BN_TOL, ref)


# --------------------------------------------------------------------------
# rect_robin: cold solve on the 1.4 x 0.9 rectangle, then its Robin landscape
# --------------------------------------------------------------------------

RECT_S = 0.45
RECT_EPS = 0.15
RECT_TOL = 1e-8
ROBIN_X = (0.30, 1.10, 11)
ROBIN_Y = (0.27, 0.63, 9)


def rect_inputs(seed, work):
    rng = _rng(seed)
    gx, gy = np.linspace(*ROBIN_X), np.linspace(*ROBIN_Y)
    if rng is not None:
        gx = gx + GRID_JITTER * (gx[1] - gx[0]) * rng.uniform(-1.0, 1.0)
        gy = gy + GRID_JITTER * (gy[1] - gy[0]) * rng.uniform(-1.0, 1.0)
    return {"eps": _jittered(rng, (RECT_EPS,), EPS_JITTER)[0], "robin_axes": (gx, gy)}


def rect_run(inp, rep, tap):
    params = make_params(2, RECT_S, 2.0 - 2.0 * RECT_S, inp["eps"],
                         Regime.SUBCRITICAL_HARTREE)
    dom = grids.rectangle(0.0, 1.4, 0.0, 0.9, 128)
    basis = spectral.build_basis(dom, 2304)
    weights = riesz.build_weights(dom, params.mu)
    opts = SolveOptions(theta=1.0, max_iter=3000, residual_tol=RECT_TOL)
    _attempt(solver.solve_subcritical, params, dom, basis, weights, opts)
    robin_basis = spectral.build_basis(grids.rectangle(0.0, 1.4, 0.0, 0.9, 512),
                                       128 * 128)
    critical = _attempt(spectral.robin_critical_points, robin_basis, RECT_S,
                        inp["robin_axes"])
    return {"weights": weights, "critical": critical}


def rect_check(inp, out, tap, ref):
    gx, gy = inp["robin_axes"]
    points = len(gx) * len(gy)
    bad = _check_sweep(tap, 1, out["weights"], RECT_TOL, ref)
    crit = out["critical"]
    if isinstance(crit, FHLError):
        return 1 + points, bad + [f"robin landscape: {crit!r}"] * points
    why = []
    if tap.records:
        # criterion 7: the argmax lies within one sample cell plus one grid
        # cell of one of the four best-ranked critical points
        rec = tap.records[0]
        reach = (math.hypot(gx[1] - gx[0], gy[1] - gy[0])
                 + math.hypot(*rec.grid.domain.spacings()))
        dist = min(math.hypot(rec.argmax[0] - c[0], rec.argmax[1] - c[1])
                   for c in crit[:4])
        if not dist <= reach:
            why.append(f"argmax {rec.argmax} is {dist:.4f} from the critical "
                       f"points, more than {reach:.4f}")
    if ref is not None:
        ref_pt = ref["critical_point"]
        if (abs(crit[0][0] - ref_pt[0]) > 0.5 * (gx[1] - gx[0])
                or abs(crit[0][1] - ref_pt[1]) > 0.5 * (gy[1] - gy[0])):
            why.append(f"critical point {crit[0]} is not the reference node {ref_pt}")
    if why:
        bad += ["robin landscape: " + "; ".join(why)] * points
    return 1 + points, bad


def rect_observe(out, tap):
    crit = out["critical"]
    return {**_observe_sweep(out, tap),
            "critical_point": None if isinstance(crit, FHLError) else list(crit[0])}


# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    inputs: Callable      # (seed, work dir) -> inputs
    run: Callable         # (inputs, repetition dir, SolveTap) -> outputs
    check: Callable       # (inputs, outputs, SolveTap, reference) -> (ops, failures)
    observe: Callable     # (outputs, SolveTap) -> values kept in reference.json


WORKLOADS = {
    "sweep1d": Workload(sweep1d_inputs, sweep1d_run, sweep1d_check, _observe_sweep),
    "bn_sweep": Workload(bn_inputs, bn_run, bn_check, _observe_sweep),
    "rect_robin": Workload(rect_inputs, rect_run, rect_check, rect_observe),
}


def reference(name, seed):
    """Seed-0 reference values of a workload, None for other seeds."""
    if seed != 0:
        return None
    return json.loads(REFERENCE.read_text())[name]
