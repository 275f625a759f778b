"""Shared fixtures: the expensive reference runs are session-scoped so the
acceptance criteria and the module tests reuse one sweep.  Each records its
build seconds in `fixture_seconds`, which the acceptance runtime bars add
to the time of their own checks."""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from fhl import diagnostics, grids, riesz, solver, spectral
from fhl.model import Regime, make_params
from fhl.solver import SolveOptions, Strategy


@pytest.fixture(scope="session")
def fixture_seconds():
    """Build seconds of each session fixture below, keyed by its name."""
    return {}


@contextmanager
def _timed(seconds, name):
    t0 = time.perf_counter()
    yield
    seconds[name] = time.perf_counter() - t0


@pytest.fixture(scope="session")
def interval_basis_20k(fixture_seconds):
    """20000-mode interval basis for Green/Robin work (never sampled)."""
    with _timed(fixture_seconds, "interval_basis_20k"):
        dom = grids.interval(0.0, 1.0, 40000)
        return spectral.build_basis(dom, 20000)


@pytest.fixture(scope="session")
def sweep1d(fixture_seconds):
    """Reference subcritical sweep: interval, s = 0.18, N = 4096, K = 1024.

    s sits where the concentration width mu^{-(2#-2-eps)/2s} stays above the
    grid scale across eps in {0.4, 0.2, 0.1, 0.05}, so the blow-up trends
    are genuinely resolved (README, "Resolution limits").
    """
    with _timed(fixture_seconds, "sweep1d"):
        params = make_params(1, 0.18, 1.0 - 0.36, 0.4,
                             Regime.SUBCRITICAL_HARTREE)
        dom = grids.interval(0.0, 1.0, 4096)
        basis = spectral.build_basis(dom, 1024)
        weights = riesz.build_weights(dom, params.mu)
        opts = SolveOptions(theta=1.0, max_iter=4000, residual_tol=1e-9)
        report = diagnostics.continuation(params, dom, [0.4, 0.2, 0.1, 0.05],
                                          opts, basis=basis, weights=weights,
                                          window=3.0, strip_cells=10)
        return report, basis, weights


@pytest.fixture(scope="session")
def bn_sweep(fixture_seconds):
    """Brezis-Nirenberg reference: unit square, s = 0.45, mu = 1.2."""
    with _timed(fixture_seconds, "bn_sweep"):
        dom = grids.rectangle(0.0, 1.0, 0.0, 1.0, 160)
        basis = spectral.build_basis(dom, 4096)
        lam1s = float(basis.lambdas[0] ** 0.45)
        eps_list = [0.30 * lam1s, 0.27 * lam1s, 0.243 * lam1s]
        params = make_params(2, 0.45, 1.2, eps_list[0], Regime.BREZIS_NIRENBERG)
        weights = riesz.build_weights(dom, 1.2)
        opts = SolveOptions(theta=1.0, max_iter=4000, residual_tol=1e-9)
        report = diagnostics.continuation(params, dom, eps_list, opts,
                                          basis=basis, weights=weights,
                                          window=3.0, strip_cells=10)
        return report, basis, weights


@pytest.fixture(scope="session")
def reference_s03(fixture_seconds):
    """Criterion-6 reference pair: (K, N) = (256, 1024) and (512, 2048)."""
    with _timed(fixture_seconds, "reference_s03"):
        params = make_params(1, 0.3, 1.0 - 0.6, 0.2, Regime.SUBCRITICAL_HARTREE)
        out = {}
        for key, (K, N) in (("coarse", (256, 1024)), ("fine", (512, 2048))):
            dom = grids.interval(0.0, 1.0, N)
            basis = spectral.build_basis(dom, K)
            weights = riesz.build_weights(dom, params.mu)
            opts = SolveOptions(theta=0.5, max_iter=500, residual_tol=1e-8)
            rec = solver.solve_subcritical(params, dom, basis, weights, opts)
            out[key] = rec
        return out


@pytest.fixture(scope="session")
def asym_rectangle_run(fixture_seconds):
    """Subcritical solve plus Robin landscape on the 1.4 x 0.9 rectangle."""
    with _timed(fixture_seconds, "asym_rectangle_run"):
        s = 0.45
        params = make_params(2, s, 2.0 - 2.0 * s, 0.15,
                             Regime.SUBCRITICAL_HARTREE)
        dom = grids.rectangle(0.0, 1.4, 0.0, 0.9, 128)
        basis = spectral.build_basis(dom, 2304)
        weights = riesz.build_weights(dom, params.mu)
        opts = SolveOptions(theta=1.0, max_iter=3000, residual_tol=1e-8)
        rec = solver.solve_subcritical(params, dom, basis, weights, opts)
        robin_basis = spectral.build_basis(
            grids.rectangle(0.0, 1.4, 0.0, 0.9, 512), 128 * 128)
        gx = np.linspace(0.30, 1.10, 11)
        gy = np.linspace(0.27, 0.63, 9)
        crit = spectral.robin_critical_points(robin_basis, s, (gx, gy))
        return rec, crit, (gx, gy), robin_basis
