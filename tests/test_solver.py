import math

import numpy as np
import pytest

from fhl import riesz, solver, spectral
from fhl.errors import NoConvergence, OutOfRange, ResonantEps, ZeroField
from fhl.grids import GridField, interval, rectangle
from fhl.model import Regime, exponents, make_params
from fhl.solver import Seed, SolveOptions


@pytest.fixture(scope="module")
def small_setup():
    params = make_params(1, 0.3, 0.4, 0.3, Regime.SUBCRITICAL_HARTREE)
    dom = interval(0.0, 1.0, 256)
    basis = spectral.build_basis(dom, 64)
    weights = riesz.build_weights(dom, 0.4)
    return params, dom, basis, weights


@pytest.fixture(scope="module")
def small_record(small_setup):
    params, dom, basis, weights = small_setup
    opts = SolveOptions(theta=1.0, max_iter=1000)
    return solver.solve_subcritical(params, dom, basis, weights, opts)


def test_solve_converges(small_record):
    assert small_record.converged
    assert small_record.residual < 1e-8
    assert abs(small_record.argmax[0] - 0.5) < 0.01


def test_solution_even(small_record):
    vals = small_record.grid.values
    assert np.max(np.abs(vals - vals[::-1])) < 1e-8 * small_record.sup_norm


def test_eps_zero_rejected(small_setup):
    params, dom, basis, weights = small_setup
    p0 = make_params(1, 0.3, 0.4, 0.0, Regime.SUBCRITICAL_HARTREE)
    with pytest.raises(OutOfRange, match="eps > 0"):
        solver.solve_subcritical(p0, dom, basis, weights)


def test_linear_power_iteration_hook(small_setup):
    """Nonlocal term pinned to 1 and p = 2: inverse iteration gives phi_1."""
    params, dom, basis, weights = small_setup
    denom = basis.lambdas ** params.s
    u = np.ones(dom.n_grid)
    u[0] = u[-1] = 0.0
    for _ in range(200):
        b = spectral.analysis(basis, GridField(dom, u)).coeffs
        u = spectral.synthesis(spectral.SpectralField(basis, b / denom)).values
        u = u / np.max(u)
    phi1 = spectral.synthesis(spectral.SpectralField(
        basis, np.eye(basis.K)[0])).values
    phi1 = phi1 / np.max(phi1)
    cos = (np.sum(u * phi1) / math.sqrt(np.sum(u * u) * np.sum(phi1 * phi1)))
    assert abs(1.0 - cos) < 1e-8


def test_homogeneity_calibration(small_setup, small_record):
    """The calibrated solution is a local residual minimum over rescaling."""
    params, dom, basis, weights = small_setup
    base = solver.residual(small_record.grid, params, basis, weights)
    for c in (1.0 + 1e-6, 1.0 - 1e-6):
        res = solver.residual(GridField(dom, c * small_record.grid.values),
                              params, basis, weights)
        assert res > base


def test_residual_zero_field(small_setup):
    params, dom, basis, weights = small_setup
    assert solver.residual(GridField(dom, np.zeros(dom.n_grid)),
                           params, basis, weights) == 0.0


def test_residual_phi1_positive(small_setup):
    params, dom, basis, weights = small_setup
    phi1 = spectral.synthesis(spectral.SpectralField(basis, np.eye(basis.K)[0]))
    assert solver.residual(phi1, params, basis, weights) > 1e-2


def test_energy_quotient_homogeneity(small_setup, small_record):
    params, dom, basis, weights = small_setup
    base = solver.energy_quotient(small_record.grid, params, basis, weights)
    for c in (0.5, 3.0):
        q = solver.energy_quotient(GridField(dom, c * small_record.grid.values),
                                   params, basis, weights)
        assert abs(q / base - 1.0) < 1e-10


def test_energy_quotient_zero_field(small_setup):
    params, dom, basis, weights = small_setup
    with pytest.raises(ZeroField):
        solver.energy_quotient(GridField(dom, np.zeros(dom.n_grid)),
                               params, basis, weights)


def test_energy_quotient_phi1_against_brute_force(small_setup):
    """Quotient of phi_1 against an independently coded double sum."""
    params, dom, basis, weights = small_setup
    phi1 = spectral.synthesis(spectral.SpectralField(basis, np.eye(basis.K)[0]))
    q = solver.energy_quotient(phi1, params, basis, weights)
    p = exponents(params).p_sub
    x = dom.axes()[0]
    n = dom.n_grid
    h = x[1] - x[0]
    w = np.full(n, h)
    w[0] = w[-1] = h / 2
    up = np.maximum(phi1.values, 0.0) ** p
    # brute-force row loop over the same product-integration moments
    mu = 0.4
    dbl = 0.0
    for i in range(n):
        row = np.zeros(n)
        for j in range(n - 1):
            ul, ur = x[j] - x[i], x[j + 1] - x[i]
            m0 = (np.sign(ur) * abs(ur) ** (1 - mu)
                  - np.sign(ul) * abs(ul) ** (1 - mu)) / (1 - mu)
            m1 = (abs(ur) ** (2 - mu) - abs(ul) ** (2 - mu)) / (2 - mu) - ul * m0
            row[j] += m0 - m1 / h
            row[j + 1] += m1 / h
        dbl += w[i] * up[i] * (row @ up)
    lam1s = basis.lambdas[0] ** params.s
    q_oracle = lam1s / dbl ** (1.0 / p)
    assert abs(q / q_oracle - 1.0) < 1e-8


def test_bubble_cap_seed(small_setup, small_record):
    params, dom, basis, weights = small_setup
    opts = SolveOptions(theta=1.0, max_iter=1000, seed=Seed.bubble_cap(5.0))
    rec = solver.solve_subcritical(params, dom, basis, weights, opts)
    assert abs(rec.sup_norm / small_record.sup_norm - 1.0) < 1e-6


@pytest.mark.parametrize("params, dom, K", [
    (make_params(1, 0.3, 0.4, 0.3, Regime.SUBCRITICAL_HARTREE),
     interval(0.0, 1.0, 256), 64),
    (make_params(2, 0.45, 1.1, 0.15, Regime.SUBCRITICAL_HARTREE),
     rectangle(0.0, 1.4, 0.0, 0.9, 48), 256),
], ids=["interval", "rectangle"])
def test_tracked_coefficients_match_analysis(params, dom, K):
    """The Picard loop updates the coefficients of u instead of analysing u
    again; from a seed outside the mode span and with damping, the tracked
    coefficients at exit still equal the analysis of the returned field."""
    basis = spectral.build_basis(dom, K)
    weights = riesz.build_weights(dom, params.mu)
    opts = SolveOptions(theta=0.5, max_iter=1000, seed=Seed.bubble_cap(5.0))
    seed = solver._seed_values(opts.seed, params, dom, basis)
    outside = seed - spectral.synthesis(spectral.analysis(
        basis, GridField(dom, seed))).values
    assert np.max(np.abs(outside)) > 1e-3 * np.max(seed)
    rec = solver.solve_subcritical(params, dom, basis, weights, opts)
    assert rec.converged and rec.iterations > 10
    exact = spectral.analysis(basis, rec.grid).coeffs
    assert np.max(np.abs(rec.field.coeffs - exact)) < 1e-12


def test_tracked_coefficients_mid_iteration(small_setup):
    """Stopped after two steps from a two-bump seed, whose damped updates
    peak below 1 (the bumps trade places), the tracked coefficients still
    equal the analysis of the iterate."""
    params, dom, basis, weights = small_setup
    x = dom.axes()[0]
    bumps = GridField(dom, np.maximum(0.0, 1.0 - np.abs(x - 0.2) / 0.05)
                      + 0.9 * np.maximum(0.0, 1.0 - np.abs(x - 0.6) / 0.2))
    opts = SolveOptions(theta=0.5, max_iter=2, seed=Seed.warm_start(bumps))
    with pytest.raises(NoConvergence) as info:
        solver.solve_subcritical(params, dom, basis, weights, opts)
    rec = info.value.record
    exact = spectral.analysis(basis, rec.grid).coeffs
    assert np.max(np.abs(rec.field.coeffs - exact)) < 1e-12 * np.max(np.abs(exact))


@pytest.fixture(scope="module")
def bn_setup():
    params = make_params(2, 0.45, 1.2, 0.1, Regime.BREZIS_NIRENBERG)
    dom = rectangle(0.0, 1.0, 0.0, 1.0, 96)
    basis = spectral.build_basis(dom, 1024)
    weights = riesz.build_weights(dom, 1.2)
    return params, dom, basis, weights


def test_bn_resonant_eps(bn_setup):
    params, dom, basis, weights = bn_setup
    lam1s = float(basis.lambdas[0] ** params.s)
    p_res = make_params(2, 0.45, 1.2, lam1s, Regime.BREZIS_NIRENBERG)
    with pytest.raises((ResonantEps, OutOfRange)):
        solver.solve_bn(p_res, dom, basis, weights)


def test_bn_reference_example(bn_setup):
    params, dom, basis, weights = bn_setup
    lam1s = float(basis.lambdas[0] ** params.s)
    p = make_params(2, 0.45, 1.2, 0.1 * lam1s, Regime.BREZIS_NIRENBERG)
    rec = solver.solve_bn(p, dom, basis, weights,
                          SolveOptions(theta=1.0, max_iter=2000))
    assert rec.converged
    h = dom.spacings()[0]
    assert abs(rec.argmax[0] - 0.5) <= h and abs(rec.argmax[1] - 0.5) <= h


def test_bn_monotone_sup(bn_setup):
    params, dom, basis, weights = bn_setup
    lam1s = float(basis.lambdas[0] ** params.s)
    sups = []
    seed = SolveOptions().seed
    for frac in (0.30, 0.25, 0.20):
        p = make_params(2, 0.45, 1.2, frac * lam1s, Regime.BREZIS_NIRENBERG)
        opts = SolveOptions(theta=1.0, max_iter=2000, seed=seed)
        rec = solver.solve_bn(p, dom, basis, weights, opts)
        seed = Seed.warm_start(rec.grid)
        sups.append(rec.sup_norm)
    assert sups[0] < sups[1] < sups[2]


def test_mesh_sensitivity_documented(small_setup):
    """The s = 0.3 configuration is resolution-limited: the sup norm shifts
    double-digit percent between (K, N) and (2K, 2N).  This pins the number
    so the acceptance-level failure of the 2% criterion is tracked."""
    params = make_params(1, 0.3, 0.4, 0.2, Regime.SUBCRITICAL_HARTREE)
    sups = []
    for (K, N) in ((64, 256), (128, 512)):
        dom = interval(0.0, 1.0, N)
        basis = spectral.build_basis(dom, K)
        weights = riesz.build_weights(dom, 0.4)
        rec = solver.solve_subcritical(params, dom, basis, weights,
                                       SolveOptions(theta=1.0, max_iter=2000))
        sups.append(rec.sup_norm)
    drift = abs(sups[1] / sups[0] - 1.0)
    assert 0.02 < drift < 0.5


_ROUTES = {
    # regime: (entry point, n, s, mu, eps) of a small 1-D solve
    Regime.SUBCRITICAL_HARTREE: ("solve_subcritical", 1, 0.3, 0.4, 0.3),
    Regime.BREZIS_NIRENBERG: ("solve_bn", 1, 0.2, 0.5, 0.3),
}


@pytest.fixture
def counted_solves(monkeypatch):
    """Counting wrappers installed as fhl.solver.solve_subcritical/solve_bn,
    the way the benchmark's tap installs its own."""
    calls = []
    for name in ("solve_subcritical", "solve_bn"):
        def counted(*args, _name=name, _original=getattr(solver, name), **kw):
            calls.append(_name)
            return _original(*args, **kw)
        monkeypatch.setattr(solver, name, counted)
    return calls


@pytest.mark.parametrize("regime", list(_ROUTES), ids=lambda r: r.value)
def test_every_solve_routes_through_regime_entry(regime, counted_solves,
                                                 tmp_path, monkeypatch):
    """solver.solve, diagnostics.continuation and `fhl solve` each reach
    the regime's entry point through the module attribute."""
    from fhl import cli, diagnostics
    name, n, s, mu, eps = _ROUTES[regime]
    params = make_params(n, s, mu, eps, regime)
    dom = interval(0.0, 1.0, 128)
    basis = spectral.build_basis(dom, 32)
    weights = riesz.build_weights(dom, solver.kernel_exponent(params))
    opts = SolveOptions(theta=1.0, max_iter=500)

    assert solver.solve(params, dom, basis, weights, opts).converged
    assert counted_solves == [name]
    diagnostics.continuation(params, dom, [eps], opts, basis=basis,
                             weights=weights)
    assert counted_solves == [name] * 2
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"regime={regime.value}\nn={n}\ns={s}\nmu={mu}\neps={eps}\n"
                   "domain.kind=interval\ngrid=128\nmodes=32\ntheta=1.0\n")
    monkeypatch.setenv("FHL_CACHE_DIR", str(tmp_path / "cache"))
    assert cli.run_command(["solve", "--config", str(cfg),
                            "--out", str(tmp_path / "out")]) == 0
    assert counted_solves == [name] * 3

    other = next(r for r in _ROUTES if r is not regime)
    _, n2, s2, mu2, eps2 = _ROUTES[other]
    with pytest.raises(OutOfRange, match="requires"):
        getattr(solver, name)(make_params(n2, s2, mu2, eps2, other),
                              dom, basis, weights, opts)


def test_solve_rejects_free_space(counted_solves):
    params = make_params(1, 0.3, 0.4, 0.3, Regime.FREE_SPACE)
    dom = interval(0.0, 1.0, 64)
    basis = spectral.build_basis(dom, 16)
    weights = riesz.build_weights(dom, 0.4)
    with pytest.raises(OutOfRange, match="no bounded-domain equation"):
        solver.solve(params, dom, basis, weights)
    with pytest.raises(OutOfRange, match="no bounded-domain equation"):
        solver.kernel_exponent(params)
    assert counted_solves == []
