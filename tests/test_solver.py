import math

import numpy as np
import pytest

from fhl import constants, riesz, solver, spectral
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


@pytest.mark.parametrize("dom", [interval(0.0, 1.0, 256),
                                 rectangle(0.0, 1.0, 0.0, 1.0, 160),
                                 rectangle(0.0, 1.4, 0.0, 0.9, 128)],
                         ids=["interval", "square", "rectangle"])
def test_bubble_cap_seed_exactly_even(dom):
    """The cap is exactly even, though the mesh nodes are not mirror-exact
    about the centre, so a bubble-cap solve keeps every iterate even."""
    n = dom.dim
    params = make_params(n, 0.45, n - 0.9, 0.2, Regime.SUBCRITICAL_HARTREE)
    basis = spectral.build_basis(dom, 16)
    cap = solver._seed_values(Seed.bubble_cap(6.0), params, dom, basis)
    assert all(np.array_equal(cap, np.flip(cap, axis)) for axis in range(n))
    if n == 1:
        weights = riesz.build_weights(dom, solver.kernel_exponent(params))
        opts = SolveOptions(theta=0.5, max_iter=1000, seed=Seed.bubble_cap(6.0))
        rec = solver.solve_subcritical(params, dom, basis, weights, opts)
        assert rec.converged and rec.mirror_defect == (0.0,)


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


@pytest.mark.parametrize("setup", ["small_setup", "bn_setup"])
def test_warm_start_boundary_pinned(setup, request):
    """A warm start that is nonzero on the boundary is pinned to exact zero
    there, as the bubble cap is: the 2-D apply takes no other field, and a
    damped step would keep (1 - theta)^k of the seed's edges.  The solve
    is the one from the pinned seed, bit for bit."""
    params, dom, basis, weights = request.getfixturevalue(setup)
    # at least 0.2 everywhere, so on every edge
    vals = 0.2 + np.prod([np.sin(math.pi * x) for x in dom.mesh()], axis=0)
    pinned = vals.copy()
    for axis in range(vals.ndim):
        np.moveaxis(pinned, axis, 0)[[0, -1]] = 0.0
    seed = Seed.warm_start(GridField(dom, vals))
    assert np.array_equal(solver._seed_values(seed, params, dom, basis), pinned)
    recs = [solver.solve(params, dom, basis, weights,
                         SolveOptions(theta=0.5, max_iter=2000,
                                      seed=Seed.warm_start(GridField(dom, v))))
            for v in (vals, pinned)]
    assert recs[0].converged and recs[0].iterations == recs[1].iterations
    assert np.array_equal(recs[0].grid.values, recs[1].grid.values)


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
                                                 tmp_path):
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


@pytest.mark.parametrize("dom, centre", [
    (interval(0.0, 1.4, 33), (16,)),
    (rectangle(0.0, 1.4, 0.0, 0.9, 33), (16, 16)),
], ids=["interval", "rectangle"])
def test_bubble_cap_seed_values(dom, centre):
    n = dom.dim
    params = make_params(n, 0.45, n - 0.9, 0.2, Regime.SUBCRITICAL_HARTREE)
    basis = spectral.build_basis(dom, 16)
    lam0 = 6.0
    cap = solver._seed_values(Seed.bubble_cap(lam0), params, dom, basis)
    assert cap.shape == (33,) * n
    for axis in range(n):
        edges = np.moveaxis(cap, axis, 0)[[0, -1]]
        assert np.all(edges == 0.0)
    # the odd grid puts a node on the centre, where the cap is alpha lam0^e
    alpha = constants.alpha_nmus(n, params.mu, params.s)
    peak = alpha * lam0 ** ((n - 0.9) / 2.0)
    assert cap[centre] == pytest.approx(peak, rel=1e-14)
    assert float(np.max(cap)) == cap[centre]


@pytest.mark.parametrize("dom, mu", [(interval(0.0, 1.0, 256), 0.4),
                                     (rectangle(0.0, 1.4, 0.0, 0.9, 48), 1.2)],
                         ids=["interval", "rectangle"])
def test_nonlinear_rhs_one_power(dom, mu):
    """u^{p-1} u in place of u^p: the two-power form to 1e-14 relative, on
    a field with negative ripple (clamped) and exact zeros."""
    weights = riesz.build_weights(dom, mu)
    bump = np.prod([np.sin(math.pi * (x - lo) / (hi - lo))
                    for (lo, hi), x in zip(dom.ranges(), dom.mesh())], axis=0)
    u = bump - 0.05 + 0.01 * np.random.default_rng(4).normal(size=dom.shape)
    u[u < 0.02] = 0.0
    u.flat[::5] -= 0.03
    assert np.any(u < 0.0) and np.any(u == 0.0)
    for p in (1.37, 2.0, 2.9):
        pos = np.maximum(u, 0.0)
        conv = riesz.convolve(weights, GridField(dom, pos ** p)).values
        two_power = conv * pos ** (p - 1.0)
        fast = solver._nonlinear_rhs(weights, u, p)
        assert np.max(np.abs(fast - two_power)) <= 1e-14 * np.max(np.abs(two_power))
        assert np.all(fast[u <= 0.0] == 0.0)


@pytest.mark.parametrize("case", ["interval", "rectangle"])
def test_non_finite_iterate_raises_out_of_range(monkeypatch, case):
    """The loop's fields are not validated one by one; a NaN that enters
    the Riesz apply mid-solve still ends the solve with OutOfRange."""
    if case == "interval":
        params = make_params(1, 0.3, 0.4, 0.3, Regime.SUBCRITICAL_HARTREE)
        dom, K = interval(0.0, 1.0, 256), 64
    else:
        params = make_params(2, 0.45, 1.1, 0.2, Regime.SUBCRITICAL_HARTREE)
        dom, K = rectangle(0.0, 1.4, 0.0, 0.9, 32), 64
    basis = spectral.build_basis(dom, K)
    weights = riesz.build_weights(dom, solver.kernel_exponent(params))
    calls = []
    clean = riesz._convolve

    def poisoned(w, vals):
        out = clean(w, vals)
        calls.append(None)
        if len(calls) == 3:
            out[(len(out) // 3,) * out.ndim] = math.nan
        return out

    monkeypatch.setattr(riesz, "_convolve", poisoned)
    with pytest.raises(OutOfRange, match="field values must be finite"):
        solver.solve(params, dom, basis, weights, SolveOptions(theta=1.0))
    assert len(calls) == 3


def test_fixed_point_with_negative_ripple_converges():
    """The truncated Green operator leaves a negative ripple on this coarse
    fixed point; every damping reaches it, and the sign is only reported."""
    params = make_params(1, 0.3, 0.4, 0.3, Regime.SUBCRITICAL_HARTREE)
    dom = interval(0.0, 1.0, 64)
    basis = spectral.build_basis(dom, 16)
    weights = riesz.build_weights(dom, 0.4)
    sups = []
    for theta in (1.0, 0.5, 0.25):
        rec = solver.solve_subcritical(params, dom, basis, weights,
                                       SolveOptions(theta=theta))
        assert rec.converged and rec.positive is False
        assert -3.1e-3 <= rec.min_interior / rec.sup_norm <= -3.0e-3
        sups.append(rec.sup_norm)
    assert max(sups) / min(sups) - 1.0 < 1e-8
    assert abs(sups[0] / 1.58185570 - 1.0) < 1e-8


def test_sign_changing_start_ends_in_no_convergence(small_setup):
    """A warm start with a full negative lobe is not rejected for its sign:
    the damped iteration runs and stops at max_iter with a typed failure."""
    params, dom, basis, weights = small_setup
    seed = Seed.warm_start(GridField(dom, np.sin(2.0 * math.pi * dom.axes()[0])))
    opts = SolveOptions(theta=0.5, seed=seed)
    with pytest.raises(NoConvergence) as info:
        solver.solve_subcritical(params, dom, basis, weights, opts)
    assert info.value.record is not None
    assert info.value.record.iterations == opts.max_iter


def test_off_centre_branch_reports_mirror_defect(small_setup, small_record):
    """The sin(2 pi x) warm start converges to a positive fixed point off
    the centre; the record reports its mirror defect, the centred solution
    one at rounding level."""
    params, dom, basis, weights = small_setup
    seed = Seed.warm_start(GridField(dom, np.sin(2.0 * math.pi * dom.axes()[0])))
    opts = SolveOptions(theta=1.0, max_iter=30000, seed=seed)
    rec = solver.solve_subcritical(params, dom, basis, weights, opts)
    assert rec.converged and rec.positive
    (defect,) = rec.mirror_defect
    assert 0.9 < defect < 1.0
    assert rec.to_dict()["mirror_defect"] == [defect]
    assert small_record.mirror_defect == (0.0,)
    # the argmax node sits near 0.325, 0.175 from the centre; the centred
    # solution's is one of the two nodes half a cell from it
    assert abs(rec.centre_offset - 0.175) < 0.01
    assert rec.to_dict()["centre_offset"] == rec.centre_offset
    assert small_record.centre_offset == pytest.approx(0.5 / 255, rel=1e-9)


def test_2d_reference_solves_exactly_even(bn_sweep, asym_rectangle_run):
    """Even seeds keep every 2-D iterate exactly even, through the quarter
    Riesz apply and the parity-skipping transforms, at the Picard counts of
    the full apply."""
    report = bn_sweep[0]
    rect = asym_rectangle_run[0]
    assert [r.iterations for r in report.records] == [142, 156, 188]
    assert rect.iterations == 146
    for rec in (*report.records, rect):
        u = rec.grid.values
        assert np.array_equal(u, u[::-1]) and np.array_equal(u, u[:, ::-1])
        assert rec.mirror_defect == (0.0, 0.0)
        # the even grid has no node on the centre: the argmax is one of the
        # four around it, half a cell diagonal away
        half_cell = 0.5 * math.hypot(*rec.grid.domain.spacings())
        assert rec.centre_offset == pytest.approx(half_cell, rel=1e-9)


def test_1d_reference_solve_exactly_even(monkeypatch):
    """The README config at N = 1024: from the first-eigenfunction seed the
    parity-exact sine transforms keep every iterate exactly even, so every
    Riesz apply takes the half-grid path.  An odd N and a field one ulp off
    evenness take the full apply."""
    taken = []
    for name in ("_even_apply", "_fft_apply"):
        def counted(*args, _name=name, _apply=getattr(riesz, name)):
            taken.append(_name)
            return _apply(*args)
        monkeypatch.setattr(riesz, name, counted)
    params = make_params(1, 0.18, 1.0 - 0.36, 0.4, Regime.SUBCRITICAL_HARTREE)
    opts = SolveOptions(theta=1.0, max_iter=4000, residual_tol=1e-9)
    for n in (1024, 1023):
        dom = interval(0.0, 1.0, n)
        basis = spectral.build_basis(dom, 256)
        weights = riesz.build_weights(dom, params.mu)
        taken.clear()
        rec = solver.solve_subcritical(params, dom, basis, weights, opts)
        assert rec.converged
        # one apply per Picard step and one in the energy quotient
        assert len(taken) == rec.iterations + 1
        if n % 2 == 0:
            assert set(taken) == {"_even_apply"}
            assert rec.mirror_defect == (0.0,)
            u = rec.grid.values.copy()
            u[100] = np.nextafter(u[100], np.inf)
            taken.clear()
            riesz._table_apply(weights, u)
            assert taken == ["_fft_apply"]
        else:
            assert set(taken) == {"_fft_apply"}


@pytest.mark.parametrize("shape", ["negative", "zero", "negative_shifted"])
def test_seed_without_positive_max_rejected(small_setup, shape):
    params, dom, basis, weights = small_setup
    bump = np.sin(math.pi * dom.axes()[0])
    values = {"negative": -bump, "zero": 0.0 * bump,
              "negative_shifted": -bump - 0.1}[shape]
    opts = SolveOptions(seed=Seed.warm_start(GridField(dom, values)))
    with pytest.raises(OutOfRange, match="warm_start seed has no positive value"):
        solver.solve_subcritical(params, dom, basis, weights, opts)


@pytest.mark.parametrize("kind, with_field, match", [
    ("bubblecap", False, "unknown seed kind 'bubblecap'"),
    ("warm_start", False, "a field is required"),
    ("bubble_cap", True, "a field is required"),
    ("first_eigenfunction", True, "a field is required"),
])
def test_seed_kind_closed(kind, with_field, match):
    dom = interval(0.0, 1.0, 16)
    fld = GridField(dom, np.sin(math.pi * dom.axes()[0])) if with_field else None
    with pytest.raises(OutOfRange, match=match):
        Seed(kind=kind, lam0=4.0, field=fld)


@pytest.mark.parametrize("max_iter", [0, -3])
def test_max_iter_below_one_rejected(max_iter):
    with pytest.raises(OutOfRange, match="max_iter"):
        SolveOptions(max_iter=max_iter)


@pytest.mark.parametrize("lam0", [0.0, -2.0, math.nan, math.inf])
def test_bubble_cap_scale_rejected(lam0):
    with pytest.raises(OutOfRange, match="lam0"):
        Seed.bubble_cap(lam0)
