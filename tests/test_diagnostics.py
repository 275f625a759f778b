import math
import re

import numpy as np
import pytest

from fhl import constants, diagnostics, riesz, spectral
from fhl.diagnostics import ContinuationReport
from fhl.errors import (DegenerateStrip, MissingRobin, OutOfRange,
                        SampleTooClose)
from fhl.grids import GridField, interval, rectangle
from fhl.model import Regime, make_params
from oracles import moment_double_2d_fftconvolve


def _synthetic_report(params, eps_mu_pairs):
    rep = ContinuationReport(params=params, domain=interval(0, 1, 64),
                             eps_list=[e for e, _ in eps_mu_pairs],
                             records=[object()] * len(eps_mu_pairs),
                             derived=[], strip_margin=0.1)
    for eps, mu in eps_mu_pairs:
        rep.derived.append({
            "eps": eps, "mu_eps": mu, "mu_eps_pow_eps": mu ** eps,
            "x_eps": [0.5], "profile_distance": 0.0,
            "boundary_strip_sup": 0.0, "interior_l1": 0.0,
            "rate_lhs": diagnostics._rate_lhs(params, eps, mu),
            "sup_norm": mu, "residual": 0.0, "quotient": 1.0,
        })
    return rep


@pytest.fixture
def params1():
    return make_params(1, 0.2, 0.6, 0.1, Regime.SUBCRITICAL_HARTREE)


def test_mu_power_synthetic_exponential(params1):
    pairs = [(e, math.exp(1.0 / math.sqrt(e))) for e in (0.4, 0.2, 0.1, 0.05)]
    rep = _synthetic_report(params1, pairs)
    seq, decreasing = diagnostics.mu_power_check(rep)
    # mu^eps = exp(sqrt(eps)) -> 1 monotonically
    assert decreasing
    assert all(abs(v - math.exp(math.sqrt(e))) < 1e-12 for e, v in seq)


def test_mu_power_constant_one(params1):
    rep = _synthetic_report(params1, [(e, 1.0) for e in (0.4, 0.2, 0.1)])
    seq, _ = diagnostics.mu_power_check(rep)
    assert all(v == 1.0 for _, v in seq)


def test_mu_power_empty_rejected(params1):
    rep = _synthetic_report(params1, [])
    with pytest.raises(OutOfRange):
        diagnostics.mu_power_check(rep)


def test_eps_bound_synthetic(params1):
    # mu = eps^{-1/2}: eps * mu^{2+o(1)} stays near 1
    pairs = [(e, e ** -0.5) for e in (0.4, 0.2, 0.1, 0.05)]
    rep = _synthetic_report(params1, pairs)
    seq, bounded = diagnostics.eps_bound_check(rep)
    assert bounded
    vals = [v for _, v in seq]
    assert max(vals) / min(vals) < 3.0


def test_eps_bound_single_record(params1):
    rep = _synthetic_report(params1, [(0.4, 2.0)])
    _, bounded = diagnostics.eps_bound_check(rep)
    assert bounded


def test_continuation_validates_schedule(params1):
    dom = interval(0, 1, 64)
    with pytest.raises(OutOfRange):
        diagnostics.continuation(params1, dom, [0.1, 0.2])
    with pytest.raises(OutOfRange):
        diagnostics.continuation(params1, dom, [0.2, -0.1])


def test_continuation_empty(params1):
    dom = interval(0, 1, 64)
    rep = diagnostics.continuation(params1, dom, [])
    assert rep.records == [] and rep.derived == []


def test_rate_law_synthetic_constant(params1):
    # sup = c / sqrt(eps) makes the subcritical lhs nearly eps-independent
    c = 3.0
    pairs = [(e, c / math.sqrt(e)) for e in (0.4, 0.2, 0.1, 0.05)]
    rep = _synthetic_report(params1, pairs)
    lhs, rhs = diagnostics.rate_law_subcritical(rep, robin_at_x0=1.0)
    n, s = 1, 0.2
    target = (n - 2 * s) ** 2 * c ** 2 / (2 * (n + 2 * s))
    assert abs(lhs[-1][1] / target - 1.0) < 0.1
    assert rhs > 0.0 and math.isfinite(rhs)


def test_rate_law_requires_robin(params1):
    rep = _synthetic_report(params1, [(0.4, 2.0)])
    with pytest.raises(MissingRobin):
        diagnostics.rate_law_subcritical(rep, None)


def test_rate_law_rhs_composition_n1_s03():
    p = make_params(1, 0.3, 0.4, 0.1, Regime.SUBCRITICAL_HARTREE)
    rep = _synthetic_report(p, [(0.4, 2.0), (0.2, 3.0)])
    _, rhs = diagnostics.rate_law_subcritical(rep, robin_at_x0=1.0)
    # cross-check the composition against the constants module directly
    n, s = 1, 0.3
    expected = ((n - 2 * s) ** 2 * constants.gamma_ns(n, s)
                * constants.small_b_ns(n, s) ** 2
                / (2 * constants.kappa_s(s)
                   * constants.alpha_nmus(n, n - 2 * s, s) ** 2
                   * constants.beta_tilde_nmus(n, n - 2 * s, s)
                   * constants.b_big_ns(n, s))
                * constants.m_big_ns(n, s))
    assert abs(rhs / expected - 1.0) < 1e-12
    assert rhs > 0.0


def test_rate_law_bn_synthetic():
    p = make_params(2, 0.45, 1.2, 1.0, Regime.BREZIS_NIRENBERG)
    expo = (2 * 2 - 8 * 0.45) / (2 - 2 * 0.45)
    pairs = [(e, e ** (-1.0 / expo)) for e in (1.0, 0.8, 0.6)]
    rep = _synthetic_report(p, pairs)
    lhs, rhs = diagnostics.rate_law_bn(rep, robin_at_x0=0.2)
    vals = [v for _, v in lhs]
    assert max(vals) - min(vals) < 1e-12
    assert rhs > 0.0 and math.isfinite(rhs)


# --------------------------------------------------------------------------
# symmetrization identity
# --------------------------------------------------------------------------

def _hat(x):
    return np.maximum(0.0, 1.0 - np.abs(x - 0.5) / 0.25)


def test_symmetrization_hat():
    dom = interval(0.0, 1.0, 513)
    w = riesz.build_weights(dom, 0.4)
    f = GridField(dom, _hat(dom.axes()[0]))
    lhs_a, lhs_b, res = diagnostics.symmetrization_check(f, 0.4, w)
    assert res < 1e-4
    assert abs(lhs_b - 0.0984) < 1e-3


def test_symmetrization_zero():
    dom = interval(0.0, 1.0, 64)
    w = riesz.build_weights(dom, 0.4)
    f = GridField(dom, np.zeros(64))
    lhs_a, lhs_b, res = diagnostics.symmetrization_check(f, 0.4, w)
    assert lhs_a == lhs_b == res == 0.0


def test_symmetrization_bubble_restriction():
    dom = interval(0.0, 1.0, 513)
    w = riesz.build_weights(dom, 0.4)
    alpha = constants.alpha_nmus(1, 0.4, 0.3)
    x = dom.axes()[0]
    f = GridField(dom, alpha * (1.0 / (1.0 + (x - 0.5) ** 2)) ** 0.2)
    _, _, res = diagnostics.symmetrization_check(f, 0.4, w)
    assert res < 1e-3


def test_symmetrization_refinement_order():
    residuals = []
    for n in (129, 257, 513):
        dom = interval(0.0, 1.0, n)
        w = riesz.build_weights(dom, 0.4)
        f = GridField(dom, _hat(dom.axes()[0]))
        residuals.append(diagnostics.symmetrization_check(f, 0.4, w)[2])
    orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    assert min(orders) >= 1.0


@pytest.mark.parametrize("n, mu", [(24, 0.3), (41, 1.2), (64, 1.9)])
def test_moment_double_2d_matches_fftconvolve(n, mu):
    """The numpy real-FFT form against the former scipy.signal body, on a
    non-square rectangle and a positive field that is nonzero on the edges."""
    dom = rectangle(-0.3, 1.1, 0.2, 0.9, n)
    x, y = dom.mesh()
    rng = np.random.default_rng(n)
    f = GridField(dom, np.exp(-4.0 * (x - 0.4) ** 2 - 9.0 * (y - 0.5) ** 2)
                  + 0.2 * rng.random((n, n)))
    ref = moment_double_2d_fftconvolve(f, mu)
    assert abs(diagnostics._moment_double_2d(f, mu) / ref - 1.0) < 1e-12


def test_symmetrization_rejects_negative():
    dom = interval(0.0, 1.0, 64)
    w = riesz.build_weights(dom, 0.4)
    with pytest.raises(OutOfRange):
        diagnostics.symmetrization_check(
            GridField(dom, -np.ones(64)), 0.4, w)


def test_symmetrization_rejects_other_kernel():
    """Weights for mu = 0.4 at mu = 0.6 gave residual 1.06 with no error."""
    dom = interval(0.0, 1.0, 513)
    w = riesz.build_weights(dom, 0.4)
    f = GridField(dom, _hat(dom.axes()[0]))
    with pytest.raises(OutOfRange, match="weights built for mu = 0.4"):
        diagnostics.symmetrization_check(f, 0.6, w)


# --------------------------------------------------------------------------
# pohozaev
# --------------------------------------------------------------------------

def test_pohozaev_free_space_gap():
    p = make_params(1, 0.3, 0.4, 0.0, Regime.FREE_SPACE)
    assert diagnostics.pohozaev_free_space_gap(p) < 1e-4


def test_green_limit_synthetic(interval_basis_20k):
    """u = b_ns G(., x0) / m with m its sup: every ratio is 1."""
    from types import SimpleNamespace
    basis = interval_basis_20k
    s = 0.3
    x0 = (0.5,)
    dom = interval(0.0, 1.0, 257)
    x = dom.axes()[0]
    b = constants.small_b_ns(1, s)
    g_vals = np.zeros(len(x))
    for i in range(1, len(x) - 1):
        if x[i] != 0.5:
            g_vals[i] = spectral.green(basis, s, (x[i],), x0)
    g_vals[x == 0.5] = np.max(g_vals)   # finite placeholder at the diagonal
    m = b * float(np.max(g_vals))
    u = GridField(dom, b * g_vals / m)
    rec = SimpleNamespace(grid=u, sup_norm=m,
                          params=make_params(1, s, 0.4, 0.1,
                                             Regime.SUBCRITICAL_HARTREE))
    rows, median = diagnostics.green_limit_check(
        rec, basis, s, x0, [(0.2,), (0.3,), (0.7,), (0.8,)])
    for _, lhs, rhs, ratio in rows:
        assert abs(ratio - 1.0) < 1e-3
    assert abs(median - 1.0) < 1e-3


def test_green_limit_1d_matches_np_interp():
    """The one interpolator reproduces the former 1-D np.interp path."""
    from types import SimpleNamespace
    dom = interval(0.0, 1.0, 97)
    x = dom.axes()[0]
    u = GridField(dom, np.sin(math.pi * x) * (1.0 + 0.3 * np.cos(7.0 * x)))
    rec = SimpleNamespace(grid=u, sup_norm=2.5,
                          params=make_params(1, 0.3, 0.4, 0.1,
                                             Regime.SUBCRITICAL_HARTREE))
    basis = spectral.build_basis(dom, 24)
    samples = [(0.013,), (0.2,), (0.3125,), (0.77,), (0.9999,)]
    rows, _ = diagnostics.green_limit_check(rec, basis, 0.3, (0.5,), samples)
    # to 1e-14 of the sup: next to the zero end node, 0.9999 cancels
    for (pt, lhs, _, _), (xs,) in zip(rows, samples):
        ref = 2.5 * float(np.interp(xs, x, u.values))
        assert pt == (xs,)
        assert abs(lhs - ref) <= 1e-14 * 2.5 * np.max(u.values)


def test_green_limit_too_close(interval_basis_20k):
    from types import SimpleNamespace
    dom = interval(0.0, 1.0, 64)
    rec = SimpleNamespace(grid=GridField(dom, np.ones(64)), sup_norm=1.0,
                          params=make_params(1, 0.3, 0.4, 0.1,
                                             Regime.SUBCRITICAL_HARTREE))
    with pytest.raises(SampleTooClose):
        diagnostics.green_limit_check(rec, interval_basis_20k, 0.3,
                                      (0.5,), [(0.5 + 1e-4,)])


@pytest.mark.parametrize("dom, params, x0, sample", [
    (interval(0.0, 1.0, 64), (1, 0.3, 0.4, 0.1, Regime.SUBCRITICAL_HARTREE),
     (0.5,), (1.2,)),
    (rectangle(0.0, 1.4, 0.0, 0.9, 32), (2, 0.45, 1.2, 0.1, Regime.BREZIS_NIRENBERG),
     (0.7, 0.45), (2.0, 0.2)),
], ids=["1d", "2d"])
def test_green_limit_sample_outside_domain(dom, params, x0, sample):
    """A sample off the grid is a typed error that names the point."""
    from types import SimpleNamespace
    rec = SimpleNamespace(grid=GridField(dom, np.ones(dom.shape)), sup_norm=1.0,
                          params=make_params(*params))
    basis = spectral.build_basis(dom, 8)
    with pytest.raises(OutOfRange, match=re.escape(str(sample))):
        diagnostics.green_limit_check(rec, basis, params[1], x0, [sample])


@pytest.mark.parametrize("sample", [0.3, (0.3, 0.2, 0.1)])
def test_green_limit_rejects_wrong_dimension(sample):
    from types import SimpleNamespace
    dom = rectangle(0.0, 1.4, 0.0, 0.9, 32)
    rec = SimpleNamespace(grid=GridField(dom, np.ones((32, 32))), sup_norm=1.0,
                          params=make_params(2, 0.45, 1.2, 0.1,
                                             Regime.BREZIS_NIRENBERG))
    basis = spectral.build_basis(dom, 8)
    with pytest.raises(OutOfRange):
        diagnostics.green_limit_check(rec, basis, 0.45, (0.7, 0.45), [sample])


def test_boundary_bounds_degenerate(params1):
    rep = _synthetic_report(params1, [(0.4, 2.0)])
    with pytest.raises(DegenerateStrip):
        diagnostics.boundary_bounds(rep, 0.6)
    with pytest.raises(DegenerateStrip):
        diagnostics.boundary_bounds(rep, -0.1)


def _hat_report(params, eps_sup_pairs):
    """Report of hats of height h and half-width 0.1/h: the strip sup and the
    interior mass stay fixed while the sup norm moves as prescribed."""
    from types import SimpleNamespace
    dom = interval(0.0, 1.0, 257)
    x = dom.axes()[0]
    recs = [SimpleNamespace(eps=e, sup_norm=h, grid=GridField(
                dom, h * np.maximum(0.0, 1.0 - h * np.abs(x - 0.5) / 0.1)))
            for e, h in eps_sup_pairs]
    return ContinuationReport(params=params, domain=dom,
                              eps_list=[e for e, _ in eps_sup_pairs],
                              records=recs, derived=[], strip_margin=0.1)


def test_boundary_bounds_rate_law_bar(params1):
    """Sup growth is judged against the rate-law growth over eps_list:
    (eps_first/eps_last)^(1/2) subcritically, the BN power otherwise."""
    bar = math.sqrt(0.4 / 0.05)
    for factor, expected in ((1.01, True), (0.99, False)):
        rep = _hat_report(params1, [(0.4, 1.0), (0.2, 1.5),
                                    (0.05, factor * bar)])
        rows, flag = diagnostics.boundary_bounds(rep, 0.1)
        assert flag is expected
        assert all(v[1] == 0.0 for v in rows)
    # Brezis-Nirenberg: eps * sup^q -> const with q = (2n-8s)/(n-2s) = 2/3
    bn = make_params(1, 0.2, 0.5, 0.4, Regime.BREZIS_NIRENBERG)
    bn_bar = (0.4 / 0.05) ** 1.5
    for factor, expected in ((1.01, True), (0.99, False)):
        rep = _hat_report(bn, [(0.4, 1.0), (0.05, factor * bn_bar)])
        assert diagnostics.boundary_bounds(rep, 0.1)[1] is expected


# --------------------------------------------------------------------------
# reference-sweep integration checks (shared session fixture)
# --------------------------------------------------------------------------

def test_sweep_quotient_approaches_bubble(sweep1d):
    """The solve quotient lands within 10% of the bubble quotient by the
    smallest eps, approaching it monotonically."""
    from fhl import bubbles
    report, _, _ = sweep1d
    p = report.params
    p0 = make_params(p.n, p.s, p.mu, 0.0, Regime.FREE_SPACE)
    bub = bubbles.Bubble(bubbles.BubbleFamily.HARTREE_W, (0.0,), 1.0, p0)
    qb = bubbles.hls_quotient(bub)
    ratios = [d["quotient"] / qb for d in report.derived]
    assert all(b < a for a, b in zip(ratios, ratios[1:]))
    assert abs(ratios[-1] - 1.0) < 0.10


def test_sweep_eps_bound_recorded(sweep1d):
    report, _, _ = sweep1d
    seq, bounded = diagnostics.eps_bound_check(report)
    assert bounded
    assert len(seq) == 4


def test_sweep_domination_constant(sweep1d):
    """Empirical smallest c with v_eps <= c W stays O(1) over the sweep."""
    report, _, _ = sweep1d
    cs = [d["domination_c"] for d in report.derived]
    assert all(1.0 - 1e-9 <= c < 3.0 for c in cs)


def test_sweep_green_limit_trend(sweep1d, interval_basis_20k):
    """Green-function limit: median ratio in [0.5, 2] at the smallest eps
    and closer to 1 there than at the largest eps."""
    report, _, _ = sweep1d
    s = report.params.s
    samples = [(0.1,), (0.2,), (0.8,), (0.9,)]
    medians = []
    for rec in (report.records[0], report.records[-1]):
        x0 = rec.argmax
        _, med = diagnostics.green_limit_check(rec, interval_basis_20k, s,
                                               x0, samples)
        medians.append(med)
    assert 0.5 <= medians[-1] <= 2.0
    assert abs(medians[-1] - 1.0) < abs(medians[0] - 1.0)


def test_sweep_pohozaev_balance_stable(sweep1d):
    """Interior Pohozaev term controlled by the computable majorants with a
    stable ratio over the last three records."""
    report, _, weights = sweep1d
    gaps = []
    for rec in report.records[1:]:
        p = make_params(report.params.n, report.params.s, report.params.mu,
                        rec.eps, Regime.SUBCRITICAL_HARTREE)
        _, _, gap = diagnostics.pohozaev_balance(rec, p, None, weights, r=0.2)
        gaps.append(gap)
    assert all(g > 0.0 for g in gaps)
    mid = sorted(gaps)[len(gaps) // 2]
    assert all(abs(g / mid - 1.0) < 0.2 for g in gaps)


def test_pohozaev_balance_rejects_other_kernel(sweep1d):
    """The sweep's weights are for |x|^-(n-2s); another s needs others."""
    report, _, weights = sweep1d
    rec = report.records[-1]
    p = make_params(report.params.n, report.params.s + 0.01,
                    report.params.mu - 0.02, rec.eps, Regime.SUBCRITICAL_HARTREE)
    with pytest.raises(OutOfRange, match="weights built for mu"):
        diagnostics.pohozaev_balance(rec, p, None, weights, r=0.2)
