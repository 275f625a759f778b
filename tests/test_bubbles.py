import math

import numpy as np
import pytest

from fhl import bubbles, constants
from fhl.bubbles import Bubble, BubbleFamily
from fhl.errors import (DegenerateScale, EmptyWindow, EvaluationAtOrigin,
                        OutOfRange)
from fhl.grids import GridField, interval, rectangle
from fhl.model import Regime, exponents, make_params

TWO_PI = 2.0 * math.pi


@pytest.fixture
def params_251():
    return make_params(2, 0.5, 1.0, 0.0, Regime.FREE_SPACE)


def test_eval_w_at_center(params_251):
    bub = Bubble(BubbleFamily.HARTREE_W, (0.0, 0.0), 1.0, params_251)
    assert abs(bubbles.eval_bubble(bub, (0.0, 0.0)) - TWO_PI ** -0.25) < 1e-12


def test_eval_u_at_center(params_251):
    bub = Bubble(BubbleFamily.SOBOLEV_U, (0.0, 0.0), 1.0, params_251)
    assert abs(bubbles.eval_bubble(bub, (0.0, 0.0)) - math.sqrt(2.0)) < 1e-12


def test_eval_scaling_identity(params_251):
    xi = (0.3, -0.2)
    b1 = Bubble(BubbleFamily.HARTREE_W, xi, 1.0, params_251)
    b2 = Bubble(BubbleFamily.HARTREE_W, xi, 2.0, params_251)
    e = (params_251.n - 2 * params_251.s) / 2.0
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.normal(size=2)
        lhs = bubbles.eval_bubble(b2, x)
        rhs = 2.0 ** e * bubbles.eval_bubble(b1, 2.0 * (x - np.array(xi)) + np.array(xi))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_eval_radial_symmetry(params_251):
    bub = Bubble(BubbleFamily.HARTREE_W, (0.1, 0.4), 1.3, params_251)
    r = 0.77
    vals = []
    for k in range(8):
        th = 2 * math.pi * k / 8
        vals.append(bubbles.eval_bubble(
            bub, (0.1 + r * math.cos(th), 0.4 + r * math.sin(th))))
    # identical up to the rounding of the direction vectors themselves
    assert max(vals) - min(vals) < 4e-16 * max(vals)


def test_zero_scale_rejected(params_251):
    with pytest.raises(OutOfRange):
        Bubble(BubbleFamily.HARTREE_W, (0.0, 0.0), 0.0, params_251)


def test_kelvin_self_reciprocity(params_251):
    bub = Bubble(BubbleFamily.HARTREE_W, (0.0, 0.0), 1.0, params_251)
    f = lambda x: bubbles.eval_bubble(bub, x)
    g = bubbles.kelvin(f, params_251)
    val = g(np.array([2.0, 0.0]))
    direct = bubbles.eval_bubble(bub, (2.0, 0.0))
    assert abs(val - direct) < 1e-14
    assert abs(direct - TWO_PI ** -0.25 / math.sqrt(5.0)) < 1e-12


def test_kelvin_of_constant():
    p = make_params(1, 0.3, 0.4, 0.0, Regime.FREE_SPACE)
    g = bubbles.kelvin(lambda x: 1.0, p)
    assert abs(g(np.array([0.5])) - 0.5 ** -0.4) < 1e-12
    assert abs(g(np.array([0.5])) - 1.31950791) < 1e-6


def test_kelvin_involution(params_251):
    bub = Bubble(BubbleFamily.HARTREE_W, (0.2, 0.1), 1.4, params_251)
    f = lambda x: bubbles.eval_bubble(bub, x)
    gg = bubbles.kelvin(bubbles.kelvin(f, params_251), params_251)
    rng = np.random.default_rng(11)
    for _ in range(25):
        x = rng.normal(size=2)
        assert abs(gg(x) - f(x)) < 1e-11


def test_kelvin_rejects_origin(params_251):
    g = bubbles.kelvin(lambda x: 1.0, params_251)
    with pytest.raises(EvaluationAtOrigin):
        g(np.zeros(2))


@pytest.mark.parametrize("x", [0.5, (0.5, 0.5, 0.5)])
def test_point_shape_rejected_in_2d(params_251, x):
    bub = Bubble(BubbleFamily.HARTREE_W, (0.0, 0.0), 1.0, params_251)
    with pytest.raises(OutOfRange):
        bubbles.eval_bubble(bub, x)
    with pytest.raises(OutOfRange):
        bubbles.kelvin(lambda y: 1.0, params_251)(x)
    with pytest.raises(OutOfRange, match="domain dimension"):
        bubbles.convolution_identity_lhs_rhs(bub, x)


def test_point_shapes_accepted(params_251):
    p1 = make_params(1, 0.3, 0.4, 0.0, Regime.FREE_SPACE)
    b1 = Bubble(BubbleFamily.HARTREE_W, (0.1,), 1.3, p1)
    assert bubbles.eval_bubble(b1, 0.5) == bubbles.eval_bubble(b1, (0.5,))
    g1 = bubbles.kelvin(lambda x: bubbles.eval_bubble(b1, x), p1)
    assert g1(0.5) == g1((0.5,))
    b2 = Bubble(BubbleFamily.HARTREE_W, (0.2, -0.1), 1.4, params_251)
    for bub in (b1, b2):
        p = bub.params
        pts = np.random.default_rng(5).normal(size=(7, p.n))
        g = bubbles.kelvin(lambda x: bubbles.eval_bubble(bub, x), p)
        # an (m, n) array evaluates row by row, up to vectorized rounding
        np.testing.assert_allclose(bubbles.eval_bubble(bub, pts),
                                   [bubbles.eval_bubble(bub, x) for x in pts],
                                   rtol=1e-14)
        np.testing.assert_allclose(g(pts), [g(x) for x in pts], rtol=1e-14)


def test_convolution_identity_center_n2(params_251):
    bub = Bubble(BubbleFamily.HARTREE_W, (0.0, 0.0), 1.0, params_251)
    lhs, rhs = bubbles.convolution_identity_lhs_rhs(bub, (0.0, 0.0))
    alpha = TWO_PI ** -0.25
    assert abs(lhs - TWO_PI * alpha ** 3) < 1e-8
    assert abs(rhs - math.sqrt(TWO_PI) * alpha) < 1e-12
    assert abs(lhs / rhs - 1.0) < 1e-6


def test_convolution_identity_center_n1():
    p = make_params(1, 0.3, 0.4, 0.0, Regime.FREE_SPACE)
    bub = Bubble(BubbleFamily.HARTREE_W, (0.0,), 1.0, p)
    assert bubbles.convolution_identity_residual(bub, (0.0,)) < 1e-6


def test_convolution_identity_n3_mu2():
    """n = 3, mu = 2: the angular mean of the kernel is a logarithm, the
    limit of the power form at mu = 2."""
    p = make_params(3, 0.6, 2.0, 0.0, Regime.FREE_SPACE)
    bub = Bubble(BubbleFamily.HARTREE_W, (0.0, 0.0, 0.0), 1.0, p)
    for rho in (0.0, 0.5, 1.0, 3.0, 10.0):
        assert bubbles.convolution_identity_residual(bub, (rho, 0.0, 0.0)) < 1e-12


def test_convolution_identity_n2_bn_kernel():
    """n = 2 at the Brezis-Nirenberg kernel exponent mu = 1.2 != n - 2s:
    the closed-form circle mean holds the identity off the centre, where
    the nested angular rule raised QuadratureFailure at rho = 2 and 5."""
    p = make_params(2, 0.45, 1.2, 0.0, Regime.FREE_SPACE)
    bub = Bubble(BubbleFamily.HARTREE_W, (0.0, 0.0), 1.0, p)
    for rho in (0.5, 1.0, 2.0, 5.0, 10.0):
        assert bubbles.convolution_identity_residual(bub, (rho, 0.0)) < 1e-12


def test_hls_quotient_value(params_251):
    bub = Bubble(BubbleFamily.HARTREE_W, (0.0, 0.0), 1.0, params_251)
    q = bubbles.hls_quotient(bub)
    expected = (math.sqrt(TWO_PI) / 2.0) ** (2.0 / 3.0)
    assert abs(q - expected) < 1e-8
    assert abs(q - 1.16245) < 1e-4


def test_hls_quotient_invariance(params_251):
    base = bubbles.hls_quotient(
        Bubble(BubbleFamily.HARTREE_W, (0.0, 0.0), 1.0, params_251))
    for lam in (0.5, 2.0, 5.0):
        q = bubbles.hls_quotient(
            Bubble(BubbleFamily.HARTREE_W, (0.0, 0.0), lam, params_251))
        assert abs(q - base) < 1e-8
    for xi in ((1.0, -2.0), (0.3, 0.0)):
        q = bubbles.hls_quotient(
            Bubble(BubbleFamily.HARTREE_W, xi, 1.0, params_251))
        assert abs(q - base) < 1e-8


def test_hls_quotient_requires_eps_zero():
    p = make_params(2, 0.5, 1.0, 0.1, Regime.FREE_SPACE)
    bub = Bubble(BubbleFamily.HARTREE_W, (0.0, 0.0), 1.0, p)
    with pytest.raises(OutOfRange):
        bubbles.hls_quotient(bub)


@pytest.mark.parametrize("dom, s, mu, eps", [
    (interval(0.0, 1.0, 2049), 0.3, 0.4, 0.1),
    (rectangle(0.0, 1.0, 0.0, 1.0, 257), 0.45, 1.1, 0.2),
], ids=["interval", "rectangle"])
def test_rescale_inverts_bubble_scaling(dom, s, mu, eps):
    n = dom.dim
    p = make_params(n, s, mu, eps, Regime.SUBCRITICAL_HARTREE)
    alpha = constants.alpha_nmus(n, n - 2.0 * s, s)
    exp = exponents(p)
    r2 = sum((x - 0.5) ** 2 for x in dom.mesh())
    mu_eps = 3.0
    lam = mu_eps ** ((exp.two_sharp - 2 - p.eps) / (2 * p.s))
    u_vals = alpha * mu_eps * (1.0 / (1.0 + lam ** 2 * r2)) ** ((n - 2.0 * s) / 2.0)
    u = GridField(dom, u_vals)
    v = bubbles.rescale(u, alpha * mu_eps, (0.5,) * n, p, window=2.0)
    assert v.values.shape == (241,) * n
    d = bubbles.profile_distance(v, p, 2.0)
    # interpolation modulus of the coarse source grid
    assert d < 5e-4
    assert abs(v.values[(120,) * n] - alpha) < 1e-12  # v(0) = alpha by construction


def test_rescale_1d_matches_np_interp():
    """The one interpolator reproduces the former 1-D np.interp path."""
    p = make_params(1, 0.3, 0.4, 0.1, Regime.SUBCRITICAL_HARTREE)
    dom = interval(-0.2, 1.3, 301)
    x = dom.axes()[0]
    u = GridField(dom, np.sin(3.0 * x) ** 2 + 0.1 + 0.01 * x)
    alpha = constants.alpha_nmus(1, 0.4, 0.3)
    mu_eps, argmax = 1.15, (0.9,)        # scale ~ 0.5: the window overhangs
    v = bubbles.rescale(u, mu_eps * alpha, argmax, p, window=3.0)
    scale = mu_eps ** (-(exponents(p).two_sharp - 2.0 - p.eps) / (2.0 * p.s))
    xx = np.clip(scale * v.domain.axes()[0] + argmax[0], x[0], x[-1])
    assert np.any(xx == x[0]) and np.any(xx == x[-1])   # both clips engage
    ref = np.interp(xx, x, u.values) / mu_eps
    assert np.max(np.abs(v.values - ref)) <= 1e-14 * np.max(np.abs(ref))


@pytest.mark.parametrize("n, s, mu", [
    (1, 0.3, 0.4), (1, 0.45, 0.9), (2, 0.5, 1.0), (2, 0.2, 0.3),
    (3, 0.5, 2.0), (3, 0.9, 1.0),
])
def test_hls_quotient_against_closed_form(n, s, mu):
    """The radial quadrature of INT W^{2#} against Lieb's closed form
    alpha^{2#} B_ns: the quotient is (beta~ alpha^{2#} B_ns)^{1 - 1/2*} at
    every centre and scale."""
    p = make_params(n, s, mu, 0.0, Regime.FREE_SPACE)
    exp = exponents(p)
    closed = (constants.beta_tilde_nmus(n, mu, s)
              * constants.alpha_nmus(n, mu, s) ** exp.two_sharp
              * constants.b_big_ns(n)) ** (1.0 - 1.0 / exp.two_star)
    for lam in (0.5, 1.0, 5.0):
        for xi in ((0.0,) * n, tuple(0.3 * (i + 1) for i in range(n))):
            q = bubbles.hls_quotient(Bubble(BubbleFamily.HARTREE_W, xi, lam, p))
            assert abs(q / closed - 1.0) < 1e-12


def test_rescale_degenerate():
    p = make_params(1, 0.3, 0.4, 0.1, Regime.SUBCRITICAL_HARTREE)
    dom = interval(0.0, 1.0, 64)
    u = GridField(dom, np.zeros(64))
    with pytest.raises(DegenerateScale):
        bubbles.rescale(u, 0.0, (0.5,), p)


def test_profile_distance_identity_and_scaling():
    p = make_params(1, 0.3, 0.4, 0.0, Regime.FREE_SPACE)
    alpha = constants.alpha_nmus(1, 0.4, 0.3)
    dom = interval(-3.0, 3.0, 241)
    x = dom.axes()[0]
    w_ref = alpha * (1.0 / (1.0 + x ** 2)) ** 0.2
    assert bubbles.profile_distance(GridField(dom, w_ref), p, 3.0) < 1e-14
    v = GridField(dom, 0.9 * w_ref)
    d = bubbles.profile_distance(v, p, 1.0)
    assert abs(d - 0.1 * alpha) < 1e-12


def test_profile_distance_empty_window():
    p = make_params(1, 0.3, 0.4, 0.0, Regime.FREE_SPACE)
    dom = interval(2.0, 3.0, 64)
    with pytest.raises(EmptyWindow):
        bubbles.profile_distance(GridField(dom, np.ones(64)), p, 1.0)
