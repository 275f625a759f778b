"""Constants against the half-integer Gamma reduction oracle.

At (n, s, mu) = (2, 0.5, 1) every Gamma argument is integer or half-integer,
so each constant collapses to radicals of pi computed here independently.
"""

import math

import numpy as np
import pytest

from fhl import constants as C
from fhl.errors import (DivergentIntegral, NonPositiveArgument, OutOfRange,
                        UnsupportedKind)
from fhl.model import Regime, make_params

SQRT_PI = math.sqrt(math.pi)
TWO_PI = 2.0 * math.pi


def test_gamma_basic_values():
    assert abs(C.gamma(1.0) - 1.0) < 1e-14
    assert abs(C.gamma(5.0) - 24.0) < 1e-12
    assert abs(C.gamma(0.5) - SQRT_PI) < 1e-14 * SQRT_PI


def test_gamma_against_stdlib():
    for x in np.linspace(0.05, 30.0, 257):
        assert abs(C.gamma(x) / math.gamma(x) - 1.0) < 1e-13


def test_gamma_recurrence():
    for x in np.arange(0.1, 5.01, 0.1):
        lhs = C.gamma(x + 1.0)
        rhs = x * C.gamma(x)
        assert abs(lhs / rhs - 1.0) < 1e-12


def test_gamma_rejects_nonpositive():
    with pytest.raises(NonPositiveArgument):
        C.gamma(0.0)
    with pytest.raises(NonPositiveArgument):
        C.gamma(-1.3)


@pytest.fixture
def params_251():
    return make_params(2, 0.5, 1.0, 0.0, Regime.FREE_SPACE)


def test_c_ns_half_integer(params_251):
    # 2 * (Gamma(1.5)/Gamma(0.5))^{1/2} = sqrt(2)
    val = C.closed_form(C.ConstantKind.C_NS, params_251)
    assert abs(val / math.sqrt(2.0) - 1.0) < 1e-13


def test_c_hls_sharp_half_integer(params_251):
    val = C.closed_form(C.ConstantKind.C_HLS_SHARP, params_251)
    assert abs(val / (2.0 * SQRT_PI) - 1.0) < 1e-13


def test_alpha_half_integer(params_251):
    val = C.closed_form(C.ConstantKind.ALPHA_NMUS, params_251)
    assert abs(val / TWO_PI ** -0.25 - 1.0) < 1e-13


def test_beta_tilde_half_integer(params_251):
    val = C.closed_form(C.ConstantKind.BETA_TILDE_NMUS, params_251)
    assert abs(val / math.sqrt(TWO_PI) - 1.0) < 1e-13


def test_small_b_half_integer(params_251):
    val = C.closed_form(C.ConstantKind.SMALL_B_NS, params_251)
    assert abs(val / math.sqrt(TWO_PI) - 1.0) < 1e-13


def test_gamma_ns_value():
    p = make_params(1, 0.25, 0.5, 0.0, Regime.FREE_SPACE)
    val = C.closed_form(C.ConstantKind.GAMMA_NS, p)
    assert abs(val / (1.0 / math.sqrt(TWO_PI)) - 1.0) < 1e-13


def test_sigma_n_values():
    assert abs(C.sigma_n(1) - 2.0) < 1e-13
    assert abs(C.sigma_n(2) - TWO_PI) < 1e-12
    assert abs(C.sigma_n(3) - 4.0 * math.pi) < 1e-12


def test_b_big_closed_forms():
    # n=2: 2*pi * INT r/(1+r^2)^2 = 2*pi * 1/2 = pi
    assert abs(C.b_big_ns(2) / math.pi - 1.0) < 1e-10


def test_m_big_closed_form():
    # n=2, s=0.5: 2*pi * INT r (1-r^2)^{-1/2} = 2*pi
    assert abs(C.m_big_ns(2, 0.5) / TWO_PI - 1.0) < 1e-10


def test_f_big_closed_form():
    # n=3, s=0.5: 4*pi * INT r^2/(1+r^2)^2 = 4*pi * pi/4 = pi^2
    assert abs(C.f_big_ns(3, 0.5) / math.pi ** 2 - 1.0) < 1e-10


def test_f_big_divergent():
    with pytest.raises(DivergentIntegral):
        C.f_big_ns(1, 0.3)


def test_m_big_divergent():
    with pytest.raises(DivergentIntegral):
        C.m_big_ns(2, 1.0)


def test_quadrature_constants_vs_midpoint_oracle():
    """B, M, F against a one-million-node midpoint rule."""
    n, s = 2, 0.45
    r = (np.arange(1_000_000) + 0.5) / 1_000_000
    # B on [0, inf): substitute r = t/(1-t)
    t = r
    rr = t / (1.0 - t)
    b_mid = C.sigma_n(n) * np.sum(rr ** (n - 1) / (1 + rr ** 2) ** n
                                  / (1 - t) ** 2) / 1_000_000
    assert abs(C.b_big_ns(n) / b_mid - 1.0) < 1e-7
    # M via the substitution u = w^{1/(1-s)} that removes the endpoint
    # singularity exactly, leaving a smooth midpoint integrand
    u = r ** (1.0 / (1.0 - s))
    m_mid = (C.sigma_n(n) / (2.0 * (1.0 - s))
             * np.sum((1.0 - u) ** ((n - 2) / 2.0)) / 1_000_000)
    assert abs(C.m_big_ns(n, s) / m_mid - 1.0) < 1e-7
    # F has a slow r^{-(1+(n-4s))} tail; map the tail with v = r^{-(n-4s)}
    # so both midpoint integrands are smooth
    f_head = C.sigma_n(n) * np.sum(
        r ** (n - 1) / (1 + r ** 2) ** (n - 2 * s)) / 1_000_000
    rv = r ** (-1.0 / (n - 4 * s))
    f_tail = (C.sigma_n(n) / (n - 4 * s)) * np.sum(
        rv ** (n - 1) / (1 + rv ** 2) ** (n - 2 * s) * rv ** (n - 4 * s + 1)
    ) / 1_000_000
    assert abs(C.f_big_ns(n, s) / (f_head + f_tail) - 1.0) < 1e-7
    # analytic cross-check at this (n, s): F = 10 pi exactly
    assert abs(C.f_big_ns(2, 0.45) / (10 * math.pi) - 1.0) < 1e-11


def test_beta_tilde_specialization():
    """General beta~ at mu = n-2s equals the n,s-only expression."""
    for (n, s) in ((1, 0.2), (2, 0.45), (3, 0.6)):
        mu = n - 2.0 * s
        general = C.beta_tilde_nmus(n, mu, s)
        g = C.gamma
        inner = (2 ** (2 * s) * g((n + 2 * s) / 2) ** 2
                 / (math.pi ** (n / 2) * g((n - 2 * s) / 2) * g(s)))
        special = math.pi ** (n / 2) * g(s) / g((n + 2 * s) / 2) * math.sqrt(inner)
        assert abs(general / special - 1.0) < 1e-12


def test_alpha_beta_coherence_with_radial_quadrature():
    """beta~ * W^{2# - 2*}(xi) matches the quadrature of the convolution at
    the center (the closed-form side of the convolution identity)."""
    from scipy.integrate import quad
    for (n, s, mu) in ((1, 0.3, 0.4), (2, 0.5, 1.0)):
        alpha = C.alpha_nmus(n, mu, s)
        beta = C.beta_tilde_nmus(n, mu, s)
        two_sharp = 2 * n / (n - 2 * s)
        two_star = (2 * n - mu) / (n - 2 * s)

        def w_pow(r):
            return (alpha * (1 / (1 + r * r)) ** ((n - 2 * s) / 2)) ** two_star

        head, _ = quad(lambda r: r ** (n - 1 - mu) * w_pow(r), 0, 1,
                       epsabs=1e-14, epsrel=1e-12)
        tail, _ = quad(lambda t: ((t / (1 - t)) ** (n - 1 - mu)
                                  * w_pow(t / (1 - t)) / (1 - t) ** 2),
                       0.5, 1.0, epsabs=1e-14, epsrel=1e-12)
        lhs = C.sigma_n(n) * (head + tail)
        rhs = beta * alpha ** (two_sharp - two_star)
        assert abs(lhs / rhs - 1.0) < 1e-6


def test_unsupported_kind(params_251):
    with pytest.raises(UnsupportedKind):
        C.closed_form("not-a-kind", params_251)


def test_all_constants_keys(params_251):
    vals = C.all_constants(params_251)
    assert "C_ns" in vals and "b_ns" in vals and "SigmaN" in vals
    # F_ns diverges at n = 2, s = 0.5 (n = 4s) and must be skipped
    assert "F_ns" not in vals
