"""Closed-form evaluation of the named constants from the stdlib Gamma.

All constants reduce to products and powers of Gamma values (math.gamma,
behind the typed domain checks of gamma()):

    c_ns        = 2^{2s} (G((n+2s)/2) / G((n-2s)/2))^{(n-2s)/(4s)}
    C_HLS_sharp = pi^{mu/2} G((n-mu)/2)/G(n-mu/2) (G(n)/G(n/2))^{1-mu/n}
    alpha_nmus  = (2^{2s} G((n+2s)/2) G((2n-mu)/2)
                   / (pi^{n/2} G((n-2s)/2) G((n-mu)/2)))^{(n-2s)/(2(n+2s-mu))}
    beta~_nmus  = pi^{n/2} G((n-mu)/2)/G((2n-mu)/2) * inner^{(n-mu)/(n+2s-mu)}
                  with the same inner base as alpha
    gamma_ns    = 2^{1-2s} G((n-2s)/2) / (sigma_n G(n/2) G(s))
    kappa_s     = G(1-s) / (2^{2s-1} G(s))      (extension normalization)
    sigma_n     = 2 pi^{n/2} / G(n/2)           (area of the unit sphere)
    d_ns        = (sigma_n/2) G(s)G(n/2)/G((n+2s)/2) alpha_nmus^{2#} beta~_nmus
                  with 2# = 2n/(n-2s)
    b_ns        = d_ns at mu = n-2s

while B_ns, M_ns, F_ns are radial integrals that the substitution t = r^2
turns into Beta functions B(a, b) = G(a) G(b) / G(a+b):

    B_ns = sigma_n INT_0^inf r^{n-1} (1+r^2)^{-n} dr      = sigma_n/2 B(n/2, n/2)
    M_ns = sigma_n INT_0^1   r^{n-1} (1-r^2)^{-s} dr      = sigma_n/2 B(n/2, 1-s)
    F_ns = sigma_n INT_0^inf r^{n-1} (1+r^2)^{-(n-2s)} dr = sigma_n/2 B(n/2, n/2-2s)

(M_ns needs s < 1 and F_ns needs n > 4s; otherwise the integrals diverge).
"""

from __future__ import annotations

import enum
import math

from .errors import (DivergentIntegral, NonPositiveArgument, OutOfRange,
                     UnsupportedKind)
from .model import Params


def gamma(x):
    """Gamma(x) for 0 < x < 172, the range where it is finite in doubles."""
    x = float(x)
    if x <= 0.0:
        raise NonPositiveArgument(f"gamma requires x > 0, got {x}")
    if x >= 172.0:
        raise OutOfRange(f"gamma overflows double precision for x >= 172, got {x}")
    return math.gamma(x)


def sigma_n(n):
    """Area of the unit sphere S^{n-1} in R^n."""
    return 2.0 * math.pi ** (n / 2.0) / gamma(n / 2.0)


def c_ns(n, s):
    """Amplitude of the Sobolev extremal bubble U."""
    return 2.0 ** (2.0 * s) * (gamma((n + 2.0 * s) / 2.0)
                               / gamma((n - 2.0 * s) / 2.0)) ** ((n - 2.0 * s) / (4.0 * s))


def c_hls_sharp(n, mu):
    """Sharp constant of the diagonal HLS inequality."""
    return (math.pi ** (mu / 2.0) * gamma((n - mu) / 2.0) / gamma(n - mu / 2.0)
            * (gamma(float(n)) / gamma(n / 2.0)) ** (1.0 - mu / n))


def _alpha_inner(n, mu, s):
    return (2.0 ** (2.0 * s) * gamma((n + 2.0 * s) / 2.0) * gamma((2.0 * n - mu) / 2.0)
            / (math.pi ** (n / 2.0) * gamma((n - 2.0 * s) / 2.0) * gamma((n - mu) / 2.0)))


def alpha_nmus(n, mu, s):
    """Amplitude of the Hartree extremal bubble W."""
    return _alpha_inner(n, mu, s) ** ((n - 2.0 * s) / (2.0 * (n + 2.0 * s - mu)))


def beta_tilde_nmus(n, mu, s):
    """Constant of the Riesz-potential convolution identity for W."""
    pref = math.pi ** (n / 2.0) * gamma((n - mu) / 2.0) / gamma((2.0 * n - mu) / 2.0)
    return pref * _alpha_inner(n, mu, s) ** ((n - mu) / (n + 2.0 * s - mu))


def gamma_ns(n, s):
    """Free-space kernel constant of the fractional Green function."""
    if not n > 2.0 * s:
        raise OutOfRange(f"gamma_ns requires n > 2s, got n = {n}, s = {s}")
    return (2.0 ** (1.0 - 2.0 * s) * gamma((n - 2.0 * s) / 2.0)
            / (sigma_n(n) * gamma(n / 2.0) * gamma(s)))


def kappa_s(s):
    """Extension normalization; the standard choice G(1-s)/(2^{2s-1} G(s))."""
    return gamma(1.0 - s) / (2.0 ** (2.0 * s - 1.0) * gamma(s))


def _beta(a, b):
    """Euler's Beta function B(a, b) = G(a) G(b) / G(a + b)."""
    return gamma(a) * gamma(b) / gamma(a + b)


def b_big_ns(n):
    """B_ns = sigma_n INT_0^inf r^{n-1}(1+r^2)^{-n} dr (s enters only the name)."""
    return sigma_n(n) / 2.0 * _beta(n / 2.0, n / 2.0)


def m_big_ns(n, s):
    """M_ns = sigma_n INT_0^1 r^{n-1}(1-r^2)^{-s} dr."""
    if s >= 1.0:
        raise DivergentIntegral(f"M_ns diverges for s >= 1, got s = {s}")
    return sigma_n(n) / 2.0 * _beta(n / 2.0, 1.0 - s)


def f_big_ns(n, s):
    """F_ns = sigma_n INT_0^inf r^{n-1}(1+r^2)^{-(n-2s)} dr (needs n > 4s)."""
    if not n > 4.0 * s:
        raise DivergentIntegral(
            f"F_ns diverges unless n > 4s: n = {n}, 4s = {4.0 * s}")
    return sigma_n(n) / 2.0 * _beta(n / 2.0, n / 2.0 - 2.0 * s)


def small_b_ns(n, s):
    """b_ns of the Green-function limit: d_ns at mu = n - 2s."""
    return d_ns(n, n - 2.0 * s, s)


def d_ns(n, mu, s):
    """d_ns of the Brezis-Nirenberg Green-function limit (general mu)."""
    two_sharp = 2.0 * n / (n - 2.0 * s)
    pref = sigma_n(n) / 2.0 * gamma(s) * gamma(n / 2.0) / gamma((n + 2.0 * s) / 2.0)
    return pref * alpha_nmus(n, mu, s) ** two_sharp * beta_tilde_nmus(n, mu, s)


class ConstantKind(enum.Enum):
    """Tags name the constants; CLI JSON output uses these tag strings."""

    C_NS = "C_ns"
    C_HLS_SHARP = "C_HLS_sharp"
    ALPHA_NMUS = "Alpha_nmus"
    BETA_TILDE_NMUS = "BetaTilde_nmus"
    GAMMA_NS = "Gamma_ns"
    KAPPA_S = "Kappa_s"
    B_NS = "B_ns"
    M_NS = "M_ns"
    F_NS = "F_ns"
    SIGMA_N = "SigmaN"
    SMALL_B_NS = "b_ns"
    D_NS = "d_ns"


# each constant's formula, from (n, s, mu)
_FORMULAS = {
    ConstantKind.C_NS: lambda n, s, mu: c_ns(n, s),
    ConstantKind.C_HLS_SHARP: lambda n, s, mu: c_hls_sharp(n, mu),
    ConstantKind.ALPHA_NMUS: lambda n, s, mu: alpha_nmus(n, mu, s),
    ConstantKind.BETA_TILDE_NMUS: lambda n, s, mu: beta_tilde_nmus(n, mu, s),
    ConstantKind.GAMMA_NS: lambda n, s, mu: gamma_ns(n, s),
    ConstantKind.KAPPA_S: lambda n, s, mu: kappa_s(s),
    ConstantKind.B_NS: lambda n, s, mu: b_big_ns(n),
    ConstantKind.M_NS: lambda n, s, mu: m_big_ns(n, s),
    ConstantKind.F_NS: lambda n, s, mu: f_big_ns(n, s),
    ConstantKind.SIGMA_N: lambda n, s, mu: sigma_n(n),
    ConstantKind.SMALL_B_NS: lambda n, s, mu: small_b_ns(n, s),
    ConstantKind.D_NS: lambda n, s, mu: d_ns(n, mu, s),
}


def closed_form(kind, params: Params):
    """Evaluate one named constant for the given parameters."""
    if not isinstance(kind, ConstantKind):
        raise UnsupportedKind(f"not a ConstantKind: {kind!r}")
    return _FORMULAS[kind](params.n, params.s, params.mu)


def all_constants(params: Params):
    """Every constant applicable to params, as {tag: value}."""
    out = {}
    for kind in ConstantKind:
        try:
            out[kind.value] = closed_form(kind, params)
        except (DivergentIntegral, OutOfRange):
            continue
    return out
