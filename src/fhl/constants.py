"""Closed-form evaluation of the named constants via a Gamma-function chain.

All constants reduce to products and powers of Gamma values:

    c_ns        = 2^{2s} (G((n+2s)/2) / G((n-2s)/2))^{(n-2s)/(4s)}
    C_HLS_sharp = pi^{mu/2} G((n-mu)/2)/G(n-mu/2) (G(n)/G(n/2))^{1-mu/n}
    alpha_nmus  = (2^{2s} G((n+2s)/2) G((2n-mu)/2)
                   / (pi^{n/2} G((n-2s)/2) G((n-mu)/2)))^{(n-2s)/(2(n+2s-mu))}
    beta~_nmus  = pi^{n/2} G((n-mu)/2)/G((2n-mu)/2) * inner^{(n-mu)/(n+2s-mu)}
                  with the same inner base as alpha
    gamma_ns    = 2^{1-2s} G((n-2s)/2) / (sigma_n G(n/2) G(s))
    kappa_s     = G(1-s) / (2^{2s-1} G(s))      (extension normalization)
    sigma_n     = 2 pi^{n/2} / G(n/2)           (area of the unit sphere)
    b_ns        = (sigma_n/2) G(s)G(n/2)/G((n+2s)/2) alpha_ns^{2#} beta~_ns
                  with alpha_ns = alpha at mu = n-2s, 2# = 2n/(n-2s)
    d_ns        = same shape as b_ns with the general-mu alpha and beta~

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

# Lanczos approximation, g = 607/128, 15 terms (Godfrey's coefficients).
# Relative accuracy ~1e-15 on (0, 172); no reflection needed for x > 0.
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

_TWO_PI = 2.0 * math.pi


def gamma(x):
    """Gamma(x) for x > 0 by the fixed-coefficient Lanczos sum."""
    x = float(x)
    if x <= 0.0:
        raise NonPositiveArgument(f"gamma requires x > 0, got {x}")
    if x >= 172.0:
        raise OutOfRange(f"gamma overflows double precision for x >= 172, got {x}")
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(_TWO_PI) * t ** (z + 0.5) * math.exp(-t) * acc


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


def b_big_ns(n, s=None):
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
    """b_ns of the Green-function limit (mu = n - 2s specialization)."""
    mu = n - 2.0 * s
    two_sharp = 2.0 * n / (n - 2.0 * s)
    pref = sigma_n(n) / 2.0 * gamma(s) * gamma(n / 2.0) / gamma((n + 2.0 * s) / 2.0)
    return pref * alpha_nmus(n, mu, s) ** two_sharp * beta_tilde_nmus(n, mu, s)


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


def closed_form(kind, params: Params):
    """Evaluate one named constant for the given parameters."""
    if not isinstance(kind, ConstantKind):
        raise UnsupportedKind(f"not a ConstantKind: {kind!r}")
    n, s, mu = params.n, params.s, params.mu
    if kind is ConstantKind.C_NS:
        return c_ns(n, s)
    if kind is ConstantKind.C_HLS_SHARP:
        return c_hls_sharp(n, mu)
    if kind is ConstantKind.ALPHA_NMUS:
        return alpha_nmus(n, mu, s)
    if kind is ConstantKind.BETA_TILDE_NMUS:
        return beta_tilde_nmus(n, mu, s)
    if kind is ConstantKind.GAMMA_NS:
        return gamma_ns(n, s)
    if kind is ConstantKind.KAPPA_S:
        return kappa_s(s)
    if kind is ConstantKind.B_NS:
        return b_big_ns(n, s)
    if kind is ConstantKind.M_NS:
        return m_big_ns(n, s)
    if kind is ConstantKind.F_NS:
        return f_big_ns(n, s)
    if kind is ConstantKind.SIGMA_N:
        return sigma_n(n)
    if kind is ConstantKind.SMALL_B_NS:
        return small_b_ns(n, s)
    if kind is ConstantKind.D_NS:
        return d_ns(n, mu, s)
    raise UnsupportedKind(f"unhandled kind {kind!r}")  # pragma: no cover


def all_constants(params: Params):
    """Every constant applicable to params, as {tag: value}."""
    out = {}
    for kind in ConstantKind:
        try:
            out[kind.value] = closed_form(kind, params)
        except (DivergentIntegral, OutOfRange):
            continue
    return out
