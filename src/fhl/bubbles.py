"""Closed-form extremal bubbles, their algebraic identities and quotients.

The two families share the profile (lambda/(1+lambda^2|x-xi|^2))^{(n-2s)/2}
and differ only in the amplitude constant: c_ns for the Sobolev extremal,
alpha_nmus for the Hartree extremal.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from . import constants, riesz
from .errors import (DegenerateScale, EmptyWindow, EvaluationAtOrigin,
                     OutOfRange)
from .grids import DomainSpec, GridField, as_points, interpolate
from .model import Params, exponents


class BubbleFamily(enum.Enum):
    SOBOLEV_U = "U"
    HARTREE_W = "W"


@dataclass(frozen=True)
class Bubble:
    family: BubbleFamily
    xi: tuple
    lam: float
    params: Params

    def __post_init__(self):
        if not self.lam > 0.0:
            raise OutOfRange(f"bubble scale lambda must be positive, got {self.lam}")
        if len(self.xi) != self.params.n:
            raise OutOfRange(
                f"center has {len(self.xi)} coordinates for dimension {self.params.n}")

    @property
    def amplitude(self):
        p = self.params
        if self.family is BubbleFamily.SOBOLEV_U:
            return constants.c_ns(p.n, p.s)
        return constants.alpha_nmus(p.n, p.mu, p.s)


def _profile_r2(bubble: Bubble):
    """r2 -> amplitude * (lambda/(1+lambda^2 r2))^{(n-2s)/2}, r2 = |x-xi|^2:
    the one body of the bubble formula, amplitude and exponent bound once."""
    p = bubble.params
    amp = bubble.amplitude
    lam = bubble.lam
    ex = (p.n - 2.0 * p.s) / 2.0

    def w(r2):
        return amp * (lam / (1.0 + lam * lam * r2)) ** ex

    return w


def eval_bubble(bubble: Bubble, x):
    """amplitude * (lambda/(1+lambda^2 |x-xi|^2))^{(n-2s)/2}; vectorized.

    x is a point (length-n sequence) or an array whose last axis has length n.
    """
    x = as_points(x, bubble.params.n)
    r2 = np.sum((x - np.asarray(bubble.xi)) ** 2, axis=-1)
    return _profile_r2(bubble)(r2)


def radial_profile(bubble: Bubble):
    """r -> bubble value at distance r from the center."""
    w = _profile_r2(bubble)

    def f(r):
        return w(r * r)

    return f


def kelvin(f, params: Params):
    """Kelvin transform x |-> |x|^{-(n-2s)} f(x/|x|^2) of a point function."""
    n, s = params.n, params.s

    def g(x):
        x = as_points(x, n)
        r2 = np.sum(x ** 2, axis=-1)
        if np.any(r2 == 0.0):
            raise EvaluationAtOrigin("Kelvin transform is undefined at the origin")
        return r2 ** (-(n - 2.0 * s) / 2.0) * f(x / r2[..., None])

    return g


def convolution_identity_lhs_rhs(bubble: Bubble, x):
    """Quadrature LHS (|.|^{-mu} * W^{2*})(x) and closed-form RHS at one point."""
    if bubble.family is not BubbleFamily.HARTREE_W:
        raise OutOfRange("the convolution identity is stated for the W family")
    p = bubble.params
    exp = exponents(p)
    rho = float(np.sqrt(np.sum((as_points(x, p.n) - np.asarray(bubble.xi)) ** 2)))
    prof = radial_profile(bubble)

    def f(r):
        return prof(r) ** exp.two_star

    lhs = riesz.riesz_radial(f, rho, p)
    beta = constants.beta_tilde_nmus(p.n, p.mu, p.s)
    rhs = beta * prof(rho) ** (exp.two_sharp - exp.two_star)
    return lhs, rhs


def convolution_identity_residual(bubble: Bubble, x):
    """|LHS/RHS - 1| of the Riesz convolution identity at the point x."""
    lhs, rhs = convolution_identity_lhs_rhs(bubble, x)
    return abs(lhs / rhs - 1.0)


def hls_quotient(bubble: Bubble):
    """The bubble's value of the HLS energy quotient.

    Uses the Euler-Lagrange identity to express the gradient norm as the
    double Riesz integral D = beta~ * INT W^{2#}, so the quotient is
    D^{1 - 1/2*}.  The integral is evaluated by radial quadrature of the
    actual (xi, lambda) profile, so translation/dilation invariance is a
    numerical statement, not a shortcut.
    """
    if bubble.family is not BubbleFamily.HARTREE_W:
        raise OutOfRange("hls_quotient is defined for the W family")
    p = bubble.params
    if p.eps != 0.0:
        raise OutOfRange("hls_quotient requires eps = 0")
    exp = exponents(p)
    prof = radial_profile(bubble)
    integral = constants.sigma_n(p.n) * riesz.half_line_integral(
        lambda r: r ** (p.n - 1) * prof(r) ** exp.two_sharp, (0.0, 1.0))
    d_val = constants.beta_tilde_nmus(p.n, p.mu, p.s) * integral
    return d_val ** (1.0 - 1.0 / exp.two_star)


def rescale(u: GridField, sup_norm, argmax, params: Params,
            window=3.0) -> GridField:
    """Blow-up rescaling of a solution sample around its maximum.

    v(x) = u(scale * x + argmax) / mu_eps with mu_eps = sup_norm / alpha_ns
    and scale = mu_eps^{-(2# - 2 - eps)/(2s)}, sampled on the centered window
    [-window, window]^n with 241 nodes per axis by (multi)linear
    interpolation; v(0) = alpha_ns by construction.
    """
    if not sup_norm > 0.0:
        raise DegenerateScale(f"sup_norm must be positive, got {sup_norm}")
    exp = exponents(params)
    mu_eps = sup_norm / unit_w(params).amplitude
    scale = mu_eps ** (-(exp.two_sharp - 2.0 - params.eps) / (2.0 * params.s))
    if params.n not in (1, 2):
        raise OutOfRange("rescaling to a grid supports n in (1, 2)")
    out_dom = DomainSpec((-float(window), float(window)) * params.n, 241)
    axes = u.domain.axes()
    coords = [np.clip(scale * xo + c, ax[0], ax[-1])
              for xo, c, ax in zip(out_dom.axes(), argmax, axes)]
    points = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1)
    vals = interpolate(u, points) / mu_eps
    return GridField(out_dom, vals)


def unit_w(params: Params) -> Bubble:
    """W[0, 1] at mu = n - 2s, the limit profile of the blow-up rescaling."""
    return Bubble(BubbleFamily.HARTREE_W, (0.0,) * params.n, 1.0,
                  replace(params, mu=params.n - 2.0 * params.s))


def profile_distance(v: GridField, params: Params, window) -> float:
    """sup over grid points |x| <= window of |v - W[0,1]|."""
    points = np.stack(v.domain.mesh(), axis=-1)
    mask = np.sum(points ** 2, axis=-1) <= window * window
    if not np.any(mask):
        raise EmptyWindow(f"no grid points with |x| <= {window}")
    w_ref = eval_bubble(unit_w(params), points[mask])
    return float(np.max(np.abs(v.values[mask] - w_ref)))
