"""Dense and per-mode oracles that only tests use.

`riesz_rows_1d` builds the dense rows of the 1-D Riesz weights, cell by
cell from the kernel's moments against hat functions; `riesz.convolve`
applies the same rows in Toeplitz form through an FFT.  `phi_at` evaluates
every eigenfunction of a basis at a point, the per-mode form of the
factored Green sums.  `moment_double_2d_fftconvolve` is the 2-D moment
double integral as it stood on `scipy.signal.fftconvolve`, the oracle of
`diagnostics._moment_double_2d`, which applies each kernel table through
`riesz._fft_apply`.

The SciPy routines that the numpy solve path replaced stay here as its
oracles: `scipy.fft.dst` for `spectral._dst1`, `scipy.fft.next_fast_len`
for `riesz._fft_len`, `singular_quadrant_quad`, the QUADPACK body of
`riesz._singular_quadrant`, and `circle_mean_quad`, the nested angular
rule that the closed form `riesz._circle_mean` replaced in the n = 2
`riesz.riesz_radial`.

`picard_loop` is the Picard iteration of `solver._solve_fixed_point` on the
whole grid, step by step through the public `analysis`, `synthesis` and
`riesz.convolve`: the oracle of the loop that holds the half (1-D) or
quarter (2-D) of an exactly even iterate.
"""

import math

import numpy as np
from scipy.fft import dst, next_fast_len
from scipy.integrate import quad
from scipy.signal import fftconvolve

from fhl import riesz, solver
from fhl.grids import GridField
from fhl.spectral import SpectralField, analysis, synthesis


def riesz_rows_1d(x, mu):
    """Dense rows of the 1-D weights; the oracle of the Toeplitz form."""
    n = len(x)
    h = x[1] - x[0]
    a = np.zeros((n, n))
    t_left = x[:-1]
    t_right = x[1:]

    def f0(u):
        return np.sign(u) * np.abs(u) ** (1.0 - mu) / (1.0 - mu)

    def f1(u):
        return np.abs(u) ** (2.0 - mu) / (2.0 - mu)

    for i in range(n):
        u_l = t_left - x[i]
        u_r = t_right - x[i]
        m0 = f0(u_r) - f0(u_l)
        m1 = (f1(u_r) - f1(u_l)) - u_l * m0
        a[i, :-1] += m0 - m1 / h
        a[i, 1:] += m1 / h
    return a


def phi_at(basis, point):
    """phi_k(point) for all K modes of the basis at one point, shape (K,);
    coordinates of shape (m, 1) give the m points' (m, K) rows.  Each axis
    is evaluated once per k = 1 .. k_max and read per mode."""
    vals = 1.0
    for k, (lo, _), length, x in zip(basis.modes.T, basis.domain.ranges(),
                                     basis.domain.sides, point):
        ks = np.arange(1, k.max() + 1)
        vals = vals * math.sqrt(2.0 / length) * np.sin(
            ks * math.pi * (x - lo) / length)[..., k - 1]
    return vals


def moment_double_2d_fftconvolve(f, mu):
    """The former body of `diagnostics._moment_double_2d`."""
    dom = f.domain
    n = dom.n_grid
    hx, hy = dom.spacings()
    offs = np.arange(-(n - 1), n)
    dx = offs[:, None] * hx
    dy = offs[None, :] * hy
    r = np.hypot(dx, dy)
    with np.errstate(divide="ignore", invalid="ignore"):
        kx = np.where(r > 0, dx * r ** (-(mu + 2.0)), 0.0) * hx * hy
        ky = np.where(r > 0, dy * r ** (-(mu + 2.0)), 0.0) * hx * hy
    w = dom.node_weights()
    gx, gy = dom.mesh()
    cx = fftconvolve(f.values, kx, mode="same")
    cy = fftconvolve(f.values, ky, mode="same")
    return float(np.sum(w * f.values * (gx * cx + gy * cy)))


def picard_loop(params, domain, basis, weights, opts):
    """(values, coeffs, residual, iterations) of the damped normalized
    Picard iteration with its final homogeneity calibration, every step on
    the whole grid and with no parity shortcut of its own."""
    p, _, shift = solver._problem_terms(params)
    denom = basis.lambdas ** params.s - shift
    u = solver._seed_values(opts.seed, params, domain, basis)
    u = u / np.max(u)
    a = analysis(basis, GridField(domain, u)).coeffs
    for it in range(opts.max_iter):
        pos = np.maximum(u, 0.0)
        tail = pos ** (p - 1.0)
        conv = riesz.convolve(weights, GridField(domain, tail * pos)).values
        b = analysis(basis, GridField(domain, conv * tail)).coeffs
        v = synthesis(SpectralField(basis, b / denom)).values
        m = float(np.max(v))
        res = solver._relative_defect(a, denom, b / m)
        if res < opts.residual_tol:
            break
        if opts.theta == 1.0:
            u, a = v / m, b / (denom * m)
        else:
            u = (1.0 - opts.theta) * u + opts.theta * v / m
            top = np.max(u)
            u = u / top
            a = ((1.0 - opts.theta) * a + opts.theta * b / (denom * m)) / top
    t = m ** (-1.0 / (2.0 * p - 2.0))
    return t * u, t * a, res, it + 1


def dst1(x):
    """scipy's unnormalized DST-I, the former body of the 1-D transforms."""
    return dst(x, type=1)


def fft_len(n):
    """The former `riesz._fft_len`."""
    return next_fast_len(2 * n - 1, real=True)


def singular_quadrant_quad(a, b, mu):
    """The former `riesz._singular_quadrant`: INT over [0,a]x[0,b] of
    |t|^{-mu} dt by QUADPACK over the two polar pieces."""
    phi0 = math.atan2(b, a)
    i1, _ = quad(lambda t: (a / math.cos(t)) ** (2.0 - mu), 0.0, phi0,
                 epsabs=1e-14, epsrel=1e-12)
    i2, _ = quad(lambda t: (b / math.sin(t)) ** (2.0 - mu), phi0, math.pi / 2.0,
                 epsabs=1e-14, epsrel=1e-12)
    return (i1 + i2) / (2.0 - mu)


def circle_mean_quad(rho, r, mu):
    """The former n = 2 angular rule of `riesz.riesz_radial`: the circle
    mean INT_0^{2 pi} |x - y|^{-mu} dtheta as twice a QUADPACK integral
    over [0, pi]."""
    c = rho * rho + r * r
    d = 2.0 * rho * r
    v, _ = quad(lambda t: (c - d * math.cos(t)) ** (-mu / 2.0), 0.0, math.pi,
                epsabs=1e-13, epsrel=1e-11, limit=400)
    return 2.0 * v
