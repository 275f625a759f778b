"""Dense and per-mode oracles that only tests use.

`riesz_rows_1d` builds the dense rows of the 1-D Riesz weights, cell by
cell from the kernel's moments against hat functions; `riesz.convolve`
applies the same rows in Toeplitz form through an FFT.  `phi_at` evaluates
every eigenfunction of a basis at one point, the per-mode form of the
factored Green sums.  `moment_double_2d_fftconvolve` is the 2-D moment
double integral as it stood on `scipy.signal.fftconvolve`, the oracle of
`riesz.fft_convolve`, which convolves over the last two axes and
broadcasts a stack of kernels.

The SciPy routines that the numpy solve path replaced stay here as its
oracles: `scipy.fft.dst` for `spectral._dst1`, `scipy.fft.next_fast_len`
for `riesz._fft_len`, and `singular_quadrant_quad`, the QUADPACK body of
`riesz._singular_quadrant`.
"""

import math

import numpy as np
from scipy.fft import dst, next_fast_len
from scipy.integrate import quad
from scipy.signal import fftconvolve


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
    """phi_k(point) for all K modes of the basis at one point."""
    vals = 1.0
    for k, (lo, _), length, x in zip(basis._axis_modes(), basis.domain.ranges(),
                                     basis.domain.sides, point):
        vals = vals * math.sqrt(2.0 / length) * np.sin(
            k * math.pi * (x - lo) / length)
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
