"""Dense and per-mode oracles that only tests use.

`riesz_rows_1d` builds the dense rows of the 1-D Riesz weights, cell by
cell from the kernel's moments against hat functions; `riesz.convolve`
applies the same rows in Toeplitz form through an FFT.  `phi_at` evaluates
every eigenfunction of a basis at one point, the per-mode form of the
factored Green sums.
"""

import math

import numpy as np


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
