"""Weakly singular Riesz-potential convolution on grids and radial profiles.

1-D weights are product-integration rows exact for piecewise-linear
integrands against |x-t|^{-mu}: the per-cell moments of the kernel against
hat functions have elementary antiderivatives for mu in (0,1), so the
singular cell needs no regularization.  On a uniform grid the rows are
Toeplitz except in the two end columns, whose nodes carry half hats, so
the weights are stored as one closed-form generator of length 2N - 1 plus
two end-column corrections and applied with a zero-padded real FFT in
O(N log N).  The dense builder `moment_weights_1d` stays as the oracle of
`moment_apply`.

2-D weights are piecewise-constant product integration over node-centered
cells.  Uniform spacing makes every cell integral a function of the node
offset only, and a full cell is four reflected quarter cells, so one Gauss
table over the quarter cell gives the offset table by sums and flips; its
Gauss rule is graded by the distance from the quarter cell.  The problem
is Dirichlet (u = 0 off the domain), so the 2-D apply takes only fields
that vanish on the boundary nodes, the only nodes whose cells the domain
clips; `convolve` raises OutOfRange on any other field.
Every table (the 1-D Riesz and odd moment generators, the 2-D offset
table and moment kernels) takes one FFT convolution: its `_spectrum`, and
`_fft_apply`, which keeps outputs N-1 .. 2N-2 along each axis.

In 1-D and 2-D, a field on an even grid that equals its flip on every
axis exactly, with no tolerance, takes a half-grid symmetric convolution
instead (`_even_apply`): per axis a Toeplitz product with the table's
near window plus a Hankel product with its far window, both from one FFT
of the half at half the full apply's length.  Its output is exactly even;
every other field takes the full apply, which is its oracle.
Documented accuracy is O(h) near the singularity, which is what the
desk-scale solver configurations need.

The module holds no state outside `RieszWeights`: each apply allocates
its own transform arrays, so `convolve` is reentrant across threads.

Radial free-space integrals over [0, inf) all go through
`half_line_integral`: one tail map, one decay guard and one error check.

Only numpy loads with this module: FFT sizes are computed here, and the
singular quarter cell of a 2-D build is a Gauss-Legendre sum.
`scipy.integrate`, which `quad` needs, is imported inside the radial
quadratures that call it, so no solve loads SciPy.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constants import sigma_n
from .errors import (DivergentTail, GridMismatch, KernelNotIntegrable,
                     OutOfRange, QuadratureFailure)
from .grids import DomainSpec, GridField

_MAX_GRID_2D = 512

# the quarter-cell rule by distance from the quarter cell, in units of the
# larger spacing: 4 points everywhere, refined to 6 points within 16 and to
# 12 within 4, each exact to rounding where it is used; 40 points on the
# offsets within 4 cells on both axes
_GAUSS_FAR = np.polynomial.legendre.leggauss(4)
_GAUSS_GRADED = ((16.0, np.polynomial.legendre.leggauss(6)),
                 (4.0, np.polynomial.legendre.leggauss(12)))
_GAUSS_NEAR = np.polynomial.legendre.leggauss(40)
# the polar pieces of the singular quarter cell, per unit-length panel
_GAUSS_POLAR = np.polynomial.legendre.leggauss(20)


@dataclass
class RieszWeights:
    """Precomputed product-integration data for one (domain, mu) pair."""

    mu: float
    domain: DomainSpec
    # never set: no layout stores dense rows; readers of weights
    # (benchmarks/spans.py) test it to pick the layout's byte count
    matrix: np.ndarray | None = None
    # 2-D: full-cell offset table, from one quarter-cell table (_quarter_table).
    # 1-D: generator by column-minus-row offset + N - 1, and the corrections
    # of the first and last columns (half hats minus full hats); 2-D
    # weights leave those empty, because a Dirichlet field has no end terms.
    offsets: np.ndarray | None = None
    edge_x: np.ndarray = field(default_factory=lambda: np.empty(0))
    edge_y: np.ndarray = field(default_factory=lambda: np.empty(0))
    # never set; read by benchmarks/spans.py
    corners: dict = field(default_factory=dict)

    @functools.cached_property
    def spectrum(self):
        """`_spectrum(offsets)`, at the first field `_even_apply` skips."""
        return _spectrum(self.offsets)

    @functools.cached_property
    def even_spectrum(self):
        """The window spectra of `_even_apply`, from offsets at the first
        exactly even field (even N)."""
        return _even_spectrum(self.offsets)


# --------------------------------------------------------------------------
# 1-D hat-function product integration
# --------------------------------------------------------------------------

def _second_difference(k, p):
    """(k+1)^p - 2 k^p + (k-1)^p for integers k >= 1.

    Written through expm1/log1p, which leaves a rounding error of order
    k * eps relative instead of the k^2 * eps of the three powers.
    """
    k = np.asarray(k, dtype=float)
    with np.errstate(divide="ignore"):
        return k ** p * (np.expm1(p * np.log1p(1.0 / k))
                         + np.expm1(p * np.log1p(-1.0 / k)))


def _taylor_remainder(m, p):
    """(m+1)^p - m^p - p m^(p-1) for integers m >= 1."""
    m = np.asarray(m, dtype=float)
    return m ** p * (np.expm1(p * np.log1p(1.0 / m)) - p / m)


def _hat_weights(n, p, odd, scale):
    """Toeplitz generator and end-column corrections of a 1-D power kernel.

    Up to the factor scale, G(k) = |k|^p (odd: sign(k)|k|^p) is the
    kernel's second antiderivative in grid units.  The full hat at an
    offset of k cells weighs the second difference of G at k, and the half
    hat of an end node m cells away weighs the Taylor remainder of G at m.
    Returns the generator over the offsets k = -(N-1) .. N-1 and the
    corrections (half hat minus full hat) of the first and last columns.
    """
    k = np.arange(1, n)
    d2 = _second_difference(k, p)
    gen = np.concatenate([(-d2 if odd else d2)[::-1], [0.0 if odd else 2.0], d2])
    # m = 0: the node's own half hat (1 for the Riesz kernel); the PV
    # pairing of the odd moment kernel drops it
    rem = np.concatenate([[0.0 if odd else 1.0], _taylor_remainder(k, p)])
    right = -scale * rem[::-1]
    left = -right[::-1] if odd else right[::-1]
    return scale * gen, left, right


@functools.lru_cache(maxsize=64)
def _fft_len(n):
    """The smallest 5-smooth length >= 2N - 1 (a fast real-FFT size, what
    `scipy.fft.next_fast_len(2N - 1, real=True)` gives); a circular product
    of this length holds the needed linear-product slots."""
    target = 2 * n - 1
    best = 1 << (target - 1).bit_length()
    odd = 1   # 3^b 5^c
    while odd < best:
        p35 = odd
        while p35 < best:
            # the smallest power of two times p35 that reaches the target
            best = min(best, p35 << (-(-target // p35) - 1).bit_length())
            p35 *= 3
        odd *= 5
    return best


def _spectrum(table):
    """Spectrum of the operator whose entry (i, j) along each axis is
    table[j - i + N - 1]: the real FFT of the flipped table zero-padded to
    _fft_len(N) per axis.  Flipping turns the row sums into a convolution,
    and the orientation matters for the odd moment kernels.  The
    operator's rows are outputs N-1 .. 2N-2 along each axis."""
    n = (table.shape[0] + 1) // 2
    return np.fft.rfftn(np.flip(table), [_fft_len(n)] * table.ndim,
                        axes=range(table.ndim))


def _even_spectrum(offsets):
    """The 2^dim window spectra of `_even_apply` on the table T(d) =
    offsets[d + N - 1] per axis (N even, M = N/2), near axes first and the
    last axis fastest.  Along an axis the near window is T(d) and the far
    window T(M + d), d = -(M-1) .. M-1, each flipped (the apply is a
    correlation) and zero-padded to L = _fft_len(M).  A near window is
    wrapped about index 0; a far window starts at index 0, which puts the
    phase e^{-2 pi i w (M-1) / L} of the reversed half into its spectrum."""
    n = (offsets.shape[0] + 1) // 2
    m = n // 2
    size = _fft_len(m)
    near, far = slice(n - m, n + m - 1), slice(n, 2 * n - 1)
    spectra = []
    for windows in itertools.product((near, far), repeat=offsets.ndim):
        w = np.pad(np.flip(offsets[windows]), [(0, size - (2 * m - 1))] * offsets.ndim)
        shift = [1 - m if sl is near else 0 for sl in windows]
        spectra.append(np.fft.rfftn(np.roll(w, shift, range(offsets.ndim))))
    return np.stack(spectra)


def _forward(values, size, n_out):
    """The spectrum of values zero-padded to L x L (L = size) over the last
    two axes, and a fresh array of n_out real output rows for `_inverse`.

    The transform is pruned: the real FFT along the last axis runs over the
    input rows only (the padding rows are zeroed), and the FFT along the
    other axis runs in place.
    """
    n = values.shape[-2]
    spec = np.empty(values.shape[:-2] + (size, size // 2 + 1), dtype=complex)
    np.fft.rfft(values, size, out=spec[..., :n, :])
    spec[..., n:, :] = 0.0
    np.fft.fft(spec, axis=-2, out=spec)
    return spec, np.empty(values.shape[:-2] + (n_out, size))


def _inverse(spec, real, first):
    """Rows first .. first + n_out - 1 of the periodic field of the
    spectrum, into the real output array of `_forward`; the inverse real FFT
    runs over those rows only."""
    np.fft.ifft(spec, axis=-2, out=spec)
    np.fft.irfft(spec[..., first:first + real.shape[-2], :], real.shape[-1], out=real)
    return real


def _fft_apply(spectrum, values):
    """The operator of `_spectrum` applied over the last spectrum.ndim axes
    of values, so a stack of fields goes in one call; returns a fresh array.
    """
    n = values.shape[-1]
    size = _fft_len(n)
    if spectrum.ndim == 1:
        out = np.fft.irfft(np.fft.rfft(values, size) * spectrum, size)
        return out[..., n - 1:2 * n - 1]
    spec, real = _forward(values, size, n)
    spec *= spectrum
    # a copy, so the output does not pin the (N, L) rows
    return _inverse(spec, real, n - 1)[..., n - 1:2 * n - 1].copy()


def _even_apply(even_spectrum, values):
    """`_fft_apply` of the table on one field of N nodes per axis (N even)
    that is even on every axis, from its first M = N/2 nodes per axis.

    Along an axis, out[i] = sum_{k<M} (T(k-i) + T(N-1-k-i)) f[k] for i < M:
    a Toeplitz product with the near window of `_even_spectrum` plus a
    Hankel product with the far one, which is a Toeplitz product on the
    reversed half.  The reversed half's spectrum is the half's conjugated
    along the last axis and index-flipped along the other, the phase being
    in the stored spectrum: one forward FFT of length L = _fft_len(M) per
    axis, 2^dim products and one pruned inverse.  The half is mirrored
    into the full field, so the output is exactly even.
    """
    n = values.shape[-1]
    m = n // 2
    size = _fft_len(m)
    if values.ndim == 1:
        near, far = even_spectrum
        spec = np.fft.rfft(values[:m], size)
        half = np.fft.irfft(spec * near + spec.conj() * far, size)[:m]
        return np.concatenate([half, half[::-1]])
    near, near_far, far_near, far = even_spectrum
    spec, real = _forward(values[:m, :m], size, m)
    # in place, in two temporaries: fresh ones cost more than the products
    flip = spec[-np.arange(size) % size]   # reversed along the first axis
    term = np.conjugate(spec)
    term *= far
    spec *= near
    spec += term
    np.multiply(flip, far_near, out=term)
    spec += term
    np.conjugate(flip, out=flip)
    flip *= near_far
    spec += flip
    quarter = _inverse(spec, real, 0)[:, :m]
    out = np.empty((n, n))
    out[:m, :m] = quarter
    out[:m, m:] = quarter[:, ::-1]
    out[m:] = out[m - 1::-1]
    return out


def _table_apply(weights: RieszWeights, vals):
    """The offset-table term of `_convolve`: `_even_apply` on one field of
    an even grid that equals its flip on every axis exactly, else
    `_fft_apply`."""
    m = weights.domain.n_grid // 2
    # each axis in turn leads (vals, then its transpose): the first M nodes
    # along it must mirror the last M
    if (vals.ndim == weights.domain.dim and weights.domain.n_grid % 2 == 0
            and all(np.array_equal(v[:m], v[:m - 1:-1])
                    for v in (vals, vals.T)[:vals.ndim])):
        return _even_apply(weights.even_spectrum, vals)
    return _fft_apply(weights.spectrum, vals)


# --------------------------------------------------------------------------
# 2-D cell tables
# --------------------------------------------------------------------------

def _singular_quadrant(a, b, mu):
    """INT over [0,a]x[0,b] of |t|^{-mu} dt by polar splitting at the
    diagonal.  With q = 2 - mu and u = tan of the angle from the nearer
    axis, the piece against the side of length s is
    s^q INT_0^X (1 + u^2)^{q/2 - 1} du / q with X = b/a or a/b; Gauss-
    Legendre on unit-length panels is exact to rounding there, because the
    integrand is analytic at distance >= 1 from every panel (u = +-i)."""
    q = 2.0 - mu
    nodes, weights = _GAUSS_POLAR
    total = 0.0
    for side, x in ((a, b / a), (b, a / b)):
        edges = np.append(np.arange(0.0, x, 1.0), x)
        lo, width = edges[:-1, None], np.diff(edges)[:, None]
        u = lo + 0.5 * width * (nodes + 1.0)
        total += side ** q * float(np.sum(0.5 * width * weights
                                          * (1.0 + u * u) ** (0.5 * q - 1.0)))
    return total / q


def _gauss_quarter(k, l, hx, hy, mu, rule):
    """Kernel integral over the quarter cell [0,hx/2]x[0,hy/2] seen from
    (k hx, l hy); k and l broadcast, and only k = l = 0 touches the cell."""
    nodes, weights = 0.25 * (rule[0] + 1.0), 0.25 * rule[1]   # on [0, 1/2]
    dxs = [(k - a) * hx for a in nodes]
    dys = [(l - b) * hy for b in nodes]
    out = np.zeros(np.broadcast_shapes(np.shape(k), np.shape(l)))
    term = np.empty_like(out)
    for dx, wa in zip(dxs, weights):
        for dy, wb in zip(dys, weights):
            np.hypot(dx, dy, out=term)
            np.power(term, -mu, out=term)
            np.multiply(wa * wb, term, out=term)
            out += term
    return hx * hy * out


def _quarter_table(domain: DomainSpec, mu):
    """q[k + N-1, l + N-1]: the kernel integral over the quarter cell
    [0,hx/2]x[0,hy/2] seen from offset (k, l), by the graded Gauss rule."""
    n = domain.n_grid
    hx, hy = domain.spacings()
    offs = np.arange(-(n - 1), n)
    q = _gauss_quarter(offs[:, None], offs[None, :], hx, hy, mu, _GAUSS_FAR)
    # distance of each offset from [0, 1/2] per axis, in cells
    gap = np.maximum(-offs, offs - 0.5)
    dist = np.hypot(gap[:, None] * hx, gap[None, :] * hy) / max(hx, hy)
    for bound, rule in _GAUSS_GRADED:
        i, j = np.nonzero(dist <= bound)
        q[i, j] = _gauss_quarter(offs[i], offs[j], hx, hy, mu, rule)
    near = offs[np.abs(offs) <= 4]
    q[np.ix_(near + n - 1, near + n - 1)] = _gauss_quarter(
        near[:, None], near[None, :], hx, hy, mu, _GAUSS_NEAR)
    # exact polar value on the singular quarter
    q[n - 1, n - 1] = _singular_quadrant(hx / 2.0, hy / 2.0, mu)
    return q


# --------------------------------------------------------------------------
# public surface
# --------------------------------------------------------------------------

def build_weights(domain: DomainSpec, mu) -> RieszWeights:
    """Product-integration weights for the kernel |x-t|^{-mu} on the domain."""
    mu = float(mu)
    dim = domain.dim
    if not 0.0 < mu < dim:
        raise KernelNotIntegrable(
            f"kernel |x-t|^(-mu) needs 0 < mu < {dim} on a {dim}-D domain, got mu = {mu}")
    if dim == 1:
        scale = domain.spacings()[0] ** (1.0 - mu) / ((1.0 - mu) * (2.0 - mu))
        gen, left, right = _hat_weights(domain.n_grid, 2.0 - mu, False, scale)
        return RieszWeights(mu=mu, domain=domain, offsets=gen, edge_x=left,
                            edge_y=right)
    if domain.n_grid > _MAX_GRID_2D:
        raise OutOfRange(
            f"2-D weights capped at N = {_MAX_GRID_2D} per axis; "
            f"reduce the grid resolution (got {domain.n_grid})")
    q = _quarter_table(domain, mu)
    # full cells: four reflected quarters, summed so that the table is even
    half = q + q[::-1, :]
    return RieszWeights(mu=mu, domain=domain, offsets=half + half[:, ::-1])


def convolve(weights: RieszWeights, f: GridField) -> GridField:
    """Pointwise values of (|.|^{-mu} * f) over the domain; linear in f."""
    if f.domain != weights.domain:
        raise GridMismatch("field grid does not match the weights' grid")
    return GridField(weights.domain, _convolve(weights, f.values))


def _convolve(weights: RieszWeights, vals):
    """The array-level body of `convolve` on values of the weights' grid,
    which does not validate its input or its output, except that a 2-D
    field must vanish on the boundary."""
    if weights.domain.dim == 1:
        out = _table_apply(weights, vals)
        # the end columns carry half hats; a Dirichlet field has none
        if vals[..., 0].any() or vals[..., -1].any():
            out = out + vals[..., :1] * weights.edge_x + vals[..., -1:] * weights.edge_y
        return out
    # the table holds whole cells; only boundary nodes have cells that the
    # domain clips
    if (vals[..., 0, :].any() or vals[..., -1, :].any()
            or vals[..., 0].any() or vals[..., -1].any()):
        raise OutOfRange("the 2-D Riesz apply takes Dirichlet fields only "
                         "(u = 0 on and off the boundary); this field is "
                         "nonzero on the boundary")
    return _table_apply(weights, vals)


# --------------------------------------------------------------------------
# radial free-space quadrature
# --------------------------------------------------------------------------

def half_line_integral(g, breaks):
    """INT_0^inf g(r) dr by QUADPACK's QAGS (what `quad` runs) on each
    [b_i, b_{i+1}] of the increasing breaks, which start at 0, and on the
    inverted tail INT_0^{1/b_last} g(1/t) / t^2 dt.

    Raises DivergentTail when r |g(r)| has not fallen by 0.1% from
    r = 1e3 b_last to 1e4 b_last: in the range of the tail map, and clear
    of the breaks, where an integrand may be singular.  Raises
    QuadratureFailure when the summed error estimate exceeds 1e-6 of the
    value, or when QUADPACK flags a piece (its ier > 0): on a divergent
    piece QAGS can return a small estimate with that flag.
    """
    from scipy.integrate import quad

    last = breaks[-1]
    r1, r2 = 1.0e3 * last, 1.0e4 * last
    g1, g2 = r1 * abs(g(r1)), r2 * abs(g(r2))
    if g1 > 0.0 and g2 >= 0.999 * g1:
        raise DivergentTail(
            "integrand decays too slowly "
            f"(r*|integrand| at {r1:.3g}: {g1:.3e}, at {r2:.3g}: {g2:.3e})")
    pieces = [(g, a, b, f"[{a:g}, {b:g}]") for a, b in zip(breaks[:-1], breaks[1:])]
    pieces.append((lambda t: g(1.0 / t) / t ** 2, 0.0, 1.0 / last, f"[{last:g}, inf)"))
    val = err = 0.0
    flags = []
    for fun, a, b, where in pieces:
        v, e, _, *msg = quad(fun, a, b, epsabs=1e-12, epsrel=1e-10, limit=400,
                             full_output=1)
        val += v
        err += e
        flags += [f"; QUADPACK on {where}: {m}" for m in msg]
    if flags or err > 1e-6 * abs(val):
        raise QuadratureFailure(
            f"half-line quadrature error estimate {err:.3e} for value {val:.6e}"
            + "".join(flags))
    return val


def riesz_at_center(f_radial, params):
    """sigma_n INT_0^inf r^{n-1-mu} f(r) dr; f_radial must decay fast
    enough for the integral to converge, which `half_line_integral` guards."""
    n, mu = params.n, params.mu
    return sigma_n(n) * half_line_integral(
        lambda r: r ** (n - 1.0 - mu) * f_radial(r), (0.0, 1.0))


def riesz_radial(f_radial, rho, params):
    """(|.|^{-mu} * f)(x) with |x| = rho for a radial profile f.

    The angular integral is exact in n = 1 and n = 3 and reduces to a 1-D
    quadrature in n = 2, so off-center values cost two nested 1-D rules.
    """
    n, mu = params.n, params.mu
    rho = float(abs(rho))
    if rho == 0.0:
        return riesz_at_center(f_radial, params)
    # decade breaks rho 10^k < 1 between rho and the outer break: one QAGS
    # piece over many decades misses the kernel's peak at r = rho (the
    # log-singular one of n = 3, mu = 2) with a passing estimate; n = 2
    # keeps none, because there they make mu = 1.5 fail at rho = 1e-2
    inner = tuple(rho * 10.0 ** k for k in range(1, math.ceil(-math.log10(rho))))

    if n == 1:
        def integrand(r):
            return f_radial(r) * (abs(rho - r) ** (-mu) + (rho + r) ** (-mu))
    elif n == 3:
        q = 2.0 - mu

        def integrand(r):
            d = abs(rho - r)
            if d == 0.0:
                # r = rho: (2 rho)^q / q, finite only for q > 0
                kern = (2.0 * rho) ** q / q if q > 0.0 else math.inf
            else:
                # ((rho + r)^q - d^q) / q without subtracting two close
                # powers, which cancel at small rho; log_ratio is its
                # q -> 0 limit, log((rho + r) / d)
                log_ratio = math.log1p(2.0 * min(rho, r) / d)
                kern = d ** q * math.expm1(q * log_ratio) / q if q else log_ratio
            return f_radial(r) * r * (2.0 * math.pi / rho) * kern
    elif n == 2:
        from scipy.integrate import IntegrationWarning, quad
        inner = ()

        def integrand(r):
            c = rho * rho + r * r
            d = 2.0 * rho * r
            # near r = rho QUADPACK flags roundoff in this angular rule; the
            # outer estimate, which half_line_integral checks, covers it
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", IntegrationWarning)
                v, _ = quad(lambda t: (c - d * math.cos(t)) ** (-mu / 2.0),
                            0.0, math.pi, epsabs=1e-13, epsrel=1e-11, limit=400)
            return 2.0 * f_radial(r) * r * v
    else:
        raise OutOfRange(f"radial convolution supports n in (1,2,3), got {n}")
    return half_line_integral(integrand, (0.0, rho, *inner, max(2.0 * rho, 1.0) + 1.0))


# --------------------------------------------------------------------------
# signed moment weights (1-D):  PV INT phi_j(t) sign(x_i-t)|x_i-t|^{-(1+mu)} dt
# --------------------------------------------------------------------------

def moment_weights_1d(domain: DomainSpec, mu):
    """Product-integration rows for the dilation-moment kernel.

    The rows are meant to act on (f - f(x_i)); with that pairing the two
    cells adjacent to x_i contribute only through the neighbor hats
    (-/+ h^{-mu}/(1-mu)), the node hat dropping out by PV symmetry.
    Dense; the oracle of `moment_apply`.
    """
    if domain.dim != 1:
        raise OutOfRange("moment weights are a 1-D construction")
    mu = float(mu)
    x = domain.axes()[0]
    n = len(x)
    h = x[1] - x[0]
    a = np.zeros((n, n))

    def g0(u):
        return np.abs(u) ** (-mu) / mu

    def g1(u):
        return -np.sign(u) * np.abs(u) ** (1.0 - mu) / (1.0 - mu)

    t_left = x[:-1]
    t_right = x[1:]
    c = h ** (-mu) / (1.0 - mu)
    for i in range(n):
        u_l = t_left - x[i]
        u_r = t_right - x[i]
        sing = (np.abs(u_l) < 1e-14) | (np.abs(u_r) < 1e-14)
        safe_l = np.where(sing, 1.0, u_l)
        safe_r = np.where(sing, 1.0, u_r)
        m0 = np.where(sing, 0.0, g0(safe_r) - g0(safe_l))
        m1 = np.where(sing, 0.0, (g1(safe_r) - g1(safe_l)) - safe_l * m0)
        a[i, :-1] += m0 - m1 / h
        a[i, 1:] += m1 / h
        if i + 1 < n:
            a[i, i + 1] += -c
        if i - 1 >= 0:
            a[i, i - 1] += +c
    return a


def moment_apply(domain: DomainSpec, mu, values):
    """moment_weights_1d(domain, mu) @ values in O(N log N).

    The neighbor terms complete the PV-paired near cells to full hats, so
    the rows are Toeplitz in the odd generator plus two end columns.
    values may stack several fields along leading axes.
    """
    if domain.dim != 1:
        raise OutOfRange("moment weights are a 1-D construction")
    mu = float(mu)
    scale = domain.spacings()[0] ** (-mu) / (mu * (1.0 - mu))
    gen, left, right = _hat_weights(domain.n_grid, 1.0 - mu, True, scale)
    values = np.asarray(values, dtype=float)
    return (_fft_apply(_spectrum(gen), values)
            + values[..., :1] * left + values[..., -1:] * right)


# --------------------------------------------------------------------------
# names that benchmarks/ calls
# --------------------------------------------------------------------------

def cache_dir():
    """Kept for benchmarks/; goes with ROADMAP item 1."""
    return os.environ.get("FHL_CACHE_DIR",
                          os.path.join(os.path.expanduser("~"), ".cache", "fhl"))


def load_or_build_weights(domain: DomainSpec, mu, directory=None) -> RieszWeights:
    """`build_weights`; directory is not read.  Kept for benchmarks/; goes
    with ROADMAP item 1."""
    return build_weights(domain, mu)
