"""Weakly singular Riesz-potential convolution on grids and radial profiles.

1-D weights are product-integration rows exact for piecewise-linear
integrands against |x-t|^{-mu}: the per-cell moments of the kernel against
hat functions have elementary antiderivatives for mu in (0,1), so the
singular cell needs no regularization.  On a uniform grid the rows are
Toeplitz except in the two end columns, whose nodes carry half hats, so
the weights are stored as one closed-form generator of length 2N - 1 plus
two end-column corrections and applied with a zero-padded real FFT in
O(N log N).  The dense builders `_build_1d` and `moment_weights_1d` stay as
test oracles.

2-D weights are piecewise-constant product integration over node-centered
cells clipped to the domain.  Uniform spacing makes the full-cell integrals
a function of the node offset only, so they are stored as an offset table
and applied as a discrete convolution; boundary-cell clipping is restored
exactly through per-edge strip tables and per-corner fields.  Documented
accuracy is O(h) near the singularity, which is what the desk-scale solver
configurations need.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
import zipfile
from dataclasses import dataclass, field

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.integrate import quad
from scipy.signal import fftconvolve

from .errors import (DivergentTail, GridMismatch, KernelNotIntegrable,
                     OutOfRange, QuadratureFailure)
from .grids import DomainKind, DomainSpec, GridField

_MAX_DENSE_1D = 4096
_MAX_GRID_2D = 512

_GAUSS_FAR = np.polynomial.legendre.leggauss(12)
_GAUSS_NEAR = np.polynomial.legendre.leggauss(40)


@dataclass
class RieszWeights:
    """Precomputed product-integration data for one (domain, mu) pair."""

    mu: float
    domain: DomainSpec
    # never set: no layout stores dense rows; readers of weights
    # (benchmarks/spans.py) test it to pick the layout's byte count
    matrix: np.ndarray | None = None
    # 2-D: full-cell offset table, strip tables of the x- and y-overhangs.
    # 1-D: generator by column-minus-row offset + N - 1, and the corrections
    # of the first and last columns (half hats minus full hats).
    offsets: np.ndarray | None = None
    edge_x: np.ndarray | None = None
    edge_y: np.ndarray | None = None
    corners: dict = field(default_factory=dict)
    spectrum: np.ndarray | None = field(default=None, repr=False)  # 1-D FFT


# --------------------------------------------------------------------------
# 1-D hat-function product integration
# --------------------------------------------------------------------------

def _build_1d(x, mu):
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


def _fft_len(n):
    # a circular product of this length holds the needed linear-product slots
    return next_fast_len(2 * n - 1, real=True)


def _toeplitz_spectrum(generator):
    """Real FFT of the flipped generator, zero-padded to `_fft_len`.

    Entry (i, j) of the operator is generator[j - i + N - 1]; flipping turns
    the row sums into a convolution.  The orientation matters for the odd
    moment kernel, which a flipped generator would negate.
    """
    n = (len(generator) + 1) // 2
    return rfft(generator[::-1], _fft_len(n))


def _toeplitz_apply(spectrum, left, right, values):
    """Toeplitz product plus the two end-column corrections.

    Applies along the last axis, so a stack of fields goes in one call.
    """
    n = values.shape[-1]
    size = _fft_len(n)
    out = irfft(rfft(values, size) * spectrum, size)[..., n - 1:2 * n - 1]
    return out + values[..., :1] * left + values[..., -1:] * right


# --------------------------------------------------------------------------
# 2-D cell tables
# --------------------------------------------------------------------------

def _singular_quadrant(a, b, mu):
    """INT over [0,a]x[0,b] of |t|^{-mu} dt, exactly via polar splitting."""
    phi0 = math.atan2(b, a)
    i1, _ = quad(lambda t: (a / math.cos(t)) ** (2.0 - mu), 0.0, phi0,
                 epsabs=1e-14, epsrel=1e-12)
    i2, _ = quad(lambda t: (b / math.sin(t)) ** (2.0 - mu), phi0, math.pi / 2.0,
                 epsabs=1e-14, epsrel=1e-12)
    return (i1 + i2) / (2.0 - mu)


def _gauss_cell(dx, dy, hx, hy, mu, rule):
    """Kernel integral over the hx-by-hy cell at offsets (dx, dy); vectorized."""
    gx, gw = rule
    nx = 0.5 * hx * gx
    ny = 0.5 * hy * gx
    wx = 0.5 * hx * gw
    wy = 0.5 * hy * gw
    out = np.zeros(np.broadcast(dx, dy).shape)
    for a in range(len(gx)):
        for b in range(len(gx)):
            r = np.hypot(dx - nx[a], dy - ny[b])
            with np.errstate(divide="ignore"):
                v = np.where(r > 0.0, r ** (-mu), 0.0)
            out += wx[a] * wy[b] * v
    return out


def _gauss_halfcell(dx, dy, hx, hy, mu, rule, axis):
    """Kernel integral over the outward half cell (the clipped overhang).

    axis = 0: strip [-hx/2, 0] x [-hy/2, hy/2]; axis = 1: x and y swapped.
    Offsets are measured from the boundary node to the target node.
    """
    gx, gw = rule
    if axis == 0:
        nu = 0.25 * hx * (gx - 1.0)   # nodes in [-hx/2, 0]
        wu = 0.25 * hx * gw
        nv = 0.5 * hy * gx
        wv = 0.5 * hy * gw
    else:
        nu = 0.5 * hx * gx
        wu = 0.5 * hx * gw
        nv = 0.25 * hy * (gx - 1.0)
        wv = 0.25 * hy * gw
    out = np.zeros(np.broadcast(dx, dy).shape)
    for a in range(len(gx)):
        for b in range(len(gx)):
            r = np.hypot(dx - nu[a], dy - nv[b])
            with np.errstate(divide="ignore"):
                v = np.where(r > 0.0, r ** (-mu), 0.0)
            out += wu[a] * wv[b] * v
    return out


def _build_2d(domain: DomainSpec, mu):
    n = domain.n_grid
    hx, hy = domain.spacings()
    offs = np.arange(-(n - 1), n)
    dx_grid = offs[:, None] * hx
    dy_grid = offs[None, :] * hy

    table = _gauss_cell(dx_grid, dy_grid, hx, hy, mu, _GAUSS_FAR)
    # refine the near field where the 12-point rule loses digits
    near = 4
    sel = offs[np.abs(offs) <= near]
    dxn = sel[:, None] * hx
    dyn = sel[None, :] * hy
    fine = _gauss_cell(dxn, dyn, hx, hy, mu, _GAUSS_NEAR)
    idx = sel + (n - 1)
    table[np.ix_(idx, idx)] = fine
    # exact polar value on the singular cell
    table[n - 1, n - 1] = 4.0 * _singular_quadrant(hx / 2.0, hy / 2.0, mu)

    # edge strip tables: E[d_along + (n-1), d_perp] with d_perp >= 0 measured
    # from the boundary into the domain
    perp = np.arange(n)
    dpx = perp[None, :] * hx
    dal_y = offs[:, None] * hy
    ex = _gauss_halfcell(np.broadcast_to(dpx, (2 * n - 1, n)),
                         np.broadcast_to(dal_y, (2 * n - 1, n)),
                         hx, hy, mu, _GAUSS_FAR, axis=0)
    dal_x = offs[:, None] * hx
    dpy = perp[None, :] * hy
    ey = _gauss_halfcell(np.broadcast_to(dal_x, (2 * n - 1, n)),
                         np.broadcast_to(dpy, (2 * n - 1, n)),
                         hx, hy, mu, _GAUSS_FAR, axis=1)
    # refine strips near the boundary node (both offsets small)
    seln = offs[np.abs(offs) <= near]
    perpn = perp[perp <= near]
    exn = _gauss_halfcell(perpn[None, :] * hx + 0.0 * seln[:, None],
                          seln[:, None] * hy + 0.0 * perpn[None, :],
                          hx, hy, mu, _GAUSS_NEAR, axis=0)
    ex[np.ix_(seln + (n - 1), perpn)] = exn
    eyn = _gauss_halfcell(seln[:, None] * hx + 0.0 * perpn[None, :],
                          perpn[None, :] * hy + 0.0 * seln[:, None],
                          hx, hy, mu, _GAUSS_NEAR, axis=1)
    ey[np.ix_(seln + (n - 1), perpn)] = eyn
    # the strip touching its own boundary node: exact (two polar quadrants)
    ex[n - 1, 0] = 0.5 * table[n - 1, n - 1]
    ey[n - 1, 0] = 0.5 * table[n - 1, n - 1]

    # corner overhang fields: kernel integral over the outward quarter cell
    # at each of the four corner nodes, evaluated at every grid node
    ax0, bx0, ay0, by0 = domain.bounds
    xs, ys = domain.axes()
    corners = {}
    for (cx, cy, sx, sy) in ((ax0, ay0, -1, -1), (bx0, ay0, +1, -1),
                             (ax0, by0, -1, +1), (bx0, by0, +1, +1)):
        dx = xs[:, None] - cx
        dy = ys[None, :] - cy
        gx, gw = _GAUSS_FAR
        nxq = sx * 0.25 * hx * (gx + 1.0)   # outward quarter in x
        nyq = sy * 0.25 * hy * (gx + 1.0)
        wq = 0.25 * hx * gw
        vq = 0.25 * hy * gw
        acc = np.zeros((n, n))
        for a in range(len(gx)):
            for b in range(len(gx)):
                r = np.hypot(dx - nxq[a], dy - nyq[b])
                with np.errstate(divide="ignore"):
                    v = np.where(r > 0.0, r ** (-mu), 0.0)
                acc += wq[a] * vq[b] * v
        # the corner node itself: quarter of the exact singular cell
        i = 0 if sx < 0 else n - 1
        j = 0 if sy < 0 else n - 1
        acc[i, j] = 0.25 * table[n - 1, n - 1]
        corners[(i, j)] = acc
    return table, ex, ey, corners


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
        n = domain.n_grid
        if n > _MAX_DENSE_1D:
            raise OutOfRange(
                f"1-D weights capped at N = {_MAX_DENSE_1D}; "
                f"reduce the grid resolution (got {n})")
        scale = domain.spacings()[0] ** (1.0 - mu) / ((1.0 - mu) * (2.0 - mu))
        gen, left, right = _hat_weights(n, 2.0 - mu, False, scale)
        return RieszWeights(mu=mu, domain=domain, offsets=gen, edge_x=left,
                            edge_y=right, spectrum=_toeplitz_spectrum(gen))
    if domain.n_grid > _MAX_GRID_2D:
        raise OutOfRange(
            f"2-D weights capped at N = {_MAX_GRID_2D} per axis; "
            f"reduce the grid resolution (got {domain.n_grid})")
    table, ex, ey, corners = _build_2d(domain, mu)
    return RieszWeights(mu=mu, domain=domain, offsets=table,
                        edge_x=ex, edge_y=ey, corners=corners)


def convolve(weights: RieszWeights, f: GridField) -> GridField:
    """Pointwise values of (|.|^{-mu} * f) over the domain; linear in f."""
    if f.domain != weights.domain:
        raise GridMismatch("field grid does not match the weights' grid")
    if weights.domain.dim == 1:
        return GridField(weights.domain, _toeplitz_apply(
            weights.spectrum, weights.edge_x, weights.edge_y, f.values))
    vals = f.values
    n = weights.domain.n_grid
    out = fftconvolve(vals, weights.offsets, mode="same")
    # subtract the overhang of boundary-node cells, restore corner pieces
    ex, ey = weights.edge_x, weights.edge_y
    for j, flip in ((0, False), (n - 1, True)):
        col = vals[:, j]
        if np.any(col):
            strip = fftconvolve(np.tile(col[:, None], (1, n)), ey, mode="full",
                                axes=0)[n - 1:2 * n - 1, :]
            if flip:
                strip = strip[:, ::-1]
            out -= strip
    for i, flip in ((0, False), (n - 1, True)):
        row = vals[i, :]
        if np.any(row):
            strip = fftconvolve(np.tile(row[:, None], (1, n)), ex, mode="full",
                                axes=0)[n - 1:2 * n - 1, :]
            strip = strip.T if not flip else strip.T[::-1, :]
            out -= strip
    for (i, j), fld in weights.corners.items():
        if vals[i, j] != 0.0:
            out += vals[i, j] * fld
    return GridField(weights.domain, out)


# --------------------------------------------------------------------------
# radial free-space quadrature
# --------------------------------------------------------------------------

def riesz_at_center(f_radial, params, tail_decay_check=True):
    """sigma_n INT_0^inf r^{n-1-mu} f(r) dr with an algebraic tail map.

    f_radial must decay fast enough for the tail to converge; a runtime
    estimate of the decay exponent guards the precondition.
    """
    from .constants import sigma_n
    n, mu = params.n, params.mu
    if tail_decay_check:
        r1, r2 = 1.0e3, 1.0e4
        g1 = abs(f_radial(r1)) * r1 ** (n - mu)
        g2 = abs(f_radial(r2)) * r2 ** (n - mu)
        if g1 > 0.0 and g2 >= 0.999 * g1:
            raise DivergentTail(
                "integrand r^{n-1-mu} f(r) decays too slowly "
                f"(r*integrand at 1e3: {g1:.3e}, at 1e4: {g2:.3e})")

    def g(r):
        return r ** (n - 1.0 - mu) * f_radial(r)

    head, e1 = quad(g, 0.0, 1.0, epsabs=1e-13, epsrel=1e-11, limit=400)
    tail, e2 = quad(lambda t: g(t / (1.0 - t)) / (1.0 - t) ** 2, 0.5, 1.0,
                    epsabs=1e-13, epsrel=1e-11, limit=400)
    val = sigma_n(n) * (head + tail)
    err = sigma_n(n) * (e1 + e2)
    if abs(val) > 0 and err > 1e-6 * abs(val):
        raise QuadratureFailure(
            f"radial quadrature error estimate {err:.3e} for value {val:.6e}")
    return val


def riesz_radial(f_radial, rho, params):
    """(|.|^{-mu} * f)(x) with |x| = rho for a radial profile f.

    The angular integral is exact in n = 1 and n = 3 and reduces to a 1-D
    quadrature in n = 2, so off-center values cost two nested 1-D rules.
    """
    n, mu = params.n, params.mu
    rho = float(abs(rho))
    if rho == 0.0:
        return riesz_at_center(f_radial, params, tail_decay_check=False)

    if n == 1:
        def integrand(r):
            return f_radial(r) * (abs(rho - r) ** (-mu) + (rho + r) ** (-mu))
    elif n == 3:
        def integrand(r):
            a = (rho + r) ** (2.0 - mu)
            b = abs(rho - r) ** (2.0 - mu)
            return f_radial(r) * r * (2.0 * math.pi / ((2.0 - mu) * rho)) * (a - b)
    elif n == 2:
        def integrand(r):
            c = rho * rho + r * r
            d = 2.0 * rho * r
            v, _ = quad(lambda t: (c - d * math.cos(t)) ** (-mu / 2.0),
                        0.0, math.pi, epsabs=1e-13, epsrel=1e-11, limit=400)
            return 2.0 * f_radial(r) * r * v
    else:
        raise OutOfRange(f"radial convolution supports n in (1,2,3), got {n}")

    brk = sorted({0.0, rho, max(2.0 * rho, 1.0) + 1.0})
    total = 0.0
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for a, b in zip(brk[:-1], brk[1:]):
            v, _ = quad(integrand, a, b, epsabs=1e-12, epsrel=1e-10, limit=400)
            total += v
        big = brk[-1]
        v, _ = quad(lambda t: integrand(1.0 / t) / t ** 2, 1e-12, 1.0 / big,
                    epsabs=1e-12, epsrel=1e-10, limit=400)
    return total + v


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
    return _toeplitz_apply(_toeplitz_spectrum(gen), left, right,
                           np.asarray(values, dtype=float))


# --------------------------------------------------------------------------
# weights cache for 2-D tables (binary sidecar, format-versioned)
# --------------------------------------------------------------------------

_CACHE_FORMAT_VERSION = 1
# what np.load raises on a missing, truncated, empty or foreign file
_CACHE_LOAD_ERRORS = (OSError, EOFError, ValueError, KeyError, zipfile.BadZipFile)


def _cache_key(domain: DomainSpec, mu):
    payload = f"{domain.kind.value}|{domain.bounds}|{domain.n_grid}|{mu!r}|v{_CACHE_FORMAT_VERSION}"
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


def cache_dir():
    return os.environ.get("FHL_CACHE_DIR",
                          os.path.join(os.path.expanduser("~"), ".cache", "fhl"))


def load_or_build_weights(domain: DomainSpec, mu, directory=None) -> RieszWeights:
    """build_weights with a binary sidecar cache keyed by (domain, mu, N).

    Only 2-D tables are cached: 1-D weights are O(N) to build.  A file that
    cannot be read or has another format version is rebuilt and
    overwritten; files are written under a temporary name and moved into
    place, so a reader never sees a partial file.
    """
    if domain.dim == 1:
        return build_weights(domain, mu)
    directory = directory or cache_dir()
    path = os.path.join(directory, f"fhlw_{_cache_key(domain, mu)}.npz")
    if os.path.exists(path):
        try:
            # the handle is ours, so a file np.load rejects is closed too
            with open(path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
                if int(data["format_version"][0]) == _CACHE_FORMAT_VERSION:
                    return RieszWeights(
                        mu=float(mu), domain=domain, offsets=data["offsets"],
                        edge_x=data["edge_x"], edge_y=data["edge_y"],
                        corners={tuple(map(int, k.split("_")[1:])): data[k]
                                 for k in data.files if k.startswith("corner_")})
        except _CACHE_LOAD_ERRORS:
            pass  # damaged: rebuilt and overwritten below
    w = build_weights(domain, mu)
    os.makedirs(directory, exist_ok=True)
    payload = {"format_version": np.array([_CACHE_FORMAT_VERSION]),
               "offsets": w.offsets, "edge_x": w.edge_x, "edge_y": w.edge_y}
    for (i, j), fld in w.corners.items():
        payload[f"corner_{i}_{j}"] = fld
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fhlw_", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.savez(fh, **payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
    return w
