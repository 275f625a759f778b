"""Dirichlet sine eigenbasis, the spectral fractional Laplacian, and the
Green/Robin functions of supported domains.

Interval Green values complete the truncated mode sum with an analytic
summation-by-parts tail (four terms), which is what keeps the singularity
subtraction of the Robin function usable at small offsets; the magnitude
of the completion is the recorded truncation-tail estimate.  Rectangle sums
carry a Gaussian spectral mollifier at the eigenvalue cutoff instead: the
raw sorted-mode partial sums of the 2-D series do not converge at
desk-scale truncations, while the mollified sum is accurate down to offsets
of a few multiples of the cutoff length 1/sqrt(lambda_K).  Its modes are
products of per-axis sines, so it is a bilinear form in the points' sine
vectors.  `_robin_landscape` is the one Robin evaluator: `robin`,
`robin_detail` and `robin_critical_points` all take their values from it,
one point or a whole grid of them, in either dimension.

Analysis and synthesis are a DST-I on an interval, computed from numpy
real FFTs through the symmetric-extension view of the sine transforms
(Martucci, IEEE Trans. Signal Process. 42 (1994)), so the module needs no
SciPy, and products with the per-axis `sine_tables` on a rectangle.  An
exactly even field on an even grid is held by its first M = N/2 nodes per
axis, the half (1-D) or quarter (2-D), which the half transforms read and
write: its even-k coefficients are exactly zero, and odd-k coefficients
alone synthesize an exactly even field.  The Picard loop decides the
parity once per solve and calls them itself; `analysis` and `synthesis`
detect it per call, for every other caller.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import constants
from .errors import (DiagonalEvaluation, ExtrapolationDiverged, GridMismatch,
                     NoCriticalPoint, OutOfRange, UnderResolved)
from .grids import DomainSpec, GridField, as_points, even_half, mirror

_MAX_SAMPLED = 1 << 25   # cap on the entries of the sampled sine tables
_MOLL_C = 8.0            # Gaussian mollifier strength exp(-c (lam/lamK)^2)
_FLOOR_C = 22.0          # resolution floor of the mollified 2-D sum


@dataclass
class EigenBasis:
    """Dirichlet eigenpairs of -Laplace on the domain, sorted by eigenvalue."""

    domain: DomainSpec
    K: int
    lambdas: np.ndarray               # sorted ascending
    modes: np.ndarray                 # (K, dim) per-axis k of each mode
    # per-s mode arrays of the Green sums, filled by _green_arrays
    _green_cache: dict = field(default_factory=dict, init=False, repr=False,
                               compare=False)

    @property
    def dim(self):
        return self.domain.dim

    @functools.cached_property
    def box(self):
        """Per-axis k_max of the modes: the shape of the coefficient box."""
        return tuple(int(k) for k in self.modes.max(axis=0))

    @functools.cached_property
    def _box_pos(self):
        """The flat position of each mode (k_1 - 1, ..) in the box."""
        return np.ravel_multi_index(tuple(self.modes.T - 1), self.box)

    def sines(self, axis, x):
        """sqrt(2/L) sin((x - lo) (k pi)/L) along axis, k = 1 .. box[axis], at
        the coordinates x; x.shape + (k_max,).  The one sine evaluator, read
        by the tables and the Green and Robin sums.  It evaluates once per
        distinct coordinate: the landscape points share coordinates and,
        unless d0 is clipped, offsets."""
        (lo, _), length = self.domain.ranges()[axis], self.domain.sides[axis]
        vals, inv = np.unique(x, return_inverse=True)
        return math.sqrt(2.0 / length) * np.sin(
            (vals[:, None] - lo) * (np.arange(1, self.box[axis] + 1) * math.pi) / length
        )[inv.reshape(np.shape(x))]

    def _green_arrays(self, s):
        """The mode array of the Green sums that depends only on (basis, s),
        computed on first use and read-only: (k pi/L)^(-2s) on an interval;
        on a rectangle the (2,) + box array of w/lambda^s at each mode
        (kx, ky) and 0 elsewhere, for the mollifier weights
        w8 = exp(-8 (lambda/lambda_K)^2) and w16 = w8^2."""
        key = float(s)
        if key not in self._green_cache:
            if self.dim == 1:
                amp = (self.modes[:, 0] * math.pi / self.domain.sides[0]) ** (-2.0 * s)
            else:
                lam = self.lambdas
                w8 = np.exp(-_MOLL_C * (lam / lam[-1]) ** 2)
                amp = np.zeros((2, math.prod(self.box)))
                amp[:, self._box_pos] = np.stack([w8, w8 * w8]) / lam ** s
                amp = amp.reshape((2,) + self.box)
            amp.flags.writeable = False
            self._green_cache[key] = amp
        return self._green_cache[key]

    @functools.cached_property
    def sine_tables(self):
        """Per-axis `sines` at every node, transposed (k_max x N); at most
        _MAX_SAMPLED entries.

        The endpoint columns are exact zeros (sin k pi = 0).  On an interval
        the one table is the whole K x N mode matrix, the dense oracle of
        the DST-I transforms; on a rectangle the transforms are products
        with the tables.
        """
        entries = sum(self.box) * self.domain.n_grid
        if entries > _MAX_SAMPLED:
            raise OutOfRange(
                f"sampled sine tables of {entries} entries exceed the cap; "
                "use series evaluation instead")
        tables = []
        for axis, x in enumerate(self.domain.axes()):
            table = np.ascontiguousarray(self.sines(axis, x).T)
            table[:, [0, -1]] = 0.0
            tables.append(table)
        return tuple(tables)

    @functools.cached_property
    def _odd_tables(self):
        """Per-axis odd-k rows k = 1, 3, .. of the rectangle's sine tables
        at the nodes j = 1 .. N/2 - 1, the tables of the quarter transforms."""
        h = self.domain.n_grid // 2
        return tuple(np.ascontiguousarray(t[0::2, 1:h]) for t in self.sine_tables)


@dataclass
class SpectralField:
    basis: EigenBasis
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=float)
        if c.shape != (self.basis.K,):
            raise OutOfRange(f"expected {self.basis.K} coefficients, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise OutOfRange("coefficients must be finite")
        self.coeffs = c

    def l2_norm(self):
        return float(np.sqrt(np.sum(self.coeffs ** 2)))


def build_basis(domain: DomainSpec, K) -> EigenBasis:
    """Sine modes sorted by eigenvalue with stable index tie-breaking.

    K counts modes in total, at least one; the resolvability precondition
    is K <= N/2 per axis, K <= (N/2)^dim in total.
    """
    K = int(K)
    if K < 1:
        raise OutOfRange(f"K = {K}: a basis needs at least one mode")
    per_axis = domain.n_grid // 2
    if K > per_axis ** domain.dim:
        raise UnderResolved(
            f"K = {K} exceeds (N/2)^dim = {per_axis ** domain.dim} resolvable modes")
    k = np.meshgrid(*[np.arange(1, per_axis + 1)] * domain.dim, indexing="ij")
    lam = sum((kk * math.pi / length) ** 2 for kk, length in zip(k, domain.sides)).ravel()
    order = np.argsort(lam, kind="stable")[:K]
    modes = np.stack([kk.ravel()[order] for kk in k], axis=1)
    return EigenBasis(domain=domain, K=K, lambdas=lam[order].astype(float), modes=modes)


# --------------------------------------------------------------------------
# transforms
# --------------------------------------------------------------------------

# On the endpoint-inclusive interval grid x_j = a + j h, j = 0 .. N-1, the
# sampled modes sqrt(2/L) sin(k pi j / (N-1)) vanish at both ends, so both
# transforms are a DST-I on the N - 2 interior nodes (`_dst1`); any
# K <= N - 2 leading modes are orthonormal under the trapezoid product,
# hence analysis(synthesis(a)) = a.  On an even grid P = N - 1 is odd,
# and with k' = k + 1 the DST-I of z = (0, x) splits by the parity of k':
# k' = 2m reads -2 Im rfft_P(z)_m, and k' = P - 2m reads -2 Im rfft_P(z')_m
# with z'_j = (-1)^(j+1) z_j, since sin(pi (P - 2m) j / P) = (-1)^(j+1)
# sin(2 pi m j / P).  The half transforms take one row each: a mirror-
# symmetric x is zero at every even k', and an x that is zero at every
# even k' has z' = z, so its y is mirror-symmetric.

# On a rectangle both transforms are products with the per-axis sine
# tables on the coefficient box `EigenBasis.box`.  The tables' endpoint
# columns are exact zeros, so analysis needs no trapezoid half-weights and
# synthesis leaves all four edges exactly zero.

def _dst1(x, scale):
    """scale * y with y_k = 2 sum_j x_j sin(pi (k+1)(j+1) / P), P = len(x) + 1:
    the unnormalized DST-I, -Im of the numpy real FFT of the length-2P odd
    extension of z = (0, x_0 .. x_{P-2})."""
    p = len(x) + 1
    ext = np.zeros(2 * p)
    ext[1:p] = x
    ext[p + 1:] = -x[::-1]
    return -scale * np.fft.rfft(ext)[1:p].imag


def _dst_scale(domain: DomainSpec):
    return math.sqrt(2.0 / domain.sides[0]) / 2.0


def _synthesize(basis: EigenBasis, coeffs, half=False):
    """Grid values of the mode coefficients; the array-level body of
    `synthesis`, which does not validate its input or its output.  With
    half, their first M = N/2 nodes per axis (N even), for coefficients
    that are zero on every mode with an even k: an exactly even field."""
    n = basis.domain.n_grid
    if basis.dim == 1:
        x = np.zeros(n - 2)
        x[:basis.K] = coeffs
        scale = _dst_scale(basis.domain)
        if half:
            # the z row: the nodes 2, 4, .. and, reversed, 1, 3, ..
            y = np.fft.rfft(np.append(0.0, x)).imag[1:] * (-2.0 * scale)
            return np.append(0.0, np.stack([y[::-1], y], axis=1).ravel()[:n // 2 - 1])
        vals = np.zeros(n)   # exact zeros at the two Dirichlet nodes
        vals[1:-1] = _dst1(x, scale)
        return vals
    sx, sy = basis.sine_tables
    odd_x, odd_y = basis._odd_tables
    box = np.zeros(basis.box)
    box.ravel()[basis._box_pos] = coeffs
    if half:
        return np.pad(odd_x.T @ (box[::2, ::2] @ odd_y), ((1, 0), (1, 0)))
    return sx.T @ box @ sy


def _analyze(basis: EigenBasis, values):
    """Mode coefficients of grid values on the basis grid; the array-level
    body of `analysis`, which does not validate its input or its output.
    Values of M = N/2 nodes per axis (N even) are the first M of an
    exactly even field, whose even-k coefficients are exactly zero."""
    n = basis.domain.n_grid
    half = values.shape[-1] == n // 2
    spacing = basis.domain.spacings()
    if basis.dim == 1:
        scale = spacing[0] * _dst_scale(basis.domain)
        if not half:
            return _dst1(values[1:-1], scale)[:basis.K]
        # the z' row of the mirrored interior; the z row is zero
        z = values.copy()
        z[0] = 0.0
        z[2::2] *= -1.0   # z_j = (-1)^(j+1) u_j
        y = np.zeros(n - 2)
        y[::2] = np.fft.rfft(np.append(z, -z[:0:-1])).imag[:0:-1] * (-2.0 * scale)
        return y[:basis.K]
    sx, sy = basis.sine_tables
    odd_x, odd_y = basis._odd_tables
    if half:
        # the mirror sums are twice the interior nodes, the even-k rows zero
        box = np.zeros(basis.box)
        box[::2, ::2] = 2.0 * (odd_x @ (2.0 * values[1:, 1:])) @ odd_y.T
    else:
        box = sx @ values @ sy.T
    return box.ravel()[basis._box_pos] * (spacing[0] * spacing[1])


def synthesis(f: SpectralField) -> GridField:
    """Grid values of f; exactly even when the grid is even and f is zero
    on every mode with an even k."""
    basis = f.basis
    even_k = np.any(basis.modes % 2 == 0, axis=1)
    if basis.domain.n_grid % 2 or f.coeffs[even_k].any():
        return GridField(basis.domain, _synthesize(basis, f.coeffs))
    return GridField(basis.domain, mirror(_synthesize(basis, f.coeffs, half=True)))


def analysis(basis: EigenBasis, u: GridField) -> SpectralField:
    """Mode coefficients of u; exactly zero on every mode with an even k
    when u is exactly even on an even grid."""
    if u.domain != basis.domain:
        raise GridMismatch("field grid does not match the basis domain")
    half = even_half(u.values)
    return SpectralField(basis, _analyze(basis, u.values if half is None else half))


def apply_As(f: SpectralField, s) -> SpectralField:
    """Coefficients a_k lambda_k^s."""
    return SpectralField(f.basis, f.coeffs * f.basis.lambdas ** s)


def solve_As(rhs: SpectralField, s) -> SpectralField:
    """Coefficients b_k / lambda_k^s; exact inverse of apply_As."""
    return SpectralField(rhs.basis, rhs.coeffs / rhs.basis.lambdas ** s)


def gram_defect(basis: EigenBasis):
    """Max |Gram - I| entry of the sampled modes under the trapezoid product,
    the product over axes of the per-axis Grams."""
    g = 1.0
    for table, w, k in zip(basis.sine_tables, basis.domain.trap_weights(), basis.modes.T):
        gram = table @ (w[:, None] * table.T)
        g = g * gram[np.ix_(k - 1, k - 1)]
    return float(np.max(np.abs(g - np.eye(basis.K))))


# --------------------------------------------------------------------------
# Green function
# --------------------------------------------------------------------------

def _cos_tail(theta, K, s, length):
    """Analytic completion of sum_{k>K} (k pi/L)^{-2s} cos(k theta).

    Four terms of summation by parts around the geometric series; accurate
    once K|theta| >> 1, with the remainder shrinking by ~1/(K|theta|) per term.
    """
    terms = 4
    z = complex(math.cos(theta), math.sin(theta))
    if abs(1.0 - z) < 1e-9:
        raise DiagonalEvaluation("tail completion undefined on the diagonal direction")
    # the m-th forward difference of the coefficients at k = K + 1
    diffs = (np.arange(K + 1, K + 1 + terms, dtype=float) * math.pi / length) ** (-2.0 * s)
    acc = 0.0j
    for m in range(terms):
        acc += diffs[0] * z ** m / (1.0 - z) ** (m + 1)
        diffs = np.diff(diffs)
    return (z ** (K + 1) * acc).real


def _green_interval(basis: EigenBasis, s, x, y):
    a, b = basis.domain.bounds
    length = b - a
    k = basis.modes[:, 0].astype(float)
    amp = basis._green_arrays(s)
    tm = math.pi * (x - y) / length
    tp = math.pi * ((x - a) + (y - a)) / length
    val = float(np.sum(amp * (np.cos(k * tm) - np.cos(k * tp)))) / length
    tail_m = _cos_tail(tm, basis.K, s, length)
    tail_p = _cos_tail(tp, basis.K, s, length)
    correction = (tail_m - tail_p) / length
    return val + correction, abs(correction)


def _as_point(x, dim):
    """x as a tuple of dim floats: one point, not an array of them."""
    p = as_points(x, dim)
    if p.ndim != 1:
        raise OutOfRange(f"expected one point, got {x!r}")
    return tuple(float(v) for v in p)


def green_detail(basis: EigenBasis, s, x, y):
    """(value, truncation-tail estimate) of the Green function at (x, y).

    On a rectangle G(p, q) = sx(q1) . (C sx(p1) sy(p2)) . sy(q2) with C the
    box of _green_arrays, and the tail estimate is |G_w8 - G_w16|."""
    dim = basis.dim
    p = _as_point(x, dim)
    q = _as_point(y, dim)
    if p == q:
        raise DiagonalEvaluation(
            "green is singular on the diagonal; use robin for the regular part")
    _require_interior(basis.domain, p)
    _require_interior(basis.domain, q)
    if dim == 1:
        return _green_interval(basis, s, p[0], q[0])
    coef = basis._green_arrays(s)
    (sxp, sxq), (syp, syq) = (basis.sines(axis, [p[axis], q[axis]]) for axis in (0, 1))
    v8, v16 = (((coef * sxp[:, None] * syp) @ syq) @ sxq).tolist()
    return v8, abs(v8 - v16)


def green(basis: EigenBasis, s, x, y):
    return green_detail(basis, s, x, y)[0]


def _require_interior(domain, p):
    if not all(lo < x < hi for (lo, hi), x in zip(domain.ranges(), p)):
        raise OutOfRange(f"point {p} is not interior to the domain {domain.bounds}")


# --------------------------------------------------------------------------
# Robin function
# --------------------------------------------------------------------------

def resolution_floor(basis: EigenBasis):
    """Smallest pair distance the truncated/mollified series can resolve."""
    if basis.dim == 1:
        # the SBP completion needs K * pi * d / L >> 1
        length = basis.domain.sides[0]
        return 10.0 * length / (math.pi * basis.K)
    return _FLOOR_C / math.sqrt(basis.lambdas[-1])


def _robin_offsets(basis: EigenBasis, s, p, delta0):
    """The Richardson offsets d0, d0/2, d0/4 of robin at the point p: d0 is
    clipped to 0.9 of p's distance to the boundary, and the levels below
    the resolution floor are dropped."""
    _require_interior(basis.domain, p)
    n = basis.dim
    if not 0.0 < n - 2.0 * s < n:
        raise OutOfRange(f"robin requires 0 < n - 2s < n, got n = {n}, s = {s}")
    if delta0 is not None and not math.isfinite(delta0):
        raise OutOfRange(f"robin offset delta0 must be finite, got {delta0!r}")
    floor = resolution_floor(basis)
    dist = min(min(x - lo, hi - x) for (lo, hi), x in zip(basis.domain.ranges(), p))
    d0 = delta0 if delta0 is not None else max(
        4.2 * floor, 0.04 * min(basis.domain.sides))
    d0 = min(d0, 0.9 * dist)
    if d0 < floor:
        raise OutOfRange(
            f"offset {d0:.3e} below the series resolution floor {floor:.3e}; "
            "the point is too close to the boundary for this mode count")
    return [d0 / 2 ** j for j in range(3) if d0 / 2 ** j >= floor]


def _richardson(e_vals):
    """(value, spread) of the Richardson extrapolation on the even powers
    of the offset means e_vals, one per level of _robin_offsets."""
    if len(e_vals) == 1:
        return e_vals[0], float("nan")
    r1 = (4.0 * e_vals[1] - e_vals[0]) / 3.0
    if len(e_vals) == 2:
        return r1, abs(e_vals[1] - e_vals[0])
    r2 = (4.0 * e_vals[2] - e_vals[1]) / 3.0
    val = (16.0 * r2 - r1) / 15.0
    spread = abs(r2 - r1)
    if spread > max(0.05 * abs(val), 1e-9):
        raise ExtrapolationDiverged(
            f"Richardson levels differ by {spread:.3e} for robin value {val:.6e}")
    return val, spread


def robin_detail(basis: EigenBasis, s, x, delta0=None):
    """(value, extrapolation spread, offsets) of the Robin function at x:
    the landscape of the one point x."""
    return _robin_landscape(basis, s, [x], delta0)[0]


def robin(basis: EigenBasis, s, x, delta0=None):
    return robin_detail(basis, s, x, delta0)[0]


def _robin_landscape(basis: EigenBasis, s, points, delta0):
    """(value, extrapolation spread, offsets) of the Robin function at each
    of the points, in order; every point is checked before any is summed.

    H(x, y) = gamma_ns |x-y|^{-(n-2s)} - G(x, y) is evaluated at symmetric
    offsets d, d/2, d/4 along each axis (odd terms cancel in the average)
    and Richardson-extrapolated on the even powers; each point keeps its own
    offsets, levels and typed errors (_robin_offsets).

    On an interval each offset is one tail-completed _green_interval.  On a
    rectangle all points take one contraction per offset: with C the first
    mollifier level of the Green box, an x offset of the point p is
    G(p, p + d e_1) = sum_kx sx(p1) sx(p1 + d) (C sy(p2)^2)_kx, so C is
    contracted with the squared y sines of every point once, and each
    offset then takes one elementwise product and sum with its shifted
    sines; the y offsets likewise with C^T and the x sines.
    """
    n = basis.dim
    points = [_as_point(pt, n) for pt in points]
    deltas = [_robin_offsets(basis, s, p, delta0) for p in points]
    gam = constants.gamma_ns(n, s)
    if n == 1:
        e_vals = [[float(np.mean([gam * d ** (-(n - 2.0 * s))
                                  - _green_interval(basis, s, p[0], p[0] + sign * d)[0]
                                  for sign in (+1.0, -1.0)]))
                   for d in dl] for p, dl in zip(points, deltas)]
    else:
        c = basis._green_arrays(s)[0]
        px, py = np.array(points).T
        d = np.array([dl[0] for dl in deltas])[:, None] / [1.0, 2.0, 4.0]
        step = np.stack([d, -d], axis=-1).reshape(len(points), 6)
        sx, sy = basis.sines(0, px), basis.sines(1, py)
        green = [np.einsum("pk,pok->po", sx * (sy ** 2 @ c.T),
                           basis.sines(0, px[:, None] + step)),
                 np.einsum("pk,pok->po", sy * (sx ** 2 @ c),
                           basis.sines(1, py[:, None] + step))]
        # (point, level, the offsets x+, x-, y+, y-)
        green = np.concatenate([g.reshape(-1, 3, 2) for g in green], axis=-1)
        e_vals = np.mean(gam * d[..., None] ** (2.0 * s - 2.0) - green, axis=-1)
        e_vals = [e[:len(dl)].tolist() for e, dl in zip(e_vals, deltas)]
    return [_richardson(e) + (tuple(dl),) for e, dl in zip(e_vals, deltas)]


def _grid_axes(grid_axes):
    """The per-axis node arrays of a critical-point grid: the centered-
    difference gradient and its sign changes need at least 2 nodes per
    axis, in strictly increasing or strictly decreasing order."""
    axes = [np.asarray(x, dtype=float) for x in grid_axes]
    for x in axes:
        if x.ndim != 1 or len(x) < 2:
            raise OutOfRange(f"a grid axis needs 2 or more nodes, got {x}")
        steps = np.diff(x)
        if not (np.all(steps > 0.0) or np.all(steps < 0.0)):
            raise OutOfRange(f"grid axis {x} is not strictly monotone")
    return axes


def critical_points_from_values(grids_axes, phi_values):
    """Grid points where the centered-difference gradient changes sign in
    every axis, by increasing gradient magnitude."""
    axes = _grid_axes(grids_axes)
    phi = np.asarray(phi_values)
    if phi.shape != tuple(len(x) for x in axes):
        raise OutOfRange(
            f"values of shape {phi.shape} do not match the grid axes "
            f"{tuple(len(x) for x in axes)}")
    grads = [np.gradient(phi, x, axis=d) for d, x in enumerate(axes)]
    flags = np.ones(phi.shape, dtype=bool)
    for d, g in enumerate(grads):
        changes = np.zeros(phi.shape, dtype=bool)
        g_d, c_d = np.moveaxis(g, d, 0), np.moveaxis(changes, d, 0)
        sc = g_d[:-1] * g_d[1:] <= 0.0
        c_d[:-1] |= sc
        c_d[1:] |= sc
        flags &= changes
    idx = np.nonzero(flags)
    if len(idx[0]) == 0:
        raise NoCriticalPoint("gradient has no sign change on the grid")
    mag = sum(np.abs(g[idx]) for g in grads)
    # magnitudes within 1e-12 relative of the next smaller one tie, and ties
    # go in node order: mirror-symmetric nodes differ only by rounding
    order = np.argsort(mag, kind="stable")
    ties = np.cumsum(np.diff(mag[order], prepend=mag[order[0]])
                     > 1e-12 * mag[order])
    order = order[np.lexsort((order, ties))]
    return [tuple(float(x[i]) for x, i in zip(axes, node))
            for node in zip(*(i[order] for i in idx))]


def robin_critical_points(basis: EigenBasis, s, grid_axes, delta0=None):
    """Critical points of the Robin function phi(x) = H(x, x) on a grid.

    grid_axes: per-axis arrays of interior evaluation points, each with 2
    or more nodes in strictly monotone order.
    """
    axes = _grid_axes(grid_axes)
    phi = [v for v, _, _ in _robin_landscape(basis, s, itertools.product(*axes), delta0)]
    return critical_points_from_values(axes, np.reshape(phi, [len(x) for x in axes]))
