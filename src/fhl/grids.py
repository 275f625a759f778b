"""Domain specifications and sampled fields on uniform grids.

Grids include both endpoints; node spacing is h = side/(N-1) per axis.
With interior sine modes vanishing at the endpoints, the trapezoid inner
product reproduces discrete sine orthogonality exactly, which is what makes
the spectral Gram matrix the identity to rounding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import GridMismatch, OutOfRange


@dataclass(frozen=True)
class DomainSpec:
    """A supported domain with its grid resolution.

    bounds: (a, b) for an interval, (ax, bx, ay, by) for a rectangle; the
    dimension is len(bounds) / 2.
    n_grid: nodes per axis, endpoints included; at least 16.
    """

    bounds: tuple
    n_grid: int

    def __post_init__(self):
        if self.n_grid < 16:
            raise OutOfRange(f"grid resolution N >= 16 required, got {self.n_grid}")
        if len(self.bounds) not in (2, 4) or not all(hi > lo for lo, hi in self.ranges()):
            raise OutOfRange(f"bounds (a, b) or (ax, bx, ay, by) with each upper "
                             f"bound above its lower one required, got {self.bounds}")

    @property
    def dim(self):
        return len(self.bounds) // 2

    @property
    def kind(self):
        return "interval" if self.dim == 1 else "rectangle"

    @property
    def shape(self):
        return (self.n_grid,) * self.dim

    def ranges(self):
        """Per-axis (lo, hi) bounds."""
        b = self.bounds
        return tuple(zip(b[0::2], b[1::2]))

    @property
    def sides(self):
        return tuple(hi - lo for lo, hi in self.ranges())

    def axes(self):
        """Per-axis node arrays, endpoints included."""
        return tuple(np.linspace(lo, hi, self.n_grid) for lo, hi in self.ranges())

    def mesh(self):
        """Per-axis node coordinates broadcast to the grid shape."""
        return np.meshgrid(*self.axes(), indexing="ij")

    def spacings(self):
        return tuple(side / (self.n_grid - 1) for side in self.sides)

    def trap_weights(self):
        """Per-axis trapezoid weights (endpoint halves)."""
        out = []
        for h in self.spacings():
            w = np.full(self.n_grid, h)
            w[0] = w[-1] = h / 2.0
            out.append(w)
        return tuple(out)

    def node_weights(self):
        """Full tensor-product quadrature weights matching values' shape."""
        return reduce(np.multiply.outer, self.trap_weights())

    def interior_mask(self, margin):
        """Boolean mask of nodes at distance >= margin from the boundary."""
        dist = np.minimum.reduce([d for (lo, hi), x in zip(self.ranges(), self.mesh())
                                  for d in (x - lo, hi - x)])
        return dist >= margin


@dataclass
class GridField:
    """Sampled real values on the nodes of a DomainSpec."""

    domain: DomainSpec
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        shape = self.domain.shape
        if vals.shape != shape:
            raise GridMismatch(
                f"values shape {vals.shape} does not match grid {shape}")
        if not np.all(np.isfinite(vals)):
            raise OutOfRange("field values must be finite")
        self.values = vals

    def inner(self, other: "GridField"):
        if other.domain != self.domain:
            raise GridMismatch("fields live on different grids")
        return float(np.sum(self.domain.node_weights() * self.values * other.values))

    def l2_norm(self):
        return float(np.sqrt(np.sum(self.domain.node_weights() * self.values ** 2)))

    def sup_norm(self):
        return float(np.max(np.abs(self.values)))

    def argmax_point(self):
        """Grid node where the field attains its maximum."""
        idx = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return tuple(float(x[i]) for x, i in zip(self.domain.axes(), idx))


def as_points(x, dim):
    """x as a float array whose last axis holds dim coordinates; a scalar
    is a point of an interval."""
    pts = np.asarray(x, dtype=float)
    pts = pts.reshape(1) if pts.shape == () and dim == 1 else pts
    if pts.shape[-1:] != (dim,):
        raise OutOfRange(f"expected points with {dim} coordinate(s), the domain "
                         f"dimension, got {x!r}")
    return pts


def interpolate(field: GridField, points):
    """Multilinear interpolation of field at points, whose last axis holds
    one coordinate per grid axis; returns an array of shape points.shape[:-1].

    Each point takes the cell [x_i, x_{i+1}] with x_i <= p < x_{i+1} (the
    last cell on the upper bound) and the fraction t = (p - x_i)/(x_{i+1} -
    x_i) per axis, and sums the 2^dim corner values times their products of
    t and 1 - t.  Raises OutOfRange, naming the point, for a point outside
    the domain or with a NaN coordinate.
    """
    dom = field.domain
    pts = as_points(points, dom.dim)
    outside = np.zeros(pts.shape[:-1], dtype=bool)
    cells, fracs = [], []
    for k, ax in enumerate(dom.axes()):
        p = pts[..., k]
        outside |= ~((p >= ax[0]) & (p <= ax[-1]))
        i = np.minimum(np.searchsorted(ax, p, side="right") - 1, len(ax) - 2)
        cells.append(i)
        fracs.append((p - ax[i]) / (ax[i + 1] - ax[i]))
    if np.any(outside):
        pt = pts[np.unravel_index(np.argmax(outside), outside.shape)]
        raise OutOfRange(f"point {tuple(float(c) for c in pt)} lies outside "
                         f"the domain {dom.ranges()}")
    out = 0.0
    for corner in itertools.product((0, 1), repeat=dom.dim):
        weight = 1.0
        for c, t in zip(corner, fracs):
            weight = weight * (t if c else 1.0 - t)
        out = out + field.values[tuple(i + c for i, c in zip(cells, corner))] * weight
    return out


def even_half(vals):
    """The first M = N/2 nodes per axis of vals when N is even and vals
    equals its flip on every axis exactly, with no tolerance; else None."""
    m, odd = divmod(vals.shape[0], 2)
    if odd or not all(np.array_equal(v[:m], v[:m - 1:-1])
                      for v in (np.moveaxis(vals, ax, 0) for ax in range(vals.ndim))):
        return None
    return vals[(slice(m),) * vals.ndim]


def mirror(half):
    """The exactly even field of 2M nodes per axis whose `even_half` is half."""
    for axis in range(half.ndim):
        half = np.concatenate([half, np.flip(half, axis)], axis)
    return half


def interval(a, b, n_grid) -> DomainSpec:
    return DomainSpec((float(a), float(b)), int(n_grid))


def rectangle(ax, bx, ay, by, n_grid) -> DomainSpec:
    return DomainSpec((float(ax), float(bx), float(ay), float(by)), int(n_grid))
