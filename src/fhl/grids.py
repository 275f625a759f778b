"""Domain specifications and sampled fields on uniform grids.

Grids include both endpoints; node spacing is h = side/(N-1) per axis.
With interior sine modes vanishing at the endpoints, the trapezoid inner
product reproduces discrete sine orthogonality exactly, which is what makes
the spectral Gram matrix the identity to rounding.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import GridMismatch, OutOfRange


class DomainKind(enum.Enum):
    INTERVAL = "interval"
    RECTANGLE = "rectangle"


@dataclass(frozen=True)
class DomainSpec:
    """A supported domain with its grid resolution.

    bounds: (a, b) for an interval, (ax, bx, ay, by) for a rectangle.
    n_grid: nodes per axis, endpoints included; at least 16.
    """

    kind: DomainKind
    bounds: tuple
    n_grid: int

    def __post_init__(self):
        if self.n_grid < 16:
            raise OutOfRange(f"grid resolution N >= 16 required, got {self.n_grid}")
        b = self.bounds
        if self.kind is DomainKind.INTERVAL:
            if len(b) != 2 or not b[1] > b[0]:
                raise OutOfRange(f"interval requires b > a, got {b}")
        elif self.kind is DomainKind.RECTANGLE:
            if len(b) != 4 or not (b[1] > b[0] and b[3] > b[2]):
                raise OutOfRange(f"rectangle requires bx > ax and by > ay, got {b}")
        else:  # pragma: no cover
            raise OutOfRange(f"unknown domain kind {self.kind!r}")

    @property
    def dim(self):
        return 1 if self.kind is DomainKind.INTERVAL else 2

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


def interval(a, b, n_grid) -> DomainSpec:
    return DomainSpec(DomainKind.INTERVAL, (float(a), float(b)), int(n_grid))


def rectangle(ax, bx, ay, by, n_grid) -> DomainSpec:
    return DomainSpec(DomainKind.RECTANGLE,
                      (float(ax), float(bx), float(ay), float(by)), int(n_grid))
