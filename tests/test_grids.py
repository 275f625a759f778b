"""Domain geometry and sampled fields on an interval and a non-square
rectangle: the per-axis quantities every other module reads."""

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator

from fhl.errors import GridMismatch, OutOfRange
from fhl.grids import GridField, interpolate, interval, rectangle

# node spacing 0.125 on [0.5, 2.5]; 0.1 x (1.2/28) on [-1, 1.8] x [0, 1.2]
INTERVAL = interval(0.5, 2.5, 17)
RECTANGLE = rectangle(-1.0, 1.8, 0.0, 1.2, 29)


def test_sides_and_spacings():
    assert INTERVAL.dim == 1
    assert INTERVAL.sides == (2.0,)
    assert INTERVAL.spacings() == (0.125,)
    assert RECTANGLE.dim == 2
    assert RECTANGLE.sides == pytest.approx((2.8, 1.2), abs=1e-15)
    assert RECTANGLE.spacings() == pytest.approx((0.1, 1.2 / 28), abs=1e-15)


def test_axes():
    (x,) = INTERVAL.axes()
    assert np.array_equal(x, 0.5 + 0.125 * np.arange(17))
    x, y = RECTANGLE.axes()
    assert x.shape == y.shape == (29,)
    assert (x[0], x[-1], y[0], y[-1]) == (-1.0, 1.8, 0.0, 1.2)
    assert np.allclose(np.diff(x), 0.1, rtol=0, atol=1e-14)
    assert np.allclose(np.diff(y), 1.2 / 28, rtol=0, atol=1e-14)


@pytest.mark.parametrize("dom, area", [(INTERVAL, 2.0), (RECTANGLE, 2.8 * 1.2)])
def test_node_weights_sum_to_area(dom, area):
    w = dom.node_weights()
    assert w.shape == (dom.n_grid,) * dom.dim
    assert abs(float(np.sum(w)) - area) < 1e-12
    # trapezoid: halves on each boundary face, quarters at the corners
    h = np.prod(dom.spacings())
    assert w.flat[0] == pytest.approx(h / 2 ** dom.dim, rel=1e-14)
    assert w[(dom.n_grid // 2,) * dom.dim] == pytest.approx(h, rel=1e-14)


@pytest.mark.parametrize("dom, margin, count", [
    (INTERVAL, 0.0, 17),
    (INTERVAL, 0.3, 11),              # nodes 3 .. 13
    (RECTANGLE, 0.0, 29 * 29),
    (RECTANGLE, 0.25, 23 * 17),       # x nodes 3 .. 25, y nodes 6 .. 22
])
def test_interior_mask_counts(dom, margin, count):
    mask = dom.interior_mask(margin)
    assert mask.shape == (dom.n_grid,) * dom.dim
    assert int(np.count_nonzero(mask)) == count


def test_interior_mask_margin_past_inradius_is_empty():
    assert not np.any(INTERVAL.interior_mask(1.01))
    assert not np.any(RECTANGLE.interior_mask(0.61))


def test_argmax_point():
    vals = np.zeros(17)
    vals[5] = 1.0
    assert GridField(INTERVAL, vals).argmax_point() == (0.5 + 5 * 0.125,)
    vals = np.zeros((29, 29))
    vals[7, 20] = 1.0
    x, y = RECTANGLE.axes()
    assert GridField(RECTANGLE, vals).argmax_point() == (float(x[7]), float(y[20]))


@pytest.mark.parametrize("dom, shape", [
    (INTERVAL, (16,)),
    (INTERVAL, (17, 17)),
    (RECTANGLE, (29,)),
    (RECTANGLE, (29, 28)),
])
def test_shape_mismatch(dom, shape):
    with pytest.raises(GridMismatch):
        GridField(dom, np.zeros(shape))


def test_inner_across_grids_rejected():
    f = GridField(INTERVAL, np.ones(17))
    g = GridField(interval(0.5, 2.5, 18), np.ones(18))
    with pytest.raises(GridMismatch):
        f.inner(g)


@pytest.mark.parametrize("dom", [INTERVAL, RECTANGLE], ids=["interval", "rectangle"])
def test_interpolate_matches_regular_grid_interpolator(dom):
    """The multilinear interpolator against scipy's RegularGridInterpolator
    (the code it replaced) on random fields, at random points, at every
    node, and on the edges and corners of the domain."""
    rng = np.random.default_rng(7)
    axes = dom.axes()
    lo, hi = np.array(dom.ranges()).T
    mesh = np.stack(dom.mesh(), axis=-1).reshape(-1, dom.dim)
    edges = np.array([[ax[i] if k == j else rng.uniform(a, b)
                       for k, (ax, a, b) in enumerate(zip(axes, lo, hi))]
                      for j in range(dom.dim) for i in (0, -1) for _ in range(20)])
    corners = np.stack(np.meshgrid(*[(a, b) for a, b in zip(lo, hi)],
                                   indexing="ij"), axis=-1).reshape(-1, dom.dim)
    points = np.concatenate([lo + (hi - lo) * rng.random((500, dom.dim)),
                             mesh, edges, corners])
    for _ in range(3):
        values = rng.normal(size=dom.shape)
        ref = RegularGridInterpolator(axes, values)(points)
        got = interpolate(GridField(dom, values), points)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(values))


@pytest.mark.parametrize("dom, bad", [
    (INTERVAL, (2.6,)), (INTERVAL, (np.nan,)),
    (RECTANGLE, (0.3, -0.01)), (RECTANGLE, (1.9, 0.5)),
])
def test_interpolate_outside_domain_names_point(dom, bad):
    field = GridField(dom, np.ones(dom.shape))
    points = np.array([[lo for lo, _ in dom.ranges()], bad])
    with pytest.raises(OutOfRange, match="outside the domain") as info:
        interpolate(field, points)
    assert str(tuple(float(c) for c in bad)) in str(info.value)
