import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from fhl import constants, spectral
from fhl.errors import (DiagonalEvaluation, NoCriticalPoint, OutOfRange,
                        UnderResolved)
from fhl.grids import interval, rectangle
from fhl.spectral import SpectralField
from oracles import phi_at


def test_interval_eigenvalues():
    basis = spectral.build_basis(interval(0.0, 1.0, 64), 3)
    expected = np.array([1.0, 4.0, 9.0]) * math.pi ** 2
    assert np.max(np.abs(basis.lambdas - expected)) < 1e-10


def test_rectangle_first_eigenvalue():
    basis = spectral.build_basis(rectangle(0.0, 1.0, 0.0, 1.0, 32), 8)
    assert abs(basis.lambdas[0] - 2.0 * math.pi ** 2) < 1e-10
    assert tuple(basis.modes[0]) == (1, 1)


def test_under_resolved():
    with pytest.raises(UnderResolved):
        spectral.build_basis(interval(0.0, 1.0, 64), 33)


@pytest.mark.parametrize("K", [0, -1])
@pytest.mark.parametrize("dom", [interval(0.0, 1.0, 64), rectangle(0.0, 1.0, 0.0, 1.0, 32)],
                         ids=["interval", "rectangle"])
def test_basis_without_modes_is_out_of_range(dom, K):
    """K < 1 is rejected in both dimensions; before, a 1-D basis of no modes
    divided by zero in resolution_floor and a negative 2-D K dropped the
    last modes instead."""
    with pytest.raises(OutOfRange, match="at least one mode"):
        spectral.build_basis(dom, K)


def test_gram_orthonormal():
    basis = spectral.build_basis(interval(0.0, 1.0, 256), 64)
    assert spectral.gram_defect(basis) < 1e-8
    basis2 = spectral.build_basis(rectangle(0.0, 1.3, 0.0, 0.7, 64), 64)
    assert spectral.gram_defect(basis2) < 1e-8


def test_parseval():
    basis = spectral.build_basis(interval(0.0, 1.0, 512), 128)
    rng = np.random.default_rng(2)
    f = SpectralField(basis, rng.normal(size=128))
    grid_norm = spectral.synthesis(f).l2_norm()
    assert abs(grid_norm / f.l2_norm() - 1.0) < 1e-6


def test_apply_as_single_mode():
    basis = spectral.build_basis(interval(0.0, 1.0, 64), 8)
    coeffs = np.zeros(8)
    coeffs[0] = 1.0
    out = spectral.apply_As(SpectralField(basis, coeffs), 0.4)
    assert abs(out.coeffs[0] - math.pi ** 0.8) < 1e-12
    assert abs(out.coeffs[0] - 2.4987333) < 1e-6
    assert np.all(out.coeffs[1:] == 0.0)


def test_apply_as_composition():
    basis = spectral.build_basis(interval(0.0, 1.0, 64), 16)
    rng = np.random.default_rng(4)
    f = SpectralField(basis, rng.normal(size=16))
    a = spectral.apply_As(spectral.apply_As(f, 0.3), 0.45)
    b = spectral.apply_As(f, 0.75)
    assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12


def test_apply_as_zero():
    basis = spectral.build_basis(interval(0.0, 1.0, 64), 8)
    out = spectral.apply_As(SpectralField(basis, np.zeros(8)), 0.5)
    assert np.all(out.coeffs == 0.0)


def test_solve_apply_round_trip():
    basis = spectral.build_basis(interval(0.0, 1.0, 128), 32)
    rng = np.random.default_rng(9)
    f = SpectralField(basis, rng.normal(size=32))
    rt = spectral.solve_As(spectral.apply_As(f, 0.4), 0.4)
    assert np.max(np.abs(rt.coeffs - f.coeffs)) < 1e-12
    inv = spectral.solve_As(SpectralField(basis, np.eye(32)[0]), 0.4)
    assert abs(inv.coeffs[0] - math.pi ** -0.8) < 1e-12
    zero = spectral.solve_As(SpectralField(basis, np.zeros(32)), 0.4)
    assert np.all(zero.coeffs == 0.0)


def test_apply_as_s1_anchor():
    """s = 1 reproduces the classical second-derivative multiplier."""
    basis = spectral.build_basis(interval(0.0, 1.0, 512), 8)
    coeffs = np.zeros(8)
    coeffs[2] = 1.0   # phi_3, lambda = 9 pi^2
    out = spectral.apply_As(SpectralField(basis, coeffs), 1.0)
    grid = spectral.synthesis(out)
    x = grid.domain.axes()[0]
    exact = 9.0 * math.pi ** 2 * math.sqrt(2.0) * np.sin(3 * math.pi * x)
    assert np.max(np.abs(grid.values - exact)) < 1e-8


def test_green_symmetry():
    basis = spectral.build_basis(interval(0.0, 1.0, 2048), 1024)
    a = spectral.green(basis, 0.3, (0.25,), (0.75,))
    b = spectral.green(basis, 0.3, (0.75,), (0.25,))
    assert a == b


def test_green_diagonal_rejected():
    basis = spectral.build_basis(interval(0.0, 1.0, 256), 64)
    with pytest.raises(DiagonalEvaluation):
        spectral.green(basis, 0.3, (0.5,), (0.5,))


def test_green_positivity_sample_pairs():
    basis = spectral.build_basis(interval(0.0, 1.0, 4096), 2048)
    rng = np.random.default_rng(12)
    for _ in range(12):
        x, y = rng.uniform(0.05, 0.95, size=2)
        if abs(x - y) < 0.02:
            y = x + 0.05
        assert spectral.green(basis, 0.3, (x,), (y,)) > 0.0


def test_green_truncation_convergence():
    vals = []
    for k in (512, 1024, 2048, 4096):
        basis = spectral.build_basis(interval(0.0, 1.0, 2 * k), k)
        vals.append(spectral.green(basis, 0.3, (0.25,), (0.6,)))
    diffs = [abs(a - b) for a, b in zip(vals, vals[1:])]
    assert diffs[1] < diffs[0] and diffs[2] < diffs[1]


def test_green_long_series_oracle(interval_basis_20k):
    """Tail-completed K = 20000 value against the raw K = 200000 series."""
    val = spectral.green(interval_basis_20k, 0.3, (0.25,), (0.75,))
    k = np.arange(1, 200001, dtype=float)
    oracle = 2.0 * np.sum(np.sin(k * math.pi * 0.25) * np.sin(k * math.pi * 0.75)
                          / (k * math.pi) ** 0.6)
    assert abs(val / oracle - 1.0) < 1e-4


def test_robin_symmetric_minimum(interval_basis_20k):
    phis = {x: spectral.robin(interval_basis_20k, 0.3, (x,))
            for x in (0.3, 0.4, 0.5, 0.6, 0.7, 0.9)}
    assert phis[0.5] < phis[0.4] and phis[0.5] < phis[0.6]
    assert abs(phis[0.4] - phis[0.6]) < 1e-9
    assert phis[0.9] > phis[0.5]


def test_robin_offset_robust(interval_basis_20k):
    a = spectral.robin(interval_basis_20k, 0.3, (0.5,), delta0=0.04)
    b = spectral.robin(interval_basis_20k, 0.3, (0.5,), delta0=0.04 / math.sqrt(2.0))
    assert abs(a / b - 1.0) < 5e-3


def test_robin_boundary_rejected(interval_basis_20k):
    with pytest.raises(OutOfRange):
        spectral.robin(interval_basis_20k, 0.3, (0.0,))


def test_critical_points_symmetric_interval(interval_basis_20k):
    xs = np.linspace(0.3, 0.7, 21)
    pts = spectral.robin_critical_points(interval_basis_20k, 0.3, (xs,))
    best = pts[0][0]
    assert abs(best - 0.5) <= (xs[1] - xs[0]) + 1e-12


def test_critical_points_synthetic_parabola():
    xs = np.linspace(0.0, 1.0, 51)
    phi = (xs - 0.3) ** 2
    pts = spectral.critical_points_from_values((xs,), phi)
    h = xs[1] - xs[0]
    assert all(abs(p[0] - 0.3) <= h + 1e-12 for p in pts[:2])


def test_critical_points_monotone_rejected():
    xs = np.linspace(0.0, 1.0, 21)
    with pytest.raises(NoCriticalPoint):
        spectral.critical_points_from_values((xs,), 2.0 + xs)


def test_critical_points_symmetric_rectangle():
    xs = np.linspace(0.2, 0.8, 13)
    ys = np.linspace(0.2, 0.8, 13)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    phi = (gx - 0.5) ** 2 + 0.7 * (gy - 0.5) ** 2
    pts = spectral.critical_points_from_values((xs, ys), phi)
    h = xs[1] - xs[0]
    assert math.hypot(pts[0][0] - 0.5, pts[0][1] - 0.5) <= math.hypot(h, h) + 1e-12


def test_critical_points_mirror_ties_in_node_order():
    # a landscape mirror-symmetric in both axes: the four nodes next to the
    # centre have gradient magnitude 2; moving phi(5, 2) down by one ulp
    # makes (4, 2)'s magnitude the smallest of them by rounding, and the
    # order stays the node order; a real difference still sorts first
    xs, ys = np.arange(7.0), np.arange(5.0)
    phi = (np.array([9.0, 4.0, 1.0, 0.0, 1.0, 4.0, 9.0])[:, None]
           + np.array([4.0, 1.0, 0.0, 1.0, 4.0]))
    nudged = phi.copy()
    nudged[5, 2] = np.nextafter(nudged[5, 2], 0.0)
    assert abs(np.gradient(nudged, xs, axis=0)[4, 2]) < 2.0
    ring = [(2.0, 2.0), (3.0, 1.0), (3.0, 3.0), (4.0, 2.0)]
    for values in (phi, nudged):
        pts = spectral.critical_points_from_values((xs, ys), values)
        assert pts[:5] == [(3.0, 2.0)] + ring
    moved = phi.copy()
    moved[5, 2] -= 1e-6
    pts = spectral.critical_points_from_values((xs, ys), moved)
    assert pts[:5] == [(3.0, 2.0), (4.0, 2.0)] + ring[:3]


def test_rectangle_synthesis_exact_dirichlet_zeros():
    # sin(k pi) = 0 is written exactly, so the Riesz apply can skip the
    # strip passes of the x = b and y = b edges
    basis = spectral.build_basis(rectangle(0.0, 1.4, 0.0, 0.9, 48), 300)
    rng = np.random.default_rng(5)
    v = spectral.synthesis(SpectralField(basis, rng.normal(size=300))).values
    for edge in (v[0, :], v[-1, :], v[:, 0], v[:, -1]):
        assert np.all(edge == 0.0)
    assert np.max(np.abs(v)) > 1.0


@pytest.mark.parametrize("dom, point", [
    (interval(0.0, 1.0, 256), ()),
    (interval(0.0, 1.0, 256), (0.5, 0.5)),
    (rectangle(0.0, 1.4, 0.0, 0.9, 64), 0.5),
    (rectangle(0.0, 1.4, 0.0, 0.9, 64), (0.5,)),
    (rectangle(0.0, 1.4, 0.0, 0.9, 64), (0.5, 0.5, 0.5)),
], ids=["1d-short", "1d-long", "2d-scalar", "2d-short", "2d-long"])
def test_robin_point_dimension_mismatch(dom, point):
    basis = spectral.build_basis(dom, 32)
    with pytest.raises(OutOfRange, match="domain dimension"):
        spectral.robin_detail(basis, 0.3, point)
    with pytest.raises(OutOfRange, match="domain dimension"):
        spectral.green_detail(basis, 0.3, point, (0.25,) * dom.dim)


# --------------------------------------------------------------------------
# cached Green arrays and the factored rectangle sum against per-mode formulas
# --------------------------------------------------------------------------

RECT = rectangle(0.0, 1.4, 0.0, 0.9, 64)
LINE = interval(-0.3, 1.1, 256)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


def _inside(lo, hi):
    return st.floats(lo, hi, exclude_min=True, exclude_max=True)


@pytest.fixture(scope="module")
def robin_rect_basis():
    """The 16384-mode basis of the rectangle Robin landscape."""
    return spectral.build_basis(rectangle(0.0, 1.4, 0.0, 0.9, 512), 128 * 128)


def _fresh_green(basis, s, p, q):
    """The Green formulas with every mode array rebuilt per call and the
    sines evaluated per mode by oracles.phi_at."""
    if basis.dim == 1:
        a, b = basis.domain.bounds
        length = b - a
        k = basis.modes.astype(float)
        amp = (k * math.pi / length) ** (-2.0 * s)
        tm = math.pi * (p[0] - q[0]) / length
        tp = math.pi * ((p[0] - a) + (q[0] - a)) / length
        val = float(np.sum(amp * (np.cos(k * tm) - np.cos(k * tp)))) / length
        correction = (spectral._cos_tail(tm, basis.K, s, length)
                      - spectral._cos_tail(tp, basis.K, s, length)) / length
        return val + correction, abs(correction)
    lam = basis.lambdas
    prod = phi_at(basis, p) * phi_at(basis, q) / lam ** s
    w8 = np.exp(-8.0 * (lam / lam[-1]) ** 2)
    w16 = w8 * w8
    v8 = float(np.sum(w8 * prod))
    v16 = float(np.sum(w16 * prod))
    return v8, abs(v8 - v16)


def _fresh_robin(basis, s, p, deltas):
    """Richardson Robin value and spread on _fresh_green, on one, two or
    three levels, one per offset in deltas.  On a rectangle the per-mode
    terms of all offsets are stacked and each offset's row is summed alone,
    which reproduces _fresh_green's values bit for bit."""
    n = basis.dim
    gam = constants.gamma_ns(n, s)
    offsets = [tuple(x + sign * d if a == axis else x for a, x in enumerate(p))
               for d in deltas for axis in range(n) for sign in (+1.0, -1.0)]
    if n == 1:
        green = [_fresh_green(basis, s, p, q)[0] for q in offsets]
    else:
        lam = basis.lambdas
        w8 = np.exp(-8.0 * (lam / lam[-1]) ** 2)
        prod = phi_at(basis, p) * phi_at(basis, np.array(offsets).T[..., None]) / lam ** s
        green = [float(np.sum(row)) for row in w8 * prod]
    e_vals = [float(np.mean([gam * d ** (-(n - 2.0 * s)) - g
                             for g in green[2 * n * j:2 * n * (j + 1)]]))
              for j, d in enumerate(deltas)]
    if len(e_vals) == 1:
        return e_vals[0], float("nan")
    r1 = (4.0 * e_vals[1] - e_vals[0]) / 3.0
    if len(e_vals) == 2:
        return r1, abs(e_vals[1] - e_vals[0])
    r2 = (4.0 * e_vals[2] - e_vals[1]) / 3.0
    return (16.0 * r2 - r1) / 15.0, abs(r2 - r1)


def _assert_matches_fresh(basis, s, p, q, got):
    """got == _fresh_green on an interval.  The rectangle's factored sum
    adds the same summands in another order, so its value and tail
    estimate may differ by rounding: at most 1e-14 of
    sum_k |w8_k phi_k(p) phi_k(q) lambda_k^{-s}|."""
    want = _fresh_green(basis, s, p, q)
    if basis.dim == 1:
        assert got == want
        return
    lam = basis.lambdas
    w8 = np.exp(-8.0 * (lam / lam[-1]) ** 2)
    scale = float(np.sum(np.abs(w8 * phi_at(basis, p) * phi_at(basis, q) / lam ** s)))
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-14 * scale, (got, want, scale)


@pytest.mark.parametrize("p, q", [((0.3, 0.2), (0.9, 0.7)),
                                  ((0.7, 0.45), (0.72, 0.44)),
                                  ((1.3, 0.1), (0.05, 0.85))])
def test_green_rectangle_matches_fresh(robin_rect_basis, p, q):
    for s in (0.45, 0.3):
        _assert_matches_fresh(robin_rect_basis, s, p, q,
                              spectral.green_detail(robin_rect_basis, s, p, q))


@PROPERTY
@given(aspect=st.floats(0.25, 4.0), s=_inside(0.05, 0.95),
       k=st.integers(4, 96), x0=st.floats(-1.0, 1.0), y0=st.floats(-1.0, 1.0),
       u=st.tuples(*[st.floats(1e-3, 1.0 - 1e-3)] * 4))
def test_green_rectangle_random_matches_fresh(aspect, s, k, x0, y0, u):
    # K far below (N/2)^2 = 256 leaves zero entries in the coefficient box;
    # the points keep 1e-3 of a side from the edges, since at subnormal
    # values the relative rounding bound no longer holds
    lx, ly = math.sqrt(aspect), 1.0 / math.sqrt(aspect)
    basis = spectral.build_basis(rectangle(x0, x0 + lx, y0, y0 + ly, 32), k)
    p = (x0 + u[0] * lx, y0 + u[1] * ly)
    q = (x0 + u[2] * lx, y0 + u[3] * ly)
    assume(p != q)
    _assert_matches_fresh(basis, s, p, q, spectral.green_detail(basis, s, p, q))


def test_green_interval_matches_fresh(interval_basis_20k):
    for s in (0.3, 0.18):
        for x, y in [(0.25, 0.3), (0.25, 0.75), (0.9, 0.1)]:
            assert spectral.green_detail(interval_basis_20k, s, (x,), (y,)) == \
                _fresh_green(interval_basis_20k, s, (x,), (y,))


@pytest.mark.parametrize("point", [(0.7, 0.45), (0.3, 0.27), (1.1, 0.63)])
def test_robin_rectangle_matches_fresh(robin_rect_basis, point):
    val, spread, deltas = spectral.robin_detail(robin_rect_basis, 0.45, point)
    assert len(deltas) == 3
    want_val, want_spread = _fresh_robin(robin_rect_basis, 0.45, point, deltas)
    assert abs(val - want_val) <= 1e-13 * abs(want_val)
    assert abs(spread - want_spread) <= 1e-13 * abs(want_val)


@pytest.mark.parametrize("x", [0.3, 0.5, 0.9, 5e-4, 3e-4])
def test_robin_interval_matches_fresh(interval_basis_20k, x):
    # near the end d0 is clipped to 0.9 x, and the levels below the
    # resolution floor 10 / (pi K) = 1.6e-4 are dropped
    levels = {5e-4: 2, 3e-4: 1}.get(x, 3)
    val, spread, deltas = spectral.robin_detail(interval_basis_20k, 0.3, (x,))
    assert len(deltas) == levels
    want = _fresh_robin(interval_basis_20k, 0.3, (x,), deltas)
    np.testing.assert_array_equal((val, spread), want)


ROBIN_X = np.linspace(0.30, 1.10, 11)
ROBIN_Y = np.linspace(0.27, 0.63, 9)


@pytest.mark.parametrize("axes, levels", [
    ((ROBIN_X, ROBIN_Y), {3}),
    ((ROBIN_X + 0.013, ROBIN_Y - 0.009), {3}),
    # d0 clipped at the edge nodes: 3 levels at 0.25, 2 at 0.2 and 1 at 0.1
    ((np.array([0.1, 0.2, 0.25, 0.45, 0.7, 0.95, 1.15, 1.2, 1.3]),
      np.array([0.1, 0.2, 0.3, 0.45, 0.6, 0.7, 0.8])), {1, 2, 3}),
], ids=["rect_robin", "jittered", "clipped"])
def test_robin_landscape_matches_per_point(robin_rect_basis, axes, levels):
    points = list(itertools.product(*axes))
    got = spectral._robin_landscape(robin_rect_basis, 0.45, points, None)
    assert {len(g[2]) for g in got} == levels
    for p, (val, spread, deltas) in zip(points, got):
        want_val, want_spread = _fresh_robin(robin_rect_basis, 0.45, p, deltas)
        assert abs(val - want_val) <= 1e-13 * abs(want_val), (p, val, want_val)
        if len(deltas) == 1:
            assert math.isnan(spread) and math.isnan(want_spread)
        else:
            assert abs(spread - want_spread) <= 1e-13 * abs(want_val)
    shape = [len(a) for a in axes]
    assert spectral.robin_critical_points(robin_rect_basis, 0.45, axes) == \
        spectral.critical_points_from_values(axes, np.reshape([g[0] for g in got], shape))


def test_robin_landscape_typed_errors(robin_rect_basis):
    # the node (0.04, 0.27) is too close to the boundary for its offset
    near_edge = np.array([0.04, 0.5, 0.7])
    with pytest.raises(OutOfRange, match="resolution floor"):
        spectral.robin(robin_rect_basis, 0.45, (0.04, ROBIN_Y[0]))
    with pytest.raises(OutOfRange, match="resolution floor"):
        spectral.robin_critical_points(robin_rect_basis, 0.45, (near_edge, ROBIN_Y))
    with pytest.raises(OutOfRange, match="not interior"):
        spectral.robin_critical_points(robin_rect_basis, 0.45,
                                       (np.array([0.0, 0.5, 0.7]), ROBIN_Y))
    for axes in [(ROBIN_X,), (ROBIN_X, ROBIN_Y, ROBIN_Y)]:
        with pytest.raises(OutOfRange, match="domain dimension"):
            spectral.robin_critical_points(robin_rect_basis, 0.45, axes)


@pytest.mark.parametrize("dom, p, q", [(RECT, (0.3, 0.2), (0.9, 0.7)),
                                       (LINE, (0.1,), (0.6,))],
                         ids=["rectangle", "interval"])
def test_green_cache_two_s_one_basis(dom, p, q):
    basis = spectral.build_basis(dom, 512 if dom.dim == 2 else 128)
    for s in (0.45, 0.2, 0.45):
        _assert_matches_fresh(basis, s, p, q, spectral.green_detail(basis, s, p, q))
    assert sorted(basis._green_cache) == [0.2, 0.45]
    assert not basis._green_arrays(0.2).flags.writeable


@pytest.mark.parametrize("doms, ks, p, q", [
    ((RECT, RECT, rectangle(0.0, 0.9, 0.0, 1.4, 64)), (300, 200, 300),
     (0.3, 0.2), (0.8, 0.7)),
    ((LINE, LINE, interval(0.0, 1.0, 256)), (60, 40, 60), (0.1,), (0.6,)),
], ids=["rectangle", "interval"])
def test_green_cache_one_s_two_bases(doms, ks, p, q):
    bases = [spectral.build_basis(dom, k) for dom, k in zip(doms, ks)]
    values = [spectral.green_detail(b, 0.3, p, q) for b in bases]
    for basis, value in zip(bases, values):
        _assert_matches_fresh(basis, 0.3, p, q, value)
    assert len(set(values)) == len(values)


@pytest.mark.parametrize("dom", [RECT, LINE], ids=["rectangle", "interval"])
def test_green_robin_typed_errors(dom):
    basis = spectral.build_basis(dom, 512 if dom.dim == 2 else 128)
    (lo, hi), *_ = dom.ranges()
    inner = tuple(0.5 * (a + b) for a, b in dom.ranges())
    other = tuple(0.4 * a + 0.6 * b for a, b in dom.ranges())
    spectral.green(basis, 0.3, inner, other)          # fills the cache
    with pytest.raises(DiagonalEvaluation):
        spectral.green(basis, 0.3, inner, inner)
    on_edge = (hi,) + inner[1:]
    with pytest.raises(OutOfRange, match="not interior"):
        spectral.green(basis, 0.3, inner, on_edge)
    with pytest.raises(OutOfRange, match="not interior"):
        spectral.robin(basis, 0.3, on_edge)
    near_edge = (lo + 1e-4,) + inner[1:]
    with pytest.raises(OutOfRange, match="resolution floor"):
        spectral.robin(basis, 0.3, near_edge)
    wrong = inner + (0.5,)
    with pytest.raises(OutOfRange, match="domain dimension"):
        spectral.green(basis, 0.3, inner, wrong)
    with pytest.raises(OutOfRange, match="domain dimension"):
        spectral.robin(basis, 0.3, wrong)


@pytest.mark.parametrize("dom", [RECT, LINE], ids=["rectangle", "interval"])
@pytest.mark.parametrize("delta0", [math.nan, math.inf])
def test_robin_rejects_nonfinite_delta0(dom, delta0):
    basis = spectral.build_basis(dom, 512 if dom.dim == 2 else 128)
    inner = tuple(0.5 * (a + b) for a, b in dom.ranges())
    axes = [np.linspace(0.4 * a + 0.6 * b, 0.6 * a + 0.4 * b, 3) for a, b in dom.ranges()]
    with pytest.raises(OutOfRange, match="delta0"):
        spectral.robin(basis, 0.3, inner, delta0=delta0)
    with pytest.raises(OutOfRange, match="delta0"):
        spectral.robin_critical_points(basis, 0.3, axes, delta0=delta0)


def test_critical_points_single_node_axis_rejected(robin_rect_basis):
    with pytest.raises(OutOfRange, match="2 or more nodes"):
        spectral.robin_critical_points(robin_rect_basis, 0.45,
                                       (np.array([0.7]), ROBIN_Y))
    with pytest.raises(OutOfRange, match="2 or more nodes"):
        spectral.critical_points_from_values((np.array([0.7]),), np.array([1.0]))


@pytest.mark.parametrize("xs", [[0.0, 0.25, 0.5, 0.5, 1.0],
                                # distinct, but out of order: the gradient
                                # would flag 0.0 and 0.9 as critical
                                [0.0, 0.6, 0.3, 0.9, 1.0]],
                         ids=["repeated", "unsorted"])
def test_critical_points_unordered_axis_rejected(xs):
    xs = np.array(xs)
    with pytest.raises(OutOfRange, match="strictly monotone"):
        spectral.critical_points_from_values((xs,), (xs - 0.5) ** 2)


def test_critical_points_decreasing_axis():
    xs = np.linspace(1.0, 0.0, 5)
    assert spectral.critical_points_from_values((xs,), (xs - 0.5) ** 2)[0] == (0.5,)


def test_critical_points_value_shape_rejected():
    xs, ys = np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 4)
    phi = (xs[:, None] - 0.5) ** 2 + (ys - 0.5) ** 2
    with pytest.raises(OutOfRange, match="do not match the grid axes"):
        spectral.critical_points_from_values((xs, ys), phi.T)
    with pytest.raises(OutOfRange, match="do not match the grid axes"):
        spectral.critical_points_from_values((xs,), phi)
