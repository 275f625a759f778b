import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from fhl import riesz, solver, spectral
from fhl.errors import (DivergentTail, GridMismatch, KernelNotIntegrable,
                        OutOfRange, QuadratureFailure)
from fhl.grids import GridField, interval, rectangle
from fhl.model import Regime, make_params
from fhl.riesz import _singular_quadrant


def mass_oracle_1d(x, a, b, mu):
    return ((x - a) ** (1 - mu) + (b - x) ** (1 - mu)) / (1 - mu)


def test_weight_row_mass_1d():
    dom = interval(0.0, 1.0, 257)
    w = riesz.build_weights(dom, 0.4)
    x = dom.axes()[0]
    mass = riesz.convolve(w, GridField(dom, np.ones(257))).values
    exact = mass_oracle_1d(x, 0.0, 1.0, 0.4)
    assert np.max(np.abs(mass - exact)) < 1e-10


def test_mass_example_at_half():
    dom = interval(0.0, 1.0, 513)
    w = riesz.build_weights(dom, 0.4)
    val = riesz.convolve(w, GridField(dom, np.ones(513))).values[256]
    assert abs(val - 2.0 * 0.5 ** 0.6 / 0.6) < 1e-12
    assert abs(val - 2.19918) < 1e-5


def test_kernel_not_integrable():
    dom = interval(0.0, 1.0, 64)
    with pytest.raises(KernelNotIntegrable):
        riesz.build_weights(dom, 1.2)


def test_zero_field_maps_to_zero():
    dom = interval(0.0, 1.0, 64)
    w = riesz.build_weights(dom, 0.4)
    out = riesz.convolve(w, GridField(dom, np.zeros(64)))
    assert out.sup_norm() == 0.0


def test_indicator_value_at_zero():
    # f = indicator of (0.25, 0.75): value at 0 is INT_{1/4}^{3/4} t^{-0.4} dt
    n = 4001
    dom = interval(0.0, 1.0, n)
    w = riesz.build_weights(dom, 0.4)
    x = dom.axes()[0]
    f = ((x >= 0.25 - 1e-12) & (x <= 0.75 + 1e-12)).astype(float)
    val = riesz.convolve(w, GridField(dom, f)).values[0]
    exact = (0.75 ** 0.6 - 0.25 ** 0.6) / 0.6
    # the hat interpolant ramps across one cell at each jump: O(h) error
    assert abs(val - exact) < 5e-4
    assert abs(exact - 0.6769851) < 1e-7


def test_symmetry_even_field():
    dom = interval(-1.0, 1.0, 257)
    w = riesz.build_weights(dom, 0.4)
    x = dom.axes()[0]
    f = np.exp(-4.0 * x ** 2)
    out = riesz.convolve(w, GridField(dom, f)).values
    assert np.max(np.abs(out - out[::-1])) < 1e-12


def test_additivity():
    dom = interval(0.0, 1.0, 129)
    w = riesz.build_weights(dom, 0.4)
    rng = np.random.default_rng(3)
    f = rng.random(129)
    g = rng.random(129)
    lhs = riesz.convolve(w, GridField(dom, f + g)).values
    rhs = (riesz.convolve(w, GridField(dom, f)).values
           + riesz.convolve(w, GridField(dom, g)).values)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_positivity():
    dom = interval(0.0, 1.0, 129)
    w = riesz.build_weights(dom, 0.4)
    rng = np.random.default_rng(5)
    f = rng.random(129)
    out = riesz.convolve(w, GridField(dom, f)).values
    assert np.all(out >= 0.0)


@pytest.mark.parametrize("ends", [(0.0, 0.0), (0.7, 0.0), (0.0, -1.3)],
                         ids=["dirichlet", "left", "right"])
def test_convolve_1d_end_columns_identical(ends):
    """convolve equals always adding the half-hat end columns, whether it
    skips them (zero ends) or adds them."""
    dom = interval(-0.2, 1.1, 301)
    w = riesz.build_weights(dom, 0.4)
    f = np.random.default_rng(6).normal(size=(2, 301))
    f[:, [0, -1]] = ends
    always = riesz._fft_apply(w.spectrum, f) + f[..., :1] * w.edge_x + f[..., -1:] * w.edge_y
    for row, expect in zip(f, always):
        assert np.array_equal(riesz.convolve(w, GridField(dom, row)).values, expect)


def test_grid_mismatch():
    w = riesz.build_weights(interval(0.0, 1.0, 64), 0.4)
    other = GridField(interval(0.0, 2.0, 64), np.ones(64))
    with pytest.raises(GridMismatch):
        riesz.convolve(w, other)


def test_refinement_convergence_order():
    """Smooth bump: empirical order >= 1.8 over three refinements."""
    def run(n):
        dom = interval(0.0, 1.0, n)
        w = riesz.build_weights(dom, 0.4)
        x = dom.axes()[0]
        f = np.sin(math.pi * x) ** 2
        return riesz.convolve(w, GridField(dom, f)).values[n // 2]

    v = [run(n) for n in (129, 257, 513, 1025, 2049)]
    diffs = [abs(a - b) for a, b in zip(v, v[1:])]
    orders = [math.log2(diffs[i] / diffs[i + 1]) for i in range(3)]
    assert min(orders) >= 1.8


def test_2d_mass_exact_against_polar_oracle():
    """The field that is 1 on the interior nodes integrates the kernel over
    the inner rectangle, each side shrunk by half a cell: a signed sum of
    four polar quadrants seen from the node, inside it or not."""
    dom = rectangle(0.0, 1.4, 0.0, 0.9, 48)
    mu = 1.1
    w = riesz.build_weights(dom, mu)
    f = np.zeros((48, 48))
    f[1:-1, 1:-1] = 1.0
    conv = riesz.convolve(w, GridField(dom, f)).values
    xs, ys = dom.axes()
    hx, hy = dom.spacings()
    ax, bx, ay, by = dom.bounds
    ax, bx, ay, by = ax + hx / 2, bx - hx / 2, ay + hy / 2, by - hy / 2

    def corner(a, b):
        # the integral over the rectangle between the node and (a, b),
        # signed by the side of the node (a, b) lies on
        return np.sign(a) * np.sign(b) * _singular_quadrant(abs(a), abs(b), mu)

    def oracle(tx, ty):
        return (corner(bx - tx, by - ty) - corner(ax - tx, by - ty)
                - corner(bx - tx, ay - ty) + corner(ax - tx, ay - ty))

    for (i, j) in ((24, 24), (0, 0), (24, 0), (0, 24), (13, 7), (47, 13)):
        assert abs(conv[i, j] / oracle(xs[i], ys[j]) - 1.0) < 1e-6


@pytest.mark.parametrize("node", [(0, 7), (15, 7), (7, 0), (7, 15), (0, 0)],
                         ids=["x-low", "x-high", "y-low", "y-high", "corner"])
def test_2d_apply_rejects_nonzero_boundary(node):
    """A 2-D field nonzero on any edge, or on a corner node alone, is not a
    Dirichlet field: convolve and the energy quotient raise OutOfRange
    instead of applying the whole-cell table to it."""
    dom = rectangle(0.0, 1.4, 0.0, 0.9, 16)
    params = make_params(2, 0.45, 1.2, 0.1, Regime.BREZIS_NIRENBERG)
    w = riesz.build_weights(dom, params.mu)
    f = np.zeros((16, 16))
    f[4:12, 4:12] = 1.0
    riesz.convolve(w, GridField(dom, f))
    f[node] = 0.5
    with pytest.raises(OutOfRange, match="Dirichlet"):
        riesz.convolve(w, GridField(dom, f))
    basis = spectral.build_basis(dom, 16)
    with pytest.raises(OutOfRange, match="Dirichlet"):
        solver.energy_quotient(GridField(dom, f), params, basis, w)


def test_2d_cap():
    with pytest.raises(OutOfRange, match="reduce the grid"):
        riesz.build_weights(rectangle(0, 1, 0, 1, 1024), 1.1)


def test_2d_apply_leaves_nothing_live():
    """Even and non-even applies at N = 512 keep no transform arrays once
    their outputs are dropped: each apply allocates its own."""
    n = 512
    offs = np.arange(-(n - 1), n) ** 2.0
    # an exactly even table, so no quadrature is needed to build weights
    w = riesz.RieszWeights(mu=1.0, domain=rectangle(0.0, 1.0, 0.0, 1.0, n),
                           offsets=1.0 / (1.0 + offs[:, None] + offs[None, :]))
    even = np.ones((n, n))
    uneven = even.copy()
    uneven[1, 2] = 2.0
    # derived at the first even and the first non-even field: done here,
    # outside the traced bytes
    assert w.even_spectrum is not None and w.spectrum is not None
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(2):
            for kind, vals in (("even", even), ("uneven", uneven)):
                riesz._table_apply(w, vals)
                assert tracemalloc.get_traced_memory()[0] - base < 1 << 16, kind
    finally:
        tracemalloc.stop()


def test_2d_apply_reentrant():
    """Four threads applying one set of weights to four fields, two exactly
    even and two not, get the serial results bit for bit."""
    dom = rectangle(0.0, 1.4, 0.0, 0.9, 96)
    w = riesz.build_weights(dom, 1.1)
    i = np.arange(96)
    a = np.minimum(i, 95 - i) / 48.0   # exactly even, 0 on the boundary
    rng = np.random.default_rng(7)
    noise = np.zeros((2, 96, 96))
    noise[:, 1:-1, 1:-1] = rng.random((2, 94, 94))
    fields = [np.outer(a, a), np.outer(a ** 2, a) + np.outer(a, a ** 3),
              *noise]
    serial = [riesz._convolve(w, f) for f in fields]

    def worker(t):
        return [np.array_equal(riesz._convolve(w, fields[k % 4]), serial[k % 4])
                for k in range(t, t + 200)]

    interval_s = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            futures = [pool.submit(worker, t) for t in range(4)]
            same = [ok for fut in futures for ok in fut.result(timeout=120)]
    finally:
        sys.setswitchinterval(interval_s)
    assert len(same) == 800 and all(same), same.count(False)


def _wrapped_apply(offsets, f):
    """The full 2-D apply with the table wrapped about index 0 and the real
    part of its spectrum, outputs 0 .. N-1: the layout the one flipped-table
    `_spectrum` replaced, kept as its oracle."""
    n = f.shape[0]
    size = riesz._fft_len(n)
    pad = size - (2 * n - 1)
    wrapped = np.roll(np.pad(offsets, ((0, pad), (0, pad))), (1 - n, 1 - n), (0, 1))
    spec = np.fft.rfft2(f, (size, size)) * np.fft.rfft2(wrapped).real
    return np.fft.irfft2(spec, (size, size))[:n, :n]


def test_2d_spectrum_derived_at_first_uneven_field(monkeypatch):
    """An even-grid 2-D solve takes the half-grid apply only, so its weights
    never derive the full spectrum; the first non-even field derives it
    once, and the full apply agrees with the wrapped-table oracle."""
    dom = rectangle(0.0, 1.0, 0.0, 1.0, 48)
    basis = spectral.build_basis(dom, 256)
    weights = riesz.build_weights(dom, 1.2)
    lam1s = float(basis.lambdas[0] ** 0.45)
    p = make_params(2, 0.45, 1.2, 0.2 * lam1s, Regime.BREZIS_NIRENBERG)
    rec = solver.solve_bn(p, dom, basis, weights,
                          solver.SolveOptions(theta=1.0, max_iter=2000))
    assert rec.converged
    assert "spectrum" not in vars(weights)
    derived = []

    def counted(table, _spectrum=riesz._spectrum):
        derived.append(table.shape)
        return _spectrum(table)

    monkeypatch.setattr(riesz, "_spectrum", counted)
    f = rec.grid.values.copy()
    f[5, 9] *= 1.5
    for _ in range(2):
        out = riesz.convolve(weights, GridField(dom, f)).values
    assert derived == [(95, 95)]
    scale = np.max(_wrapped_apply(np.abs(weights.offsets), np.abs(f)))
    assert np.max(np.abs(out - _wrapped_apply(weights.offsets, f))) <= 1e-13 * scale


def test_weight_row_mass_1d_large_grid():
    # the Toeplitz weights build in O(N), so 1-D grids have no size cap
    n = 2 ** 15 + 1
    dom = interval(0.0, 1.0, n)
    w = riesz.build_weights(dom, 0.4)
    mass = riesz.convolve(w, GridField(dom, np.ones(n))).values
    exact = mass_oracle_1d(dom.axes()[0], 0.0, 1.0, 0.4)
    assert np.max(np.abs(mass - exact)) < 1e-12


def test_riesz_at_center_bubble_cube():
    p = make_params(2, 0.5, 1.0, 0.0, Regime.FREE_SPACE)
    alpha = (2.0 * math.pi) ** -0.25

    def f(r):
        return (alpha * (1.0 / (1.0 + r * r)) ** 0.5) ** 3

    val = riesz.riesz_at_center(f, p)
    assert abs(val - 2.0 * math.pi * alpha ** 3) < 1e-8
    assert abs(val - 1.58324) < 1e-5


def test_riesz_at_center_zero():
    p = make_params(1, 0.3, 0.4, 0.0, Regime.FREE_SPACE)
    assert riesz.riesz_at_center(lambda r: 0.0, p) == 0.0


def test_riesz_at_center_vs_midpoint_oracle():
    p = make_params(1, 0.3, 0.4, 0.0, Regime.FREE_SPACE)

    def f(r):
        return (1.0 + r * r) ** -2

    val = riesz.riesz_at_center(f, p)
    t = (np.arange(1_000_000) + 0.5) / 1_000_000
    # head: map w = r^{0.6} to remove the r^{-0.4} kernel singularity
    rw = t ** (1.0 / 0.6)
    head = (2.0 / 0.6) * np.sum((1 + rw ** 2) ** -2.0) / 1_000_000
    rr = 1.0 / t
    tail = 2.0 * np.sum(rr ** -0.4 * (1 + rr ** 2) ** -2.0 / t ** 2) / 1_000_000
    assert abs(val / (head + tail) - 1.0) < 1e-7


def test_riesz_at_center_divergent_tail():
    p = make_params(1, 0.3, 0.4, 0.0, Regime.FREE_SPACE)
    with pytest.raises(DivergentTail):
        riesz.riesz_at_center(lambda r: (1.0 + r * r) ** -0.05, p)


@pytest.mark.parametrize("rho", [0.0, 1.0])
def test_riesz_radial_at_origin_checks_tail(rho):
    """On and off the center, the decay guard of half_line_integral stops
    the divergent (1 + r)^{-(n - mu)}."""
    for n, mu in ((1, 0.4), (2, 1.0), (3, 2.0)):
        p = make_params(n, 0.3, mu, 0.0, Regime.FREE_SPACE)
        with pytest.raises(DivergentTail):
            riesz.riesz_radial(lambda r: (1.0 + r) ** -(n - mu), rho, p)


def test_riesz_radial_non_integrable_is_quadrature_failure():
    """r^{-1.2} is not integrable at 0; QAGS flags it with a small error
    estimate and a negative value, and the flag raises."""
    p = make_params(1, 0.3, 0.4, 0.0, Regime.FREE_SPACE)
    with pytest.raises(QuadratureFailure, match="divergent"):
        riesz.riesz_radial(lambda r: r ** -1.2 * (1.0 + r * r) ** -2, 1.0, p)


@pytest.mark.parametrize("rho", [1e-6, 1e-8, 1e-10, 1e-12])
def test_riesz_radial_n3_small_rho_matches_center(rho):
    """Off-centre n = 3 and n = 1 values tend to the centre value, which
    they miss by O(rho^2): the n = 3 kernel difference (rho + r)^q -
    |rho - r|^q is formed without cancelling two close powers, and decade
    breaks above rho carry the log-singular kernel of mu = 2 and the
    kernel peak of n = 1 at r = rho."""

    def f(r):
        return (1.0 + r * r) ** -3

    for n, s, mus in ((3, 0.6, (2.0, 1.999, 1.8)), (1, 0.3, (0.1, 0.4, 0.6))):
        for mu in mus:
            p = make_params(n, s, mu, 0.0, Regime.FREE_SPACE)
            center = riesz.riesz_radial(f, 0.0, p)
            assert abs(riesz.riesz_radial(f, rho, p) / center - 1.0) < 1e-10, (n, mu)


@pytest.mark.parametrize("breaks", [(0.0, 1.0), (0.0, 0.3, 2.0, 7.0)])
def test_half_line_integral_closed_forms(breaks):
    """INT_0^inf (1+r^2)^{-1} = pi/2 and INT_0^inf r^{-1/2} (1+r)^{-1} = pi,
    the second with an endpoint singularity; any breaks give the value."""
    assert abs(riesz.half_line_integral(lambda r: 1.0 / (1.0 + r * r), breaks)
               / (0.5 * math.pi) - 1.0) < 1e-12
    assert abs(riesz.half_line_integral(lambda r: r ** -0.5 / (1.0 + r), breaks)
               / math.pi - 1.0) < 1e-10
