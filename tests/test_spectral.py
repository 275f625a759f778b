import math

import numpy as np
import pytest

from fhl import spectral
from fhl.errors import (DiagonalEvaluation, NoCriticalPoint, OutOfRange,
                        UnderResolved)
from fhl.grids import interval, rectangle
from fhl.spectral import SpectralField


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
