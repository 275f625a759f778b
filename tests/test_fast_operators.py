"""The O(N log N) 1-D operators against the dense builders they replaced.

`riesz._build_1d`, `riesz.moment_weights_1d` and `EigenBasis.sine_tables`
(on an interval, the dense K x N mode matrix) stay as oracles: property
tests over random N, mu and fields, plus one check at the sweep's grid,
N = 4096, with the sweep's kernel exponent.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fhl import riesz, spectral
from fhl.grids import GridField, interval
from fhl.spectral import SpectralField

SIZES = st.integers(16, 600)          # DomainSpec needs N >= 16
MUS = st.floats(0.05, 0.95)
SEEDS = st.integers(0, 2 ** 32 - 1)
LENGTHS = st.floats(0.25, 4.0)
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None)


def _field(seed, n):
    return np.random.default_rng(seed).normal(size=n)


def _defect(fast, dense_matrix, f):
    """max |fast - A f| against the cancellation-free scale max |A| |f|."""
    return (np.max(np.abs(fast - dense_matrix @ f))
            / np.max(np.abs(dense_matrix) @ np.abs(f)))


@PROPERTY
@given(n=SIZES, mu=MUS, length=LENGTHS, seed=SEEDS)
def test_riesz_apply_matches_dense(n, mu, length, seed):
    dom = interval(-0.5, length - 0.5, n)
    f = _field(seed, n)
    fast = riesz.convolve(riesz.build_weights(dom, mu), GridField(dom, f)).values
    assert _defect(fast, riesz._build_1d(dom.axes()[0], mu), f) < 1e-10


@PROPERTY
@given(n=SIZES, mu=MUS, length=LENGTHS, seed=SEEDS)
def test_moment_apply_matches_dense(n, mu, length, seed):
    dom = interval(-0.5, length - 0.5, n)
    f = _field(seed, n)
    dense = riesz.moment_weights_1d(dom, mu)
    assert _defect(riesz.moment_apply(dom, mu, f), dense, f) < 1e-10
    # a stack of fields applies row by row
    both = riesz.moment_apply(dom, mu, np.stack([f, np.ones(n)]))
    assert _defect(both[1], dense, np.ones(n)) < 1e-10


@PROPERTY
@given(n=SIZES, frac=st.floats(0.0, 1.0), length=LENGTHS, seed=SEEDS)
def test_sine_transforms_match_phi_grid(n, frac, length, seed):
    dom = interval(-0.5, length - 0.5, n)
    basis = spectral.build_basis(dom, 1 + int(frac * (n // 2 - 1)))
    phi = basis.sine_tables()[0]
    rng = np.random.default_rng(seed)
    u = rng.normal(size=n)
    u[0] = u[-1] = 0.0
    w = dom.trap_weights()[0]
    amp = np.sqrt(2.0 / length)     # sup of every sampled mode
    a = spectral.analysis(basis, GridField(dom, u)).coeffs
    assert np.max(np.abs(a - phi @ (w * u))) < 1e-12 * amp * np.sum(w * np.abs(u))
    c = rng.normal(size=basis.K)
    v = spectral.synthesis(SpectralField(basis, c)).values
    assert v[0] == 0.0 and v[-1] == 0.0
    assert np.max(np.abs(v - phi.T @ c)) < 1e-12 * amp * np.sum(np.abs(c))
    back = spectral.analysis(basis, GridField(dom, v)).coeffs
    assert np.max(np.abs(back - c)) < 1e-12 * np.sum(np.abs(c))


@pytest.fixture(scope="module")
def grid_4096():
    dom = interval(0.0, 1.0, 4096)
    return dom, np.random.default_rng(11).random(4096)


def test_riesz_apply_at_4096(grid_4096):
    dom, f = grid_4096
    mu = 0.64
    dense = riesz._build_1d(dom.axes()[0], mu) @ f
    fast = riesz.convolve(riesz.build_weights(dom, mu), GridField(dom, f)).values
    assert np.max(np.abs(fast - dense)) / np.max(np.abs(dense)) <= 1e-10


def test_moment_apply_at_4096(grid_4096):
    dom, f = grid_4096
    mu = 0.64
    dense = riesz.moment_weights_1d(dom, mu) @ f
    fast = riesz.moment_apply(dom, mu, f)
    assert np.max(np.abs(fast - dense)) / np.max(np.abs(dense)) <= 1e-12


def test_sine_transforms_at_4096(grid_4096):
    dom, f = grid_4096
    basis = spectral.build_basis(dom, 1024)
    phi = basis.sine_tables()[0]
    w = dom.trap_weights()[0]
    u = f.copy()
    u[0] = u[-1] = 0.0
    dense_a = phi @ (w * u)
    a = spectral.analysis(basis, GridField(dom, u)).coeffs
    assert np.max(np.abs(a - dense_a)) / np.max(np.abs(dense_a)) <= 1e-11
    dense_v = phi.T @ dense_a
    v = spectral.synthesis(SpectralField(basis, dense_a)).values
    assert np.max(np.abs(v - dense_v)) / np.max(np.abs(dense_v)) <= 1e-11
