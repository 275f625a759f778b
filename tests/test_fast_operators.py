"""The O(N log N) operators against the dense builders they replaced.

`oracles.riesz_rows_1d`, `riesz.moment_weights_1d` and `EigenBasis.sine_tables`
(on an interval, the dense K x N mode matrix) stay as oracles: property
tests over random N, mu and fields, plus one check at the sweep's grid,
N = 4096, with the sweep's kernel exponent.  On a rectangle, where the
transforms are the sine tables' products, `scipy.fft.dst` along both axes
checks them, on even and odd grids.

The 2-D apply is checked against a dense quarter-cell quadrature built
here, and its table term against `fftconvolve` on the stored table.  The
half-grid apply of exactly even fields, in 1-D and 2-D, is checked against
the full `_fft_apply`, which stays its oracle, and every field that is not
exactly even, or not a single field on an even grid, must take the full
path.  The tiered 2-D build is checked against the 12-point quarter rule
folded into full cells on every offset, its table for exact evenness and
its peak memory against the table's size, and the 1-D applies against a copy of the
`scipy.fft` apply they replaced, bit for bit.

The numpy kernels that replaced SciPy routines are checked against them
(`oracles.dst1`, `oracles.fft_len`, `oracles.singular_quadrant_quad`): the
DST-I on both parities of P = len + 1, the FFT sizes, and the singular
quarter cell over the kernel exponents and aspect ratios of 2-D builds.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import fft as sfft
from scipy.signal import fftconvolve

from fhl import riesz, spectral
from fhl.grids import GridField, even_half, interval, mirror, rectangle
from fhl.spectral import SpectralField
from oracles import dst1, fft_len, riesz_rows_1d, singular_quadrant_quad

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
    assert _defect(fast, riesz_rows_1d(dom.axes()[0], mu), f) < 1e-10


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
    phi = basis.sine_tables[0]
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


@PROPERTY
@given(n=st.integers(16, 96), aspect=LENGTHS, frac=st.floats(0.0, 1.0), seed=SEEDS)
@example(n=17, aspect=0.25, frac=1.0, seed=1)
@example(n=33, aspect=4.0, frac=0.0, seed=2)
@example(n=37, aspect=1.7, frac=0.5, seed=3)
def test_rectangle_transforms_match_scipy_dst(n, aspect, frac, seed):
    """Analysis and synthesis against `scipy.fft.dst(type=1)` along both
    axes of the interior nodes, to 1e-13 of the sum of |terms|: analysis
    scales it by hx sqrt(2/Lx)/2 hy sqrt(2/Ly)/2, synthesis by
    sqrt(2/Lx)/2 sqrt(2/Ly)/2."""
    dom = rectangle(-0.3, 0.7, 0.1, 0.1 + aspect, n)
    basis = spectral.build_basis(dom, 1 + int(frac * ((n // 2) ** 2 - 1)))
    sx, sy = basis.sine_tables
    kx, ky = basis.modes[:, 0] - 1, basis.modes[:, 1] - 1
    scale = np.prod(np.sqrt(2.0 / np.array(dom.sides)) / 2.0)
    hxy = np.prod(dom.spacings())
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, n))
    a = spectral.analysis(basis, GridField(dom, u)).coeffs
    dst = sfft.dst(sfft.dst(u[1:-1, 1:-1], type=1, axis=0), type=1, axis=1)
    terms = (np.abs(sx) @ np.abs(u) @ np.abs(sy).T)[kx, ky] * hxy
    assert np.all(np.abs(a - hxy * scale * dst[kx, ky]) <= 1e-13 * terms)
    amat = np.zeros((n - 2, n - 2))
    amat[kx, ky] = rng.normal(size=basis.K)
    v = spectral.synthesis(SpectralField(basis, amat[kx, ky])).values
    dst = sfft.dst(sfft.dst(amat, type=1, axis=0), type=1, axis=1)
    terms = np.abs(sx).T @ np.abs(amat[:len(sx), :len(sy)]) @ np.abs(sy)
    assert np.all(np.abs(v[1:-1, 1:-1] - scale * dst) <= 1e-13 * terms[1:-1, 1:-1])
    for edge in (v[0], v[-1], v[:, 0], v[:, -1]):
        assert np.all(edge == 0.0)
    back = spectral.analysis(basis, GridField(dom, v)).coeffs
    assert np.max(np.abs(back - amat[kx, ky])) < 1e-12 * np.sum(np.abs(amat))


@pytest.fixture(scope="module")
def grid_4096():
    dom = interval(0.0, 1.0, 4096)
    return dom, np.random.default_rng(11).random(4096)


def test_riesz_apply_at_4096(grid_4096):
    dom, f = grid_4096
    mu = 0.64
    dense = riesz_rows_1d(dom.axes()[0], mu) @ f
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
    phi = basis.sine_tables[0]
    w = dom.trap_weights()[0]
    u = f.copy()
    u[0] = u[-1] = 0.0
    dense_a = phi @ (w * u)
    a = spectral.analysis(basis, GridField(dom, u)).coeffs
    assert np.max(np.abs(a - dense_a)) / np.max(np.abs(dense_a)) <= 1e-11
    dense_v = phi.T @ dense_a
    v = spectral.synthesis(SpectralField(basis, dense_a)).values
    assert np.max(np.abs(v - dense_v)) / np.max(np.abs(dense_v)) <= 1e-11


def _dense_2d(dom, mu):
    """W[t, s]: the kernel seen from node t, integrated over node s's cell.

    Each quarter of the cell that lies in the domain takes a 16-point Gauss
    product rule, except the target's own quarters, which are exact.
    """
    n = dom.n_grid
    hx, hy = dom.spacings()
    gx, gw = np.polynomial.legendre.leggauss(16)
    nodes = 0.25 * (gx + 1.0)                 # in [0, 1/2] cell units
    offs = np.arange(-(n - 1), n)
    i, j = np.divmod(np.arange(n * n), n)     # the order of values.ravel()
    # index of the target-minus-source offset of every (t, s) pair
    di = i[:, None] - i[None, :] + n - 1
    dj = j[:, None] - j[None, :] + n - 1
    own = riesz._singular_quadrant(hx / 2.0, hy / 2.0, mu)
    dense = np.zeros((n * n, n * n))
    for sx in (-1, 1):
        for sy in (-1, 1):
            q = np.zeros((2 * n - 1, 2 * n - 1))
            for a, wa in zip(nodes, gw):
                for b, wb in zip(nodes, gw):
                    q += wa * wb * np.hypot((offs[:, None] - sx * a) * hx,
                                            (offs[None, :] - sy * b) * hy) ** (-mu)
            q *= hx * hy / 16.0
            q[n - 1, n - 1] = own
            inside = (0 <= i + sx) & (i + sx < n) & (0 <= j + sy) & (j + sy < n)
            dense += np.where(inside[None, :], q[di, dj], 0.0)
    return dense


@pytest.mark.parametrize("dom, mu", [
    (rectangle(0.0, 1.4, 0.0, 0.9, 16), 1.1),
    (rectangle(0.0, 1.0, 0.0, 1.0, 17), 1.2),
])
def test_riesz_apply_2d_matches_dense(dom, mu):
    n = dom.n_grid
    dense = _dense_2d(dom, mu)
    w = riesz.build_weights(dom, mu)
    rng = np.random.default_rng(n)
    for _ in range(3):
        # a Dirichlet field, the only kind the 2-D apply takes: zero on
        # every boundary node, whose cells are the clipped ones
        f = np.zeros((n, n))
        f[1:-1, 1:-1] = rng.normal(size=(n - 2, n - 2))
        fast = riesz.convolve(w, GridField(dom, f)).values.ravel()
        assert _defect(fast, dense, f.ravel()) < 1e-13


@PROPERTY
@given(n=st.integers(16, 64), mu=st.floats(0.05, 1.95),
       ratio=st.floats(0.25, 4.0), seed=SEEDS)
def test_riesz_table_term_matches_fftconvolve(n, mu, ratio, seed):
    dom = rectangle(0.0, 1.0, 0.0, ratio, n)
    w = riesz.build_weights(dom, mu)
    f = np.random.default_rng(seed).normal(size=(2, n, n))
    oracle = [fftconvolve(g, w.offsets, mode="same") for g in f]
    scale = max(np.max(fftconvolve(np.abs(g), w.offsets, mode="same")) for g in f)
    # a stack of fields applies field by field
    assert np.max(np.abs(riesz._fft_apply(w.spectrum, f) - oracle)) < 1e-13 * scale


def _mirrored(quarter):
    """The exactly even 2M x 2M field whose M x M quarter is given."""
    m = quarter.shape[0]
    f = np.empty((2 * m, 2 * m))
    f[:m, :m] = quarter
    f[:m, m:] = quarter[:, ::-1]
    f[m:] = f[m - 1::-1]
    return f


def _is_even(a):
    return all(np.array_equal(a, np.flip(a, axis)) for axis in range(a.ndim))


def _dirichlet(f):
    """f with zeros on every boundary node; exactly even if f is."""
    g = f.copy()
    for axis in range(g.ndim):
        np.moveaxis(g, axis, 0)[[0, -1]] = 0.0
    return g


def _check_even_apply(w, f):
    """The half-grid apply on the half of the exactly even f, mirrored,
    matches the full apply to 1e-13 of max(|W||f|) and is exactly even;
    `_convolve` takes the half, and `convolve` takes the half of f with
    its boundary zeroed."""
    half = riesz._even_apply(w.even_spectrum, even_half(f))
    assert np.array_equal(riesz._convolve(w, even_half(f)), half)
    fast = mirror(half)
    # the table is positive, so W |f| is max(|W||f|)
    scale = np.max(riesz._fft_apply(w.spectrum, np.abs(f)))
    assert np.max(np.abs(fast - riesz._fft_apply(w.spectrum, f))) <= 1e-13 * scale
    assert _is_even(fast)
    g = _dirichlet(f)
    assert np.array_equal(riesz.convolve(w, GridField(w.domain, g)).values,
                          mirror(riesz._even_apply(w.even_spectrum, even_half(g))))


@PROPERTY
@given(half=st.integers(8, 48), mu=st.floats(0.05, 1.95), ratio=LENGTHS,
       seed=SEEDS)
@example(half=80, mu=1.2, ratio=1.0, seed=0)       # the bn_sweep grid
@example(half=64, mu=1.1, ratio=0.9 / 1.4, seed=1)  # the rect_robin grid
def test_even_apply_matches_full_apply(half, mu, ratio, seed):
    w = riesz.build_weights(rectangle(0.0, 1.0, 0.0, ratio, 2 * half), mu)
    _check_even_apply(w, _mirrored(np.random.default_rng(seed).normal(size=(half, half))))


@PROPERTY
@given(half=st.integers(8, 2048), mu=MUS, length=LENGTHS, seed=SEEDS)
@example(half=2048, mu=0.64, length=1.0, seed=0)   # the sweep1d grid
@example(half=8, mu=0.95, length=1.0, seed=1)
def test_even_apply_matches_full_apply_1d(half, mu, length, seed):
    w = riesz.build_weights(interval(0.0, length, 2 * half), mu)
    r = np.random.default_rng(seed).normal(size=half)
    _check_even_apply(w, np.concatenate([r, r[::-1]]))


def test_convolve_off_exact_evenness_takes_full_path():
    """One node moved by one ulp, a field even along one axis only, an odd
    grid and, in 1-D, an exactly even field with nonzero ends all take the
    full apply in `convolve`, in 2-D and 1-D; `_convolve` has no parity
    detection, so a stack of even fields takes `_fft_apply` unchanged."""
    rng = np.random.default_rng(7)
    w = riesz.build_weights(rectangle(0.0, 1.4, 0.0, 0.9, 64), 1.1)
    f = _dirichlet(_mirrored(rng.normal(size=(32, 32))))
    moved = f.copy()
    moved[5, 9] = np.nextafter(moved[5, 9], np.inf)
    rows = rng.normal(size=(32, 64))
    one_axis = _dirichlet(np.concatenate([rows, rows[::-1]]))
    odd = riesz.build_weights(rectangle(0.0, 1.4, 0.0, 0.9, 33), 1.1)
    g = rng.normal(size=(33, 33))
    g = g + g[::-1]
    g = _dirichlet(g + g[:, ::-1])
    assert _is_even(g)
    line = riesz.build_weights(interval(0.0, 1.0, 64), 0.6)
    h = _mirrored(rng.normal(size=(32, 32)))[0]
    h_moved = _dirichlet(h)
    h_moved[9] = np.nextafter(h_moved[9], np.inf)
    line_odd = riesz.build_weights(interval(0.0, 1.0, 65), 0.6)
    h_odd = rng.normal(size=65)
    h_odd = _dirichlet(h_odd + h_odd[::-1])
    assert _is_even(h) and h[0] != 0.0 and _is_even(h_odd)
    for weights, vals in ((w, moved), (w, one_axis), (w, one_axis.T), (odd, g),
                          (line, h), (line, h_moved), (line_odd, h_odd)):
        assert np.array_equal(riesz.convolve(weights, GridField(weights.domain, vals)).values,
                              riesz._convolve(weights, vals))
    for weights, vals in ((w, np.stack([f, f[::-1]])),
                          (line, np.stack([_dirichlet(h)] * 2))):
        assert np.array_equal(riesz._convolve(weights, vals),
                              riesz._fft_apply(weights.spectrum, vals))


@pytest.mark.parametrize("n", [64, 65])
def test_transforms_keep_exact_evenness(n):
    """Through `analysis` and `synthesis`, an exactly even field on an even
    grid has exactly zero coefficients on every mode with an even k, and
    odd-k coefficients alone synthesize an exactly even field: on a
    rectangle, and on an interval of 2n nodes, where the DST-I has an odd
    P = N - 1.  The half transforms give the same, from and to the half or
    quarter.  On the odd rectangle, which has no quarter path, both hold
    to 1e-14 of the sum of |terms|."""
    rng = np.random.default_rng(n)
    for dom in (rectangle(0.0, 1.4, 0.0, 0.9, n), interval(0.0, 1.4, 2 * n)):
        basis = spectral.build_basis(dom, (n // 2) ** dom.dim)
        u = rng.normal(size=dom.shape)
        for axis in range(dom.dim):
            u = u + np.flip(u, axis)
            np.moveaxis(u, axis, 0)[[0, -1]] = 0.0
        even_k = np.any(basis.modes.reshape(basis.K, -1) % 2 == 0, axis=1)
        a = spectral.analysis(basis, GridField(dom, u)).coeffs
        assert np.all(a[~even_k] != 0.0)
        c = np.where(even_k, 0.0, rng.normal(size=basis.K))
        v = spectral.synthesis(SpectralField(basis, c)).values
        if dom.n_grid % 2 == 0:
            assert np.all(a[even_k] == 0.0) and _is_even(v)
            assert np.array_equal(spectral._analyze(basis, even_half(u)), a)
            assert np.array_equal(spectral._synthesize(basis, c, half=True),
                                  even_half(v))
            continue
        sx, sy = basis.sine_tables
        kx, ky = basis.modes[:, 0] - 1, basis.modes[:, 1] - 1
        terms = (np.abs(sx) @ np.abs(u) @ np.abs(sy).T)[kx, ky] * np.prod(dom.spacings())
        assert np.all(np.abs(a[even_k]) <= 1e-14 * terms[even_k])
        box = np.zeros((len(sx), len(sy)))
        box[kx, ky] = np.abs(c)
        terms = np.abs(sx).T @ box @ np.abs(sy)
        for axis in range(dom.dim):
            assert np.all(np.abs(v - np.flip(v, axis)) <= 1e-14 * terms)


def _scipy_apply(offsets, values):
    """The 1-D Toeplitz apply as it stood on `scipy.fft` (the oracle)."""
    n = values.shape[-1]
    size = sfft.next_fast_len(2 * n - 1, real=True)
    spectrum = sfft.rfftn(np.flip(offsets), [size])
    out = sfft.irfftn(sfft.rfftn(values, [size], axes=(-1,)) * spectrum,
                      [size], axes=(-1,))
    return out[..., n - 1:2 * n - 1]


@pytest.mark.parametrize("n", [257, 1000, 4096])
def test_1d_applies_bit_identical_to_scipy(n):
    dom = interval(0.0, 1.0, n)
    mu = 0.64
    f = np.random.default_rng(n).normal(size=(2, n))
    w = riesz.build_weights(dom, mu)
    for g in f:
        old = _scipy_apply(w.offsets, g) + g[:1] * w.edge_x + g[-1:] * w.edge_y
        assert np.array_equal(riesz.convolve(w, GridField(dom, g)).values, old)
    scale = dom.spacings()[0] ** (-mu) / (mu * (1.0 - mu))
    gen, left, right = riesz._hat_weights(n, 1.0 - mu, True, scale)
    old = _scipy_apply(gen, f) + f[..., :1] * left + f[..., -1:] * right
    assert np.array_equal(riesz.moment_apply(dom, mu, f), old)


def test_interleaved_2d_applies_match_fftconvolve():
    """2-D applies leak nothing between grids, weights, stack shapes or
    repeated applies of one shape, and no result shares memory with another."""
    small, large = rectangle(0.0, 1.0, 0.0, 1.0, 24), rectangle(0.0, 1.4, 0.0, 0.9, 37)
    weights = [riesz.build_weights(small, 0.7), riesz.build_weights(large, 1.1),
               riesz.build_weights(large, 1.6)]
    rng = np.random.default_rng(5)
    results = []
    for _ in range(3):
        for w in weights:
            n = w.domain.n_grid
            # two single fields in a row, then a stack
            fields = (rng.normal(size=(n, n)), rng.normal(size=(n, n)),
                      rng.normal(size=(2, n, n)))
            for f in fields:
                out = riesz._fft_apply(w.spectrum, f)
                oracle = np.array([fftconvolve(g, w.offsets, mode="same")
                                   for g in f.reshape(-1, n, n)]).reshape(f.shape)
                scale = np.max(np.abs(oracle))
                assert np.max(np.abs(out - oracle)) < 1e-13 * scale
                results.append(out)
    for i, a in enumerate(results):
        assert not any(np.shares_memory(a, b) for b in results[i + 1:])


def _quarter_12(dom, mu):
    """The quarter table with the 12-point rule on every far offset."""
    n = dom.n_grid
    hx, hy = dom.spacings()
    offs = np.arange(-(n - 1), n)
    q = riesz._gauss_quarter(offs[:, None], offs[None, :], hx, hy, mu,
                             np.polynomial.legendre.leggauss(12))
    near = offs[np.abs(offs) <= 4]
    q[np.ix_(near + n - 1, near + n - 1)] = riesz._gauss_quarter(
        near[:, None], near[None, :], hx, hy, mu,
        np.polynomial.legendre.leggauss(40))
    q[n - 1, n - 1] = riesz._singular_quadrant(hx / 2.0, hy / 2.0, mu)
    return q


@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(n=st.integers(40, 96), mu=st.floats(0.05, 1.95),
       ratio=st.floats(0.25, 4.0))
def test_graded_build_matches_12_point_rule(n, mu, ratio):
    # N >= 40 reaches past 24 cells on the coarser axis, so every tier acts
    dom = rectangle(0.0, 1.0, 0.0, ratio, n)
    q = _quarter_12(dom, mu)
    half = q + q[::-1, :]
    oracle = half + half[:, ::-1]       # each full cell: four quarters
    offsets = riesz.build_weights(dom, mu).offsets
    assert np.max(np.abs(offsets - oracle) / oracle) < 1e-14


@pytest.mark.parametrize("dom", [rectangle(0.0, 1.0, 0.0, 1.0, 64),
                                 rectangle(0.0, 1.4, 0.0, 0.9, 65)])
def test_offset_table_is_exactly_even(dom):
    """`_even_apply` reads one half of the table along each axis."""
    t = riesz.build_weights(dom, 1.1).offsets
    assert np.array_equal(t, t[::-1]) and np.array_equal(t, t[:, ::-1])


def test_2d_build_peak_memory():
    """The table is built from its N^2 unique entries: no temporary as
    large as the (2N-1)^2 table it mirrors them into."""
    dom = rectangle(0.0, 1.0, 0.0, 1.0, 256)
    tracemalloc.start()
    try:
        w = riesz.build_weights(dom, 1.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * w.offsets.nbytes


# --------------------------------------------------------------------------
# numpy kernels against the SciPy routines they replaced
# --------------------------------------------------------------------------

DST_LENGTHS = list(range(1, 71)) + [159, 160, 4094, 4095, 65534]


@pytest.mark.parametrize("m", DST_LENGTHS)
def test_dst1_matches_scipy(m):
    """Odd P (even m) takes the two-half form, even P the odd extension."""
    x = np.random.default_rng(m).normal(size=m)
    oracle = dst1(x)
    assert np.max(np.abs(spectral._dst1(x, 1.0) - oracle)) <= 1e-15 * np.max(np.abs(oracle))


@pytest.mark.parametrize("m", [2, 3, 64, 65, 4094, 4095])
def test_dst1_mirror_symmetric_input_has_no_even_modes(m):
    """For every even k' = k + 1 the sampled sine is odd about the middle
    node, so on a mirror-symmetric x, x_j = x_{m-1-j}, those outputs
    vanish but for rounding."""
    r = np.random.default_rng(m).normal(size=m)
    y = spectral._dst1(r + r[::-1], 1.0)
    assert np.max(np.abs(y[1::2])) <= 1e-15 * np.max(np.abs(y))


def test_fft_len_matches_next_fast_len():
    assert [riesz._fft_len(n) for n in range(1, 20001)] == [
        fft_len(n) for n in range(1, 20001)]


@pytest.mark.parametrize("mu", np.linspace(0.05, 1.95, 20))
def test_singular_quadrant_matches_quad(mu):
    for ratio in 2.0 ** np.arange(-4.0, 4.5, 0.5):
        a = 0.5 / 159
        own = riesz._singular_quadrant(a, a * ratio, mu)
        oracle = singular_quadrant_quad(a, a * ratio, mu)
        assert abs(own / oracle - 1.0) < 1e-14
