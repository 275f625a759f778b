"""Positive least-energy solutions of the subcritical Hartree problem and
its Brezis-Nirenberg variant on supported domains.

Both regimes share one solve path, a damped, normalized Picard iteration
that differs between them only in the convolved power, the kernel exponent
and the shift eps in lambda^s - eps: because the nonlinearity is
homogeneous (degree 2p - 1), the normalized fixed point is one exact scalar
calibration away from a solution of the PDE without a Lagrange multiplier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import riesz
from .bubbles import Bubble, BubbleFamily, eval_bubble, unit_w
from .errors import (GridMismatch, NoConvergence, OutOfRange, PositivityLost,
                     ResonantEps, ZeroField)
from .grids import DomainSpec, GridField, even_half, mirror
from .model import Params, Regime, exponents
from .riesz import RieszWeights
from .spectral import (EigenBasis, SpectralField, _analyze, _synthesize,
                       analysis, synthesis)


@dataclass(frozen=True)
class Seed:
    kind: str
    lam0: float = 1.0
    field: GridField | None = None

    def __post_init__(self):
        if self.kind not in ("first_eigenfunction", "bubble_cap", "warm_start"):
            raise OutOfRange(f"unknown seed kind {self.kind!r}")
        if (self.field is not None) != (self.kind == "warm_start"):
            raise OutOfRange(f"seed kind {self.kind!r}: a field is required "
                             f"for warm_start and only for it")
        if not 0.0 < self.lam0 < math.inf:
            raise OutOfRange(f"seed scale lam0 must be positive and finite, "
                             f"got {self.lam0}")

    @staticmethod
    def first_eigenfunction():
        return Seed(kind="first_eigenfunction")

    @staticmethod
    def bubble_cap(lam0):
        return Seed(kind="bubble_cap", lam0=float(lam0))

    @staticmethod
    def warm_start(field: GridField):
        return Seed(kind="warm_start", field=field)


@dataclass
class SolveOptions:
    theta: float = 0.5
    max_iter: int = 2000
    residual_tol: float = 1e-8
    seed: Seed = field(default_factory=Seed.first_eigenfunction)

    def __post_init__(self):
        if not 0.0 < self.theta <= 1.0:
            raise OutOfRange(f"damping theta must be in (0, 1], got {self.theta}")
        if not self.max_iter >= 1:
            raise OutOfRange(f"max_iter must be at least 1, got {self.max_iter}")
        if not self.residual_tol > 0.0:
            raise OutOfRange(f"residual_tol must be positive, got {self.residual_tol}")


@dataclass
class SolutionRecord:
    field: SpectralField
    grid: GridField
    sup_norm: float
    argmax: tuple
    mu_eps: float
    residual: float
    quotient: float
    iterations: int
    eps: float
    params: Params
    converged: bool
    min_interior: float
    positive: bool
    # node sup is authoritative; the parabolic fit through the argmax node
    # and its neighbors is recorded alongside for the rate diagnostics
    sup_norm_interp: float = 0.0
    # per axis max|u - R u| / sup, R the axis reflection, and the distance
    # of the argmax node from the domain centre: a branch that is not even
    # about the centre is reported, not raised
    mirror_defect: tuple = ()
    centre_offset: float = 0.0

    def to_dict(self):
        return {
            "eps": self.eps,
            "sup_norm": self.sup_norm,
            "sup_norm_interp": self.sup_norm_interp,
            "argmax": list(self.argmax),
            "mu_eps": self.mu_eps,
            "residual": self.residual,
            "quotient": self.quotient,
            "iterations": self.iterations,
            "converged": self.converged,
            "min_interior": self.min_interior,
            "positive": self.positive,
            "mirror_defect": list(self.mirror_defect),
            "centre_offset": self.centre_offset,
            "n": self.params.n,
            "s": self.params.s,
            "mu": self.params.mu,
            "regime": self.params.regime.value,
        }


def _interior_min(vals):
    return float(np.min(vals[(slice(1, -1),) * vals.ndim]))


def _problem_terms(params: Params):
    """(convolved power p, kernel mu, linear shift) of the governing equation."""
    exp = exponents(params)
    if params.regime is Regime.SUBCRITICAL_HARTREE:
        return exp.p_sub, params.n - 2.0 * params.s, 0.0
    if params.regime is Regime.BREZIS_NIRENBERG:
        return exp.two_star, params.mu, params.eps
    raise OutOfRange(f"no bounded-domain equation for regime {params.regime}")


def kernel_exponent(params: Params):
    """Exponent mu of the Riesz kernel |x|^{-mu} in the regime's equation."""
    return _problem_terms(params)[1]


def check_kernel(weights: RieszWeights, mu, domain: DomainSpec):
    """Raise OutOfRange unless the weights are for the kernel |x|^{-mu}, and
    GridMismatch unless they are for the grid of domain."""
    if abs(weights.mu - mu) > 1e-12:
        raise OutOfRange(f"weights built for mu = {weights.mu}, equation needs {mu}")
    if weights.domain != domain:
        raise GridMismatch(f"weights built for the grid {weights.domain}, "
                           f"the field lives on {domain}")


def _relative_defect(a, denom, b):
    """||a denom - b|| / ||b||, the relative defect of the Galerkin equation
    in coefficients; 0 when both vanish, inf when only b does."""
    num = np.linalg.norm(a * denom - b)
    den = np.linalg.norm(b)
    if den == 0.0:
        return 0.0 if num == 0.0 else math.inf
    return float(num / den)


def _nonlinear_rhs(weights: RieszWeights, u_vals, p):
    """(|x|^{-mu} * u^p) u^{p-1} on the grid, clamping negative ripple;
    u^p is formed as u^{p-1} u, so each call takes one power.  Values in
    and out are plain arrays, not validated: the whole grid, or the first
    N/2 nodes per axis of an exactly even field (`riesz._convolve`)."""
    pos = np.maximum(u_vals, 0.0)
    tail = pos ** (p - 1.0)
    return riesz._convolve(weights, tail * pos) * tail


def _seed_values(seed: Seed, params, domain, basis):
    if seed.kind == "first_eigenfunction":
        coeffs = np.zeros(basis.K)
        coeffs[0] = 1.0
        return synthesis(SpectralField(basis, coeffs)).values
    if seed.kind == "warm_start":
        if seed.field.domain != domain:
            raise OutOfRange("warm start requires a field on the solve grid")
        vals = seed.field.values.copy()
    else:
        centre = tuple(0.5 * (lo + hi) for lo, hi in domain.ranges())
        vals = eval_bubble(Bubble(BubbleFamily.HARTREE_W, centre, seed.lam0, params),
                           np.stack(domain.mesh(), axis=-1))
    for axis in range(vals.ndim):
        if seed.kind == "bubble_cap":
            # the mesh nodes are not mirror-exact about the centre: the mean
            # with the flip is, so the solve keeps an exactly even iterate
            vals = 0.5 * (vals + np.flip(vals, axis))
        # pin Dirichlet boundary values: the 2-D Riesz apply takes no
        # others, and a damped step would keep (1 - theta)^k of them
        np.moveaxis(vals, axis, 0)[[0, -1]] = 0.0
    return vals


def _solve_fixed_point(params, domain, basis, weights, opts, p, denom):
    """Damped normalized Picard iteration with final homogeneity calibration.

    p is the convolved power of the nonlinearity; denom are the modal
    symbols inverted each step (lambda^s - eps).  Returns (calibrated
    values, coeffs, residual, iterations).

    The coefficients a of u are tracked instead of re-analysed: analysis is
    linear and undoes synthesis for K <= N - 2 modes per axis (which
    build_basis enforces), so the update of u carries over to a exactly,
    also for seeds outside the mode span.

    The sign is reported, not policed: the nonlinearity clamps u_+, and a
    discrete fixed point may keep the truncated Green operator's ripple.

    The step works on plain arrays: a non-finite value anywhere reaches
    every coefficient and so the scalars m and res, which are checked
    instead of the fields.

    The parity is decided once, on the seed: from an exactly even seed on
    an even grid every iterate is exactly even, so the loop holds the first
    N/2 nodes per axis (`grids.even_half`), steps with the half transforms
    and Riesz apply, and mirrors the last iterate.
    """
    degree = 2.0 * p - 1.0
    u = _seed_values(opts.seed, params, domain, basis)
    top = float(np.max(u))
    if not top > 0.0:
        raise OutOfRange(f"{opts.seed.kind} seed has no positive value "
                         f"(max {top:.3e})")
    u = GridField(domain, u / top).values
    half = even_half(u)
    u = u if half is None else half
    a = _analyze(basis, u)
    res = math.inf
    m = 1.0
    it = 0
    for it in range(opts.max_iter):
        b = _analyze(basis, _nonlinear_rhs(weights, u, p))
        v = _synthesize(basis, b / denom, half is not None)
        m = float(np.max(v))
        if not math.isfinite(m):
            raise OutOfRange("field values must be finite")
        if not m > 0.0:
            raise PositivityLost("update lost positivity entirely")
        res = _relative_defect(a, denom, b / m)
        if not math.isfinite(res):
            raise OutOfRange("field values must be finite")
        if res < opts.residual_tol:
            break
        # renormalize to max 1 (x / x == 1 exactly); v / m already has it
        if opts.theta == 1.0:
            u, a = v / m, b / (denom * m)
        else:
            u = (1.0 - opts.theta) * u + opts.theta * v / m
            top = np.max(u)
            u /= top
            a = ((1.0 - opts.theta) * a + opts.theta * b / (denom * m)) / top
    t = m ** (-1.0 / (degree - 1.0))
    return t * (u if half is None else mirror(u)), t * a, res, it


def _parabolic_peak(vals, idx):
    """Max of the parabola through a grid node and its two axis neighbors."""
    def fit(a, b, c):
        denom = a - 2.0 * b + c
        if denom >= 0.0:
            return b
        return b - 0.125 * (c - a) ** 2 / denom

    best = vals[idx]
    for axis, i in enumerate(idx):
        if 0 < i < vals.shape[axis] - 1:
            lo = idx[:axis] + (i - 1,) + idx[axis + 1:]
            hi = idx[:axis] + (i + 1,) + idx[axis + 1:]
            best = max(best, fit(vals[lo], vals[idx], vals[hi]))
    return best


def _finalize(params, domain, basis, weights, opts, vals, coeffs, res, it):
    u_grid = GridField(domain, vals)
    sup = u_grid.sup_norm()
    idx = np.unravel_index(int(np.argmax(vals)), vals.shape)
    min_int = _interior_min(vals)
    argmax = u_grid.argmax_point()
    return SolutionRecord(
        field=SpectralField(basis, coeffs),
        grid=u_grid,
        sup_norm=sup,
        argmax=argmax,
        mu_eps=sup / unit_w(params).amplitude,
        residual=float(res),
        quotient=energy_quotient(u_grid, params, basis, weights),
        iterations=it + 1,
        eps=params.eps,
        params=params,
        converged=bool(res < opts.residual_tol),
        min_interior=min_int,
        positive=bool(min_int > 0.0),
        sup_norm_interp=float(_parabolic_peak(vals, idx)),
        mirror_defect=tuple(float(np.max(np.abs(vals - np.flip(vals, axis)))) / sup
                            for axis in range(vals.ndim)),
        centre_offset=math.dist(argmax, [0.5 * (lo + hi)
                                         for lo, hi in domain.ranges()]),
    )


def _solve(params: Params, domain: DomainSpec, basis: EigenBasis,
           weights: RieszWeights, opts: SolveOptions | None) -> SolutionRecord:
    """The solve body of both regimes, after their own parameter checks."""
    opts = opts or SolveOptions()
    p, mu, shift = _problem_terms(params)
    check_kernel(weights, mu, domain)
    denom = basis.lambdas ** params.s - shift
    vals, coeffs, res, it = _solve_fixed_point(params, domain, basis, weights,
                                               opts, p, denom)
    rec = _finalize(params, domain, basis, weights, opts, vals, coeffs, res, it)
    if not rec.converged:
        raise NoConvergence(
            f"residual {rec.residual:.3e} after {rec.iterations} iterations "
            f"(tol {opts.residual_tol})", record=rec)
    return rec


def solve_subcritical(params: Params, domain: DomainSpec, basis: EigenBasis,
                      weights: RieszWeights, opts: SolveOptions | None = None
                      ) -> SolutionRecord:
    """Least-energy solution of A_s u = (|x|^{-(n-2s)} * u^p) u^{p-1}."""
    if params.regime is not Regime.SUBCRITICAL_HARTREE:
        raise OutOfRange("solve_subcritical requires the subcritical regime")
    if not params.eps > 0.0:
        raise OutOfRange(
            "eps > 0 required: the critical problem has no minimizer on a "
            "bounded domain")
    return _solve(params, domain, basis, weights, opts)


def solve_bn(params: Params, domain: DomainSpec, basis: EigenBasis,
             weights: RieszWeights, opts: SolveOptions | None = None
             ) -> SolutionRecord:
    """Solution of A_s u = (|x|^{-mu} * u^{2*}) u^{2*-1} + eps u."""
    if params.regime is not Regime.BREZIS_NIRENBERG:
        raise OutOfRange("solve_bn requires the Brezis-Nirenberg regime")
    eps = params.eps
    lam_s = basis.lambdas ** params.s
    lam1_s = float(lam_s[0])
    if not 0.0 < eps < lam1_s:
        raise OutOfRange(
            f"0 < eps < lambda_1^s required: eps = {eps}, lambda_1^s = {lam1_s}")
    if np.min(np.abs(lam_s - eps)) < 1e-10:
        raise ResonantEps(f"eps = {eps} is within 1e-10 of an eigenvalue power")
    return _solve(params, domain, basis, weights, opts)


def solve(params: Params, domain: DomainSpec, basis: EigenBasis,
          weights: RieszWeights, opts: SolveOptions | None = None
          ) -> SolutionRecord:
    """solve_subcritical or solve_bn, as params.regime asks."""
    # looked up in the module namespace at call time, so a replaced
    # solve_subcritical or solve_bn sees every solve
    if params.regime is Regime.SUBCRITICAL_HARTREE:
        return solve_subcritical(params, domain, basis, weights, opts)
    if params.regime is Regime.BREZIS_NIRENBERG:
        return solve_bn(params, domain, basis, weights, opts)
    raise OutOfRange(f"no bounded-domain equation for regime {params.regime}")


def residual(u: GridField, params: Params, basis: EigenBasis,
             weights: RieszWeights):
    """Relative grid-L2 defect of the governing (Galerkin) equation.

    Zero for exact discrete solutions; defined as 0.0 for the zero field.
    """
    p, mu, eps = _problem_terms(params)
    check_kernel(weights, mu, u.domain)
    if not np.any(u.values):
        return 0.0
    a = analysis(basis, u).coeffs
    denom = basis.lambdas ** params.s - eps
    pos = np.maximum(u.values, 0.0)
    conv = riesz.convolve(weights, GridField(u.domain, pos ** p)).values
    b = analysis(basis, GridField(u.domain, conv * pos ** (p - 1.0))).coeffs
    return _relative_defect(a, denom, b)


def energy_quotient(u: GridField, params: Params, basis: EigenBasis,
                    weights: RieszWeights):
    """Sum a_k^2 lambda_k^s over the p-th root of the double Riesz integral.

    p and the kernel follow the regime: the subcritical quotient uses
    p = 2# - 1 - eps with kernel exponent n - 2s, the Brezis-Nirenberg
    quotient uses p = 2* with the configured mu.
    """
    p, mu, _ = _problem_terms(params)
    check_kernel(weights, mu, u.domain)
    if not np.any(u.values):
        raise ZeroField("energy quotient of the zero field")
    a = analysis(basis, u).coeffs
    num = float(np.sum(a ** 2 * basis.lambdas ** params.s))
    up = np.maximum(u.values, 0.0) ** p
    conv = riesz.convolve(weights, GridField(u.domain, up)).values
    dbl = float(np.sum(u.domain.node_weights() * up * conv))
    return num / dbl ** (1.0 / p)
