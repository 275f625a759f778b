"""Continuation in eps and quantitative checks of the asymptotic laws.

Everything here is a pure function of report data plus the module oracles,
so re-running a diagnostic on a persisted report reproduces its output
bit for bit.  The asymptotic laws are checked as trend/stabilization
criteria: discretization plus finite eps keeps the exact limits out of
reach at desk scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import bubbles, constants, riesz, solver, spectral
from .errors import (DegenerateStrip, EmptyInterior, MissingRobin, OutOfRange,
                     QuadratureFailure, SampleTooClose)
from .grids import DomainSpec, GridField, interpolate
from .model import Params, Regime, exponents
from .solver import SolutionRecord, Seed


@dataclass
class ContinuationReport:
    params: Params
    domain: DomainSpec
    eps_list: list
    records: list            # SolutionRecord per eps, in order
    derived: list            # per-record dict of diagnostics
    strip_margin: float

    def to_dict(self):
        return {
            "n": self.params.n,
            "s": self.params.s,
            "mu": self.params.mu,
            "regime": self.params.regime.value,
            "domain": {
                "kind": self.domain.kind,
                "bounds": list(self.domain.bounds),
                "grid": self.domain.n_grid,
            },
            "eps_list": list(self.eps_list),
            "strip_margin": self.strip_margin,
            "records": [r.to_dict() for r in self.records],
            "derived": self.derived,
        }


def _strip_quantities(rec: SolutionRecord, margin):
    dom = rec.grid.domain
    interior = dom.interior_mask(margin)
    strip = ~interior
    # exclude the boundary nodes themselves (zero by construction)
    vals = rec.grid.values
    w = dom.node_weights()
    strip_sup = float(np.max(vals[strip])) if np.any(strip) else 0.0
    interior_l1 = float(np.sum((w * vals)[interior]))
    return strip_sup, interior_l1


def _rate_exponent(params: Params):
    """q of the rate law eps * sup^q -> const: the Brezis-Nirenberg
    (2n - 8s)/(n - 2s), the subcritical 2."""
    n, s = params.n, params.s
    if params.regime is Regime.BREZIS_NIRENBERG:
        return (2.0 * n - 8.0 * s) / (n - 2.0 * s)
    return 2.0


def _rate_lhs(params: Params, eps, sup):
    n, s = params.n, params.s
    coeff = (1.0 if params.regime is Regime.BREZIS_NIRENBERG else
             (n - 2.0 * s) ** 2 / (2.0 * (n + 2.0 * s - eps * (n - 2.0 * s))))
    return coeff * eps * sup ** _rate_exponent(params)


def continuation(params: Params, domain: DomainSpec, eps_list, opts, basis, weights,
                 window=3.0, strip_cells=10) -> ContinuationReport:
    """Warm-started solves over a strictly decreasing eps schedule."""
    eps_list = [float(e) for e in eps_list]
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise OutOfRange("eps_list must be strictly decreasing")
    if any(e <= 0.0 for e in eps_list):
        raise OutOfRange("eps values must be positive")
    report = ContinuationReport(params=params, domain=domain, eps_list=eps_list,
                                records=[], derived=[],
                                strip_margin=strip_cells * max(domain.spacings()))
    if not eps_list:
        return report
    seed = opts.seed
    for eps in eps_list:
        p_eps = replace(params, eps=eps)
        rec = solver.solve(p_eps, domain, basis, weights, replace(opts, seed=seed))
        seed = Seed.warm_start(rec.grid)
        report.records.append(rec)
        v = bubbles.rescale(rec.grid, rec.sup_norm, rec.argmax, p_eps,
                            window=window)
        pdist = bubbles.profile_distance(v, p_eps, window)
        strip_sup, interior_l1 = _strip_quantities(rec, report.strip_margin)
        report.derived.append({
            "eps": eps,
            "mu_eps": rec.mu_eps,
            "mu_eps_pow_eps": rec.mu_eps ** eps,
            "x_eps": list(rec.argmax),
            "profile_distance": pdist,
            "boundary_strip_sup": strip_sup,
            "interior_l1": interior_l1,
            "rate_lhs": _rate_lhs(p_eps, eps, rec.sup_norm),
            "sup_norm": rec.sup_norm,
            "sup_norm_interp": rec.sup_norm_interp,
            "domination_c": _domination_constant(v, p_eps, window),
            "residual": rec.residual,
            "quotient": rec.quotient,
        })
    return report


def _domination_constant(v: GridField, params: Params, window):
    """Empirical smallest c with v <= c W[0,1] on the rescaled window."""
    w_ref = bubbles.eval_bubble(bubbles.unit_w(params),
                                np.stack(v.domain.mesh(), axis=-1))
    return float(np.max(np.maximum(v.values, 0.0) / w_ref))


# --------------------------------------------------------------------------
# scalar sequence checks
# --------------------------------------------------------------------------

def mu_power_check(report: ContinuationReport):
    """Sequence mu_eps^eps, plus whether |mu^eps - 1| decreases lately."""
    if not report.records:
        raise OutOfRange("mu_power_check needs a nonempty report")
    seq = [(d["eps"], d["mu_eps_pow_eps"]) for d in report.derived]
    last = [abs(v - 1.0) for _, v in seq[-3:]]
    decreasing = all(b < a for a, b in zip(last, last[1:]))
    return seq, decreasing


def eps_bound_check(report: ContinuationReport):
    """eps * mu_eps^{2 + (4s - (n-2s)eps) eps / s}, with a boundedness flag."""
    if not report.records:
        raise OutOfRange("eps_bound_check needs a nonempty report")
    n, s = report.params.n, report.params.s
    seq = []
    for d in report.derived:
        eps, mu = d["eps"], d["mu_eps"]
        expo = 2.0 + (4.0 * s - (n - 2.0 * s) * eps) * eps / s
        seq.append((eps, eps * mu ** expo))
    vals = [v for _, v in seq]
    bounded = (max(vals) / max(min(vals), 1e-300)) < 1e2
    return seq, bounded


def rate_law_subcritical(report: ContinuationReport, robin_at_x0):
    """lhs(eps) sequence of the blow-up rate law and its constants-built rhs."""
    if robin_at_x0 is None:
        raise MissingRobin("rate_law_subcritical needs the Robin value at x0")
    p = report.params
    if p.regime is not Regime.SUBCRITICAL_HARTREE:
        raise OutOfRange("rate_law_subcritical applies to the subcritical Hartree regime")
    n, s = p.n, p.s
    lhs = [(d["eps"], d["rate_lhs"]) for d in report.derived]
    gam = constants.gamma_ns(n, s)
    b = constants.small_b_ns(n, s)
    alpha = constants.alpha_nmus(n, n - 2.0 * s, s)
    beta = constants.beta_tilde_nmus(n, n - 2.0 * s, s)
    big_b = constants.b_big_ns(n)
    big_m = constants.m_big_ns(n, s)
    kap = constants.kappa_s(s)
    rhs = ((n - 2.0 * s) ** 2 * gam * b ** 2
           / (2.0 * kap * alpha ** 2 * beta * big_b)) * big_m * abs(robin_at_x0)
    return lhs, rhs


def rate_law_bn(report: ContinuationReport, robin_at_x0):
    """Brezis-Nirenberg rate law: lhs sequence and rhs constant."""
    if robin_at_x0 is None:
        raise MissingRobin("rate_law_bn needs the Robin value at x0")
    p = report.params
    if p.regime is not Regime.BREZIS_NIRENBERG:
        raise OutOfRange("rate_law_bn applies to the Brezis-Nirenberg regime")
    n, s = p.n, p.s
    lhs = [(d["eps"], d["rate_lhs"]) for d in report.derived]
    gam = constants.gamma_ns(n, s)
    d_c = constants.d_ns(n, p.mu, s)
    big_m = constants.m_big_ns(n, s)
    big_f = constants.f_big_ns(n, s)
    kap = constants.kappa_s(s)
    rhs = ((n - 2.0 * s) ** 2 * gam * d_c ** 2 * big_m * abs(robin_at_x0)
           / (2.0 * s * kap * big_f))
    return lhs, rhs


def green_limit_check(record: SolutionRecord, basis, s, x0, sample_points):
    """Pointwise table sup_norm * u(x) against b_ns G(x, x0)."""
    dom = record.grid.domain
    h = max(dom.spacings())
    rows = []
    b = constants.small_b_ns(record.params.n, record.params.s)
    for x in sample_points:
        pt = spectral._as_point(x, dom.dim)
        dist = math.sqrt(sum((a - b0) ** 2 for a, b0 in zip(pt, x0)))
        if dist < 4.0 * h:
            raise SampleTooClose(
                f"sample {pt} is {dist:.4g} from x0; need >= 4 grid cells ({4*h:.4g})")
        u_x = float(interpolate(record.grid, pt))
        g = spectral.green(basis, s, pt, tuple(x0))
        lhs = record.sup_norm * u_x
        rhs = b * g
        rows.append((pt, lhs, rhs, lhs / rhs if rhs != 0 else math.inf))
    if not rows:
        raise OutOfRange("green_limit_check needs at least one sample point")
    median = float(np.median([r[3] for r in rows]))
    return rows, median


# --------------------------------------------------------------------------
# integral identities
# --------------------------------------------------------------------------

def symmetrization_check(f: GridField, mu, weights):
    """Both sides of the dilation-moment symmetrization identity.

    lhsA = INT INT x.(x-t) |x-t|^{-(mu+2)} f(t) f(x) dt dx
    lhsB = (1/2) INT INT |x-t|^{-mu} f(t) f(x) dt dx
    computed by independent quadratures; residual |lhsA/lhsB - 1|.
    A 2-D f must vanish on the boundary, as `riesz.convolve` requires;
    the weights must be for the kernel |x|^{-mu}.
    """
    solver.check_kernel(weights, mu, f.domain)
    if np.any(f.values < 0.0):
        raise OutOfRange("symmetrization_check expects f >= 0")
    dom = f.domain
    w = dom.node_weights()
    conv = riesz.convolve(weights, f)
    lhs_b = 0.5 * float(np.sum(w * f.values * conv.values))
    if dom.dim == 1:
        x = dom.axes()[0]
        vals = f.values
        term1 = float(np.sum(w * x * vals * _moment_rows(dom, mu, vals)))
        # the last row minus the first of the weights against x f^2
        conv_g = riesz.convolve(weights, GridField(dom, x * vals * vals)).values
        term2 = float(conv_g[-1] - conv_g[0]) / mu
        lhs_a = term1 + term2
    else:
        lhs_a = _moment_double_2d(f, weights)
    if lhs_b == 0.0:
        return 0.0, 0.0, 0.0
    residual = abs(lhs_a / lhs_b - 1.0)
    if not math.isfinite(residual):
        raise QuadratureFailure(f"moment quadrature returned {lhs_a!r}")
    return lhs_a, lhs_b, residual


def _moment_rows(dom: DomainSpec, mu, f):
    """Row i of the 1-D moment weights against f - f_i, for every i.

    Equal to (A f)_i - f_i (A 1)_i, so two Toeplitz applies replace the
    row loop over the dense moment matrix A.
    """
    af, a1 = riesz.moment_apply(dom, mu, np.stack([f, np.ones_like(f)]))
    return af - f * a1


def _moment_double_2d(f: GridField, weights):
    """Midpoint-table evaluation of the 2-D moment double integral, with the
    kernel spectra that the weights hold for their grid and mu.

    The diagonal cell is dropped (PV symmetry); documented O(h) accuracy.
    """
    dom = f.domain
    w = dom.node_weights()
    gx, gy = dom.mesh()
    cx, cy = (riesz._fft_apply(s, f.values) for s in weights.moment_spectra)
    return float(np.sum(w * f.values * (gx * cx + gy * cy)))


def pohozaev_balance(record: SolutionRecord, params: Params, basis, weights, r):
    """Interior Pohozaev term against its computable majorants.

    interior = (n/p - (n-2s)/2) INT_{M(r/2) x Omega} kernel u^p u^p;
    the remainder tuple holds the strip q-norm term (q = floor(n/s) + 1),
    the squared interior L1 term, the strip energy term, and the
    dilation-moment term.  The extension-surface integrals are deliberately
    replaced by these computable majorants; the returned gap is
    interior / max(sum, floor).
    """
    dom = record.grid.domain
    solver.check_kernel(weights, solver.kernel_exponent(params), dom)
    n, s = params.n, params.s
    p = solver._problem_terms(params)[0]
    q = math.floor(n / s) + 1
    interior_mask = dom.interior_mask(r / 2.0)
    if not np.any(interior_mask):
        raise EmptyInterior(f"M(Omega, {r/2}) contains no grid nodes")
    strip_mask = ~dom.interior_mask(2.0 * r)
    w = dom.node_weights()
    u = np.maximum(record.grid.values, 0.0)
    up = u ** p
    conv = riesz.convolve(weights, GridField(dom, up)).values
    coeff = n / p - (n - 2.0 * s) / 2.0
    interior = coeff * float(np.sum((w * conv * up)[interior_mask]))
    g1 = float(np.sum((w * np.abs(conv * u ** (p - 1.0)) ** q)[strip_mask])) ** (2.0 / q)
    g2 = float(np.sum((w * np.abs(conv * u ** (p - 1.0)))[interior_mask])) ** 2
    g3 = float(np.sum((w * np.abs(conv * up))[strip_mask]))
    if dom.dim == 1:
        # outer x over M(r/2) only, where the PV row value is finite
        x = dom.axes()[0][interior_mask]
        mu = weights.mu
        a0, b0 = dom.bounds
        f = up[interior_mask]
        inner = (_moment_rows(dom, mu, up)[interior_mask]
                 + f * ((b0 - x) ** (-mu) - (x - a0) ** (-mu)) / mu)
        g4 = float(np.sum(w[interior_mask] * x * f * inner))
    else:
        g4 = _moment_double_2d(GridField(dom, up), weights)
    remainder = (g1, g2, g3, abs(g4))
    floor = 1e-300
    gap = interior / max(sum(remainder), floor)
    return interior, remainder, gap


def pohozaev_free_space_gap(params: Params):
    """Test hook: the exact-bubble Pohozaev balance in free space.

    At the critical exponent the interior coefficient (n-2s)mu/(2(2n-mu))
    times the double Riesz integral must equal (mu/2p) times it, the moment
    term collapsing through the symmetrization identity.  The two sides are
    computed by independent quadrature routes; returns |A/B - 1|.
    """
    exp = exponents(params)
    p = exp.two_star
    n, s, mu = params.n, params.s, params.mu
    bub = bubbles.Bubble(bubbles.BubbleFamily.HARTREE_W, (0.0,) * n, 1.0, params)
    prof = bubbles.radial_profile(bub)
    # route 1: closed-form chain, INT W^{2#} = amp^{2#} B_ns for every (xi, lambda)
    d_chain = (constants.beta_tilde_nmus(n, mu, s)
               * bub.amplitude ** exp.two_sharp * constants.b_big_ns(n))
    # route 2: nested radial quadrature of the same double integral

    def f(rr):
        return prof(rr) ** p

    d_quad = constants.sigma_n(n) * riesz.half_line_integral(
        lambda rho: rho ** (n - 1) * riesz.riesz_radial(f, rho, params) * f(rho),
        (0.0, 50.0))
    lhs = (n / p - (n - 2.0 * s) / 2.0) * d_chain
    rhs = (mu / (2.0 * p)) * d_quad
    return abs(lhs / rhs - 1.0)


def boundary_bounds(report: ContinuationReport, r):
    """Per-eps boundary-strip sup and interior L1 mass over M(Omega, r).

    The flag records the upper-bound content of the boundary theorems: both
    quantities stay within 2x of their values at the largest eps while the
    sup norm grows at least as fast as the rate law eps * sup^q -> const
    (`_rate_lhs`) predicts, i.e. by (eps_first / eps_last)^(1/q) with q from
    `_rate_exponent`.  The bar is computed from eps_list alone,
    never from the measured sup norms.
    """
    if r <= 0.0:
        raise DegenerateStrip(f"strip radius must be positive, got {r}")
    inradius = 0.5 * min(report.domain.sides)
    if r >= inradius:
        raise DegenerateStrip(
            f"strip radius {r} reaches the inradius {inradius}; M(Omega, r) empty")
    rows = []
    for rec in report.records:
        strip_sup, interior_l1 = _strip_quantities(rec, r)
        rows.append((rec.eps, strip_sup, interior_l1))
    if len(rows) <= 1:
        return rows, True
    s0 = rows[0][1] if rows[0][1] > 0 else 1e-300
    l0 = rows[0][2] if rows[0][2] > 0 else 1e-300
    within = all(v[1] <= 2.0 * s0 and v[2] <= 2.0 * l0 for v in rows)
    q = _rate_exponent(report.params)
    growth_bar = (report.eps_list[0] / report.eps_list[-1]) ** (1.0 / q)
    sup_growth = report.records[-1].sup_norm / report.records[0].sup_norm
    return rows, bool(within and sup_growth >= growth_bar)

