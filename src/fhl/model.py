"""Parameter validation and critical-exponent arithmetic.

Every other module consumes the `Params` contract defined here.  The three
regimes carry their own admissibility inequalities, checked strictly at
construction time (parameters are user inputs, not computed quantities, so
no tolerance slack is applied to the inequalities; the one equality
constraint mu = n - 2s is checked to 1e-12 to absorb binary rounding of
expressions like 1 - 2*0.3).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import OutOfRange

# |mu - (n - 2s)| tolerance: equality of user input against a float expression
_EQ_TOL = 1e-12


class Regime(enum.Enum):
    SUBCRITICAL_HARTREE = "subcritical"
    BREZIS_NIRENBERG = "brezis_nirenberg"
    FREE_SPACE = "free_space"


@dataclass(frozen=True)
class Params:
    """Validated problem parameters.

    n    : integer dimension (1 or 2 for grid work, 3 for radial free space)
    s    : fractional order, 0 < s < 1
    mu   : Riesz kernel exponent, 0 < mu < n
    eps  : subcriticality / linear-perturbation parameter, >= 0
    regime : which problem family the parameters are admissible for
    """

    n: int
    s: float
    mu: float
    eps: float
    regime: Regime


@dataclass(frozen=True)
class Exponents:
    two_sharp: float   # 2n/(n-2s)
    two_star: float    # (2n-mu)/(n-2s)
    p_sub: float       # two_sharp - 1 - eps


def make_params(n, s, mu, eps, regime) -> Params:
    """Validate raw numeric inputs and return a Params value.

    Raises OutOfRange naming the failing inequality or the accepted regimes.
    """
    try:
        regime = Regime(regime)
    except ValueError:
        raise OutOfRange(f"unknown regime {regime!r}, accepted: "
                         + ", ".join(r.value for r in Regime)) from None
    if n not in (1, 2, 3):
        raise OutOfRange(f"n must be 1, 2 or 3, got {n}")
    n = int(n)
    s = float(s)
    mu = float(mu)
    eps = float(eps)
    if not 0.0 < s < 1.0:
        raise OutOfRange(f"0 < s < 1 fails: s = {s}")
    if not 0.0 < mu < n:
        raise OutOfRange(f"0 < mu < n fails: mu = {mu}, n = {n}")
    if eps < 0.0:
        raise OutOfRange(f"eps >= 0 fails: eps = {eps}")

    if regime is Regime.SUBCRITICAL_HARTREE:
        if not 2.0 * s < n:
            raise OutOfRange(f"2s < n fails: 2s = {2.0 * s}, n = {n}")
        if not n < 6.0 * s:
            raise OutOfRange(f"n < 6s fails: n = {n}, 6s = {6.0 * s}")
        if abs(mu - (n - 2.0 * s)) > _EQ_TOL:
            raise OutOfRange(
                f"mu = n - 2s fails: mu = {mu}, n - 2s = {n - 2.0 * s}")
    elif regime is Regime.BREZIS_NIRENBERG:
        if not n > 4.0 * s:
            raise OutOfRange(f"n > 4s fails: n = {n}, 4s = {4.0 * s}")
        bound = min(float(n), 4.0 * s, (n + 2.0 * s) / 2.0)
        if not mu < bound:
            raise OutOfRange(
                f"mu < min(n, 4s, (n+2s)/2) fails: mu = {mu}, bound = {bound}")
    elif regime is Regime.FREE_SPACE:
        if not 2.0 * s < n:
            raise OutOfRange(f"2s < n fails: 2s = {2.0 * s}, n = {n}")

    return Params(n=n, s=s, mu=mu, eps=eps, regime=regime)


def exponents(params: Params) -> Exponents:
    """Critical exponents derived from params; a pure function."""
    n, s = params.n, params.s
    two_sharp = 2.0 * n / (n - 2.0 * s)
    two_star = (2.0 * n - params.mu) / (n - 2.0 * s)
    return Exponents(
        two_sharp=two_sharp,
        two_star=two_star,
        p_sub=two_sharp - 1.0 - params.eps,
    )
