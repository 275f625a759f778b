import pytest

from fhl.errors import OutOfRange
from fhl.model import Regime, exponents, make_params


def test_subcritical_params_accepted():
    p = make_params(1, 0.3, 0.4, 0.1, Regime.SUBCRITICAL_HARTREE)
    assert p.n == 1 and p.regime is Regime.SUBCRITICAL_HARTREE


def test_subcritical_dimension_range_rejected():
    # n = 2 >= 6s = 1.8
    with pytest.raises(OutOfRange, match="6s"):
        make_params(2, 0.3, 1.0, 0.0, Regime.SUBCRITICAL_HARTREE)


def test_bn_params_accepted():
    p = make_params(3, 0.5, 1.5, 0.05, Regime.BREZIS_NIRENBERG)
    assert p.mu == 1.5


def test_bn_mu_bound_rejected():
    # bound is min(3, 2, 2) = 2 at n = 3, s = 0.5
    with pytest.raises(OutOfRange, match="min"):
        make_params(3, 0.5, 2.0, 0.05, Regime.BREZIS_NIRENBERG)


def test_bn_dimension_rejected():
    with pytest.raises(OutOfRange, match="4s"):
        make_params(1, 0.3, 0.2, 0.05, Regime.BREZIS_NIRENBERG)


@pytest.mark.parametrize("bad", [
    dict(n=1, s=1.2, mu=0.4, eps=0.0),
    dict(n=1, s=-0.1, mu=0.4, eps=0.0),
    dict(n=1, s=0.3, mu=1.5, eps=0.0),
    dict(n=1, s=0.3, mu=0.4, eps=-0.2),
])
def test_base_invariants_rejected(bad):
    with pytest.raises(OutOfRange):
        make_params(regime=Regime.FREE_SPACE, **bad)


def test_exponents_interval_example():
    p = make_params(2, 0.5, 1.0, 0.0, Regime.FREE_SPACE)
    e = exponents(p)
    assert e.two_sharp == 4.0
    assert e.two_star == 3.0
    assert e.p_sub == 3.0


def test_exponents_n1_example():
    p = make_params(1, 0.3, 0.4, 0.1, Regime.SUBCRITICAL_HARTREE)
    e = exponents(p)
    assert abs(e.two_sharp - 5.0) < 1e-12
    assert abs(e.two_star - 4.0) < 1e-12
    assert abs(e.p_sub - 3.9) < 1e-12


def test_exponents_n3_example():
    p = make_params(3, 0.6, 1.8, 0.0, Regime.SUBCRITICAL_HARTREE)
    e = exponents(p)
    assert abs(e.two_sharp - 10.0 / 3.0) < 1e-12
    assert abs(e.two_star - 7.0 / 3.0) < 1e-12


def test_exponent_pairing_at_mu_equal_n_minus_2s():
    # two_star = two_sharp - 1 exactly when mu = n - 2s
    for (n, s) in ((1, 0.2), (2, 0.45), (3, 0.6)):
        p = make_params(n, s, n - 2 * s, 0.0, Regime.FREE_SPACE)
        e = exponents(p)
        assert abs(e.two_star - (e.two_sharp - 1.0)) < 1e-12


def test_exponents_pure():
    p1 = make_params(1, 0.3, 0.4, 0.1, Regime.SUBCRITICAL_HARTREE)
    p2 = make_params(1, 0.3, 0.4, 0.1, Regime.SUBCRITICAL_HARTREE)
    assert exponents(p1) == exponents(p2)


@pytest.mark.parametrize("regime", ["bogus", None])
def test_unknown_regime_is_out_of_range(regime):
    with pytest.raises(OutOfRange, match="subcritical, brezis_nirenberg, free_space"):
        make_params(1, 0.3, 0.4, 0.1, regime)


def test_regime_by_value():
    assert make_params(1, 0.3, 0.4, 0.1, "subcritical").regime is Regime.SUBCRITICAL_HARTREE
