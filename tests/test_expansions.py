"""Feller, Marsaglia, Namias and Mermin routes to the factorial."""

import math
from fractions import Fraction

import pytest

from stirling.bounds import sequence_point
from stirling.errors import DomainError, ResourceError
from stirling.expansions import (feller_constant, feller_identity_residual,
                                 feller_residual_sweep, feller_term,
                                 marsaglia_coeffs, marsaglia_factorial,
                                 mermin_partial_product, namias_residual,
                                 reversion_residual)
from stirling.mpcore import PrecisionCtx, elementary
from stirling.oracle import lngamma_binet2
from stirling.series import remainder_R

CTX = PrecisionCtx(256)

HALF_LN_2PI = Fraction(
    "0.9189385332046727417803297364056176398613974736377834128171515404827657")
LN_2 = Fraction(
    "0.6931471805599453094172321214581765680755001343602552541206800094933936")
LN_3_2 = Fraction(
    "0.4054651081081643819780131154643491365719904234624941976140143653025843")


def test_feller_first_term_closed_forms():
    ft = feller_term(1, CTX)
    # a_1 = (1 - ln 2)/2,  b_1 = (3/2) ln(3/2) - 1/2
    assert abs(ft.a_k - (1 - LN_2) / 2) < Fraction(1, 10**60)
    assert abs(ft.b_k - (Fraction(3, 2) * LN_3_2 - Fraction(1, 2))) < Fraction(1, 10**60)


def test_feller_terms_positive_and_ordered():
    for k in (1, 2, 5, 40, 1000):
        ft = feller_term(k, CTX)
        assert ft.a_k > 0
        assert ft.b_k > 0
        assert ft.a_k > ft.b_k


def test_feller_difference_quadratic_decay():
    # (a_k - b_k) k^2 -> 1/24
    for k in (100, 1000, 10**4):
        ft = feller_term(k, CTX)
        scaled = (ft.a_k - ft.b_k) * k * k
        assert abs(scaled - Fraction(1, 24)) <= Fraction(1, 10 * k)


@pytest.mark.parametrize("n", [1, 2, 100])
def test_feller_identity_exact_to_roundoff(n):
    assert feller_identity_residual(n, CTX) <= Fraction(1, 10**30)


def test_feller_residual_sweep_envelope():
    resids = feller_residual_sweep(300, CTX)
    for n, r in enumerate(resids, start=1):
        assert r <= n * Fraction(1, 1 << (CTX.bits - 8))


def test_feller_single_residual_equals_sweep():
    # the single-n residual and the sweep share one identity body
    sweep = feller_residual_sweep(300, CTX)
    for n in (1, 2, 3, 77, 300):
        assert feller_identity_residual(n, CTX).to_hex() == sweep[n - 1].to_hex(), n


def test_feller_constant_k1_direct():
    ft = feller_term(1, CTX)
    expected = ft.a_k - ft.b_k + LN_2 / 2 + Fraction(1, 2)
    assert abs(feller_constant(1, CTX) - expected) < Fraction(1, 10**55)


def test_feller_constant_converges_and_halves():
    g1 = abs(feller_constant(10**4, CTX) - HALF_LN_2PI)
    assert g1 <= Fraction(1, 10**4)
    g2 = abs(feller_constant(2 * 10**4, CTX) - HALF_LN_2PI)
    ratio = g2 / g1
    assert Fraction(2, 5) <= ratio <= Fraction(3, 5)


def test_marsaglia_low_coefficients_exact():
    series = marsaglia_coeffs(8)
    expected = [Fraction(1), Fraction(1), Fraction(1, 3), Fraction(1, 36),
                Fraction(-1, 270), Fraction(1, 4320), Fraction(1, 17010)]
    assert list(series.coeffs[:7]) == expected


def test_marsaglia_reversion_self_test():
    series = marsaglia_coeffs(50)
    defect = reversion_residual(series)
    assert len(defect) == 52
    assert not any(defect)


def test_marsaglia_cap_and_base():
    assert marsaglia_coeffs(0).coeffs == (Fraction(1),)
    with pytest.raises(ResourceError):
        marsaglia_coeffs(201)


def test_marsaglia_factorial_k1_is_leading_order():
    # single-term sum: sqrt(2 pi n) n^n e^-n
    from stirling.mpcore import pi
    n = 20
    got = marsaglia_factorial(n, 1, CTX)
    lead = elementary("sqrt", 2 * pi(CTX) * n, CTX) \
        * elementary("exp", n * elementary("ln", n, CTX) - n, CTX)
    assert abs(got / lead - 1) < Fraction(1, 1 << 200)


def test_marsaglia_factorial_accuracy_improves():
    n = 20
    exact = Fraction(math.factorial(n))
    errs = []
    for K in range(1, 7):
        approx = marsaglia_factorial(n, K, CTX)
        errs.append(abs(approx / exact - 1))
    assert errs[1] <= Fraction(5, 100)  # K=2 ratio within 5%
    assert errs[5] < errs[1]
    for a, b in zip(errs, errs[1:]):
        assert b <= a  # adding terms never hurts inside the optimal range
    # strict improvement whenever an odd-order term arrives
    assert errs[2] < errs[1]
    assert errs[4] < errs[3]


@pytest.mark.parametrize("n", [1, 10, Fraction(3, 4)])
def test_namias_functional_equation(n):
    resid = namias_residual(n, CTX)
    z = Fraction(n)
    combined = (lngamma_binet2(2 * z, CTX).error_bound
                + lngamma_binet2(z, CTX).error_bound
                + lngamma_binet2(z - Fraction(1, 2), CTX).error_bound)
    assert resid <= 10 * combined + Fraction(1, 10**55)


def test_namias_domain():
    with pytest.raises(DomainError):
        namias_residual(Fraction(1, 2), CTX)


def test_mermin_single_factor():
    # n = K = 5: log of e^-1 (6/5)^(11/2)
    got = mermin_partial_product(5, 5, CTX)
    expected = Fraction(11, 2) * (elementary("ln", Fraction(6, 5), CTX)) - 1
    assert abs(got - expected) < Fraction(1, 1 << 230)


@pytest.mark.parametrize("n", [1, 5])
def test_mermin_partial_product_approaches_r_n(n):
    K = 10**4
    log_prod = mermin_partial_product(n, K, CTX)
    r_n = sequence_point(n, CTX).r_n
    gap = r_n - log_prod
    assert gap > 0  # partial products increase toward the full one
    assert gap <= Fraction(1, 12 * K)


def test_mermin_remainder_r3_envelope():
    # |r_n - R_3(n)| n^7 stays below the next-coefficient constant 1/1680
    for n in (5, 10, 40, 100):
        r_n = sequence_point(n, CTX).r_n
        diff = abs(r_n - remainder_R(n, 3, CTX))
        assert diff * Fraction(n) ** 7 <= Fraction(1, 1680)


def test_mermin_domain():
    with pytest.raises(DomainError):
        mermin_partial_product(5, 4, CTX)
    with pytest.raises(DomainError):
        mermin_partial_product(0, 5, CTX)
