"""Feller, Marsaglia, Namias and Mermin routes to the factorial."""

import hashlib
import math
from fractions import Fraction

import mpmath
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


# -- pinned Mermin values ------------------------------------------------------
#
# Hex of mermin_partial_product(n, K) as the term-by-term log1p loop produced
# it; any faster summation must reproduce every value exactly.

MERMIN_PINS = {
    (64, 1, 1): "0x1.45647e7756e6d036p-5",
    (64, 1, 1000): "0x1.4bafd087a89e93cap-4",
    (64, 1, 10000): "0x1.4bfe5f109503da94p-4",
    (64, 2, 2): "0x1.bfb39fbdf97bbd9p-7",
    (64, 2, 1000): "0x1.51fb2297fa56576p-5",
    (64, 2, 10000): "0x1.52983fa9d320e4fp-5",
    (64, 10, 10): "0x1.8cd3c7c7392b263cp-11",
    (64, 10, 1000): "0x1.0e3f7a90b401ace8p-7",
    (64, 10, 10000): "0x1.10b3eed8172be32cp-7",
    (64, 64, 64): "0x1.5012efdf5cb9f0c2p-16",
    (64, 64, 1000): "0x1.3f81cdcf32e6134p-10",
    (64, 64, 10000): "0x1.5325700a4c37c558p-10",
    (256, 1, 1):
        "0x1.45647e7756e6d035dab1ac80bd8e40dc2d9c97357ca22889e274612a300ee83cp-5",
    (256, 1, 1000):
        "0x1.4bafd087a89e93cad70c2237491f4f05df857a3ac9213009b688ea42f87f2d66p-4",
    (256, 1, 10000):
        "0x1.4bfe5f109503da93384dc3f5eabcc5a87c464f2f95685c52c75bc7ae643d0262p-4",
    (256, 2, 2):
        "0x1.bfb39fbdf97bbd90c3502c419aa7881c693fa01699cdb3606d8d727705ca38f4p-7",
    (256, 2, 1000):
        "0x1.51fb2297fa56575fd36697edd4b05d2f916e5d4015a037898a9d735bc0ef729p-5",
    (256, 2, 10000):
        "0x1.52983fa9d320e4f095e9db6b17eb4a74caf00729ae2e901bac432e32986b1c88p-5",
    (256, 10, 10):
        "0x1.8cd3c7c7392b263be4cbc78576db8c3ddf20ede55f39b2a32e75e28b217eec6ep-11",
    (256, 10, 1000):
        "0x1.0e3f7a90b401ace81ca907b3a31b5d888aa59344e4ddeffe1609f5f5dfaf8962p-7",
    (256, 10, 10000):
        "0x1.10b3eed8172be32b26b615a8b007129d70ac3aeb471752469ca0e1513d9e3142p-7",
    (256, 64, 64):
        "0x1.5012efdf5cb9f0c14de90d968c68b67183579602f70f38e000608014f8a0539ap-16",
    (256, 64, 1000):
        "0x1.3f81cdcf32e6133f87c8315ecd8ff37d50864cd27a7d56ebad4ccdc7aab188cep-10",
    (256, 64, 10000):
        "0x1.5325700a4c37c557d830a10734ed9c2480bb8a058c48692fe20428a29a26c7c4p-10",
    (256, 2, 10**5):
        "0x1.52a7f9c09984da7800911d76a96a5f9f62760e9383ced72a50078350e28b33fap-5",
}

# sha256 over the lines "n,K,hex\n" at 1024 bits, for the same (n, K) grid
MERMIN_1024_DIGEST = "e0dc14036e63c5b90a83bbcaaea42f7e24e4023d3fd36825bbdf2c5a5879052b"


@pytest.mark.parametrize("bits,n,K", sorted(MERMIN_PINS))
def test_mermin_hex_pinned(bits, n, K):
    got = mermin_partial_product(n, K, PrecisionCtx(bits)).to_hex()
    assert got == MERMIN_PINS[bits, n, K]


def test_mermin_hex_pinned_1024():
    h = hashlib.sha256()
    for n in (1, 2, 10, 64):
        for K in (n, 10**3, 10**4):
            got = mermin_partial_product(n, K, PrecisionCtx(1024)).to_hex()
            h.update(f"{n},{K},{got}\n".encode())
    assert h.hexdigest() == MERMIN_1024_DIGEST


def _mermin_reference(n, K, bits):
    """sum_{k=n..K} (k + 1/2) log1p(1/k) - 1 by mpmath at bits + 64."""
    with mpmath.workprec(bits + 64):
        half = mpmath.mpf(1) / 2
        return mpmath.fsum((k + half) * mpmath.log1p(mpmath.mpf(1) / k) - 1
                           for k in range(n, K + 1))


@pytest.mark.parametrize("bits", [64, 256, 1024])
@pytest.mark.parametrize("n,K", [(1, 1), (1, 2000), (2, 1000), (37, 2000),
                                 (2000, 2000)])
def test_mermin_within_one_ulp_of_mpmath(bits, n, K):
    got = mermin_partial_product(n, K, PrecisionCtx(bits))
    ref = _mermin_reference(n, K, bits)
    _, man, exp, bc = got.raw
    ulp = Fraction(2) ** (exp + bc - bits)
    ref_man, ref_exp = ref.man_exp
    assert abs(got - ref_man * Fraction(2) ** ref_exp) <= ulp
