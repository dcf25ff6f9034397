"""Independent log-gamma references: integral, limit, product, exact."""

import math
from fractions import Fraction

import mpmath
import pytest

from stirling.errors import DomainError, ResourceError
from stirling.mpcore import PrecisionCtx
from stirling.oracle import (check_duplication, check_multiplication,
                             euler_gamma, euler_gamma_info, gamma_half_integer,
                             ln_factorial_exact, lngamma_binet2,
                             lngamma_euler_limit, weierstrass_inv_gamma)

CTX = PrecisionCtx(256)
CTX128 = PrecisionCtx(128)

HALF_LN_PI = Fraction(
    "0.5723649429247000870717136756765293558236474064576557857568115357360689")


def mp_loggamma(q, dps=90) -> Fraction:
    q = Fraction(q)
    with mpmath.workdps(dps):
        z = mpmath.mpf(q.numerator) / q.denominator
        return Fraction(mpmath.nstr(mpmath.loggamma(z), 70, strip_zeros=False))


# -- exact factorials -------------------------------------------------------


def test_ln_factorial_zero_and_one():
    assert ln_factorial_exact(0, CTX).value.is_zero()
    assert ln_factorial_exact(1, CTX).value.is_zero()


def test_ln_factorial_twelve():
    ov = ln_factorial_exact(12, CTX)
    ref = Fraction(mpmath.nstr(mpmath.mp.mpf(479001600), 15))
    with mpmath.workdps(60):
        ref = Fraction(mpmath.nstr(mpmath.log(479001600), 50, strip_zeros=False))
    assert abs(ov.value - ref) < Fraction(1, 10**45)
    assert ov.method == "exact_factorial"


def test_ln_factorial_cap():
    with pytest.raises(ResourceError):
        ln_factorial_exact(10**5 + 1, CTX)
    with pytest.raises(DomainError):
        ln_factorial_exact(-1, CTX)


# -- Binet integral ---------------------------------------------------------


def test_binet2_at_one_is_zero_within_bound():
    ov = lngamma_binet2(1, CTX)
    assert abs(ov.value) <= ov.error_bound
    assert ov.method == "binet2"


def test_binet2_at_half_is_half_ln_pi():
    ov = lngamma_binet2(Fraction(1, 2), CTX)
    assert abs(ov.value - HALF_LN_PI) <= ov.error_bound + Fraction(1, 10**60)


def test_binet2_at_20_5_against_recurrence_ladder():
    # Gamma(20.5) = sqrt(pi) * prod_{j=0..19} (j + 1/2): exact rational times
    # sqrt(pi), via the functional equation descent from Gamma(1/2)
    prod = Fraction(1)
    for j in range(20):
        prod *= Fraction(2 * j + 1, 2)
    with mpmath.workdps(90):
        ref = Fraction(mpmath.nstr(
            mpmath.log(prod.numerator) - mpmath.log(prod.denominator)
            + mpmath.log(mpmath.pi) / 2, 70, strip_zeros=False))
    ov = lngamma_binet2(Fraction(41, 2), CTX)
    assert abs(ov.value - ref) <= ov.error_bound + Fraction(1, 10**60)


@pytest.mark.parametrize("n", [2, 3, 7, 13, 29, 50])
def test_binet2_agrees_with_exact_factorials(n):
    ov = lngamma_binet2(n, CTX)
    exact = ln_factorial_exact(n - 1, CTX)
    assert abs(ov.value - exact.value) <= Fraction(1, 10**30)
    assert abs(ov.value - exact.value) <= ov.error_bound + exact.error_bound


def test_exact_factorial_100_matches_binet2_101():
    exact = ln_factorial_exact(100, CTX)
    ov = lngamma_binet2(101, CTX)
    assert abs(ov.value - exact.value) <= Fraction(1, 10**30)


def test_binet2_error_bound_is_honest_at_small_z():
    for z in (Fraction(3, 10), Fraction(1, 4)):
        ov = lngamma_binet2(z, CTX)
        ref = mp_loggamma(z)
        assert abs(ov.value - ref) <= ov.error_bound + Fraction(1, 10**55)


# published bits of value and error bound: a change to the quadrature loop,
# its node tables or its rounding that moves any of them is a visible change
BINET2_PINNED = [
    (Fraction(1), 64, "-0x1.26ca67a8p-101", "0x1.1859fc9e8cf4bb7cp-98"),
    (Fraction(50), 128, "0x1.2121a930c6ec2ad0647f0cf9d3d873f8p+7",
     "0x1.0000000000006aa4f0c250c50dca41p-117"),
    (Fraction(1, 1000), 256,
     "0x1.ba0f3807161ac560fa2d37ed267206c9497701c876f9327cb9b37b27c51d6172p+2",
     "0x1.0000000012f37b10571aa5145561114a00e4c8f3584e90c3fbc2dfc26cd6d30ap-250"),
]


@pytest.mark.parametrize("z, bits, value_hex, bound_hex", BINET2_PINNED)
def test_binet2_pinned_bits(z, bits, value_hex, bound_hex):
    ov = lngamma_binet2(z, PrecisionCtx(bits))
    assert ov.value.to_hex() == value_hex
    assert ov.error_bound.to_hex() == bound_hex


def test_binet2_domain():
    with pytest.raises(DomainError):
        lngamma_binet2(0, CTX)
    with pytest.raises(DomainError):
        lngamma_binet2(-2, CTX)


# -- Euler limit -------------------------------------------------------------


def test_euler_limit_direct_substitution_small_n():
    # n=2, z=1: ln(2! * 2 / (1*2*3)) = ln(2/3)
    ov = lngamma_euler_limit(1, 2, CTX)
    with mpmath.workdps(60):
        ref = Fraction(mpmath.nstr(mpmath.log(mpmath.mpf(2) / 3), 50,
                                   strip_zeros=False))
    assert abs(ov.value - ref) < Fraction(1, 10**40)


def test_euler_limit_convergence_rate_at_one():
    ov = lngamma_euler_limit(1, 10**4, CTX)
    # value is exactly ln(n/(n+1)) ~ -1e-4 for z=1
    assert abs(ov.value) <= Fraction(1, 10**4)
    assert abs(ov.value) >= Fraction(9, 10**5)


def test_euler_limit_monotone_toward_ln2():
    vals = [lngamma_euler_limit(3, n, CTX).value for n in (100, 200, 400)]
    ln2 = Fraction("0.6931471805599453094172321214581765680755")
    assert vals[0] < vals[1] < vals[2] < ln2 + Fraction(1, 10**30)
    gaps = [abs(v - ln2) for v in vals]
    assert gaps[0] > gaps[1] > gaps[2]


def test_euler_limit_error_bound_honest():
    ov = lngamma_euler_limit(Fraction(5, 2), 1000, CTX)
    ref = mp_loggamma(Fraction(5, 2))
    assert abs(ov.value - ref) <= ov.error_bound


@pytest.mark.parametrize("z", [Fraction(1, 2), 1, Fraction(5, 2), 10])
def test_cross_oracle_binet_vs_euler_limit(z):
    b = lngamma_binet2(z, CTX)
    e = lngamma_euler_limit(z, 10**5, CTX)
    assert abs(b.value - e.value) <= e.error_bound


# -- Weierstrass product -------------------------------------------------------


def test_weierstrass_at_one():
    ov = weierstrass_inv_gamma(1, 10**4, CTX)
    assert abs(ov.value - 1) <= ov.error_bound
    assert ov.method == "weierstrass"


def test_weierstrass_at_half_vs_inverse_sqrt_pi():
    ov = weierstrass_inv_gamma(Fraction(1, 2), 10**4, CTX)
    with mpmath.workdps(60):
        ref = Fraction(mpmath.nstr(1 / mpmath.sqrt(mpmath.pi), 50,
                                   strip_zeros=False))
    assert abs(ov.value - ref) <= Fraction(1, 10**4)
    assert abs(ov.value - ref) <= ov.error_bound


def test_weierstrass_tail_halves_when_K_doubles():
    g1 = weierstrass_inv_gamma(2, 2000, CTX)
    g2 = weierstrass_inv_gamma(2, 4000, CTX)
    from stirling.mpcore import elementary
    # -ln value -> ln Gamma(2) = 0; gaps scale like 1/K
    gap1 = abs(elementary("ln", g1.value, CTX))
    gap2 = abs(elementary("ln", g2.value, CTX))
    ratio = gap2 / gap1
    assert Fraction(2, 5) < ratio < Fraction(3, 5)


# -- functional equations -------------------------------------------------------


@pytest.mark.parametrize("z", [1, Fraction(73, 10), Fraction(1, 2)])
def test_duplication_residual_tiny(z):
    resid = check_duplication(z, CTX)
    bound = lngamma_binet2(z, CTX).error_bound
    assert resid <= 3 * bound + Fraction(1, 10**60)


def test_multiplication_m2_matches_duplication():
    for z in (1, Fraction(5, 2)):
        r_dup = check_duplication(z, CTX)
        r_mul = check_multiplication(2, z, CTX)
        assert abs(r_dup - r_mul) <= Fraction(1, 10**60)


@pytest.mark.parametrize("z", [2, Fraction(1, 3)])
def test_multiplication_m3_residual_tiny(z):
    resid = check_multiplication(3, z, CTX)
    bound = lngamma_binet2(z, CTX).error_bound
    assert resid <= 4 * bound + Fraction(1, 10**55)


def test_multiplication_rejects_bad_order():
    with pytest.raises(DomainError):
        check_multiplication(6, 1, CTX)


# -- half-integer gamma -------------------------------------------------------


def test_gamma_half_integer_values():
    from stirling.mpcore import elementary, pi
    assert gamma_half_integer(2, CTX) == 1
    sqrt_pi = elementary("sqrt", pi(CTX), CTX)
    assert abs(gamma_half_integer(1, CTX) - sqrt_pi) <= Fraction(1, 1 << 240)
    assert abs(gamma_half_integer(5, CTX) - sqrt_pi * Fraction(3, 4)) \
        <= Fraction(1, 1 << 240)
    assert gamma_half_integer(8, CTX) == math.factorial(3)


def test_gamma_half_integer_guard():
    with pytest.raises(ResourceError):
        gamma_half_integer(2 * 10**4 + 1, CTX)
    with pytest.raises(DomainError):
        gamma_half_integer(0, CTX)


# -- Euler's constant ----------------------------------------------------------


def test_euler_gamma_self_check_residual():
    info = euler_gamma_info()
    assert abs(info.self_check_residual) < 1e-11
    assert len(info.decimal_literal.split(".")[1]) >= 128


def test_euler_gamma_literal_cross_check():
    with mpmath.workdps(220):
        ref = mpmath.nstr(mpmath.euler, 200, strip_zeros=False)
    got = euler_gamma_info().decimal_literal
    assert got[:150] == ref[:150]


def test_euler_gamma_value():
    g = euler_gamma(CTX)
    assert abs(g - Fraction("0.57721566490153286061")) < Fraction(1, 10**19)
