"""Independent log-gamma references: integral, limit, product, exact."""

import hashlib
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from mpmath import libmp

import stirling.oracle
from stirling.bernoulli import bernoulli
from stirling.errors import DomainError, ResourceError
from stirling.mpcore import BigFloat, PrecisionCtx
from stirling.oracle import (OracleValue, _multiplication_residual, check_duplication,
                             check_multiplication,
                             euler_gamma, gamma_half_integer,
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


def _exact(value) -> Fraction:
    return Fraction(*libmp.to_rational(value.raw))


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
    (Fraction(1), 64, "-0x1.61247ep-106", "0x1.2c3a796fb96a310ep-95"),
    (Fraction(50), 128, "0x1.2121a930c6ec2ad0647f0cf9d3d873f8p+7",
     "0x1.0000000026f075d451abea9a9af0be1p-121"),
    (Fraction(1, 1000), 256,
     "0x1.ba0f3807161ac560fa2d37ed267206c9497701c876f9327cb9b37b27c51d6172p+2",
     "0x1.0000000228c840a1413ffbddab2023c525a5a8p-254"),
]


@pytest.mark.parametrize("z, bits, value_hex, bound_hex", BINET2_PINNED,
                         ids=[f"{z}-{bits}" for z, bits, _, _ in BINET2_PINNED])
def test_binet2_pinned_bits(z, bits, value_hex, bound_hex):
    ov = lngamma_binet2(z, PrecisionCtx(bits))
    assert ov.value.to_hex() == value_hex
    assert ov.error_bound.to_hex() == bound_hex


def _binet2_digest_sample():
    """(bits, z) pairs: seeded z with log10 z spread over [-6, 12) at 64,
    256 and 768 bits, plus z = 1, 3/4 and 1 + 2^-60 (the shift and its edge)
    and z = 10^30 at 64 and 256 bits."""
    rng = random.Random(20061)
    sample = []
    for bits, count in ((64, 40), (256, 40), (768, 4)):
        for _ in range(count):
            mantissa = Fraction(rng.randrange(10**9, 10**10), 10**9)
            sample.append((bits, mantissa * Fraction(10) ** rng.randrange(-6, 12)))
    for bits in (64, 256):
        for z in (Fraction(1), Fraction(3, 4), 1 + Fraction(1, 2**60), Fraction(10**30)):
            sample.append((bits, z))
    return sample


# sha256 over the lines "bits,z,value_hex,bound_hex,divisions\n" of that sample
BINET2_SAMPLE_DIGEST = "599d3a441ddb20eb7e1188e1f1c8f811a202c8f7e7bdb6c29184abd7d7273b21"


def test_binet2_sample_digest():
    h = hashlib.sha256()
    for bits, z in _binet2_digest_sample():
        ov = lngamma_binet2(z, PrecisionCtx(bits))
        h.update(f"{bits},{z},{ov.value.to_hex()},{ov.error_bound.to_hex()},"
                 f"{ov.diagnostics['divisions']}\n".encode())
    assert h.hexdigest() == BINET2_SAMPLE_DIGEST


def _binet2_value_sample():
    """(bits, z) pairs: seeded z with log10 z spread over [-6, 12) at 64,
    256 and 768 bits, and at each the zeros of ln Gamma, 1 and 2, the
    arguments 2^-60 and 2^-50 either side of them, and 10^6/7."""
    rng = random.Random(20063)
    fixed = (Fraction(1), Fraction(2), 1 - Fraction(1, 2**60), 1 + Fraction(1, 2**60),
             2 - Fraction(1, 2**50), 2 + Fraction(1, 2**50), Fraction(10**6, 7))
    sample = []
    for bits, count in ((64, 24), (256, 24), (768, 8)):
        for _ in range(count):
            mantissa = Fraction(rng.randrange(10**9, 10**10), 10**9)
            sample.append((bits, mantissa * Fraction(10) ** rng.randrange(-6, 12)))
        sample += [(bits, z) for z in fixed]
    return sample


# sha256 over the lines "bits,z,value_hex,bound_hex\n" of that sample: the
# published values and bounds alone, which no change to how the sum is
# split between divisions and moments may move
BINET2_VALUE_DIGEST = "a35a4e0b7513e5c2f3c01d72149b0215a889318038006c23b4438401e0f5254b"


def test_binet2_values_and_bounds_digest():
    h = hashlib.sha256()
    for bits, z in _binet2_value_sample():
        ov = lngamma_binet2(z, PrecisionCtx(bits))
        h.update(f"{bits},{z},{ov.value.to_hex()},{ov.error_bound.to_hex()}\n".encode())
    assert h.hexdigest() == BINET2_VALUE_DIGEST


def assert_binet2_within_bound(z: Fraction, bits: int):
    """|value - loggamma(z)| <= error_bound, loggamma at bits + 64."""
    ov = lngamma_binet2(z, PrecisionCtx(bits))
    with mpmath.workprec(bits + 64):
        ref = mpmath.loggamma(mpmath.mpf(z.numerator) / z.denominator)
    ref = Fraction(*libmp.to_rational(ref._mpf_))
    assert abs(_exact(ov.value) - ref) <= _exact(ov.error_bound), (z, bits)


# z log-uniform over [1e-6, 1e30]: every float is an exact Fraction
@settings(max_examples=30, deadline=None)
@given(log10_z=st_.floats(min_value=-6, max_value=30),
       bits=st_.sampled_from([64, 80, 128, 192, 256]))
def test_binet2_error_bound_is_an_upper_bound(log10_z, bits):
    assert_binet2_within_bound(Fraction(10.0 ** log10_z), bits)


@pytest.mark.parametrize("bits", [512, 1024])
@pytest.mark.parametrize("z", [Fraction(1, 10**6), Fraction(1), Fraction(10**30)])
def test_binet2_error_bound_is_an_upper_bound_at_high_precision(z, bits):
    assert_binet2_within_bound(z, bits)


# below 1 the integral is taken at z + 1; taken at z itself, the
# integral at 1e-30 would need ever more levels
@pytest.mark.parametrize("z, bits", [
    (Fraction(1, 10**30), 64), (Fraction(1, 10**400), 64),
    (Fraction(1, 10**30), 256),
    (Fraction(1, 8), 64), (Fraction(1, 8) - Fraction(1, 2**60), 64),
])
def test_binet2_small_z_within_bound(z, bits):
    assert_binet2_within_bound(z, bits)


# both sides of the shift threshold z = 1 (and of the former 1/8), at
# 768 bits too, the precision of the oracle benchmark; and next to the
# zeros of ln Gamma at 1 and 2, where the value is far smaller than P(z)
# and the integral whose sum it is
SHIFT_EDGE = [Fraction(1, 8), Fraction(1, 2), 1 - Fraction(1, 2**60),
              Fraction(1), 1 + Fraction(1, 2**60), Fraction(2)]
NEAR_ZEROS = [2 - Fraction(1, 2**50), 2 + Fraction(1, 2**50), 1 + Fraction(1, 2**45)]
AROUND_THE_SHIFT = ([(z, bits) for bits in (64, 256, 768) for z in SHIFT_EDGE]
                    + [(z, bits) for bits in (64, 128) for z in NEAR_ZEROS])


@pytest.mark.parametrize("z, bits", AROUND_THE_SHIFT,
                         ids=[f"{z}-{bits}" for z, bits in AROUND_THE_SHIFT])
def test_binet2_within_bound_around_the_shift(z, bits):
    assert_binet2_within_bound(z, bits)


def test_binet2_shift_is_consistent_at_small_z():
    # ln Gamma(z + 1) - ln Gamma(z) - ln z = 0 within both bounds
    z = Fraction(1, 1000)
    small, big = lngamma_binet2(z, CTX), lngamma_binet2(z + 1, CTX)
    with mpmath.workprec(CTX.bits + 64):
        ln_z = Fraction(*libmp.to_rational(mpmath.log(mpmath.mpf(z.numerator)
                                                      / z.denominator)._mpf_))
    resid = _exact(big.value) - _exact(small.value) - ln_z
    assert abs(resid) <= (_exact(small.error_bound) + _exact(big.error_bound)
                          + Fraction(1, 2**300))


BINET2_PARTS = ["discretisation", "truncation", "node_error", "rounding", "final_rounding"]


@pytest.mark.parametrize("z, bits, step_m", [
    (Fraction(1), 64, 12), (Fraction(1, 1000), 256, 34), (Fraction(10**6), 768, 93),
])
def test_binet2_diagnostics_parts_add_up_to_at_most_the_bound(z, bits, step_m):
    ov = lngamma_binet2(z, PrecisionCtx(bits))
    diag = ov.diagnostics
    assert set(diag) == {"step_m", "strip_d", "nodes", "divisions", *BINET2_PARTS}
    assert 0 < diag["divisions"] < diag["nodes"]
    assert diag["step_m"] == step_m and diag["strip_d"] == Fraction(19, 20)
    assert diag["nodes"] > 5 * step_m
    assert all(diag[name] > 0 for name in BINET2_PARTS)
    assert sum(_exact(diag[name]) for name in BINET2_PARTS) <= _exact(ov.error_bound)
    # the record takes no part in comparisons, and the exact factorial has none
    assert ov == OracleValue(ov.value, ov.method, ov.error_bound)
    assert ln_factorial_exact(5, CTX).diagnostics is None


def _ulp_of_max_one(value: BigFloat, bits: int) -> Fraction:
    """One ulp at ``bits`` of max(|value|, 1): 2^(mag - bits) for the mag
    with 2^(mag - 1) <= max(|value|, 1) < 2^mag."""
    scale = max(abs(_exact(value)), Fraction(1))
    mag = scale.numerator.bit_length() - scale.denominator.bit_length() + 1
    if Fraction(2) ** (mag - 1) > scale:
        mag -= 1
    return Fraction(2) ** (mag - bits)


# the bound is the final rounding's half ulp plus parts far below it: at
# most 16 ulp of max(|value|, 1) across the range of z
@pytest.mark.parametrize("bits", [128, 256, 768])
def test_binet2_error_bound_within_16_ulp(bits):
    for log10_z in range(-6, 31, 3):
        ov = lngamma_binet2(Fraction(10) ** log10_z, PrecisionCtx(bits))
        assert _exact(ov.error_bound) <= 16 * _ulp_of_max_one(ov.value, bits), log10_z


# the assembly's part, tracked by mpcore._Ball at wp = bits + 64, is the
# half ulp of the rounding to bits and roundings far below it, also next
# to the zeros of ln Gamma and on both sides of the shift
@pytest.mark.parametrize("bits", [64, 128, 256, 768])
def test_binet2_final_rounding_within_one_ulp(bits):
    for z in (Fraction(1, 10**6), Fraction(1, 3), 1 - Fraction(1, 2**60), *SHIFT_EDGE[3:],
              *NEAR_ZEROS, Fraction(22, 7), Fraction(10**6), Fraction(10**30)):
        ov = lngamma_binet2(z, PrecisionCtx(bits))
        final = _exact(ov.diagnostics["final_rounding"])
        assert 0 < final <= _ulp_of_max_one(ov.value, bits), z


# the bound's bits: the roundings of n! to wp and of its log, and the
# half ulp of the rounding to bits
@pytest.mark.parametrize("n, bits, bound_hex", [
    (12, 64, "0x1.0000000211eed8fp-60"),
    (10**4, 256, "0x1.000000020001cfaf0532f52d6635p-240"),
])
def test_ln_factorial_bound_pinned_bits(n, bits, bound_hex):
    assert ln_factorial_exact(n, PrecisionCtx(bits)).error_bound.to_hex() == bound_hex


@pytest.mark.parametrize("bits", [64, 256])
def test_ln_factorial_bound_within_one_ulp(bits):
    for n in (2, 3, 12, 100, 10**4):
        ov = ln_factorial_exact(n, PrecisionCtx(bits))
        with mpmath.workprec(bits + 64):
            ref = Fraction(*libmp.to_rational(mpmath.log(mpmath.factorial(n))._mpf_))
        assert abs(_exact(ov.value) - ref) <= _exact(ov.error_bound), n
        assert _exact(ov.error_bound) <= _ulp_of_max_one(ov.value, bits), n


def test_binet2_error_bound_at_one_no_looser_at_64_bits():
    # the value is 0, so the quadrature parts are all of the bound; the
    # former tanh-sinh rule published 0x1.9084e27905ae4088p-88 here
    bound = lngamma_binet2(1, PrecisionCtx(64)).error_bound
    assert _exact(bound) <= _exact(BigFloat.from_hex("0x1.9084e27905ae4088p-88"))


def test_binet2_shared_values_once_per_exact_argument_and_precision(monkeypatch):
    # inside the block a Fraction and a BigFloat of the same value
    # share one evaluation per precision; outside it every call evaluates
    real = stirling.oracle._binet_integral
    calls = []

    def counting(z_raw, bits):
        calls.append(bits)
        return real(z_raw, bits)

    monkeypatch.setattr(stirling.oracle, "_binet_integral", counting)
    ctx = PrecisionCtx(64)
    with stirling.oracle._shared_values():
        first = lngamma_binet2(Fraction(5, 2), ctx)
        assert lngamma_binet2(BigFloat(libmp.from_rational(5, 2, 64), 64), ctx) is first
        assert lngamma_binet2(Fraction(5, 3), ctx) is not first
        assert lngamma_binet2(Fraction(5, 2), PrecisionCtx(80)) is not first
        assert calls == [64, 64, 80]
    again = lngamma_binet2(Fraction(5, 2), ctx)
    assert calls == [64, 64, 80, 64]
    assert again == first and again is not first


@pytest.mark.parametrize("z", [Fraction(1, 10**6), Fraction(1, 8),
                               1 - Fraction(1, 2**60), Fraction(1)], ids=str)
def test_binet_integral_sees_only_z_at_least_one(z, monkeypatch):
    # the moment series that sums the nodes with t < 1/8 as one series in 1/z
    # holds for z >= 1 only; lngamma_binet2 shifts every smaller z first
    real = stirling.oracle._binet_integral
    seen = []

    def spy(z_raw, bits):
        seen.append(z_raw)
        return real(z_raw, bits)

    monkeypatch.setattr(stirling.oracle, "_binet_integral", spy)
    lngamma_binet2(z, CTX)
    assert len(seen) == 1 and libmp.mpf_ge(seen[0], libmp.fone)


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


def test_euler_limit_takes_one_product_pass(count_calls):
    # one running product to z + n: n + 1 factors, z ln n, and a handful of
    # products for the bracket and its rounding; no L(2n)
    muls = count_calls("mpf_mul")["mpf_mul"]
    n = 100
    lngamma_euler_limit(Fraction(22, 7), n, CTX)
    assert muls[0] <= n + 8


def _mp_reference(fn, z: Fraction, bits: int) -> Fraction:
    with mpmath.workprec(bits + 64):
        ref = fn(mpmath.mpf(z.numerator) / z.denominator)
    return Fraction(*libmp.to_rational(ref._mpf_))


# z = 10n and 100n included: there the former 3 |L(n) - L(2n)| fell short
@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("z, n", [
    (Fraction(1, 10**6), 2), (Fraction(1, 3), 10), (Fraction(22, 7), 1000),
    (Fraction(100), 10), (Fraction(1000), 10), (Fraction(10**4), 100), (Fraction(10**5), 1000),
    (Fraction(10**8), 1000), (Fraction(355, 113), 2),
], ids=str)
def test_euler_limit_error_bound_is_an_upper_bound(z, n, bits):
    ov = lngamma_euler_limit(z, n, PrecisionCtx(bits))
    ref = _mp_reference(mpmath.loggamma, z, bits)
    assert abs(_exact(ov.value) - ref) <= _exact(ov.error_bound)
    diag = ov.diagnostics
    assert set(diag) == {"n", "bracket_lo", "bracket_hi", "rounding"} and diag["n"] == n
    # the outward bracket holds ln Gamma(z) - L(n), its rounding aside
    gap = ref - _exact(ov.value)
    slack = _exact(diag["rounding"])
    assert _exact(diag["bracket_lo"]) - slack <= gap <= _exact(diag["bracket_hi"]) + slack
    reach = max(abs(_exact(diag["bracket_lo"])), abs(_exact(diag["bracket_hi"])))
    assert _exact(ov.error_bound) <= (reach + slack) * (1 + Fraction(2, 2**bits))


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("z, K", [
    (Fraction(1, 10**6), 1), (Fraction(1, 2), 1000), (Fraction(22, 7), 10),
    (Fraction(10), 1000), (Fraction(1000), 100), (1 + Fraction(1, 10**30), 3),
], ids=str)
def test_weierstrass_error_bound_is_an_upper_bound(z, K, bits):
    ov = weierstrass_inv_gamma(z, K, PrecisionCtx(bits))
    ref = _mp_reference(mpmath.rgamma, z, bits)
    assert abs(_exact(ov.value) - ref) <= _exact(ov.error_bound)
    diag = ov.diagnostics
    assert set(diag) == {"K", "tail", "rounding"} and diag["K"] == K
    assert _exact(diag["tail"]) + _exact(diag["rounding"]) <= _exact(ov.error_bound)


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


def test_weierstrass_past_the_term_cap_fails_fast():
    with pytest.raises(ResourceError, match="term cap"):
        weierstrass_inv_gamma(2, stirling.oracle.TERMS_CAP + 1, CTX)


@pytest.mark.parametrize("bits", [64, 256])
def test_weierstrass_bound_scales_with_a_tiny_value(bits):
    # the value is about 2^-3305: its rounding part stays within an ulp of
    # it, and the bound is the tail part z^2/(2K) W, as for any other value
    ov = weierstrass_inv_gamma(1000, 10, PrecisionCtx(bits))
    value = _exact(ov.value)
    assert 0 < value < Fraction(1, 2**3300)
    assert _exact(ov.diagnostics["rounding"]) < value * Fraction(2, 2**bits)
    assert _exact(ov.error_bound) < value * Fraction(1000**2, 2 * 10) * (1 + Fraction(1, 2**50))


def test_weierstrass_tail_halves_when_K_doubles():
    g1 = weierstrass_inv_gamma(2, 2000, CTX)
    g2 = weierstrass_inv_gamma(2, 4000, CTX)
    from stirling.mpcore import elementary
    # -ln value -> ln Gamma(2) = 0; gaps scale like 1/K
    gap1 = abs(elementary("ln", g1.value, CTX))
    gap2 = abs(elementary("ln", g2.value, CTX))
    ratio = gap2 / gap1
    assert Fraction(2, 5) < ratio < Fraction(3, 5)


def test_weierstrass_hex_pinned():
    pinned = {
        256: ("0x1.20de61a3e5fba404edf6b87b10e26af3843027bf6f8dbc38dfd4f4d1612f7298p-1",
              "0x1.d9484e0dc28837be000000000000000000000000000000000000000000020002p-18"),
        622: ("0x1.20de61a3e5fba404edf6b87b10e26af3843027bf6f8dbc38dfd4f4d1612f7297"
              "201d7c22779385b7c94b6d9744f1949f706a23863f638bbe03d63bc7cbc905b59a95"
              "313762f52474e36687e0fbbp-1",
              "0x1.d9484e0dc28837be000000000000000000000000000000000000000000000000"
              "000000000000000000000000000000000000000000000000000000000000000000000"
              "00000000000000000080008p-18"),
    }
    for bits, (value, bound) in pinned.items():
        ov = weierstrass_inv_gamma(Fraction(1, 2), 10**4, PrecisionCtx(bits))
        assert (ov.value.to_hex(), ov.error_bound.to_hex()) == (value, bound)


def test_weierstrass_product_exact_to_1024_bits():
    # with K = 3 the value is the finite product z e^(gamma z) prod (1 + z/n)
    # e^(-z/n) itself; computed here at 1200 bits, it must agree to the
    # last few ulp of a 1024-bit result (no 670-bit cap on the working bits)
    ov = weierstrass_inv_gamma(1, 3, PrecisionCtx(1024))
    with mpmath.workprec(1200):
        ref = mpmath.exp(mpmath.euler - mpmath.mpf(11) / 6) * 4
        ref = Fraction(*libmp.to_rational(ref._mpf_))
    assert abs(_exact(ov.value) - ref) <= Fraction(4, 2**1023)


# -- functional equations -------------------------------------------------------


@pytest.mark.parametrize("z", [1, Fraction(73, 10), Fraction(1, 2)])
def test_duplication_residual_tiny(z):
    resid = check_duplication(z, CTX)
    signed, proven = _multiplication_residual(2, z, CTX)
    assert resid == abs(signed) <= proven
    assert proven <= 3 * lngamma_binet2(z, CTX).error_bound + Fraction(1, 10**60)


def test_multiplication_m2_matches_duplication(monkeypatch):
    # one code path: the order-2 residual, from the Binet values at 2z, z, z + 1/2
    args = []

    def spy(x, ctx):
        args.append(_exact(x))
        return lngamma_binet2(x, ctx)

    monkeypatch.setattr(stirling.oracle, "lngamma_binet2", spy)
    for z in (1, Fraction(5, 2)):
        args.clear()
        r_dup = check_duplication(z, CTX)
        assert args == [2 * z, z, z + Fraction(1, 2)]
        assert r_dup.to_hex() == check_multiplication(2, z, CTX).to_hex()


@pytest.mark.parametrize("z", [2, Fraction(1, 3)])
def test_multiplication_m3_residual_tiny(z):
    resid = check_multiplication(3, z, CTX)
    signed, proven = _multiplication_residual(3, z, CTX)
    assert resid == abs(signed) <= proven
    assert proven <= 4 * lngamma_binet2(z, CTX).error_bound + Fraction(1, 10**55)


@settings(max_examples=12, deadline=None)
@given(m=st_.sampled_from([2, 3, 5]), log10_z=st_.floats(min_value=-3, max_value=6),
       bits=st_.sampled_from([64, 128, 192, 256]))
def test_multiplication_residual_within_its_proven_bound(m, log10_z, bits):
    z = Fraction(10 ** log10_z)
    ctx = PrecisionCtx(bits)
    signed, proven = _multiplication_residual(m, z, ctx)
    assert abs(signed) == check_multiplication(m, z, ctx) <= proven


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


# Euler-Maclaurin for the harmonic numbers, independent of the
# Brent-McMillan kernel: gamma = H_n - ln n - 1/(2n) + sum B_2k/(2k n^2k).
# The remainder after k = K is smaller than the first omitted term.
EM_N, EM_K, EM_BITS = 1000, 128, 1088


def em_gamma_reference() -> Fraction:
    n = EM_N
    s = sum(Fraction(1, k) for k in range(1, n + 1)) - Fraction(1, 2 * n)
    s += sum(bernoulli(2 * k) / (2 * k * n ** (2 * k)) for k in range(1, EM_K + 1))
    ln_n = libmp.mpf_log(libmp.from_int(n), EM_BITS, "n")
    return s - Fraction(*libmp.to_rational(ln_n))


def test_euler_gamma_past_670_bits_matches_euler_maclaurin():
    k = EM_K + 1
    assert abs(bernoulli(2 * k)) / (2 * k * EM_N ** (2 * k)) < Fraction(1, 2**1500)
    g = euler_gamma(PrecisionCtx(1024))
    assert g.ctx_bits == 1024
    # gamma lies in [1/2, 1), where one ulp at 1024 bits is 2^-1024
    assert abs(_exact(g) - em_gamma_reference()) <= Fraction(2, 2**1024)


def test_euler_gamma_hex_pinned():
    pinned = {
        64: "0x1.2788cfc6fb618f4ap-1",
        256: "0x1.2788cfc6fb618f49a37c7f0202a596ad439d9875ecb980321807be68e135ff7cp-1",
        654: "0x1.2788cfc6fb618f49a37c7f0202a596ad439d9875ecb980321807be68e135ff7"
             "b1c96b3f40753e1dda0c93996c420afa220ad5d226426b411c8768ce7ae975fd4b1"
             "bd70f1990dae67b7cf7e702a966d9f153p-1",
    }
    for bits, hex_ in pinned.items():
        assert euler_gamma(PrecisionCtx(bits)).to_hex() == hex_


def test_euler_gamma_value():
    g = euler_gamma(CTX)
    assert abs(g - Fraction("0.57721566490153286061")) < Fraction(1, 10**19)
