"""Truncated log-gamma series: main term, remainders, truncation control."""

import itertools
import math
import sys
import threading
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from mpmath import libmp

import stirling.series
from stirling.bernoulli import BernoulliTable
from stirling.errors import DomainError, ResourceError
from stirling.mpcore import PrecisionCtx, bigfloat, elementary
from stirling.series import (f_term, half_ln_2pi, ln_factorial_stirling,
                             lngamma_stirling, main_term_P, optimal_truncation,
                             remainder_R, stirling_original_log10,
                             term_coefficient)

CTX = PrecisionCtx(256)

HALF_LN_2PI = Fraction(
    "0.9189385332046727417803297364056176398613974736377834128171515404827657")
HALF_LN_PI = Fraction(
    "0.5723649429247000870717136756765293558236474064576557857568115357360689")
TIGHT = Fraction(1, 1 << 248)


def mp_ref(expr_fn, dps=60):
    """Reference values from the high-level mpmath context (independent
    code path from the raw-kernel implementations under test)."""
    with mpmath.workdps(dps):
        return Fraction(mpmath.nstr(expr_fn(), 50, strip_zeros=False))


def test_half_ln_2pi_matches_literal():
    assert abs(half_ln_2pi(CTX) - HALF_LN_2PI) < Fraction(1, 10**60)


def test_main_term_at_one():
    # P(1) = -1 + (1/2) ln(2 pi); tolerance set by the 70-digit literal
    assert abs(main_term_P(1, CTX) - (HALF_LN_2PI - 1)) < Fraction(1, 10**68)


def test_main_term_at_two_direct_substitution():
    ref = mp_ref(lambda: 2 * mpmath.log(2) - 2 - mpmath.log(2) / 2
                 + mpmath.log(2 * mpmath.pi) / 2)
    assert abs(main_term_P(2, CTX) - ref) < Fraction(1, 10**45)


def test_main_term_gap_to_ln_9_factorial():
    # ln Gamma(10) - P(10) ~ first correction term 1/120 ~ 8.33e-3
    ln9f = mp_ref(lambda: mpmath.log(362880))
    gap = abs(main_term_P(10, CTX) - ln9f)
    assert Fraction(82, 10**4) < gap < Fraction(84, 10**4)


def test_remainder_base_case_is_zero():
    assert remainder_R(7, 0, CTX).is_zero()
    assert remainder_R(Fraction(1, 3), 0, CTX).is_zero()


def test_remainder_exact_low_orders():
    assert abs(remainder_R(1, 1, CTX) - Fraction(1, 12)) < TIGHT
    # at z=2: 1/24 - 1/2880
    assert abs(remainder_R(2, 2, CTX) - (Fraction(1, 24) - Fraction(1, 2880))) < TIGHT


@pytest.mark.parametrize("z", [Fraction(1, 2), 1, 2, 10])
def test_remainder_telescopes_term_by_term(z):
    for N in range(1, 41):
        diff = remainder_R(z, N, CTX) - remainder_R(z, N - 1, CTX)
        term = f_term(2 * N, z, CTX)
        scale = max(abs(remainder_R(z, N, CTX)), abs(term), bigfloat(1, CTX))
        assert abs(diff - term) <= scale * Fraction(4, 1 << 256)


def test_f_term_cases():
    e = elementary("exp", 1, CTX)
    assert abs(f_term(1, e, CTX) + Fraction(1, 2)) < Fraction(1, 1 << 240)
    assert f_term(3, 5, CTX).is_zero()
    assert f_term(7, Fraction(1, 4), CTX).is_zero()
    # f_2(1) must equal R_1(1) - R_0(1) = 1/12
    assert abs(f_term(2, 1, CTX) - Fraction(1, 12)) < TIGHT


@pytest.mark.parametrize("z", [1, Fraction(5, 2)])
@pytest.mark.parametrize("N", [1, 2, 4, 6])
def test_partial_sums_reassemble_main_and_remainder(z, N):
    total = f_term(0, z, CTX)
    for k in range(1, 2 * N + 1):
        total = total + f_term(k, z, CTX)
    rhs = main_term_P(z, CTX) + remainder_R(z, N, CTX) - half_ln_2pi(CTX)
    scale = max(abs(total), bigfloat(1, CTX))
    assert abs(total - rhs) <= scale * Fraction(16, 1 << 256)


def test_lngamma_stirling_at_one():
    approx = lngamma_stirling(1, 3, CTX)
    assert abs(approx.value) <= approx.omitted_term


def test_lngamma_stirling_ten_terms_three():
    # ln Gamma(10): truncation error is just under the omitted term
    ref = mp_ref(lambda: mpmath.loggamma(10))
    approx = lngamma_stirling(10, 3, CTX)
    err = abs(approx.value - ref)
    assert err <= approx.omitted_term
    # actual gap ~ 5.87e-11 (the N=4 term minus higher corrections)
    assert Fraction(55, 10**12) < err < Fraction(60, 10**12)


def test_lngamma_stirling_brackets_half():
    lo = lngamma_stirling(Fraction(1, 2), 2, CTX).value
    hi = lngamma_stirling(Fraction(1, 2), 3, CTX).value
    assert lo < HALF_LN_PI < hi


def test_omitted_term_formula():
    approx = lngamma_stirling(Fraction(7, 3), 5, CTX)
    expected = abs(term_coefficient(6)) / Fraction(7, 3) ** 11
    assert abs(approx.omitted_term - expected) < expected * Fraction(1, 1 << 240)


def _exact(x) -> Fraction:
    return Fraction(*libmp.to_rational(x.raw))


@pytest.mark.parametrize("N", [0, 3, 10])
@pytest.mark.parametrize("z", [Fraction(1, 2), Fraction(22, 7), Fraction(50)], ids=str)
def test_omitted_term_bounds_the_exact_next_term(z, N):
    # the certificate is the exact omitted term at z~ rounded outward: at or
    # above it, and less than 2 ulp above
    for bits in (64, 128, 256):
        ctx = PrecisionCtx(bits)
        z_t = _exact(bigfloat(z, PrecisionCtx(ctx.wprec())))
        exact = abs(term_coefficient(N + 1)) / z_t ** (2 * N + 1)
        omitted = _exact(lngamma_stirling(z, N, ctx).omitted_term)
        assert exact <= omitted < exact * (1 + Fraction(2, 1 << (bits - 1))), bits


def test_optimal_truncation_sums_the_terms_it_scans(monkeypatch, count_calls):
    # one pass: no second evaluation, and the only power is the certificate's
    def refuse(*args):
        raise AssertionError("optimal_truncation evaluated the series twice")

    monkeypatch.setattr(stirling.series, "lngamma_stirling", refuse)
    pows = count_calls("mpf_pow_int")["mpf_pow_int"]
    for z, order in ((1, 3), (10, 31), (Fraction(22, 7), 10)):
        pows[0] = 0
        assert optimal_truncation(z, CTX).order_used == order
        assert pows[0] == 1, z


def test_optimal_truncation_at_one():
    approx = optimal_truncation(1, CTX)
    # magnitudes 1/12, 1/360, 1/1260, 1/1680, then growth: stop before the
    # smallest term, so the omitted term is exactly 1/1680
    assert approx.order_used == 3
    assert abs(approx.omitted_term - Fraction(1, 1680)) < TIGHT
    assert abs(approx.value) <= approx.omitted_term  # ln Gamma(1) = 0


@pytest.mark.parametrize("z", [Fraction(1, 4), Fraction(1, 2), 1, 2, 10])
def test_optimal_truncation_error_within_omitted(z):
    from stirling.oracle import lngamma_binet2
    approx = optimal_truncation(z, CTX)
    oracle = lngamma_binet2(z, CTX)
    assert abs(approx.value - oracle.value) <= approx.omitted_term


@settings(max_examples=20, deadline=None)
@given(z=st_.fractions(min_value=Fraction(3, 10), max_value=Fraction(8),
                       max_denominator=16))
def test_optimal_truncation_bounded_by_omitted_random_z(z):
    from stirling.oracle import lngamma_binet2
    approx = optimal_truncation(z, CTX)
    oracle = lngamma_binet2(z, CTX)
    assert abs(approx.value - oracle.value) <= approx.omitted_term


# the sum, its rounding and the rounding of z to z~ all inside error_bound
@settings(max_examples=25, deadline=None)
@given(z=st_.fractions(min_value=Fraction(1, 10**6), max_value=Fraction(60),
                       max_denominator=10**6),
       bits=st_.sampled_from([64, 128, 256]),
       fixed=st_.one_of(st_.none(), st_.integers(min_value=0, max_value=12)))
def test_error_bound_is_an_upper_bound(z, bits, fixed):
    ctx = PrecisionCtx(bits)
    approx = optimal_truncation(z, ctx) if fixed is None else lngamma_stirling(z, fixed, ctx)
    with mpmath.workprec(bits + 64):
        ref = mpmath.loggamma(mpmath.mpf(z.numerator) / z.denominator)
    ref = Fraction(*libmp.to_rational(ref._mpf_))
    assert _exact(approx.omitted_term) < _exact(approx.error_bound)
    assert abs(_exact(approx.value) - ref) <= _exact(approx.error_bound)


@pytest.mark.parametrize("bits", [64, 256])
def test_error_bound_adds_little_to_the_omitted_term(bits):
    # at z = 30 the omitted term is far below an ulp of the value, so the
    # bound is the rounding part: within 2 ulp of ln Gamma(30) ~ 71.26
    approx = optimal_truncation(30, PrecisionCtx(bits))
    assert _exact(approx.omitted_term) < Fraction(1, 2 ** (bits + 8))
    assert _exact(approx.error_bound) <= Fraction(2) ** (7 - bits) * 2


@pytest.mark.parametrize("z", [1, 5, 10])
def test_term_magnitudes_unimodal(z):
    mags = [abs(f_term(2 * k, z, CTX)) for k in range(1, 61)]
    rises = [i for i in range(len(mags) - 1) if mags[i + 1] > mags[i]]
    assert rises, "profile never grew within the scanned range"
    pivot = rises[0]
    assert all(mags[i + 1] < mags[i] for i in range(pivot))
    assert all(mags[i + 1] > mags[i] for i in range(pivot, len(mags) - 1))


def test_stirling_original_term_improvement_n10():
    exact = mp_ref(lambda: mpmath.log(3628800) / mpmath.log(10))
    errs = [abs(stirling_original_log10(10, t, CTX) - exact) for t in (1, 2, 3)]
    assert errs[1] < errs[0]
    assert errs[2] < errs[1]


def test_stirling_original_closed_form_n1():
    ref = mp_ref(lambda: (mpmath.mpf(3) / 2) * mpmath.log(mpmath.mpf(3) / 2) / mpmath.log(10)
                 - (mpmath.mpf(3) / 2) / mpmath.log(10)
                 + mpmath.log(2 * mpmath.pi) / mpmath.log(10) / 2)
    got = stirling_original_log10(1, 1, CTX)
    assert abs(got - ref) < Fraction(1, 10**45)


def test_stirling_original_high_accuracy_n100():
    exact = mp_ref(lambda: mpmath.log(mpmath.factorial(100)) / mpmath.log(10), dps=80)
    err = abs(stirling_original_log10(100, 3, CTX) - exact)
    assert err <= Fraction(1, 10**9)


def test_stirling_original_rejects_bad_term_count():
    for t in (0, 4, -1):
        with pytest.raises(DomainError):
            stirling_original_log10(10, t, CTX)


def test_ln_factorial_stirling_base():
    approx = ln_factorial_stirling(1, 0, CTX)
    assert abs(approx.value - main_term_P(1, CTX)) < TIGHT


def test_ln_factorial_stirling_13_2():
    # approximating ln 12! = ln 479001600; the truncation gap is just under
    # the first omitted term 1/(1260 * 13^5) ~ 2.14e-9
    ref = mp_ref(lambda: mpmath.log(479001600))
    approx = ln_factorial_stirling(13, 2, CTX)
    err = abs(approx.value - ref)
    assert err <= approx.omitted_term
    assert Fraction(20, 10**10) < err < Fraction(22, 10**10)


def test_ln_factorial_stirling_brackets_zero():
    below = ln_factorial_stirling(2, 2, CTX).value
    above = ln_factorial_stirling(2, 1, CTX).value
    assert below < 0 < above


def test_domain_and_resource_errors():
    with pytest.raises(DomainError):
        main_term_P(0, CTX)
    with pytest.raises(DomainError):
        main_term_P(-3, CTX)
    with pytest.raises(DomainError):
        remainder_R(-1, 2, CTX)
    with pytest.raises(ResourceError):
        remainder_R(2, 400, CTX)
    with pytest.raises(DomainError):
        ln_factorial_stirling(0, 1, CTX)


@pytest.mark.parametrize("bits", [64, 256])
def test_optimal_truncation_fails_at_once_from_cap_over_2_pi(monkeypatch, bits):
    # z~ >= 53 cap / 333 > cap / (2 pi) raises before any term is taken; just
    # below that the scan runs to the cap and raises the same error, and at
    # z = 81 it still finds its minimum, at order 254
    taken = []
    real = stirling.series._terms_raw
    monkeypatch.setattr(stirling.series, "_terms_raw",
                        lambda *a: taken.append(a) or real(*a))
    ctx = PrecisionCtx(bits)
    texts = set()
    for z, scans in ((Fraction(8149, 100), False), (Fraction(82), False),
                     (Fraction(8148, 100), True)):
        taken.clear()
        with pytest.raises(ResourceError) as info:
            optimal_truncation(z, ctx)
        texts.add(str(info.value))
        assert bool(taken) == scans, z
    assert len(texts) == 1
    assert Fraction(8148, 100) < Fraction(53 * 512, 333) < Fraction(8149, 100)
    assert optimal_truncation(81, ctx).order_used == 254


def test_optimal_truncation_past_table_cap_raises():
    # the smallest term at z = 1000 sits near order pi z, far past B_512
    with pytest.raises(ResourceError):
        optimal_truncation(1000, CTX)
    # the first argument past the cap, at every precision
    for bits in (64, 256):
        with pytest.raises(ResourceError) as info:
            optimal_truncation(82, PrecisionCtx(bits))
        assert str(info.value) == ("term magnitudes still decreasing at the table cap; "
                                   "argument too large for optimal truncation at this cap")


@pytest.mark.parametrize("wp", [64, 256, 1024])
def test_rounded_coefficients_are_the_reduced_fraction_rounded(wp):
    # the list's entries to nearest, and the omitted term's coefficient up
    near = stirling.series._rounded_coeffs(wp, 256)
    assert len(near) == 256
    for k in range(1, 257):
        c = term_coefficient(k)
        assert near[k - 1] == libmp.from_rational(c.numerator, c.denominator, wp, "n"), k
        assert (libmp.mpf_abs(stirling.series._coeff_raw(k, wp, "u"))
                == libmp.from_rational(abs(c.numerator), c.denominator, wp, "u")), k
        # at z = 1 the omitted term is that coefficient itself
        assert (stirling.series._term_raw(libmp.fone, k, wp, wp)
                == libmp.from_rational(abs(c.numerator), c.denominator, wp, "u")), k


def test_rounded_coefficients_follow_the_table_and_fail_fast_past_its_cap(monkeypatch):
    monkeypatch.setattr(stirling.series, "_COEFFS", {})
    with pytest.raises(ResourceError, match="Bernoulli table cap"):
        stirling.series._rounded_coeffs(300, 257)
    assert stirling.series._COEFFS == {}
    small = BernoulliTable()
    monkeypatch.setattr(stirling.series, "table", lambda: small)
    monkeypatch.setattr(stirling.series, "bernoulli", small.b)
    for n, held in ((3, 6), (4, 14), (5, 14), (8, 30), (40, 80)):
        assert len(stirling.series._rounded_coeffs(300, n)) == held // 2 == small.max_index // 2
    assert stirling.series._rounded_coeffs(300, 40) == [
        libmp.from_rational(c.numerator, c.denominator, 300, "n")
        for c in map(term_coefficient, range(1, 41))]


@pytest.mark.parametrize("wp", [96, 288])
@pytest.mark.parametrize("z", [Fraction(1, 3), Fraction(22, 7), Fraction(61, 2)], ids=str)
def test_terms_read_from_the_lists_equal_terms_from_the_fractions(z, wp):
    # each term and the omitted term's bound as the parent computed them:
    # the reduced coefficient rounded afresh at each call
    z_raw = libmp.from_rational(z.numerator, z.denominator, wp, "n")
    inv = libmp.mpf_div(libmp.fone, z_raw, wp, "n")
    inv2, zpow = libmp.mpf_mul(inv, inv, wp, "n"), inv
    terms = stirling.series._terms_raw(z_raw, wp)
    for k in range(1, 41):
        c = term_coefficient(k)
        c_near = libmp.from_rational(c.numerator, c.denominator, wp, "n")
        assert next(terms) == libmp.mpf_mul(c_near, zpow, wp, "n"), k
        zpow = libmp.mpf_mul(zpow, inv2, wp, "n")
        zp = libmp.mpf_pow_int(z_raw, 2 * k - 1, wp, "n")
        assert stirling.series._term_raw(z_raw, k, wp) == libmp.mpf_div(c_near, zp, wp, "n")
        c_up = libmp.from_rational(abs(c.numerator), c.denominator, wp, "u")
        zp = libmp.mpf_pow_int(z_raw, 2 * k - 1, wp, "d")
        assert (stirling.series._term_raw(z_raw, k, wp, wp - 32)
                == libmp.mpf_div(c_up, zp, wp - 32, "u"))


def test_two_threads_filling_one_precision_see_whole_lists(monkeypatch):
    # in each round, on a fresh Bernoulli table, one thread asks for 1, 2,
    # ..., 256 coefficients, so the list grows with the table, while the
    # other keeps asking for one; every list either one reads must be
    # whole: as long as asked, and every entry equal to the reference
    wp = 320
    reference = stirling.series._rounded_coeffs(wp, 256)
    bad: list = []

    def reader(i: int, start, done) -> None:
        start.wait()
        for n in (range(1, 257) if i == 0 else itertools.repeat(1, 10**5)):
            near = stirling.series._rounded_coeffs(wp, n)
            if not (n <= len(near) and near == reference[:len(near)]):
                bad.append((i, n))
            if i and done.is_set():
                break
        if i == 0:
            done.set()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(8):
            fresh = BernoulliTable()
            monkeypatch.setattr(stirling.series, "_COEFFS", {})
            monkeypatch.setattr(stirling.series, "table", lambda: fresh)
            monkeypatch.setattr(stirling.series, "bernoulli", fresh.b)
            start, done = threading.Barrier(2), threading.Event()
            threads = [threading.Thread(target=reader, args=(i, start, done)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert stirling.series._COEFFS[wp] == reference
    finally:
        sys.setswitchinterval(interval)
    assert not bad
