"""Feller, Marsaglia, Namias and Mermin routes to the factorial."""

import hashlib
import math
import re
import tracemalloc
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_

import stirling.expansions
import stirling.fixed
import stirling.mpcore
from stirling.bounds import sequence_point
from stirling.errors import DomainError, ResourceError
from stirling.expansions import (_feller_residuals, _mermin_products, _namias_residual,
                                 feller_constant, feller_identity_residual,
                                 feller_residual_sweep, feller_term,
                                 MarsagliaSeries, marsaglia_coeffs,
                                 marsaglia_factorial,
                                 mermin_partial_product, namias_residual,
                                 reversion_residual)
from stirling.mpcore import PrecisionCtx, elementary
from stirling.oracle import TERMS_CAP, lngamma_binet2
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
    checked = list(_feller_residuals(300, CTX))
    for n, (r, (signed, proven)) in enumerate(zip(resids, checked), start=1):
        assert r == abs(signed) <= proven <= n * Fraction(1, 1 << (CTX.bits - 8))


@pytest.mark.parametrize("bits", [64, 128, 256, 768])
def test_feller_zero_residual_is_charged_no_ulp(bits):
    # at n = 1 every step is exact and the residual is 0; a computed 0 is
    # exact, so its bound is no larger than the one at n = 10
    rows = list(_feller_residuals(10, PrecisionCtx(bits)))
    (r1, b1), (r10, b10) = rows[0], rows[9]
    assert r1 == 0
    assert abs(r1) <= b1 <= b10
    assert abs(r10) <= b10


def test_feller_single_residual_equals_sweep():
    # the single-n residual and the sweep share one identity body
    for bits in (64, 256, 768):
        ctx = PrecisionCtx(bits)
        sweep = feller_residual_sweep(300, ctx)
        for n in (1, 2, 3, 77, 300):
            assert feller_identity_residual(n, ctx).to_hex() == sweep[n - 1].to_hex(), \
                (bits, n)


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


def test_feller_residual_sweep_rejects_empty_range():
    for n_max in (0, -3):
        with pytest.raises(DomainError):
            feller_residual_sweep(n_max, CTX)


def test_feller_constant_takes_no_log_per_term(count_calls):
    # the terms are summed in integers; only I(1/2) takes a logarithm, and
    # every log of the package goes through mpcore to fixed._log
    logs = count_calls("_log", module=stirling.mpcore)["_log"]
    feller_constant(10**4, CTX)
    assert 1 <= logs[0] <= 2


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("K", [1, 7, 1000])
def test_feller_fixed_sum_within_its_bound(K, bits, monkeypatch):
    # sum_{k<=K} (a_k - b_k) = ln K! + (1/2) ln(1/2) - (K + 1/2) ln(K + 1/2) + K;
    # the integer sum s 2^-W never exceeds it and falls short by at most
    # K (wp + 64) units of 2^-W, which is below 2^-(wp+5).  The closed form
    # cancels about 13 bits at K = 1000, so mpmath works 64 bits past W.
    # s and W are read off feller_constant's own call of the kernel.
    kernel, seen = stirling.expansions._floor_series, []

    def spy(ms, divisors, W):
        s = kernel(ms, divisors, W)
        seen.append((s, W))
        return s

    monkeypatch.setattr(stirling.expansions, "_floor_series", spy)
    feller_constant(K, PrecisionCtx(bits))
    wp = PrecisionCtx(bits).wprec()
    [(s, W)] = seen
    assert K * (wp + 64) < 2 ** (W - wp - 5)
    with mpmath.workprec(W + 64):
        half = mpmath.mpf(1) / 2
        exact = (mpmath.log(mpmath.factorial(K)) + half * mpmath.log(half)
                 - (K + half) * mpmath.log(K + half) + K)
        short = (exact - mpmath.ldexp(s, -W)) * mpmath.ldexp(1, W)
    assert -mpmath.ldexp(1, -32) <= short <= K * (wp + 64)


def _exact_bracket(ms, divisors, W, G=64):
    """(lo, hi) with lo <= 2^G E < hi for E the exact sum over m in ms of
    sum_j 2^W / (m^(2j) d_j) over the listed divisors.  Each m's sum is the
    Fraction num / (m^(2 len) lcm), num by Horner's rule, and only its floor
    at 2^-(W+G) is added, so the bracket is exact and len(ms) units wide."""
    lcm = math.lcm(*divisors)
    lo = 0
    for m in ms:
        q, num = m * m, 0
        for d in divisors:
            num = num * q + lcm // d
        lo += (num << (W + G)) // (q ** len(divisors) * lcm)
    return lo, lo + len(ms)


def _lemma_counts(ms, W):
    """(D, alone): the floor lemma's D over the blocks that ``_blocks`` cuts
    ms into, each 1 + 2 #{k >= 1 : (c / Lambda)^(2k) <= 2^W}, and the D of
    the same m taken one at a time.  Checks that the blocks cover ms."""
    def terms(num, den):
        k = 0
        while num ** (2 * k + 2) <= den ** (2 * k + 2) << W:
            k += 1
        return k

    D = alone = 0
    covered = []
    for c, h in stirling.fixed._blocks(ms, W):
        D += 2 * terms(c, 2 * h + 2 if h else 1) + 1
        block = range(c - 2 * h, c + 2 * h + 1, 2)
        alone += sum(2 * terms(m, 1) + 1 for m in block)
        covered.extend(block)
    assert covered == list(ms)
    return D, alone


def _assert_floor_lemma(ms, divisors, W):
    # the exact sum lies in [s, s + D), and D is no more than the m would
    # lose one by one; both compared exactly, at 2^-(W+64)
    s = stirling.fixed._floor_series(ms, divisors, W)
    lo, hi = _exact_bracket(ms, divisors, W)
    D, alone = _lemma_counts(ms, W)
    assert s << 64 <= lo and hi <= (s + D) << 64
    assert D <= alone


@settings(max_examples=100, deadline=None)
@given(data=st_.data(), W=st_.integers(0, 300), start=st_.integers(2, 1000),
       count=st_.integers(1, 5))
def test_floor_series_lemma(data, W, start, count):
    # a few m from 2 up, with any divisors >= 3, as many as 4^len > 2^W asks
    ms = range(start, start + 2 * count, 2)
    divisors = tuple(data.draw(st_.lists(st_.integers(3, 64), min_size=W // 2 + 1,
                                         max_size=W // 2 + 4)))
    _assert_floor_lemma(ms, divisors, W)


def _mermin_divisors(W):
    return range(3, W + 4, 2)


def _feller_divisors(W):
    return tuple(2 * j * (2 * j + 1) for j in range(1, W // 2 + 2))


@settings(max_examples=100, deadline=None)
@given(W=st_.integers(4, 48), start=st_.integers(127, 1500), count=st_.integers(3, 80),
       odd=st_.booleans())
def test_floor_series_block_lemma(W, start, count, odd):
    # small W, so that blocks begin early: Mermin's odd m with d_j = 2j + 1
    # and Feller's even m with d_j = 2j (2j + 1); from m = 254 on, every
    # three m or more form a block
    start = 2 * start + 1 if odd else 2 * start
    ms = range(start, start + 2 * count, 2)
    divisors = _mermin_divisors(W) if odd else _feller_divisors(W)
    _assert_floor_lemma(ms, divisors, W)
    assert any(h for _, h in stirling.fixed._blocks(ms, W))


@pytest.mark.parametrize("W,ms,blocks", [
    # partial last blocks: 31 and 63 m, then two blocks of 3 for the 6 left
    (30, range(4000, 4200, 2), [(4030, 15), (4124, 31), (4190, 1), (4196, 1)]),
    # blocks from the first m on, and a lone m at the end
    (40, range(2001, 2201, 2),
     [(2015, 7), (2061, 15), (2123, 15), (2169, 7), (2191, 3), (2199, 0)]),
], ids=["partial-last-block", "starts-past-first-block"])
def test_floor_series_block_lemma_fixed(W, ms, blocks):
    assert list(stirling.fixed._blocks(ms, W)) == blocks
    divisors = _feller_divisors(W) if ms.start % 2 == 0 else _mermin_divisors(W)
    _assert_floor_lemma(ms, divisors, W)


def _count_weight_builds(monkeypatch):
    """Count the power-sum tables and block weights built for h >= 1."""
    built = []
    sums, weights = stirling.fixed._even_power_sums, stirling.fixed._block_weights

    def sums_spy(h, R):
        built.append(("sums", h))
        return sums(h, R)

    def weights_spy(h, t, divisors, W):
        if h:
            built.append(("weights", h))
        return weights(h, t, divisors, W)

    monkeypatch.setattr(stirling.fixed, "_even_power_sums", sums_spy)
    monkeypatch.setattr(stirling.fixed, "_block_weights", weights_spy)
    return built


@pytest.mark.parametrize("bits", [64, 256])
def test_single_term_sums_build_no_power_sums(bits, monkeypatch):
    # K = n, as bounds.aissen_ratio asks for d_n: one m, no block, no table
    from stirling.bounds import aissen_ratio
    built = _count_weight_builds(monkeypatch)
    ctx = PrecisionCtx(bits)
    for n in (1, 700, 5000):
        mermin_partial_product(n, n, ctx)
        aissen_ratio(n, ctx)
    assert built == []


def test_mermin_sums_few_m_one_at_a_time(monkeypatch):
    # at 256 bits and K = 10^5, all but a few hundred m are summed in blocks,
    # where the series over one m at a time took all 10^5 of them
    real, sizes = stirling.fixed._blocks, []

    def spy(ms, W):
        for c, h in real(ms, W):
            sizes.append(2 * h + 1)
            yield c, h

    monkeypatch.setattr(stirling.fixed, "_blocks", spy)
    mermin_partial_product(1, 10**5, PrecisionCtx(256))
    assert sum(sizes) == 10**5
    assert sizes.count(1) <= 2000


@pytest.mark.parametrize("call", [
    lambda: mermin_partial_product(1, 2 * 10**4, PrecisionCtx(64)),
    lambda: feller_constant(2 * 10**4, PrecisionCtx(64)),
], ids=["mermin", "feller"])
def test_term_sums_hold_no_list_of_their_terms(call):
    # the kernel reads its q values lazily: a list of 2 * 10^4 of them
    # would take about 0.8 MB
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


@pytest.mark.parametrize("call", [
    lambda: mermin_partial_product(1, TERMS_CAP + 1, CTX),
    lambda: feller_constant(TERMS_CAP + 1, CTX),
], ids=["mermin", "feller"])
def test_term_sums_past_the_cap_fail_fast(call):
    with pytest.raises(ResourceError, match="term cap"):
        call()


def test_marsaglia_recurrence_passes_the_power_series_check():
    # the coefficients come from the recurrence that w w' = z (1 + w) gives;
    # reversion_residual expands ln(1 + w) as a power series of its own
    series = marsaglia_coeffs(120)
    defect = reversion_residual(series)
    assert len(defect) == 122
    assert not any(defect)
    coeffs = list(series.coeffs)
    coeffs[60] += Fraction(1, 10**9)
    assert any(reversion_residual(MarsagliaSeries(tuple(coeffs))))


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
    n = 20
    got = marsaglia_factorial(n, 1, CTX)
    pi = stirling.mpcore.BigFloat(mpmath.libmp.mpf_pi(CTX.bits, "n"), CTX.bits)
    lead = elementary("sqrt", 2 * pi * n, CTX) \
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
    signed, proven = _namias_residual(n, CTX)
    z = Fraction(n)
    combined = (lngamma_binet2(2 * z, CTX).error_bound
                + lngamma_binet2(z, CTX).error_bound
                + lngamma_binet2(z - Fraction(1, 2), CTX).error_bound)
    assert resid == abs(signed) <= proven <= 10 * combined + Fraction(1, 10**55)


@settings(max_examples=10, deadline=None)
@given(n=st_.fractions(min_value=Fraction(1, 2), max_value=10**4, max_denominator=10**6)
       .filter(lambda n: n > Fraction(1, 2)),
       bits=st_.sampled_from([64, 128, 192, 256]))
def test_namias_residual_within_its_proven_bound(n, bits):
    ctx = PrecisionCtx(bits)
    signed, proven = _namias_residual(n, ctx)
    assert abs(signed) == namias_residual(n, ctx) <= proven


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


@pytest.mark.parametrize("K", [50, 10**4])
@pytest.mark.parametrize("bits", [64, 256])
def test_mermin_products_share_a_tail_and_match_the_public_sums(bits, K):
    # n = 10's sum is the shared tail alone, summed at the W its own call
    # takes; n = 1 and 2 add heads at that W, 6 and 4 bits finer than their own
    # (the products are balls; each is published rounded to ctx.bits)
    ctx, ns = PrecisionCtx(bits), (1, 2, 10)
    libmp = mpmath.libmp

    def published(ball):
        return stirling.mpcore.BigFloat.from_raw(ball.v, ctx).to_hex()

    public = [mermin_partial_product(n, K, ctx).to_hex() for n in ns]
    shared = _mermin_products(ns, K, ctx)
    assert published(shared[-1]) == public[-1]
    for n, value, got in zip(ns, public, shared):
        alone, = _mermin_products((n,), K, ctx)
        assert published(alone) == published(got) == value
        # two proven balls of one sum overlap
        (lo, hi), (alone_lo, alone_hi) = got.ends(), alone.ends()
        assert libmp.mpf_le(lo, alone_hi) and libmp.mpf_le(alone_lo, hi)
    # any order and repeats: each n is answered in its place
    assert [published(v) for v in _mermin_products((10, 1, 2, 1), K, ctx)] \
        == [published(shared[i]) for i in (2, 0, 1, 0)]


@pytest.mark.parametrize("n,K", [
    (0, 5), (-1, 5), (1.0, 5), (True, 5), (5, 4), (2, 1), (1, 5.0), (1, TERMS_CAP + 1),
])
def test_mermin_products_refuse_what_the_public_function_refuses(n, K):
    with pytest.raises((DomainError, ResourceError)) as public:
        mermin_partial_product(n, K, CTX)
    with pytest.raises(public.type, match=f"^{re.escape(str(public.value))}$"):
        _mermin_products((1, n), K, CTX)


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
    # pinned from the sum over one m at a time, before blocks of m: large K
    # at three precisions, and K just below and just above the first block
    # (K = 129 at 64 bits and K = 313 at 256 bits, for n = 1)
    (64, 1, 10**5): "0x1.4c063c1bf835d556p-4",
    (64, 1, 128): "0x1.4961bc3bb73b9a64p-4",
    (64, 1, 129): "0x1.4966f221e2cb49dap-4",
    (256, 37, 10**5):
        "0x1.27173e5b286d7cc1b916b9f0ecf3abd8d567cff09310e586e2351abb78932176p-9",
    (256, 1, 312):
        "0x1.4aefef63876190b445dba0a5ac126c61cb6cb3d65684ab1f759d0a7d12252916p-4",
    (256, 1, 313):
        "0x1.4af0d2febb5248e379d3ff08e0bc9ad1b2a8151740ebaeb12a91db59ff61366ap-4",
    (768, 1, 10**5):
        "0x1.4c063c1bf835d556eda164fbb37c503dc80952e480387fda193df23d894d0e1ae21c90a6"
        "5b65a707e2a327623716793ba6ce0b9a11271f9f59da8d6ded0e2e64b5724fc53f73909099"
        "ab072565a9bdd4a68b3b3bee273fe9912ff111ef0a4668p-4",
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
                                 (2000, 2000), (1000, 1300)])
def test_mermin_within_one_ulp_of_mpmath(bits, n, K):
    got = mermin_partial_product(n, K, PrecisionCtx(bits))
    ref = _mermin_reference(n, K, bits)
    _, man, exp, bc = got.raw
    ulp = Fraction(2) ** (exp + bc - bits)
    ref_man, ref_exp = ref.man_exp
    assert abs(got - ref_man * Fraction(2) ** ref_exp) <= ulp


# -- pinned Feller and Marsaglia values -----------------------------------------
#
# Hex of feller_constant(K) as the closed-form sum of a_k - b_k produced it;
# any faster summation must reproduce every value exactly.

FELLER_PINS = {
    (64, 1): "0x1.c89a50e704dc70ap-1",
    (64, 2): "0x1.ce0a0a4c808c4244p-1",
    (64, 3): "0x1.d06dfad5f9266506p-1",
    (64, 10): "0x1.d47742445889214ap-1",
    (64, 100): "0x1.d648c5261d54b67p-1",
    (64, 1000): "0x1.d679a71f3e5d32a4p-1",
    (64, 2000): "0x1.d67c61a60e7ac51p-1",
    (64, 10000): "0x1.d67e90b8b1221cf6p-1",
    (64, 20000): "0x1.d67ed69f0c0013e4p-1",
    (128, 1): "0x1.c89a50e704dc709f715e72c8fc266decp-1",
    (128, 2): "0x1.ce0a0a4c808c424327e3afb9f6e6c506p-1",
    (128, 3): "0x1.d06dfad5f9266506a3244b58233e83a8p-1",
    (128, 10): "0x1.d47742445889214909742a9f976b74b4p-1",
    (128, 100): "0x1.d648c5261d54b66f5c6c092bee0a6f38p-1",
    (128, 1000): "0x1.d679a71f3e5d32a4f3697a0f01f4424ap-1",
    (128, 2000): "0x1.d67c61a60e7ac50fe4e58f35d6aa8732p-1",
    (128, 10000): "0x1.d67e90b8b1221cf68bee3ea97234d90cp-1",
    (128, 20000): "0x1.d67ed69f0c0013e4a1b64b2416478982p-1",
    (256, 1):
        "0x1.c89a50e704dc709f715e72c8fc266dec889d00e6302878b7e55f7953af254ddep-1",
    (256, 2):
        "0x1.ce0a0a4c808c424327e3afb9f6e6c5055828a2484fd115002d22b62265402d1cp-1",
    (256, 3):
        "0x1.d06dfad5f9266506a3244b58233e83a8af3d3d4f50d9c39f90e0a4de66d5e70cp-1",
    (256, 10):
        "0x1.d47742445889214909742a9f976b74b33954c1123f8f17f8f5d63cf77704f45cp-1",
    (256, 100):
        "0x1.d648c5261d54b66f5c6c092bee0a6f38c62eb2007fa7eb44ebf827249f51e0dap-1",
    (256, 1000):
        "0x1.d679a71f3e5d32a4f3697a0f01f442493f433679d229411523d7ff93bfd8d538p-1",
    (256, 2000):
        "0x1.d67c61a60e7ac50fe4e58f35d6aa8731cfcb1f729b283125eca6e3ab9adb32c4p-1",
    (256, 10000):
        "0x1.d67e90b8b1221cf68bee3ea97234d90babe82c7cb7558fa257f8f2a0c56dbb28p-1",
    (256, 20000):
        "0x1.d67ed69f0c0013e4a1b64b2416478982bd06154642e3aacfbd1589d741c86a3ap-1",
    (512, 1):
        "0x1.c89a50e704dc709f715e72c8fc266dec889d00e6302878b7e55f7953af254dd"
        "db762d9eb236f3cd80f6a1358d61ea4b2a077cb8be7b12de7085e26a803ced542p-1",
    (512, 2):
        "0x1.ce0a0a4c808c424327e3afb9f6e6c5055828a2484fd115002d22b62265402d1"
        "b20f950ab45eacfe40a2ff8c40c4c38a7a685589ff9b3d61630e15b9c970ed8fep-1",
    (512, 3):
        "0x1.d06dfad5f9266506a3244b58233e83a8af3d3d4f50d9c39f90e0a4de66d5e70"
        "cc980bf164484f737a7abe9e5799cd25f3298a6e76be30c43adf0a53caae5d598p-1",
    (512, 10):
        "0x1.d47742445889214909742a9f976b74b33954c1123f8f17f8f5d63cf77704f45"
        "b004974ae97390790ea61e978996c43955066a166543d8ec089d8ef0efc38012ep-1",
    (512, 100):
        "0x1.d648c5261d54b66f5c6c092bee0a6f38c62eb2007fa7eb44ebf827249f51e0d"
        "99beda2d82da4966c44185fa3eb4768f03acbd35740ac5fad26bdb1af92397ccep-1",
    (512, 1000):
        "0x1.d679a71f3e5d32a4f3697a0f01f442493f433679d229411523d7ff93bfd8d53"
        "82e4fea70ba24f226b753258c8c4de47b87fb0b59828c2893ef61dad124d8ff64p-1",
    (512, 2000):
        "0x1.d67c61a60e7ac50fe4e58f35d6aa8731cfcb1f729b283125eca6e3ab9adb32c"
        "3cc60b11a21483ff94dac037252e92db1ede18f1c21e8f91d7fd007f74b98f486p-1",
    (512, 10000):
        "0x1.d67e90b8b1221cf68bee3ea97234d90babe82c7cb7558fa257f8f2a0c56dbb2"
        "8864c87f6b782d63b6c9afa962ad371821af6a9cb7925c333e23e715ebffd677cp-1",
    (512, 20000):
        "0x1.d67ed69f0c0013e4a1b64b2416478982bd06154642e3aacfbd1589d741c86a3"
        "9493bf86546835e05172dec3d0f39470f669325d08a05cb695ccece9cd25fc43cp-1",
    # pinned from the sum over one m at a time, before blocks of m: 768 bits,
    # and K just below and just above the first block at 64 and 256 bits
    (64, 128): "0x1.d6549c65a2b134b4p-1",
    (64, 129): "0x1.d654f069b0f1bdeep-1",
    (256, 311):
        "0x1.d66d943d920cbd72dcc8f8f755231195b6b13ee8a34e40fb562cf739ff1d0742p-1",
    (256, 312):
        "0x1.d66da29a5e517934b30704b62a33fd73ca259b2062a7c3c503ecf57de09c77bep-1",
    (768, 10000):
        "0x1.d67e90b8b1221cf68bee3ea97234d90babe82c7cb7558fa257f8f2a0c56dbb28864c87f6"
        "b782d63b6c9afa962ad371821af6a9cb7925c333e23e715ebffd677ba99b4ccaa1bb39a32d"
        "1f435adb72e862428d055a915d188d3f0a8b030ceeece6p-1",
}


@pytest.mark.parametrize("bits,K", sorted(FELLER_PINS))
def test_feller_constant_hex_pinned(bits, K):
    assert feller_constant(K, PrecisionCtx(bits)).to_hex() == FELLER_PINS[bits, K]


# sha256 over the lines "str(b_k)\n" of marsaglia_coeffs(200).coeffs, as the
# Newton reversion produced them
MARSAGLIA_200_DIGEST = "b1c0dfe6a94564906df3440a5094113507bfce6bf1cb7aef7e1f5bb822eae6e4"


def test_marsaglia_coeffs_to_cap_pinned():
    h = hashlib.sha256()
    for c in marsaglia_coeffs(200).coeffs:
        h.update(f"{c}\n".encode())
    assert h.hexdigest() == MARSAGLIA_200_DIGEST


def _marsaglia_by_fractions(K: int) -> list[Fraction]:
    # the recurrence of marsaglia_coeffs, one reduced Fraction per product
    c = [Fraction(1), Fraction(1)]
    for n in range(2, K + 1):
        half_s = sum((c[i] * c[n + 1 - i] for i in range(2, (n + 2) // 2)), Fraction(0))
        if n % 2:
            half_s += c[(n + 1) // 2] ** 2 / 2
        c.append(c[n - 1] / (n + 1) - half_s)
    return c[:K + 1]


def _log1p_by_fractions(W: list[Fraction], K: int) -> list[Fraction]:
    # ln(1 + w) through degree K from (1 + w) q = w', one Fraction per product
    W = list(W[:K + 1]) + [Fraction(0)] * (K + 1 - len(W))
    q: list[Fraction] = []
    for i in range(K):
        q.append((i + 1) * W[i + 1] - sum((W[j] * q[i - j] for j in range(1, i + 1)), Fraction(0)))
    return [Fraction(0)] + [q[i - 1] / i for i in range(1, K + 1)]


def test_marsaglia_over_one_denominator_equals_the_fraction_recurrence():
    reference = _marsaglia_by_fractions(80)
    for K in range(81):
        assert marsaglia_coeffs(K).coeffs == tuple(reference[:K + 1]), K


def test_reversion_residual_vanishes_through_k_100():
    for K in range(101):
        defect = reversion_residual(marsaglia_coeffs(K))
        assert len(defect) == K + 2 and not any(defect), K


@pytest.mark.parametrize("K", [1, 2, 7, 40])
def test_log_series_over_one_denominator_equals_the_fraction_series(K):
    # on the Marsaglia coefficients, on a perturbed copy and on a series
    # shorter than K, whose missing coefficients are 0
    w = [Fraction(0)] + list(marsaglia_coeffs(K).coeffs[1:])
    bent = list(w)
    bent[-1] += Fraction(3, 7**K)
    for series in (w, bent, w[:K // 2 + 1]):
        assert stirling.expansions._ps_log1p(series, K) == _log1p_by_fractions(series, K)
