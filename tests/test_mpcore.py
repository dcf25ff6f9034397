"""Precision substrate: elementary functions, rationals, serialization."""

import copy
import dataclasses
import decimal
import math
import pickle
import random
import time
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from mpmath import libmp

import stirling
from stirling.errors import DomainError, PrecisionError
from stirling.oracle import lngamma_binet2
from stirling.bounds import check_bound, impens_sandwich
from stirling.mpcore import (GUARD, BigFloat, PrecisionCtx, _Ball, _lcm_append, bigfloat,
                             certified_decimal, decimal_nearest, decimal_up, elementary,
                             rational_from_str, rational_to_float, rational_to_str, raw_expm1)

CTX64 = PrecisionCtx(64)
CTX128 = PrecisionCtx(128)
CTX256 = PrecisionCtx(256)


def agree(a: BigFloat, b: BigFloat, bits: int) -> bool:
    """a and b differ by less than 2^(m - bits), exactly, for 2^(m-1) <=
    max(|a|, |b|) < 2^m: they agree on their leading ``bits`` bits."""
    diff = Fraction(*libmp.to_rational(a.raw)) - Fraction(*libmp.to_rational(b.raw))
    mag = max(x.raw[2] + x.raw[3] for x in (a, b))
    return abs(diff) < Fraction(2) ** (mag - bits)


def ln2_series_oracle(bits: int) -> Fraction:
    """Independent oracle: ln 2 = sum_{k>=1} 1/(k 2^k), summed exactly.

    Truncating at K leaves a tail below 2^-K, so K = bits + 8 suffices.
    """
    K = bits + 8
    return sum(Fraction(1, k * (1 << k)) for k in range(1, K + 1))


def test_ln_identity_case():
    assert elementary("ln", 1, CTX128).is_zero()


def test_sqrt_exact_square():
    assert elementary("sqrt", 4, CTX128) == 2


def test_ln2_against_series_oracle():
    oracle = rational_to_float(ln2_series_oracle(128), CTX256)
    got = elementary("ln", 2, CTX128)
    assert agree(got, oracle, 126)


def test_rational_to_float_examples():
    x = rational_to_float(Fraction(1, 6), CTX64)
    assert abs(x - Fraction(1, 6)) <= Fraction(1, 1 << 64)
    assert rational_to_float(Fraction(0, 1), CTX64).is_zero()
    lo = rational_to_float(Fraction(-1, 30), CTX128)
    hi = rational_to_float(Fraction(-1, 30), CTX256)
    assert agree(lo, hi, 126)


@settings(max_examples=200, deadline=None)
@given(p=st_.integers(min_value=-10**9, max_value=10**9),
       q=st_.integers(min_value=1, max_value=10**6),
       b=st_.sampled_from([64, 96, 128, 192]))
def test_rational_rounding_consistent_across_precisions(p, q, b):
    lo = rational_to_float(Fraction(p, q), PrecisionCtx(b))
    hi = rational_to_float(Fraction(p, q), PrecisionCtx(b + 64))
    if lo.is_zero() and hi.is_zero():
        return
    assert agree(lo, hi, b - 2)


@pytest.mark.parametrize("k", range(-20, 21))
def test_exp_ln_roundtrip_powers_of_two(k):
    x = bigfloat(Fraction(2) ** k, CTX128)
    back = elementary("exp", elementary("ln", x, CTX128), CTX128)
    # 4 ulp at 128 bits, relative
    assert abs(back - x) <= abs(x) * Fraction(4, 1 << 127)


def test_hex_roundtrip_examples():
    for text in ["2.5", "-0.1", "3.14159", "1e-40", "123456789.000001"]:
        x = bigfloat(Fraction(text), CTX256)
        assert BigFloat.from_hex(x.to_hex(), CTX256) == x
    z = bigfloat(0, CTX128)
    assert z.to_hex() == "0x0p+0"
    assert BigFloat.from_hex("0x0p+0", CTX128).is_zero()


def test_hex_format_matches_float_hex_style():
    x = bigfloat(2.71828182845904523536, CTX64)
    assert x.to_hex().startswith("0x1.")
    assert "p+1" in x.to_hex()


@settings(max_examples=300, deadline=None)
@given(man=st_.integers(min_value=1, max_value=(1 << 200) - 1),
       exp=st_.integers(min_value=-300, max_value=300),
       neg=st_.booleans())
def test_hex_roundtrip_random(man, exp, neg):
    from mpmath import libmp
    raw = libmp.from_man_exp(-man if neg else man, exp)
    x = BigFloat(raw, 256)
    assert BigFloat.from_hex(x.to_hex(), CTX256) == x


def test_determinism_bit_identical():
    a = elementary("ln", Fraction(37, 11), CTX256)
    b = elementary("ln", Fraction(37, 11), CTX256)
    assert a.to_hex() == b.to_hex()


def test_domain_errors():
    with pytest.raises(DomainError):
        elementary("ln", -1, CTX128)
    with pytest.raises(DomainError):
        elementary("ln", 0, CTX128)
    with pytest.raises(DomainError):
        elementary("sqrt", -2, CTX128)
    with pytest.raises(DomainError):  # ln, exp and sqrt are all it evaluates
        elementary("arctan", 1, CTX128)


def test_precision_floor():
    with pytest.raises(PrecisionError):
        PrecisionCtx(63)
    with pytest.raises(PrecisionError):
        PrecisionCtx(0)


def test_rational_string_roundtrip():
    q = Fraction(-1, 30)
    assert rational_to_str(q) == "-1/30"
    assert rational_from_str("-1/30") == q
    assert rational_from_str("7") == Fraction(7)


def test_arithmetic_and_comparisons():
    a = bigfloat(Fraction(3, 4), CTX128)
    b = bigfloat(Fraction(1, 4), CTX128)
    assert a + b == 1
    assert a - b == Fraction(1, 2)
    assert a * 4 == 3
    assert a / b == 3
    assert -a < 0 < a
    assert abs(-a) == a
    # a Fraction operand is rounded at bits + GUARD, then the sum at bits
    third = bigfloat(0, CTX128) + Fraction(1, 3)
    assert third.to_hex() == bigfloat(Fraction(1, 3), CTX128).to_hex()
    with pytest.raises(DomainError):
        a / bigfloat(0, CTX128)


def test_fraction_comparison_is_exact():
    # a comparison must not lift a Fraction the way arithmetic does: next to
    # a 64-bit value, arithmetic rounds 1/3 at 64 + GUARD bits, and neither
    # that value nor 1/3 rounded at 80 bits is 1/3
    third = Fraction(1, 3)
    for prec in (80, 64 + GUARD):
        w = BigFloat(libmp.from_rational(1, 3, prec, "n"), 64)
        assert w != third
        assert (w < third) != (w > third)
        assert w == Fraction(*libmp.to_rational(w.raw))


def test_hash_agrees_with_equality():
    w = BigFloat(libmp.from_man_exp(2**70 + 1, -70), 64)
    q = Fraction(2**70 + 1, 2**70)
    assert w == q
    assert hash(w) == hash(q)
    half = bigfloat(Fraction(1, 2), CTX128)
    assert hash(half) == hash(0.5) == hash(Fraction(1, 2))
    assert hash(bigfloat(3, CTX128)) == hash(3)


def test_certified_decimal_prints_every_digit_a_tight_bound_proves():
    # one ulp proves all 30 digits asked for: the print is to_decimal's,
    # byte for byte
    value = elementary("ln", 2, CTX128)
    ulp = BigFloat(libmp.from_man_exp(1, -128), 128)
    assert certified_decimal(value, ulp, 30) == value.to_decimal(30)
    assert certified_decimal(value, BigFloat(libmp.fzero, 128), 30) == value.to_decimal(30)


def _near(text: str) -> BigFloat:
    return rational_to_float(Fraction(text), CTX128)


@pytest.mark.parametrize("value, bound, digits, printed", [
    # 0.846..0.854: agreement at two digits, not at one (0.8 and 0.9)
    ("0.85", "0.004", 2, "0.85"),
    ("0.85", "0.004", 3, "0.85"),
    ("0.85", "0.004", 1, ""),
    # 0.8194..0.8214: no agreement at three digits, agreement at two
    ("0.8204", "0.001", 3, "0.82"),
    ("-0.8204", "0.001", 20, "-0.82"),
    # nothing proven: 0.2..0.8, and an interval about 0
    ("0.5", "0.3", 20, ""),
    ("0.001", "0.01", 20, ""),
    ("123456.7", "0.02", 20, "123456.7"),
])
def test_certified_decimal_searches_down_from_digits(value, bound, digits, printed):
    assert certified_decimal(_near(value), _near(bound), digits) == printed


def test_certified_decimal_starts_at_the_digits_its_bound_allows():
    # one ulp at 256 bits proves 77 digits of ln 3; asking for 10^5 gives
    # the same decimal as asking for 100, without a search from 10^5 down
    value = elementary("ln", 3, CTX256)
    ulp = BigFloat(libmp.from_man_exp(1, -256), 256)
    start = time.perf_counter()
    printed = certified_decimal(value, ulp, 10**5)
    assert time.perf_counter() - start < 1
    assert printed == certified_decimal(value, ulp, 100)
    assert len(printed) == len("1.") + 76


@pytest.mark.parametrize("q, digits, printed", [
    # ties round away from zero, as libmp.to_str rounds
    ("1/8", 2, "0.13"),
    ("-1/8", 2, "-0.13"),
    ("9999/10000", 3, "1.0"),
    ("-2/3", 3, "-0.667"),
    ("123456789", 3, "1.23e+8"),
    ("0", 5, "0.0"),
])
def test_decimal_nearest_rounds_the_exact_rational(q, digits, printed):
    assert decimal_nearest(Fraction(q), digits) == printed


@settings(max_examples=200, deadline=None)
@given(q=st_.fractions(max_denominator=10**6).filter(lambda q: abs(q) < 10**6),
       scale=st_.integers(min_value=-40, max_value=40),
       digits=st_.integers(min_value=1, max_value=40))
def test_decimal_nearest_is_the_correctly_rounded_decimal(q, scale, digits):
    # the value is q rounded by the decimal module's half-up rule, and it is
    # laid out as to_decimal lays out a close rounding of it, in both of
    # to_decimal's layouts
    q *= Fraction(10) ** scale
    printed = decimal_nearest(q, digits)
    rounded = decimal.Context(prec=digits, rounding=decimal.ROUND_HALF_UP).divide(
        decimal.Decimal(q.numerator), decimal.Decimal(q.denominator))
    assert Fraction(printed) == Fraction(rounded)
    wide = rational_to_float(Fraction(printed), PrecisionCtx(4 * digits + 200))
    assert printed == wide.to_decimal(digits)


def test_only_mpcore_prints_a_decimal():
    # every printed decimal goes through BigFloat.to_decimal, decimal_up,
    # decimal_nearest or certified_decimal, so the digits a value prints are
    # decided in one place
    found = {path.name for path in Path(stirling.__file__).parent.glob("*.py")
             if path.name != "mpcore.py" and "libmp.to_str" in path.read_text()}
    assert found == set()


def test_bigfloat_copies_and_pickles():
    x = elementary("ln", 3, CTX128)
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert isinstance(twin, BigFloat)
        assert (twin.to_hex(), twin.ctx_bits) == (x.to_hex(), 128)
    with pytest.raises(AttributeError):
        pickle.loads(pickle.dumps(x)).ctx_bits = 64


def test_reports_convert_to_dicts():
    row = dataclasses.asdict(check_bound("nanjundiah", 7, CTX128))
    assert row["family"] == "nanjundiah" and row["holds"]
    assert row["margin"] > 0 and row["margin"].ctx_bits == 128
    cell = dataclasses.asdict(impens_sandwich(2, 1, 1, CTX128))
    assert cell["lhs"] < cell["mid"] < cell["rhs"]
    oracle = dataclasses.asdict(lngamma_binet2(Fraction(22, 7), CTX128))
    assert oracle["error_bound"] > 0
    assert oracle["diagnostics"]["rounding"] > 0


@settings(max_examples=60, deadline=None)
@given(value=st_.fractions(min_value=Fraction(1, 10**80), max_value=Fraction(10**20)),
       negative=st_.booleans(),
       bits=st_.sampled_from([64, 128, 256]),
       digits=st_.integers(min_value=1, max_value=30))
def test_decimal_up_never_prints_below_the_value(value, negative, bits, digits):
    x = rational_to_float(-value if negative else value, PrecisionCtx(bits))
    printed = decimal_up(x, digits)
    exact = Fraction(*libmp.to_rational(x.raw))
    # the least decimal of that many digits at or above the value
    e = 0
    while Fraction(10) ** e > abs(exact):
        e -= 1
    while Fraction(10) ** (e + 1) <= abs(exact):
        e += 1
    assert Fraction(printed) - Fraction(10) ** (e - digits + 1) < exact <= Fraction(printed)


def test_decimal_up_keeps_an_exact_decimal():
    assert decimal_up(rational_to_float(Fraction(3, 4), CTX64), 5) == "0.75"
    assert decimal_up(rational_to_float(Fraction(-3, 4), CTX64), 1) == "-0.7"
    assert decimal_up(rational_to_float(Fraction(0), CTX64), 3) == "0.0"


# -- the rounding model: mpcore._Ball ----------------------------------------


def _exact(raw) -> Fraction:
    return Fraction(*libmp.to_rational(raw))


@st_.composite
def _balls(draw, low=-40, high=40, positive=False):
    """A _Ball at a drawn wp: a value of up to wp bits (often all wp) in
    2^[low, high), an error of up to 2^72 units of 2^q (0 a third of the
    time), and a unit q at or below 2^-(wp+64) so that each unit is
    exercised."""
    wp = draw(st_.sampled_from([96, 160, 288]))
    bits = draw(st_.one_of(st_.just(wp), st_.integers(1, wp)))
    man = (1 << (bits - 1)) | draw(st_.randoms(use_true_random=False)).getrandbits(bits - 1)
    mag = draw(st_.integers(low, high - 1))
    sign = 0 if positive else draw(st_.integers(0, 1))
    v = libmp.from_man_exp(-man if sign else man, mag - bits)
    e = draw(st_.one_of(st_.just(0), st_.just(0), st_.integers(1, 1 << 72)))
    return _Ball(v, wp, e, -(wp + 64) - draw(st_.integers(0, 40)))


def _ends(b: _Ball):
    v, r = _exact(b.v), _exact(b.error())
    return v - r, v + r


def _holds(out: _Ball, refs):
    """every reference value lies within the ball's bound (a relative
    2^-100 of the bound for references taken at wp + 128)"""
    v, r = _exact(out.v), _exact(out.error())
    assert all(abs(ref - v) <= r * (1 + Fraction(1, 1 << 100)) for ref in refs)


def _mp(q: Fraction, fn, wp: int) -> Fraction:
    with mpmath.workprec(wp + 128):
        x = mpmath.mpf(q.numerator) / q.denominator
        return _exact(fn(x)._mpf_)


@settings(max_examples=80, deadline=None)
@given(a=_balls(), b=_balls(), op=st_.sampled_from(["+", "-", "*"]))
def test_ball_arithmetic_holds_every_exact_result(a, b, op):
    b = _Ball(b.v, a.wp, b.e, b.q)  # one working precision
    out = {"+": a + b, "-": a - b, "*": a * b}[op]
    fn = {"+": lambda x, y: x + y, "-": lambda x, y: x - y, "*": lambda x, y: x * y}[op]
    _holds(out, [fn(x, y) for x in _ends(a) for y in _ends(b)])


@settings(max_examples=60, deadline=None)
@given(a=_balls(), k=st_.integers(-3, 3), bits=st_.sampled_from([64, 80]))
def test_ball_shift_and_rounding_hold_the_exact_value(a, k, bits):
    _holds(a.shift(k), [x * Fraction(2) ** k for x in _ends(a)])
    _holds(a.rounded(bits), _ends(a))


@settings(max_examples=60, deadline=None)
@given(a=_balls(low=-30, high=30, positive=True))
def test_ball_log_holds_every_exact_result(a):
    lo, hi = _ends(a)
    if lo > 0:
        _holds(a.log(), [_mp(x, mpmath.log, a.wp) for x in (lo, hi)])


@settings(max_examples=60, deadline=None)
@given(a=_balls(low=-60, high=4))
def test_ball_log1p_holds_every_exact_result(a):
    lo, hi = _ends(a)
    if lo > -1:
        _holds(a.log1p(), [_mp(x, mpmath.log1p, a.wp) for x in (lo, hi)])


@settings(max_examples=60, deadline=None)
@given(a=_balls(low=-40, high=6), large=st_.booleans())
def test_ball_exp_holds_every_exact_result(a, large):
    if large:  # an error d past 1/2, up to 8
        a = _Ball(a.v, a.wp, a.e % 256 + 8, -5)
    _holds(a.exp(), [_mp(x, mpmath.exp, a.wp) for x in _ends(a)])


def test_ball_exp_holds_e_to_the_v_at_8192_bits():
    # e^v comes from fixed._exp, correctly rounded: libmp's mpf_exp missed
    # e^v with its one-ulp allowance for 5 of these 60 v, |v| in [2^-30,
    # 2^-10], each exact at cp = wp + 96 bits and so in mpmath at wp + 128.
    # raw_expm1 rounds e^v - 1 correctly from the same kernel; a plain
    # rounding of e^v - 1 from wp + 8 + 30 bits misses one of these v
    wp = 8192
    cp = wp + 96
    rng = random.Random(8192)
    for _ in range(60):
        Y = rng.choice((-1, 1)) * rng.getrandbits(cp + rng.randint(-30, -10))
        v = libmp.from_man_exp(Y, -cp)
        out = _Ball(v, wp).exp()
        with mpmath.workprec(wp + 128):
            exact, exact_m1 = mpmath.exp(mpmath.mpf(v)), mpmath.expm1(mpmath.mpf(v))
        _holds(out, [_exact(exact._mpf_)])
        assert raw_expm1(v, wp) == libmp.mpf_pos(exact_m1._mpf_, wp, "n")


@pytest.mark.parametrize("wp", [96, 288, 8192])
def test_ball_log1p_is_correctly_rounded(wp):
    # log1p takes the log of the exact 1 + x, which fixed._log rounds
    # correctly however near 1 it lies, for an x of 2 wp bits too; the log
    # of 1 + x rounded first to wp + 8 + max(0, -mag x) bits misrounds the
    # x of mag -156 at 288 bits
    rng = random.Random(wp)
    for mag in [-300, -299, -150, -64, -33, -10, -2, -1] + rng.sample(range(-300, 0), 52):
        x = rng.choice((-1, 1)) * ((1 << (2 * wp - 1)) | rng.getrandbits(2 * wp - 1))
        x = libmp.from_man_exp(x, mag - 2 * wp)  # |x| in [2^(mag-1), 2^mag)
        with mpmath.workprec(wp + 64):
            exact = mpmath.log1p(mpmath.mpf(x))
        assert _Ball(x, wp).log1p().v == libmp.mpf_pos(exact._mpf_, wp, "n"), mag


@pytest.mark.parametrize("wp", [96, 288])
def test_ball_computed_zero_carries_no_error(wp):
    # an exact operand and an exact zero result: U(0) = 0
    x = _Ball(libmp.from_rational(22, 7, wp, "n"), wp)
    for zero in (x - x, x * libmp.fzero, _Ball(libmp.fone, wp).log(),
                 _Ball(libmp.fzero, wp).log1p(), (x - x).shift(5).rounded(64)):
        assert zero.v == libmp.fzero and zero.e == 0
    # a computed nonzero always carries its U
    assert (x + x.log()).e > 0 and _Ball(libmp.from_int(3), wp).log().e > 0


def test_lcm_append_keeps_every_value_over_the_lcm():
    values = [Fraction(1, 6), Fraction(-5, 4), Fraction(0), Fraction(7), Fraction(2, 9),
              Fraction(11, 12), Fraction(-1, 35)]
    L, N = 1, []
    for i, x in enumerate(values):
        L = _lcm_append(L, N, x)
        assert L == math.lcm(*(v.denominator for v in values[:i + 1]))
        assert [Fraction(v, L) for v in N] == values[:i + 1]


PI_70 = Fraction(
    "3.141592653589793238462643383279502884197169399375105820974944592307816")


def _pi_enclosure(W: int) -> tuple[int, int]:
    """(lo, hi) with lo < 2^W pi < hi, from Machin's pi/4 = 4 atan(1/5) -
    atan(1/239), with no libmp call.

    2^W atan(1/x) = sum_j (-1)^j t_j, t_j = 2^W / ((2j + 1) x^(2j+1)).  The
    chain P_0 = floor(2^W / x), P_j = floor(P_(j-1) / x^2) gives P_j =
    floor(2^W / x^(2j+1)), as floor(floor(a) / n) = floor(a / n) for an
    integer n, so T_j = floor(P_j / (2j + 1)) = floor(t_j).  Summed to the
    first P_J = 0, so t_J < 1, S = sum_(j<J) (-1)^j T_j is off the same sum
    of the t_j by less than J, as each t_j - T_j lies in [0, 1), and the
    alternating tail from J on, its terms falling, is below t_J < 1 in
    magnitude: |2^W atan(1/x) - S| < J + 1.
    """
    def atan_inv(x):
        s, P, J = 0, (1 << W) // x, 0
        while P:
            T = P // (2 * J + 1)
            s += -T if J % 2 else T
            P //= x * x
            J += 1
        return s, J + 1

    (s5, e5), (s239, e239) = atan_inv(5), atan_inv(239)
    mid, err = 16 * s5 - 4 * s239, 16 * e5 + 4 * e239
    return mid - err, mid + err


def test_libmp_pi_is_within_one_ulp_of_an_integer_enclosure():
    # mpcore._Ball takes libmp's pi to within one ulp; this checks it, at
    # every p from 64 to 1,200 bits, which holds every cp = wp + 96 of the
    # node tables the tests build (wp = bits + 64, bits <= 1,024), and at
    # 4,096 and 8,192 bits
    W = 8192 + 64
    lo, hi = _pi_enclosure(W)
    assert hi - lo < 1 << 20
    assert abs(Fraction(lo, 1 << W) - PI_70) < Fraction(1, 10**69)
    for p in [*range(64, 1201), 4096, 8192]:
        sign, man, exp, bc = libmp.mpf_pi(p, "n")
        assert sign == 0 and bc <= p and exp + bc == 2, p  # pi~ in [2, 4)
        v, ulp = man << (W + exp), 1 << (W + 2 - p)  # pi~ 2^W and one ulp, exactly
        assert v - ulp <= lo and hi <= v + ulp, p
