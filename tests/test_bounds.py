"""Inequality corpus: sequence values, family checks, sandwich, margins."""

import ast
import hashlib
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st_
from mpmath import libmp

import stirling.bounds
import stirling.oracle
from stirling.bounds import (FAMILY_MIN_N, _difference_sums, _half_ln_2pi_bracket,
                             _sequence_balls, _sweep_width, aissen_ratio, bound_sweep,
                             check_bound, impens_grid, impens_sandwich, sequence_point)
from stirling.cli import IMPENS_GRID_ORDERS, IMPENS_GRID_X, _outcome
from stirling.errors import (DomainError, InconclusiveError, ResourceError,
                             ValidityError)
from stirling.fixed import _exp_bracket
from stirling.mpcore import BigFloat, PrecisionCtx, elementary
from stirling.oracle import FACTORIAL_CAP
from stirling.series import remainder_R

CTX = PrecisionCtx(256)
CTX128 = PrecisionCtx(128)

HALF_LN_2PI = Fraction(
    "0.9189385332046727417803297364056176398613974736377834128171515404827657")


def test_sequence_point_n1():
    sp = sequence_point(1, CTX)
    # r_1 = 1 - (1/2) ln(2 pi)
    assert abs(sp.r_n - (1 - HALF_LN_2PI)) < Fraction(1, 10**60)
    assert sp.c_n.is_zero()
    # v_1 = 1/e
    inv_e = 1 / elementary("exp", 1, CTX)
    assert abs(sp.v_n - inv_e) < Fraction(1, 1 << 240)


def test_sequence_point_n2_v():
    sp = sequence_point(2, CTX)
    expected = 2 / elementary("exp", 2, CTX)
    assert abs(sp.v_n - expected) < Fraction(1, 1 << 240)


def test_c_plus_r_is_constant():
    # c_n + r_n = 1 - (1/2) ln(2 pi) by definition unwinding
    for n in (1, 2, 17, 100):
        sp = sequence_point(n, CTX)
        assert abs(sp.c_n + sp.r_n - (1 - HALF_LN_2PI)) < Fraction(1, 1 << 230)


def test_robbins_at_one():
    rep = check_bound("robbins", 1, CTX)
    assert rep.holds
    assert rep.lhs < rep.mid < rep.rhs
    assert abs(rep.lhs - Fraction(1, 13)) < Fraction(1, 1 << 240)
    # margin = min(r_1 - 1/13, 1/12 - r_1) = 1/12 - r_1 ~ 0.0023
    assert abs(rep.margin - (Fraction(1, 12) - (1 - HALF_LN_2PI))) \
        < Fraction(1, 1 << 230)


def test_michel_validity_threshold():
    with pytest.raises(ValidityError):
        check_bound("michel", 2, CTX)
    rep = check_bound("michel", 3, CTX)
    assert rep.holds and rep.margin > 0


def test_hummel_at_two_and_validity():
    rep = check_bound("hummel", 2, CTX)
    assert rep.holds
    assert Fraction(11, 12) < rep.mid < 1
    with pytest.raises(ValidityError):
        check_bound("hummel", 1, CTX)


def test_maria_one_sided():
    rep = check_bound("maria", 1, CTX)
    assert rep.rhs is None and rep.holds
    assert abs(rep.lhs - Fraction(2, 25)) < Fraction(1, 1 << 240)  # 1/12.5


def test_nanjundiah_at_one():
    rep = check_bound("nanjundiah", 1, CTX)
    assert rep.holds
    assert abs(rep.lhs - (Fraction(1, 12) - Fraction(1, 360))) < Fraction(1, 1 << 230)


@pytest.mark.parametrize("family", sorted(FAMILY_MIN_N))
@pytest.mark.parametrize("n", [1, 2, 3, 10, 137, 2000])
def test_families_hold_on_samples(family, n):
    if n < FAMILY_MIN_N[family]:
        with pytest.raises(ValidityError):
            check_bound(family, n, CTX128)
        return
    rep = check_bound(family, n, CTX128)
    assert rep.holds and rep.margin > 0


def test_sweep_matches_single_shot():
    reports = [r for r in bound_sweep(["robbins"], 50, CTX)]
    assert len(reports) == 50
    lone = check_bound("robbins", 37, CTX)
    swept = reports[36]
    assert swept.n == 37
    assert abs(swept.mid - lone.mid) < Fraction(1, 1 << 240)


def test_r_decreasing_and_tail_envelopes():
    prev = None
    for item in bound_sweep(["robbins"], 10**4, CTX128):
        n, r = item.n, item.mid
        if prev is not None:
            assert r < prev, n
        prev = r
        # |r_n - 1/(12n)| <= 1/(12n(12n+1)): restates the two-sided bound
        assert abs(r - Fraction(1, 12 * n)) <= Fraction(1, 12 * n * (12 * n + 1))


def test_coleman_limit_envelope():
    limit = 1 - HALF_LN_2PI
    for n in (10, 50, 137, 1000):
        sp = sequence_point(n, CTX128)
        assert abs(sp.c_n - limit) <= Fraction(1, 10 * n)


def test_impens_at_one_zero_zero():
    rep = impens_sandwich(1, 0, 0, CTX)
    assert rep.holds
    assert rep.lhs.is_zero()
    assert abs(rep.mid - (1 - HALF_LN_2PI)) < Fraction(1, 10**55)
    assert abs(rep.rhs - Fraction(1, 12)) < Fraction(1, 1 << 240)


def test_impens_at_half():
    rep = impens_sandwich(Fraction(1, 2), 1, 1, CTX)
    assert rep.holds and rep.margin > 0


def test_impens_tight_cell_at_moderate_x():
    rep = impens_sandwich(10, 4, 4, CTX)
    assert rep.holds
    assert rep.margin < Fraction(1, 10**10)
    assert rep.margin > 0


def test_impens_inconclusive_at_low_precision():
    # at 64 working bits the deep cells at x=50 cannot clear the oracle
    # error bound; the check must refuse rather than guess
    with pytest.raises(InconclusiveError):
        impens_sandwich(50, 6, 6, PrecisionCtx(64))


def test_impens_consistent_with_remainder_values():
    rep = impens_sandwich(2, 1, 2, CTX)
    assert abs(rep.lhs - remainder_R(2, 2, CTX)) < Fraction(1, 1 << 230)
    assert abs(rep.rhs - remainder_R(2, 5, CTX)) < Fraction(1, 1 << 230)


def _sandwich_outcome(item):
    """Comparable form of one cell: exact hex values, or the inconclusive message."""
    if isinstance(item, InconclusiveError):
        return ("inconclusive", str(item))
    return (item.family, item.n, item.lhs.to_hex(), item.mid.to_hex(),
            item.rhs.to_hex(), item.margin.to_hex(), item.holds)


def _per_cell_outcomes(xs, orders, ctx):
    out = []
    for x in xs:
        for n in orders:
            for m in orders:
                try:
                    out.append(_sandwich_outcome(impens_sandwich(x, n, m, ctx)))
                except InconclusiveError as exc:
                    out.append(_sandwich_outcome(exc))
    return out


def test_impens_grid_matches_per_cell_sandwich():
    xs = [Fraction(1, 2), Fraction(10), Fraction(50)]
    grid = [_sandwich_outcome(item) for item in impens_grid(xs, range(4), CTX128)]
    assert len(grid) == 3 * 4 * 4
    assert grid == _per_cell_outcomes(xs, range(4), CTX128)


def test_impens_grid_inconclusive_at_same_cells_as_per_cell():
    xs = [Fraction(10), Fraction(50)]
    ctx = PrecisionCtx(64)
    grid = [_sandwich_outcome(item) for item in impens_grid(xs, range(7), ctx)]
    assert grid == _per_cell_outcomes(xs, range(7), ctx)
    assert any(cell[0] == "inconclusive" for cell in grid)


def test_impens_grid_evaluates_oracle_once_per_x(monkeypatch):
    calls = []
    real = stirling.bounds.lngamma_binet2

    def counting(z, ctx):
        calls.append(z)
        return real(z, ctx)

    monkeypatch.setattr(stirling.bounds, "lngamma_binet2", counting)
    cells = list(impens_grid(IMPENS_GRID_X, IMPENS_GRID_ORDERS, CTX))
    assert len(cells) == 7 * 7 * 7
    assert len(calls) == len(IMPENS_GRID_X) == 7


# bits -> the (x, n, m) cells of the report's grid that are inconclusive;
# every other cell holds, and none fails.  At 64 bits the oracle's bound at
# x = 50 is too wide for the deepest orders.
GRID_INCONCLUSIVE = {
    64: {("50", n, m) for n in range(6) for m in (5, 6)} | {("50", 6, m) for m in range(7)},
    128: set(),
    256: set(),
    768: set(),
}


@pytest.mark.parametrize("bits", sorted(GRID_INCONCLUSIVE))
def test_impens_grid_outcomes_pinned(bits):
    keys = [(str(x), n, m) for x in IMPENS_GRID_X
            for n in IMPENS_GRID_ORDERS for m in IMPENS_GRID_ORDERS]
    expected = {key: "inconclusive" if key in GRID_INCONCLUSIVE[bits] else "held"
                for key in keys}
    cells = list(impens_grid(IMPENS_GRID_X, IMPENS_GRID_ORDERS, PrecisionCtx(bits)))
    assert {key: _outcome(cell) for key, cell in zip(keys, cells, strict=True)} == expected
    assert len(GRID_INCONCLUSIVE[64]) == 19
    # a margin's sign is its verdict, and an inconclusive margin lies within
    # a non-empty envelope
    for cell in cells:
        if isinstance(cell, InconclusiveError):
            assert abs(cell.margin) <= cell.envelope and cell.envelope > 0
        else:
            assert (cell.margin > 0) == cell.holds


# x log-uniform over [1e-6, 1e30]: every float is an exact Fraction
@settings(max_examples=30, deadline=None)
@given(log10_x=st_.floats(min_value=-6, max_value=30),
       bits=st_.sampled_from([64, 96, 128, 256, 512, 768]))
@example(log10_x=0.0, bits=64)  # x = 1, where ln x = 0
@example(log10_x=math.log10(0.5), bits=64)  # x = 1/2, where x - 1/2 = 0
def test_sandwich_middle_interval_contains_loggamma(log10_x, bits):
    x, (lo, hi, den) = stirling.bounds._sandwich_point(10.0 ** log10_x, PrecisionCtx(bits))
    with mpmath.workprec(bits + 128):
        xm = mpmath.mpf(x.numerator) / x.denominator
        main = (xm - 0.5) * mpmath.log(xm) - xm + mpmath.log(2 * mpmath.pi) / 2
        ref = Fraction(*libmp.to_rational((mpmath.loggamma(xm) - main)._mpf_))
    assert Fraction(lo, den) <= ref <= Fraction(hi, den)


def test_only_the_verdict_helper_judges_a_margin():
    # one verdict rule in bounds: only _sign_test compares a gap with 0 and
    # only _verdict_row, which takes its verdict from _sign_test, builds an
    # InconclusiveError; the one other test against 0 is _michel_mid taking
    # the modulus of Michel's middle value
    judging = {"InconclusiveError", *(f"libmp.mpf_{op}" for op in
                                      ("lt", "le", "gt", "ge", "cmp", "eq"))}
    tree = ast.parse(Path(stirling.bounds.__file__).read_text())
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and ast.unparse(node.func) in judging:
                found.add((fn.name, ast.unparse(node.func)))
            elif isinstance(node, ast.Compare) and any(
                    isinstance(c, ast.Constant) and c.value == 0
                    for c in (node.left, *node.comparators)):
                found.add((fn.name, ast.unparse(node)))
    assert found == {("_verdict_row", "InconclusiveError"),
                     ("_sign_test", "lo * q - p <= 0"), ("_sign_test", "hi * q - p < 0"),
                     ("_sign_test", "p - hi * q <= 0"), ("_sign_test", "p - lo * q < 0"),
                     ("_michel_mid", "a >= 0"), ("_michel_mid", "b <= 0")}


_ENDS = st_.integers(min_value=-10**6, max_value=10**6)


@settings(max_examples=200, deadline=None)
@given(data=st_.data())
def test_sign_test_is_the_verdict_rule(data):
    # on any integer interval [lo, hi] / den and exact bounds p/q, one- or
    # two-sided, ends that touch a bound included, the sign test and
    # _verdict_row give the outcome that exact rationals give
    den = data.draw(st_.integers(min_value=1, max_value=10**6))
    lo = data.draw(_ENDS)
    hi = data.draw(st_.integers(min_value=lo, max_value=lo + 10**6))
    scale = data.draw(st_.integers(min_value=1, max_value=7))
    bound = st_.one_of(
        st_.none(),
        st_.sampled_from([(lo * scale, den * scale), (hi * scale, den * scale)]),
        st_.tuples(_ENDS, st_.integers(min_value=1, max_value=10**6)))
    lhs, rhs = data.draw(bound), data.draw(bound)
    mid = (lo, hi, den)
    below, above = Fraction(lo, den), Fraction(hi, den)
    holds = (lhs is None or below > Fraction(*lhs)) and (rhs is None or above < Fraction(*rhs))
    fails = (lhs is not None and above < Fraction(*lhs)) or (
        rhs is not None and below > Fraction(*rhs))
    expected = "held" if holds else "failed" if fails else "inconclusive"
    assert {True: "held", False: "failed", None: "inconclusive"}[
        stirling.bounds._sign_test(mid, lhs, rhs)] == expected
    assert _outcome(stirling.bounds._verdict_row("test", 1, mid, lhs, rhs, 64)) == expected


def test_impens_grid_rejects_negative_orders():
    with pytest.raises(DomainError):
        list(impens_grid([1], [0, -1], CTX128))


def test_inconclusive_error_fields_sandwich():
    with pytest.raises(InconclusiveError) as info:
        impens_sandwich(50, 6, 5, PrecisionCtx(64))
    exc = info.value
    assert exc.family == "impens" and exc.n == 6
    assert abs(exc.margin) <= exc.envelope
    assert exc.envelope > 0


def test_inconclusive_error_fields_family(monkeypatch):
    # widening the bracket of (1/2) ln(2 pi) by 1/1000 each way widens r_5
    # as much, so robbins' margin interval at n=5 straddles 0
    real = stirling.bounds._half_ln_2pi_bracket

    def wide(W):
        lo, hi = real(W)
        return lo - (1 << W) // 1000, hi + (1 << W) // 1000

    monkeypatch.setattr(stirling.bounds, "_half_ln_2pi_bracket", wide)
    with pytest.raises(InconclusiveError) as info:
        check_bound("robbins", 5, CTX)
    exc = info.value
    assert str(exc) == "robbins at n=5: margin within the arithmetic envelope at 256 bits"
    assert (exc.family, exc.n) == ("robbins", 5)
    assert abs(exc.margin) <= exc.envelope
    assert 0 < exc.envelope < Fraction(1, 100)


def test_inconclusive_error_fields_michel(monkeypatch):
    # widening the bracket of (1/2) ln(2 pi) by 10^-5 each way widens
    # e^(r_6) about as much, so Michel's modulus interval at n=6 reaches past
    # the bound and its margin interval straddles 0 on the negative side
    real = stirling.bounds._half_ln_2pi_bracket

    def wide(W):
        lo, hi = real(W)
        return lo - (1 << W) // 10**5, hi + (1 << W) // 10**5

    monkeypatch.setattr(stirling.bounds, "_half_ln_2pi_bracket", wide)
    with pytest.raises(InconclusiveError) as info:
        check_bound("michel", 6, CTX)
    exc = info.value
    assert str(exc) == "michel at n=6: margin within the arithmetic envelope at 256 bits"
    assert (exc.family, exc.n) == ("michel", 6)
    assert exc.margin.to_hex() == (
        "-0x1.6062369bd3db60606617c2b5eb17e3c39e16166a1186fa37be87b63e15043574p-19")
    assert exc.envelope.to_hex() == (
        "0x1.7bab42de9f42ca6ac5619a7bdea75eb40e8805c7e5bd989965fd1e046b17d434p-16")
    rows = list(bound_sweep(["michel"], 6, CTX))
    assert isinstance(rows[-1], InconclusiveError) and str(rows[-1]) == str(exc)


def test_aissen_ratio_decays_like_inverse_n():
    a1 = aissen_ratio(1, CTX)
    assert abs(a1) < 1  # finite, no blowup
    a10 = abs(aissen_ratio(10, CTX))
    a100 = abs(aissen_ratio(100, CTX))
    ratio = a10 / a100
    assert Fraction(7) < ratio < Fraction(13)


def test_aissen_limit_value():
    # sqrt(n) v_n -> 1/sqrt(2 pi)
    sp = sequence_point(10**4, CTX)
    root_n = elementary("sqrt", 10**4, CTX)
    target = 1 / elementary("sqrt", 2 * BigFloat(libmp.mpf_pi(CTX.bits, "n"), CTX.bits), CTX)
    assert abs(root_n * sp.v_n - target) <= Fraction(1, 10**4)


def _ulps(x, ref, bits: int) -> float:
    """|x - ref| in ulps of ref at ``bits`` (0 when both are 0)."""
    if ref == 0:
        return 0.0 if x.is_zero() else math.inf
    ulp = mpmath.mpf(2) ** (mpmath.floor(mpmath.log(abs(ref), 2)) + 1 - bits)
    return float(abs(mpmath.mpf(x.raw) - ref) / ulp)


@pytest.mark.parametrize("bits", [64, 128, 256, 768])
def test_aissen_ratio_within_2_ulp_of_mpmath(bits):
    ctx = PrecisionCtx(bits)
    with mpmath.workprec(bits + 128):
        for n in (1, 2, 10, 10**3, 10**4, FACTORIAL_CAP - 1):
            ref = n * mpmath.expm1((n + mpmath.mpf(1) / 2) * mpmath.log1p(mpmath.mpf(1) / n) - 1)
            assert _ulps(aissen_ratio(n, ctx), ref, bits) <= 2, n


def test_aissen_ratio_takes_no_factorial(monkeypatch):
    def refuse(*args):
        raise AssertionError("aissen_ratio took a factorial")

    monkeypatch.setattr(stirling.bounds, "_ln_factorial", refuse)
    monkeypatch.setattr(stirling.oracle, "_ln_factorial", refuse)
    monkeypatch.setattr(math, "factorial", refuse)
    for n in (1, 10**4, FACTORIAL_CAP - 1):
        assert 0 < aissen_ratio(n, CTX) < Fraction(1, 12 * n)


@pytest.mark.parametrize("bits", [64, 128, 256, 768])
def test_sequence_point_within_2_ulp_of_mpmath(bits):
    # r_n ~ 1/(12n) is what is left of terms near n ln n
    ctx = PrecisionCtx(bits)
    with mpmath.workprec(bits + 128):
        for n in (1, 10**4, FACTORIAL_CAP):
            ln_fact = mpmath.loggamma(n + 1)
            lnn = mpmath.log(n)
            r = ln_fact - (n + mpmath.mpf(1) / 2) * lnn + n - mpmath.log(2 * mpmath.pi) / 2
            c = (n + mpmath.mpf(1) / 2) * lnn - n + 1 - ln_fact
            v = mpmath.exp(n * lnn - n - ln_fact)
            sp = sequence_point(n, ctx)
            for got, ref in ((sp.r_n, r), (sp.c_n, c), (sp.v_n, v)):
                assert _ulps(got, ref, bits) <= 2, n


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_sequence_point_balls_hold_against_mpmath(bits):
    # each ball of _sequence_balls, before and after its rounding to bits,
    # holds its sequence value from mpmath at 64 bits past the ball's own
    # precision, and r_n's error is far below an ulp at bits
    ctx = PrecisionCtx(bits)
    for n in (1, 2, 3, 10, 10**3, 10**4, FACTORIAL_CAP):
        balls = _sequence_balls(n, ctx)
        with mpmath.workprec(balls[0].wp + 64):
            ln_fact, lnn = mpmath.loggamma(n + 1), mpmath.log(n)
            c = (n + mpmath.mpf(1) / 2) * lnn - n + 1 - ln_fact
            refs = [1 - c - mpmath.log(2 * mpmath.pi) / 2, c, mpmath.exp(n * lnn - n - ln_fact)]
        for ball, ref in zip(balls, refs):
            ref = Fraction(*libmp.to_rational(ref._mpf_))
            for held in (ball, ball.rounded(bits)):
                lo, hi = (Fraction(*libmp.to_rational(end)) for end in held.ends())
                assert lo <= ref <= hi, n
        r = Fraction(*libmp.to_rational(balls[0].v))
        assert Fraction(*libmp.to_rational(balls[0].error())) <= r / 2**(bits + 30), n


@settings(max_examples=25, deadline=None)
@given(x=st_.fractions(min_value=Fraction(1, 5), max_value=Fraction(60),
                       max_denominator=20),
       lo=st_.integers(min_value=0, max_value=4),
       hi=st_.integers(min_value=0, max_value=4))
def test_sandwich_holds_at_random_arguments(x, lo, hi):
    rep = impens_sandwich(x, lo, hi, CTX128)
    assert rep.holds
    assert rep.lhs < rep.mid < rep.rhs


def test_domain_guards():
    with pytest.raises(DomainError):
        check_bound("robbins", 0, CTX)
    with pytest.raises(DomainError):
        check_bound("unknown", 3, CTX)
    with pytest.raises(ResourceError):
        sequence_point(10**5 + 1, CTX)
    with pytest.raises(DomainError):
        impens_sandwich(-1, 0, 0, CTX)


def test_bound_sweep_without_families_is_typed():
    with pytest.raises(DomainError):
        list(bound_sweep([], 10, CTX))


def _row_fields(item):
    def hx(v):
        return None if v is None else v.to_hex()
    if isinstance(item, InconclusiveError):
        return ("inconclusive", item.family, item.n, hx(item.margin), hx(item.envelope))
    return (item.family, item.n, hx(item.lhs), hx(item.mid), hx(item.rhs),
            item.holds, hx(item.margin))


# bits -> (n_max, sha256 over repr(_row_fields(row)) + "\n" for every row of
# the five-family sweep to n_max).  r_n comes from the difference equation
# as an exact interval: mid is its midpoint, and margin the end of the
# margin interval nearest 0, rounded toward 0.  The 128-bit sweep covers
# the benchmark's range, n <= 5000.
SWEEP_DIGESTS = {
    64: (400, "7152750e7a9d4e9ac267ce8d3d3cca525da3f58674e24ed94aae375cf2448e04"),
    128: (5000, "fbeae7bc9184ad53687b85d378cfc372151260e1b5afeb9447797d42a7180c6e"),
    256: (400, "dadec489598f36d4b74cee647c4cec2e029d7ee2dc9eec7f6ea08edd5f924c23"),
    768: (300, "bce19b00d5f48a12e60366c46ee6200917cc797d8d332e91064f57ce3a0774ed"),
}


def _sweep_digest(n_max, bits):
    h = hashlib.sha256()
    for item in bound_sweep(list(FAMILY_MIN_N), n_max, PrecisionCtx(bits)):
        h.update(repr(_row_fields(item)).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("bits", sorted(SWEEP_DIGESTS))
def test_bound_sweep_rows_pinned(bits):
    n_max, digest = SWEEP_DIGESTS[bits]
    assert _sweep_digest(n_max, bits) == digest


@pytest.mark.parametrize("bits", [64, 128, 768])
def test_michel_rows_are_decided_at_the_coarse_width(bits):
    # a Michel row decided on its coarse interval builds its W-bit middle
    # value on first read; the pinned digests cover those fields
    rows = list(bound_sweep(["michel"], 300, PrecisionCtx(bits)))
    assert all(isinstance(r, stirling.bounds._CoarseRow) for r in rows)
    assert "_mid" not in vars(rows[-1])
    rows[-1].margin
    assert "_mid" in vars(rows[-1])


@settings(max_examples=60, deadline=None)
@given(bits=st_.sampled_from([64, 128, 256, 768]),
       n=st_.integers(min_value=3, max_value=FACTORIAL_CAP), data=st_.data())
def test_michel_coarse_interval_contains_the_w_bit_one(bits, n, data):
    # _rows' containment lemma, for r_n's interval near 1/(12n) at any
    # alignment to 2^-C and any width up to the sweep's D: the coarse
    # interval of r_n reaches at least 2 units of 2^-C above the W-bit one
    # and less than 2 below it, and Michel's middle value at 2^-C contains
    # the one at W
    W = _sweep_width(PrecisionCtx(bits))
    half = _half_ln_2pi_bracket(W)
    S = (1 << W) - half[1] - (1 << W) // (12 * n) + data.draw(st_.integers(0, 1 << (W - 100)))
    D = data.draw(st_.integers(0, FACTORIAL_CAP * (bits + 32)))
    C = stirling.bounds._COARSE_W
    k = W - C
    assert k > W.bit_length()
    x, y = (1 << W) - half[1] - S - D, (1 << W) - half[0] - S
    x_c, y_c = stirling.bounds._coarse_r(S, D, W, half, C)
    assert x - (2 << k) < x_c << k <= x and y_c << k >= y + (2 << k)
    a, b, c = stirling.bounds._michel_mid(n, x_c, y_c, C)
    lo, hi, den = stirling.bounds._michel_mid(n, x, y, W)
    assert a * den <= lo * c and hi * c <= b * den


def test_michel_rows_fall_back_to_w_bit_for_bit(monkeypatch):
    # at 2^-24 all but the first 15 Michel rows are inconclusive on their
    # coarse interval and are judged at W; the sweep is the pinned one
    monkeypatch.setattr(stirling.bounds, "_COARSE_W", 24)
    n_max, digest = SWEEP_DIGESTS[128]
    h, coarse = hashlib.sha256(), 0
    for item in bound_sweep(list(FAMILY_MIN_N), n_max, CTX128):
        h.update(repr(_row_fields(item)).encode() + b"\n")
        coarse += isinstance(item, stirling.bounds._CoarseRow)
    assert coarse == 15
    assert h.hexdigest() == digest


@pytest.mark.parametrize("bits", [64, 256])
def test_michel_rows_at_the_cap_are_decided_at_the_coarse_width(bits, monkeypatch):
    # check_bound's Michel rows at the factorial cap are decided at 2^-C,
    # and their fields are those of the row judged at W alone
    ctx, calls = PrecisionCtx(bits), []
    real = stirling.bounds._rows

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stirling.bounds, "_rows", spy)
    for n in (FACTORIAL_CAP - 1, FACTORIAL_CAP):
        rep = check_bound("michel", n, ctx)
        assert isinstance(rep, stirling.bounds._CoarseRow) and rep.holds
        with monkeypatch.context() as m:
            m.setattr(stirling.bounds, "_COARSE_W", 1 << 20)  # no coarse width below W
            w_bit, = real(*calls[-1])
        assert not isinstance(w_bit, stirling.bounds._CoarseRow)
        assert _row_fields(rep) == _row_fields(w_bit)


def test_sweep_holds_no_state_that_grows_with_n():
    # bound_sweep's traced peak, its rows discarded, is the same at
    # n = 500 and n = 5000
    ctx = PrecisionCtx(256)
    for _ in bound_sweep(list(FAMILY_MIN_N), 3, ctx):
        pass
    peaks = []
    for n_max in (500, 5000):
        tracemalloc.start()
        try:
            for _ in bound_sweep(list(FAMILY_MIN_N), n_max, ctx):
                pass
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 4 << 10 and max(peaks) < 64 << 10, peaks


@pytest.mark.parametrize("n_max", [40, 300])
def test_check_bound_is_the_sweep_row_in_hex(n_max):
    rows = {(r.family, r.n): _row_fields(r)
            for r in bound_sweep(list(FAMILY_MIN_N), n_max, CTX128)}
    for family in FAMILY_MIN_N:
        for n in (3, 17, 40):
            assert _row_fields(check_bound(family, n, CTX128)) == rows[family, n]


def test_sweep_and_check_bound_leave_the_factorial_path(monkeypatch):
    def refuse(*args):
        raise AssertionError("the factorial path was taken")

    monkeypatch.setattr(stirling.bounds, "_ln_factorial", refuse)
    monkeypatch.setattr(stirling.oracle, "ln_factorial_range", refuse)
    assert len(list(bound_sweep(list(FAMILY_MIN_N), 30, CTX128))) == 30 * 5 - 3
    assert check_bound("michel", 30, CTX128).holds


@pytest.mark.parametrize("bits", [64, 128, 256, 768])
@settings(max_examples=4, deadline=None)
@given(n=st_.integers(min_value=1, max_value=FACTORIAL_CAP))
@example(n=1)
@example(n=FACTORIAL_CAP)
def test_difference_equation_brackets_hold(bits, n):
    # every bracket of a sweep row against mpmath at 2W bits
    W = _sweep_width(PrecisionCtx(bits))
    for _, S, D in _difference_sums(n, W):
        pass
    h_lo, h_hi = _half_ln_2pi_bracket(W)
    one = 1 << W
    r_lo, r_hi = one - h_hi - S - D, one - h_lo - S
    e_lo, e_hi = _exp_bracket(r_lo, r_hi, W)
    with mpmath.workprec(2 * W):
        half = mpmath.log(2 * mpmath.pi) / 2
        r = mpmath.loggamma(n + 1) - (n + mpmath.mpf(1) / 2) * mpmath.log(n) + n - half
        assert h_lo < mpmath.ldexp(half, W) < h_hi
        assert S <= mpmath.ldexp(1 - half - r, W) < S + D or (n == 1 and S == D == 0)
        assert one - S - D <= mpmath.ldexp(r + half, W) <= one - S  # Hummel's
        assert r_lo <= mpmath.ldexp(r, W) <= r_hi
        assert e_lo <= mpmath.ldexp(mpmath.exp(r), W) <= e_hi


@settings(max_examples=50, deadline=None)
@given(bits=st_.sampled_from([64, 128, 256, 768]), data=st_.data())
def test_exp_bracket_holds_on_any_interval(bits, data):
    W = _sweep_width(PrecisionCtx(bits))
    lo = data.draw(st_.integers(min_value=0, max_value=((1 << W) - 1) // 12))
    hi = data.draw(st_.integers(min_value=lo, max_value=((1 << W) - 1) // 12))
    e_lo, e_hi = _exp_bracket(lo, hi, W)
    with mpmath.workprec(2 * W):
        assert e_lo <= mpmath.ldexp(mpmath.exp(mpmath.ldexp(lo, -W)), W)
        assert mpmath.ldexp(mpmath.exp(mpmath.ldexp(hi, -W)), W) <= e_hi


def test_sandwich_at_huge_x_is_typed():
    # x = 10^400 is past the double range; the verdict must still be a
    # report or an inconclusive cell, never an untyped overflow
    x = Fraction(10) ** 400
    try:
        rep = impens_sandwich(x, 0, 0, PrecisionCtx(64))
    except InconclusiveError as exc:
        assert exc.family == "impens"
    else:
        assert isinstance(rep, stirling.bounds.BoundReport)
    cells = list(impens_grid([x], [0, 1], PrecisionCtx(64)))
    assert len(cells) == 4
    assert all(isinstance(c, (stirling.bounds.BoundReport, InconclusiveError))
               for c in cells)
