"""Inequality corpus: sequence values, family checks, sandwich, margins."""

import hashlib
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st_
from mpmath import libmp

import stirling.bounds
from stirling.bounds import (FAMILY_MIN_N, _scale_threshold, aissen_ratio,
                             bound_sweep, check_bound, impens_grid,
                             impens_sandwich, sequence_point)
from stirling.cli import IMPENS_GRID_ORDERS, IMPENS_GRID_X
from stirling.errors import (DomainError, InconclusiveError, ResourceError,
                             ValidityError)
from stirling.mpcore import BigFloat, PrecisionCtx, elementary, pi
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
    # an envelope of 1 swallows every robbins margin
    monkeypatch.setattr(stirling.bounds, "_scale_threshold",
                        lambda n, wp: libmp.fone)
    with pytest.raises(InconclusiveError) as info:
        check_bound("robbins", 5, CTX)
    exc = info.value
    assert str(exc) == "robbins at n=5: margin within the arithmetic envelope at 256 bits"
    assert (exc.family, exc.n) == ("robbins", 5)
    assert exc.envelope == 1
    assert 0 < exc.margin < Fraction(1, 1000)


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
    target = 1 / elementary("sqrt", 2 * pi(CTX), CTX)
    assert abs(root_n * sp.v_n - target) <= Fraction(1, 10**4)


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
# the five-family sweep to n_max); sharing one r_n across the families leaves
# every row as it was when each family computed its own.  The 128-bit sweep
# covers the benchmark's range, n <= 5000.
SWEEP_DIGESTS = {
    64: (400, "ceedeb29e11e7a2655bba2afefdc9ca4d5a19d6f902b8726abc81a54759ab48b"),
    128: (5000, "22b802bf70554eb0e8f1f24af95c13b417fde5e165a17e2ccd404105750c527e"),
    256: (400, "ee0f82cf9d7aa13ab99f8bf4b9f30d6169de272a95f92492eb00b4c353aecfb9"),
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


# first n at which floor(log2((n + 2)(ln(n + 2) + 1))) reaches each magnitude
SCALE_MAG_STARTS = {2: 1, 3: 2, 4: 4, 5: 8, 6: 15, 7: 28, 8: 50, 9: 91,
                    10: 166, 11: 303, 12: 558, 13: 1030, 14: 1913, 15: 3568,
                    16: 6681, 17: 12556, 18: 23674, 19: 44773, 20: 84908}


def test_scale_threshold_magnitudes_pinned():
    wp = 100
    expected = 1
    for n in range(1, FACTORIAL_CAP + 1):
        if SCALE_MAG_STARTS.get(expected + 1) == n:
            expected += 1
        assert _scale_threshold(n, wp) == libmp.from_man_exp(1, expected - wp + 10), n
    assert expected == max(SCALE_MAG_STARTS)


def test_sandwich_threshold_on_grid_pinned(monkeypatch):
    # with a zero-error stub oracle the threshold is the rounding envelope
    # alone, whose magnitude follows the integer part of x
    zero = BigFloat.from_raw(libmp.fzero, CTX128)
    monkeypatch.setattr(stirling.bounds, "lngamma_binet2",
                        lambda x, ctx: SimpleNamespace(value=zero, error_bound=zero))
    mags = [3, 3, 3, 4, 4, 5, 8]
    for x, mag in zip(IMPENS_GRID_X, mags):
        point = stirling.bounds._sandwich_point(x, CTX128)
        assert point.threshold == libmp.from_man_exp(1, mag - point.wp + 10), x


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
