"""Constant recovery: the C_N sequence and the duplication-limit route."""

from fractions import Fraction

import pytest

from stirling.bernoulli import bernoulli
from stirling.constants import (ConstantSequence, best_constant_estimate,
                                c_sequence, duplication_constant)
from stirling.errors import DomainError, ValidityError
from stirling.mpcore import PrecisionCtx, rational_to_float

CTX = PrecisionCtx(256)

HALF_LN_2PI = Fraction(
    "0.9189385332046727417803297364056176398613974736377834128171515404827657")

# the classical printed table, five significant digits
PRINTED = ["0.91667", "0.91944", "0.91865", "0.91925", "0.91840",
           "0.92032", "0.91391", "0.94346", "0.76382", "2.1562"]


def test_first_two_entries_exact():
    seq = c_sequence(2, CTX)
    assert seq.entries[0][1] == Fraction(11, 12)
    assert seq.entries[1][1] == Fraction(331, 360)


def test_printed_table_within_one_ulp10():
    seq = c_sequence(10, CTX)
    for (n, c_exact, _), printed in zip(seq.entries, PRINTED):
        p = Fraction(printed)
        k = len(printed.split(".")[1])
        assert abs(c_exact - p) <= Fraction(11, 10**(k + 1)), (n, printed)


def test_telescoping_is_exact():
    seq = c_sequence(60, CTX)
    for (n_prev, c_prev, _), (n_cur, c_cur, _) in zip(seq.entries, seq.entries[1:]):
        assert c_cur - c_prev == -bernoulli(2 * n_cur) / (2 * n_cur * (2 * n_cur - 1))


def test_early_gap_shrinks_then_sequence_diverges():
    seq = c_sequence(60, CTX)
    gaps = [abs(c - HALF_LN_2PI) for (_, c, _) in seq.entries]
    assert min(gaps[:10]) <= Fraction(6, 10**4)
    mags = [abs(c) for (_, c, _) in seq.entries]
    for i in range(29, 59):
        assert mags[i + 1] > mags[i]


def test_reference_field_is_half_ln_2pi():
    seq = c_sequence(3, CTX)
    assert abs(seq.reference - HALF_LN_2PI) < Fraction(1, 10**60)


def test_best_estimate_on_the_first_ten():
    n_best, estimate = best_constant_estimate(c_sequence(10, CTX))
    assert n_best == 4
    assert abs(estimate - Fraction("0.91894")) <= Fraction(2, 10**3)


def test_best_estimate_monotone_increments_pick_last():
    # strictly shrinking increments: 1, 1/2, 1/4, ... => stop at the end
    entries = []
    acc = Fraction(0)
    ctx = PrecisionCtx(64)
    for n in range(1, 6):
        acc += Fraction(1, 2 ** n)
        entries.append((n, acc, rational_to_float(acc, ctx)))
    seq = ConstantSequence(entries=tuple(entries),
                           reference=rational_to_float(Fraction(1), ctx))
    n_best, _ = best_constant_estimate(seq)
    assert n_best == 5


def test_best_estimate_single_increment():
    n_best, estimate = best_constant_estimate(c_sequence(2, CTX))
    assert n_best == 2


def test_best_estimate_needs_two_entries():
    with pytest.raises(ValidityError):
        best_constant_estimate(c_sequence(1, CTX))


def test_duplication_constant_closed_form_z10():
    from stirling.mpcore import elementary
    got = duplication_constant(10, CTX)
    ln_105 = elementary("ln", Fraction(21, 20), CTX)
    expected = rational_to_float(HALF_LN_2PI + Fraction(1, 2), CTX) - 10 * ln_105
    # tolerance set by the 70-digit reference literal
    assert abs(got - expected) < Fraction(1, 10**68)
    assert abs(got - HALF_LN_2PI) <= Fraction(13, 10**3)


def test_duplication_constant_large_z():
    got = duplication_constant(10**6, CTX)
    assert abs(got - HALF_LN_2PI) <= Fraction(2, 10**7)


def test_duplication_gap_halves_when_z_doubles():
    g1 = abs(duplication_constant(1000, CTX) - rational_to_float(HALF_LN_2PI, CTX))
    g2 = abs(duplication_constant(2000, CTX) - rational_to_float(HALF_LN_2PI, CTX))
    ratio = g2 / g1
    assert abs(ratio - Fraction(1, 2)) <= Fraction(1, 10**3)


def test_duplication_constant_domain():
    with pytest.raises(DomainError):
        duplication_constant(Fraction(1, 2), CTX)
    with pytest.raises(DomainError):
        duplication_constant(0, CTX)
