"""Bernoulli numbers and series coefficients, exact rationals throughout."""

import math
import random
import sys
import threading
from fractions import Fraction

import mpmath
import pytest

from stirling.bernoulli import BernoulliTable, bernoulli, series_coeff_a, table
from stirling.errors import ResourceError

# classical table, independent of both recurrences in the package
KNOWN_B = {
    0: Fraction(1), 1: Fraction(-1, 2), 2: Fraction(1, 6), 3: Fraction(0),
    4: Fraction(-1, 30), 6: Fraction(1, 42), 8: Fraction(-1, 30),
    10: Fraction(5, 66), 12: Fraction(-691, 2730), 14: Fraction(7, 6),
    16: Fraction(-3617, 510), 18: Fraction(43867, 798),
    20: Fraction(-174611, 330),
}


def akiyama_tanigawa(n: int) -> list[Fraction]:
    """Independent oracle: the triangular scheme produces B_m with the
    +1/2 convention at index 1; flip that entry to compare."""
    a = [Fraction(0)] * (n + 1)
    out = []
    for m in range(n + 1):
        a[m] = Fraction(1, m + 1)
        for j in range(m, 0, -1):
            a[j - 1] = j * (a[j - 1] - a[j])
        out.append(a[0])
    out[1] = -out[1]
    return out


def test_base_case():
    assert bernoulli(0) == 1
    assert series_coeff_a(0) == 1


def test_first_values_by_hand():
    # B_0 + 2 B_1 = 0
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(3) == 0
    assert bernoulli(4) == Fraction(-1, 30)
    # a_0/2! + a_1 = 0 ; a_0/3! + a_1/2! + a_2 = 0
    assert series_coeff_a(1) == Fraction(-1, 2)
    assert series_coeff_a(2) == Fraction(1, 12)


def test_against_literature_table():
    for k, v in KNOWN_B.items():
        assert bernoulli(k) == v


def test_against_akiyama_tanigawa_oracle():
    oracle = akiyama_tanigawa(60)
    for k in range(61):
        assert bernoulli(k) == oracle[k]


# Tests that read up to the cap use a fresh table, so that run on its own
# this file still leaves test_shared_table_monotone_growth room to grow.


def test_against_mpmath_bernfrac_to_cap():
    # mpmath's own B_k, independent of the tangent numbers and both recurrences
    t = BernoulliTable()
    for k in range(t.cap + 1):
        p, q = mpmath.bernfrac(k)
        assert t.b(k) == Fraction(int(p), int(q))


def test_identity_a_equals_b_over_factorial():
    for k in range(129):
        assert series_coeff_a(k) * math.factorial(k) == bernoulli(k)


def test_a_past_verification_depth_is_b_over_factorial():
    t = BernoulliTable()
    for k in (129, 200, 512):
        assert t.a(k) * math.factorial(k) == t.b(k)


def test_odd_indices_vanish():
    for j in range(1, 64):
        assert bernoulli(2 * j + 1) == 0


def test_even_sign_alternation():
    for k in range(1, 65):
        sign = 1 if bernoulli(2 * k) > 0 else -1
        assert sign == (-1) ** (k + 1)


def test_recurrence_residual_exactly_zero():
    for k in range(1, 129):
        residual = sum(math.comb(k + 1, j) * bernoulli(j) for j in range(k + 1))
        assert residual == 0


def test_a_recurrence_residual_exactly_zero():
    for k in range(1, 129):
        residual = sum(series_coeff_a(j) / math.factorial(k + 1 - j)
                       for j in range(k + 1))
        assert residual == 0


def _a_by_fractions(K: int) -> list[Fraction]:
    """a_0..a_K by the factorial recurrence, one Fraction sum per term."""
    a = [Fraction(1)]
    for m in range(1, K + 1):
        a.append(-sum(a[j] / math.factorial(m + 1 - j) for j in range(m)))
    return a


def test_a_equals_the_fraction_recurrence_fresh_and_stepwise():
    reference = _a_by_fractions(128)
    fresh = BernoulliTable()
    assert fresh.a(128) == reference[128]  # one extension, to k = 128
    assert [fresh.a(k) for k in range(129)] == reference
    stepped = BernoulliTable()  # extended at every k
    for k in range(129):
        assert stepped.a(k) == reference[k]


def test_a_grows_only_when_asked_and_only_as_far():
    t = BernoulliTable()
    t.b(512)
    assert len(t._a) == 1  # B's growth runs no a_k
    for k in (1, 2, 5, 64):
        t.a(k)
        assert len(t._a) == k + 1
    t.a(40)
    assert len(t._a) == 65
    t.a(129)  # past the verification depth: B_129 / 129!, no recurrence
    assert len(t._a) == 65
    t.a(128)
    assert len(t._a) == 129


@pytest.mark.parametrize("order", ["up", "down", "shuffled", "b-first"])
def test_a_times_factorial_is_b_in_any_order(order):
    t, ks = BernoulliTable(), list(range(129))
    if order == "down":
        ks.reverse()
    elif order == "shuffled":
        random.Random(7).shuffle(ks)
    elif order == "b-first":
        t.b(128)
    got = {k: t.a(k) for k in ks}
    assert all(got[k] * math.factorial(k) == t.b(k) for k in range(129))


def test_two_readers_growing_a_see_whole_rows():
    # one reader climbs k = 0..128 a step at a time, so a grows at each k;
    # the other jumps down from 128, and every value it reads must be final
    reference = _a_by_fractions(128)
    shared = BernoulliTable()
    start = threading.Barrier(2)
    results: list[dict] = [{}, {}]

    def reader(i: int) -> None:
        start.wait()
        for k in (range(129) if i == 0 else range(128, -1, -3)):
            results[i][k] = shared.a(k)

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for r in results:
        assert all(value == reference[k] for k, value in r.items())
    assert len(results[0]) == 129 and len(shared._a) == 129


def test_cap_enforced():
    t = BernoulliTable(cap=16)
    assert t.b(16) == KNOWN_B[16]
    with pytest.raises(ResourceError):
        t.b(17)


def test_cap_enforced_for_a():
    with pytest.raises(ResourceError):
        BernoulliTable(cap=16).a(17)


def test_extension_preserves_entries():
    t = BernoulliTable(cap=128)
    first = t.b(10)
    t.b(100)
    assert t.b(10) == first == Fraction(5, 66)
    assert t.max_index >= 100


def test_shared_table_monotone_growth():
    # clamped to the cap: an earlier test may already have filled the table
    before = table().max_index
    bernoulli(min(max(before, 40) + 2, table().cap))
    assert table().max_index >= before


def test_stepwise_growth_equals_fresh_table():
    stepped = BernoulliTable()
    for k in (10, 100, 300):
        stepped.b(k)
    fresh = BernoulliTable()
    fresh.b(300)
    assert stepped.max_index == fresh.max_index
    for k in range(301):
        assert stepped.b(k) == fresh.b(k)
        assert stepped.a(k) == fresh.a(k)


def test_concurrent_growth_matches_single_thread():
    reference = BernoulliTable()
    expected = {k: (reference.b(k), reference.a(k)) for k in range(513)}
    shared = BernoulliTable()
    start = threading.Barrier(4)
    results: list[dict] = [{} for _ in range(4)]

    def reader(i: int) -> None:
        start.wait()
        # thread i reads k = i, i+4, i+8, ... so the four interleave
        for k in range(i, 513, 4):
            results[i][k] = (shared.b(k), shared.a(k))

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    got = {k: v for r in results for k, v in r.items()}
    assert got == expected
