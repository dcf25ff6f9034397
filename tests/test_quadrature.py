"""The tanh-sinh node tables, and the one loop over them: its budget, its
work per node, and the discretisation and rounding parts of its error
bound."""

from fractions import Fraction

import mpmath
import pytest
from mpmath import libmp

import stirling.oracle
import stirling.quadrature
from stirling.errors import ConvergenceError
from stirling.mpcore import PrecisionCtx, raw_expm1, to_raw
from stirling.oracle import lngamma_binet2
from stirling.quadrature import ts_nodes

WP = 192


def test_binet_budget_exhaustion(monkeypatch, count_calls):
    # at 256 bits the a-priori bound picks level 7, so a budget of 4 fails
    # before any node table is built or any arctan taken
    monkeypatch.setattr(stirling.oracle, "BINET_MAX_LEVEL", 4)
    keys = set(stirling.oracle._BINET_CACHE)
    atan = count_calls("mpf_atan")["mpf_atan"]
    with pytest.raises(ConvergenceError):
        lngamma_binet2(5, PrecisionCtx(256))
    assert set(stirling.oracle._BINET_CACHE) == keys
    assert atan[0] == 0


def test_nodes_cached_and_inside_interval():
    nodes = ts_nodes(WP, 3)
    assert nodes is ts_nodes(WP, 3)
    for x, w in nodes:
        assert libmp.mpf_gt(x, libmp.fzero)
        assert libmp.mpf_lt(x, libmp.fone)
        assert libmp.mpf_gt(w, libmp.fzero)


@pytest.mark.parametrize("wp", [128, 320])
def test_nodes_match_mpmath(wp):
    # x(u) = (1 + tanh((pi/2) sinh u)) / 2 and w(u) = (pi/4) cosh u /
    # cosh^2((pi/2) sinh u), at wp + 128; _binet_drop_bound relies on each
    # abscissa lying within 2^-(wp+60) of x(u), and the node-error part of
    # _binet_integral on each left one lying within a relative 2^-(wp+50).  Level 0 holds the center
    # and then the pairs u = -k, k; level L the pairs u = -+k 2^-L, k odd.
    with mpmath.workprec(wp + 128):
        for level in range(9):
            nodes = ts_nodes(wp, level)
            expected = [(mpmath.mpf(0), nodes[0])] if level == 0 else []
            pairs = iter(nodes[len(expected):])
            ks = range(1, 10**6) if level == 0 else range(1, 10**6, 2)
            for k, x_minus, x_plus in zip(ks, pairs, pairs):
                u = mpmath.ldexp(k, -level)
                expected += [(-u, x_minus), (u, x_plus)]
            assert len(expected) == len(nodes)
            for u, (x_raw, w_raw) in expected:
                q = mpmath.pi / 2 * mpmath.sinh(u)
                x = 1 / (1 + mpmath.exp(-2 * q))  # (1 + tanh q) / 2 without cancellation
                w = mpmath.pi / 4 * mpmath.cosh(u) / mpmath.cosh(q) ** 2
                assert abs(mpmath.mpf(x_raw) - x) <= mpmath.ldexp(1, -(wp + 60)), (level, u)
                if u < 0:
                    assert abs(mpmath.mpf(x_raw) / x - 1) <= mpmath.ldexp(1, -(wp + 50)), u
                assert abs(mpmath.mpf(w_raw) / w - 1) <= mpmath.ldexp(1, -(wp + 50)), (level, u)


@pytest.mark.parametrize("level", [0, 5])
def test_cold_nodes_take_one_exponential_per_pair(monkeypatch, count_calls, level):
    # a and b = (pi/4) e^+-u step by one product each; per pair only
    # e^2q = exp(2 (a - b)) and d = 1 / (e^2q + 1) remain
    monkeypatch.setattr(stirling.quadrature, "_CACHE", {})
    counts = count_calls("mpf_exp", "mpf_div", "mpf_cosh_sinh")
    pairs = len(ts_nodes(WP, level)) // 2
    assert pairs >= 4
    assert counts["mpf_exp"][0] <= pairs + 5
    assert counts["mpf_div"][0] <= pairs + 1
    assert counts["mpf_cosh_sinh"][0] == 0


def test_small_z_reuses_the_unit_tables(count_calls):
    # z = 1/1000 is shifted to 1.001: no new node table, no extra level
    ctx = PrecisionCtx(256)
    lngamma_binet2(1, ctx)
    keys = set(stirling.oracle._BINET_CACHE)
    atan = count_calls("mpf_atan")["mpf_atan"]
    lngamma_binet2(1, ctx)
    at_one = atan[0]
    lngamma_binet2(Fraction(1, 1000), ctx)
    assert set(stirling.oracle._BINET_CACHE) == keys
    assert 0 < atan[0] - at_one <= at_one


def test_binet_loop_divides_once_per_evaluation(count_calls):
    # 1/z is taken once; each node multiplies by it
    ctx = PrecisionCtx(256)
    lngamma_binet2(3, ctx)
    counts = count_calls("mpf_div", "mpf_atan")
    lngamma_binet2(Fraction(22, 7), ctx)
    assert counts["mpf_atan"][0] > 800
    assert counts["mpf_div"][0] <= 2


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("z", [Fraction(1, 8), Fraction(1), Fraction(10**6)])
def test_tapered_sum_within_its_rounding_bound(monkeypatch, z, bits):
    # the same (t, g) nodes summed with mpmath at wp + 64, each arctan at
    # full precision: the integer sum of tapered arctans may differ from
    # that by no more than the rounding part of the bound
    wp = bits + 64
    monkeypatch.setattr(stirling.oracle, "_BINET_CACHE", {})
    z_raw = to_raw(z, wp)
    integral, _, parts = stirling.oracle._binet_integral(z_raw, bits)
    rounding = parts["rounding"]
    top = max(level for _, level in stirling.oracle._BINET_CACHE)
    T, k = stirling.oracle._binet_T(bits), stirling.oracle._binet_cutoff(bits)
    x_c = libmp.from_man_exp((1 << k) - 1, -k)
    two_pi = libmp.mpf_shift(libmp.mpf_pi(wp + 16, libmp.round_nearest), 1)
    total = 0
    with mpmath.workprec(wp + 64):
        for level in range(top + 1):
            table = iter(stirling.oracle._binet_level_nodes(bits, level))
            for x, w in ts_nodes(wp, level):
                if libmp.mpf_gt(x, x_c):
                    continue
                t = libmp.mpf_mul_int(x, T, wp, libmp.round_nearest)
                g = libmp.mpf_div(w, raw_expm1(libmp.mpf_mul(
                    two_pi, t, wp + 16, libmp.round_nearest), wp), wp, libmp.round_nearest)
                assert next(table)[:2] == (t, libmp.to_fixed(g, wp + 32))
                total += mpmath.mpf(g) * mpmath.atan(mpmath.mpf(t) / mpmath.mpf(z_raw))
            assert next(table, None) is None
        reference = 2 * T * total / 2**top
        assert abs(mpmath.mpf(integral) - reference) <= mpmath.mpf(rounding)
    assert libmp.mpf_le(rounding, libmp.from_man_exp(1, -(bits + 40)))


@pytest.mark.parametrize("bits", [64, 128])
def test_omitted_right_nodes_within_their_bound(bits):
    # the nodes x > 1 - 2^-k that _binet_level_nodes never builds, summed
    # here with mpmath at z = 1/8, where arctan(t/z) is nearest pi/2
    wp = bits + 64
    T, k = stirling.oracle._binet_T(bits), stirling.oracle._binet_cutoff(bits)
    with mpmath.workprec(wp + 32):
        x_c, z = 1 - mpmath.mpf(2) ** -k, mpmath.mpf(1) / 8
        dropped = 0
        for level in range(7):
            for x_raw, w_raw in ts_nodes(wp, level):
                x, w = mpmath.mpf(x_raw), mpmath.mpf(w_raw)
                if x > x_c:
                    dropped += w * mpmath.atan(T * x / z) / mpmath.expm1(2 * mpmath.pi * T * x)
            bound = stirling.oracle._binet_drop_bound(T, k, level)
            if level >= stirling.oracle.BINET_MIN_LEVEL:
                assert 0 < 2 * T * dropped / 2**level <= mpmath.mpf(bound)
                assert libmp.mpf_le(bound, libmp.from_man_exp(1, -(bits + 40)))


def test_one_evaluation_sums_levels_0_to_L_only(monkeypatch, count_calls):
    # the a-priori bound picks level 7 at 256 bits: one arctan per kept node
    # of levels 0..7, and no level-8 table is ever built
    monkeypatch.setattr(stirling.oracle, "_BINET_CACHE", {})
    monkeypatch.setattr(stirling.quadrature, "_CACHE", {})
    assert stirling.oracle._binet_level(256) == 7
    atan = count_calls("mpf_atan")["mpf_atan"]
    ov = lngamma_binet2(3, PrecisionCtx(256))
    assert atan[0] == ov.diagnostics["nodes"]
    assert atan[0] <= sum(len(ts_nodes(320, level)) for level in range(8))
    assert max(level for _, level in stirling.oracle._BINET_CACHE) == 7
    assert max(level for _, level in stirling.quadrature._CACHE) == 7


TRUTH_Z = [Fraction(1), Fraction(9, 8), Fraction(3, 2), Fraction(10), Fraction(10**6),
           Fraction(10**30)]


@pytest.mark.parametrize("bits", [64, 256, 768])
def test_discretisation_bound_holds_at_every_level(bits):
    # the kept nodes of levels 0..level summed in mpmath at wp + 64, at
    # every level from 3 to the chosen one, against 2 * integral_0^inf =
    # ln Gamma(z) - P(z): off by no more than that level's discretisation
    # bound plus the tail, omitted-node, left-truncation, node-error and
    # rounding parts (the last covers G 2^-F in place of the weight)
    oracle = stirling.oracle
    wp, F = bits + 64, bits + 96
    top = oracle._binet_level(bits)
    T, k = oracle._binet_T(bits), oracle._binet_cutoff(bits)
    assert libmp.mpf_le(oracle._binet_discretisation_bound(bits, top),
                        libmp.from_man_exp(1, -(bits + 16)))
    assert libmp.mpf_gt(oracle._binet_discretisation_bound(bits, top - 1),
                        libmp.from_man_exp(1, -(bits + 16)))
    tables = [oracle._binet_level_nodes(bits, level) for level in range(top + 1)]
    for z in TRUTH_Z:
        z_raw = to_raw(z, wp)
        _, _, parts = oracle._binet_integral(z_raw, bits)
        with mpmath.workprec(wp + 64 + 2 * int(z).bit_length()):
            zm = mpmath.mpf(z.numerator) / z.denominator
            truth = (mpmath.loggamma(zm) - (zm - 0.5) * mpmath.log(zm) + zm
                     - mpmath.log(2 * mpmath.pi) / 2)
        with mpmath.workprec(wp + 64):
            fixed = sum(mpmath.mpf(parts[name]) for name in
                        ("tail", "left_truncation", "node_error"))
            total, nodes = mpmath.mpf(0), 0
            for level, table in enumerate(tables):
                total += sum(G * mpmath.atan(mpmath.mpf(t) / zm) for t, G, _ in table)
                nodes += len(table)
                if level < 3:
                    continue
                estimate = 2 * T * total / mpmath.mpf(2) ** (level + F)
                allowed = (fixed + mpmath.mpf(oracle._binet_discretisation_bound(bits, level))
                           + mpmath.mpf(oracle._binet_drop_bound(T, k, level))
                           + T * nodes * mpmath.mpf(2) ** -(wp + 5 + level))
                assert abs(estimate - truth) <= allowed, (z, level)
