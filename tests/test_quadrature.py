"""The tanh-sinh node tables, and the budget of the one loop over them."""

from fractions import Fraction

import mpmath
import pytest
from mpmath import libmp

import stirling.oracle
from stirling.errors import ConvergenceError
from stirling.mpcore import PrecisionCtx
from stirling.oracle import lngamma_binet2
from stirling.quadrature import ts_nodes

WP = 192


def test_binet_budget_exhaustion(monkeypatch):
    # at 256 bits the Binet loop needs level 8, so a budget of 4 runs out
    monkeypatch.setattr(stirling.oracle, "BINET_MAX_LEVEL", 4)
    with pytest.raises(ConvergenceError):
        lngamma_binet2(5, PrecisionCtx(256))


def test_nodes_cached_and_inside_interval():
    nodes = ts_nodes(WP, 3)
    assert nodes is ts_nodes(WP, 3)
    for x, w in nodes:
        assert libmp.mpf_gt(x, libmp.fzero)
        assert libmp.mpf_lt(x, libmp.fone)
        assert libmp.mpf_gt(w, libmp.fzero)


def test_small_z_reuses_the_unit_tables(monkeypatch):
    # z = 1/1000 is shifted to 1.001: no new node table, no extra level
    ctx = PrecisionCtx(256)
    lngamma_binet2(1, ctx)
    keys = set(stirling.oracle._BINET_CACHE)
    real_atan = libmp.mpf_atan
    calls = []

    def counting_atan(*args):
        calls.append(1)
        return real_atan(*args)

    monkeypatch.setattr(libmp, "mpf_atan", counting_atan)
    lngamma_binet2(1, ctx)
    at_one = len(calls)
    lngamma_binet2(Fraction(1, 1000), ctx)
    assert set(stirling.oracle._BINET_CACHE) == keys
    assert 0 < len(calls) - at_one <= at_one


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
