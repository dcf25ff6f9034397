"""The tanh-sinh node tables, and the budget of the one loop over them."""

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
