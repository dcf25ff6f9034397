"""One digest over the published values whose error bounds are tracked by
``mpcore._Ball``: a change to how a bound is kept must leave every value
bit for bit."""

import hashlib
from fractions import Fraction

import pytest

from stirling.expansions import _feller_residuals, _namias_residual, feller_term
from stirling.mpcore import PrecisionCtx
from stirling.oracle import (_multiplication_residual, ln_factorial_exact, lngamma_binet2,
                             lngamma_euler_limit, weierstrass_inv_gamma)
from stirling.series import lngamma_stirling, main_term_P

ZS = (Fraction(1, 10**6), Fraction(1, 3), Fraction(1), Fraction(5, 2), Fraction(22, 7),
      Fraction(10), Fraction(1000), Fraction(10**8))
NAMIAS_NS = (Fraction(3, 4), Fraction(1), Fraction(2), Fraction(77, 3), Fraction(10**4))
MULTIPLICATION_ZS = (Fraction(1, 3), Fraction(1), Fraction(23, 10), Fraction(15, 2))
FELLER_KS = (1, 2, 10, 100, 1000)

# bits -> sha256 over the lines "name,args,value_hex\n" of ``_values(bits)``
VALUE_DIGESTS = {
    64: "ff5b9c0c1156293f91b60f2de702c21763ba42f3b03526389025722203257b77",
    256: "3ab36cd25e58c688e1834a385fa62fe6b2aacdfdd3860f635726d7e5d03bcf27",
}


def _values(bits: int):
    ctx = PrecisionCtx(bits)
    for z in ZS:
        yield "euler", z, lngamma_euler_limit(z, 50, ctx).value
        yield "weierstrass", z, weierstrass_inv_gamma(z, 50, ctx).value
        yield "main_term_P", z, main_term_P(z, ctx)
        for N in (0, 1, 4):
            yield "lngamma_stirling", (z, N), lngamma_stirling(z, N, ctx).value
    for n in NAMIAS_NS:
        yield "namias", n, _namias_residual(n, ctx)[0]
    for m in (2, 3, 5):
        for z in MULTIPLICATION_ZS:
            yield "multiplication", (m, z), _multiplication_residual(m, z, ctx)[0]
    for k in FELLER_KS:
        term = feller_term(k, ctx)
        yield "feller_term", k, term.a_k
        yield "feller_term", k, term.b_k
    for n, (r, _) in enumerate(_feller_residuals(200, ctx), start=1):
        yield "feller_residual", n, r


@pytest.mark.parametrize("bits", sorted(VALUE_DIGESTS))
def test_tracked_values_are_pinned(bits):
    h = hashlib.sha256()
    for name, args, value in _values(bits):
        h.update(f"{name},{args},{value.to_hex()}\n".encode())
    assert h.hexdigest() == VALUE_DIGESTS[bits]


# the zeros of ln Gamma at 1 and 2 and next to them, where the bound of
# the Binet oracle's value is least relative to the value itself
BINET2_ZS = ZS + (Fraction(2), 1 + Fraction(1, 2**45), 2 - Fraction(1, 2**50),
                  2 + Fraction(1, 2**50))
FACTORIAL_NS = (0, 1, 2, 3, 12, 20, 100, 1000, 10**4)

# bits -> sha256 over the lines "name,args,value_hex\n" of
# ``_oracle_values(bits)``; binet2's division count is pinned by
# tests/test_quadrature.py's DIVISIONS and test_oracle.py's sample digest
ORACLE_VALUE_DIGESTS = {
    64: "790eb7b371f2a43368570f3e4914d6e6809912200ed825c9c8740e51c0f2c97f",
    256: "1e1b8ab13471c76102ff5d79c78a27ab2f3245e16ffeac44d9b400761ea87654",
}


def _oracle_values(bits: int):
    ctx = PrecisionCtx(bits)
    for z in BINET2_ZS:
        yield "binet2", z, lngamma_binet2(z, ctx).value.to_hex()
    for n in FACTORIAL_NS:
        yield "ln_factorial_exact", n, ln_factorial_exact(n, ctx).value.to_hex()


@pytest.mark.parametrize("bits", sorted(ORACLE_VALUE_DIGESTS))
def test_oracle_values_are_pinned(bits):
    h = hashlib.sha256()
    for name, args, value in _oracle_values(bits):
        h.update(f"{name},{args},{value}\n".encode())
    assert h.hexdigest() == ORACLE_VALUE_DIGESTS[bits]
