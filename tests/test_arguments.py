"""The argument rules: one for every count, order and index, and one for
real arguments, each kept in ``mpcore``.

A count is an ``int`` that is not a ``bool`` and is at least its minimum,
or the call raises ``DomainError``; past its cap it raises
``ResourceError``.  A real argument that is not finite, or a string that is
not a rational, raises ``DomainError``.
"""

import re
from pathlib import Path

import pytest

import stirling
from stirling.bernoulli import DEFAULT_CAP, BernoulliTable, bernoulli, series_coeff_a
from stirling.bounds import (aissen_ratio, bound_sweep, check_bound, impens_grid,
                             impens_sandwich, sequence_point)
from stirling.constants import c_sequence
from stirling.errors import DomainError, ResourceError
from stirling.expansions import (MARSAGLIA_CAP, feller_constant,
                                 feller_identity_residual, feller_term,
                                 marsaglia_coeffs, marsaglia_factorial,
                                 mermin_partial_product)
from stirling.mpcore import BigFloat, PrecisionCtx, bigfloat, rational_from_str
from stirling.oracle import (FACTORIAL_CAP, HALF_INTEGER_CAP, TERMS_CAP,
                             check_multiplication, gamma_half_integer,
                             ln_factorial_exact, lngamma_binet2,
                             lngamma_euler_limit, weierstrass_inv_gamma)
from stirling.series import (f_term, ln_factorial_stirling, lngamma_stirling,
                             optimal_truncation, remainder_R,
                             stirling_original_log10, term_coefficient)

CTX = PrecisionCtx(64)

# (id, call taking the count, its minimum, a value past its cap or None)
COUNTS = [
    ("bernoulli", bernoulli, 0, DEFAULT_CAP + 1),
    ("series_coeff_a", series_coeff_a, 0, DEFAULT_CAP + 1),
    ("BernoulliTable.b", lambda k: BernoulliTable(cap=16).b(k), 0, 17),
    ("BernoulliTable.a", lambda k: BernoulliTable(cap=16).a(k), 0, 17),
    ("term_coefficient", term_coefficient, 1, DEFAULT_CAP // 2 + 1),
    # odd k >= 3 are exactly 0 and need no Bernoulli number
    ("f_term", lambda k: f_term(k, 2, CTX), 0, DEFAULT_CAP + 2),
    ("remainder_R", lambda N: remainder_R(2, N, CTX), 0, DEFAULT_CAP // 2 + 1),
    ("lngamma_stirling", lambda N: lngamma_stirling(2, N, CTX), 0, DEFAULT_CAP // 2),
    ("ln_factorial_stirling.n", lambda n: ln_factorial_stirling(n, 2, CTX), 1, None),
    ("ln_factorial_stirling.N", lambda N: ln_factorial_stirling(5, N, CTX), 0,
     DEFAULT_CAP // 2),
    ("stirling_original_log10", lambda t: stirling_original_log10(10, t, CTX), 1, None),
    ("c_sequence", lambda n: c_sequence(n, CTX), 1, DEFAULT_CAP // 2 + 1),
    ("sequence_point", lambda n: sequence_point(n, CTX), 1, FACTORIAL_CAP + 1),
    ("check_bound", lambda n: check_bound("robbins", n, CTX), 1, FACTORIAL_CAP + 1),
    ("bound_sweep", lambda n: list(bound_sweep(["robbins"], n, CTX)), 1,
     FACTORIAL_CAP + 1),
    # R_{2n} needs B_{4n} and R_{2m+1} needs B_{4m+2}
    ("impens_sandwich.n", lambda n: impens_sandwich(1, n, 0, CTX), 0,
     DEFAULT_CAP // 4 + 1),
    ("impens_sandwich.m", lambda m: impens_sandwich(1, 0, m, CTX), 0, DEFAULT_CAP // 4),
    ("impens_grid", lambda k: list(impens_grid([1], [k], CTX)), 0, DEFAULT_CAP // 4 + 1),
    ("aissen_ratio", lambda n: aissen_ratio(n, CTX), 1, FACTORIAL_CAP),
    ("feller_term", lambda k: feller_term(k, CTX), 1, None),
    ("feller_identity_residual", lambda n: feller_identity_residual(n, CTX), 1,
     FACTORIAL_CAP + 1),
    ("feller_constant", lambda K: feller_constant(K, CTX), 1, TERMS_CAP + 1),
    ("marsaglia_coeffs", marsaglia_coeffs, 0, MARSAGLIA_CAP + 1),
    ("marsaglia_factorial.n", lambda n: marsaglia_factorial(n, 3, CTX), 2, None),
    ("marsaglia_factorial.K", lambda K: marsaglia_factorial(5, K, CTX), 1,
     MARSAGLIA_CAP + 1),
    ("mermin_partial_product.n", lambda n: mermin_partial_product(n, 10, CTX), 1, None),
    # K runs from n = 3
    ("mermin_partial_product.K", lambda K: mermin_partial_product(3, K, CTX), 3,
     TERMS_CAP + 1),
    ("ln_factorial_exact", lambda n: ln_factorial_exact(n, CTX), 0, FACTORIAL_CAP + 1),
    ("lngamma_euler_limit", lambda n: lngamma_euler_limit(2, n, CTX), 2,
     FACTORIAL_CAP + 1),
    ("weierstrass_inv_gamma", lambda K: weierstrass_inv_gamma(2, K, CTX), 1,
     TERMS_CAP + 1),
    ("check_multiplication", lambda m: check_multiplication(m, 2, CTX), 2, None),
    ("gamma_half_integer", lambda k: gamma_half_integer(k, CTX), 1,
     HALF_INTEGER_CAP + 1),
]
COUNT_IDS = [case[0] for case in COUNTS]


@pytest.mark.parametrize("bad", ["non-integer", "bool", "below"])
@pytest.mark.parametrize("name, call, low, past", COUNTS, ids=COUNT_IDS)
def test_count_that_is_not_an_integer_at_its_minimum_is_a_domain_error(
        name, call, low, past, bad):
    value = {"non-integer": 2.5, "bool": True, "below": low - 1}[bad]
    with pytest.raises(DomainError):
        call(value)


@pytest.mark.parametrize("name, call, low, past",
                         [case for case in COUNTS if case[3] is not None],
                         ids=[case[0] for case in COUNTS if case[3] is not None])
def test_count_past_its_cap_is_a_resource_error(name, call, low, past):
    with pytest.raises(ResourceError):
        call(past)


@pytest.mark.parametrize("call", [
    lambda: lngamma_binet2(float("inf"), CTX),
    lambda: lngamma_binet2(float("-inf"), CTX),
    lambda: lngamma_binet2(float("nan"), CTX),
    lambda: lngamma_binet2("abc", CTX),
    lambda: lngamma_binet2("1/0", CTX),
    lambda: optimal_truncation(float("inf"), CTX),
    lambda: bigfloat("abc", CTX),
    lambda: bigfloat(float("nan"), CTX),
    lambda: rational_from_str("1/0"),
    lambda: rational_from_str("0.5"),
    lambda: BigFloat.from_hex("zz", CTX),
], ids=["binet2-inf", "binet2-minus-inf", "binet2-nan", "binet2-text", "binet2-1/0",
        "optimal-truncation-inf", "bigfloat-text", "bigfloat-nan",
        "rational-1/0", "rational-decimal", "hex-text"])
def test_real_argument_not_finite_or_not_rational_is_a_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_only_mpcore_states_the_rounding_model():
    # U(c) and libmp's one-ulp allowance are stated once, in mpcore._Ball,
    # and the modules whose bounds it tracks keep no error units of their own;
    # the Binet oracle's assembly is among them, and no ulp helper is left
    src = Path(stirling.__file__).parent
    spelled = {path.name: path.read_text().count("U(c) =") for path in src.glob("*.py")}
    assert {name: n for name, n in spelled.items() if n} == {"mpcore.py": 1}
    helper = re.compile(r"\b(_ulp_raw|_sum_up)\b|^(def _\w*(ulp|unit)\w*|_G\s*=)", re.M)
    for name in ("series.py", "expansions.py", "bounds.py", "cli.py"):
        assert helper.search((src / name).read_text()) is None, name
    for name in ("mpcore.py", "oracle.py"):
        assert "_ulp_raw" not in (src / name).read_text(), name


def test_only_mpcore_spells_an_integer_test():
    # every count goes through mpcore._require_index; the one other
    # isinstance(..., int) is cli.run reading SystemExit.code
    pattern = re.compile(r"isinstance\([^)]*\bint\b")
    allowed = {("cli.py", "isinstance(exc.code, int")}
    found = {(path.name, match.group())
             for path in Path(stirling.__file__).parent.glob("*.py")
             if path.name != "mpcore.py"
             for match in pattern.finditer(path.read_text())}
    assert found == allowed


def test_every_exp_and_log_takes_one_path():
    # every e^x and ln x comes from fixed._exp and fixed._log, through
    # mpcore._exp_raw, mpcore._log_raw or mpcore._Ball: no module names a
    # libmp exp, log, arctan or real power, so no second path can come back
    pattern = re.compile(r"\bmpf_(?:exp|log|atan|pow(?!_int))\w*")
    found = {(path.name, match.group())
             for path in Path(stirling.__file__).parent.glob("*.py")
             for match in pattern.finditer(path.read_text())}
    assert found == set()
