"""Acceptance gate: every criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Criteria whose runtime is capped are timed with a monotonic
clock around exactly the mandated work.
"""

import csv
import hashlib
import io
import itertools
import json
import math
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from stirling.bernoulli import bernoulli, series_coeff_a
from stirling.bounds import bound_sweep, impens_grid, sequence_point
from stirling.cli import run
from stirling.constants import best_constant_estimate, c_sequence
from stirling.errors import InconclusiveError
from stirling.expansions import (feller_constant, feller_residual_sweep,
                                 marsaglia_coeffs, marsaglia_factorial,
                                 mermin_partial_product, reversion_residual)
from stirling.mpcore import PrecisionCtx
from stirling.oracle import (check_duplication, check_multiplication,
                             ln_factorial_exact, lngamma_binet2)
from stirling.series import (optimal_truncation, remainder_R,
                             stirling_original_log10)

CTX256 = PrecisionCtx(256)
CTX128 = PrecisionCtx(128)

HALF_LN_2PI = Fraction(
    "0.9189385332046727417803297364056176398613974736377834128171515404827657")

PRINTED_TABLE = ["0.91667", "0.91944", "0.91865", "0.91925", "0.91840",
                 "0.92032", "0.91391", "0.94346", "0.76382", "2.1562"]


@contextmanager
def criterion(label: str, budget_s: float | None = None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {label}: FAIL ({time.monotonic() - t0:.2f} s)")
        raise
    elapsed = time.monotonic() - t0
    if budget_s is not None:
        assert elapsed < budget_s, f"{label} took {elapsed:.2f}s (cap {budget_s}s)"
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.2f} s)")


def test_01_constant_table_reproduction(capsys):
    with criterion("01 constant-table", budget_s=1.0):
        code = run(["constants", "--max-n", "10", "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 10
        for row, printed in zip(rows, PRINTED_TABLE):
            got = Fraction(row["C_N_decimal"])
            target = Fraction(printed)
            k = len(printed.split(".")[1])
            # five printed significant digits, last digit +-1
            assert abs(got - target) <= Fraction(11, 10**(k + 1)), row


def test_02_constant_recovery():
    with criterion("02 constant-recovery"):
        seq = c_sequence(10, CTX256)
        gaps = [abs(dec - seq.reference) for (_, _, dec) in seq.entries]
        assert min(gaps) <= Fraction(6, 10**4)
        n_best, estimate = best_constant_estimate(seq)
        assert abs(estimate - Fraction("0.91894")) <= Fraction(2, 10**3)


def test_03_exact_coefficient_identities():
    with criterion("03 exact-identities", budget_s=5.0):
        for k in range(129):
            assert series_coeff_a(k) * math.factorial(k) == bernoulli(k)
        for k in range(1, 129):
            residual = sum(math.comb(k + 1, j) * bernoulli(j)
                           for j in range(k + 1))
            assert residual == 0


def test_04_inequality_corpus():
    with criterion("04 inequality-corpus", budget_s=60.0):
        fams = ["robbins", "maria", "hummel", "nanjundiah", "michel"]
        expected_rows = 10**4 + 10**4 + (10**4 - 1) + 10**4 + (10**4 - 2)
        seen = 0
        for item in bound_sweep(fams, 10**4, CTX128):
            assert not isinstance(item, InconclusiveError), item
            assert item.holds, (item.family, item.n)
            assert item.margin > 0, (item.family, item.n)
            seen += 1
        assert seen == expected_rows


def test_05_truncation_sandwich_grid():
    with criterion("05 sandwich-grid"):
        xs = [Fraction(3, 10), Fraction(1, 2), Fraction(1), Fraction(2),
              Fraction(5), Fraction(10), Fraction(50)]
        orders = range(7)
        # one cell per (x, n, m), x major; each equals impens_sandwich(x, n,
        # m) (tests/test_bounds.py), with the oracle evaluated once per x
        cells = list(impens_grid(xs, orders, CTX256))
        assert len(cells) == 343
        for key, rep in zip(itertools.product(xs, orders, orders), cells):
            assert not isinstance(rep, InconclusiveError), (key, rep)
            # holds certifies both margins exceed the oracle bound
            assert rep.holds, key
            assert rep.margin > 0, key


def test_06_oracle_consistency():
    with criterion("06 oracle-consistency", budget_s=30.0):
        for n in range(2, 51):
            ov = lngamma_binet2(n, CTX256)
            exact = ln_factorial_exact(n - 1, CTX256)
            assert abs(ov.value - exact.value) <= Fraction(1, 10**30), n
        for z in (Fraction(1, 2), Fraction(1), Fraction(23, 10), Fraction(15, 2)):
            assert check_duplication(z, CTX256) <= Fraction(1, 10**25), z
        for z in (Fraction(1, 3), Fraction(2)):
            assert check_multiplication(3, z, CTX256) <= Fraction(1, 10**25), z


def test_07_optimal_truncation():
    with criterion("07 optimal-truncation"):
        for z in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5),
                  Fraction(10)):
            approx = optimal_truncation(z, CTX256)
            oracle = lngamma_binet2(z, CTX256)
            assert abs(approx.value - oracle.value) <= approx.omitted_term, z
            if z == 10:
                assert abs(approx.value - oracle.value) <= Fraction(1, 10**19)
        # at z=50 the smallest term is ~1.6e-138: the comparison only means
        # something at a precision that resolves it, so use 768 bits there
        ctx_hi = PrecisionCtx(768)
        approx = optimal_truncation(50, ctx_hi)
        oracle = lngamma_binet2(50, ctx_hi)
        assert abs(approx.value - oracle.value) <= approx.omitted_term


def test_08_feller_route():
    with criterion("08 feller"):
        resids = feller_residual_sweep(10**3, CTX256)
        assert all(r <= Fraction(1, 10**28) for r in resids)
        g1 = abs(feller_constant(10**4, CTX256) - HALF_LN_2PI)
        assert g1 <= Fraction(1, 10**4)
        g2 = abs(feller_constant(2 * 10**4, CTX256) - HALF_LN_2PI)
        assert Fraction(2, 5) * g1 <= g2 <= Fraction(3, 5) * g1


def test_09_marsaglia_route():
    with criterion("09 marsaglia"):
        series = marsaglia_coeffs(50)
        assert series.coeffs[0] == 1
        assert series.coeffs[1] == 1
        assert series.coeffs[2] == Fraction(1, 3)
        assert not any(reversion_residual(series))  # zero through order 51
        exact = Fraction(math.factorial(20))
        errs = [abs(marsaglia_factorial(20, K, CTX256) / exact - 1)
                for K in range(1, 7)]
        # non-increasing at every step (even-order terms add nothing);
        # strictly better whenever an odd-order term arrives
        for a, b in zip(errs, errs[1:]):
            assert b <= a, errs
        assert errs[2] < errs[1]
        assert errs[4] < errs[3]


def test_10_mermin_route():
    with criterion("10 mermin"):
        K = 10**5
        for n in (1, 2, 10):
            log_prod = mermin_partial_product(n, K, CTX256)
            r_n = sequence_point(n, CTX256).r_n
            assert abs(r_n - log_prod) <= Fraction(1, 12 * K), n
        for n in range(5, 101):
            diff = abs(sequence_point(n, CTX256).r_n - remainder_R(n, 3, CTX256))
            assert diff * Fraction(n) ** 7 <= Fraction(1, 1680), n


def test_11_stirling_original_series():
    with criterion("11 stirling-original"):
        for n, nfact in ((10, math.factorial(10)), (100, math.factorial(100))):
            # exact base-10 logarithm reference from the integer factorial
            ctx = PrecisionCtx(384)
            from stirling.mpcore import elementary
            exact = elementary("ln", nfact, ctx) / elementary("ln", 10, ctx)
            errs = [abs(stirling_original_log10(n, t, ctx) - exact)
                    for t in (1, 2, 3)]
            assert errs[1] < errs[0], n
            assert errs[2] < errs[1], n
            if n == 100:
                assert errs[2] <= Fraction(1, 10**9)


def test_12_report_determinism(capsys):
    with criterion("12 report-determinism"):
        code1 = run(["report", "--n-max", "100"])
        first = capsys.readouterr().out
        code2 = run(["report", "--n-max", "100"])
        second = capsys.readouterr().out
        assert code1 == code2 == 0
        assert first == second
        # the report's bytes at 256 bits, pinned: a change to any check's
        # detail or verdict must re-pin this digest and say why
        assert hashlib.sha256(first.encode()).hexdigest() == (
            "12f23a642ecb6daec48f41d0ee4f60dc8d5573c009fc5d860271c5c2c7739e7f")
        doc = json.loads(first)
        assert doc["summary"]["fail"] == 0
