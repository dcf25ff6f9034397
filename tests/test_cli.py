"""Command-line surface: formats, exit codes, determinism, env override."""

import csv
import dataclasses
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import libmp

import stirling.bounds
import stirling.cli
import stirling.expansions
import stirling.oracle
import stirling.series
from stirling.cli import build_parser, report_all, run
from stirling.errors import DomainError, InconclusiveError, ValidityError
from stirling.mpcore import BigFloat, PrecisionCtx, _Ball, to_raw

PRINTED = ["0.91667", "0.91944", "0.91865", "0.91925", "0.91840",
           "0.92032", "0.91391", "0.94346", "0.76382", "2.1562"]


def run_capture(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_table_matches_printed_values(capsys):
    code, out, _ = run_capture(["constants", "--max-n", "10", "--format", "csv"],
                               capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 10
    for row, printed in zip(rows, PRINTED):
        got = Fraction(row["C_N_decimal"])
        p = Fraction(printed)
        k = len(printed.split(".")[1])
        assert abs(got - p) <= Fraction(11, 10**(k + 1))
    assert rows[0]["C_N_exact"] == "11/12"


def test_bernoulli_base_case_json(capsys):
    code, out, _ = run_capture(["bernoulli", "--max", "0", "--format", "json"],
                               capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"] == [{"k": 0, "B_k": "1/1", "a_k": "1/1"}]


def test_bernoulli_csv_columns(capsys):
    code, out, _ = run_capture(["bernoulli", "--max", "4", "--format", "csv"],
                               capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [r["B_k"] for r in rows] == ["1/1", "-1/2", "1/6", "0/1", "-1/30"]
    assert rows[4]["a_k"] == "-1/720"


def test_bernoulli_full_table_csv_bytes_pinned(capsys):
    # the bytes the binomial and factorial recurrences produced; the faster
    # table algorithms must reproduce every entry exactly
    code, out, _ = run_capture(["bernoulli", "--max", "512", "--format", "csv"],
                               capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "54141bfeeec5590a7f91822796356fa0f5d489691b15111dd4d542a15841daaf")


def test_michel_below_validity_exits_3(capsys):
    code, out, err = run_capture(["bounds", "--family", "michel",
                                  "--n-max", "2"], capsys)
    assert code == 3
    assert out == ""
    assert "michel" in err


def test_eval_json_fields(capsys):
    code, out, _ = run_capture(["eval", "--z", "10", "--auto"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"value_hex", "value_dec", "order_used",
                        "omitted_term_dec", "precision_bits"}
    assert doc["precision_bits"] == 256
    assert doc["value_dec"].startswith("12.80182748")
    assert doc["value_hex"].startswith("0x1.")


def test_eval_fixed_order(capsys):
    code, out, _ = run_capture(["eval", "--z", "1", "--terms", "3",
                                "--format", "csv"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["order_used"] == "3"


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("digits", [1, 5, 20])
@pytest.mark.parametrize("z", ["22/7", "0.5", "1000"])
def test_published_bounds_are_rounded_up(z, digits, bits, capsys):
    ctx = PrecisionCtx(bits)
    code, out, _ = run_capture(["oracle", "--z", z, "--method", "binet2", "--digits",
                                str(digits), "--precision-bits", str(bits)], capsys)
    bound = stirling.oracle.lngamma_binet2(Fraction(z), ctx).error_bound
    assert code == 0
    assert Fraction(json.loads(out)["error_bound_dec"]) >= _exact(bound)
    code, out, _ = run_capture(["eval", "--z", z, "--terms", "3", "--digits", str(digits),
                                "--precision-bits", str(bits)], capsys)
    omitted = stirling.series.lngamma_stirling(Fraction(z), 3, ctx).omitted_term
    assert code == 0
    assert Fraction(json.loads(out)["omitted_term_dec"]) >= _exact(omitted)


def _exact(x) -> Fraction:
    return Fraction(*libmp.to_rational(x.raw))


def test_printed_omitted_term_is_not_below_the_exact_term(capsys):
    # 40 digits at 64 bits print past the certificate's precision, so only a
    # certificate at or above the exact term at z~ keeps the print above it
    code, out, _ = run_capture(["eval", "--z", "22/7", "--terms", "3", "--digits", "40",
                                "--precision-bits", "64"], capsys)
    assert code == 0
    z_t = Fraction(*libmp.to_rational(to_raw(Fraction(22, 7), PrecisionCtx(64).wprec())))
    exact = abs(stirling.series.term_coefficient(4)) / z_t ** 7
    assert Fraction(json.loads(out)["omitted_term_dec"]) >= exact


# bits -> sha256 of `report --n-max 100` stdout, beside the 256-bit pin of the
# acceptance suite: the precisions where a residual's last bits show
REPORT_SHA256 = {
    64: "7d7da21a8384529f104f7cb1198732fa4578d83ad0417510dcca043a12669c44",
    128: "4115f6e6afe36151e9752d86e7ba4657eb4901aa220e2ba475fc8e0a14e53b85",
}


@pytest.mark.parametrize("bits", sorted(REPORT_SHA256))
def test_report_bytes_pinned_at_low_precision(bits, capsys):
    code, out, _ = run_capture(["report", "--n-max", "100", "--precision-bits", str(bits)],
                               capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPORT_SHA256[bits]


def test_oracle_json_fields(capsys):
    code, out, _ = run_capture(["oracle", "--z", "0.5", "--method", "binet2"],
                               capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "binet2"
    assert "error_bound_dec" in doc
    assert doc["value_dec"].startswith("0.572364942924700")


@pytest.mark.parametrize("method, extra", [("binet2", []), ("euler", ["--n", "50"]),
                                           ("weierstrass", ["--k", "20"])])
def test_oracle_diagnostics_on_stderr_leave_stdout_unchanged(capsys, method, extra):
    # --diagnostics adds one JSON line on stderr, the oracle's diagnostics
    # with each BigFloat as its exact hex; stdout keeps its bytes
    argv = ["oracle", "--z", "22/7", "--method", method, *extra, "--precision-bits", "128"]
    code, plain, quiet = run_capture(argv, capsys)
    code_d, out, err = run_capture([*argv, "--diagnostics"], capsys)
    assert code == code_d == 0 and quiet == ""
    assert out == plain
    assert err.endswith("\n") and err.count("\n") == 1
    shown = json.loads(err)
    ctx = PrecisionCtx(128)
    ov = {"binet2": lambda: stirling.oracle.lngamma_binet2(Fraction(22, 7), ctx),
          "euler": lambda: stirling.oracle.lngamma_euler_limit(Fraction(22, 7), 50, ctx),
          "weierstrass": lambda: stirling.oracle.weierstrass_inv_gamma(Fraction(22, 7), 20,
                                                                       ctx)}[method]()
    assert shown.keys() == ov.diagnostics.keys()
    for name, value in ov.diagnostics.items():
        expected = value.to_hex() if isinstance(value, BigFloat) else value
        assert shown[name] == (str(expected) if isinstance(expected, Fraction) else expected)
    if method == "binet2":
        m, j_left, j_right, *_ = stirling.oracle._binet_plan(128)
        assert shown["step_m"] == m and shown["nodes"] == j_left + j_right + 1
        assert 0 < shown["divisions"] < shown["nodes"]


def _spy(monkeypatch, module, name):
    """Record the precision of every call of module.name; returns the list."""
    real, bits = getattr(module, name), []

    def counting(*args):
        bits.append(args[-1].bits)
        return real(*args)

    monkeypatch.setattr(module, name, counting)
    return bits


def test_oracle_evaluates_once_per_precision(capsys, monkeypatch):
    # one evaluation: the printed digits come from the value's own bound
    bits = _spy(monkeypatch, stirling.oracle, "lngamma_binet2")
    code, _, _ = run_capture(["oracle", "--z", "3/2", "--method", "binet2"],
                             capsys)
    assert code == 0
    assert bits == [256]


@pytest.mark.parametrize("argv", [["eval", "--z", "22/7"],
                                  ["eval", "--z", "22/7", "--terms", "4"]])
def test_eval_evaluates_once(argv, capsys, monkeypatch):
    bits = _spy(monkeypatch, stirling.series, "_approximation")
    code, _, _ = run_capture(argv, capsys)
    assert code == 0
    assert bits == [256]


def test_expansions_feller_evaluates_once(capsys, monkeypatch):
    bits = _spy(monkeypatch, stirling.expansions, "_feller_constant")
    code, _, _ = run_capture(["expansions", "--which", "feller", "--k-max", "50"], capsys)
    assert code == 0
    assert bits == [256]


def test_euler_limit_far_from_its_limit_prints_no_digit(capsys):
    # ln Gamma(100) = 359.13 and L(10) = 194.17: the error is 164.96, and
    # the interval [29.2, 359.1] proves no digit of the value
    code, out, _ = run_capture(["oracle", "--z", "100", "--method", "euler", "--n", "10",
                                "--precision-bits", "64"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert Fraction(doc["error_bound_dec"]) >= Fraction("164.96")
    assert doc["value_dec"] == ""


def _mp_value(method: str, z: Fraction, bits: int) -> Fraction:
    with mpmath.workprec(bits + 64):
        x = mpmath.mpf(z.numerator) / z.denominator
        ref = mpmath.rgamma(x) if method == "weierstrass" else mpmath.loggamma(x)
    return Fraction(*libmp.to_rational(ref._mpf_))


def _significant_digits(text: str) -> int:
    mantissa = text.lstrip("-").split("e")[0].replace(".", "").lstrip("0")
    return max(len(mantissa.rstrip("0")), 1)


@pytest.mark.parametrize("argv", [
    "eval --z 22/7", "eval --z 1/2", "eval --z 1/1000000", "eval --z 10 --precision-bits 64",
    "eval --z 7/3 --terms 2", "eval --z 50",
    "oracle --z 22/7 --method binet2", "oracle --z 1/1000 --method binet2 --precision-bits 64",
    "oracle --z 22/7 --method euler --n 1000", "oracle --z 1/3 --method euler --n 50",
    "oracle --z 100 --method euler --n 10 --precision-bits 64",
    "oracle --z 22/7 --method weierstrass --k 1000", "oracle --z 3 --method weierstrass --k 10",
])
def test_printed_value_digits_are_proven(argv, capsys):
    # the reference rounds to the printed decimal at the printed length
    args = argv.split()
    code, out, _ = run_capture(args, capsys)
    assert code == 0
    doc = json.loads(out)
    printed = doc["value_dec"]
    if not printed:
        return
    method = args[args.index("--method") + 1] if "--method" in args else "eval"
    ref = _mp_value(method, Fraction(args[args.index("--z") + 1]), doc["precision_bits"])
    with mpmath.workprec(doc["precision_bits"] + 128):
        rounded = mpmath.nstr(mpmath.mpf(ref.numerator) / ref.denominator,
                              _significant_digits(printed), strip_zeros=True)
    assert Fraction(rounded) == Fraction(printed), (argv, printed, rounded)


def test_expansions_mermin_document(capsys):
    code, out, _ = run_capture(["expansions", "--which", "mermin", "--n", "2",
                                "--k-max", "2000"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["which"] == "mermin"
    assert Fraction(doc["gap"]) <= Fraction(1, 12 * 2000)


def test_expansions_feller_k_max_zero_exits_3(capsys):
    # --k-max 0 reaches the library instead of falling back to the default
    code, out, err = run_capture(["expansions", "--which", "feller",
                                  "--k-max", "0"], capsys)
    assert code == 3
    assert out == ""
    assert "K must be an integer >= 1" in err


def test_expansions_mermin_k_max_zero_exits_3(capsys):
    code, out, err = run_capture(["expansions", "--which", "mermin", "--n", "3",
                                  "--k-max", "0"], capsys)
    assert code == 3
    assert out == ""
    assert "K must be an integer >= n" in err


def test_expansions_marsaglia_k_max_zero_is_order_zero(capsys):
    code, out, _ = run_capture(["expansions", "--which", "marsaglia",
                                "--k-max", "0"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["k_max"] == 0
    assert doc["coeffs"] == ["1/1"]


def test_expansions_namias_document(capsys):
    # the identity is exact, so only roundoff at 256 bits remains
    code, out, _ = run_capture(["expansions", "--which", "namias", "--n", "5"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["which"], doc["n"]) == ("namias", 5)
    assert 0 <= Fraction(doc["residual"]) < Fraction(1, 10**70)


def test_expansions_marsaglia_factorial_near_exact(capsys):
    # K = 8 terms at n = 10 put 10! within a relative 10^-7
    code, out, _ = run_capture(["expansions", "--which", "marsaglia", "--n", "10"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["n"], doc["k_max"], len(doc["coeffs"])) == (10, 8, 9)
    assert abs(Fraction(doc["ratio_to_exact"]) - 1) < Fraction(1, 10**7)


def test_expansions_feller_identity_residual(capsys):
    # (1/2) ln(2 pi) - F_K lies strictly between 1/(24 (K+1)) and
    # 1/(24 (K+1/2)), and the identity at n leaves only roundoff
    code, out, _ = run_capture(["expansions", "--which", "feller", "--n", "10"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert (doc["k_max"], doc["identity_residual_n"]) == (1000, 10)
    assert Fraction(1, 24 * 1001) < Fraction(doc["gap_to_half_ln_2pi"]) < Fraction(1, 24 * 1000)
    assert 0 <= Fraction(doc["identity_residual"]) < Fraction(1, 10**70)


@pytest.mark.parametrize("which", ["namias", "mermin"])
def test_expansions_without_n_exits_3(which, capsys):
    code, out, err = run_capture(["expansions", "--which", which], capsys)
    assert code == 3
    assert out == ""
    assert f"{which} requires --n" in err


def test_unknown_flag_is_usage_error(capsys):
    code, out, err = run_capture(["constants", "--max-n", "5", "--bogus"],
                                 capsys)
    assert code == 2


def test_missing_subcommand_is_usage_error(capsys):
    code, _, _ = run_capture([], capsys)
    assert code == 2


def test_bad_precision_exits_3(capsys):
    code, _, err = run_capture(["constants", "--max-n", "3",
                                "--precision-bits", "32"], capsys)
    assert code == 3


def test_env_var_sets_default_precision(capsys, monkeypatch):
    monkeypatch.setenv("STIRLING_PRECISION_BITS", "128")
    code, out, _ = run_capture(["eval", "--z", "2", "--auto"], capsys)
    assert code == 0
    assert json.loads(out)["precision_bits"] == 128


def test_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("STIRLING_PRECISION_BITS", "128")
    code, out, _ = run_capture(["eval", "--z", "2", "--auto",
                                "--precision-bits", "192"], capsys)
    assert code == 0
    assert json.loads(out)["precision_bits"] == 192


@pytest.mark.parametrize("argv", [
    ["eval", "--z", "abc"],
    ["oracle", "--z", "1/0", "--method", "binet2"],
])
def test_bad_z_is_usage_error(argv, capsys):
    code, out, err = run_capture(argv, capsys)
    assert code == 2 and out == ""
    assert "argument --z: not a rational number" in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_capture(["bernoulli", "--max", "3", "--output", str(target)],
                                 capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and not target.exists()


@pytest.mark.parametrize("argv", [
    ["oracle", "--z", "2", "--method", "euler", "--n", "0"],
    ["oracle", "--z", "2", "--method", "weierstrass", "--k", "0"],
])
def test_oracle_zero_index_reaches_the_oracle(argv, capsys):
    # 0 is the value given, not a request for the default 10^4
    code, out, err = run_capture(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "must be an integer" in err


@pytest.mark.parametrize("argv", [
    ["expansions", "--which", "mermin", "--n", "1", "--k-max", "1000001"],
    ["expansions", "--which", "feller", "--k-max", "1000001"],
    ["oracle", "--z", "2", "--method", "weierstrass", "--k", "1000001"],
])
def test_term_count_past_the_cap_exits_3(argv, capsys):
    code, out, err = run_capture(argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "term cap 1000000" in err


def _readme_commands():
    """The ``stirling ...`` lines of README's command-line block."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("stirling ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_examples_run(argv, capsys):
    code, out, _ = run_capture(argv, capsys)
    assert code == 0 and out


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, err = run_capture(["constants", "--max-n", "3",
                                  "--output", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("N,C_N_exact")


def test_bounds_small_sweep_all_hold(capsys):
    code, out, _ = run_capture(["bounds", "--family", "robbins",
                                "--n-max", "25"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 25
    assert all(r["holds"] == "true" for r in rows)
    assert all(Fraction(r["margin"]) > 0 for r in rows)


def test_tables_print_exact_rationals_correctly_rounded(capsys):
    # lhs, rhs and C_N_decimal are the decimals of the exact rationals, not
    # of their 64-bit roundings (0.039999999999999999999 for 1/25,
    # 0.083333333333333333336 for 1/12, 0.91666666666666666668 for 11/12)
    code, out, _ = run_capture(["bounds", "--family", "robbins", "--n-max", "2",
                                "--precision-bits", "64"], capsys)
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["rhs"] == "0.083333333333333333333"
    assert rows[1]["lhs"] == "0.04"
    code, out, _ = run_capture(["constants", "--max-n", "2", "--precision-bits", "64"],
                               capsys)
    assert code == 0
    assert list(csv.DictReader(io.StringIO(out)))[0]["C_N_decimal"] == "0.91666666666666666667"


def test_bounds_impens_inconclusive_cells_exit_4(capsys):
    code, out, err = run_capture(["bounds", "--family", "impens",
                                  "--n-max", "10", "--precision-bits", "64"],
                                 capsys)
    assert code == 4
    rows = list(csv.DictReader(io.StringIO(out)))
    assert any(r["holds"] == "inconclusive" for r in rows)
    assert "inconclusive" in err


def test_bounds_numeric_inconclusive_rows_are_printed(capsys, monkeypatch):
    # every n gets its row; one that cannot clear its envelope reads
    # holds=inconclusive with empty values and is also named on stderr
    ctx = PrecisionCtx(64)

    def stub(families, n_max, ctx_):
        yield stirling.bounds.check_bound("nanjundiah", 1, ctx)
        yield InconclusiveError("nanjundiah at n=2: stub", family="nanjundiah", n=2)
        yield stirling.bounds.check_bound("nanjundiah", 3, ctx)

    monkeypatch.setattr(stirling.bounds, "bound_sweep", stub)
    code, out, err = run_capture(["bounds", "--family", "nanjundiah",
                                  "--n-max", "3", "--precision-bits", "64"], capsys)
    assert code == 4
    lines = out.splitlines()
    assert len(lines) == 4 and lines[2] == "nanjundiah,2,,,,,inconclusive"
    assert [line.rsplit(",", 1)[1] for line in lines[1:]] == ["true", "inconclusive", "true"]
    assert err == "inconclusive: nanjundiah at n=2: stub\n"


def test_bounds_nanjundiah_at_64_bits_all_hold(capsys):
    # the r_n intervals of the difference equation decide every row to
    # n = 6000 even at 64 bits
    code, out, err = run_capture(["bounds", "--family", "nanjundiah",
                                  "--n-max", "6000", "--precision-bits", "64"], capsys)
    assert code == 0 and err == ""
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["n"]) for r in rows] == list(range(1, 6001))
    assert all(r["holds"] == "true" for r in rows)


def test_report_round_trips_and_counts(capsys):
    code, out, _ = run_capture(["report", "--n-max", "10"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["total"] == len(doc["checks"])


def test_report_schema_stable_across_n_max(capsys):
    _, out_small, _ = run_capture(["report", "--n-max", "10"], capsys)
    _, out_big, _ = run_capture(["report", "--n-max", "30"], capsys)
    small = json.loads(out_small)
    big = json.loads(out_big)
    assert [c["name"] for c in small["checks"]] == [c["name"] for c in big["checks"]]
    rows_small = sum(int(c["detail"].split("rows=")[1].split(" ")[0])
                     for c in small["checks"] if "rows=" in c["detail"])
    rows_big = sum(int(c["detail"].split("rows=")[1].split(" ")[0])
                   for c in big["checks"] if "rows=" in c["detail"])
    assert rows_small < rows_big


def test_report_low_precision_goes_inconclusive_not_fail(capsys):
    code, out, _ = run_capture(["report", "--n-max", "10",
                                "--precision-bits", "64"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["fail"] == 0
    assert doc["summary"]["inconclusive"] >= 1


def test_report_evaluates_each_oracle_argument_once(capsys, monkeypatch):
    # one Binet integral for each of the 48 distinct (argument, precision)
    # pairs; the identity checks share the report's values instead of
    # evaluating again
    real = stirling.oracle._binet_integral
    calls = []

    def counting(z_raw, bits):
        calls.append(bits)
        return real(z_raw, bits)

    monkeypatch.setattr(stirling.oracle, "_binet_integral", counting)
    code, _, _ = run_capture(["report", "--n-max", "100"], capsys)
    assert code == 0
    assert len(calls) == 48
    # no stored value outlives the report: direct calls evaluate every time
    ctx = stirling.oracle.PrecisionCtx(256)
    stirling.oracle.lngamma_binet2(1, ctx)
    stirling.oracle.lngamma_binet2(1, ctx)
    assert len(calls) == 50


def test_report_needs_n_max_ten(capsys):
    code, _, _ = run_capture(["report", "--n-max", "9"], capsys)
    assert code == 3


@pytest.mark.parametrize("n_max, error", [(10.5, DomainError), (True, DomainError),
                                          (9, ValidityError), (1, ValidityError)])
def test_report_all_checks_n_max_before_any_check(n_max, error, monkeypatch):
    started = []
    monkeypatch.setattr(stirling.cli, "_report_checks",
                        lambda n, ctx: started.append(n) or iter(()))
    with pytest.raises(error):
        report_all(n_max, PrecisionCtx(64))
    assert started == []
    report_all(10, PrecisionCtx(64))
    assert started == [10]


def test_report_at_64_bits_inconclusive_only_on_the_sandwich(capsys):
    code, out, _ = run_capture(["report", "--n-max", "10",
                                "--precision-bits", "64"], capsys)
    assert code == 0
    checks = json.loads(out)["checks"]
    assert [c["name"] for c in checks if c["status"] != "pass"] == ["bounds.impens_grid"]


@pytest.mark.parametrize("text", ["1/3", "-7", "2.5", "1e-3", " 4/6 ", "abc", "1/0",
                                  "", "1/2/3", "nan", "inf", "0x10", "1_000"])
def test_rational_argument_follows_to_raw(text):
    parser = build_parser()
    try:
        to_raw(text, 64)
    except DomainError:
        with pytest.raises(SystemExit):
            parser.parse_args(["eval", "--z", text])
    else:
        assert parser.parse_args(["eval", "--z", text]).z == text


def test_console_entry_point_subprocess():
    env = dict(os.environ)
    proc = subprocess.run(
        [sys.executable, "-m", "stirling.cli", "constants", "--max-n", "2",
         "--format", "csv"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "N,C_N_exact,C_N_decimal,abs_gap_to_half_ln_2pi"


# -- each converted check, perturbed past its proven bound ----------------------
#
# Every perturbation is far above the bound the check now proves and below
# the slack it used to allow, so the report passed each of these at 256 bits.


def _shift_binet(monkeypatch, at, delta):
    """Add delta to every 256-bit Binet value at the argument nearest ``at``."""
    real = stirling.oracle.lngamma_binet2

    def shifted(z, ctx):
        ov = real(z, ctx)
        if ctx.bits == 256 and abs(float(z) - at) < 1e-9:
            ov = dataclasses.replace(ov, value=ov.value + delta)
        return ov

    for module in (stirling.oracle, stirling.expansions):
        monkeypatch.setattr(module, "lngamma_binet2", shifted)


def _binet_gap_past_bound(monkeypatch):
    """ln Gamma(5) moved to exactly ln 4! + both bounds + 2^-600: rounded to
    256 bits, the gap and the sum of the bounds agree."""
    real = stirling.oracle.lngamma_binet2

    def shifted(z, ctx):
        ov = real(z, ctx)
        if ctx.bits == 256 and z == 5:
            exact = stirling.oracle.ln_factorial_exact(4, ctx)
            q = sum((x._fraction() for x in (exact.value, exact.error_bound, ov.error_bound)),
                    Fraction(1, 2**600))
            raw = libmp.from_man_exp(q.numerator, 1 - q.denominator.bit_length())
            ov = dataclasses.replace(ov, value=BigFloat(raw, ctx.bits))
        return ov

    monkeypatch.setattr(stirling.oracle, "lngamma_binet2", shifted)


def _shift_ln_factorial(monkeypatch):
    real = stirling.expansions.ln_factorial_range

    def shifted(n_max, wp):
        for n, value in real(n_max, wp):
            yield n, (libmp.mpf_add(value, libmp.from_man_exp(1, -250), wp) if n == 10
                      else value)

    monkeypatch.setattr(stirling.expansions, "ln_factorial_range", shifted)


def _feller_constant_past_its_tail(monkeypatch):
    def shifted(K, ctx):
        wp = ctx.wprec()
        q = Fraction(1, 24 * K) + Fraction(1, 10**9)
        tail = libmp.from_rational(q.numerator, q.denominator, wp, "n")
        return stirling.series._half_ln_2pi(wp) - _Ball.op(tail, wp)

    monkeypatch.setattr(stirling.expansions, "_feller_constant", shifted)


def _mermin_tail_at_its_bound(monkeypatch):
    """M_K for n = 1 such that r_1 - M_K is 1/(12K) - 2^-262, inside the
    errors of r_1 and M_K, but below 1/(12K) once rounded; the report takes
    its three M_K from one ``_mermin_products`` call."""
    real = stirling.expansions._mermin_products

    def shifted(ns, K, ctx):
        q = (stirling.bounds.sequence_point(1, ctx).r_n._fraction()
             - Fraction(1, 12 * K) + Fraction(1, 2**262))
        m1 = BigFloat(libmp.from_rational(q.numerator, q.denominator, 400, "n"), ctx.bits)
        return [m1 if n == 1 else value for n, value in zip(ns, real(ns, K, ctx))]

    monkeypatch.setattr(stirling.expansions, "_mermin_products", shifted)


PERTURBED_CHECKS = [
    ("oracle.binet2_vs_exact_factorial", _binet_gap_past_bound, "fail"),
    ("oracle.duplication",
     lambda mp: _shift_binet(mp, 4.6, Fraction(1, 2**240)), "fail"),
    ("oracle.multiplication_m3",
     lambda mp: _shift_binet(mp, 7 / 3, Fraction(1, 2**240)), "fail"),
    ("expansions.feller_identity", _shift_ln_factorial, "fail"),
    ("expansions.feller_constant", _feller_constant_past_its_tail, "fail"),
    ("expansions.mermin_tail", _mermin_tail_at_its_bound, "inconclusive"),
    ("expansions.namias_identity",
     lambda mp: _shift_binet(mp, 9.5, Fraction(1, 2**243)), "fail"),
]


@pytest.mark.parametrize("name, perturb, status", PERTURBED_CHECKS,
                         ids=[name for name, _, _ in PERTURBED_CHECKS])
def test_report_check_refuses_an_error_past_its_proven_bound(name, perturb, status,
                                                             monkeypatch):
    perturb(monkeypatch)
    doc = report_all(10, PrecisionCtx(256))
    assert [(c["name"], c["status"]) for c in doc["checks"] if c["status"] != "pass"] \
        == [(name, status)]
