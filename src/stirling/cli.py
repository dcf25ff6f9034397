"""Command-line entry point: every capability as a subcommand.

Output discipline: exactly one CSV table or one JSON document on stdout,
diagnostics on stderr.  Exit codes: 0 success, 2 usage error, 3 domain or
validity error, 4 inconclusive verdict.  Identical argv and environment
produce byte-identical output.

Decimal values printed by the scalar subcommands follow the compute-twice
rule: the value is recomputed with 64 extra bits and only the agreed
decimal prefix is shown (capped at --digits).  Sweep tables print at
--digits directly; their verdicts already carry the error envelope.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction

from . import bounds as bnd
from . import constants as cst
from . import expansions as expn
from . import oracle as orc
from . import series as ser
from . import mpcore as mpc
from .bernoulli import bernoulli as bernoulli_number
from .bernoulli import series_coeff_a
from .bernoulli import table as bernoulli_table
from .errors import (DomainError, InconclusiveError, StirlingError,
                     ValidityError)
from .mpcore import BigFloat, PrecisionCtx, default_ctx, rational_to_str

__all__ = ["run", "main", "report_all", "build_parser"]

IMPENS_GRID_X = tuple(Fraction(t) for t in ("0.3", "0.5", "1", "2", "5", "10", "50"))
IMPENS_GRID_ORDERS = range(0, 7)


# -- rendering helpers ---------------------------------------------------


def _dec(x: BigFloat, digits: int) -> str:
    return x.to_decimal(digits)


def _csv_table(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_doc(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


# -- subcommand implementations -------------------------------------------


def _cmd_bernoulli(args, ctx: PrecisionCtx) -> tuple[str, int]:
    rows = []
    for k in range(0, args.max_k + 1):
        rows.append((k, rational_to_str(bernoulli_number(k)),
                     rational_to_str(series_coeff_a(k))))
    if args.format == "json":
        doc = {"rows": [{"k": k, "B_k": b, "a_k": a} for k, b, a in rows]}
        return _json_doc(doc), 0
    return _csv_table(["k", "B_k", "a_k"],
                      [[str(k), b, a] for k, b, a in rows]), 0


def _cmd_eval(args, ctx: PrecisionCtx) -> tuple[str, int]:
    z = Fraction(args.z)
    if args.terms is not None:
        def compute(c):
            return ser.lngamma_stirling(z, args.terms, c)
    else:
        def compute(c):
            return ser.optimal_truncation(z, c)
    approx = compute(ctx)
    value_dec = mpc.published_decimal(approx.value, lambda c: compute(c).value,
                                      args.digits)
    fields = {
        "value_hex": approx.value.to_hex(),
        "value_dec": value_dec,
        "order_used": approx.order_used,
        "omitted_term_dec": _dec(approx.omitted_term, args.digits),
        "precision_bits": ctx.bits,
    }
    if args.format == "json":
        return _json_doc(fields), 0
    return _csv_table(list(fields), [[str(v) for v in fields.values()]]), 0


def _cmd_constants(args, ctx: PrecisionCtx) -> tuple[str, int]:
    seq = cst.c_sequence(args.max_n, ctx)
    rows = []
    for (n, c_exact, c_dec) in seq.entries:
        gap = abs(c_dec - seq.reference)
        rows.append([str(n), rational_to_str(c_exact),
                     _dec(c_dec, args.digits), _dec(gap, args.digits)])
    header = ["N", "C_N_exact", "C_N_decimal", "abs_gap_to_half_ln_2pi"]
    if args.format == "json":
        doc = {"rows": [dict(zip(header, row)) for row in rows]}
        return _json_doc(doc), 0
    return _csv_table(header, rows), 0


def _bounds_rows(families: list[str], n_max: int, ctx: PrecisionCtx,
                 digits: int) -> tuple[list[list[str]], bool]:
    rows: list[list[str]] = []
    saw_inconclusive = False

    def fmt(x):
        return "" if x is None else _dec(x, digits)

    numeric = [f for f in families if f != "impens"]
    if numeric:
        for item in bnd.bound_sweep(numeric, n_max, ctx):
            if isinstance(item, InconclusiveError):
                saw_inconclusive = True
                print(f"inconclusive: {item}", file=sys.stderr)
                continue
            rows.append([item.family, str(item.n), fmt(item.lhs), fmt(item.mid),
                         fmt(item.rhs), fmt(item.margin),
                         "true" if item.holds else "false"])
    if "impens" in families:
        # fixed verification grid; rows keyed by a running index
        # (x major, then lower order n, then upper order m)
        grid = bnd.impens_grid(IMPENS_GRID_X, IMPENS_GRID_ORDERS, ctx)
        for idx, item in enumerate(grid):
            if isinstance(item, InconclusiveError):
                saw_inconclusive = True
                print(f"inconclusive: {item}", file=sys.stderr)
                rows.append(["impens", str(idx), "", "", "", "", "inconclusive"])
                continue
            rows.append(["impens", str(idx), fmt(item.lhs), fmt(item.mid),
                         fmt(item.rhs), fmt(item.margin),
                         "true" if item.holds else "false"])
    return rows, saw_inconclusive


def _cmd_bounds(args, ctx: PrecisionCtx) -> tuple[str, int]:
    if args.family == "all":
        families = ["robbins", "maria", "hummel", "nanjundiah", "michel", "impens"]
    else:
        families = [args.family]
    rows, saw_inconclusive = _bounds_rows(families, args.n_max, ctx, args.digits)
    header = ["family", "n", "lhs", "mid", "rhs", "margin", "holds"]
    code = 4 if saw_inconclusive else 0
    if args.format == "json":
        doc = {"rows": [dict(zip(header, row)) for row in rows]}
        return _json_doc(doc), code
    return _csv_table(header, rows), code


def _cmd_expansions(args, ctx: PrecisionCtx) -> tuple[str, int]:
    which = args.which
    digits = args.digits
    doc: dict = {"which": which, "precision_bits": ctx.bits}
    if which == "feller":
        k_max = 1000 if args.k_max is None else args.k_max
        doc["k_max"] = k_max
        value = expn.feller_constant(k_max, ctx)
        doc["constant_partial_sum"] = mpc.published_decimal(
            value, lambda c: expn.feller_constant(k_max, c), digits)
        gap = abs(value - ser.half_ln_2pi(ctx))
        doc["gap_to_half_ln_2pi"] = _dec(gap, digits)
        if args.n is not None:
            doc["identity_residual_n"] = args.n
            doc["identity_residual"] = _dec(
                expn.feller_identity_residual(args.n, ctx), digits)
    elif which == "marsaglia":
        k_max = 8 if args.k_max is None else args.k_max
        doc["k_max"] = k_max
        series = expn.marsaglia_coeffs(k_max)
        doc["coeffs"] = [rational_to_str(c) for c in series.coeffs]
        if args.n is not None:
            approx = expn.marsaglia_factorial(args.n, k_max, ctx)
            exact = orc.ln_factorial_exact(args.n, ctx).value
            ratio = mpc.exp(mpc.ln(approx, ctx) - exact, ctx)
            doc["n"] = args.n
            doc["ratio_to_exact"] = _dec(ratio, digits)
    elif which == "namias":
        if args.n is None:
            raise DomainError("namias requires --n")
        doc["n"] = args.n
        doc["residual"] = _dec(expn.namias_residual(args.n, ctx), digits)
    elif which == "mermin":
        if args.n is None:
            raise DomainError("mermin requires --n")
        k_max = 10**4 if args.k_max is None else args.k_max
        doc["n"] = args.n
        doc["k_max"] = k_max
        log_prod = expn.mermin_partial_product(args.n, k_max, ctx)
        r_n = bnd.sequence_point(args.n, ctx).r_n
        doc["log_partial_product"] = _dec(log_prod, digits)
        doc["r_n"] = _dec(r_n, digits)
        doc["gap"] = _dec(abs(r_n - log_prod), digits)
        doc["tail_bound"] = rational_to_str(Fraction(1, 12 * k_max))
    return _json_doc(doc), 0


def _cmd_oracle(args, ctx: PrecisionCtx) -> tuple[str, int]:
    z = Fraction(args.z)
    method = args.method
    if method == "binet2":
        def compute(c):
            return orc.lngamma_binet2(z, c)
    elif method == "euler":
        n = args.n or 10**4
        def compute(c):
            return orc.lngamma_euler_limit(z, n, c)
    else:
        k = args.k or 10**4
        def compute(c):
            return orc.weierstrass_inv_gamma(z, k, c)
    ov = compute(ctx)
    value_dec = mpc.published_decimal(ov.value, lambda c: compute(c).value,
                                      args.digits)
    doc = {
        "z": str(args.z),
        "method": ov.method,
        "value_dec": value_dec,
        "value_hex": ov.value.to_hex(),
        "error_bound_dec": _dec(ov.error_bound, max(args.digits, 3)),
        "precision_bits": ctx.bits,
    }
    return _json_doc(doc), 0


def _cmd_report(args, ctx: PrecisionCtx) -> tuple[str, int]:
    doc = report_all(args.n_max, ctx)
    return _json_doc(doc), 0


# -- the aggregated verification report ------------------------------------


def _check(name: str, status: str, detail: str) -> dict:
    return {"name": name, "status": status, "detail": detail}


def report_all(n_max: int, ctx: PrecisionCtx) -> dict:
    """Run the whole verification suite and aggregate one document.

    Inconclusive verdicts are recorded per check, never fatal.  Ordering
    and formatting are deterministic.
    """
    if n_max < 10:
        raise ValidityError("report needs n_max >= 10")
    checks: list[dict] = []

    # the report's own oracle values, one evaluation per exact argument;
    # the identity checks (duplication, multiplication, Namias residual)
    # still evaluate independently
    binet2_values: dict[Fraction, orc.OracleValue] = {}

    def binet2(z) -> orc.OracleValue:
        key = Fraction(z)
        if key not in binet2_values:
            binet2_values[key] = orc.lngamma_binet2(key, ctx)
        return binet2_values[key]

    # Bernoulli cross-identities
    k_cap = 64
    ok = all(series_coeff_a(k) * math.factorial(k) == bernoulli_number(k)
             for k in range(k_cap + 1))
    ok = ok and all(bernoulli_number(2 * j + 1) == 0 for j in range(1, k_cap // 2))
    checks.append(_check("bernoulli.identity_a_times_factorial",
                         "pass" if ok else "fail", f"k<={k_cap}"))

    # constant sequence: telescoping + recovery
    seq = cst.c_sequence(min(40, bernoulli_table().cap // 2), ctx)
    tel_ok = True
    for (n_prev, c_prev, _), (n_cur, c_cur, _) in zip(seq.entries, seq.entries[1:]):
        if c_cur - c_prev != -ser.term_coefficient(n_cur):
            tel_ok = False
            break
    checks.append(_check("constants.telescoping_exact",
                         "pass" if tel_ok else "fail",
                         f"N<={seq.entries[-1][0]}"))
    ref = seq.reference
    gaps = [abs(dec - ref) for (_, _, dec) in seq.entries[:10]]
    min_gap = min(gaps)
    n_best, estimate = cst.best_constant_estimate(
        cst.c_sequence(10, ctx))
    est_gap = abs(estimate - ref)
    rec_ok = (min_gap < Fraction(6, 10**4)) and (est_gap < Fraction(2, 10**3))
    checks.append(_check("constants.recovery",
                         "pass" if rec_ok else "fail",
                         f"min_gap={min_gap.to_decimal(6)} "
                         f"N_best={n_best} est_gap={est_gap.to_decimal(6)}"))

    # inequality families
    fams = ["robbins", "maria", "hummel", "nanjundiah", "michel"]
    counts = {f: 0 for f in fams}
    fails = {f: 0 for f in fams}
    inconclusive = {f: 0 for f in fams}
    for item in bnd.bound_sweep(fams, n_max, ctx):
        if isinstance(item, InconclusiveError):
            inconclusive[item.family] += 1
            continue
        counts[item.family] += 1
        if not item.holds:
            fails[item.family] += 1
    for f in fams:
        if fails[f]:
            status = "fail"
        elif inconclusive[f]:
            status = "inconclusive"
        else:
            status = "pass"
        checks.append(_check(f"bounds.{f}", status,
                             f"n<={n_max} rows={counts[f]} fails={fails[f]} "
                             f"inconclusive={inconclusive[f]}"))

    # truncation sandwich grid
    cells = held = inc = failed = 0
    for item in bnd.impens_grid(IMPENS_GRID_X, IMPENS_GRID_ORDERS, ctx):
        cells += 1
        if isinstance(item, InconclusiveError):
            inc += 1
        elif item.holds:
            held += 1
        else:
            failed += 1
    status = "fail" if failed else ("inconclusive" if inc else "pass")
    checks.append(_check("bounds.impens_grid", status,
                         f"cells={cells} held={held} inconclusive={inc} "
                         f"failed={failed}"))

    # oracle cross-checks
    worst = None
    ok = True
    for n in range(2, 31):
        ov = binet2(n)
        exact = orc.ln_factorial_exact(n - 1, ctx)
        gap = abs(ov.value - exact.value)
        allowed = ov.error_bound + exact.error_bound
        if gap > allowed:
            ok = False
        if worst is None or gap > worst:
            worst = gap
    checks.append(_check("oracle.binet2_vs_exact_factorial",
                         "pass" if ok else "fail",
                         f"n=2..30 worst_gap={worst.to_decimal(4)}"))

    thr = Fraction(1, 1 << max(44, ctx.bits - 20))
    worst = None
    ok = True
    for z in (Fraction(1, 2), Fraction(1), Fraction(23, 10), Fraction(15, 2)):
        resid = orc.check_duplication(z, ctx)
        if worst is None or resid > worst:
            worst = resid
        if resid > thr:
            ok = False
    checks.append(_check("oracle.duplication", "pass" if ok else "fail",
                         f"worst_residual={worst.to_decimal(4)}"))
    worst = None
    ok = True
    for z in (Fraction(1, 3), Fraction(2)):
        resid = orc.check_multiplication(3, z, ctx)
        if worst is None or resid > worst:
            worst = resid
        if resid > thr:
            ok = False
    checks.append(_check("oracle.multiplication_m3", "pass" if ok else "fail",
                         f"worst_residual={worst.to_decimal(4)}"))

    # unimodal term profile
    ok = True
    for z in (1, 5, 10):
        mags = [abs(ser.f_term(2 * k, z, ctx)) for k in range(1, 61)]
        rises = [i for i in range(len(mags) - 1) if mags[i + 1] > mags[i]]
        if not rises:
            ok = False
            continue
        first_rise = rises[0]
        if any(mags[i + 1] >= mags[i] for i in range(first_rise)):
            ok = False
        if any(mags[i + 1] <= mags[i] for i in range(first_rise, len(mags) - 1)):
            ok = False
    checks.append(_check("series.term_profile_unimodal",
                         "pass" if ok else "fail", "z in {1,5,10}, N<=60"))

    # optimal truncation against the oracle
    ok = True
    inc_count = 0
    for z in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5), Fraction(10)):
        approx = ser.optimal_truncation(z, ctx)
        ov = binet2(z)
        gap = abs(approx.value - ov.value)
        envelope = ov.error_bound + abs(approx.value) * ctx.eps() * 64
        if gap <= approx.omitted_term:
            continue
        if gap <= approx.omitted_term + envelope:
            inc_count += 1
        else:
            ok = False
    status = "fail" if not ok else ("inconclusive" if inc_count else "pass")
    checks.append(_check("series.optimal_truncation_vs_oracle", status,
                         f"z in {{0.5,1,2,5,10}} inconclusive={inc_count}"))

    # Feller
    resids = expn.feller_residual_sweep(min(n_max, 200), ctx)
    allow = [n * Fraction(1, 1 << (ctx.bits - 8)) for n in range(1, len(resids) + 1)]
    ok = all(r <= a for r, a in zip(resids, allow))
    checks.append(_check("expansions.feller_identity",
                         "pass" if ok else "fail", f"n<={len(resids)}"))
    fc = expn.feller_constant(2000, ctx)
    gap = abs(fc - ser.half_ln_2pi(ctx))
    ok = gap < Fraction(5, 10**5)
    checks.append(_check("expansions.feller_constant", "pass" if ok else "fail",
                         f"K=2000 gap={gap.to_decimal(4)}"))

    # Marsaglia
    series20 = expn.marsaglia_coeffs(20)
    defect = expn.reversion_residual(series20)
    ok = (not any(defect)) and series20.coeffs[0] == 1 \
        and series20.coeffs[1] == 1 and series20.coeffs[2] == Fraction(1, 3)
    checks.append(_check("expansions.marsaglia_reversion",
                         "pass" if ok else "fail", "K=20 exact defect zero"))
    exact20 = orc.ln_factorial_exact(20, ctx).value
    errs = []
    for K in range(1, 7):
        approx = expn.marsaglia_factorial(20, K, ctx)
        ratio = mpc.exp(mpc.ln(approx, ctx) - exact20, ctx)
        errs.append(abs(ratio - 1))
    ok = all(errs[i + 1] <= errs[i] for i in range(len(errs) - 1))
    checks.append(_check("expansions.marsaglia_monotone",
                         "pass" if ok else "fail",
                         f"n=20 K=1..6 final={errs[-1].to_decimal(4)}"))

    # Mermin
    ok = True
    K = 10**4
    for n in (1, 2, 10):
        log_prod = expn.mermin_partial_product(n, K, ctx)
        r_n = bnd.sequence_point(n, ctx).r_n
        gap = r_n - log_prod
        if not (gap >= 0 and gap <= Fraction(1, 12 * K)):
            ok = False
    checks.append(_check("expansions.mermin_tail", "pass" if ok else "fail",
                         f"K={K} n in {{1,2,10}}"))

    # Namias
    ok = True
    for n in (1, 2, 10):
        resid = expn.namias_residual(n, ctx)
        bound = binet2(2 * n).error_bound + binet2(n).error_bound \
            + binet2(Fraction(2 * n - 1, 2)).error_bound
        if resid > 10 * bound + Fraction(1, 1 << (ctx.bits - 16)):
            ok = False
    checks.append(_check("expansions.namias_identity", "pass" if ok else "fail",
                         "n in {1,2,10}"))

    passed = sum(1 for c in checks if c["status"] == "pass")
    inconcl = sum(1 for c in checks if c["status"] == "inconclusive")
    failed = sum(1 for c in checks if c["status"] == "fail")
    return {
        "n_max": n_max,
        "precision_bits": ctx.bits,
        "checks": checks,
        "summary": {"total": len(checks), "pass": passed,
                    "inconclusive": inconcl, "fail": failed},
    }


# -- parser -----------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be a non-negative integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stirling",
        description="Stirling-series laboratory: exact Bernoulli coefficients, "
                    "divergent-series truncation, constant recovery, classical "
                    "bounds, and independent log-gamma oracles.")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision-bits", type=int, default=None,
                        help="significand bits (default: env "
                             "STIRLING_PRECISION_BITS or 256)")
    common.add_argument("--digits", type=_positive_int, default=20,
                        help="significant decimal digits for printed values")
    common.add_argument("--output", default=None,
                        help="write the table/document to this path")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bernoulli", parents=[common],
                       help="exact B_k and a_k table")
    p.add_argument("--max", dest="max_k", type=_nonneg_int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("eval", parents=[common],
                       help="truncated series for ln Gamma(z)")
    p.add_argument("--z", required=True)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--terms", type=int, default=None,
                       help="fixed truncation order N")
    group.add_argument("--auto", action="store_true",
                       help="optimal truncation (default)")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("constants", parents=[common],
                       help="constant sequence C_N and its gap to (1/2) ln(2 pi)")
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("bounds", parents=[common],
                       help="classical inequality families with margins")
    p.add_argument("--family", required=True,
                   choices=["all", "robbins", "maria", "hummel", "nanjundiah",
                            "michel", "impens"])
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("expansions", parents=[common],
                       help="Feller / Marsaglia / Namias / Mermin routes")
    p.add_argument("--which", required=True,
                   choices=["feller", "marsaglia", "namias", "mermin"])
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--k-max", dest="k_max", type=int, default=None)
    p.add_argument("--format", choices=["json"], default="json")

    p = sub.add_parser("oracle", parents=[common],
                       help="independent ln Gamma evaluations with error bounds")
    p.add_argument("--z", required=True)
    p.add_argument("--method", required=True,
                   choices=["binet2", "euler", "weierstrass"])
    p.add_argument("--n", type=int, default=None, help="euler limit index")
    p.add_argument("--k", type=int, default=None, help="weierstrass cutoff")

    p = sub.add_parser("report", parents=[common],
                       help="aggregated verification report (JSON)")
    p.add_argument("--n-max", dest="n_max", type=int, required=True)
    return parser


_DISPATCH = {
    "bernoulli": _cmd_bernoulli,
    "eval": _cmd_eval,
    "constants": _cmd_constants,
    "bounds": _cmd_bounds,
    "expansions": _cmd_expansions,
    "oracle": _cmd_oracle,
    "report": _cmd_report,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.precision_bits is not None:
            ctx = PrecisionCtx(args.precision_bits)
        else:
            ctx = default_ctx()
        text, code = _DISPATCH[args.command](args, ctx)
    except InconclusiveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except StirlingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
