"""Command-line entry point: every capability as a subcommand.

Output discipline: exactly one CSV table or one JSON document on stdout,
diagnostics on stderr.  Exit codes: 0 success, 2 usage error, 3 domain or
validity error, 4 inconclusive verdict.  Identical argv and environment
produce byte-identical output.

Three printed decimals follow the bound rule: ``eval``'s and ``oracle``'s
``value_dec`` and ``expansions --which feller``'s
``constant_partial_sum``.  Each is computed once, with a proven error
bound (Feller's carried by ``mpcore._Ball`` through the steps after its
series), and only the digits on which value - bound and value + bound
agree are shown (capped at --digits; "" when none is proven,
``mpcore.certified_decimal``).  The error bounds and omitted terms beside
them (``error_bound_dec``, ``omitted_term_dec``) are rounded up
(``mpcore.decimal_up``).  Exact rationals print exactly (B_k, a_k,
Marsaglia's coefficients, Mermin's tail bound), or correctly rounded at
--digits (``mpcore.decimal_nearest``): ``constants``' C_N_decimal and
``bounds``' lhs and rhs.  Every other decimal prints its computed value
rounded, with no proof of its last digits: each other ``expansions``
field, ``bounds``' mid and margin and ``constants``' gap at --digits,
and the report's detail texts at 4 or 6 digits.

Every verdict of the report follows one of two rules.  An identity check
passes when its computed residual is at most the bound proven for it (for
Feller, the multiplication formula and Namias, the error ``mpcore._Ball``
carries), compared exactly, and fails otherwise.  An inequality check is judged on an
exact interval by ``bounds._sign_test``, the rule of every bound sweep
row: it passes when the interval proves the inequality, fails when it
refutes it, and is inconclusive otherwise.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from collections import Counter
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
from .mpcore import PrecisionCtx, default_ctx, elementary, rational_to_str

__all__ = ["run", "main", "report_all", "build_parser"]

IMPENS_GRID_X = tuple(Fraction(t) for t in ("0.3", "0.5", "1", "2", "5", "10", "50"))
IMPENS_GRID_ORDERS = range(0, 7)


# -- rendering helpers ---------------------------------------------------


def _csv_table(header: list[str], rows: list[list[str]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _json_doc(doc) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _table(header: list[str], rows: list, fmt: str) -> str:
    """One table as CSV or as the JSON document {"rows": [{column: value}]}."""
    if fmt == "json":
        return _json_doc({"rows": [dict(zip(header, row)) for row in rows]})
    return _csv_table(header, rows)


# -- subcommand implementations -------------------------------------------


def _cmd_bernoulli(args, ctx: PrecisionCtx) -> tuple[str, int]:
    rows = [(k, rational_to_str(bernoulli_number(k)), rational_to_str(series_coeff_a(k)))
            for k in range(0, args.max_k + 1)]
    return _table(["k", "B_k", "a_k"], rows, args.format), 0


def _cmd_eval(args, ctx: PrecisionCtx) -> tuple[str, int]:
    z = Fraction(args.z)
    if args.terms is not None:
        approx = ser.lngamma_stirling(z, args.terms, ctx)
    else:
        approx = ser.optimal_truncation(z, ctx)
    fields = {
        "value_hex": approx.value.to_hex(),
        "value_dec": mpc.certified_decimal(approx.value, approx.error_bound, args.digits),
        "order_used": approx.order_used,
        "omitted_term_dec": mpc.decimal_up(approx.omitted_term, args.digits),
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
                     mpc.decimal_nearest(c_exact, args.digits), gap.to_decimal(args.digits)])
    header = ["N", "C_N_exact", "C_N_decimal", "abs_gap_to_half_ln_2pi"]
    return _table(header, rows, args.format), 0


def _bounds_rows(families: list[str], n_max: int, ctx: PrecisionCtx,
                 digits: int) -> tuple[list[list[str]], bool]:
    """One row per item, an inconclusive one as family,n,,,,,inconclusive
    and named on stderr too."""
    rows: list[list[str]] = []
    saw_inconclusive = False

    def exact(bound):
        return "" if bound is None else mpc.decimal_nearest(Fraction(*bound), digits)

    sweeps = []
    numeric = [f for f in families if f != "impens"]
    if numeric:
        sweeps.append((item.n, item) for item in bnd.bound_sweep(numeric, n_max, ctx))
    if "impens" in families:
        # fixed verification grid; rows keyed by a running index
        # (x major, then lower order n, then upper order m)
        sweeps.append(enumerate(bnd.impens_grid(IMPENS_GRID_X, IMPENS_GRID_ORDERS, ctx)))
    for n, item in itertools.chain.from_iterable(sweeps):
        if isinstance(item, InconclusiveError):
            saw_inconclusive = True
            print(f"inconclusive: {item}", file=sys.stderr)
            rows.append([item.family, str(n), "", "", "", "", "inconclusive"])
        else:
            rows.append([item.family, str(n), exact(item._lhs), item.mid.to_decimal(digits),
                         exact(item._rhs), item.margin.to_decimal(digits),
                         "true" if item.holds else "false"])
    return rows, saw_inconclusive


def _cmd_bounds(args, ctx: PrecisionCtx) -> tuple[str, int]:
    families = [*bnd.FAMILY_MIN_N, "impens"] if args.family == "all" else [args.family]
    rows, saw_inconclusive = _bounds_rows(families, args.n_max, ctx, args.digits)
    header = ["family", "n", "lhs", "mid", "rhs", "margin", "holds"]
    return _table(header, rows, args.format), 4 if saw_inconclusive else 0


def _cmd_expansions(args, ctx: PrecisionCtx) -> tuple[str, int]:
    which = args.which
    digits = args.digits
    doc: dict = {"which": which, "precision_bits": ctx.bits}
    if which == "feller":
        k_max = 1000 if args.k_max is None else args.k_max
        doc["k_max"] = k_max
        value, bound = expn._feller_constant(k_max, ctx).published(ctx)
        doc["constant_partial_sum"] = mpc.certified_decimal(value, bound, digits)
        gap = abs(value - ser.half_ln_2pi(ctx))
        doc["gap_to_half_ln_2pi"] = gap.to_decimal(digits)
        if args.n is not None:
            doc["identity_residual_n"] = args.n
            residual = expn.feller_identity_residual(args.n, ctx)
            doc["identity_residual"] = residual.to_decimal(digits)
    elif which == "marsaglia":
        k_max = 8 if args.k_max is None else args.k_max
        doc["k_max"] = k_max
        series = expn.marsaglia_coeffs(k_max)
        doc["coeffs"] = [rational_to_str(c) for c in series.coeffs]
        if args.n is not None:
            approx = expn.marsaglia_factorial(args.n, k_max, ctx)
            exact = orc.ln_factorial_exact(args.n, ctx).value
            ratio = elementary("exp", elementary("ln", approx, ctx) - exact, ctx)
            doc["n"] = args.n
            doc["ratio_to_exact"] = ratio.to_decimal(digits)
    elif which == "namias":
        if args.n is None:
            raise DomainError("namias requires --n")
        doc["n"] = args.n
        doc["residual"] = expn.namias_residual(args.n, ctx).to_decimal(digits)
    elif which == "mermin":
        if args.n is None:
            raise DomainError("mermin requires --n")
        k_max = 10**4 if args.k_max is None else args.k_max
        doc["n"] = args.n
        doc["k_max"] = k_max
        log_prod = expn.mermin_partial_product(args.n, k_max, ctx)
        r_n = bnd.sequence_point(args.n, ctx).r_n
        doc["log_partial_product"] = log_prod.to_decimal(digits)
        doc["r_n"] = r_n.to_decimal(digits)
        doc["gap"] = abs(r_n - log_prod).to_decimal(digits)
        doc["tail_bound"] = rational_to_str(Fraction(1, 12 * k_max))
    return _json_doc(doc), 0


def _cmd_oracle(args, ctx: PrecisionCtx) -> tuple[str, int]:
    z = Fraction(args.z)
    method = args.method
    if method == "binet2":
        ov = orc.lngamma_binet2(z, ctx)
    elif method == "euler":
        ov = orc.lngamma_euler_limit(z, 10**4 if args.n is None else args.n, ctx)
    else:
        ov = orc.weierstrass_inv_gamma(z, 10**4 if args.k is None else args.k, ctx)
    doc = {
        "z": str(args.z),
        "method": ov.method,
        "value_dec": mpc.certified_decimal(ov.value, ov.error_bound, args.digits),
        "value_hex": ov.value.to_hex(),
        "error_bound_dec": mpc.decimal_up(ov.error_bound, max(args.digits, 3)),
        "precision_bits": ctx.bits,
    }
    if args.diagnostics:
        print(json.dumps({name: _diagnostic(value) for name, value in ov.diagnostics.items()}),
              file=sys.stderr)
    return _json_doc(doc), 0


def _diagnostic(value):
    """A diagnostics entry for JSON: a BigFloat as its exact hex string, a
    Fraction as text, an integer as itself."""
    if isinstance(value, mpc.BigFloat):
        return value.to_hex()
    return str(value) if isinstance(value, Fraction) else value


def _cmd_report(args, ctx: PrecisionCtx) -> tuple[str, int]:
    doc = report_all(args.n_max, ctx)
    return _json_doc(doc), 0


# -- the aggregated verification report ------------------------------------


def _status(failed, inconclusive=0) -> str:
    """The verdict of one check: any failure fails it, else any
    inconclusive verdict leaves it inconclusive, else it passes."""
    return "fail" if failed else ("inconclusive" if inconclusive else "pass")


_VERDICT = {True: "held", False: "failed", None: "inconclusive"}


def _outcome(item) -> str:
    """held, failed or inconclusive, for one item of a bound sweep or grid"""
    return _VERDICT[None if isinstance(item, InconclusiveError) else item.holds]


def _judge(lo: Fraction, hi: Fraction, lhs: Fraction, rhs: Fraction) -> str:
    """held, failed or inconclusive: ``bounds._sign_test`` on a middle
    value in the exact interval [lo, hi] strictly between the exact bounds
    lhs and rhs."""
    return _VERDICT[bnd._sign_test(bnd._interval(lo, hi), (lhs.numerator, lhs.denominator),
                                   (rhs.numerator, rhs.denominator))]


def _unimodal(mags: list) -> bool:
    """True when ``mags`` strictly falls for zero or more steps, then
    strictly rises to its end, at least once."""
    rises = [b > a for a, b in zip(mags, mags[1:])]
    if True not in rises:
        return False
    first = rises.index(True)
    return all(b < a for a, b in zip(mags[:first], mags[1:first + 1])) \
        and all(rises[first:])


def report_all(n_max: int, ctx: PrecisionCtx) -> dict:
    """Run the whole verification suite and aggregate one document.

    Inconclusive verdicts are recorded per check, never fatal.  Ordering
    and formatting are deterministic.  The checks run inside one
    ``oracle._shared_values`` block, so every ln Gamma value they take from
    the Binet oracle, directly or through an identity check, is evaluated
    once per exact argument and precision.  n_max is checked as a count
    before any check runs; an integer below 10 raises ValidityError.
    """
    mpc._require_index(n_max, "n_max", 1, orc.FACTORIAL_CAP, "factorial cap")
    if n_max < 10:
        raise ValidityError("report needs n_max >= 10")
    with orc._shared_values():
        checks = [{"name": name, "status": status, "detail": detail}
                  for name, status, detail in _report_checks(n_max, ctx)]
    statuses = Counter(c["status"] for c in checks)
    return {
        "n_max": n_max,
        "precision_bits": ctx.bits,
        "checks": checks,
        "summary": {"total": len(checks), "pass": statuses["pass"],
                    "inconclusive": statuses["inconclusive"], "fail": statuses["fail"]},
    }


def _report_checks(n_max: int, ctx: PrecisionCtx):
    """Yield (name, status, detail) for each check of the report, in order."""
    # Bernoulli cross-identities
    k_cap = 64
    ok = all(series_coeff_a(k) * math.factorial(k) == bernoulli_number(k)
             for k in range(k_cap + 1))
    ok = ok and all(bernoulli_number(2 * j + 1) == 0 for j in range(1, k_cap // 2))
    yield "bernoulli.identity_a_times_factorial", _status(not ok), f"k<={k_cap}"

    # constant sequence: telescoping + recovery
    seq = cst.c_sequence(min(40, bernoulli_table().cap // 2), ctx)
    ok = all(c_cur - c_prev == -ser.term_coefficient(n_cur)
             for (_, c_prev, _), (n_cur, c_cur, _) in zip(seq.entries, seq.entries[1:]))
    yield "constants.telescoping_exact", _status(not ok), f"N<={seq.entries[-1][0]}"
    # The thresholds are proven (``constants.best_constant_estimate``): C_N
    # - (1/2) ln(2 pi) = -rho_N, the remainder of the series at z = 1, and
    # |rho_N| < |B_(2N+2)| / ((2N+2) (2N+1)) by the sandwich property.  So
    # |C_3 - ref| < 1/1680 = 6 10^-4 - 4.8 10^-6, and N_best = 4 gives
    # |C_4 - ref| < 1/1188 < 2 10^-3.  The decimals and ref are rounded at
    # 64 bits or more and their gap once more, together less than 2^-60,
    # which fits in either slack; the comparisons are exact.
    ref = seq.reference
    min_gap = min(abs(dec - ref) for (_, _, dec) in seq.entries[:10])
    n_best, estimate = cst.best_constant_estimate(cst.c_sequence(10, ctx))
    est_gap = abs(estimate - ref)
    ok = min_gap < Fraction(6, 10**4) and est_gap < Fraction(2, 10**3)
    yield ("constants.recovery", _status(not ok), f"min_gap={min_gap.to_decimal(6)} "
           f"N_best={n_best} est_gap={est_gap.to_decimal(6)}")

    # inequality families, then the truncation sandwich grid
    fams = list(bnd.FAMILY_MIN_N)
    tally = Counter((item.family, _outcome(item))
                    for item in bnd.bound_sweep(fams, n_max, ctx))
    for f in fams:
        held, failed, inc = (tally[f, o] for o in ("held", "failed", "inconclusive"))
        yield (f"bounds.{f}", _status(failed, inc),
               f"n<={n_max} rows={held + failed} fails={failed} inconclusive={inc}")
    grid = Counter(map(_outcome, bnd.impens_grid(IMPENS_GRID_X, IMPENS_GRID_ORDERS, ctx)))
    yield ("bounds.impens_grid", _status(grid["failed"], grid["inconclusive"]),
           f"cells={grid.total()} held={grid['held']} "
           f"inconclusive={grid['inconclusive']} failed={grid['failed']}")

    # oracle cross-checks
    gaps = []
    for n in range(2, 31):
        ov, exact = orc.lngamma_binet2(n, ctx), orc.ln_factorial_exact(n - 1, ctx)
        gaps.append((abs(ov.value._fraction() - exact.value._fraction()),
                     ov.error_bound._fraction() + exact.error_bound._fraction()))
    yield ("oracle.binet2_vs_exact_factorial", _status(any(g > a for g, a in gaps)),
           "n=2..30")
    for name, m, zs in (
            ("oracle.duplication", 2,
             (Fraction(1, 2), Fraction(1), Fraction(23, 10), Fraction(15, 2))),
            ("oracle.multiplication_m3", 3, (Fraction(1, 3), Fraction(2)))):
        checked = [orc._multiplication_residual(m, z, ctx) for z in zs]
        yield (name, _status(any(abs(r) > bound for r, bound in checked)),
               f"z in {{{','.join(map(str, zs))}}}")

    # unimodal term profile
    ok = all(_unimodal([abs(ser.f_term(2 * k, z, ctx)) for k in range(1, 61)])
             for z in (1, 5, 10))
    yield "series.term_profile_unimodal", _status(not ok), "z in {1,5,10}, N<=60"

    # optimal truncation against the oracle: ln Gamma(z) lies within the
    # oracle's bound of its value, taken at the sandwich grid's precision
    # (the values it evaluated), and must lie strictly inside the series
    # value -+ its proven error bound
    work = bnd._sandwich_oracle_ctx(ctx)
    outcomes = Counter()
    for z in (Fraction(1, 2), Fraction(1), Fraction(2), Fraction(5), Fraction(10)):
        approx = ser.optimal_truncation(z, ctx)
        ov = orc.lngamma_binet2(z, work)
        v, e = ov.value._fraction(), ov.error_bound._fraction()
        s, big_e = approx.value._fraction(), approx.error_bound._fraction()
        outcomes[_judge(v - e, v + e, s - big_e, s + big_e)] += 1
    yield ("series.optimal_truncation_vs_oracle",
           _status(outcomes["failed"], outcomes["inconclusive"]),
           f"z in {{0.5,1,2,5,10}} inconclusive={outcomes['inconclusive']}")

    # Feller
    checked = list(expn._feller_residuals(min(n_max, 200), ctx))
    yield ("expansions.feller_identity", _status(any(abs(r) > bound for r, bound in checked)),
           f"n<={len(checked)}")
    # (1/2) ln(2 pi) - F_K is the tail sum_(k>K) (a_k - b_k), and with
    # x = 1/(2k) each a_k - b_k = sum_(j>=1) x^(2j) / (2j (2j+1)) lies
    # strictly between its first term x^2/6 = 1/(24 k^2) > 1/(24 k (k+1))
    # and (x^2/6) / (1 - x^2) = 1/(24 (k^2 - 1/4)), as 2j (2j+1) >= 6.  Both
    # telescope: 1/(k (k+1)) = 1/k - 1/(k+1) and 1/(k^2 - 1/4) =
    # 1/(k - 1/2) - 1/(k + 1/2), so 1/(24 (K+1)) < (1/2) ln(2 pi) - F_K <
    # 1/(24 (K + 1/2)) < 1/(24 K).  The middle value is the ball of
    # (1/2) ln(2 pi) - F_K, F_K as ``expansions --which feller`` prints it.
    K = 2000
    partial, half = expn._feller_constant(K, ctx), ser._half_ln_2pi(ctx.wprec())
    value = mpc.BigFloat.from_raw(partial.v, ctx)
    gap = abs(value - mpc.BigFloat.from_raw(half.v, ctx))
    lo, hi = (mpc.BigFloat(end, ctx.wprec())._fraction() for end in (half - partial).ends())
    outcome = _judge(lo, hi, Fraction(1, 24 * (K + 1)), Fraction(1, 24 * K))
    yield ("expansions.feller_constant",
           _status(outcome == "failed", outcome == "inconclusive"),
           f"K={K} gap={gap.to_decimal(4)}")

    # Marsaglia
    series20 = expn.marsaglia_coeffs(20)
    ok = not any(expn.reversion_residual(series20)) \
        and series20.coeffs[:3] == (1, 1, Fraction(1, 3))
    yield "expansions.marsaglia_reversion", _status(not ok), "K=20 exact defect zero"
    exact20 = orc.ln_factorial_exact(20, ctx).value
    ratios = [elementary("exp", elementary("ln", expn.marsaglia_factorial(20, K, ctx), ctx)
                         - exact20, ctx) for K in range(1, 7)]
    errs = [abs(ratio - 1) for ratio in ratios]
    ok = all(b <= a for a, b in zip(errs, errs[1:]))
    yield ("expansions.marsaglia_monotone", _status(not ok),
           f"n=20 K=1..6 final={errs[-1].to_decimal(4)}")

    # Mermin: r_n - M_K is the tail sum_(k>K) d_k, in (0, 1/(12 (K+1))),
    # judged on the ends of the ball of r_n - M_K, r_n and M_K each rounded
    # to ctx.bits as they are published.  The three M_K share the sum over
    # k = 10..K and come from one ``_mermin_products`` call.
    K, ns = 10**4, (1, 2, 10)
    outcomes = Counter()
    for n, product in zip(ns, expn._mermin_products(ns, K, ctx)):
        r = bnd._sequence_balls(n, ctx)[0].rounded(ctx.bits)
        lo, hi = (mpc.BigFloat(end, ctx.wprec())._fraction()
                  for end in (r - product.rounded(ctx.bits)).ends())
        outcomes[_judge(lo, hi, Fraction(0), Fraction(1, 12 * K))] += 1
    yield ("expansions.mermin_tail", _status(outcomes["failed"], outcomes["inconclusive"]),
           f"K={K} n in {{1,2,10}}")

    # Namias
    failed = False
    for n in (1, 2, 10):
        r, bound = expn._namias_residual(n, ctx)
        failed |= abs(r) > bound
    yield "expansions.namias_identity", _status(failed), "n in {1,2,10}"


# -- parser -----------------------------------------------------------------


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _rational_text(text: str) -> str:
    """``text`` unchanged, once ``mpcore.to_raw`` reads it as an exact
    rational."""
    try:
        mpc.to_raw(text, mpc.MIN_BITS)
    except DomainError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


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
    p.add_argument("--z", type=_rational_text, required=True)
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
                   choices=["all", *bnd.FAMILY_MIN_N, "impens"])
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
    p.add_argument("--z", type=_rational_text, required=True)
    p.add_argument("--method", required=True,
                   choices=["binet2", "euler", "weierstrass"])
    p.add_argument("--n", type=int, default=None, help="euler limit index")
    p.add_argument("--k", type=int, default=None, help="weierstrass cutoff")
    p.add_argument("--diagnostics", action="store_true",
                   help="also print the oracle's diagnostics (step, nodes, bound "
                        "parts) as one JSON line on stderr")

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
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
