"""Workload inputs, timed bodies and reference checks.

Inputs are generated in the parent process from the seed and handed to a
worker as plain JSON (rationals as ``"p/q"`` strings), so the library only
ever sees concrete values.  Sizes are fixed; the seed only moves the
values, and every log-spread list is stratified (one value per equal
log-width stratum) so the work in a run barely depends on the seed.

Checks compare outputs with references that share no code with the
library: ``mpmath.loggamma``/``mpmath.bernfrac`` at higher precision,
closed forms, and exact rational identities.  They run after the timed
section, with tracing off.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import mpmath

WORKLOADS = ("report", "oracle_sweep", "exact_sweep")

REPORT_EXPECTED = Path(__file__).with_name("report_expected.json")

FAMILIES = ("robbins", "maria", "hummel", "nanjundiah", "michel")
FAMILY_MIN_N = {"robbins": 1, "maria": 1, "hummel": 2, "nanjundiah": 1, "michel": 3}

ORACLE_LOG10_RANGE = (-3.0, 6.0)     # z from 1e-3 to 1e6, at 256 bits
ORACLE_256_COUNT = 60
# At 768 bits one value within 0.1 decade of each anchor.  With only four
# values, free strata would let the seed decide how many of them fall
# below ~0.01, where the quadrature needs one more level; that moves a
# run's time and memory by a third.
ORACLE_768_LOG10_ANCHORS = (-2.5, 0.0, 2.5, 5.0)
RESIDUAL_Z_RANGE = (0.25, 64.0)
MULTIPLICATION_ORDERS = (3, 5)
BERNOULLI_K = 512
SWEEP_N_MAX = 5000
C_SEQUENCE_N = 256
MERMIN_K = 10**5
FELLER_K = 10**4
MARSAGLIA_K = 60
BITS = 256


# -- seeded inputs ----------------------------------------------------------


def _rational(x: float, denominator: int = 10**6) -> str:
    q = Fraction(max(1, round(x * denominator)), denominator)
    return f"{q.numerator}/{q.denominator}"


def _stratified_log(rng: random.Random, count: int, lo: float, hi: float) -> list[str]:
    """One value per equal-width stratum of [log10 lo, log10 hi]."""
    a, b = math.log10(lo), math.log10(hi)
    width = (b - a) / count
    values = []
    for i in range(count):
        values.append(_rational(10 ** (a + width * (i + rng.random()))))
    if len(set(values)) != count:
        raise ValueError("stratified inputs collided")
    return values


def make_inputs(workload: str, seed: int) -> dict:
    """Concrete inputs of one workload for one seed (JSON-serialisable)."""
    rng = random.Random(seed)
    if workload == "report":
        expected = json.loads(REPORT_EXPECTED.read_text())
        return {"argv": expected["argv"]}
    if workload == "oracle_sweep":
        lo, hi = (10**e for e in ORACLE_LOG10_RANGE)
        return {
            "z256": _stratified_log(rng, ORACLE_256_COUNT, lo, hi),
            "z768": [_rational(10 ** (c + rng.uniform(-0.1, 0.1)))
                     for c in ORACLE_768_LOG10_ANCHORS],
            "duplication_z": _stratified_log(rng, 2, *RESIDUAL_Z_RANGE),
            "multiplication": [[m, z] for m, z in zip(
                MULTIPLICATION_ORDERS,
                _stratified_log(rng, len(MULTIPLICATION_ORDERS), *RESIDUAL_Z_RANGE))],
        }
    if workload == "exact_sweep":
        bern_ks = sorted(rng.sample(range(2, BERNOULLI_K + 1), 16))
        a_ks = sorted(rng.sample(range(1, 65), 8))
        rows = sorted([f, rng.randint(FAMILY_MIN_N[f], SWEEP_N_MAX)]
                      for f in FAMILIES for _ in range(8))
        return {
            "bernoulli_k": bern_ks,
            "a_k": a_ks,
            # optimal truncation needs about pi z terms; B_512 allows z < 80
            "truncation_z": _stratified_log(rng, 8, 0.5, 60.0),
            "sampled_rows": rows,
            "mermin_n": rng.randint(1, 64),
        }
    raise ValueError(f"unknown workload {workload!r}")


# -- results ----------------------------------------------------------------


@dataclass
class Outcome:
    """What one worker measured and what its checks found."""

    wall_s: float = 0.0
    latencies: dict = field(default_factory=dict)   # bits -> [seconds]
    outputs: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)      # items that raised
    attempted: int = 0
    failed: int = 0
    verdicts: int = 0
    inconclusive: int = 0
    notes: dict = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.setdefault("failures", []).append(what)


def _guard(out: Outcome, label: str, fn, *args):
    """Run one item; an exception is recorded as a failed item."""
    try:
        return fn(*args)
    except Exception as exc:  # the run must continue and report the failure
        out.errors.append(f"{label}: {type(exc).__name__}: {exc}")
        return None


# -- timed bodies -------------------------------------------------------------
# Each body receives prepared arguments, runs the workload once and stores
# raw outputs; the caller times the whole body.


def prepare(workload: str, inputs: dict) -> dict:
    """Convert JSON inputs to the objects passed to the library."""
    if workload == "oracle_sweep":
        return {
            "z": {bits: [Fraction(t) for t in inputs[f"z{bits}"]] for bits in (256, 768)},
            "duplication_z": [Fraction(t) for t in inputs["duplication_z"]],
            "multiplication": [(m, Fraction(t)) for m, t in inputs["multiplication"]],
        }
    if workload == "exact_sweep":
        return {
            "bernoulli_k": inputs["bernoulli_k"],
            "a_k": inputs["a_k"],
            "truncation_z": [Fraction(t) for t in inputs["truncation_z"]],
            "sampled_rows": {tuple(r) for r in inputs["sampled_rows"]},
            "mermin_n": inputs["mermin_n"],
        }
    return dict(inputs)


def body_report(args: dict, out: Outcome) -> None:
    from stirling import cli
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = _guard(out, "cli.run", cli.run, list(args["argv"]))
    out.outputs.update(exit_code=code, stdout=buf.getvalue())


def body_oracle_sweep(args: dict, out: Outcome) -> None:
    from stirling import (PrecisionCtx, check_duplication, check_multiplication,
                          lngamma_binet2)
    perf = time.perf_counter
    values = []
    for bits, zs in args["z"].items():
        ctx = PrecisionCtx(bits)
        lat = out.latencies.setdefault(bits, [])
        for z in zs:
            t0 = perf()
            ov = _guard(out, f"lngamma_binet2({z}, {bits})", lngamma_binet2, z, ctx)
            lat.append(perf() - t0)
            values.append((bits, z, ov))
    ctx = PrecisionCtx(BITS)
    residuals = []
    for z in args["duplication_z"]:
        residuals.append((2, z, _guard(out, f"check_duplication({z})",
                                       check_duplication, z, ctx)))
    for m, z in args["multiplication"]:
        residuals.append((m, z, _guard(out, f"check_multiplication({m}, {z})",
                                       check_multiplication, m, z, ctx)))
    out.outputs.update(values=values, residuals=residuals)


def body_exact_sweep(args: dict, out: Outcome) -> None:
    from stirling import (PrecisionCtx, bernoulli, best_constant_estimate,
                          c_sequence, feller_constant, marsaglia_coeffs,
                          mermin_partial_product, optimal_truncation,
                          series_coeff_a)
    from stirling.bounds import bound_sweep
    from stirling.errors import InconclusiveError
    ctx = PrecisionCtx(BITS)
    o = out.outputs
    o["b_max"] = _guard(out, "bernoulli(512)", bernoulli, BERNOULLI_K)
    o["b"] = {k: _guard(out, f"bernoulli({k})", bernoulli, k) for k in args["bernoulli_k"]}
    o["a"] = {k: _guard(out, f"series_coeff_a({k})", series_coeff_a, k) for k in args["a_k"]}
    seq = o["c_sequence"] = _guard(out, "c_sequence", c_sequence, C_SEQUENCE_N, ctx)
    if seq is not None:
        o["best"] = _guard(out, "best_constant_estimate", best_constant_estimate, seq)
    o["truncation"] = [(z, _guard(out, f"optimal_truncation({z})", optimal_truncation, z, ctx))
                       for z in args["truncation_z"]]
    rows = inconclusive = violated = 0
    kept = []
    wanted = args["sampled_rows"]
    try:
        for item in bound_sweep(list(FAMILIES), SWEEP_N_MAX, ctx):
            rows += 1
            if isinstance(item, InconclusiveError):
                inconclusive += 1
                continue
            if not item.holds:
                violated += 1
            if (item.family, item.n) in wanted:
                kept.append(item)
    except Exception as exc:  # the run must continue and report the failure
        out.errors.append(f"bound_sweep: {type(exc).__name__}: {exc}")
    o["sweep"] = {"rows": rows, "inconclusive": inconclusive,
                  "violated": violated, "kept": kept}
    n = args["mermin_n"]
    o["mermin"] = (n, _guard(out, "mermin_partial_product", mermin_partial_product,
                             n, MERMIN_K, ctx))
    o["feller"] = _guard(out, "feller_constant", feller_constant, FELLER_K, ctx)
    o["marsaglia"] = _guard(out, "marsaglia_coeffs", marsaglia_coeffs, MARSAGLIA_K)


BODIES = {"report": body_report, "oracle_sweep": body_oracle_sweep,
          "exact_sweep": body_exact_sweep}


# -- reference checks -----------------------------------------------------------


def _mpf(bigfloat) -> mpmath.mpf:
    return mpmath.mpf(bigfloat.raw)


def _mpq(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def exact_value(x) -> Fraction:
    """Exact value of a BigFloat, or of anything ``Fraction`` accepts."""
    raw = getattr(x, "raw", None)
    if raw is None:
        return Fraction(x)
    sign, man, exp, _ = raw
    value = Fraction(man) * Fraction(2) ** exp
    return -value if sign else value


def ulp_exponent(value: mpmath.mpf, bits: int) -> int:
    """log2 of one ulp at ``bits`` for scale max(|value|, 1)."""
    scale = max(abs(value), mpmath.mpf(1))
    return int(mpmath.floor(mpmath.log(scale, 2))) + 1 - bits


def oracle_value_ok(z: Fraction, bits: int, ov) -> tuple[bool, float]:
    """|value - loggamma(z)| <= error_bound, loggamma at bits + 64.
    Returns (ok, slack) with slack = log2(error_bound / ulp)."""
    with mpmath.workprec(bits + 64):
        ref = mpmath.loggamma(_mpq(z))
        value, bound = _mpf(ov.value), _mpf(ov.error_bound)
        ok = bound > 0 and abs(value - ref) <= bound
        slack = float(mpmath.log(bound, 2)) - ulp_exponent(value, bits) if bound > 0 else math.inf
    return ok, slack


def residual_ok(m: int, z: Fraction, residual, bits: int = BITS) -> bool:
    """A functional-equation residual combines m + 1 oracle values, each
    within ~9 ulp of ln Gamma(m z); 2^12 ulp at that scale is the limit."""
    with mpmath.workprec(bits + 64):
        scale = max(abs(mpmath.loggamma(m * _mpq(z))), 1)
        return _mpf(residual) <= scale * mpmath.mpf(2) ** (12 - bits)


def bernoulli_ok(k: int, b_k: Fraction) -> bool:
    p, q = mpmath.bernfrac(k)
    return b_k == Fraction(int(p), int(q))


def series_coeff_ok(k: int, a_k: Fraction) -> bool:
    p, q = mpmath.bernfrac(k)
    return a_k * math.factorial(k) == Fraction(int(p), int(q))


def _stirling_gamma_coeffs(count: int) -> list[Fraction]:
    """gamma_j of Gamma(n+1) ~ sqrt(2 pi n) (n/e)^n sum_j gamma_j n^-j,
    as exp of sum_k B_2k / (2k (2k-1)) x^(2k-1), from mpmath's B_k."""
    c = [Fraction(0)] * count
    for k in range(1, count // 2 + 2):
        if 2 * k - 1 < count:
            p, q = mpmath.bernfrac(2 * k)
            c[2 * k - 1] = Fraction(int(p), int(q)) / (2 * k * (2 * k - 1))
    g = [Fraction(1)] + [Fraction(0)] * (count - 1)
    for j in range(1, count):
        g[j] = sum(m * c[m] * g[j - m] for m in range(1, j + 1)) / j
    return g


def marsaglia_ok(coeffs) -> bool:
    """Odd b_(2j+1) (2j+1)!! equals the Stirling coefficient gamma_j
    exactly; the whole series solves w - ln(1 + w) = z^2/2 at z = +-1/2."""
    K = len(coeffs) - 1
    gam = _stirling_gamma_coeffs(K // 2 + 1)
    for j in range((K - 1) // 2 + 1):
        k = 2 * j + 1
        if coeffs[k] * math.prod(range(1, k + 1, 2)) != gam[j]:
            return False
    # w(z) converges for |z| < 2 sqrt(pi), so at |z| = 1/2 the omitted
    # terms are below about 7^-(K+1) < 2^(-2.5 (K+1))
    with mpmath.workprec(600):
        tol = mpmath.mpf(2) ** (-2.5 * (K + 1))
        for z in (mpmath.mpf(1) / 2, -mpmath.mpf(1) / 2):
            w = mpmath.fsum(_mpq(Fraction(b)) * z**k for k, b in enumerate(coeffs) if k)
            if abs(w - mpmath.log1p(w) - z * z / 2) > tol:
                return False
    return True


def _r_ref(n: int) -> mpmath.mpf:
    return (mpmath.loggamma(n + 1) + n - (n + mpmath.mpf(1) / 2) * mpmath.log(n)
            - mpmath.log(2 * mpmath.pi) / 2)


def bound_row_ok(row, bits: int = BITS) -> bool:
    """Reported middle term matches mpmath, and the inequality holds with
    the reference middle term in place of the reported one."""
    n = row.n
    with mpmath.workprec(bits + 64):
        r = _r_ref(n)
        if row.family == "hummel":
            ref = r + mpmath.log(2 * mpmath.pi) / 2
        elif row.family == "michel":
            ref = abs(mpmath.exp(r) - 1 - mpmath.mpf(1) / (12 * n)
                      - mpmath.mpf(1) / (288 * n * n))
        else:
            ref = r
        if abs(_mpf(row.mid) - ref) > mpmath.mpf(2) ** (16 - bits):
            return False
        if row.lhs is not None and not _mpf(row.lhs) < ref:
            return False
        if row.rhs is not None and not ref < _mpf(row.rhs):
            return False
    return row.holds


def check_report(out: Outcome, args: dict) -> None:
    expected = json.loads(REPORT_EXPECTED.read_text())
    o = out.outputs
    stdout = o.get("stdout", "")
    o["stdout_bytes"] = len(stdout.encode())
    o["digest_changed"] = int(hashlib.sha256(stdout.encode()).hexdigest()
                              != expected["stdout_sha256"])
    try:
        doc = json.loads(stdout)
        got = {c["name"]: c["status"] for c in doc["checks"]}
    except (ValueError, KeyError, TypeError):
        got = {}
    out.check(o.get("exit_code") == 0, f"exit code {o.get('exit_code')}")
    for item in expected["checks"]:
        status = got.get(item["name"])
        out.verdicts += 1
        out.inconclusive += status == "inconclusive"
        out.check(status == item["status"], f"{item['name']}: {status}")


def check_oracle_sweep(out: Outcome, args: dict) -> None:
    slack = []
    for bits, z, ov in out.outputs["values"]:
        if ov is None:
            out.check(False, f"lngamma_binet2({z}, {bits}) raised")
            continue
        ok, s = oracle_value_ok(z, bits, ov)
        slack.append(s)
        out.check(ok, f"lngamma_binet2({z}, {bits}) outside its error bound")
    for m, z, resid in out.outputs["residuals"]:
        out.check(resid is not None and residual_ok(m, z, resid),
                  f"order-{m} residual at z={z}")
    out.notes["bound_slack_bits"] = max(slack) if slack else None


def check_exact_sweep(out: Outcome, args: dict) -> None:
    o = out.outputs
    out.check(o["b_max"] is not None and bernoulli_ok(BERNOULLI_K, o["b_max"]), "B_512")
    for k, b in o["b"].items():
        out.check(b is not None and bernoulli_ok(k, b), f"B_{k}")
    for k, a in o["a"].items():
        out.check(a is not None and series_coeff_ok(k, a), f"a_{k}")

    seq = o["c_sequence"]
    if seq is None:
        out.check(False, "c_sequence raised")
    else:
        acc, ok = Fraction(1), len(seq.entries) == C_SEQUENCE_N
        for N, c_exact, c_dec in seq.entries:
            p, q = mpmath.bernfrac(2 * N)
            acc -= Fraction(int(p), int(q)) / (2 * N * (2 * N - 1))
            ok = ok and c_exact == acc and abs(exact_value(c_dec) - acc) <= abs(acc) / 2**(BITS - 1)
        out.check(ok, "c_sequence entries")
        with mpmath.workprec(BITS + 64):
            half_ln_2pi = mpmath.log(2 * mpmath.pi) / 2
            out.check(abs(_mpf(seq.reference) - half_ln_2pi) <= mpmath.mpf(2) ** (2 - BITS),
                      "c_sequence reference")
            best = o.get("best")
            out.check(best is not None and abs(_mpf(best[1]) - half_ln_2pi) < 2e-3,
                      "best_constant_estimate")

    for z, approx in o["truncation"]:
        ok = approx is not None
        if ok:
            with mpmath.workprec(BITS + 64):
                value = _mpf(approx.value)
                gap = abs(value - mpmath.loggamma(_mpq(z)))
                slack = (abs(value) + 1) * mpmath.mpf(2) ** (8 - BITS)
                ok = gap <= _mpf(approx.omitted_term) + slack
        out.check(ok, f"optimal_truncation({z})")

    sweep = o["sweep"]
    out.verdicts += sweep["rows"]
    out.inconclusive += sweep["inconclusive"]
    expected_rows = sum(SWEEP_N_MAX - FAMILY_MIN_N[f] + 1 for f in FAMILIES)
    out.check(sweep["rows"] == expected_rows, f"bound_sweep rows {sweep['rows']}")
    out.check(sweep["violated"] == 0, f"bound_sweep violations {sweep['violated']}")
    kept = {(r.family, r.n) for r in sweep["kept"]}
    out.check(kept == args["sampled_rows"], "sampled rows missing")
    for row in sweep["kept"]:
        out.check(bound_row_ok(row), f"{row.family} n={row.n}")

    n, log_prod = o["mermin"]
    ok = log_prod is not None
    if ok:
        with mpmath.workprec(BITS + 64):
            gap = _r_ref(n) - _mpf(log_prod)
            ok = 0 <= gap <= mpmath.mpf(1) / (12 * MERMIN_K)
    out.check(ok, f"mermin n={n}")

    fc = o["feller"]
    ok = fc is not None
    if ok:
        with mpmath.workprec(BITS + 64):
            # sum_{k<=K} (a_k - b_k) - I(1/2) telescopes to
            # ln K! - (K + 1/2) ln(K + 1/2) + K + 1/2
            K, half = FELLER_K, mpmath.mpf(1) / 2
            ref = mpmath.loggamma(K + 1) - (K + half) * mpmath.log(K + half) + K + half
            gap = mpmath.log(2 * mpmath.pi) / 2 - _mpf(fc)
            ok = (abs(_mpf(fc) - ref) <= mpmath.mpf(2) ** (16 - BITS)
                  and 0 < gap < mpmath.mpf(1) / (12 * K))
    out.check(ok, "feller_constant")

    series = o["marsaglia"]
    out.check(series is not None and series.order == MARSAGLIA_K
              and marsaglia_ok(series.coeffs), "marsaglia_coeffs")


CHECKS = {"report": check_report, "oracle_sweep": check_oracle_sweep,
          "exact_sweep": check_exact_sweep}
