"""Stirling's series for ln Gamma: main term, correction terms, truncation.

The expansion implemented here is

    ln Gamma(z) ~ P(z) + R_N(z),            z -> infinity,
    P(z)   = z ln z - z - (1/2) ln z + (1/2) ln(2 pi),
    R_N(z) = sum_{k=1..N} B_{2k} / (2k (2k-1) z^(2k-1)),   R_0 = 0.

A note on the correction-term denominator: derivations that organize the
series as f_k(z) = (B_k/k!) d^k/dz^k [z ln z - z] are sometimes displayed
with denominator 2k(2k+1).  That variant is inconsistent with R_N above
and with the constant sequence it induces (the N=1 constant must be
1 - 1/12 = 11/12 ~ 0.91667, which forces 2k(2k-1)).  This module uses
2k(2k-1) throughout, so that sum_{k=0..2N} f_k(z) = P(z) + R_N(z) minus
the (1/2) ln(2 pi) constant, exactly as the remainder form requires.

The series diverges for every fixed z; `optimal_truncation` stops just
before the smallest term, which by the even/odd sandwich property bounds
the error by the first omitted term.  The sum is evaluated at the point
z~, z rounded to the working precision, and ``omitted_term`` is an upper
bound on the omitted term at z~: each of its roundings is directed outward.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from fractions import Fraction

from mpmath import libmp

from .bernoulli import bernoulli, table
from .errors import DomainError, ResourceError
from .mpcore import (_RND, _UP, BigFloat, PrecisionCtx, _argument_error, _Ball, _log_raw,
                     _require_index, _require_positive, to_raw)

__all__ = [
    "Approximation",
    "half_ln_2pi",
    "main_term_P",
    "remainder_R",
    "f_term",
    "lngamma_stirling",
    "optimal_truncation",
    "stirling_original_log10",
    "ln_factorial_stirling",
    "term_coefficient",
]


@dataclass(frozen=True)
class Approximation:
    """A truncated-series value with its own error certificate.

    ``omitted_term`` is the magnitude of the first term left out at the
    point z~ the sum is evaluated at, rounded outward; on the positive real
    axis it bounds the truncation error.  ``error_bound`` is that term plus
    the rounding errors, rounded up: a proven bound on |value - ln Gamma(z)|
    (see ``_approximation``).
    """

    value: BigFloat
    order_used: int
    omitted_term: BigFloat
    ctx_bits: int
    error_bound: BigFloat


def term_coefficient(N: int) -> Fraction:
    """Exact coefficient B_{2N} / (2N (2N-1)) of the N-th correction term."""
    _require_index(N, "N", 1)
    return bernoulli(2 * N) / (2 * N * (2 * N - 1))


# -- raw kernels -------------------------------------------------------


def _half_ln_2pi(wp: int) -> _Ball:
    """(1/2) ln(2 pi): half the log of 2 pi~, pi~ within one ulp of pi."""
    return _Ball.op(libmp.mpf_pi(wp, _RND), wp).shift(1).log().shift(-1)


def _main_term(z: _Ball) -> _Ball:
    """P(z) = z ln z - z - (1/2) ln z + (1/2) ln(2 pi), with its error."""
    lnz = z.log()
    return z * lnz - z - lnz.shift(-1) + _half_ln_2pi(z.wp)


_COEFFS: dict[int, list] = {}  # wp -> ``_rounded_coeffs(wp, ...)``
_COEFFS_LOCK = threading.Lock()


def _coeff_raw(k: int, wp: int, rnd: str):
    """B_(2k) / (2k (2k-1)) rounded at wp bits in the direction rnd, as
    ``libmp.from_rational(num(B_2k), den(B_2k) 2k (2k-1), wp, rnd)``:
    ``mpf_div`` rounds the exact quotient of its operands correctly, so the
    unreduced fraction gives the value of the reduced one, and no Fraction
    is divided."""
    b = bernoulli(2 * k)
    return libmp.from_rational(b.numerator, b.denominator * 2 * k * (2 * k - 1), wp, rnd)


def _rounded_coeffs(wp: int, n: int) -> list:
    """[c_1, c_2, ...], at least n of them, c_k = B_(2k) / (2k (2k-1))
    rounded to nearest at wp bits (``_coeff_raw``); the exact c_k are not
    kept.

    A list of one wp too short for n grows to every c_k whose B_2k the
    Bernoulli table holds once B_2n is in it: it never grows the table past
    what the terms asked for take, and it grows as often as the table does,
    geometrically (an n past the table's cap raises its ``ResourceError`` at
    once).  It grows under a lock, as a new list that replaces the old one
    only when complete, so concurrent readers always see whole lists.

    The omitted term's coefficient, |c_k| rounded up, is not listed: each
    approximation takes one, from ``_coeff_raw``, and a list of them as long
    as this one would cost a rounding per entry, almost all never read.
    """
    got = _COEFFS.get(wp, ())
    if len(got) < n:
        bernoulli(2 * n)
        with _COEFFS_LOCK:
            got = _COEFFS.get(wp, [])
            if len(got) < n:
                held = range(len(got) + 1, table().max_index // 2 + 1)
                got = _COEFFS[wp] = got + [_coeff_raw(k, wp, _RND) for k in held]
    return got


def _terms_raw(z_raw, wp: int):
    """Yield B_(2k) / (2k (2k-1) z^(2k-1)) for k = 1, 2, ...: the coefficient
    rounded to wp bits (``_rounded_coeffs``) times z^-(2k-1), a running
    product."""
    inv = libmp.mpf_div(libmp.fone, z_raw, wp, _RND)
    inv2 = libmp.mpf_mul(inv, inv, wp, _RND)
    zpow = inv  # z^-(2k-1), starting at k=1
    near = ()
    for k in itertools.count(1):
        if k > len(near):
            near = _rounded_coeffs(wp, k)
        yield libmp.mpf_mul(near[k - 1], zpow, wp, _RND)
        zpow = libmp.mpf_mul(zpow, inv2, wp, _RND)


def _remainder_raw(z_raw, N: int, wp: int):
    """R_N(z), the first N of ``_terms_raw`` summed in order, and the least
    M with every one of them below 2^M in magnitude (0 when N = 0)."""
    terms = list(itertools.islice(_terms_raw(z_raw, wp), N))
    acc = libmp.fzero
    for t in terms:
        acc = libmp.mpf_add(acc, t, wp, _RND)
    return acc, max((t[2] + t[3] for t in terms), default=0)


def _term_raw(z_raw, N: int, wp: int, up_bits: int | None = None):
    """B_{2N} / (2N (2N-1) z^(2N-1)) rounded to nearest at wp bits; or, given
    ``up_bits``, its magnitude rounded up to that many bits: the coefficient
    rounded up and z^(2N-1) down at wp (``mpf_pow_int`` keeps a directed
    rounding through every step), and their quotient rounded up.  The
    coefficient to nearest comes from ``_rounded_coeffs``, the one rounded
    up from ``_coeff_raw`` (libmp's "u" rounds away from zero)."""
    if up_bits is None:
        zp = libmp.mpf_pow_int(z_raw, 2 * N - 1, wp, _RND)
        return libmp.mpf_div(_rounded_coeffs(wp, N)[N - 1], zp, wp, _RND)
    c_up = libmp.mpf_abs(_coeff_raw(N, wp, "u"))
    zp = libmp.mpf_pow_int(z_raw, 2 * N - 1, wp, "d")
    return libmp.mpf_div(c_up, zp, up_bits, "u")


def _approximation(z_raw, N: int, remainder, top: int, ctx: PrecisionCtx) -> Approximation:
    """P(z) + R_N(z), given R_N(z) at wp = ctx.wprec() and an M = ``top``
    with each of its N terms below 2^M in magnitude, with the omitted term
    rounded up as its certificate and a proven ``error_bound``.

    The distance of the value from ln Gamma(z) is at most the sum of
      - the omitted term at z~: for real z~ > 0 the sandwich property
        bounds |ln Gamma(z~) - P(z~) - R_N(z~)| by it;
      - E_arg, from z rounded to z~ (``mpcore._argument_error``);
      - E_R = 6 N^2 2^(M + 2 - wp), for R_N.  Each rounding of a term makes
        it x (1 + delta), |delta| <= u = 2^(2-wp) (``mpcore._Ball``), and
        Higham's Lemma 3.1 puts a product of n such factors (1 +
        delta)^(+-1) at 1 + theta, |theta| <= gamma_n = n u / (1 - n u).
        The k-th term t_k is the exact T_k times 1 + theta, |theta| <=
        gamma_4k: 1/z~ enters it 2k - 1 times, the rounding of its square
        and of the running product k - 1 times each, and the rounded
        coefficient and the last product once each.  The running sum adds
        N more factors to each term, so |R~ - R_N(z~)| <= gamma_5N sum
        |T_k|, with |T_k| <= |t_k| / (1 - gamma_4N) < 2^M / (1 - gamma_4N).
        N <= 256 (B_2N is tabled to 512) and wp >= 96 give 5 N u < 2^-80,
        so that is below 6 N u N 2^M = E_R;
      - the roundings of P(z~) (``_main_term``) and of its sum with R~, as
        ``mpcore._Ball`` tracks them, and half an ulp of the value at
        ctx.bits for the final rounding.
    The total is rounded up to ctx.bits.
    """
    wp = ctx.wprec()
    out = (_main_term(_Ball(z_raw, wp))
           + _Ball(remainder, wp).widen(libmp.from_man_exp(6 * N * N, top + 2 - wp)))
    out = out.widen(_argument_error(z_raw, wp)).rounded(ctx.bits)
    omitted = _term_raw(z_raw, N + 1, wp, ctx.bits)
    return Approximation(
        value=BigFloat(out.v, ctx.bits),
        order_used=N,
        omitted_term=BigFloat.from_raw(omitted, ctx),
        ctx_bits=ctx.bits,
        error_bound=BigFloat(libmp.mpf_add(omitted, out.error(), ctx.bits, _UP), ctx.bits),
    )


# -- public operations --------------------------------------------------


def half_ln_2pi(ctx: PrecisionCtx) -> BigFloat:
    """(1/2) ln(2 pi), the constant of the main term."""
    return BigFloat.from_raw(_half_ln_2pi(ctx.wprec()).v, ctx)


def main_term_P(z, ctx: PrecisionCtx) -> BigFloat:
    """P(z) = z ln z - z - (1/2) ln z + (1/2) ln(2 pi), for z > 0."""
    wp = ctx.wprec()
    z_raw = to_raw(z, wp)
    _require_positive(z_raw)
    return BigFloat.from_raw(_main_term(_Ball(z_raw, wp)).v, ctx)


def remainder_R(z, N: int, ctx: PrecisionCtx) -> BigFloat:
    """R_N(z) = sum_{k=1..N} B_{2k}/(2k(2k-1) z^(2k-1)); R_0 = 0."""
    _require_index(N, "N", 0)
    wp = ctx.wprec()
    z_raw = to_raw(z, wp)
    _require_positive(z_raw)
    return BigFloat.from_raw(_remainder_raw(z_raw, N, wp)[0], ctx)


def f_term(k: int, z, ctx: PrecisionCtx) -> BigFloat:
    """Individual expansion term: f_0 = z ln z - z, f_1 = -(1/2) ln z,
    f_{2m} = B_{2m}/(2m(2m-1) z^(2m-1)), and 0 for odd k >= 3."""
    _require_index(k, "k", 0)
    wp = ctx.wprec()
    z_raw = to_raw(z, wp)
    _require_positive(z_raw)
    if k == 0:
        lnz = _log_raw(z_raw, wp)
        raw = libmp.mpf_sub(libmp.mpf_mul(z_raw, lnz, wp, _RND), z_raw, wp, _RND)
        return BigFloat.from_raw(raw, ctx)
    if k == 1:
        lnz = _log_raw(z_raw, wp)
        return BigFloat.from_raw(libmp.mpf_neg(libmp.mpf_shift(lnz, -1)), ctx)
    if k % 2:
        return BigFloat.from_raw(libmp.fzero, ctx)
    return BigFloat.from_raw(_term_raw(z_raw, k // 2, wp), ctx)


def lngamma_stirling(z, N: int, ctx: PrecisionCtx) -> Approximation:
    """P(z) + R_N(z) with the first omitted term as the error certificate."""
    _require_index(N, "N", 0)
    wp = ctx.wprec()
    z_raw = to_raw(z, wp)
    _require_positive(z_raw)
    return _approximation(z_raw, N, *_remainder_raw(z_raw, N, wp), ctx)


def optimal_truncation(z, ctx: PrecisionCtx) -> Approximation:
    """Truncate just before the smallest correction term.

    Sums term_1, term_2, ... while it scans their magnitudes for the first
    local minimum at index m; the returned order is m-1, so the omitted term
    is that minimal one and (by the sandwich property) bounds the actual
    error.

    Past the Bernoulli table's cap it raises ``ResourceError``, and for z >=
    cap / (2 pi) it does so at once, as the scan could only end there.  From
    |B_2k| = 2 (2k)! zeta(2k) / (2 pi)^(2k), the k-th term has |T_k| = 2
    (2k - 2)! zeta(2k) / ((2 pi)^(2k) z^(2k-1)), so, as zeta(2N + 2) <
    zeta(2N),

        |T_(N+1) / T_N| < 2N (2N - 1) / (4 pi^2 z^2) <= (cap - 2)(cap - 3) / cap^2

    for every N < cap/2 the scan compares, below 1 - 4/cap.  The computed
    terms are each within a relative gamma_4k < 2^-80 of T_k at z~ (see
    ``_approximation``), so their ratios stay below 1 and the scan finds no
    minimum.  The test z~ >= cap / (2 pi) is exact: z~ 333 >= 53 cap, as
    333/106 < pi.
    """
    wp = ctx.wprec()
    z_raw = to_raw(z, wp)
    _require_positive(z_raw)
    cap = table().cap
    if libmp.mpf_ge(libmp.mpf_mul(z_raw, libmp.from_int(333)), libmp.from_int(53 * cap)):
        raise _past_cap()
    terms = _terms_raw(z_raw, wp)
    acc, prev = libmp.fzero, next(terms)  # R_(N-1) and term N
    top = prev[2] + prev[3]  # the summed terms fall in magnitude from the first
    for N in range(1, cap // 2):
        cur = next(terms)
        if libmp.mpf_gt(libmp.mpf_abs(cur), libmp.mpf_abs(prev)):
            return _approximation(z_raw, N - 1, acc, top, ctx)
        acc = libmp.mpf_add(acc, prev, wp, _RND)
        prev = cur
    raise _past_cap()


def _past_cap() -> ResourceError:
    return ResourceError(
        "term magnitudes still decreasing at the table cap; "
        "argument too large for optimal truncation at this cap"
    )


def stirling_original_log10(n, terms: int, ctx: PrecisionCtx) -> BigFloat:
    """Base-10 series for log10(n!) in powers of 1/(n + 1/2).

    With a = 1/ln 10, the displayed term groups are

        (n+1/2) log10(n+1/2) - a (n+1/2) + (1/2) log10(2 pi)
        - a / (24 (n+1/2))
        + 7 a / (2880 (n+1/2)^3)

    and ``terms`` in {1, 2, 3} selects how many are summed.  Coefficients
    past the third displayed group are not defined here.
    """
    if _require_index(terms, "terms", 1) > 3:
        raise DomainError("terms must be 1, 2 or 3")
    wp = ctx.wprec()
    n_raw = to_raw(n, wp)
    _require_positive(n_raw, "n")
    ln10 = _log_raw(libmp.from_int(10), wp)
    a = libmp.mpf_div(libmp.fone, ln10, wp, _RND)
    m = libmp.mpf_add(n_raw, libmp.fhalf, wp, _RND)  # n + 1/2
    log10_m = libmp.mpf_div(_log_raw(m, wp), ln10, wp, _RND)
    two_pi = libmp.mpf_shift(libmp.mpf_pi(wp, _RND), 1)
    log10_2pi = libmp.mpf_div(_log_raw(two_pi, wp), ln10, wp, _RND)
    acc = libmp.mpf_mul(m, log10_m, wp, _RND)
    acc = libmp.mpf_sub(acc, libmp.mpf_mul(a, m, wp, _RND), wp, _RND)
    acc = libmp.mpf_add(acc, libmp.mpf_shift(log10_2pi, -1), wp, _RND)
    if terms >= 2:
        d = libmp.mpf_mul(libmp.from_int(24), m, wp, _RND)
        acc = libmp.mpf_sub(acc, libmp.mpf_div(a, d, wp, _RND), wp, _RND)
    if terms >= 3:
        m3 = libmp.mpf_pow_int(m, 3, wp, _RND)
        num = libmp.mpf_mul(libmp.from_int(7), a, wp, _RND)
        d = libmp.mpf_mul(libmp.from_int(2880), m3, wp, _RND)
        acc = libmp.mpf_add(acc, libmp.mpf_div(num, d, wp, _RND), wp, _RND)
    return BigFloat.from_raw(acc, ctx)


def ln_factorial_stirling(n: int, N: int, ctx: PrecisionCtx) -> Approximation:
    """Series approximation of ln((n-1)!) = ln Gamma(n) for integer n >= 1."""
    _require_index(n, "n", 1)
    return lngamma_stirling(n, N, ctx)
