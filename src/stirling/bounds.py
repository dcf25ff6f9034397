"""Classical inequality corpus around the normalized factorial remainder.

Everything is phrased through three sequences computed from *exact*
integer factorials (never from the truncated series, which would make the
checks circular):

    r_n = ln( n! e^n / (sqrt(2 pi n) n^n) )
    c_n = (n + 1/2) ln n - n + 1 - ln(n!)
    v_n = n^n e^(-n) / n!

The families checked, each on its stated validity range:

    robbins      1/(12n+1) < r_n < 1/(12n)                      n >= 1
    maria        [12n + 3/(2(2n+1))]^(-1) < r_n                 n >= 1
    hummel       11/12 < r_n + (1/2) ln(2 pi) < 1               n >= 2
    nanjundiah   R_2(n) < r_n < R_1(n)                          n >= 1
    michel       |e^(r_n) - 1 - 1/(12n) - 1/(288 n^2)|
                     <= 1/(360 n^3) + 1/(108 n^4)               n >= 3

plus the truncation sandwich R_{2n}(x) < ln Gamma(x) - P(x) < R_{2m+1}(x)
for all x > 0 and n, m >= 0, checked against the integral oracle.

A verdict is issued only when the margin clears the arithmetic error
envelope; anything tighter raises InconclusiveError instead of guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from mpmath import libmp

from .errors import DomainError, InconclusiveError, ValidityError
from .mpcore import _RND, BigFloat, PrecisionCtx, _require_index, raw_expm1, to_raw
from .oracle import (FACTORIAL_CAP, _ln_factorial_raw, ln_factorial_range,
                     lngamma_binet2)
from .series import (_half_ln_2pi_raw, _main_term_raw, _remainder_raw,
                     _remainder_sums_raw, _term_coefficients_raw)

__all__ = [
    "FAMILY_MIN_N",
    "SequencePoint",
    "BoundReport",
    "sequence_point",
    "check_bound",
    "bound_sweep",
    "impens_sandwich",
    "impens_grid",
    "aissen_ratio",
]

FAMILY_MIN_N = {
    "robbins": 1,
    "maria": 1,
    "hummel": 2,
    "nanjundiah": 1,
    "michel": 3,
}


@dataclass(frozen=True)
class SequencePoint:
    n: int
    r_n: BigFloat
    c_n: BigFloat
    v_n: BigFloat


@dataclass(frozen=True)
class BoundReport:
    """One inequality instance with both sides evaluated.

    ``lhs``/``rhs`` are None for one-sided families.  ``margin`` is the
    signed distance of ``mid`` to the nearest bound (negative would mean a
    violation); ``holds`` is only ever set after the margin cleared the
    arithmetic error envelope.
    """

    family: str
    n: int
    lhs: BigFloat | None
    mid: BigFloat
    rhs: BigFloat | None
    holds: bool
    margin: BigFloat


def _r_raw(n: int, lnfact, half_l2p, wp: int):
    """r_n = ln n! - (n + 1/2) ln n + n - (1/2) ln(2 pi), given ln n! and
    (1/2) ln(2 pi) at wp bits."""
    n_raw = libmp.from_int(n)
    lnn = libmp.mpf_log(n_raw, wp, _RND)
    acc = libmp.mpf_add(lnfact, n_raw, wp, _RND)
    acc = libmp.mpf_sub(acc, libmp.mpf_mul(n_raw, lnn, wp, _RND), wp, _RND)
    acc = libmp.mpf_sub(acc, libmp.mpf_shift(lnn, -1), wp, _RND)
    return libmp.mpf_sub(acc, half_l2p, wp, _RND)


def _scale_threshold(n: int, wp: int):
    """Absolute error envelope for values derived from ln n! at wp bits.

    Its magnitude is floor(log2((n + 2)(ln(n + 2) + 1))), taken exactly from
    the binary fraction of the float ln(n + 2) + 1 so that no n overflows.
    """
    num, den = (math.log(n + 2) + 1).as_integer_ratio()
    scale_mag = ((n + 2) * num).bit_length() - den.bit_length()
    return libmp.from_man_exp(1, scale_mag - wp + 10)


def sequence_point(n: int, ctx: PrecisionCtx) -> SequencePoint:
    """r_n, c_n, v_n at ctx precision, all from the exact factorial."""
    _require_index(n, "n", 1, FACTORIAL_CAP, "factorial cap")
    wp = ctx.wprec()
    lnfact = _ln_factorial_raw(n, wp)
    n_raw = libmp.from_int(n)
    lnn = libmp.mpf_log(n_raw, wp, _RND)
    r = _r_raw(n, lnfact, _half_ln_2pi_raw(wp), wp)
    c = libmp.mpf_mul(libmp.mpf_add(n_raw, libmp.fhalf, wp, _RND), lnn, wp, _RND)
    c = libmp.mpf_sub(c, n_raw, wp, _RND)
    c = libmp.mpf_add(c, libmp.mpf_sub(libmp.fone, lnfact, wp, _RND), wp, _RND)
    v_log = libmp.mpf_sub(libmp.mpf_mul(n_raw, lnn, wp, _RND), n_raw, wp, _RND)
    v_log = libmp.mpf_sub(v_log, lnfact, wp, _RND)
    v = libmp.mpf_exp(v_log, wp, _RND)
    return SequencePoint(
        n=n,
        r_n=BigFloat.from_raw(r, ctx),
        c_n=BigFloat.from_raw(c, ctx),
        v_n=BigFloat.from_raw(v, ctx),
    )


@dataclass(frozen=True)
class _RowConstants:
    """Values at wp bits that every row of a sweep shares."""

    wp: int
    half_l2p: tuple        # (1/2) ln(2 pi)
    eleven_twelfths: tuple
    remainder_coeffs: list  # B_2/2 and B_4/12, the terms of R_1 and R_2


def _row_constants(wp: int) -> _RowConstants:
    return _RowConstants(wp, _half_ln_2pi_raw(wp),
                         libmp.from_rational(11, 12, wp, _RND),
                         _term_coefficients_raw(2, wp))


def _evaluate_family(family: str, n: int, r, consts: _RowConstants,
                     threshold, ctx: PrecisionCtx) -> BoundReport:
    """Verdict for one family at n, given r = r_n at wp bits and the
    envelope _scale_threshold(n, wp)."""
    wp = consts.wp
    lhs_raw = rhs_raw = None
    if family == "robbins":
        lhs_raw = libmp.from_rational(1, 12 * n + 1, wp, _RND)
        rhs_raw = libmp.from_rational(1, 12 * n, wp, _RND)
        mid_raw = r
    elif family == "maria":
        # [12n + 3/(2(2n+1))]^(-1) = (4n+2) / (48 n^2 + 24 n + 3)
        lhs_raw = libmp.from_rational(4 * n + 2, 48 * n * n + 24 * n + 3, wp, _RND)
        mid_raw = r
    elif family == "hummel":
        lhs_raw = consts.eleven_twelfths
        rhs_raw = libmp.fone
        mid_raw = libmp.mpf_add(r, consts.half_l2p, wp, _RND)
    elif family == "nanjundiah":
        # R_1(n) is the first running sum of R_2(n)
        rhs_raw, lhs_raw = _remainder_sums_raw(libmp.from_int(n),
                                               consts.remainder_coeffs, wp)
        mid_raw = r
    elif family == "michel":
        e_r = libmp.mpf_exp(r, wp, _RND)
        probe = libmp.mpf_sub(e_r, libmp.fone, wp, _RND)
        probe = libmp.mpf_sub(probe, libmp.from_rational(1, 12 * n, wp, _RND), wp, _RND)
        probe = libmp.mpf_sub(probe, libmp.from_rational(1, 288 * n * n, wp, _RND),
                              wp, _RND)
        mid_raw = libmp.mpf_abs(probe)
        # 1/(360 n^3) + 1/(108 n^4)
        rhs_raw = libmp.from_rational(3 * n + 10, 1080 * n**4, wp, _RND)
    else:
        raise DomainError(f"unknown family {family!r}")
    return _verdict(family, n, lhs_raw, mid_raw, rhs_raw, threshold, wp, ctx,
                    lambda: f"{family} at n={n}: margin within the arithmetic "
                            f"envelope at {ctx.bits} bits")


def _verdict(family: str, n: int, lhs_raw, mid_raw, rhs_raw, envelope, wp: int,
             ctx: PrecisionCtx, message) -> BoundReport:
    """The one verdict rule: the margin is the smaller of mid - lhs and
    rhs - mid (a None bound has no gap), and a margin within ``envelope``
    raises InconclusiveError with ``message()`` instead of a verdict."""
    margin = None
    if lhs_raw is not None:
        margin = libmp.mpf_sub(mid_raw, lhs_raw, wp, _RND)
    if rhs_raw is not None:
        upper = libmp.mpf_sub(rhs_raw, mid_raw, wp, _RND)
        if margin is None or libmp.mpf_lt(upper, margin):
            margin = upper
    if libmp.mpf_le(libmp.mpf_abs(margin), envelope):
        raise InconclusiveError(
            message(), family=family, n=n, margin=BigFloat.from_raw(margin, ctx),
            envelope=BigFloat.from_raw(envelope, ctx),
        )
    return BoundReport(
        family=family,
        n=n,
        lhs=None if lhs_raw is None else BigFloat.from_raw(lhs_raw, ctx),
        mid=BigFloat.from_raw(mid_raw, ctx),
        rhs=None if rhs_raw is None else BigFloat.from_raw(rhs_raw, ctx),
        holds=libmp.mpf_gt(margin, libmp.fzero),
        margin=BigFloat.from_raw(margin, ctx),
    )


def check_bound(family: str, n: int, ctx: PrecisionCtx) -> BoundReport:
    """Evaluate one family at one index; ValidityError below its range."""
    if family not in FAMILY_MIN_N:
        raise DomainError(f"unknown family {family!r}")
    _require_index(n, "n", 1, FACTORIAL_CAP, "factorial cap")
    if n < FAMILY_MIN_N[family]:
        raise ValidityError(
            f"{family} is stated for n >= {FAMILY_MIN_N[family]}, got n={n}"
        )
    consts = _row_constants(ctx.wprec())
    r = _r_raw(n, _ln_factorial_raw(n, consts.wp), consts.half_l2p, consts.wp)
    return _evaluate_family(family, n, r, consts,
                            _scale_threshold(n, consts.wp), ctx)


def bound_sweep(families: list[str], n_max: int, ctx: PrecisionCtx,
                ) -> Iterator[BoundReport | InconclusiveError]:
    """All requested families over n = 1..n_max, sharing one running
    exact-factorial pass, one r_n and one error envelope per n, and the
    constants (1/2) ln(2 pi), 11/12 and the remainder coefficients per
    sweep.  Every bound is one exact rational rounded once, so each row is
    bit-identical to check_bound's.  Inconclusive rows are yielded as the
    error object instead of a report, so sweeps keep going."""
    if not families:
        raise DomainError("bound_sweep needs at least one family")
    for family in families:
        if family not in FAMILY_MIN_N:
            raise DomainError(f"unknown family {family!r}")
    _require_index(n_max, "n_max", 1, FACTORIAL_CAP, "factorial cap")
    if n_max < min(FAMILY_MIN_N[f] for f in families):
        raise ValidityError(
            f"n_max={n_max} is below the validity start of {families}"
        )
    consts = _row_constants(ctx.wprec())
    wp = consts.wp
    for n, lnfact in ln_factorial_range(n_max, wp):
        r = _r_raw(n, lnfact, consts.half_l2p, wp)
        threshold = _scale_threshold(n, wp)
        for family in families:
            if n < FAMILY_MIN_N[family]:
                continue
            try:
                yield _evaluate_family(family, n, r, consts, threshold, ctx)
            except InconclusiveError as exc:
                yield exc


@dataclass(frozen=True)
class _SandwichPoint:
    """Per-x quantities shared by every (n, m) cell of the sandwich."""

    x: object
    x_raw: tuple
    mid_raw: tuple         # ln Gamma(x) - P(x) from the integral oracle
    threshold: tuple       # oracle error bound plus the rounding envelope
    wp: int


def _sandwich_point(x, ctx: PrecisionCtx) -> _SandwichPoint:
    # the verdict is computed with 64 extra bits so that rounding the
    # oracle value to ctx.bits cannot swallow a tight-but-real margin
    work = PrecisionCtx(ctx.bits + 64)
    wp = work.wprec()
    x_raw = to_raw(x, wp)
    if libmp.mpf_le(x_raw, libmp.fzero):
        raise DomainError("x must be positive")
    ov = lngamma_binet2(BigFloat(x_raw, work.bits), work)
    mid_raw = libmp.mpf_sub(ov.value.raw, _main_term_raw(x_raw, wp), wp, _RND)
    x_int = libmp.to_int(x_raw)  # integer part of x > 0, exact at any size
    threshold = libmp.mpf_add(ov.error_bound.raw, _scale_threshold(x_int + 2, wp), wp, _RND)
    return _SandwichPoint(x, x_raw, mid_raw, threshold, wp)


def _sandwich_cell(point: _SandwichPoint, n: int, m: int, lhs_raw, rhs_raw,
                   ctx: PrecisionCtx) -> BoundReport:
    """Verdict for one cell from R_{2n}(x) = lhs_raw and R_{2m+1}(x) = rhs_raw."""
    return _verdict("impens", n, lhs_raw, point.mid_raw, rhs_raw, point.threshold,
                    point.wp, ctx,
                    lambda: f"sandwich at x={point.x}, n={n}, m={m}: margin within "
                            f"the oracle error bound at {ctx.bits} bits")


def impens_sandwich(x, n: int, m: int, ctx: PrecisionCtx) -> BoundReport:
    """Strict sandwich R_{2n}(x) < ln Gamma(x) - P(x) < R_{2m+1}(x), with
    the middle term from the integral oracle.

    Holds is asserted only when both gaps exceed the oracle error bound.
    """
    _require_index(n, "n", 0)
    _require_index(m, "m", 0)
    point = _sandwich_point(x, ctx)
    return _sandwich_cell(point, n, m,
                          _remainder_raw(point.x_raw, 2 * n, point.wp),
                          _remainder_raw(point.x_raw, 2 * m + 1, point.wp), ctx)


def impens_grid(xs, orders, ctx: PrecisionCtx,
                ) -> Iterator[BoundReport | InconclusiveError]:
    """impens_sandwich over every x in xs and every n, m in orders, x major,
    then n, then m.

    The oracle value, main term and error threshold are computed once per
    x, and each remainder once per (x, order).  Inconclusive cells are
    yielded as the error object instead of a report, so the grid keeps
    going; every cell is identical to the corresponding impens_sandwich.
    """
    orders = [_require_index(k, "order", 0) for k in orders]
    for x in xs:
        point = _sandwich_point(x, ctx)
        lower = {n: _remainder_raw(point.x_raw, 2 * n, point.wp) for n in orders}
        upper = {m: _remainder_raw(point.x_raw, 2 * m + 1, point.wp) for m in orders}
        for n in orders:
            for m in orders:
                try:
                    yield _sandwich_cell(point, n, m, lower[n], upper[m], ctx)
                except InconclusiveError as exc:
                    yield exc


def aissen_ratio(n: int, ctx: PrecisionCtx) -> BigFloat:
    """n (y_{n+1}/y_n - 1) with y_n = sqrt(n) v_n; tends to 0 like O(1/n),
    certifying v_n ~ C n^(-1/2)."""
    _require_index(n, "n", 1, FACTORIAL_CAP - 1)  # y_(n+1) needs (n + 1)!
    wp = ctx.wprec()

    def ln_y(k: int):
        lnfact = _ln_factorial_raw(k, wp)
        k_raw = libmp.from_int(k)
        lnk = libmp.mpf_log(k_raw, wp, _RND)
        acc = libmp.mpf_shift(lnk, -1)
        acc = libmp.mpf_add(acc, libmp.mpf_mul(k_raw, lnk, wp, _RND), wp, _RND)
        acc = libmp.mpf_sub(acc, k_raw, wp, _RND)
        return libmp.mpf_sub(acc, lnfact, wp, _RND)

    diff = libmp.mpf_sub(ln_y(n + 1), ln_y(n), wp, _RND)
    ratio_m1 = raw_expm1(diff, wp)
    return BigFloat.from_raw(libmp.mpf_mul_int(ratio_m1, n, wp, _RND), ctx)
