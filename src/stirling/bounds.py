"""Classical inequality corpus around the normalized factorial remainder.

Three sequences are studied:

    r_n = ln( n! e^n / (sqrt(2 pi n) n^n) )
    c_n = (n + 1/2) ln n - n + 1 - ln(n!)
    v_n = n^n e^(-n) / n!

``sequence_point`` computes them from the *exact* integer factorial (never
from the truncated series, which would make the checks circular).  Aissen's
ratio is taken from d_n and the inequality families take r_n from the
difference equation

    r_n - r_(n+1) = d_n = (n + 1/2) ln(1 + 1/n) - 1,   r_1 = 1 - (1/2) ln(2 pi),

as Robbins does to prove his bounds: each d_k is a series of positive terms,
summed in integer fixed point with a proven error, so every r_n is an exact
interval of integers, as is (1/2) ln(2 pi), bracketed once per sweep.
Hummel's middle value r_n + (1/2) ln(2 pi) = 1 - sum_(k<n) d_k needs no
constant at all.  The families checked, each on its stated validity range:

    robbins      1/(12n+1) < r_n < 1/(12n)                      n >= 1
    maria        [12n + 3/(2(2n+1))]^(-1) < r_n                 n >= 1
    hummel       11/12 < r_n + (1/2) ln(2 pi) < 1               n >= 2
    nanjundiah   R_2(n) < r_n < R_1(n)                          n >= 1
    michel       |e^(r_n) - 1 - 1/(12n) - 1/(288 n^2)|
                     <= 1/(360 n^3) + 1/(108 n^4)               n >= 3

with R_1(n) = 1/(12n) and R_2(n) = (30 n^2 - 1)/(360 n^3).

The truncation sandwich R_{2n}(x) < ln Gamma(x) - P(x) < R_{2m+1}(x), for
all x > 0 and n, m >= 0, is checked at the point x~ where the integral
oracle is evaluated: its middle value is the exact interval that the
oracle's value and proven error bound give, with P(x~) bracketed, and
R_{2n}(x~) and R_{2m+1}(x~) are exact rationals.

Every check has one verdict rule, one sign test (``_sign_test``) that
``_verdict_row`` and the sweep share.  Every bound is an exact rational
and every middle value an exact interval, so a verdict compares integers:
the margin, the smaller of mid - lhs and rhs - mid, is an exact interval,
and a row holds when the whole interval lies above 0, fails when it lies
below, and is inconclusive (InconclusiveError) when it touches or
straddles 0.  No envelope is assumed.  The sign test compares the middle
value's ends with the bounds directly; a row that holds or fails keeps
those integers and builds its gap intervals and published BigFloats on
their first read.  The sweep makes one pass per n (``_rows``): r_n's
interval is taken once and shared by the families that compare it, and
the bounds come from one table keyed by family (``_BOUNDS``).  A Michel
row, whose bracket of e^(r_n) at the sweep's fixed point is the costliest
part of a sweep, is judged first on an interval at 2^-72 (``_COARSE_W``)
that contains it, and at the sweep's fixed point only where that one is
inconclusive: a verdict on a containing interval is the verdict on the
interval itself.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from mpmath import libmp

from .errors import DomainError, InconclusiveError, ValidityError
from .mpcore import (_RND, BigFloat, PrecisionCtx, _Ball, _exp_raw, _log_raw, _require_index,
                     _require_positive, raw_expm1, to_raw)
from .expansions import mermin_partial_product
from .fixed import _exp_bracket, _floor_terms
from .oracle import FACTORIAL_CAP, _ln_factorial_raw, _oracle_main_term, lngamma_binet2
from .series import _half_ln_2pi, term_coefficient

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
    violation); ``holds`` is only ever set once the margin is known to lie
    on one side of 0.  Every report of this module is a ``_SweepRow``,
    whose margin is the end of an exact interval nearest 0, rounded toward
    0, and whose mid is that interval's midpoint.  The sandwich's n is
    its lower order.
    """

    family: str
    n: int
    lhs: BigFloat | None
    mid: BigFloat
    rhs: BigFloat | None
    holds: bool
    margin: BigFloat


def sequence_point(n: int, ctx: PrecisionCtx) -> SequencePoint:
    """r_n, c_n, v_n at ctx precision, all from the exact factorial.

    r_n = 1 - c_n - (1/2) ln(2 pi) ~ 1/(12n) is what is left of terms near
    n ln n, so the working precision grows by 2 bitlen(n) + 8 bits, to w =
    bits + 40 + 2 bitlen(n): the few roundings of those terms then cost
    r_n, before its rounding to ctx.bits, a relative error below
    2^-(bits + 28) for n <= FACTORIAL_CAP.

    Proof.  With U as in ``mpcore._Ball``, at w in place of wp, every
    operation at w, libmp's or a log or exp of ``fixed``, returns a c
    within U(c) <= 2^(1-w) |c| of the exact result on its computed
    operands, and (1/2) ln(2 pi) is taken within 2^(1-w).  For n = 1 the
    logs are 0 and c_1 = 0 exactly, so only (1/2) ln(2 pi) and the two
    last differences err, by less than 2^(3-w) against r_1 > 1/13.  For n
    >= 2 let X = (n + 1/2) ln n >= 1.7.  ln n! is the log of n! rounded to w, a
    relative 2^-w off, so it is within 2^(1-w) + U(ln n!); ln n is within
    U(ln n), which X carries n + 1/2 times; and the product X, X - n,
    1 - ln n!, their sum c_n, 1 - c_n and r_n each add U of itself.  As
    ln n! < X, |X - n| < X and |1 - ln n!| < X, while c_n, 1 - c_n and
    r_n lie in (0, 1), the error is below 2^(1-w) (5 X + 5) (1 + 2^-60)
    < 2^(4-w) X.  With r_n > 1/(12n + 1) (Robbins) and (n + 1/2)(12n + 1)
    <= 16 n^2 < 16 4^bitlen(n), the relative error is below
    2^(4-w) 16 4^bitlen(n) ln n = 2^-(bits+32) ln n < 2^-(bits+28), as
    ln n < 12."""
    _require_index(n, "n", 1, FACTORIAL_CAP, "factorial cap")
    wp = ctx.wprec() + 2 * n.bit_length() + 8
    lnfact = _ln_factorial_raw(n, wp)
    n_raw = libmp.from_int(n)
    lnn = _log_raw(n_raw, wp)
    c = libmp.mpf_mul(libmp.mpf_add(n_raw, libmp.fhalf, wp, _RND), lnn, wp, _RND)
    c = libmp.mpf_sub(c, n_raw, wp, _RND)
    c = libmp.mpf_add(c, libmp.mpf_sub(libmp.fone, lnfact, wp, _RND), wp, _RND)
    r = libmp.mpf_sub(libmp.mpf_sub(libmp.fone, c, wp, _RND), _half_ln_2pi(wp).v, wp, _RND)
    v_log = libmp.mpf_sub(libmp.mpf_mul(n_raw, lnn, wp, _RND), n_raw, wp, _RND)
    v_log = libmp.mpf_sub(v_log, lnfact, wp, _RND)
    v = _exp_raw(v_log, wp)
    return SequencePoint(
        n=n,
        r_n=BigFloat.from_raw(r, ctx),
        c_n=BigFloat.from_raw(c, ctx),
        v_n=BigFloat.from_raw(v, ctx),
    )


# -- r_n from the difference equation ------------------------------------


def _sweep_width(ctx: PrecisionCtx) -> int:
    """W, the fixed point 2^-W of every sweep row at ctx.

    W = wp + bitlen(12 CAP) + bitlen(CAP wp) + 4, for wp = ctx.wprec() and
    CAP = FACTORIAL_CAP.  It depends on the precision alone, so row n is the
    same in every sweep that reaches it.  Row n's r_n interval is at most
    CAP wp + 3 < 2^(bitlen(CAP wp) + 1) units wide (``_difference_sums``,
    ``_half_ln_2pi_bracket``), and r_n > 1/(12 CAP + 1) > 2^-bitlen(12 CAP),
    so the width stays below 2^-(wp+3) r_n.
    """
    wp = ctx.wprec()
    return wp + (12 * FACTORIAL_CAP).bit_length() + (FACTORIAL_CAP * wp).bit_length() + 4


def _half_ln_2pi_bracket(W: int) -> tuple[int, int]:
    """(lo, hi) with lo < 2^W (1/2) ln(2 pi) < hi.

    libmp's pi at p = W + 4 bits is taken to within one ulp, the allowance
    of ``mpcore._Ball``, and L = ln(2 pi~) to nearest at p bits
    (``mpcore._log_raw``).  pi~ in [2, 4) is then within 2^(2-p) of pi, so
    ln(2 pi~) is within 2^(2-p)/3 of ln(2 pi), and L in [1, 2) is within
    2^-p more: |L/2 - (1/2) ln(2 pi)| < 2^(1-p) = 2^-(W+3).  With t =
    floor(2^W L/2), 2^W (1/2) ln(2 pi) lies in (t - 1/8, t + 9/8).
    """
    p = W + 4
    two_pi = libmp.mpf_shift(libmp.mpf_pi(p, _RND), 1)
    t = libmp.to_fixed(_log_raw(two_pi, p), W - 1)
    return t - 1, t + 2


def _difference_sums(n_max: int, W: int):
    """Yield (n, S, D) for n = 1..n_max, with sum_(k<n) d_k in [S, S + D) 2^-W.

    d_k = r_k - r_(k+1) = (k + 1/2) ln(1 + 1/k) - 1 = sum_(j>=1) 1/((2j+1)
    m^(2j)), m = 2k + 1, is summed by ``fixed._floor_terms`` as a lone m of
    ``fixed._floor_series``, whose bound puts it in [s_k, s_k + 2 L(m) + 1)
    2^-W, L(m) = #{j >= 1 : m^(2j) <= 2^W} <= W // (2 bitlen(m) - 2).  So D
    adds at most W + 1 for k = 1 and W/2 + 1 past it, at most 2 wp and wp
    for W of ``_sweep_width``, and D <= n wp <= CAP wp.
    """
    divisors = range(3, W + 4, 2)  # q >= 9, and 9^((W + 2)/2) > 2^W
    one = 1 << W
    S = D = 0
    for n in range(1, n_max + 1):
        if n > 1:
            m = 2 * n - 1  # k = n - 1
            S += _floor_terms(one, m * m, divisors)
            D += 2 * (W // (2 * m.bit_length() - 2)) + 1
        yield n, S, D


# family -> its exact bounds at n, (lhs, rhs), each p/q as (p, q) or None
_BOUNDS = {
    "robbins": lambda n: ((1, 12 * n + 1), (1, 12 * n)),
    # [12n + 3/(2(2n+1))]^(-1) = (4n+2) / (48 n^2 + 24 n + 3)
    "maria": lambda n: ((4 * n + 2, 48 * n * n + 24 * n + 3), None),
    "hummel": lambda n: ((11, 12), (1, 1)),
    "nanjundiah": lambda n: ((30 * n * n - 1, 360 * n**3), (1, 12 * n)),  # R_2(n), R_1(n)
    "michel": lambda n: (None, (3 * n + 10, 1080 * n**4)),  # 1/(360 n^3) + 1/(108 n^4)
}

# The fixed point 2^-C at which ``_rows`` judges Michel's rows first.
_COARSE_W = 72


def _rows(families: list[str], n: int, S: int, D: int, W: int, half: tuple[int, int],
          bits: int) -> list:
    """The rows of ``families`` at n as ``bound_sweep`` and ``check_bound``
    publish them, given sum_(k<n) d_k in [S, S + D) 2^-W and half, the
    bracket of (1/2) ln(2 pi).

    Each middle value is kept as [lo, hi] / den and each bound as the exact
    rational p/q of ``_BOUNDS``.  r_n = 1 - (1/2) ln(2 pi) - sum_(k<n) d_k
    is one interval for robbins, maria and nanjundiah, and Hummel's r_n +
    (1/2) ln(2 pi) = 1 - sum_(k<n) d_k needs no constant.  A row that
    ``_sign_test`` decides keeps these integers and builds its published
    fields on their first read (``_SweepRow``); one it leaves undecided is
    ``_verdict_row``'s InconclusiveError.

    Michel's middle value (``_michel_mid``) spends most of its time in
    ``_exp_bracket`` at W bits, so it is first judged at C = _COARSE_W on
    the same facts rounded outward by k = W - C bits (``_coarse_r``):
    sum_(k<n) d_k in [S', S' + D') 2^-C with S' = floor(S 2^-k) and S' + D'
    = ceil((S + D) 2^-k), and (1/2) ln(2 pi) in (h_lo', h_hi') 2^-C with
    h_lo' = floor(h_lo 2^-k) - 2 and h_hi' = ceil(h_hi 2^-k).  If that
    middle value holds or fails, so does the row at W, which builds its
    middle value at W only when its mid or margin is first read
    (``_CoarseRow``).  If it is inconclusive, the row is judged at W.  The
    proof below takes C >= 24 and k > bitlen(W).  Every W of
    ``_sweep_width`` is at least 145, so C = 72 meets both; a row at a W
    that did not would be judged at W alone.

    Containment.  Let x <= y be the ends of r_n's interval at W and
    x' <= y' those at C, and u = 2^C.  Then x - 2/u < x' <= x and
    y' >= y + 2/u: r_lo = 2^W - h_hi - S - D loses less than two units of
    2^-C to the two ceilings, and r_hi = 2^W - h_lo - S gains at least the
    two taken off h_lo'.  For n >= 3, 2^(3-C) <= 2^-21 < r_n < 1/36 and
    the width of r_n's interval is far below 2^-C, so 0 <= x' and
    y' < 1/12, as ``_exp_bracket`` asks.  Let [e, f] 2^-W and [e', f'] 2^-C
    be its brackets of e^(r_n).
      - e' 2^k <= e: its Taylor terms have t'_0 2^k = t_0 = 2^W, and
        t'_j 2^k <= t'_(j-1) 2^k x' / j <= t_(j-1) x / j by induction, an
        integer at most that, so at most its floor t_j.
      - f <= f' 2^k: with A = 1 + 2 (y - x) < 7/6 and J <= W the terms at
        W (t_j < 2^W 12^-j), f < (2^W e^x + 2J) A + 1.  The coarse
        bracket holds, so f' >= u e^x' (1 + 2 (y' - x')) >= u e^x (1 - 2/u)
        (A + 4/u), and f' 2^k - f > 2^k e^x (4 - 2A - 8/u) - 2JA - 1 >
        (3/2) 2^k - 7W/3 - 1 >= 0, as 2^k > 2W.
    Michel's middle value at C is then an interval that contains the one
    at W: both are 288 n^2 (e^(r_n) - 1) - 24n - 1 over its bracket's
    ends, which keeps containment, and then the modulus, the image of
    the interval, which keeps it too.  A gap interval over a containing
    interval that lies above (below) 0 does so over any interval in it.
    """
    one = 1 << W
    r = (one - half[1] - S - D, one - half[0] - S, one)
    rows = []
    for family in families:
        lhs, rhs = _BOUNDS[family](n)
        if family == "michel":
            C = _COARSE_W
            if W - C > W.bit_length():
                holds = _sign_test(_michel_mid(n, *_coarse_r(S, D, W, half, C), C), None, rhs)
                if holds is not None:
                    rows.append(_CoarseRow(n, holds, rhs, bits, r, W))
                    continue
            mid = _michel_mid(n, r[0], r[1], W)
        else:
            mid = (one - S - D, one - S, one) if family == "hummel" else r
        holds = _sign_test(mid, lhs, rhs)
        rows.append(_verdict_row(family, n, mid, lhs, rhs, bits) if holds is None
                    else _SweepRow(family, n, holds, mid, lhs, rhs, bits))
    return rows


def _coarse_r(S: int, D: int, W: int, half: tuple[int, int], C: int) -> tuple[int, int]:
    """The ends of r_n's interval at 2^-C that ``_rows`` judges Michel's
    row on, from the facts at 2^-W rounded outward by W - C bits."""
    k, u = W - C, 1 << C
    return u + (-half[1] >> k) + (-(S + D) >> k), u + 2 - (half[0] >> k) - (S >> k)


def _michel_mid(n: int, lo: int, hi: int, W: int) -> tuple[int, int, int]:
    """Michel's middle value |e^(r_n) - 1 - 1/(12n) - 1/(288 n^2)| for r_n
    in [lo, hi] 2^-W, as (lo, hi, den).  e^(r_n) is bracketed by
    ``fixed._exp_bracket``, as r_n < r_1 < 1/12; then 288 n^2 2^W (e^(r_n)
    - 1 - 1/(12n) - 1/(288 n^2)), then its modulus."""
    e_lo, e_hi = _exp_bracket(lo, hi, W)
    c = 288 * n * n
    base = (c + 24 * n + 1) << W
    a, b = e_lo * c - base, e_hi * c - base
    lo, hi = (a, b) if a >= 0 else (-b, -a) if b <= 0 else (0, max(-a, b))
    return lo, hi, c << W


def _sign_test(mid: tuple, lhs: tuple | None, rhs: tuple | None) -> bool | None:
    """The module's one sign test: True when the middle value in [lo, hi] /
    den (mid = (lo, hi, den)) lies above the exact bound lhs and below rhs
    (p/q; None for no bound), False when it lies wholly beyond one of them,
    and None otherwise.

    The gaps mid - lhs and rhs - mid are the intervals of integers g over
    q den of ``_gaps``.  The test needs only their signs, so it takes the
    numerators g alone: each end of mid against p/q, times q, is compared
    with p den.  A gap's upper end is read only where its lower end does
    not lie above 0.
    """
    lo, hi, den = mid
    verdict = True
    if lhs is not None:
        p, q = lhs[0] * den, lhs[1]
        if lo * q - p <= 0:
            if hi * q - p < 0:
                return False
            verdict = None
    if rhs is not None:
        p, q = rhs[0] * den, rhs[1]
        if p - hi * q <= 0:
            return False if p - lo * q < 0 else None
    return verdict


def _verdict_row(family: str, n: int, mid: tuple, lhs: tuple | None,
                 rhs: tuple | None, bits: int, where: str | None = None):
    """The verdict on a middle value in [lo, hi] / den (mid = (lo, hi, den))
    between exact bounds p/q (lhs, rhs; None for no bound), by the module's
    one rule, ``_sign_test``: a _SweepRow, or an InconclusiveError named by
    ``where`` (default "family at n=n") whose margin is the margin
    interval's end nearest 0, rounded toward 0, and whose envelope is the
    interval's width, rounded up.  A row that holds or fails builds its
    gaps on first read (``_SweepRow.margin``).
    """
    holds = _sign_test(mid, lhs, rhs)
    if holds is not None:
        return _SweepRow(family, n, holds, mid, lhs, rhs, bits)
    gaps = _gaps(mid, lhs, rhs)
    lower, upper = (Fraction(*_margin_end(gaps, i)) for i in (0, 1))
    near, width = min(lower, upper, key=abs), upper - lower
    where = where or f"{family} at n={n}"
    return InconclusiveError(
        f"{where}: margin within the arithmetic envelope at {bits} bits",
        family=family, n=n, margin=_toward_zero(near.numerator, near.denominator, bits),
        envelope=BigFloat(libmp.from_rational(width.numerator, width.denominator,
                                              bits, libmp.round_ceiling), bits),
    )


def _gaps(mid: tuple, lhs: tuple | None, rhs: tuple | None) -> list[tuple]:
    """The gaps mid - lhs and rhs - mid, each an interval of integers over
    q den: (lower, upper, q den)."""
    lo, hi, den = mid
    gaps = []
    if lhs is not None:
        p, q = lhs
        gaps.append((lo * q - p * den, hi * q - p * den, q * den))
    if rhs is not None:
        p, q = rhs
        gaps.append((p * den - hi * q, p * den - lo * q, q * den))
    return gaps


def _margin_end(gaps: list[tuple], i: int) -> tuple[int, int]:
    """(p, q) with p/q the lower (i = 0) or upper (i = 1) end of the margin
    interval, min(mid - lhs, rhs - mid): the least g[i] / g[2] over the
    gap intervals, compared across their positive denominators."""
    p, q = gaps[0][i], gaps[0][2]
    for g in gaps[1:]:
        if g[i] * q < p * g[2]:
            p, q = g[i], g[2]
    return p, q


def _toward_zero(p: int, q: int, bits: int) -> BigFloat:
    return BigFloat(libmp.from_rational(p, q, bits, libmp.round_down), bits)


def _nearest(p: int, q: int, bits: int) -> BigFloat:
    return BigFloat(libmp.from_rational(p, q, bits, _RND), bits)


class _SweepRow(BoundReport):
    """A BoundReport of ``_verdict_row`` (every row and sandwich cell) that
    keeps its verdict and its exact integers, the middle value and the
    bounds, and builds lhs, mid, rhs and margin as BigFloats on their first
    read, margin from the gap intervals (``_gaps``).

    lhs and rhs are the exact bounds and mid the midpoint of the middle
    value's interval, each rounded to nearest.  margin is the end of the
    margin interval nearest 0, rounded toward 0: its lower end when the
    row holds and its upper end when it fails.
    """

    def __init__(self, family: str, n: int, holds: bool, mid: tuple,
                 lhs: tuple | None, rhs: tuple | None, bits: int):
        d = self.__dict__
        d["family"], d["n"], d["holds"], d["_bits"] = family, n, holds, bits
        d["_mid"], d["_lhs"], d["_rhs"] = mid, lhs, rhs

    @functools.cached_property
    def lhs(self) -> BigFloat | None:
        return None if self._lhs is None else _nearest(*self._lhs, self._bits)

    @functools.cached_property
    def rhs(self) -> BigFloat | None:
        return None if self._rhs is None else _nearest(*self._rhs, self._bits)

    @functools.cached_property
    def mid(self) -> BigFloat:
        lo, hi, den = self._mid
        return _nearest(lo + hi, 2 * den, self._bits)

    @functools.cached_property
    def margin(self) -> BigFloat:
        end = _margin_end(_gaps(self._mid, self._lhs, self._rhs), 0 if self.holds else 1)
        return _toward_zero(*end, self._bits)


class _CoarseRow(_SweepRow):
    """A Michel row that ``_rows`` decided at the coarse fixed point: the
    verdict is the row's at W, and its middle value at W is built from
    r_n's interval at W on the first read of mid or margin."""

    def __init__(self, n: int, holds: bool, rhs: tuple, bits: int, r: tuple, W: int):
        d = self.__dict__
        d["family"], d["n"], d["holds"], d["_bits"] = "michel", n, holds, bits
        d["_lhs"], d["_rhs"], d["_r"], d["_W"] = None, rhs, r, W

    @functools.cached_property
    def _mid(self) -> tuple:
        return _michel_mid(self.n, self._r[0], self._r[1], self._W)


def _check_families(families: list[str]) -> None:
    for family in families:
        if family not in FAMILY_MIN_N:
            raise DomainError(f"unknown family {family!r}")


def check_bound(family: str, n: int, ctx: PrecisionCtx) -> BoundReport:
    """Evaluate one family at one index; ValidityError below its range.
    The report is row n of ``bound_sweep``, bit for bit: it runs the same
    sums over k < n at the same fixed point."""
    _check_families([family])
    _require_index(n, "n", 1, FACTORIAL_CAP, "factorial cap")
    if n < FAMILY_MIN_N[family]:
        raise ValidityError(
            f"{family} is stated for n >= {FAMILY_MIN_N[family]}, got n={n}"
        )
    W = _sweep_width(ctx)
    for _, S, D in _difference_sums(n, W):
        pass
    row, = _rows([family], n, S, D, W, _half_ln_2pi_bracket(W), ctx.bits)
    if isinstance(row, InconclusiveError):
        raise row
    return row


def bound_sweep(families: list[str], n_max: int, ctx: PrecisionCtx,
                ) -> Iterator[BoundReport | InconclusiveError]:
    """All requested families over n = 1..n_max, from one running pass over
    the difference equation (``_difference_sums``) and one bracket of
    (1/2) ln(2 pi) per sweep, at a fixed point set by the precision alone,
    so each row is bit-identical to check_bound's.  Inconclusive rows are
    yielded as the error object instead of a report, so sweeps keep going.
    The sweep keeps no state that grows with n."""
    if not families:
        raise DomainError("bound_sweep needs at least one family")
    _check_families(families)
    _require_index(n_max, "n_max", 1, FACTORIAL_CAP, "factorial cap")
    if n_max < min(FAMILY_MIN_N[f] for f in families):
        raise ValidityError(
            f"n_max={n_max} is below the validity start of {families}"
        )
    W = _sweep_width(ctx)
    half = _half_ln_2pi_bracket(W)
    active = []
    for n, S, D in _difference_sums(n_max, W):
        if len(active) < len(families):
            active = [f for f in families if n >= FAMILY_MIN_N[f]]
        yield from _rows(active, n, S, D, W, half, ctx.bits)


# -- the truncation sandwich ------------------------------------------------


def _sandwich_oracle_ctx(ctx: PrecisionCtx) -> PrecisionCtx:
    """The precision of the sandwich's oracle values at ctx: ctx.bits + 64,
    which keeps their error bounds far below the margins the grid asks
    about.  ``cli``'s optimal-truncation check takes its oracle values at
    this precision too, so the report's memo shares them."""
    return PrecisionCtx(ctx.bits + 64)


def _sandwich_point(x, ctx: PrecisionCtx) -> tuple[Fraction, tuple]:
    """(x~, mid): the point x~ = to_raw(x, wp) where the oracle is evaluated,
    exactly, for wp = (ctx.bits + 64) + GUARD, and ln Gamma(x~) - P(x~) in
    [lo, hi] / den (mid = (lo, hi, den)).

    The interval is [v - e - P_hi, v + e - P_lo], with v and its proven
    error bound e from ``lngamma_binet2`` at ``_sandwich_oracle_ctx``, and
    P(x~) in [P_lo, P_hi], the ends of the oracle's own ball of P
    (``oracle._oracle_main_term``) at the oracle's working precision,
    work.bits + 64, where its error is far below e.
    """
    work = _sandwich_oracle_ctx(ctx)
    wp = work.wprec()
    x_raw = to_raw(x, wp)
    _require_positive(x_raw, "x")
    ov = lngamma_binet2(BigFloat(x_raw, work.bits), work)
    v, e, X, p_lo, p_hi = (Fraction(*libmp.to_rational(raw)) for raw in (
        ov.value.raw, ov.error_bound.raw, x_raw,
        *_oracle_main_term(_Ball(x_raw, work.bits + 64)).ends()))
    return X, _interval(v - e - p_hi, v + e - p_lo)


def _interval(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """The exact interval [lo, hi] as ``_verdict_row`` takes a middle value:
    (lo, hi, den), both ends over one denominator."""
    den = math.lcm(lo.denominator, hi.denominator)
    return lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den


def _sandwich_cells(x, pairs: list, ctx: PrecisionCtx):
    """The cells (n, m) in ``pairs`` at x, from one oracle evaluation, each
    as ``_verdict_row`` judges it.  R_k(x~) = sum_(j<=k) B_(2j) / (2j (2j-1)
    x~^(2j-1)) is summed exactly from ``term_coefficient``."""
    X, mid = _sandwich_point(x, ctx)
    top = max((max(2 * n, 2 * m + 1) for n, m in pairs), default=0)
    R, acc, power = [(0, 1)], Fraction(0), 1 / X  # power = x~^-(2j-1)
    for j in range(1, top + 1):
        acc += term_coefficient(j) * power
        R.append((acc.numerator, acc.denominator))
        power /= X * X
    for n, m in pairs:
        yield _verdict_row("impens", n, mid, R[2 * n], R[2 * m + 1], ctx.bits,
                           f"sandwich at x={x}, n={n}, m={m}")


def impens_sandwich(x, n: int, m: int, ctx: PrecisionCtx) -> BoundReport:
    """Strict sandwich R_{2n}(x) < ln Gamma(x) - P(x) < R_{2m+1}(x), with
    the middle term an exact interval from the integral oracle
    (``_sandwich_point``), judged by ``check_bound``'s rule: InconclusiveError
    when the margin interval does not lie on one side of 0."""
    _require_index(n, "n", 0)
    _require_index(m, "m", 0)
    cell, = _sandwich_cells(x, [(n, m)], ctx)
    if isinstance(cell, InconclusiveError):
        raise cell
    return cell


def impens_grid(xs, orders, ctx: PrecisionCtx,
                ) -> Iterator[BoundReport | InconclusiveError]:
    """impens_sandwich over every x in xs and every n, m in orders, x major,
    then n, then m.

    The oracle value, the middle interval and the remainders are computed
    once per x.  Inconclusive cells are yielded as the error object instead
    of a report, so the grid keeps going; every cell is identical to the
    corresponding impens_sandwich.
    """
    orders = [_require_index(k, "order", 0) for k in orders]
    pairs = [(n, m) for n in orders for m in orders]
    for x in xs:
        yield from _sandwich_cells(x, pairs, ctx)


def aissen_ratio(n: int, ctx: PrecisionCtx) -> BigFloat:
    """n (y_{n+1}/y_n - 1) with y_n = sqrt(n) v_n; tends to 0 like O(1/n),
    certifying v_n ~ C n^(-1/2).  As ln y_(n+1) - ln y_n = d_n, it is
    n expm1(d_n), with d_n summed by ``mermin_partial_product``."""
    _require_index(n, "n", 1, FACTORIAL_CAP - 1)  # y_(n+1) is defined through (n + 1)!
    wp = ctx.wprec()
    d = mermin_partial_product(n, n, PrecisionCtx(wp)).raw
    return BigFloat.from_raw(libmp.mpf_mul_int(raw_expm1(d, wp), n, wp, _RND), ctx)
