"""Independent high-precision references for ln Gamma and factorials.

None of the evaluators here shares a code path with the truncated-series
module: the integral representation

    ln Gamma(z) = P(z) + 2 * integral_0^inf arctan(t/z) / (e^(2 pi t) - 1) dt

(Binet's second formula) is evaluated by nested tanh-sinh quadrature on
[0, T]; z < 1 is taken through ln Gamma(z) = ln Gamma(z + 1) - ln z, so
the quadrature only sees z >= 1.  One proven bound on the trapezoidal
discretisation error, uniform in z >= 1, picks the quadrature level once
per precision, and closed-form bounds cover the tail past T and the nodes
at either end that are never built.  The limit definition

    Gamma(z) = lim n! n^z / (z (z+1) ... (z+n))

and the infinite product

    1/Gamma(z) = z e^(gamma z) prod_{n>=1} (1 + z/n) e^(-z/n)

serve as slower cross-checks with empirical error estimates.  Euler's
gamma in the product comes from mpmath's Brent-McMillan kernel
(``libmp.mpf_euler``) at whatever working precision is asked, so no
precision is capped.  Exact integer factorials anchor everything at
integer arguments.

Every result carries an explicit ``error_bound`` so downstream inequality
checks can refuse to conclude when a margin falls inside the bound.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import libmp

from .errors import ConvergenceError, DomainError, ResourceError
from .mpcore import (_RND, BigFloat, PrecisionCtx, _require_positive, raw_expm1,
                     raw_log1p, to_raw)
from .quadrature import ts_nodes

__all__ = [
    "OracleValue",
    "euler_gamma",
    "ln_factorial_exact",
    "lngamma_binet2",
    "lngamma_euler_limit",
    "weierstrass_inv_gamma",
    "check_duplication",
    "check_multiplication",
    "gamma_half_integer",
]

FACTORIAL_CAP = 10**5
HALF_INTEGER_CAP = 2 * 10**4
BINET_MIN_LEVEL = 4
BINET_MAX_LEVEL = 14


@dataclass(frozen=True)
class OracleValue:
    value: BigFloat
    method: str  # exact_factorial | binet2 | euler_limit | weierstrass
    error_bound: BigFloat
    # binet2 only: how the value and its bound came out (see lngamma_binet2)
    diagnostics: dict | None = field(default=None, compare=False)


# -- Euler's constant ---------------------------------------------------


def euler_gamma(ctx: PrecisionCtx) -> BigFloat:
    """Euler's constant at any precision: mpmath's Brent-McMillan
    Bessel-function sum in integer arithmetic, one rounding."""
    return BigFloat.from_raw(libmp.mpf_euler(ctx.wprec(), _RND), ctx)


# -- shared raw pieces ---------------------------------------------------


def _oracle_main_term(z_raw, wp: int):
    # deliberately written out here: the oracle keeps its own code path
    lnz = libmp.mpf_log(z_raw, wp, _RND)
    two_pi = libmp.mpf_shift(libmp.mpf_pi(wp, _RND), 1)
    half_l2p = libmp.mpf_shift(libmp.mpf_log(two_pi, wp, _RND), -1)
    acc = libmp.mpf_mul(z_raw, lnz, wp, _RND)
    acc = libmp.mpf_sub(acc, z_raw, wp, _RND)
    acc = libmp.mpf_sub(acc, libmp.mpf_shift(lnz, -1), wp, _RND)
    return libmp.mpf_add(acc, half_l2p, wp, _RND)


def _ulp_raw(value_raw, bits: int, count: int = 8):
    sign, man, exp, bc = value_raw
    mag = (exp + bc) if man else 1
    return libmp.from_man_exp(count, mag - bits)


# -- exact factorials ----------------------------------------------------


def _ln_factorial_raw(n: int, wp: int):
    """ln(n!) at wp bits from the exact integer: one rounding."""
    if n <= 1:
        return libmp.fzero
    return libmp.mpf_log(libmp.from_int(math.factorial(n), wp, _RND), wp, _RND)


def ln_factorial_exact(n: int, ctx: PrecisionCtx) -> OracleValue:
    """ln(n!) via the exact big integer and one logarithm (<= 2 ulp)."""
    if not isinstance(n, int) or n < 0:
        raise DomainError("n must be a non-negative integer")
    if n > FACTORIAL_CAP:
        raise ResourceError(f"n={n} exceeds the exact-factorial cap {FACTORIAL_CAP}")
    if n <= 1:
        zero = BigFloat.from_raw(libmp.fzero, ctx)
        return OracleValue(value=zero, method="exact_factorial", error_bound=zero)
    val = _ln_factorial_raw(n, ctx.wprec())
    value = BigFloat.from_raw(val, ctx)
    bound = BigFloat.from_raw(_ulp_raw(val, ctx.bits, 2), ctx)
    return OracleValue(value=value, method="exact_factorial", error_bound=bound)


def ln_factorial_range(n_max: int, wp: int):
    """Yield (n, ln n! at wp bits) for n = 1..n_max, from a running exact
    product: each value's error is one rounding, never accumulated."""
    if n_max > FACTORIAL_CAP:
        raise ResourceError(f"n_max={n_max} exceeds the cap {FACTORIAL_CAP}")
    product = 1
    for n in range(1, n_max + 1):
        product *= n
        if n == 1:
            yield n, libmp.fzero
        else:
            yield n, libmp.mpf_log(libmp.from_int(product, wp, _RND), wp, _RND)


# -- Binet's second formula ----------------------------------------------

_BINET_CACHE: dict = {}
_BINET_LOCK = threading.Lock()
_ATAN_GUARD = 8  # bits of each node's arctan beyond what its weight needs
_UP = libmp.round_ceiling  # the parts of an error bound are summed upwards


def _binet_T(bits: int) -> int:
    """Upper integration limit making the analytic tail negligible.

    Tail of the integrand past T is below
        (1/z) e^(-2 pi T) (T/(2 pi) + 1/(4 pi^2)) / (1 - e^(-2 pi T)),
    using arctan(x) <= x.  Choose the smallest integer T pushing that under
    2^-(bits+24) at z = 1/8.  The quadrature only sees z >= 1 (smaller z
    are shifted to z + 1 by ``lngamma_binet2``); 1/8, the former shift
    threshold, is kept because it is conservative and leaves T, and with it
    every node table, as it was.
    """
    t = 4.0
    for _ in range(6):
        t = ((bits + 24) * math.log(2.0)
             + math.log(1.01 * (t / (2 * math.pi) + 0.0254) / 0.125)) / (2 * math.pi)
    return max(2, int(math.ceil(t)))


@functools.lru_cache(maxsize=None)
def _binet_drop_bound(T: int, k: int, level: int):
    """Upper bound on what omitting the right nodes x > 1 - d, d = 2^-k,
    removes from 2 * integral when the loop stops at ``level`` (step
    h = 2^-level):

        pi T d (1 + h (pi + k ln 2)) / (e^(2 pi T (1 - d)) - 1).

    The estimate of 2 * integral is 2 T h sum_j w(jh) arctan(T x_j / z)
    / (e^(2 pi T x_j) - 1).  On an omitted node arctan < pi/2 and
    x_j > 1 - d, so its term is under (pi/2) w(jh) / (e^(2 pi T (1 - d)) - 1).
    For u > 0, w(u) = (pi/4) cosh u / cosh^2 q with q = (pi/2) sinh u
    decreases (d ln w / du = tanh u - pi cosh u tanh q < 0, as q >= u), so
    with u_c the point where x(u_c) = 1 - d,

        h sum_{jh > u_c} w(jh) <= h w(u_c) + int_{u_c}^inf w du
                                = h w(u_c) + d.

    As 1 - x(u) = 1 / (e^(2q) + 1), w(u) <= pi cosh u (1 - x(u)); and
    cosh u_c <= 1 + sinh u_c = 1 + ln(1/d - 1) / pi < 1 + k ln 2 / pi, so
    h w(u_c) < h (pi + k ln 2) d.  The bound is evaluated at 64 bits and
    doubled, which covers its own roundings and the distance, under
    2^-(wp+60), of each computed abscissa from x(u).  It depends only on
    its arguments, so it is computed once for each.
    """
    p = 64
    pi = libmp.mpf_pi(p, _RND)
    x_c = libmp.from_man_exp((1 << k) - 1, -k)
    spread = libmp.mpf_mul_int(libmp.mpf_ln2(p, _RND), k, p, _RND)
    spread = libmp.mpf_shift(libmp.mpf_add(pi, spread, p, _RND), -level)
    spread = libmp.mpf_add(libmp.fone, spread, p, _RND)
    num = libmp.mpf_mul(libmp.mpf_mul_int(pi, T, p, _RND), spread, p, _RND)
    exponent = libmp.mpf_mul(libmp.mpf_shift(pi, 1), libmp.mpf_mul_int(x_c, T, p, _RND),
                             p, _RND)
    bound = libmp.mpf_div(libmp.mpf_shift(num, -k), raw_expm1(exponent, p), p, _RND)
    return libmp.mpf_shift(bound, 1)


@functools.lru_cache(maxsize=None)
def _binet_cutoff(bits: int) -> int:
    """Smallest k for which the right nodes x > 1 - 2^-k can be omitted at
    a cost under 2^-(bits+40), at the coarsest step the quadrature may stop
    on."""
    T = _binet_T(bits)
    target = libmp.from_man_exp(1, -(bits + 40))
    k = 1
    while libmp.mpf_gt(_binet_drop_bound(T, k, BINET_MIN_LEVEL), target):
        k += 1
    return k


@functools.lru_cache(maxsize=None)
def _binet_tail_factors(bits: int):
    """e^(-2 pi T) (T/(2 pi) + 1/(4 pi^2)) and 1.01, both at the working
    precision: the tail bound of ``_binet_T`` is the first over z, times
    the second."""
    wp = bits + 64
    t_raw = libmp.from_int(_binet_T(bits))
    two_pi = libmp.mpf_shift(libmp.mpf_pi(wp, _RND), 1)
    decay = libmp.mpf_exp(libmp.mpf_neg(libmp.mpf_mul(two_pi, t_raw, wp, _RND)), wp, _RND)
    poly = libmp.mpf_add(
        libmp.mpf_div(t_raw, two_pi, wp, _RND),
        libmp.mpf_div(libmp.fone, libmp.mpf_mul(two_pi, two_pi, wp, _RND), wp, _RND),
        wp, _RND)
    return libmp.mpf_mul(decay, poly, wp, _RND), libmp.from_str("1.01", wp, _RND)


@functools.lru_cache(maxsize=None)
def _binet_strip(bits: int):
    """Half-width a = j/64 of the strip |Im u| < a on which
    ``_binet_discretisation_bound`` bounds the integrand: the largest
    j <= 32 with e^(pi X1) >= 2T + 2, where

        X1 = cos a (1 / (4 sin^2 a) - 1)^(1/2).

    The test runs at 64 bits; its few roundings are far below its margin
    of 1/(2T + 1), so e^(pi X1) >= 2T + 1 holds exactly.  j = 32 gives
    a = 1/2 < pi/6, and j = 1 serves any T below e^100.
    """
    p = 64
    need = libmp.from_int(2 * _binet_T(bits) + 2)
    pi = libmp.mpf_pi(p, _RND)
    for j in range(32, 0, -1):
        a = libmp.from_man_exp(j, -6)
        cos_a, sin_a = libmp.mpf_cos_sin(a, p, _RND)
        inv = libmp.mpf_div(libmp.fone, libmp.mpf_shift(libmp.mpf_mul(sin_a, sin_a, p, _RND), 2),
                            p, _RND)
        x1 = libmp.mpf_mul(cos_a, libmp.mpf_sqrt(libmp.mpf_sub(inv, libmp.fone, p, _RND), p, _RND),
                           p, _RND)
        if libmp.mpf_ge(libmp.mpf_exp(libmp.mpf_mul(pi, x1, p, _RND), p, _RND), need):
            return a
    raise ConvergenceError(f"no Binet strip for T = {_binet_T(bits)}")


@functools.lru_cache(maxsize=None)
def _binet_discretisation_bound(bits: int, level: int):
    """Upper bound, for every z >= 1, on |2 Q_h - 2 I_T|, where
    I_T = integral_0^T g(t) dt with g(t) = arctan(t/z) / (e^(2 pi t) - 1),
    and Q_h = h sum_{k in Z} F(kh) is the trapezoidal sum at step
    h = 2^-level of F(u) = T g(T x(u)) x'(u), x(u) = (1 + tanh((pi/2)
    sinh u)) / 2, whose integral over the real line is I_T:

        D = 2 (2T + 1)^2 (1 + ln(6T)/pi) / (cos a (e^(2 pi a / h) - 1)),

    with a = ``_binet_strip(bits)``.  Trefethen & Weideman (SIAM Rev. 56,
    2014, Thm 5.1): if F is analytic in the strip |Im u| < a, tends to 0
    uniformly there as |Re u| grows, and integral |F(s + ib)| ds <= M for
    every |b| < a, then |Q_h - I_T| <= 2M / (e^(2 pi a / h) - 1).  So it
    suffices to show that M = (2T + 1)^2 (1 + ln(6T)/pi) / (2 cos a)
    serves.

    The image of the strip.  Let u = s + ib with |b| < a, sinh u = X + iY
    (X = sinh s cos b, Y = cosh s sin b) and zeta = e^(-pi sinh u), so
    x = 1 / (1 + zeta), |zeta| = e^(-pi X) and x' = pi cosh u zeta /
    (1 + zeta)^2.  1 + zeta = 0 would need X = 0, so s = 0 and Y = sin b
    an odd integer: x is analytic in the strip.  Let X1 and 2T + 1 <=
    e^(pi X1) = 1/r be as in ``_binet_strip``; T >= 2, so r <= 1/5.
      (I)  |Y| <= 1/2.  Re zeta >= 0, so Re(1 + zeta) >= 1: |x| <= 1 and
           Re x = Re(1 + zeta) / |1 + zeta|^2 >= |x|^2.
      (II) |Y| > 1/2.  Then cosh s > 1 / (2 sin |b|), so |X| = sinh|s|
           cos b > X1, as cos b (1 / (4 sin^2 b) - 1)^(1/2) decreases in
           |b| < pi/6.  If s < 0, |zeta| > 2T + 1 and |x| <= 1 / (|zeta|
           - 1) < 1/(2T).  If s > 0, |zeta| < r, so Re x > (1 - r) /
           (1 + r)^2 > 1/2 and |x| < 1 / (1 - r) <= 5/4.
    So t = T x has |t| < 1/2, or Re t >= |t|^2 / T with 1/2 <= |t| <= T,
    or Re t > T/2 with |t| < 5T/4.  The disc |t| < 1 and the half-plane
    Re t > 0 avoid the poles t = +-ik (k >= 1) and the branch cuts
    t in +-i[z, inf) of arctan(t/z), as z >= 1; so F is analytic in the
    strip.

    Bounds on g.  For |t| <= 1/2, with v = t/z, |v| <= 1/2:
    |arctan(v) / v| <= sum |v|^2k <= 4/3, and, from the Bernoulli series
    of y / (e^y - 1) at y = 2 pi t, |y| <= pi < 2 pi,
    |y / (e^y - 1)| <= 1 + |y|/2 + sum_k |B_2k| |y|^2k / (2k)!
    = 2 + |y|/2 - (|y|/2) cot(|y|/2) <= 2 + pi/2.  So
    |g| <= (4/3) (2 + pi/2) / (2 pi) < 1.  For Re t > 0:
    |e^(2 pi t) - 1| >= e^(2 pi Re t) - 1, |Re arctan v| < pi/2 and
    Im arctan v = (1/2) ln(|v + i| / |v - i|), where |v -+ i| <= 1 + |t|
    and |v -+ i| >= max(Re v, 1 - |v|) >= Re t / (2 |t|) (the second
    term is >= 1/2 when z >= 2|t|, and the first exceeds Re t / (2|t|)
    otherwise).  So

        |g(t)| <= (pi/2 + (1/2) ln(2 |t| (1 + |t|) / Re t))
                  / (e^(2 pi Re t) - 1).

    In case (I) with |t| >= 1/2, the log's argument is at most
    2T (1 + 1/|t|) <= 6T and the denominator at least 2 pi |t|^2 / T
    >= pi / (2T), so |g| <= T (1 + ln(6T)/pi) = G.  In the last case the
    argument is below 5 + 7T and Re t > T/2 >= 1, so |g| < (pi/2 +
    ln(5 + 7T)/2) / (e^(pi T) - 1) < 1.  Hence |g(T x(u))| <= G (>= 2)
    on the whole strip.

    The weight.  |cosh u| <= cosh s.  For s >= 0, |zeta| <= 1 and
    |1 + zeta| >= 1 - r (case (I): >= 1; case (II): >= 1 - |zeta|), so
    |x'(u)| <= pi cosh s e^(-pi sinh s cos b) / (1 - r)^2, whose integral
    over s > 0 is 1 / (cos b (1 - r)^2).  As x(-u) = 1 - x(u) and x(conj
    u) = conj x(u), |x'(-s + ib)| = |x'(s + ib)|, so integral |x'(s + ib)|
    ds <= 2 / (cos a (1 - r)^2) <= 2 (2T + 1)^2 / (4 T^2 cos a).  This
    bound also sends F to 0 uniformly, and M = T G 2 (2T + 1)^2 /
    (4 T^2 cos a) is the M above.

    D is evaluated at 64 bits and doubled, which covers its roundings.  It
    depends only on its arguments, so it is computed once for each.
    """
    p = 64
    T = _binet_T(bits)
    a = _binet_strip(bits)
    pi = libmp.mpf_pi(p, _RND)
    num = libmp.mpf_div(libmp.mpf_log(libmp.from_int(6 * T), p, _RND), pi, p, _RND)
    num = libmp.mpf_mul_int(libmp.mpf_add(libmp.fone, num, p, _RND), 2 * (2 * T + 1) ** 2,
                            p, _RND)
    decay = raw_expm1(libmp.mpf_shift(libmp.mpf_mul(pi, a, p, _RND), level + 1), p)
    den = libmp.mpf_mul(libmp.mpf_cos(a, p, _RND), decay, p, _RND)
    return libmp.mpf_shift(libmp.mpf_div(num, den, p, _RND), 1)


@functools.lru_cache(maxsize=None)
def _binet_level(bits: int) -> int:
    """The quadrature level at ``bits``: the smallest level >=
    BINET_MIN_LEVEL whose discretisation bound is at most 2^-(bits+16)."""
    target = libmp.from_man_exp(1, -(bits + 16))
    level = BINET_MIN_LEVEL
    while libmp.mpf_gt(_binet_discretisation_bound(bits, level), target):
        level += 1
    return level


def _binet_level_nodes(bits: int, level: int):
    """(t, G, p) triples with t = T x, G = floor(g 2^F) for the weight
    g = w / (e^(2 pi t) - 1) at the working precision wp and F = wp + 32,
    and p = max(64, wp + mag g + _ATAN_GUARD) the precision of the node's
    arctan (2^(mag g - 1) <= g < 2^(mag g)).  Cached by (working precision,
    level); T and the cutoff depend only on the precision.  Right nodes
    past the cutoff are never built."""
    wp = bits + 64
    key = (wp, level)
    got = _BINET_CACHE.get(key)
    if got is not None:
        return got
    with _BINET_LOCK:
        got = _BINET_CACHE.get(key)
        if got is not None:
            return got
        T = _binet_T(bits)
        k = _binet_cutoff(bits)
        x_c = libmp.from_man_exp((1 << k) - 1, -k)
        two_pi = libmp.mpf_shift(libmp.mpf_pi(wp + 16, _RND), 1)
        out = []
        for x, w in ts_nodes(wp, level):
            if libmp.mpf_gt(x, x_c):
                continue
            t = libmp.mpf_mul_int(x, T, wp, _RND)
            denom = raw_expm1(libmp.mpf_mul(two_pi, t, wp + 16, _RND), wp)
            g = libmp.mpf_div(w, denom, wp, _RND)
            mag = g[2] + g[3]
            out.append((t, libmp.to_fixed(g, wp + 32), max(64, wp + mag + _ATAN_GUARD)))
        _BINET_CACHE[key] = out
        return out


def _binet_integral(z_raw, bits: int):
    """(2 * integral_0^T arctan(t/z) / (e^(2 pi t) - 1) dt, nodes summed,
    parts of its error bound) for z >= 1, the value and parts raw.

    The level L = ``_binet_level(bits)`` is fixed before any node is built,
    so a budget BINET_MAX_LEVEL below it fails at once.  The nodes of
    levels 0..L make the trapezoidal sum at step h = 2^-L, and these parts
    bound its distance from 2 * integral_0^inf:
      - discretisation: the sum over all of Z against integral_0^T
        (``_binet_discretisation_bound``),
      - tail: integral_T^inf (``_binet_T``),
      - omitted: the right nodes x > 1 - 2^-k, never summed
        (``_binet_drop_bound``),
      - left_truncation: the left nodes ``ts_nodes`` never emits,
        T 2^-(wp+34),
      - node_error: the computed nodes against exact ones, 4 T^2 2^-wp,
      - rounding: the fixed-point sum of the computed nodes.
    The last three are proven below, for h <= 1/8.

    Left truncation.  ``ts_nodes`` stops each level at the first pair whose
    computed weight is under 2^-(wp+32), so every left node never built
    lies at u = -v with v >= U, where w(U) < 2^-(wp+32) (1 + 2^-(wp+50))
    and w decreases in v > 0.  On the real line 0 < g <= 1/(2 pi z) <=
    1/(2 pi) for g(t) = arctan(t/z) / (e^(2 pi t) - 1), and
    h sum_{v >= U} w(v) <= h w(U) + integral_U^inf w = h w(U) + 1 - x(U),
    while w(U) = pi cosh U x(U) (1 - x(U)) >= (pi/2) (1 - x(U)).  So those
    nodes would add at most 2 T (1/(2 pi)) (h + 2/pi) w(U) < T 2^-(wp+34).

    Node error.  A kept node holds t~ and g~ where the exact term is
    w g(T x) at x = x(u), w = w(u).  ``ts_nodes`` gives x~ within
    2^-(wp+60) of x, and within a relative 2^-(wp+50) when x < 1/2, and w~
    within a relative 2^-(wp+50) (the tests check all three against
    mpmath).  So t~, x~ T rounded to wp, is T x (1 + eta) with
    |eta| < 1.01 2^-wp.  2 pi t~ is formed at wp + 16 (relative error
    under 2^-(wp+14)); taking raw_expm1 to within one ulp at wp, and as
    y / (1 - e^-y) <= 1 + y, g~ = w~ / (e^(2 pi t~) - 1) rounded to wp is
    within a relative 3.01 2^-wp + T 2^-(wp+11) of w / (e^(2 pi t~) - 1).
    Along t, d ln g / d ln t lies in [-(1 + 2 pi t), 0] (the arctan gives
    (0, 1], the other factor [-(1 + 2 pi t), -1]).  So g~ arctan(t~/z) is
    within a relative 3.01 2^-wp + T 2^-(wp+11) + 1.02 (1 + 2 pi T) 2^-wp
    < 10 T 2^-wp of w g(T x), as T >= 2.  The exact terms of
    2 T h sum w g add to at most (T/pi) (1 + pi h/4) < 0.35 T, since w is
    at most pi/4, decreases in |u| and integrates to 1.  So the node error
    of 2 * estimate is under 3.5 T^2 2^-wp.

    Rounding.  Each node adds G A to one integer, with A = floor(a~ 2^F)
    for its arctan a~ = atan(r~) at p bits, where r~ is t~ (1/z) rounded
    to p bits and 1/z is taken once at F bits.  The level-L estimate of the
    integral is T 2^-L sum G A 2^-2F, an exact dyadic rational, rounded to
    wp once.  Let a = arctan(t~/z).  Then r~ = (t~/z)(1 + eta) with
    |eta| <= 2^-p + 2^-F + 2^-(p+F) < 1.01 2^-p, since p <= F - 22 (below:
    g~ < 4, so mag g~ <= 2).  As r / (1 + c^2 r^2) <= 1 / (2c),
    |arctan r~ - a| <= |eta| / (2 (1 - |eta|)) < 0.51 2^-p.  libmp's
    arctan works at p + 30 bits or more and rounds once; taking it to
    within one ulp of arctan r~, it is off by at most (pi/2) 2^(1-p) =
    pi 2^-p.  And 0 <= a~ - A 2^-F < 2^-F <= 2^-(p+22).  So
    |A 2^-F - a| < 3.7 2^-p.  With 0 <= g~ - G 2^-F < 2^-F and
    0 <= a < pi/2,

        |G A 2^-2F - g~ a| <= g~ |A 2^-F - a| + a |G 2^-F - g~|
                            < 3.7 2^(mag g~ - p) + 1.6 2^-F
                            < 4 2^-(wp+8) = 2^-(wp+6) = eps,

    as p >= wp + mag g~ + 8 (_ATAN_GUARD = 8).  Over the N nodes of levels
    0..L, 2 * estimate is off by at most 2 T 2^-L N eps, and rounding it
    to wp adds less than one ulp of 2 * integral at wp.

    Why g~ < 4: g~ <= w / (2 pi T x) < cosh u / (2 T), since
    w / x = pi cosh u e^2q / (e^2q + 1) on a left node x = d, and
    w <= (pi/4) cosh u on a right node x >= 1/2.  A kept node has
    w >= 2^-(wp+32), while w < pi c e^(pi (1 - c)) with c = cosh u (as
    sinh u >= c - 1), which decreases in c >= 1; T >= (bits + 24) ln 2
    / (2 pi) and bits >= 64 put that under 2^-(wp+32) at c = 8T, by a
    factor of more than 2^100.  So cosh u < 8T, with room to spare for the
    roundings of x, w, t and g.
    """
    level = _binet_level(bits)
    if level > BINET_MAX_LEVEL:
        raise ConvergenceError(
            f"Binet quadrature needs level {level}, past BINET_MAX_LEVEL = "
            f"{BINET_MAX_LEVEL} (bits={bits})"
        )
    wp = bits + 64
    F = wp + 32
    T = _binet_T(bits)
    inv_z = libmp.mpf_div(libmp.fone, z_raw, F, _RND)
    acc = nodes = 0
    for lev in range(level + 1):
        table = _binet_level_nodes(bits, lev)
        for t, G, p in table:
            a = libmp.mpf_atan(libmp.mpf_mul(t, inv_z, p, _RND), p, _RND)
            acc += G * libmp.to_fixed(a, F)
        nodes += len(table)
    # the estimate T acc 2^-(2F+level), doubled, exactly; then rounded once
    integral = libmp.from_man_exp(T * acc, 1 - (2 * F + level), wp, _RND)
    # 2 T 2^-level nodes 2^-(wp+6), plus the rounding of the integral to wp
    rounding = libmp.mpf_add(libmp.from_man_exp(T * nodes, -(wp + 5 + level)),
                             _ulp_raw(integral, wp, 1), wp, _UP)
    scale, slack = _binet_tail_factors(bits)
    tail = libmp.mpf_mul(libmp.mpf_div(scale, z_raw, wp, _RND), slack, wp, _RND)
    parts = {
        "discretisation": _binet_discretisation_bound(bits, level),
        "tail": libmp.mpf_shift(tail, 1),
        "omitted": _binet_drop_bound(T, _binet_cutoff(bits), level),
        "left_truncation": libmp.from_man_exp(T, -(wp + 34)),
        "node_error": libmp.from_man_exp(T * T, 2 - wp),
        "rounding": rounding,
    }
    return integral, nodes, parts


def lngamma_binet2(z, ctx: PrecisionCtx) -> OracleValue:
    """ln Gamma(z) from the arctan integral.

    For z < 1 the integral is taken at z + 1, formed exactly, and
    ln Gamma(z) = ln Gamma(z + 1) - ln z.  So the quadrature sees only
    z >= 1, where every singularity of its integrand lies at distance
    >= 1 from the real axis, and one level per precision serves every z;
    the branch points of arctan(t/z) at t = +-iz would otherwise cost ever
    more levels as z shrinks.  The error bound is the sum, rounded up, of
      - the trapezoidal discretisation error at the chosen level (see
        ``_binet_discretisation_bound``),
      - the analytic tail past T (see ``_binet_T``),
      - the right-end nodes left out (see ``_binet_drop_bound``),
      - the left-end nodes never built, T 2^-(wp+34), and the error of the
        computed nodes, 4 T^2 2^-wp (see ``_binet_integral``),
      - the rounding of the quadrature sum: 2 T h N 2^-(wp+6) for N nodes
        summed at step h, plus one ulp of the integral at the working
        precision (see ``_binet_integral``),
      - one ulp at the working precision for ln z, when z was shifted, and
        8 ulp of the result for the remaining roundings.
    ``diagnostics`` records the level, the nodes summed, T, the cutoff k of
    the right nodes, and each part as a BigFloat at the working precision
    wp: discretisation, tail, omitted, left_truncation, node_error,
    rounding and final_rounding (the last item).
    """
    wp = ctx.bits + 64
    z_raw = to_raw(z, wp)
    _require_positive(z_raw)
    shifted = libmp.mpf_lt(z_raw, libmp.fone)
    zq = libmp.mpf_add(z_raw, libmp.fone, 0) if shifted else z_raw
    integral, nodes, parts = _binet_integral(zq, ctx.bits)
    val = libmp.mpf_add(_oracle_main_term(zq, wp), integral, wp, _RND)
    final = libmp.fzero
    if shifted:
        lnz = libmp.mpf_log(z_raw, wp, _RND)
        val = libmp.mpf_sub(val, lnz, wp, _RND)
        final = _ulp_raw(lnz, wp, 1)
    parts["final_rounding"] = libmp.mpf_add(final, _ulp_raw(val, ctx.bits, 8), wp, _UP)
    bound = libmp.fzero
    for part in parts.values():
        bound = libmp.mpf_add(bound, part, wp, _UP)
    diagnostics = {"level": _binet_level(ctx.bits), "nodes": nodes,
                   "T": _binet_T(ctx.bits), "cutoff": _binet_cutoff(ctx.bits)}
    diagnostics.update((name, BigFloat(part, wp)) for name, part in parts.items())
    return OracleValue(
        value=BigFloat.from_raw(val, ctx),
        method="binet2",
        error_bound=BigFloat.from_raw(libmp.mpf_pos(bound, ctx.bits, _UP), ctx),
        diagnostics=diagnostics,
    )


# -- Euler's limit definition ---------------------------------------------


def _euler_limit_raw(z_raw, n: int, wp: int):
    lnfact = _ln_factorial_raw(n, wp)
    lnn = libmp.mpf_log(libmp.from_int(n), wp, _RND)
    prod = libmp.fone
    for k in range(0, n + 1):
        prod = libmp.mpf_mul(prod, libmp.mpf_add(z_raw, libmp.from_int(k), wp, _RND), wp, _RND)
    acc = libmp.mpf_add(lnfact, libmp.mpf_mul(z_raw, lnn, wp, _RND), wp, _RND)
    return libmp.mpf_sub(acc, libmp.mpf_log(prod, wp, _RND), wp, _RND)


def lngamma_euler_limit(z, n: int, ctx: PrecisionCtx) -> OracleValue:
    """ln of n! n^z / (z (z+1) ... (z+n)); converges to ln Gamma(z) at O(1/n).

    The error bound is empirical: the O(1/n) rate means the distance to the
    limit is about twice the observed step to the doubled index, so the
    bound is 3 |L(n) - L(2n)| plus roundoff.
    """
    if not isinstance(n, int) or n < 2:
        raise DomainError("n must be an integer >= 2")
    if n > FACTORIAL_CAP:
        raise ResourceError(f"n={n} exceeds the cap {FACTORIAL_CAP}")
    wp = ctx.bits + 48
    z_raw = to_raw(z, wp)
    _require_positive(z_raw)
    val = _euler_limit_raw(z_raw, n, wp)
    val2 = _euler_limit_raw(z_raw, 2 * n, wp)
    gap = libmp.mpf_abs(libmp.mpf_sub(val, val2, wp, _RND))
    bound = libmp.mpf_mul_int(gap, 3, wp, _RND)
    bound = libmp.mpf_add(bound, _ulp_raw(val, ctx.bits, 8), wp, _RND)
    return OracleValue(
        value=BigFloat.from_raw(val, ctx),
        method="euler_limit",
        error_bound=BigFloat.from_raw(bound, ctx),
    )


# -- Weierstrass product ---------------------------------------------------


def weierstrass_inv_gamma(z, K: int, ctx: PrecisionCtx) -> OracleValue:
    """1/Gamma(z) ~ z e^(gamma z) prod_{n=1..K} (1 + z/n) e^(-z/n).

    The omitted tail multiplies the result by exp(tau) with
    0 < tau <= z^2/(2K), which dominates the error bound.
    """
    if not isinstance(K, int) or K < 1:
        raise DomainError("K must be an integer >= 1")
    wp = ctx.bits + 48
    z_raw = to_raw(z, wp)
    _require_positive(z_raw)
    s = libmp.fzero
    for n in range(1, K + 1):
        x = libmp.mpf_div(z_raw, libmp.from_int(n), wp, _RND)
        s = libmp.mpf_add(s, libmp.mpf_sub(raw_log1p(x, wp), x, wp, _RND), wp, _RND)
    gamma_z = libmp.mpf_mul(libmp.mpf_euler(wp, _RND), z_raw, wp, _RND)
    exponent = libmp.mpf_add(gamma_z, s, wp, _RND)
    val = libmp.mpf_mul(z_raw, libmp.mpf_exp(exponent, wp, _RND), wp, _RND)
    # |relative tail| <= z^2/(2K); add a roundoff allowance
    z2 = libmp.mpf_mul(z_raw, z_raw, wp, _RND)
    tau = libmp.mpf_div(z2, libmp.from_int(2 * K), wp, _RND)
    rel = libmp.mpf_add(tau, libmp.from_man_exp(1, -(ctx.bits + 2)), wp, _RND)
    bound = libmp.mpf_mul(libmp.mpf_abs(val), rel, wp, _RND)
    bound = libmp.mpf_mul(bound, libmp.from_str("1.05", wp, _RND), wp, _RND)
    return OracleValue(
        value=BigFloat.from_raw(val, ctx),
        method="weierstrass",
        error_bound=BigFloat.from_raw(bound, ctx),
    )


# -- functional-equation consistency checks --------------------------------


def check_duplication(z, ctx: PrecisionCtx) -> BigFloat:
    """Residual of ln Gamma(2z) = (2z-1) ln 2 - (1/2) ln pi
    + ln Gamma(z) + ln Gamma(z + 1/2), all sides from the integral oracle."""
    wp = ctx.wprec()
    z_raw = to_raw(z, wp)
    _require_positive(z_raw)
    two_z = libmp.mpf_shift(z_raw, 1)
    g2z = lngamma_binet2(BigFloat(two_z, ctx.bits), ctx).value
    gz = lngamma_binet2(BigFloat(z_raw, ctx.bits), ctx).value
    gz_half = lngamma_binet2(
        BigFloat(libmp.mpf_add(z_raw, libmp.fhalf, wp, _RND), ctx.bits), ctx).value
    ln2 = libmp.mpf_log(libmp.from_int(2), wp, _RND)
    lnpi = libmp.mpf_log(libmp.mpf_pi(wp, _RND), wp, _RND)
    rhs = libmp.mpf_mul(libmp.mpf_sub(two_z, libmp.fone, wp, _RND), ln2, wp, _RND)
    rhs = libmp.mpf_sub(rhs, libmp.mpf_shift(lnpi, -1), wp, _RND)
    rhs = libmp.mpf_add(rhs, gz.raw, wp, _RND)
    rhs = libmp.mpf_add(rhs, gz_half.raw, wp, _RND)
    resid = libmp.mpf_abs(libmp.mpf_sub(g2z.raw, rhs, wp, _RND))
    return BigFloat.from_raw(resid, ctx)


def check_multiplication(m: int, z, ctx: PrecisionCtx) -> BigFloat:
    """Residual of the order-m multiplication formula
    ln Gamma(mz) = (1-m) ln sqrt(2 pi) + (mz - 1/2) ln m
    + sum_{k=0..m-1} ln Gamma(z + k/m)."""
    if m not in (2, 3, 4, 5):
        raise DomainError("m must be one of 2, 3, 4, 5")
    wp = ctx.wprec()
    z_raw = to_raw(z, wp)
    _require_positive(z_raw)
    mz = libmp.mpf_mul_int(z_raw, m, wp, _RND)
    g_mz = lngamma_binet2(BigFloat(mz, ctx.bits), ctx).value
    two_pi = libmp.mpf_shift(libmp.mpf_pi(wp, _RND), 1)
    ln_sqrt_2pi = libmp.mpf_shift(libmp.mpf_log(two_pi, wp, _RND), -1)
    ln_m = libmp.mpf_log(libmp.from_int(m), wp, _RND)
    rhs = libmp.mpf_mul_int(ln_sqrt_2pi, 1 - m, wp, _RND)
    rhs = libmp.mpf_add(
        rhs,
        libmp.mpf_mul(libmp.mpf_sub(mz, libmp.fhalf, wp, _RND), ln_m, wp, _RND),
        wp, _RND)
    for k in range(m):
        shift = libmp.from_rational(k, m, wp, _RND)
        zk = libmp.mpf_add(z_raw, shift, wp, _RND)
        rhs = libmp.mpf_add(rhs, lngamma_binet2(BigFloat(zk, ctx.bits), ctx).value.raw,
                            wp, _RND)
    resid = libmp.mpf_abs(libmp.mpf_sub(g_mz.raw, rhs, wp, _RND))
    return BigFloat.from_raw(resid, ctx)


def gamma_half_integer(k: int, ctx: PrecisionCtx) -> BigFloat:
    """Gamma(k/2) in exact form: (k/2 - 1)! for even k,
    (k-2)!! / 2^((k-1)/2) * sqrt(pi) for odd k."""
    if not isinstance(k, int) or k < 1:
        raise DomainError("k must be an integer >= 1")
    if k > HALF_INTEGER_CAP:
        raise ResourceError(f"k={k} exceeds the half-integer cap {HALF_INTEGER_CAP}")
    wp = ctx.wprec()
    if k % 2 == 0:
        val = libmp.from_int(math.factorial(k // 2 - 1), wp, _RND)
        return BigFloat.from_raw(val, ctx)
    dfact = 1
    for j in range(k - 2, 1, -2):
        dfact *= j
    q = Fraction(dfact, 1 << ((k - 1) // 2))
    q_raw = libmp.from_rational(q.numerator, q.denominator, wp, _RND)
    sqrt_pi = libmp.mpf_sqrt(libmp.mpf_pi(wp, _RND), wp, _RND)
    return BigFloat.from_raw(libmp.mpf_mul(q_raw, sqrt_pi, wp, _RND), ctx)
