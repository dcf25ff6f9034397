"""Independent high-precision references for ln Gamma and factorials.

None of the evaluators here shares a code path with the truncated-series
module: Binet's second formula integrated by parts,

    ln Gamma(z) = P(z) + (1/pi) integral_0^inf l(t) z / (z^2 + t^2) dt,
    l(t) = -ln(1 - e^(-2 pi t))

(Whittaker & Watson, Modern Analysis, 12.32), is evaluated by one
trapezoidal sum at the step h = 1/m on the half-line map t = exp(u - e^-u)
(``quadrature``); z < 1 is taken through ln Gamma(z) = ln Gamma(z + 1) -
ln z, so the quadrature only sees z >= 1, and its sum is taken in integer
fixed point (``fixed``): the nodes with t < 1/8 as one series in 1/z over
moments kept with the node table, each other node by one integer
division.  z enters only through the rational factor, so every
transcendental of a node lives in its cached table.  A bound on the
discretisation error proven on the strip |Im u| < d = 19/20, uniform in
z >= 1, picks m once per precision, and closed-form bounds, also uniform
in z, pick the two ends of the sum and cover the terms past them.  The
limit definition

    Gamma(z) = lim n! n^z / (z (z+1) ... (z+n))

and the infinite product

    1/Gamma(z) = z e^(gamma z) prod_{n>=1} (1 + z/n) e^(-z/n)

serve as slower cross-checks, each with a proven error bound: Euler's
limit from the bracket that the digamma inequalities put on its distance
to ln Gamma, the product from its tail and a running rounding bound.  Euler's
gamma in the product comes from mpmath's Brent-McMillan kernel
(``libmp.mpf_euler``) at whatever working precision is asked, so no
precision is capped.  Exact integer factorials anchor everything at
integer arguments.

Every result carries an explicit ``error_bound`` so downstream inequality
checks can refuse to conclude when a margin falls inside the bound.  The
roundings of the Binet assembly of P(z), the integral and ln z, of every
ln n! and of the whole Weierstrass product are tracked by
``mpcore._Ball``; only Euler's running product counts its own.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import libmp

from .errors import ConvergenceError, DomainError
from .mpcore import (_RND, _UP, BigFloat, PrecisionCtx, _argument_error, _Ball, _exp_raw,
                     _log_raw, _require_index, _require_positive, _sum_up, raw_expm1, to_raw)
from .fixed import _moment_series
from .quadrature import half_line_nodes

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
# terms of a truncated sum or product (Feller, Mermin, Weierstrass)
TERMS_CAP = 10**6
HALF_INTEGER_CAP = 2 * 10**4
# nodes in one Binet table; precisions past about 28,700 bits fail fast
BINET_MAX_NODES = 60_000


@dataclass(frozen=True)
class OracleValue:
    value: BigFloat
    method: str  # exact_factorial | binet2 | euler_limit | weierstrass
    error_bound: BigFloat
    # how the value and its bound came out (see each oracle's docstring)
    diagnostics: dict | None = field(default=None, compare=False)


# -- Euler's constant ---------------------------------------------------


def euler_gamma(ctx: PrecisionCtx) -> BigFloat:
    """Euler's constant at any precision: mpmath's Brent-McMillan
    Bessel-function sum in integer arithmetic, one rounding."""
    return BigFloat.from_raw(libmp.mpf_euler(ctx.wprec(), _RND), ctx)


# -- shared raw pieces ---------------------------------------------------


@functools.lru_cache(maxsize=None)
def _oracle_half_ln_2pi(wp: int) -> _Ball:
    """(1/2) ln(2 pi): half the log of 2 pi~, pi~ within one ulp of pi."""
    return _Ball.op(libmp.mpf_pi(wp, _RND), wp).shift(1).log().shift(-1)


def _oracle_main_term(z: _Ball) -> _Ball:
    """P(z) = z ln z - z - (1/2) ln z + (1/2) ln(2 pi), with its error."""
    # deliberately written out here: the oracle keeps its own code path
    lnz = z.log()
    return z * lnz - z - lnz.shift(-1) + _oracle_half_ln_2pi(z.wp)


# -- exact factorials ----------------------------------------------------


def _ln_factorial(fact: int, wp: int) -> _Ball:
    """ln(n!) at wp bits from the exact integer fact = n!, with its error:
    n! rounded to wp, which ``mpcore._Ball`` charges where it is inexact,
    then its log.  Every ln n! of the package comes from here."""
    c = libmp.from_int(fact, wp, _RND)
    exact = fact.bit_length() - (fact & -fact).bit_length() < wp  # its odd part fits
    return (_Ball(c, wp) if exact else _Ball.op(c, wp)).log()


def ln_factorial_exact(n: int, ctx: PrecisionCtx) -> OracleValue:
    """ln(n!) via the exact big integer and one logarithm, its bound
    tracked by ``mpcore._Ball`` from the rounding of n! to wp."""
    _require_index(n, "n", 0, FACTORIAL_CAP, "exact-factorial cap")
    if n <= 1:
        zero = BigFloat.from_raw(libmp.fzero, ctx)
        return OracleValue(value=zero, method="exact_factorial", error_bound=zero)
    value, bound = _ln_factorial(math.factorial(n), ctx.wprec()).published(ctx)
    return OracleValue(value=value, method="exact_factorial", error_bound=bound)


def ln_factorial_range(n_max: int, wp: int):
    """Yield (n, the ball of ln n! at wp bits) for n = 1..n_max, from a
    running exact product: each value's error is its own, never
    accumulated.  The callers hold n_max to FACTORIAL_CAP."""
    product = 1
    for n in range(1, n_max + 1):
        product *= n
        yield n, _ln_factorial(product, wp)


# -- Binet's second formula ----------------------------------------------

_STRIP_D = Fraction(19, 20)  # the half-width d of the strip |Im u| < d; the proof fixes it
# the proof's radius rho, inside which l is continued, and its bounds on
# e^-Re u where |t| >= rho and where |t| >= 1 (see ``_binet_strip_mass``)
_STRIP_RHO, _STRIP_W_RHO, _STRIP_W_ONE = Fraction(7, 8), Fraction(3, 4), Fraction(11, 16)


@functools.lru_cache(maxsize=None)
def _binet_strip_mass():
    """M, an upper bound for every z >= 1 and |b| < d = 19/20 on integral
    |F(s + ib)| ds (about 59.7), where F(u) = f(phi(u)) phi'(u), f(t) =
    l(t) z / (pi (z^2 + t^2)), l(t) = -ln(1 - e^(-2 pi t)) and phi(u) =
    exp(u - e^-u):

        M = (1/(pi c)) (N + B_rho + B_1),
        N = rho (A_0 + (1 + tan d)(1 + ln(1/rho))) / (1 - rho^2),
        A_0 = ln(2 pi) + d + sin d + Lambda,
        Lambda = pi rho + (1 - pi rho cot(pi rho)) / 2,
        B_rho = ((1 - rho) / (8 s_rho)) sum_(i<8) -ln(1 - e^(-2 pi c_rho r_i)),
        B_1 = 1 / (s_1 k (e^k - 1)),  k = 2 pi c_1,

    with rho = 7/8, r_i = rho + i (1 - rho)/8, c = cos d, and c_i = cos
    theta_i and s_i = sin(2 theta_i) for theta_rho = d + (3/4) sin d and
    theta_1 = d + (11/16) sin d.

    The image of the strip.  Let u = s + ib with |b| < d and w = e^-s.
    Then r = |phi(u)| = exp(s - w cos b) and arg phi(u) = b + w sin b.
    r >= rho means w e^(w cos b) <= 1/rho, so w e^(w c) <= 8/7, and w <=
    3/4 as (3/4) e^(3c/4) = 1.1601 > 8/7; likewise r >= 1 gives w <= 11/16,
    as (11/16) e^(11c/16) = 1.0255 > 1.  So t = phi(u) has |arg t| <=
    theta_rho = 1.5601 < pi/2 when |t| >= rho, and |arg t| <= theta_1 =
    1.5092 when |t| >= 1.  And r < 1 gives w <= max(1, ln(1/r)/c): for w >
    1, ln(1/r) = w cos b + ln w > w c.  (On the line Im u = b the image
    meets the imaginary axis where w = (pi/2 - b) / sin b, at |t| >= 1
    once |b| > 0.995, so on the pole iz of some z >= 1: no d past that
    serves every z.)

    Analyticity.  l has its branch points at t = ik, k in Z, where
    e^(-2 pi t) = 1 (t = 0 among them, which phi never takes), and z / (z^2
    + t^2) its poles at +-iz, |iz| >= 1.
    Where |t| >= rho, Re t > 0, so |e^(-2 pi t)| < 1 and the principal l =
    -Log(1 - e^(-2 pi t)) is analytic.  Where |t| < 1 take instead

        L(u) = -ln(2 pi) - (u - e^-u) - lambda(2 pi phi(u)),
        lambda(x) = ln((1 - e^-x) / x),

    with lambda analytic on |x| < 2 pi, where (1 - e^-x) / x has no zero:
    the principal log of phi is not analytic where the image winds round
    0, but u - e^-u, a log of phi, is.  Both are logs of 1 - e^(-2 pi t),
    so on the overlap rho < |t| < 1, connected as r increases with s, they
    differ by a constant in 2 pi i Z, which is 0 as both are real on the
    real line.  So F, with L where |t| < rho, is analytic in the strip:
    there z / (z^2 + t^2) has no pole either, as |t| < 1 <= z or Re t > 0.

    Bounds at |t| = r.
      - r < rho.  |z^2 + t^2| >= z^2 - rho^2 >= (1 - rho^2) z^2, so |z /
        (z^2 + t^2)| <= 1 / (1 - rho^2).  With x = 2 pi t, |x| < v = 2 pi
        rho < 2 pi, the Bernoulli series lambda(x) = -x/2 + sum_(k>=1) B_2k
        x^2k / (2k (2k)!) and sum_(k>=1) |B_2k| v^2k / (2k)! = 1 - (v/2)
        cot(v/2) give |lambda| <= Lambda (as 2k >= 2).  |Re(u - e^-u)| =
        ln(1/r) and |Im(u - e^-u)| <= d + w sin d <= d + sin d + tan d
        ln(1/r), so |L| <= A_0 + (1 + tan d) ln(1/r), whose integral over
        (0, rho) is rho A_0 + (1 + tan d) rho (1 + ln(1/rho)).
      - r >= rho, in a cone |arg t| <= theta with pi/4 < theta < pi/2: t^2
        lies in |arg| <= 2 theta, so |z^2 + t^2| >= sin(2 theta) max(z^2,
        r^2), the distance from -z^2 to that cone and from t^2 to the ray
        (-inf, 0], and |z / (z^2 + t^2)| <= 1 / (sin(2 theta) max(1, r))
        for z >= 1.  |e^(-2 pi t)| <= q = e^(-2 pi r cos theta), so |l| <=
        sum q^n / n = -ln(1 - q).  On rho <= r <= 1 (theta_rho) this falls
        with r, so its upper sum over 8 steps, B_rho s_rho, bounds its
        integral.  On r >= 1 (theta_1), -ln(1 - q) <= q / (1 - q) <=
        e^(-kr) / (1 - e^-k), whose integral over r >= 1 is B_1 s_1.

    The weight.  R(s) = |phi(s + ib)| = exp(s - w cos b) increases from 0
    to inf, and R' = (1 + w cos b) R >= c (1 + w) R >= c |phi'(s + ib)|,
    as |phi'(u)| = |1 + e^-u| R.  So integral |F(s + ib)| ds <= (1/(pi c))
    integral_0^inf G(r) dr <= M, for G(r) the bound above on |l z / (z^2 +
    t^2)| at |t| = r, in which the bound on w by r has removed s.  The
    same bounds send F to 0 uniformly in the strip as |s| grows: as s ->
    -inf, G(R) |phi'| <= G(R) (1 + w) R with w <= 1 + ln(1/R)/c, and
    R ln(1/R)^2 -> 0; as s -> inf, G(R) R' -> 0.

    M is evaluated at 64 bits; ``_binet_discretisation_bound`` doubles what
    it derives from M, which covers the roundings.
    """
    p = 64

    def raw(q):
        return libmp.from_rational(q.numerator, q.denominator, p, _RND)

    pi = libmp.mpf_pi(p, _RND)
    two_pi = libmp.mpf_shift(pi, 1)
    d, rho = raw(_STRIP_D), raw(_STRIP_RHO)
    cos_d, sin_d = libmp.mpf_cos_sin(d, p, _RND)

    def cone(w):
        """(cos theta, sin 2 theta) for theta = d + w sin d"""
        cos_t, sin_t = libmp.mpf_cos_sin(libmp.mpf_add(d, libmp.mpf_mul(raw(w), sin_d, p, _RND), p,
                                                       _RND), p, _RND)
        return cos_t, libmp.mpf_shift(libmp.mpf_mul(cos_t, sin_t, p, _RND), 1)

    pi_rho = libmp.mpf_mul(pi, rho, p, _RND)
    cos_pr, sin_pr = libmp.mpf_cos_sin(pi_rho, p, _RND)
    pi_rho_cot = libmp.mpf_div(libmp.mpf_mul(pi_rho, cos_pr, p, _RND), sin_pr, p, _RND)
    lam = _sum_up([pi_rho, libmp.mpf_shift(libmp.mpf_sub(libmp.fone, pi_rho_cot, p, _RND), -1)])
    a0 = _sum_up([_log_raw(two_pi, p), d, sin_d, lam])
    slope = _sum_up([libmp.fone, libmp.mpf_div(sin_d, cos_d, p, _RND)])
    ln_e_rho = libmp.mpf_sub(libmp.fone, _log_raw(rho, p), p, _RND)  # 1 + ln(1/rho)
    near = _sum_up([a0, libmp.mpf_mul(slope, ln_e_rho, p, _RND)])
    near = libmp.mpf_div(libmp.mpf_mul(near, rho, p, _RND), raw(1 - _STRIP_RHO ** 2), p, _RND)
    c_rho, s_rho = cone(_STRIP_W_RHO)
    decay = libmp.mpf_mul(two_pi, c_rho, p, _RND)

    def ell(r):
        """-ln(1 - e^(-2 pi c_rho r))"""
        v = libmp.mpf_neg(raw_expm1(libmp.mpf_neg(libmp.mpf_mul(decay, raw(r), p, _RND)), p))
        return libmp.mpf_neg(_log_raw(v, p))

    width = (1 - _STRIP_RHO) / 8
    b_rho = _sum_up(ell(_STRIP_RHO + i * width) for i in range(8))
    b_rho = libmp.mpf_div(libmp.mpf_mul(b_rho, raw(width), p, _RND), s_rho, p, _RND)
    c_1, s_1 = cone(_STRIP_W_ONE)
    k = libmp.mpf_mul(two_pi, c_1, p, _RND)
    b_1 = libmp.mpf_div(libmp.fone, libmp.mpf_mul(libmp.mpf_mul(s_1, k, p, _RND), raw_expm1(k, p),
                                                  p, _RND), p, _RND)
    return libmp.mpf_div(_sum_up([near, b_rho, b_1]), libmp.mpf_mul(pi, cos_d, p, _RND), p, _RND)


@functools.lru_cache(maxsize=None)
def _binet_discretisation_bound(m: int):
    """Upper bound, for every z >= 1, on |Q_h - I| at the step h = 1/m,
    where I = (1/pi) integral_0^inf l(t) z / (z^2 + t^2) dt and Q_h = h
    sum_{j in Z} F(jh) is the trapezoidal sum of the F of
    ``_binet_strip_mass``, whose integral over the real line is I:

        D = 4 M / (e^(2 pi d m) - 1),  d = 19/20.

    Trefethen & Weideman (SIAM Rev. 56, 2014, Thm 5.1): if F is analytic
    in the strip |Im u| < d, tends to 0 uniformly there as |Re u| grows,
    and integral |F(s + ib)| ds <= M for every |b| < d, then
    |Q_h - I| <= 2M / (e^(2 pi d / h) - 1); ``_binet_strip_mass`` proves
    all three for its M.  D is evaluated at 64 bits and doubled, which
    covers its roundings and those of M.
    """
    p = 64
    d = libmp.from_rational(_STRIP_D.numerator, _STRIP_D.denominator, p, _RND)
    decay = libmp.mpf_mul(libmp.mpf_shift(libmp.mpf_pi(p, _RND), 1), d, p, _RND)
    decay = raw_expm1(libmp.mpf_mul_int(decay, m, p, _RND), p)
    return libmp.mpf_shift(libmp.mpf_div(_binet_strip_mass(), decay, p, _RND), 2)


def _phi(u, p: int):
    return _exp_raw(libmp.mpf_sub(u, _exp_raw(libmp.mpf_neg(u), p), p, _RND), p)


def _first(ok, j: int, low: int) -> int:
    """The least integer >= low at which ``ok`` holds, searched from j;
    ``ok`` must stay true once it holds."""
    j = max(j, low)
    while j > low and ok(j - 1):
        j -= 1
    while not ok(j):
        j += 1
    return j


@functools.lru_cache(maxsize=None)
def _binet_plan(bits: int):
    """(m, J_L, J_R, discretisation, truncation, t_max) at ``bits``: the
    step h = 1/m and the ends of the one node table, with two parts of the
    error bound of the estimate and an integer above every node t.

    m is the least with ``_binet_discretisation_bound(m)`` <= 2^-(bits+24).
    The sum over j in Z is cut to -J_L <= j <= J_R, each end the least
    whose bound below is at most 2^-(bits+32); the sum of the two bounds is
    the truncation part.  On the real line 0 < z / (z^2 + t^2) <= 1/z <= 1,
    so 0 < F <= f / pi for f(u) = l(phi(u)) phi'(u).  With x = 2 pi t, l =
    -ln x - lambda(x) and 0 <= -lambda(x) <= x/2 (as x <= 2 sinh(x/2)), and
    kappa = -t l'(t) / l(t) = x / ((e^x - 1) l) gives d ln f / du = (1 +
    e^-u)(1 - kappa) - e^-u / (1 + e^-u).

      Left.  Where x <= e^-2, l >= -ln x >= 2 and x / (e^x - 1) <= 1 give
      kappa <= 1/2, so d ln f / du >= (1 + e^-u)/2 - e^-u / (1 + e^-u) > 0:
      f increases where t <= e^-2 / (2 pi).  For T = phi(-J_L h) there,

        h sum_{j < -J_L} F(jh) <= (1/pi) integral_{-inf}^{-J_L h} f du
        = (1/pi) integral_0^T l dt <= (T/pi) (1 - ln(2 pi T) + pi T/2),

      which increases with T (its derivative in T, -ln(2 pi T) + pi T, is
      least at T = 1/pi, where it is 1 - ln 2), and is at most 2^-(bits+32)
      only if T < 2^-(bits+31), well inside that range.

      Right.  On u >= 0, t >= 1/e and x > 2, while l <= e^-x / (1 - e^-x)
      gives kappa >= x > 1, so f decreases, and

        h sum_{j > J_R} F(jh) <= (1/pi) integral_T^inf l dt
        = (1/pi) sum_(n>=1) e^(-2 pi n T) / (2 pi n^2)
        <= 1 / (2 pi^2 (e^(2 pi T) - 1)),  T = phi(J_R h).

    Each bound is evaluated at 64 bits and doubled, which covers its
    roundings.  t_max = floor(phi(J_R h)) + 2, from the same evaluation.
    """
    p = 64
    ln2 = math.log(2)
    # D(m) is about 4 M e^(-2 pi d m), so the search starts where that is 2^-(bits+24)
    ln_4m = math.log(4 * libmp.to_float(_binet_strip_mass()))
    m = _first(lambda k: libmp.mpf_le(_binet_discretisation_bound(k),
                                      libmp.from_man_exp(1, -(bits + 24))),
               math.ceil(((bits + 24) * ln2 + ln_4m) / (2 * math.pi * _STRIP_D)), 1)
    target = libmp.from_man_exp(1, -(bits + 32))
    pi = libmp.mpf_pi(p, _RND)

    def left(j):  # doubled
        t = _phi(libmp.from_rational(-j, m, p, _RND), p)
        head = libmp.mpf_sub(libmp.mpf_add(libmp.fone, libmp.mpf_mul(half_pi, t, p, _RND), p,
                                           _RND),
                             _log_raw(libmp.mpf_mul(two_pi, t, p, _RND), p), p, _RND)
        return libmp.mpf_div(libmp.mpf_mul(t, head, p, _RND), half_pi, p, _RND)

    def right(j):  # T and the doubled bound
        t = _phi(libmp.from_rational(j, m, p, _RND), p)
        return t, libmp.mpf_div(libmp.fone, libmp.mpf_mul(
            pi_sq, raw_expm1(libmp.mpf_mul(two_pi, t, p, _RND), p), p, _RND), p, _RND)

    half_pi, two_pi = libmp.mpf_shift(pi, -1), libmp.mpf_shift(pi, 1)
    pi_sq = libmp.mpf_mul(pi, pi, p, _RND)
    scale = (bits + 33) * ln2
    j_left = _first(lambda j: libmp.mpf_le(left(j), target), int(m * math.log(scale)), 0)
    j_right = _first(lambda j: libmp.mpf_le(right(j)[1], target),
                     int(m * math.log(scale / (2 * math.pi))), 0)
    t_end, tail = right(j_right)
    truncation = libmp.mpf_add(left(j_left), tail, p, _UP)
    return (m, j_left, j_right, _binet_discretisation_bound(m), truncation,
            libmp.to_int(t_end) + 2)


def _binet_integral(z_raw, bits: int):
    """((1/pi) integral_0^inf l(t) z / (z^2 + t^2) dt, counts, parts of
    its error bound), the value and parts raw; counts holds the table's
    nodes and the integer divisions taken.  z >= 1 is a precondition: its
    one caller, ``lngamma_binet2``, shifts z < 1 to z + 1 first.

    The plan (``_binet_plan``) is fixed before any node is built, so a
    table longer than BINET_MAX_NODES fails at once.  The estimate is h acc
    2^-F / pi over the table (T2, W) of ``quadrature.half_line_nodes``, h =
    1/m, and the parts that ``lngamma_binet2`` lists bound its distance
    from the integral.  The node error, of the exact terms at the computed nodes t~
    against those at t = phi(jh), and the rounding, of the fixed-point sum,
    are proven here.

    Node error.  Let k(t) = t l(t) z / (z^2 + t^2), so that the exact term
    is F(jh) = (1 + e^-u) k(t) / pi at u = jh.  d ln k / d ln t = 1 - kappa
    - 2 t^2 / (z^2 + t^2) lies in [-2 - 2 pi t, 1], as kappa = x / ((e^x -
    1) l) <= x / (1 - e^-x) <= 1 + x for x = 2 pi t (l >= e^-x).  t~ is
    within a relative 3 2^-wp of t, so (1 + e^-u) k(t~) / pi is within a
    relative 1.01 (2 + 2 pi t_max) 3.01 2^-wp of F(jh).  The exact terms
    add to h sum F(jh) <= I + D/2 < 0.0812, since F >= 0 and I = ln Gamma(z)
    - P(z) is largest at z = 1, where it is 1 - ln(2 pi)/2.  So the node
    error of the estimate is under 0.248 (2 + 2 pi t_max) 2^-wp < (2 + 7
    t_max) 2^-(wp+2).

    Rounding, in units of u = 2^-F, against the terms v = w a 2^F / (1 +
    t~^2 a^2), a = 1/z <= 1, of the weights w at t~ (``quadrature``), which
    h/pi turns into the exact terms at t~: the estimate is h acc 2^-F / pi.
    acc adds floor(W X / (2^F + floor(T2 X2 2^-F))) for each node with t~
    >= 1/8, with X = floor(2^F a) and X2 = floor(X^2 2^-F) taken once per
    evaluation, and the series over the moments for the rest.
      - The weights.  For t~ >= 1/8, u > -0.6 (phi(-0.6) < 0.089) and t l(t)
        <= t / (e^x - 1) <= 1/(2 pi), so w < (1 + e^0.6) / (2 pi) < 0.45.
        For t~ < 1/8, u < 0, so 1 + e^-u <= 1 + ln(1/phi(u)) < 1 + L +
        2^-60, L = ln(1/t~), and l <= L + pi t~: w <= tL + tL^2 + pi t^2 (1
        + L) + 2^-60 <= 1/e + 4/e^2 + pi (1/64 + 1/(8e)) + 2^-60 < 1.2, t =
        t~.  The weight before its floor is within u/16 of w, so
        |W - w 2^F| < 1 + 1/16, and W < 2^(F+1).
      - A node with t~ >= 1/8.  Let tau0 = t~^2 a^2 and tau = floor(T2 X2
        2^-F) u.  As T2 u >= t~^2 - u, X u > a - u and X2 u >= (X u)^2 - u
        >= a^2 - 3u, 0 <= tau0 - tau < (3 t~^2 + 2) u and |a / (1 + tau0) -
        X u / (1 + tau)| < (3 t~^2 + 3) u.  So the quotient is within 1.07 +
        (w + u)(3 t~^2 + 3) + 1 < 3.7 of v, the last 1 for its floor, as
        w (3 t^2 + 3) <= 3 (1 + e^0.6) (t + t^3) / (e^x - 1) < 1.56 (e^x - 1
        >= x and >= x^3/6).
      - The other N_s < 2^16 nodes.  ``fixed._moment_series`` puts their
        sum within N_s (0.7 F + 24) of sum W a / (1 + t~^2 a^2), as W <
        2^(F+1) and a <= 1, and each |W - w 2^F| adds 1.07: below 1.4 F per
        node, as F >= 96.
    So acc is within 1.4 F N of sum v over the N nodes, and the estimate
    within h N (F + 1) 2^-F, the rounding part, of h sum (1 + e^-u) k(t~)
    / pi.  The integral is then acc 2^-F over m pi~, pi~ within a relative
    2^-(wp+16) of pi, rounded to wp: within U of the estimate, with U as in
    ``mpcore._Ball``, which ``lngamma_binet2`` charges as for one operation.
    """
    m, j_left, j_right, discretisation, truncation, t_max = _binet_plan(bits)
    if j_left + j_right + 1 > BINET_MAX_NODES:
        raise ConvergenceError(
            f"Binet quadrature needs {j_left + j_right + 1} nodes, past "
            f"BINET_MAX_NODES = {BINET_MAX_NODES} (bits={bits})"
        )
    wp = bits + 64
    nodes, split, moments, F = half_line_nodes(wp, m, j_left, j_right)
    _, man, exp, _ = z_raw
    X = (1 << (F - exp)) // man if exp <= F else 0  # floor(2^F / z)
    X2, one = (X * X) >> F, 1 << F
    acc = _moment_series(moments, X, F)
    for T2, W in nodes[:split]:
        acc += W * X // (one + (T2 * X2 >> F))
    pi_m = libmp.mpf_mul(libmp.mpf_pi(wp + 16, _RND), libmp.from_int(m))  # exact
    integral = libmp.mpf_div(libmp.from_man_exp(acc, -F), pi_m, wp, _RND)
    parts = {
        "discretisation": discretisation,
        "truncation": truncation,
        "node_error": libmp.from_man_exp(2 + 7 * t_max, -(wp + 2)),
        "rounding": libmp.from_rational(len(nodes) * (F + 1), m << F, 64, _UP),
    }
    return integral, {"nodes": len(nodes), "divisions": split}, parts


# the store of ``_shared_values``; None outside that block
_SHARED = contextvars.ContextVar("binet2_shared_values", default=None)


@contextlib.contextmanager
def _shared_values():
    """Within this block ``lngamma_binet2`` evaluates each exact argument at
    each precision once and returns the stored value after; outside it,
    and in other threads, every call evaluates.  The verification report
    runs in one, so the identity checks share the values of its direct
    checks."""
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def lngamma_binet2(z, ctx: PrecisionCtx) -> OracleValue:
    """ln Gamma(z) from Binet's second formula integrated by parts.

    For z < 1 the integral is taken at z + 1, formed exactly, and
    ln Gamma(z) = ln Gamma(z + 1) - ln z.  So the quadrature sees only
    z >= 1, where every singularity of its integrand lies on the rays
    +-i[1, inf) or at t = 0, and one node table per precision serves every
    z; the poles of z / (z^2 + t^2) at t = +-iz would otherwise cost ever
    smaller steps as z shrinks.  The integral is one trapezoidal sum at the
    step h = 1/m on the map t = exp(u - e^-u) (``quadrature``).  The error
    bound is the sum, rounded up, of
      - the discretisation error at that step, proven on the strip
        |Im u| < d = 19/20 (see ``_binet_discretisation_bound``),
      - the terms past either end of the table (see ``_binet_plan``),
      - the error of the computed nodes, (2 + 7 t_max) 2^-(wp+2), and the
        rounding of the sum, h N (F + 1) 2^-F for N nodes and the table's
        fixed point F (see ``_binet_integral``),
      - the error of the assembly, which ``mpcore._Ball`` tracks: P(x) from
        ``_oracle_main_term`` at the exact x = z~ + 1 when shifted and x =
        z~ (z rounded to wp) else, the integral within U of the estimate
        (see ``_binet_integral``), ln z~ when z was shifted, the sums, the
        rounding of z to z~, which moves ln Gamma by E_arg
        (``mpcore._argument_error``), and the rounding to ctx.bits.
    ``diagnostics`` records the step m, the strip half-width d, the nodes
    summed, the integer divisions taken (one per node with t >= 1/8; the
    rest are summed as one series over moments kept with the table), and
    each part as a BigFloat at wp: discretisation, truncation, node_error,
    rounding and final_rounding (the last item).  Every identity check of
    the report trusts this bound as it stands.

    Inside ``_shared_values`` a repeated (raw argument at wp, bits) pair
    returns the value stored by its first evaluation.
    """
    wp = ctx.bits + 64
    z_raw = to_raw(z, wp)
    _require_positive(z_raw)
    shared = _SHARED.get()
    key = (z_raw, ctx.bits)
    if shared is not None and key in shared:
        return shared[key]
    shifted = libmp.mpf_lt(z_raw, libmp.fone)
    zq = libmp.mpf_add(z_raw, libmp.fone, 0) if shifted else z_raw
    integral, counts, parts = _binet_integral(zq, ctx.bits)
    val = _oracle_main_term(_Ball(zq, wp)) + _Ball.op(integral, wp)
    if shifted:
        val = val - _Ball(z_raw, wp).log()
    out = val.widen(_argument_error(z_raw, wp)).rounded(ctx.bits)
    parts["final_rounding"] = out.error()
    bound = _sum_up(parts.values(), wp)
    diagnostics = {"step_m": _binet_plan(ctx.bits)[0], "strip_d": _STRIP_D, **counts}
    diagnostics.update((name, BigFloat(part, wp)) for name, part in parts.items())
    result = OracleValue(
        value=BigFloat(out.v, ctx.bits),
        method="binet2",
        error_bound=BigFloat.from_raw(libmp.mpf_pos(bound, ctx.bits, _UP), ctx),
        diagnostics=diagnostics,
    )
    if shared is not None:
        shared[key] = result
    return result


# -- Euler's limit definition ---------------------------------------------


def lngamma_euler_limit(z, n: int, ctx: PrecisionCtx) -> OracleValue:
    """L(n) = ln of n! n^z / (z (z+1) ... (z+n)), Euler's limit for
    ln Gamma(z), with a proven bound on |L(n) - ln Gamma(z)|.

    The bracket.  As Gamma(z + n + 1) = Gamma(z) z (z+1) ... (z+n) and
    Gamma(n + 1) = n!, the distance E = ln Gamma(z) - L(n) is
    ln Gamma(b) - ln Gamma(a) - z ln n = integral_a^b psi(x) dx - z ln n,
    with a = n + 1 and b = n + 1 + z.  For x > 0

        ln x - 1/x < psi(x) < ln x - 1/(2x)

    (Alzer, Math. Comp. 66 (1997) 373-389): psi(x) = ln x + integral_0^inf
    (1/t - 1/(1 - e^-t)) e^(-xt) dt (Abramowitz & Stegun 6.3.21), and
    -1 < 1/t - 1/(1 - e^-t) < -1/2 for t > 0, the left side as e^t - 1 > t
    and the right, with 1/(1 - e^-t) = (1 + coth(t/2))/2, as tanh(t/2) <
    t/2; integral_0^inf e^(-xt) dt = 1/x gives the two sides.  Integrated
    over [a, b], where ln x integrates to b ln b - a ln a - z, they give

        E in [G - ln(b/a), G - ln(b/a)/2],
        G = b ln b - a ln a - z - z ln n = b ln(b/a) - z + z ln(a/n),

    so |E| <= max(|lo|, |hi|) for the ends of the bracket.  This needs L(n)
    alone: one running product to z + n.

    Evaluation, at z~, z rounded to wp = ctx.wprec(), where b = z~ + a is
    exact.  ``mpcore._Ball`` tracks the roundings of the bracket's ends, of
    l = ln q and m = ln r for q = b/a and r = a/n rounded, of n! and the
    logs of n!, of prod and of n and the steps after them; each end is then
    moved out by its error, rounding outward.  It takes the running product
    as exact: its n + 1 rounded factors z~ + k and n + 1 products put 2n +
    2 factors (1 + delta)^(+-1), |delta| <= u = 2^(2-wp), into prod, whose
    log is then off by |ln(1 + theta)| <= 2 (2n + 2) u, as (2n + 2) u <=
    1/4 (Higham, Accuracy and Stability of Numerical Algorithms, Lemma
    3.1).  Half an ulp at ctx.bits covers
    the final rounding, and ``mpcore._argument_error`` the rounding of z to
    z~.  The bound is max(|lo|, |hi|) plus the rounding part, rounded up.
    ``diagnostics`` records n, the outward ends bracket_lo and bracket_hi,
    and the rounding part, each end a BigFloat at wp.
    """
    _require_index(n, "n", 2, FACTORIAL_CAP)
    wp = ctx.wprec()
    z_raw = to_raw(z, wp)
    _require_positive(z_raw)
    prod = libmp.fone
    for k in range(0, n + 1):
        prod = libmp.mpf_mul(prod, libmp.mpf_add(z_raw, libmp.from_int(k), wp, _RND), wp, _RND)
    z_ball = _Ball(z_raw, wp)
    val = _ln_factorial(math.factorial(n), wp) + z_ball * _Ball(libmp.from_int(n), wp).log()
    val = val - _Ball(prod, wp).log()
    out = val.widen(libmp.from_man_exp(2 * n + 2, 3 - wp),
                    _argument_error(z_raw, wp)).rounded(ctx.bits)

    a = libmp.from_int(n + 1)
    b = libmp.mpf_add(z_raw, a, 0)
    ell = _Ball.op(libmp.mpf_div(b, a, wp, _RND), wp).log()
    m = _Ball.op(libmp.from_rational(n + 1, n, wp, _RND), wp).log()
    g = _Ball(b, wp) * ell - z_raw + z_ball * m
    lo, hi = (g - ell).ends()[0], (g - ell.shift(-1)).ends()[1]
    reach_lo, reach_hi = libmp.mpf_abs(lo), libmp.mpf_abs(hi)
    reach = reach_lo if libmp.mpf_ge(reach_lo, reach_hi) else reach_hi
    rounding = out.error()
    diagnostics = {"n": n, "bracket_lo": BigFloat(lo, wp), "bracket_hi": BigFloat(hi, wp),
                   "rounding": BigFloat(rounding, wp)}
    return OracleValue(
        value=BigFloat(out.v, ctx.bits),
        method="euler_limit",
        error_bound=BigFloat(libmp.mpf_add(reach, rounding, ctx.bits, _UP), ctx.bits),
        diagnostics=diagnostics,
    )


# -- Weierstrass product ---------------------------------------------------


def weierstrass_inv_gamma(z, K: int, ctx: PrecisionCtx) -> OracleValue:
    """1/Gamma(z) ~ z e^(gamma z) prod_{n=1..K} (1 + z/n) e^(-z/n), with a
    proven bound on the distance from 1/Gamma(z).

    The value is W~ = z~ exp(X~), the sum X~ = gamma~ z~ + s~ standing for
    X = gamma z~ + S, S = sum_{n<=K} (ln(1 + z~/n) - z~/n), at z~, z rounded
    to wp = ctx.wprec().  ``mpcore._Ball`` tracks every step, from each
    x~ = z~/n rounded to wp through its term ln(1 + x~) - x~ and the sum
    to X~ and W~.

    The bound.  The omitted factors give 1/Gamma(z~) = z~ e^X e^-tau with 0
    < tau <= z~^2/(2K): each ln(1 + x) - x lies in [-x^2/2, 0], and
    sum_{n>K} z^2/(2n^2) <= z^2/(2K).  And |ln Gamma(z) - ln Gamma(z~)| <=
    E_arg (``mpcore._argument_error``), so 1/Gamma(z) = W e^-tau for W =
    z~ e^(X + omega), |omega| <= E_arg, which X~ stands for once its error
    is widened by E_arg.  With W~ within e_W of W, |W e^-tau - W~| <= e_W
    + W~ (1 - e^-tau) <= e_W + W~ z~^2/(2K): the rounding part, with half
    an ulp at ctx.bits for the final rounding, and the tail part.  The
    bound is their sum, rounded up; ``diagnostics`` records K and the two
    parts, tail and rounding, as BigFloats at wp.
    """
    _require_index(K, "K", 1, TERMS_CAP, "term cap")
    wp = ctx.wprec()
    z_raw = to_raw(z, wp)
    _require_positive(z_raw)
    s = _Ball(libmp.fzero, wp)
    for n in range(1, K + 1):
        x = _Ball.op(libmp.mpf_div(z_raw, libmp.from_int(n), wp, _RND), wp)
        s = s + (x.log1p() - x)
    exponent = _Ball.op(libmp.mpf_euler(wp, _RND), wp) * z_raw + s
    w = _Ball(z_raw, wp) * exponent.widen(_argument_error(z_raw, wp)).exp()
    out = w.rounded(ctx.bits)
    z2 = libmp.mpf_mul(z_raw, z_raw, 64, _UP)
    tail = libmp.mpf_mul(w.v, libmp.mpf_div(z2, libmp.from_int(2 * K), 64, _UP), 64, _UP)
    rounding = out.error()
    return OracleValue(
        value=BigFloat(out.v, ctx.bits),
        method="weierstrass",
        error_bound=BigFloat(libmp.mpf_add(tail, rounding, ctx.bits, _UP), ctx.bits),
        diagnostics={"K": K, "tail": BigFloat(tail, wp), "rounding": BigFloat(rounding, wp)},
    )


# -- functional-equation consistency checks --------------------------------


def check_duplication(z, ctx: PrecisionCtx) -> BigFloat:
    """Residual of ln Gamma(2z) = (2z-1) ln 2 - (1/2) ln pi
    + ln Gamma(z) + ln Gamma(z + 1/2): the order-2 multiplication formula."""
    return check_multiplication(2, z, ctx)


def check_multiplication(m: int, z, ctx: PrecisionCtx) -> BigFloat:
    """Residual of the order-m multiplication formula
    ln Gamma(mz) = (1-m) ln sqrt(2 pi) + (mz - 1/2) ln m
    + sum_{k=0..m-1} ln Gamma(z + k/m)."""
    return abs(_multiplication_residual(m, z, ctx)[0])


def _multiplication_residual(m: int, z, ctx: PrecisionCtx) -> tuple[BigFloat, BigFloat]:
    """(r, B): the signed residual r of ``check_multiplication``, rounded to
    ctx.bits, and a proven bound B >= |r|.

    The formula holds exactly at z~, z rounded to wp = ctx.wprec(), so r
    is made of the errors of its computed parts, which ``mpcore._Ball``
    tracks, given these:
      - ln Gamma(m z~): the oracle at mz, m z~ rounded, is within its
        error_bound of ln Gamma(mz), which is within E_arg(mz)
        (``mpcore._argument_error``) of ln Gamma(m z~).
      - ln Gamma(z~ + k/m): zk, z~ plus k/m rounded, rounded, lies within
        U(zk)/2 + U(k/m)/2 <= U(zk) of z~ + k/m, as zk >= k/m; so the
        oracle at zk is within its error_bound plus E_arg(zk) at wp - 1.
    """
    if _require_index(m, "m", 2) > 5:
        raise DomainError("m must be one of 2, 3, 4, 5")
    wp = ctx.wprec()
    z_raw = to_raw(z, wp)
    _require_positive(z_raw)
    mz = _Ball(z_raw, wp) * libmp.from_int(m)
    g_mz = lngamma_binet2(BigFloat(mz.v, ctx.bits), ctx)
    ln_m = _Ball(libmp.from_int(m), wp).log()
    rhs = _oracle_half_ln_2pi(wp) * libmp.from_int(1 - m) + (mz - libmp.fhalf) * ln_m
    for k in range(m):
        zk = libmp.mpf_add(z_raw, libmp.from_rational(k, m, wp, _RND), wp, _RND)
        ov = lngamma_binet2(BigFloat(zk, ctx.bits), ctx)
        rhs = rhs + _Ball(ov.value.raw, wp).widen(ov.error_bound.raw, _argument_error(zk, wp - 1))
    lhs = _Ball(g_mz.value.raw, wp).widen(g_mz.error_bound.raw, _argument_error(mz.v, wp))
    return (lhs - rhs).published(ctx)


def gamma_half_integer(k: int, ctx: PrecisionCtx) -> BigFloat:
    """Gamma(k/2) in exact form: (k/2 - 1)! for even k,
    (k-2)!! / 2^((k-1)/2) * sqrt(pi) for odd k."""
    _require_index(k, "k", 1, HALF_INTEGER_CAP, "half-integer cap")
    wp = ctx.wprec()
    if k % 2 == 0:
        val = libmp.from_int(math.factorial(k // 2 - 1), wp, _RND)
        return BigFloat.from_raw(val, ctx)
    # (k-2)!! is odd, so the quotient is already in lowest terms
    q_raw = libmp.from_rational(math.prod(range(k - 2, 1, -2)), 1 << ((k - 1) // 2), wp, _RND)
    sqrt_pi = libmp.mpf_sqrt(libmp.mpf_pi(wp, _RND), wp, _RND)
    return BigFloat.from_raw(libmp.mpf_mul(q_raw, sqrt_pi, wp, _RND), ctx)
