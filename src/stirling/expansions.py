"""Alternative identities and expansions for the factorial.

Four independent routes are implemented:

* Feller's telescoping identity
      ln(n!) - (1/2) ln n = I(n) - I(1/2) + sum_{k<n} (a_k - b_k) + a_n,
  with I(n) = n ln n - n and a_k, b_k the areas between ln t and its
  midpoint step; the series sum_{k>=1}(a_k - b_k) - I(1/2) converges to
  (1/2) ln(2 pi) at rate O(1/K).  The integrals collapse to closed forms
  through the antiderivative t ln t - t, so the identity check is exact up
  to roundoff.  The constant itself sums a_k - b_k as the positive series
  sum_{j>=1} 1/(2j (2j+1) (2k)^(2j)) in integer fixed point, where nothing
  cancels, and rounds once.

* The Marsaglia-Marsaglia series: reversion of w - ln(1+w) = z^2/2 gives
  G(z) = 1 + sum b_k z^k with exact rational b_k, one at a time from the
  recurrence that w w' = z (1 + w) imposes on them, and

      n! ~ n^(n+1) e^(-n) sum_k k b_k (2/n)^(k/2) Gamma(k/2),

  where only odd k contribute (even k multiply the vanishing odd-power
  Gaussian moments integral z^(k-1) e^(-n z^2 / 2) over the real line).

* Namias' ratio F(x) = Gamma(x) / exp(P(x)) and its duplication-induced
  functional equation  F(2n) / (F(n) F(n - 1/2)) = sqrt(e) (1 - 1/(2n))^n.
  Dividing by exp(P) rather than by P itself is forced: P is the log-scale
  main term, and the quotient by P would not satisfy this equation.

* Mermin's product  e^(r_n) = prod_{k>=n} e^(-1) (1 + 1/k)^(k + 1/2),
  evaluated in log space; each factor contributes about 1/(12 k^2), so the
  partial product from n to K sits within 1/(12K) of r_n.  With m = 2k + 1
  the log of one factor is m atanh(1/m) - 1 = sum_{j>=1} 1/((2j+1) m^(2j)),
  a series of positive terms: the partial product is summed by the same
  integer fixed-point kernel as Feller's constant (``fixed._floor_series``,
  which sums blocks of consecutive m as one series each), and rounded once.
  Products for several n and one K sum their common tail once
  (``_mermin_products``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import libmp

from .errors import DomainError
from .fixed import _floor_series
from .mpcore import (_RND, BigFloat, PrecisionCtx, _argument_error, _Ball, _exp_raw, _log_raw,
                     _require_index, to_raw)
from .oracle import (FACTORIAL_CAP, TERMS_CAP, gamma_half_integer,
                     ln_factorial_range, lngamma_binet2)
from .series import _main_term

__all__ = [
    "FellerTerm",
    "MarsagliaSeries",
    "feller_term",
    "feller_identity_residual",
    "feller_constant",
    "marsaglia_coeffs",
    "reversion_residual",
    "marsaglia_factorial",
    "namias_residual",
    "mermin_partial_product",
]

MARSAGLIA_CAP = 200


# -- Feller ---------------------------------------------------------------


@dataclass(frozen=True)
class FellerTerm:
    k: int
    a_k: BigFloat
    b_k: BigFloat


def _feller_ab(k: int, wp: int, ln_minus: _Ball | None = None):
    """Closed forms via t ln t - t:
    a_k = (1/2) ln k - k ln k + (k - 1/2) ln(k - 1/2) + 1/2
    b_k = (k + 1/2) ln(k + 1/2) - k ln k - (1/2) ln k - 1/2
    at wp bits with their errors, for k < 2^(wp-1), where k -+ 1/2 are
    exact; then ln k and ln(k + 1/2), so that a sweep takes each log once:
    ``ln_minus``, ln(k - 1/2), is the ln(k + 1/2) of k - 1."""
    def ln(x):
        return _Ball(x, wp).log()

    k_raw = libmp.from_int(k)
    k_minus, k_plus = libmp.mpf_sub(k_raw, libmp.fhalf), libmp.mpf_add(k_raw, libmp.fhalf)
    lnk, ln_plus, ln_minus = ln(k_raw), ln(k_plus), ln_minus or ln(k_minus)
    k_lnk, half_lnk = lnk * k_raw, lnk.shift(-1)
    a = half_lnk - k_lnk + ln_minus * k_minus + libmp.fhalf
    b = ln_plus * k_plus - k_lnk - half_lnk - libmp.fhalf
    return a, b, lnk, ln_plus


def feller_term(k: int, ctx: PrecisionCtx) -> FellerTerm:
    _require_index(k, "k", 1)
    wp = ctx.wprec()
    a, b, _, _ = _feller_ab(k, wp)
    return FellerTerm(k=k, a_k=BigFloat.from_raw(a.v, ctx), b_k=BigFloat.from_raw(b.v, ctx))


def _i_half(wp: int) -> _Ball:
    """I(1/2) = -(1/2) ln 2 - 1/2"""
    return -(_Ball(libmp.from_int(2), wp).log().shift(-1) + libmp.fhalf)


def feller_identity_residual(n: int, ctx: PrecisionCtx) -> BigFloat:
    """|ln(n!) - (1/2) ln n - [I(n) - I(1/2) + sum_{k<n}(a_k - b_k) + a_n]|,
    with ln(n!) exact; only roundoff should remain.  It is the last entry of
    feller_residual_sweep(n), so the two never disagree."""
    _require_index(n, "n", 1, FACTORIAL_CAP, "factorial cap")
    return feller_residual_sweep(n, ctx)[-1]


def feller_residual_sweep(n_max: int, ctx: PrecisionCtx) -> list[BigFloat]:
    """feller_identity_residual for n = 1..n_max, sharing one pass over the
    a/b terms and one running exact factorial."""
    return [abs(r) for r, _ in _feller_residuals(n_max, ctx)]


def _feller_residuals(n_max: int, ctx: PrecisionCtx):
    """Yield (r, B) for n = 1..n_max: the signed residual r of
    ``feller_identity_residual(n)``, rounded to ctx.bits, and a proven bound
    B >= |r|.

    The identity is exact, so r is made of the roundings that
    ``mpcore._Ball`` tracks, given ln n!, the log of n! rounded to wp =
    ctx.wprec(), a relative 2^-wp off, so within U(ln n!) + 2^(1-wp) of
    ln n!.
    """
    _require_index(n_max, "n_max", 1, FACTORIAL_CAP, "factorial cap")
    wp = ctx.wprec()
    i_half, s, ln_minus = _i_half(wp), _Ball(libmp.fzero, wp), None  # s = sum_{k<n} (a_k - b_k)
    relative = libmp.from_man_exp(1, 1 - wp)  # of n! rounded
    for n, lnfact in ln_factorial_range(n_max, wp):
        a_n, b_n, lnn, ln_minus = _feller_ab(n, wp, ln_minus)
        n_raw = libmp.from_int(n)
        rhs = lnn * n_raw - n_raw - i_half + s + a_n
        lhs = _Ball.op(lnfact, wp).widen(relative) - lnn.shift(-1)
        yield (lhs - rhs).published(ctx)
        s = s + (a_n - b_n)


def feller_constant(K: int, ctx: PrecisionCtx) -> BigFloat:
    """Partial sum sum_{k=1..K} (a_k - b_k) - I(1/2) -> (1/2) ln(2 pi).

    With x = 1/(2k) the closed forms collapse to
        a_k - b_k = 1 - [(k + 1/2) ln(1 + x) - (k - 1/2) ln(1 - x)]
                  = sum_{j>=1} x^(2j) / (2j (2j + 1)),
    a series of positive terms, so nothing cancels.  It is summed over the
    even m = 2k, k = 1..K, by ``fixed._floor_series`` with d_j = 2j (2j +
    1), so the sum lies in [s, s + D) 2^-W, D at most what the m would add
    one by one.  An m alone adds at most W/2 terms, as 4^j > 2^W past that,
    so D <= K (W + 1) <= K (wp + 64) whenever K (wp + 64) < 2^58, which
    K <= TERMS_CAP keeps for any wp < 2^37.  The sum is at least a_1 - b_1
    > 1/24 > 2^-5, so W = wp + 5 + bitlen(K (wp + 64)) keeps its error
    below 2^-(wp+5), for the working precision wp = ctx.wprec() = bits +
    32.  I(1/2) is then subtracted at wp, and the result rounded once to
    ctx.

    The result is within one ulp at ctx.bits of the partial sum, 2^-bits.
    The partial sum lies in [0.89, 0.92], and so does -I(1/2) = (ln 2)/2 +
    1/2, so ``mpcore._Ball`` charges ln 2 and the two roundings after it
    2^-wp each, the halving one half of that: with the series, under 2.6
    2^-wp at wp, and the rounding to ctx.bits adds at most 2^-(bits+1).
    """
    return BigFloat.from_raw(_feller_constant(K, ctx).v, ctx)


def _feller_constant(K: int, ctx: PrecisionCtx) -> _Ball:
    """The partial sum of ``feller_constant`` at wp, with its error."""
    _require_index(K, "K", 1, TERMS_CAP, "term cap")
    wp = ctx.wprec()
    W = wp + 5 + (K * (wp + 64)).bit_length()
    divisors = tuple(2 * j * (2 * j + 1) for j in range(1, W // 2 + 2))
    s = _floor_series(range(2, 2 * K + 1, 2), divisors, W)
    total = _Ball(libmp.from_man_exp(s, -W), wp).widen(libmp.from_man_exp(1, -(wp + 5)))
    return total - _i_half(wp)


# -- Marsaglia-Marsaglia ----------------------------------------------------


@dataclass(frozen=True)
class MarsagliaSeries:
    """Exact coefficients b_0..b_K of G(z) = 1 + w(z)."""

    coeffs: tuple[Fraction, ...]

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1


def _ps_log1p(W: list[Fraction], K: int) -> list[Fraction]:
    """ln(1 + w) through degree K for a series with W[0] == 0: the integral
    of q = w'/(1 + w), whose coefficients solve (1 + w) q = w' term by
    term, q_i = (i + 1) W_(i+1) - sum_(j=1..i) W_j q_(i-j)."""
    W = list(W[:K + 1]) + [Fraction(0)] * (K + 1 - len(W))
    q: list[Fraction] = []
    for i in range(K):
        q.append((i + 1) * W[i + 1] - sum((W[j] * q[i - j] for j in range(1, i + 1) if W[j]),
                                          Fraction(0)))
    return [Fraction(0)] + [q[i - 1] / i for i in range(1, K + 1)]


def marsaglia_coeffs(K: int) -> MarsagliaSeries:
    """Exact b_0..b_K of G(z) = 1 + w(z), with w - ln(1+w) = z^2/2 on the
    branch with G'(0) = 1 (so w ~ +z).

    Differentiating gives w' - w'/(1+w) = z, that is w w' = z (1 + w).
    With w = sum_{k>=1} c_k z^k and c_1 = 1, the coefficient of z^n for
    n >= 2 reads sum_{i+j=n+1} j c_i c_j = c_{n-1}.  The two terms with
    i = 1 or j = 1 give (n + 1) c_n, so

        (n + 1) c_n = c_{n-1} - sum_{i=2..n-1} (n + 1 - i) c_i c_{n+1-i}.

    Pairing i with n + 1 - i turns the weights into (n + 1)/2 each:
    c_n = c_{n-1}/(n + 1) - S_n/2 with S_n = sum_{i=2..n-1} c_i c_{n+1-i},
    of which only half the products need computing.
    """
    _require_index(K, "K", 0, MARSAGLIA_CAP, "series cap")
    c = [Fraction(1), Fraction(1)]  # b_0 = 1, then c_1 = 1
    for n in range(2, K + 1):
        # S_n / 2: the products with i < n + 1 - i, plus half the middle one
        half_s = sum((c[i] * c[n + 1 - i] for i in range(2, (n + 2) // 2)),
                     Fraction(0))
        if n % 2:
            half_s += c[(n + 1) // 2] ** 2 / 2
        c.append(c[n - 1] / (n + 1) - half_s)
    return MarsagliaSeries(coeffs=tuple(c[:K + 1]))


def reversion_residual(series: MarsagliaSeries) -> list[Fraction]:
    """Exact coefficients of w - ln(1+w) - z^2/2 through order K+1;
    all must vanish for a correct reversion.  The logarithm is taken as a
    power series of its own, independent of the recurrence that built the
    coefficients."""
    K = series.order + 1
    w = [Fraction(0)] + list(series.coeffs[1:]) + [Fraction(0)]
    out = [wi - li for wi, li in zip(w, _ps_log1p(w, K))]
    if K >= 2:
        out[2] -= Fraction(1, 2)
    return out


def marsaglia_factorial(n: int, K: int, ctx: PrecisionCtx) -> BigFloat:
    """n^(n+1) e^(-n) sum_{k<=K} k b_k (2/n)^(k/2) Gamma(k/2).

    Terms with even k multiply a vanishing odd Gaussian moment and
    contribute nothing, so the sum effectively runs over odd k.
    """
    _require_index(n, "n", 2)
    _require_index(K, "K", 1)
    series = marsaglia_coeffs(K)
    wp = ctx.wprec()
    n_raw = libmp.from_int(n)
    root = libmp.mpf_sqrt(libmp.from_rational(2, n, wp, _RND), wp, _RND)
    s = libmp.fzero
    for k in range(1, K + 1, 2):
        c = series.coeffs[k] * k
        c_raw = libmp.from_rational(c.numerator, c.denominator, wp, _RND)
        term = libmp.mpf_mul(c_raw, libmp.mpf_pow_int(root, k, wp, _RND), wp, _RND)
        gamma_k2 = gamma_half_integer(k, PrecisionCtx(wp)).raw
        s = libmp.mpf_add(s, libmp.mpf_mul(term, gamma_k2, wp, _RND), wp, _RND)
    lnn = _log_raw(n_raw, wp)
    lead_log = libmp.mpf_sub(libmp.mpf_mul_int(lnn, n + 1, wp, _RND), n_raw, wp, _RND)
    lead = _exp_raw(lead_log, wp)
    return BigFloat.from_raw(libmp.mpf_mul(lead, s, wp, _RND), ctx)


# -- Namias ------------------------------------------------------------------


def namias_residual(n, ctx: PrecisionCtx) -> BigFloat:
    """|F(2n)/(F(n) F(n-1/2)) - sqrt(e) (1 - 1/(2n))^n| with
    F(x) = Gamma(x)/exp(P(x)), Gamma from the integral oracle."""
    return abs(_namias_residual(n, ctx)[0])


def _namias_residual(n, ctx: PrecisionCtx) -> tuple[BigFloat, BigFloat]:
    """(r, B): the signed residual r of ``namias_residual``, rounded to
    ctx.bits, and a proven bound B >= |r|.

    With J(x) = ln Gamma(x) - P(x) the equation reads a = b, for a = J(2n)
    - J(n) - J(n - 1/2) and b = 1/2 + n ln(1 - 1/(2n)), and it holds
    exactly at n~, n rounded to wp = ctx.wprec().  ``mpcore._Ball`` tracks
    the errors of a~ and b~, given these:
      - Each J(x) is the oracle's value, within its error_bound, less P(x)
        as ``main_term_P`` gives it: ``series._main_term`` rounded to
        ctx.bits.
      - x = n~ - 1/2 is rounded to nearest, so ln Gamma and P, whose
        derivative ln x - 1/(2x) is bounded as psi is in the proof of
        ``mpcore._argument_error``, move by at most E_arg(x) each.
      - r: lhs and rhs are exp(a~) and exp(b~) within U of each.  As a = b,
        |exp(a~) - exp(b~)| <= e^xi (|a~ - a| + |b~ - b|) for some xi
        between a~ and b~, and e^xi <= max(lhs, rhs) + U(max(lhs, rhs)).
    """
    wp = ctx.wprec()
    n_raw = to_raw(n, wp)
    if libmp.mpf_le(n_raw, libmp.fhalf):
        raise DomainError("needs n > 1/2")

    def j_log(x_raw):
        ov = lngamma_binet2(BigFloat(x_raw, ctx.bits), ctx)
        p = _main_term(_Ball(x_raw, wp)).rounded(ctx.bits)
        return _Ball(ov.value.raw, wp).widen(ov.error_bound.raw) - p

    n_half = libmp.mpf_sub(n_raw, libmp.fhalf, wp, _RND)
    a = j_log(libmp.mpf_shift(n_raw, 1)) - j_log(n_raw) - j_log(n_half)
    a = a.widen(libmp.mpf_shift(_argument_error(n_half, wp), 1))
    # b = 1/2 + n ln(1 - 1/(2n))
    y = _Ball.op(libmp.mpf_neg(libmp.mpf_div(libmp.fhalf, n_raw, wp, _RND)), wp)
    b = _Ball(n_raw, wp) * y.log1p() + libmp.fhalf
    lhs, rhs = _Ball(a.v, wp).exp(), _Ball(b.v, wp).exp()
    top = lhs if libmp.mpf_ge(lhs.v, rhs.v) else rhs
    mvt = libmp.mpf_mul(libmp.mpf_add(top.v, top.error()), libmp.mpf_add(a.error(), b.error()))
    return (lhs - rhs).widen(mvt).published(ctx)


# -- Mermin -------------------------------------------------------------------


def mermin_partial_product(n: int, K: int, ctx: PrecisionCtx) -> BigFloat:
    """Log of prod_{k=n..K} e^(-1) (1 + 1/k)^(k+1/2): the sum of
    (k + 1/2) ln(1 + 1/k) - 1.  Converges upward to r_n with tail < 1/(12K).

    With m = 2k + 1 each summand is m atanh(1/m) - 1, the positive series
    sum_{j>=1} 1/((2j+1) m^(2j)), summed over the odd m = 2n+1..2K+1 by
    ``fixed._floor_series`` with d_j = 2j + 1 and rounded once; see
    ``_mermin_products``, of which this is the call with ns = (n,).
    """
    return _mermin_products((n,), K, ctx)[0]


def _mermin_products(ns, K: int, ctx: PrecisionCtx) -> list[BigFloat]:
    """[mermin_partial_product(n, K, ctx) for n in ns], the tail that the
    sums share summed once: over m = 2N+1..2K+1, N = max(ns), and each
    shorter sum adds its head, m = 2n+1..2n'-1 for the next larger n', as
    its own ``fixed._floor_series`` call.  Every sum is taken at one W and
    rounded once to ctx; for ns = (n,) that W is the one of
    ``mermin_partial_product`` alone.

    Each piece lies in [s, s + D') 2^-W, D' at most what its m would add
    one by one, so the sum for n, whatever its pieces, lies in [s, s + D)
    2^-W with D at most the sum over m = 2n+1..2K+1 of what one m adds.
    With wp = ctx.wprec() + 2 bitlen(2N+1) + 2, from the largest n, and W =
    wp + bitlen((K - n0 + 1) wp), n0 = min(ns):
      - D <= (K - n + 1) wp <= (K - n0 + 1) wp < 2^(W - wp): as m^2 >= 9,
        an m alone adds at most L = W / (2 log2 3) terms and loses less
        than 2 L + 1, which is at most wp as K <= TERMS_CAP and wp >= 102.
        So the error is below 2^-wp.
      - The sum for n is at least its first term 1/(3(2n+1)^2) >
        2^-(2 bitlen(2n+1) + 2), and wp >= ctx.wprec() + 2 bitlen(2n+1) +
        2, so the error is below 2^-ctx.wprec() = 2^-(bits + 32) relative
        to the sum before its rounding.
    """
    ns = [_require_index(n, "n", 1) for n in ns]
    _require_index(K, "K", max(ns), TERMS_CAP, "term cap", low_name="n")
    wp = ctx.wprec() + 2 * (2 * max(ns) + 1).bit_length() + 2
    W = wp + ((K - min(ns) + 1) * wp).bit_length()
    divisors = range(3, W + 4, 2)
    sums, s, top = {}, 0, K + 1  # s sums m = 2 top + 1 .. 2K + 1
    for n in sorted(set(ns), reverse=True):
        s += _floor_series(range(2 * n + 1, 2 * top + 1, 2), divisors, W)
        sums[n], top = s, n
    return [BigFloat.from_raw(libmp.from_man_exp(sums[n], -W), ctx) for n in ns]
