"""Integer fixed-point series, each a chain of floors under one lemma.

A chain is an integer term P_j in units of some 2^-W, the next term
P_(j+1) = floor(P_j M 2^-W) or floor(P_j / q), and a sum of
floor(P_j / d_j) up to the first P_j = 0 (Brent & Zimmermann, Modern
Computer Arithmetic, 2010, ch. 4).  Every floor rounds down, so a chain
never exceeds its exact values.  Each kernel here cites the chain lemma
below with its own constants and proves its own error in its own units; its
callers in ``bounds``, ``expansions``, ``quadrature``, ``oracle`` and
``mpcore`` prove only how they use that error.  ``_exp`` and ``_log`` are
the package's one e^x and one ln x: ``quadrature`` takes them for its
nodes, and every other module through ``mpcore._exp_raw`` and
``mpcore._log_raw``.  The kernels:
  - the walk ``_exp_walk`` of e^(kc), with a lemma of its own, and the
    bracket of e^x of ``_exp_bracket``;
  - the exact floor of 2^p ln 2 (``_ln2``), and one table per precision
    of e^(k 2^-s) for s = 7, 14 and 21, built by the walk
    (``_exp_table``), on which ``_exp`` and ``_log`` reduce their argument
    (Johansson, "Efficient implementation of elementary functions in the
    medium-precision range", ARITH 2015; Brent & Zimmermann, sec. 4.3-4.4)
    and sum the Taylor series of e^r (``_exp_series``) or of atanh
    (``_log_fixed``), then round e^y and ln v correctly by Ziv's test on
    their proven bound (``_ziv_round``);
  - -ln(1 - q)/q (``_log1m_ratio``) and the Bernoulli series of
    ln((1 - e^-x)/x) (``_lambda_series``) for the Binet nodes, and their
    moments and the moments' series in 1/z (``_moments``,
    ``_moment_series``);
  - the series in 1/m^2 summed in blocks of m (``_floor_series``).

Lemma (floor chain).  Let p_0 >= 0 be real and p_(j+1) = rho_j p_j, with
exact ratios 0 <= rho_j <= rho.  Let the integers P_j >= 0 follow P_(j+1)
= floor(P_j mu_j), mu_j >= 0 the ratio as computed (M 2^-W, 1/q, or
M 2^-W / j, as floor(floor(a) / j) = floor(a / j)), with 0 <= rho_j -
mu_j <= delta.  If 0 <= p_0 - P_0 <= e_0, then:

  (a) 0 <= p_j - P_j < e_j for j >= 1, e_(j+1) = rho e_j + delta p_j + 1,
      or step by step rho_j e_j + (rho_j - mu_j) p_j + 1.  With delta = 0, rho < 1 and e_0 <= 1/(1 - rho), every e_j <=
      1/(1 - rho).  If P_0 = p_0 and every mu_j = rho_j = 1/q_j for an
      integer q_j, the floors nest: P_j = floor(p_j), and p_j - P_j < 1.
  (b) From the first J with P_J = 0 on, every P_j is 0.  For rho < 1 and
      divisors d_j >= 1, s = sum_(j<J) floor(P_j / d_j) has

          0 <= sum_(j>=0) p_j / d_j - s
            <= sum_(j<J) (e_j + d_j - 1) / d_j + e_J / (d (1 - rho)),

      d = inf_(j>=J) d_j, and < in place of the last <= if J >= 1.

Proof.  (a) P_j <= p_j and mu_j <= rho_j give P_j mu_j <= p_(j+1), so
P_(j+1) <= p_(j+1), and p_(j+1) - P_(j+1) < p_(j+1) - P_j mu_j + 1 =
rho_j (p_j - P_j) + (rho_j - mu_j) P_j + 1, at most rho_j e_j + (rho_j -
mu_j) p_j + 1 <= rho e_j + delta p_j + 1.  With delta = 0, e_j <= 1/(1 - rho) gives e_(j+1) <= 1/(1 - rho).  (b)
Term j < J loses p_j / d_j - floor(P_j / d_j) = (p_j - P_j) / d_j + (P_j
mod d_j) / d_j <= (e_j + d_j - 1) / d_j, and the terms from J on add up
to at most p_J / (d (1 - rho)), where p_J = p_J - P_J.
"""

import functools
import math
from bisect import bisect_left
from operator import mul


def _exp_bracket(lo: int, hi: int, W: int) -> tuple[int, int]:
    """(e_lo, e_hi) with e_lo <= 2^W e^x <= e_hi for x in [lo, hi] 2^-W,
    0 <= lo <= hi < 2^W / 12.

    The Taylor series of e^x at x = lo 2^-W, t_0 = 2^W and t_j =
    floor(t_(j-1) lo 2^-W / j) to the first t_J = 0, sums to s, a chain
    with rho_j = x / j < 1/12, delta = e_0 = 0 and every d_j = 1, so each
    e_j < 12/11 by the chain lemma, and 2^W e^x lies in [s, s + 12(J - 1)/11 + 1.2),
    within [s, s + 2J).  As e^y <= 1 + 2y for 0 <= y <= 1, e^(hi 2^-W) <=
    (s + 2J) (1 + 2 (hi - lo) 2^-W).
    """
    s = t = 1 << W
    j = 0
    while t:
        j += 1
        t = (t * lo >> W) // j
        s += t
    return s, -(-(s + 2 * j) * ((1 << W) + 2 * (hi - lo)) >> W)


def _exp_walk(S: int, W: int, n: int):
    """Yield B_0, ..., B_n, B_k within 3.04 k max(1, e^(kc)) of 2^W e^(kc), in
    units of 2^-W and never above it, for any real c with 0 <= 2^W e^c - S
    < 2.04: the chain B_0 = 2^W, B_(k+1) = floor(B_k S 2^-W).

    Proof, in units of 2^-W.  The chain has p_k = 2^W e^(kc), rho = e^c,
    mu = S 2^-W, 0 <= delta = rho - mu < 2.04 2^-W and e_0 = 0, so by the
    chain lemma 0 <= p_k - B_k < e_k with e_(k+1) = rho e_k + delta p_k + 1.
    For c <= 0, rho <= 1 and p_k <= 2^W, so e_(k+1) < e_k + 3.04.  For c >
    0, p_k >= 2^W, and r_k = e_k / p_k has r_(k+1) = r_k + delta / rho + 1 /
    p_(k+1) < r_k + 3.04 2^-W.  Either way e_k < 3.04 k max(1, e^(kc)).
    """
    B = 1 << W
    yield B
    for _ in range(n):
        B = B * S >> W
        yield B


def _scaled(man: int, shift: int) -> int:
    """floor(man 2^shift)."""
    return man << shift if shift >= 0 else man >> -shift


def _ln2_floor(p: int) -> int:
    """floor(2^p ln 2), exactly, for p >= 0.

    ln 2 = 2 atanh(1/3) = sum_(j>=0) 2 / ((2j + 1) 3^(2j+1)).  In units of
    2^-W, the chain 2^(W+1), floor(P / 3), then floor(P / 9) at each step
    nests by the chain lemma's (a): its j-th value after the first is P_j =
    floor(p_j), p_j = 2^(W+1) / 3^(2j+1).  s = sum_(j<J) floor(P_j / (2j +
    1)), to the first P_J = 0, loses less than 1 a term, as floor(P_j / d)
    = floor(p_j / d), and the terms from J on add up to less than (9/8) /
    (2J + 1) <= 3/8, as p_J < 1.  So 2^W ln 2 lies in [s, s + J + 1), and
    as no multiple of 2^(W-p) lies strictly between s + J and s + J + 1,
    floor(2^p ln 2) lies between floor(s 2^(p-W)) and floor((s + J)
    2^(p-W)).  Where those differ, W widens by 32 bits; as 2^p ln 2 is not
    an integer and the bracket narrows to 0, some W makes them agree.
    """
    W = p + 16
    while True:
        s, P, J = 0, (1 << (W + 1)) // 3, 0
        while P:
            s += P // (2 * J + 1)
            P //= 9
            J += 1
        if s >> (W - p) == (s + J) >> (W - p):
            return s >> (W - p)
        W += 32


_ln2_memo = (0, 0)  # (P, floor(2^P ln 2)) at the widest P taken so far


def _ln2(p: int) -> int:
    """floor(2^p ln 2) for p >= 0, shifted down from the widest one taken so
    far, as floor(floor(2^P x) 2^(p-P)) = floor(2^p x) for p <= P.  A p
    past it widens it to P = p + p // 16 + 64, so a caller that takes it
    first at its widest p, or near it, computes it once."""
    global _ln2_memo
    P, L = _ln2_memo
    if p > P:
        P = p + p // 16 + 64
        L = _ln2_floor(P)
        _ln2_memo = P, L
    return L >> (P - p)


_TABLE_LEVELS = ((7, 89), (14, 128), (21, 128))  # (s, n): e^(k 2^-s) for k < n
_GUARD = 20  # bits of ``_exp`` and ``_log`` past the precision they round to

_table_memo = (0, (), [])  # ``_exp_table`` at the widest W taken so far


def _exp_table(w: int) -> tuple[int, tuple, list]:
    """(W, levels, cuts) with W >= w + 24: levels[i][k] = B_k, k < n, for
    the i-th (s, n) of ``_TABLE_LEVELS``, and cuts the increasing list of
    floor(2^(W+32) / B_k) over the first level.  Built at W = w + w // 16
    + 64 when the table held is narrower than w + 24, and kept.

    B_k comes from the walk ``_exp_walk`` with c = 2^-s and its ratio S =
    floor(s' 2^-g), g = bitlen(W) + 1, for s' of ``_exp_bracket(2^(V-s),
    2^(V-s), V)`` at V = W + g: there 2^V e^c lies in [s', s' + 2J), J <=
    V/7 + 1, and 2J < 2^g, so 0 <= 2^W e^c - S < 2.  By the walk lemma
    0 <= 2^W e^(kc) - B_k < 3.04 k e^(kc) < 387 e^(kc), and shifted to a
    w <= W - 24, floor(B_k 2^(w-W)) is below 2^w e^(kc) by less than 1 +
    387 2^-24 e^(kc): a relative (1 + 2^-15) 2^-w at most, as e^(kc) >= 1.
    So the table's entries depend on W, but ``_exp`` and ``_log``, which
    round correctly, do not.
    """
    global _table_memo
    memo = _table_memo
    if memo[0] < w + 24:
        W = w + w // 16 + 64
        g = W.bit_length() + 1
        levels = []
        for s, n in _TABLE_LEVELS:
            c = 1 << (W + g - s)  # 2^-s at V = W + g bits
            levels.append(tuple(_exp_walk(_exp_bracket(c, c, W + g)[0] >> g, W, n - 1)))
        memo = _table_memo = W, tuple(levels), [(1 << (W + 32)) // B for B in reversed(levels[0])]
    return memo


def _ziv_round(M: int, D: int, e: int, prec: int) -> tuple[int, int] | None:
    """``_round_nearest`` of M 2^e, sign apart, if every real within D 2^e
    of it rounds alike at prec bits, else None (Ziv's test).

    Let A = |M| and sh = bitlen A - prec - 1, the place of the first bit
    rounding drops.  If floor((A - D - 1) 2^-sh) = floor((A + D) 2^-sh) =
    h, every real u with |u - A| < D lies strictly inside (h 2^sh, (h + 1)
    2^sh), a block of one binade, as h >= 2^prec: all of them keep the
    same prec bits and the same first dropped bit, and none is a tie, so
    all round as A does.
    """
    A = abs(M)
    sh = A.bit_length() - prec - 1
    if sh < 0 or (A - D - 1) >> sh != (A + D) >> sh:
        return None
    man, e = _round_nearest(A, e, prec)
    return (-man if M < 0 else man), e


def _exp(Y: int, cp: int, prec: int) -> tuple[int, int]:
    """(man, e): e^y for y = Y 2^-cp, rounded to nearest at prec >= 64
    bits, as man 2^e with man <= 2^prec (not normalised): the one correct
    rounding, which no tie can make ambiguous, as e^y is irrational for y
    != 0.  So it depends on (Y, cp, prec) alone, not on the tables built
    before it.

    Proof, in units of 2^-w, w = prec + 20 and then 32 bits more each time
    Ziv's test (``_ziv_round``) fails, with mag the least integer such that
    |y| < 2^mag.  If y = 0, e^y = 1.  If mag < -prec - 2, e^y is within
    2^-(prec+2) (1 + 2^-60) of 1, and the nearest values to 1 at prec bits
    are 2^-prec below it and 2^(1-prec) above.  Else:
      (R) q = w + max(0, mag) + 2, L = floor(2^q ln 2) = ``_ln2(q)``, n, R
        = divmod(floor(y 2^q), L) and X = floor(R 2^(w-q)), so y = n ln 2
        + x' with x' = (R + f0 - n f1) 2^-q, f0, f1 in [0, 1), and x = X
        2^-w in [0, ln 2) has |x - x'| < (1 + |n|) 2^-q + 2^-w < 1.75
        2^-w, as |n| < 1.45 2^mag + 1 for mag >= 1 and |n| <= 2 else.
        e^y = 2^n e^x', and 2^w |e^x' - e^x| < 2 (e^(1.75 2^-w) - 1) 2^w <
        3.51.
      (K) ``_exp_fixed`` returns M <= 2^w e^x, short of it by less than a
        relative (7.02 + w/2688) 2^-w, so by less than 14.04 + w/1344, as
        e^x < 2.
    So |2^w e^x' - M| < 17.6 + w/1344 < 19 + floor(w / 1024) = D, and
    Ziv's test with that D returns the rounding of e^y = 2^n e^x'.
    """
    if not Y:
        return 1, 0
    mag = Y.bit_length() - cp
    if mag < -prec - 2:
        return 1, 0
    w = prec + _GUARD
    while True:
        q = w + max(0, mag) + 2
        n, R = divmod(_scaled(Y, q - cp), _ln2(q))
        got = _ziv_round(_exp_fixed(R >> (q - w), w), 19 + (w >> 10), n - w, prec)
        if got:
            return got
        w += 32


def _exp_fixed(X: int, w: int) -> int:
    """M <= 2^w e^x for x = X 2^-w in [0, ln 2), short of it by less than
    a relative (7.02 + w/2688) 2^-w: e^x = e^(k1 2^-7) e^(k2 2^-14)
    e^(k3 2^-21) e^r for the bits k1, k2, k3 of X below 2^-7, 2^-14 and
    2^-21 and r = x mod 2^-21, with e^r from ``_exp_series`` and each
    other factor from ``_exp_table``.

    Proof.  Every value here is at most its exact value, and each is at
    least 2^w (1 - 2^-50), as every factor is e^(>= 0).  ``_exp_series``
    is short by a relative (1.015 + w/2688) 2^-w, each of the three
    table entries by (1 + 2^-15) 2^-w, and each of the three products'
    floors by one unit of a value above 2^w (1 - 2^-50): 1.0001 2^-w.
    These add up, as (1 - a)(1 - b) >= 1 - a - b.
    """
    W, levels, _ = _exp_table(w)
    M = _exp_series(X & ((1 << (w - 21)) - 1), w)
    for (s, _), level in zip(_TABLE_LEVELS, levels):
        k = X >> (w - s) & 127
        if k:
            M = M * (level[k] >> (W - w)) >> w
    return M


def _exp_series(R: int, w: int) -> int:
    """M <= 2^w e^r for r = R 2^-w in [0, 2^-21), short of it by less than
    a relative (1.015 + w/2688) 2^-w: the Taylor series of e^r in two
    halves at P = w + 8 bits.

    Proof, in units of 2^-P.  Z = 2^P r exactly and Z2 = floor(Z^2 2^-P).
    The terms r^k / k!, k >= 2, form one chain of the chain lemma: from
    P_0 = Z2, so e_0 < 1, steps / k and / (k + 1), the first summed to s0
    ~ 2^P cosh r and the second to s1 ~ 2^P sinh(r) / r (both from 2^P),
    then times Z2 2^-P, with rho = r^2 < 2^-42 and delta p_j < 2^-42.  So
    every e_j < 2: a step / k takes e to e/k + 1, a product to below e
    2^-42 + 1 + 2^-42.  Step i of the loop starts from P_i <= 2^(P - 42(i
    + 1)), so it runs J <= P/42 times and adds 2J terms, each short by
    less than 2, and the terms past them add less than 2.  So s0 + s1 r
    2^P is short of 2^P e^r by less than 4J + 2, and s0 + floor(s1 Z 2^-P)
    by less than 4J + 3, a relative (4J + 3) 2^-P as e^r >= 1; the last
    floor adds 2^-w, and (4 P/42 + 3) 2^-(w+8) + 2^-w < (1.015 + w/2688)
    2^-w.
    """
    P = w + 8
    Z = R << 8
    s0 = s1 = 1 << P
    a = z2 = Z * Z >> P
    k = 2
    while a:
        a //= k
        s0 += a
        a //= k + 1
        s1 += a
        k += 2
        a = a * z2 >> P
    return s0 + (s1 * Z >> P) >> 8


def _log(V: int, e0: int, prec: int) -> tuple[int, int]:
    """(man, e): ln v for v = V 2^e0, V >= 1, rounded to nearest at prec >=
    64 bits, as man 2^e with |man| <= 2^prec (not normalised), man < 0 for
    v < 1, and (0, 0) for v = 1: the one correct rounding, as ln v is
    irrational for rational v != 1, so it depends on (V, e0, prec) alone.

    v = 2^E f with E = e0 + bitlen V and f in [1/2, 1).  ``_log_fixed``
    returns A and D with |2^w ln v - A| < D, and Ziv's test
    (``_ziv_round``) rounds it, at w = prec + 20 + c and then 32 bits more
    each time the test fails, with c such that |ln v| >= 2^-c: c = 1 (ln
    2 > 1/2) but for v in [1/2, 2), E = 0 or 1, where |ln v| >= |v - 1| /
    2 >= 2^(1-c) for c = bitlen V - bitlen |V - 2^-e0| + 2.  So A has at
    least prec + 20 bits.
    """
    bc = V.bit_length()
    E = e0 + bc
    c = 1
    if E in (0, 1):
        d = abs(V - (1 << -e0))
        if not d:
            return 0, 0
        c = bc - d.bit_length() + 2
    w = prec + _GUARD + c
    while True:
        got = _ziv_round(*_log_fixed(V, bc, E, w), -w, prec)
        if got:
            return got
        w += 32


def _log_fixed(V: int, bc: int, E: int, w: int) -> tuple[int, int]:
    """(A, D), |2^w ln v - A| < D, for v = V 2^(E - bc) = 2^E f, f in [1/2,
    1), and w >= 48: ln v = E ln 2 - K 2^-21 + ln z for z = f e^(K 2^-21),
    K = 2^14 k1 + 2^7 k2 + k3, ln z = 2 atanh((z - 1) / (z + 1)).

    k1 is the last k with cut_k = floor(2^(W+32) / B_k) >= floor(f 2^32),
    found by bisection over ``_exp_table``'s cuts, so that z1 = f
    e^(k1/128), as computed, lies in (0.99, 1 + 2^-30): from cut_k1 >=
    floor(f 2^32), f B_k1 2^-W < 1 + 2^-30, and from cut_(k1+1) < floor(f
    2^32), f > e^(-(k1+1)/128) - 2^-32 (for k1 = 88, f >= 1/2 does it).
    k2 2^7 + k3 is floor(2^21 l), clipped to [0, 2^14), for l ~ -ln z1 =
    d + d^2/2 + d^3/3 + ..., d = 1 - z1, taken from 48 top bits of d;
    then z lies in (0.98, 1.008), and |z - 1| is near 2^-21 at most, which
    speeds the series but is not needed for its bound.

    Proof, in units of 2^-w.  Z = floor(f 2^w) times the table entries
    for k1, k2, k3 (``_exp_table``), each product floored, is short of
    2^w z by a relative eta < 2 2^-w + 3 (1 + 2^-15) 2^-w + 3 2.01 2^-w <
    11.1 2^-w, as every partial product is above 2^w (1/2 - 2^-40): so 0
    <= 2^w (ln z - ln z') < 11.2 for z' = Z 2^-w.  |s| = |z' - 1| / (z' +
    1) < 2^-6, and S = floor(|s| 2^w).  The chain of the chain lemma P_0 =
    S, P_(i+1) = floor(P_i S4 2^-w), S2 = floor(S^2 2^-w) and S4 =
    floor(S2^2 2^-w), has p_i = 2^w a^(4i+1), a = S 2^-w, rho = a^4 <
    2^-24, e_0 = 0 and delta p_i < 1.001 2^-w 2^w a < 0.02, so every e_i <
    1.02.  h0 = sum floor(P_i / (4i + 1)) and h1 = sum floor(P_i / (4i +
    3)) over its J non-zero steps are each short of their series by less
    than 1.02 J + 1.03, and h = h0 + floor(h1 S2 2^-w) is short of 2^w
    atanh(a) = sum 2^w (a^(4i+1)/(4i+1) + a^(4i+3)/(4i+3)) by less than
    1.03 J + 2.1, and of 2^w atanh|s| by less than 1.03 J + 3.1.  With
    L = floor(2^w ln 2) = ``_ln2(w)``, A = E L - K 2^(w-21) +- 2h, the sign
    of z' - 1, is off by less than |E| + 11.2 + 2.06 J + 6.2 <= |E| + 3J
    + 18 = D.
    """
    W, levels, cuts = _exp_table(w)
    one = 1 << w
    Z = _scaled(V, w - bc)
    k1 = 88 - bisect_left(cuts, Z >> (w - 32))
    if k1:
        Z = Z * (levels[0][k1] >> (W - w)) >> w
    d = (one - Z) >> (w - 48)
    K = k1 << 14 | min(max(0, d + (d * d >> 49) + (d * d * d >> 96) // 3 >> 27), (1 << 14) - 1)
    for level, k in ((levels[1], K >> 7 & 127), (levels[2], K & 127)):
        if k:
            Z = Z * (level[k] >> (W - w)) >> w
    S = (abs(Z - one) << w) // (Z + one)
    S2 = S * S >> w
    S4 = S2 * S2 >> w
    h0 = h1 = J = 0
    P = S
    while P:
        h0 += P // (4 * J + 1)
        h1 += P // (4 * J + 3)
        J += 1
        P = P * S4 >> w
    h = 2 * (h0 + (h1 * S2 >> w))
    A = E * _ln2(w) - (K << (w - 21)) + (h if Z >= one else -h)
    return A, abs(E) + 3 * J + 18


def _round_nearest(M: int, e: int, prec: int) -> tuple[int, int]:
    """(man, e'): M 2^e, M > 0, rounded to nearest at prec bits, ties to
    even, with man <= 2^prec."""
    shift = M.bit_length() - prec
    if shift <= 0:
        return M, e
    half = M >> (shift - 1)  # the kept bits and the first dropped one
    man = half >> 1
    if half & 1 and (man & 1 or M & ((1 << (shift - 1)) - 1)):
        man += 1
    return man, e + shift


@functools.lru_cache(maxsize=None)
def _block_plan(W: int) -> tuple[int, int, int]:
    """(m0, rho, K) for ``_floor_series`` at W: blocks of more than one m
    begin at m0 = max(2W, W^2 / 300), each keeps c >= 2^rho Lambda with
    rho = 6, and none takes more than K = W // (2 rho) weights.  Measured
    at W = 120 to 1100: with m0 = 2W at W = 830, 10^3 m took 20-40% longer
    than one at a time, rho = 5 up to 25% longer from W = 830 on, and rho =
    7 longer at W <= 330 and no shorter above."""
    rho = 6
    return max(2 * W, W * W // 300), rho, W // (2 * rho)


def _blocks(ms: range, W: int):
    """Yield (c, h) for ms, a range of step 2, cut in order into blocks of
    the 2h + 1 values m = c + 2i, |i| <= h: a lone m (h = 0) below the m0
    of ``_block_plan``, else the widest block with Lambda = 2h + 2 a power
    of two, at least 4, that fits in what is left of ms and keeps c =
    m + Lambda - 2 >= 2^rho Lambda, that is Lambda <= (m - 2) // (2^rho - 1)."""
    m0, rho, _ = _block_plan(W)
    m, left = ms.start, len(ms)
    while left:
        fit = min(left + 1, (m - 2) // ((1 << rho) - 1)) if m >= m0 else 0
        h = (1 << (fit.bit_length() - 2)) - 1 if fit >= 4 else 0
        yield m + 2 * h, h
        m += 4 * h + 2
        left -= 2 * h + 1


def _even_power_sums(h: int, R: int) -> list[int]:
    """[S_0, S_2, ..., S_R], S_r = sum_(|i|<=h) i^r, exactly, for even R.

    Summing (i + 1)^(r+1) - i^(r+1) over i = -h..h telescopes to
    (h + 1)^(r+1) + h^(r+1) for even r; by the binomial theorem the same sum
    is sum_(k<=r) C(r+1, k) S_k, in which the odd S_k vanish by symmetry.
    So each S_r follows from the even ones before it, with no Bernoulli
    number; the one-sided sums sum_(i=1..h) i^r took twice as long.
    """
    S = [2 * h + 1]
    for r in range(2, R + 1, 2):
        t = (h + 1) ** (r + 1) + h ** (r + 1)
        binom = 1  # C(r + 1, k)
        for k in range(0, r, 2):
            t -= binom * S[k >> 1]
            binom = binom * (r + 1 - k) * (r - k) // ((k + 1) * (k + 2))
        S.append(t // (r + 1))
    return S


@functools.lru_cache(maxsize=16)
def _binomial_rows(divisors, K: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """(lcm_k, (C(2k - 1, 2i) lcm_k / d_(k-i) for i < k)) for k = 1..K, with
    lcm_k = lcm(d_1..d_k): the part of ``_block_weights`` that is the same
    for every h."""
    rows, lcm = [], 1
    for k in range(1, K + 1):
        lcm = math.lcm(lcm, divisors[k - 1])
        rows.append((lcm, tuple(math.comb(2 * k - 1, 2 * i) * (lcm // divisors[k - i - 1])
                                for i in range(k))))
    return tuple(rows)


@functools.lru_cache(maxsize=128)
def _block_weights(h: int, t: int, divisors, W: int) -> tuple[int, tuple[int, ...]]:
    """(W + G, (E_1..E_K)) for a block of half-width h >= 1 whose centre
    has c / Lambda >= 2^t, Lambda = 2h + 2 = 2^g, at W: ``_floor_series``
    starts it from 2^(W+G) and divides by E_k for term k.

    K = W // (2t), G = W + 2K max(0, g - t) and E_k = ceil(2^G / a_k), with

        a_k = sum_(j=1..k) C(2k - 1, 2k - 2j) 2^(2k-2j) S_(2k-2j) / d_j

    and S_r from ``_even_power_sums``.  They depend on h and t, not on c,
    so one tuple serves every block of that h and t; divisors is a range
    or a tuple.
    """
    K = W // (2 * t)
    G = W + 2 * K * max(0, (2 * h).bit_length() - t)
    scaled = [s << (2 * i) for i, s in enumerate(_even_power_sums(h, 2 * K - 2))]
    rows = _binomial_rows(divisors, _block_plan(W)[2])[:K]
    # sum(row * scaled) is lcm_k a_k
    return W + G, tuple(-(-(lcm << G) // sum(map(mul, row, scaled))) for lcm, row in rows)


def _floor_series(ms: range, divisors, W: int) -> int:
    """s, in units of 2^-W, at most and within D of the sum over m in ms of
    sum_(j>=1) 2^W / (m^(2j) d_j), for ms a range of step 2 and d_j the
    j-th of divisors, a range or a tuple.

    ``_blocks`` cuts ms into blocks of the 2h + 1 values m = c + 2i, |i| <=
    h.  Expanding (c + 2i)^(-2j) as a binomial series in 2i/c, the odd
    powers of i cancel over the block, and gathering the powers of c gives
    one series of positive terms, sum_(|i|<=h) sum_j (c + 2i)^(-2j) / d_j =
    sum_(k>=1) a_k c^(-2k), a_k as in ``_block_weights``.  Each block is
    summed by the chain ``_floor_terms``: r_0 = 2^(W+G), r_k = floor(r_(k-1)
    / c^2), adding floor(r_k / E_k) until r_k = 0 or the E_k run out.  A
    lone m (h = 0) has G = 0 and E_k = d_k; a block with h >= 1 takes G and
    E_k = ceil(2^G / a_k) from ``_block_weights``.  Only the blocks of ms
    are read, and no list of its values is built.

    Lemma.  Let every m >= 2 and every d_j >= 3, with so many divisors
    listed that 4^len > 2^W, and let every block with h >= 1 keep c >=
    2^rho Lambda, Lambda = 2h + 2, for a rho >= 5 (``_block_plan``).  Then
    the exact sum, over the list of divisors or over any longer sequence
    of divisors >= 3 that starts with it, lies in [s, s + D), D the sum
    over blocks of 2K - 1, where K - 1 = L(c / Lambda) for a block and
    L(v) = #{k >= 1 : v^(2k) <= 2^W} (Lambda = 1 for h = 0).  And a block
    loses no more than its m would one by one: 2K - 1 <= sum over its m of
    (2 L(m) + 1).

    Proof, in units of 2^-W.  Term k of a block is T_k = 2^W a_k / c^(2k)
    = R_k a_k / 2^G for R_k = 2^(W+G) / c^(2k), and r_k = floor(R_k) by
    the chain lemma's nested floors.
      - a_k <= Lambda^(2k) / 3, as every d_j >= 3 and (2i)^r <= (2h)^r:
        a_k <= ((2h + 1)/3) sum over even r < 2k of C(2k - 1, r) (2h)^r <=
        (2h + 1)^(2k) / 3.  So T_k <= 2^W u^k / 3 for u = (Lambda / c)^2,
        with u = 1/m^2 <= 1/4 for h = 0 and u <= 2^(-2 rho) for h >= 1.
      - K - 1 = L(v), v = c / Lambda, counts the k with 2^W u^k >= 1.  The
        terms from k = K on lose at most themselves, as each is added as a
        floor between 0 and T_k (or not at all): less than (1/3) 2^W u^K /
        (1 - u) < (1/3)(4/3) < 1 together.
      - Each k < K is added.  For h = 0, r_k >= 1 while m^(2k) <= 2^W, and
        4^len > 2^W gives K - 1 <= len.  For h >= 1, let 2^t <= v < 2^(t+1)
        (t >= rho); then K - 1 <= W / (2t), within the weights, and
        c^(2k) <= 2^(W + 2gk) <= 2^(W+G) keeps r_k >= 1, as G >= 2gk.
      - Such a term loses less than 2.  For h = 0 (E_k = d_k = 1/a_k), the
        chain lemma's (b) puts the loss below 1.  For h >= 1, a_k / 2^G <=
        Lambda^(2k) / (3 2^G) <= 1/3 and 2^G / a_k <= E_k < 2^G / a_k + 1,
        so floor(r_k / E_k) <= T_k, and the loss is below (R_k - r_k) a_k /
        2^G + r_k (a_k / 2^G)^2 + 1 < 1/3 + T_k a_k / 2^G + 1, where T_k a_k
        / 2^G <= 2^(W - 2tk + 2gk - G) / 9 <= 1/9, as G >= W + 2k (g - t).
        So a block loses less than 2(K - 1) + 1 = 2K - 1.
      - Comparison, h >= 1.  v >= 2^rho >= 32, and the lambda = 2h + 1 =
        Lambda - 1 >= 3 values of m are below c + Lambda <= (33/32) c.  As
        32^(Lambda - 3) >= (33 Lambda / 32)^2 for Lambda >= 4, (c + 2h)^2 <
        v^2 32^(Lambda - 3) <= v^lambda.  So B = W / (2 log2(c + 2h)) >
        2 L(v) / lambda, and with b = floor(B), 2 L(v) < lambda (b + 1).
        Hence 2K - 1 = 2 L(v) + 1 <= lambda (b + 1) <= lambda (2b + 1), at
        most the sum of 2 L(m) + 1 over the block, as L(m) >= b for every
        m <= c + 2h.
    """
    s = 0
    for c, h in _blocks(ms, W):
        top, weights = W, divisors
        if h:
            g = (2 * h).bit_length()  # Lambda = 2^g
            top, weights = _block_weights(h, (c >> g).bit_length() - 1, divisors, W)
        s += _floor_terms(1 << top, c * c, weights)
    return s


def _floor_terms(r: int, q: int, weights) -> int:
    """The chain of ``_floor_series`` for one block: sum_k floor(r_k / E_k),
    r_k = floor(r_(k-1) / q), over the E_k of weights until r_k = 0.  A
    lone m is (r, q, weights) = (2^W, m^2, divisors)."""
    s = 0
    for e in weights:
        r //= q
        if not r:
            break
        s += r // e
    return s


def _log1m_ratio(Q: int, r: int) -> int:
    """s, in units of 2^-r, with 0 <= 2^r S(q) - s < r/24 + 3, for
    S(q) = -ln(1 - q) / q = sum_(n>=1) q^(n-1) / n and any real q with 0 <=
    q - Q 2^-r < 2^-r and q < 2^-24: the chain P_0 = 2^r, P_(j+1) =
    floor(P_j Q 2^-r), s = sum_j floor(P_j / (j + 1)).

    Proof, in units of 2^-r.  For q' = Q 2^-r the chain has rho_j = mu_j =
    q' < 2^-24 and delta = e_0 = 0, so every e_j <= 1/(1 - q') < 1 +
    2^-23 by the chain lemma.  P_j <= 2^r q'^j < 2^(r - 24j), so J <= r/24
    + 1, and by (b), with d_j = j + 1, 2^r S(q') - s < sum_(j<J) (j + 1 +
    2^-23) / (j + 1) + 1 + 2^-22 < J + 1 + 2^-20.  S(q) - S(q') lies in [0,
    2^-r), as 0 <= S' = sum_(n>=2) (n - 1) q^(n-2) / n < 1.
    """
    s, P, n = 0, 1 << r, 1
    while P:
        s += P // n
        P = (P * Q) >> r
        n += 1
    return s


def _lambda_series(X: int, R: int, coeffs) -> int:
    """s, in units of 2^-R, with |2^R S(x) - s| < 1.1 J + 1.2, for S(x) =
    lambda(x) + x/2 = sum_(k>=1) B_2k x^(2k) / (2k (2k)!), lambda(x) =
    ln((1 - e^-x) / x), and x = X 2^-R < 2^-44: the chain P_0 = 2^R,
    P_(k+1) = floor(P_k X2 2^-R), X2 = floor(X^2 2^-R), adds (-1)^(k-1)
    floor(P_k n_k / d_k), n_k / d_k = |B_2k| / (2k (2k)!) the k-th pair of
    coeffs, until a term is 0 or coeffs ends.  J, the terms it adds, is at
    most n = (R - 1) // (2 (R - bitlen X)), and coeffs must hold n pairs.

    Proof, in units of 2^-R.  The chain has p_k = x^(2k) 2^R, rho = x^2 <
    2^-88, mu = X2 2^-R with 0 <= delta = rho - mu < 2^-R, and e_0 = 0, so
    by the chain lemma e_1 < delta p_0 + 1 = 2 and e_(k+1) < 2^-87 + x^(2k)
    + 1 < 2.  As x < 2^-D, D = R - bitlen X, p_k < 2^(R - 2kD) <= 1 for
    every k > n, so P_k = 0 there.  c_k = |B_2k| / (2k (2k)!) = 2 zeta(2k)
    / (2k (2 pi)^(2k)) has c_1 = 1/24 and c_(k+1) / c_k < 1 / (2 pi)^2 <
    1/39.  Each added term loses at most c_k (p_k - P_k) + 1 < 13/12.  The
    first term left out, k = J + 1, floors to 0 or has P_k = 0, so c_k p_k <
    1 + 2 c_k <= 13/12, and it and the terms after it, each at least
    39-fold smaller, add up to less than 1.12.
    """
    X2 = (X * X) >> R
    s, P = 0, 1 << R
    for k, (n, d) in enumerate(coeffs):
        P = (P * X2) >> R
        term = P * n // d
        if not term:
            break
        s += -term if k & 1 else term
    return s


def _moments(nodes, F: int) -> list:
    """[S_0, S_1, ...] for nodes (T2, W) with t < 1/8: S_k sums over the
    nodes the chain P_0 = W, P_(k+1) = floor(P_k T2 2^-F), T2 = floor(t^2
    2^F) (see ``_moment_series``)."""
    moments = []
    for T2, P in nodes:
        k = 0
        while P:
            if k == len(moments):
                moments.append(0)
            moments[k] += P
            P = (P * T2) >> F
            k += 1
    return moments


def _moment_series(moments, X: int, F: int) -> int:
    """sum_k (-1)^k floor(S_k Z_k 2^-F) over the moments S_k of
    ``_moments``, with Z_0 = X = floor(2^F a), Z_(k+1) = floor(Z_k X2
    2^-F) and X2 = floor(X^2 2^-F), until a term is 0.  In units of 2^-F
    it is within N_s (0.7 F + 24) of E = sum W a / (1 + t^2 a^2) over the
    N_s < 2^16 nodes of the moments, for 0 <= a <= 1 and every W < 2^(F+1).

    Proof, in units of 2^-F.  E = sum_k (-1)^k s_k a^(2k+1) with s_k = sum
    W t^(2k), and s_(k+1) <= s_k / 64.  S_k and Z_k come from chains of the
    chain lemma:
      - per node, p_k = W t^(2k), rho = t^2 < 1/64, e_0 = 0, and delta p_k
        < W 2^-F < 2, as 0 <= t^2 - T2 2^-F < 2^-F; so every e_k < 3.05, and
        0 <= s_k - S_k < 3.05 N_s.
      - for Z, p_k = a^(2k+1) 2^F, rho = a^2 <= 1, e_0 = 1 and delta p_k <
        3, as a^2 - X2 2^-F < 3 2^-F; so 0 <= p_k - Z_k < 4k + 1.
    So term k is off by less than 3.05 N_s + S_k (4k + 1) 2^-F + 1, the
    last for its floor, where S_k 2^-F < 2 N_s 64^-k, and these S_k shares
    add up to less than 2.17 N_s.  A term is non-zero only if S_k Z_k >=
    2^F, which needs N_s 2^(F+1) 64^-k > 1, so K, the first k whose term is
    0, is at most (F + 22)/6.  The terms of E alternate and fall, so E past
    K is at most s_K a^(2K+1), below 3.05 N_s + 2 N_s + 1 as term K is 0.
    In all, the error is below K (3.05 N_s + 1) + 2.17 N_s + 5.05 N_s + 1
    <= N_s (0.7 F + 24).
    """
    X2 = (X * X) >> F
    acc, Z = 0, X
    for k, S in enumerate(moments):
        term = (S * Z) >> F
        if not term:
            break
        acc += -term if k & 1 else term
        Z = (Z * X2) >> F
    return acc
