"""Integer fixed-point series, each a chain of floors under one lemma.

A chain is an integer term P_j in units of some 2^-W, the next term
P_(j+1) = floor(P_j M 2^-W) or floor(P_j / q), and a sum of
floor(P_j / d_j) up to the first P_j = 0 (Brent & Zimmermann, Modern
Computer Arithmetic, 2010, ch. 4).  Every floor rounds down, so a chain
never exceeds its exact values.  Each kernel here cites the chain lemma
below with its own constants and proves its own error in its own units; its
callers in ``bounds``, ``expansions``, ``quadrature`` and ``oracle``
prove only how they use that error.

Lemma (floor chain).  Let p_0 >= 0 be real and p_(j+1) = rho_j p_j, with
exact ratios 0 <= rho_j <= rho.  Let the integers P_j >= 0 follow P_(j+1)
= floor(P_j mu_j), mu_j >= 0 the ratio as computed (M 2^-W, 1/q, or
M 2^-W / j, as floor(floor(a) / j) = floor(a / j)), with 0 <= rho_j -
mu_j <= delta.  If 0 <= p_0 - P_0 <= e_0, then:

  (a) 0 <= p_j - P_j < e_j for j >= 1, e_(j+1) = rho e_j + delta p_j + 1.
      With delta = 0, rho < 1 and e_0 <= 1/(1 - rho), every e_j <=
      1/(1 - rho).  If P_0 = p_0 and every mu_j = rho_j = 1/q_j for an
      integer q_j, the floors nest: P_j = floor(p_j), and p_j - P_j < 1.
  (b) From the first J with P_J = 0 on, every P_j is 0.  For rho < 1 and
      divisors d_j >= 1, s = sum_(j<J) floor(P_j / d_j) has

          0 <= sum_(j>=0) p_j / d_j - s
            <= sum_(j<J) (e_j + d_j - 1) / d_j + e_J / (d (1 - rho)),

      d = inf_(j>=J) d_j, and < in place of the last <= if J >= 1.

Proof.  (a) P_j <= p_j and mu_j <= rho_j give P_j mu_j <= p_(j+1), so
P_(j+1) <= p_(j+1), and p_(j+1) - P_(j+1) < p_(j+1) - P_j mu_j + 1 =
rho_j (p_j - P_j) + (rho_j - mu_j) P_j + 1 <= rho e_j + delta p_j + 1.
With delta = 0, e_j <= 1/(1 - rho) gives e_(j+1) <= 1/(1 - rho).  (b)
Term j < J loses p_j / d_j - floor(P_j / d_j) = (p_j - P_j) / d_j + (P_j
mod d_j) / d_j <= (e_j + d_j - 1) / d_j, and the terms from J on add up
to at most p_J / (d (1 - rho)), where p_J = p_J - P_J.
"""

import functools
import math
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


_EXP_COSH_CUTOFF = 600  # libmp's cutoffs for its pure-Python backend
_EXP_SPLIT_CUTOFF = 1500


def _exp(Y: int, cp: int, prec: int) -> tuple[int, int]:
    """(man, e): e^y for y = Y 2^-cp, rounded to nearest, ties to even, at
    prec >= 64 bits, as man 2^e with man <= 2^prec (not normalised).  Before
    that rounding the value v has |v - e^y| < 2^-(prec+6) e^y.

    These are the steps of libmp's ``mpf_exp`` (mpmath 1.3, pure-Python
    backend) on integers at w = prec + 14 bits, with the exact floor of ln
    2 from ``_ln2`` and the exact ``math.isqrt`` in place of libmp's
    approximate ones, so it gives libmp's value wherever those agree with
    libmp's own; libmp takes an integer y above 600 bits as a power of e
    instead.  From w = 1500 on, where libmp splits its series into more
    sums, it keeps two and takes isqrt(w) // 2 more bits, w = prec + 14 +
    isqrt(prec + 14) // 2, which its error needs there (see (C)).

    Proof, in units of 2^-w, with mag the least integer such that |y| <
    2^mag.  If y = 0, v = 1 = e^y; if mag < -w, v = 1 and |y| < 2^-(w+1),
    so e^y is within a relative 2^-w of 1.  Else:
      (R) For mag > 1, q = w + mag and L = floor(2^q ln 2) = ``_ln2(q)``,
        n, R = divmod(floor(y 2^q), L) and X = floor(R 2^-mag), so y = n
        ln 2 + rho with rho = (R + f0 - n f1) 2^-q, f0, f1 in [0, 1), and
        x = X 2^-w = R 2^-q - f2 2^-w, f2 in [0, 1), lies in [0, ln 2).  As
        |n| < 2^mag / ln 2 + 2, |x - rho| < (1/4 + 1.95 + 1) 2^-w.  For mag
        <= 1, n = 0, X = floor(y 2^w) and rho = y, so |x| <= 2 and |x -
        rho| < 2^-w.  Either way e^y = 2^n e^rho, and e^x is within a
        relative 3.21 2^-w of e^rho.
      The kernel returns M, within a relative 62 2^-w of 2^w e^x for w <=
      600 (T), and 155 2^-w above (C), and v = M 2^(n-w), within a
      relative 159 2^-w < 2^-(prec+6) of e^y.  X = 0 gives M = 2^w exactly.
      In both kernels the floors come from chains of the chain lemma with
      ratios rho_j <= rho, e_0 < 1 and delta p_j < 2^-13, so each e_j <
      1/(1 - rho) + 2^-12, each term loses less than that, and the terms
      past the last lose less than e_J / (1 - rho).  And r squarings
      v_(i+1) = floor(v_i^2 2^-P) of a v_0 within a relative eps_0 of 2^P
      e^z, |2^r z| <= 2, end within a relative 2^r (eps_0 + e^2 2^-P)(1 +
      2^-40) of 2^P e^(2^r z), as each step takes a relative error eps to
      at most (2 + eps) eps, and its floor adds e^2 2^-P at most.
      (T) r = isqrt(w) in [8, 24], P = w + r and z = x 2^-r = X 2^-P, so
        |z| <= 2^(1-r).  The terms z^(2i) / k!, k = 2i or 2i + 1, form one
        chain, rho = 1/3: floor(x2 / 2), then / 3, then times x2 2^-P / 4,
        / 5, ..., x2 = floor(z^2 2^P), the even k summed to s0 ~ 2^P cosh
        z, the odd to s1 ~ 2^P sinh(z) / z, both short.  Term i is 0 once
        2(i//2 + 1)(r - 1) >= P, so J <= P / (r - 1) < r + 4.72 <= 28, as
        w < (r + 1)^2.  So s = s0 + floor(s1 X 2^-P) is within 1.51 J +
        2.27 + 1 < 46 of 2^P e^z, a relative 46 e^(2^-7) 2^-P < 46.4 2^-P;
        the r squarings end within a relative 53.8 2^-w, as 2^r 2^-P =
        2^-w, and the last floor, of a value at least e^-2, adds 7.39 2^-w.
      (C) r0 = isqrt(w) // 2 >= 12, xm = bitlen X - w (so 2^(xm-1) <= |x|
        <= 2^xm, xm <= 2), r = max(0, xm + r0), E = 10 + 2 max(r, -xm), P
        = w + E and z = |x| 2^-r, so 2^(xm-1-r) <= z <= 2^-r0.  The chain
        of z^(2k) / (2k)! runs as in (T), rho = 1/12, with x4 2^-P for z^4,
        x4 = floor(x2^2 2^-P), and its terms alternately to s0 and s1; c =
        2^P + s0 + floor(s1 x2 2^-P) is at most C = 2^P cosh z, short by
        gamma < 1.1 J + 2.2.  Term i is 0 once (4(i//2) + 2) zeta >= P,
        zeta = -log2 z, and P / zeta <= (w + 14) / r0 + 2 in every case
        (for r = 0 < -xm, zeta >= -xm >= r0), so J <= (w + 14) / (2 r0) + 2
        < 2 r0 + 6.75 and gamma < 2.2 r0 + 9.63.  s = isqrt(c^2 - 2^2P) is
        short of S = 2^P sinh z by less than (C^2 - c^2) / S + 1 <= 2 gamma
        coth z + 1, so v = c +- s, the sign of x, is within (2 gamma +
        1)(1 + 2^-12) / z of 2^P e^(+-z).  The r squarings then put it
        within a relative (2 gamma + 1) 2^(2r + 1 - xm - P)(1 + 2^-10) +
        0.01 2^-w of 2^P e^x, where 2r + 1 - xm - P <= r0 / 2 - 9 - w: as
        -xm <= r0 / 2 where r >= -xm, xm <= -r0 where r = 0 < -xm, and 3 xm
        + 2 r0 < r0 / 2 where 0 < r < -xm.  With the last floor, M is within
        a relative (4.4 r0 + 20.3) 2^(r0/2 - 9) 1.001 + 7.4 of 2^w e^x:
        below 155 for w < 1500, where r0 <= 19.  From 1500 on, w = w0 + g,
        w0 = prec + 14 and g = isqrt(w0) // 2 >= 19, so r0 <= g + 1, and in
        units of 2^-w0 that is below (4.4 g + 24.8) 2^(-g/2 - 8.5) + 7.4
        2^-g < 1.
    """
    if not Y:
        return 1, 0
    mag = Y.bit_length() - cp
    w = prec + 14
    if mag < -w:
        return 1, 0
    if w >= _EXP_SPLIT_CUTOFF:
        w += math.isqrt(w) // 2
    if mag > 1:
        n, R = divmod(_scaled(Y, w + mag - cp), _ln2(w + mag))
        X = R >> mag
    else:
        n, X = 0, _scaled(Y, w - cp)
    M = _exp_cosh(X, w) if w > _EXP_COSH_CUTOFF else _exp_taylor(X, w)
    return _round_nearest(M, n - w, prec)


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


def _exp_taylor(X: int, w: int) -> int:
    """floor-chain e^x 2^w for x = X 2^-w, |x| <= 2: the Taylor series at x
    2^-r, r = isqrt(w), in two halves, squared r times (``_exp``, (T))."""
    r = math.isqrt(w)
    P = w + r
    s0 = s1 = 1 << P
    a = x2 = X * X >> P
    k = 2
    while a:
        a //= k
        s0 += a
        a //= k + 1
        s1 += a
        k += 2
        a = a * x2 >> P
    s = s0 + (s1 * X >> P)
    for _ in range(r):
        s = s * s >> P
    return s >> r


def _exp_cosh(X: int, w: int) -> int:
    """floor-chain e^x 2^w for x = X 2^-w, |x| <= 2: cosh at |x| 2^-r by its
    even terms in two halves, sinh from one exact isqrt, their sum or
    difference squared r times (``_exp``, (C))."""
    x = abs(X)
    xm = x.bit_length() - w
    r = max(0, xm + math.isqrt(w) // 2)
    E = 10 + 2 * max(r, -xm)
    P = w + E
    x <<= E - r
    one = 1 << P
    a = x2 = x * x >> P
    x4 = x2 * x2 >> P
    s0 = s1 = 0
    k = 2
    while a:
        a //= (k - 1) * k
        s0 += a
        a //= (k + 1) * (k + 2)
        s1 += a
        k += 4
        a = a * x4 >> P
    c = one + s0 + (x2 * s1 >> P)
    s = math.isqrt(c * c - (one << P))
    v = c - s if X < 0 else c + s
    for _ in range(r):
        v = v * v >> P
    return v >> E


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
