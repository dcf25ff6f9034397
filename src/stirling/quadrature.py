"""Nodes of the Binet integrand on the half-line map t = exp(u - e^-u).

The map phi(u) = exp(u - e^-u) (Takahasi & Mori 1974; Mori & Sugihara,
J. Comput. Appl. Math. 127, 2001) takes the real line onto (0, inf), with
phi'(u) = (1 + e^-u) phi(u).  Times phi', an integrand on [0, inf) that is
integrable near 0 and decays exponentially decays double exponentially at
both ends in u.  The Binet oracle sums (1/pi) l(t) z / (z^2 + t^2), with
l(t) = -ln(1 - e^(-2 pi t)), over t > 0 by the trapezoidal rule at the
step h = 1/m in u; ``oracle._binet_plan`` fixes m and the ends J_L, J_R
from its proven bounds, and this module builds the one table of that sum
per precision: for u = j/m, j = -J_L..J_R, the pair

    T2 = floor(t^2 2^F),  W = floor(w 2^F),

with t = phi(u), w = phi'(u) l(t) the node's weight, F = wp + 32 the
table's fixed point, and 2^(mag w - 1) <= w < 2^(mag w).  z enters only
through the oracle's one division per node, W X / (2^F + T2 X2 2^-F).

A node calls no libmp function: t and l's q are each e^y for an exact
y = Y 2^-cp, and the middle form's log is ln v~ for an exact v~, each
rounded correctly by an integer kernel, ``fixed._exp`` or ``fixed._log``;
the rest is exact integer arithmetic with the floors named below.  libmp
takes only the table's pi, once per table, and ln(2 pi~) comes from
``fixed._log`` too, through ``mpcore._log_raw``.
e^-u walks the grid on integers at cp = wp + 96 fractional bits, by the
chain ``fixed._exp_walk`` of one product per node: b = B 2^-cp, the
walk's e^-u, with each B the one before it times S 2^-cp, floored, from
B = 2^cp at u = 0, and S one below floor(2^cp e~), e~ = e^(-+h) to
nearest at cp + 8 bits by ``fixed._exp``, h = 1/m to nearest at cp + 8
bits and the sign the walk's.  So y = u - e^-u
= ln t is held exactly as Y 2^-cp, Y = floor(j 2^cp / m) - B, and t = e^y
is taken at wp by ``fixed._exp``; T2 floors the exact square of t~, the
computed t.  l~, the computed l(t~), is a pair (L, e) standing for L 2^e,
taken for prec = F + mag w + 8 bits of the weight: the bits W keeps, and
a guard.  The weight w~ = (1 + b) t~ l~ is the exact product of their
integer mantissas, and W its floor.  mag w is taken from the node before
it and checked after.  x = 2 pi t is taken from the exact product of t~
and 2 pi~, pi~ to nearest at cp, and l(t) in one of three ways:
  - series, for mag t <= -48: l = -ln(2 pi) - y + x/2 - S(x), S(x) =
    lambda(x) + x/2 = sum_(k>=1) B_2k x^(2k) / (2k (2k)!) for lambda(x) =
    ln((1 - e^-x) / x), on integers in units of 2^-R, R = prec + 8, S by
    the chain ``fixed._lambda_series`` with exact coefficients from
    ``bernoulli``, built once per table: no exponential or log beyond t's
    own.  A node whose chain needs more coefficients than the Bernoulli
    table's cap holds (only for F past about 23,000) takes the last form.
  - chain, for x~ >= 17, x~ = 2 pi~ t~ floored to xb = prec + 6 + max(0,
    mag t + 3) bits: q = e^-x~ < 2^-24 at prec + 4 bits, and l = q S(q),
    S(q) = -ln(1 - q) / q summed in fixed point (``fixed._log1m_ratio``)
    at r = prec + bitlen(prec) + 16 bits, the product exact;
  - else q = e^-x~ at pe = prec + 36 + max(0, -mag x~) bits, v~ = 1 - q
    exactly, and l = -ln v~, ln v~ to nearest at prec + 4 bits by
    ``fixed._log``.

Each table also keeps the moments S_k ~ sum W t^(2k), in units of 2^-F,
of its tail of nodes with t < 1/8 (T2 < 2^(F-6)), about 55% of it, which
the oracle sums for z >= 1 as one series in 1/z (``fixed._moments``).

Accuracy, which the node-error and rounding parts of
``oracle._binet_integral`` rest on and the tests check against mpmath at
wp + 128: t~ is within a relative 3 2^-wp of phi(j/m), and w~, the
weight before its floor, within 2^-(F+4) of w at t~.

Proof of the second.  exp and ln at p bits, ``fixed._exp`` and
``fixed._log``, are rounded correctly, as their docstrings prove, so
within half an ulp, a relative 2^-p, and so is ln(2 pi~); the table's pi
is within one ulp by the allowance of ``mpcore._Ball``, and 2 pi~, twice
pi~, is exact.  Every floor is below its value by less than one unit of
its last place.  Let x = 2 pi t~ and eps the
relative error of l~ against l(t~).
  - series, in units of 2^-R.  X = floor(2 pi~ t~ 2^R) is within 1.01 of
    x 2^R, as x < 2^-45.3; X >> 1 within 1.51 of x 2^(R-1); the floors of
    -Y 2^(R-cp) and of ln(2 pi) 2^R (from ln(2 pi~) at cp) within 1 and
    1.01; and ``fixed._lambda_series`` within 1.1 J + 1.2 of 2^R S(X 2^-R),
    J <= 256 its terms (half the Bernoulli table's cap), and that within
    0.01 of 2^R S(x), as |S'| < x/12.  So L is within 1.1 J + 4.8 of 2^R
    (l(t~) + ln t~ - y), and as l >= -ln x > 31, eps < 287 / 31 2^-(prec+8)
    < 0.04 2^-prec, but for y = Y 2^-cp in place of ln t~: t~ is within one
    ulp of e^y at wp, so -y is within 2.01 2^-wp of -ln t~.  With 1 + e^-u
    <= 1 + ln(1/t) (u < 0) and t <= 2^-48, (1 + e^-u) t < 2^-42.9, so that
    moves w by less than 2^-42.9 2.01 2^-wp < 2^-(F+9).
  - the other two take x~: below 2 pi~ t~ by a relative less than
    2^(1-xb), and 2 pi~ within a relative 2^-cp of 2 pi, so x~ is within a
    relative and an absolute 2^-(prec+4) of x (x < 2^(mag t + 3)).  As
    dl/dx = -1/(e^x - 1) and l >= e^-x, that moves l by a relative
    2^-(prec+4) x / ((e^x - 1) l) < 2.2 2^-(prec+4) for x < 1 (l > 0.45
    there) and |dx| / (1 - e^-x) < 1.6 2^-(prec+4) for x >= 1: 0.14
    2^-prec.  Then, at x~:
  - chain: q within a relative 2^-(prec+3) of e^-x~; floor(q 2^r) is
    within 2^-r below q < 2^-24, so ``fixed._log1m_ratio`` puts S~ within
    (r/24 + 3) 2^-r < 2^-(prec+16) of S(q) >= 1, itself within 2^-(prec+27)
    of S(e^-x~), as 0 <= S' < 1 there: eps < 0.13 2^-prec + 0.14 2^-prec.
  - else: q within 2^-pe of e^-x~, so v~ within a relative 2^-(prec+34)
    of v = 1 - e^-x~, as v >= x~/2 >= 2^(mag x~ - 2) for x~ < 1 and v >
    0.63 for x~ >= 1, and ln v~ within 1.01 2^-(prec+34) of ln v, a
    relative 1.01 2^(24.6 - prec - 34) of l > e^-17 > 2^-24.6 (x < 17);
    its rounding adds a relative 2^-(prec+4): eps < 0.07 2^-prec + 0.14
    2^-prec.
The walk keeps b within 2^-(wp+78) max(1, b) of e^-u over up to 2^16
steps from u = 0 (``oracle.BINET_MAX_NODES`` keeps tables shorter):
``fixed._exp_walk`` puts B within 3.04 k max(1, b) < 2^17.61 max(1, b)
of e^-u 2^cp after k < 2^16 steps, as 0 <= e^(-+1/m) 2^cp - S < 2.03 for
its ratio S: e~ is within a relative 2^-(cp+8) (1 + h) (1 + 2^-cp) of
e^(-+1/m) <= e, so S is below 2^cp e^(-+1/m) by 1 to 2, give or take
0.022.  So 1 + b is within a relative 2^-(wp+78) of 1 + e^-u, and Y 2^-cp
within 2^-cp + 2^-(wp+78) max(1, b) of y, where b < -y < wp at every node
of a plan's table.  w~ is then within a relative 0.28 2^-prec of w at
t~, so within 0.29 2^-prec 2^(mag w~) < 2^-(F+9) absolute as prec >= F +
8 + mag w~, and with the series form's 2^-(F+9), within 2^-(F+8) in all.

Tables depend only on their arguments and are cached for the life of the
process, so repeated runs are bit-identical.
"""

from __future__ import annotations

import threading

from mpmath import libmp

from .bernoulli import bernoulli, table
from .fixed import (_exp, _exp_table, _exp_walk, _lambda_series, _ln2, _log, _log1m_ratio, _moments,
                    _scaled)
from .mpcore import _RND, _log_raw

__all__ = ["half_line_nodes"]

_CACHE: dict[tuple[int, int, int, int], tuple] = {}
_CACHE_LOCK = threading.Lock()
_WEIGHT_GUARD = 8  # bits of each weight beyond those W keeps


def _ell(t, Y: int, prec: int, consts):
    """(L, e): l(t) = -ln(1 - e^-x), x = 2 pi t, as L 2^e, for prec bits of
    the weight, given t as a pair (man, exp) for man 2^exp and y = ln t as
    Y 2^-cp (see the module docstring)."""
    cp, two_pi, ln_2pi, coeffs = consts
    man, exp = t
    mag_t = exp + man.bit_length()
    x, e = two_pi[1] * man, two_pi[2] + exp  # 2 pi~ t = x 2^e, exactly
    if mag_t <= -48:
        R = prec + 8
        X = x >> (-e - R)  # floor(2 pi~ t 2^R)
        if (R - 1) // (2 * (R - X.bit_length())) <= len(coeffs):
            return ((-Y >> (cp - R)) - (ln_2pi >> (cp - R)) + (X >> 1)
                    - _lambda_series(X, R, coeffs)), -R
    shift = x.bit_length() - (prec + 6 + max(0, mag_t + 3))
    X, e = x >> shift, e + shift  # x~ = X 2^e
    if X >= 17 << -e:  # q = e^-x < 2^-24
        q, q_exp = _exp(-X, -e, prec + 4)
        r = prec + prec.bit_length() + 16
        return q * _log1m_ratio(_scaled(q, q_exp + r), r), q_exp - r
    pe = prec + 36 + max(0, -(X.bit_length() + e))
    q, q_exp = _exp(-X, -e, pe)
    lg, lg_exp = _log((1 << -q_exp) - q, q_exp, prec + 4)  # ln v~, v~ = 1 - e^-x~ exactly
    return -lg, lg_exp


def _node(Y: int, B: int, wp: int, F: int, consts, mag: int):
    """(T2, W) at u = j/m, given y = u - e^-u as Y 2^-cp, e^-u as B 2^-cp,
    and mag, the mag w of the node before it, as the first guess at this
    node's."""
    cp = consts[0]
    t = man, exp = _exp(Y, cp, wp)
    T2 = _scaled(man * man, 2 * exp + F)
    phi, phi_exp = man * (B + (1 << cp)), exp - cp  # (1 + b) t~
    prec = max(64, F + _WEIGHT_GUARD + 1 + mag)
    while True:
        ell, e = _ell(t, Y, prec, consts)
        w, e = phi * ell, phi_exp + e  # w~ = w 2^e
        mag = w.bit_length() + e
        if prec >= F + _WEIGHT_GUARD + mag:
            return T2, _scaled(w, e + F)
        prec = F + _WEIGHT_GUARD + mag


def _lambda_coeffs(F: int) -> list[tuple[int, int]]:
    """[(n_k, d_k)], n_k / d_k = |B_2k| / (2k (2k)!), for every k the
    series form of ``_ell`` may take in a table at F: k <= (F + 17) // 90,
    and 2k no more than the Bernoulli table's cap."""
    out, factorial = [], 1
    for k in range(1, min((F + 17) // 90, table().cap // 2) + 1):
        factorial *= (2 * k - 1) * 2 * k
        c = abs(bernoulli(2 * k)) / (2 * k * factorial)
        out.append((c.numerator, c.denominator))
    return out


def _constants(wp: int) -> tuple:
    """What every node of the table at wp shares: cp = wp + 96; 2 pi~ at cp
    bits, with pi to nearest; ln(2 pi~), floor(v~ 2^cp) of its v~ to
    nearest at cp bits (``mpcore._log_raw``); and the pairs of
    ``_lambda_coeffs``.  It also widens ``fixed._ln2`` and
    ``fixed._exp_table`` to cp + 64 first, past the widest exponential
    and log of the table's nodes (wp + 150 but for a Ziv retry), so that
    these shift their floors down instead of building them twice."""
    cp = wp + 96
    _ln2(cp + 64)
    _exp_table(cp + 64)
    two_pi = libmp.mpf_shift(libmp.mpf_pi(cp, _RND), 1)
    return (cp, two_pi, libmp.to_fixed(_log_raw(two_pi, cp), cp),
            _lambda_coeffs(wp + 32))


def half_line_nodes(wp: int, m: int, j_left: int, j_right: int) -> tuple:
    """(nodes, split, moments, F) for the working precision wp (see the
    module docstring); cached.  nodes holds the (T2, W) pairs at u = j/m
    for j = 0..j_right, then j = -1..-j_left; nodes[split:] is the longest
    tail with t < 1/8, and moments[k] is its S_k in units of 2^-F."""
    key = (wp, m, j_left, j_right)
    got = _CACHE.get(key)
    if got is not None:
        return got
    with _CACHE_LOCK:
        got = _CACHE.get(key)
        if got is not None:
            return got
        F, cp = wp + 32, wp + 96
        consts = _constants(wp)
        out = []
        _, h, h_exp, _ = libmp.from_rational(1, m, cp + 8, _RND)  # 1/m to nearest
        # right from u = 0 (e^-u = 1 exactly), then left from u = -1/m; each
        # node's guess at mag w is its predecessor's in the walk, the u = 0
        # node's is 1 (every w < 2), and the u = -1/m node's that of u = 0
        for sign, first, last in ((1, 0, j_right), (-1, 1, j_left)):
            step, step_exp = _exp(-sign * h, -h_exp, cp + 8)
            W = out[0][1] if out else 1 << F
            for k, B in enumerate(_exp_walk(_scaled(step, step_exp + cp) - 1, cp, last)):
                if k < first:  # u = 0 is the right walk's alone
                    continue
                T2, W = _node((sign * k << cp) // m - B, B, wp, F, consts,
                              W.bit_length() - F)
                out.append((T2, W))
        split = len(out)
        eighth = 1 << (F - 6)
        while split and out[split - 1][0] < eighth:
            split -= 1
        got = _CACHE[key] = (out, split, _moments(out[split:], F), F)
        return got
