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

A node costs one exponential for t and what l(t) takes.  e^-u walks the
grid by one product per node at cp = wp + 96 bits, so y = u - e^-u = ln t
is held at cp, and t = e^y is taken at wp.  x = 2 pi t, and with it w, is
taken only at prec = F + mag w + 8 bits: the bits W keeps, and a guard.
mag w is taken from the node before it and checked after.  l(t) is
taken in one of three ways:
  - short, for mag t <= -48 and 4 mag t <= 30 - F: l = -ln(2 pi) - y +
    x/2 - x^2/24, the series l = -ln x - lambda(x), lambda(x) = ln((1 -
    e^-x) / x) = -x/2 + x^2/24 - x^4/2880 + ... (Bernoulli), cut after
    x^2: no exponential or log beyond t's own;
  - chain, for x >= 17, where q = e^-x < 2^-24: l = q S(q), S(q) = -ln(1 -
    q) / q summed in fixed point (``fixed._log1m_ratio``) at r = prec +
    bitlen(prec) + 16 bits;
  - else v = 1 - e^-x by ``raw_expm1`` at p = prec + 28 bits, and l = -ln
    v, as ln v = E ln 2 + ln(a/32) + ln(2^-E 32 v / a) for v = 2^E f, 1/2
    <= f < 1, and a = ceil(32 f): libmp's log then sees only arguments in
    (16/17, 1], whose few Taylor anchors it caches once per process, and
    the 17 logs ln(a/32) are taken once per table at cp.

Each table also keeps the moments S_k ~ sum W t^(2k), in units of 2^-F,
of its tail of nodes with t < 1/4 (T2 < 2^(F-4)), about 60% of it, which
the oracle sums for z >= 1 as one series in 1/z (``fixed._moments``).

Accuracy, which the node-error and rounding parts of
``oracle._binet_integral`` rest on and the tests check against mpmath at
wp + 128: t~, the computed t, is within a relative 3 2^-wp of phi(j/m),
and w~, the weight before its floor, within 2^-(F+4) of w at t~.

Proof of the second.  Every libmp product, quotient and sum here is
correctly rounded, within a relative 2^-p at p bits, and exp, ln and
``raw_expm1`` are within one ulp, a relative 2^(1-p).  x is taken at
prec + 5 + max(0, mag t + 3) bits, so within a relative and an absolute
2^-(prec+4) of 2 pi t~ (pi at cp).  As dl/dx = -1/(e^x - 1) and l >= e^-x,
that moves l by a relative 2^-(prec+4) x / ((e^x - 1) l) < 2.2 2^-(prec+4)
for x < 1 (l > 0.45 there) and |dx| / (1 - e^-x) < 1.6 2^-(prec+4) for x
>= 1: 0.14 2^-prec.  Then, at the computed x,
  - short: three sums at prec, each rounding a value within 1 + 2^-80 of
    l, as l >= -ln x > 31 dwarfs x/2 and x^2/24: l within 3.1 2^-prec.
    The series of lambda alternates with falling terms for x < 1, so the
    cut loses at most x^4/2880, and e^y is within one ulp of t~ at wp, so
    -y is within 2.03 2^-wp of -ln t~.  With 1 + e^-u <= 1 + ln(1/t) (u <
    0) and t <= 2^-48, (1 + e^-u) t < 2^-42.9, so w moves by less than
    2^-42.9 (2.03 2^-wp + (2 pi)^4 t^4 / 2880) < 2^-(F+9), as 4 mag t <=
    30 - F.
  - chain: q within a relative 2^(-3-prec) of e^-x at prec + 4 bits,
    S(q) from ``fixed._log1m_ratio`` within (r/24 + 3) 2^-r < 2^-(prec+16)
    (r <= 2 prec, as prec >= 64), and the product q S rounded at prec: l
    within 1.2 2^-prec.
  - else, at p = prec + 28: 2^-E 32 v / a is within a relative 2^(2-p) of
    its exact value, so its log within 1.01 2^(2-p) absolute, and that
    log, below 1/16 in magnitude, is taken within a relative 2^(-3-prec).
    Where a < 32 or E < 0, v <= 31/32 and l > 1/32, so that is a relative
    2^(-2-prec) of l; else the anchor and E ln 2 are 0 and the log is -l
    itself, within 2^(-3-prec).  With l > e^-17 > 2^-24.6 for x < 17, the
    anchor and E ln 2 taken at p, and the two sums, l is within (1.01
    2^(2 - 28 + 24.6) + 2^-2 + 2^-26 + 1) 2^-prec < 1.7 2^-prec.
The weight then takes 1 + e^-u (e^-u within 2^-(wp+78)) and the products
by t~ and by l, each within 2^-prec, so with x's share w~ is within a
relative 6.3 2^-prec of w at t~, so within 6.4 2^-prec 2^(mag w~) <
2^-(F+5) absolute as prec >= F + 8 + mag w~, and with the short form's
2^-(F+9), within 2^-(F+4) in all.  The walk keeps e^-u within a relative
2^-(wp+78) over up to 2^16 steps from u = 0; ``oracle.BINET_MAX_NODES``
keeps tables shorter.

Tables depend only on their arguments and are cached for the life of the
process, so repeated runs are bit-identical.
"""

from __future__ import annotations

import threading

from mpmath import libmp

from .fixed import _log1m_ratio, _moments
from .mpcore import _RND, raw_expm1

__all__ = ["half_line_nodes"]

_CACHE: dict[tuple[int, int, int, int], tuple] = {}
_CACHE_LOCK = threading.Lock()
_WEIGHT_GUARD = 8  # bits of each weight beyond those W keeps
_CHAIN_X = libmp.from_int(17)  # l(t) by the chain from x = 2 pi t = 17 on, as e^-17 < 2^-24


def _ell(x, y, t, F: int, prec: int, consts):
    """l(t) = -ln(1 - e^-x) at prec bits (see the module docstring)."""
    _, ln_2pi, ln2, log_anchor = consts
    mag_t = t[2] + t[3]
    if mag_t <= -48 and 4 * mag_t <= 30 - F:
        l_short = libmp.mpf_neg(libmp.mpf_add(ln_2pi, y, prec, _RND))
        l_short = libmp.mpf_add(l_short, libmp.mpf_shift(x, -1), prec, _RND)
        x2 = libmp.mpf_mul(x, x, prec, _RND)
        return libmp.mpf_sub(l_short, libmp.mpf_div(x2, libmp.from_int(24), prec, _RND),
                             prec, _RND)
    if libmp.mpf_ge(x, _CHAIN_X):
        q = libmp.mpf_exp(libmp.mpf_neg(x), prec + 4, _RND)
        r = prec + prec.bit_length() + 16
        s = _log1m_ratio(libmp.to_fixed(q, r), r)
        return libmp.mpf_mul(q, libmp.from_man_exp(s, -r), prec, _RND)
    p = prec + 28
    _, man, exp, bc = libmp.mpf_neg(raw_expm1(libmp.mpf_neg(x), p))
    a = -(-man >> (bc - 5)) if bc > 5 else man << (5 - bc)  # ceil(32 f), f = man 2^-bc
    near_one = libmp.mpf_div(libmp.from_man_exp(man, 5 - bc), libmp.from_int(a), p, _RND)
    anchors = libmp.mpf_add(log_anchor[a], libmp.mpf_mul_int(ln2, exp + bc, p, _RND), p, _RND)
    return libmp.mpf_neg(libmp.mpf_add(libmp.mpf_log(near_one, prec + 4, _RND), anchors, prec,
                                       _RND))


def _node(j: int, m: int, b, wp: int, F: int, cp: int, consts, mag: int):
    """(T2, W) at u = j/m, given b ~ e^-u carried at cp bits and mag, the
    mag w of the node before it, as the first guess at this node's."""
    two_pi = consts[0]
    y = libmp.mpf_sub(libmp.from_rational(j, m, cp, _RND), b, cp, _RND)
    t = libmp.mpf_exp(y, wp, _RND)
    T2 = libmp.to_fixed(libmp.mpf_mul(t, t), F)
    prec = max(64, F + _WEIGHT_GUARD + 1 + mag)
    while True:
        # 2 pi t to within 2^-(prec+4), relative and absolute (2 pi t < 2^(mag t + 3))
        x = libmp.mpf_mul(two_pi, t, prec + 5 + max(0, t[2] + t[3] + 3), _RND)
        phi_prime = libmp.mpf_mul(libmp.mpf_add(libmp.fone, b, prec, _RND), t, prec, _RND)
        w = libmp.mpf_mul(phi_prime, _ell(x, y, t, F, prec, consts), prec, _RND)
        mag = w[2] + w[3]
        if prec >= F + _WEIGHT_GUARD + mag:
            return T2, libmp.to_fixed(w, F)
        prec = F + _WEIGHT_GUARD + mag


def half_line_nodes(wp: int, m: int, j_left: int, j_right: int) -> tuple:
    """(nodes, split, moments, F) for the working precision wp (see the
    module docstring); cached.  nodes holds the (T2, W) pairs at u = j/m
    for j = 0..j_right, then j = -1..-j_left; nodes[split:] is the longest
    tail with t < 1/4, and moments[k] is its S_k in units of 2^-F."""
    key = (wp, m, j_left, j_right)
    got = _CACHE.get(key)
    if got is not None:
        return got
    with _CACHE_LOCK:
        got = _CACHE.get(key)
        if got is not None:
            return got
        F, cp = wp + 32, wp + 96
        two_pi = libmp.mpf_shift(libmp.mpf_pi(cp, _RND), 1)
        consts = (two_pi, libmp.mpf_log(two_pi, cp, _RND),
                  libmp.mpf_log(libmp.from_int(2), cp, _RND),
                  {a: libmp.mpf_log(libmp.from_rational(a, 32, cp, _RND), cp, _RND)
                   for a in range(16, 33)})
        out = []
        # right from u = 0 (e^-u = 1 exactly), then left from u = -1/m; each
        # node's guess at mag w is its predecessor's in the walk, the u = 0
        # node's is 1 (every w < 2), and the u = -1/m node's that of u = 0
        for sign, first, last in ((1, 0, j_right), (-1, 1, j_left)):
            step = libmp.mpf_exp(libmp.from_rational(-sign, m, cp, _RND), cp, _RND)
            b = libmp.fone if first == 0 else step
            W = out[0][1] if out else 1 << F
            for k in range(first, last + 1):
                T2, W = _node(sign * k, m, b, wp, F, cp, consts, W.bit_length() - F)
                out.append((T2, W))
                b = libmp.mpf_mul(b, step, cp, _RND)
        split = len(out)
        quarter = 1 << (F - 4)
        while split and out[split - 1][0] < quarter:
            split -= 1
        got = _CACHE[key] = (out, split, _moments(out[split:], F), F)
        return got
