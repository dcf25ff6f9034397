"""Nodes of the Binet integrand on the half-line map t = exp(u - e^-u).

The map phi(u) = exp(u - e^-u) (Takahasi & Mori 1974; Mori & Sugihara,
J. Comput. Appl. Math. 127, 2001) takes the real line onto (0, inf), with
phi'(u) = (1 + e^-u) phi(u).  Times phi', an integrand on [0, inf) that is
bounded near 0 and decays exponentially decays double exponentially at both
ends in u.  The Binet oracle sums arctan(t/z) / (e^(2 pi t) - 1) over t > 0
by the trapezoidal rule at the step h = 1/m in u; ``oracle._binet_plan``
fixes m and the ends J_L, J_R from its proven bounds, and this module
builds the one table of that sum per precision: for u = j/m,
j = -J_L..J_R, the pair

    t = phi(u),  G = floor(g 2^F),

with g = phi'(u) / (e^(2 pi t) - 1) the node's weight, F = wp + 32 the
table's fixed point, and 2^(mag g - 1) <= g < 2^(mag g).  The oracle's
arctan kernel, ``fixed._atan_fixed``, takes each node's precision from G.

A node costs two exponentials and one division.  e^-u walks the grid by
one product per node at cp = wp + 96 bits, t = exp(u - e^-u) is taken at
wp, and g only at prec = F + mag g + 8 bits: the bits G keeps, and a guard.
mag g is estimated in floating point first and checked after.  Near t = 0,
``raw_expm1`` takes e^(2 pi t) - 1 from its cubic series, which costs one
division in place of the exponential.

Each table also keeps the moments S_k ~ sum G t^(2k+1), in units of 2^-F,
of its tail of nodes with t < 1/4 (mag t <= -2), about 60% of it, which
the oracle sums for z >= 1 as one arctan series in 1/z (``fixed._moments``).
A node at t = 2^-a takes about F / (2a) products, so near t = 1/4 its
moments cost more than its arctan: the build costs about what one
evaluation saves in arctans and grows faster with F than the rest of the
table, while every later evaluation at that precision gains.

Accuracy, which the node-error and rounding parts of
``oracle._binet_integral`` rest on and the tests check against mpmath at
wp + 128: t is within a relative 3 2^-wp of phi(j/m), and g within a
relative 6 2^-prec, so within 2^-(F+4), of (1 + e^-u) t / (e^(2 pi t) - 1)
at the computed t.  The walk stays accurate to a relative 2^-(wp+78) over
up to 2^16 steps from u = 0; ``oracle.BINET_MAX_NODES`` keeps tables
shorter.

Tables depend only on their arguments and are cached for the life of the
process, so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
import threading

from mpmath import libmp

from .fixed import _moments
from .mpcore import _RND, raw_expm1

__all__ = ["half_line_nodes"]

_CACHE: dict[tuple[int, int, int, int], tuple] = {}
_CACHE_LOCK = threading.Lock()
_WEIGHT_GUARD = 8  # bits of each weight beyond those G keeps
_LN_2PI = math.log(2 * math.pi)


def _mag_estimate(b, y) -> int:
    """mag g for g = (1 + b) t / (e^x - 1), x = 2 pi t, t = e^y, in floating
    point: ln g = ln(1 + b) - ln(2 pi) - ln((e^x - 1) / x)."""
    x = 2 * math.pi * math.exp(min(libmp.to_float(y), 700.0))
    excess = 0.0 if x == 0 else x - math.log(x) if x > 700 else math.log(math.expm1(x) / x)
    return math.floor((math.log1p(libmp.to_float(b)) - _LN_2PI - excess) / math.log(2)) + 1


def _node(j: int, m: int, b, wp: int, F: int, cp: int, two_pi):
    """(t, G) at u = j/m, given b ~ e^-u carried at cp bits."""
    y = libmp.mpf_sub(libmp.from_rational(j, m, cp, _RND), b, cp, _RND)
    t = libmp.mpf_exp(y, wp, _RND)
    prec = max(64, F + _WEIGHT_GUARD + 1 + _mag_estimate(b, y))
    while True:
        # 2 pi t to within 2^-(prec+4), relative and absolute (2 pi t < 2^(mag t + 3))
        x = libmp.mpf_mul(two_pi, t, prec + 5 + max(0, t[2] + t[3] + 3), _RND)
        phi_prime = libmp.mpf_mul(libmp.mpf_add(libmp.fone, b, prec, _RND), t, prec, _RND)
        g = libmp.mpf_div(phi_prime, raw_expm1(x, prec), prec, _RND)
        mag = g[2] + g[3]
        if prec >= F + _WEIGHT_GUARD + mag:
            return t, libmp.to_fixed(g, F)
        prec = F + _WEIGHT_GUARD + mag


def half_line_nodes(wp: int, m: int, j_left: int, j_right: int) -> tuple:
    """(nodes, split, moments, F) for the working precision wp (see the
    module docstring); cached.  nodes holds the (t, G) pairs at u = j/m for
    j = 0..j_right, then j = -1..-j_left; nodes[split:] is the longest tail
    with t < 1/4, and moments[k] is its S_k in units of 2^-F."""
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
        out = []
        # right from u = 0 (e^-u = 1 exactly), then left from u = -1/m
        for sign, first, last in ((1, 0, j_right), (-1, 1, j_left)):
            step = libmp.mpf_exp(libmp.from_rational(-sign, m, cp, _RND), cp, _RND)
            b = libmp.fone if first == 0 else step
            for k in range(first, last + 1):
                out.append(_node(sign * k, m, b, wp, F, cp, two_pi))
                b = libmp.mpf_mul(b, step, cp, _RND)
        split = len(out)
        while split and out[split - 1][0][2] + out[split - 1][0][3] <= -2:
            split -= 1
        got = _CACHE[key] = (out, split, _moments(out[split:], F), F)
        return got
