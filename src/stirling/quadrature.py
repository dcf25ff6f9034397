"""Tanh-sinh nodes and weights on (0, 1), by doubling level.

Nodes x(u) = (1 + tanh((pi/2) sinh u)) / 2 on the step grid u = k h with
h = 2^-level.  Each halving of the step reuses all previous nodes and adds
the odd multiples, so a caller that sums level by level refines its
estimate without recomputing earlier nodes.  This module only builds and
caches the nodes; the one convergence loop over them is
``oracle._binet_integral``.

A pair of nodes +-u costs one exponential.  a = (pi/4) e^u and
b = (pi/4) e^-u walk the grid by one product each with e^(+-step), carried
at cp = np + 32 bits, where np = wp + 64 is the precision of the nodes.
Then 2q = 2 (a - b) = pi sinh u, e^2q is the pair's one exponential,
d = 1 / (e^2q + 1) and 1 - d are the two abscissas, and
w = 2 (a + b) e^2q d^2 = (pi/4) cosh u / cosh^2 q is their common weight.
After n steps the carried products put an error of about 2 n (2q) 2^-cp on
2q, below 2^-np while n (2q) < 2^31.  The tests check every abscissa to
within 2^-(wp+60) of x(u), and every weight to a relative 2^-(wp+50),
against mpmath at wp + 128.

Node/weight tables depend only on (working precision, level) and are
cached for the life of the process; they are pure functions of those
inputs, so repeated runs are bit-identical.

Nodes are emitted until the weight falls below 2^-(wp+32), which presumes
an integrand bounded near the endpoints (true for the smooth decaying
Binet integrand).  The Binet oracle then omits the right nodes
x > 1 - 2^-k, where its factor 1/(e^(2 pi T x) - 1) has made them
negligible, and adds a closed-form bound on what they would contribute
(``oracle._binet_drop_bound``).
"""

from __future__ import annotations

import threading

from mpmath import libmp

from .mpcore import _RND

__all__ = ["ts_nodes"]

_CACHE: dict[tuple[int, int], list] = {}
_CACHE_LOCK = threading.Lock()


def ts_nodes(wp: int, level: int) -> list:
    """New (x, w) pairs introduced at ``level`` (step 2^-level).

    Level 0 holds all integer abscissas including the center; higher levels
    hold the odd multiples of their step.  Nodes are emitted until the
    weight underflows the working precision.
    """
    key = (wp, level)
    got = _CACHE.get(key)
    if got is not None:
        return got
    with _CACHE_LOCK:
        got = _CACHE.get(key)
        if got is not None:
            return got
        # included nodes satisfy w >= 2^-(wp+32), hence sit at least
        # ~2^-(wp+50) away from the endpoints; 64 extra bits keep 1 - d
        # strictly below 1, so no node ever collapses onto an endpoint
        np = wp + 64
        cp = np + 32
        tiny = libmp.from_man_exp(1, -(wp + 32))
        quarter_pi = libmp.mpf_shift(libmp.mpf_pi(cp, _RND), -2)
        h = libmp.from_man_exp(1, -level)
        step = h if level == 0 else libmp.mpf_shift(h, 1)
        out = []
        if level == 0:
            out.append((libmp.fhalf, libmp.mpf_shift(libmp.mpf_pi(np, _RND), -2)))
        # a = (pi/4) e^u and b = (pi/4) e^-u, from u = h on in steps of `step`
        a = libmp.mpf_mul(quarter_pi, libmp.mpf_exp(h, cp, _RND), cp, _RND)
        b = libmp.mpf_mul(quarter_pi, libmp.mpf_exp(libmp.mpf_neg(h), cp, _RND), cp, _RND)
        up = libmp.mpf_exp(step, cp, _RND)
        down = libmp.mpf_exp(libmp.mpf_neg(step), cp, _RND)
        while True:
            e2 = libmp.mpf_exp(libmp.mpf_shift(libmp.mpf_sub(a, b, cp, _RND), 1), np, _RND)
            d = libmp.mpf_div(libmp.fone, libmp.mpf_add(e2, libmp.fone, np, _RND), np, _RND)
            w = libmp.mpf_mul(libmp.mpf_mul(e2, d, np, _RND), d, np, _RND)
            w = libmp.mpf_mul(libmp.mpf_shift(libmp.mpf_add(a, b, np, _RND), 1), w, np, _RND)
            if libmp.mpf_lt(w, tiny):
                break
            out.append((d, w))
            out.append((libmp.mpf_sub(libmp.fone, d, np, _RND), w))
            a = libmp.mpf_mul(a, up, cp, _RND)
            b = libmp.mpf_mul(b, down, cp, _RND)
        _CACHE[key] = out
        return out
