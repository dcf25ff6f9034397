"""Tanh-sinh nodes and weights on (0, 1), by doubling level.

Nodes x(u) = (1 + tanh((pi/2) sinh u)) / 2 on the step grid u = k h with
h = 2^-level.  Each halving of the step reuses all previous nodes and adds
the odd multiples, so a caller that sums level by level refines its
estimate without recomputing earlier nodes.  This module only builds and
caches the nodes; the one convergence loop over them is
``oracle._binet_integral``.

Node/weight tables depend only on (working precision, level) and are
cached for the life of the process; they are pure functions of those
inputs, so repeated runs are bit-identical.

Nodes are emitted until the weight underflows the working precision,
which presumes an integrand bounded near the endpoints (true for the
smooth decaying Binet integrand).  The Binet oracle then omits the right
nodes x > 1 - 2^-k, where its factor 1/(e^(2 pi T x) - 1) has made them
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


def _node_pair(u_raw, np: int):
    """Nodes and weight for +-u: returns (x_minus, x_plus, w)."""
    ch, sh = libmp.mpf_cosh_sinh(u_raw, np, _RND)
    half_pi = libmp.mpf_shift(libmp.mpf_pi(np, _RND), -1)
    q = libmp.mpf_mul(half_pi, sh, np, _RND)
    e = libmp.mpf_exp(q, np, _RND)
    e2 = libmp.mpf_mul(e, e, np, _RND)
    # tanh(q) = 1 - 2/(e^2q + 1); map s -> x = (1+s)/2
    d = libmp.mpf_div(libmp.fone, libmp.mpf_add(e2, libmp.fone, np, _RND), np, _RND)
    x_minus = d
    x_plus = libmp.mpf_sub(libmp.fone, d, np, _RND)
    inv_e = libmp.mpf_div(libmp.fone, e, np, _RND)
    cosh_q = libmp.mpf_shift(libmp.mpf_add(e, inv_e, np, _RND), -1)
    quarter_pi = libmp.mpf_shift(half_pi, -1)
    w = libmp.mpf_mul(quarter_pi, ch, np, _RND)
    w = libmp.mpf_div(w, libmp.mpf_mul(cosh_q, cosh_q, np, _RND), np, _RND)
    return x_minus, x_plus, w


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
        tiny = libmp.from_man_exp(1, -(wp + 32))
        out = []
        h = libmp.from_man_exp(1, -level)
        if level == 0:
            quarter_pi = libmp.mpf_shift(libmp.mpf_pi(np, _RND), -2)
            out.append((libmp.fhalf, quarter_pi))
            ks = range(1, 10**6)
        else:
            ks = range(1, 10**6, 2)
        for k in ks:
            u = libmp.mpf_mul_int(h, k, np, _RND)
            x_minus, x_plus, w = _node_pair(u, np)
            if libmp.mpf_lt(w, tiny):
                break
            out.append((x_minus, w))
            out.append((x_plus, w))
        _CACHE[key] = out
        return out
