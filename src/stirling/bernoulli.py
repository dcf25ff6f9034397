"""Exact Bernoulli numbers B_k and the series coefficients a_k.

B_k comes from the integer tangent numbers T_1, T_2, ... (Brent & Harvey,
"Fast computation of Bernoulli, Tangent and Secant numbers",
arXiv:1108.0286), built by an in-place integer recurrence, and

    B_2i = (-1)^(i-1) 2i T_i / (4^i (4^i - 1)),   B_1 = -1/2,
    B_k = 0 for odd k >= 3.

a_k comes from its own factorial-form recurrence

    a_0 = 1,   sum_{j=0..k} a_j / (k+1-j)! = 0          (k >= 1)

run on demand, only as far as the k asked for and at most to k = 128, the
verification depth, over one common denominator: the a_j are kept as
integer numerators over the lcm L of their denominators, multiplied by the
falling factorials (k+1)!/(k+1-j)!, and reduced once per k
(``_a_recurrence``), and a later, deeper k resumes from them.  It uses no
tangent number, so up to k = 128 the identity k! * a_k == B_k is a genuine
cross-check between two computations rather than a restatement of one of
them; past it a_k is derived as B_k / k!.  Everything is exact integer or
``fractions.Fraction`` arithmetic; no floating point enters this module.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

from .mpcore import _lcm_append, _require_index

__all__ = ["BernoulliTable", "bernoulli", "series_coeff_a", "table", "DEFAULT_CAP"]

DEFAULT_CAP = 512

# a_k runs its own recurrence up to this index, the deepest one at which
# k! * a_k == B_k is checked; beyond it a_k is B_k / k!.
_A_DEPTH = 128


def _tangent_numbers(n: int) -> list[int]:
    """[T_1, ..., T_n], the tangent numbers, in O(n^2) integer operations."""
    t = [0] * (n + 1)
    if n >= 1:
        t[1] = 1
    for k in range(2, n + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1:]


def _a_recurrence(L: int, N: list[int], k: int) -> tuple[list[Fraction], int, list[int]]:
    """([a_m for m = len(N)..k], L', N') (no a_m when len(N) > k) by the
    factorial recurrence a_m = -sum_(j<m) a_j / (m+1-j)!, over one common
    denominator, from N, the numerators of a_0, a_1, ... over L, the lcm of
    their denominators; L' and N' are the same for the a_j with j <= k too,
    and a later call resumes from them.

    With every a_j = N_j / L for L the lcm of their denominators,
    (m+1)! a_m = -sum_(j<m) a_j (m+1)! / (m+1-j)!, and the falling
    factorials (m+1)! / (m+1-j)! = (m+1) m ... (m+2-j) are integers, so
    a_m = -sum_(j<m) N_j (m+1)! / (m+1-j)! / (L (m+1)!): one sum of integer
    products and one reduction per m.  L then takes in the denominator of
    a_m (``mpcore._lcm_append``).
    """
    N = list(N)
    out = []
    for m in range(len(N), k + 1):
        t, falling = 0, 1  # falling = (m+1)! / (m+1-j)!
        for j in range(m):
            t -= N[j] * falling
            falling *= m + 1 - j
        x = Fraction(t, L * math.factorial(m + 1))
        out.append(x)
        L = _lcm_append(L, N, x)
    return out, L, N


class BernoulliTable:
    """Memoized table of exact B_0..B_K and a_0..a_k, k <= 128.

    B grows geometrically, when a B_k past it is asked for.  a grows only
    when an a_k past it is asked for, and then to k itself (never past
    128): it does not follow B.  Neither mutates existing entries.
    Extension is serialized by a lock and builds new lists that replace the
    old ones only when complete, so concurrent readers always see fully
    written rows.
    """

    def __init__(self, cap: int = DEFAULT_CAP):
        self.cap = cap
        self._b: list[Fraction] = [Fraction(1)]
        self._a: list[Fraction] = [Fraction(1)]
        self._a_scaled = (1, [1])  # (L, N): _a[j] = N[j] / L, for _a_recurrence
        self._lock = threading.RLock()

    @property
    def max_index(self) -> int:
        return len(self._b) - 1

    def _extend_to(self, k: int) -> None:
        with self._lock:
            if k <= self.max_index:
                return
            target = min(self.cap, max(k, 2 * len(self._b)))
            tangent = _tangent_numbers(target // 2)
            b = list(self._b)
            for m in range(len(b), target + 1):
                if m == 1:
                    b.append(Fraction(-1, 2))
                elif m % 2:
                    b.append(Fraction(0))
                else:
                    i = m // 2
                    four_i = 4 ** i
                    b.append(Fraction((-1) ** (i - 1) * m * tangent[i - 1],
                                      four_i * (four_i - 1)))
            self._b = b

    def b(self, k: int) -> Fraction:
        _require_index(k, "k", 0, self.cap, "Bernoulli table cap")
        if k > self.max_index:
            self._extend_to(k)
        return self._b[k]

    def a(self, k: int) -> Fraction:
        _require_index(k, "k", 0, self.cap, "Bernoulli table cap")
        if k > _A_DEPTH:
            return self.b(k) / math.factorial(k)
        if k >= len(self._a):
            with self._lock:
                if k >= len(self._a):
                    new, L, N = _a_recurrence(*self._a_scaled, k)
                    self._a_scaled = L, N
                    self._a = self._a + new
        return self._a[k]


_TABLE = BernoulliTable()


def table() -> BernoulliTable:
    """The process-wide memoized table."""
    return _TABLE


def bernoulli(k: int) -> Fraction:
    """Exact B_k from the tangent numbers (B_1 = -1/2 convention)."""
    return _TABLE.b(k)


def series_coeff_a(k: int) -> Fraction:
    """Exact a_k.  For k <= 128 from its own factorial-form recurrence,
    independent of B_k; for k > 128 derived as B_k / k!."""
    return _TABLE.a(k)
