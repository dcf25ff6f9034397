"""Two finite routes to the constant (1/2) ln(2 pi) of Stirling's formula.

Route one imposes the value Gamma(1) = 1 on the truncated expansion, which
replaces the constant by the exact rational sequence

    C_N = 1 - sum_{k=1..N} B_{2k} / (2k (2k-1)).

The increments telescope to -B_{2N}/(2N(2N-1)), so C_N first approaches
0.9189... and then diverges; stopping at the smallest increment recovers
the constant to a few parts in 10^4.

Route two solves the finite-z constraint that Legendre's duplication
identity places on e^(C - 1/2) (1 + 1/(2z))^z, giving

    C(z) = (1/2) ln(2 pi) + 1/2 - z ln(1 + 1/(2z)),

whose gap to the limit decays like 1/(8z).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mpmath import libmp

from .errors import DomainError, ValidityError
from .mpcore import (_RND, BigFloat, PrecisionCtx, _log_raw, _require_index, default_ctx,
                     rational_to_float, to_raw)
from .series import _half_ln_2pi, term_coefficient

__all__ = [
    "ConstantSequence",
    "c_sequence",
    "duplication_constant",
    "best_constant_estimate",
]


@dataclass(frozen=True)
class ConstantSequence:
    """Entries (N, exact C_N, decimal C_N) for N = 1..N_max, plus the
    reference value (1/2) ln(2 pi) at the same precision."""

    entries: tuple[tuple[int, Fraction, BigFloat], ...]
    reference: BigFloat


def c_sequence(n_max: int, ctx: PrecisionCtx | None = None) -> ConstantSequence:
    """Exact C_N = 1 - sum_{k<=N} B_{2k}/(2k(2k-1)) for N = 1..n_max."""
    ctx = ctx or default_ctx()
    _require_index(n_max, "n_max", 1)
    entries = []
    acc = Fraction(1)
    for N in range(1, n_max + 1):
        acc -= term_coefficient(N)
        entries.append((N, acc, rational_to_float(acc, ctx)))
    reference = BigFloat.from_raw(_half_ln_2pi(ctx.wprec()).v, ctx)
    return ConstantSequence(entries=tuple(entries), reference=reference)


def duplication_constant(z, ctx: PrecisionCtx) -> BigFloat:
    """C(z) = (1/2) ln(2 pi) + 1/2 - z ln(1 + 1/(2z)), for z > 1/2."""
    wp = ctx.wprec()
    z_raw = to_raw(z, wp)
    if libmp.mpf_le(z_raw, libmp.fhalf):
        raise DomainError("duplication constant needs z > 1/2")
    half_over_z = libmp.mpf_div(libmp.fhalf, z_raw, wp, _RND)
    one_plus = libmp.mpf_add(libmp.fone, half_over_z, wp, _RND)
    term = libmp.mpf_mul(z_raw, _log_raw(one_plus, wp), wp, _RND)
    acc = libmp.mpf_add(_half_ln_2pi(wp).v, libmp.fhalf, wp, _RND)
    return BigFloat.from_raw(libmp.mpf_sub(acc, term, wp, _RND), ctx)


def best_constant_estimate(sequence: ConstantSequence) -> tuple[int, BigFloat]:
    """Stop the divergent constant sequence at its smallest increment.

    Returns (N_best, C at N_best) where N_best is the first local minimum
    of |C_N - C_{N-1}| (the last index, if increments only decrease).  The
    increments are taken in order and only up to that minimum: an
    increment past it cannot change which one is the first.

    How close that is: at z = 1, 0 = ln Gamma(1) = P(1) + R_N(1) + rho_N
    with P(1) = (1/2) ln(2 pi) - 1 and R_N(1) = 1 - C_N, so C_N - (1/2)
    ln(2 pi) = -rho_N, and by the sandwich property (``series``) |rho_N| <
    |B_(2N+2)| / ((2N+2) (2N+1)), the first omitted term.  On
    ``c_sequence(10)`` the increments |B_2N| / (2N (2N-1)) = 1/360, 1/1260,
    1/1680, 1/1188 rise first into N = 5, so N_best = 4 and C_4 is within
    |B_10| / 90 = 1/1188 < 2 10^-3 of the constant; C_3 is within |B_8| / 56
    = 1/1680 < 6 10^-4, with 4.8 10^-6 to spare.  These are the thresholds
    of the report's ``constants.recovery`` check.
    """
    entries = sequence.entries
    if len(entries) < 2:
        raise ValidityError("need at least 2 entries to compare increments")
    best, prev = 1, abs(entries[1][1] - entries[0][1])  # the increment into entries[best]
    for i in range(2, len(entries)):
        inc = abs(entries[i][1] - entries[i - 1][1])
        if inc > prev:
            break
        best, prev = i, inc
    best_n, _, c_dec = entries[best]
    return best_n, c_dec
