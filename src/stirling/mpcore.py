"""Precision-managed arithmetic substrate.

Exact rationals are plain ``fractions.Fraction`` (always stored reduced,
positive denominator, structural equality).  Approximate values are
``BigFloat``: an immutable radix-2 float together with the significand
precision (in bits) of the context that produced it.  All arithmetic is
delegated to mpmath's ``libmp`` layer, whose primitives are pure functions
of ``(operands, precision, rounding)`` and therefore give bit-identical
results for identical inputs.

Internal computations round at one working precision, ``PrecisionCtx.wprec()``
= bits + ``GUARD`` (32), and the final result is rounded once to the
context's bits, so every published value is within 2 ulp of the true one.
Two places add the bits a cancellation costs: ``bounds.sequence_point``,
whose r_n ~ 1/(12n) is what is left of terms near n ln n, and Mermin's
``expansions.mermin_partial_product``, whose sum is small against the
error of its fixed point.  Only two places work at bits + 64 instead:
``lngamma_binet2``, whose bounds are proven at that precision, and
``bounds._sandwich_point``, which asks the oracle for bits + 64 only to
keep the oracle's error bound small against the sandwich's margins, as its
verdict is exact at any precision.  A published value prints only the
digits its own error bound proves (:func:`certified_decimal`), and a
published bound is printed rounded up (:func:`decimal_up`).  Every
conversion to a libmp value goes through :func:`to_raw`.

The argument rules of the package live here too.  A real argument is
converted by :func:`to_raw`, which refuses a non-finite float and a string
that is not a rational with ``DomainError``.  Every count, order and index
(the N of a truncated series, the n of n!, the K of a partial sum or
product, the k of B_k) is checked by :func:`_require_index`: one that is
not an ``int``, is a ``bool`` or is below its minimum raises
``DomainError``, and one past its cap raises ``ResourceError``.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction

from mpmath import libmp

from .errors import DomainError, PrecisionError, ResourceError

__all__ = [
    "PrecisionCtx",
    "BigFloat",
    "bigfloat",
    "default_ctx",
    "elementary",
    "rational_to_float",
    "rational_to_str",
    "rational_from_str",
    "certified_decimal",
    "decimal_up",
]

MIN_BITS = 64
DEFAULT_BITS = 256
PRECISION_ENV_VAR = "STIRLING_PRECISION_BITS"

# Guard bits of every working precision: PrecisionCtx.wprec() = bits + GUARD.
GUARD = 32

_RND = "n"  # round to nearest even, everywhere
_UP = libmp.round_ceiling  # the parts of an error bound are summed upwards


@dataclass(frozen=True)
class PrecisionCtx:
    """Significand precision in bits for one computation.

    Deterministic by construction: every operation performed under a given
    context depends only on its operands and ``bits``.
    """

    bits: int

    def __post_init__(self) -> None:
        if not isinstance(self.bits, int) or self.bits < MIN_BITS:
            raise PrecisionError(
                f"precision must be an integer >= {MIN_BITS} bits, got {self.bits!r}"
            )

    def wprec(self) -> int:
        """Internal working precision: bits + GUARD."""
        return self.bits + GUARD


def default_ctx() -> PrecisionCtx:
    """Context from the STIRLING_PRECISION_BITS env var (default 256)."""
    raw = os.environ.get(PRECISION_ENV_VAR)
    if raw is None:
        return PrecisionCtx(DEFAULT_BITS)
    try:
        bits = int(raw)
    except ValueError as exc:
        raise PrecisionError(f"bad {PRECISION_ENV_VAR}={raw!r}") from exc
    return PrecisionCtx(bits)


def _check_finite(raw) -> None:
    sign, man, exp, bc = raw
    if man == 0 and exp != 0:
        # libmp encodes inf/-inf/nan with zero mantissa and sentinel exponents
        raise DomainError("non-finite value escaped an operation")


class BigFloat:
    """Immutable radix-2 float carrying the precision it was created at.

    Arithmetic between BigFloats rounds at the larger of the two contexts.
    int and float operands are lifted exactly.  A Fraction operand is first
    rounded at ``ctx_bits + GUARD``, and the operation then rounds the result
    to the operation precision.  Equality and ordering compare exact numeric
    values, and the hash is that of the exact value.
    """

    __slots__ = ("_raw", "ctx_bits")

    def __init__(self, raw, ctx_bits: int):
        if ctx_bits < MIN_BITS:
            raise PrecisionError(f"ctx_bits must be >= {MIN_BITS}, got {ctx_bits}")
        _check_finite(raw)
        object.__setattr__(self, "_raw", raw)
        object.__setattr__(self, "ctx_bits", ctx_bits)

    def __setattr__(self, name, value):
        raise AttributeError("BigFloat is immutable")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through __init__, not __setattr__
        return BigFloat, (self._raw, self.ctx_bits)

    # -- construction -------------------------------------------------

    @classmethod
    def from_raw(cls, raw, ctx: PrecisionCtx) -> "BigFloat":
        """Wrap a libmp raw value, rounding it to ``ctx.bits``."""
        return cls(libmp.mpf_pos(raw, ctx.bits, _RND), ctx.bits)

    @classmethod
    def from_hex(cls, text: str, ctx: PrecisionCtx | None = None) -> "BigFloat":
        raw = _raw_from_hex(text)
        bits = (ctx or default_ctx()).bits
        return cls(raw, bits)

    # -- accessors ----------------------------------------------------

    @property
    def raw(self):
        return self._raw

    def is_zero(self) -> bool:
        return self._raw[1] == 0

    def sign(self) -> int:
        if self._raw[1] == 0:
            return 0
        return -1 if self._raw[0] else 1

    def to_hex(self) -> str:
        return _raw_to_hex(self._raw)

    def to_decimal(self, digits: int = 20) -> str:
        return libmp.to_str(self._raw, digits)

    def __float__(self) -> float:
        return libmp.to_float(self._raw)

    def __repr__(self) -> str:
        return f"BigFloat({self.to_decimal(20)!r}, bits={self.ctx_bits})"

    def __hash__(self):
        # hash of the exact value, so it agrees with the exact equality below
        return hash(self._fraction())

    def _fraction(self) -> Fraction:
        return Fraction(*libmp.to_rational(self._raw))

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        """Return (raw, bits) for the other operand, or None."""
        if isinstance(other, BigFloat):
            return other._raw, other.ctx_bits
        if isinstance(other, (int, float, Fraction)):
            return to_raw(other, self.ctx_bits + GUARD), self.ctx_bits
        return None

    def _binop(self, other, fn, reverse=False):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        oraw, obits = co
        bits = max(self.ctx_bits, obits)
        a, b = (oraw, self._raw) if reverse else (self._raw, oraw)
        try:
            res = fn(a, b, bits, _RND)
        except ZeroDivisionError as exc:
            raise DomainError("division by zero") from exc
        except libmp.ComplexResult as exc:
            raise DomainError(str(exc)) from exc
        return BigFloat(res, bits)

    def __add__(self, other):
        return self._binop(other, libmp.mpf_add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, libmp.mpf_sub)

    def __rsub__(self, other):
        return self._binop(other, libmp.mpf_sub, reverse=True)

    def __mul__(self, other):
        return self._binop(other, libmp.mpf_mul)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, libmp.mpf_div)

    def __rtruediv__(self, other):
        return self._binop(other, libmp.mpf_div, reverse=True)

    def __pow__(self, other):
        return self._binop(other, libmp.mpf_pow)

    def __neg__(self):
        return BigFloat(libmp.mpf_neg(self._raw), self.ctx_bits)

    def __abs__(self):
        return BigFloat(libmp.mpf_abs(self._raw), self.ctx_bits)

    # -- comparisons (exact, no rounding) ------------------------------

    def _cmp_raw(self, other):
        if isinstance(other, Fraction):
            mine = self._fraction()
            return (mine > other) - (mine < other)
        co = self._coerce(other)
        if co is None:
            return None
        oraw, _ = co
        return libmp.mpf_cmp(self._raw, oraw)

    def __eq__(self, other):
        c = self._cmp_raw(other)
        return NotImplemented if c is None else c == 0

    def __lt__(self, other):
        c = self._cmp_raw(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp_raw(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp_raw(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp_raw(other)
        return NotImplemented if c is None else c >= 0


def bigfloat(x, ctx: PrecisionCtx) -> BigFloat:
    """Coerce ``x`` (BigFloat, int, float, Fraction, decimal str) to a BigFloat.

    The value is correctly rounded to ``ctx.bits`` (once: :func:`to_raw`
    lifts ints and floats exactly and rounds the rest at ``ctx.bits``).
    """
    if isinstance(x, BigFloat) and x.ctx_bits == ctx.bits:
        return x
    return BigFloat.from_raw(to_raw(x, ctx.bits), ctx)


def to_raw(x, wprec: int):
    """Raw libmp value of ``x``: BigFloats, ints and finite floats exactly,
    Fractions and rational strings correctly rounded to ``wprec`` bits.
    A non-finite float or a string that is not a rational raises
    DomainError."""
    if isinstance(x, BigFloat):
        return x._raw
    if isinstance(x, int):
        return libmp.from_int(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise DomainError(f"argument must be finite, got {x!r}")
        return libmp.from_float(x)
    if isinstance(x, str):
        try:
            x = Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise DomainError(f"not a rational number: {x!r}") from None
    if isinstance(x, Fraction):
        return libmp.from_rational(x.numerator, x.denominator, wprec, _RND)
    raise TypeError(f"cannot convert {type(x).__name__} to a raw float")


def _require_positive(z_raw, what: str = "z"):
    if libmp.mpf_le(z_raw, libmp.fzero):
        raise DomainError(f"{what} must be positive")


def _require_index(value, name: str, low: int, cap: int | None = None,
                   cap_name: str = "cap", low_name: str | None = None) -> int:
    """``value`` as a count, order or index: an int, not a bool, at least
    ``low`` (else DomainError, naming the minimum as ``low_name`` if given)
    and at most ``cap`` (else ResourceError, naming it ``cap_name``)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise DomainError(f"{name} must be an integer >= {low_name or low}")
    if cap is not None and value > cap:
        raise ResourceError(f"{name}={value} exceeds the {cap_name} {cap}")
    return value


# -- elementary functions ---------------------------------------------

_UNARY = {
    "ln": libmp.mpf_log,
    "exp": libmp.mpf_exp,
    "sqrt": libmp.mpf_sqrt,
    "arctan": libmp.mpf_atan,
}


def elementary(fn: str, x, ctx: PrecisionCtx, y=None) -> BigFloat:
    """Evaluate ln/exp/sqrt/arctan/pow at ``ctx`` precision (<= 2 ulp).

    ``pow`` needs the exponent in ``y``.  ln and sqrt require x > 0.
    """
    wp = ctx.wprec()
    xr = to_raw(x, wp)
    if fn == "pow":
        if y is None:
            raise DomainError("pow requires an exponent argument")
        yr = to_raw(y, wp)
        try:
            res = libmp.mpf_pow(xr, yr, wp, _RND)
        except libmp.ComplexResult as exc:
            raise DomainError(f"pow: {exc}") from exc
        except ZeroDivisionError as exc:
            raise DomainError("pow: zero base with negative exponent") from exc
        return BigFloat.from_raw(res, ctx)
    try:
        op = _UNARY[fn]
    except KeyError:
        raise DomainError(f"unknown elementary function {fn!r}") from None
    if fn in ("ln", "sqrt") and libmp.mpf_le(xr, libmp.fzero):
        raise DomainError(f"{fn} requires a positive argument")
    res = op(xr, wp, _RND)
    return BigFloat.from_raw(res, ctx)


def pi(ctx: PrecisionCtx) -> BigFloat:
    return BigFloat(libmp.mpf_pi(ctx.bits, _RND), ctx.bits)


def rational_to_float(q: Fraction, ctx: PrecisionCtx) -> BigFloat:
    """Correctly rounded conversion of an exact rational."""
    return bigfloat(Fraction(q), ctx)


# -- raw helpers shared by the numeric modules ------------------------


def raw_log1p(x_raw, prec: int):
    """log(1+x) for x > -1, compensating the cancellation near x = 0."""
    sign, man, exp, bc = x_raw
    if man == 0:
        if exp == 0:
            return libmp.fzero
        raise DomainError("log1p of non-finite value")
    mag = exp + bc  # x is within a factor 2 of 2**mag
    bump = max(0, -mag) + 8
    wp = prec + bump
    one_plus = libmp.mpf_add(libmp.fone, x_raw, wp, _RND)
    if libmp.mpf_le(one_plus, libmp.fzero):
        raise DomainError("log1p requires x > -1")
    return libmp.mpf_pos(libmp.mpf_log(one_plus, wp, _RND), prec, _RND)


def raw_expm1(x_raw, prec: int):
    """exp(x) - 1, accurate for tiny x."""
    sign, man, exp, bc = x_raw
    if man == 0:
        if exp == 0:
            return libmp.fzero
        raise DomainError("expm1 of non-finite value")
    wp = prec + max(0, -(exp + bc)) + 8
    e = libmp.mpf_exp(x_raw, wp, _RND)
    return libmp.mpf_pos(libmp.mpf_sub(e, libmp.fone, wp, _RND), prec, _RND)


def _ulp_raw(value_raw, bits: int, count: int = 1):
    """count 2^(mag - bits), for mag the exponent with 2^(mag-1) <= |x| <
    2^mag (1 for x = 0): count units in the last place of x at bits."""
    sign, man, exp, bc = value_raw
    mag = (exp + bc) if man else 1
    return libmp.from_man_exp(count, mag - bits)


def _sum_up(parts, prec: int = 64):
    """The sum of the raw values ``parts``, each addition rounded up."""
    total = libmp.fzero
    for part in parts:
        total = libmp.mpf_add(total, part, prec, _UP)
    return total


def _argument_error(z_raw, wp: int):
    """An upper bound on |ln Gamma(z) - ln Gamma(z~)| for every z > 0 that
    :func:`to_raw` turns into z~ = ``z_raw`` at ``wp`` bits.

    Let 2^(m-1) <= z~ < 2^m.  To nearest, z moves by at most 2^(m-wp-1)
    <= z~ 2^-wp (an exact z not at all), so every x between z and z~ has
    |ln x| < (|m| + 1) ln 2 + 2^(1-wp) < |m| + 1 and 1/x < 2^(2-m).  As
    ln x - 1/x < psi(x) < ln x (proven in ``oracle.lngamma_euler_limit``),
    |psi(x)| < |ln x| + 1/x, and the mean value theorem bounds the change
    by 2^(m-wp-1) (|m| + 1 + 2^(2-m)) = (|m| + 1) 2^(m-wp-1) + 2^(1-wp).
    """
    m = z_raw[2] + z_raw[3]
    return libmp.mpf_add(libmp.from_man_exp(abs(m) + 1, m - wp - 1),
                         libmp.from_man_exp(1, 1 - wp), 64, _UP)


# -- serialization ----------------------------------------------------

_HEX_RE = re.compile(r"^(-?)0x([01])(?:\.([0-9a-fA-F]+))?p([+-]?\d+)$")


def _raw_to_hex(raw) -> str:
    sign, man, exp, bc = raw
    if man == 0:
        return "0x0p+0"
    man = int(man)
    frac_bits = bc - 1
    nhex = (frac_bits + 3) // 4
    shift = 4 * nhex - frac_bits
    m = man << shift
    frac = m & ((1 << (4 * nhex)) - 1)
    e = exp + bc - 1
    s = "-" if sign else ""
    if nhex == 0:
        return f"{s}0x1p{e:+d}"
    return f"{s}0x1.{frac:0{nhex}x}p{e:+d}"


def _raw_from_hex(text: str):
    if text == "0x0p+0":
        return libmp.fzero
    m = _HEX_RE.match(text.strip())
    if m is None:
        raise DomainError(f"not a hex float: {text!r}")
    neg, lead, frac, e = m.group(1), m.group(2), m.group(3) or "", int(m.group(4))
    man = int(lead + frac, 16)
    if man == 0:
        return libmp.fzero
    exp = e - 4 * len(frac)
    if neg:
        man = -man
    return libmp.from_man_exp(man, exp)


def rational_to_str(q: Fraction) -> str:
    """'num/den' decimal string, den > 0, lowest terms."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def rational_from_str(text: str) -> Fraction:
    """The Fraction written 'num/den' or 'num' in integers, den != 0, as
    :func:`rational_to_str` writes it; anything else raises DomainError."""
    num, _, den = text.partition("/")
    try:
        return Fraction(int(num), int(den or "1"))
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"not a rational 'num/den': {text!r}") from None


# -- published decimals --------------------------------------------------


def _decimal_scale(q: Fraction, digits: int) -> tuple[Fraction, int]:
    """(m, p) with |q| = m 10^p and 10^(digits-1) <= m < 10^digits, for
    q != 0: |q| in units of its last of ``digits`` significant digits."""
    p = int((abs(q.numerator).bit_length() - q.denominator.bit_length()) * 0.30103) - digits + 1
    m = abs(q) / Fraction(10) ** p
    while m >= 10 ** digits:
        m, p = m / 10, p + 1
    while m < 10 ** (digits - 1):
        m, p = m * 10, p - 1
    return m, p


def _print_decimal(d: Fraction, digits: int) -> str:
    """The decimal d, of at most ``digits`` significant digits, as
    ``BigFloat.to_decimal`` prints it.

    d is rounded up to a binary w of 4 * digits + 20 bits, so d <= w <
    d + 10^-(digits+3) |d|, and ``libmp.to_str``, which keeps digits + 3
    digits and rounds the rest half up, prints w as d.
    """
    w = libmp.from_rational(d.numerator, d.denominator, 4 * digits + 20, _UP)
    return libmp.to_str(w, digits)


def certified_decimal(value: BigFloat, bound: BigFloat, digits: int) -> str:
    """``value`` at the most significant digits, at most ``digits``, that
    ``bound`` proves, or "" when it proves none.

    Every x with |x - value| <= |bound| lies between the exact ends
    value -+ |bound|, and rounding to d significant digits (half away from
    zero, as ``libmp.to_str`` rounds) is monotone, so when both ends round
    to the same decimal of d digits, x rounds to it too.  Ends of opposite
    signs round apart.  d is searched downwards from ``digits``, as
    agreement at d does not imply agreement at d - 1 (0.85 -+ 0.004 gives
    0.85 at two digits, but 0.8 and 0.9 at one).  The decimal is printed as
    ``BigFloat.to_decimal`` prints, so a value whose every digit is proven
    prints as ``value.to_decimal(digits)``.
    """
    v, e = value._fraction(), abs(bound._fraction())
    if e == 0 == v:
        return _print_decimal(v, digits)
    if v - e <= 0 <= v + e:
        return ""
    ends = [_decimal_scale(q, digits) for q in (v - e, v + e)]
    for d in range(digits, 0, -1):
        rounded = set()
        for m, p in ends:
            n, k = math.floor(m / 10 ** (digits - d) + Fraction(1, 2)), p + digits - d
            while n % 10 == 0:
                n, k = n // 10, k + 1
            rounded.add((n, k))
        if len(rounded) == 1:
            n, k = rounded.pop()
            return _print_decimal((1 if v > 0 else -1) * n * Fraction(10) ** k, d)
    return ""


def decimal_up(value: BigFloat, digits: int) -> str:
    """``value`` at ``digits`` significant decimal digits, rounded up, so
    that a printed bound is never below the bound itself: the least
    decimal of ``digits`` digits at or above the exact value."""
    q = value._fraction()
    if q != 0:
        m, p = _decimal_scale(q, digits)
        q = (math.ceil(m) if q > 0 else -math.floor(m)) * Fraction(10) ** p
    return _print_decimal(q, digits)
