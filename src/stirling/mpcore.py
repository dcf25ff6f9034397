"""Precision-managed arithmetic substrate.

Exact rationals are plain ``fractions.Fraction`` (always stored reduced,
positive denominator, structural equality).  Approximate values are
``BigFloat``: an immutable radix-2 float together with the significand
precision (in bits) of the context that produced it.  The field operations,
square roots, pi and Euler's gamma are delegated to mpmath's ``libmp``
layer, and every e^x and ln x of the package to the integer kernels
``fixed._exp`` and ``fixed._log``, through :func:`_exp_raw` and
:func:`_log_raw`.  All of them are pure functions of ``(operands,
precision, rounding)`` and therefore give bit-identical results for
identical inputs.

Internal computations round at one working precision, ``PrecisionCtx.wprec()``
= bits + ``GUARD`` (32), and the final result is rounded once to the
context's bits.  The rounding model that every proven bound rests on, U(c),
the correctly rounded e^x and ln x, and libmp's one-ulp allowance for pi
and gamma, is stated once, in :class:`_Ball`, which also carries the error
of the bounds that no loop counts.  Two places add
the bits a cancellation costs: ``bounds.sequence_point``, whose r_n ~
1/(12n) is what is left of terms near n ln n, and Mermin's
``expansions.mermin_partial_product``, whose sum is small against the
error of its fixed point.  Only two places work at bits + 64 instead:
``lngamma_binet2``, whose quadrature parts are proven at that precision
and whose assembly ``_Ball`` tracks there, and ``bounds._sandwich_point``,
which asks the oracle for bits + 64 only to keep the oracle's error bound
small against the sandwich's margins, as its verdict is exact at any
precision.  A published value prints only the digits its own error bound
proves (:func:`certified_decimal`), and a published bound is printed
rounded up (:func:`decimal_up`).  Every conversion to a libmp value goes
through :func:`to_raw`.

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
from .fixed import _exp, _log

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
    "decimal_nearest",
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


def _exp_raw(v, wp: int):
    """e^v for a finite raw v, to nearest at wp bits, from ``fixed._exp``."""
    sign, man, exp, _ = v
    if not man:
        return libmp.fone
    man = -man if sign else man
    if exp >= 0:
        man, exp = man << exp, 0
    return libmp.from_man_exp(*_exp(man, -exp, wp))


def _log_raw(v, wp: int):
    """ln v for a finite raw v > 0, to nearest at wp bits, from ``fixed._log``."""
    sign, man, exp, _ = v
    if sign or not man:
        raise DomainError("ln requires a positive argument")
    return libmp.from_man_exp(*_log(man, exp, wp))


def raw_expm1(x_raw, prec: int):
    """e^x - 1 for a finite raw x, to nearest at prec bits.

    c = e^x to nearest at wp bits is within r = 2^(mag c - wp - 1) of it,
    so e^x - 1 lies within r of the exact c - 1.  If c - 1 - r and c - 1 +
    r round alike at prec, so does every real between them, as rounding is
    monotone, e^x - 1 among them (Ziv's test); else wp grows by 32 bits.
    It starts at wp = prec + 8 + max(0, -mag x), where c - 1 keeps prec + 8
    bits of e^x - 1.
    """
    sign, man, exp, bc = x_raw
    if man == 0:
        if exp == 0:
            return libmp.fzero
        raise DomainError("expm1 of non-finite value")
    wp = prec + max(0, -(exp + bc)) + 8
    while True:
        c = _exp_raw(x_raw, wp)
        r = libmp.from_man_exp(1, c[2] + c[3] - wp - 1)
        d = libmp.mpf_sub(c, libmp.fone)
        lo = libmp.mpf_sub(d, r, prec, _RND)
        if lo == libmp.mpf_add(d, r, prec, _RND):
            return lo
        wp += 32


_UNARY = {"ln": _log_raw, "exp": _exp_raw, "sqrt": lambda x, wp: libmp.mpf_sqrt(x, wp, _RND)}


def elementary(fn: str, x, ctx: PrecisionCtx) -> BigFloat:
    """Evaluate ln, exp or sqrt at ``ctx`` precision; any other name
    raises DomainError.

    ln and sqrt require x > 0.  The function is taken correctly rounded at
    wp = ctx.wprec(), ln and exp by ``fixed._log`` and ``fixed._exp`` and
    sqrt by libmp, and rounded once more to ctx.bits.  For an exact
    argument (a BigFloat, int or float) the result is then within (1/2 +
    2^-(GUARD+1)) ulp of the function at ctx.bits: the value at wp is
    within half an ulp there, 2^-(GUARD+1) of an ulp at ctx.bits, and the
    rounding adds half an ulp.  A Fraction or a string is first rounded at
    wp, which ln near 1 and exp of a large argument magnify past any bound
    in ulps.
    """
    try:
        op = _UNARY[fn]
    except KeyError:
        raise DomainError(f"unknown elementary function {fn!r}") from None
    wp = ctx.wprec()
    xr = to_raw(x, wp)
    if fn != "exp" and libmp.mpf_le(xr, libmp.fzero):
        raise DomainError(f"{fn} requires a positive argument")
    return BigFloat.from_raw(op(xr, wp), ctx)


def pi(ctx: PrecisionCtx) -> BigFloat:
    return BigFloat(libmp.mpf_pi(ctx.bits, _RND), ctx.bits)


def rational_to_float(q: Fraction, ctx: PrecisionCtx) -> BigFloat:
    """Correctly rounded conversion of an exact rational."""
    return bigfloat(Fraction(q), ctx)


# -- the rounding model -------------------------------------------------

def _ceil_shift(n: int, k: int) -> int:
    """ceil(n 2^k) for an integer n >= 0"""
    return n << k if k >= 0 else -(-n >> -k)


def _sum_up(parts, prec: int = 64):
    """The sum of the raw values ``parts``, each addition rounded up."""
    total = libmp.fzero
    for part in parts:
        total = libmp.mpf_add(total, part, prec, _UP)
    return total


class _Ball:
    """A libmp value v at wp bits with a proven bound on its error: the
    exact x that v stands for is within e 2^q of v, for integers e and q.
    This is the one rounding model of the package, a running error bound
    as in midpoint-radius arithmetic (Johansson, "Arb", IEEE Trans.
    Comput. 66, 2017; Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., ch. 3).

    For a libmp value c with 2^(mag c - 1) <= |c| < 2^(mag c), let

        U(c) = 2^(mag c - wp),  U(0) = 0,

    one ulp of a wp-bit c, so U(c) <= 2^(1-wp) |c|.  The allowance: every
    operation at wp returns a c within U(c) of the exact result on its
    computed operands.  + - x / and the conversions are correctly rounded
    by libmp, within U(c)/2, and so are e^a and ln a, which come from
    ``fixed._exp`` and ``fixed._log`` (:func:`_exp_raw`, :func:`_log_raw`)
    with their proven bounds; only libmp's mpf_pi and mpf_euler are taken
    to within one ulp, which mpmath 1.3 does not document and every bound
    of the package that takes them assumes.  So c = x (1 + delta) with
    |delta| <= u = 2^(2-wp), the form Higham's Lemma 3.1 counts in a loop.
    A computed 0 is exact: libmp's exponents are unbounded and its rounding
    keeps a nonzero leading bit, so a sum or product that comes out 0 was
    0; a correctly rounded log is 0 only where the exact one is, at ln 1;
    and e^a is never 0.

    Each operation takes the one call at wp that the value takes without a
    bound (libmp's, or ``fixed``'s for e^a and ln a), and adds U of its
    result to the errors its operands e_a, e_b pass on (an exact raw
    operand has none):
      - a +- b: e_a + e_b;  a b: |a~| e_b + |b~| e_a + e_a e_b;
      - 2^k a (``shift``) and -a: 2^k e_a and e_a, and no U, as they are
        exact;
      - ln a: e_a / (a~ - e_a), by the mean value theorem, and ln(1 + a)
        (``log1p``) the same, as the ln of the exact 1 + a~;
      - e^a: (|c| + U(c)) (e^d - 1) for d = e_a, with e^d - 1 <= d / (1 - d)
        for d <= 1/2, and < 2^ceil(3d/2) past it;
      - rounding to p bits (``rounded``): half an ulp there, 2^(mag - p - 1).
    The unit 2^q is 2^-(wp+64) to begin with, and the finer of two
    operands' units after; ``exp`` takes 2^-64 U(c) where that is finer,
    and 2^ceil(3d/2) times that past d = 1/2, so that a tiny or a huge
    result keeps its error in few bits.
    """

    __slots__ = ("v", "wp", "e", "q")

    def __init__(self, v, wp: int, e: int = 0, q: int | None = None):
        self.v, self.wp, self.e = v, wp, e
        self.q = -(wp + 64) if q is None else q

    @classmethod
    def op(cls, c, wp: int) -> "_Ball":
        """c from one libmp operation at wp on exact operands."""
        return cls(c, wp)._out(c, 0, -(wp + 64))

    def _out(self, c, e: int, q: int) -> "_Ball":
        """c, with the error e 2^q that its operands pass on, and U(c)"""
        if c[1]:
            k = c[2] + c[3] - self.wp - q
            e += 1 << k if k >= 0 else 1
        return _Ball(c, self.wp, e, q)

    def _slope(self, a) -> int:
        """e / (a - e) in units, for this ball's error e and a raw a > e"""
        if not self.e:
            return 0
        t = max(0, self.q, self.q - a[2])
        den = (a[1] << (a[2] - self.q + t)) - (self.e << t)
        if a[0] or den <= 0:
            raise DomainError("the log of a value whose error reaches 0")
        return -(-(self.e << (t - self.q)) // den)

    def _summed(fn):  # a + b and a - b, units and U inline: most operations are sums
        def op(self, b):
            if isinstance(b, _Ball):
                c, q = fn(self.v, b.v, self.wp, _RND), self.q
                if b.q == q:
                    e = self.e + b.e
                else:
                    q = min(q, b.q)
                    e = (self.e << (self.q - q)) + (b.e << (b.q - q))
            else:
                c, e, q = fn(self.v, b, self.wp, _RND), self.e, self.q
            if c[1]:
                k = c[2] + c[3] - self.wp - q
                e += 1 << k if k >= 0 else 1
            return _Ball(c, self.wp, e, q)
        return op

    __add__, __sub__ = _summed(libmp.mpf_add), _summed(libmp.mpf_sub)
    del _summed

    def __mul__(self, b):
        a, e_a, q = self.v, self.e, self.q
        if isinstance(b, _Ball):
            v, e_b = b.v, b.e
            if b.q != q:
                q = min(q, b.q)
                e_a, e_b = e_a << (self.q - q), e_b << (b.q - q)
        else:
            v, e_b = b, 0
        e = _ceil_shift(a[1] * e_b, a[2]) if e_b else 0
        if e_a:
            e += _ceil_shift(v[1] * e_a, v[2]) + _ceil_shift(e_a * e_b, q)
        return self._out(libmp.mpf_mul(a, v, self.wp, _RND), e, q)

    def __neg__(self):
        return _Ball(libmp.mpf_neg(self.v), self.wp, self.e, self.q)

    def shift(self, k: int) -> "_Ball":
        return _Ball(libmp.mpf_shift(self.v, k), self.wp, self.e, self.q + k)

    def log(self) -> "_Ball":
        return self._out(_log_raw(self.v, self.wp), self._slope(self.v), self.q)

    def log1p(self) -> "_Ball":
        return _Ball(libmp.mpf_add(libmp.fone, self.v), self.wp, self.e, self.q).log()

    def exp(self) -> "_Ball":
        c, e = _exp_raw(self.v, self.wp), self.e
        q = min(self.q, c[2] + c[3] - self.wp - 64)
        reach = _ceil_shift(c[1], c[2] - q) + _ceil_shift(1, c[2] + c[3] - self.wp - q)
        if self.q < 0 and 2 * e <= 1 << -self.q:  # e^d - 1 <= d / (1 - d)
            return self._out(c, -(-reach * e // ((1 << -self.q) - e)), q)
        return self._out(c, reach, q + _ceil_shift(3 * e, self.q - 1))  # < 2^ceil(3d/2)

    def rounded(self, bits: int) -> "_Ball":
        """v rounded to ``bits`` < wp, as BigFloat.from_raw rounds it"""
        v = self.v
        half = _ceil_shift(1, v[2] + v[3] - bits - 1 - self.q) if v[1] else 0
        return _Ball(libmp.mpf_pos(v, bits, _RND), self.wp, self.e + half, self.q)

    def widen(self, *bounds) -> "_Ball":
        """The same value, its error grown by each raw bound >= 0."""
        e = self.e
        for b in bounds:
            e += _ceil_shift(b[1], b[2] - self.q)
        return _Ball(self.v, self.wp, e, self.q)

    def error(self):
        """The error bound e 2^q, a raw value."""
        return libmp.from_man_exp(self.e, self.q)

    def ends(self):
        """(lo, hi) at wp bits, rounded outward, around the exact value."""
        return (libmp.mpf_sub(self.v, self.error(), self.wp, libmp.round_floor),
                libmp.mpf_add(self.v, self.error(), self.wp, _UP))

    def published(self, ctx: PrecisionCtx) -> tuple[BigFloat, BigFloat]:
        """(value, bound) at ctx.bits: v rounded, and its error, with that
        rounding, rounded up."""
        out = self.rounded(ctx.bits)
        return (BigFloat(out.v, ctx.bits),
                BigFloat(libmp.mpf_pos(out.error(), ctx.bits, _UP), ctx.bits))


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
    q != 0: |q| in units of its last of ``digits`` significant digits,
    found on the integers n / d = m."""
    n, d = abs(q.numerator), q.denominator
    p = int((n.bit_length() - d.bit_length()) * 0.30103) - digits + 1
    if p >= 0:
        d *= 10 ** p
    else:
        n *= 10 ** -p
    while n >= d * 10 ** digits:
        d, p = d * 10, p + 1
    while n < d * 10 ** (digits - 1):
        n, p = n * 10, p - 1
    return Fraction(n, d), p


def _print_decimal(k: int, p: int, digits: int) -> str:
    """The decimal k 10^p, of at most ``digits`` significant digits, laid
    out as ``BigFloat.to_decimal`` (``libmp.to_str``) lays out a value of
    those digits: trailing zeros dropped, in fixed point when the exponent
    e of its leading digit has min(-(digits // 3), -5) < e < digits, and
    otherwise as d.ddd then e."""
    if not k:
        return "0.0"
    sign, text = "-" if k < 0 else "", str(abs(k))
    e = p + len(text) - 1
    text, split = text.rstrip("0"), 1
    if min(-(digits // 3), -5) < e < digits:
        if e < 0:
            text = "0" * -e + text
        else:
            text, split = text.ljust(e + 1, "0"), e + 1
        e = 0
    out = sign + text[:split] + "." + (text[split:] or "0")
    return out if e == 0 else f"{out}e{e:+d}"


def certified_decimal(value: BigFloat, bound: BigFloat, digits: int) -> str:
    """``value`` at the most significant digits, at most ``digits``, that
    ``bound`` proves, or "" when it proves none.

    Every x with |x - value| <= |bound| lies between the exact ends
    value -+ |bound|, and rounding to d significant digits (half away from
    zero, as ``libmp.to_str`` rounds) is monotone, so when both ends round
    to the same decimal of d digits, x rounds to it too.  Ends of opposite
    signs round apart.  d is searched downwards from ``digits``, as
    agreement at d does not imply agreement at d - 1 (0.85 -+ 0.004 gives
    0.85 at two digits, but 0.8 and 0.9 at one).  It starts at the most
    digits the width allows: ends that round to one N of d digits lie
    within half a unit 10^K of its last place each, K that of the larger
    end, which is at least 10^(K+d-1), so 2 |bound| <= 10^K <= 10^(1-d)
    (|value| + |bound|).  The decimal is printed as ``BigFloat.to_decimal``
    prints, so a value whose every digit is proven prints as
    ``value.to_decimal(digits)``.
    """
    v, e = value._fraction(), abs(bound._fraction())
    if e == 0 == v:
        return _print_decimal(0, 0, digits)
    if v - e <= 0 <= v + e:
        return ""
    if e:
        width = (abs(v) + e) // (2 * e)  # 10^(d-1) <= width for agreement at d
        top = int((width.bit_length() - 1) * 0.30102999) + 1
        while 10 ** top <= width:
            top += 1
        digits = min(digits, top)
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
            return _print_decimal(n if v > 0 else -n, k, d)
    return ""


def decimal_up(value: BigFloat, digits: int) -> str:
    """``value`` at ``digits`` significant decimal digits, rounded up, so
    that a printed bound is never below the bound itself: the least
    decimal of ``digits`` digits at or above the exact value."""
    q, k, p = value._fraction(), 0, 0
    if q != 0:
        m, p = _decimal_scale(q, digits)
        k = math.ceil(m) if q > 0 else -math.floor(m)
    return _print_decimal(k, p, digits)


def decimal_nearest(q: Fraction, digits: int) -> str:
    """The exact rational q at ``digits`` significant decimal digits,
    correctly rounded (half away from zero, as ``libmp.to_str`` rounds),
    printed as ``BigFloat.to_decimal`` prints."""
    k = p = 0
    if q != 0:
        m, p = _decimal_scale(q, digits)
        k = (2 * m.numerator + m.denominator) // (2 * m.denominator)  # m rounded half up
    return _print_decimal(k if q > 0 else -k, p, digits)
