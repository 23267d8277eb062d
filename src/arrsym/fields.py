"""Exact scalars: rationals and quadratic extensions Q(sqrt d).

A scalar is a + b*sqrt(d) with rational a, b and a fixed integer d
(possibly negative) that is not a square: square-free, except that it may
keep the square of a prime above 1,000, since a field is named by a square
test, not by factoring (square_free_part).  It is stored as one reduced
integer triple (p, q, den) for (p + q*sqrt(d))/den, so arithmetic is
gcd-reduced integer arithmetic (Knuth, TAOCP vol. 2, 4.5.1) and builds no
Fraction.  All
arithmetic is exact; nothing here ever rounds.  The text form of a scalar
is ``rat | rat ('+'|'-') rat 'w' | ['-'] rat 'w' | 'w'`` where ``w`` stands
for sqrt(d) of the active field, e.g. ``1/2+1/2w``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt, lcm, sqrt
from operator import index

from .errors import (DegenerateError, FieldMixError, ParseError, ValidationError,
                     _digits, _quoted)
from .record import Record


# -- square test --------------------------------------------------------------

# Trial division takes out the square of every prime below this bound
# (dividing by 2 and the odd numbers: a composite one never divides what is
# left); a cofactor left over below its square is 1 or prime.
_TRIAL_BOUND = 1000


def square_free_part(n: int) -> tuple[int, int]:
    """(s, d) with n = s*s*d for a nonzero integer n, by a square test, not by
    factoring: trial division takes out the squares of the primes below
    _TRIAL_BOUND, then the cofactor left is taken out whole when ``isqrt``
    squares back to it.  So d is square-free but for squares of primes above
    _TRIAL_BOUND, and is no square unless it is 1; n*d is a square, so d names
    Q(sqrt n) exactly (Cohen, A Course in Computational Algebraic Number
    Theory, 1993, 1.7: Q(sqrt d) = Q(sqrt d') when d*d' is a square)."""
    if n == 0:
        raise ValueError("square_free_part(0) is undefined")
    m, s, d = abs(n), 1, 1
    for p in chain((2,), range(3, _TRIAL_BOUND, 2)):
        if p * p > m:
            break
        while m % (p * p) == 0:
            m, s = m // (p * p), s * p
        if m % p == 0:
            m, d = m // p, d * p
    if (r := isqrt(m)) * r == m:
        s, m = s * r, 1
    return s, (d * m if n > 0 else -d * m)


class FieldSpec(Record):
    """Ground field: the rationals (d is None), or Q(sqrt d) for a square-free d."""

    __slots__ = ("d",)

    def __init__(self, d: int | None = None) -> None:
        if d is not None:
            try:
                n = index(d)
            except TypeError:
                raise ValidationError(f"quadratic field d={_quoted(repr(d), str)} "
                                      "is not an integer") from None
            if n in (0, 1):
                raise ValidationError(f"invalid quadratic field d={_digits(d)[0]}")
            if square_free_part(n)[1] != n:
                raise ValidationError(f"d={_digits(n)[0]} is not square-free")
            d = n
        self._fill(d)

    @staticmethod
    def quadratic(d: int) -> "FieldSpec":
        if d is None:
            raise ValidationError("invalid quadratic field d=None")
        return FieldSpec(d)

    @property
    def is_rational(self) -> bool:
        return self.d is None

    def header(self) -> str:
        """Field clause used by the .arr format."""
        return "rational" if self.is_rational else f"sqrt {self.d}"

    def __str__(self) -> str:
        return "Q" if self.is_rational else f"Q(sqrt {self.d})"


RATIONAL = FieldSpec()

def _num_den(value) -> tuple[int, int]:
    if isinstance(value, int):
        return int(value), 1
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    raise TypeError(f"expected a rational value, got {type(value).__name__}")


_new = object.__new__


def _quad(p: int, q: int, den: int, d: int, field: FieldSpec) -> "QuadExt":
    """(p + q*sqrt(d))/den in lowest terms; den must be positive and d is
    field.d, or 0 for the rationals."""
    g = gcd(p, q, den)
    if g != 1:
        p //= g
        q //= g
        den //= g
    x = _new(QuadExt)
    x._p = p
    x._q = q
    x._den = den
    x._d = d
    x._field = field
    return x


class QuadExt:
    """An exact element a + b*sqrt(d) of the active field.

    The value is stored as the integer triple (p, q, den) with
    a + b*sqrt(d) = (p + q*sqrt(d))/den, den > 0 and gcd(p, q, den) = 1, so
    equal values of one field have identical triples.  ``a`` and ``b`` are
    read-only Fraction views of it.  Equality and hashing agree with int
    and Fraction on rational values.  Mixing scalars of two different
    quadratic fields raises FieldMixError; plain rationals coerce into
    any field.  Instances are immutable, like Fraction's.
    """

    __slots__ = ("_p", "_q", "_den", "_d", "_field")

    def __new__(cls, a: int | Fraction, b: int | Fraction = 0,
                field: FieldSpec = RATIONAL) -> "QuadExt":
        an, ad = _num_den(a)
        bn, bd = _num_den(b)
        if field.is_rational and bn:
            raise FieldMixError("rational-field scalar with nonzero sqrt part")
        den = ad * bd // gcd(ad, bd)
        return _quad(an * (den // ad), bn * (den // bd), den, field.d or 0, field)

    def __reduce__(self):                   # for copy and pickle
        return _quad, (self._p, self._q, self._den, self._d, self._field)

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self._p, self._den)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt(d)."""
        return Fraction(self._q, self._den)

    @property
    def field(self) -> FieldSpec:
        return self._field

    # -- coercion -----------------------------------------------------------

    def _operand(self, other):
        """``other`` as (p, q, den, d, field) of the field both operands
        share, or None for a type that does not mix."""
        if type(other) is QuadExt:
            if other._d == self._d or not other._d:
                return other._p, other._q, other._den, self._d, self._field
            if not self._d:
                return other._p, other._q, other._den, other._d, other._field
            raise FieldMixError(f"cannot mix {self._field} with {other._field}")
        if isinstance(other, int):
            return other, 0, 1, self._d, self._field
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator, self._d, self._field
        return None

    def with_field(self, field: FieldSpec) -> "QuadExt":
        d = field.d or 0
        if d == self._d:
            return self
        if not self._d:
            return _quad(self._p, 0, self._den, d, field)
        raise FieldMixError(f"cannot move {self._field} scalar into {field}")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        p, q, den, d, field = operand
        return _quad(self._p * den + p * self._den, self._q * den + q * self._den,
                     self._den * den, d, field)

    __radd__ = __add__

    def __neg__(self):
        return _quad(-self._p, -self._q, self._den, self._d, self._field)

    def __mul__(self, other):
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        p, q, den, d, field = operand
        sp, sq = self._p, self._q
        return _quad(sp * p + d * sq * q, sp * q + sq * p, self._den * den, d, field)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        return _inverse(self._p, self._q, self._den, self._d, self._field)

    def __truediv__(self, other):
        operand = self._operand(other)
        if operand is None:
            return NotImplemented
        return self * _inverse(*operand)

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = _quad(1, 0, 1, self._d, self._field)
        base = self
        n = exponent
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "QuadExt":
        """Galois conjugate a + b*sqrt(d) -> a - b*sqrt(d)."""
        return _quad(self._p, -self._q, self._den, self._d, self._field)

    @property
    def is_zero(self) -> bool:
        return not self._p and not self._q

    def __eq__(self, other) -> bool:
        if type(other) is QuadExt:
            return (self._p == other._p and self._q == other._q
                    and self._den == other._den
                    and (not self._q or self._d == other._d))
        if isinstance(other, int):
            return not self._q and self._den == 1 and self._p == other
        if isinstance(other, Fraction):
            return (not self._q and self._p == other.numerator
                    and self._den == other.denominator)
        return False

    def __hash__(self) -> int:
        if self._q:
            return hash((self._p, self._q, self._den, self._d))
        return hash(self.a)

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- conversion ---------------------------------------------------------

    def to_float(self) -> float:
        if not self._q:
            return self._p / self._den
        if self._d < 0:
            raise ValueError("no real value: field is imaginary")
        return self._p / self._den + self._q / self._den * sqrt(self._d)

    def __str__(self) -> str:
        """Inverse of parse_scalar (round-trips exactly)."""
        if self.b == 0:
            return str(self.a)
        bpart = f"{self.b}w" if self.b > 0 else f"-{-self.b}w"
        if self.a == 0:
            return bpart
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}w"

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r}, {self.field})"


def _inverse(p: int, q: int, den: int, d: int, field: FieldSpec) -> QuadExt:
    """1/((p + q*sqrt(d))/den) = den*(p - q*sqrt(d))/(p^2 - d*q^2), with the
    norm's sign moved into the numerator."""
    norm = p * p - d * q * q
    if not norm:
        raise ZeroDivisionError("inverse of zero scalar")
    if norm < 0:
        norm, den = -norm, -den
    return _quad(den * p, -den * q, norm, d, field)


def quad_roots(a: int | Fraction, b: int | Fraction,
               c: int | Fraction) -> tuple[FieldSpec, QuadExt, QuadExt]:
    """Both roots of a*t^2 + b*t + c, exactly, computed on integers.

    With the denominators cleared and a made positive, the roots are
    (-b +- s*sqrt(d))/(2a), where b^2 - 4ac = s*s*d with s >= 0 and d
    square-free.  The root whose sqrt(d)-coefficient is positive is
    designated "+".  A perfect-square (or zero) discriminant degrades to
    the rational field, where the larger root is designated "+".
    """
    (an, ad), (bn, bd), (cn, cd) = map(_num_den, (a, b, c))
    if an == 0:
        raise DegenerateError("degenerate quadratic: leading coefficient is zero")
    den = lcm(ad, bd, cd) if an > 0 else -lcm(ad, bd, cd)
    a, b, c = an * (den // ad), bn * (den // bd), cn * (den // cd)
    disc = b * b - 4 * a * c
    s, d = square_free_part(disc) if disc else (0, 1)
    if d == 1:                          # s >= 0 and a > 0: the larger root first
        return (RATIONAL, _quad(s - b, 0, 2 * a, 0, RATIONAL),
                _quad(-s - b, 0, 2 * a, 0, RATIONAL))
    field = FieldSpec._of(d)            # square_free_part proved d square-free, not 0 or 1
    return field, _quad(-b, s, 2 * a, d, field), _quad(-b, -s, 2 * a, d, field)


# -- scalar text form --------------------------------------------------------

# Longest decimal literal accepted in any input file: the smallest limit
# CPython lets ``int(str)`` be configured to, so reading never fails there.
MAX_DIGITS = 640


def parse_digits(text: str, what: str) -> int:
    """Read an unsigned decimal integer written in ASCII digits, or raise
    ParseError.  The file parsers read their counts, labels and literals
    here: ``str.isdigit`` also accepts superscripts, which ``int`` refuses."""
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"expected {what}, got {_quoted(text)}")
    if len(text) > MAX_DIGITS:
        raise ParseError(f"{what} has more than {MAX_DIGITS} digits")
    return int(text)


def _directives(text: str):
    """(lineno, line, fields) for each line of a .cfg, .plan or .arr file
    that is not blank once its # comment is cut.  A header directive may
    appear once: ParseError on the second."""
    headers = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if fields[0] in ("arrangement", "lines", "field", "plan"):
            if fields[0] in headers:
                raise ParseError(f"line {lineno}: repeated {_quoted(fields[0])} header")
            headers.add(fields[0])
        yield lineno, line, fields


_RAT = r"-?\d+(?:/\d+)?"
_RAT_RE = re.compile(rf"^{_RAT}$")
_B_ONLY_RE = re.compile(r"^(?P<b>[+-]?(?:\d+(?:/\d+)?)?)w$")
_A_B_RE = re.compile(rf"^(?P<a>{_RAT})(?P<b>[+-](?:\d+(?:/\d+)?)?)w$")


def _parse_b(text: str) -> Fraction:
    if text in ("", "+"):
        return Fraction(1)
    if text == "-":
        return Fraction(-1)
    return _fraction_literal(text)


def _fraction_literal(text: str) -> Fraction:
    num, _, den = text.lstrip("+-").partition("/")
    den = parse_digits(den, "a denominator") if den else 1
    if den == 0:
        raise ParseError(f"zero denominator in {_quoted(text)}")
    value = Fraction(parse_digits(num, "a numerator"), den)
    return -value if text.startswith("-") else value


def parse_scalar(text: str, field: FieldSpec = RATIONAL) -> QuadExt:
    """Parse the scalar grammar; whitespace-insensitive."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError("empty scalar")
    if _RAT_RE.match(s):
        return QuadExt(_fraction_literal(s), 0, field)
    m = _B_ONLY_RE.match(s)
    if m:
        b = _parse_b(m.group("b"))
    else:
        m = _A_B_RE.match(s)
        if not m:
            raise ParseError(f"malformed scalar {_quoted(text)}")
        b = _parse_b(m.group("b"))
    a = _fraction_literal(m.groupdict().get("a") or "0")
    if field.is_rational:
        if b != 0:
            raise ParseError(f"scalar {_quoted(text)} uses w but the field is rational")
        return QuadExt(a)
    return QuadExt(a, b, field)

