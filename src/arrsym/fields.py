"""Exact scalars: rationals and quadratic extensions Q(sqrt d).

A scalar is a + b*sqrt(d) with rational a, b and a fixed square-free
integer d (possibly negative).  All arithmetic is exact; nothing here
ever rounds.  The text form of a scalar is ``rat | rat ('+'|'-') rat 'w'
| ['-'] rat 'w' | 'w'`` where ``w`` stands for sqrt(d) of the active
field, e.g. ``1/2+1/2w``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DegenerateError, FieldMixError, ParseError, ValidationError


def _as_rat(value: int | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected a rational value, got {type(value).__name__}")


def square_free_part(n: int) -> tuple[int, int]:
    """Split a nonzero integer as n = s*s*d with d square-free; return (s, d)."""
    if n == 0:
        raise ValueError("square_free_part(0) is undefined")
    sign = -1 if n < 0 else 1
    m = abs(n)
    s = 1
    d = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    if m > 1:
        d *= m
    return s, sign * d


@dataclass(frozen=True)
class FieldSpec:
    """Ground field: the rationals, or Q(sqrt d) for a square-free d."""

    kind: str
    d: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "rational":
            if self.d is not None:
                raise ValidationError("rational field carries no d")
        elif self.kind == "quadratic":
            if self.d is None or self.d in (0, 1):
                raise ValidationError(f"invalid quadratic field d={self.d}")
            _, sf = square_free_part(self.d)
            if sf != self.d:
                raise ValidationError(f"d={self.d} is not square-free")
        else:
            raise ValidationError(f"unknown field kind {self.kind!r}")

    @staticmethod
    def rational() -> "FieldSpec":
        return RATIONAL

    @staticmethod
    def quadratic(d: int) -> "FieldSpec":
        return FieldSpec("quadratic", d)

    @property
    def is_rational(self) -> bool:
        return self.kind == "rational"

    def header(self) -> str:
        """Field clause used by the .arr format."""
        return "rational" if self.is_rational else f"sqrt {self.d}"

    def __str__(self) -> str:
        return "Q" if self.is_rational else f"Q(sqrt {self.d})"


RATIONAL = FieldSpec("rational")


class QuadExt:
    """An exact element a + b*sqrt(d) of the active field.

    Mixing scalars of two different quadratic fields raises FieldMixError;
    plain rationals coerce into any field.
    """

    __slots__ = ("a", "b", "field")

    def __init__(self, a: int | Fraction, b: int | Fraction = 0,
                 field: FieldSpec = RATIONAL) -> None:
        a = _as_rat(a)
        b = _as_rat(b)
        if field.is_rational and b != 0:
            raise FieldMixError("rational-field scalar with nonzero sqrt part")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "field", field)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("QuadExt is immutable")

    # -- coercion -----------------------------------------------------------

    def _pair(self, other) -> tuple["QuadExt", "QuadExt"] | None:
        if isinstance(other, (int, Fraction)):
            return self, QuadExt(other, 0, self.field)
        if not isinstance(other, QuadExt):
            return None
        if other.field == self.field:
            return self, other
        if other.field.is_rational:
            return self, QuadExt(other.a, 0, self.field)
        if self.field.is_rational:
            return QuadExt(self.a, 0, other.field), other
        raise FieldMixError(f"cannot mix {self.field} with {other.field}")

    def with_field(self, field: FieldSpec) -> "QuadExt":
        if self.field == field:
            return self
        if self.field.is_rational:
            return QuadExt(self.a, 0, field)
        raise FieldMixError(f"cannot move {self.field} scalar into {field}")

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return QuadExt(x.a + y.a, x.b + y.b, x.field)

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return QuadExt(x.a - y.a, x.b - y.b, x.field)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.field)

    def __mul__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        d = x.field.d or 0
        return QuadExt(x.a * y.a + x.b * y.b * d, x.a * y.b + x.b * y.a, x.field)

    __rmul__ = __mul__

    def inverse(self) -> "QuadExt":
        d = self.field.d or 0
        norm = self.a * self.a - d * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("inverse of zero scalar")
        return QuadExt(self.a / norm, -self.b / norm, self.field)

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        x, y = pair
        return x * y.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = QuadExt(1, 0, self.field)
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
        return QuadExt(self.a, -self.b, self.field)

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_rational_value(self) -> bool:
        return self.b == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        if not isinstance(other, QuadExt):
            return False
        if self.b == 0 and other.b == 0:
            return self.a == other.a
        return (self.a, self.b) == (other.a, other.b) and self.field == other.field

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.field))

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- conversion ---------------------------------------------------------

    def to_float(self) -> float:
        if self.b == 0:
            return float(self.a)
        d = self.field.d
        if d is None or d < 0:
            raise ValueError("no real value: field is imaginary")
        return float(self.a) + float(self.b) * math.sqrt(d)

    def to_complex(self) -> complex:
        if self.b == 0:
            return complex(float(self.a))
        d = self.field.d or 0
        if d >= 0:
            return complex(self.to_float())
        return complex(float(self.a), float(self.b) * math.sqrt(-d))

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r}, {self.field})"


def galois_conjugate(x: QuadExt) -> QuadExt:
    """The field map sqrt(d) -> -sqrt(d); an involution fixing the rationals."""
    return x.conjugate()


def quad_roots(a: int | Fraction, b: int | Fraction,
               c: int | Fraction) -> tuple[FieldSpec, QuadExt, QuadExt]:
    """Both roots of a*t^2 + b*t + c, exactly.

    The discriminant is reduced to a square-free d; the root whose
    sqrt(d)-coefficient is positive is designated "+".  A perfect-square
    (or zero) discriminant degrades to the rational field, where the
    larger root is designated "+".
    """
    a, b, c = _as_rat(a), _as_rat(b), _as_rat(c)
    if a == 0:
        raise DegenerateError("degenerate quadratic: leading coefficient is zero")
    disc = b * b - 4 * a * c
    center = -b / (2 * a)
    if disc == 0:
        r = QuadExt(center)
        return RATIONAL, r, r
    s, d = square_free_part(disc.numerator * disc.denominator)
    if d == 1:
        half = Fraction(s, disc.denominator) / (2 * a)
        r1 = QuadExt(center + half)
        r2 = QuadExt(center - half)
        if r1.a < r2.a:
            r1, r2 = r2, r1
        return RATIONAL, r1, r2
    field = FieldSpec.quadratic(d)
    coeff = abs(Fraction(s, disc.denominator) / (2 * a))
    plus = QuadExt(center, coeff, field)
    return field, plus, plus.conjugate()


# -- scalar text form --------------------------------------------------------

# Longest decimal literal accepted in any input file: the smallest limit
# CPython lets ``int(str)`` be configured to, so reading never fails there.
MAX_DIGITS = 640


def parse_digits(text: str, what: str) -> int:
    """Read an unsigned decimal integer written in ASCII digits, or raise
    ParseError.  The file parsers read their counts, labels and literals
    here: ``str.isdigit`` also accepts superscripts, which ``int`` refuses."""
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"expected {what}, got {text!r}")
    if len(text) > MAX_DIGITS:
        raise ParseError(f"{what} has more than {MAX_DIGITS} digits")
    return int(text)


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
        raise ParseError(f"zero denominator in {text!r}")
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
            raise ParseError(f"malformed scalar {text!r}")
        b = _parse_b(m.group("b"))
    a = _fraction_literal(m.groupdict().get("a") or "0")
    if field.is_rational:
        if b != 0:
            raise ParseError(f"scalar {text!r} uses w but the field is rational")
        return QuadExt(a)
    return QuadExt(a, b, field)


def format_scalar(x: QuadExt) -> str:
    """Inverse of parse_scalar (round-trips exactly)."""
    if x.b == 0:
        return str(x.a)
    bpart = f"{x.b}w" if x.b > 0 else f"-{-x.b}w"
    if x.a == 0:
        return bpart
    sign = "+" if x.b > 0 else "-"
    return f"{x.a}{sign}{abs(x.b)}w"
