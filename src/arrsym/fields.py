"""Exact scalars: rationals and quadratic extensions Q(sqrt d).

A scalar is a + b*sqrt(d) with rational a, b and a fixed square-free
integer d (possibly negative).  It is stored as one reduced integer triple
(p, q, den) for (p + q*sqrt(d))/den, so arithmetic is gcd-reduced integer
arithmetic (Knuth, TAOCP vol. 2, 4.5.1) and builds no Fraction.  All
arithmetic is exact; nothing here ever rounds.  The text form of a scalar
is ``rat | rat ('+'|'-') rat 'w' | ['-'] rat 'w' | 'w'`` where ``w`` stands
for sqrt(d) of the active field, e.g. ``1/2+1/2w``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain, count
from math import gcd, lcm, sqrt
from operator import index

from .errors import (DegenerateError, FieldMixError, ParseError, ValidationError,
                     _digits, _quoted)
from .record import Record


# -- integer factorization ----------------------------------------------------

# Trial division takes out every prime below this bound (dividing by 2 and
# the odd numbers: a composite one never divides what is left); a cofactor
# left over below its square is prime.
_TRIAL_BOUND = 1000
# Miller-Rabin with these bases decides primality exactly below _MR_PROVEN
# (Sorenson & Webster, Math. Comp. 86 (2017)).  Above it a "prime" verdict
# is only probable and is refused, so one base is enough there.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 3317044064679887385961981
# Steps allowed for one factorization, per 64-bit word of the number left
# after trial division.  A Pollard-Brent step is about two products modulo
# the number being split; a Miller-Rabin base is charged its bit length.
_STEP_BUDGET = 1 << 18
_RHO_BATCH = 128


def _charge(budget: list[int], steps: int, m: int) -> None:
    budget[0] -= steps
    if budget[0] < 0:
        raise ValidationError(
            f"cannot factor a {_digits(m)[1]}-digit number within the step budget")


def _is_prime(n: int, budget: list[int]) -> bool:
    """Miller-Rabin on an odd n > _TRIAL_BOUND**2: exact below _MR_PROVEN,
    a base-2 probable-prime test above."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES if n < _MR_PROVEN else _MR_BASES[:1]:
        _charge(budget, n.bit_length(), n)
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_split(n: int, budget: list[int]) -> int:
    """A proper factor of the odd composite n, not a perfect power, by
    Pollard's rho in Brent's form (Pollard, BIT 15 (1975); Brent, BIT 20
    (1980)), batching the gcds."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            _charge(budget, r, n)
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                steps = min(_RHO_BATCH, r - k)
                _charge(budget, steps, n)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += steps
            r *= 2
        if g == n:                  # the batch overshot: retrace it singly
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def _perfect_power(m: int) -> tuple[int, int] | None:
    """(r, k) with r**k == m for the least k >= 2, or None, for an m with
    no prime factor below _TRIAL_BOUND: then r >= _TRIAL_BOUND > 2**9, so
    k <= m.bit_length() // 9.  Each root is Newton's method on the
    integers, from above."""
    for k in range(2, m.bit_length() // 9 + 1):
        x = 1 << -(-m.bit_length() // k)
        while (y := ((k - 1) * x + m // x ** (k - 1)) // k) < x:
            x = y
        if x ** k == m:
            return x, k
    return None


def factor_integer(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer as {prime: exponent}.

    Trial division up to 1000, then, for what is left, deterministic
    Miller-Rabin, an integer k-th-root test for perfect powers and
    Pollard-Brent rho under a fixed step budget.  A cofactor that
    Miller-Rabin cannot prove prime (one above 3.3e24), or a factorization
    the budget does not cover, raises ValidationError, so the cost is
    bounded for any input.
    """
    if n < 1:
        raise ValueError("factor_integer expects a positive integer")
    factors: dict[int, int] = {}
    for p in chain((2,), range(3, _TRIAL_BOUND, 2)):
        if p * p > n:
            break
        while n % p == 0:
            n //= p
            factors[p] = factors.get(p, 0) + 1
    budget = [_STEP_BUDGET // -(-n.bit_length() // 64)]
    pending = [(n, 1)] if n > 1 else []    # (cofactor, multiplicity)
    while pending:
        m, k = pending.pop()
        if m < _TRIAL_BOUND * _TRIAL_BOUND:
            factors[m] = factors.get(m, 0) + k
            continue
        if _is_prime(m, budget):
            if m >= _MR_PROVEN:
                raise ValidationError(f"cannot prove a {_digits(m)[1]}-digit factor prime")
            factors[m] = factors.get(m, 0) + k
        elif power := _perfect_power(m):
            pending.append((power[0], power[1] * k))
        else:
            split = _rho_split(m, budget)
            pending += [(split, k), (m // split, k)]
    return factors


def square_free_part(n: int) -> tuple[int, int]:
    """Split a nonzero integer as n = s*s*d with d square-free; return (s, d).

    Raises ValidationError when |n| cannot be factored (see factor_integer).
    """
    if n == 0:
        raise ValueError("square_free_part(0) is undefined")
    s = d = 1
    for p, e in factor_integer(abs(n)).items():
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return s, (d if n > 0 else -d)


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

