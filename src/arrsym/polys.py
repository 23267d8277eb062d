"""Univariate polynomials and rational functions over Q.

A polynomial is one reduced integer tuple plus one positive common
denominator, (c_0, ..., c_n)/den for (c_0 + ... + c_n*t^n)/den with c_n != 0
and gcd(c_0, ..., c_n, den) = 1, so arithmetic runs on Python ints and equal
polynomials are stored alike.  Division is pseudo-division over Z and the gcd
is the primitive pseudo-remainder sequence (Knuth, TAOCP vol. 2, 4.6.1).
Expressions, and plans over Q(t), are held to degree MAX_DEGREE.
poly_reduce splits a nonzero polynomial into rational-root linear factors
and irreducible quadratic factors; anything leaving an irreducible factor
of degree >= 3 is rejected (nothing in this problem domain needs more).
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import gcd, lcm

from .errors import (ParseError, PoleError, UnsupportedDegreeError, ValidationError,
                     _quoted)
from .fields import (QuadExt, _num_den, _quad, _rational_hash, factor_integer,
                     parse_digits)

# Highest degree of a numerator or denominator that an expression may build
# and that a plan's symbolic meets and joins may reach; above it the parser
# raises ParseError and the plan interpreter ValidationError, so a hostile
# plan cannot make the polynomial arithmetic run without bound.
MAX_DEGREE = 64

_new = object.__new__


def _convolve(a, b) -> list:
    """The product of two polynomials given as ascending integer coefficients."""
    if len(a) < len(b):
        a, b = b, a
    if len(b) < 2:
        return [x * b[0] for x in a] if b else []
    out = [0] * (len(a) + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            for i, x in enumerate(a, j):
                out[i] += x * y
    return out


def _poly(cs, den: int) -> "Poly":
    """sum(cs[k] * t^k)/den in lowest terms, for integers cs and den > 0."""
    n = len(cs)
    while n and not cs[n - 1]:
        n -= 1
    g = gcd(den, *cs[:n])
    x = _new(Poly)
    x._c = tuple(c // g for c in cs[:n]) if g != 1 else tuple(cs[:n])
    x._den = den // g
    return x


class Poly:
    """Polynomial over Q in t, coefficients ascending; () is the zero
    polynomial.  Stored as (c_0, ..., c_n)/den in lowest terms (see the
    module docstring); equality and hashing agree with int and Fraction on
    constants.  Instances are immutable, like Fraction's."""

    __slots__ = ("_c", "_den")

    def __new__(cls, coeffs=()) -> "Poly":
        pairs = [_num_den(c) for c in coeffs]
        den = lcm(*(d for _, d in pairs))
        return _poly([n * (den // d) for n, d in pairs], den)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _poly((), 1)

    @staticmethod
    def one() -> "Poly":
        return _poly((1,), 1)

    @staticmethod
    def constant(c) -> "Poly":
        return Poly((c,))

    @staticmethod
    def variable() -> "Poly":
        return _poly((0, 1), 1)

    # -- basics ---------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self._den) for c in self._c)

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    @property
    def leading(self) -> Fraction:
        if not self._c:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self._c[-1], self._den)

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self._c):
            return Fraction(self._c[k], self._den)
        return Fraction(0)

    def __eq__(self, other) -> bool:
        other = _as_poly(other)
        return other is not None and self._c == other._c and self._den == other._den

    def __hash__(self) -> int:
        if len(self._c) > 1:
            return hash((self._c, self._den))
        return _rational_hash(self._c[0] if self._c else 0, self._den)

    def __bool__(self) -> bool:
        return bool(self._c)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a = [c * other._den for c in self._c]
        b = [c * self._den for c in other._c]
        if len(a) < len(b):
            a, b = b, a
        for k, c in enumerate(b):
            a[k] += c
        return _poly(a, self._den * other._den)

    __radd__ = __add__

    def __neg__(self):
        return _poly([-c for c in self._c], self._den)

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return _poly(_convolve(self._c, other._c), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = _ONE
        for _ in range(n):
            result = result * self
        return result

    def __divmod__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        b = other._c
        if not b:
            raise ZeroDivisionError("polynomial division by zero")
        # Pseudo-division over Z: s*a = q*b + r for self = a/da, other = b/db,
        # so self = (q*db/(s*da)) * other + r/(s*da).  A step scales by only
        # the part of b's leading coefficient that does not divide the
        # remainder's, so s = 1 whenever that coefficient is 1.
        n, lead = len(b) - 1, b[-1]
        sign = 1 if lead > 0 else -1
        rem, quo, scale = list(self._c), [0] * max(len(self._c) - n, 0), 1
        for k in range(len(rem) - 1, n - 1, -1):
            c = rem[k]
            if not c:
                continue
            g = gcd(c, lead)
            mult = sign * lead // g
            if mult != 1:
                rem = [x * mult for x in rem]
                quo = [x * mult for x in quo]
                scale *= mult
            quo[k - n] = f = sign * (c // g)
            for j, y in enumerate(b):
                rem[k - n + j] -= f * y
        den = scale * self._den
        return _poly([c * other._den for c in quo], den), _poly(rem[:n], den)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        return (other % self).is_zero

    # -- evaluation -----------------------------------------------------------

    def eval(self, x):
        """Value at a QuadExt (a QuadExt of its field) or at an int or
        Fraction (a Fraction).  With x = (p + q*sqrt(d))/e, Horner's rule
        runs on the integers in the homogeneous form
        sum(c_k * (p + q*sqrt(d))^k * e^(n-k)), divided once by den*e^n."""
        if type(x) is not QuadExt:
            return self.eval(QuadExt(x)).a
        p, q, e, d = x._p, x._q, x._den, x._d
        hp = hq = 0
        scale = 1
        for c in reversed(self._c):
            hp, hq = hp * p + d * hq * q + c * scale, hp * q + hq * p
            scale *= e
        return _quad(hp, hq, self._den * e ** max(self.degree, 0), d, x.field)

    # -- normal forms ---------------------------------------------------------

    def monic(self) -> "Poly":
        if not self._c:
            return self
        lead = self._c[-1]
        return _poly(self._c if lead > 0 else [-c for c in self._c], abs(lead))

    def _primitive_part(self) -> "Poly":
        if not self._c:
            return self
        g = gcd(*self._c) * (1 if self._c[-1] > 0 else -1)
        return _poly([c // g for c in self._c], 1)

    def primitive(self) -> tuple[Fraction, "Poly"]:
        """Write self = content * P with P integer-coefficient, coprime,
        positive leading coefficient; returns (content, P)."""
        if not self._c:
            return Fraction(0), self
        prim = self._primitive_part()
        return Fraction(self._c[-1], self._den * prim._c[-1]), prim

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor: the primitive pseudo-remainder
        sequence over Z, which replaces each remainder by its primitive
        part."""
        a, b = self._primitive_part(), other._primitive_part()
        while b:
            a, b = b, (a % b)._primitive_part()
        return a.monic()

    # -- display --------------------------------------------------------------

    def format(self, var: str = "t") -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if c:
                mag = "" if abs(c) == 1 and k else f"{abs(c)}"
                power = "" if k == 0 else var if k == 1 else f"{var}^{k}"
                terms.append(("-" if c < 0 else "+") + f" {mag}{power}")
        text = " ".join(terms) or "+ 0"
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Poly({self.coeffs})"


_ZERO, _ONE = Poly.zero(), Poly.one()


def _as_poly(value) -> Poly | None:
    if type(value) is Poly:
        return value
    if isinstance(value, (int, Fraction)):
        return Poly((value,))
    return None


# Most combinations of divisors the rational-root and quadratic-factor
# searches may try for one polynomial (the product of the divisor counts of
# the integers they enumerate); more raises ValidationError.
MAX_FACTOR_CANDIDATES = 1 << 14


def _divisors(*values: int) -> list[list[int]]:
    """The positive divisors of each nonzero value, ascending.  Raises
    ValidationError when a value cannot be factored (see factor_integer) or
    the divisor counts multiply to more than MAX_FACTOR_CANDIDATES."""
    factored = [factor_integer(abs(v)) for v in values]
    combinations = 1
    for factors in factored:
        for e in factors.values():
            combinations *= e + 1
    if combinations > MAX_FACTOR_CANDIDATES:
        raise ValidationError(f"{combinations} divisor combinations to try, "
                              f"above {MAX_FACTOR_CANDIDATES}")
    out = []
    for factors in factored:
        divisors = [1]
        for p, e in factors.items():
            divisors = [d * p ** k for d in divisors for k in range(e + 1)]
        out.append(sorted(divisors))
    return out


def _rational_roots(prim: Poly) -> list[Fraction]:
    """All rational roots of a primitive integer polynomial, ascending."""
    if prim.degree < 1 or prim._c[0] == 0:
        raise ValueError("expects a nonzero constant term")
    roots = set()
    leads, consts = _divisors(prim._c[-1], prim._c[0])
    for q in leads:
        for p in consts:
            if gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if prim.eval(cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _find_quadratic_factor(prim: Poly) -> Poly | None:
    """An integer quadratic factor of a primitive integer polynomial with
    no rational roots, or None.

    A factor u*x^2 + v*x + w must have u | lead, w | const, value at 1
    dividing prim(1), and value at -1 dividing prim(-1) (both nonzero
    since prim has no rational roots); Cauchy's root bound rho/rho_den =
    1 + max|c_i|/|lead| caps |v| <= 2*u*rho/rho_den and |w| <= u*(rho/rho_den)^2.
    """
    if prim.degree == 2:
        return prim
    cs = prim._c
    at_one = sum(cs)
    at_minus_one = sum(cs[0::2]) - sum(cs[1::2])
    rho_den = abs(cs[-1])
    rho = rho_den + max(abs(c) for c in cs)
    leads, consts, one_divisors = _divisors(cs[-1], cs[0], at_one)
    for u in leads:
        vmax = 2 * u * rho
        wmax = u * rho * rho
        for w_abs in consts:
            if w_abs * rho_den * rho_den > wmax:
                continue
            for w in (w_abs, -w_abs):
                for d in one_divisors:
                    for d_signed in (d, -d):
                        v = d_signed - u - w          # u + v + w divides prim(1)
                        if abs(v) * rho_den > vmax:
                            continue
                        if (u - v + w) == 0 or at_minus_one % (u - v + w) != 0:
                            continue
                        if gcd(u, v, w) != 1:
                            continue
                        cand = _poly((w, v, u), 1)
                        if cand.divides(prim):
                            return cand
    return None


def _divide_out(p: Poly, factor: Poly) -> tuple[Poly, int]:
    """(p / factor^m, m) for the largest m with factor^m dividing p."""
    mult = 0
    while not (split := divmod(p, factor))[1]:
        p = split[0]
        mult += 1
    return p, mult


def poly_reduce(p: Poly) -> list[tuple[Poly, int]]:
    """Content-free factorization into linear factors (rational roots) and
    irreducible quadratics, each primitive with positive leading coefficient.

    Raises UnsupportedDegreeError if an irreducible factor of degree >= 3
    remains, and ValidationError if the search for factors would exceed its
    bounds (see _divisors).  The product of the factors times p's content
    recovers p.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    rem = p._primitive_part()
    factors: list[tuple[Poly, int]] = []

    zeros = next(k for k, c in enumerate(rem._c) if c)
    if zeros:
        factors.append((Poly.variable(), zeros))
        rem = _poly(rem._c[zeros:], 1)

    if rem.degree < 1:
        return factors

    for root in _rational_roots(rem):
        lin = _poly((-root.numerator, root.denominator), 1)
        rem, mult = _divide_out(rem, lin)
        factors.append((lin, mult))

    while rem.degree > 0:
        _, rem = rem.primitive()
        quad = _find_quadratic_factor(rem)
        if quad is None:
            raise UnsupportedDegreeError(
                f"irreducible factor of degree {rem.degree} (only rational roots "
                "and quadratics are supported)")
        rem, mult = _divide_out(rem, quad)
        factors.append((quad, mult))

    factors.sort(key=lambda fm: (fm[0].degree, fm[0]._c))
    return factors


class RatFunc:
    """Rational function num/den over Q; gcd(num, den) = 1 and den monic."""

    __slots__ = ("_num", "_den")

    def __init__(self, num, den=_ONE) -> None:
        num = _as_poly(num)
        den = _as_poly(den)
        if num is None or den is None:
            raise TypeError("RatFunc expects polynomial or rational arguments")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            num, den = _ZERO, _ONE
        else:
            # a constant on either side has no common factor with the other
            if num.degree > 0 and den.degree > 0:
                g = num.gcd(den)
                if g.degree > 0:
                    num, den = num // g, den // g
            lead, lead_den = den._c[-1], den._den
            if lead != lead_den:                # den is not monic
                sign = 1 if lead > 0 else -1
                num = _poly([c * sign * lead_den for c in num._c],
                            num._den * sign * lead)
                den = den.monic()
        self._num = num
        self._den = den

    @property
    def num(self) -> Poly:
        return self._num

    @property
    def den(self) -> Poly:
        return self._den

    @staticmethod
    def constant(c) -> "RatFunc":
        return RatFunc(Poly.constant(c))

    @staticmethod
    def variable() -> "RatFunc":
        return RatFunc(Poly.variable())

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_constant(self) -> bool:
        return self.num.degree <= 0 and self.den.degree == 0

    def constant_value(self) -> Fraction:
        if not self.is_constant:
            raise ValueError("not a constant rational function")
        return self.num[0] / self.den[0]

    def __eq__(self, other) -> bool:
        other = _as_ratfunc(other)
        return (isinstance(other, RatFunc)
                and self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        if self.den.degree == 0:
            return hash(self.num)
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return other if self.is_zero else self
        if self.den.degree == other.den.degree == 0:      # both are 1
            return RatFunc(self.num + other.num)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return self if self.is_zero else other
        if self.den.degree == other.den.degree == 0:
            return RatFunc(self.num * other.num)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_ratfunc(other)
        return other / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den, self.num) ** (-n)
        return RatFunc(self.num ** n, self.den ** n)

    def eval(self, x) -> QuadExt:
        """Exact value at x; raises PoleError at a denominator zero."""
        if not isinstance(x, QuadExt):
            x = QuadExt(x)
        if self.den.degree == 0:
            return self.num.eval(x)
        den = self.den.eval(x)
        if den.is_zero:
            raise PoleError(f"pole of {self} at {x}")
        return self.num.eval(x) / den

    def format(self, var: str = "t") -> str:
        if self.den.degree == 0:
            return self.num.format(var)
        return f"({self.num.format(var)})/({self.den.format(var)})"

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"RatFunc({self.num!r}, {self.den!r})"


def _as_ratfunc(value) -> RatFunc | None:
    if isinstance(value, RatFunc):
        return value
    if isinstance(value, Poly):
        return RatFunc(value)
    if isinstance(value, (int, Fraction)):
        return RatFunc.constant(value)
    return None


# -- expression parser ---------------------------------------------------------

# Largest exponent accepted in an expression.  A power's base may not contain
# a power itself, so every power is computed from text-sized operands.
MAX_EXPONENT = 64
# Deepest nesting of parentheses accepted in an expression.  Each level is a
# few frames of the recursive-descent parser, so input stays far inside
# Python's recursion limit and ends in ParseError, never RecursionError.
MAX_NESTING = 64

_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "/": operator.truediv}
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*/^()])|(?P<bad>\S))")


def _degrees(f: RatFunc) -> tuple[int, int]:
    return f.num.degree, f.den.degree


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"bad character in expression: {_quoted(text[m.start():])}")
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
    return tokens + [("end", "")]


class _ExprParser:
    def __init__(self, text: str, var: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var = var
        self.text = text
        self.depth = 0

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r} in {_quoted(self.text)}")

    def parse(self) -> RatFunc:
        value = self.expr()
        if self.peek()[0] != "end":
            raise ParseError(f"trailing input in {_quoted(self.text)}")
        return value

    def expr(self) -> RatFunc:
        return self.chain(self.term, "+-")

    def term(self) -> RatFunc:
        return self.chain(self.unary, "*/")

    def chain(self, operand, ops: str) -> RatFunc:
        """operand (op operand)* for op in ops, left to right.  A step is
        refused before it is computed when the degree it may reach in its
        numerator or denominator is above MAX_DEGREE."""
        value = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            op = self.take()[1]
            rhs = operand()
            (a, b), (c, d) = _degrees(value), _degrees(rhs)
            if op == "/":
                c, d = d, c
            if max(a + c if op in "*/" else max(a + d, b + c), b + d) > MAX_DEGREE:
                raise ParseError(f"degree above {MAX_DEGREE} in {_quoted(self.text)}")
            value = _BINARY[op](value, rhs)
        return value

    def unary(self) -> RatFunc:
        negate = False
        while self.peek() in (("op", "-"), ("op", "+")):
            negate ^= self.take()[1] == "-"
        value = self.power()
        return -value if negate else value

    def power(self) -> RatFunc:
        start = self.pos
        base = self.atom()
        if self.peek() == ("op", "^"):
            if ("op", "^") in self.tokens[start:self.pos]:
                raise ParseError(f"power of a power in {_quoted(self.text)}")
            self.take()
            sign = 1
            if self.peek() == ("op", "-"):
                self.take()
                sign = -1
            kind, val = self.take()
            if kind != "int":
                raise ParseError(f"expected integer exponent in {_quoted(self.text)}")
            exponent = parse_digits(val, "an exponent")
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent {exponent} above {MAX_EXPONENT} "
                                 f"in {_quoted(self.text)}")
            if max(_degrees(base)) * exponent > MAX_DEGREE:
                raise ParseError(f"degree above {MAX_DEGREE} in {_quoted(self.text)}")
            return base ** (sign * exponent)
        return base

    def atom(self) -> RatFunc:
        kind, val = self.take()
        if kind == "int":
            return RatFunc.constant(parse_digits(val, "an integer"))
        if kind == "name":
            if val != self.var:
                raise ParseError(f"unknown variable {_quoted(val)} "
                                 f"(plan is over {_quoted(self.var)})")
            return RatFunc.variable()
        if (kind, val) == ("op", "("):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING} "
                                 f"in {_quoted(self.text)}")
            inner = self.expr()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected token {_quoted(val)} in {_quoted(self.text)}")


def parse_ratfunc(text: str, var: str = "t") -> RatFunc:
    """Parse a rational-function expression such as ``(t-1)/(t+2)`` or ``-1/t``."""
    if not text.strip():
        raise ParseError("empty expression")
    try:
        return _ExprParser(text, var).parse()
    except ZeroDivisionError as exc:
        raise ParseError(f"division by zero in {_quoted(text)}") from exc
