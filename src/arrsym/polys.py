"""Univariate polynomials and rational functions over Q.

Polynomials are coefficient tuples in ascending degree.  poly_reduce
splits a nonzero polynomial into rational-root linear factors and
irreducible quadratic factors; anything leaving an irreducible factor of
degree >= 3 is rejected (nothing in this problem domain needs more).
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd as int_gcd

from .errors import ParseError, PoleError, UnsupportedDegreeError, ValidationError
from .fields import QuadExt, _as_rat, factor_integer, parse_digits


class Poly:
    """Polynomial over Q, coefficients ascending; () is the zero polynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()) -> None:
        cs = [_as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def constant(c) -> "Poly":
        return Poly((c,))

    @staticmethod
    def variable() -> "Poly":
        return Poly((0, 1))

    # -- basics ---------------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(other)
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(tuple(self[k] + other[k] for k in range(n)))

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

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
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        quo = [Fraction(0)] * max(len(rem) - len(other.coeffs) + 1, 0)
        dlead = other.leading
        dn = other.degree
        for k in range(len(rem) - 1, dn - 1, -1):
            if rem[k] == 0:
                continue
            f = rem[k] / dlead
            quo[k - dn] = f
            for j, c in enumerate(other.coeffs):
                rem[k - dn + j] -= f * c
        return Poly(tuple(quo)), Poly(tuple(rem))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def divides(self, other: "Poly") -> bool:
        return (other % self).is_zero

    # -- evaluation -----------------------------------------------------------

    def eval(self, x):
        """Horner evaluation at a Fraction or QuadExt."""
        if isinstance(x, QuadExt):
            acc = QuadExt(0, 0, x.field)
            for c in reversed(self.coeffs):
                acc = acc * x + QuadExt(c, 0, x.field)
            return acc
        x = _as_rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    # -- normal forms ---------------------------------------------------------

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        lead = self.leading
        return Poly(tuple(c / lead for c in self.coeffs))

    def primitive(self) -> tuple[Fraction, "Poly"]:
        """Write self = content * P with P integer-coefficient, coprime,
        positive leading coefficient; returns (content, P)."""
        if self.is_zero:
            return Fraction(0), self
        den_lcm = 1
        for c in self.coeffs:
            den_lcm = den_lcm * c.denominator // int_gcd(den_lcm, c.denominator)
        ints = [int(c * den_lcm) for c in self.coeffs]
        g = 0
        for v in ints:
            g = int_gcd(g, abs(v))
        if ints[-1] < 0:
            g = -g
        prim = Poly(tuple(Fraction(v, g) for v in ints))
        return Fraction(g, den_lcm), prim

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic() if not a.is_zero else a

    # -- display --------------------------------------------------------------

    def format(self, var: str = "t") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = f"{mag}"
            else:
                head = "" if mag == 1 else f"{mag}"
                body = f"{head}{var}" if k == 1 else f"{head}{var}^{k}"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Poly({self.coeffs})"


def _as_poly(value) -> Poly | None:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly.constant(value)
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
    if prim.degree < 1 or prim.coeffs[0] == 0:
        raise ValueError("expects a nonzero constant term")
    lead = int(prim.leading)
    const = int(prim.coeffs[0])
    roots = set()
    leads, consts = _divisors(lead, const)
    for q in leads:
        for p in consts:
            if int_gcd(p, q) != 1:
                continue
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if prim.eval(cand) == 0:
                    roots.add(cand)
    return sorted(roots)


def _root_bound(prim: Poly) -> Fraction:
    """Cauchy bound: every complex root z has |z| <= 1 + max|c_i|/|lead|."""
    lead = abs(prim.leading)
    return 1 + max(abs(c) for c in prim.coeffs) / lead


def _find_quadratic_factor(prim: Poly) -> Poly | None:
    """An integer quadratic factor of a primitive integer polynomial with
    no rational roots, or None.

    A factor u*x^2 + v*x + w must have u | lead, w | const, value at 1
    dividing prim(1), and value at -1 dividing prim(-1) (both nonzero
    since prim has no rational roots); a Cauchy root bound caps |v|, |w|.
    """
    if prim.degree == 2:
        return prim
    lead = int(prim.leading)
    const = int(prim.coeffs[0])
    at_one = int(prim.eval(1))
    at_minus_one = int(prim.eval(-1))
    rho = _root_bound(prim)
    leads, consts, one_divisors = _divisors(lead, const, at_one)
    for u in leads:
        vmax = 2 * u * rho
        wmax = u * rho * rho
        for w_abs in consts:
            if w_abs > wmax:
                continue
            for w in (w_abs, -w_abs):
                for d in one_divisors:
                    for d_signed in (d, -d):
                        v = d_signed - u - w          # u + v + w divides prim(1)
                        if abs(v) > vmax:
                            continue
                        if (u - v + w) == 0 or at_minus_one % (u - v + w) != 0:
                            continue
                        if int_gcd(u, int_gcd(abs(v), w_abs)) != 1:
                            continue
                        cand = Poly((w, v, u))
                        if cand.divides(prim):
                            return cand
    return None


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
    _, rem = p.primitive()
    factors: list[tuple[Poly, int]] = []

    zeros = 0
    while zeros < len(rem.coeffs) and rem.coeffs[zeros] == 0:
        zeros += 1
    if zeros:
        factors.append((Poly.variable(), zeros))
        rem = Poly(rem.coeffs[zeros:])

    if rem.degree < 1:
        return factors

    for root in _rational_roots(rem):
        lin = Poly((-root.numerator, root.denominator))
        mult = 0
        while True:
            quo, r = divmod(rem, lin)
            if not r.is_zero:
                break
            rem = quo
            mult += 1
        if mult:
            factors.append((lin, mult))

    while rem.degree > 0:
        _, rem = rem.primitive()
        quad = _find_quadratic_factor(rem)
        if quad is None:
            raise UnsupportedDegreeError(
                f"irreducible factor of degree {rem.degree} (only rational roots "
                "and quadratics are supported)")
        mult = 0
        while True:
            quo, r = divmod(rem, quad)
            if not r.is_zero:
                break
            rem = quo
            mult += 1
        factors.append((quad, mult))

    factors.sort(key=lambda fm: (fm[0].degree, fm[0].coeffs))
    return factors


class RatFunc:
    """Rational function num/den over Q; gcd(num, den) = 1 and den monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=Poly.one()) -> None:
        num = _as_poly(num)
        den = _as_poly(den)
        if num is None or den is None:
            raise TypeError("RatFunc expects polynomial or rational arguments")
        if den.is_zero:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero:
            num, den = Poly.zero(), Poly.one()
        else:
            g = num.gcd(den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.leading
            if lead != 1:
                num = num * (1 / lead)
                den = den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

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
        return hash((self.num, self.den))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __add__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
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

    def eval(self, x):
        return ratfunc_eval(self, x)

    def format(self, var: str = "t") -> str:
        if self.den == Poly.one():
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


def ratfunc_eval(f: RatFunc, x) -> QuadExt:
    """Exact value of f at x; raises PoleError at a denominator zero."""
    if not isinstance(x, QuadExt):
        x = QuadExt(_as_rat(x))
    den = f.den.eval(x)
    if den.is_zero:
        raise PoleError(f"pole of {f} at {x}")
    return f.num.eval(x) / den


# -- expression parser ---------------------------------------------------------

# Largest exponent accepted in an expression.  A power's base may not contain
# a power itself, so every power is computed from text-sized operands.
MAX_EXPONENT = 64

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*/^()]))")


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"bad character in expression: {text[pos:]!r}")
            break
        pos = m.end()
        for kind in ("int", "name", "op"):
            val = m.group(kind)
            if val is not None:
                tokens.append((kind, val))
                break
    tokens.append(("end", ""))
    return tokens


class _ExprParser:
    def __init__(self, text: str, var: str) -> None:
        self.tokens = _tokenize(text)
        self.pos = 0
        self.var = var
        self.text = text

    def peek(self) -> tuple[str, str]:
        return self.tokens[self.pos]

    def take(self) -> tuple[str, str]:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str) -> None:
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r} in {self.text!r}")

    def parse(self) -> RatFunc:
        value = self.expr()
        if self.peek()[0] != "end":
            raise ParseError(f"trailing input in {self.text!r}")
        return value

    def expr(self) -> RatFunc:
        value = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> RatFunc:
        value = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            rhs = self.unary()
            value = value * rhs if op == "*" else value / rhs
        return value

    def unary(self) -> RatFunc:
        if self.peek() == ("op", "-"):
            self.take()
            return -self.unary()
        if self.peek() == ("op", "+"):
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> RatFunc:
        start = self.pos
        base = self.atom()
        if self.peek() == ("op", "^"):
            if ("op", "^") in self.tokens[start:self.pos]:
                raise ParseError(f"power of a power in {self.text!r}")
            self.take()
            sign = 1
            if self.peek() == ("op", "-"):
                self.take()
                sign = -1
            kind, val = self.take()
            if kind != "int":
                raise ParseError(f"expected integer exponent in {self.text!r}")
            exponent = parse_digits(val, "an exponent")
            if exponent > MAX_EXPONENT:
                raise ParseError(f"exponent {exponent} above {MAX_EXPONENT} "
                                 f"in {self.text!r}")
            return base ** (sign * exponent)
        return base

    def atom(self) -> RatFunc:
        kind, val = self.take()
        if kind == "int":
            return RatFunc.constant(parse_digits(val, "an integer"))
        if kind == "name":
            if val != self.var:
                raise ParseError(f"unknown variable {val!r} (plan is over {self.var!r})")
            return RatFunc.variable()
        if (kind, val) == ("op", "("):
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token {val!r} in {self.text!r}")


def parse_ratfunc(text: str, var: str = "t") -> RatFunc:
    """Parse a rational-function expression such as ``(t-1)/(t+2)`` or ``-1/t``."""
    if not text.strip():
        raise ParseError("empty expression")
    try:
        return _ExprParser(text, var).parse()
    except ZeroDivisionError as exc:
        raise ParseError(f"division by zero in {text!r}") from exc
