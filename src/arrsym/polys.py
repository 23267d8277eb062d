"""Univariate polynomials and rational functions over Q.

A Poly is an input and output type: one reduced integer tuple plus one
positive common denominator, (c_0, ..., c_n)/den for (c_0 + ... + c_n*t^n)/den
with c_n != 0 and gcd(c_0, ..., c_n, den) = 1, so equal polynomials are
stored alike.  It has evaluation and a divisibility test, and no arithmetic.
All polynomial arithmetic runs on one integer-list kernel: pseudo-division
over Z (_pseudo_divide), the primitive pseudo-remainder sequence for the
gcd (_gcd; Knuth, TAOCP vol. 2, 4.6.1), and Horner's rule (_horner).
Expressions, like plans over Q(t) in moduli, compute on content-free integer
lists (the list kernel below), held to degree MAX_DEGREE and to _MAX_BITS
bits per coefficient, and are reduced once, at the end, to the pair of
_lowest; parse_ratfunc returns that pair as two Polys, den monic.
poly_reduce splits a nonzero polynomial into rational-root linear factors
and irreducible quadratic factors by closed forms on its square-free parts
(Yun's gcd steps); a part of degree >= 3 is refused, and no integer is
factored.  moduli decides such a part by gcds instead (moduli._realizable).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from itertools import chain
from math import gcd, isqrt, lcm

from .errors import ParseError, UnsupportedDegreeError, _quoted
from .fields import MAX_DIGITS, QuadExt, _num_den, _quad, parse_digits

# Highest degree of a numerator or denominator that an expression may build
# and that a plan's symbolic meets and joins may reach; above it the parser
# raises ParseError and the plan interpreter ValidationError, so a hostile
# plan cannot make the polynomial arithmetic run without bound.
MAX_DEGREE = 64
# Largest exponent accepted in an expression.  A power's base may not contain
# a power itself, so every power is computed from text-sized operands.
MAX_EXPONENT = 64
# Most bits the largest coefficients of a product's operands may have between
# them: those of a MAX_DIGITS-digit literal to the MAX_EXPONENT.  Above it the
# product is refused before it is formed (see _oversized), so a short
# expression or plan of constants cannot build coefficients without bound.
_MAX_BITS = MAX_EXPONENT * (10 ** MAX_DIGITS).bit_length()

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


def _add(a: list, b: list, sign: int = 1) -> list:
    """a + sign*b, trailing zeros dropped; a is a fresh list, changed in place."""
    a += [0] * (len(b) - len(a))
    for i, y in enumerate(b):
        a[i] += sign * y
    while a and not a[-1]:
        a.pop()
    return a


def _content_free(lists: list) -> tuple:
    g = gcd(*chain(*lists))
    return tuple(lists) if g == 1 else tuple([c // g for c in cs] for cs in lists)


def _oversized(*operands) -> bool:
    """Whether a product of the operands, each a sequence of integer lists,
    is refused: their largest coefficients have more than _MAX_BITS bits
    between them."""
    return sum([max(map(abs, chain(*lists))).bit_length() for lists in operands]) > _MAX_BITS


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


def _primitive(cs) -> tuple:
    """The integer coefficients cs, trailing zeros dropped, divided by their
    content and signed so that the leading one is positive; () for zero."""
    while cs and not cs[-1]:
        cs = cs[:-1]
    g = gcd(*cs) if cs and cs[-1] > 0 else -gcd(*cs)
    return tuple(c // g for c in cs)


def _pseudo_divide(a, b) -> tuple[list, list, int]:
    """(q, r, s) with s*a = q*b + r, s > 0 and len(r) < len(b), for ascending
    integer lists a and b, b[-1] != 0.  A step scales by only the part of b's
    leading coefficient that does not divide the remainder's: s = 1 if it is +-1."""
    n, lead = len(b) - 1, b[-1]
    sign = 1 if lead > 0 else -1
    rem, quo, scale = list(a), [0] * max(len(a) - n, 0), 1
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
    return quo, rem[:n], scale


def _gcd(a, b) -> tuple:
    """The primitive gcd of two integer lists, leading coefficient positive,
    () for two zeros: the pseudo-remainder sequence made primitive each step."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _primitive(_pseudo_divide(a, b)[1])
    return a


def _horner(cs, p, e, q=0, d=0) -> tuple[int, int]:
    """(hp, hq) with hp + hq*sqrt(d) = e^n * cs((p + q*sqrt(d))/e), n = len(cs) - 1:
    Horner's rule on the integers in the homogeneous form
    sum(cs[k] * (p + q*sqrt(d))^k * e^(n-k))."""
    hp = hq = 0
    scale = 1
    for c in reversed(cs):
        hp, hq = hp * p + d * hq * q + c * scale, hp * q + hq * p
        scale *= e
    return hp, hq


def _lowest(num, den) -> tuple:
    """num/den in lowest terms, for ascending integer lists with no trailing
    zeros and den nonzero: their gcd divided out, content-free, den's leading
    coefficient positive; ((), (1,)) for zero."""
    if not num:
        return (), (1,)
    g = _gcd(num, den) if len(num) > 1 and len(den) > 1 else ()   # a constant shares no factor
    if len(g) > 1:      # g is primitive, so both quotients are integral (Gauss): no scaling
        num, den = _pseudo_divide(num, g)[0], _pseudo_divide(den, g)[0]
    both = _primitive([*num, *den])     # den's leading coefficient leads
    return both[:len(num)], both[len(num):]


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

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self._c):
            return Fraction(self._c[k], self._den)
        return Fraction(0)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        elif type(other) is not Poly:
            return NotImplemented
        return self._c == other._c and self._den == other._den

    def __hash__(self) -> int:
        return hash((self._c, self._den)) if len(self._c) > 1 else hash(self[0])

    def __bool__(self) -> bool:
        return bool(self._c)

    def divides(self, other: "Poly") -> bool:
        if not self._c:
            raise ZeroDivisionError("polynomial division by zero")
        return not any(_pseudo_divide(other._c, self._c)[1])

    def eval(self, x):
        """Value at a QuadExt (a QuadExt of its field) or at an int or
        Fraction (a Fraction), by _horner at x = (p + q*sqrt(d))/e, q = d = 0
        for a rational x, divided once by den*e^n."""
        quad = type(x) is QuadExt
        if quad:
            p, q, e, d = x._p, x._q, x._den, x._d
        else:
            (p, e), q, d = _num_den(x), 0, 0
        hp, hq = _horner(self._c, p, e, q, d)
        den = self._den * e ** max(self.degree, 0)
        return _quad(hp, hq, den, d, x._field) if quad else Fraction(hp, den)

    # -- display --------------------------------------------------------------

    def format(self, var: str = "t") -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self[k]
            if c:
                times = "*" if k and c.denominator > 1 else ""     # 1/2t reads as 1/(2*t)
                mag = "" if abs(c) == 1 and k else f"{abs(c)}{times}"
                power = "" if k == 0 else var if k == 1 else f"{var}^{k}"
                terms.append(("-" if c < 0 else "+") + f" {mag}{power}")
        text = " ".join(terms) or "+ 0"
        return text[2:] if text[0] == "+" else "-" + text[2:]

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"Poly({self.coeffs})"


def _rational_roots(prim: tuple) -> list[Fraction]:
    """All rational roots of a primitive integer tuple of degree 1 or 2,
    ascending, in closed form: a quadratic has rational roots exactly when
    ``isqrt`` of its discriminant squares back to it."""
    if len(prim) == 2:
        return [Fraction(-prim[0], prim[1])]
    c, b, a = prim
    disc = b * b - 4 * a * c
    s = isqrt(max(disc, 0))
    return sorted({Fraction(-b - s, 2 * a), Fraction(s - b, 2 * a)}) if s * s == disc else []


def _divide_out(p: tuple, factor: tuple) -> tuple[tuple, int]:
    """(p / factor^m, m) for the largest m with factor^m dividing p, for
    integer tuples with factor primitive: an exact quotient by a primitive
    divisor is integral (Gauss's lemma), so _pseudo_divide never scales it."""
    mult = 0
    while len(factor) <= len(p) and not any((split := _pseudo_divide(p, factor))[1]):
        p, mult = tuple(split[0]), mult + 1
    return p, mult


def _slope(cs) -> list:
    """The derivative of an ascending integer list."""
    return [k * c for k, c in enumerate(cs)][1:]


def _square_free(f: tuple) -> list[tuple[tuple, int]]:
    """Yun's square-free decomposition of a primitive integer tuple (Yun,
    SYMSAC '76): [(a_i, i), ...] with f = prod a_i^i, each a_i primitive,
    square-free and of degree 1 or more, coprime in pairs.  Each step is a
    _gcd and exact quotients by a primitive divisor, integral by Gauss's lemma."""
    a = _gcd(f, _slope(f))
    b, c = _pseudo_divide(f, a)[0], _pseudo_divide(_slope(f), a)[0]
    parts, i = [], 1
    while len(b) > 1:
        d = _add(c, _slope(b), -1)
        a = _gcd(b, d)
        if len(a) > 1:
            parts.append((a, i))
        b, c, i = _pseudo_divide(b, a)[0], _pseudo_divide(d, a)[0], i + 1
    return parts


def poly_reduce(p: Poly) -> list[tuple[Poly, int]]:
    """Content-free factorization into linear factors (rational roots) and
    irreducible quadratics, each primitive with positive leading coefficient.

    The powers of t are stripped, and each square-free part (_square_free) of
    degree 1 or 2 is split in closed form (_rational_roots).  A part of
    degree 3 or more raises UnsupportedDegreeError: no integer is factored.
    The product of the factors times p's content recovers p.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    rem = _primitive(p._c)
    zeros = next(k for k, c in enumerate(rem) if c)
    factors, rem = [((0, 1), zeros)] if zeros else [], rem[zeros:]
    # below degree 3 the closed form finds a double root itself
    for part, mult in (_square_free(rem) if len(rem) > 3 else
                       [(rem, 1)] if len(rem) > 1 else []):
        if len(part) > 3:
            raise UnsupportedDegreeError(
                f"a square-free part of degree {len(part) - 1} (only parts of degree "
                "1 and 2 are split)")
        for root in _rational_roots(part):
            lin = (-root.numerator, root.denominator)
            part, m = _divide_out(part, lin)
            factors.append((lin, mult * m))
        if len(part) > 1:
            factors.append((part, mult))

    return [(_poly(f, 1), m) for f, m in sorted(factors, key=lambda fm: (len(fm[0]), fm[0]))]


def _cleared(pairs) -> tuple:
    """(P0, ..., D): content-free integer tuples with P_k / D == num_k / den_k
    for the pairs _lowest returns, D the product of the den_k's distinct
    primitive parts and the lcm of their contents.  A plan's entries are these."""
    prims = [_primitive(den) for _, den in pairs]
    dens = [d for d in dict.fromkeys(prims) if d != (1,)]
    scale = lcm(*(den[-1] // prim[-1] for (_, den), prim in zip(pairs, prims)))
    out = [reduce(_convolve, [d for d in dens if d != prim],
                  [c * (scale * prim[-1] // den[-1]) for c in num])
           for (num, den), prim in zip(pairs, prims)]
    return tuple(map(tuple, _content_free(out + [reduce(_convolve, dens, [scale])])))


# -- expression parser ---------------------------------------------------------

# Deepest nesting of parentheses accepted in an expression.  Each level is a
# few frames of the recursive-descent parser, so input stays far inside
# Python's recursion limit and ends in ParseError, never RecursionError.
MAX_NESTING = 64

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<op>[-+*/^()])|(?P<bad>\S))")


def _step_degree(op: str, u: tuple, v: tuple) -> int:
    """The degree the numerator or denominator of u op v may reach."""
    (a, b), (c, d) = (len(x) - 1 for x in u), (len(x) - 1 for x in v)
    if op == "/":
        c, d = d, c
    return max(a + c if op in "*/" else max(a + d, b + c), b + d)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise ParseError(f"bad character in expression: {_quoted(text[m.start():])}")
        tokens.append((m.lastgroup, m.group(m.lastgroup)))
    return tokens + [("end", "")]


class _ExprParser:
    """Recursive descent.  A value is a content-free (numerator, denominator)
    pair of ascending integer lists, the form moduli's plan interpreter runs
    on; it is reduced by _lowest once, at the end."""

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

    def refuse(self, what: str):
        raise ParseError(f"{what} in {_quoted(self.text)}")

    def parse(self) -> tuple:
        if not self.text.strip():
            raise ParseError("empty expression")
        num, den = self.expr()
        if self.peek()[0] != "end":
            self.refuse("trailing input")
        return _lowest(num, den)

    def expr(self) -> tuple:
        return self.chain(self.term, "+-")

    def term(self) -> tuple:
        return self.chain(self.unary, "*/")

    def chain(self, operand, ops: str) -> tuple:
        """operand (op operand)* for op in ops, left to right.  A step is
        refused before it is computed when the degree it may reach in its
        numerator or denominator is above MAX_DEGREE with its operands
        reduced (they are reduced only when it is above with them as they
        are), or when its product is _oversized."""
        value = operand()
        while self.peek()[0] == "op" and self.peek()[1] in ops:
            op = self.take()[1]
            rhs = operand()
            if _step_degree(op, value, rhs) > MAX_DEGREE:
                value, rhs = _lowest(*value), _lowest(*rhs)
                if _step_degree(op, value, rhs) > MAX_DEGREE:
                    self.refuse(f"degree above {MAX_DEGREE}")
            (a, b), (c, d) = value, rhs
            if op == "/":
                if not c:
                    self.refuse("division by zero")
                c, d = d, c
            if _oversized(value, rhs):
                self.refuse(f"coefficients above {_MAX_BITS} bits")
            num = (_convolve(a, c) if op in "*/" else
                   _add(_convolve(a, d), _convolve(c, b), 1 if op == "+" else -1))
            value = _content_free([num, _convolve(b, d)])
        return value

    def unary(self) -> tuple:
        negate = False
        while self.peek() in (("op", "-"), ("op", "+")):
            negate ^= self.take()[1] == "-"
        num, den = self.power()
        return ([-c for c in num], den) if negate else (num, den)

    def power(self) -> tuple:
        start = self.pos
        base = self.atom()
        if self.peek() != ("op", "^"):
            return base
        if ("op", "^") in self.tokens[start:self.pos]:
            self.refuse("power of a power")
        self.take()
        if negative := self.peek() == ("op", "-"):
            self.take()
        kind, val = self.take()
        if kind != "int":
            self.refuse("expected integer exponent")
        exponent = parse_digits(val, "an exponent")
        if exponent > MAX_EXPONENT:
            self.refuse(f"exponent {exponent} above {MAX_EXPONENT}")
        if (max(map(len, base)) - 1) * exponent > MAX_DEGREE:
            base = _lowest(*base)
            if (max(map(len, base)) - 1) * exponent > MAX_DEGREE:
                self.refuse(f"degree above {MAX_DEGREE}")
        num, den = base[::-1] if negative and exponent else base
        if not den:
            self.refuse("division by zero")
        if _oversized(*[base] * exponent):
            self.refuse(f"coefficients above {_MAX_BITS} bits")
        # a power of a content-free pair is content-free (Gauss's lemma)
        return tuple(reduce(_convolve, [cs] * exponent, [1]) for cs in (num, den))

    def atom(self) -> tuple:
        kind, val = self.take()
        if kind == "int":               # 2t^3 is 2*t^3, as Poly.format writes it
            n = parse_digits(val, "an integer")
            if self.tokens[self.pos] != ("name", self.var):
                return ([n] if n else []), [1]
            num, den = self.power()
            return ([n * c for c in num] if n else []), den
        if kind == "name":
            if val != self.var:
                raise ParseError(f"unknown variable {_quoted(val)} "
                                 f"(plan is over {_quoted(self.var)})")
            return [0, 1], [1]
        if (kind, val) == ("op", "("):
            self.depth += 1
            if self.depth > MAX_NESTING:
                self.refuse(f"parentheses nested deeper than {MAX_NESTING}")
            inner = self.expr()
            if self.take() != ("op", ")"):
                self.refuse("expected ')'")
            self.depth -= 1
            return inner
        self.refuse(f"unexpected token {_quoted(val)}")


def parse_ratfunc(text: str, var: str = "t") -> tuple[Poly, Poly]:
    """Parse a rational-function expression such as ``(t-1)/(t+2)`` or ``-1/t``
    into (num, den): Polys in lowest terms, den monic."""
    num, den = _ExprParser(text, var).parse()
    return _poly(num, den[-1]), _poly(den, den[-1])
