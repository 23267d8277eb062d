"""Poly, RatFunc and parse_ratfunc against the reference model of
tests/conftest.py: a polynomial is a tuple of Fractions in ascending degree
with no trailing zeros, and every operation is the schoolbook one over Q
(long division, Euclid's gcd made monic).  The library stores a reduced
integer tuple with one common denominator, divides by pseudo-division and
takes gcds by a primitive pseudo-remainder sequence; every operation must
agree with the model."""

from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrsym.errors import ParseError, _quoted
from arrsym.fields import QuadExt
from arrsym.polys import (MAX_DEGREE, Poly, RatFunc, _divide_out, _gcd, _lowest, _primitive,
                          _pseudo_divide, _rational_roots, parse_ratfunc)

from conftest import (Ref, norm, qneg, radd, rcanonical, rdivmod, rgcd, rmonic, rmul, rneg,
                      rprimitive)
from test_scalar_oracle import FIELDS, agrees, scalar


def reval(a, x):
    acc = x * 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


small_rationals = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
coefficients = st.lists(st.one_of(st.just(F(0)), small_rationals), max_size=6)


@st.composite
def poly(draw, nonzero=False):
    cs = norm(draw(coefficients))
    if nonzero:
        assume(cs)
    return Poly(cs), cs


def agrees_poly(p, ref):
    """p equals the model's polynomial, stored in lowest terms."""
    assert p.coeffs == ref and p.degree == len(ref) - 1
    assert p._den > 0 and gcd(p._den, *p._c) == 1 and (not p._c or p._c[-1])


@given(poly(), poly(nonzero=True))
def test_pseudo_division_matches_the_model(ps, qs):
    # s*a = q*b + r on the integer numerators, s > 0 and 1 when b is monic or
    # a primitive b divides a (Gauss's lemma): the model's quotient of s*a
    (p, rp), (q, rq) = ps, qs
    quo, rem, scale = _pseudo_divide(p._c, q._c)
    assert (norm(quo), norm(rem)) == rdivmod(norm(c * scale for c in p._c), norm(q._c))
    assert scale > 0 and len(rem) < len(q._c)
    if abs(q._c[-1]) == 1 or (q._c == _primitive(q._c) and not rdivmod(rp, rq)[1]):
        assert scale == 1
    assert q.divides(Poly(rmul(rp, rq))) and q.divides(p) == (not rdivmod(rp, rq)[1])
    with pytest.raises(ZeroDivisionError):
        Poly().divides(p)


@given(poly(), poly(), poly(nonzero=True))
def test_normal_forms_and_gcd_match_the_model(ps, qs, ss):
    (p, rp), (q, rq), (s, rs) = ps, qs, ss
    if rp:        # the spelling README gives for the removed p.monic()
        agrees_poly(Poly(tuple(c / p[p.degree] for c in p.coeffs)), rmonic(rp))

    def primitive_gcd(a, b):
        g = _gcd(a, b)
        assert (gcd(*g) == 1 and g[-1] > 0) if g else not (any(a) or any(b))
        return rmonic(norm(g))

    assert primitive_gcd(p._c, q._c) == rgcd(rp, rq)
    # a shared factor survives the pseudo-remainder sequence
    a, b = rmul(rp, rs), rmul(rq, rs)
    assert primitive_gcd(Poly(a)._c, Poly(b)._c) == rgcd(a, b)
    if rp:
        prim = _primitive(p._c)
        assert type(prim) is tuple and all(type(c) is int for c in prim)
        assert norm(prim) == rprimitive(rp)[1] and _primitive(prim + (0,)) == prim
    else:
        assert _primitive(p._c) == ()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-6, 6).filter(bool), st.integers(1, 4)),
                min_size=1, max_size=4),
       st.lists(st.integers(-5, 5), min_size=1, max_size=4), st.integers(-3, 3).filter(bool))
def test_rational_roots_and_divide_out_match_the_model(roots, cofactor, k):
    # p = k * cofactor * (s*t - r) for each (r, s), of degree 3 or more, where
    # the roots are searched over divisors: every root found zeros p, and
    # dividing each out leaves a part with none, whose product with the
    # factors and the content is p
    p = norm((k * c for c in cofactor))
    for r, s in roots:
        p = rmul(p, (F(-r), F(s)))
    assume(len(p) > 3 and p[0])
    prim = _primitive([int(c) for c in p])
    found = _rational_roots(prim)
    assert found == sorted(set(found)) and {F(r, s) for r, s in roots} <= set(found)
    rest, product = prim, (F(1),)
    for x in found:
        assert reval(p, x) == 0
        lin = (-x.numerator, x.denominator)
        rest, mult = _divide_out(rest, lin)
        assert mult > 0 and type(rest) is tuple
        for _ in range(mult):
            product = rmul(product, lin)
    assert len(rest) < 2 or not _rational_roots(rest)
    assert rmul(rmul(product, rest), (rprimitive(p)[0],)) == p


@given(poly(), small_rationals)
def test_eval_at_rationals_matches_the_model(ps, x):
    p, rp = ps
    assert p.eval(x) == reval(rp, x) and isinstance(p.eval(x), F)
    assert p.eval(x.numerator) == reval(rp, F(x.numerator))


def fraction_horner(cs, x):
    """Horner's rule on Fractions: the reference for Poly.eval at a rational."""
    acc = F(0)
    for c in reversed(cs):
        acc = acc * x + c
    return acc


@given(poly(), st.one_of(st.integers(-10 ** 20, 10 ** 20),
                         st.builds(F, st.integers(-10 ** 20, 10 ** 20),
                                   st.integers(1, 10 ** 20))))
def test_eval_at_ints_and_fractions_is_the_fraction_horner(ps, x):
    """An int or Fraction point runs the integer loop with q = d = 0 and
    gives a Fraction in lowest terms, equal to the QuadExt value there."""
    p, rp = ps
    value = p.eval(x)
    assert type(value) is F and value == fraction_horner(rp, x)
    assert p.eval(QuadExt(x)) == value


@given(poly(), st.sampled_from(FIELDS).flatmap(
    lambda f: st.tuples(st.just(f), scalar(f))))
def test_eval_at_scalars_matches_the_model(ps, args):
    (p, rp), (field, (x, rx)) = ps, args
    agrees(p.eval(x), reval(rp, rx), field)


@st.composite
def ratfunc(draw):
    num, rnum = draw(poly())
    den, rden = draw(poly(nonzero=True))
    return RatFunc(num, den), rcanonical(rnum, rden)


def agrees_ratfunc(f, ref):
    """f equals the model's value in its canonical form: gcd(num, den) = 1
    and den monic."""
    agrees_poly(f.num, ref[0])
    agrees_poly(f.den, ref[1])
    assert f.den[f.den.degree] == 1 and rgcd(f.num.coeffs, f.den.coeffs) == (1,)


@given(ratfunc(), poly(nonzero=True), st.one_of(small_rationals, st.integers(-9, 9)))
def test_ratfunc_reduces_like_the_model(fs, ss, r):
    # the one reducer: a common factor and a constant divided out
    (f, (a, b)), (_, rs) = fs, ss
    agrees_ratfunc(f, (a, b))
    agrees_ratfunc(RatFunc(Poly(rmul(a, rs)), Poly(rmul(b, rs))), (a, b))
    agrees_ratfunc(RatFunc(r), rcanonical(norm((r,)), (F(1),)))
    if r:
        scaled = rmul(b, norm((r,)))
        agrees_ratfunc(RatFunc(f.num, Poly(scaled)), rcanonical(a, scaled))
    else:
        with pytest.raises(ZeroDivisionError):
            RatFunc(f.num, r)


integer_lists = st.lists(st.integers(-30, 30), max_size=5).map(
    lambda cs: [int(c) for c in norm(cs)])


@settings(max_examples=300)
@given(integer_lists, integer_lists, integer_lists, st.integers(-6, 6).filter(bool))
def test_lowest_terms_match_the_model(a, b, s, k):
    # a shared factor s and a shared constant k give the gcd and the content
    # something to divide out; b times s and k is the denominator
    assume(b)
    factor = [k * c for c in s] or [k]
    num, den = ([int(c) for c in rmul(x, factor)] for x in (a, b))
    low = _lowest(num, den)
    rnum, rden = map(norm, low)
    assert rcanonical(rnum, rden) == rcanonical(norm(a), norm(b))     # the same value
    assert rgcd(rnum, rden) == (1,)                                   # coprime
    assert gcd(*low[0], *low[1]) == 1 and low[1][-1] > 0
    assert _lowest(*low) == low
    assert a or low == ((), (1,))


@given(ratfunc(), st.sampled_from(FIELDS).flatmap(
    lambda f: st.tuples(st.just(f), scalar(f))))
def test_ratfunc_eval_matches_the_model(fs, args):
    (f, (a, b)), (field, (x, rx)) = fs, args
    den = reval(b, rx)
    if den.a == den.b == 0:
        assert f.den.eval(x).is_zero
    else:
        agrees((Ref.of(f.num.eval(x)) / f.den.eval(x)).quad(field), reval(a, rx) / den, field)


@given(poly(), poly(nonzero=True), ratfunc())
def test_equal_values_have_equal_hashes(ps, qs, fs):
    (p, rp), (q, rq), (f, (a, b)) = ps, qs, fs
    rebuilt = RatFunc(Poly(rmul(rp, rq)), q).num        # the kernel divides q out
    assert rebuilt == p and hash(rebuilt) == hash(p)
    assert Poly(rp) == p and hash(Poly(rp)) == hash(p)
    assert RatFunc(p) == p and hash(RatFunc(p)) == hash(p)
    g = RatFunc(Poly(rmul(a, rq)), Poly(rmul(b, rq)))
    assert g == f and hash(g) == hash(f)
    if p.degree <= 0:
        c = rp[0] if rp else F(0)
        for value in (c,) + ((c.numerator,) if c.denominator == 1 else ()):
            assert p == value and RatFunc(p) == value
            assert hash(p) == hash(value) == hash(RatFunc(p))


@st.composite
def spelling(draw):
    """A value from a small pool, so that equal values recur, spelled as a
    Poly, a RatFunc over 1 or over t + 1, or, for a constant, a Fraction or
    an int."""
    cs = norm(draw(st.lists(st.sampled_from((F(0), F(1), F(-1), F(1, 2))), max_size=2)))
    forms = [Poly(cs), RatFunc(Poly(cs)), RatFunc(Poly(cs), Poly((1, 1)))]
    if len(cs) <= 1:
        c = cs[0] if cs else F(0)
        forms += [c] + ([c.numerator] if c.denominator == 1 else [])
    return draw(st.sampled_from(forms))


@given(st.lists(spelling(), max_size=6))
def test_equality_is_symmetric_across_types(values):
    for a in values:
        for b in values:
            assert (a == b) == (b == a) and (a != b) == (b != a)
    assert len(set(values)) == len(set(reversed(values)))


@pytest.mark.parametrize("c", [F(0), F(1), F(-1), F(-2), F(1, 2), F(-7, 3),
                               F(2 ** 70, 3 ** 40)], ids=str)
def test_constant_polys_equal_and_hash_like_rationals(c):
    for value in (Poly((c,)), Poly((c, 0, 0)), RatFunc(c)):
        assert value == c and hash(value) == hash(c)
    if c.denominator == 1:
        assert Poly((c.numerator,)) == c.numerator
        assert hash(Poly((c.numerator,))) == hash(c.numerator)
    assert Poly((c,)) != c + 1 and Poly((c, 1)) != c


def test_immutable():
    p, f = Poly((1, F(1, 2))), RatFunc(Poly((1, 1)), Poly((2, 3)))
    for obj, name in ((p, "coeffs"), (p, "x"), (f, "num"), (f, "den"), (f, "x")):
        with pytest.raises(AttributeError):
            setattr(obj, name, Poly((1,)))
    assert p.coeffs == (1, F(1, 2)) and f.den == Poly((F(2, 3), 1))


# -- the expression parser ----------------------------------------------------------
# parse_ratfunc computes on content-free integer lists and reduces once, at the
# end, and only when a step's degree bound is above MAX_DEGREE.  The model
# reduces after every step: a step is refused when one of its products of
# reduced operands has degree above MAX_DEGREE, and a power when its
# numerator or denominator would.  The results' integer forms, or the
# ParseError messages, must be equal.

ONE = ((F(1),), (F(1),))


class Refused(Exception):
    """The model's refusal: the parser's message, less " in <text>"."""


def model_step(op, f, g):
    (a, b), (c, d) = f, (g[::-1] if op == "/" else g)
    products = [rmul(a, c), rmul(b, d)] if op in "*/" else [rmul(a, d), rmul(c, b), rmul(b, d)]
    if max(map(len, products)) - 1 > MAX_DEGREE:
        raise Refused(f"degree above {MAX_DEGREE}")
    if op == "/" and not g[0]:
        raise ZeroDivisionError
    if op in "+-":
        products[:2] = [radd(products[0], rneg(products[1]) if op == "-" else products[1])]
    return rcanonical(*products)


def model_power(f, exponent, negative):
    if max(len(cs) - 1 for cs in f) * exponent > MAX_DEGREE:
        raise Refused(f"degree above {MAX_DEGREE}")
    if not exponent:
        return ONE
    if negative:
        if not f[0]:
            raise ZeroDivisionError
        f = f[::-1]
    num, den = ONE
    for bit in bin(exponent)[2:]:                       # square and multiply
        num, den = rmul(num, num), rmul(den, den)
        if bit == "1":
            num, den = rmul(num, f[0]), rmul(den, f[1])
    return rcanonical(num, den)


ATOMS = {"t": ((F(0), F(1)), (F(1),)), "(t-t)": ((), (F(1),)), "(t+1)": ((F(1), F(1)), (F(1),)),
         "0": ((), (F(1),)), "2": ((F(2),), (F(1),)), "7": ((F(7),), (F(1),))}
EXPONENTS = st.one_of(st.sampled_from([0, 1, 2, 32, 33, 40, 64]), st.integers(0, 64))
SIGNS = st.sampled_from(["", "-", "+", "--", "+-"])
ATOM_TEXTS = st.sampled_from(sorted(ATOMS))


@st.composite
def expressions(draw):
    """A text by the parser's grammar, and a thunk that evaluates it with the
    model, left to right as the parser does."""

    def chain(depth, ops):                  # "+-" chains terms, "*/" signed powers
        parts = [chain(depth, "*/") if ops == "+-" else unary(depth)
                 for _ in range(draw(st.integers(1, 3 - depth)))]
        signs = [draw(st.sampled_from(ops)) for _ in parts[1:]]

        def run():
            value = parts[0][1]()
            for op, (_, operand) in zip(signs, parts[1:]):
                value = model_step(op, value, operand())
            return value

        return "".join([parts[0][0]] + [op + t for op, (t, _) in zip(signs, parts[1:])]), run

    def unary(depth):
        if depth < 2 and draw(st.booleans()):
            text, base = chain(depth + 1, "+-")
            text = f"({text})"
        else:
            text = draw(ATOM_TEXTS)
            base = lambda text=text: ATOMS[text]
        run = base
        if "^" not in text and draw(st.booleans()):          # no power of a power
            exponent, minus = draw(EXPONENTS), draw(st.sampled_from(["", "-"]))
            text += f"^{minus}{exponent}"
            run = lambda: model_power(base(), exponent, minus == "-")
        signs = draw(SIGNS)
        if signs.count("-") % 2:
            return signs + text, lambda: qneg(run())
        return signs + text, run

    return chain(0, "+-")


def parsed(text):
    """parse_ratfunc's result as its exact integer form, or its message."""
    try:
        f = parse_ratfunc(text)
    except ParseError as exc:
        return str(exc)
    return f.num._c, f.num._den, f.den._c, f.den._den


def modelled(expression):
    text, run = expression
    try:
        num, den = run()
    except Refused as exc:
        return f"{exc} in {_quoted(text)}"
    except ZeroDivisionError:
        return f"division by zero in {_quoted(text)}"
    return Poly(num)._c, Poly(num)._den, Poly(den)._c, Poly(den)._den


@settings(max_examples=300, deadline=None)
@given(expressions())
def test_parse_ratfunc_matches_the_model(expression):
    assert parsed(expression[0]) == modelled(expression)


T64 = (F(0),) * 64 + (F(1),)


@pytest.mark.parametrize("text, expected", [
    ("t^64/t", (T64[1:], (F(1),))),      # unreduced t^64/t: degree 64 over 1
    ("(t^64/t)*t", (T64, (F(1),))),      # reduced before the product: 63 + 1
    ("1/t^32 - 1/t^32", ((), (F(1),))),
    ("0^-0", ONE),
    ("(t-t)^-1", "division by zero in '(t-t)^-1'")])
def test_parse_ratfunc_pins(text, expected):
    if isinstance(expected, str):
        assert parsed(text) == expected
    else:
        assert parse_ratfunc(text) == RatFunc(Poly(expected[0]), Poly(expected[1]))


# -- format ---------------------------------------------------------------------
# a non-integer coefficient of a power of the variable is written with "*",
# so that every formatted value parses back to itself

@given(poly(), st.one_of(st.none(), poly(nonzero=True)), st.sampled_from(["t", "s", "x"]))
def test_format_parses_back(ps, qs, var):
    f = RatFunc(ps[0]) if qs is None else RatFunc(ps[0], qs[0])
    assert parse_ratfunc(f.format(var), var) == f


@pytest.mark.parametrize("f, text", [
    (Poly((1, F(1, 2), F(-3, 4))), "-3/4*t^2 + 1/2*t + 1"),
    (parse_ratfunc("t/(2*t+1)"), "(1/2*t)/(t + 1/2)"),
    (Poly((F(3, 2), 2, -1)), "-t^2 + 2t + 3/2"),
    (Poly((F(-1, 3),)), "-1/3")])
def test_format_pins(f, text):
    assert f.format() == text


@pytest.mark.parametrize("text, value", [
    ("2t", Poly((0, 2))),
    ("-t^2 + 2t + 3/2", Poly((F(3, 2), 2, -1))),
    ("2t^-2", RatFunc(Poly((2,)), Poly((0, 0, 1)))),       # 2*(t^-2), not (2t)^-2
    ("1/2t", RatFunc(Poly((F(1, 2),)), Poly((0, 1)))),     # 1/(2*t)
    ("0t^3", Poly(()))])
def test_an_integer_before_the_variable_is_its_coefficient(text, value):
    assert parse_ratfunc(text) == value


@pytest.mark.parametrize("text, message", [
    ("2x", "trailing input in '2x'"),
    ("2t^2^3", "power of a power in '2t^2^3'"),
    ("3(t)", "trailing input in '3(t)'")])
def test_only_the_variable_follows_an_integer(text, message):
    with pytest.raises(ParseError) as refused:
        parse_ratfunc(text)
    assert str(refused.value) == message
