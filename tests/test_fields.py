import re
from fractions import Fraction as F
from itertools import product
from math import isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrsym.errors import DegenerateError, FieldMixError, ParseError, ValidationError
from arrsym.errors import _quoted
from arrsym.fields import (RATIONAL, FieldSpec, QuadExt, _fraction_literal, parse_scalar,
                           quad_roots, square_free_part)

from conftest import Ref

Q5 = FieldSpec.quadratic(5)
QI = FieldSpec.quadratic(-1)


def s5(a, b):
    return QuadExt(F(a), F(b), Q5)


def test_square_free_part():
    assert square_free_part(20) == (2, 5)
    assert square_free_part(-4) == (2, -1)
    assert square_free_part(-12) == (2, -3)
    assert square_free_part(49) == (7, 1)
    assert square_free_part(1) == (1, 1)


def trial_square_free(n):
    """(s, d) with n = s*s*d and d square-free, by trial division by every
    integer up to the square root of what is left: the reference for an n
    with no prime factor above 1,000."""
    m, s, d, p = abs(n), 1, 1, 2
    while p * p <= m:
        while m % (p * p) == 0:
            m, s = m // (p * p), s * p
        if m % p == 0:
            m, d = m // p, d * p
        p += 1
    return s, (d * m if n > 0 else -d * m)


def is_square(n):
    return n >= 0 and isqrt(n) ** 2 == n


SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 31, 101, 997]
LARGE_PRIMES = [1009, 1013, 65537, 10 ** 9 + 7, 10 ** 15 + 37]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([1, -1]),
       st.lists(st.sampled_from(SMALL_PRIMES + LARGE_PRIMES), max_size=4),
       st.lists(st.sampled_from(SMALL_PRIMES + LARGE_PRIMES), max_size=5))
@example(1, [1009], [3])                    # a square cofactor, taken out whole
@example(1, [], [1009, 1009, 1013])         # a large prime's square is kept
@example(-1, [10 ** 15 + 37], [])           # -1 times a square
@example(1, [7, 7], [])                     # a square: the rationals
def test_square_free_part_names_the_field(sign, squared, factors):
    """n = s*s*d', and d' names Q(sqrt n): n*d' is a square, and d' is not one
    unless n is (Cohen, GTM 138, 1.7); with no prime factor above 1,000, d' is
    the square-free part trial division finds."""
    n = sign * prod(squared) ** 2 * prod(factors)
    s, d = square_free_part(n)
    assert s > 0 and s * s * d == n and is_square(n * d)
    assert is_square(d) == is_square(n) == (d == 1)
    if all(p < 1000 for p in squared + factors):
        assert (s, d) == trial_square_free(n)


P15, Q15 = 10 ** 15 + 37, 10 ** 15 + 91      # primes


def test_square_free_part_beyond_trial_division():
    assert square_free_part(10 ** 18 + 3) == (1, 10 ** 18 + 3)          # prime
    assert square_free_part(-(10 ** 18 + 3)) == (1, -(10 ** 18 + 3))
    assert square_free_part(12 * P15 ** 2) == (2 * P15, 3)             # square cofactor
    assert square_free_part(10 ** 24 + 7) == (1, 10 ** 24 + 7)
    # the square of a prime above 1,000 stays when the cofactor is no square:
    # -3*p*p*q names the same field as -3*q
    p, q = 10 ** 9 + 7, 10 ** 9 + 9
    assert square_free_part(-48 * p * p * q) == (4, -3 * p * p * q)
    p = 10 ** 12 + 39
    assert square_free_part(p ** 3) == (1, p ** 3)
    assert square_free_part(-(p ** 4)) == (p * p, -1)


@pytest.mark.parametrize("n", [
    pytest.param(P15 * Q15, id="two-16-digit-primes"),
    pytest.param(-int("7" * 640), id="640-sevens-negative"),
    pytest.param(2 ** 89 - 1, id="prime-above-proven-range"),
])
def test_a_field_is_named_without_factoring(n):
    # each of these was refused while fields were named by factoring
    assert square_free_part(n) == (1, n)
    assert FieldSpec.quadratic(n).d == n


def test_a_radicand_with_a_square_is_refused_at_any_size():
    with pytest.raises(ValidationError, match="is not square-free"):
        FieldSpec.quadratic(int("9" * 640))               # 9 divides it
    with pytest.raises(ValidationError, match="is not square-free"):
        FieldSpec.quadratic(3 * (10 ** 300 + 3) ** 2)     # a square cofactor


def test_field_spec_validation():
    with pytest.raises(ValidationError):
        FieldSpec.quadratic(12)       # not square-free
    with pytest.raises(ValidationError):
        FieldSpec.quadratic(0)
    with pytest.raises(ValidationError):
        FieldSpec.quadratic(1)
    with pytest.raises(ValidationError, match="invalid quadratic field d=None"):
        FieldSpec.quadratic(None)
    assert FieldSpec.quadratic(-3).d == -3
    assert RATIONAL == FieldSpec() and RATIONAL.is_rational


@pytest.mark.parametrize("d,message", [
    (2.0, "quadratic field d=2.0 is not an integer"),
    (F(5), "quadratic field d=Fraction(5, 1) is not an integer"),
    ("5", "quadratic field d='5' is not an integer"),
    (True, "invalid quadratic field d=True"),
    (0, "invalid quadratic field d=0"),
    (1, "invalid quadratic field d=1"),
    (12, "d=12 is not square-free"),
], ids=["float", "Fraction", "str", "True", "0", "1", "12"])
def test_field_spec_refuses_a_non_integer_d(d, message):
    # a value that is not an integer is named; the integer messages stay
    with pytest.raises(ValidationError) as info:
        FieldSpec(d)
    assert str(info.value) == message


def test_field_spec_accepts_integers():
    assert FieldSpec(None) == RATIONAL and FieldSpec(-3).d == -3
    assert type(FieldSpec(5).d) is int


def test_quad_roots_golden_ratio():
    field, plus, minus = quad_roots(1, -1, -1)
    assert field.d == 5
    assert plus == s5(F(1, 2), F(1, 2))
    assert minus == s5(F(1, 2), F(-1, 2))
    assert plus.b > 0


def test_quad_roots_complex():
    field, plus, minus = quad_roots(2, -2, 1)
    assert field.d == -1
    assert plus == QuadExt(F(1, 2), F(1, 2), field)
    assert minus == plus.conjugate()


def test_quad_roots_perfect_square_degrades():
    field, plus, minus = quad_roots(1, 0, -4)
    assert field.is_rational
    assert plus == QuadExt(2) and minus == QuadExt(-2)


def test_quad_roots_zero_discriminant():
    field, plus, minus = quad_roots(1, -2, 1)
    assert field.is_rational and plus == minus == QuadExt(1)


def test_quad_roots_degenerate():
    with pytest.raises(DegenerateError):
        quad_roots(0, 1, 1)


def test_quad_roots_vieta_exact():
    field, plus, minus = quad_roots(F(3, 7), F(-5, 2), F(11, 3))
    assert Ref.of(plus) + minus == QuadExt(F(5, 2) / F(3, 7), 0, field)
    assert Ref.of(plus) * minus == QuadExt(F(11, 3) / F(3, 7), 0, field)


def reference_quad_roots(a, b, c):
    """quad_roots as it computed on Fractions before it ran on integers."""
    a, b, c = F(a), F(b), F(c)
    if a == 0:
        raise DegenerateError("degenerate quadratic: leading coefficient is zero")
    disc = b * b - 4 * a * c
    center = -b / (2 * a)
    if disc == 0:
        r = QuadExt(center)
        return RATIONAL, r, r
    s, d = square_free_part(disc.numerator * disc.denominator)
    if d == 1:
        half = F(s, disc.denominator) / (2 * a)
        r1 = QuadExt(center + half)
        r2 = QuadExt(center - half)
        if r1.a < r2.a:
            r1, r2 = r2, r1
        return RATIONAL, r1, r2
    field = FieldSpec.quadratic(d)
    coeff = abs(F(s, disc.denominator) / (2 * a))
    plus = QuadExt(center, coeff, field)
    return field, plus, plus.conjugate()


rationals = st.one_of(st.integers(-30, 30), st.builds(F, st.integers(-30, 30),
                                                      st.integers(1, 12)))


@st.composite
def quadratics(draw):
    """(a, b, c): any coefficients, or a*(t - r)*(t - s) with rational
    roots, the discriminant a square, or a double root, the discriminant zero."""
    a = draw(rationals)
    kind = draw(st.sampled_from(["any", "rational roots", "double root"]))
    if kind == "any":
        return a, draw(rationals), draw(rationals)
    r = draw(rationals)
    s = r if kind == "double root" else draw(rationals)
    return a, -a * (r + s), a * r * s


def stored(roots):
    field, plus, minus = roots
    return field, [(x._p, x._q, x._den, x._d, x.field) for x in (plus, minus)]


@given(quadratics())
@example((-2, 3, 5))                    # a < 0, irrational roots
@example((F(-3, 2), F(1, 2), 1))        # a < 0, a square discriminant
@example((4, -4, 1))                    # a zero discriminant
@example((-1, 2, F(-1)))                # a < 0, a zero discriminant
@example((0, 1, 1))
@example((F(0), F(1, 2), 3))
def test_quad_roots_match_the_fraction_reference(abc):
    try:
        want = reference_quad_roots(*abc)
    except DegenerateError as exc:
        with pytest.raises(DegenerateError) as info:
            quad_roots(*abc)
        assert str(info.value) == str(exc)
        return
    assert stored(quad_roots(*abc)) == stored(want)


def test_galois_conjugate_examples():
    x = s5(F(1, 2), F(1, 2))
    assert x.conjugate() == s5(F(1, 2), F(-1, 2))
    assert QuadExt(F(3, 4)).conjugate() == QuadExt(F(3, 4))
    assert Ref.of(x) * x.conjugate() == -1
    assert x.conjugate().conjugate() == x


def test_rational_field_forbids_sqrt_part():
    with pytest.raises(FieldMixError):
        QuadExt(1, 1, RATIONAL)


@pytest.mark.parametrize("text", ["3", "-3/4", "1/2+1/2w", "1-2w", "-1/2w",
                                  "w", "-w", "2w", "0", "5/3-1/7w"])
def test_scalar_round_trip(text):
    value = parse_scalar(text, Q5)
    assert parse_scalar(str(value), Q5) == value


def test_scalar_whitespace_insensitive():
    assert parse_scalar(" 1/2 + 1/2 w ", Q5) == s5(F(1, 2), F(1, 2))


def test_scalar_parse_errors():
    with pytest.raises(ParseError):
        parse_scalar("", Q5)
    with pytest.raises(ParseError):
        parse_scalar("1+w+w", Q5)
    with pytest.raises(ParseError):
        parse_scalar("1+2w", RATIONAL)   # sqrt part needs a quadratic field
    with pytest.raises(ParseError):
        parse_scalar("1/0", Q5)
    for text in ("7" * 5000, "1/" + "7" * 5000, "1+" + "7" * 5000 + "w",
                 "\u0663", "\u00b2"):
        with pytest.raises(ParseError):
            parse_scalar(text, Q5)


# The scalar parser as three patterns tried in turn, a rational alone, a w
# term alone and a rational followed by a signed w term: the reference for
# parse_scalar's one pattern.
RAT = r"-?\d+(?:/\d+)?"
RAT_ONLY = re.compile(rf"^{RAT}$")
W_ONLY = re.compile(r"^(?P<b>[+-]?(?:\d+(?:/\d+)?)?)w$")
RAT_AND_W = re.compile(rf"^(?P<a>{RAT})(?P<b>[+-](?:\d+(?:/\d+)?)?)w$")


def reference_scalar(text, field):
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ParseError("empty scalar")
    if RAT_ONLY.match(s):
        return QuadExt(_fraction_literal(s), 0, field)
    if not (m := W_ONLY.match(s) or RAT_AND_W.match(s)):
        raise ParseError(f"malformed scalar {_quoted(text)}")
    b = F(-1) if m["b"] == "-" else F(1) if m["b"] in ("", "+") else _fraction_literal(m["b"])
    a = _fraction_literal(m.groupdict().get("a") or "0")
    if field.is_rational:
        if b != 0:
            raise ParseError(f"scalar {_quoted(text)} uses w but the field is rational")
        return QuadExt(a)
    return QuadExt(a, b, field)


def outcome(parse, text, field):
    try:
        value = parse(text, field)
    except ParseError as exc:
        return str(exc)
    return value.a, value.b, value.field


def test_the_scalar_pattern_matches_the_three_patterns():
    """Every string over 0 1 / + - w of length 6 or less, and every one with
    spaces of length 5 or less, in Q and in Q(sqrt 5): the same value in the
    same field, or the same message.  Both parsers cut the spaces before
    matching, so a space changes only the text a message quotes."""
    texts = ["".join(chars) for k in range(7) for chars in product("01/+-w", repeat=k)]
    texts += [text for k in range(6) for text in map("".join, product("01/+-w ", repeat=k))
              if " " in text]
    for field in (RATIONAL, Q5):
        for text in texts:
            expected = outcome(reference_scalar, text, field)
            assert outcome(parse_scalar, text, field) == expected, text


def test_float_conversion():
    t = s5(F(1, 2), F(1, 2))
    assert abs(t.to_float() - 1.618033988749895) < 1e-12
    with pytest.raises(ValueError):
        QuadExt(F(1, 2), F(1, 2), QI).to_float()
