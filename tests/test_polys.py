from fractions import Fraction as F
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrsym import polys
from arrsym.errors import ParseError, UnsupportedDegreeError
from arrsym.fields import MAX_DIGITS, quad_roots
from arrsym.polys import MAX_DEGREE, Poly, parse_ratfunc, poly_reduce

from conftest import Ref, rmul

T = Poly((0, 1))


def test_poly_basics():
    p = Poly((-1, -1, 1))
    assert p.coeffs == (F(-1), F(-1), F(1))
    assert p.degree == 2
    assert p.eval(F(2)) == 1
    assert str(p) == "t^2 - t - 1"
    assert Poly((0, 0)).is_zero


def test_pseudo_division_exact():
    a, b, c = (-2, 1), (3, 1), (-1, 2)
    q, r, scale = polys._pseudo_divide([int(x) for x in rmul(rmul(a, b), c)], b)
    assert not any(r) and scale == 1 and rmul(q, (1,)) == rmul(a, c)
    # 4(t^2 + 1) = (2t - 1)(2t + 1) + 5
    assert polys._pseudo_divide([1, 0, 1], [1, 2]) == ([-1, 2], [5], 4)


def test_gcd_primitive():
    a = [int(x) for x in rmul((1, 0, 1), (-2, 1))]
    b = [int(x) for x in rmul((1, 0, 1), (5, 1))]
    assert polys._gcd(a, b) == (1, 0, 1)
    assert polys._gcd([2, 2], [-3, -3]) == (1, 1) and polys._gcd([], []) == ()


def test_primitive():
    assert polys._primitive([-3, 0, 3, 0]) == (-1, 0, 1)
    assert polys._primitive([0, -2]) == (0, 1) and polys._primitive([0, 0]) == ()


def test_poly_reduce_strips_powers():
    factors = dict(poly_reduce(Poly((0, 0, -2, 1))))
    assert factors == {T: 2, Poly((-2, 1)): 1}


def test_poly_reduce_irreducible_quadratic():
    p = Poly((-1, -1, 1))
    assert poly_reduce(p) == [(p, 1)]


def test_poly_reduce_unsupported_degree():
    # t^5 + 1 = (t + 1)(t^4 - t^3 + t^2 - t + 1) is square-free: one part of degree 5
    with pytest.raises(UnsupportedDegreeError, match="square-free part of degree 5"):
        poly_reduce(Poly((1, 0, 0, 0, 0, 1)))


# two 16-digit primes: trial division would take ~10^15 steps to split N
N = (10 ** 15 + 37) * (10 ** 15 + 91)


def test_poly_reduce_factors_no_integer():
    # a large prime constant term splits at once: (t - p)(t + 1)
    p = 10 ** 18 + 3
    assert dict(poly_reduce(Poly(rmul((-p, 1), (1, 1))))) == {Poly((-p, 1)): 1, Poly((1, 1)): 1}
    # a square-free part of degree 3 is refused at once, whatever its coefficients
    for coeffs in (rmul((1, 0, 1), (-N, 1)), (720720, 1, 0, 720720)):
        with pytest.raises(UnsupportedDegreeError):
            poly_reduce(Poly(coeffs))


@pytest.mark.parametrize("coeffs", [(-N, 1), (720720, 1, 720720)])
def test_poly_reduce_splits_linears_and_quadratics_without_a_gcd(coeffs, monkeypatch):
    def refuse(*values):
        raise AssertionError("took a square-free part below degree 3")
    monkeypatch.setattr(polys, "_square_free", refuse)
    assert poly_reduce(Poly(coeffs)) == [(Poly(coeffs), 1)]


def _rationals():
    return st.fractions(max_denominator=10 ** 6).filter(lambda x: abs(x) < 10 ** 12)


@settings(max_examples=200, deadline=None)
@given(x=_rationals(), y=_rationals(), content=_rationals().filter(bool))
def test_poly_reduce_splits_a_product_of_two_linears(x, y, content):
    # (q*t - p)(s*t - r) for x = p/q, y = r/s in lowest terms, q, s > 0
    lin = {x: (-x.numerator, x.denominator), y: (-y.numerator, y.denominator)}
    got = poly_reduce(Poly(rmul((content,), rmul(lin[x], lin[y]))))
    assert dict(got) == {Poly(lin[root]): [x, y].count(root) for root in lin}
    assert len(got) == len(lin)


@settings(max_examples=200, deadline=None)
@given(a=st.integers(1, 10 ** 9), b=st.integers(-10 ** 9, 10 ** 9),
       c=st.integers(-10 ** 9, 10 ** 9).filter(bool))
def test_poly_reduce_keeps_a_quadratic_with_no_square_discriminant(a, b, c):
    disc = b * b - 4 * a * c
    assume(disc < 0 or isqrt(disc) ** 2 != disc)
    g = gcd(a, b, c)
    prim = Poly((c // g, b // g, a // g))
    assert poly_reduce(Poly((c, b, a))) == [(prim, 1)]


def test_poly_reduce_refuses_a_square_free_quartic():
    # (t^2 + 1)(t^2 + 2) is square-free: no gcd splits it, and nothing is searched
    with pytest.raises(UnsupportedDegreeError, match="square-free part of degree 4"):
        poly_reduce(Poly(rmul((1, 0, 1), (2, 0, 1))))


def test_poly_reduce_splits_parts_of_each_multiplicity():
    p = rmul(rmul((-1, 1), (-1, 1)), rmul((1, 0, 1), rmul((1, 0, 1), (1, 0, 1))))
    assert dict(poly_reduce(Poly(rmul((0, 0, 3), p)))) == {
        T: 2, Poly((-1, 1)): 2, Poly((1, 0, 1)): 3}


def test_poly_reduce_repeated_quadratic():
    assert poly_reduce(Poly(rmul((1, 0, 1), (1, 0, 1)))) == [(Poly((1, 0, 1)), 2)]


@pytest.mark.parametrize("coeffs", [
    (0, 0, -2, 1),
    rmul(rmul((1, 0, 1), (1, 0, 1)), (-3, 1)),
    rmul((F(1, 2),), rmul((-1, -1, 1), (1, 3, 3, 1))),
    rmul((7,), rmul((1, 1, 1), (1, 1, 1))),
    (0, F(2, 3)),
])
def test_poly_reduce_recomposition(coeffs):
    poly = Poly(coeffs)
    product = (1,)
    for factor, mult in poly_reduce(poly):
        assert factor[factor.degree] > 0
        for _ in range(mult):
            product = rmul(product, factor.coeffs)
    content = poly[poly.degree] / product[-1]
    assert Poly(rmul((content,), product)) == poly


def test_ratfunc_normal_form():
    assert parse_ratfunc("(t^2 - 1)/(2t - 2)") == (Poly((F(1, 2), F(1, 2))), Poly((1,)))
    num, den = parse_ratfunc("t/(3t^2)")
    assert den[den.degree] == 1      # den monic
    assert polys._gcd(num._c, den._c) == (1,)


def value(f, x):
    """A rational function's value: its numerator's over its denominator's."""
    num, den = f
    return Ref.of(num.eval(x)) / den.eval(x)


def test_ratfunc_eval_identity():
    assert value(parse_ratfunc("t"), F(7, 2)) == F(7, 2)


def test_ratfunc_eval_golden_identity():
    # (1 + t)/t fixes the golden ratio because t^2 = t + 1 there
    _, plus, _ = quad_roots(1, -1, -1)
    assert value(parse_ratfunc("(1 + t)/t"), plus) == plus


def test_ratfunc_field_ops():
    f, g, x = "(t - 1)/(t + 2)", "1/t", F(3)
    fx, gx = value(parse_ratfunc(f), x), value(parse_ratfunc(g), x)
    assert value(parse_ratfunc(f"{f} + {g}"), x) == fx + gx
    assert value(parse_ratfunc(f"({f}) * {g}"), x) == fx * gx
    assert parse_ratfunc(f"({f}) / ({f})") == (Poly((1,)), Poly((1,)))


@pytest.mark.parametrize("text,at,expected", [
    ("(t-1)/(t+2)", F(3), F(2, 5)),
    ("-1/t", F(2), F(-1, 2)),
    ("1", F(9), F(1)),
    ("t^2-1", F(3), F(8)),
    ("2*t^2", F(3), F(18)),
    ("t^-1", F(4), F(1, 4)),
    ("-(t+1)/t", F(1), F(-2)),
    ("1/(2*t)", F(3), F(1, 6)),
    ("t^64", F(2), F(2 ** 64)),
    ("(t+1)^-2", F(1), F(1, 4)),
])
def test_parse_ratfunc(text, at, expected):
    assert value(parse_ratfunc(text), at) == expected


def test_parse_ratfunc_errors():
    with pytest.raises(ParseError):
        parse_ratfunc("")
    with pytest.raises(ParseError):
        parse_ratfunc("x+1", var="t")
    with pytest.raises(ParseError):
        parse_ratfunc("t+", var="t")
    with pytest.raises(ParseError):
        parse_ratfunc("t^t", var="t")
    with pytest.raises(ParseError):
        parse_ratfunc("1/0")
    with pytest.raises(ParseError):
        parse_ratfunc("t/(t-t)")
    for text in ("7" * 5000, "t^" + "7" * 5000, "t^65", "(t^2)^2",
                 "((t+1)^64*t)^64", "\u0663*t"):
        with pytest.raises(ParseError):
            parse_ratfunc(text)


def test_parse_ratfunc_bounds_degree_before_computing(monkeypatch):
    for text in ("t^64/t", "t^60 + t^10", "(t^32)*(t^32)", "1/t^32 - 1/t^32"):
        num, den = parse_ratfunc(text)
        assert max(num.degree, den.degree) <= MAX_DEGREE
    convolve = polys._convolve

    def bounded(a, b):
        if len(a) + len(b) - 2 > MAX_DEGREE:
            raise AssertionError("the bound was checked after computing")
        return convolve(a, b)

    monkeypatch.setattr(polys, "_convolve", bounded)
    # 40 factors of degree 64: degree 2,560 if it were multiplied out
    for text in ["*".join(["(t+1)^64"] * 40), "t^64*t", "t^33*t^32", "t^-64/t",
                 "t^-40 + t^-30*t^-30", "t^-40 - t^-30", "(t*t-1)^33", "(1/(t*t+1))^-33"]:
        with pytest.raises(ParseError, match="degree above 64"):
            parse_ratfunc(text)


@pytest.mark.parametrize("factors", [10, 20, 40])
def test_parse_ratfunc_bounds_coefficient_size_before_computing(factors):
    # the degree stays 0: 40 factors took 3-4 s and built a coefficient of
    # 5.4 million bits; one 640-digit literal to the 64th is in the bound
    big = "(" + "9" * MAX_DIGITS + ")^64"
    assert parse_ratfunc(big) == ((10 ** MAX_DIGITS - 1) ** 64, 1)
    with pytest.raises(ParseError, match=r"^coefficients above 136128 bits in '\(999"):
        parse_ratfunc("*".join([big] * factors))
