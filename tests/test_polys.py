import time
from fractions import Fraction as F

import pytest

from arrsym import polys
from arrsym.errors import ParseError, UnsupportedDegreeError, ValidationError
from arrsym.fields import MAX_DIGITS, QuadExt, quad_roots
from arrsym.polys import MAX_DEGREE, Poly, RatFunc, parse_ratfunc, poly_reduce

T = Poly.variable()


def test_poly_basics():
    p = T ** 2 - T - 1
    assert p.coeffs == (F(-1), F(-1), F(1))
    assert p.degree == 2
    assert p.eval(F(2)) == 1
    assert str(p) == "t^2 - t - 1"
    assert Poly((0, 0)).is_zero


def test_poly_division_exact():
    p = (T - 2) * (T + 3) * (2 * T - 1)
    q, r = divmod(p, T + 3)
    assert r.is_zero and q == (T - 2) * (2 * T - 1)


def test_gcd_monic():
    a = (T ** 2 + 1) * (T - 2)
    b = (T ** 2 + 1) * (T + 5)
    assert a.gcd(b) == T ** 2 + 1
    assert (2 * T + 2).gcd(3 * T + 3) == T + 1


def test_primitive():
    content, prim = (F(3, 2) * (T ** 2) - F(3, 2)).primitive()
    assert content == F(3, 2) and prim == T ** 2 - 1
    content, prim = (-2 * T).primitive()
    assert content == -2 and prim == T


def test_poly_reduce_strips_powers():
    factors = dict(poly_reduce(T ** 3 - 2 * T ** 2))
    assert factors == {T: 2, T - 2: 1}


def test_poly_reduce_irreducible_quadratic():
    p = T ** 2 - T - 1
    assert poly_reduce(p) == [(p, 1)]


def test_poly_reduce_unsupported_degree():
    # t^5 + 1 = (t + 1)(t^4 - t^3 + t^2 - t + 1); the quartic is irreducible
    with pytest.raises(UnsupportedDegreeError):
        poly_reduce(T ** 5 + 1)


def test_poly_reduce_bounds_its_divisor_search():
    # a large prime constant term factors at once: (t - p)(t + 1)
    p = 10 ** 18 + 3
    assert dict(poly_reduce((T - p) * (T + 1))) == {T - p: 1, T + 1: 1}
    # two 16-digit prime factors: trial division would take ~10^15 steps
    with pytest.raises(ValidationError):
        poly_reduce(T - (10 ** 15 + 37) * (10 ** 15 + 91))
    # 720720 has 240 divisors: 240 * 240 candidate pairs are too many
    with pytest.raises(ValidationError):
        poly_reduce(720720 * T ** 2 + T + 720720)


def test_poly_reduce_quartic_splits_into_quadratics():
    p = (T ** 2 + 1) * (T ** 2 + 2)
    assert dict(poly_reduce(p)) == {T ** 2 + 1: 1, T ** 2 + 2: 1}


def test_poly_reduce_repeated_quadratic():
    assert poly_reduce((T ** 2 + 1) ** 2) == [(T ** 2 + 1, 2)]


@pytest.mark.parametrize("poly", [
    T ** 3 - 2 * T ** 2,
    (T ** 2 + 1) * (T ** 2 + 2) * (T - 3),
    F(1, 2) * (T ** 2 - T - 1) * (T + 1) ** 3,
    7 * (T ** 2 + T + 1) ** 2,
    Poly((0, F(2, 3))),
])
def test_poly_reduce_recomposition(poly):
    factors = poly_reduce(poly)
    product = Poly((1,))
    for factor, mult in factors:
        assert factor[factor.degree] > 0
        product = product * factor ** mult
    content = poly[poly.degree] / product[product.degree]
    assert Poly((content,)) * product == poly


def test_ratfunc_normal_form():
    f = RatFunc((T ** 2 - 1), (2 * T - 2))
    assert f.num == F(1, 2) * (T + 1) and f.den == Poly((1,))
    g = RatFunc(T, 3 * T ** 2)
    assert g.den[g.den.degree] == 1      # den monic
    assert g.num.gcd(g.den).degree == 0


def value(f, x):
    """A rational function's value: its numerator's over its denominator's."""
    return f.num.eval(x) / f.den.eval(x)


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
    assert parse_ratfunc(f"({f}) / ({f})") == RatFunc(1)


@pytest.mark.parametrize("left", [1.5, "a"], ids=repr)
@pytest.mark.parametrize("right", [Poly((1,)), QuadExt(2)], ids=["Poly", "QuadExt"])
def test_an_unknown_left_operand_is_refused_by_minus(left, right):
    # refused before y is negated, so the message names -, not +
    with pytest.raises(TypeError, match="unsupported operand type\\(s\\) for -:"):
        left - right


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
        f = parse_ratfunc(text)
        assert max(f.num.degree, f.den.degree) <= MAX_DEGREE
    # 40 factors of degree 64: degree 2,560 if it were multiplied out
    start = time.perf_counter()
    with pytest.raises(ParseError, match="degree above 64"):
        parse_ratfunc("*".join(["(t+1)^64"] * 40))
    assert time.perf_counter() - start < 1

    convolve = polys._convolve

    def bounded(a, b):
        if len(a) + len(b) - 2 > MAX_DEGREE:
            raise AssertionError("the bound was checked after computing")
        return convolve(a, b)

    monkeypatch.setattr(polys, "_convolve", bounded)
    for text in ["t^64*t", "t^33*t^32", "t^-64/t", "t^-40 + t^-30*t^-30", "t^-40 - t^-30",
                 "(t*t-1)^33", "(1/(t*t+1))^-33"]:
        with pytest.raises(ParseError, match="degree above 64"):
            parse_ratfunc(text)


@pytest.mark.parametrize("factors", [10, 20, 40])
def test_parse_ratfunc_bounds_coefficient_size_before_computing(factors):
    # the degree stays 0: 40 factors took 3-4 s and built a coefficient of
    # 5.4 million bits; one 640-digit literal to the 64th is in the bound
    big = "(" + "9" * MAX_DIGITS + ")^64"
    assert parse_ratfunc(big) == (10 ** MAX_DIGITS - 1) ** 64
    with pytest.raises(ParseError, match=r"^coefficients above 136128 bits in '\(999"):
        parse_ratfunc("*".join([big] * factors))
