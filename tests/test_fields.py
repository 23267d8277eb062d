from fractions import Fraction as F

import pytest

from arrsym.errors import DegenerateError, FieldMixError, ParseError, ValidationError
from arrsym.fields import (RATIONAL, FieldSpec, QuadExt, factor_integer,
                           format_scalar, parse_scalar, quad_roots,
                           square_free_part)

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


def test_factor_integer_matches_trial_division():
    def trial(n):
        out, p = {}, 2
        while p * p <= n:
            while n % p == 0:
                out[p] = out.get(p, 0) + 1
                n //= p
            p += 1
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out

    for n in list(range(1, 3000)) + [1009 ** 2, 1009 * 1013, 99991 * 100003 ** 2]:
        assert factor_integer(n) == trial(n), n
    assert factor_integer(12 * 10007 ** 3 * (2 ** 61 - 1)) == {
        2: 2, 3: 1, 10007: 3, 2 ** 61 - 1: 1}


P15, Q15 = 10 ** 15 + 37, 10 ** 15 + 91      # primes


def test_square_free_part_beyond_trial_division():
    # trial division would need ~10^9 steps on each of these
    assert square_free_part(10 ** 18 + 3) == (1, 10 ** 18 + 3)          # prime
    assert square_free_part(-(10 ** 18 + 3)) == (1, -(10 ** 18 + 3))
    p, q = 10 ** 9 + 7, 10 ** 9 + 9
    assert square_free_part(-48 * p * p * q) == (4 * p, -3 * q)
    assert square_free_part(12 * P15 ** 2) == (2 * P15, 3)             # square cofactor
    assert square_free_part(10 ** 24 + 7) == (1, 10 ** 24 + 7)          # prime, proven


def test_square_free_part_of_perfect_powers():
    # a cube of a 13-digit prime is beyond Pollard-Brent's budget; the
    # k-th-root test finds its root before rho is tried
    p = 10 ** 12 + 39
    assert square_free_part(p ** 3) == (p, p)
    assert factor_integer(p ** 3) == {p: 3}
    assert factor_integer(12 * P15 ** 7) == {2: 2, 3: 1, P15: 7}
    assert factor_integer((2 ** 61 - 1) ** 6) == {2 ** 61 - 1: 6}     # root of a root
    assert square_free_part(-(p ** 5)) == (p * p, -p)


@pytest.mark.parametrize("n", [
    pytest.param(P15 * Q15, id="two-16-digit-primes"),      # beyond rho's budget
    pytest.param(int("9" * 640), id="640-nines"),
    pytest.param(-int("7" * 640), id="640-sevens-negative"),
    pytest.param(2 ** 89 - 1, id="prime-above-proven-range"),
])
def test_square_free_part_refuses_what_it_cannot_factor(n):
    with pytest.raises(ValidationError):
        square_free_part(n)
    with pytest.raises(ValidationError):
        FieldSpec.quadratic(n)


def test_field_spec_validation():
    with pytest.raises(ValidationError):
        FieldSpec.quadratic(12)       # not square-free
    with pytest.raises(ValidationError):
        FieldSpec.quadratic(0)
    with pytest.raises(ValidationError):
        FieldSpec.quadratic(1)
    assert FieldSpec.quadratic(-3).d == -3


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
    assert plus + minus == QuadExt(F(5, 2) / F(3, 7), 0, field)
    assert plus * minus == QuadExt(F(11, 3) / F(3, 7), 0, field)


def test_galois_conjugate_examples():
    x = s5(F(1, 2), F(1, 2))
    assert x.conjugate() == s5(F(1, 2), F(-1, 2))
    assert QuadExt(F(3, 4)).conjugate() == QuadExt(F(3, 4))
    assert x * x.conjugate() == -1
    assert x.conjugate().conjugate() == x


def test_arithmetic_inverse():
    x = s5(3, 2)
    assert x * x.inverse() == 1
    assert (x / x) == 1
    with pytest.raises(ZeroDivisionError):
        QuadExt(0, 0, Q5).inverse()


def test_powers():
    t = s5(F(1, 2), F(1, 2))
    assert t ** 2 == t + 1          # golden ratio satisfies t^2 = t + 1
    assert t ** -1 == t - 1
    assert t ** 0 == 1


def test_field_mixing_is_an_error():
    with pytest.raises(FieldMixError):
        s5(1, 1) + QuadExt(1, 1, QI)
    # rationals coerce into any field
    assert s5(1, 1) + QuadExt(F(2)) == s5(3, 1)


def test_rational_field_forbids_sqrt_part():
    with pytest.raises(FieldMixError):
        QuadExt(1, 1, RATIONAL)


@pytest.mark.parametrize("text", ["3", "-3/4", "1/2+1/2w", "1-2w", "-1/2w",
                                  "w", "-w", "2w", "0", "5/3-1/7w"])
def test_scalar_round_trip(text):
    value = parse_scalar(text, Q5)
    assert parse_scalar(format_scalar(value), Q5) == value


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


def test_float_conversion():
    t = s5(F(1, 2), F(1, 2))
    assert abs(t.to_float() - 1.618033988749895) < 1e-12
    i_half = QuadExt(F(1, 2), F(1, 2), QI)
    assert i_half.to_complex() == pytest.approx(0.5 + 0.5j)
    with pytest.raises(ValueError):
        i_half.to_float()
