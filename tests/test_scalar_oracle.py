"""QuadExt against a reference model: a pair of Fractions (a, b) for
a + b*sqrt(d), with the textbook formulas.  The library stores a reduced
integer triple instead; every operation must agree with the model."""

import sys
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from arrsym.errors import FieldMixError
from arrsym.fields import RATIONAL, FieldSpec, QuadExt

FIELDS = [RATIONAL, FieldSpec.quadratic(-1), FieldSpec.quadratic(-3)]


class Ref:
    """a + b*sqrt(d) as two Fractions; d = 0 stands for the rationals."""

    def __init__(self, a, b=0, d=0):
        self.a, self.b, self.d = F(a), F(b), d

    @staticmethod
    def of(value, d):
        if isinstance(value, Ref):
            return value
        return Ref(value, 0, d)

    def __add__(self, other):
        o = Ref.of(other, self.d)
        return Ref(self.a + o.a, self.b + o.b, self.d)

    def __sub__(self, other):
        o = Ref.of(other, self.d)
        return Ref(self.a - o.a, self.b - o.b, self.d)

    def __mul__(self, other):
        o = Ref.of(other, self.d)
        return Ref(self.a * o.a + self.d * self.b * o.b,
                   self.a * o.b + self.b * o.a, self.d)

    def inverse(self):
        norm = self.a * self.a - self.d * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError
        return Ref(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        return self * Ref.of(other, self.d).inverse()

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** -n
        result = Ref(1, 0, self.d)
        for _ in range(n):
            result = result * self
        return result

    def conjugate(self):
        return Ref(self.a, -self.b, self.d)


rationals = st.builds(F, st.integers(-10**6, 10**6), st.integers(1, 10**4))
ints = st.integers(-10**6, 10**6)


@st.composite
def scalar(draw, field):
    a = draw(rationals)
    b = draw(rationals) if not field.is_rational else F(0)
    return QuadExt(a, b, field), Ref(a, b, field.d or 0)


def triple(x):
    return x._p, x._q, x._den


def agrees(x, ref, field):
    """x equals the model's value, in the model's field, in lowest terms."""
    p, q, den = triple(x)
    assert den > 0 and gcd(p, q, den) == 1
    assert F(p, den) == x.a == ref.a and F(q, den) == x.b == ref.b
    assert x.field == field


@given(st.sampled_from(FIELDS).flatmap(
    lambda f: st.tuples(st.just(f), scalar(f), scalar(f),
                        st.one_of(ints, rationals))))
def test_ring_operations_match_the_model(args):
    field, (x, rx), (y, ry), r = args
    for value, ref in [(x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
                       (x + r, rx + r), (r + x, rx + r), (x - r, rx - r),
                       (r - x, Ref.of(r, rx.d) - rx), (x * r, rx * r),
                       (r * x, rx * r), (-x, Ref(0, 0, rx.d) - rx),
                       (x.conjugate(), rx.conjugate())]:
        agrees(value, ref, field)
    if not y.is_zero:
        agrees(x / y, rx / ry, field)
        agrees(r / y, Ref.of(r, ry.d) / ry, field)
        agrees(y.inverse(), ry.inverse(), field)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y
    if r != 0:
        agrees(x / r, rx / r, field)
    for n in (-3, -1, 0, 1, 2, 5):
        if n >= 0 or not x.is_zero:
            agrees(x ** n, rx ** n, field)


@given(st.sampled_from(FIELDS).flatmap(
    lambda f: st.tuples(st.just(f), scalar(f), scalar(f))))
def test_equal_values_have_identical_triples(args):
    field, (x, _), (y, _) = args
    assert triple((x + y) - y) == triple(x)
    assert triple(x * y - x * y + x) == triple(x)
    assert hash((x + y) - y) == hash(x)
    if not y.is_zero:
        assert triple((x * y) / y) == triple(x)
        assert (x * y) / y == x
    rebuilt = QuadExt(x.a, x.b, field)
    assert triple(rebuilt) == triple(x) and rebuilt == x and hash(rebuilt) == hash(x)


@given(st.sampled_from(FIELDS).flatmap(
    lambda f: st.tuples(st.just(f), scalar(f), scalar(f))))
def test_equality_matches_the_model(args):
    _, (x, rx), (y, ry) = args
    assert (x == y) == ((rx.a, rx.b) == (ry.a, ry.b))
    assert (x != y) == ((rx.a, rx.b) != (ry.a, ry.b))
    if x == y:
        assert hash(x) == hash(y)
    if rx.b == 0:
        assert x == rx.a and rx.a == x
        assert (x == rx.a.numerator) == (rx.a.denominator == 1)
    else:
        assert x != rx.a


# F(-1, M + 1) hashes to -2: its raw hash -1 is the value the rule maps away
# from.  Denominators divisible by M have no inverse and hash to +-inf.
M = sys.hash_info.modulus
HASH_EDGES = [F(0), F(1), F(-1), F(-2), F(1, 2), F(-1, 2), F(-1, M + 1),
              F(1, M), F(-1, M), F(-3, 2 * M), F(M), F(-M), F(M + 1, M),
              F(-(M - 1)), F(2**100 + 1, 3**50), F(-(2**100 + 1), 3**50)]


@pytest.mark.parametrize("r", HASH_EDGES, ids=str)
def test_rational_hash_edges(r):
    for field in FIELDS:
        x = QuadExt(r, 0, field)
        assert hash(x) == hash(r) and x == r
        assert hash(x * 3 / 3) == hash(r)
    if r.denominator == 1:
        assert hash(QuadExt(r.numerator)) == hash(r.numerator)


@given(st.one_of(rationals, ints.map(F),
                 st.builds(F, st.integers(-2**80, 2**80), st.integers(1, 2**80))))
def test_rational_hash_matches_fraction(r):
    for field in FIELDS:
        assert hash(QuadExt(r, 0, field)) == hash(r)
    assert hash(QuadExt(r) + QuadExt(1, 0, FIELDS[2]) - 1) == hash(r)


@given(scalar(FIELDS[1]), scalar(FIELDS[2]))
def test_two_quadratic_fields_do_not_mix(xs, ys):
    (x, _), (y, _) = xs, ys
    assume(x.b != 0 and y.b != 0)
    for op in (lambda: x + y, lambda: x - y, lambda: x * y, lambda: x / y):
        with pytest.raises(FieldMixError):
            op()
    assert x != y


def test_rational_field_values_coerce_into_quadratic_fields():
    half = QuadExt(F(1, 2))
    w = QuadExt(0, 1, FIELDS[2])
    assert (half + w).field == FIELDS[2] and (w + half).field == FIELDS[2]
    assert (half * w).field == FIELDS[2] and (half / w).field == FIELDS[2]


def test_immutable():
    x = QuadExt(F(1, 2), 3, FIELDS[1])
    for name, value in (("a", 1), ("b", 1), ("field", RATIONAL), ("c", 1)):
        with pytest.raises(AttributeError):
            setattr(x, name, value)
    with pytest.raises(TypeError):
        QuadExt(0.5)
