"""QuadExt against a reference model: conftest.Ref, a pair of Fractions
(a, b) for a + b*sqrt(d), with the textbook formulas.  The library stores a
reduced integer triple instead; every operation must agree with the model.

These are the operators' own tests: no other test calls a QuadExt
operator, and the last test of the session checks that (conftest.py)."""

import sys
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from arrsym.errors import FieldMixError
from arrsym.fields import RATIONAL, FieldSpec, QuadExt

from conftest import ARITHMETIC_CALLS, Ref

FIELDS = [RATIONAL] + [FieldSpec.quadratic(d) for d in (-1, -3, 5, 2, -2, 7)]


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
    for value, ref in [(x + y, rx + ry), (x * y, rx * ry),
                       (x + r, rx + r), (r + x, rx + r), (x * r, rx * r),
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
    assert triple((x + y) + -y) == triple(x)
    assert triple(x * y + -(x * y) + x) == triple(x)
    assert hash((x + y) + -y) == hash(x)
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
    assert hash(QuadExt(r) + QuadExt(1, 0, FIELDS[2]) + -1) == hash(r)


@given(scalar(FIELDS[1]), scalar(FIELDS[2]))
def test_two_quadratic_fields_do_not_mix(xs, ys):
    (x, _), (y, _) = xs, ys
    assume(x.b != 0 and y.b != 0)
    for op in (lambda: x + y, lambda: x * y, lambda: x / y):
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


Q5 = FieldSpec.quadratic(5)


def s5(a, b):
    return QuadExt(F(a), F(b), Q5)


def test_arithmetic_inverse():
    x = s5(3, 2)
    assert x * x.inverse() == 1
    assert (x / x) == 1
    with pytest.raises(ZeroDivisionError):
        QuadExt(0, 0, Q5).inverse()


def test_powers():
    t = s5(F(1, 2), F(1, 2))
    assert t ** 2 == t + 1          # golden ratio satisfies t^2 = t + 1
    assert t ** -1 == t + -1
    assert t ** 0 == 1


def test_field_mixing_is_an_error():
    with pytest.raises(FieldMixError):
        s5(1, 1) + QuadExt(1, 1, FIELDS[1])
    # rationals coerce into any field
    assert s5(1, 1) + QuadExt(F(2)) == s5(3, 1)


# -- the method counter sees every method ---------------------------------------

def test_the_method_counter_sees_every_method(method_calls):
    x = QuadExt(1, 1, FieldSpec.quadratic(2))
    assert method_calls == []
    assert x == x.conjugate().conjugate() and hash(x) and x * 2 / x == 2
    assert {"conjugate", "__eq__", "__hash__", "__mul__", "__truediv__"} <= set(method_calls)
    method_calls.clear()
    assert (x.a, x.b, x.field, x.is_zero) == (1, 1, x._field, False)
    assert method_calls == ["a", "b", "field", "is_zero"]


def test_no_other_test_computes_with_quadext():
    """Runs last (conftest.pytest_collection_modifyitems): every line outside
    this file that has called a QuadExt operator so far, and from where."""
    assert not ARITHMETIC_CALLS, "QuadExt arithmetic outside the operators' tests:\n" + "\n".join(
        f"{site} calls {', '.join(sorted(names))} in {min(tests)}"
        + (f" and {len(tests) - 1} more" if len(tests) > 1 else "")
        for site, (names, tests) in sorted(ARITHMETIC_CALLS.items()))
