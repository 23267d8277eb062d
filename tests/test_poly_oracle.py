"""Poly and RatFunc against a reference model: a polynomial is a tuple of
Fractions in ascending degree with no trailing zeros, and every operation is
the schoolbook one over Q (long division, Euclid's gcd made monic).  The
library stores a reduced integer tuple with one common denominator, divides
by pseudo-division and takes gcds by a primitive pseudo-remainder sequence;
every operation must agree with the model."""

from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from arrsym.fields import QuadExt
from arrsym.polys import Poly, RatFunc

from test_scalar_oracle import FIELDS, agrees, scalar


def norm(cs):
    cs = [F(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def radd(a, b):
    n = max(len(a), len(b))
    return norm((a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0)
                for k in range(n))


def rneg(a):
    return tuple(-c for c in a)


def rmul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return norm(out)


def rdivmod(a, b):
    rem, quo = list(a), [F(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        f = rem[k + len(b) - 1] / b[-1]
        quo[k] = f
        for j, y in enumerate(b):
            rem[k + j] -= f * y
    return norm(quo), norm(rem)


def rmonic(a):
    return tuple(c / a[-1] for c in a) if a else a


def rgcd(a, b):
    while b:
        a, b = b, rdivmod(a, b)[1]
    return rmonic(a)


def rprimitive(a):
    den = lcm(*(c.denominator for c in a))
    content = F(gcd(*(int(c * den) for c in a)), den) * (1 if a[-1] > 0 else -1)
    return content, tuple(c / content for c in a)


def reval(a, x):
    acc = x * 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def rcanonical(num, den):
    """num/den with the common factor divided out and den monic."""
    if not num:
        return (), (F(1),)
    g = rgcd(num, den)
    num, den = rdivmod(num, g)[0], rdivmod(den, g)[0]
    return tuple(c / den[-1] for c in num), rmonic(den)


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


@given(poly(), poly(), st.one_of(small_rationals, st.integers(-9, 9)))
def test_ring_operations_match_the_model(ps, qs, r):
    (p, rp), (q, rq) = ps, qs
    rr = norm((r,))
    for value, ref in [(p + q, radd(rp, rq)), (p - q, radd(rp, rneg(rq))),
                       (p * q, rmul(rp, rq)), (-p, rneg(rp)),
                       (p + r, radd(rp, rr)), (r + p, radd(rp, rr)),
                       (p - r, radd(rp, rneg(rr))), (r - p, radd(rr, rneg(rp))),
                       (p * r, rmul(rp, rr)), (r * p, rmul(rp, rr))]:
        agrees_poly(value, ref)
    power = (F(1),)
    for n in range(4):
        agrees_poly(p ** n, power)
        power = rmul(power, rp)


@given(poly(), poly(nonzero=True))
def test_division_matches_the_model(ps, qs):
    (p, rp), (q, rq) = ps, qs
    quo, rem = divmod(p, q)
    rquo, rrem = rdivmod(rp, rq)
    agrees_poly(quo, rquo)
    agrees_poly(rem, rrem)
    agrees_poly(p // q, rquo)
    agrees_poly(p % q, rrem)
    assert q.divides(p * q) and q.divides(p) == (not rrem)
    with pytest.raises(ZeroDivisionError):
        divmod(p, Poly())


@given(poly(), poly(), poly(nonzero=True))
def test_normal_forms_and_gcd_match_the_model(ps, qs, ss):
    (p, rp), (q, rq), (s, rs) = ps, qs, ss
    agrees_poly(p.monic(), rmonic(rp))
    agrees_poly(p.gcd(q), rgcd(rp, rq))
    # a shared factor survives the pseudo-remainder sequence
    agrees_poly((p * s).gcd(q * s), rgcd(rmul(rp, rs), rmul(rq, rs)))
    if rp:
        content, prim = p.primitive()
        rcontent, rprim = rprimitive(rp)
        assert content == rcontent
        agrees_poly(prim, rprim)
        assert all(c.denominator == 1 for c in prim.coeffs) and prim[prim.degree] > 0
    else:
        assert p.primitive() == (0, p)


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
    assert f.den[f.den.degree] == 1 and f.num.gcd(f.den).degree <= 0


@given(ratfunc(), ratfunc(), st.one_of(small_rationals, st.integers(-9, 9)))
def test_ratfunc_operations_match_the_model(fs, gs, r):
    (f, (a, b)), (g, (c, d)) = fs, gs
    agrees_ratfunc(f, (a, b))
    for value, ref in [(f + g, (radd(rmul(a, d), rmul(c, b)), rmul(b, d))),
                       (f - g, (radd(rmul(a, d), rneg(rmul(c, b))), rmul(b, d))),
                       (f * g, (rmul(a, c), rmul(b, d))), (-f, (rneg(a), b)),
                       (f + r, (radd(a, rmul(b, norm((r,)))), b)),
                       (r * f, (rmul(a, norm((r,))), b))]:
        agrees_ratfunc(value, rcanonical(*ref))
    if c:
        agrees_ratfunc(f / g, rcanonical(rmul(a, d), rmul(b, c)))
        agrees_ratfunc(g ** -2, rcanonical(rmul(d, d), rmul(c, c)))
    else:
        with pytest.raises(ZeroDivisionError):
            f / g
    agrees_ratfunc(f ** 2, rcanonical(rmul(a, a), rmul(b, b)))


@given(ratfunc(), st.sampled_from(FIELDS).flatmap(
    lambda f: st.tuples(st.just(f), scalar(f))))
def test_ratfunc_eval_matches_the_model(fs, args):
    (f, (a, b)), (field, (x, rx)) = fs, args
    den = reval(b, rx)
    if den.a == den.b == 0:
        assert f.den.eval(x).is_zero
    else:
        agrees(f.num.eval(x) / f.den.eval(x), reval(a, rx) / den, field)


@given(poly(), poly(nonzero=True), ratfunc())
def test_equal_values_have_equal_hashes(ps, qs, fs):
    (p, rp), (q, _), (f, _) = ps, qs, fs
    rebuilt = (p * q) // q
    assert rebuilt == p and hash(rebuilt) == hash(p)
    assert Poly(rp) == p and hash(Poly(rp)) == hash(p)
    assert RatFunc(p) == p and hash(RatFunc(p)) == hash(p)
    g = (f * RatFunc(q)) / RatFunc(q)
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
