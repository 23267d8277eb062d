import functools
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from pathlib import Path

import pytest
from hypothesis import assume
from hypothesis import strategies as st

import arrsym
from arrsym import corpus
from arrsym.combinatorics import ConfigTable, Permutation
from arrsym.errors import DegenerateError
from arrsym.fields import RATIONAL, FieldSpec, QuadExt
from arrsym.geometry import Arrangement, ProjPoint
from arrsym.moduli import derive_constraint, realize_components
from arrsym.polys import Poly, parse_ratfunc


@pytest.fixture(scope="session")
def realized():
    """Per-case (case, constraint, plus, minus), derived once per session."""
    cache = {}

    def get(name):
        if name not in cache:
            case = corpus.get_case(name)
            constraint = derive_constraint(case.plan, case.config)
            plus, minus = realize_components(case.plan, constraint)
            cache[name] = (case, constraint, plus, minus)
        return cache[name]

    return get


# -- permutations, from their images ------------------------------------------
# Permutation keeps no arithmetic, so the tests compose and invert on the
# image tuples themselves.

def compose(p, q):
    """p after q: the permutation taking i to p(q(i))."""
    return Permutation([p.images[v - 1] for v in q.images])


def inverse(p):
    """The permutation taking p(i) back to i."""
    images = [0] * len(p.images)
    for i, v in enumerate(p.images, 1):
        images[v - 1] = i
    return Permutation(images)


# -- QuadExt arithmetic: only its own tests compute with it ---------------------
# Every computation in src/ runs on integer keys and every reference in the
# tests on Ref, so a QuadExt operator is called only by the operators' own
# tests, in test_scalar_oracle.py.  The operators stay wrapped for the whole
# session: a call from any other test, from its fixtures or at collection is
# recorded with the test and the first calling line outside the package, and
# test_scalar_oracle.py::test_no_other_test_computes_with_quadext, which
# runs last, fails naming them.

OPERATORS = ("__add__", "__radd__", "__mul__", "__rmul__", "__truediv__",
             "__rtruediv__", "__neg__", "__pow__", "inverse")
OPERATOR_TESTS = "test_scalar_oracle.py"
GUARD = "test_no_other_test_computes_with_quadext"
ARITHMETIC_CALLS = {}           # calling line -> (operators, tests or "collection")
_running = [None]               # the test being set up, run or torn down
_PACKAGE = str(Path(arrsym.__file__).parent)


def _watched(name, operator):
    def watched(*args):
        test = _running[0]
        if test is None or test.path.name != OPERATOR_TESTS:
            frame = sys._getframe(1)
            while frame.f_back and (frame.f_code is watched.__code__
                                    or frame.f_code.co_filename.startswith(_PACKAGE)):
                frame = frame.f_back
            code = frame.f_code
            site = f"{Path(code.co_filename).name}:{frame.f_lineno} ({code.co_name})"
            names, tests = ARITHMETIC_CALLS.setdefault(site, (set(), set()))
            names.add(name)
            tests.add(test.nodeid if test else "collection")
        return operator(*args)
    return watched


for _name in OPERATORS:
    setattr(QuadExt, _name, _watched(_name, getattr(QuadExt, _name)))


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item):
    _running[0] = item
    yield
    _running[0] = None


def pytest_collection_modifyitems(items):
    items.sort(key=lambda item: item.name == GUARD)     # stable: the guard goes last


@pytest.fixture
def method_calls(monkeypatch):
    """A list that grows by the name of every QuadExt method called and
    every QuadExt property read from now on; only construction
    (``__new__``) is not counted."""
    calls = []
    for name, member in list(vars(QuadExt).items()):
        if isinstance(member, property):
            def reading(self, _name=name, _original=member.fget):
                calls.append(_name)
                return _original(self)

            monkeypatch.setattr(QuadExt, name, property(reading))
        elif callable(member) and name != "__new__":
            def counting(*args, _name=name, _original=member):
                calls.append(_name)
                return _original(*args)

            monkeypatch.setattr(QuadExt, name, counting)
    return calls


# -- the scalar model -------------------------------------------------------------

class Ref:
    """a + b*sqrt(d) as two Fractions; d = 0 stands for the rationals.

    The tests' model of QuadExt arithmetic, with the textbook formulas.  An
    operand may be a Ref, a QuadExt, an int or a Fraction, and the result
    lies in the field of whichever operand is irrational, as a QuadExt's
    does; equality follows QuadExt's.  References compute on it and build a
    QuadExt only to compare or to hand to the package."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b=0, d=0):
        self.a, self.b, self.d = Fraction(a), Fraction(b), d

    @staticmethod
    def of(value, d=0):
        if isinstance(value, Ref):
            return value
        if isinstance(value, QuadExt):
            return Ref(value.a, value.b, value.field.d or 0)
        return Ref(value, 0, d)

    def quad(self, field=None):
        """The value as a QuadExt of ``field``, by default of the field of d."""
        return QuadExt(self.a, self.b, field or (FieldSpec(self.d) if self.d else RATIONAL))

    @property
    def is_zero(self):
        return not self.a and not self.b

    def __add__(self, other):
        o = Ref.of(other, self.d)
        return Ref(self.a + o.a, self.b + o.b, self.d or o.d)

    __radd__ = __add__

    def __neg__(self):
        return Ref(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + -Ref.of(other, self.d)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        o = Ref.of(other, self.d)
        d = self.d or o.d
        return Ref(self.a * o.a + d * self.b * o.b, self.a * o.b + self.b * o.a, d)

    __rmul__ = __mul__

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

    def __eq__(self, other):
        if not isinstance(other, (Ref, QuadExt, int, Fraction)):
            return NotImplemented
        o = Ref.of(other)
        return self.a == o.a and self.b == o.b and (not self.b or self.d == o.d)

    __hash__ = None


def quads(values, field=None):
    """Each value (a Ref, QuadExt, int or Fraction) as a QuadExt of ``field``."""
    return tuple(Ref.of(v).quad(field) for v in values)


def cross(u, v):
    """Cross product of coefficient or coordinate triples, on the Ref model:
    the meet and join of the references, as Refs."""
    u, v = [Ref.of(c) for c in u], [Ref.of(c) for c in v]
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


# -- the rational-function model ------------------------------------------------
# A polynomial is a tuple of Fractions in ascending degree with no trailing
# zeros, and every operation is the schoolbook one over Q (long division,
# Euclid's gcd made monic).  A rational function is a (num, den) pair of them
# in the form rcanonical gives, which qadd and qmul keep after every step.

def norm(cs):
    cs = [Fraction(c) for c in cs]
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
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return norm(out)


def rdivmod(a, b):
    rem, quo = list(a), [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for k in range(len(a) - len(b), -1, -1):
        f = rem[k + len(b) - 1] / b[-1]
        quo[k] = f
        for j, y in enumerate(b):
            rem[k + j] -= f * y
    return norm(quo), norm(rem)


def rmonic(a):
    return tuple(c / a[-1] for c in a) if a else a


def rgcd(a, b):
    while b:                    # monic remainders keep the Fractions small
        a, b = b, rmonic(rdivmod(a, b)[1])
    return rmonic(a)


def rderiv(a):
    return norm([k * c for k, c in enumerate(a)][1:])


def rsquare_free(a):
    """{monic part: i} for the square-free parts of a nonzero polynomial, not
    by Yun's steps: the roots of multiplicity i or more are those of
    G_i = gcd(a, a', ..., a^(i-1)), so the part of multiplicity exactly i is
    rad(G_i)/rad(G_(i+1)), where rad(g) = g/gcd(g, g')."""
    def rad(g):
        return rdivmod(g, rgcd(g, rderiv(g)))[0]

    gs, d = [rmonic(a)], a
    while len(gs[-1]) > 1:
        d = rderiv(d)
        gs.append(rgcd(gs[-1], d))
    parts = (rmonic(rdivmod(rad(g), rad(h))[0]) for g, h in zip(gs, gs[1:]))
    return {part: i for i, part in enumerate(parts, 1) if len(part) > 1}


def rprimitive(a):
    """(content, primitive part) of a nonzero polynomial: the part has
    coprime integer coefficients and a positive leading one."""
    den = lcm(*(c.denominator for c in a))
    content = Fraction(gcd(*(int(c * den) for c in a)), den) * (1 if a[-1] > 0 else -1)
    return content, tuple(c / content for c in a)


def rcanonical(num, den):
    """num/den with the common factor divided out and den monic."""
    if not num:
        return (), (Fraction(1),)
    g = rgcd(num, den)
    num, den = rdivmod(num, g)[0], rdivmod(den, g)[0]
    return tuple(c / den[-1] for c in num), rmonic(den)


# Fraction arithmetic is slow, and a plan's meets and joins repeat their
# products: qadd and qmul keep their recent results.
@functools.lru_cache(maxsize=1 << 16)
def qadd(f, g):
    """The sum of two model rational functions, reduced."""
    return rcanonical(radd(rmul(f[0], g[1]), rmul(g[0], f[1])), rmul(f[1], g[1]))


def qneg(f):
    return rneg(f[0]), f[1]


@functools.lru_cache(maxsize=1 << 16)
def qmul(f, g):
    """The product of two model rational functions, reduced."""
    return rcanonical(rmul(f[0], g[0]), rmul(f[1], g[1]))


def meet(l1, l2):
    """The common point of two distinct lines as the cross product of their
    normal forms, normalized in the field of either line that is irrational:
    the reference for the key meet ``geometry.intersect``."""
    if l1 == l2:
        raise DegenerateError("intersect of identical lines")
    field = l1.field if not l1.field.is_rational else l2.field
    return ProjPoint(quads(cross(l1.coords, l2.coords), field), field)


def incidence(line, point):
    """The sum of the products of a line's and a point's coordinates, as a Ref."""
    a, b, c = map(Ref.of, line.coords)
    x, y, z = point.coords
    return a * x + b * y + c * z


def contains(line, point):
    return incidence(line, point).is_zero


def apply_line(kind, line):
    """kind (a MapKind) on a line's QuadExt normal form: swap exchanges the
    first two coordinates, conjugate conjugates all three.  The reference
    for the key map ``MapKind._image``."""
    a, b, c = line.coords
    if kind.swap:
        a, b = b, a
    if kind.conjugate:
        a, b, c = a.conjugate(), b.conjugate(), c.conjugate()
    return (a, b, c)


def apply_map(arrangement, kind):
    """kind (a MapKind) applied to every line; labels kept, lines renormalized."""
    return Arrangement(arrangement.name, arrangement.field,
                       [apply_line(kind, line) for line in arrangement.lines])


def relabel(arrangement, sigma):
    """Line i moved to position sigma(i)."""
    slots = [None] * arrangement.n
    for i in range(1, arrangement.n + 1):
        slots[sigma(i) - 1] = arrangement.line(i)
    return Arrangement(arrangement.name, arrangement.field, slots)


def grid_candidates(sigma):
    """Ordered pairs (i, j), i != j, with sigma(i) not in {i, j} and
    sigma(j) != j: the pairs eligible to be pinned to x=0 and x=z, listed
    one by one (the reference for witness._grid_count)."""
    n = sigma.degree
    return [(i, j) for i in range(1, n + 1) if sigma(i) != i
            for j in range(1, n + 1)
            if j != i and sigma(j) != j and sigma(i) != j]


POSITIVE_CASES = ["{1}", "{6}", "{7}", "maclane", "nazir-yoshinaga",
                  "11.B.3.b.2.iii", "11.B.3.b.2.iv", "11.B.2.iv"]
ALL_CASES = POSITIVE_CASES + ["falk-sturmfels"]


HALF = Fraction(1, 2)
# m -> (field, ζ^k for k = 0..m-1 as (a, b) in a + b*sqrt(d), for a
# primitive m-th root of unity ζ)
ROOTS_OF_UNITY = {2: (RATIONAL, [(1, 0), (-1, 0)]),
                  3: (FieldSpec.quadratic(-3), [(1, 0), (-HALF, HALF), (-HALF, -HALF)]),
                  4: (FieldSpec.quadratic(-1), [(1, 0), (0, 1), (-1, 0), (0, -1)]),
                  6: (FieldSpec.quadratic(-3), [(1, 0), (HALF, HALF), (-HALF, HALF),
                                                (-1, 0), (-HALF, -HALF), (HALF, -HALF)])}


def fermat_arrangement(m):
    """A(m,m,3): x, y, z and x - ζy, y - ζz, z - ζx for every ζ with ζ^m = 1."""
    field, powers = ROOTS_OF_UNITY[m]
    one, zero = QuadExt(1, 0, field), QuadExt(0, 0, field)
    minus = [QuadExt(-a, -b, field) for a, b in powers]
    lines = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    lines += [(one, z, zero) for z in minus]
    lines += [(zero, one, z) for z in minus]
    lines += [(z, zero, one) for z in minus]
    return Arrangement(f"fermat-{m}", field, lines)


def fermat_table(m):
    """The Fermat arrangement A(m,m,3) from its combinatorics alone.

    Lines 1, 2, 3 are x, y, z; lines 4 + k, 4 + m + k and 4 + 2m + k are
    x - ζ^k y, y - ζ^k z and z - ζ^k x for a primitive m-th root of unity ζ.
    The coordinate points carry the three points of multiplicity m + 2, and
    x - ζ^a y, y - ζ^b z, z - ζ^c x meet exactly when a + b + c = 0 mod m."""
    xy, yz, zx = ([start + k for k in range(m)] for start in (4, 4 + m, 4 + 2 * m))
    points = [{1, 2, *xy}, {2, 3, *yz}, {3, 1, *zx}]
    points += [{xy[a], yz[b], zx[-(a + b) % m]} for a in range(m) for b in range(m)]
    return ConfigTable(f"A({m},{m},3)", 3 + 3 * m,
                       [(f"p{k}", s) for k, s in enumerate(points, 1)])


def projective_plane(q):
    """PG(2,q) for a prime q as a table: its q^2 + q + 1 lines, each a vector
    whose first nonzero entry is 1, and one point on the q + 1 lines
    orthogonal mod q to each such vector."""
    vectors = [(1, a, b) for a in range(q) for b in range(q)]
    vectors += [(0, 1, b) for b in range(q)] + [(0, 0, 1)]
    points = [{k for k, u in enumerate(vectors, 1) if sum(map(mul, u, v)) % q == 0}
              for v in vectors]
    return ConfigTable(f"PG(2,{q})", len(vectors), [(f"p{k}", s) for k, s in enumerate(points, 1)])


def chain_plan(n):
    """Grid lines 1-4 and generic lines 5-7; then line k, for k = 8..n, joins
    meet(k-1, a) and meet(k-2, b), with a and b the first of lines 1-7 (in an
    order rotated by k) that keep the join from degenerating.  The degree of
    the entries grows about 2.6 times for every two lines."""
    text = ["plan chain over t", f"lines {n}", "line 1 : 1 ; 0 ; 0",
            "line 2 : 1 ; 0 ; -1", "line 3 : 0 ; 1 ; 0", "line 4 : 0 ; 1 ; -1",
            "line 5 : 1 ; t ; 2", "line 6 : t ; 1 ; 3", "line 7 : 2 ; 3 ; t"]
    through = {k: {k} for k in range(1, 8)}     # given lines each join uses
    for k in range(8, n + 1):
        pool = [5, 6, 7, 1, 2, 3, 4][k % 7:] + [5, 6, 7, 1, 2, 3, 4][:k % 7]
        a = next(x for x in pool if x not in through[k - 1] | {k - 1})
        b = next(x for x in pool
                 if x not in through[k - 1] | through[k - 2] | {k - 2, a})
        through[k] = {a, b}
        text += [f"point P{k} : meet {k - 1} {a}", f"point Q{k} : meet {k - 2} {b}",
                 f"line {k} : join P{k} Q{k}"]
    return "\n".join(text + ["point Z : meet 1 3", f"require Z on {n}"]) + "\n"


def constant_chain_plan(n):
    """chain_plan(n) with constant lines 5-7: the degree stays 0, and the
    coefficients grow about 1.6 times in bits for every line."""
    return (chain_plan(n).replace("1 ; t ; 2", "1 ; 5 ; 2").replace("t ; 1 ; 3", "7 ; 1 ; 3")
            .replace("2 ; 3 ; t", "2 ; 3 ; 11"))


def plan_text(name):
    """The .plan text of a corpus case."""
    return corpus._read_data(f"{corpus._SPECS[name].stem}.plan")


def parsed_entries(text):
    """The given lines' entries by label, each parsed alone by parse_ratfunc:
    (num, den) pairs made independently of the plan parser and its cleared lists."""
    var = next(line.split()[3] for line in text.splitlines() if line.startswith("plan "))
    entries = {}
    for line in text.splitlines():
        head, _, rest = line.split("#")[0].partition(":")
        if head.split()[:1] == ["line"] and rest.split()[0] != "join":
            entries[int(head.split()[1])] = tuple(parse_ratfunc(e, var) for e in rest.split(";"))
    return entries


def reduced(num, den):
    """num/den for coefficient sequences, in lowest terms as parse_ratfunc
    reduces it: the (num, den) pair of the text of their Polys."""
    return parse_ratfunc(f"({Poly(num)})/({Poly(den)})")


# The first requirement leaves t^2 - t - 1; the second leaves it times a
# cofactor, which is not common to both requirements.
COFACTOR_PLAN = """\
plan cofactor over t
lines 6
line 1 : 1 ; 0 ; 0
line 2 : 1 ; 0 ; -1
line 3 : 0 ; 1 ; 0
line 4 : 0 ; 1 ; -1
line 5 : 1 ; 2 ; t^2 - t - 1
line 6 : 1 ; 1 ; (t^2 - t - 1)*(COFACTOR) - 2
point P : meet 1 3
point Q : meet 2 4
require P on 5
require Q on 6
"""


# The meet of lines 5 and 6 has degree 80, so _cross reduces it to lowest
# terms, degree 40: the removed factor (t-1)^40 vanishes at t = 1, where
# lines 5 and 6 have a pole.  Line 7 is y = 0, line 3, at every t.
REDUCED_PLAN = """\
plan reduced over t
lines 7
line 1 : 1 ; 0 ; 0
line 2 : 1 ; 0 ; -1
line 3 : 0 ; 1 ; 0
line 4 : 0 ; 1 ; -1
line 5 : 1 ; 1 ; 1/(t-1)^40
line 6 : 1 ; 2 ; 1/(t-1)^40
point P : meet 5 6
point A : meet 1 3
line 7 : join P A
point Q : meet 2 4
require Q on 7
"""


GRID = ["line 1 : 1 ; 0 ; 0", "line 2 : 1 ; 0 ; -1",
        "line 3 : 0 ; 1 ; 0", "line 4 : 0 ; 1 ; -1"]
DENOMINATORS = ["1", "t", "t+1", "t-2", "t^2+1", "2*t-1", "3", "t^3-t+2"]


@st.composite
def entries(draw):
    a, b, c = (draw(st.integers(-3, 3)) for _ in range(3))
    num = f"{a}*t^2 + {b}*t + {c}"
    return f"({num})/({draw(st.sampled_from(DENOMINATORS))})"


@st.composite
def plans(draw):
    """Grid lines, 1-4 lines with rational-function entries, meets, up to
    three joins (each followed by a meet on the new line) and requirements."""
    given = draw(st.integers(1, 4))
    text = list(GRID)
    for k in range(5, 5 + given):
        row = [draw(entries()) for _ in range(3)]
        assume(not all(e.startswith("(0*t^2 + 0*t + 0)") for e in row))  # refused by parse_plan
        text.append(f"line {k} : " + " ; ".join(row))
    lines = list(range(1, 5 + given))
    points = []

    def meet(on=None):
        i = on if on is not None else draw(st.sampled_from(lines))
        j = draw(st.sampled_from([x for x in lines if x != i]))
        points.append(f"P{len(points)}")
        text.append(f"point {points[-1]} : meet {i} {j}")

    for _ in range(draw(st.integers(2, 4))):
        meet()
    for _ in range(draw(st.integers(0, 3))):
        p, q = draw(st.permutations(points))[:2]
        lines.append(len(lines) + 1)
        text.append(f"line {lines[-1]} : join {p} {q}")
        meet(on=lines[-1])
    for _ in range(draw(st.integers(1, 4))):
        text.append(f"require {draw(st.sampled_from(points))} "
                    f"on {draw(st.sampled_from(lines))}")
    return "\n".join(["plan h over t", f"lines {len(lines)}", *text]) + "\n"
