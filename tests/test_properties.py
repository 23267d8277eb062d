"""Property-based checks of the algebraic laws the package relies on."""

from fractions import Fraction as F

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrsym.combinatorics import Permutation
from arrsym.errors import UnsupportedDegreeError
from arrsym.fields import FieldSpec, QuadExt, quad_roots
from arrsym.geometry import (Arrangement, MapKind, ProjLine, ProjPoint,
                             intersect, lattice_of)
from arrsym.polys import Poly, _pseudo_divide, poly_reduce

from conftest import (Ref, apply_map, compose, contains, inverse, radd, reduced, relabel, rmul,
                      rsquare_free)

rationals = st.builds(F, st.integers(-30, 30), st.integers(1, 12))
nonzero_rationals = rationals.filter(lambda q: q != 0)
field_specs = st.sampled_from([FieldSpec.quadratic(d)
                               for d in (5, -1, -3, 2, -2, 7)])


@st.composite
def scalars(draw, field=None):
    spec = field if field is not None else draw(field_specs)
    return QuadExt(draw(rationals), draw(rationals), spec)


@st.composite
def scalar_pairs(draw):
    spec = draw(field_specs)
    return (QuadExt(draw(rationals), draw(rationals), spec),
            QuadExt(draw(rationals), draw(rationals), spec))


@given(scalar_pairs())
def test_galois_conjugation_is_a_ring_map(pair):
    # sums and products on the Ref model, each conjugated by QuadExt
    x, y = pair

    def conj(v):
        return Ref.of(Ref.of(v).quad(x.field).conjugate())

    assert conj(Ref.of(x) + y) == conj(x) + conj(y)
    assert conj(Ref.of(x) * y) == conj(x) * conj(y)
    assert x.conjugate().conjugate() == x


@given(nonzero_rationals, rationals, rationals)
def test_quad_roots_vieta(a, b, c):
    field, plus, minus = quad_roots(a, b, c)
    assert Ref.of(plus) + minus == QuadExt(F(-b) / a).with_field(field)
    assert Ref.of(plus) * minus == QuadExt(F(c) / a).with_field(field)
    if not field.is_rational:
        assert plus.b > 0 > minus.b


@given(st.lists(rationals, min_size=1, max_size=5),
       st.lists(rationals, min_size=1, max_size=5))
def test_pseudo_division_law(xs, ys):
    a, b = Poly(xs)._c, Poly(ys)._c
    if b:
        quo, rem, scale = _pseudo_divide(a, b)
        assert radd(rmul(quo, b), rem) == rmul(a, (scale,)) and scale > 0
        assert len(rem) < len(b)


@given(st.lists(rationals, min_size=1, max_size=4).filter(lambda c: any(c)),
       st.integers(-6, 6), st.integers(1, 5), st.integers(0, 3))
def test_poly_reduce_recomposes(coeffs, root_num, root_den, power):
    base = Poly(coeffs)
    for _ in range(power):
        base = Poly(rmul(base.coeffs, (F(-root_num, root_den), 1)))
    try:
        factors = poly_reduce(base)
    except UnsupportedDegreeError:      # only where a part has degree 3 or more
        stripped = base.coeffs[next(k for k, c in enumerate(base.coeffs) if c):]
        assert max(map(len, rsquare_free(stripped))) > 3
        return
    product = (1,)
    for factor, mult in factors:
        for _ in range(mult):
            product = rmul(product, factor.coeffs)
    content = base[base.degree] / product[-1]
    assert Poly(rmul((content,), product)) == base


@given(st.lists(rationals, min_size=1, max_size=4),
       st.lists(rationals, min_size=1, max_size=3).filter(lambda c: any(c)),
       rationals)
def test_ratfunc_eval_is_a_homomorphism(num, den, at):
    f, g = reduced(num, den), reduced(den, (1,))
    x = QuadExt(at)
    assume(not f[1].eval(x).is_zero)

    def value(h):
        return Ref.of(h[0].eval(x)) / h[1].eval(x)

    (fn, fd), (gn, gd) = ((h[0].coeffs, h[1].coeffs) for h in (f, g))
    total = reduced(radd(rmul(fn, gd), rmul(gn, fd)), rmul(fd, gd))
    assert value(total) == value(f) + value(g)
    assert value(reduced(rmul(fn, gn), rmul(fd, gd))) == value(f) * value(g)


@st.composite
def small_permutations(draw):
    n = draw(st.integers(2, 8))
    images = draw(st.permutations(list(range(1, n + 1))))
    return Permutation(images)


@given(small_permutations())
def test_permutation_inverse_law(p):
    ident = Permutation.identity(p.degree)
    assert compose(p, inverse(p)) == ident
    assert compose(inverse(p), p) == ident
    from arrsym.combinatorics import parse_cycles
    assert parse_cycles(p.cycle_string(), p.degree) == p


@st.composite
def small_arrangements(draw):
    spec = draw(st.sampled_from([FieldSpec.quadratic(5), FieldSpec.quadratic(-1)]))
    n = draw(st.integers(3, 5))
    lines = []
    seen = set()
    small = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    for _ in range(n):
        for _attempt in range(30):
            coords = (QuadExt(draw(small), draw(small), spec),
                      QuadExt(draw(small), draw(small), spec),
                      QuadExt(draw(small), draw(small), spec))
            if all(c.is_zero for c in coords):
                continue
            line = ProjLine(coords, spec)
            if line.coords not in seen:
                seen.add(line.coords)
                lines.append(line)
                break
        else:
            assume(False)
    return Arrangement("h", spec, lines)


@settings(max_examples=40)
@given(small_arrangements(), st.booleans(), st.booleans())
def test_coordinate_maps_are_involutions(arrangement, swap, conjugate):
    kind = MapKind(swap, conjugate)
    twice = apply_map(apply_map(arrangement, kind), kind)
    assert twice == arrangement


@settings(max_examples=40)
@given(small_arrangements(), st.data())
def test_relabel_action_and_equivariance(arrangement, data):
    images = data.draw(st.permutations(list(range(1, arrangement.n + 1))))
    sigma = Permutation(images)
    assert relabel(relabel(arrangement, sigma), inverse(sigma)) == arrangement
    _, before = lattice_of(arrangement)
    _, after = lattice_of(relabel(arrangement, sigma))
    assert frozenset(frozenset(map(sigma, s)) for s in before.point_sets) \
        == after.point_sets


@settings(max_examples=40)
@given(small_arrangements())
def test_intersections_lie_on_both_lines(arrangement):
    for i in range(1, arrangement.n + 1):
        for j in range(i + 1, arrangement.n + 1):
            point = intersect(arrangement.line(i), arrangement.line(j))
            assert contains(arrangement.line(i), point)
            assert contains(arrangement.line(j), point)


@settings(max_examples=40)
@given(small_arrangements())
def test_conjugation_commutes_with_intersection(arrangement):
    conj = apply_map(arrangement, MapKind(swap=False, conjugate=True))
    for i in range(1, arrangement.n):
        direct = intersect(conj.line(i), conj.line(i + 1))
        original = intersect(arrangement.line(i), arrangement.line(i + 1))
        mapped = ProjPoint(tuple(c.conjugate() for c in original.coords),
                           arrangement.field)
        assert direct == mapped
