from fractions import Fraction as F
from itertools import combinations, permutations
from math import comb

import pytest

from arrsym import corpus
from arrsym.combinatorics import Permutation, is_lattice_isomorphism, parse_cycles
from arrsym.errors import DegenerateError, FieldMixError, ParseError, ValidationError
from arrsym.fields import RATIONAL, FieldSpec, QuadExt, quad_roots
from arrsym.geometry import (SWAP, SWAP_CONJUGATE, Arrangement, MapKind,
                             ProjLine, ProjPoint, intersect, lattice_of,
                             parse_arrangement)

from conftest import Ref, apply_map, contains, meet, relabel

Q5 = FieldSpec.quadratic(5)
QI = FieldSpec.quadratic(-1)


def golden_plus():
    return quad_roots(1, -1, -1)[1]


def test_normalization():
    line = ProjLine((2, 0, -4))
    assert line.coords[0] == 1 and line.coords[2] == QuadExt(-2)
    with pytest.raises(ValidationError):
        ProjLine((0, 0, 0))


def test_a_key_is_one_line_in_each_field():
    # equal keys with a sqrt(d) part are different lines in different fields;
    # a rational line is the same in every field
    q2, q3 = FieldSpec.quadratic(2), FieldSpec.quadratic(3)
    assert ProjLine((1, QuadExt(0, 1, q2), 0)) != ProjLine((1, QuadExt(0, 1, q3), 0))
    assert ProjLine((1, 2, 3)) == ProjLine((1, 2, 3), q2)
    assert hash(ProjLine((1, 2, 3))) == hash(ProjLine((1, 2, 3), q2))
    assert ProjLine((1, 2, 3)) != ProjPoint((1, 2, 3))


def test_intersect_axes():
    assert intersect(ProjLine((1, 0, 0)), ProjLine((0, 1, 0))) == ProjPoint((0, 0, 1))
    assert intersect(ProjLine((1, 0, 0)), ProjLine((1, 0, -1))) == ProjPoint((0, 1, 0))


def test_intersect_identical_error():
    with pytest.raises(DegenerateError):
        intersect(ProjLine((1, 0, 0)), ProjLine((3, 0, 0)))


def test_intersect_golden_triple():
    # the two steep lines of the first ten-line case meet at [1:1:0],
    # which also lies on the line at infinity
    t = golden_plus()
    l7 = ProjLine((-1, 1, Ref.of(t).inverse().quad(Q5)), Q5)
    l8 = ProjLine((-1, 1, t), Q5)
    l10 = ProjLine((0, 0, 1), Q5)
    p = intersect(l7, l8)
    assert p == ProjPoint((1, 1, 0), Q5)
    assert contains(l10, p)


def test_intersect_checks_identity_before_fields():
    # a rational line is one line in every field, so two copies of it are
    # identical whatever fields they carry
    with pytest.raises(DegenerateError, match="^intersect of identical lines$"):
        intersect(ProjLine((1, 0, 0), QI), ProjLine((1, 0, 0), Q5))
    w5, wi = QuadExt(0, 1, Q5), QuadExt(0, 1, QI)
    for l1, l2 in ((ProjLine((1, 0, 0), QI), ProjLine((0, 1, 0), Q5)),
                   (ProjLine((1, w5, 0), Q5), ProjLine((wi, 1, 2), QI))):
        with pytest.raises(FieldMixError) as exc:
            intersect(l1, l2)
        assert str(exc.value) == f"cannot mix {l1.field} with {l2.field}"


def test_intersect_matches_the_quadext_meet():
    # the key meet against the cross product of normal forms, down to the
    # key and the field, for every order of lines over Q, Q(sqrt 5), Q(i)
    lines = [ProjLine(t) for t in ((1, 2, 3), (0, 1, -1), (2, 0, 1), (1, 1, 1))]
    for field in (Q5, QI):
        w = QuadExt(0, 1, field)
        lines += [ProjLine(t, field) for t in ((1, w, 0), (w, 1, 2),
                                               (1, 1, QuadExt(1, 1, field)),
                                               (1, 1, 1), (0, 3, F(1, 2)))]
    for l1, l2 in permutations(lines, 2):
        if l1 != l2 and {l1.field, l2.field} != {Q5, QI}:
            got, want = intersect(l1, l2), meet(l1, l2)
            assert (got.key, got.field) == (want.key, want.field)


def test_lines_proj_equal():
    assert ProjLine((1, 0, 0)) == ProjLine((2, 0, 0))
    assert ProjLine((1, 0, 0)) != ProjLine((1, 0, 1))


def test_lines_proj_equal_complex_scaling(realized):
    # swapping coordinates of the ninth line at one root gives the ninth
    # line at the other root, up to a nonzero complex scalar
    _, _, plus, minus = realized("nazir-yoshinaga")
    mapped = apply_map(plus, SWAP)
    assert mapped.line(9) == minus.line(9)


def census(table):
    """The multiplicity census with the double points, which the table
    counts but does not list."""
    return {**table.multiplicity_census(), 2: table.double_count()}


def test_lattice_of_case1(realized):
    case, _, plus, minus = realized("{1}")
    points, table = lattice_of(plus)
    assert census(table) == {4: 2, 3: 8, 2: 9}
    assert len(points) == len(table.points)
    assert is_lattice_isomorphism(table, case.config, Permutation.identity(10))
    _, table_m = lattice_of(minus)
    assert is_lattice_isomorphism(table_m, case.config, Permutation.identity(10))


def test_lattice_of_maclane(realized):
    case, _, plus, _ = realized("maclane")
    _, table = lattice_of(plus)
    assert census(table) == {3: 8, 2: 4}
    assert is_lattice_isomorphism(table, case.config, Permutation.identity(8))


def test_lattice_of_generic_triangle():
    arrangement = Arrangement("g", RATIONAL, [
        ProjLine((1, 0, 0)), ProjLine((0, 1, 0)), ProjLine((1, 1, -1))])
    points, table = lattice_of(arrangement)
    assert census(table) == {2: 3}
    assert points == () and not table.points


def test_lattice_pair_budget_exact(realized):
    # each pair meets at the listed point of its two lines, if there is one,
    # and otherwise at a point that is not listed: a double point
    for name in corpus.list_cases():
        _, _, plus, _ = realized(name)
        points, table = lattice_of(plus)
        listed = {pair: p for p, (_, s) in zip(points, table.points)
                  for pair in combinations(sorted(s), 2)}
        doubles = 0
        for i, j in combinations(range(1, plus.n + 1), 2):
            p = intersect(plus.line(i), plus.line(j))
            assert listed.get((i, j), p) == p and ((i, j) in listed) == (p in points), name
            doubles += (i, j) not in listed
        assert doubles == table.double_count() == comb(plus.n, 2) - len(listed), name


def test_lattice_duplicate_lines():
    with pytest.raises(DegenerateError):
        Arrangement("dup", RATIONAL, [ProjLine((1, 0, 0)), ProjLine((2, 0, 0))])


def test_apply_coordinate_map_swap():
    arrangement = Arrangement("a", RATIONAL, [ProjLine((1, 0, 0))])
    swapped = apply_map(arrangement, SWAP)
    assert swapped.line(1) == ProjLine((0, 1, 0))


def test_apply_coordinate_map_maclane_example(realized):
    # swap+conjugate carries the third line at one root to the fourth line
    # at the other root: x = t+ z  ->  y = t- z
    case, constraint, plus, minus = realized("maclane")
    mapped = apply_map(plus, SWAP_CONJUGATE)
    assert mapped.line(3) == minus.line(4)


@pytest.mark.parametrize("swap,conjugate", [(True, False), (False, True), (True, True)])
def test_coordinate_maps_are_involutions(realized, swap, conjugate):
    _, _, plus, _ = realized("maclane")
    kind = MapKind(swap, conjugate)
    twice = apply_map(apply_map(plus, kind), kind)
    assert twice == plus


def test_relabel():
    arrangement = Arrangement("r", RATIONAL, [
        ProjLine((1, 0, 0)), ProjLine((0, 1, 0))])
    assert relabel(arrangement, Permutation.identity(2)) == arrangement
    swapped = relabel(arrangement, parse_cycles("(1 2)", 2))
    assert swapped.line(1) == ProjLine((0, 1, 0))
    assert swapped.line(2) == ProjLine((1, 0, 0))


def test_relabel_round_trip(realized):
    _, _, plus, _ = realized("{7}")
    sigma = parse_cycles("(1 5)(2 6)(3 4)(7 9)", 10)
    assert relabel(relabel(plus, sigma), sigma.inverse()) == plus


def test_relabel_equivariance(realized):
    _, _, plus, _ = realized("{1}")
    sigma = parse_cycles("(1 4 2)(3 7)", 10)
    _, before = lattice_of(plus)
    _, after = lattice_of(relabel(plus, sigma))
    mapped = frozenset(frozenset(map(sigma, s)) for s in before.point_sets)
    assert mapped == after.point_sets


def test_galois_commutes_with_intersect(realized):
    _, _, plus, _ = realized("maclane")
    conjugated = apply_map(plus, MapKind(swap=False, conjugate=True))
    for i, j in [(1, 4), (3, 7), (2, 8)]:
        direct = intersect(conjugated.line(i), conjugated.line(j))
        other = intersect(plus.line(i), plus.line(j))
        assert direct == ProjPoint(tuple(c.conjugate() for c in other.coords),
                                   plus.field)


def test_arr_round_trip(realized):
    _, _, plus, _ = realized("nazir-yoshinaga")
    text = plus.serialize()
    again = parse_arrangement(text)
    assert again == plus
    assert again.serialize() == text


@pytest.mark.parametrize("text", [
    "arrangement a\nline 1 : 1 ; 0 ; 0\n",                    # missing field
    "arrangement a\nfield sqrt 12\nline 1 : 1 ; 0 ; 0\n",     # bad field
    "arrangement a\nfield rational\nline 2 : 1 ; 0 ; 0\n",    # not consecutive
    "arrangement a\nfield rational\nline 1 : 1 ; 0\n",        # two entries
    "arrangement a\nfield rational\nline 1 : 1 ; 0 ; 0\nline 1 : 0 ; 1 ; 0\n",
    "arrangement a\nfield rational\nline 1 : 1 ; 0 ; 0\nline 2 : 2 ; 0 ; 0\n",
    "arrangement a\nfield sqrt -\u0663\nline 1 : 1 ; 0 ; 0\n",  # Arabic-Indic digit
    pytest.param("arrangement a\nfield sqrt " + "3" * 700 + "\nline 1 : 1 ; 0 ; 0\n",
                 id="radicand-700-digits"),
    pytest.param("arrangement a\nfield rational\nline " + "1" * 5000 + " : 1 ; 0 ; 0\n",
                 id="index-5000-digits"),
    pytest.param("arrangement a\nfield rational\nline 1 : " + "7" * 5000 + " ; 0 ; 1\n",
                 id="scalar-5000-digits"),
])
def test_arr_parse_errors(text):
    with pytest.raises(ParseError):
        parse_arrangement(text)
