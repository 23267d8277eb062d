from fractions import Fraction as F
from math import comb

import pytest

from arrsym import corpus
from arrsym.combinatorics import Permutation, is_lattice_isomorphism, parse_cycles
from arrsym.errors import DegenerateError, ParseError, ValidationError
from arrsym.fields import RATIONAL, FieldSpec, QuadExt, quad_roots
from arrsym.geometry import (SWAP, SWAP_CONJUGATE, Arrangement, MapKind,
                             ProjLine, ProjPoint, intersect, lattice_of,
                             parse_arrangement)

from conftest import apply_map, relabel

Q5 = FieldSpec.quadratic(5)
QI = FieldSpec.quadratic(-1)


def golden_plus():
    return quad_roots(1, -1, -1)[1]


def test_normalization():
    line = ProjLine((2, 0, -4))
    assert line.coords[0] == 1 and line.coords[2] == QuadExt(-2)
    with pytest.raises(ValidationError):
        ProjLine((0, 0, 0))


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
    l7 = ProjLine((-1, 1, t.inverse()), Q5)
    l8 = ProjLine((-1, 1, t), Q5)
    l10 = ProjLine((0, 0, 1), Q5)
    p = intersect(l7, l8)
    assert p == ProjPoint((1, 1, 0), Q5)
    assert l10.contains(p)


def test_lines_proj_equal():
    assert ProjLine((1, 0, 0)) == ProjLine((2, 0, 0))
    assert ProjLine((1, 0, 0)) != ProjLine((1, 0, 1))


def test_lines_proj_equal_complex_scaling(realized):
    # swapping coordinates of the ninth line at one root gives the ninth
    # line at the other root, up to a nonzero complex scalar
    _, _, plus, minus = realized("nazir-yoshinaga")
    mapped = apply_map(plus, SWAP)
    assert mapped.line(9) == minus.line(9)


def test_lattice_of_case1(realized):
    case, _, plus, minus = realized("{1}")
    lattice, table = lattice_of(plus)
    assert lattice.census() == {4: 2, 3: 8, 2: 9}
    assert is_lattice_isomorphism(table, case.config, Permutation.identity(10))
    lattice_m, table_m = lattice_of(minus)
    assert is_lattice_isomorphism(table_m, case.config, Permutation.identity(10))


def test_lattice_of_maclane(realized):
    case, _, plus, _ = realized("maclane")
    lattice, table = lattice_of(plus)
    assert lattice.census() == {3: 8, 2: 4}
    assert is_lattice_isomorphism(table, case.config, Permutation.identity(8))


def test_lattice_of_generic_triangle():
    arrangement = Arrangement("g", RATIONAL, [
        ProjLine((1, 0, 0)), ProjLine((0, 1, 0)), ProjLine((1, 1, -1))])
    lattice, table = lattice_of(arrangement)
    assert lattice.census() == {2: 3}
    assert not table.points


def test_lattice_pair_budget_exact(realized):
    for name in corpus.list_cases():
        _, _, plus, _ = realized(name)
        lattice, _ = lattice_of(plus)
        assert (sum(comb(len(s), 2) for _, s in lattice.points)
                == comb(plus.n, 2)), name


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
    mapped = frozenset(sigma.apply_set(s) for s in before.point_sets)
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
