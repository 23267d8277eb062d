import gc
import re
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrsym import combinatorics, corpus
from arrsym.combinatorics import (MAX_LINES, ConfigTable, Permutation, automorphism_group,
                                  involutions, is_lattice_isomorphism,
                                  parse_config_table, parse_cycles)
from arrsym.errors import ParseError, ValidationError

from conftest import fermat_table

TABLE1_TEXT = """\
# multiple points of the first ten-line case
arrangement {1}
lines 10
point q1 : 1 2 3 10
point q2 : 4 5 6 10
point e1 : 7 8 10
point e2 : 3 4 9
point e3 : 5 7 9
point e4 : 2 6 7
point e5 : 2 8 9
point e6 : 3 6 8
point e7 : 1 5 8
point e8 : 1 4 7
"""


def table1():
    return parse_config_table(TABLE1_TEXT)


def brute_force_automorphisms(table):
    """Definitional oracle: test every permutation of the labels."""
    return [Permutation(images)
            for images in permutations(range(1, table.n + 1))
            if is_lattice_isomorphism(table, table, Permutation(images))]


def generated(group):
    """Closure of the group's generators under composition."""
    elements = {Permutation.identity(group.n)}
    frontier = list(elements)
    while frontier:
        nxt = []
        for g in frontier:
            for h in group.generators:
                p = g * h
                if p not in elements:
                    elements.add(p)
                    nxt.append(p)
        frontier = nxt
    return elements


# m -> (|Aut|, number of involutions) of A(m,m,3)
FERMAT = {2: (24, 9), 3: (108, 27), 4: (192, 43), 6: (432, 75)}


@pytest.fixture
def leaf_checks(monkeypatch):
    """Every permutation the search hands to ``is_lattice_isomorphism``."""
    checked = []
    check = combinatorics.is_lattice_isomorphism

    def counted(a, b, tau):
        checked.append(tau)
        return check(a, b, tau)

    monkeypatch.setattr(combinatorics, "is_lattice_isomorphism", counted)
    return checked


def test_parse_table1():
    t = table1()
    assert t.n == 10
    assert t.point_sets == frozenset(map(frozenset, [
        {1, 2, 3, 10}, {4, 5, 6, 10}, {7, 8, 10}, {3, 4, 9}, {5, 7, 9},
        {2, 6, 7}, {2, 8, 9}, {3, 6, 8}, {1, 5, 8}, {1, 4, 7}]))
    assert t.multiplicity_census() == {4: 2, 3: 8}
    assert t.double_count() == 9


def test_parse_generic_table():
    t = parse_config_table("arrangement G\nlines 3\n")
    assert t.n == 3 and not t.points


@pytest.mark.parametrize("text", [
    "arrangement x\nlines 4\npoint a : 1 2\n",                      # < 3 lines
    "arrangement x\nlines 4\npoint a : 1 2 3\npoint b : 1 2 4\n",   # repeated pair
    "arrangement x\nlines 4\npoint a : 1 2 9\n",                    # out of range
    "arrangement x\nlines 4\npoint a : 1 2 3\npoint a : 1 4 2\n",   # reused pair via label
    "arrangement x\nlines 4\npoint a : 1 1 2\n",                    # repeated label
    "lines 4\n",                                                    # missing header
    "arrangement x\nlines 4\nbogus directive\n",
    "arrangement x\nlines 1000000000\n",                            # above MAX_LINES
    "arrangement x\nlines \u00b2\n",                                # superscript digit
    "arrangement x\nlines 4\npoint a : 1 2 \u00b3\n",              # superscript label
    pytest.param("arrangement x\nlines " + "9" * 5000 + "\n", id="lines-5000-digits"),
])
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_config_table(text)


def test_line_count_cap_checked_first():
    def untouched():
        raise AssertionError("points read before the line count was checked")
        yield

    for n in (0, MAX_LINES + 1, 10 ** 9):
        with pytest.raises(ValidationError, match="line count"):
            ConfigTable("big", n, untouched())
    assert ConfigTable("edge", MAX_LINES, []).n == MAX_LINES


def pair_check_reference(points):
    """The message of the replaced check, one dict entry per pair of lines,
    or None if no pair of lines lies on two points."""
    seen = {}
    for label, lines in points:
        for pair in combinations(sorted(lines), 2):
            if pair in seen:
                return (f"lines {pair[0]},{pair[1]} lie on two points "
                        f"({seen[pair]} and {label}): two lines meet once")
            seen[pair] = label
    return None


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 8).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.sets(st.integers(1, n), min_size=3, max_size=n), max_size=8))))
def test_pair_check_matches_the_per_pair_reference(drawn):
    # the first fault is the one the per-pair dict reported, several faults included
    n, sets = drawn
    points = [(f"p{k}", s) for k, s in enumerate(sets, 1)]
    expected = pair_check_reference(points)
    if expected is None:
        table = ConfigTable("random", n, points)
        assert [sorted(p for p, (_, s) in enumerate(table.points) if v in s)
                for v in range(1, n + 1)] == table._through
    else:
        with pytest.raises(ValidationError) as caught:
            ConfigTable("random", n, points)
        assert str(caught.value) == expected


def test_serialize_round_trip():
    t = table1()
    assert parse_config_table(t.serialize()).serialize() == t.serialize()


def test_point_labels_are_unique_as_written():
    # labels are kept as str, so 1 and "1" are one label: the table would
    # serialize two "point 1" lines, which the parser refuses
    with pytest.raises(ValidationError, match="duplicate point label 1"):
        ConfigTable("t", 6, [(1, {1, 2, 3}), ("1", {4, 5, 6})])
    t = ConfigTable("t", 6, [(1, {1, 2, 3}), ("2", {4, 5, 6})])
    assert [label for label, _ in t.points] == ["1", "2"]
    back = parse_config_table(t.serialize())
    assert back == t and back.points == t.points and back.serialize() == t.serialize()


@pytest.mark.parametrize("build, bad", [
    (lambda: Permutation([1.7, 2.2]), "1.7"),
    (lambda: Permutation([2.0, 1.0]), "2.0"),
    (lambda: Permutation(["2", "1"]), "'2'"),
    (lambda: ConfigTable("u", 4, [("P", [1.9, 2, 3])]), "1.9"),
    (lambda: ConfigTable("u", 4, [("P", [1, "2", 3])]), "'2'"),
])
def test_line_labels_must_be_integers(build, bad):
    # int() would truncate a float or parse a string; the label is refused and named
    with pytest.raises(ValidationError, match=re.escape(f"line label {bad} is not an")):
        build()


def test_integral_labels_are_taken_as_they_are():
    assert Permutation(v for v in (2, 1, True + 2)).images == (2, 1, 3)
    assert all(type(v) is int for v in Permutation([True, 2]).images)
    table = ConfigTable("u", 4, [("P", (v + 1 for v in range(3)))])
    assert table.points == (("P", frozenset({1, 2, 3})),)
    assert table._through == [[0], [0], [0], []]
    # the parsers hand over ints: cycle notation and .cfg input read as before
    assert parse_cycles("(1 3)(2 4)", 5).images == (3, 4, 1, 2, 5)
    assert table1().points[0] == ("q1", frozenset({1, 2, 3, 10}))


@pytest.mark.parametrize("n, bad", [(4.9, "4.9"), (4.0, "4.0"), ("4", "'4'"), (None, "None")])
def test_line_count_must_be_an_integer(n, bad):
    # range(n) or the comparison with 1 escaped as a bare TypeError
    def untouched():
        raise AssertionError("points read before the line count was checked")
        yield

    with pytest.raises(ValidationError, match=re.escape(f"line count {bad} is not an integer")):
        ConfigTable("t", n, untouched())


def test_integral_line_counts_are_taken_as_they_are():
    one = ConfigTable("t", True, [])
    assert type(one.n) is int and one.n == 1
    with pytest.raises(ValidationError, match="line count must be in 1..1024, not False"):
        ConfigTable("t", False, [])
    # the parser hands over an int: a count it cannot read stays its ParseError
    assert parse_config_table("arrangement t\nlines 4\npoint P : 1 2 3\n").n == 4
    for text in ("lines 4.9", "lines x", "lines 0"):
        with pytest.raises(ParseError):
            parse_config_table(f"arrangement t\n{text}\n")


def test_labels_outside_the_degree_are_refused():
    # images[i - 1] read -1 as the last image and raised a bare IndexError past n
    p = Permutation((2, 3, 1))
    assert [p(1), p(2), p(3)] == [2, 3, 1]
    for label in (0, -1, -3, 4, 10 ** 9):
        with pytest.raises(ValidationError, match=re.escape(f"label {label} out of range 1..3")):
            p(label)
    # a float indexed the images' tuple and a string met '<': bare TypeErrors;
    # a float past n was named as a label out of range
    assert p(True) == 2
    for label in (2.0, 2.5, 4.0, "1", None, Fraction(2)):
        message = re.escape(f"line label {label!r} is not an integer")
        with pytest.raises(ValidationError, match=message):
            p(label)


def test_is_lattice_isomorphism_examples():
    t = table1()
    sigma = parse_cycles("(1 6)(2 5)(3 4)(7 8)", 10)
    assert is_lattice_isomorphism(t, t, sigma)
    # (1 2) sends {1,5,8} to {2,5,8}, which is not a point
    assert not is_lattice_isomorphism(t, t, parse_cycles("(1 2)", 10))
    assert is_lattice_isomorphism(t, t, Permutation.identity(10))


def test_is_lattice_isomorphism_size_mismatch():
    with pytest.raises(ValidationError):
        is_lattice_isomorphism(table1(), ConfigTable("s", 4, []),
                               Permutation.identity(4))


def test_automorphism_group_table1():
    group = automorphism_group(table1())
    assert group.order == 2
    assert parse_cycles("(1 6)(2 5)(3 4)(7 8)", 10) in group.elements
    assert group.structure_name() == "Z2"
    assert len(group.generators) == 1


def test_automorphism_group_all_doubles():
    group = automorphism_group(ConfigTable("generic", 4, []))
    assert group.order == 24
    assert group.structure_name() == "S4"


@pytest.mark.parametrize("name,order,label", [
    ("{7}", 24, "S4"),
    ("maclane", 48, "GL(2,F3)"),
    ("falk-sturmfels", 4, "Z4"),
    ("nazir-yoshinaga", 6, "S3"),
])
def test_structure_names(name, order, label):
    group = automorphism_group(corpus.get_case(name).config)
    assert group.order == order
    assert group.structure_name() == label


def test_falk_sturmfels_four_cycle():
    group = automorphism_group(corpus.get_case("falk-sturmfels").config)
    four_cycle = parse_cycles("(1 3 2 4)(5 7 6 8)", 9)
    assert four_cycle in group.elements
    assert involutions(group) == [four_cycle * four_cycle]


SMALL_TABLES = [
    (4, []),
    (4, [{1, 2, 3}]),
    (5, [{1, 2, 3}, {1, 4, 5}]),
    (6, [{1, 2, 3}, {1, 4, 5}, {2, 4, 6}, {3, 5, 6}]),   # Pasch-like
    (6, [{1, 2, 3, 4}]),
    (6, [{1, 2, 3}, {3, 4, 5}, {5, 6, 1}]),
    (7, [{1, 2, 3}, {1, 4, 5}, {2, 4, 7}, {3, 4, 6}]),
]


@pytest.mark.parametrize("n,points", SMALL_TABLES)
def test_backtracker_matches_brute_force(n, points):
    table = ConfigTable("small", n, [(f"p{k}", s) for k, s in enumerate(points, 1)])
    expected = sorted(brute_force_automorphisms(table))
    got = list(automorphism_group(table).elements)
    assert got == expected


@pytest.mark.parametrize("n,points", SMALL_TABLES)
def test_group_axioms_by_enumeration(n, points):
    table = ConfigTable("small", n, [(f"p{k}", s) for k, s in enumerate(points, 1)])
    group = automorphism_group(table)
    elements = set(group.elements)
    assert Permutation.identity(n) in elements
    for g in elements:
        assert g.inverse() in elements
        for h in elements:
            assert g * h in elements


def test_generators_generate(realized):
    tables = [corpus.get_case(name).config for name in corpus.list_cases()]
    for table in tables + [fermat_table(m) for m in FERMAT]:
        group = automorphism_group(table)
        assert generated(group) == set(group.elements), table.name


@st.composite
def small_tables(draw):
    """Valid tables on at most 7 lines: points of 3 or more lines, no pair
    of lines on two points."""
    n = draw(st.integers(1, 7))
    points, covered = [], set()
    for lines in draw(st.lists(st.sets(st.integers(1, n), max_size=n), max_size=8)):
        pairs = set(combinations(sorted(lines), 2))
        if len(lines) >= 3 and not pairs & covered:
            points.append(lines)
            covered |= pairs
    return ConfigTable("random", n, [(f"p{k}", s) for k, s in enumerate(points, 1)])


@settings(max_examples=60, deadline=None)
@given(small_tables())
def test_search_matches_brute_force_on_random_tables(table):
    group = automorphism_group(table)
    assert list(group.elements) == sorted(brute_force_automorphisms(table))
    assert generated(group) == set(group.elements)


@settings(max_examples=60, deadline=None)
@given(small_tables())
def test_interchangeable_lines_are_the_lines_on_the_same_points(table):
    # the group bound checked before the search multiplies the sizes of the
    # classes of lines with equal point lists
    pairs = list(combinations(range(1, table.n + 1), 2))
    same = {(i, j) for i, j in pairs if table._through[i - 1] == table._through[j - 1]}
    listed = {g.cycles()[0] for g in automorphism_group(table).elements
              if [len(c) for c in g.cycles()] == [2]}
    passing = {(i, j) for i, j in pairs
               if is_lattice_isomorphism(table, table, parse_cycles(f"({i} {j})", table.n))}
    assert listed == same == passing


def test_the_listed_group_is_bounded():
    # the combinatorial Fermat tables up to m = 16, S_8 and S_9 are listed;
    # S_10 (10 lines, no multiple point) is refused before its elements are built
    for m, order in ((8, 1536), (12, 3456), (16, 12288)):
        assert automorphism_group(fermat_table(m)).order == order
    assert automorphism_group(ConfigTable("free", 8, [])).order == 40320
    assert automorphism_group(ConfigTable("free", 9, [])).order == 362880
    with pytest.raises(ValidationError, match="order 3628800 on 10 lines is too large"):
        automorphism_group(ConfigTable("free", 10, []))


def test_the_group_bound_is_checked_level_by_level(monkeypatch):
    # the first path built every child colouring, about n^3/2 entries, before
    # the bound was checked once at the end: 200 free lines took seconds
    with pytest.raises(ValidationError, match="of order at least 3628800 on 11 lines"):
        automorphism_group(ConfigTable("free", 11, []))
    # the class bound refuses before the first refinement, which would
    # rank the 200 lines' signatures with bisect_left
    def untouched(*args):
        raise AssertionError("refined before the class bound was checked")

    monkeypatch.setattr(combinatorics, "bisect_left", untouched)
    with pytest.raises(ValidationError, match="of order at least 40320 on 200 lines"):
        automorphism_group(ConfigTable("free", 200, []))


@pytest.mark.parametrize("m", sorted(FERMAT))
def test_fermat_groups_within_group_order_leaf_checks(m, leaf_checks):
    table = fermat_table(m)
    assert table.multiplicity_census() == {m + 2: 3, 3: m * m}
    group = automorphism_group(table)
    assert (group.order, len(involutions(group))) == FERMAT[m]
    assert 0 < len(leaf_checks) <= group.order


@pytest.mark.parametrize("name", corpus.list_cases())
def test_corpus_leaf_checks_within_group_order(name, leaf_checks):
    group = automorphism_group(corpus.get_case(name).config)
    assert group.order == corpus.get_case(name).expected_aut_order
    assert 0 < len(leaf_checks) <= group.order


def test_signature_preservation():
    for name in ("{1}", "{7}", "maclane"):
        table = corpus.get_case(name).config
        weights = {pair: len(s) for _, s in table.points
                   for pair in combinations(sorted(s), 2)}

        def signature(i):
            return sorted(weights.get((min(i, j), max(i, j)), 2)
                          for j in range(1, table.n + 1) if j != i)

        for tau in automorphism_group(table).elements:
            for i in range(1, table.n + 1):
                assert signature(i) == signature(tau(i))


def test_isomorphism_composition():
    t = table1()
    group = automorphism_group(t)
    for tau in group.elements:
        for rho in group.elements:
            assert is_lattice_isomorphism(t, t, rho * tau)


def test_pair_budget():
    for name in corpus.list_cases():
        table = corpus.get_case(name).config
        assert sum(comb(len(s), 2) for _, s in table.points) <= comb(table.n, 2)


def test_involutions_ordering_and_triviality():
    group = automorphism_group(table1())
    assert [g.cycle_string() for g in involutions(group)] == ["(1 6)(2 5)(3 4)(7 8)"]
    trivial = automorphism_group(ConfigTable("t", 1, []))
    assert involutions(trivial) == []


def test_cycle_notation_round_trip():
    sigma = parse_cycles("(1 6)(2 5)(3 4)(7 8)", 10)
    assert parse_cycles(sigma.cycle_string(), 10) == sigma
    assert parse_cycles("id", 5) == Permutation.identity(5)
    assert Permutation.identity(5).cycle_string() == "id"
    with pytest.raises(ParseError):
        parse_cycles("(1 2)(2 3)", 4)
    with pytest.raises(ParseError):
        parse_cycles("(1 99)", 4)
    with pytest.raises(ParseError):
        parse_cycles("1 2 3", 4)


def test_permutation_laws():
    p = parse_cycles("(1 2 3)", 5)
    q = parse_cycles("(3 4)", 5)
    assert (p * q).inverse() == q.inverse() * p.inverse()
    assert p.order() == 3 and q.order() == 2
    assert p * p * p == Permutation.identity(5)
    assert q.is_involution and not p.is_involution


@pytest.mark.parametrize("table", [corpus.get_case("{1}").config, fermat_table(3)],
                         ids=["{1}", "fermat-3"])
def test_automorphism_group_leaves_nothing_for_the_cyclic_collector(table):
    # the search's closures hold no cycle once it returns, so a call frees
    # everything it built by reference counting alone
    automorphism_group(table)
    gc.disable()
    try:
        gc.collect()
        automorphism_group(table)
        assert gc.collect() == 0
    finally:
        gc.enable()
