"""automorphism_group refines on the points' colour lists and reads its
elements off the stabilizer chain; the reference below is the search it
replaced, which refined with an n x n table of pair weights and closed the
generators under composition.  Its signatures put a line's point lists
before its pair weights, which these and the colours determine, so its
cells split alike and their parts are numbered in the same order.  Both
must give the same elements, the same generators in the same order, the
same involutions and the same number of leaf checks, and the search
validates no permutation but its leaves."""

from bisect import bisect_left
from collections import Counter
from itertools import combinations
from math import factorial, prod
from operator import add, itemgetter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arrsym import combinatorics, corpus, geometry
from arrsym.combinatorics import (AutGroup, ConfigTable, Permutation, automorphism_group,
                                  involutions, is_lattice_isomorphism)
from arrsym.errors import ValidationError

from conftest import compose, fermat_arrangement, fermat_table, inverse

# leaf checks of the search, exact
CORPUS_LEAF_CHECKS = {"{1}": 1, "{6}": 1, "{7}": 3, "maclane": 3, "nazir-yoshinaga": 2,
                      "11.B.3.b.2.iii": 1, "11.B.3.b.2.iv": 1, "11.B.2.iv": 1,
                      "falk-sturmfels": 2}
FERMAT_LEAF_CHECKS = {2: 4, 3: 5, 4: 5, 6: 5}            # realized A(m,m,3)
COMBINATORIAL_LEAF_CHECKS = {8: 6, 12: 6}                 # A(m,m,3) tables
COMBINATORIAL_ORDERS = {8: 1536, 12: 3456}


def reference_search(table):
    """(elements, generators, leaf checks) of the replaced search, as
    sorted image tuples, generators in the order found."""
    n = table.n
    # a pair's weight (its point's multiplicity, 2 for a double, 0 for the
    # line itself) and the other line's colour as one sortable int
    pair_keys = [[0 if j == i else 2 * n for j in range(n)] for i in range(n)]
    for _, s in table.points:
        for i, j in combinations(s, 2):
            pair_keys[i - 1][j - 1] = pair_keys[j - 1][i - 1] = len(s) * n
    point_lines = [itemgetter(*(v - 1 for v in s)) for _, s in table.points]
    through = [[p for p, (_, s) in enumerate(table.points) if i in s] for i in range(1, n + 1)]
    checks = []

    def refine(colours, expected=None):
        trace = []
        while True:
            point_colours = [sorted(get(colours)) for get in point_lines]
            sigs = [(colours[i], sorted(point_colours[p] for p in through[i]),
                     sorted(map(add, pair_keys[i], colours))) for i in range(n)]
            step = sorted(sigs)
            if expected is not None and expected[len(trace)] != step:
                return None, None
            trace.append(step)
            refined = [bisect_left(step, sig) for sig in sigs]
            if refined == colours:
                return colours, trace
            colours = refined

    def children(colours):
        size, colour = max((k, -c) for c, k in Counter(colours).items())
        cell = [v for v, c in enumerate(colours) if c == -colour] if size > 1 else []
        return [(v, colours[:v] + [colours[v] + size - 1] + colours[v + 1:]) for v in cell]

    colours, trace = refine([0] * n)
    traces, path = [trace], []
    while kids := children(colours):
        path.append(kids)
        colours, trace = refine(kids[0][1])
        traces.append(trace)
    first_leaf = colours

    def search(colours, depth):
        colours, _ = refine(colours, traces[depth])
        if colours is None:
            return None
        kids = children(colours)
        if not kids:
            line_of = sorted(range(n), key=colours.__getitem__)
            gamma = tuple(line_of[c] for c in first_leaf)
            checks.append(gamma)
            tau = Permutation(v + 1 for v in gamma)
            return gamma if is_lattice_isomorphism(table, table, tau) else None
        for _, child in kids:
            gamma = search(child, depth + 1)
            if gamma is not None:
                return gamma
        return None

    gens = []
    for depth in reversed(range(len(path))):
        tried = [path[depth][0][0]]
        for v, child in path[depth][1:]:
            if not any(v in closure(u, [g.__getitem__ for g in gens]) for u in tried):
                gamma = search(child, depth + 1)
                if gamma is None:
                    tried.append(v)
                else:
                    gens.append(gamma)
    elements = closure(tuple(range(n)), [itemgetter(*g) for g in gens])
    one_based = [tuple(v + 1 for v in p) for p in sorted(elements)]
    return one_based, [tuple(v + 1 for v in g) for g in gens], len(checks)


def closure(start, moves):
    orbit, frontier = {start}, [start]
    while frontier:
        x = frontier.pop()
        new = {move(x) for move in moves} - orbit
        orbit |= new
        frontier.extend(new)
    return orbit


def searched(table, monkeypatch):
    """(group, leaf checks, validated Permutation constructions) of one
    automorphism_group call."""
    leaves, built = [], []
    check, init = combinatorics.is_lattice_isomorphism, Permutation.__init__

    def counted_check(a, b, tau):
        leaves.append(tau)
        return check(a, b, tau)

    def counted_init(self, images):
        built.append(images)
        init(self, images)

    with monkeypatch.context() as patch:
        patch.setattr(combinatorics, "is_lattice_isomorphism", counted_check)
        patch.setattr(Permutation, "__init__", counted_init)
        group = automorphism_group(table)
    return group, len(leaves), len(built)


def assert_matches_reference(table, monkeypatch, leaf_checks=None):
    group, leaves, built = searched(table, monkeypatch)
    elements, generators, reference_leaves = reference_search(table)
    assert [g.images for g in group.elements] == elements
    assert [g.images for g in group.generators] == generators
    assert [g.images for g in involutions(group)] == [
        p for p in elements
        if p != tuple(sorted(p)) and all(p[v - 1] == i for i, v in enumerate(p, 1))]
    assert leaves == reference_leaves
    if leaf_checks is not None:
        assert leaves == leaf_checks
    assert built == leaves
    return group


@pytest.mark.parametrize("name", sorted(CORPUS_LEAF_CHECKS))
def test_corpus_matches_the_reference(name, monkeypatch):
    case = corpus.get_case(name)
    group = assert_matches_reference(case.config, monkeypatch, CORPUS_LEAF_CHECKS[name])
    assert group.order == case.expected_aut_order


def test_corpus_leaf_checks_cover_every_case():
    assert sorted(CORPUS_LEAF_CHECKS) == sorted(corpus.list_cases())


@pytest.mark.parametrize("m", sorted(FERMAT_LEAF_CHECKS))
def test_fermat_matches_the_reference(m, monkeypatch):
    _, table = geometry.lattice_of(fermat_arrangement(m))
    assert_matches_reference(table, monkeypatch, FERMAT_LEAF_CHECKS[m])


@pytest.mark.parametrize("m", sorted(COMBINATORIAL_LEAF_CHECKS))
def test_combinatorial_fermat_matches_the_reference(m, monkeypatch):
    group = assert_matches_reference(fermat_table(m), monkeypatch,
                                     COMBINATORIAL_LEAF_CHECKS[m])
    assert group.order == COMBINATORIAL_ORDERS[m]


@st.composite
def tables(draw):
    """Valid tables on 3 to 10 lines with points of 3 to 5 lines, whose
    group is small enough for the reference's closure: at most the product
    of k! over the line types (the multiplicities of a line's points)
    occurring k times."""
    n = draw(st.integers(3, 10))
    points, covered = [], set()
    for lines in draw(st.lists(st.sets(st.integers(1, n), min_size=3, max_size=min(5, n)),
                               max_size=12)):
        pairs = set(combinations(sorted(lines), 2))
        if not pairs & covered:
            points.append(lines)
            covered |= pairs
    types = Counter(tuple(sorted(len(s) for s in points if i in s)) for i in range(1, n + 1))
    assume(prod(factorial(k) for k in types.values()) <= 20000)
    return ConfigTable("random", n, [(f"p{k}", s) for k, s in enumerate(points, 1)])


def table(n, *points):
    return ConfigTable("example", n, [(f"p{k}", s) for k, s in enumerate(points, 1)])


# Tables on which numbering the parts of a cell by their pair-weight lists,
# before the signatures put the point lists first, found other generators or
# the same in another order: the two numberings still differ here.
@settings(max_examples=150, deadline=None)
@given(tables())
@example(table(6, {1, 2, 6}, {3, 4, 5}))
@example(table(8, {1, 2, 4, 5}, {1, 3, 6}, {2, 6, 7}, {3, 7, 8}))
@example(table(10, {1, 2, 5, 7, 10}, {2, 3, 8, 9}, {3, 4, 6}, {5, 6, 8}, {6, 9, 10}))
def test_generated_tables_match_the_reference(table):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_matches_reference(table, monkeypatch)


# A table whose leaves agree with the first leaf on every round but the
# last: its point lists cut them, as the full round did, so the one leaf
# checked is the generator's.
def test_the_point_lists_cut_the_leaves_the_full_round_cut(monkeypatch):
    group = assert_matches_reference(
        table(10, {1, 3, 4, 7}, {1, 5, 9}, {2, 3, 10}, {2, 6, 7, 8}, {4, 6, 9}, {5, 8, 10}),
        monkeypatch, leaf_checks=1)
    assert [str(g) for g in group.generators] == ["(1 8)(2 4)(3 6)(9 10)"]
    assert group.order == 2


# A leaf is checked only after its point lists equal the first leaf's, and
# then the map matching their colours is an automorphism: every check
# passes and gives a generator.  So the lists may stand in for the round
# that confirmed a discrete colouring, and the check stays as a safety net.
@settings(max_examples=150, deadline=None)
@given(tables())
def test_every_leaf_check_passes(table):
    passed, check = [], combinatorics.is_lattice_isomorphism
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(combinatorics, "is_lattice_isomorphism",
                      lambda a, b, tau: passed.append(check(a, b, tau)) or passed[-1])
        group = automorphism_group(table)
    assert passed == [True] * len(group.generators)


# bisect_left calls of one search, exact: one per point and one per line in
# each round that refines, none in the round that ends at a leaf
CORPUS_BISECT_CALLS = {"{1}": 100, "{6}": 132, "{7}": 308, "maclane": 208,
                       "nazir-yoshinaga": 190, "11.B.3.b.2.iii": 126, "11.B.3.b.2.iv": 126,
                       "11.B.2.iv": 168, "falk-sturmfels": 144}
COMBINATORIAL_BISECT_CALLS = {2: 208, 3: 576}         # A(m,m,3) tables


def bisect_calls(table, monkeypatch):
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(combinatorics, "bisect_left",
                      lambda *args: calls.append(None) or bisect_left(*args))
        automorphism_group(table)
    return len(calls)


def test_the_search_makes_the_pinned_number_of_bisections(monkeypatch):
    corpus_calls = {name: bisect_calls(corpus.get_case(name).config, monkeypatch)
                    for name in corpus.list_cases()}
    assert corpus_calls == CORPUS_BISECT_CALLS
    assert sum(corpus_calls.values()) == 1502
    assert {m: bisect_calls(fermat_table(m), monkeypatch)
            for m in COMBINATORIAL_BISECT_CALLS} == COMBINATORIAL_BISECT_CALLS


def power_order(g):
    """The smallest k with g^k the identity, by repeated products."""
    power, k, identity = g, 1, Permutation.identity(g.degree)
    while power != identity:
        power, k = compose(power, g), k + 1
    return k


@pytest.mark.parametrize("name", ["{7}", "maclane", "falk-sturmfels"])
def test_element_orders_match_repeated_products(name):
    # order() walks the cycle lengths, so no cycle walk can be its reference
    for g in automorphism_group(corpus.get_case(name).config).elements:
        k = power_order(g)
        assert g.order() == k
        assert g.is_involution == (k == 2)


# The lines of a table on one point, or on none, are read through a slice:
# itemgetter of one index returns a scalar, and of no index cannot be built.
@pytest.mark.parametrize("example", [
    table(1), table(2), table(5), table(4, {1, 2, 3}), table(6, {1, 2, 3}),
    table(7, {1, 2, 3}, {4, 5, 6}), table(6, {1, 2, 3}, {1, 4, 5}),
    table(8, {1, 2, 3, 4}, {1, 5, 6}, {2, 5, 7}),
])
def test_lines_on_at_most_one_point_match_the_reference(example, monkeypatch):
    assert_matches_reference(example, monkeypatch)


FANO = ({1, 2, 3}, {1, 4, 5}, {1, 6, 7}, {2, 4, 6}, {2, 5, 7}, {3, 4, 7}, {3, 5, 6})


def fano_planes(k):
    """k disjoint Fano configurations, copy c on lines 7c + 1 .. 7c + 7."""
    return table(7 * k, *({7 * c + v for v in s} for c in range(k) for s in FANO))


def test_disjoint_fano_planes_have_the_wreath_product():
    # Aut is PGL(3,2) wr S_k, of order 168^k k!.  PGL(3,2) has 21
    # involutions; for k = 2 an involution is (a, b) with a, b of order at
    # most 2, not both trivial (22^2 - 1), or (a, a^-1) followed by the swap
    # of the copies (168).  For k = 3, 168^3 3! elements on 21 lines are
    # above the listing bound.
    with pytest.MonkeyPatch.context() as monkeypatch:
        one = assert_matches_reference(fano_planes(1), monkeypatch)
    assert (one.order, len(involutions(one))) == (168, 21)
    pair = fano_planes(2)
    two = automorphism_group(pair)
    assert (two.order, len(involutions(two))) == (168 ** 2 * 2, 22 ** 2 - 1 + 168) == (56448, 651)
    assert all(is_lattice_isomorphism(pair, pair, g) for g in two.generators)
    with pytest.raises(ValidationError, match="on 21 lines is too large to list"):
        automorphism_group(fano_planes(3))


@st.composite
def permutations_and_labels(draw):
    """A permutation of degree 1 to 12 and a set of its labels."""
    n = draw(st.integers(1, 12))
    return Permutation(draw(st.permutations(range(1, n + 1)))), draw(st.sets(st.integers(1, n)))


@settings(max_examples=300, deadline=None)
@given(permutations_and_labels())
@example((Permutation([1]), {1}))
@example((Permutation([2, 1]), set()))
def test_labels_and_involutions_match_their_definitions(drawn):
    g, labels = drawn
    assert [g(i) for i in labels] == [g.images[i - 1] for i in labels]
    assert g.is_involution == (power_order(g) == 2)
    listed = [Permutation.identity(g.degree), g, compose(g, g), inverse(g)]
    assert involutions(AutGroup._of(g.degree, tuple(listed), ())) == [
        h for h in listed if power_order(h) == 2]


@settings(max_examples=150, deadline=None)
@given(tables(), st.data())
def test_the_leaf_check_is_the_point_set_check(table, data):
    # is_lattice_isomorphism maps the points through one getter of the images
    images = data.draw(st.permutations(range(1, table.n + 1)))
    for tau in (Permutation(images), *automorphism_group(table).generators):
        assert is_lattice_isomorphism(table, table, tau) == (
            frozenset(frozenset(map(tau, s)) for s in table.point_sets) == table.point_sets)


# -- structure labels -----------------------------------------------------------

def reference_label(group):
    """The label by brute force: every element's order by repeated products,
    counted, and whether every pair of elements commutes."""
    n = len(group.elements)
    if n == 1:
        return "trivial"
    if n > 48:
        return f"order {n}"
    profile = tuple(sorted(Counter(power_order(g) for g in group.elements).items()))
    known = {(24, ((1, 1), (2, 9), (3, 8), (4, 6))): "S4",
             (6, ((1, 1), (2, 3), (3, 2))): "S3",
             (48, ((1, 1), (2, 13), (3, 8), (4, 6), (6, 8), (8, 12))): "GL(2,F3)",
             (12, ((1, 1), (2, 7), (3, 2), (6, 2))): "S3 x Z2",
             (8, ((1, 1), (2, 5), (4, 2))): "D4"}
    if (n, profile) in known:
        return known[n, profile]
    if any(power_order(g) == n for g in group.elements):
        return f"Z{n}"
    if all(compose(g, h) == compose(h, g) for g, h in combinations(group.elements, 2)):
        return f"abelian order {n}"
    return f"order {n}"


@pytest.mark.parametrize("n,points,label", [
    (8, ({2, 4, 5}, {5, 6, 7}, {1, 6, 8}, {2, 3, 6}), "abelian order 4"),
    (7, ({1, 3, 4}, {2, 3, 7}), "order 16"),
    (6, ({1, 3, 4}, {4, 5, 6}), "D4"),
    (8, ({1, 3, 5}, {4, 5, 8}, {1, 2, 8}), "S3 x Z2"),
])
def test_structure_name_matches_the_brute_force_label(n, points, label):
    # the generators commute exactly when the group is abelian
    group = automorphism_group(ConfigTable("t", n, enumerate(points)))
    assert group.structure_name() == reference_label(group) == label


@pytest.mark.parametrize("name", corpus.list_cases())
def test_corpus_structure_names_match_the_brute_force_label(name):
    group = automorphism_group(corpus.get_case(name).config)
    assert group.structure_name() == reference_label(group)
