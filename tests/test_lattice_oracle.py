"""lattice_of groups each line's meets with the later lines by an integer
key, skipping the lines on a point already found through it, and keeps
only the multiple points; the reference below is the direct
algorithm it replaced, which normalizes every pairwise intersection, a
QuadExt cross product, as a ProjPoint and groups the normal forms of all
C(n,2) pairs.  Both must give identical multiple points and tables: the
same points, the same representatives down to their integer triples and
fields, in the same order, and as many double points."""

from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrsym import corpus, geometry, moduli
from arrsym.combinatorics import ConfigTable
from arrsym.errors import ConstraintError, DegenerateError, ValidationError
from arrsym.fields import RATIONAL, FieldSpec, QuadExt
from arrsym.geometry import Arrangement, ProjLine, _multiple_points, _realizes, lattice_of

from conftest import ALL_CASES, ROOTS_OF_UNITY, cross, fermat_arrangement, meet, quads


def reference_lattice_of(arrangement):
    """(multiple points, table, number of double points)."""
    groups, reps = {}, {}
    for i, j in combinations(range(1, arrangement.n + 1), 2):
        p = meet(arrangement.line(i), arrangement.line(j))
        groups.setdefault(p.coords, set()).update((i, j))
        reps.setdefault(p.coords, p)
    if sum(comb(len(s), 2) for s in groups.values()) != comb(arrangement.n, 2):
        raise ValidationError("lattice does not cover every line pair exactly once")
    multiple = sorted(((reps[k], frozenset(s)) for k, s in groups.items() if len(s) >= 3),
                      key=lambda e: sorted(e[1]))
    table = ConfigTable(arrangement.name, arrangement.n,
                        [(f"m{k}", s) for k, (_, s) in enumerate(multiple, start=1)])
    doubles = sum(len(s) == 2 for s in groups.values())
    return tuple(p for p, _ in multiple), table, doubles


def exact(points, table):
    """Everything the points and table hold, with each coordinate as its
    stored integers and field, so equal values in other fields differ."""
    return ([(type(p), p.field, repr(p),
              tuple((c._p, c._q, c._den, c._d, c.field) for c in p.coords))
             for p in points], (table.name, table.n, table.points))


def assert_same_lattice(arrangement):
    points, table = lattice_of(arrangement)
    want_points, want_table, doubles = reference_lattice_of(arrangement)
    assert (points, table) == (want_points, want_table)
    assert exact(points, table) == exact(want_points, want_table)
    # lattice_of builds its table unchecked; the reference table is validated
    assert table._through == want_table._through
    assert table.double_count() == doubles


@pytest.mark.parametrize("name", ALL_CASES)
def test_corpus_realizations_match_the_reference(name, realized):
    _, _, plus, minus = realized(name)
    for arrangement in (plus, minus):
        assert_same_lattice(arrangement)


@pytest.mark.parametrize("m", sorted(ROOTS_OF_UNITY))
def test_fermat_arrangements_match_the_reference(m):
    assert_same_lattice(fermat_arrangement(m))


def test_coincident_lines_are_degenerate():
    # Arrangement refuses coincident lines, so build one around its check
    arrangement = object.__new__(Arrangement)
    line = ProjLine((1, 2, 3))
    for attr, value in (("name", "twice"), ("field", RATIONAL),
                        ("lines", (ProjLine((0, 0, 1)), line, line))):
        object.__setattr__(arrangement, attr, value)
    for build in (lattice_of, reference_lattice_of):
        with pytest.raises(DegenerateError):
            build(arrangement)


# -- generated arrangements with forced concurrences ---------------------------

FIELDS = [RATIONAL] + [FieldSpec.quadratic(d) for d in (-1, -3, 2, 5)]
small = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def arrangements(draw, fields=FIELDS):
    """Lines over one of ``fields``, with some lines forced through common
    points (concurrent triples and quadruples) and some given a rational
    field, which a point of two such lines takes too."""
    field = draw(st.sampled_from(fields))

    def scalar():
        b = draw(small) if not field.is_rational and draw(st.booleans()) else 0
        return QuadExt(draw(small), b, field)

    def triple():
        return (scalar(), scalar(), scalar())

    raw = [triple() for _ in range(draw(st.integers(0, 4)))]
    for size in draw(st.lists(st.sampled_from([3, 4]), max_size=3)):
        center = triple()
        raw += [quads(cross(center, triple()), field) for _ in range(size)]
    lines, seen = [], set()
    for coords in raw:
        if all(c.is_zero for c in coords):
            continue
        line = ProjLine(coords, field)
        if line.coords in seen:
            continue
        seen.add(line.coords)
        if all(c.b == 0 for c in coords) and draw(st.booleans()):
            line = ProjLine(tuple(c.a for c in coords), RATIONAL)
        lines.append(line)
    return Arrangement("generated", field, lines)


@settings(max_examples=200, deadline=None)
@given(arrangements())
def test_generated_arrangements_match_the_reference(arrangement):
    if arrangement.n < 2:
        return
    assert_same_lattice(arrangement)


# -- the check against a given table --------------------------------------------
# derive_constraint keeps a root only when the multiple points of the plan
# realized there are exactly the target's: a table one edit away is refused

def near_misses(table):
    """The table, the table with no points, and every table one edit away:
    a point dropped, a line added to or removed from a point, two points
    merged, one line moved between points.  Edits that break the table's
    own rules (three lines a point, one point a pair) are left out."""
    sets = [set(s) for _, s in table.points]
    edits = [sets, []]
    for k, s in enumerate(sets):
        rest = sets[:k] + sets[k + 1:]
        edits.append(rest)
        edits += [rest + [s | {v}] for v in range(1, table.n + 1) if v not in s]
        edits += [rest + [s - {v}] for v in s]
        for m in range(k + 1, len(sets)):
            others = rest[:m - 1] + rest[m:]
            edits.append(others + [s | sets[m]])
            edits += [others + [s - {v}, sets[m] | {v}] for v in s - sets[m]]
            edits += [others + [s | {v}, sets[m] - {v}] for v in sets[m] - s]
    for edit in edits:
        try:
            yield ConfigTable(table.name, table.n, [(f"p{k}", s) for k, s in enumerate(edit)])
        except ValidationError:
            pass


@pytest.mark.parametrize("name", ALL_CASES)
def test_derive_constraint_refuses_the_near_misses(name):
    case = corpus.get_case(name)
    misses = [t for t in near_misses(case.config) if t.point_sets != case.config.point_sets]
    assert misses
    for miss in misses:
        with pytest.raises(ConstraintError, match="lattice mismatch"):
            moduli.derive_constraint(case.plan, miss)


# _realizes checks a table against an arrangement by the lattice walk
# seeded with the table's points; the reference derives the lattice by
# grouping all C(n,2) normalized meets (reference_lattice_of) and compares
# the line sets

def reference_realizes(arrangement):
    """The reference's verdict on any table, from one derivation."""
    found = reference_lattice_of(arrangement)[1].point_sets
    return lambda table: found == table.point_sets


def mutations(table):
    """near_misses(table), and the table with a point added on three lines
    that pairwise share no point, for the first such triples."""
    yield from near_misses(table)
    sets = [s for _, s in table.points]
    free = [abc for abc in combinations(range(1, table.n + 1), 3)
            if not any(len(s.intersection(abc)) >= 2 for s in sets)]
    for abc in free[:12]:
        yield ConfigTable(table.name, table.n, [*table.points, ("added", abc)])


def assert_realizes_as_the_reference(arrangement, tables):
    """_realizes agrees with the reference on every table; the number of
    tables it accepts (near_misses yields the table itself too)."""
    reference = reference_realizes(arrangement)
    verdicts = [(_realizes(arrangement, t), reference(t)) for t in tables]
    assert all(got == want for got, want in verdicts)
    return sum(got for got, _ in verdicts)


@pytest.mark.parametrize("name", ALL_CASES)
def test_corpus_realizations_realize_as_the_reference(name, realized):
    # each component against its own table, accepted, and every mutation of it
    _, _, plus, minus = realized(name)
    for arrangement in (plus, minus):
        table = lattice_of(arrangement)[1]
        assert assert_realizes_as_the_reference(arrangement, mutations(table)) == 1


@pytest.mark.parametrize("m", sorted(ROOTS_OF_UNITY))
def test_fermat_arrangements_realize_as_the_reference(m):
    arrangement = fermat_arrangement(m)
    table = lattice_of(arrangement)[1]
    assert assert_realizes_as_the_reference(arrangement, mutations(table)) == 1


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(arrangements(fields=[RATIONAL, FieldSpec.quadratic(5), FieldSpec.quadratic(-3)]))
def test_generated_arrangements_realize_as_the_reference(arrangement):
    if arrangement.n < 2:
        return
    table = lattice_of(arrangement)[1]
    empty = ConfigTable(table.name, table.n, [])
    assert assert_realizes_as_the_reference(arrangement, [empty, *mutations(table)]) >= 1


def test_a_fourth_line_through_a_triple_point_is_refused():
    # lines 1-4 pass through [0:0:1]: a table naming three of them misses the
    # fourth, whichever it is, and only the point on all four is realized
    arrangement = Arrangement("four", RATIONAL, [
        ProjLine(t) for t in ((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 2, 0), (1, 3, 7), (2, 1, 5))])
    tables = [ConfigTable("four", 6, [("m1", lines)])
              for k in (3, 4) for lines in combinations(range(1, 5), k)]
    assert [_realizes(arrangement, t) for t in tables] == [False] * 4 + [True]
    assert assert_realizes_as_the_reference(arrangement, tables) == 1


def test_three_double_pairs_made_concurrent_are_refused():
    # lines 2, 4 and 6 meet at [1:1:1], and each is on another point: the
    # table that names no point through [1:1:1] makes them three double pairs
    arrangement = Arrangement("pairs", RATIONAL, [ProjLine(t) for t in (
        (1, 0, 0), (1, 0, -1), (0, 1, 0), (0, 1, -1), (1, 1, -1), (1, -1, 0), (3, 5, 7))])
    with_point = lattice_of(arrangement)[1]
    assert with_point.point_sets == {frozenset(s) for s in (
        (2, 4, 6), (2, 3, 5), (1, 4, 5), (1, 3, 6))}
    without = ConfigTable("pairs", 7, [(k, s) for k, s in with_point.points if s != {2, 4, 6}])
    assert all(without._through[v - 1] for v in (2, 4, 6))
    assert not _realizes(arrangement, without) and _realizes(arrangement, with_point)
    assert assert_realizes_as_the_reference(arrangement, [with_point, without]) == 1


def test_points_that_share_a_line_and_a_meet_are_refused():
    # seven lines through [0:0:1] and the Fano plane on them as the table:
    # every point of it is concurrent, and no pair is double, but three
    # points have line 1 as their smallest line and one key
    pencil = Arrangement("pencil", RATIONAL, [ProjLine((1, k, 0)) for k in range(7)])
    fano = ConfigTable("fano", 7, [(f"p{k}", s) for k, s in enumerate(
        ((1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)))])
    assert fano.double_count() == 0
    assert assert_realizes_as_the_reference(pencil, [fano]) == 0
    # the walk refuses the second table point at a known key as it is seeded
    with pytest.raises(ValidationError, match="does not cover every line pair exactly once"):
        _multiple_points(pencil, fano)


# -- work counters --------------------------------------------------------------

@pytest.fixture
def normalizations(monkeypatch):
    """A list that grows by one for every line or point built from its
    coordinates, by the constructor that normalizes them."""
    calls = []
    original = geometry._Triple.__new__

    def counting(cls, coords, field=None):
        calls.append(coords)
        return original(cls, coords, field)

    monkeypatch.setattr(geometry._Triple, "__new__", staticmethod(counting))
    return calls


def lattice_work(arrangement, normalizations):
    """lattice_of builds each point from its key: it normalizes no
    coordinates and builds no normal form until one is read."""
    normalizations.clear()
    points, table = lattice_of(arrangement)
    assert normalizations == []
    assert all(p._coords is None for p in points)
    return table


@pytest.mark.parametrize("name", ALL_CASES)
def test_corpus_lattice_normalizes_at_most_once_per_point(name, realized,
                                                          normalizations):
    _, _, plus, minus = realized(name)
    for arrangement in (plus, minus):
        lattice_work(arrangement, normalizations)


@pytest.mark.parametrize("m", sorted(ROOTS_OF_UNITY))
def test_fermat_lattice_normalizes_at_most_once_per_point(m, normalizations):
    table = lattice_work(fermat_arrangement(m), normalizations)
    assert table.multiplicity_census() == {m + 2: 3, 3: m * m}
    assert table.double_count() == 3 * m


@pytest.fixture
def meets(monkeypatch):
    """A list that grows by the pair (u, v) of every ``_point_key`` call,
    from lattice_of and from evaluate_plan."""
    calls = []
    original = geometry._point_key

    def counting(u, v, d):
        calls.append((u, v))
        return original(u, v, d)

    monkeypatch.setattr(geometry, "_point_key", counting)
    monkeypatch.setattr(moduli, "_point_key", counting)
    return calls


def assert_meets_each_pair_at_most_once(arrangement, meets, count):
    """lattice_of meets the pairs on no multiple point, and each point's
    smallest line with each of its other lines, once each: the other pairs
    of a point meet there, so no meet of theirs is computed."""
    meets.clear()
    _, table = lattice_of(arrangement)
    label = {ln.key: v for v, ln in enumerate(arrangement.lines, start=1)}
    met = [frozenset((label[u], label[v])) for u, v in meets]
    sets = [s for _, s in table.points]
    want = {frozenset(pair) for pair in combinations(range(1, arrangement.n + 1), 2)
            if not any(s.issuperset(pair) for s in sets)}
    want |= {frozenset((min(s), v)) for s in sets for v in s if v != min(s)}
    assert len(met) == len(set(met)) == count
    assert set(met) == want
    assert count == sum(len(s) - 1 for s in sets) + table.double_count()


# meets per realization, the same for both components of a case
CASE_MEETS = {"{1}": 31, "{6}": 33, "{7}": 33, "maclane": 20, "nazir-yoshinaga": 26,
              "11.B.3.b.2.iii": 34, "11.B.3.b.2.iv": 34, "11.B.2.iv": 34, "falk-sturmfels": 25}


@pytest.mark.parametrize("name", ALL_CASES)
def test_corpus_lattice_meets_each_pair_at_most_once(name, realized, meets):
    _, _, plus, minus = realized(name)
    for arrangement in (plus, minus):
        assert_meets_each_pair_at_most_once(arrangement, meets, CASE_MEETS[name])


@pytest.mark.parametrize("m, count", [(2, 23), (3, 39), (4, 59), (6, 111)])
def test_fermat_lattice_meets_each_pair_at_most_once(m, count, meets):
    assert_meets_each_pair_at_most_once(fermat_arrangement(m), meets, count)


def test_a_pencil_meets_its_first_line_only(meets):
    # all 1,024 lines pass through [0:0:1], found whole at line 1: the
    # 523,776 pairs cost 1,023 meets
    pencil = Arrangement("pencil", RATIONAL, [ProjLine((1, k, 0)) for k in range(1, 1025)])
    meets.clear()
    _, table = lattice_of(pencil)
    assert len(meets) == 1023
    assert table.multiplicity_census() == {1024: 1}


@pytest.mark.parametrize("name", ALL_CASES)
def test_derive_constraint_meets_once_per_pair(name, meets, monkeypatch):
    # every corpus case evaluates one factor, at one root, and checks the
    # lattice there with one walk seeded with the target's points: one meet
    # per target point, of its two smallest lines, and one per double pair
    # (173 over the nine cases; 270 while the lattice there was derived
    # unseeded, r - 1 meets per point on r lines)
    case = corpus.get_case(name)
    calls = []
    original = geometry._multiple_points
    monkeypatch.setattr(geometry, "_multiple_points",
                        lambda *args: calls.append(args) or original(*args))
    meets.clear()
    moduli.derive_constraint(case.plan, case.config)
    assert len(calls) == 1 and calls[0][1] is case.config
    assert len(meets) == len(case.config.points) + case.config.double_count()


# -- the checks that replace counting the pairs ---------------------------------

@pytest.mark.parametrize("fault", ["split", "exchange", "join"])
def test_a_pair_at_a_wrong_key_is_refused(monkeypatch, fault):
    # lines 1-3 meet at [0:0:1]; a faulty key moves the pair (2, 3) to a
    # fresh point.  On "split" that is all, and the pair is never met: both
    # lines are on the point found at line 1, so the lattice is unchanged.
    # On "exchange" the pair (4, 5) also meets at [0:0:1], a key already
    # found; on "join" the pair (1, 4) does, which puts line 4 on the point
    # found at line 1, and line 4 is not on it
    arrangement = Arrangement("triple", RATIONAL, [
        ProjLine(t) for t in ((1, 0, 0), (0, 1, 0), (1, -1, 0), (0, 0, 1), (1, 2, 3))])
    points, table = lattice_of(arrangement)
    assert [s for _, s in table.points] == [{1, 2, 3}] and table.double_count() == 7
    k = [None] + [ln.key for ln in arrangement.lines]
    original = geometry._point_key
    fresh = (7, 0, 11, 0, 13, 0)
    assert all(original(u, v, 0) != fresh for u, v in combinations(k[1:], 2))
    met = []

    def faulty(u, v, d):
        met.append({u, v})
        if {u, v} == {k[2], k[3]}:
            return fresh
        if fault == "exchange" and {u, v} == {k[4], k[5]}:
            return points[0].key
        if fault == "join" and {u, v} == {k[1], k[4]}:
            return points[0].key
        return original(u, v, d)

    monkeypatch.setattr(geometry, "_point_key", faulty)
    if fault == "split":
        assert lattice_of(arrangement) == (points, table)
        assert {k[2], k[3]} not in met
        return
    with pytest.raises(ValidationError, match="does not cover every line pair exactly once"):
        lattice_of(arrangement)


@pytest.mark.parametrize("fault", ["two doubles", "a double at a point", "off a line"])
def test_a_wrong_key_at_the_root_is_a_lattice_mismatch(monkeypatch, realized, fault):
    # at the root of {7} a faulty key gives a double pair on line i the meet
    # of another double pair on i ("two doubles") or the key of the point
    # whose smallest line is i ("a double at a point"), or gives a point's two
    # smallest lines a fresh meet, on none of its other lines ("off a line")
    case, _, plus, _ = realized("{7}")
    table, d = case.config, plus.field.d or 0
    k = [None] + [ln.key for ln in plus.lines]
    a, b, c, *_ = sorted(table.points[0][1])
    doubles = {i: [j for j in range(i + 1, table.n + 1)
                   if not set(table._through[i - 1]) & set(table._through[j - 1])]
               for i in range(1, table.n + 1)}
    i = next(i for i in doubles if len(doubles[i]) >= 2)
    original = geometry._point_key
    fresh = (7, 0, 11, 0, 13, 0)
    faults = {"two doubles": ((i, doubles[i][1]), original(k[i], k[doubles[i][0]], d)),
              "a double at a point": ((a, doubles[a][0]), original(k[a], k[b], d)),
              "off a line": ((a, b), fresh)}
    (u, v), wrong = faults[fault]
    assert geometry._on(fresh, k[1:], [c], d) is False
    met = []

    def faulty(*args):
        met.append(args[:2])
        return wrong if args[:2] == (k[u], k[v]) else original(*args)

    monkeypatch.setattr(geometry, "_point_key", faulty)
    with pytest.raises(ConstraintError, match="lattice mismatch"):
        moduli.derive_constraint(case.plan, table)
    assert (k[u], k[v]) in met
