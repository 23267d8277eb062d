"""lattice_of groups intersections by an integer key; the reference below
is the direct algorithm it replaced, which normalizes every pairwise
intersection, a QuadExt cross product, as a ProjPoint and groups the
normal forms.  Both must give identical lattices and tables: the same
points, the same representatives down to their integer triples and
fields, in the same order."""

from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrsym import geometry
from arrsym.combinatorics import ConfigTable
from arrsym.errors import DegenerateError, ValidationError
from arrsym.fields import RATIONAL, FieldSpec, QuadExt
from arrsym.geometry import Arrangement, IntersectionLattice, ProjLine, lattice_of

from conftest import ALL_CASES, ROOTS_OF_UNITY, cross, fermat_arrangement, meet


def reference_lattice_of(arrangement):
    groups, reps = {}, {}
    for i, j in combinations(range(1, arrangement.n + 1), 2):
        p = meet(arrangement.line(i), arrangement.line(j))
        groups.setdefault(p.coords, set()).update((i, j))
        reps.setdefault(p.coords, p)
    entries = sorted(((reps[k], frozenset(s)) for k, s in groups.items()),
                     key=lambda e: tuple(sorted(e[1])))
    lattice = IntersectionLattice(points=tuple(entries))
    if sum(comb(len(s), 2) for _, s in entries) != comb(arrangement.n, 2):
        raise ValidationError("lattice does not cover every line pair exactly once")
    multiple = [s for _, s in entries if len(s) >= 3]
    table = ConfigTable(arrangement.name, arrangement.n,
                        [(f"m{k}", s) for k, s in enumerate(multiple, start=1)])
    return lattice, table


def exact(lattice, table):
    """Everything the lattice and table hold, with each coordinate as its
    stored integers and field, so equal values in other fields differ."""
    points = [(type(p), p.field, repr(p), members,
               tuple((c._p, c._q, c._den, c._d, c.field) for c in p.coords))
              for p, members in lattice.points]
    return points, (table.name, table.n, table.points)


def assert_same_lattice(arrangement):
    got, want = lattice_of(arrangement), reference_lattice_of(arrangement)
    assert got == want
    assert exact(*got) == exact(*want)


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
def arrangements(draw):
    """Lines over one field, with some lines forced through common points
    (concurrent triples and quadruples) and some given a rational field,
    which a point of two such lines takes too."""
    field = draw(st.sampled_from(FIELDS))

    def scalar():
        b = draw(small) if not field.is_rational and draw(st.booleans()) else 0
        return QuadExt(draw(small), b, field)

    def triple():
        return (scalar(), scalar(), scalar())

    raw = [triple() for _ in range(draw(st.integers(0, 4)))]
    for size in draw(st.lists(st.sampled_from([3, 4]), max_size=3)):
        center = triple()
        raw += [cross(center, triple()) for _ in range(size)]
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
    lattice, _ = lattice_of(arrangement)
    assert normalizations == []
    assert all(p._coords is None for p, _ in lattice.points)
    return lattice


@pytest.mark.parametrize("name", ALL_CASES)
def test_corpus_lattice_normalizes_at_most_once_per_point(name, realized,
                                                          normalizations):
    _, _, plus, minus = realized(name)
    for arrangement in (plus, minus):
        lattice_work(arrangement, normalizations)


@pytest.mark.parametrize("m", sorted(ROOTS_OF_UNITY))
def test_fermat_lattice_normalizes_at_most_once_per_point(m, normalizations):
    lattice = lattice_work(fermat_arrangement(m), normalizations)
    assert lattice.census() == {m + 2: 3, 3: m * m, 2: 3 * m}
