"""The fraction-free plan interpreter against the interpreter it replaced.

residual_numerators runs meets and joins on integer-polynomial triples over
a common denominator and reduces once per requirement.  The reference below
is the replaced interpreter on the model of tests/conftest.py: every entry a
reduced rational function, parsed alone by parse_ratfunc from the plan's
text, every product and sum reduced by a polynomial gcd.  Both must give the
same numerators in the same order, and the same exception type and message
on a plan that fails.  The gates count calls of the lowest-terms kernel
polys._lowest: one per numerator returned (19 over the nine cases; the
replaced interpreter built 767 RatFuncs), and one per plan entry parsed;
and loading the nine cases builds a Poly only for each expected constraint."""

from collections import Counter
from fractions import Fraction as F
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrsym import corpus, moduli, polys
from arrsym.errors import DegenerateError, ValidationError
from arrsym.moduli import (ConstructionPlan, GivenLine, JoinLine, MeetPoint, parse_plan,
                           residual_numerators)
from arrsym.polys import MAX_DEGREE, Poly, _cleared, _ExprParser, parse_ratfunc

from conftest import (ALL_CASES, chain_plan, parsed_entries, plan_text, plans, qadd, qmul,
                      qneg, rcanonical, rmul, rprimitive)


def _reference_cross(u, v, what):
    w = tuple(qadd(qmul(u[i], v[j]), qneg(qmul(u[j], v[i])))
              for i, j in ((1, 2), (2, 0), (0, 1)))
    if not any(num for num, _ in w):
        raise DegenerateError(f"{what} coincide identically")
    if max(len(cs) for e in w for cs in e) - 1 > MAX_DEGREE:
        raise ValidationError(f"the meet or join of {what} has degree "
                              f"above {MAX_DEGREE}")
    return w


def reference_numerators(plan, entries):
    """The numerators as primitive integer tuples; ``entries`` holds the given
    lines' (num, den) pairs by label (conftest.parsed_entries)."""
    lines, points = {}, {}
    for step in plan.steps:
        if isinstance(step, GivenLine):
            lines[step.index] = tuple((num.coeffs, den.coeffs)
                                      for num, den in entries[step.index])
        elif isinstance(step, MeetPoint):
            points[step.name] = _reference_cross(lines[step.i], lines[step.j],
                                                 f"lines {step.i},{step.j}")
        elif isinstance(step, JoinLine):
            lines[step.index] = _reference_cross(points[step.p], points[step.q],
                                                 f"points {step.p},{step.q}")
    out = []
    for req in plan.requires():
        point, line = points[req.point], lines[req.line]
        num, _ = qadd(qadd(qmul(line[0], point[0]), qmul(line[1], point[1])),
                      qmul(line[2], point[2]))
        if num:
            out.append((req.point, req.line, tuple(map(int, rprimitive(num)[1]))))
    return out


def outcome(run):
    """The numerators, each an exact tuple of ints, or the error."""
    try:
        numerators = run()
    except (DegenerateError, ValidationError) as exc:
        return type(exc), str(exc)
    assert all(type(num) is tuple and all(type(c) is int for c in num)
               for _, _, num in numerators)
    return numerators


def assert_same(text):
    plan, entries = parse_plan(text), parsed_entries(text)
    expected = outcome(lambda: reference_numerators(plan, entries))
    assert outcome(lambda: residual_numerators(plan)) == expected
    return expected


@pytest.mark.parametrize("name", ALL_CASES)
def test_corpus_plans_match_the_reference(name):
    assert assert_same(plan_text(name))


@pytest.mark.parametrize("n", range(8, 22))
def test_chain_plans_match_the_reference(n):
    result = assert_same(chain_plan(n))
    if n >= 16:
        assert result == (ValidationError,
                          "the meet or join of points P16,Q16 has degree above 64")


def _count_reductions(monkeypatch):
    """A list that grows by one for every call of the lowest-terms kernel
    polys._lowest from now on: every reduction of the parser and the plan
    interpreter."""
    calls = []
    original = polys._lowest

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (polys, moduli):
        monkeypatch.setattr(module, "_lowest", counting)
    return calls


REDUCED_BELOW_THE_BOUND = """\
plan cancel over t
lines 8
line 1 : 1 ; 0 ; 0
line 2 : 1 ; 0 ; -1
line 3 : 0 ; 1 ; 0
line 4 : 0 ; 1 ; -1
line 5 : 1/(t^40+t+1) ; 1 ; 0
line 6 : 2/(t^40+t+1) ; 3 ; 0
line 7 : t ; 1 ; 2/(t^40+t+1)
line 8 : 1 ; t ; 1
point P : meet 5 6
point Q : meet 7 8
point R : meet 6 8
require P on 8
require Q on 1
require R on 7
"""


def test_degree_above_the_bound_that_reduces_below_it(monkeypatch):
    # meet 5 6 has degree 80 over its product denominator, 40 once reduced:
    # the interpreter reduces its three entries, passes the bound and goes
    # on to one reduction per numerator
    plan = parse_plan(REDUCED_BELOW_THE_BOUND)
    calls = _count_reductions(monkeypatch)
    numerators = residual_numerators(plan)
    assert (len(calls), len(numerators)) == (6, 3)
    assert assert_same(REDUCED_BELOW_THE_BOUND)


def test_one_ratfunc_per_numerator(monkeypatch):
    plans = [corpus.get_case(name).plan for name in ALL_CASES]
    calls = _count_reductions(monkeypatch)
    total = 0
    for plan in plans:
        calls.clear()
        count = len(residual_numerators(plan))
        assert len(calls) == count
        total += count
    assert total == 19


def test_one_reduction_per_plan_entry(monkeypatch):
    # the expression parser reduces each entry once, at the end (424 RatFuncs
    # were built when it reduced after every step)
    texts = [plan_text(name) for name in ALL_CASES]
    calls = _count_reductions(monkeypatch)
    plans = [parse_plan(text) for text in texts]
    entries = [cs for plan in plans for step in plan.steps if isinstance(step, GivenLine)
               for cs in step.cleared[:3]]
    assert len(calls) == len(entries) == 258


def test_loading_the_cases_builds_a_poly_per_expected_constraint(monkeypatch):
    # the parser built a RatFunc per entry, which GivenLine cleared back into
    # integer lists: 258 RatFunc._of and 525 _poly calls; the 9 left are the
    # cases' expected constraints
    calls = Counter()
    poly = polys._poly

    def counting_poly(*args):
        calls["_poly"] += 1
        return poly(*args)

    for module in (polys, moduli):
        monkeypatch.setattr(module, "_poly", counting_poly)
    monkeypatch.setattr(corpus, "_cache", {})
    for name in ALL_CASES:
        corpus.get_case(name)
    assert calls["_poly"] == 9


def assert_cleared_exactly(text):
    """Each given line's cleared lists against its entries parsed one by one:
    P_k / D is entry k, D is the product of the entries' distinct primitive
    denominators times an integer, and the lists are content-free ints."""
    entries = parsed_entries(text)
    for step in parse_plan(text).steps:
        if isinstance(step, GivenLine):
            *nums, den = step.cleared
            row = entries[step.index]
            assert all(rcanonical(Poly(p).coeffs, Poly(den).coeffs) == (n.coeffs, d.coeffs)
                       for p, (n, d) in zip(nums, row))
            dens = dict.fromkeys(rprimitive(d.coeffs)[1] for _, d in row)
            assert rprimitive(Poly(den).coeffs)[1] == reduce(rmul, dens, (F(1),))
            assert all(type(cs) is tuple and all(type(c) is int for c in cs)
                       for cs in step.cleared)
            assert gcd(*(c for cs in step.cleared for c in cs)) == 1


@pytest.mark.parametrize("name", ALL_CASES)
def test_given_lines_are_cleared_exactly(name):
    assert_cleared_exactly(plan_text(name))


@settings(max_examples=200, deadline=None)
@given(plans())
def test_given_lines_of_random_plans_are_cleared_exactly(text):
    assert_cleared_exactly(text)


@settings(max_examples=300, deadline=None)
@given(plans())
def test_random_plans_match_the_reference(text):
    assert_same(text)


# -- the grid lines ---------------------------------------------------------------
# grid_labels keys the constant lines' cleared integers with geometry._primitive.
# The reference is the replaced code: constant entries as Fractions, divided
# by the first nonzero one.

REFERENCE_GRID = tuple(tuple(map(F, g)) for g in
                       ((1, 0, 0), (1, 0, -1), (0, 1, 0), (0, 1, -1)))


def reference_grid_labels(plan, entries):
    """The labels of x=0, x=z, y=0, y=z, None where one is missing; ``entries``
    holds the given lines' (num, den) pairs by label."""
    found = {}
    for step in plan.steps:
        if not isinstance(step, GivenLine):
            continue
        row = entries[step.index]
        if not all(num.degree <= 0 and den.degree == 0 for num, den in row):
            continue
        vals = tuple(num[0] / den[0] for num, den in row)
        pivot = next((v for v in vals if v != 0), None)
        if pivot is not None:
            found[tuple(v / pivot for v in vals)] = step.index
    return tuple(found.get(g) for g in REFERENCE_GRID)


def assert_same_grid(plan, entries):
    expected = reference_grid_labels(plan, entries)
    if None in expected:
        with pytest.raises(ValidationError, match="plan lacks the four grid lines"):
            plan.grid_labels()
    else:
        assert plan.grid_labels() == expected


@pytest.mark.parametrize("name", ALL_CASES)
def test_grid_labels_match_the_reference(name):
    plan, entries = corpus.get_case(name).plan, parsed_entries(plan_text(name))
    assert None not in reference_grid_labels(plan, entries)
    assert_same_grid(plan, entries)


@settings(max_examples=100, deadline=None)
@given(plans())
def test_grid_labels_of_random_plans_match_the_reference(text):
    assert_same_grid(parse_plan(text), parsed_entries(text))


scales = st.sampled_from(["1", "-1", "2", "-3", "1/2", "-5/3", "t/t", "(2*t+2)/(t+1)"])


@st.composite
def grid_rows(draw):
    """Entry texts of given lines: each grid line times a constant (written
    as a quotient of polynomials, too), over t (no constant line) or left
    out; then constant lines, all-zero lines and more grid multiples, which
    a later line overrides; in random order."""
    def scaled(coords):
        scale = draw(scales)
        return tuple(f"({c})*({scale})" for c in coords)

    rows = []
    for g in REFERENCE_GRID:
        kind = draw(st.sampled_from(["scaled", "scaled", "scaled", "over t", "absent"]))
        if kind == "scaled":
            rows.append(scaled(g))
        elif kind == "over t":
            rows.append(tuple(f"({c})/t" for c in g))
    for kind in draw(st.lists(st.sampled_from(["constant", "zero", "grid"]), max_size=4)):
        if kind == "zero":
            rows.append(("0", "0", "0"))
        else:
            rows.append(scaled(draw(st.sampled_from(REFERENCE_GRID)) if kind == "grid" else
                               [draw(st.integers(-2, 2)) for _ in range(3)]))
    return draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(grid_rows())
def test_grid_labels_of_constant_lines_match_the_reference(rows):
    steps = [GivenLine(index=k, cleared=_cleared([_ExprParser(e, "t").parse() for e in row]))
             for k, row in enumerate(rows, start=1)]
    plan = ConstructionPlan(name="g", var="t", n=max(len(rows), 1), steps=tuple(steps))
    assert_same_grid(plan, {k: tuple(map(parse_ratfunc, row))
                            for k, row in enumerate(rows, start=1)})
