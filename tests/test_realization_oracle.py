"""The integer plan evaluation and lattice check against the QuadExt code
they replaced.

evaluate_plan runs a plan at a root on six-integer triples over Z[sqrt d]
and normalizes each line once; derive_constraint checks the target table
at the root on the integer keys of the lines' intersections.  The
references below are the replaced code, run on the Ref model of
tests/conftest.py: every entry, parsed alone from the plan's text,
evaluated as its numerator's value over its denominator's, meets and joins
as cross products, lines normalized by multiplying with the pivot's
inverse, and the lattice checked by lattice_of
plus is_lattice_isomorphism under the identity.  Both sides must give the
same lines down to their integer triples and fields, or the same exception
type and message.  The gates count QuadExt operators and lattice_of calls,
so they are exact, not timings."""

import sys
from collections import Counter
from functools import reduce
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrsym import corpus, moduli
from arrsym.combinatorics import ConfigTable, Permutation, is_lattice_isomorphism
from arrsym.errors import (ArrsymError, ConstraintError, DegenerateError, PoleError,
                           UnsupportedDegreeError, ValidationError, _quoted)
from arrsym.fields import RATIONAL, FieldSpec, QuadExt
from arrsym.geometry import (Arrangement, ProjLine, ProjPoint, _point_key, _primitive,
                             lattice_of)
from arrsym.moduli import (GivenLine, JoinLine, MeetPoint, ModuliConstraint, _shown,
                           derive_constraint, evaluate_plan, parse_plan,
                           residual_numerators)
from arrsym.polys import Poly, parse_ratfunc, poly_reduce
from arrsym.witness import run_case

from conftest import (ALL_CASES, GRID, REDUCED_PLAN, Ref, chain_plan, constant_chain_plan,
                      cross, norm, parsed_entries, plan_text, plans, quads, rdivmod, rgcd,
                      rprimitive)

SMALL_T = (0, 1, 2, 3, 7)


# -- references -----------------------------------------------------------------

def reference_normal(coords, field):
    """The normal form on the Ref model: every coordinate times the inverse
    of the first nonzero one, as QuadExts of ``field``.  It reads no key."""
    vals = [Ref.of(c) for c in coords]
    pivot = next((v for v in vals if not v.is_zero), None)
    if pivot is None:
        raise ValidationError("all three coefficients are zero")
    inv = pivot.inverse()
    return quads((v * inv for v in vals), field)


def reference_arrangement(name, field, normals):
    """(name, field, ((line field, normal form), ...)), refused as
    Arrangement refuses two equal lines, with normal forms compared."""
    seen = {}
    for idx, coords in enumerate(normals, start=1):
        if coords in seen:
            raise DegenerateError(
                f"lines {seen[coords]} and {idx} coincide after normalization")
        seen[coords] = idx
    return name, field, tuple((field, coords) for coords in normals)


def as_arrangement(reference):
    name, field, rows = reference
    return Arrangement(name, field, [coords for _, coords in rows])


def _reference_cross(u, v, what, plan, t0):
    w = cross(u, v)
    if all(e.is_zero for e in w):
        raise DegenerateError(f"{what} coincide at {plan.var}={_shown(t0)}")
    return w


def reference_value(entry, t0, var):
    """The entry's (num, den) value at t0 as the quotient of its evaluated
    numerator and denominator, or the PoleError the deleted ``RatFunc.eval``
    raised (its values written by moduli._shown, which cuts long ones)."""
    den = entry[1].eval(t0)
    if den.is_zero:
        raise PoleError(f"pole of {_shown(entry, var)} at {_shown(t0)}")
    return Ref.of(entry[0].eval(t0)) / den


def reference_evaluate_plan(plan, t0, entries):
    """``entries``: the given lines' (num, den) pairs by label (conftest.parsed_entries)."""
    if not isinstance(t0, QuadExt):
        t0 = QuadExt(t0)
    lines, points = {}, {}
    for step in plan.steps:
        if isinstance(step, GivenLine):
            lines[step.index] = tuple(reference_value(e, t0, plan.var)
                                      for e in entries[step.index])
        elif isinstance(step, MeetPoint):
            points[step.name] = _reference_cross(lines[step.i], lines[step.j],
                                                 f"lines {step.i},{step.j}", plan, t0)
        elif isinstance(step, JoinLine):
            what = f"points {_quoted(step.p, str)},{_quoted(step.q, str)}"
            lines[step.index] = _reference_cross(points[step.p], points[step.q],
                                                 what, plan, t0)
    return reference_arrangement(plan.name, t0.field,
                                 [reference_normal(lines[i], t0.field)
                                  for i in range(1, plan.n + 1)])


def reference_derive_constraint(plan, target, entries):
    """derive_constraint with the reference evaluation and the lattice
    checked by lattice_of and is_lattice_isomorphism; factors in messages
    are written by moduli._shown, which cuts long ones."""
    if plan.n != target.n:
        raise ValidationError("plan and table have different line counts")
    numerators = [Poly(num) for _, _, num in residual_numerators(plan)]
    discarded = []
    if not numerators:
        raise ConstraintError("no residual requirements: nothing constrains the parameter")
    common = numerators[0].coeffs
    for num in numerators[1:]:
        common = rgcd(common, num.coeffs)
    removed = []
    try:
        candidates = [f for f, _ in poly_reduce(Poly(common))] if len(common) > 1 else []
    except UnsupportedDegreeError:      # the gcd test, checked by its own oracles below
        kept, removed = moduli._realizable(plan, moduli._symbolic(plan)[0], target,
                                           integers(common))
        candidates = [f for f, _ in poly_reduce(Poly(kept))]
    seen_noncommon = set()
    for num in numerators:
        num = num.coeffs
        while len(shared := rgcd(num, common)) > 1:
            num = rdivmod(num, shared)[0]
        if len(num) < 2:
            continue
        try:
            factors = [f for f, _ in poly_reduce(Poly(num))]
        except (UnsupportedDegreeError, ValidationError):
            factors = [Poly(rprimitive(num)[1])]
        for factor in factors:
            if factor not in seen_noncommon:
                seen_noncommon.add(factor)
                discarded.append((factor, "not common to all requirements"))
    discarded += removed
    admissible = []
    for factor in candidates:
        field, roots = moduli._roots_of_factor(factor)
        verdict, realizations = None, []
        for root in roots if field.is_rational else roots[:1]:
            try:
                realization = reference_evaluate_plan(plan, root, entries)
            except PoleError:
                verdict = f"pole at root of {_shown(factor, plan.var)}"
                break
            except (DegenerateError, ValidationError) as exc:
                verdict = f"degenerate: {exc}"
                break
            _, derived = lattice_of(as_arrangement(realization))
            if not is_lattice_isomorphism(derived, target, Permutation.identity(plan.n)):
                verdict = "lattice mismatch"
                break
            realizations.append(realization)
        if verdict is None:
            if not field.is_rational:
                name, plus_field, rows = realizations[0]
                realizations.append(reference_arrangement(name, plus_field, [
                    tuple(c.conjugate() for c in coords) for _, coords in rows]))
            admissible.append((factor, field, roots, realizations))
        else:
            discarded.append((factor, verdict))
    if not admissible:
        raise ConstraintError(
            "zero admissible factors: no candidate realizes the target lattice "
            f"(discarded: {[(_shown(f, plan.var), r) for f, r in discarded]})")
    if len(admissible) > 1:
        polys = ", ".join(_shown(f, plan.var) for f, *_ in admissible)
        raise ConstraintError(f"more than one admissible factor: {polys}")
    factor, field, roots, realizations = admissible[0]
    return ModuliConstraint(poly=Poly(rprimitive(factor.coeffs)[1]), var=plan.var, field=field,
                            roots=(roots[0], roots[-1]), discarded=tuple(discarded),
                            realizations=(realizations[0], realizations[-1]))


def integers(p):
    """A nonzero polynomial of the model as its primitive integer tuple."""
    return tuple(map(int, rprimitive(p)[1]))


# -- comparison -----------------------------------------------------------------

def scalar(c):
    return c._p, c._q, c._den, c._d, c.field


def exact_arrangement(arrangement):
    """Everything an arrangement (or a reference one) holds, each coordinate
    as its integers and field, so equal values stored in other fields differ."""
    if isinstance(arrangement, Arrangement):
        arrangement = (arrangement.name, arrangement.field,
                       tuple((ln.field, ln.coords) for ln in arrangement.lines))
    name, field, rows = arrangement
    return name, field, tuple((f, tuple(map(scalar, coords))) for f, coords in rows)


def evaluated(run):
    try:
        return exact_arrangement(run())
    except (PoleError, DegenerateError, ValidationError) as exc:
        return type(exc), str(exc)


def assert_same_evaluation(plan, entries, t0):
    expected = evaluated(lambda: reference_evaluate_plan(plan, t0, entries))
    assert evaluated(lambda: evaluate_plan(plan, t0)) == expected
    return expected


def derived(run):
    try:
        c = run()
    except ArrsymError as exc:
        return type(exc), str(exc)
    return (c.poly, c.var, c.field, tuple(map(scalar, c.roots)), c.discarded,
            tuple(map(exact_arrangement, c.realizations)))


def assert_same_constraint(plan, entries, target):
    expected = derived(lambda: reference_derive_constraint(plan, target, entries))
    assert derived(lambda: derive_constraint(plan, target)) == expected
    return expected


# -- evaluate_plan --------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_CASES)
def test_corpus_plans_match_the_reference(name, realized):
    case, constraint, _, _ = realized(name)
    entries = parsed_entries(plan_text(name))
    for t0 in constraint.roots + SMALL_T:
        assert_same_evaluation(case.plan, entries, t0)


def test_the_corpus_reaches_every_outcome():
    """Poles, meets that degenerate, lines that coincide, and arrangements."""
    seen = set()
    for name in ALL_CASES:
        plan, entries = corpus.get_case(name).plan, parsed_entries(plan_text(name))
        for t0 in SMALL_T:
            result = assert_same_evaluation(plan, entries, t0)
            failed = isinstance(result[0], type)
            seen.add((result[0], "after normalization" in result[1]) if failed else "ok")
    assert seen == {(PoleError, False), (DegenerateError, False), (DegenerateError, True),
                    "ok"}


@pytest.mark.parametrize("n", range(8, 22))
def test_chain_plans_match_the_reference(n):
    plan, entries = parse_plan(chain_plan(n)), parsed_entries(chain_plan(n))
    for t0 in SMALL_T + (F(-5, 3), QuadExt(1, 2, FieldSpec.quadratic(-3))):
        assert_same_evaluation(plan, entries, t0)


def _roots(poly):
    """The roots of poly's linear and quadratic factors; none when it does not
    split into them."""
    try:
        factors = [f for f, _ in poly_reduce(poly)] if poly.degree > 0 else []
    except (UnsupportedDegreeError, ValidationError):
        return []
    return [r for f in factors for r in moduli._roots_of_factor(f)[1]]


def evaluation_points(plan, entries):
    """The roots of the plan's residual factors and of its entries'
    denominators, where the pole and degenerate paths are taken."""
    points = [QuadExt(0), QuadExt(1)]
    try:
        for _, _, num in residual_numerators(plan):
            points += _roots(Poly(num))
    except (DegenerateError, ValidationError):
        pass
    for row in entries.values():
        for entry in row:
            points += _roots(entry[1])
    return list(dict.fromkeys(points))


@settings(max_examples=200, deadline=None)
@given(plans())
def test_random_plans_match_the_reference(text):
    plan, entries = parse_plan(text), parsed_entries(text)
    for t0 in evaluation_points(plan, entries):
        assert_same_evaluation(plan, entries, t0)


def test_random_plans_reach_the_error_paths():
    """The strategy's plans do hit poles and degeneracies at their points."""
    seen = set()

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(plans())
    def collect(text):
        plan, entries = parse_plan(text), parsed_entries(text)
        for t0 in evaluation_points(plan, entries):
            result = assert_same_evaluation(plan, entries, t0)
            seen.add(result[0] if isinstance(result[0], type) else "arrangement")

    collect()
    assert {PoleError, DegenerateError, "arrangement"} <= seen


# -- the root evaluation --------------------------------------------------------
# derive_constraint realizes each candidate with evaluate_plan at its first
# root, the one evaluator at a point: the plan runs step by step there, on the
# keys of its lines.

def test_the_root_evaluation_matches_the_reference(realized):
    """On the corpus at its roots and at small t, 400 plans of the strategy at
    their evaluation points and the chain plans, evaluate_plan gives exactly
    the reference's lines, or its exception and message."""
    outcomes = Counter()

    def outcome(plan, entries, t0):
        result = assert_same_evaluation(plan, entries, t0)
        outcomes["arrangement" if not isinstance(result[0], type) else "raised"] += 1

    for name in ALL_CASES:
        case, constraint, _, _ = realized(name)
        entries = parsed_entries(plan_text(name))
        for t0 in constraint.roots + SMALL_T:
            outcome(case.plan, entries, t0)

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(plans())
    def drawn(text):
        plan, entries = parse_plan(text), parsed_entries(text)
        for t0 in evaluation_points(plan, entries):
            outcome(plan, entries, t0)

    drawn()
    for text in [chain_plan(n) for n in range(8, 16)] + [
            constant_chain_plan(n) for n in range(8, 29)]:
        plan, entries = parse_plan(text), parsed_entries(text)
        for t0 in SMALL_T + (F(-5, 3), QuadExt(1, 2, FieldSpec.quadratic(-3))):
            outcome(plan, entries, t0)
    assert outcomes["arrangement"] > 200 and outcomes["raised"] > 1000     # 275 and 1,946 here


def test_a_reduced_step_keeps_the_reduced_lines():
    """_cross reduces the meet of lines 5 and 6 from degree 80 to 40, and the
    factor it removes, (t-1)^40, vanishes at t = 1: _symbolic returns the
    lines of that reduced run, and evaluate_plan, which runs the plan at the
    point, gives the pole at t = 1 and the coincidence at t = 2."""
    plan = parse_plan(REDUCED_PLAN)
    lines, points = moduli._run_plan(plan, lambda step: step.cleared, moduli._cross)
    full = [*moduli._wedge(lines[5], lines[6]), moduli._convolve(lines[5][3], lines[6][3])]
    assert max(map(len, full)) == 81 and max(map(len, points["P"])) == 41
    assert moduli._symbolic(plan) == (lines, [("Q", 7, (1,))])
    for t0, error, message in ((1, PoleError, r"^pole of \(1\)/\(t\^40 - 40t\^39 "),
                               (2, DegenerateError, "^lines 3 and 7 coincide after "
                                                    "normalization$")):
        with pytest.raises(error, match=message):
            evaluate_plan(plan, t0)


# -- normal forms ---------------------------------------------------------------

FIELDS = [RATIONAL, FieldSpec.quadratic(-1), FieldSpec.quadratic(-3),
          FieldSpec.quadratic(2), FieldSpec.quadratic(5)]


@st.composite
def triples(draw):
    field = draw(st.sampled_from(FIELDS))
    ints = st.one_of(st.just(0), st.integers(-30, 30))
    coords = []
    for _ in range(3):
        a, b = F(draw(ints), draw(st.integers(1, 9))), F(draw(ints), draw(st.integers(1, 9)))
        coords.append(QuadExt(a, 0 if field.is_rational else b, field))
    return field, coords


def is_primitive(key):
    """Six coprime integers whose first nonzero entry pair is (s, 0), s > 0."""
    pivot = next(k for k in (0, 2, 4) if key[k] or key[k + 1])
    return gcd(*key) == 1 and key[pivot] > 0 and key[pivot + 1] == 0


@settings(max_examples=300, deadline=None)
@given(triples(), st.sampled_from([ProjLine, ProjPoint]),
       st.integers(-9, 9).filter(bool), st.integers(-9, 9), st.integers(1, 5))
@example((RATIONAL, [0, 0, 0]), ProjLine, 1, 0, 1)
@example((FieldSpec.quadratic(-3), [QuadExt(0), QuadExt(2, 1, FieldSpec.quadratic(-3)),
                                    QuadExt(1)]), ProjLine, -1, 3, 2)
def test_normal_forms_match_the_quadext_reference(triple, cls, p, q, den):
    field, coords = triple
    try:
        expected = reference_normal(coords, field)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=str(exc)):
            cls(coords, field)
        return
    got = cls(coords, field)
    assert is_primitive(got.key) and got.field == field
    assert list(map(scalar, got.coords)) == list(map(scalar, expected))
    # every nonzero multiple, irrational ones included, has the same key
    c = QuadExt(F(p, den), 0 if field.is_rational else F(q, den), field)
    multiple = cls(quads((Ref.of(c) * v for v in coords), field), field)
    assert multiple.key == got.key and multiple == got


# -- the key kernel on raw integer vectors --------------------------------------

SQRT5, SQRT7 = FieldSpec.quadratic(5), FieldSpec.quadratic(7)


@st.composite
def raw_keys(draw, field):
    """Six integers (a0, b0, a1, b1, a2, b2) for the triple (a_k + b_k*sqrt d)_k,
    not made primitive; the sqrt(d) parts are zero on the rationals, and may
    all be zero on a quadratic field too."""
    ints = st.one_of(st.just(0), st.integers(-40, 40), st.integers(-10**9, 10**9))
    rational = field.is_rational or draw(st.booleans())
    return tuple(draw(st.just(0) if rational and k % 2 else ints) for k in range(6))


@st.composite
def kernel_inputs(draw):
    """A field, two raw keys of it and a nonzero p + q*sqrt(d) of Z[sqrt d]."""
    field = draw(st.sampled_from(FIELDS + [SQRT7]))
    p, q = draw(st.integers(-9, 9)), 0 if field.is_rational else draw(st.integers(-9, 9))
    return field, draw(raw_keys(field)), draw(raw_keys(field)), (p if p or q else 1, q)


def times(w, c, d):
    """(a + b*sqrt d)(p + q*sqrt d) = (ap + d*bq) + (aq + bp)*sqrt d, entrywise."""
    p, q = c
    return tuple(x for a, b in zip(w[::2], w[1::2]) for x in (a * p + d * b * q, a * q + b * p))


def as_triple(w, field):
    return tuple(QuadExt(w[k], w[k + 1], field) for k in (0, 2, 4))


def keyed_normal(key, field):
    """The normal form a key stands for, read from the key alone."""
    return list(map(scalar, ProjPoint._keyed(key, field).coords))


@settings(max_examples=500, deadline=None)
@given(kernel_inputs())
@example((SQRT5, (1, 1, 2, 0, 0, 3), (0, 0, 0, 0, 1, 0), (2, 0)))   # norm 1 - 5 < 0
@example((SQRT5, (0, 0, -6, -4, 2, 2), (0, 0, 1, 1, 3, 0), (1, 1)))  # norm 36 - 80 < 0
@example((FieldSpec.quadratic(2), (3, 3, 0, 1, 5, 0), (1, 0, 0, 0, 0, 0), (-1, 1)))
@example((SQRT7, (4, 0, -6, 0, 2, 0), (6, 0, 1, 0, 0, 0), (0, 3)))    # no sqrt(d) part
@example((FieldSpec.quadratic(-3), (0, 0, -4, 0, 10, 0), (0, 0, 0, 0, -7, 0), (2, -1)))
@example((RATIONAL, (0, 0, 0, 0, 0, 0), (-12, 0, 8, 0, 4, 0), (3, 0)))
def test_the_key_kernel_matches_the_quadext_reference(inputs):
    """_primitive on a raw vector is the QuadExt normal form's key, the same
    for every nonzero multiple over Z[sqrt d]; _point_key(u, v) is the key of
    the QuadExt cross product, and refuses two multiples of one line."""
    field, u, v, c = inputs
    d = field.d or 0
    for w in (u, v):
        try:
            expected = reference_normal(as_triple(w, field), field)
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=str(exc)):
                _primitive(w, d)
            continue
        key = _primitive(w, d)
        assert is_primitive(key) and keyed_normal(key, field) == list(map(scalar, expected))
        assert _primitive(times(w, c, d), d) == key
        with pytest.raises(DegenerateError, match="intersect of identical lines"):
            _point_key(w, times(w, c, d), d)
    meet = cross(as_triple(u, field), as_triple(v, field))
    if all(e.is_zero for e in meet):
        with pytest.raises(DegenerateError, match="intersect of identical lines"):
            _point_key(u, v, d)
        return
    key = _point_key(u, v, d)
    assert is_primitive(key)
    assert keyed_normal(key, field) == list(map(scalar, reference_normal(meet, field)))


# -- derive_constraint ----------------------------------------------------------

@pytest.mark.parametrize("name", ALL_CASES)
def test_corpus_constraints_match_the_reference(name):
    case, entries = corpus.get_case(name), parsed_entries(plan_text(name))
    assert not isinstance(assert_same_constraint(case.plan, entries, case.config)[0], type)
    other = corpus.get_case("{1}" if name != "{1}" else "{6}").config
    if other.n == case.config.n:        # a wrong target: every factor mismatches
        assert assert_same_constraint(case.plan, entries, other)[0] is ConstraintError


@settings(max_examples=100, deadline=None)
@given(plans())
def test_random_constraints_match_the_reference(text):
    plan, entries = parse_plan(text), parsed_entries(text)
    targets = [ConfigTable("none", plan.n, [])]
    for t0 in evaluation_points(plan, entries):
        try:
            reference = reference_evaluate_plan(plan, t0, entries)
        except (PoleError, DegenerateError, ValidationError):
            continue
        targets.append(lattice_of(as_arrangement(reference))[1])
    for target in targets:
        assert_same_constraint(plan, entries, target)


# -- gates ----------------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_CASES)
def test_evaluate_plan_calls_no_quadext_operator(name, realized):
    """An operator called here, by the test or the package, is recorded by
    conftest's session-wide wrapper and fails the session's last test."""
    case, constraint, plus, minus = realized(name)
    for root, realization in zip(constraint.roots, (plus, minus)):
        assert evaluate_plan(case.plan, root).lines == realization.lines
    for t0 in (2, F(3), QuadExt(7)):
        evaluate_plan(case.plan, t0)


@pytest.mark.parametrize("name", ALL_CASES)
def test_run_case_calls_no_quadext_method(name, method_calls):
    """quad_roots builds both roots from integers; the plan, the lattice
    check, the "-" realization and verification all run on integer keys."""
    case = corpus.get_case(name)
    assert run_case(name, case.config, case.plan).status == case.expected_status
    assert method_calls == []


@pytest.mark.parametrize("name", ALL_CASES)
def test_derive_constraint_checks_the_lattice_on_keys(name, monkeypatch):
    calls = []

    def refuse(*args):
        calls.append(args)
        raise AssertionError("the lattice check builds no lattice")

    for module in [m for n, m in sys.modules.items() if n.startswith("arrsym")]:
        for attr in ("lattice_of", "is_lattice_isomorphism"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, refuse)
    case = corpus.get_case(name)
    assert derive_constraint(case.plan, case.config).poly == case.expected_constraint
    assert calls == []


# -- the gcd test ---------------------------------------------------------------
# A gcd that poly_reduce refuses is decided by gcds on the plan's lines over
# Q(t) (moduli._realizable): divisibility there against exact evaluation at a
# root (evaluate_plan, then _realizes) in the candidates.

def gcd_test_outcome(plan, target):
    """The gcd test applied to the whole common gcd gives exactly
    derive_constraint's admissible factor, or, where derive_constraint raises,
    the error it raises: ConstraintError for none or several factors,
    UnsupportedDegreeError for a part of degree 3 or more every root of which
    realizes target (several factors if the gcd itself splits), and the
    ValidationError, message and all, of a test that is too much work, where
    poly_reduce refuses the gcd and derive_constraint runs the same test."""
    try:
        lines, residuals = moduli._symbolic(plan)
    except (DegenerateError, ValidationError):
        return "no run"
    numerators = [norm(num) for _, _, num in residuals]
    if not numerators:
        return "no requirement"
    common = reduce(rgcd, numerators)
    try:
        kept = moduli._realizable(plan, lines, target, integers(common))[0] if common[1:] else ()
    except UnsupportedDegreeError:
        try:
            poly_reduce(Poly(common))
            expected = ConstraintError
        except UnsupportedDegreeError:
            expected = UnsupportedDegreeError
    except ValidationError as exc:
        try:
            poly_reduce(Poly(common))
            expected = None             # the gcd splits: derive_constraint runs no gcd test
        except UnsupportedDegreeError:
            expected = ValidationError, str(exc)
    else:
        factors = poly_reduce(Poly(kept)) if len(kept) > 1 else []
        expected = Poly(kept) if len(factors) == 1 else ConstraintError
    try:
        got = derive_constraint(plan, target).poly
    except (ConstraintError, UnsupportedDegreeError) as exc:
        got = type(exc)
    except ValidationError as exc:
        got = ValidationError, str(exc)
    if expected is None:
        assert type(got) is not tuple
        return "not decided by gcds"
    assert got == expected
    return "constraint" if type(got) is Poly else got[0] if type(got) is tuple else got


def test_the_gcd_test_gives_the_admissible_factor():
    """On the corpus, against its tables and a wrong one, and on 400 plans of
    the strategy, against no point and the lattices at their evaluation points."""
    outcomes = Counter()
    for name in ALL_CASES:
        case = corpus.get_case(name)
        outcomes[gcd_test_outcome(case.plan, case.config)] += 1
        other = corpus.get_case("{1}" if name != "{1}" else "{6}").config
        if other.n == case.config.n:
            outcomes[gcd_test_outcome(case.plan, other)] += 1

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(plans())
    def drawn(text):
        plan = parse_plan(text)
        targets = {ConfigTable("none", plan.n, [])}
        for t0 in evaluation_points(plan, parsed_entries(text)):
            try:
                targets.add(lattice_of(evaluate_plan(plan, t0))[1])
            except (PoleError, DegenerateError, ValidationError):
                pass
        for target in targets:
            outcomes[gcd_test_outcome(plan, target)] += 1

    drawn()
    assert outcomes["constraint"] >= 9 and outcomes[ConstraintError] > 100, outcomes


# The requirement leaves (t^2 - t - 1)*X with X = t^3 - 2, whose roots make
# line 5 what each reason says; at the roots of t^2 - t - 1 the plan realizes
# the table.
TOY = """\
plan toy over t
lines 5
line 1 : 1 ; 0 ; 0
line 2 : 1 ; 0 ; -1
line 3 : 0 ; 1 ; 0
line 4 : 0 ; 1 ; -1
line 5 : LINE5
point P : meet 1 3
require P on 5
"""
X, GOLDEN = Poly((-2, 0, 0, 1)), Poly((-1, -1, 1))
ONE_POINT = ConfigTable("toy", 5, [("m1", [1, 3, 5])])
TWO_POINTS = ConfigTable("toy", 5, [("m1", [1, 3, 5]), ("m2", [2, 4, 5])])


@pytest.mark.parametrize("line5, table, reason", [
    ("1 ; 1/(t^3-2) ; (t^2-t-1)*(t^3-2)", ONE_POINT, "pole of line 5"),
    ("t^3-2 ; t*(t^3-2) ; (t^2-t-1)*(t^3-2)", ONE_POINT, "line 5 vanishes"),
    ("1 ; t^3-2 ; (t^2-t-1)*(t^3-2)", ONE_POINT, "lines 1,5 coincide"),
    ("1 ; t^3-3 ; (t^2-t-1)*(t^3-2)", ONE_POINT, "lines 2,4,5 concurrent"),   # on 2 and 4's point
    ("1 ; t^2-t-2 ; (t^2-t-1)*(t^3-2)", TWO_POINTS, "lines 2,4,5 not concurrent"),
])
def test_a_cubic_the_table_does_not_need_is_discarded(line5, table, reason):
    plan = parse_plan(TOY.replace("LINE5", line5))
    [(_, _, numerator)] = residual_numerators(plan)
    assert len(numerator) == 6
    lines = moduli._symbolic(plan)[0]
    assert moduli._realizable(plan, lines, table, numerator) == (GOLDEN._c, [(X, reason)])
    constraint = derive_constraint(plan, table)
    assert constraint.poly == GOLDEN and constraint.discarded == ((X, reason),)


# A plans() draw whose requirement leaves a square-free gcd of degree 18 on 11
# lines: the gcd test is refused as too much work, by gcd_test_outcome's call
# and by derive_constraint alike.
COSTLY_PLAN = "\n".join(["plan h over t", "lines 11", *GRID,
                         "line 5 : 0 ; 0 ; 1", "line 6 : 1/(t^2+1) ; t^2 ; 1/(t+1)",
                         "line 7 : t^2 ; (-t^2-2)/t ; 0", "line 8 : -t ; 1/(t^2+1) ; 0",
                         "point P0 : meet 6 2", "point P1 : meet 7 2", "line 9 : join P0 P1",
                         "point P2 : meet 9 1", "line 10 : join P1 P2", "point P3 : meet 10 8",
                         "line 11 : join P0 P1", "point P4 : meet 11 1", "require P3 on 6"])


def test_a_gcd_test_that_is_too_much_work_is_refused_alike():
    plan = parse_plan(COSTLY_PLAN)
    assert gcd_test_outcome(plan, ConfigTable("none", 11, [])) is ValidationError
    with pytest.raises(ValidationError, match=r"^deciding t\^18 \+ 2t\^17 \+ .* by gcds on "
                                              r"11 lines is too much work$"):
        derive_constraint(plan, ConfigTable("none", 11, []))


def test_a_cubic_every_root_of_which_realizes_the_table_is_refused():
    plan = parse_plan(TOY.replace("LINE5", "1 ; t^3-3 ; (t^2-t-1)*(t^3-2)"))
    with pytest.raises(UnsupportedDegreeError, match=r"^every root of t\^3 - 2 realizes the table"):
        derive_constraint(plan, TWO_POINTS)


def _times(text, label, factor):
    """The plan text with each entry of the given line ``label`` times factor,
    written over t."""
    factor = factor.replace("t", parse_plan(text).var)
    head = f"line {label} : "
    row = next(r for r in text.splitlines() if r.startswith(head))
    scaled = " ; ".join(f"({factor})*({e.strip()})" for e in row[len(head):].split(";"))
    return text.replace(row, head + scaled)


def _scalable(plan):
    """The lines of the plan that are given, not joined, and not grid lines."""
    return {s.index for s in plan.steps if isinstance(s, GivenLine)} - set(plan.grid_labels())


def _scaled(text, labels, factor):
    """The plan text with each entry of the lines ``labels`` times factor."""
    for label in labels:
        text = _times(text, label, factor)
    return text


def assert_the_constraint_stays(text, labels, target, factor):
    """derive_constraint gives the same constraint, roots and realizations
    with each entry of the lines ``labels`` times factor; the scaled one."""
    before = derive_constraint(parse_plan(text), target)
    after = derive_constraint(parse_plan(_scaled(text, labels, factor)), target)
    assert derived(lambda: after)[:-2] == derived(lambda: before)[:-2]
    assert derived(lambda: after)[-1] == derived(lambda: before)[-1]
    return after


@pytest.mark.parametrize("factor", ["t^3-2", "(t-5)*(t^2+2)", "t^4+1"])
@pytest.mark.parametrize("name", ALL_CASES + ["toy"])
def test_a_factor_that_makes_a_line_vanish_leaves_the_constraint(name, factor):
    """Each entry of a requirement's line times a factor: at the factor's roots
    the line vanishes, and elsewhere it is the same line."""
    if name == "toy":       # one requirement: the factor joins the common gcd
        text, label, target = TOY.replace("LINE5", "1 ; 2 ; t^2-t-1"), 5, ONE_POINT
    else:
        text, target = plan_text(name), corpus.get_case(name).config
        plan = parse_plan(text)
        label = next((req.line for req in plan.requires() if req.line in _scalable(plan)), None)
    assert label is not None
    after = assert_the_constraint_stays(text, [label], target, factor)
    if name == "toy":
        assert after.discarded == ((parse_ratfunc(factor)[0], "line 5 vanishes"),)


def _through_requirements(plan):
    """For each requirement in turn, its line if that is scalable, else a
    scalable line its point is the meet of, else none: one line each."""
    meets = {s.name: (s.i, s.j) for s in plan.steps if isinstance(s, MeetPoint)}
    scalable = _scalable(plan)
    return [next((v for v in (req.line, *meets[req.point]) if v in scalable), None)
            for req in plan.requires()]


def test_a_factor_that_makes_a_line_vanish_leaves_drawn_constraints(monkeypatch):
    """The same with t^3 - 2 on 400 plans of the strategy, against the
    lattices at their evaluation points, wherever derive_constraint gives a
    constraint, on one line for each requirement it can reach: a
    requirement's line, or else a line its point lies on.  Where it reaches
    every requirement the factor joins the common gcd, which poly_reduce
    refuses; the gcd test cuts the cubic off, and each candidate left is
    checked at its root after it."""
    outcomes, tests = Counter(), []
    realizable = moduli._realizable
    monkeypatch.setattr(moduli, "_realizable", lambda *args: tests.append(args) or
                        realizable(*args))

    @settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @given(plans())
    def drawn(text):
        plan = parse_plan(text)
        labels = [v for v in _through_requirements(plan) if v is not None]
        targets = set()
        for t0 in evaluation_points(plan, parsed_entries(text)) if labels else ():
            try:
                targets.add(lattice_of(evaluate_plan(plan, t0))[1])
            except (PoleError, DegenerateError, ValidationError):
                pass
        for target in targets:
            try:
                derive_constraint(plan, target)
            except ArrsymError:
                continue
            tests.clear()
            assert_the_constraint_stays(text, dict.fromkeys(labels), target, "t^3-2")
            outcomes["by gcds" if tests else "factored"] += 1

    drawn()
    assert outcomes["by gcds"] >= 15, outcomes     # 20 here, each reaching every requirement
