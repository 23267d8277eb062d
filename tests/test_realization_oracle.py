"""The integer plan evaluation and lattice check against the QuadExt code
they replaced.

evaluate_plan runs a plan at a root on six-integer triples over Z[sqrt d]
and normalizes each line once; derive_constraint compares the lattice at
the root on the integer keys of its pairwise intersections.  The
references below are the replaced code, run on the Ref model of
tests/conftest.py: every entry evaluated as its numerator's value over its
denominator's, meets and joins as cross products, lines normalized by
multiplying with the pivot's inverse, and the lattice checked by lattice_of
plus is_lattice_isomorphism under the identity.  Both sides must give the
same lines down to their integer triples and fields, or the same exception
type and message.  The gates count QuadExt operators and lattice_of calls,
so they are exact, not timings."""

import sys
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
from arrsym.moduli import (GivenLine, JoinLine, MeetPoint, ModuliConstraint,
                           derive_constraint, evaluate_plan, parse_plan,
                           residual_numerators)
from arrsym.polys import Poly, poly_reduce
from arrsym.witness import run_case

from conftest import (ALL_CASES, Ref, chain_plan, cross, plans, quads, rdivmod, rgcd,
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
        raise DegenerateError(f"{what} coincide at {plan.var}={t0}")
    return w


def reference_value(entry, t0):
    """The entry's value at t0 as the quotient of its evaluated numerator and
    denominator, or the PoleError the deleted ``RatFunc.eval`` raised."""
    den = entry.den.eval(t0)
    if den.is_zero:
        raise PoleError(f"pole of {entry} at {t0}")
    return Ref.of(entry.num.eval(t0)) / den


def reference_evaluate_plan(plan, t0):
    if not isinstance(t0, QuadExt):
        t0 = QuadExt(t0)
    lines, points = {}, {}
    for step in plan.steps:
        if isinstance(step, GivenLine):
            lines[step.index] = tuple(reference_value(e, t0) for e in step.entries)
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


def reference_derive_constraint(plan, target):
    """derive_constraint with the reference evaluation and the lattice
    checked by lattice_of and is_lattice_isomorphism."""
    if plan.n != target.n:
        raise ValidationError("plan and table have different line counts")
    numerators = [num for _, _, num in residual_numerators(plan)]
    discarded = []
    if not numerators:
        raise ConstraintError("no residual requirements: nothing constrains the parameter")
    common = numerators[0].coeffs
    for num in numerators[1:]:
        common = rgcd(common, num.coeffs)
    candidates = [f for f, _ in poly_reduce(Poly(common))] if len(common) > 1 else []
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
    admissible = []
    for factor in candidates:
        field, roots = moduli._roots_of_factor(factor)
        verdict, realizations = None, []
        for root in roots if field.is_rational else roots[:1]:
            try:
                realization = reference_evaluate_plan(plan, root)
            except PoleError:
                verdict = f"pole at root of {factor.format(plan.var)}"
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
            f"(discarded: {[(f.format(plan.var), r) for f, r in discarded]})")
    if len(admissible) > 1:
        polys = ", ".join(f.format(plan.var) for f, *_ in admissible)
        raise ConstraintError(f"more than one admissible factor: {polys}")
    factor, field, roots, realizations = admissible[0]
    return ModuliConstraint(poly=Poly(rprimitive(factor.coeffs)[1]), var=plan.var, field=field,
                            roots=(roots[0], roots[-1]), discarded=tuple(discarded),
                            realizations=(realizations[0], realizations[-1]))


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


def evaluated(run, plan, t0):
    try:
        return exact_arrangement(run(plan, t0))
    except (PoleError, DegenerateError, ValidationError) as exc:
        return type(exc), str(exc)


def assert_same_evaluation(plan, t0):
    expected = evaluated(reference_evaluate_plan, plan, t0)
    assert evaluated(evaluate_plan, plan, t0) == expected
    return expected


def derived(run, plan, target):
    try:
        c = run(plan, target)
    except ArrsymError as exc:
        return type(exc), str(exc)
    return (c.poly, c.var, c.field, tuple(map(scalar, c.roots)), c.discarded,
            tuple(map(exact_arrangement, c.realizations)))


def assert_same_constraint(plan, target):
    expected = derived(reference_derive_constraint, plan, target)
    assert derived(derive_constraint, plan, target) == expected
    return expected


# -- evaluate_plan --------------------------------------------------------------

@pytest.mark.parametrize("name", ALL_CASES)
def test_corpus_plans_match_the_reference(name, realized):
    case, constraint, _, _ = realized(name)
    for t0 in constraint.roots + SMALL_T:
        assert_same_evaluation(case.plan, t0)


def test_the_corpus_reaches_every_outcome():
    """Poles, meets that degenerate, lines that coincide, and arrangements."""
    seen = set()
    for name in ALL_CASES:
        for t0 in SMALL_T:
            result = assert_same_evaluation(corpus.get_case(name).plan, t0)
            failed = isinstance(result[0], type)
            seen.add((result[0], "after normalization" in result[1]) if failed else "ok")
    assert seen == {(PoleError, False), (DegenerateError, False), (DegenerateError, True),
                    "ok"}


@pytest.mark.parametrize("n", range(8, 22))
def test_chain_plans_match_the_reference(n):
    plan = parse_plan(chain_plan(n))
    for t0 in SMALL_T + (F(-5, 3), QuadExt(1, 2, FieldSpec.quadratic(-3))):
        assert_same_evaluation(plan, t0)


def _roots(poly):
    """The roots of poly's linear and quadratic factors; none when it does not
    split into them."""
    try:
        factors = [f for f, _ in poly_reduce(poly)] if poly.degree > 0 else []
    except (UnsupportedDegreeError, ValidationError):
        return []
    return [r for f in factors for r in moduli._roots_of_factor(f)[1]]


def evaluation_points(plan):
    """The roots of the plan's residual factors and of its entries'
    denominators, where the pole and degenerate paths are taken."""
    points = [QuadExt(0), QuadExt(1)]
    try:
        for _, _, num in residual_numerators(plan):
            points += _roots(num)
    except (DegenerateError, ValidationError):
        pass
    for step in plan.steps:
        if isinstance(step, GivenLine):
            for entry in step.entries:
                points += _roots(entry.den)
    return list(dict.fromkeys(points))


@settings(max_examples=200, deadline=None)
@given(plans())
def test_random_plans_match_the_reference(text):
    plan = parse_plan(text)
    for t0 in evaluation_points(plan):
        assert_same_evaluation(plan, t0)


def test_random_plans_reach_the_error_paths():
    """The strategy's plans do hit poles and degeneracies at their points."""
    seen = set()

    @settings(max_examples=100, deadline=None, database=None, derandomize=True)
    @given(plans())
    def collect(text):
        plan = parse_plan(text)
        for t0 in evaluation_points(plan):
            result = assert_same_evaluation(plan, t0)
            seen.add(result[0] if isinstance(result[0], type) else "arrangement")

    collect()
    assert {PoleError, DegenerateError, "arrangement"} <= seen


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
    case = corpus.get_case(name)
    assert not isinstance(assert_same_constraint(case.plan, case.config)[0], type)
    other = corpus.get_case("{1}" if name != "{1}" else "{6}").config
    if other.n == case.config.n:        # a wrong target: every factor mismatches
        assert assert_same_constraint(case.plan, other)[0] is ConstraintError


@settings(max_examples=100, deadline=None)
@given(plans())
def test_random_constraints_match_the_reference(text):
    plan = parse_plan(text)
    targets = [ConfigTable("none", plan.n, [])]
    for t0 in evaluation_points(plan):
        try:
            targets.append(lattice_of(as_arrangement(reference_evaluate_plan(plan, t0)))[1])
        except (PoleError, DegenerateError, ValidationError):
            continue
    for target in targets:
        assert_same_constraint(plan, target)


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
