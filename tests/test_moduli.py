import time
from fractions import Fraction as F

import pytest

from arrsym import corpus, moduli, polys
from arrsym.combinatorics import ConfigTable, Permutation, is_lattice_isomorphism
from arrsym.errors import (ConstraintError, DegenerateError, ParseError,
                           PoleError, ValidationError)
from arrsym.fields import QuadExt, quad_roots
from arrsym.geometry import ProjPoint, lattice_of
from arrsym.moduli import (derive_constraint, evaluate_plan, parse_plan,
                           realize_components, residual_numerators, root_product)
from arrsym.polys import MAX_DEGREE, Poly, parse_ratfunc

from conftest import Ref, chain_plan, constant_chain_plan, contains, rmul


def test_parse_shipped_plan():
    plan = corpus.get_case("{1}").plan
    assert plan.name == "{1}"
    assert plan.n == 10
    assert plan.var == "t"
    assert plan.grid_labels() == (4, 5, 3, 2)
    assert len(plan.requires()) == 12


@pytest.mark.parametrize("text,fragment", [
    ("plan p over t\nlines 2\nline 1 : 1 ; 0 ; 0\nline 2 : 1 ; 0 ; -1\n"
     "point P : meet 1 1\n", "itself"),
    ("plan p over t\nlines 3\nline 1 : 1 ; 0 ; 0\nline 2 : 0 ; 1 ; 0\n"
     "point P : meet 1 2\nline 3 : join P P\n", "line 3: join of a point with itself"),
    ("plan p over t\nlines 0\n", "grid"),
    ("plan p over t\nlines 1\nline 1 : 1 ; 0 ; 0\nrequire P on 1\n", "before"),
    ("plan p over t\nlines 1\nline 1 : 1 ; 0 ; 0\nline 1 : 0 ; 1 ; 0\n", "twice"),
    ("plan p over t\nlines 2\nline 1 : 1 ; 0 ; 0\n", "not defined"),
    ("lines 3\n", "header"),
    ("plan p over t\nlines \u00b2\n", "line count"),
    ("plan p over t\nlines 1\nline \u00b2 : 1 ; 0 ; 0\n", "line label"),
    ("plan p over t\nlines 1\nline 1 : 1 ; 0 ; 0\npoint P : meet 1 1\n"
     "require P on \u00b2\n", "line label"),
])
def test_parse_plan_errors(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_plan(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize("index, entries", [(1, "0 ; 0 ; t-t"), (9, "0 ; 0 ; 0")])
def test_a_given_line_of_three_zero_entries_is_refused(index, entries):
    # it was accepted: as line 1 the plan failed on "lines 1,2 coincide
    # identically", as line 9 every factor was discarded as degenerate
    text = corpus._read_data("case-1.plan")
    lines = [f"line {index} : {entries}" if line.startswith(f"line {index} :") else line
             for line in text.splitlines()]
    with pytest.raises(ParseError, match=f"^line {index}: all three entries are zero$"):
        parse_plan("\n".join(lines))


def test_oversized_plan_refused_before_any_work(monkeypatch):
    def untouched(*args):
        raise AssertionError("oversized input reached the work it asks for")

    monkeypatch.setattr(moduli, "_validate_plan", untouched)
    monkeypatch.setattr(polys, "_convolve", untouched)
    with pytest.raises(ParseError, match="more than 1024 lines"):
        parse_plan("plan p over t\nlines 1000000000\n")
    with pytest.raises(ParseError, match="exponent"):
        parse_plan("plan p over t\nlines 1\nline 1 : t^1000000000 ; 0 ; 0\n")
    with pytest.raises(ParseError, match="exponent"):
        parse_ratfunc("t^1000000000")


def test_plan_degree_is_bounded():
    [(_, _, num)] = residual_numerators(parse_plan(chain_plan(15)))
    assert 60 < num.degree <= MAX_DEGREE
    # without the bound its numerator reaches degree 1,122 at 21 lines
    plan = parse_plan(chain_plan(21))
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="points P16,Q16 has degree above 64"):
        residual_numerators(plan)
    assert time.perf_counter() - start < 1


def test_plan_coefficient_size_is_bounded():
    [(_, _, num)] = residual_numerators(parse_plan(constant_chain_plan(28)))
    assert num.degree == 0 and 80_000 < abs(num[0].numerator).bit_length() < 136_128


@pytest.mark.parametrize("n", [29, 34, 38])
def test_plan_coefficient_size_is_refused_before_it_is_computed(n):
    # the degree stays 0: without the bound 34 lines took 5 s and 38 over 90 s
    with pytest.raises(ValidationError, match="^the meet or join of points P29,Q29 "
                                              "has coefficients above 136128 bits$"):
        residual_numerators(parse_plan(constant_chain_plan(n)))


def test_evaluate_plan_at_root_gives_expected_lattice():
    case = corpus.get_case("{1}")
    _, plus, _ = quad_roots(1, -1, -1)
    arrangement = evaluate_plan(case.plan, plus)
    _, table = lattice_of(arrangement)
    assert is_lattice_isomorphism(table, case.config, Permutation.identity(10))


def test_evaluate_plan_off_root_is_well_defined():
    case = corpus.get_case("{1}")
    arrangement = evaluate_plan(case.plan, F(2))
    assert arrangement.n == 10
    _, table = lattice_of(arrangement)
    assert not is_lattice_isomorphism(table, case.config, Permutation.identity(10))


POLE_PLAN = ("plan pole over t\nlines 5\nline 1 : 1 ; 0 ; 0\nline 2 : 1 ; 0 ; -1\n"
             "line 3 : 0 ; 1 ; 0\nline 4 : 0 ; 1 ; -1\nline 5 : 1/(t^2-t-1) ; 1 ; 0\n")


@pytest.mark.parametrize("plan,t0,message", [
    (lambda: corpus.get_case("{1}").plan, lambda: F(0), "pole of (1)/(t) at 0"),
    (lambda: parse_plan(POLE_PLAN), lambda: quad_roots(1, -1, -1)[1],
     "pole of (1)/(t^2 - t - 1) at 1/2+1/2w"),
], ids=["{1} at 0", "golden root"])
def test_evaluate_plan_pole(plan, t0, message):
    # the first entry whose denominator vanishes at t0 names the pole
    with pytest.raises(PoleError) as info:
        evaluate_plan(plan(), t0())
    assert str(info.value) == message


def test_evaluate_plan_degenerate_parameter():
    # at t = 1 two of the parametrized lines coincide exactly
    case = corpus.get_case("{1}")
    with pytest.raises(DegenerateError):
        evaluate_plan(case.plan, F(1))


def test_evaluate_plan_degenerate_meet():
    text = ("plan d over t\nlines 5\n"
            "line 1 : 1 ; 0 ; 0\nline 2 : 1 ; 0 ; -1\n"
            "line 3 : 0 ; 1 ; 0\nline 4 : 0 ; 1 ; -1\n"
            "line 5 : 0 ; 1 ; -t\n"
            "point P : meet 3 5\nrequire P on 1\n")
    plan = parse_plan(text)
    # at t = 0, line 5 coincides with line 3 so their meet degenerates
    with pytest.raises((DegenerateError, ValidationError)):
        evaluate_plan(plan, F(0))


JOIN_PLAN = """\
plan join-demo over t
lines 6
line 1 : 1 ; 0 ; 0
line 2 : 1 ; 0 ; -1
line 3 : 0 ; 1 ; 0
line 4 : 0 ; 1 ; -1
line 5 : 0 ; 1 ; -t
point P : meet 1 3
point Q : meet 2 5
line 6 : join P Q
require Q on 6
"""


def test_join_lines_evaluate_and_derive():
    plan = parse_plan(JOIN_PLAN)
    # P = [0:0:1], Q = [1:t:1]; their join is y = t x
    arrangement = evaluate_plan(plan, F(3))
    assert contains(arrangement.line(6), ProjPoint((1, 3, 1)))
    # the requirement holds identically, so nothing constrains t
    with pytest.raises(ConstraintError):
        derive_constraint(plan, lattice_of(arrangement)[1])


def test_join_of_coincident_points_degenerates():
    text = JOIN_PLAN.replace("point Q : meet 2 5", "point Q : meet 1 3")
    plan = parse_plan(text.replace("require Q on 6", "require P on 6"))
    with pytest.raises(DegenerateError):
        evaluate_plan(plan, F(3))


EXPECTED = {
    "{1}": (Poly((-1, -1, 1)), 5, F(-1)),
    "{6}": (Poly((-1, 1, 1)), 5, F(-1)),
    "{7}": (Poly((-1, -1, 1)), 5, F(-1)),
    "maclane": (Poly((1, -1, 1)), -3, F(1)),
    "nazir-yoshinaga": (Poly((1, -2, 2)), -1, F(1, 2)),
    "11.B.3.b.2.iii": (Poly((1, -1, 1)), -3, F(1)),
    "11.B.3.b.2.iv": (Poly((1, 1, 1)), -3, F(1)),
    "11.B.2.iv": (Poly((1, -1, 1)), -3, F(1)),
    "falk-sturmfels": (Poly((-1, -1, 1)), 5, F(-1)),
}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_derive_constraint(name, realized):
    case, constraint, _, _ = realized(name)
    poly, d, product = EXPECTED[name]
    assert constraint.poly == poly
    assert constraint.field.d == d
    assert root_product(constraint.poly) == product
    assert constraint.roots[0].b > 0
    assert constraint.roots[1] == constraint.roots[0].conjugate()


def test_constraint_divides_every_residual(realized):
    for name in corpus.list_cases():
        case, constraint, _, _ = realized(name)
        for _, _, numerator in residual_numerators(case.plan):
            assert constraint.poly.divides(numerator), name


def test_discarded_factors_nazir_yoshinaga(realized):
    _, constraint, _, _ = realized("nazir-yoshinaga")
    reasons = {f.format("t"): reason for f, reason in constraint.discarded}
    assert reasons == {"2t^2 + 2t + 1": "not common to all requirements",
                       "t + 1": "not common to all requirements"}


# The first requirement leaves t^2 - t - 1; the second leaves it times a
# cofactor, which is not common to both requirements.
COFACTOR_PLAN = """\
plan cofactor over t
lines 6
line 1 : 1 ; 0 ; 0
line 2 : 1 ; 0 ; -1
line 3 : 0 ; 1 ; 0
line 4 : 0 ; 1 ; -1
line 5 : 1 ; 2 ; t^2 - t - 1
line 6 : 1 ; 1 ; (t^2 - t - 1)*(COFACTOR) - 2
point P : meet 1 3
point Q : meet 2 4
require P on 5
require Q on 6
"""


def discarded_cofactor(cofactor):
    plan = parse_plan(COFACTOR_PLAN.replace("COFACTOR", cofactor))
    numerators = [num for _, _, num in residual_numerators(plan)]
    factor = parse_ratfunc(cofactor, "t").num
    assert numerators[1] == Poly(rmul(numerators[0].coeffs, factor.coeffs))
    _, plus, _ = quad_roots(1, -1, -1)
    target = lattice_of(evaluate_plan(plan, plus))[1]
    constraint = derive_constraint(plan, target)
    assert constraint.poly == Poly((-1, -1, 1))
    return [(f.format("t"), reason) for f, reason in constraint.discarded]


def test_unfactorable_noncommon_factor_is_discarded():
    # the irreducible cubic t^3 - 2
    assert discarded_cofactor("t^3 - 2") == [
        ("t^3 - 2", "not common to all requirements")]


def test_noncommon_factor_too_large_to_factor_is_discarded():
    # its constant term is the product of two 16-digit primes
    rest = "t - 1000000000000128000000000003367"
    assert discarded_cofactor(rest) == [(rest, "not common to all requirements")]


def test_discarded_factors_case7(realized):
    _, constraint, _, _ = realized("{7}")
    discarded = {f.format("t") for f, _ in constraint.discarded}
    assert "t - 1" in discarded


def test_realize_components_both_match_target(realized):
    for name in corpus.list_cases():
        case, constraint, plus, minus = realized(name)
        for arrangement in (plus, minus):
            _, table = lattice_of(arrangement)
            assert is_lattice_isomorphism(table, case.config,
                                          Permutation.identity(case.config.n)), name


def test_realize_components_are_the_plan_at_the_roots(realized):
    for name in corpus.list_cases():
        case, constraint, plus, minus = realized(name)
        rp, rm = constraint.roots
        assert (plus, minus) == (evaluate_plan(case.plan, rp),
                                 evaluate_plan(case.plan, rm)), name
        assert (plus.name, minus.name) == (case.plan.name + "+",
                                           case.plan.name + "-")


def test_minus_is_galois_conjugate_of_plus(realized):
    for name in corpus.list_cases():
        _, _, plus, minus = realized(name)
        for i in range(1, plus.n + 1):
            conj = tuple(c.conjugate() for c in plus.line(i).coords)
            assert conj == minus.line(i).coords, name


def test_off_root_rational_fails_lattice_oracle(realized):
    # t0 = 7 avoids every pole and degeneracy in the shipped plans
    for name in corpus.list_cases():
        case, _, _, _ = realized(name)
        arrangement = evaluate_plan(case.plan, F(7))
        _, table = lattice_of(arrangement)
        assert not is_lattice_isomorphism(table, case.config,
                                          Permutation.identity(case.config.n)), name


def test_vieta_recomposition(realized):
    for name in corpus.list_cases():
        _, constraint, _, _ = realized(name)
        rp, rm = constraint.roots
        lead = constraint.poly[2]
        assert Ref.of(rp) + rm == QuadExt(-constraint.poly[1] / lead)
        assert Ref.of(rp) * rm == QuadExt(constraint.poly[0] / lead)


DEGREE_ONE_PLAN = """\
plan line5 over t
lines 5
line 1 : 1 ; 0 ; 0
line 2 : 1 ; 0 ; -1
line 3 : 0 ; 1 ; 0
line 4 : 0 ; 1 ; -1
line 5 : 1 ; 1 ; -t
point P : meet 1 4
require P on 5
"""


def test_degree_one_constraint_refuses_to_disconnect():
    plan = parse_plan(DEGREE_ONE_PLAN)
    target = lattice_of(evaluate_plan(plan, F(1)))[1]
    constraint = derive_constraint(plan, target)
    assert constraint.poly.degree == 1
    assert constraint.roots[0] == constraint.roots[1]
    with pytest.raises(ConstraintError):
        realize_components(plan, constraint)


# x = tz meets y = 0 at [t : 0 : 1], required on x = 2z: the one candidate is
# t - 2, where line 7's entry 1/(t-2) has its pole
POLE_AT_ROOT_PLAN = """\
plan pole over t
lines 7
line 1 : 1 ; 0 ; 0
line 2 : 1 ; 0 ; -1
line 3 : 0 ; 1 ; 0
line 4 : 0 ; 1 ; -1
line 5 : 1 ; 0 ; -t
line 6 : 1 ; 0 ; -2
line 7 : 1 ; 1/(t-2) ; 0
point P : meet 5 3
require P on 6
"""


def test_a_candidate_at_a_pole_is_discarded():
    plan = parse_plan(POLE_AT_ROOT_PLAN)
    with pytest.raises(ConstraintError) as info:
        derive_constraint(plan, ConfigTable("none", 7, []))
    assert str(info.value).endswith("(discarded: [('t - 2', 'pole at root of t - 2')])")


# x = ty meets y = z at [t : 1 : 1], required on x = 4z/t: t = 2 and t = -2
# give the same three triple points, so both factors are admissible
TWO_ROOTS_PLAN = """\
plan two over t
lines 6
line 1 : 1 ; 0 ; 0
line 2 : 1 ; 0 ; -1
line 3 : 0 ; 1 ; 0
line 4 : 0 ; 1 ; -1
line 5 : 1 ; -t ; 0
line 6 : 1 ; 0 ; -4/t
point P : meet 5 4
require P on 6
"""


def test_two_admissible_factors_are_refused():
    target = ConfigTable("two", 6, [("a", [1, 3, 5]), ("b", [4, 5, 6]), ("c", [1, 2, 6])])
    for root in (2, -2):
        assert lattice_of(evaluate_plan(parse_plan(TWO_ROOTS_PLAN), root))[1] == target
    with pytest.raises(ConstraintError, match="^more than one admissible factor: t - 2, t \\+ 2$"):
        derive_constraint(parse_plan(TWO_ROOTS_PLAN), target)


def test_zero_admissible_factors():
    case = corpus.get_case("{1}")
    wrong_target = corpus.get_case("{6}").config
    with pytest.raises(ConstraintError):
        derive_constraint(case.plan, wrong_target)


def test_derive_size_mismatch():
    case = corpus.get_case("{1}")
    other = corpus.get_case("maclane").config
    with pytest.raises(ValidationError):
        derive_constraint(case.plan, other)


def test_root_product_examples():
    assert root_product(Poly((-1, -1, 1))) == F(-1)
    assert root_product(Poly((1, -1, 1))) == F(1)
    assert root_product(Poly((1, -2, 2))) == F(1, 2)
    with pytest.raises(ValidationError):
        root_product(Poly((1, 1)))


def test_constraint_fields_give_a_root_product_only_for_a_quadratic(realized):
    _, constraint, _, _ = realized("nazir-yoshinaga")
    assert constraint.to_dict() == {
        "constraint": "2t^2 - 2t + 1", "field_d": -1,
        "roots": [str(r) for r in constraint.roots], "root_product": "1/2",
        "discarded": [[f.format("t"), reason] for f, reason in constraint.discarded]}
    linear = moduli.ModuliConstraint(poly=Poly((1, 1)), var="t", field=constraint.field,
                                     roots=(QuadExt(-1), QuadExt(-1)), discarded=(),
                                     realizations=())
    assert linear.to_dict()["root_product"] is None
