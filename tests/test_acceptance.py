"""Acceptance suite: every criterion checked at its stated tolerance (all
tolerances are exact), one printed pass/fail line per criterion.

Runnable under pytest or directly:  python tests/test_acceptance.py
"""

from fractions import Fraction as F

from arrsym import corpus
from arrsym.combinatorics import (Permutation, automorphism_group,
                                  is_lattice_isomorphism)
from arrsym.fields import QuadExt, quad_roots
from arrsym.geometry import MapKind, lattice_of
from arrsym.moduli import (derive_constraint, evaluate_plan,
                           realize_components, root_product)
from arrsym.polys import Poly
from arrsym.witness import extract_sigma, run_pipeline, verify_reflection

from conftest import Ref, apply_map, relabel


EXPECTED_AUT_ORDERS = {
    "{1}": 2, "{6}": 2, "{7}": 24, "maclane": 48, "nazir-yoshinaga": 6,
    "11.B.3.b.2.iii": 2, "11.B.3.b.2.iv": 2, "11.B.2.iv": 2,
    "falk-sturmfels": 4,
}

EXPECTED_CONSTRAINTS = {
    "{1}": Poly((-1, -1, 1)),
    "{6}": Poly((-1, 1, 1)),
    "{7}": Poly((-1, -1, 1)),
    "maclane": Poly((1, -1, 1)),
    "nazir-yoshinaga": Poly((1, -2, 2)),
    "11.B.3.b.2.iii": Poly((1, -1, 1)),
    "11.B.3.b.2.iv": Poly((1, 1, 1)),
    "11.B.2.iv": Poly((1, -1, 1)),
}

EXPECTED_ROOT_PRODUCTS = {
    "{1}": F(-1), "{6}": F(-1), "{7}": F(-1),
    "maclane": F(1), "nazir-yoshinaga": F(1, 2),
    "11.B.3.b.2.iii": F(1), "11.B.3.b.2.iv": F(1), "11.B.2.iv": F(1),
}

POSITIVE = [name for name in EXPECTED_CONSTRAINTS]

_realized = {}


def realize(name):
    if name not in _realized:
        case = corpus.get_case(name)
        constraint = derive_constraint(case.plan, case.config)
        plus, minus = realize_components(case.plan, constraint)
        _realized[name] = (case, constraint, plus, minus)
    return _realized[name]


def report(criterion, ok):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed"


def test_criterion_1_automorphism_group_orders():
    ok = all(automorphism_group(corpus.get_case(name).config).order == order
             for name, order in EXPECTED_AUT_ORDERS.items())
    report("1 (automorphism group orders, exact)", ok)


def test_criterion_2_derived_constraints():
    ok = True
    for name, expected in EXPECTED_CONSTRAINTS.items():
        _, constraint, _, _ = realize(name)
        # equality up to rational scaling: both sides are primitive with
        # positive leading coefficient, so compare exactly
        ok = ok and constraint.poly == expected
        if name == "{1}":
            _, plus, minus = quad_roots(1, -1, -1)
            ok = ok and constraint.roots == (plus, minus)
    report("2 (derived constraints, exact up to scaling)", ok)


def test_criterion_3_root_products():
    ok = all(root_product(realize(name)[1].poly) == value
             for name, value in EXPECTED_ROOT_PRODUCTS.items())
    report("3 (root products, exact)", ok)


def test_criterion_4_reflection_verification():
    ok = True
    for name in POSITIVE:
        case, constraint, plus, minus = realize(name)
        witness = verify_reflection(plus, minus, case.sigma, case.map)
        ok = ok and witness.verified
        ok = ok and (case.map.conjugate == (name == "maclane"))
    fs_report = run_pipeline("falk-sturmfels")
    ok = ok and fs_report.status == "FAILURE"
    ok = ok and all(not attempt.verified for attempt in fs_report.attempts)
    report("4 (reflection witnesses + negative case)", ok)


def test_criterion_5_lattice_oracle():
    ok = True
    for name in POSITIVE:
        case, constraint, plus, minus = realize(name)
        for arrangement in (plus, minus):
            points, table = lattice_of(arrangement)
            ok = ok and is_lattice_isomorphism(
                table, case.config, Permutation.identity(case.config.n))
            ok = ok and len(points) == len(table.points)
    table = lattice_of(realize("{1}")[2])[1]
    census = {**table.multiplicity_census(), 2: table.double_count()}
    ok = ok and census == {4: 2, 3: 8, 2: 9}
    report("5 (lattice oracle at both roots, pair counts exact)", ok)


def test_criterion_6_property_suites():
    ok = True
    # involution laws
    field, plus, minus = quad_roots(1, -1, -1)
    ok = ok and plus.conjugate().conjugate() == plus
    for name in ("{1}", "maclane"):
        _, _, aplus, _ = realize(name)
        for swap, conj in ((True, False), (False, True), (True, True)):
            kind = MapKind(swap, conj)
            twice = apply_map(apply_map(aplus, kind), kind)
            ok = ok and twice == aplus
    # Vieta recomposition
    for name in POSITIVE:
        _, constraint, _, _ = realize(name)
        rp, rm = constraint.roots
        lead = constraint.poly[2]
        ok = ok and Ref.of(rp) + rm == QuadExt(-constraint.poly[1] / lead)
        ok = ok and Ref.of(rp) * rm == QuadExt(constraint.poly[0] / lead)
    # converse consistency: every verified witness yields an extractable
    # non-identity lattice isomorphism
    for name in POSITIVE:
        case, _, aplus, aminus = realize(name)
        sigma = extract_sigma(aplus, aminus, case.map)
        ok = ok and sigma == case.sigma and sigma != Permutation.identity(sigma.degree)
        ok = ok and relabel(apply_map(aminus, case.map), sigma) == aplus
    # off-root evaluation fails the lattice oracle for every shipped case
    for name in corpus.list_cases():
        case = corpus.get_case(name)
        arrangement = evaluate_plan(case.plan, F(7))
        _, table = lattice_of(arrangement)
        ok = ok and not is_lattice_isomorphism(
            table, case.config, Permutation.identity(case.config.n))
    report("6 (property suites)", ok)


def test_criterion_7_out_of_scope_results_absent():
    # homeomorphism of pairs, fundamental groups, and the glued example's
    # realization are not reproducible here; the corpus must not claim them
    names = corpus.list_cases()
    ok = "rybnikov" not in names and len(names) == 9
    statuses = [run_pipeline(name).status for name in names]
    ok = ok and statuses.count("SUCCESS") == 8 and statuses.count("FAILURE") == 1
    report("7 (out-of-scope results not claimed; outcome vector exact)", ok)


if __name__ == "__main__":
    for check in (test_criterion_1_automorphism_group_orders,
                  test_criterion_2_derived_constraints,
                  test_criterion_3_root_products,
                  test_criterion_4_reflection_verification,
                  test_criterion_5_lattice_oracle,
                  test_criterion_6_property_suites,
                  test_criterion_7_out_of_scope_results_absent):
        check()
    print("acceptance: all criteria PASS")
