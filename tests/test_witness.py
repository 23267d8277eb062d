import sys
from collections import Counter
from itertools import combinations, permutations, product
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrsym import corpus, fields, geometry, moduli, polys, witness
from arrsym.combinatorics import (ConfigTable, Permutation, automorphism_group,
                                  involutions, is_lattice_isomorphism,
                                  parse_cycles)
from arrsym.errors import ValidationError
from arrsym.fields import RATIONAL, FieldSpec, QuadExt
from arrsym.geometry import Arrangement, MapKind, ProjLine, intersect, lattice_of
from arrsym.moduli import root_product
from arrsym.witness import (SWAP, SWAP_CONJUGATE, extract_sigma, run_case,
                            run_pipeline, verify_reflection)

from conftest import (ALL_CASES, POSITIVE_CASES, ROOTS_OF_UNITY, Ref, apply_line,
                      apply_map, cross, fermat_arrangement, fermat_table,
                      grid_candidates, quads, relabel)


def test_grid_candidates_case1():
    case = corpus.get_case("{1}")
    candidates = grid_candidates(case.sigma)
    assert (4, 5) in candidates
    for i, j in candidates:
        assert i != j and case.sigma(i) not in (i, j) and case.sigma(j) != j


def test_grid_candidates_identity_empty():
    identity = Permutation.identity(10)
    assert grid_candidates(identity) == [] and witness._grid_count(identity) == 0


def test_grid_candidates_case6():
    case = corpus.get_case("{6}")
    assert (4, 6) in grid_candidates(case.sigma)


def test_grid_candidates_single_transposition_empty():
    sigma = parse_cycles("(1 2)", 4)
    assert grid_candidates(sigma) == [] and witness._grid_count(sigma) == 0


@pytest.mark.parametrize("name", POSITIVE_CASES)
def test_paper_grid_is_candidate(name):
    case = corpus.get_case(name)
    assert case.grid[:2] in grid_candidates(case.sigma)


@pytest.mark.parametrize("table", [corpus.get_case(name).config for name in ALL_CASES]
                         + [fermat_table(m) for m in (2, 3, 4)], ids=lambda t: t.name)
def test_grid_count_is_the_number_of_grid_candidates(table):
    invs = involutions(automorphism_group(table))
    assert invs
    for sigma in invs:
        assert witness._grid_count(sigma) == len(grid_candidates(sigma))


def _match_scalar_by_division(mapped, target):
    """The certificate as it was computed before, one ratio per coordinate."""
    scale = None
    for m, t in zip(mapped, target.coords):
        if t.is_zero:
            if not m.is_zero:
                return None
            continue
        ratio = Ref.of(m) / t
        if scale is None:
            scale = ratio
        elif ratio != scale:
            return None
    if scale is None or scale.is_zero:
        return None
    return scale.quad()


# The reference: every map on normal forms (conftest.apply_line), a
# certificate as coordinate ratios, and a normal form as the triple times
# its pivot's inverse, on the Ref model; none of it reads a key.
KINDS = (SWAP, SWAP_CONJUGATE, MapKind(swap=False, conjugate=True))


def exact(c):
    """A certificate as its stored integers and field, so equal values held
    in other fields differ."""
    return None if c is None else (c._p, c._q, c._den, c._d, c.field)


def reference_verify(plus, minus, sigma, kind):
    return tuple((i, exact(_match_scalar_by_division(apply_line(kind, plus.line(i)),
                                                     minus.line(sigma(i)))))
                 for i in range(1, plus.n + 1))


def reference_extract_sigma(a, b, kind):
    targets = [tuple(map(exact, line.coords)) for line in b.lines]
    images = []
    for line in a.lines:
        mapped = apply_line(kind, line)
        inverse = Ref.of(next(v for v in mapped if not v.is_zero)).inverse()
        normal = tuple(exact((inverse * v).quad()) for v in mapped)
        if normal not in targets:
            return None
        images.append(targets.index(normal) + 1)
    return Permutation(images)


def assert_matches_the_reference(a, b, sigmas):
    """verify_reflection under every sigma and extract_sigma, each map."""
    verified = 0
    for kind in KINDS:
        for sigma in sigmas:
            result = verify_reflection(a, b, sigma, kind)
            expected = reference_verify(a, b, sigma, kind)
            assert tuple((i, exact(c)) for i, c in result.per_line) == expected
            assert result.verified == all(c is not None for _, c in expected)
            verified += result.verified
        assert extract_sigma(a, b, kind) == reference_extract_sigma(a, b, kind)
    return verified


@pytest.mark.parametrize("name", ALL_CASES)
def test_certificates_match_the_division_reference(name, realized):
    case, _, plus, minus = realized(name)
    sigmas = involutions(automorphism_group(case.config))
    assert assert_matches_the_reference(plus, minus, sigmas)
    for a, b in ((minus, plus), (plus, plus)):
        assert_matches_the_reference(a, b, sigmas[:2])


@pytest.mark.parametrize("name", ALL_CASES)
def test_verification_calls_no_quadext_method(name, realized, method_calls):
    """Lines are matched and looked up by key, and a certificate is built
    from integers, so verification calls no QuadExt method at all."""
    case, _, plus, minus = realized(name)
    method_calls.clear()
    for kind in KINDS:
        verify_reflection(plus, minus, case.sigma, kind)
        extract_sigma(plus, minus, kind)
    assert method_calls == []


@pytest.mark.parametrize("m", sorted(ROOTS_OF_UNITY))
def test_certificates_match_the_division_reference_on_fermat(m):
    # the swap sends x - ζy to the key of -ζx + y, whose pivot -ζ is
    # irrational for m = 3, 4, 6 and is made rational again
    arrangement = fermat_arrangement(m)
    sigmas = involutions(automorphism_group(fermat_table(m)))
    assert assert_matches_the_reference(arrangement, arrangement, sigmas)


@pytest.mark.parametrize("name", POSITIVE_CASES)
def test_verify_reflection_positive(name, realized):
    case, _, plus, minus = realized(name)
    witness = verify_reflection(plus, minus, case.sigma, case.map)
    assert witness.verified
    for _, certificate in witness.per_line:
        assert certificate is not None and not certificate.is_zero


def test_verify_reflection_identity_fails(realized):
    case, _, plus, minus = realized("{1}")
    witness = verify_reflection(plus, minus, Permutation.identity(10), SWAP)
    assert not witness.verified


def test_verify_reflection_maclane_needs_conjugation(realized):
    case, _, plus, minus = realized("maclane")
    assert not verify_reflection(plus, minus, case.sigma, SWAP).verified
    assert verify_reflection(plus, minus, case.sigma, SWAP_CONJUGATE).verified


def test_verify_reflection_falk_sturmfels_fails_all_grids(realized):
    case, _, plus, minus = realized("falk-sturmfels")
    sigma = involutions(automorphism_group(case.config))[0]
    assert not verify_reflection(plus, minus, sigma, SWAP).verified
    # the swap instead fixes each component (trivial action on the moduli):
    mapped = apply_map(plus, SWAP)
    assert relabel(mapped, sigma.inverse()) == plus


def test_verify_reflection_size_mismatch(realized):
    _, _, plus, _ = realized("{1}")
    _, _, other, _ = realized("maclane")
    with pytest.raises(ValidationError):
        verify_reflection(plus, other, Permutation.identity(10), SWAP)


@pytest.mark.parametrize("name", POSITIVE_CASES)
def test_component_exchange_symmetry(name, realized):
    # applying the map to the minus component and relabeling by sigma
    # recovers the plus component line-for-line
    case, _, plus, minus = realized(name)
    mapped = apply_map(minus, case.map)
    assert relabel(mapped, case.sigma) == plus
    # equivalently, the witness verifies with the components exchanged
    # (sigma is its own inverse)
    assert verify_reflection(minus, plus, case.sigma.inverse(), case.map).verified


@pytest.mark.parametrize("name", POSITIVE_CASES)
def test_extract_sigma_consistency(name, realized):
    # every verified witness yields an extractable lattice isomorphism
    case, _, plus, minus = realized(name)
    sigma = extract_sigma(plus, minus, case.map)
    assert sigma == case.sigma
    assert sigma != Permutation.identity(sigma.degree)
    _, table_plus = lattice_of(plus)
    _, table_minus = lattice_of(minus)
    assert is_lattice_isomorphism(table_plus, table_minus, sigma)


def test_extract_sigma_positional_identity(realized):
    _, _, plus, _ = realized("{1}")
    mapped = apply_map(plus, SWAP)
    assert extract_sigma(plus, mapped, SWAP) == Permutation.identity(10)


def test_extract_sigma_none_for_unrelated(realized):
    _, _, plus1, _ = realized("{1}")
    _, _, plus6, _ = realized("{6}")
    assert extract_sigma(plus1, plus6, SWAP) is None


# extract_sigma runs no lattice check and builds sigma unvalidated: the map
# is a bijective collineation, so the images it reads off must form a
# permutation and a lattice isomorphism.  These tests run the checks it
# dropped, as an oracle.

def _is_lattice_isomorphism(a, b, sigma):
    return (Permutation(list(sigma.images)) == sigma
            and is_lattice_isomorphism(lattice_of(a)[1], lattice_of(b)[1], sigma))


@pytest.mark.parametrize("name", ALL_CASES)
def test_extracted_sigma_is_a_lattice_isomorphism_on_the_corpus(name, realized):
    _, _, plus, minus = realized(name)
    found = 0
    for kind in (SWAP, SWAP_CONJUGATE):
        for a, b in ((plus, minus), (minus, plus), (plus, plus), (minus, minus)):
            sigma = extract_sigma(a, b, kind)
            if sigma is not None:
                found += 1
                assert _is_lattice_isomorphism(a, b, sigma), (kind, a.name, b.name)
    assert found


@pytest.mark.parametrize("m", sorted(ROOTS_OF_UNITY))
def test_extracted_sigma_is_a_lattice_isomorphism_on_fermat(m):
    arrangement = fermat_arrangement(m)
    for kind in (SWAP, SWAP_CONJUGATE):
        sigma = extract_sigma(arrangement, arrangement, kind)
        assert sigma is not None and _is_lattice_isomorphism(arrangement, arrangement, sigma)


@st.composite
def concurrent_arrangements(draw):
    """x, y, z and a line with nonzero coefficients, then one to three lines
    each joining two intersection points, so the lattice has triple points."""
    field = draw(st.sampled_from([RATIONAL, FieldSpec.quadratic(5),
                                  FieldSpec.quadratic(-1), FieldSpec.quadratic(-3)]))

    def nonzero():
        a = draw(st.integers(1, 3)) * draw(st.sampled_from([1, -1]))
        return QuadExt(a, 0 if field.is_rational else draw(st.integers(-3, 3)), field)

    lines = [ProjLine(c, field) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    lines.append(ProjLine((nonzero(), nonzero(), nonzero()), field))
    for _ in range(draw(st.integers(1, 3))):
        points = list(dict.fromkeys(intersect(l1, l2)
                                    for l1, l2 in combinations(lines, 2)))
        joins = [line for line in dict.fromkeys(
                     ProjLine(quads(cross(p.coords, q.coords), field), field)
                     for p, q in combinations(points, 2))
                 if line not in lines]
        lines.append(draw(st.sampled_from(joins)))
    return Arrangement("h", field, lines)


@settings(max_examples=60, deadline=None)
@given(concurrent_arrangements(),
       st.sampled_from([SWAP, SWAP_CONJUGATE, MapKind(swap=False, conjugate=True)]),
       st.data())
def test_extracted_sigma_is_a_lattice_isomorphism_on_synthetic_pairs(a, kind, data):
    # b is a mapped and then relabelled by tau, so tau is the one answer
    tau = Permutation(data.draw(st.permutations(range(1, a.n + 1))))
    b = relabel(apply_map(a, kind), tau)
    assert lattice_of(a)[1].points
    sigma = extract_sigma(a, b, kind)
    assert _is_lattice_isomorphism(a, b, sigma)
    assert sigma == tau
    assert assert_matches_the_reference(a, b, [tau, Permutation.identity(a.n)])


def test_certificate_root_relation(realized):
    for name in POSITIVE_CASES:
        case, constraint, plus, minus = realized(name)
        rp, rm = constraint.roots
        assert Ref.of(rp) * rm == root_product(constraint.poly), name


@pytest.mark.parametrize("name", ALL_CASES)
def test_pipeline_statuses(name):
    report = run_pipeline(name)
    assert report.status == corpus.get_case(name).expected_status


def test_pipeline_case1_details():
    report = run_pipeline("{1}")
    case = corpus.get_case("{1}")
    assert report.status == "SUCCESS"
    assert report.aut_order == 2
    assert [at.sigma for at in report.attempts if at.verified] == [case.sigma]


@pytest.mark.parametrize("name", ALL_CASES)
def test_attempts_match_the_verify_reflection_oracle(name):
    # the per-row verify_reflection loop that run_case replaced is the reference
    report = run_pipeline(name)
    plus, minus = report.constraint.realizations
    assert report.attempts
    for at in report.attempts:
        assert at.verified == verify_reflection(plus, minus, at.sigma, at.map).verified
    assert sum(at.verified for at in report.attempts) == (report.status == "SUCCESS")


@pytest.mark.parametrize("m", [3, 4])
def test_fermat_involutions_verify_exactly_at_the_relabelling(m):
    # A's keys are distinct, so a map verifies under at most one sigma:
    # the one extract_sigma reads off
    a = fermat_arrangement(m)
    invs = involutions(automorphism_group(lattice_of(a)[1]))
    verified = 0
    for kind in KINDS:
        found = extract_sigma(a, a, kind)
        for sigma in invs:
            result = verify_reflection(a, a, sigma, kind).verified
            assert result == (sigma == found)
            verified += result
    assert verified


def test_run_case_reads_one_relabelling_per_map(monkeypatch):
    calls = []
    original = witness.extract_sigma

    def counting(a, b, kind):
        calls.append(kind)
        return original(a, b, kind)

    def refused(*args):
        raise AssertionError("run_case verified a row line by line")

    monkeypatch.setattr(witness, "extract_sigma", counting)
    monkeypatch.setattr(witness, "verify_reflection", refused)
    total = 0
    for name in ALL_CASES:
        case = corpus.get_case(name)
        report = run_case(case.name, case.config, case.plan)
        assert calls == list(dict.fromkeys(at.map for at in report.attempts)), name
        total += len(calls)
        calls.clear()
    assert total == 14


@pytest.mark.parametrize("name", POSITIVE_CASES)
def test_pipeline_contains_stored_choice_verified(name):
    # the recorded sigma/map pair must be a verified attempt; its grid is
    # among sigma's candidates (test_paper_grid_is_candidate)
    report = run_pipeline(name)
    case = corpus.get_case(name)
    hits = [at for at in report.attempts
            if at.sigma == case.sigma and at.map == case.map]
    assert len(hits) == 1 and hits[0].verified


@pytest.mark.parametrize("name", ALL_CASES)
def test_run_case_evaluates_the_plan_once_per_root(name, monkeypatch):
    # at most once per root: only at the "+" root, since the "-"
    # realization is its Galois conjugate
    calls = []
    original = moduli.evaluate_plan

    def counting(plan, t0):
        calls.append(t0)
        return original(plan, t0)

    monkeypatch.setattr(moduli, "evaluate_plan", counting)
    case = corpus.get_case(name)
    report = run_case(case.name, case.config, case.plan)
    assert calls == [report.constraint.roots[0]]


@pytest.mark.parametrize("name", ALL_CASES)
def test_run_case_builds_no_lattice(name, monkeypatch):
    # derive_constraint checks the lattice at the root on integer keys, and
    # extract_sigma reads sigma off the map: neither builds a lattice
    calls = []
    original = geometry.lattice_of

    def counting(arrangement):
        calls.append(arrangement.name)
        return original(arrangement)

    for module in [m for n, m in sys.modules.items() if n.startswith("arrsym")]:
        if getattr(module, "lattice_of", None) is original:
            monkeypatch.setattr(module, "lattice_of", counting)
    case = corpus.get_case(name)
    report = run_case(case.name, case.config, case.plan)
    assert report.status == case.expected_status
    assert calls == []


@pytest.mark.parametrize("name", ALL_CASES)
def test_run_case_checks_the_lines_of_each_realization_once(name, monkeypatch):
    """The plan's "+" realization and its conjugate are built with the
    coincidence check; naming them as components does not repeat it."""
    calls = []
    init = geometry.Arrangement.__init__

    def counting(self, arrangement_name, field, lines):
        calls.append(arrangement_name)
        init(self, arrangement_name, field, lines)

    monkeypatch.setattr(geometry.Arrangement, "__init__", counting)
    case = corpus.get_case(name)
    report = run_case(case.name, case.config, case.plan)
    assert calls == [case.plan.name, case.plan.name]
    assert report.status == case.expected_status


class _Label(int):
    """A line label that counts how often it is written out as text."""
    written = 0

    def __format__(self, spec):
        _Label.written += 1
        return int.__format__(self, spec)

    def __str__(self):
        _Label.written += 1
        return int.__repr__(self)


def test_corpus_pass_work_counts(monkeypatch):
    """Exact work counts over one run_case per corpus case, no wall clock:
    roots of linears and quadratics are read in closed form (no divisor
    search), the one factor_integer per case is quad_roots' discriminant,
    derive_constraint divides on integer tuples and builds a Poly only for
    a numerator, an input of poly_reduce and a factor it returns (it built
    139 Polys and called Poly.__divmod__ 35 times), group orders build no
    cycles, and no text naming a meet or join is built when none fails."""
    calls = Counter()
    deriving = []           # non-empty while derive_constraint runs

    def count(owner, name, *others, inside=False):
        original = getattr(owner, name)

        def counting(*args):
            if deriving or not inside:
                calls[name] += 1
            return original(*args)
        for target in (owner, *others):
            monkeypatch.setattr(target, name, counting)

    def derive(*args):
        deriving.append(True)
        try:
            return moduli.derive_constraint(*args)
        finally:
            deriving.pop()

    count(polys, "_divisors")
    count(fields, "factor_integer", polys)
    count(polys, "_poly", moduli, inside=True)
    count(polys, "_pseudo_divide", inside=True)
    count(Permutation, "cycles")
    count(moduli, "_quoted")
    monkeypatch.setattr(witness, "derive_constraint", derive)
    monkeypatch.setattr(_Label, "written", 0)
    for name in corpus.list_cases():
        case = corpus.get_case(name)
        steps = tuple(moduli.MeetPoint._of(s.name, _Label(s.i), _Label(s.j))
                      if isinstance(s, moduli.MeetPoint) else s for s in case.plan.steps)
        plan = moduli.ConstructionPlan._of(case.plan.name, case.plan.var, case.plan.n, steps)
        assert run_case(name, case.config, plan).status == case.expected_status
    assert calls == {"factor_integer": 9, "_poly": 44, "_pseudo_divide": 87}
    assert _Label.written == 0


@pytest.mark.parametrize("name", ALL_CASES)
def test_one_attempt_per_sigma_and_map(name):
    case = corpus.get_case(name)
    report = run_pipeline(name)
    keys = [(at.sigma, at.map) for at in report.attempts]
    assert len(keys) == len(set(keys))
    for at in report.attempts:
        assert at.grids == len(grid_candidates(at.sigma)) > 0
    if name == "maclane":
        assert len(report.attempts) == 26


def test_pipeline_falk_sturmfels_exhausts_attempts():
    report = run_pipeline("falk-sturmfels")
    assert report.status == "FAILURE"
    assert report.attempts and all(not at.verified for at in report.attempts)
    # real field: the conjugating map is never a homeomorphism candidate
    assert {at.map for at in report.attempts} == {SWAP}


def test_pipeline_complex_cases_try_swap_first():
    report = run_pipeline("maclane")
    kinds = [at.map for at in report.attempts]
    assert kinds[0] == SWAP and SWAP_CONJUGATE in kinds


def test_pipeline_deterministic():
    first = run_pipeline("nazir-yoshinaga")
    second = run_pipeline("nazir-yoshinaga")
    assert first.to_dict() == second.to_dict()


def test_pipeline_report_records():
    report = run_pipeline("{6}")
    data = report.to_dict()
    assert data["constraint"] == "t^2 + t - 1"
    for record in data["attempts"]:
        assert set(record) == {"sigma", "map", "grids", "outcome"}


def test_pipeline_unknown_case():
    with pytest.raises(KeyError):
        run_pipeline("rybnikov")


# A nine-line configuration whose automorphism group is trivial, so the
# method does not apply.  Triviality is checked here against a definitional
# enumeration, restricted — validly, since any lattice isomorphism preserves
# each line's multiset of point multiplicities — to profile-preserving maps.
RIGID_POINTS = [{4, 5, 6, 7}, {2, 5, 8}, {4, 8, 9}, {1, 5, 9},
                {3, 6, 8}, {1, 7, 8}, {1, 3, 4}]


def rigid_table():
    return ConfigTable("rigid", 9,
                       [(f"p{k}", s) for k, s in enumerate(RIGID_POINTS, 1)])


def test_rigid_table_brute_force_oracle():
    table = rigid_table()
    profiles = {}
    for i in range(1, 10):
        profile = tuple(sorted(len(s) for _, s in table.points if i in s))
        profiles.setdefault(profile, []).append(i)
    buckets = list(profiles.values())
    search_space = 1
    for bucket in buckets:
        search_space *= factorial(len(bucket))
    assert search_space < 50                               # cheap enumeration
    hits = []
    for images_by_bucket in product(*[permutations(b) for b in buckets]):
        images = [0] * 9
        for bucket, mapped in zip(buckets, images_by_bucket):
            for src, dst in zip(bucket, mapped):
                images[src - 1] = dst
        tau = Permutation(images)
        if is_lattice_isomorphism(table, table, tau):
            hits.append(tau)
    assert hits == [Permutation.identity(9)]
    assert automorphism_group(table).order == 1


def test_pipeline_inapplicable_without_involutions():
    report = run_case("rigid", rigid_table(), plan=None)
    assert report.status == "INAPPLICABLE"
    assert report.aut_order == 1
    assert report.attempts == ()


def test_an_inapplicable_report_says_so_as_text():
    assert run_case("rigid", rigid_table(), plan=None).to_text() == (
        "case rigid: automorphism group order 1 (trivial), 0 involution(s)\n"
        "no involutions: the method does not apply\n"
        "status: INAPPLICABLE")


def test_a_table_with_involutions_needs_a_plan():
    with pytest.raises(ValidationError,
                       match="^a construction plan is required once involutions exist$"):
        run_case("{1}", corpus.get_case("{1}").config, plan=None)
