from itertools import permutations, product
from math import factorial

import pytest

from arrsym import corpus, geometry, moduli, witness
from arrsym.combinatorics import (ConfigTable, Permutation, automorphism_group,
                                  involutions, is_lattice_isomorphism,
                                  parse_cycles)
from arrsym.errors import ValidationError
from arrsym.geometry import apply_coordinate_map, lattice_of, relabel
from arrsym.moduli import root_product
from arrsym.witness import (SWAP, SWAP_CONJUGATE, extract_sigma,
                            grid_candidates, run_case, run_pipeline,
                            verify_reflection)

from conftest import ALL_CASES, POSITIVE_CASES, fermat_table


def test_grid_candidates_case1():
    case = corpus.get_case("{1}")
    candidates = grid_candidates(case.config, case.sigma)
    assert (4, 5) in candidates
    for i, j in candidates:
        assert i != j and case.sigma(i) not in (i, j) and case.sigma(j) != j


def test_grid_candidates_identity_empty():
    case = corpus.get_case("{1}")
    assert grid_candidates(case.config, Permutation.identity(10)) == []


def test_grid_candidates_case6():
    case = corpus.get_case("{6}")
    assert (4, 6) in grid_candidates(case.config, case.sigma)


def test_grid_candidates_single_transposition_empty():
    table = ConfigTable("g", 4, [])
    assert grid_candidates(table, parse_cycles("(1 2)", 4)) == []


@pytest.mark.parametrize("name", POSITIVE_CASES)
def test_paper_grid_is_candidate(name):
    case = corpus.get_case(name)
    assert case.grid[:2] in grid_candidates(case.config, case.sigma)


@pytest.mark.parametrize("table", [corpus.get_case(name).config for name in ALL_CASES]
                         + [fermat_table(m) for m in (2, 3, 4)], ids=lambda t: t.name)
def test_grid_count_is_the_number_of_grid_candidates(table):
    invs = involutions(automorphism_group(table))
    assert invs
    for sigma in invs:
        assert witness._grid_count(sigma) == len(grid_candidates(table, sigma))


def _match_scalar_by_division(mapped, target):
    """The certificate as it was computed before, one ratio per coordinate."""
    scale = None
    for m, t in zip(mapped, target.coords):
        if t.is_zero:
            if not m.is_zero:
                return None
            continue
        ratio = m / t
        if scale is None:
            scale = ratio
        elif ratio != scale:
            return None
    if scale is None or scale.is_zero:
        return None
    return scale


@pytest.mark.parametrize("name", ALL_CASES)
def test_certificates_match_the_division_reference(name, realized):
    case, _, plus, minus = realized(name)
    checked = 0
    for sigma in involutions(automorphism_group(case.config)):
        for kind in (SWAP, SWAP_CONJUGATE):
            result = verify_reflection(plus, minus, sigma, kind)
            expected = tuple(
                (i, _match_scalar_by_division(kind.apply_line(plus.line(i)),
                                              minus.line(sigma(i))))
                for i in range(1, plus.n + 1))
            assert result.per_line == expected
            assert result.verified == all(c is not None for _, c in expected)
            checked += sum(c is not None for _, c in expected)
    assert checked


@pytest.mark.parametrize("name", POSITIVE_CASES)
def test_verify_reflection_positive(name, realized):
    case, constraint, plus, minus = realized(name)
    witness = verify_reflection(plus, minus, case.sigma, case.map,
                                roots=constraint.roots)
    assert witness.verified
    assert witness.failures() == []
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
    mapped = apply_coordinate_map(plus, swap=True, conjugate=False)
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
    mapped = apply_coordinate_map(minus, case.map.swap, case.map.conjugate)
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
    assert not sigma.is_identity
    _, table_plus = lattice_of(plus)
    _, table_minus = lattice_of(minus)
    assert is_lattice_isomorphism(table_plus, table_minus, sigma)


def test_extract_sigma_positional_identity(realized):
    _, _, plus, _ = realized("{1}")
    mapped = apply_coordinate_map(plus, swap=True, conjugate=False)
    assert extract_sigma(plus, mapped, SWAP) == Permutation.identity(10)


def test_extract_sigma_none_for_unrelated(realized):
    _, _, plus1, _ = realized("{1}")
    _, _, plus6, _ = realized("{6}")
    assert extract_sigma(plus1, plus6, SWAP) is None


def test_certificate_root_relation(realized):
    for name in POSITIVE_CASES:
        case, constraint, plus, minus = realized(name)
        rp, rm = constraint.roots
        assert rp * rm == root_product(constraint.poly), name


@pytest.mark.parametrize("name", ALL_CASES)
def test_pipeline_statuses(name):
    report = run_pipeline(name)
    assert report.status == corpus.get_case(name).expected_status


def test_pipeline_case1_details():
    report = run_pipeline("{1}")
    case = corpus.get_case("{1}")
    assert report.status == "SUCCESS"
    assert report.aut_order == 2
    assert report.witness is not None and report.witness.sigma == case.sigma


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
def test_run_case_builds_one_lattice(name, monkeypatch):
    calls = []
    original = geometry.lattice_of

    def counting(arrangement):
        calls.append(arrangement.name)
        return original(arrangement)

    for module in (geometry, moduli, witness):
        monkeypatch.setattr(module, "lattice_of", counting)
    case = corpus.get_case(name)
    run_case(case.name, case.config, case.plan)
    assert calls == [case.plan.name]


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


@pytest.mark.parametrize("name", ALL_CASES)
def test_one_attempt_per_sigma_and_map(name):
    case = corpus.get_case(name)
    report = run_pipeline(name)
    keys = [(at.sigma, at.map) for at in report.attempts]
    assert len(keys) == len(set(keys))
    for at in report.attempts:
        assert at.grids == len(grid_candidates(case.config, at.sigma)) > 0
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
    assert first.to_json() == second.to_json()


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
