"""The exact-geometry and plan layers build no Fraction: lattice_of,
extract_sigma and verify_reflection run on QuadExt's integer triples alone,
residual_numerators and evaluate_plan, the root evaluation, on integer
tuples.  Counted by wrapping Fraction.__new__, so the gate is exact, not a
timing."""

from fractions import Fraction

import pytest

from arrsym import moduli
from arrsym.fields import QuadExt
from arrsym.geometry import SWAP, lattice_of
from arrsym.moduli import derive_constraint, evaluate_plan, residual_numerators
from arrsym.polys import Poly
from arrsym.witness import extract_sigma, verify_reflection

from conftest import ALL_CASES, ROOTS_OF_UNITY, fermat_arrangement


@pytest.fixture
def fraction_count(monkeypatch):
    """A list that grows by one for every Fraction built from now on."""
    built = []
    original = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
    return built


def test_the_counter_sees_fractions(fraction_count):
    assert QuadExt(3, 0).a == 3 and Fraction(1, 2) * 2 == 1
    assert len(fraction_count) >= 3


@pytest.mark.parametrize("name", ALL_CASES)
def test_corpus_geometry_builds_no_fraction(name, realized, fraction_count):
    case, _, plus, minus = realized(name)
    fraction_count.clear()
    for arrangement in (plus, minus):
        assert lattice_of(arrangement)[1].n == case.config.n
    found = extract_sigma(plus, minus, case.map)
    witness = verify_reflection(plus, minus, case.sigma, case.map)
    assert witness.verified == (found is not None) == (case.expected_status == "SUCCESS")
    assert fraction_count == []


@pytest.mark.parametrize("m", sorted(ROOTS_OF_UNITY))
def test_fermat_geometry_builds_no_fraction(m, fraction_count):
    arrangement = fermat_arrangement(m)
    fraction_count.clear()
    _, table = lattice_of(arrangement)
    assert table.multiplicity_census() == {m + 2: 3, 3: m * m}
    sigma = extract_sigma(arrangement, arrangement, SWAP)
    assert sigma is not None and sigma.is_involution
    assert verify_reflection(arrangement, arrangement, sigma, SWAP).verified
    assert fraction_count == []


@pytest.mark.parametrize("name", ALL_CASES)
def test_corpus_plans_build_no_fraction(name, realized, fraction_count):
    case, constraint, plus, minus = realized(name)
    fraction_count.clear()
    numerators = [num for _, _, num in residual_numerators(case.plan)]
    assert numerators and all(constraint.poly.divides(Poly(num)) for num in numerators)
    for root, realization in zip(constraint.roots, (plus, minus)):
        assert evaluate_plan(case.plan, root).lines == realization.lines
    assert fraction_count == []


@pytest.mark.parametrize("name", ALL_CASES)
def test_corpus_root_evaluation_builds_no_fraction(name, realized, fraction_count, monkeypatch):
    """derive_constraint's one evaluate_plan call, at the "+" root, builds none."""
    case, constraint, plus, _ = realized(name)
    calls, original = [], moduli.evaluate_plan

    def counting(plan, t0):
        fraction_count.clear()
        realization = original(plan, t0)
        calls.append((t0, len(fraction_count)))
        return realization

    monkeypatch.setattr(moduli, "evaluate_plan", counting)
    assert derive_constraint(case.plan, case.config).realizations[0].lines == plus.lines
    assert calls == [(constraint.roots[0], 0)]
