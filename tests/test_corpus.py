"""Corpus integrity: tables parse and round-trip, plans realize the exact
published line equations at both roots, and the stored symmetry data is
self-consistent.

The expected coefficient triples below are built independently of the
plan machinery, by direct field arithmetic on each case's printed
equation list (lines written as y = f(t)x + g(t)z etc.).
"""

from fractions import Fraction as F

import pytest

from arrsym import corpus
from arrsym.combinatorics import automorphism_group
from arrsym.geometry import ProjLine
from arrsym.moduli import root_product
from arrsym.polys import Poly
from arrsym.witness import SWAP, SWAP_CONJUGATE

from conftest import ALL_CASES, Ref, grid_candidates, quads


def test_list_cases():
    names = corpus.list_cases()
    assert names == ["{1}", "{6}", "{7}", "maclane", "nazir-yoshinaga",
                     "11.B.3.b.2.iii", "11.B.3.b.2.iv", "11.B.2.iv",
                     "falk-sturmfels"]
    assert corpus.list_cases() == names          # stable across calls
    assert "rybnikov" not in names


def test_get_case_examples():
    assert corpus.get_case("{6}").expected_constraint == Poly((-1, 1, 1))
    assert corpus.get_case("{7}").sigma.cycle_string() == "(1 5)(2 6)(3 4)(7 9)"
    assert corpus.get_case("falk-sturmfels").expected_status == "FAILURE"
    with pytest.raises(KeyError):
        corpus.get_case("rybnikov")


@pytest.mark.parametrize("name", ALL_CASES)
def test_case_internal_consistency(name):
    case = corpus.get_case(name)
    assert case.config.n == case.plan.n == case.sigma.degree
    assert case.sigma.is_involution
    group = automorphism_group(case.config)
    assert case.sigma in group.elements
    assert group.order == case.expected_aut_order
    i, j, si, sj = case.grid
    assert (si, sj) == (case.sigma(i), case.sigma(j))
    assert (i, j) in grid_candidates(case.sigma)
    assert root_product(case.expected_constraint) == case.expected_root_product


@pytest.mark.parametrize("name", ALL_CASES)
def test_config_round_trips_bit_identically(name):
    from arrsym.combinatorics import parse_config_table
    spec = corpus._SPECS[name]
    source = corpus._read_data(spec.stem + ".cfg")
    assert parse_config_table(source).serialize() == source


def test_map_kinds():
    assert corpus.get_case("maclane").map == SWAP_CONJUGATE
    for name in ALL_CASES:
        if name != "maclane":
            assert corpus.get_case(name).map == SWAP


def test_provenance_markers():
    assert corpus.get_case("falk-sturmfels").constraint_provenance == "derived"
    for name in ALL_CASES:
        if name != "falk-sturmfels":
            assert corpus.get_case(name).constraint_provenance == "published"


def test_export_data(tmp_path):
    written = corpus.export_data(tmp_path)
    assert len(written) == 18
    for path in written:
        assert path.exists() and path.read_text()


# -- published equation lists, as direct field arithmetic ----------------------

EQUATIONS = {
    # y = -x means (1, 1, 0);  y = f x + g z means (-f, 1, -g)
    "{1}": lambda t: [
        (0, 1, t.inverse()),            # y = -z/t
        (0, 1, -1),                     # y = z
        (0, 1, 0),                      # y = 0
        (1, 0, 0),                      # x = 0
        (1, 0, -1),                     # x = z
        (1, 0, -t),                     # x = t z
        (-1, 1, t.inverse()),           # y = x - z/t
        (-1, 1, t),                     # y = x - t z
        (t.inverse() - 1, 1, 0),        # y = (1 - 1/t) x
        (0, 0, 1),                      # z = 0
    ],
    "{6}": lambda t: [
        (0, 1, t.inverse()),
        (0, 1, -1),
        (0, 1, 0),
        (1, 0, 0),
        (1, 0, -t),
        (1, 0, -1),
        (-(1 + t.inverse()) / t, 1, t.inverse()),
        (1, 1, -1),                     # y = -x + z
        (-(t.inverse() / (t - 1)), 1, (t - 1).inverse()),
        (-(1 + t.inverse()) / (t - 1), 1, (t - 1).inverse()),
    ],
    "{7}": lambda t: [
        (0, 1, -1),
        (0, 1, t.inverse()),
        (0, 1, 0),
        (1, 0, 0),
        (1, 0, -1),
        (1, 0, -t),
        (t, 1, -1),                     # y = -t x + z
        (-(t ** -2), 1, t.inverse()),   # y = x/t^2 - z/t
        (-t, 1, t),                     # y = t(x - z)
        (1, 1, 0),                      # y = -x
    ],
    "maclane": lambda t: [
        (1, 0, 0),
        (1, 0, -1),
        (1, 0, -t),
        (0, 1, -t),
        (0, 1, 0),
        (0, 1, -1),
        (t, 1, -t),                     # y = -t x + t z
        (t.inverse(), 1, -1),           # y = -x/t + z
    ],
    "nazir-yoshinaga": lambda t: [
        (0, 1, 0),
        (1, 0, 0),
        (-1, 1, 0),                     # y = x
        (1, 1, -1),                     # y = -x + z
        (0, 1, -(2 * t).inverse()),     # y = z/(2t)
        (1, 0, -t),
        (1, 0, -1),
        (0, 1, -1),
        (-2 * t * t, 1, -(2 * t).inverse()),
    ],
    "11.B.3.b.2.iii": lambda s: [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1 - s, 1, 0),                  # y = (s-1) x
        (1, 0, -1),
        (0, 1, -1),
        (-1, 1, -1),                    # y = x + z
        (-1, 1, 1),                     # y = x - z
        (-s, 1, 1),                     # y = s x - z
        (-s, 1, -s),                    # y = s x + s z
    ],
    "11.B.3.b.2.iv": lambda s: [
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (-(1 + s).inverse(), 1, 0),     # y = x/(1+s)
        (1, 0, -1),
        (0, 1, -1),
        (-s, 1, -1),                    # y = s x + z
        (-s, 1, s),                     # y = s x - s z
        (-1, 1, s),                     # y = x - s z
        (-1, 1, -s.inverse()),          # y = x + z/s
    ],
    "11.B.2.iv": lambda s: [
        (0, 0, 1),
        (1, 0, 0),
        (0, 1, 0),
        (1, 0, -1),
        (0, 1, -1),
        (-1, 1, -1),                    # y = x + z
        (-s, 1, -s),                    # y = s x + s z
        (s - 1, 1, -s),                 # y = (1-s) x + s z
        (-s, 1, 1),                     # y = s x - z
        (-1, 1, 1),                     # y = x - z
    ],
}


@pytest.mark.parametrize("name", sorted(EQUATIONS))
def test_realizations_match_published_equations(name, realized):
    case, constraint, plus, minus = realized(name)
    build = EQUATIONS[name]
    for root, arrangement in ((constraint.roots[0], plus),
                              (constraint.roots[1], minus)):
        expected = [ProjLine(quads(raw, root.field), root.field) for raw in build(Ref.of(root))]
        assert list(arrangement.lines) == expected, (name, str(root))


def test_expected_constraints_match_derived(realized):
    for name in ALL_CASES:
        case, constraint, _, _ = realized(name)
        assert constraint.poly == case.expected_constraint, name
        # the pinned root product is the derived one, and the pinned constraint's
        assert (root_product(constraint.poly) == case.expected_root_product
                == root_product(case.expected_constraint)), name
