"""The package's immutable records: built by position and by keyword, with
their defaults; equal and hashed on the fields they compare; shown by the
same repr; and frozen."""

import copy
import pickle
from fractions import Fraction

import pytest

from arrsym import RATIONAL, FieldSpec, Permutation, corpus, moduli, witness
from arrsym.combinatorics import AutGroup, ConfigTable
from arrsym.geometry import SWAP, SWAP_CONJUGATE, Arrangement, MapKind, ProjLine
from arrsym.polys import Poly, parse_ratfunc
from arrsym.render import RenderOptions

ONE, T = parse_ratfunc("1"), parse_ratfunc("t")
ID, SIGMA = Permutation((1, 2)), Permutation((2, 1))

# (record class, fields in constructor order, values, other values, fields
# left out of equality and repr, repr of the values)
ROWS = [
    (FieldSpec, ("d",), (-3,), (5,), (), "FieldSpec(d=-3)"),
    (AutGroup, ("n", "elements", "generators"), (2, (ID, SIGMA), (SIGMA,)),
     (3, (ID,), ()), (),
     "AutGroup(n=2, elements=(Permutation((1, 2)), Permutation((2, 1))), "
     "generators=(Permutation((2, 1)),))"),
    (MapKind, ("swap", "conjugate"), (True, False), (False, True), (),
     "MapKind(swap=True, conjugate=False)"),
    (moduli.GivenLine, ("index", "entries"), (5, (ONE, T, ONE)), (6, (T, ONE, ONE)), (),
     f"GivenLine(index=5, entries={(ONE, T, ONE)!r})"),
    (moduli.MeetPoint, ("name", "i", "j"), ("P", 1, 3), ("Q", 2, 4), (),
     "MeetPoint(name='P', i=1, j=3)"),
    (moduli.JoinLine, ("index", "p", "q"), (7, "P", "Q"), (8, "Q", "R"), (),
     "JoinLine(index=7, p='P', q='Q')"),
    (moduli.Require, ("point", "line"), ("P", 6), ("Q", 7), (),
     "Require(point='P', line=6)"),
    (moduli.ConstructionPlan, ("name", "var", "n", "steps"), ("p", "t", 4, ()),
     ("q", "s", 5, (1,)), (), "ConstructionPlan(name='p', var='t', n=4, steps=())"),
    (moduli.ModuliConstraint,
     ("poly", "var", "field", "roots", "discarded", "realizations"),
     (Poly((1, 0, 1)), "t", FieldSpec(-1), ("i", "-i"), (), ("A+", "A-")),
     (Poly((1, 1)), "s", RATIONAL, ("-1", "-1"), ((Poly((1,)), "x"),), ("B+", "B-")),
     ("realizations",),
     f"ModuliConstraint(poly={Poly((1, 0, 1))!r}, var='t', field=FieldSpec(d=-1), "
     "roots=('i', '-i'), discarded=())"),
    (RenderOptions, ("infinity", "viewport", "stroke_width", "marker_radius"),
     (3, (Fraction(-1), Fraction(-1), Fraction(1), Fraction(1)), 2.0, 5.0),
     (4, None, 1.5, 4.0), (),
     "RenderOptions(infinity=3, viewport=(Fraction(-1, 1), Fraction(-1, 1), "
     "Fraction(1, 1), Fraction(1, 1)), stroke_width=2.0, marker_radius=5.0)"),
    (witness.ReflectionWitness, ("sigma", "map", "verified", "per_line"),
     (SIGMA, SWAP, False, ((1, None),)), (ID, SWAP_CONJUGATE, True, ()), (),
     "ReflectionWitness(sigma=Permutation((2, 1)), map=MapKind(swap=True, "
     "conjugate=False), verified=False, per_line=((1, None),))"),
    (witness.Attempt, ("sigma", "map", "grids", "verified"), (SIGMA, SWAP, 0, True),
     (ID, SWAP_CONJUGATE, 3, False), (),
     "Attempt(sigma=Permutation((2, 1)), map=MapKind(swap=True, conjugate=False), "
     "grids=0, verified=True)"),
    (witness.PipelineReport,
     ("case", "status", "aut_order", "group_label", "involution_count", "constraint",
      "attempts"),
     ("c", "SUCCESS", 2, "Z2", 1, None, ()), ("d", "FAILURE", 4, "D4", 3, "k", (1,)), (),
     "PipelineReport(case='c', status='SUCCESS', aut_order=2, group_label='Z2', "
     "involution_count=1, constraint=None, attempts=())"),
    (corpus.CaseData,
     ("name", "config", "plan", "sigma", "grid", "map", "expected_aut_order",
      "expected_constraint", "expected_root_product", "expected_status",
      "constraint_provenance"),
     ("c", None, None, SIGMA, (1, 2, 2, 1), SWAP, 2, None, Fraction(-1), "SUCCESS",
      "published"),
     ("d", 1, 2, ID, (1, 2, 1, 2), SWAP_CONJUGATE, 4, 3, Fraction(1), "FAILURE",
      "derived"), (),
     "CaseData(name='c', config=None, plan=None, sigma=Permutation((2, 1)), "
     "grid=(1, 2, 2, 1), map=MapKind(swap=True, conjugate=False), expected_aut_order=2, "
     "expected_constraint=None, expected_root_product=Fraction(-1, 1), "
     "expected_status='SUCCESS', constraint_provenance='published')"),
    (corpus._CaseSpec,
     ("stem", "sigma", "grid", "map", "aut_order", "constraint", "root_product", "status",
      "provenance"),
     ("s", "(1 2)", (1, 2), SWAP, 2, (-1, -1, 1), Fraction(-1), "SUCCESS", "derived"),
     ("u", "(3 4)", (3, 4), SWAP_CONJUGATE, 4, (1, -1, 1), Fraction(1), "FAILURE",
      "published"), (),
     "_CaseSpec(stem='s', sigma='(1 2)', grid=(1, 2), map=MapKind(swap=True, "
     "conjugate=False), aut_order=2, constraint=(-1, -1, 1), root_product=Fraction(-1, 1), "
     "status='SUCCESS', provenance='derived')"),
]


@pytest.mark.parametrize("cls, fields, values, others, ignored, shown", ROWS,
                         ids=[row[0].__name__ for row in ROWS])
def test_record_builds_compares_and_freezes(cls, fields, values, others, ignored, shown):
    by_position, by_keyword = cls(*values), cls(**dict(zip(fields, values)))
    assert [getattr(by_keyword, name) for name in fields] == list(values)
    assert by_position == by_keyword and hash(by_position) == hash(by_keyword)
    assert repr(by_position) == shown
    for k, name in enumerate(fields):
        changed = cls(*values[:k], others[k], *values[k + 1:])
        if name in ignored:
            assert changed == by_position and hash(changed) == hash(by_position)
            assert repr(changed) == shown
        else:
            assert changed != by_position
    assert by_position != tuple(values)
    for clone in (copy.copy(by_position), pickle.loads(pickle.dumps(by_position))):
        assert [getattr(clone, name) for name in fields] == list(values)
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(by_position, name, None)
        with pytest.raises(AttributeError):
            delattr(by_position, name)
    with pytest.raises(AttributeError):
        by_position.extra = 1


def test_record_defaults():
    assert FieldSpec() == RATIONAL and FieldSpec().d is None
    report = witness.PipelineReport("c", "INAPPLICABLE", 1, "trivial", 0)
    assert report.constraint is None and report.attempts == ()
    spec = corpus._CaseSpec("s", "(1 2)", (1, 2), SWAP, 2, (1,), Fraction(1), "SUCCESS")
    assert spec.provenance == "published"
    assert RenderOptions() == RenderOptions(None, None, 1.5, 4.0)
    assert RenderOptions(marker_radius=2.0).stroke_width == 1.5


@pytest.mark.parametrize("args, kwargs", [
    (("P", 1), {}),                          # a field missing
    (("P", 1, 3, 4), {}),                    # one value too many
    (("P", 1, 3), {"i": 2}),                 # a field given twice
    (("P",), {"i": 1, "k": 3}),              # an unknown field
])
def test_record_refuses_a_bad_call(args, kwargs):
    with pytest.raises(TypeError):
        moduli.MeetPoint(*args, **kwargs)


def test_other_immutable_classes_refuse_assignment():
    line = ProjLine((1, 0, 0))
    for value, name in ((SIGMA, "images"), (ConfigTable("t", 3, []), "n"), (line, "key"),
                        (Arrangement("a", RATIONAL, [line]), "lines")):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
