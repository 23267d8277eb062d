"""The public API: the names in ``arrsym.__all__``, and no more."""

import ast
import inspect
import re
import subprocess
import sys
from pathlib import Path

import arrsym
from arrsym import combinatorics, fields, geometry, moduli, polys, render, witness

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = [
    "Arrangement", "AutGroup", "ConfigTable", "ConstructionPlan", "FieldSpec",
    "MapKind", "ModuliConstraint", "Permutation", "PipelineReport", "Poly",
    "ProjLine", "ProjPoint", "QuadExt", "RATIONAL", "ReflectionWitness",
    "RenderOptions", "SWAP", "SWAP_CONJUGATE", "automorphism_group",
    "derive_constraint", "evaluate_plan", "extract_sigma", "intersect",
    "involutions", "is_lattice_isomorphism", "lattice_of", "parse_arrangement",
    "parse_config_table", "parse_cycles", "parse_plan", "parse_ratfunc",
    "parse_scalar", "poly_reduce", "quad_roots", "realize_components", "render_svg",
    "root_product", "run_pipeline", "verify_reflection",
]


def test_public_names_are_pinned():
    assert sorted(arrsym.__all__) == sorted(PUBLIC)
    assert len(arrsym.__all__) == len(set(arrsym.__all__)) == 39
    assert all(hasattr(arrsym, name) for name in arrsym.__all__)


# The line count of src/arrsym/**/*.py.  A change that adds lines raises it in
# the same diff, within the budgets ROADMAP gives, and says so in CHANGES.md.
SRC_LINES = 3165


def test_src_stays_within_its_line_budget():
    lines = sum(len(path.read_text(encoding="utf-8").splitlines())
                for path in (SRC / "arrsym").glob("**/*.py"))
    assert lines <= SRC_LINES


def test_removed_helpers_are_gone():
    # each duplicated another name, was called only by the tests, kept the
    # order of a replaced search, built a record a second way (Record._of),
    # was a second polynomial or rational-function arithmetic (the parser,
    # poly_reduce and derive_constraint run on integer lists), a second
    # reduction to lowest terms (polys._lowest is the one) or a wrapper of its
    # pair that no computation read (parse_ratfunc returns the pair),
    # factored integers (a square test names a field, gcds decide a factor),
    # was a second realization at a root (evaluate_plan is the one), had no
    # reader in the package (Permutation's arithmetic and ordering, the
    # constraint's text) or was one of the patterns parse_scalar's one replaced
    for module, name in ((witness, "grid_candidates"), (geometry, "apply_coordinate_map"),
                         (geometry, "relabel"), (geometry, "lines_proj_equal"),
                         (fields, "galois_conjugate"), (polys, "ratfunc_eval"),
                         (geometry, "IntersectionLattice"), (geometry, "_pair_groups"),
                         (combinatorics, "_pair_order"), (geometry.Arrangement, "_renamed"),
                         (fields, "format_scalar"), (polys.Poly, "zero"), (polys.Poly, "one"),
                         (polys.Poly, "constant"), (polys, "RatFunc"), (polys, "_as_poly"),
                         (polys.Poly, "leading"), (witness.PipelineReport, "to_json"),
                         (witness.ReflectionWitness, "failures"),
                         (combinatorics.Permutation, "is_identity"),
                         (combinatorics.AutGroup, "element_order_profile"),
                         (combinatorics.AutGroup, "is_abelian"), (polys, "_BINARY"),
                         (polys, "operator"),
                         (polys.Poly, "variable"),
                         *((polys.Poly, name) for name in (
                             "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
                             "__rmul__", "__pow__")),
                         (geometry, "_has_points"),
                         *((polys.Poly, name) for name in ("monic", "__floordiv__", "__mod__",
                                                           "__divmod__", "gcd", "primitive")),
                         (combinatorics.Permutation, "apply_set"), (polys, "_reduced"),
                         (fields.QuadExt, "__sub__"), (fields.QuadExt, "__rsub__"),
                         (geometry.ProjLine, "__iter__"), (geometry.ProjLine, "__getitem__"),
                         (moduli.GivenLine, "entries"), (render.RenderOptions, "stroke_width"),
                         (render.RenderOptions, "marker_radius"),
                         *((fields, name) for name in (
                             "factor_integer", "_is_prime", "_rho_split", "_perfect_power",
                             "_charge", "_STEP_BUDGET", "_RHO_BATCH", "_MR_BASES", "_MR_PROVEN")),
                         *((polys, name) for name in (
                             "_divisors", "_find_quadratic_factor", "MAX_FACTOR_CANDIDATES")),
                         (moduli, "_evaluated"),
                         (combinatorics.Permutation, "__mul__"),
                         (combinatorics.Permutation, "inverse"),
                         (moduli.ModuliConstraint, "format"),
                         *((fields, name) for name in (
                             "_RAT", "_RAT_RE", "_B_ONLY_RE", "_A_B_RE", "_parse_b"))):
        assert not hasattr(module, name) and not hasattr(arrsym, name)
    # every class has these from object; the class no longer defines its own
    for owner, name in ((combinatorics.Permutation, "__lt__"),
                        (moduli.ModuliConstraint, "__str__")):
        assert name not in vars(owner)


def test_readme_lists_the_public_api():
    text = README.read_text(encoding="utf-8")
    counts = re.findall(r"`arrsym\.__all__`\s+has\s+(\d+)\s+names", text)
    assert counts == [str(len(arrsym.__all__))]
    assert [name for name in arrsym.__all__ if f"`{name}`" not in text] == []


def test_lines_have_one_representation():
    # a line or point is its key; the QuadExt round trips and the map on
    # normal forms that read it were replaced by key code
    for owner, name in ((geometry, "_scaled"), (geometry, "_normal_coords"),
                        (geometry, "_normalize_triple"), (witness, "_match_scalar"),
                        (geometry.ProjLine, "_normal"), (geometry.MapKind, "apply_line")):
        assert not hasattr(owner, name)


def test_unread_names_are_gone():
    # no caller in the package: the tests keep cross, incidence and contains
    for owner, name in ((geometry, "cross"), (geometry.ProjLine, "incidence"),
                        (geometry.ProjLine, "contains"), (fields.QuadExt, "to_complex"),
                        (fields.QuadExt, "is_rational_value")):
        assert not hasattr(owner, name)
    assert witness.ReflectionWitness.__slots__ == ("sigma", "map", "verified", "per_line")
    assert list(inspect.signature(witness.verify_reflection).parameters) == [
        "aplus", "aminus", "sigma", "map_kind"]
    # nothing read the report's stored witness; the verified attempts name sigma
    assert witness.PipelineReport.__slots__ == (
        "case", "status", "aut_order", "group_label", "involution_count",
        "constraint", "attempts")


# A fresh interpreter without site (whose .pth files can load modules first)
# reports what importing the package and the corpus loads.
COLD_IMPORT = """
import sys
sys.path.insert(0, {src!r})
import arrsym
package = [m for m in ("dataclasses", "inspect", "json", "arrsym.render") if m in sys.modules]
import arrsym.corpus
corpus = [m for m in ("shutil", "pathlib", "importlib.resources") if m in sys.modules]
names = {{}}
exec("from arrsym import *", names)
print([package, corpus, arrsym.render_svg.__module__, arrsym.RenderOptions.__module__,
       sorted(set(arrsym.__all__) - set(names))])
"""


def test_import_loads_no_unused_module():
    out = subprocess.run([sys.executable, "-S", "-c", COLD_IMPORT.format(src=str(SRC))],
                         capture_output=True, text=True, timeout=60, check=True)
    package, corpus, *render, missing = ast.literal_eval(out.stdout.strip())
    assert package == [] and corpus == []
    assert render == ["arrsym.render", "arrsym.render"] and missing == []
