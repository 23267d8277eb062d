"""The public API: the names in ``arrsym.__all__``, and no more."""

import ast
import inspect
import re
import subprocess
import sys
from pathlib import Path

import arrsym
from arrsym import combinatorics, fields, geometry, polys, witness

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = Path(__file__).resolve().parents[1] / "src"

PUBLIC = [
    "Arrangement", "AutGroup", "ConfigTable", "ConstructionPlan", "FieldSpec",
    "MapKind", "ModuliConstraint", "Permutation", "PipelineReport", "Poly",
    "ProjLine", "ProjPoint", "QuadExt", "RATIONAL", "RatFunc",
    "ReflectionWitness", "RenderOptions", "SWAP", "SWAP_CONJUGATE",
    "automorphism_group", "derive_constraint", "evaluate_plan", "extract_sigma",
    "format_scalar", "intersect", "involutions", "is_lattice_isomorphism",
    "lattice_of", "parse_arrangement", "parse_config_table", "parse_cycles",
    "parse_plan", "parse_ratfunc", "parse_scalar", "poly_reduce", "quad_roots",
    "realize_components", "render_svg", "root_product", "run_pipeline",
    "verify_reflection",
]


def test_public_names_are_pinned():
    assert sorted(arrsym.__all__) == sorted(PUBLIC)
    assert len(arrsym.__all__) == len(set(arrsym.__all__)) == 41
    assert all(hasattr(arrsym, name) for name in arrsym.__all__)


def test_removed_helpers_are_gone():
    # each duplicated another name, was called only by the tests, or kept
    # the order of a replaced search
    for module, name in ((witness, "grid_candidates"), (geometry, "apply_coordinate_map"),
                         (geometry, "relabel"), (geometry, "lines_proj_equal"),
                         (fields, "galois_conjugate"), (polys, "ratfunc_eval"),
                         (geometry, "IntersectionLattice"), (geometry, "_pair_groups"),
                         (combinatorics, "_pair_order")):
        assert not hasattr(module, name) and not hasattr(arrsym, name)


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
