"""The public API: the names in ``arrsym.__all__``, and no more."""

import arrsym
from arrsym import fields, geometry, polys, witness

PUBLIC = [
    "Arrangement", "AutGroup", "ConfigTable", "ConstructionPlan", "FieldSpec",
    "IntersectionLattice", "MapKind", "ModuliConstraint", "Permutation",
    "PipelineReport", "Poly", "ProjLine", "ProjPoint", "QuadExt", "RATIONAL",
    "RatFunc", "ReflectionWitness", "RenderOptions", "SWAP", "SWAP_CONJUGATE",
    "automorphism_group", "derive_constraint", "evaluate_plan", "extract_sigma",
    "format_scalar", "intersect", "involutions", "is_lattice_isomorphism",
    "lattice_of", "parse_arrangement", "parse_config_table", "parse_cycles",
    "parse_plan", "parse_ratfunc", "parse_scalar", "poly_reduce", "quad_roots",
    "realize_components", "render_svg", "root_product", "run_pipeline",
    "verify_reflection",
]


def test_public_names_are_pinned():
    assert sorted(arrsym.__all__) == sorted(PUBLIC)
    assert len(arrsym.__all__) == len(set(arrsym.__all__)) == 42
    assert all(hasattr(arrsym, name) for name in arrsym.__all__)


def test_removed_helpers_are_gone():
    # each duplicated another name or was called only by the tests
    for module, name in ((witness, "grid_candidates"), (geometry, "apply_coordinate_map"),
                         (geometry, "relabel"), (geometry, "lines_proj_equal"),
                         (fields, "galois_conjugate"), (polys, "ratfunc_eval")):
        assert not hasattr(module, name) and not hasattr(arrsym, name)
