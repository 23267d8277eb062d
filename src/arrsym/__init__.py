"""Exact-arithmetic analysis of projective line arrangements: lattice
automorphism groups, moduli-component constraints over quadratic number
fields, and verification of the reflection x<->y between components."""

from .combinatorics import (AutGroup, ConfigTable, Permutation,
                            automorphism_group, involutions,
                            is_lattice_isomorphism, parse_config_table,
                            parse_cycles)
from .fields import (RATIONAL, FieldSpec, QuadExt, format_scalar, parse_scalar,
                     quad_roots)
from .geometry import (Arrangement, ProjLine, ProjPoint, intersect, lattice_of,
                       parse_arrangement)
from .moduli import (ConstructionPlan, ModuliConstraint, derive_constraint,
                     evaluate_plan, parse_plan, realize_components,
                     root_product)
from .polys import Poly, RatFunc, parse_ratfunc, poly_reduce
from .witness import (SWAP, SWAP_CONJUGATE, MapKind, PipelineReport,
                      ReflectionWitness, extract_sigma, run_pipeline,
                      verify_reflection)

__version__ = "0.1.0"

__all__ = [
    "AutGroup", "Arrangement", "ConfigTable", "ConstructionPlan", "FieldSpec",
    "MapKind", "ModuliConstraint", "Permutation", "PipelineReport", "Poly",
    "ProjLine", "ProjPoint", "QuadExt", "RATIONAL", "RatFunc",
    "ReflectionWitness", "RenderOptions", "SWAP", "SWAP_CONJUGATE",
    "automorphism_group", "derive_constraint", "evaluate_plan",
    "extract_sigma", "format_scalar", "intersect", "involutions",
    "is_lattice_isomorphism", "lattice_of", "parse_arrangement",
    "parse_config_table", "parse_cycles", "parse_plan", "parse_ratfunc",
    "parse_scalar", "poly_reduce", "quad_roots", "realize_components",
    "render_svg", "root_product", "run_pipeline", "verify_reflection",
]


def __getattr__(name: str):
    """Load ``render`` on first use of its names (PEP 562): no pipeline step draws."""
    if name not in ("RenderOptions", "render_svg"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import render
    return getattr(render, name)
