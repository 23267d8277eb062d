"""Embedded datasets: configuration tables, construction plans, and the
published symmetry data and expected outcomes for each case.

The nine cases are the complete corpus; each carries the involution, grid
pair, and map kind used in the source material, the expected automorphism
group order, the expected constraint, and the expected pipeline status.
The Falk-Sturmfels realization is derived from its configuration table
alone (no published equations exist for it here), so its constraint is
marked "derived" and is validated purely through the lattice oracle.
"""

from __future__ import annotations

import os
from fractions import Fraction

from ..combinatorics import parse_config_table, parse_cycles
from ..errors import ValidationError
from ..moduli import parse_plan
from ..polys import Poly
from ..record import Record
from ..witness import SWAP, SWAP_CONJUGATE

_DATA = os.path.join(os.path.dirname(__file__), "data")


class CaseData(Record):
    # grid: (i, j, sigma(i), sigma(j)); expected_status: SUCCESS | FAILURE;
    # constraint_provenance: "published" | "derived"
    __slots__ = ("name", "config", "plan", "sigma", "grid", "map", "expected_aut_order",
                 "expected_constraint", "expected_root_product", "expected_status",
                 "constraint_provenance")


class _CaseSpec(Record):
    # constraint: ascending coefficients
    __slots__ = ("stem", "sigma", "grid", "map", "aut_order", "constraint",
                 "root_product", "status", "provenance")
    _defaults = ("published",)


_SPECS: dict[str, _CaseSpec] = {
    "{1}": _CaseSpec("case-1", "(1 6)(2 5)(3 4)(7 8)", (4, 5), SWAP,
                     2, (-1, -1, 1), Fraction(-1), "SUCCESS"),
    "{6}": _CaseSpec("case-6", "(1 5)(2 6)(3 4)(7 9)", (4, 6), SWAP,
                     2, (-1, 1, 1), Fraction(-1), "SUCCESS"),
    "{7}": _CaseSpec("case-7", "(1 5)(2 6)(3 4)(7 9)", (4, 5), SWAP,
                     24, (-1, -1, 1), Fraction(-1), "SUCCESS"),
    "maclane": _CaseSpec("maclane", "(1 5)(2 6)(3 4)(7 8)", (1, 2), SWAP_CONJUGATE,
                         48, (1, -1, 1), Fraction(1), "SUCCESS"),
    "nazir-yoshinaga": _CaseSpec("nazir-yoshinaga", "(1 2)(5 6)(7 8)", (2, 7), SWAP,
                                 6, (1, -2, 2), Fraction(1, 2), "SUCCESS"),
    "11.B.3.b.2.iii": _CaseSpec("11B3b2iii", "(1 2)(5 6)(7 8)(9 10)", (1, 5), SWAP,
                                2, (1, -1, 1), Fraction(1), "SUCCESS"),
    "11.B.3.b.2.iv": _CaseSpec("11B3b2iv", "(1 2)(5 6)(7 8)(9 10)", (1, 5), SWAP,
                               2, (1, 1, 1), Fraction(1), "SUCCESS"),
    "11.B.2.iv": _CaseSpec("11B2iv", "(2 3)(4 5)(6 10)(7 9)", (2, 4), SWAP,
                           2, (1, -1, 1), Fraction(1), "SUCCESS"),
    "falk-sturmfels": _CaseSpec("falk-sturmfels", "(1 2)(3 4)(5 6)(7 8)", (5, 7), SWAP,
                                4, (-1, -1, 1), Fraction(-1), "FAILURE",
                                provenance="derived"),
}

_cache: dict[str, CaseData] = {}


def list_cases() -> list[str]:
    """Names of all shipped cases, in a stable order."""
    return list(_SPECS)


def _read_data(filename: str) -> str:
    with open(os.path.join(_DATA, filename), encoding="utf-8") as fh:
        return fh.read()


def get_case(name: str) -> CaseData:
    """Fully populated case data; raises KeyError for unknown names."""
    if name in _cache:
        return _cache[name]
    if name not in _SPECS:
        raise KeyError(f"unknown case {name!r}; known: {', '.join(_SPECS)}")
    spec = _SPECS[name]
    config = parse_config_table(_read_data(spec.stem + ".cfg"))
    plan = parse_plan(_read_data(spec.stem + ".plan"))
    if config.n != plan.n:
        raise ValidationError(f"{name}: table and plan disagree on line count")
    sigma = parse_cycles(spec.sigma, config.n)
    i, j = spec.grid
    case = CaseData(
        name=name, config=config, plan=plan, sigma=sigma,
        grid=(i, j, sigma(i), sigma(j)), map=spec.map,
        expected_aut_order=spec.aut_order,
        expected_constraint=Poly(spec.constraint),
        expected_root_product=spec.root_product,
        expected_status=spec.status,
        constraint_provenance=spec.provenance,
    )
    _cache[name] = case
    return case


def data_files() -> list[str]:
    """Filenames of the embedded .cfg/.plan sources."""
    out = []
    for spec in _SPECS.values():
        out.extend((spec.stem + ".cfg", spec.stem + ".plan"))
    return out


def export_data(destination) -> list:
    """Copy the embedded data files into a directory for user editing; return their paths."""
    import shutil
    from pathlib import Path

    dest = Path(destination)
    dest.mkdir(parents=True, exist_ok=True)
    written = []
    for filename in data_files():
        target = dest / filename
        shutil.copy(os.path.join(_DATA, filename), target)
        written.append(target)
    return written
