"""Reflection verification: does the swap x<->y (optionally composed with
conjugation) carry one moduli component onto the other, line for line,
under a combinatorial involution?

The pipeline tries every involution that admits a grid candidate, under
every map, rather than one chosen pair; FAILURE is declared only after all
of them.  The test runs on the plan's two realizations, which do not depend
on the grid choice, so each (involution, map) pair is one attempt that
records how many grid choices the involution admits.  The conjugating map
is attempted only over imaginary fields, where the Galois conjugation is
complex conjugation and therefore a genuine homeomorphism of the plane.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .combinatorics import (AutGroup, ConfigTable, Permutation,
                            automorphism_group, involutions,
                            is_lattice_isomorphism)
from .errors import ValidationError
from .fields import QuadExt
from .geometry import (SWAP, SWAP_CONJUGATE, Arrangement, MapKind, ProjLine,
                       lattice_of)
from .moduli import (ConstructionPlan, ModuliConstraint, derive_constraint,
                     realize_components, root_product)


def grid_candidates(table: ConfigTable, sigma: Permutation) -> list[tuple[int, int]]:
    """Ordered pairs (i, j), i != j, with sigma(i) not in {i, j} and
    sigma(j) != j: the pairs eligible to be pinned to x=0 and x=z."""
    if sigma.degree != table.n:
        raise ValidationError("permutation degree differs from table")
    out = []
    for i in range(1, table.n + 1):
        if sigma(i) == i:
            continue
        for j in range(1, table.n + 1):
            if j == i or sigma(j) == j or sigma(i) == j:
                continue
            out.append((i, j))
    return out


def _grid_count(sigma: Permutation) -> int:
    """len(grid_candidates(table, sigma)): k(k - 2) for the k lines sigma moves."""
    return (k := sum(i != j for i, j in enumerate(sigma.images, 1))) * (k - 2)


@dataclass(frozen=True)
class ReflectionWitness:
    """Per-line certificates that map(L+_i) equals L-_{sigma(i)} projectively.

    Each certificate is the scalar relating the mapped (pre-normalization)
    triple to the stored normal form of the target line; None marks a line
    pair that is not projectively equal."""

    case: str
    sigma: Permutation
    map: MapKind
    verified: bool
    per_line: tuple[tuple[int, QuadExt | None], ...]
    roots: tuple[QuadExt, QuadExt] | None = None

    def failures(self) -> list[int]:
        return [i for i, cert in self.per_line if cert is None]


def _match_scalar(mapped: tuple, target: ProjLine) -> QuadExt | None:
    """Nonzero scalar c with mapped == c * target.coords, or None.  The
    target is in normal form, so c is mapped's entry at its leading 1."""
    scale = None
    for m, t in zip(mapped, target.coords):
        if scale is None and not t.is_zero:
            scale = m
        elif m != (t if t.is_zero else scale * t):
            return None
    return None if scale.is_zero else scale


def verify_reflection(aplus: Arrangement, aminus: Arrangement,
                      sigma: Permutation, map_kind: MapKind,
                      case: str | None = None,
                      roots: tuple[QuadExt, QuadExt] | None = None) -> ReflectionWitness:
    """Check map(L+_i) = L-_{sigma(i)} projectively for every i."""
    if aplus.n != aminus.n or sigma.degree != aplus.n:
        raise ValidationError("size mismatch between arrangements and permutation")
    if aplus.field != aminus.field:
        raise ValidationError("arrangements live over different fields")
    certificates = []
    for i in range(1, aplus.n + 1):
        mapped = map_kind.apply_line(aplus.line(i))
        certificates.append((i, _match_scalar(mapped, aminus.line(sigma(i)))))
    verified = all(cert is not None for _, cert in certificates)
    return ReflectionWitness(case=case if case is not None else aplus.name,
                             sigma=sigma, map=map_kind, verified=verified,
                             per_line=tuple(certificates), roots=roots)


def extract_sigma(a: Arrangement, b: Arrangement,
                  map_kind: MapKind) -> Permutation | None:
    """If the mapped union of a's lines equals b's union setwise, return the
    unique permutation with map(L_i) = b's line sigma(i) — confirmed to be
    a lattice isomorphism of the derived tables — else None."""
    if a.n != b.n:
        raise ValidationError("size mismatch")
    if a.field != b.field:
        raise ValidationError("arrangements live over different fields")
    position = {line.coords: idx for idx, line in enumerate(b.lines, start=1)}
    images = []
    for i in range(1, a.n + 1):
        mapped = ProjLine(map_kind.apply_line(a.line(i)), a.field)
        target = position.get(mapped.coords)
        if target is None:
            return None
        images.append(target)
    sigma = Permutation(images)
    _, table_a = lattice_of(a)
    _, table_b = lattice_of(b)
    if not is_lattice_isomorphism(table_a, table_b, sigma):
        return None
    return sigma


@dataclass(frozen=True)
class Attempt:
    """One verdict for (sigma, map); grids counts sigma's grid candidates."""

    sigma: Permutation
    map: MapKind
    grids: int
    verified: bool


@dataclass(frozen=True)
class PipelineReport:
    case: str
    status: str                                   # SUCCESS | FAILURE | INAPPLICABLE
    aut_order: int
    group_label: str
    involution_count: int
    constraint: ModuliConstraint | None = None
    attempts: tuple[Attempt, ...] = ()
    witness: ReflectionWitness | None = None      # first verified attempt

    def to_dict(self) -> dict:
        data = {
            "case": self.case,
            "status": self.status,
            "aut_order": self.aut_order,
            "group_label": self.group_label,
            "involutions": self.involution_count,
        }
        if self.constraint is not None:
            con = self.constraint
            data["constraint"] = con.format()
            data["field_d"] = con.field.d
            data["roots"] = [str(r) for r in con.roots]
            data["root_product"] = str(root_product(con.poly))
            data["discarded"] = [[f.format(con.var), reason]
                                 for f, reason in con.discarded]
        data["attempts"] = [
            {"sigma": at.sigma.cycle_string(),
             "map": at.map.label,
             "grids": at.grids,
             "outcome": "verified" if at.verified else "not-verified"}
            for at in self.attempts]
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def to_text(self) -> str:
        out = [f"case {self.case}: automorphism group order {self.aut_order} "
               f"({self.group_label}), {self.involution_count} involution(s)"]
        if self.status == "INAPPLICABLE":
            out.append("no involutions: the method does not apply")
            out.append(f"status: {self.status}")
            return "\n".join(out)
        if self.constraint is not None:
            con = self.constraint
            out.append(f"constraint: {con.format()}  (field d={con.field.d}, "
                       f"roots {con.roots[0]}, {con.roots[1]}, "
                       f"root product {root_product(con.poly)})")
            for f, reason in con.discarded:
                out.append(f"  discarded factor {f.format(con.var)}: {reason}")
        for at in self.attempts:
            word = "verified" if at.verified else "not verified"
            out.append(f"  sigma {at.sigma.cycle_string()}  map {at.map.label}  "
                       f"[{at.grids} grid choice(s)]  -> {word}")
        out.append(f"status: {self.status}")
        return "\n".join(out)


def run_case(case_name: str, config: ConfigTable,
             plan: ConstructionPlan | None,
             group: AutGroup | None = None) -> PipelineReport:
    """The whole method on one case: automorphism group, involutions,
    constraint, components, and one attempt per (involution, map) for every
    involution with at least one grid candidate."""
    if group is None:
        group = automorphism_group(config)
    invs = involutions(group)
    label = group.structure_name()
    if not invs:
        return PipelineReport(case=case_name, status="INAPPLICABLE",
                              aut_order=group.order, group_label=label,
                              involution_count=0)
    if plan is None:
        raise ValidationError("a construction plan is required once involutions exist")
    constraint = derive_constraint(plan, config)
    aplus, aminus = realize_components(plan, constraint)
    kinds = [SWAP]
    # conjugation is complex conjugation only over imaginary fields
    if constraint.field.d is not None and constraint.field.d < 0:
        kinds.append(SWAP_CONJUGATE)
    attempts: list[Attempt] = []
    witness: ReflectionWitness | None = None
    for sigma in invs:
        grids = _grid_count(sigma)
        if not grids:
            continue
        for kind in kinds:
            result = verify_reflection(aplus, aminus, sigma, kind,
                                       case=case_name, roots=constraint.roots)
            attempts.append(Attempt(sigma=sigma, map=kind, grids=grids,
                                    verified=result.verified))
            if result.verified and witness is None:
                witness = result
    status = "SUCCESS" if witness is not None else "FAILURE"
    return PipelineReport(case=case_name, status=status, aut_order=group.order,
                          group_label=label, involution_count=len(invs),
                          constraint=constraint, attempts=tuple(attempts),
                          witness=witness)


def run_pipeline(case) -> PipelineReport:
    """Run the method on a corpus case (by name) or a prepared CaseData."""
    from . import corpus

    if isinstance(case, str):
        case = corpus.get_case(case)
    return run_case(case.name, case.config, case.plan)
