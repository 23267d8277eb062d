"""Reflection verification: does the swap x<->y (optionally composed with
conjugation) carry one moduli component onto the other, line for line,
under a combinatorial involution?

The pipeline tries every involution that admits a grid choice, under
every map, rather than one chosen pair; FAILURE is declared only after all
of them.  The test runs on the plan's two realizations, which do not depend
on the grid choice, so each (involution, map) pair is one attempt that
records how many grid choices the involution admits.  The conjugating map
is attempted only over imaginary fields, where the Galois conjugation is
complex conjugation and therefore a genuine homeomorphism of the plane.

Both maps act on the lines' keys: a line matches when its image, made
primitive, is the target's key.  ``extract_sigma`` looks the images up
among the other arrangement's keys and runs no lattice check: both maps
are collineations, so the relabelling keeps every concurrence and is a
lattice isomorphism by construction.  The pipeline runs it once per map;
an attempt is verified when its involution is that relabelling.
"""

from __future__ import annotations

from .combinatorics import ConfigTable, Permutation, automorphism_group, involutions
from .errors import ValidationError
from .fields import QuadExt, _quad
from .geometry import SWAP, SWAP_CONJUGATE, Arrangement, MapKind, _primitive
from .geometry import lattice_of  # noqa: F401  (unused; perfbench's tracer test reads it)
from .moduli import (ConstructionPlan, ModuliConstraint, derive_constraint,
                     realize_components, root_product)
from .record import Record


def _grid_count(sigma: Permutation) -> int:
    """Grid choices: pairs (i, j), i != j, to pin to x=0 and x=z, with sigma
    moving both and sigma(i) != j; k(k - 2) for the k lines sigma moves."""
    return (k := sum(i != j for i, j in enumerate(sigma.images, 1))) * (k - 2)


class ReflectionWitness(Record):
    """Per-line certificates that map(L+_i) equals L-_{sigma(i)} projectively.

    Each certificate is the scalar relating the mapped (pre-normalization)
    triple to the stored normal form of the target line; None marks a line
    pair that is not projectively equal."""

    __slots__ = ("sigma", "map", "verified", "per_line")

    def __init__(self, sigma: Permutation, map: MapKind, verified: bool,
                 per_line: tuple[tuple[int, QuadExt | None], ...]) -> None:
        self._fill(sigma, map, verified, per_line)

    def failures(self) -> list[int]:
        return [i for i, cert in self.per_line if cert is None]


def verify_reflection(aplus: Arrangement, aminus: Arrangement,
                      sigma: Permutation, map_kind: MapKind) -> ReflectionWitness:
    """Check map(L+_i) = L-_{sigma(i)} projectively for every i."""
    if aplus.n != aminus.n or sigma.degree != aplus.n:
        raise ValidationError("size mismatch between arrangements and permutation")
    if aplus.field != aminus.field:
        raise ValidationError("arrangements live over different fields")
    d = aplus.field.d or 0
    certificates = []
    for i in range(1, aplus.n + 1):
        source, target = aplus.line(i), aminus.line(sigma(i))
        image = map_kind._image(source.key)
        cert = None
        if _primitive(image, d) == target.key:
            # the image over the source's pivot, at the target's pivot
            k = 0 if target.key[0] else 2 if target.key[2] else 4
            s = source.key[0] or source.key[2] or source.key[4]
            cert = _quad(image[k], image[k + 1], s, source.field.d or 0, source.field)
        certificates.append((i, cert))
    verified = all(cert is not None for _, cert in certificates)
    return ReflectionWitness(sigma=sigma, map=map_kind, verified=verified,
                             per_line=tuple(certificates))


def extract_sigma(a: Arrangement, b: Arrangement,
                  map_kind: MapKind) -> Permutation | None:
    """If the mapped union of a's lines equals b's union setwise, return the
    unique permutation with map(L_i) = b's line sigma(i), else None.

    sigma is a lattice isomorphism with no check: the swap is linear and
    conjugation a field automorphism, so det(map(a_i), map(a_j), map(a_k))
    is +-det or conj(det) of (a_i, a_j, a_k), and concurrency is kept."""
    if a.n != b.n:
        raise ValidationError("size mismatch")
    if a.field != b.field:
        raise ValidationError("arrangements live over different fields")
    d = a.field.d or 0
    position = {line.key: idx for idx, line in enumerate(b.lines, start=1)}
    images = []
    for line in a.lines:
        target = position.get(_primitive(map_kind._image(line.key), d))
        if target is None:
            return None
        images.append(target)
    return Permutation(images)


class Attempt(Record):
    """One verdict for (sigma, map); grids counts sigma's grid candidates."""

    __slots__ = ("sigma", "map", "grids", "verified")

    def __init__(self, sigma: Permutation, map: MapKind, grids: int, verified: bool) -> None:
        self._fill(sigma, map, grids, verified)


class PipelineReport(Record):
    __slots__ = ("case", "status", "aut_order", "group_label", "involution_count",
                 "constraint", "attempts")

    def __init__(self, case: str, status: str, aut_order: int, group_label: str,
                 involution_count: int, constraint: ModuliConstraint | None = None,
                 attempts: tuple[Attempt, ...] = ()) -> None:
        # status: SUCCESS | FAILURE | INAPPLICABLE
        self._fill(case, status, aut_order, group_label, involution_count, constraint, attempts)

    def to_dict(self) -> dict:
        data = {
            "case": self.case,
            "status": self.status,
            "aut_order": self.aut_order,
            "group_label": self.group_label,
            "involutions": self.involution_count,
        }
        if self.constraint is not None:
            data.update(self.constraint.to_dict())
        data["attempts"] = [
            {"sigma": at.sigma.cycle_string(),
             "map": at.map.label,
             "grids": at.grids,
             "outcome": "verified" if at.verified else "not-verified"}
            for at in self.attempts]
        return data

    def to_json(self) -> str:
        import json

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
             plan: ConstructionPlan | None) -> PipelineReport:
    """The whole method on one case: automorphism group, involutions,
    constraint, components, and one attempt per (involution, map) for every
    involution with at least one grid candidate."""
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
    # A-'s keys are distinct (Arrangement refuses coinciding lines), so each
    # image of a line of A+ is the key of at most one line of A-:
    # verify_reflection(sigma, kind) holds exactly when sigma is the
    # relabelling extract_sigma reads off, and for no sigma when that is None.
    found = {kind: extract_sigma(aplus, aminus, kind) for kind in kinds}
    attempts = [Attempt(sigma=sigma, map=kind, grids=grids, verified=sigma == found[kind])
                for sigma in invs if (grids := _grid_count(sigma)) for kind in kinds]
    status = "SUCCESS" if any(at.verified for at in attempts) else "FAILURE"
    return PipelineReport(case=case_name, status=status, aut_order=group.order,
                          group_label=label, involution_count=len(invs),
                          constraint=constraint, attempts=tuple(attempts))


def run_pipeline(case) -> PipelineReport:
    """Run the method on a corpus case (by name) or a prepared CaseData."""
    from . import corpus

    if isinstance(case, str):
        case = corpus.get_case(case)
    return run_case(case.name, case.config, case.plan)
