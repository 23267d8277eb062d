"""Exact projective geometry over Q(sqrt d): lines, incidence, lattices.

Lines and points are coefficient triples normalized so the first nonzero
entry is 1; every equality test is syntactic equality of normal forms,
never numeric.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations
from math import comb, gcd, lcm

from .combinatorics import ConfigTable
from .errors import DegenerateError, ParseError, ValidationError, _quoted
from .fields import (RATIONAL, FieldSpec, QuadExt, _quad, format_scalar,
                     parse_digits, parse_scalar)


def _as_scalar(value, field: FieldSpec) -> QuadExt:
    if isinstance(value, QuadExt):
        return value.with_field(field)
    return QuadExt(value, 0, field)


def _normalize_triple(coords, field: FieldSpec) -> tuple[QuadExt, QuadExt, QuadExt]:
    vals = tuple(v if type(v) is QuadExt and v.field is field else _as_scalar(v, field)
                 for v in coords)
    if len(vals) != 3:
        raise ValidationError("expected a coefficient triple")
    pivot = next((v for v in vals if not v.is_zero), None)
    if pivot is None:
        raise ValidationError("all three coefficients are zero")
    inv = pivot.inverse()
    return tuple(v * inv for v in vals)


class _Triple:
    __slots__ = ("coords", "field")

    def __init__(self, coords, field: FieldSpec | None = None) -> None:
        if field is None:
            field = next((c.field for c in coords
                          if isinstance(c, QuadExt) and not c.field.is_rational),
                         RATIONAL)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coords", _normalize_triple(coords, field))

    @classmethod
    def _normal(cls, coords: tuple, field: FieldSpec):
        """An instance from coords of ``field`` that are already in normal
        form, without normalizing them again."""
        x = object.__new__(cls)
        object.__setattr__(x, "field", field)
        object.__setattr__(x, "coords", coords)
        return x

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other) -> bool:
        return type(self) is type(other) and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.coords))

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, k: int) -> QuadExt:
        return self.coords[k]


class ProjLine(_Triple):
    """Projective line A*x + B*y + C*z = 0, normalized."""

    def incidence(self, point: "ProjPoint") -> QuadExt:
        a, b, c = self.coords
        x, y, z = point.coords
        return a * x + b * y + c * z

    def contains(self, point: "ProjPoint") -> bool:
        return self.incidence(point).is_zero

    def __repr__(self) -> str:
        return "ProjLine(%s; %s; %s)" % tuple(format_scalar(c) for c in self.coords)


class ProjPoint(_Triple):
    """Projective point [X : Y : Z], normalized like a line."""

    def __repr__(self) -> str:
        return "ProjPoint[%s : %s : %s]" % tuple(format_scalar(c) for c in self.coords)


def cross(u, v) -> tuple:
    """Cross product of coefficient/coordinate triples (works for any
    scalar type with ring operations)."""
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def intersect(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    """The unique common point of two distinct lines."""
    if l1 == l2:
        raise DegenerateError("intersect of identical lines")
    # a rational line's coordinates mix into the other line's field
    field = l1.field if not l1.field.is_rational else l2.field
    return ProjPoint(cross(l1.coords, l2.coords), field)


class Arrangement:
    """Ordered projective lines, labeled 1..n by position."""

    __slots__ = ("name", "field", "lines")

    def __init__(self, name: str, field: FieldSpec, lines) -> None:
        lns = tuple(ln if isinstance(ln, ProjLine) else ProjLine(ln, field)
                    for ln in lines)
        for ln in lns:
            if not ln.field.is_rational and ln.field != field:
                raise ValidationError("line field differs from arrangement field")
        seen = {}
        for idx, ln in enumerate(lns, start=1):
            if ln.coords in seen:
                raise DegenerateError(
                    f"lines {seen[ln.coords]} and {idx} coincide after normalization")
            seen[ln.coords] = idx
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "lines", lns)

    def __setattr__(self, name, value):
        raise AttributeError("Arrangement is immutable")

    def _renamed(self, name: str) -> "Arrangement":
        """The same lines under another name, not checked again."""
        out = object.__new__(Arrangement)
        object.__setattr__(out, "name", name)
        object.__setattr__(out, "field", self.field)
        object.__setattr__(out, "lines", self.lines)
        return out

    @property
    def n(self) -> int:
        return len(self.lines)

    def line(self, label: int) -> ProjLine:
        return self.lines[label - 1]

    def __eq__(self, other) -> bool:
        return (isinstance(other, Arrangement)
                and self.lines == other.lines)

    def __hash__(self) -> int:
        return hash(self.lines)

    def serialize(self) -> str:
        out = [f"arrangement {self.name}", f"field {self.field.header()}"]
        for idx, ln in enumerate(self.lines, start=1):
            triple = " ; ".join(format_scalar(c) for c in ln.coords)
            out.append(f"line {idx} : {triple}")
        return "\n".join(out) + "\n"

    def __repr__(self) -> str:
        return f"Arrangement({self.name!r}, n={self.n}, field={self.field})"


@dataclass(frozen=True)
class IntersectionLattice:
    """Every pairwise intersection grouped by coincident point; covers each
    unordered line pair exactly once."""

    points: tuple[tuple[ProjPoint, frozenset], ...]

    def multiple_points(self) -> list[tuple[ProjPoint, frozenset]]:
        return [(p, s) for p, s in self.points if len(s) >= 3]

    def census(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for _, s in self.points:
            out[len(s)] = out.get(len(s), 0) + 1
        return out


def _scaled(line: ProjLine) -> tuple[int, int, int, int, int, int]:
    """The line as six integers (a0, b0, a1, b1, a2, b2): coordinate k is
    (a_k + b_k*sqrt(d))/den for one common den, so the a_k + b_k*sqrt(d)
    are coefficients of the same line."""
    x, y, z = line.coords
    den = lcm(x._den, y._den, z._den)
    sx, sy, sz = den // x._den, den // y._den, den // z._den
    return x._p * sx, x._q * sx, y._p * sy, y._q * sy, z._p * sz, z._q * sz


def _point_key(u: tuple, v: tuple, d: int) -> tuple[int, ...]:
    """The common point of two scaled lines as six integers, the same for
    every representative of the point.  Raises DegenerateError when u and
    v are one line.

    The cross product over Z[sqrt d] is multiplied by the conjugate of its
    first nonzero coordinate, which becomes that coordinate's integer norm,
    then divided by the gcd of its six integers, with the pivot made
    positive.  Two representatives with a rational pivot differ by a
    rational scalar, so this primitive integer vector is unique."""
    a0, b0, a1, b1, a2, b2 = u
    c0, e0, c1, e1, c2, e2 = v
    # (a + b*sqrt d)(c + e*sqrt d) = (ac + d*be) + (ae + bc)*sqrt d
    w = [a1 * c2 - a2 * c1 + d * (b1 * e2 - b2 * e1),
         a1 * e2 + b1 * c2 - a2 * e1 - b2 * c1,
         a2 * c0 - a0 * c2 + d * (b2 * e0 - b0 * e2),
         a2 * e0 + b2 * c0 - a0 * e2 - b0 * c2,
         a0 * c1 - a1 * c0 + d * (b0 * e1 - b1 * e0),
         a0 * e1 + b0 * c1 - a1 * e0 - b1 * c0]
    k = next((k for k in (0, 2, 4) if w[k] or w[k + 1]), None)
    if k is None:
        raise DegenerateError("intersect of identical lines")
    s, t = w[k], w[k + 1]
    if t:
        # (p + q*sqrt d)(s - t*sqrt d) = (ps - d*qt) + (qs - pt)*sqrt d
        w = [x for p, q in zip(w[::2], w[1::2])
             for x in (p * s - d * q * t, q * s - p * t)]
    g = gcd(*w)
    if w[k] < 0:
        g = -g
    return tuple(w) if g == 1 else tuple([x // g for x in w])


def lattice_of(arrangement: Arrangement) -> tuple[IntersectionLattice, ConfigTable]:
    """Group all C(n,2) pairwise intersections by exact coincidence.

    Each pair's point is grouped by the integer key of ``_point_key``,
    computed on plain ints from the lines scaled to integers once; one
    normalized ProjPoint is built per group, in the field ``intersect``
    gives the group's first pair.  Raises DegenerateError when two lines
    coincide.  The derived ConfigTable lists only points of multiplicity
    >= 3, labeled m1, m2, ... in lexicographic order of their sorted line
    sets.
    """
    lines = arrangement.lines
    d = arrangement.field.d or 0
    scaled = [_scaled(ln) for ln in lines]
    groups: dict[tuple, tuple[int, int, set[int]]] = {}
    for i, j in combinations(range(arrangement.n), 2):
        key = _point_key(scaled[i], scaled[j], d)
        group = groups.get(key)
        if group is None:
            groups[key] = (i, j, {i + 1, j + 1})
        else:
            group[2].update((i + 1, j + 1))
    entries = []
    for key, (i, j, members) in groups.items():
        field = lines[i].field if not lines[i].field.is_rational else lines[j].field
        pivot, dd = next(x for x in key[::2] if x), field.d or 0
        coords = (_quad(key[0], key[1], pivot, dd, field),
                  _quad(key[2], key[3], pivot, dd, field),
                  _quad(key[4], key[5], pivot, dd, field))
        entries.append((ProjPoint._normal(coords, field), frozenset(members)))
    entries.sort(key=lambda e: tuple(sorted(e[1])))
    lattice = IntersectionLattice(points=tuple(entries))
    total = sum(comb(len(s), 2) for _, s in lattice.points)
    if total != comb(arrangement.n, 2):
        raise ValidationError("lattice does not cover every line pair exactly once")
    multiple = [s for _, s in entries if len(s) >= 3]
    table = ConfigTable(arrangement.name, arrangement.n,
                        [(f"m{k}", s) for k, s in enumerate(multiple, start=1)])
    return lattice, table


@dataclass(frozen=True)
class MapKind:
    """Coordinate map: swap sends (A,B,C) to (B,A,C), the reflection
    exchanging x and y; conjugate then applies the Galois conjugation to
    every coefficient."""

    swap: bool
    conjugate: bool

    @property
    def label(self) -> str:
        parts = [name for name, on in (("swap", self.swap),
                                       ("conjugate", self.conjugate)) if on]
        return "+".join(parts) or "identity"

    def apply_line(self, line: ProjLine) -> tuple[QuadExt, QuadExt, QuadExt]:
        a, b, c = line.coords
        if self.swap:
            a, b = b, a
        if self.conjugate:
            a, b, c = a.conjugate(), b.conjugate(), c.conjugate()
        return (a, b, c)

    def __str__(self) -> str:
        return self.label


SWAP = MapKind(swap=True, conjugate=False)
SWAP_CONJUGATE = MapKind(swap=True, conjugate=True)


def parse_arrangement(text: str) -> Arrangement:
    """Parse the .arr format: field header plus consecutive line triples."""
    name = None
    field = None
    entries: dict[int, tuple] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        keyword = fields[0]
        if keyword == "arrangement":
            if len(fields) != 2:
                raise ParseError(f"line {lineno}: expected 'arrangement <name>'")
            name = fields[1]
        elif keyword == "field":
            rest = fields[1:]
            if rest == ["rational"]:
                field = RATIONAL
            elif len(rest) == 2 and rest[0] == "sqrt":
                digits = rest[1].removeprefix("-")
                d = parse_digits(digits, f"line {lineno}: a field radicand")
                try:
                    field = FieldSpec.quadratic(-d if digits != rest[1] else d)
                except ValidationError as exc:
                    raise ParseError(f"line {lineno}: bad field ({exc})") from exc
            else:
                raise ParseError(f"line {lineno}: expected 'field rational' or 'field sqrt <d>'")
        elif keyword == "line":
            if field is None:
                raise ParseError(f"line {lineno}: 'field' must precede line entries")
            m = re.match(r"^line\s+(\d+)\s*:\s*(.*)$", line)
            if not m:
                raise ParseError(f"line {lineno}: expected 'line <i> : a ; b ; c'")
            idx = parse_digits(m.group(1), f"line {lineno}: a line label")
            parts = [p.strip() for p in m.group(2).split(";")]
            if len(parts) != 3:
                raise ParseError(f"line {lineno}: expected three ';'-separated scalars")
            if idx in entries:
                raise ParseError(f"line {lineno}: duplicate line index {idx}")
            entries[idx] = tuple(parse_scalar(p, field) for p in parts)
        else:
            raise ParseError(f"line {lineno}: unknown directive {_quoted(keyword)}")
    if name is None or field is None or not entries:
        raise ParseError("missing 'arrangement', 'field', or line entries")
    n = len(entries)
    if sorted(entries) != list(range(1, n + 1)):
        raise ParseError("line indices must be 1..n consecutively")
    try:
        return Arrangement(name, field, [entries[i] for i in range(1, n + 1)])
    except (ValidationError, DegenerateError) as exc:
        raise ParseError(str(exc)) from exc
