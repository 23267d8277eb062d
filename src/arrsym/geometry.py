"""Exact projective geometry over Q(sqrt d): lines, incidence, lattices.

A line or point is identified by its key: the primitive integer vector
(a0, b0, a1, b1, a2, b2) of a multiple (a_k + b_k*sqrt(d))_k of its
coefficient triple whose first nonzero entry is a positive integer
(``_primitive``).  Every equality test, lookup and map compares or moves
keys, never numeric values.  The normal form, the triple over its first
nonzero entry as QuadExt scalars, is built from the key for output only.
"""

from __future__ import annotations

import re
from itertools import combinations
from math import gcd, lcm

from .combinatorics import MAX_LINES, ConfigTable
from .errors import DegenerateError, FieldMixError, ParseError, ValidationError, _digits, _quoted
from .fields import (RATIONAL, FieldSpec, QuadExt, _directives, _quad, parse_digits,
                     parse_scalar)
from .record import Record


def _primitive(w, d: int) -> tuple[int, int, int, int, int, int]:
    """The key of the triple with entries w[2k] + w[2k+1]*sqrt(d), the same
    for every nonzero multiple of it.  Raises ValidationError when all
    three entries are zero.

    The triple is multiplied by the conjugate of its first nonzero entry,
    the pivot, which becomes that entry's integer norm, then divided by the
    gcd of its six integers, with the pivot made positive.  Two multiples
    with a rational pivot differ by a rational scalar, so this primitive
    integer vector is unique, and its pivot is rational and positive."""
    a0, b0, a1, b1, a2, b2 = w
    if a0 or b0:
        s, t = a0, b0
    elif a1 or b1:
        s, t = a1, b1
    elif a2 or b2:
        s, t = a2, b2
    else:
        raise ValidationError("all three coefficients are zero")
    if t:               # (p + q*sqrt d)(s - t*sqrt d) = (ps - d*qt) + (qs - pt)*sqrt d
        dt = d * t
        a0, b0, a1, b1, a2, b2 = (a0 * s - b0 * dt, b0 * s - a0 * t, a1 * s - b1 * dt,
                                  b1 * s - a1 * t, a2 * s - b2 * dt, b2 * s - a2 * t)
        s = s * s - t * dt              # the pivot, now its norm
    g = gcd(a0, b0, a1, b1, a2, b2)
    if s < 0:
        g = -g
    elif g == 1:
        return a0, b0, a1, b1, a2, b2
    return a0 // g, b0 // g, a1 // g, b1 // g, a2 // g, b2 // g


class _Triple(Record):
    """A projective line or point, identified by its key (``_primitive``)
    over the field's sqrt(d); ``coords`` is its normal form, the key over
    its pivot, built on first use."""

    __slots__ = ("key", "field", "_coords")
    __init__ = object.__init__              # __new__ builds the instance

    def __new__(cls, coords, field: FieldSpec | None = None):
        if field is None:
            field = next((c.field for c in coords
                          if isinstance(c, QuadExt) and not c.field.is_rational),
                         RATIONAL)
        vals = tuple(v.with_field(field) if isinstance(v, QuadExt) else QuadExt(v, 0, field)
                     for v in coords)
        if len(vals) != 3:
            raise ValidationError("expected a coefficient triple")
        den = lcm(*(v._den for v in vals))
        w = [c * (den // v._den) for v in vals for c in (v._p, v._q)]
        return cls._keyed(_primitive(w, field.d or 0), field)

    @classmethod
    def _keyed(cls, key: tuple, field: FieldSpec):
        """An instance from a key of ``field`` that is already primitive."""
        x = object.__new__(cls)         # slot by slot: faster than _fill, and built often
        _set_key(x, key)
        _set_field(x, field)
        _set_coords(x, None)
        return x

    def __reduce__(self):                   # for copy and pickle: the key as it is
        return self._keyed, (self.key, self.field)

    @property
    def coords(self) -> tuple[QuadExt, QuadExt, QuadExt]:
        if self._coords is None:
            w, field = self.key, self.field
            s = w[0] or w[2] or w[4]            # the pivot, rational
            _set_coords(self, tuple(
                _quad(w[k], w[k + 1], s, field.d or 0, field) for k in (0, 2, 4)))
        return self._coords

    def __eq__(self, other) -> bool:
        # a key with no sqrt(d) part is one rational line in every field
        return (type(self) is type(other) and self.key == other.key
                and (self.field == other.field or not any(self.key[1::2])))

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.key))


# the slots' member descriptors set them past Record.__setattr__, faster than object.__setattr__
_set_key, _set_field, _set_coords = (_Triple.key.__set__, _Triple.field.__set__,
                                     _Triple._coords.__set__)


class ProjLine(_Triple):
    """Projective line A*x + B*y + C*z = 0, normalized."""

    def __repr__(self) -> str:
        return "ProjLine(%s; %s; %s)" % tuple(map(str, self.coords))


class ProjPoint(_Triple):
    """Projective point [X : Y : Z], normalized like a line."""

    def __repr__(self) -> str:
        return "ProjPoint[%s : %s : %s]" % tuple(map(str, self.coords))


def intersect(l1: ProjLine, l2: ProjLine) -> ProjPoint:
    """The unique common point of two distinct lines (``_point_key``), in
    the irrational field of either line."""
    if l1 == l2:
        raise DegenerateError("intersect of identical lines")
    field = l1.field if not l1.field.is_rational else l2.field
    if not l2.field.is_rational and l2.field != field:
        raise FieldMixError(f"cannot mix {l1.field} with {l2.field}")
    return ProjPoint._keyed(_point_key(l1.key, l2.key, field.d or 0), field)


class Arrangement(Record):
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
            if ln.key in seen:
                raise DegenerateError(
                    f"lines {seen[ln.key]} and {idx} coincide after normalization")
            seen[ln.key] = idx
        self._fill(str(name), field, lns)

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
            triple = " ; ".join(map(str, ln.coords))
            out.append(f"line {idx} : {triple}")
        return "\n".join(out) + "\n"

    def __repr__(self) -> str:
        return f"Arrangement({self.name!r}, n={self.n}, field={self.field})"


def _point_key(u: tuple, v: tuple, d: int) -> tuple[int, ...]:
    """The key of the common point of the lines with keys u and v: their
    cross product over Z[sqrt d], made primitive.  Raises DegenerateError
    when u and v are one line."""
    a0, b0, a1, b1, a2, b2 = u
    c0, e0, c1, e1, c2, e2 = v
    # (a + b*sqrt d)(c + e*sqrt d) = (ac + d*be) + (ae + bc)*sqrt d
    w = (a1 * c2 - a2 * c1 + d * (b1 * e2 - b2 * e1),
         a1 * e2 + b1 * c2 - a2 * e1 - b2 * c1,
         a2 * c0 - a0 * c2 + d * (b2 * e0 - b0 * e2),
         a2 * e0 + b2 * c0 - a0 * e2 - b0 * c2,
         a0 * c1 - a1 * c0 + d * (b0 * e1 - b1 * e0),
         a0 * e1 + b0 * c1 - a1 * e0 - b1 * c0)
    try:
        return _primitive(w, d)
    except ValidationError:
        raise DegenerateError("intersect of identical lines") from None


def _on(point: tuple, keys: list, labels: list[int], d: int) -> bool:
    """Whether each line v in ``labels`` (key keys[v - 1]) passes through key ``point``."""
    x0, y0, x1, y1, x2, y2 = point
    for v in labels:
        a0, b0, a1, b1, a2, b2 = keys[v - 1]
        if (a0 * x0 + a1 * x1 + a2 * x2 + d * (b0 * y0 + b1 * y1 + b2 * y2)  # over Z[sqrt d]
                or a0 * y0 + b0 * x0 + a1 * y1 + b1 * x1 + a2 * y2 + b2 * x2):
            return False
    return True


def _multiple_points(arrangement: Arrangement) -> dict[tuple, list[int]]:
    """The points on three or more lines: key -> ascending line labels, in
    lexicographic order.  Each line's meets with the later lines not on a
    point found through it are grouped by ``_point_key``, so a point is
    found whole at its smallest line; a double point is never kept.
    ValidationError if a meet is a found key or a grouped line past the
    first two misses its key (``_on``); DegenerateError if lines coincide."""
    d = arrangement.field.d or 0
    keys = [ln.key for ln in arrangement.lines]
    if len(set(keys)) < len(keys):
        raise DegenerateError("intersect of identical lines")
    found: dict[tuple, list[int]] = {}
    on: list[list[list[int]]] = [[] for _ in keys]     # the found points through each line
    for i, u in enumerate(keys, start=1):
        skip = set().union(*on[i - 1])
        groups: dict[tuple, list[int]] = {}
        for j, w in enumerate(keys[i:], i + 1):
            if j not in skip:
                groups.setdefault(_point_key(u, w, d), []).append(j)
        for key, later in groups.items():
            if key in found or len(later) >= 2 and not _on(key, keys, later[1:], d):
                raise ValidationError("lattice does not cover every line pair exactly once")
            if len(later) >= 2:
                found[key] = labels = [i, *later]
                for v in later:
                    on[v - 1].append(labels)
    return found


def _realizes(arrangement: Arrangement, table: ConfigTable) -> bool:
    """Whether the arrangement's multiple points are exactly the table's
    (``_multiple_points``, compared as line sets), checked, not derived: each
    table point's key is its two smallest lines' meet, and its other lines
    must be on it (``_on``); on each line i, the keys of the points whose
    smallest line is i and its meets with the later lines sharing no table
    point with it must all differ.  A third line through a meet makes two of
    these equal on the smallest line through it.  Lines must be distinct."""
    d = arrangement.field.d or 0
    keys = [ln.key for ln in arrangement.lines]
    own: dict[int, set] = {}                 # line -> keys of the points it is smallest on
    for _, s in table.points:
        a, b, *rest = sorted(s)
        key = _point_key(keys[a - 1], keys[b - 1], d)
        if key in own.setdefault(a - 1, set()) or not _on(key, keys, rest, d):
            return False
        own[a - 1].add(key)
    through = [set(ks) for ks in table._through]
    line = None
    for (i, u), (j, w) in combinations(enumerate(keys), 2):    # grouped by i
        if i != line:
            line, seen, mine = i, own.pop(i, set()), through[i]
        if mine.isdisjoint(through[j]):
            key = _point_key(u, w, d)
            if key in seen:
                return False
            seen.add(key)
    return True


def lattice_of(arrangement: Arrangement) -> tuple[tuple[ProjPoint, ...], ConfigTable]:
    """The multiple points (``_multiple_points``, which meets no pair on a
    point found earlier) as ProjPoints, and the ConfigTable of their line
    sets m1, m2, ... in the same order: points[k] is table.points[k], in the
    field ``intersect`` gives its two smallest lines.  No double point is
    built.  The line count is checked first; coincident lines raise DegenerateError."""
    if not 1 <= arrangement.n <= MAX_LINES:
        raise ValidationError(f"line count must be in 1..{MAX_LINES}, not {arrangement.n}")
    found = _multiple_points(arrangement)
    points, rows = [], []
    through: list[list[int]] = [[] for _ in range(arrangement.n)]   # as ConfigTable fills it
    for k, (key, labels) in enumerate(found.items()):
        first, second = arrangement.line(labels[0]).field, arrangement.line(labels[1]).field
        points.append(ProjPoint._keyed(key, second if first.is_rational else first))
        rows.append((f"m{k + 1}", frozenset(labels)))
        for v in labels:
            through[v - 1].append(k)
    # checked already: >= 3 lines a point, labels in 1..n, one point a pair; m1.. are unique
    table = ConfigTable._of(arrangement.name, arrangement.n, tuple(rows),
                            frozenset(s for _, s in rows), through)
    return tuple(points), table


class MapKind(Record):
    """Coordinate map: swap sends (A,B,C) to (B,A,C), the reflection
    exchanging x and y; conjugate then applies the Galois conjugation to
    every coefficient."""

    __slots__ = ("swap", "conjugate")

    @property
    def label(self) -> str:
        parts = [name for name, on in (("swap", self.swap),
                                       ("conjugate", self.conjugate)) if on]
        return "+".join(parts) or "identity"

    def _image(self, key: tuple) -> tuple[int, ...]:
        """The map on keys: swap exchanges the first two pairs, conjugate
        negates the sqrt(d) parts.  Conjugation keeps a key primitive; a
        swap can move the pivot, so its image needs ``_primitive``."""
        a0, b0, a1, b1, a2, b2 = key
        if self.swap:
            a0, b0, a1, b1 = a1, b1, a0, b0
        if self.conjugate:
            return (a0, -b0, a1, -b1, a2, -b2)
        return (a0, b0, a1, b1, a2, b2)

    def __str__(self) -> str:
        return self.label


SWAP = MapKind(swap=True, conjugate=False)
SWAP_CONJUGATE = MapKind(swap=True, conjugate=True)
_CONJUGATE = MapKind(swap=False, conjugate=True)


def parse_arrangement(text: str) -> Arrangement:
    """Parse the .arr format: field header plus consecutive line triples."""
    name = None
    field = None
    entries: dict[int, tuple] = {}
    for lineno, line, fields in _directives(text):
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
                raise ParseError(f"line {lineno}: duplicate line index {_digits(idx)[0]}")
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
