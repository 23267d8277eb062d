"""Configuration tables, lattice isomorphisms, and automorphism groups.

A configuration table records the multiple points (multiplicity >= 3) of
a line arrangement as sets of line labels; double points are implicit as
the uncovered pairs.  Automorphisms are found by individualization-
refinement on the line/point incidence structure with pruning by the
automorphisms already found; every candidate gets the full point-set check
(refinement is an invariant, not a proof of isomorphism).
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb, lcm
from operator import add, itemgetter

from .errors import ParseError, ValidationError
from .fields import parse_digits

# Largest accepted line count: the automorphism search allocates n x n.
MAX_LINES = 1024


class Permutation:
    """Bijection of {1..n}; images[i-1] = image of i."""

    __slots__ = ("images",)

    def __init__(self, images) -> None:
        imgs = tuple(int(v) for v in images)
        n = len(imgs)
        if sorted(imgs) != list(range(1, n + 1)):
            raise ValidationError(f"not a permutation of 1..{n}: {imgs}")
        object.__setattr__(self, "images", imgs)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(1, n + 1))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def apply_set(self, labels) -> frozenset:
        return frozenset(self(i) for i in labels)

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(i) = p(q(i))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.degree != other.degree:
            raise ValidationError("degree mismatch in composition")
        return Permutation(tuple(self(other(i)) for i in range(1, self.degree + 1)))

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, v in enumerate(self.images, start=1):
            inv[v - 1] = i
        return Permutation(inv)

    def order(self) -> int:
        return lcm(*map(len, self.cycles()))

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.images, start=1))

    @property
    def is_involution(self) -> bool:
        images = self.images
        return not self.is_identity and all(images[v - 1] == i for i, v in enumerate(images, 1))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest element."""
        seen = set()
        out = []
        for start in range(1, self.degree + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Permutation({self.images})"

    def __str__(self) -> str:
        return self.cycle_string()


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse cycle notation such as ``(1 6)(2 5)(3 4)(7 8)``; ``id`` allowed."""
    s = text.strip()
    if s in ("id", "()", ""):
        return Permutation.identity(n)
    stripped = _CYCLE_RE.sub("", s)
    if stripped.strip():
        raise ParseError(f"malformed cycle notation {text!r}")
    images = list(range(1, n + 1))
    for body in _CYCLE_RE.findall(s):
        entries = [e for e in re.split(r"[,\s]+", body.strip()) if e]
        if len(entries) < 2:
            raise ParseError(f"cycle with fewer than two entries in {text!r}")
        vals = [parse_digits(e, "a line label") for e in entries]
        if len(set(vals)) != len(vals):
            raise ParseError(f"repeated label inside a cycle in {text!r}")
        for v in vals:
            if not 1 <= v <= n:
                raise ParseError(f"label {v} out of range 1..{n}")
            if images[v - 1] != v:
                raise ParseError(f"label {v} appears in two cycles")
        for a, b in zip(vals, vals[1:] + vals[:1]):
            images[a - 1] = b
    return Permutation(images)


class ConfigTable:
    """Multiple points of an arrangement: (label, set of incident lines)."""

    __slots__ = ("name", "n", "points", "_sets")

    def __init__(self, name: str, n: int, points) -> None:
        if not 1 <= n <= MAX_LINES:
            raise ValidationError(f"line count must be in 1..{MAX_LINES}, not {n}")
        pts = []
        labels = set()
        seen_pairs = {}
        for label, lines in points:
            lines = frozenset(int(v) for v in lines)
            if len(lines) < 3:
                raise ValidationError(f"point {label} has fewer than 3 lines")
            for v in lines:
                if not 1 <= v <= n:
                    raise ValidationError(f"point {label}: label {v} out of 1..{n}")
            if label in labels:
                raise ValidationError(f"duplicate point label {label}")
            labels.add(label)
            for pair in combinations(sorted(lines), 2):
                if pair in seen_pairs:
                    raise ValidationError(
                        f"lines {pair[0]},{pair[1]} lie on two points "
                        f"({seen_pairs[pair]} and {label}): two lines meet once")
                seen_pairs[pair] = label
            pts.append((str(label), lines))
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "points", tuple(pts))
        object.__setattr__(self, "_sets", frozenset(s for _, s in pts))

    def __setattr__(self, name, value):
        raise AttributeError("ConfigTable is immutable")

    @property
    def point_sets(self) -> frozenset:
        return self._sets

    def multiplicity_census(self) -> dict[int, int]:
        census: dict[int, int] = {}
        for _, s in self.points:
            census[len(s)] = census.get(len(s), 0) + 1
        return census

    def double_count(self) -> int:
        return comb(self.n, 2) - sum(comb(len(s), 2) for _, s in self.points)

    def pair_weights(self) -> dict[tuple[int, int], int]:
        """weight{i,j} = multiplicity of the listed point through i and j, else 2."""
        w = {}
        for _, s in self.points:
            for pair in combinations(sorted(s), 2):
                w[pair] = len(s)
        return w

    def serialize(self) -> str:
        out = [f"arrangement {self.name}", f"lines {self.n}"]
        for label, s in self.points:
            out.append(f"point {label} : " + " ".join(str(v) for v in sorted(s)))
        return "\n".join(out) + "\n"

    def __eq__(self, other) -> bool:
        return (isinstance(other, ConfigTable) and self.n == other.n
                and self.point_sets == other.point_sets)

    def __hash__(self) -> int:
        return hash((self.n, self._sets))

    def __repr__(self) -> str:
        return f"ConfigTable({self.name!r}, n={self.n}, points={len(self.points)})"


def parse_config_table(text: str) -> ConfigTable:
    """Parse the .cfg format (line-oriented, # comments)."""
    name = None
    n = None
    points = []
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
        elif keyword == "lines":
            if len(fields) != 2:
                raise ParseError(f"line {lineno}: expected 'lines <n>'")
            n = parse_digits(fields[1], f"line {lineno}: a line count")
        elif keyword == "point":
            m = re.match(r"^point\s+(\S+)\s*:\s*(.*)$", line)
            if not m:
                raise ParseError(f"line {lineno}: expected 'point <label> : <i> ...'")
            label, rest = m.group(1), m.group(2).split()
            if not rest:
                raise ParseError(f"line {lineno}: point needs integer line labels")
            if len(set(rest)) != len(rest):
                raise ParseError(f"line {lineno}: repeated line label in point {label}")
            points.append((label, [parse_digits(v, f"line {lineno}: a line label")
                                   for v in rest]))
        else:
            raise ParseError(f"line {lineno}: unknown directive {keyword!r}")
    if name is None or n is None:
        raise ParseError("missing 'arrangement' or 'lines' header")
    try:
        return ConfigTable(name, n, points)
    except ValidationError as exc:
        raise ParseError(str(exc)) from exc


def is_lattice_isomorphism(a: ConfigTable, b: ConfigTable, tau: Permutation) -> bool:
    """True iff relabeling a's points through tau yields exactly b's points.

    Doubles agree automatically: they are the pairs not covered by any
    listed point."""
    if a.n != b.n or tau.degree != a.n:
        raise ValidationError("size mismatch between tables and permutation")
    return frozenset(tau.apply_set(s) for s in a.point_sets) == b.point_sets


@dataclass(frozen=True)
class AutGroup:
    """Full automorphism group of a configuration table."""

    n: int
    elements: tuple[Permutation, ...]
    generators: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_order_profile(self) -> dict[int, int]:
        profile: dict[int, int] = {}
        for g in self.elements:
            k = g.order()
            profile[k] = profile.get(k, 0) + 1
        return profile

    def is_abelian(self) -> bool:
        return all(g * h == h * g for g, h in combinations(self.elements, 2))

    def structure_name(self) -> str:
        """Convenience label from elementary tests; falls back to 'order N'."""
        n = self.order
        if n == 1:
            return "trivial"
        if n > 48:
            return f"order {n}"
        profile = tuple(sorted(self.element_order_profile().items()))
        known = {
            (24, ((1, 1), (2, 9), (3, 8), (4, 6))): "S4",
            (6, ((1, 1), (2, 3), (3, 2))): "S3",
            (48, ((1, 1), (2, 13), (3, 8), (4, 6), (6, 8), (8, 12))): "GL(2,F3)",
            (12, ((1, 1), (2, 7), (3, 2), (6, 2))): "S3 x Z2",
            (8, ((1, 1), (2, 5), (4, 2))): "D4",
        }
        label = known.get((n, profile))
        if label:
            return label
        if any(g.order() == n for g in self.elements):
            return f"Z{n}"
        if self.is_abelian():
            return f"abelian order {n}"
        return f"order {n}"


def automorphism_group(table: ConfigTable) -> AutGroup:
    """Enumerate all lattice automorphisms of the table.

    Individualization-refinement (McKay & Piperno, J. Symbolic Comput. 60,
    2014): from the deepest level of the first path up, one child per orbit
    of the automorphisms found so far is searched, cut wherever the
    refinement trace departs from the first path's, for a leaf passing
    ``is_lattice_isomorphism``.  The automorphisms found are a strong
    generating set (Seress, *Permutation Group Algorithms*, 2003), not a
    minimal one; the elements are their closure, sorted by image sequence.
    """
    n = table.n
    # a pair's weight and the other line's colour (0..n-1) as one sortable int
    pair_keys = [[0 if j == i else 2 * n for j in range(n)] for i in range(n)]
    for (i, j), w in table.pair_weights().items():
        pair_keys[i - 1][j - 1] = pair_keys[j - 1][i - 1] = w * n
    point_lines = [itemgetter(*(v - 1 for v in s)) for _, s in table.points]
    through: list[list[int]] = [[] for _ in range(n)]
    for p, (_, s) in enumerate(table.points):
        for i in s:
            through[i - 1].append(p)

    def refine(colours, expected=None):
        """The equitable refinement of ``colours`` (a line's colour counts the
        lines in lower cells) and the trace of its rounds, each the sorted
        line signatures; (None, None) once the trace departs from ``expected``."""
        trace = []
        while True:
            point_colours = [sorted(get(colours)) for get in point_lines]
            sigs = [(colours[i], sorted(map(add, pair_keys[i], colours)),
                     sorted(point_colours[p] for p in through[i])) for i in range(n)]
            step = sorted(sigs)
            if expected is not None and expected[len(trace)] != step:
                return None, None
            trace.append(step)
            refined = [bisect_left(step, sig) for sig in sigs]
            if refined == colours:
                return colours, trace
            colours = refined

    def children(colours):
        """(v, colours with v individualized) for each line v of the target
        cell: the largest non-singleton cell, the lowest colour among ties."""
        size, colour = max((k, -c) for c, k in Counter(colours).items())
        cell = [v for v, c in enumerate(colours) if c == -colour] if size > 1 else []
        return [(v, colours[:v] + [colours[v] + size - 1] + colours[v + 1:]) for v in cell]

    colours, trace = refine([0] * n)
    traces, path = [trace], []          # path: the children of each first-path node
    while kids := children(colours):
        path.append(kids)
        colours, trace = refine(kids[0][1])
        traces.append(trace)
    first_leaf = colours

    def search(colours, depth):
        """An automorphism (0-based images) carrying the first leaf to a leaf
        below this individualized node at ``depth``, or None."""
        colours, _ = refine(colours, traces[depth])
        if colours is None:
            return None
        kids = children(colours)
        if not kids:
            line_of = sorted(range(n), key=colours.__getitem__)
            gamma = tuple(line_of[c] for c in first_leaf)
            tau = Permutation(v + 1 for v in gamma)
            return gamma if is_lattice_isomorphism(table, table, tau) else None
        for _, child in kids:
            gamma = search(child, depth + 1)
            if gamma is not None:
                return gamma
        return None

    gens: list[tuple[int, ...]] = []
    for depth in reversed(range(len(path))):
        tried = [path[depth][0][0]]
        for v, child in path[depth][1:]:
            if not any(v in _orbit(u, [g.__getitem__ for g in gens]) for u in tried):
                gamma = search(child, depth + 1)
                if gamma is None:
                    tried.append(v)
                else:
                    gens.append(gamma)
    elements = _orbit(tuple(range(n)), [itemgetter(*g) for g in gens])
    return AutGroup(n=n, elements=tuple(Permutation(v + 1 for v in p) for p in sorted(elements)),
                    generators=tuple(Permutation(v + 1 for v in g) for g in gens))


def _orbit(start, moves) -> set:
    """Everything reachable from ``start`` by applying ``moves``."""
    orbit, frontier = {start}, [start]
    while frontier:
        x = frontier.pop()
        new = {move(x) for move in moves} - orbit
        orbit |= new
        frontier.extend(new)
    return orbit


def involutions(group: AutGroup) -> list[Permutation]:
    """All order-2 elements, in the group's deterministic element order."""
    return [g for g in group.elements if g.is_involution]
