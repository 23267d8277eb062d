"""Configuration tables, lattice isomorphisms, and automorphism groups.

A configuration table records the multiple points (multiplicity >= 3) of
a line arrangement as sets of line labels; double points are implicit as
the uncovered pairs.  Automorphisms are found by individualization-
refinement on the line/point incidences, pruned by the automorphisms
already found; every candidate gets the full point-set check.  The group's
elements are read off the stabilizer chain of the automorphisms found.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import Counter
from itertools import combinations, count
from math import comb, lcm
from operator import index, itemgetter

from .errors import QUOTE_CHARS, ParseError, ValidationError, _digits, _quoted
from .fields import _directives, parse_digits
from .record import Record

# Largest accepted line count, a bound on hostile input (the search keeps no n x n table).
MAX_LINES = 1024
# Most entries (order times line count) a listed automorphism group may hold.
_MAX_ELEMENT_ENTRIES = 1 << 22


class Permutation(Record):
    """Bijection of {1..n}; images[i-1] = image of i."""

    __slots__ = ("images",)

    def __init__(self, images) -> None:
        imgs = _labels(images)
        n = len(imgs)
        if sorted(imgs) != list(range(1, n + 1)):
            shown = ", ".join(_digits(v)[0] for v in imgs[:QUOTE_CHARS]) + "," * (n == 1)
            raise ValidationError(f"not a permutation of 1..{n}: {_quoted(f'({shown})', str)}")
        object.__setattr__(self, "images", imgs)

    @staticmethod
    def _of(images: tuple) -> "Permutation":
        """Trusted constructor: ``images`` is already a tuple of 1..n."""
        p = object.__new__(Permutation)
        object.__setattr__(p, "images", images)
        return p

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(1, n + 1))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        try:
            if 0 < index(i) <= len(self.images):
                return self.images[i - 1]
        except TypeError:
            _labels((i,))       # ValidationError naming a label that is not an integer
        raise ValidationError(f"label {_digits(i)[0]} out of range 1..{self.degree}")

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Composition: (p * q)(i) = p(q(i))."""
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.degree != other.degree:
            raise ValidationError("degree mismatch in composition")
        return Permutation._of(tuple(self.images[v - 1] for v in other.images))

    def inverse(self) -> "Permutation":
        """Each label's preimage, in order of image."""
        return Permutation._of(tuple(i for _, i in sorted(zip(self.images, count(1)))))

    def order(self) -> int:
        """The lcm of the cycle lengths, walked without building the cycles."""
        images, seen, lengths = self.images, set(), {1}
        for start in range(1, len(images) + 1):
            if start not in seen:
                j, length = images[start - 1], 1
                while j != start:
                    seen.add(j)
                    j, length = images[j - 1], length + 1
                lengths.add(length)
        return lcm(*lengths)

    @property
    def is_involution(self) -> bool:
        return _involutive(self.images, tuple(range(1, len(self.images) + 1)))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each starting at its smallest element."""
        images, seen, out = self.images, set(), []
        for start in range(1, len(images) + 1):
            if start in seen:
                continue
            cyc, j = [start], images[start - 1]
            while j != start:
                cyc.append(j)
                j = images[j - 1]
            seen.update(cyc)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "id"
        return "".join("(" + " ".join(str(v) for v in c) + ")" for c in cycs)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        return f"Permutation({self.images})"

    __str__ = cycle_string


def _labels(values, what: str = "line label") -> tuple[int, ...]:
    """``values`` as ints; ValidationError on one that ``int`` would truncate or parse."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        bad = repr(next((v for v in values if not hasattr(type(v), "__index__")), values))
        raise ValidationError(f"{what} {_quoted(bad, str)} is not an integer") from None


def _line_count(n) -> int:
    """n as an int in 1..MAX_LINES, else ValidationError: checked before n sizes anything."""
    (count,) = _labels((n,), "line count")
    if not 1 <= count <= MAX_LINES:
        raise ValidationError(f"line count must be in 1..{MAX_LINES}, not {_digits(n)[0]}")
    return count


def _text(value, what: str) -> str:
    """str(value), or ValidationError for an integer past the digits str() writes."""
    try:
        return str(value)
    except ValueError:
        raise ValidationError(f"{what} of {_digits(value)[1]} digits is too long") from None


def _involutive(images: tuple, identity: tuple) -> bool:
    """Whether ``images`` is not ``identity`` and squares to it, read from index 1."""
    return images != identity and itemgetter(*images)((0,) + images) == identity


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_cycles(text: str, n: int) -> Permutation:
    """Parse cycle notation such as ``(1 6)(2 5)(3 4)(7 8)``; ``id`` allowed."""
    n = _line_count(n)
    s = text.strip()
    if s in ("id", "()", ""):
        return Permutation.identity(n)
    if _CYCLE_RE.sub("", s).strip():
        raise ParseError(f"malformed cycle notation {_quoted(text)}")
    images = list(range(1, n + 1))
    for body in _CYCLE_RE.findall(s):
        entries = [e for e in re.split(r"[,\s]+", body.strip()) if e]
        if len(entries) < 2:
            raise ParseError(f"cycle with fewer than two entries in {_quoted(text)}")
        vals = [parse_digits(e, "a line label") for e in entries]
        if len(set(vals)) != len(vals):
            raise ParseError(f"repeated label inside a cycle in {_quoted(text)}")
        for v in vals:
            if not 1 <= v <= n:
                raise ParseError(f"label {_digits(v)[0]} out of range 1..{n}")
            if images[v - 1] != v:
                raise ParseError(f"label {_digits(v)[0]} appears in two cycles")
        for a, b in zip(vals, vals[1:] + vals[:1]):
            images[a - 1] = b
    return Permutation(images)


class ConfigTable(Record):
    """Multiple points of an arrangement: (label, set of incident lines)."""

    __slots__ = ("name", "n", "points", "_sets", "_through")

    def __init__(self, name: str, n: int, points) -> None:
        n = _line_count(n)
        pts, labels = [], set()
        through: list[list[int]] = [[] for _ in range(n)]   # each line's points, by index
        for label, lines in points:
            label, lines = _text(label, "point label"), frozenset(_labels(lines))
            if len(lines) < 3:
                raise ValidationError(f"point {_quoted(label, str)} has fewer than 3 lines")
            for v in lines:
                if not 1 <= v <= n:
                    raise ValidationError(f"point {_quoted(label, str)}: "
                                          f"label {_digits(v)[0]} out of 1..{n}")
            if label in labels:
                raise ValidationError(f"duplicate point label {_quoted(label, str)}")
            labels.add(label)
            met, k = [], len(pts)       # met: the earlier points on these lines, once per line
            for v in lines:
                met += (on_v := through[v - 1])
                on_v.append(k)
            if len(set(met)) < len(met):
                # the first pair, as this point's lines sort, on an earlier point
                (a, b, *_), p = min((sorted(pts[p][1] & lines), p)
                                    for p, shared in Counter(met).items() if shared > 1)
                raise ValidationError(f"lines {a},{b} lie on two points "
                                      f"({_quoted(pts[p][0], str)} and {_quoted(label, str)}):"
                                      " two lines meet once")
            pts.append((label, lines))
        self._fill(_text(name, "table name"), n, tuple(pts), frozenset(s for _, s in pts), through)

    @property
    def point_sets(self) -> frozenset:
        return self._sets

    def multiplicity_census(self) -> dict[int, int]:
        return dict(Counter(len(s) for _, s in self.points))

    def double_count(self) -> int:
        return comb(self.n, 2) - sum(comb(len(s), 2) for _, s in self.points)

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
    name = n = None
    points = []
    for lineno, line, fields in _directives(text):
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
                raise ParseError(f"line {lineno}: repeated line label in point "
                                 f"{_quoted(label, str)}")
            points.append((label, [parse_digits(v, f"line {lineno}: a line label")
                                   for v in rest]))
        else:
            raise ParseError(f"line {lineno}: unknown directive {_quoted(keyword)}")
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
    image = ((0,) + tau.images).__getitem__     # a's points hold labels in 1..n
    return frozenset(frozenset(map(image, s)) for s in a.point_sets) == b.point_sets


class AutGroup(Record):
    """Full automorphism group of a configuration table."""

    __slots__ = ("n", "elements", "generators")

    @property
    def order(self) -> int:
        return len(self.elements)

    def structure_name(self) -> str:
        """Convenience label from the element orders, counted once, and
        whether the generators commute; falls back to 'order N'."""
        n = self.order
        if n == 1:
            return "trivial"
        if n > 48:
            return f"order {n}"
        orders = Counter(g.order() for g in self.elements)
        known = {
            (24, ((1, 1), (2, 9), (3, 8), (4, 6))): "S4",
            (6, ((1, 1), (2, 3), (3, 2))): "S3",
            (48, ((1, 1), (2, 13), (3, 8), (4, 6), (6, 8), (8, 12))): "GL(2,F3)",
            (12, ((1, 1), (2, 7), (3, 2), (6, 2))): "S3 x Z2",
            (8, ((1, 1), (2, 5), (4, 2))): "D4",
        }
        if label := known.get((n, tuple(sorted(orders.items())))):
            return label
        if n in orders:
            return f"Z{n}"
        if all(g * h == h * g for g, h in combinations(self.generators, 2)):
            return f"abelian order {n}"
        return f"order {n}"


def automorphism_group(table: ConfigTable) -> AutGroup:
    """Enumerate all lattice automorphisms of the table.

    Individualization-refinement (McKay & Piperno, J. Symbolic Comput. 60,
    2014): from the deepest level of the first path up, one child per orbit
    of the automorphisms found so far is searched, cut wherever the
    refinement trace departs from the first path's, for a leaf passing
    ``is_lattice_isomorphism``; a leaf that reaches the check matched the
    first leaf's point lists, so is an automorphism, and the check is a
    safety net.  The automorphisms found are a strong generating set for
    the lines individualized on the first path (Seress, *Permutation Group
    Algorithms*, 2003): the elements, sorted by images, are the products of
    one coset representative per level, read off the Schreier tree of its
    line under the generators found at or below it.
    Their number, the product of the trees' sizes, is checked against
    _MAX_ELEMENT_ENTRIES after each level, before any is built; before the
    first path, so is the lower bound that the classes of interchangeable
    lines give.  The first path keeps each node's colours and target cell,
    not its children."""
    n = table.n
    # (i j) is an automorphism exactly when lines i and j lie on the same
    # points: a point S on i alone would go to S - {i} + {j}, which shares
    # |S| - 1 >= 2 lines with S.  A class of k such lines gives S_k inside
    # the group, so the product of the classes' k! is a lower bound.
    bound = 1
    for k in Counter(map(tuple, table._through)).values():
        for f in range(2, k + 1):
            bound *= f
            _refuse_above(bound, n, exact=f == n)
    point_lines = [itemgetter(*(v - 1 for v in s)) for _, s in table.points]
    # each line's points; itemgetter(p) returns a scalar, so one point is a slice
    line_points = [itemgetter(*ps) if len(ps) > 1 else itemgetter(slice(ps[0], ps[0] + 1))
                   if ps else itemgetter(slice(0)) for ps in table._through]

    def refine(colours, expected=None):
        """The equitable refinement of ``colours`` (a line's colour counts the
        lines in lower cells) and its trace; (None, None) once the trace
        departs from ``expected``.  A line's signature is its colour and the
        sorted ranks of its points' colour lists, and its new colour counts
        the lines of smaller signature; the trace keeps each round's sorted
        lists and signatures.  A discrete colouring is a leaf, and its round
        ends refinement with the sorted lists alone: two leaves' lists are
        equal exactly when the map matching their colours is an
        automorphism, which then keeps ranks and signatures too."""
        trace = []
        while True:
            point_colours = [tuple(sorted(get(colours))) for get in point_lines]
            step = lists = sorted(point_colours)
            leaf = len(set(colours)) == n
            if not leaf:
                ranks = [bisect_left(lists, pc) for pc in point_colours]
                sigs = [(c, tuple(sorted(get(ranks)))) for c, get in zip(colours, line_points)]
                step = (lists, sorted(sigs))
            if expected is not None and expected[len(trace)] != step:
                return None, None
            trace.append(step)
            if leaf or (refined := [bisect_left(step[1], sig) for sig in sigs]) == colours:
                return colours, trace
            colours = refined

    def target(colours):
        """The lines of the target cell: the largest non-singleton cell, the
        lowest colour among ties; none once the colours are discrete.  A cell
        ends where the next colour up, or n, begins."""
        starts = sorted(set(colours))
        if len(starts) == n:
            return []
        _, colour = max((b - a, -a) for a, b in zip(starts, starts[1:] + [n]))
        return [v for v, c in enumerate(colours) if c == -colour]

    def child(colours, cell, v):
        """``colours`` with line v of the target ``cell`` individualized."""
        return colours[:v] + [colours[v] + len(cell) - 1] + colours[v + 1:]

    first_leaf, trace = refine([0] * n)     # the first path's nodes, down to its leaf
    traces, path = [trace], []              # path: each first-path node's colours and cell
    while cell := target(first_leaf):
        path.append((first_leaf, cell))
        first_leaf, trace = refine(child(first_leaf, cell, cell[0]))
        traces.append(trace)

    def search(colours, depth):
        """An automorphism carrying the first leaf below this node, or None."""
        colours, _ = refine(colours, traces[depth])
        if colours is None:
            return None
        cell = target(colours)
        if not cell:
            line_of = sorted(range(n), key=colours.__getitem__)
            tau = Permutation([line_of[c] + 1 for c in first_leaf])
            return tau if is_lattice_isomorphism(table, table, tau) else None
        return next(filter(None, (search(child(colours, cell, v), depth + 1)
                                  for v in cell)), None)

    def orbit(u):
        """Schreier tree of line u: each line of its orbit under ``moves`` ->
        a product of moves carrying u there."""
        tree, frontier = {u: tuple(range(n))}, [u]
        for x in frontier:
            for g in moves:
                if g[x] not in tree:
                    tree[g[x]] = tuple(map(g.__getitem__, tree[x]))
                    frontier.append(g[x])
        return tree

    gens, moves, trees, order = [], [], [], 1     # moves: the generators' 0-based images
    for depth in reversed(range(len(path))):
        colours, cell = path[depth]
        tried = [cell[0]]
        tree = seen = orbit(tried[0])
        for v in cell[1:]:
            if v not in seen:
                tau = search(child(colours, cell, v), depth + 1)
                if tau is None:
                    tried.append(v)
                else:
                    gens.append(tau)
                    moves.append(tuple(i - 1 for i in tau.images))
                    tree = orbit(tried[0])
                seen = set(tree).union(*map(orbit, tried[1:]))
        trees.append(tree)
        order *= len(tree)          # one element per choice of representatives
        _refuse_above(order, n, exact=not depth)
    del search                      # it calls itself through its cell: a cycle gc would free
    # top level first: p * u for each coset representative u; (p * u)(i) = p(u(i))
    elements = [tuple(range(1, n + 1))]
    for tree in reversed(trees):
        getters = [itemgetter(*u) for u in list(tree.values())[1:]]
        elements += [get(p) for get in getters for p in elements]
    return AutGroup._of(n, tuple(map(Permutation._of, sorted(elements))), tuple(gens))


def _refuse_above(order: int, n: int, exact: bool) -> None:
    """Refuse a group on n lines of ``order``, or of at least ``order``
    unless ``exact``, whose listing would exceed _MAX_ELEMENT_ENTRIES."""
    if order * n > _MAX_ELEMENT_ENTRIES:
        bound = "" if exact else "at least "
        raise ValidationError(f"automorphism group of order {bound}{order} on {n} lines "
                              f"is too large to list (over {_MAX_ELEMENT_ENTRIES} entries)")


def involutions(group: AutGroup) -> list[Permutation]:
    """All order-2 elements, in the group's deterministic element order."""
    identity = tuple(range(1, group.n + 1))
    return [g for g in group.elements if _involutive(g.images, identity)]
